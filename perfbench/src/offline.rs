//! The offline workloads: `table1` through `batch::measure_suite`, and the
//! closed-loop `-O2` compiles of `compile-o2` and `egraph-o2`.

use std::time::{Duration, Instant};

use mig::Mig;
use plim::wide::WideMachine;
use plim_compiler::batch::{self, Circuit, MeasuredRow, Point, SuiteRun, PAPER_EFFORT};
use plim_compiler::cache::fnv128;
use plim_compiler::ir::analysis::{analyze_events, AnalysisConfig};
use plim_compiler::{CompilerOptions, Target};
use plim_parallel::Parallelism;
use plim_service::pipeline::{parse_network, InputFormat};

use crate::host::Meter;
use crate::inputs::{self, Input, Size};
use crate::path::{self, LayerCounts, Output, Quality};
use crate::report::{self, LayerExtras, Measured};
use crate::stats::{self, Failure};
use crate::trace::Tracer;
use crate::{Config, RunResult, SETUP_REPS};

/// Untraced rounds every run makes at least, so each per-circuit latency is
/// a median of several.
const MIN_ROUNDS: usize = 3;

/// Rounds a traced run makes (each an untraced + traced pair).
const TRACED_PAIRS: usize = 2;

/// Random pattern words (64 patterns each) the machine check runs.
const CHECK_WORDS: usize = 4;

/// Workers of the `table1` batch. Serial: on a shared two-core host the
/// parallel batch's wall time varies by a fifth between runs, while the
/// serial one repeats within a few percent; batch efficiency stays
/// visible as a per-layer metric.
const TABLE1_PARALLELISM: Parallelism = Parallelism::Serial;

/// Runs `program` on the bit-parallel machine against simulation of
/// `source` over seeded random patterns.
pub fn machine_check(source: &Mig, program: &plim::Program, seed: u64) -> bool {
    let mut machine = WideMachine::<u64>::new();
    let mut rng = mig::simulate::XorShift64::for_stream(seed, 0x5eed);
    (0..CHECK_WORDS).all(|_| {
        let words: Vec<u64> = (0..source.num_inputs()).map(|_| rng.next_word()).collect();
        machine
            .run(program, &words)
            .is_ok_and(|got| got == mig::simulate::simulate(source, &words))
    })
}

fn digest_all(digests: impl IntoIterator<Item = u128>) -> u128 {
    let bytes: Vec<u8> = digests.into_iter().flat_map(u128::to_le_bytes).collect();
    fnv128(&bytes)
}

/// Times `generate` [`SETUP_REPS`] times and keeps the last result; every
/// repetition must generate the same inputs.
fn timed_setup<T: PartialEq>(
    measured: &mut Measured,
    meter: &mut Meter,
    mut generate: impl FnMut() -> T,
) -> Result<T, String> {
    let mut last: Option<T> = None;
    for _ in 0..SETUP_REPS {
        let (value, scaled, _) = meter.time(&mut generate);
        measured.setup.push(scaled);
        if last.as_ref().is_some_and(|previous| *previous != value) {
            return Err("input generation is not deterministic".to_string());
        }
        last = Some(value);
    }
    Ok(last.expect("SETUP_REPS > 0"))
}

/// Rounds of the timed phase: as many as take `seconds` at the workload's
/// nominal round time, at least [`MIN_ROUNDS`]; a traced run makes
/// [`TRACED_PAIRS`]. The count depends only on the arguments, so every
/// run of a workload takes the same number of latency samples and the
/// tail percentile always sits at the same rank.
pub fn rounds(config: &Config, nominal_round_seconds: f64) -> usize {
    if config.trace {
        TRACED_PAIRS
    } else {
        ((config.seconds / nominal_round_seconds).round() as usize).max(MIN_ROUNDS)
    }
}

/// `compile-o2` and `egraph-o2`: every input through the product path in a
/// closed loop on one thread, round after round.
pub fn run_compile(
    config: &Config,
    generate: fn(Size, u64) -> Vec<Input>,
    nominal_round_seconds: f64,
) -> Result<RunResult, String> {
    let mut measured = Measured::default();
    let mut meter = Meter::new();
    let inputs = timed_setup(&mut measured, &mut meter, || {
        generate(config.size, config.seed)
    })?;
    measured.names = inputs.iter().map(|i| i.name.clone()).collect();
    measured.input_digest = digest_all(inputs.iter().map(|i| fnv128(i.text.as_bytes())));

    let mut first: Vec<Option<Output>> = vec![None; inputs.len()];
    let mut digests: Vec<u128> = vec![0; inputs.len()];
    let mut tracer = Tracer::new();
    let mut counts = LayerCounts::default();
    let mut traced_rounds: Vec<Duration> = Vec::new();
    let mut compile_id = 0u64;

    for _ in 0..rounds(config, nominal_round_seconds) {
        let mut round = Round::start(&meter)?;
        for (key, input) in inputs.iter().enumerate() {
            let (result, scaled, raw) =
                meter.time(|| path::product(&input.text, &input.spec, "listing"));
            round.add(scaled, raw);
            measured.latencies.push((key, scaled));
            let failure = match result {
                Ok(output) => {
                    let digest = fnv128(output.text.as_bytes());
                    match &first[key] {
                        None => {
                            digests[key] = digest;
                            first[key] = Some(output);
                            None
                        }
                        Some(_) if digests[key] == digest => None,
                        Some(_) => Some(Failure::Mismatch),
                    }
                }
                Err(_) => Some(Failure::Verify),
            };
            measured.outcomes.record(failure);
        }
        round.finish(&meter, &mut measured)?;
        if config.trace {
            let mut traced = Duration::ZERO;
            for (key, input) in inputs.iter().enumerate() {
                let (result, time) = time_traced(&mut meter, &mut tracer, |t| {
                    path::traced(
                        t,
                        compile_id,
                        &input.text,
                        &input.spec,
                        "listing",
                        &mut counts,
                    )
                });
                traced += time;
                compile_id += 1;
                measured.outcomes.record(match result {
                    Ok(output) if fnv128(output.text.as_bytes()) == digests[key] => None,
                    Ok(_) => Some(Failure::Mismatch),
                    Err(_) => Some(Failure::Verify),
                });
            }
            traced_rounds.push(traced);
        }
    }
    measured.elapsed = measured.rounds.iter().sum();

    // Correctness, outside the timed phase.
    for (key, input) in inputs.iter().enumerate() {
        let Some(output) = &first[key] else { continue };
        measured
            .quality
            .add(Quality::of(&output.artifacts.compilation.compiled.stats));
        let source = parse_network(InputFormat::Mig, &input.text)?;
        if !machine_check(
            &source,
            &output.artifacts.compilation.compiled.program,
            config.seed,
        ) {
            measured.outcomes.fail_counted();
        }
    }
    measured.output_digest = digest_all(digests.iter().copied());
    measured.peak_rss_mb = crate::sys::peak_rss_mb(None)?;

    let layers = config.trace.then(|| {
        let extras = LayerExtras {
            overhead_share: overhead(&traced_rounds, &measured.rounds),
            latency_p90_ms: measured.latency_p90_ms(),
            ..LayerExtras::default()
        };
        report::per_layer(
            &tracer,
            &counts,
            &extras,
            traced_rounds.len(),
            &meter.probes,
        )
    });
    measured.probes = meter.probes;
    Ok(RunResult::new(
        measured,
        layers,
        config.trace.then_some(tracer),
    ))
}

/// Times a traced replay with `meter`; returns its result and its rescaled
/// time less the `analyze` probe, which the product path does not make.
pub(crate) fn time_traced<T>(
    meter: &mut Meter,
    tracer: &mut Tracer,
    f: impl FnOnce(&mut Tracer) -> T,
) -> (T, Duration) {
    let before = tracer.total("analyze");
    let (value, scaled, raw) = meter.time(|| f(tracer));
    let probe = tracer.total("analyze") - before;
    let factor = scaled.as_secs_f64() / raw.as_secs_f64().max(1e-12);
    (value, raw.saturating_sub(probe).mul_f64(factor))
}

/// Median traced round (probe time excluded) over median untraced round,
/// minus one.
fn overhead(traced: &[Duration], untraced: &[Duration]) -> f64 {
    let secs =
        |v: &[Duration]| stats::median(&v.iter().map(Duration::as_secs_f64).collect::<Vec<_>>());
    let base = secs(untraced);
    if base > 0.0 {
        secs(traced) / base - 1.0
    } else {
        0.0
    }
}

/// The Table 1 numbers of a row, for comparisons.
fn row_points(row: &MeasuredRow) -> (usize, usize, Point, Point, Point) {
    (row.pi, row.po, row.naive, row.rewritten, row.compiled)
}

/// One traced replay of `measure_suite`'s work on one circuit, sequenced
/// the way `run_batch` runs it serially: the shared rewrite, then each of
/// the three compile jobs followed by the batch's lint of its artifact.
pub fn traced_table1_circuit(
    t: &mut Tracer,
    id: u64,
    text: &str,
    counts: &mut LayerCounts,
) -> Result<[Point; 3], String> {
    t.span("circuit", id, |t| {
        let raw = t.span("parse", id, |_| parse_network(InputFormat::Mig, text))?;
        counts.parse_nodes += raw.num_majority_nodes() as u64;
        let rewritten = t.span("rewrite", id, |_| mig::rewrite::rewrite(&raw, PAPER_EFFORT));
        counts.rewrite_nodes_out += rewritten.num_majority_nodes() as u64;
        let jobs = [
            (&raw, CompilerOptions::naive()),
            (&rewritten, CompilerOptions::naive()),
            (&rewritten, CompilerOptions::new()),
        ];
        let mut points = [Point {
            nodes: 0,
            instructions: 0,
            rams: 0,
        }; 3];
        for (slot, (input, options)) in jobs.into_iter().enumerate() {
            let (compilation, clean) = t.span("job", id, |t| {
                let compilation = path::traced_compile_full(t, id, input, options, counts);
                let clean = t.span("lint", id, |_| {
                    let stats = &compilation.compiled.stats;
                    let cost = Target::RM3.backend().cost(&compilation.ir);
                    analyze_events(&compilation.ir, &AnalysisConfig::for_level(options.opt))
                        .is_empty()
                        && (cost.instructions, cost.footprint, cost.wear)
                            == (stats.instructions, stats.rams, stats.max_cell_writes)
                        && plim_compiler::verify::check_init_discipline(&compilation.compiled)
                            .is_ok()
                });
                (compilation, clean)
            });
            if !clean {
                return Err(format!("circuit {id}: job {slot} is not lint-clean"));
            }
            points[slot] = Point::from(&compilation.compiled);
        }
        Ok(points)
    })
}

/// `table1`: the paper's Table 1 experiment through `batch::measure_suite`,
/// round after round. Each circuit is its own serial batch call, so the
/// host can be probed between circuits; serially the work is the same as
/// one call over the whole suite.
pub fn run_table1(config: &Config, nominal_round_seconds: f64) -> Result<RunResult, String> {
    let mut measured = Measured::default();
    let mut meter = Meter::sampled();
    let texts = timed_setup(&mut measured, &mut meter, || inputs::table1(config.size))?;
    measured.names = texts.iter().map(|(name, _)| name.clone()).collect();
    measured.input_digest = digest_all(texts.iter().map(|(_, text)| fnv128(text.as_bytes())));

    let mut first: Vec<SuiteRun> = Vec::new();
    let mut batch_figures: Vec<[f64; 4]> = Vec::new();
    let mut tracer = Tracer::new();
    let mut counts = LayerCounts::default();
    let mut traced_rounds: Vec<Duration> = Vec::new();

    for _ in 0..rounds(config, nominal_round_seconds) {
        let mut round = Round::start(&meter)?;
        let mut figures = [0.0f64; 4];
        let mut runs = Vec::with_capacity(texts.len());
        for (key, (name, text)) in texts.iter().enumerate() {
            let (run, scaled, raw) = meter.time(|| {
                parse_network(InputFormat::Mig, text).map(|mig| {
                    batch::measure_suite(
                        &[Circuit::new(name, mig)],
                        PAPER_EFFORT,
                        TABLE1_PARALLELISM,
                    )
                })
            });
            let run = run?;
            round.add(scaled, raw);
            measured.latencies.push((key, scaled));
            let report = &run.report;
            let factor = scaled.as_secs_f64() / raw.as_secs_f64().max(1e-12);
            let work = report.total_rewrite_time() + report.total_compile_time();
            figures[0] += stats::ms(report.elapsed) * factor;
            figures[1] += stats::ms(work) * factor;
            figures[2] += report.workers as f64 * stats::ms(report.elapsed) * factor;
            let longest = report
                .jobs
                .iter()
                .map(|job| stats::ms(job.compile_time))
                .fold(0.0, f64::max);
            figures[3] = figures[3].max(longest * factor);
            measured.outcomes.record(match first.get(key) {
                Some(reference) if row_points(&run.rows[0]) != row_points(&reference.rows[0]) => {
                    Some(Failure::Mismatch)
                }
                _ => None,
            });
            runs.push(run);
        }
        round.finish(&meter, &mut measured)?;
        // Efficiency is work over worker-time, summed over the calls.
        figures[2] = figures[1] / figures[2].max(1e-12);
        batch_figures.push(figures);
        if first.is_empty() {
            first = runs;
        }
        if config.trace {
            let mut traced = Duration::ZERO;
            for (key, (_, text)) in texts.iter().enumerate() {
                let (result, time) = time_traced(&mut meter, &mut tracer, |t| {
                    traced_table1_circuit(t, key as u64, text, &mut counts)
                });
                traced += time;
                let row = &first[key].rows[0];
                measured.outcomes.record(match result {
                    Ok(points) if points == [row.naive, row.rewritten, row.compiled] => None,
                    _ => Some(Failure::Mismatch),
                });
            }
            traced_rounds.push(traced);
        }
    }
    measured.elapsed = measured.rounds.iter().sum();

    // Correctness, outside the timed phase: the rows against serial
    // `batch::measure`, and every program lint-clean and on the machine.
    let mut digests = Vec::new();
    for (key, (name, text)) in texts.iter().enumerate() {
        let source = parse_network(InputFormat::Mig, text)?;
        let run = &first[key];
        let expected = batch::measure(name, &source, PAPER_EFFORT);
        let mut ok = row_points(&run.rows[0]) == row_points(&expected);
        for job in &run.report.jobs {
            measured.quality.add(Quality::of(&job.compiled.stats));
            ok &= job.lint_clean && machine_check(&source, &job.compiled.program, config.seed);
            digests.push(fnv128(job.compiled.program.to_string().as_bytes()));
        }
        if !ok {
            measured.outcomes.fail_counted();
        }
    }
    measured.output_digest = digest_all(digests);
    measured.peak_rss_mb = crate::sys::peak_rss_mb(None)?;

    let layers = config.trace.then(|| {
        let column =
            |i: usize| stats::median(&batch_figures.iter().map(|f| f[i]).collect::<Vec<_>>());
        let extras = LayerExtras {
            batch: [column(0), column(1), column(2), column(3)],
            overhead_share: overhead(&traced_rounds, &measured.rounds),
            latency_p90_ms: measured.latency_p90_ms(),
            ..LayerExtras::default()
        };
        report::per_layer(
            &tracer,
            &counts,
            &extras,
            traced_rounds.len(),
            &meter.probes,
        )
    });
    measured.probes = meter.probes;
    Ok(RunResult::new(
        measured,
        layers,
        config.trace.then_some(tracer),
    ))
}

/// One untraced round's accounting: rescaled and raw operation time, and
/// the process's CPU time less the probes'.
struct Round {
    cpu_start: Duration,
    wall_start: Instant,
    probes_before: usize,
    scaled: Duration,
    raw: Duration,
}

impl Round {
    fn start(meter: &Meter) -> Result<Round, String> {
        Ok(Round {
            cpu_start: crate::sys::cpu_time(None)?,
            wall_start: Instant::now(),
            probes_before: meter.probes.len(),
            scaled: Duration::ZERO,
            raw: Duration::ZERO,
        })
    }

    fn add(&mut self, scaled: Duration, raw: Duration) {
        self.scaled += scaled;
        self.raw += raw;
    }

    fn finish(self, meter: &Meter, measured: &mut Measured) -> Result<(), String> {
        let probes: Duration = meter.probes[self.probes_before..].iter().sum();
        let cpu = (crate::sys::cpu_time(None)? - self.cpu_start).saturating_sub(probes);
        let factor = self.scaled.as_secs_f64() / self.raw.as_secs_f64().max(1e-12);
        measured.rounds.push(self.scaled);
        measured.raw_rounds.push(self.wall_start.elapsed());
        measured.cpu_rounds.push(cpu.mul_f64(factor));
        Ok(())
    }
}
