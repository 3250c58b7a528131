//! Batch-compilation pipeline: fan a job matrix across CPU cores.
//!
//! The paper's evaluation compiles every benchmark under several option
//! combinations (naive on the initial MIG, naive and smart on the rewritten
//! MIG); regenerating Table 1 serially repeats that per circuit. This
//! module turns the whole experiment into one **job matrix**
//! (circuit × rewrite effort × [`CompilerOptions`]) and executes it in
//! parallel with three guarantees:
//!
//! * **Shared rewriting** — rewriting dominates the pipeline, so jobs that
//!   compile the same `(circuit, effort)` graph share one memoized rewrite
//!   pass instead of each paying for their own.
//! * **Determinism** — results are collected in job order, independent of
//!   scheduling. A batch run is byte-for-byte identical to compiling the
//!   same specs serially (property-tested in `tests/differential.rs`).
//! * **Timing** — every rewrite pass and every compile job reports its own
//!   wall-clock time, and the report carries the end-to-end elapsed time.
//!
//! Jobs rewrite with the arena or the rebuild engine. An e-graph rewrite
//! scores candidates by compiling them under the job's own options, so it
//! is not a shared pass; `plim-service`'s pipeline runs it, and
//! [`run_batch`] rejects such a job.
//!
//! The module also hosts the Table 1 measurement vocabulary ([`Point`],
//! [`MeasuredRow`], [`measure`], [`measure_suite`]) used by the `plim-bench`
//! harnesses and the `plimc bench` driver.
//!
//! ```
//! use plim_compiler::batch::{run_batch, Circuit, JobSpec, RewriteEffort};
//! use plim_compiler::CompilerOptions;
//! use plim_parallel::Parallelism;
//!
//! let mut mig = mig::Mig::new();
//! let a = mig.add_input("a");
//! let b = mig.add_input("b");
//! let f = mig.and(a, b);
//! mig.add_output("f", f);
//!
//! let circuits = [Circuit::new("and2", mig)];
//! let specs = [
//!     JobSpec::new(0, RewriteEffort::Raw, CompilerOptions::naive()),
//!     JobSpec::new(0, RewriteEffort::Effort(2), CompilerOptions::new()),
//! ];
//! let report = run_batch(&circuits, &specs, Parallelism::Auto);
//! assert_eq!(report.jobs.len(), 2);
//! assert_eq!(report.rewrites.len(), 1); // one distinct rewrite pass
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::{Duration, Instant};

use mig::analysis::improvement_percent;
use mig::arena::RewriteArena;
use mig::rewrite::rewrite;
use mig::Mig;
use plim_parallel::{par_map, Parallelism};

use crate::ir::analysis::{analyze_events, AnalysisConfig};
use crate::{
    compile, compile_full, Backend, Compilation, CompilerOptions, OptLevel, RewriteMode, Rm3Program,
};

/// Rewrite effort used throughout the evaluation (the paper fixes 4).
pub const PAPER_EFFORT: usize = 4;

/// Runs a rewrite pass on this worker's thread-local [`RewriteArena`], so a
/// batch reuses one arena (node table, strash map, scratch buffers) per
/// worker thread instead of allocating a fresh engine per `(circuit,
/// effort)` key. Results are identical to [`mig::rewrite::rewrite`]; only
/// the allocation profile differs.
fn rewrite_on_worker_arena(mig: &Mig, effort: usize) -> Mig {
    thread_local! {
        static ARENA: RefCell<RewriteArena> = RefCell::new(RewriteArena::new());
    }
    ARENA.with(|arena| arena.borrow_mut().rewrite(mig, effort))
}

/// One distinct preprocessing pass of a batch: `(circuit, effort, mode)`.
type RewriteKey = (usize, usize, RewriteMode);

/// Runs one preprocessing pass: the engine selected by the spec's
/// [`RewriteMode`]. [`run_batch`] has rejected [`RewriteMode::Egraph`].
fn preprocess(mig: &Mig, effort: usize, mode: RewriteMode) -> Mig {
    match mode {
        RewriteMode::Arena => rewrite_on_worker_arena(mig, effort),
        RewriteMode::Rebuild => mig::rewrite::rewrite_rebuild(mig, effort),
        RewriteMode::Egraph => unreachable!("run_batch rejects e-graph specs"),
    }
}

/// A named input circuit of a batch.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Display name (benchmark name in the harnesses).
    pub name: String,
    /// The logic network to compile.
    pub mig: Mig,
}

impl Circuit {
    /// Creates a named circuit.
    pub fn new(name: impl Into<String>, mig: Mig) -> Self {
        Circuit {
            name: name.into(),
            mig,
        }
    }
}

/// How a job preprocesses its circuit before compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RewriteEffort {
    /// Compile the circuit exactly as provided (the Table 1 naive column).
    Raw,
    /// Run [`mig::rewrite::rewrite`] at this effort first. Jobs with the
    /// same `(circuit, effort)` share one memoized pass.
    Effort(usize),
}

/// One compilation job of a batch: which circuit, at which rewrite effort,
/// under which compiler options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Index into the batch's circuit slice.
    pub circuit: usize,
    /// Preprocessing for this job.
    pub effort: RewriteEffort,
    /// Compiler configuration for this job.
    pub options: CompilerOptions,
}

impl JobSpec {
    /// Creates a job spec.
    pub fn new(circuit: usize, effort: RewriteEffort, options: CompilerOptions) -> Self {
        JobSpec {
            circuit,
            effort,
            options,
        }
    }
}

/// The outcome of one compilation job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The spec this result answers.
    pub spec: JobSpec,
    /// The compiled program with its cost metrics.
    pub compiled: Rm3Program,
    /// The post-optimization IR the program was emitted from. Kept so
    /// downstream consumers (the bench driver's per-target columns,
    /// alternative backends) can re-emit the same compilation without
    /// recompiling.
    pub ir: crate::ir::IrProgram,
    /// Wall-clock time of the compile call (excluding any shared rewrite).
    pub compile_time: Duration,
    /// What scoring the pass pipeline's trial edits cost (zero at `-O0`).
    pub scoring: crate::TrialCounts,
    /// `true` when the static analyzer reported zero diagnostics on the
    /// artifact, its statically re-derived #I/#R/max-writes match the
    /// recorded [`crate::Rm3Stats`], and the emitted program obeys the
    /// machine's initialization discipline.
    pub lint_clean: bool,
}

/// Whether one compilation's artifacts pass the full static-analysis gate
/// at the job's optimization level.
fn job_lint_clean(compilation: &Compilation, opt: OptLevel) -> bool {
    let config = AnalysisConfig::for_level(opt);
    if !analyze_events(&compilation.ir, &config).is_empty() {
        return false;
    }
    let stats = &compilation.compiled.stats;
    let cost = crate::backend::Rm3Backend.cost(&compilation.ir);
    cost.instructions == stats.instructions
        && cost.footprint == stats.rams
        && cost.wear == stats.max_cell_writes
        && crate::verify::check_init_discipline(&compilation.compiled).is_ok()
}

/// One distinct rewrite pass executed by a batch.
#[derive(Debug, Clone)]
pub struct RewritePass {
    /// Index into the batch's circuit slice.
    pub circuit: usize,
    /// Rewrite effort of the pass.
    pub effort: usize,
    /// The rewritten graph the pass's jobs compiled.
    pub mig: Mig,
    /// Wall-clock time of the pass.
    pub time: Duration,
}

/// Everything a batch run produced, in deterministic order.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One result per input spec, **in spec order** regardless of how jobs
    /// were scheduled across workers.
    pub jobs: Vec<JobResult>,
    /// The distinct rewrite passes, in first-use order.
    pub rewrites: Vec<RewritePass>,
    /// Jobs that reused a memoized rewrite instead of running their own.
    pub rewrite_cache_hits: usize,
    /// Worker threads the batch ran on.
    pub workers: usize,
    /// End-to-end wall-clock time of the batch.
    pub elapsed: Duration,
}

impl BatchReport {
    /// Sum of all compile-job times (CPU-side work, ignoring overlap).
    pub fn total_compile_time(&self) -> Duration {
        self.jobs.iter().map(|job| job.compile_time).sum()
    }

    /// Sum of all rewrite-pass times (CPU-side work, ignoring overlap).
    pub fn total_rewrite_time(&self) -> Duration {
        self.rewrites.iter().map(|pass| pass.time).sum()
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} jobs + {} rewrite passes ({} shared) on {} worker{} in {:.2?} \
             (rewrite {:.2?}, compile {:.2?} of CPU work)",
            self.jobs.len(),
            self.rewrites.len(),
            self.rewrite_cache_hits,
            self.workers,
            if self.workers == 1 { "" } else { "s" },
            self.elapsed,
            self.total_rewrite_time(),
            self.total_compile_time(),
        )
    }
}

/// Executes a job matrix over a set of circuits.
///
/// The run has two parallel stages with no barrier inside each stage:
/// first the distinct rewrite passes — keyed by `(circuit, effort,
/// rewrite mode)` — deduplicated in first-use order, then every compile
/// job against either the raw circuit or its memoized rewrite. Results
/// come back in spec order.
///
/// # Panics
///
/// Panics if a spec's `circuit` index is out of range, or if a spec asks
/// for [`RewriteMode::Egraph`]: the e-graph scores its candidates by
/// compiling them under the spec's options, so it is no shared rewrite
/// pass, and it lives in a crate built on this one.
pub fn run_batch(circuits: &[Circuit], specs: &[JobSpec], parallelism: Parallelism) -> BatchReport {
    let start = Instant::now();
    for spec in specs {
        assert!(
            spec.circuit < circuits.len(),
            "job spec references circuit {} but the batch has {}",
            spec.circuit,
            circuits.len()
        );
        assert!(
            spec.options.rewrite != RewriteMode::Egraph,
            "run_batch runs no e-graph rewrite (job spec `{}`)",
            spec.options.spec()
        );
    }
    let rewrite_key = |spec: &JobSpec, effort| (spec.circuit, effort, spec.options.rewrite);

    // Distinct rewrite keys in first-use order, so pass numbering (and the
    // report) is stable across runs.
    let mut keys: Vec<RewriteKey> = Vec::new();
    let mut rewrite_cache_hits = 0;
    for spec in specs {
        if let RewriteEffort::Effort(effort) = spec.effort {
            let key = rewrite_key(spec, effort);
            if keys.contains(&key) {
                rewrite_cache_hits += 1;
            } else {
                keys.push(key);
            }
        }
    }

    let workers = parallelism.worker_count(specs.len().max(keys.len()));
    let rewritten: Vec<(Mig, Duration)> =
        par_map(&keys, parallelism, |_, &(circuit, effort, mode)| {
            let clock = Instant::now();
            let mig = preprocess(&circuits[circuit].mig, effort, mode);
            (mig, clock.elapsed())
        });
    let memo: HashMap<RewriteKey, &Mig> = keys
        .iter()
        .zip(&rewritten)
        .map(|(&key, (mig, _))| (key, mig))
        .collect();

    let jobs = par_map(specs, parallelism, |_, spec| {
        let input: &Mig = match spec.effort {
            RewriteEffort::Raw => &circuits[spec.circuit].mig,
            RewriteEffort::Effort(effort) => memo[&rewrite_key(spec, effort)],
        };
        let clock = Instant::now();
        let compilation = compile_full(input, spec.options);
        let compile_time = clock.elapsed();
        let lint_clean = job_lint_clean(&compilation, spec.options.opt);
        JobResult {
            spec: *spec,
            scoring: compilation.report.scoring(),
            compiled: compilation.compiled,
            ir: compilation.ir,
            compile_time,
            lint_clean,
        }
    });

    let rewrites = keys
        .iter()
        .zip(rewritten)
        .map(|(key, (mig, time))| RewritePass {
            circuit: key.0,
            effort: key.1,
            mig,
            time,
        })
        .collect();

    BatchReport {
        jobs,
        rewrites,
        rewrite_cache_hits,
        workers,
        elapsed: start.elapsed(),
    }
}

// ---------------------------------------------------------------------------
// Table 1 measurement vocabulary
// ---------------------------------------------------------------------------

/// Measured `(#N, #I, #R)` of one compilation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    /// MIG majority nodes translated.
    pub nodes: usize,
    /// RM3 instructions.
    pub instructions: usize,
    /// Work RRAMs.
    pub rams: usize,
}

impl From<&Rm3Program> for Point {
    fn from(compiled: &Rm3Program) -> Self {
        Point {
            nodes: compiled.stats.mig_nodes,
            instructions: compiled.stats.instructions,
            rams: compiled.stats.rams as usize,
        }
    }
}

/// One measured row of Table 1.
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    /// Benchmark name.
    pub name: String,
    /// Primary inputs of the built circuit.
    pub pi: usize,
    /// Primary outputs.
    pub po: usize,
    /// Naive translation of the initial (unoptimized) MIG.
    pub naive: Point,
    /// Naive translation after MIG rewriting.
    pub rewritten: Point,
    /// Smart compilation after MIG rewriting.
    pub compiled: Point,
}

impl MeasuredRow {
    /// Instruction improvement of rewriting over naive, in percent.
    pub fn rewrite_instr_impr(&self) -> f64 {
        improvement_percent(self.naive.instructions, self.rewritten.instructions)
    }

    /// RRAM improvement of rewriting over naive, in percent.
    pub fn rewrite_ram_impr(&self) -> f64 {
        improvement_percent(self.naive.rams, self.rewritten.rams)
    }

    /// Instruction improvement of rewriting + compilation over naive.
    pub fn compiled_instr_impr(&self) -> f64 {
        improvement_percent(self.naive.instructions, self.compiled.instructions)
    }

    /// RRAM improvement of rewriting + compilation over naive.
    pub fn compiled_ram_impr(&self) -> f64 {
        improvement_percent(self.naive.rams, self.compiled.rams)
    }
}

/// Runs the full paper pipeline on one circuit, **serially**: naive
/// compilation of the initial MIG, rewriting (at `effort`), naive
/// compilation of the rewritten MIG, and smart compilation of the rewritten
/// MIG.
///
/// This is the reference implementation the batch pipeline is differential-
/// tested against; [`measure_suite`] produces identical rows in parallel.
pub fn measure(name: &str, mig: &Mig, effort: usize) -> MeasuredRow {
    let naive = compile(mig, CompilerOptions::naive());
    let rewritten_mig = rewrite(mig, effort);
    let rewritten = compile(&rewritten_mig, CompilerOptions::naive());
    let smart = compile(&rewritten_mig, CompilerOptions::new());
    MeasuredRow {
        name: name.to_string(),
        pi: mig.num_inputs(),
        po: mig.num_outputs(),
        naive: Point::from(&naive),
        rewritten: Point::from(&rewritten),
        compiled: Point::from(&smart),
    }
}

/// The three job specs [`measure`] implies for one circuit, in row order.
fn measure_specs(circuit: usize, effort: usize) -> [JobSpec; 3] {
    [
        JobSpec::new(circuit, RewriteEffort::Raw, CompilerOptions::naive()),
        JobSpec::new(
            circuit,
            RewriteEffort::Effort(effort),
            CompilerOptions::naive(),
        ),
        JobSpec::new(
            circuit,
            RewriteEffort::Effort(effort),
            CompilerOptions::new(),
        ),
    ]
}

/// A suite measurement: Table 1 rows plus the underlying batch report.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// One row per circuit, in circuit order.
    pub rows: Vec<MeasuredRow>,
    /// The batch that produced the rows.
    pub report: BatchReport,
}

impl SuiteRun {
    /// Wall-clock work attributable to one row: its rewrite passes plus its
    /// compile jobs.
    pub fn row_time(&self, circuit: usize) -> Duration {
        let rewrite: Duration = self
            .report
            .rewrites
            .iter()
            .filter(|pass| pass.circuit == circuit)
            .map(|pass| pass.time)
            .sum();
        let compile: Duration = self
            .report
            .jobs
            .iter()
            .filter(|job| job.spec.circuit == circuit)
            .map(|job| job.compile_time)
            .sum();
        rewrite + compile
    }
}

/// Measures every circuit through the batch pipeline: per circuit, naive
/// compilation of the raw MIG plus naive and smart compilation of the
/// rewritten MIG (one shared rewrite pass at `effort`).
///
/// Row contents are identical to calling [`measure`] per circuit; only the
/// wall-clock profile differs.
pub fn measure_suite(circuits: &[Circuit], effort: usize, parallelism: Parallelism) -> SuiteRun {
    let specs: Vec<JobSpec> = (0..circuits.len())
        .flat_map(|circuit| measure_specs(circuit, effort))
        .collect();
    let report = run_batch(circuits, &specs, parallelism);
    let rows = circuits
        .iter()
        .enumerate()
        .map(|(index, circuit)| {
            let jobs = &report.jobs[index * 3..index * 3 + 3];
            MeasuredRow {
                name: circuit.name.clone(),
                pi: circuit.mig.num_inputs(),
                po: circuit.mig.num_outputs(),
                naive: Point::from(&jobs[0].compiled),
                rewritten: Point::from(&jobs[1].compiled),
                compiled: Point::from(&jobs[2].compiled),
            }
        })
        .collect();
    SuiteRun { rows, report }
}

/// Accumulates the Σ row over measured rows.
pub fn totals(rows: &[MeasuredRow]) -> MeasuredRow {
    let zero = Point {
        nodes: 0,
        instructions: 0,
        rams: 0,
    };
    let mut sum = MeasuredRow {
        name: "Σ".to_string(),
        pi: 0,
        po: 0,
        naive: zero,
        rewritten: zero,
        compiled: zero,
    };
    for row in rows {
        sum.pi += row.pi;
        sum.po += row.po;
        for (acc, point) in [
            (&mut sum.naive, &row.naive),
            (&mut sum.rewritten, &row.rewritten),
            (&mut sum.compiled, &row.compiled),
        ] {
            acc.nodes += point.nodes;
            acc.instructions += point.instructions;
            acc.rams += point.rams;
        }
    }
    sum
}

/// Formats one row in the paper's Table 1 layout.
pub fn format_row(row: &MeasuredRow) -> String {
    format!(
        "{:<11} {:>4}/{:<4} | {:>7} {:>8} {:>6} | {:>7} {:>8} {:>7.2}% {:>6} {:>7.2}% | {:>8} {:>7.2}% {:>6} {:>7.2}%",
        row.name,
        row.pi,
        row.po,
        row.naive.nodes,
        row.naive.instructions,
        row.naive.rams,
        row.rewritten.nodes,
        row.rewritten.instructions,
        row.rewrite_instr_impr(),
        row.rewritten.rams,
        row.rewrite_ram_impr(),
        row.compiled.instructions,
        row.compiled_instr_impr(),
        row.compiled.rams,
        row.compiled_ram_impr(),
    )
}

/// The table header matching [`format_row`].
pub fn table_header() -> String {
    format!(
        "{:<11} {:>4}/{:<4} | {:>7} {:>8} {:>6} | {:>7} {:>8} {:>8} {:>6} {:>8} | {:>8} {:>8} {:>6} {:>8}\n{}",
        "Benchmark",
        "PI",
        "PO",
        "#N",
        "#I",
        "#R",
        "#N",
        "#I",
        "impr.",
        "#R",
        "impr.",
        "#I",
        "impr.",
        "#R",
        "impr.",
        "-".repeat(132)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use plim_benchmarks::suite::{build, Scale};

    fn circuit(name: &str) -> Circuit {
        Circuit::new(name, build(name, Scale::Reduced).unwrap())
    }

    #[test]
    fn measure_produces_consistent_points() {
        let mig = build("adder", Scale::Reduced).unwrap();
        let row = measure("adder", &mig, 2);
        assert_eq!(row.pi, 16);
        assert_eq!(row.po, 9);
        assert!(row.naive.instructions >= row.naive.nodes);
        assert!(row.rewritten.nodes <= row.naive.nodes);
        // Rewriting must pay off on the AOIG-style adder.
        assert!(row.rewrite_instr_impr() > 0.0);
        assert!(row.compiled.instructions <= row.rewritten.instructions);
    }

    #[test]
    fn totals_accumulate() {
        let mig = build("dec", Scale::Reduced).unwrap();
        let row = measure("dec", &mig, 1);
        let sum = totals(&[row.clone(), row.clone()]);
        assert_eq!(sum.naive.instructions, 2 * row.naive.instructions);
        assert_eq!(sum.pi, 2 * row.pi);
    }

    #[test]
    fn formatting_has_fixed_shape() {
        let mig = build("ctrl", Scale::Reduced).unwrap();
        let row = measure("ctrl", &mig, 1);
        let line = format_row(&row);
        assert!(line.contains('|'));
        assert!(line.contains('%'));
        assert!(table_header().contains("Benchmark"));
    }

    #[test]
    fn batch_shares_rewrites_across_jobs() {
        let circuits = [circuit("ctrl"), circuit("dec")];
        let specs: Vec<JobSpec> = (0..2).flat_map(|c| measure_specs(c, 2)).collect();
        let report = run_batch(&circuits, &specs, Parallelism::Auto);
        assert_eq!(report.jobs.len(), 6);
        // Two circuits × one effort → two passes; each shared by one job.
        assert_eq!(report.rewrites.len(), 2);
        assert_eq!(report.rewrite_cache_hits, 2);
        assert!(report.summary().contains("6 jobs"));
    }

    #[test]
    fn batch_rows_match_serial_measure() {
        let circuits = [circuit("ctrl"), circuit("int2float"), circuit("router")];
        let suite = measure_suite(&circuits, 2, Parallelism::Threads(4));
        assert_eq!(suite.rows.len(), 3);
        for c in &circuits {
            let serial = measure(&c.name, &c.mig, 2);
            let batched = suite.rows.iter().find(|r| r.name == c.name).unwrap();
            assert_eq!(format_row(&serial), format_row(batched), "{}", c.name);
        }
        assert!(suite.row_time(0) <= suite.report.elapsed.max(suite.row_time(0)));
    }

    #[test]
    fn batch_order_is_independent_of_parallelism() {
        let circuits = [circuit("ctrl"), circuit("dec"), circuit("router")];
        let specs: Vec<JobSpec> = (0..3).flat_map(|c| measure_specs(c, 1)).collect();
        let serial = run_batch(&circuits, &specs, Parallelism::Serial);
        let parallel = run_batch(&circuits, &specs, Parallelism::Threads(8));
        for (s, p) in serial.jobs.iter().zip(&parallel.jobs) {
            assert_eq!(s.spec, p.spec);
            assert_eq!(s.compiled.stats, p.compiled.stats);
            assert_eq!(
                s.compiled.program.to_string(),
                p.compiled.program.to_string()
            );
        }
        assert_eq!(serial.rewrites.len(), parallel.rewrites.len());
        for (s, p) in serial.rewrites.iter().zip(&parallel.rewrites) {
            assert_eq!((s.circuit, s.effort), (p.circuit, p.effort));
            assert_eq!(mig::io::write_mig(&s.mig), mig::io::write_mig(&p.mig));
        }
    }

    #[test]
    fn raw_jobs_do_not_trigger_rewrites() {
        let circuits = [circuit("ctrl")];
        let specs = [
            JobSpec::new(0, RewriteEffort::Raw, CompilerOptions::naive()),
            JobSpec::new(0, RewriteEffort::Raw, CompilerOptions::new()),
        ];
        let report = run_batch(&circuits, &specs, Parallelism::Serial);
        assert!(report.rewrites.is_empty());
        assert_eq!(report.rewrite_cache_hits, 0);
    }

    /// The Table 1 suite the bench reports: every row equals a serial
    /// [`measure`], and the job records behind it are consistent with it
    /// (three jobs per circuit in row order, one shared rewrite pass each).
    #[test]
    fn bench_suite_rows_match_measure_and_records_are_consistent() {
        let circuits = [circuit("ctrl"), circuit("router")];
        let run = measure_suite(&circuits, 2, Parallelism::Auto);
        assert_eq!(run.rows.len(), 2);
        assert_eq!(run.report.jobs.len(), 6);
        assert_eq!(run.report.rewrites.len(), 2);
        for (index, (c, row)) in circuits.iter().zip(&run.rows).enumerate() {
            let serial = measure(&c.name, &c.mig, 2);
            assert_eq!(format_row(&serial), format_row(row), "{}", c.name);
            let jobs = &run.report.jobs[index * 3..index * 3 + 3];
            assert!(jobs.iter().all(|job| job.spec.circuit == index));
            assert!(jobs.iter().all(|job| job.lint_clean), "{}", c.name);
            assert_eq!(Point::from(&jobs[0].compiled), row.naive);
            assert_eq!(Point::from(&jobs[1].compiled), row.rewritten);
            assert_eq!(Point::from(&jobs[2].compiled), row.compiled);
            assert_eq!(run.report.rewrites[index].circuit, index);
            assert_eq!(
                run.report.rewrites[index].mig.num_majority_nodes(),
                row.rewritten.nodes
            );
            assert!(run.row_time(index) > Duration::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "references circuit")]
    fn out_of_range_spec_panics() {
        let circuits = [circuit("ctrl")];
        let specs = [JobSpec::new(3, RewriteEffort::Raw, CompilerOptions::new())];
        run_batch(&circuits, &specs, Parallelism::Serial);
    }
}
