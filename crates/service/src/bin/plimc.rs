//! `plimc` — the PLiM compiler command-line driver.
//!
//! Reads a logic network (MIG text format or ASCII AIGER), optimizes it for
//! the PLiM architecture, compiles it to RM3 instructions, verifies the
//! program against simulation, and emits the requested artifact. The same
//! pipeline is available as a long-running daemon via `plimc serve` (alias:
//! the `plimd` binary) and `plimc request`. Every subcommand that compiles
//! (the plain compile, `--limit`, `verify`, `lint`) takes its artifact from
//! [`pipeline::execute`], once per attempt; `scenario` rewrites through
//! [`pipeline::optimize`] and compiles one program per allocator.
//!
//! ```text
//! plimc [OPTIONS] FILE        (FILE of `-` reads stdin)
//!
//!   --format mig|aag     input format (default: by extension, mig otherwise)
//!   --effort N           rewrite effort, 0 disables rewriting (default 4)
//!   --extended           use rewrite+majority-resynthesis (stronger)
//!   --rewrite arena|rebuild|egraph
//!                        rewrite engine (default: arena). `egraph`
//!                        saturates an e-graph under the MIG axioms and
//!                        keeps the extraction only when its compiled
//!                        cost beats the arena result
//!   --naive              disable candidate selection (Table 1 baseline)
//!   --schedule index|priority|lookahead
//!                        node scheduling order (default: priority)
//!   --alloc fifo|lifo|fresh|wear|binned
//!                        work-RRAM allocation strategy (default: fifo)
//!   -O0|-O2              IR pass-pipeline level (default: -O0, which is
//!                        byte-identical to the paper reproduction)
//!   --target rm3|ambit|magic
//!                        emission backend (default: rm3). Non-RM3 targets
//!                        print their native listing/stats; at -O2 the
//!                        pass pipeline optimizes under the target's own
//!                        cost model
//!   --limit R            fail unless the --target artifact's footprint
//!                        (RM3 work RRAMs, Ambit rows, MAGIC cells) fits
//!                        R; if the compile as asked does not fit, retry
//!                        with index scheduling, then child-order operands.
//!                        Every other option holds for every attempt
//!   --emit asm|listing|stats|dot|mig|ir
//!                        artifact to print (default: listing); `ir` dumps
//!                        the post-optimization IR with def/use annotations
//!   --no-verify          skip the simulation check
//!
//!   Binary AIGER (.aig) is parsed natively: the magic is sniffed from
//!   the payload, so `.aig` files work wherever `.aag` files do.
//!
//! plimc verify [compile OPTIONS] FILE
//!                             compile and prove the program equal to the
//!                             source network over the FULL input space
//!                             (up to 20 primary inputs). Exit codes: 0 the
//!                             proof holds, 1 a counterexample (or any
//!                             error), 2 the circuit is too wide for an
//!                             exhaustive proof — a refusal, not a disproof
//!
//! plimc lint [compile OPTIONS] [--json] [--deny LINT] [--allow LINT]
//!            [--doctor write-after-release|stale-complement] FILE
//!                             run the static analyzer over the compiled
//!                             artifact: event-stream lints, program-level
//!                             init discipline, and resource certification
//!                             (#I/#R/wear re-derived from the event stream
//!                             must match Rm3Stats). LINT is a code
//!                             (PA0001) or name (use-before-init); --deny
//!                             promotes to error, --allow suppresses.
//!                             --doctor corrupts the stream first, to prove
//!                             the analyzer catches the injected violation.
//!                             Exit 1 if any error-level finding survives
//!
//! plimc scenario [compile OPTIONS] [--patterns N] [--drift P]
//!                [--stuck ADDR:LEVEL] [--seed N] [--endurance N]
//!                [--noise P] [--max-invocations N] FILE
//!                             fault-injection and device-lifetime sweep
//!                             of the RM3 program across all allocation
//!                             strategies (so no --alloc, and no --target
//!                             but rm3)
//!
//! plimc serve [--addr HOST:PORT] [--threads N] [--cache-bytes N]
//!             [--store DIR] [--idle-timeout SECS] [--max-pipeline N] [--quiet]
//!                             run the compile service (default
//!                             127.0.0.1:7393; port 0 picks a free port,
//!                             printed on the listening line). --store
//!                             persists compiled artifacts on disk so a
//!                             restarted daemon serves repeats warm
//!
//! plimc request [--addr HOST:PORT] [--timeout SECS] [--retries N]
//!               [compile OPTIONS] FILE
//! plimc request [--addr HOST:PORT] [--timeout SECS] [--retries N]
//!               --stats | --shutdown
//!                             send one request to a running service and
//!                             print the artifact (or the stats JSON line).
//!                             --retries re-attempts the *connect* with
//!                             exponential backoff; a request that reached
//!                             the daemon is never resent
//!
//! plimc loadtest [--addr HOST:PORT] [--connections N] [--pipeline N]
//!                [--requests N]
//!                             hold N concurrent connections open against a
//!                             running service, each pipelining requests,
//!                             and byte-compare every response against the
//!                             offline pipeline. Prints throughput and
//!                             latency percentiles; exits 1 on any error,
//!                             mismatch, or missing response
//!
//! plimc targets               list the built-in emission backends with
//!                             their native instruction sets and costs
//!
//! plimc dump CIRCUIT [--reduced]
//!                             print a Table 1 suite circuit as MIG text
//!
//! plimc bench [OPTIONS]       regenerate Table 1 via the batch pipeline
//!
//!   --reduced            build the small test-scale circuits (fast)
//!   --effort N           rewrite effort (default 4)
//!   --jobs N             cap worker threads (default: all cores; 1 runs
//!                        serially)
//!   --json PATH          write the BENCH.json bench-gate artifact
//!
//! plimc bench-diff BASELINE CURRENT [--time-tolerance PCT | --no-time-gate]
//!                             diff two BENCH.json files; exit 1 on a
//!                             #I/#R regression, a missing circuit, or a
//!                             wall-clock slowdown beyond PCT % (default 25;
//!                             --no-time-gate reports timing as a note only,
//!                             for runs on a different machine than the
//!                             baseline's)
//! ```

use std::io::Read as _;
use std::process::ExitCode;

use mig::Mig;
use plim_compiler::{
    AllocatorStrategy, CompilerOptions, OptLevel, RewriteMode, ScheduleOrder, Target,
};
use plim_service::pipeline::{self, CompileSpec, InputFormat};
use plim_service::protocol::{CompileRequest, Request, Response};
use plim_service::{client, server};

/// Default service address, shared by `serve` and `request`.
const DEFAULT_ADDR: &str = "127.0.0.1:7393";

/// A CLI failure: the diagnostic plus the process exit code it maps to.
///
/// Almost everything exits 1; `verify` reserves 2 for "the circuit is too
/// wide for an exhaustive proof" so scripts can tell a refusal from a
/// disproof.
struct Failure {
    message: String,
    code: u8,
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure { message, code: 1 }
    }
}

struct Args {
    file: String,
    format: Option<String>,
    effort: usize,
    extended: bool,
    naive: bool,
    schedule: Option<ScheduleOrder>,
    alloc: Option<AllocatorStrategy>,
    opt: Option<OptLevel>,
    target: Option<Target>,
    rewrite: Option<RewriteMode>,
    limit: Option<u32>,
    emit: String,
    verify: bool,
}

impl Args {
    /// The compiler options this invocation asks for.
    fn options(&self) -> CompilerOptions {
        let mut options = if self.naive {
            CompilerOptions::naive()
        } else {
            CompilerOptions::new()
        };
        if let Some(schedule) = self.schedule {
            options = options.schedule(schedule);
        }
        if let Some(alloc) = self.alloc {
            options = options.allocator(alloc);
        }
        if let Some(opt) = self.opt {
            options = options.opt(opt);
        }
        if let Some(target) = self.target {
            options = options.target(target);
        }
        if let Some(rewrite) = self.rewrite {
            options = options.rewrite(rewrite);
        }
        options
    }

    fn spec(&self) -> CompileSpec {
        CompileSpec {
            effort: self.effort,
            extended: self.extended,
            options: self.options(),
            verify: self.verify,
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        file: String::new(),
        format: None,
        effort: 4,
        extended: false,
        naive: false,
        schedule: None,
        alloc: None,
        opt: None,
        target: None,
        rewrite: None,
        limit: None,
        emit: "listing".to_string(),
        verify: true,
    };
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--format" => args.format = Some(value("--format")?),
            "--effort" => {
                args.effort = value("--effort")?
                    .parse()
                    .map_err(|_| "--effort needs a number".to_string())?;
            }
            "--extended" => args.extended = true,
            "--naive" => args.naive = true,
            "--schedule" => args.schedule = Some(ScheduleOrder::parse(&value("--schedule")?)?),
            "--alloc" => args.alloc = Some(AllocatorStrategy::parse(&value("--alloc")?)?),
            level if level.starts_with("-O") => {
                args.opt = Some(OptLevel::parse(&format!("o{}", &level[2..]))?);
            }
            "--target" => args.target = Some(Target::parse(&value("--target")?)?),
            "--rewrite" => args.rewrite = Some(RewriteMode::parse(&value("--rewrite")?)?),
            "--limit" => {
                args.limit = Some(
                    value("--limit")?
                        .parse()
                        .map_err(|_| "--limit needs a number".to_string())?,
                );
            }
            "--emit" => args.emit = value("--emit")?,
            "--no-verify" => args.verify = false,
            "--help" | "-h" => return Err("help".to_string()),
            _ if arg.starts_with('-') && arg != "-" => {
                return Err(format!("unknown option `{arg}`"))
            }
            _ if !args.file.is_empty() => {
                return Err(format!(
                    "multiple input files (`{}` and `{arg}`)",
                    args.file
                ))
            }
            _ => args.file = arg.clone(),
        }
    }
    if args.file.is_empty() {
        return Err("no input file (use `-` for stdin)".to_string());
    }
    if args.limit.is_some() && (args.schedule.is_some() || args.alloc.is_some()) {
        return Err(
            "--limit explores schedules/allocators itself; drop --schedule/--alloc".to_string(),
        );
    }
    pipeline::check_spec(&args.spec())?;
    Ok(args)
}

/// Reads the raw input (file or stdin), sniffs binary AIGER, and resolves
/// the input format. Shared by offline compilation and `plimc request`.
fn read_source(file: &str, format: &Option<String>) -> Result<(InputFormat, String), String> {
    // Validate the format name before touching the input: a typo like
    // `--format agg` must be diagnosed as such, not as whatever the
    // sniff/UTF-8 checks happen to hit first on a binary file.
    let forced = match format {
        Some(name) => Some(InputFormat::parse(name)?),
        None => None,
    };
    let bytes = if file == "-" {
        let mut buffer = Vec::new();
        std::io::stdin()
            .read_to_end(&mut buffer)
            .map_err(|e| format!("reading stdin: {e}"))?;
        buffer
    } else {
        std::fs::read(file).map_err(|e| format!("reading {file}: {e}"))?
    };
    // Sniff the binary-AIGER magic unless the user explicitly forced a
    // non-AIGER format: the payload is not text, so the AIGER parser (or
    // the MIG parser the extension default falls through to) would produce
    // a baffling first-line error or a UTF-8 failure instead. Binary AIGER
    // is decoded here at the edge and re-serialized as MIG text, so the
    // String-based pipeline and wire protocol stay unchanged downstream.
    let forced_non_aiger = matches!(forced, Some(f) if f != InputFormat::Aag);
    if !forced_non_aiger && pipeline::is_binary_aiger(&bytes) {
        let network = mig::aiger::parse_binary_aiger(&bytes)
            .map_err(|e| format!("{file}: binary AIGER: {e}"))?;
        return Ok((InputFormat::Mig, mig::io::write_mig(&network)));
    }
    let text =
        String::from_utf8(bytes).map_err(|_| format!("{file}: input is not valid UTF-8 text"))?;
    Ok((forced.unwrap_or_else(|| InputFormat::from_path(file)), text))
}

fn read_input(args: &Args) -> Result<Mig, String> {
    let (format, text) = read_source(&args.file, &args.format)?;
    pipeline::parse_network(format, &text)
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    pipeline::check_emit(&args.emit, args.options().target)?;
    let input = read_input(&args)?;
    let spec = args.spec();

    let artifacts = match args.limit {
        Some(limit) => pipeline::execute_within(&input, &spec, limit)?,
        None => pipeline::execute(&input, &spec)?,
    };

    let output = pipeline::emit(&args.emit, &artifacts)?;
    print!("{output}");
    Ok(())
}

/// The `plimc verify` subcommand: compiles the input and proves the
/// program equal to the **raw** source network over the full input space
/// (so the proof covers rewriting and compilation end to end). The proof
/// runs the `--target` artifact through its own executor: the RM3 program
/// on the bit-parallel PLiM machine, any other target's artifact on its
/// backend's.
///
/// Exit codes: 0 the proof holds, 1 a counterexample or any other error,
/// 2 the circuit exceeds the exhaustive-proof width limit — a refusal the
/// caller may fall back from (e.g. to sampled verification), distinct from
/// a disproof.
fn run_verify(argv: &[String]) -> Result<(), Failure> {
    let args = parse_args(argv)?;
    if args.limit.is_some() {
        return Err(
            "--limit is not supported by verify; compile first, then verify"
                .to_string()
                .into(),
        );
    }
    let input = read_input(&args)?;
    // The exhaustive proof below is stronger than the pipeline's sampled check.
    let artifacts = pipeline::execute(
        &input,
        &CompileSpec {
            verify: false,
            ..args.spec()
        },
    )?;
    let target = artifacts.target;
    let cost = pipeline::with_artifact(&artifacts, |artifact| {
        plim_compiler::verify::verify_exhaustive(&input, artifact).map(|()| artifact.cost())
    })
    .map_err(|e| Failure {
        code: match e {
            plim_compiler::verify::VerifyError::TooManyInputs { .. } => 2,
            _ => 1,
        },
        message: format!("verification: {e}"),
    })?;
    let (outputs, inputs) = (input.num_outputs(), input.num_inputs());
    if target == Target::RM3 {
        println!(
            "verified: all {outputs} outputs equal over all 2^{inputs} input patterns \
             ({} instructions, {} RAMs)",
            cost.instructions, cost.footprint,
        );
    } else {
        println!(
            "verified [{target}]: all {outputs} outputs equal over all 2^{inputs} input patterns \
             ({} {target} ops, {} cells)",
            cost.instructions, cost.footprint,
        );
    }
    Ok(())
}

/// The `plimc targets` subcommand: lists every emission backend
/// with its native instruction set and per-instruction costs — the offline
/// twin of the wire protocol's `targets` advertisement in `stats`.
fn run_targets(argv: &[String]) -> Result<(), String> {
    if let Some(arg) = argv.first() {
        return Err(format!("targets takes no arguments (got `{arg}`)"));
    }
    for backend in plim_compiler::backend::backends() {
        println!("{:<8} {}", backend.name(), backend.description());
        for info in backend.instruction_set() {
            println!(
                "    {:<8} cost {:<3} {}",
                info.mnemonic, info.cost, info.summary
            );
        }
    }
    Ok(())
}

/// The `plimc lint` subcommand: compiles the input and runs the full
/// static-analysis battery over the artifact — event-stream lints at the
/// check level matching `-O`, physical-program initialization discipline,
/// and resource certification (`#I`/`#R`/per-cell wear re-derived from the
/// event stream must equal the recorded `Rm3Stats`).
///
/// `--deny`/`--allow` adjust per-lint severities; `--doctor` corrupts the
/// event stream *before* analysis so CI can prove the gate actually fires.
/// Exits 1 when any error-level finding survives the configuration.
fn run_lint(argv: &[String]) -> Result<(), Failure> {
    use plim_analysis::{analyze_artifact, Lint, LintConfig, Report};

    let mut config = LintConfig::new();
    let mut json = false;
    // A `--doctor` injection and its error when there is nothing to corrupt.
    type Injection = fn(&mut plim_compiler::ir::IrProgram) -> Option<plim_compiler::ir::CellId>;
    let mut doctor: Option<(Injection, &str)> = None;
    let mut compile_argv: Vec<String> = Vec::new();
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let lint = |name: &str, text: &str| -> Result<Lint, String> {
            Lint::from_code(text).ok_or_else(|| {
                format!(
                    "{name}: unknown lint `{text}` (expected a code like PA0001 \
                     or a name like use-before-init)"
                )
            })
        };
        match arg.as_str() {
            "--json" => json = true,
            "--deny" => config.deny(lint("--deny", value("--deny")?)?),
            "--allow" => config.allow(lint("--allow", value("--allow")?)?),
            "--doctor" => {
                use plim_analysis::doctor;
                doctor = Some(match value("--doctor")?.as_str() {
                    "write-after-release" => (
                        doctor::inject_write_after_release as Injection,
                        "the program has no ops to corrupt",
                    ),
                    "stale-complement" => (
                        doctor::inject_stale_complement,
                        "the program caches no complement to corrupt",
                    ),
                    injection => {
                        return Err(format!(
                            "--doctor: unknown injection `{injection}` \
                             (expected write-after-release or stale-complement)"
                        )
                        .into())
                    }
                });
            }
            _ => compile_argv.push(arg.clone()),
        }
    }

    let args = parse_args(&compile_argv)?;
    if args.limit.is_some() {
        return Err("--limit is not supported by lint".to_string().into());
    }
    let input = read_input(&args)?;
    // The analyzer is this subcommand's check; the pipeline's sampled
    // simulation stays off.
    let spec = CompileSpec {
        verify: false,
        ..args.spec()
    };
    let mut artifacts = pipeline::execute(&input, &spec)?;
    let compilation = &mut artifacts.compilation;

    if let Some((inject, nothing)) = doctor {
        inject(&mut compilation.ir).ok_or_else(|| format!("--doctor: {nothing}"))?;
    }

    let diags = analyze_artifact(compilation, spec.options.opt);
    let report = Report::new(&args.file, diags, &config);
    if json {
        println!("{}", report.to_json().to_json());
    } else {
        println!("{report}");
    }
    if report.failing() {
        return Err(Failure {
            message: format!("lint: {} error-level finding(s)", report.errors()),
            code: 1,
        });
    }
    Ok(())
}

/// The `plimc scenario` subcommand: Monte-Carlo fault injection and
/// device-lifetime simulation of the compiled program, swept across every
/// work-RRAM allocation strategy. The input is rewritten once, and each
/// strategy's RM3 program is compiled once and fed to both engines. All
/// numbers are a pure function of the seed (reports are thread-count
/// invariant).
fn run_scenario(argv: &[String]) -> Result<(), String> {
    use plim_parallel::{par_map, Parallelism};
    use plim_scenario::{fault_sweep, simulate_lifetime, FaultScenario, LifetimeScenario};

    let mut fault = FaultScenario::default();
    let mut lifetime = LifetimeScenario::default();
    let mut compile_argv: Vec<String> = Vec::new();
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let number = |name: &str, text: &str| -> Result<u64, String> {
            text.parse()
                .map_err(|_| format!("{name} needs a number (got `{text}`)"))
        };
        let rate = |name: &str, text: &str| -> Result<f64, String> {
            text.parse::<f64>()
                .ok()
                .filter(|p| (0.0..=1.0).contains(p))
                .ok_or_else(|| format!("{name} needs a probability in [0, 1] (got `{text}`)"))
        };
        match arg.as_str() {
            "--patterns" => fault.patterns = number("--patterns", value("--patterns")?)?,
            "--drift" => {
                fault.model.drift_probability = rate("--drift", value("--drift")?)?;
            }
            "--stuck" => {
                let text = value("--stuck")?;
                let (addr, level) = match text.split_once(':') {
                    Some((addr, "0")) => (addr, false),
                    Some((addr, "1")) => (addr, true),
                    _ => return Err(format!("--stuck needs ADDR:0 or ADDR:1 (got `{text}`)")),
                };
                fault
                    .model
                    .stuck
                    .push((plim::RamAddr(number("--stuck", addr)? as u32), level));
            }
            "--seed" => {
                let seed = number("--seed", value("--seed")?)?;
                fault.seed = seed;
                lifetime.seed = seed;
            }
            "--endurance" => {
                lifetime.cell_endurance = number("--endurance", value("--endurance")?)?;
            }
            "--noise" => lifetime.write_noise = rate("--noise", value("--noise")?)?,
            "--max-invocations" => {
                lifetime.max_invocations =
                    number("--max-invocations", value("--max-invocations")?)?;
            }
            _ => compile_argv.push(arg.clone()),
        }
    }

    let args = parse_args(&compile_argv)?;
    if args.limit.is_some() {
        return Err("--limit is not supported by scenario".to_string());
    }
    if let Some(target) = args.target.filter(|&target| target != Target::RM3) {
        return Err(format!(
            "--target {target} is not supported by scenario; it models the RM3 machine"
        ));
    }
    if args.alloc.is_some() {
        return Err("--alloc is not supported by scenario; it sweeps every allocator".to_string());
    }
    let input = read_input(&args)?;
    let spec = args.spec();
    let optimized = pipeline::optimize(&input, &spec);

    let stuck = if fault.model.stuck.is_empty() {
        "none".to_string()
    } else {
        fault
            .model
            .stuck
            .iter()
            .map(|(addr, level)| format!("@{}:{}", addr.0, u8::from(*level)))
            .collect::<Vec<_>>()
            .join(",")
    };
    println!(
        "scenario: {} patterns, drift {}, stuck {stuck}, endurance {}, noise {}, seed {:#x}",
        fault.patterns,
        fault.model.drift_probability,
        lifetime.cell_endurance,
        lifetime.write_noise,
        fault.seed,
    );
    println!(
        "{:<8} {:>12} {:>12} {:>14} {:>10}",
        "alloc", "error-rate", "bit-errors", "lifetime", "first-dead"
    );
    let programs: Vec<plim::Program> = AllocatorStrategy::ALL
        .iter()
        .map(|&strategy| {
            plim_compiler::compile(&optimized, spec.options.allocator(strategy)).program
        })
        .collect();
    // A lifetime simulation runs serially, so the five run side by side; a
    // fault sweep spreads its own pattern blocks across the workers.
    let lifetimes = par_map(&programs, Parallelism::Auto, |_, program| {
        simulate_lifetime(program, &lifetime)
    });
    for ((strategy, program), life) in AllocatorStrategy::ALL.iter().zip(&programs).zip(&lifetimes)
    {
        let report = fault_sweep(program, &fault).map_err(|e| format!("fault sweep: {e}"))?;
        println!(
            "{:<8} {:>12.6} {:>12.6} {:>14} {:>10}",
            strategy.name(),
            report.error_rate(),
            report.bit_error_rate(),
            life.invocations,
            life.first_dead_cell
                .map(|addr| format!("@{}", addr.0))
                .unwrap_or_else(|| "-".to_string()),
        );
    }
    Ok(())
}

/// The `plimc request` subcommand: one round-trip against a running
/// `plimd`. Compile requests print the artifact exactly as the offline
/// pipeline would; `--stats` and `--shutdown` print the response JSON.
/// `--timeout` bounds the connect and every read/write; `--retries`
/// re-attempts the connect (only) with exponential backoff.
fn run_request(argv: &[String]) -> Result<(), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut stats = false;
    let mut shutdown = false;
    let mut timeout: Option<std::time::Duration> = None;
    let mut retries = 0u32;
    let mut compile_argv: Vec<String> = Vec::new();
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => addr = iter.next().ok_or("--addr requires a value")?.clone(),
            "--stats" => stats = true,
            "--shutdown" => shutdown = true,
            "--timeout" => {
                let text = iter.next().ok_or("--timeout requires a value")?;
                let seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| {
                        format!("--timeout needs a positive number of seconds (got `{text}`)")
                    })?;
                timeout = Some(std::time::Duration::from_secs_f64(seconds));
            }
            "--retries" => {
                let text = iter.next().ok_or("--retries requires a value")?;
                retries = text
                    .parse()
                    .map_err(|_| format!("--retries needs a number (got `{text}`)"))?;
            }
            _ => compile_argv.push(arg.clone()),
        }
    }
    if stats || shutdown {
        if !compile_argv.is_empty() {
            return Err(format!(
                "--stats/--shutdown take no further arguments (got `{}`)",
                compile_argv[0]
            ));
        }
        let request = if stats {
            Request::Stats
        } else {
            Request::Shutdown
        };
        let response = client::send_with(&addr, &request, timeout, retries)?;
        return match response {
            Response::Error(error) => Err(error.message),
            other => {
                println!("{}", other.to_json());
                Ok(())
            }
        };
    }

    let args = parse_args(&compile_argv)?;
    if args.limit.is_some() {
        return Err("--limit is not supported over the service; run plimc offline".to_string());
    }
    let (format, source) = read_source(&args.file, &args.format)?;
    let request = Request::Compile(CompileRequest {
        format,
        source,
        spec: args.spec(),
        emit: args.emit,
    });
    match client::send_with(&addr, &request, timeout, retries)? {
        Response::Compile(compile) => {
            print!("{}", compile.output);
            Ok(())
        }
        Response::Error(error) => Err(error.message),
        other => Err(format!("unexpected response: {}", other.to_json())),
    }
}

/// The circuits `plimc loadtest` drives: small, dependency-free MIG texts
/// with distinct shapes, so concurrent traffic exercises several cache
/// keys at once.
const LOADTEST_CIRCUITS: [(&str, &str); 3] = [
    ("maj3", "inputs a b c\nn = maj(a, b, c)\noutput f = n\n"),
    (
        "and-or",
        "inputs a b c d\nx = maj(0, a, b)\ny = maj(1, c, d)\nz = maj(0, x, y)\noutput f = z\n",
    ),
    (
        "chain",
        "inputs a b c d e\np = maj(a, b, c)\nq = maj(p, c, d)\nr = maj(q, d, e)\noutput f = r\n",
    ),
];

/// The `plimc loadtest` subcommand: drive a running daemon with many
/// concurrent pipelined connections and prove every served response is
/// byte-identical to the offline pipeline.
fn run_loadtest(argv: &[String]) -> Result<(), String> {
    use plim_service::loadtest::{self, Circuit, LoadtestConfig};

    let mut config = LoadtestConfig {
        addr: DEFAULT_ADDR.to_string(),
        ..LoadtestConfig::default()
    };
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let number = |name: &str, text: &str| -> Result<usize, String> {
            text.parse()
                .ok()
                .filter(|n| *n > 0)
                .ok_or_else(|| format!("{name} needs a positive number (got `{text}`)"))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?.clone(),
            "--connections" => {
                config.connections = number("--connections", value("--connections")?)?;
            }
            "--pipeline" => config.pipeline = number("--pipeline", value("--pipeline")?)?,
            "--requests" => {
                config.requests_per_conn = number("--requests", value("--requests")?)?;
            }
            other => return Err(format!("unknown loadtest option `{other}`")),
        }
    }
    for (name, source) in LOADTEST_CIRCUITS {
        config.circuits.push(Circuit {
            name: name.to_string(),
            source: source.to_string(),
            expected: loadtest::offline_expected(source)?,
        });
    }
    let report = loadtest::run(&config)?;
    println!("{report}");
    if report.passed() {
        Ok(())
    } else {
        Err(format!(
            "loadtest failed: {} errors, {} mismatches, {}/{} responses",
            report.errors, report.mismatches, report.responses, report.requests
        ))
    }
}

/// The `plimc dump` subcommand: prints a benchmark-suite circuit as MIG
/// text, for feeding the service (and the CI smoke job) real inputs.
fn run_dump(argv: &[String]) -> Result<(), String> {
    use plim_benchmarks::suite::{self, Scale};

    let mut name: Option<&String> = None;
    let mut scale = Scale::Full;
    for arg in argv {
        match arg.as_str() {
            "--reduced" => scale = Scale::Reduced,
            _ if arg.starts_with('-') => return Err(format!("unknown dump option `{arg}`")),
            _ if name.is_some() => return Err(format!("multiple circuits (got `{arg}`)")),
            _ => name = Some(arg),
        }
    }
    let name = name.ok_or("dump needs a circuit name")?;
    let mig = suite::build(name, scale).ok_or_else(|| {
        format!(
            "unknown benchmark `{name}` (expected one of: {})",
            suite::ALL.join(", ")
        )
    })?;
    print!("{}", mig::io::write_mig(&mig));
    Ok(())
}

/// The `plimc bench` subcommand: regenerates Table 1 through the
/// [`plim_service::bench`] driver, optionally emitting the `BENCH.json`
/// bench-gate artifact.
fn run_bench(args: &[String]) -> Result<(), String> {
    use plim_benchmarks::suite::{self, Scale};
    use plim_compiler::batch::{format_row, table_header, totals, Circuit, PAPER_EFFORT};
    use plim_parallel::Parallelism;
    use plim_service::{bench, benchfile};

    let mut reduced = false;
    let mut effort = PAPER_EFFORT;
    let mut parallelism = Parallelism::Auto;
    let mut json: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--reduced" => reduced = true,
            "--effort" => {
                effort = value("--effort")?
                    .parse()
                    .map_err(|_| "--effort needs a number".to_string())?;
            }
            "--jobs" => {
                parallelism = Parallelism::from_jobs(Some(
                    value("--jobs")?
                        .parse()
                        .map_err(|_| "--jobs needs a number".to_string())?,
                ));
            }
            "--json" => json = Some(value("--json")?.clone()),
            other => return Err(format!("unknown bench option `{other}`")),
        }
    }

    let scale = if reduced { Scale::Reduced } else { Scale::Full };
    let circuits: Vec<Circuit> = suite::ALL
        .iter()
        .map(|&name| Circuit::new(name, suite::build(name, scale).expect("known benchmark")))
        .collect();

    println!(
        "Table 1 via batch pipeline (scale: {}, rewrite effort: {effort})",
        if reduced { "reduced" } else { "full" }
    );
    println!("{}", table_header());
    let run = bench::run(&circuits, effort, parallelism).map_err(|e| format!("fidelity: {e}"))?;
    let suite = &run.suite;
    for (index, row) in suite.rows.iter().enumerate() {
        println!("{}   [{:.1?}]", format_row(row), suite.row_time(index));
    }
    println!("{}", "-".repeat(132));
    let sum = totals(&suite.rows);
    println!("{}", format_row(&sum));
    println!();
    println!("Paper Σ reference: rewriting #I −20.09% #R −14.83%; rewriting+compilation #I −19.95% #R −61.40%");
    println!(
        "Measured Σ:        rewriting #I {:+.2}% #R {:+.2}%; rewriting+compilation #I {:+.2}% #R {:+.2}%",
        -sum.rewrite_instr_impr(),
        -sum.rewrite_ram_impr(),
        -sum.compiled_instr_impr(),
        -sum.compiled_ram_impr(),
    );
    println!("batch: {}", suite.report.summary());
    let verified = run
        .records
        .iter()
        .filter(|record| record.verified_exhaustive)
        .count();
    println!(
        "fidelity: {verified}/{} circuits verified exhaustively",
        run.records.len()
    );
    if let Some(path) = json {
        let document = benchfile::to_json(&run.records);
        std::fs::write(&path, document).map_err(|e| format!("writing {path}: {e}"))?;
        println!("bench records written to {path}");
    }
    Ok(())
}

/// The `plimc bench-diff` subcommand: the bench-regression gate. Exits
/// nonzero when the current run regresses `#I`/`#R`, loses a circuit, or
/// slows down beyond the tolerance.
fn run_bench_diff(args: &[String]) -> Result<(), String> {
    use plim_service::benchfile;

    let mut files: Vec<&String> = Vec::new();
    let mut tolerance = 25.0f64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--time-tolerance" => {
                tolerance = iter
                    .next()
                    .ok_or("--time-tolerance requires a value")?
                    .parse()
                    .map_err(|_| "--time-tolerance needs a number (percent)".to_string())?;
            }
            // Timing becomes a note: the right mode when the current run's
            // machine differs from the baseline's (e.g. hosted CI runners
            // diffing a dev-machine baseline), where even a wide tolerance
            // flakes on millisecond-scale totals.
            "--no-time-gate" => tolerance = f64::INFINITY,
            _ if arg.starts_with('-') => return Err(format!("unknown bench-diff option `{arg}`")),
            _ => files.push(arg),
        }
    }
    let [baseline_path, current_path] = files.as_slice() else {
        return Err("bench-diff needs exactly two files: BASELINE CURRENT".to_string());
    };
    let read = |path: &String| -> Result<Vec<benchfile::BenchRecord>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        // benchfile errors are one-liners like `missing field 'rams'
        // (circuit "adder")`; prefixing the file name makes the final
        // diagnostic `plimc: BENCH.json: missing field 'rams' …`.
        benchfile::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let baseline = read(baseline_path)?;
    let current = read(current_path)?;
    let report = benchfile::gate(&baseline, &current, tolerance / 100.0);
    for note in &report.notes {
        println!("note: {note}");
    }
    for regression in &report.regressions {
        println!("REGRESSION: {regression}");
    }
    if report.passed() {
        let time_rule = if tolerance.is_finite() {
            format!("time tolerance +{tolerance:.0} %")
        } else {
            "time gate off".to_string()
        };
        println!("bench gate: OK ({} circuits, {time_rule})", baseline.len());
        Ok(())
    } else {
        Err(format!(
            "bench gate failed with {} regression(s) against {baseline_path}",
            report.regressions.len()
        ))
    }
}

/// The `--help` text.
const USAGE: &str = "\
usage: plimc [--format mig|aag] [--effort N] [--extended] [--naive]
             [--schedule index|priority|lookahead] [--alloc fifo|lifo|fresh|wear|binned]
             [-O0|-O2] [--target rm3|ambit|magic] [--rewrite arena|rebuild|egraph]
             [--limit R] [--emit asm|listing|stats|dot|mig|ir] [--no-verify] FILE
       (binary AIGER .aig is parsed natively; no aigtoaig conversion needed)
       plimc verify [compile options] FILE
             (exit 0: proven; 1: disproof/error; 2: too wide for an exhaustive proof)
       plimc lint [compile options] [--json] [--deny LINT] [--allow LINT]
                  [--doctor write-after-release|stale-complement] FILE
       plimc scenario [compile options] [--patterns N] [--drift P] [--stuck ADDR:LEVEL]
                      [--seed N] [--endurance N] [--noise P] [--max-invocations N] FILE
       plimc serve [--addr HOST:PORT] [--threads N] [--cache-bytes N] [--store DIR]
                   [--idle-timeout SECS] [--max-pipeline N] [--quiet]
       plimc request [--addr HOST:PORT] [--timeout SECS] [--retries N] [compile options] FILE
       plimc request [--addr HOST:PORT] [--timeout SECS] [--retries N] --stats | --shutdown
       plimc loadtest [--addr HOST:PORT] [--connections N] [--pipeline N] [--requests N]
       plimc targets
       plimc dump CIRCUIT [--reduced]
       plimc bench [--reduced] [--effort N] [--jobs N] [--json PATH]
       plimc bench-diff BASELINE CURRENT [--time-tolerance PCT]
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result: Result<(), Failure> = match args.first().map(String::as_str) {
        Some("bench") => run_bench(&args[1..]).map_err(Failure::from),
        Some("bench-diff") => run_bench_diff(&args[1..]).map_err(Failure::from),
        Some("serve") => server::serve_cli(&args[1..]).map_err(Failure::from),
        Some("request") => run_request(&args[1..]).map_err(Failure::from),
        Some("loadtest") => run_loadtest(&args[1..]).map_err(Failure::from),
        Some("verify") => run_verify(&args[1..]),
        Some("lint") => run_lint(&args[1..]),
        Some("scenario") => run_scenario(&args[1..]).map_err(Failure::from),
        Some("targets") => run_targets(&args[1..]).map_err(Failure::from),
        Some("dump") => run_dump(&args[1..]).map_err(Failure::from),
        _ => run(&args).map_err(Failure::from),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) if failure.message == "help" => {
            eprint!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!("plimc: {}", failure.message);
            ExitCode::from(failure.code)
        }
    }
}
