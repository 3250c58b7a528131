//! Timed benchmarks for the pipeline stages and the batch driver.
//!
//! These measure compiler *throughput* (the paper reports only program
//! quality, not compile time; a practical compiler needs both). The harness
//! is criterion-free so the workspace builds offline (`harness = false`);
//! each measurement reports the best of `--iters` runs.
//!
//! Two headline measurements:
//!
//! * **in-place vs rebuild rewriting** — the exact Algorithm 1 schedule run
//!   by the reusable-arena engine (`mig::arena::RewriteArena`, the default
//!   behind `rewrite`) and by the rebuild reference engine
//!   (`rewrite_rebuild`), per circuit, with the in-place engine's per-pass
//!   wall-clock breakdown and peak node-arena size. The in-place engine
//!   performs one import and one compaction per call instead of ~5 graph
//!   reconstructions per cycle, and is expected to win on every circuit.
//! * **arena vs equality saturation** — the `--rewrite egraph` stage
//!   (arena baseline + saturation + extraction + compiled-cost scoring)
//!   against the plain arena stage, with compiled `#I` at -O2 for both
//!   and per-circuit saturation statistics (e-nodes, iterations, and the
//!   budget axis that stopped the run). The Σ row enforces the 10×
//!   wall-clock acceptance bound.
//! * **serial vs batch** full-suite compilation: the exact Table 1 workload
//!   (three compilations per circuit, one shared rewrite) run job-by-job on
//!   one thread and fanned across cores by `plim_compiler::batch`. On a
//!   ≥ 4-core machine the batch pipeline is expected to finish the suite
//!   ≥ 2× faster; the achieved speedup and the worker count are printed
//!   either way.
//!
//! Run with
//! `cargo bench -p plim-bench --bench pipeline [-- --full] [-- --iters N]`.
//! `cargo bench -p plim-bench --bench pipeline -- --smoke` runs everything
//! in a reduced one-iteration configuration (the CI smoke step), so the
//! harness itself cannot rot.

use std::time::{Duration, Instant};

use mig::arena::RewriteArena;
use mig::rewrite::{rewrite, rewrite_rebuild};
use plim_bench::{measure, measure_suite, suite_circuits, Parallelism};
use plim_benchmarks::suite::{build, Scale};
use plim_compiler::{compile, CompilerOptions};

const CIRCUITS: [&str; 4] = ["adder", "bar", "voter", "i2c"];
const SMOKE_CIRCUITS: [&str; 2] = ["ctrl", "voter"];

/// Best-of-`iters` wall-clock time of `f`.
fn best_of<R>(iters: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..iters.max(1) {
        let clock = Instant::now();
        std::hint::black_box(f());
        best = best.min(clock.elapsed());
    }
    best
}

fn bench_stages(circuits: &[&str], iters: usize) {
    println!("── stage benchmarks (reduced scale, best of {iters}) ──");
    println!(
        "{:<11} {:>12} {:>14} {:>14} {:>12}",
        "circuit", "rewrite", "compile naive", "compile smart", "machine run"
    );
    for &name in circuits {
        let mig = build(name, Scale::Reduced).unwrap();
        let rewritten = rewrite(&mig, 4);
        let compiled = compile(&rewritten, CompilerOptions::new());
        let inputs = vec![false; rewritten.num_inputs()];
        let t_rewrite = best_of(iters, || rewrite(&mig, 4));
        let t_naive = best_of(iters, || compile(&rewritten, CompilerOptions::naive()));
        let t_smart = best_of(iters, || compile(&rewritten, CompilerOptions::new()));
        let mut machine = plim::Machine::new();
        let t_machine = best_of(iters, || machine.run(&compiled.program, &inputs).unwrap());
        println!(
            "{name:<11} {t_rewrite:>12.1?} {t_naive:>14.1?} {t_smart:>14.1?} {t_machine:>12.1?}"
        );
    }
    println!();
}

/// The in-place-vs-rebuild rewrite comparison: total wall-clock per engine
/// plus the arena engine's per-pass breakdown and peak arena size. The two
/// engines must agree functionally and the in-place node count must be no
/// worse — both are asserted here so the bench doubles as a smoke check.
fn bench_rewrite_engines(circuits: &[&str], scale: Scale, iters: usize) {
    println!("── rewrite engines: rebuild vs in-place (effort 4, best of {iters}) ──");
    println!(
        "{:<11} {:>11} {:>11} {:>8} | {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "circuit",
        "rebuild",
        "in-place",
        "speedup",
        "load",
        "Ω.D",
        "Ω.A",
        "Ω.I",
        "compact",
        "peak-arena"
    );
    let mut arena = RewriteArena::new();
    let mut total_rebuild = Duration::ZERO;
    let mut total_inplace = Duration::ZERO;
    for &name in circuits {
        let mig = build(name, scale).unwrap();
        let t_rebuild = best_of(iters, || rewrite_rebuild(&mig, 4));
        let t_inplace = best_of(iters, || arena.rewrite(&mig, 4));
        total_rebuild += t_rebuild;
        total_inplace += t_inplace;

        let inplace = arena.rewrite(&mig, 4);
        let profile = arena.profile().clone();
        let rebuild = rewrite_rebuild(&mig, 4);
        assert!(
            mig::equiv::check_equivalence(&rebuild, &inplace, 16, 0xDAC)
                .unwrap()
                .holds(),
            "{name}: engines disagree"
        );
        assert!(
            inplace.num_majority_nodes() <= rebuild.num_majority_nodes(),
            "{name}: in-place produced more nodes"
        );
        let speedup = t_rebuild.as_secs_f64() / t_inplace.as_secs_f64().max(f64::EPSILON);
        println!(
            "{:<11} {:>11.1?} {:>11.1?} {:>7.2}x | {:>9.1?} {:>9.1?} {:>9.1?} {:>9.1?} {:>9.1?} {:>10}",
            name,
            t_rebuild,
            t_inplace,
            speedup,
            profile.load,
            profile.distributivity,
            profile.associativity,
            profile.inverter,
            profile.compact,
            profile.peak_arena_nodes,
        );
    }
    let overall = total_rebuild.as_secs_f64() / total_inplace.as_secs_f64().max(f64::EPSILON);
    println!(
        "{:<11} {:>11.1?} {:>11.1?} {:>7.2}x",
        "Σ", total_rebuild, total_inplace, overall
    );
    if overall < 1.0 {
        println!("WARNING: in-place engine slower than rebuild overall");
    }
    println!();
}

/// The arena-vs-equality-saturation comparison, measured as the pipeline
/// a user actually runs: rewrite stage plus the -O2 compile of its result
/// (for `--rewrite egraph` the stage is arena baseline + saturation +
/// extraction + compiled-cost scoring, which already compiled the winner). Reports compiled `#I` for both
/// engines and the per-circuit saturation statistics (final e-nodes,
/// iterations, and which budget axis stopped the run). Functional
/// equivalence and the never-worse compiled cost are asserted so the
/// bench doubles as a smoke check; at full scale the Σ row enforces the
/// 10× wall-clock acceptance bound (at reduced scale the compile stage is
/// microseconds, so the ratio is dominated by the saturation floor and is
/// reported without judgment).
fn bench_egraph(circuits: &[&str], scale: Scale, iters: usize, effort: usize) {
    use plim_compiler::OptLevel;
    println!(
        "── compile pipeline: --rewrite arena vs --rewrite egraph (effort {effort}, -O2, best of {iters}) ──"
    );
    println!(
        "{:<11} {:>11} {:>11} {:>7} | {:>8} {:>9} | {:>8} {:>5} {:>10}",
        "circuit", "arena", "egraph", "ratio", "#I arena", "#I egraph", "e-nodes", "iters", "stop"
    );
    let options = CompilerOptions::new().opt(OptLevel::O2);
    let mut total_arena = Duration::ZERO;
    let mut total_egraph = Duration::ZERO;
    for &name in circuits {
        let mig = build(name, scale).unwrap();
        let arena = rewrite(&mig, effort);
        let t_arena = best_of(iters, || compile(&rewrite(&mig, effort), options));
        // `optimize` returns the winner's compilation, so it alone is the
        // whole e-graph pipeline.
        let t_egraph = best_of(iters, || {
            plim_egraph::optimize(&mig, &rewrite(&mig, effort), effort, options)
        });
        total_arena += t_arena;
        total_egraph += t_egraph;

        let (chosen, stats) = plim_egraph::optimize_with_stats(&mig, &arena, effort, options);
        assert!(
            mig::equiv::check_equivalence(&arena, &chosen, 16, 0xDAC)
                .unwrap()
                .holds(),
            "{name}: engines disagree"
        );
        let arena_i = compile(&arena, options).stats.instructions;
        let egraph_i = compile(&chosen, options).stats.instructions;
        assert!(
            egraph_i <= arena_i,
            "{name}: e-graph extraction compiled to more instructions"
        );
        let ratio = t_egraph.as_secs_f64() / t_arena.as_secs_f64().max(f64::EPSILON);
        println!(
            "{:<11} {:>11.1?} {:>11.1?} {:>6.2}x | {:>8} {:>9} | {:>8} {:>5} {:>10}",
            name,
            t_arena,
            t_egraph,
            ratio,
            arena_i,
            egraph_i,
            stats.final_enodes,
            stats.iterations,
            stats.stop.name(),
        );
    }
    let overall = total_egraph.as_secs_f64() / total_arena.as_secs_f64().max(f64::EPSILON);
    println!(
        "{:<11} {:>11.1?} {:>11.1?} {:>6.2}x",
        "Σ", total_arena, total_egraph, overall
    );
    if scale == Scale::Full && overall > 10.0 {
        println!("WARNING: equality saturation exceeded the 10x wall-clock bound");
    }
    println!();
}

fn bench_suite(scale: Scale, effort: usize, iters: usize) {
    let circuits = suite_circuits(scale);
    println!(
        "── full-suite compilation: serial vs batch ({} circuits, effort {effort}, best of {iters}) ──",
        circuits.len()
    );

    let serial = best_of(iters, || {
        circuits
            .iter()
            .map(|c| measure(&c.name, &c.mig, effort))
            .collect::<Vec<_>>()
    });
    let mut workers = 0;
    let batch = best_of(iters, || {
        let run = measure_suite(&circuits, effort, Parallelism::Auto);
        workers = run.report.workers;
        run
    });

    let speedup = serial.as_secs_f64() / batch.as_secs_f64().max(f64::EPSILON);
    println!("serial (1 thread):    {serial:>10.2?}");
    println!("batch  ({workers} workers):   {batch:>10.2?}");
    println!("speedup:              {speedup:>10.2}x");
    if plim_parallel::available_threads() >= 4 && speedup < 2.0 {
        println!("WARNING: expected ≥ 2x on ≥ 4 cores");
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let smoke = args.iter().any(|a| a == "--smoke");
    let iters = args
        .iter()
        .position(|a| a == "--iters")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 1 } else { 3 });
    let scale = if full && !smoke {
        Scale::Full
    } else {
        Scale::Reduced
    };
    let stage_circuits: &[&str] = if smoke { &SMOKE_CIRCUITS } else { &CIRCUITS };
    // Under --full the engine comparison covers the entire Table 1 suite,
    // matching the numbers recorded in the README; otherwise it sticks to
    // the stage-bench subset for speed.
    let engine_circuits: &[&str] = if smoke {
        &SMOKE_CIRCUITS
    } else if full {
        &plim_benchmarks::suite::ALL
    } else {
        &CIRCUITS
    };

    bench_stages(stage_circuits, iters);
    bench_rewrite_engines(engine_circuits, scale, iters);
    bench_egraph(engine_circuits, scale, iters, 4);
    bench_suite(scale, 4, iters);
}
