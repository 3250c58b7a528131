//! Throughput benchmark for the bit-parallel executor and the scenario
//! engines.
//!
//! The scenario engines (exhaustive verification, fault injection,
//! lifetime simulation) are only affordable because the wide machine runs
//! 64 (`u64`) or 256 (`W256`) input patterns per instruction step. This
//! harness measures that claim directly — patterns per second through the
//! scalar [`plim::Machine`] and both wide widths on the same compiled
//! programs — and **asserts** the 64-wide machine is at least 30× faster
//! than the scalar one on the suite aggregate, so a regression in the wide
//! stepping loop fails CI rather than silently melting the verification
//! budget. It then reports the resulting end-to-end engine throughput
//! (exhaustive proofs, fault sweeps, lifetime blocks).
//!
//! Run with `cargo bench -p plim-bench --bench scenario [-- --smoke|--full]`.

use std::time::{Duration, Instant};

use mig::simulate::XorShift64;
use plim::wide::{LaneWord, WideMachine, W256};
use plim::{Machine, Program};
use plim_bench::circuits_named;
use plim_benchmarks::suite::Scale;
use plim_compiler::verify::{verify_exhaustive, EXHAUSTIVE_WIDE_LIMIT};
use plim_compiler::{compile, CompilerOptions};
use plim_parallel::Parallelism;
use plim_scenario::{fault_sweep, simulate_lifetime, FaultModel, FaultScenario, LifetimeScenario};

/// The speedup floor the 64-wide machine must clear on the aggregate.
const WIDE_SPEEDUP_FLOOR: f64 = 30.0;

const CIRCUITS: [&str; 4] = ["adder", "bar", "voter", "i2c"];
const SMOKE_CIRCUITS: [&str; 2] = ["ctrl", "voter"];

/// Runs `patterns` random input patterns through the scalar machine, one
/// at a time, reusing the machine across runs.
fn scalar_patterns(program: &Program, patterns: u64, seed: u64) -> Duration {
    let mut machine = Machine::new();
    let mut rng = XorShift64::new(seed);
    let mut inputs = vec![false; program.num_inputs()];
    let clock = Instant::now();
    for _ in 0..patterns {
        for input in inputs.iter_mut() {
            *input = rng.next_word() & 1 == 1;
        }
        std::hint::black_box(machine.run(program, &inputs).unwrap());
    }
    clock.elapsed()
}

/// Runs `patterns` random input patterns through the wide machine,
/// [`LaneWord::LANES`] per execution, reusing the machine across runs.
fn wide_patterns<W: LaneWord>(program: &Program, patterns: u64, seed: u64) -> Duration {
    let mut machine = WideMachine::<W>::new();
    let mut rng = XorShift64::new(seed);
    let mut inputs = vec![W::zero(); program.num_inputs()];
    let runs = patterns.div_ceil(W::LANES as u64);
    let clock = Instant::now();
    for _ in 0..runs {
        for input in inputs.iter_mut() {
            *input = W::from_blocks(|_| rng.next_word());
        }
        std::hint::black_box(machine.run(program, &inputs).unwrap());
    }
    clock.elapsed()
}

fn per_second(patterns: u64, elapsed: Duration) -> f64 {
    patterns as f64 / elapsed.as_secs_f64().max(f64::EPSILON)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let full = args.iter().any(|a| a == "--full") && !smoke;
    let scale = if full { Scale::Full } else { Scale::Reduced };
    let names: &[&str] = if smoke { &SMOKE_CIRCUITS } else { &CIRCUITS };
    let patterns: u64 = if smoke { 4096 } else { 65536 };

    let circuits = circuits_named(names, scale);
    println!(
        "── wide-executor throughput ({} patterns/circuit, scale: {}) ──",
        patterns,
        if full { "full" } else { "reduced" },
    );
    println!(
        "{:<11} {:>14} {:>14} {:>14} {:>9} {:>9}",
        "circuit", "scalar pat/s", "u64 pat/s", "W256 pat/s", "64-wide", "256-wide"
    );

    let mut scalar_total = Duration::ZERO;
    let mut wide64_total = Duration::ZERO;
    for circuit in &circuits {
        let compiled = compile(&circuit.mig, CompilerOptions::new());
        let t_scalar = scalar_patterns(&compiled.program, patterns, 0xDAC2016);
        let t_wide64 = wide_patterns::<u64>(&compiled.program, patterns, 0xDAC2016);
        let t_wide256 = wide_patterns::<W256>(&compiled.program, patterns, 0xDAC2016);
        scalar_total += t_scalar;
        wide64_total += t_wide64;
        println!(
            "{:<11} {:>14.0} {:>14.0} {:>14.0} {:>8.1}x {:>8.1}x",
            circuit.name,
            per_second(patterns, t_scalar),
            per_second(patterns, t_wide64),
            per_second(patterns, t_wide256),
            t_scalar.as_secs_f64() / t_wide64.as_secs_f64().max(f64::EPSILON),
            t_scalar.as_secs_f64() / t_wide256.as_secs_f64().max(f64::EPSILON),
        );
    }
    let speedup = scalar_total.as_secs_f64() / wide64_total.as_secs_f64().max(f64::EPSILON);
    println!("Σ 64-wide speedup: {speedup:.1}x (floor: {WIDE_SPEEDUP_FLOOR}x)");
    assert!(
        speedup >= WIDE_SPEEDUP_FLOOR,
        "64-wide executor is only {speedup:.1}x the scalar machine (floor {WIDE_SPEEDUP_FLOOR}x)"
    );
    println!();

    println!("── scenario-engine throughput ──");
    for circuit in &circuits {
        let compiled = compile(&circuit.mig, CompilerOptions::new());
        let inputs = circuit.mig.num_inputs();

        let exhaustive = if inputs <= EXHAUSTIVE_WIDE_LIMIT {
            let clock = Instant::now();
            verify_exhaustive(&circuit.mig, &compiled).unwrap();
            let elapsed = clock.elapsed();
            format!(
                "proof 2^{inputs} in {elapsed:.1?} ({:.0} pat/s)",
                per_second(1 << inputs, elapsed)
            )
        } else {
            format!("proof skipped ({inputs} inputs > {EXHAUSTIVE_WIDE_LIMIT})")
        };

        let scenario = FaultScenario {
            model: FaultModel::drift(1e-3),
            patterns,
            seed: 0xDAC2016,
            parallelism: Parallelism::Auto,
        };
        let clock = Instant::now();
        let report = fault_sweep(&compiled.program, &scenario).unwrap();
        let fault_elapsed = clock.elapsed();

        let lifetime = LifetimeScenario {
            cell_endurance: 100_000,
            write_noise: if smoke { 0.0 } else { 0.01 },
            ..LifetimeScenario::default()
        };
        let clock = Instant::now();
        let life = simulate_lifetime(&compiled.program, &lifetime);
        let life_elapsed = clock.elapsed();

        println!(
            "{:<11} {exhaustive}; fault sweep {:.1?} (rate {:.4}); lifetime {} inv in {:.1?}",
            circuit.name,
            fault_elapsed,
            report.error_rate(),
            life.invocations,
            life_elapsed,
        );
    }
}
