//! Acceptance tests for the scenario engines.
//!
//! * **Exhaustive equivalence** — every ≤20-input reduced-suite circuit,
//!   compiled at `-O0` and `-O2` from its rewritten graph, is proven
//!   equal to the **raw** source MIG over the full input space (so the
//!   proof covers rewriting and compilation end to end), and a doctored
//!   program is rejected with a counterexample.
//! * **Fault injection** — reports are a pure function of the seed
//!   (identical across repeated runs and across thread counts), and a
//!   stuck-at fault on an output-feeding cell produces a nonzero error
//!   rate.
//! * **Lifetime** — wear-aware allocation must not shorten the device
//!   lifetime relative to FIFO on a wear-skewed workload.

use mig::rewrite::rewrite;
use plim::OutputLoc;
use plim_benchmarks::random::{random_logic, RandomLogicSpec};
use plim_benchmarks::suite::{self, Scale};
use plim_compiler::verify::{verify_exhaustive, VerifyError, EXHAUSTIVE_WIDE_LIMIT};
use plim_compiler::{compile, AllocatorStrategy, CompilerOptions, OptLevel};
use plim_parallel::Parallelism;
use plim_scenario::{fault_sweep, simulate_lifetime, FaultModel, FaultScenario, LifetimeScenario};

/// Every ≤20-input circuit of the reduced Table 1 suite: the exhaustive
/// acceptance set. The suite must contain a meaningful number of them —
/// if a suite change drops below 10, the acceptance bar has eroded.
fn exhaustive_suite() -> Vec<(String, mig::Mig)> {
    let circuits: Vec<(String, mig::Mig)> = suite::ALL
        .iter()
        .map(|&name| {
            (
                name.to_string(),
                suite::build(name, Scale::Reduced).unwrap(),
            )
        })
        .filter(|(_, mig)| mig.num_inputs() <= EXHAUSTIVE_WIDE_LIMIT)
        .collect();
    assert!(
        circuits.len() >= 10,
        "only {} reduced-suite circuits are exhaustively provable",
        circuits.len()
    );
    circuits
}

#[test]
fn every_provable_suite_circuit_is_exhaustively_equivalent_at_o0_and_o2() {
    for (name, mig) in exhaustive_suite() {
        let rewritten = rewrite(&mig, 2);
        for opt in [OptLevel::O0, OptLevel::O2] {
            let compiled = compile(&rewritten, CompilerOptions::new().opt(opt));
            verify_exhaustive(&mig, &compiled).unwrap_or_else(|e| {
                panic!("{name} at {}: {e}", opt.name());
            });
        }
    }
}

#[test]
fn doctored_program_is_rejected_with_a_counterexample() {
    let mig = suite::build("dec", Scale::Reduced).unwrap();
    let mut compiled = compile(&mig, CompilerOptions::new());
    // Doctor one output to a constant: the proof must fail with a
    // concrete input pattern, not succeed or error out.
    let mut program = plim::Program::new(mig.num_inputs());
    for &instruction in compiled.program.instructions() {
        program.push(instruction);
    }
    for (index, (output, loc)) in compiled.program.outputs().iter().enumerate() {
        if index == 0 {
            program.add_output(output, OutputLoc::Const(false));
        } else {
            program.add_output(output, *loc);
        }
    }
    compiled.program = program;
    match verify_exhaustive(&mig, &compiled) {
        Err(VerifyError::Mismatch { inputs, .. }) => {
            assert_eq!(inputs.len(), mig.num_inputs());
        }
        other => panic!("doctored program not rejected: {other:?}"),
    }
}

/// The random-circuit generator feeds the fault sweep: reports must be
/// identical across repeated runs and across thread counts.
#[test]
fn fault_reports_are_seed_deterministic_across_runs_and_thread_counts() {
    for seed in [1u64, 42, 0xDAC2016] {
        let spec = RandomLogicSpec::new(6, 4, 60, seed);
        let mig = random_logic(&spec);
        let compiled = compile(&mig, CompilerOptions::new());
        let base = FaultScenario {
            model: FaultModel::drift(0.01),
            patterns: 2048,
            seed,
            parallelism: Parallelism::Serial,
        };
        let reference = fault_sweep(&compiled.program, &base).unwrap();
        // Repeated run, same configuration.
        assert_eq!(reference, fault_sweep(&compiled.program, &base).unwrap());
        // Same seed, different worker counts.
        for workers in [2, 3, 8] {
            let scenario = FaultScenario {
                parallelism: Parallelism::Threads(workers),
                ..base.clone()
            };
            assert_eq!(
                reference,
                fault_sweep(&compiled.program, &scenario).unwrap(),
                "seed {seed}, {workers} workers"
            );
        }
        // A different seed must actually change the sampled patterns.
        let other = FaultScenario {
            seed: seed ^ 0x5555,
            ..base.clone()
        };
        assert_ne!(
            reference,
            fault_sweep(&compiled.program, &other).unwrap(),
            "seed must matter"
        );
    }
}

#[test]
fn stuck_at_fault_on_an_output_cell_is_observable() {
    let mig = suite::build("ctrl", Scale::Reduced).unwrap();
    let compiled = compile(&mig, CompilerOptions::new());
    // Pick a cell that feeds a primary output directly.
    let output_cell = compiled
        .program
        .outputs()
        .iter()
        .find_map(|(_, loc)| match loc {
            OutputLoc::Ram(addr) => Some(*addr),
            _ => None,
        })
        .expect("ctrl has RAM-backed outputs");
    for level in [false, true] {
        let scenario = FaultScenario {
            model: FaultModel::stuck_at(output_cell, level),
            patterns: 4096,
            seed: 0xDAC2016,
            parallelism: Parallelism::Auto,
        };
        let report = fault_sweep(&compiled.program, &scenario).unwrap();
        assert!(
            report.error_rate() > 0.0,
            "stuck-at-{} on output cell @{} went unnoticed",
            u8::from(level),
            output_cell.0
        );
    }
}

#[test]
fn fault_free_sweep_of_a_correct_program_is_clean() {
    let mig = suite::build("int2float", Scale::Reduced).unwrap();
    let compiled = compile(&mig, CompilerOptions::new());
    let report = fault_sweep(&compiled.program, &FaultScenario::default()).unwrap();
    assert_eq!(report.erroneous_patterns, 0);
    assert_eq!(report.erroneous_bits, 0);
}

#[test]
fn wear_aware_allocation_does_not_shorten_device_lifetime() {
    let mig = suite::build("ctrl", Scale::Reduced).unwrap();
    let scenario = LifetimeScenario {
        cell_endurance: 1_000_000,
        ..LifetimeScenario::default()
    };
    let results: Vec<_> = AllocatorStrategy::ALL
        .into_iter()
        .map(|strategy| {
            let compiled = compile(&mig, CompilerOptions::new().allocator(strategy));
            (strategy, simulate_lifetime(&compiled.program, &scenario))
        })
        .collect();
    assert_eq!(results.len(), 5, "one report per allocation strategy");
    let lifetime_of = |name: &str| {
        results
            .iter()
            .find(|(strategy, _)| strategy.name() == name)
            .map(|(_, report)| report.invocations)
            .unwrap()
    };
    assert!(
        lifetime_of("wear") >= lifetime_of("fifo"),
        "wear-leveled allocation must not die before FIFO (wear {}, fifo {})",
        lifetime_of("wear"),
        lifetime_of("fifo")
    );
    for (strategy, report) in &results {
        assert!(
            report.invocations > 0,
            "{} died immediately",
            strategy.name()
        );
    }
}

#[test]
fn noisy_lifetimes_are_deterministic_and_no_longer_than_ideal() {
    let spec = RandomLogicSpec::new(5, 3, 50, 7);
    let mig = random_logic(&spec);
    let compiled = compile(&mig, CompilerOptions::new());
    let ideal = simulate_lifetime(
        &compiled.program,
        &LifetimeScenario {
            cell_endurance: 50_000,
            ..LifetimeScenario::default()
        },
    );
    let noisy_scenario = LifetimeScenario {
        cell_endurance: 50_000,
        write_noise: 0.1,
        ..LifetimeScenario::default()
    };
    let noisy = simulate_lifetime(&compiled.program, &noisy_scenario);
    assert!(noisy.invocations <= ideal.invocations);
    assert!(noisy.invocations > 0);
    assert_eq!(noisy, simulate_lifetime(&compiled.program, &noisy_scenario));
}
