//! The `BENCH.json` fidelity axis: measured correctness and reliability.
//!
//! The bench gate tracks compilation *cost* (instructions, RAMs, wear);
//! this module adds what the compiled artifacts are *worth*: whether the
//! program is exhaustively proven equivalent to its source MIG, how it
//! degrades under drifted writes, and how long the device survives it.
//! [`fidelity_for`] measures the three fidelity columns of one circuit
//! from already-compiled artifacts (no recompilation); the `plimc bench`
//! driver calls it on each circuit's own batch jobs, and the CI gate
//! compares the result against the committed baseline.

use mig::Mig;
use plim::MachineError;
use plim_compiler::verify::{verify_exhaustive, EXHAUSTIVE_WIDE_LIMIT};
use plim_compiler::Rm3Program;
use plim_parallel::Parallelism;

use crate::fault::{fault_sweep, FaultModel, FaultScenario};
use crate::lifetime::{simulate_lifetime, LifetimeScenario};

/// Knobs of the fidelity measurement (all deterministic given the seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FidelityConfig {
    /// Per-write bit-flip probability of the drift fault model.
    pub drift_probability: f64,
    /// Random input patterns of the fault sweep.
    pub fault_patterns: u64,
    /// Endurance budget per cell for the lifetime simulation.
    pub cell_endurance: u64,
    /// Master seed for the fault sweep.
    pub seed: u64,
    /// Worker threads for the fault sweep.
    pub parallelism: Parallelism,
}

impl Default for FidelityConfig {
    fn default() -> Self {
        FidelityConfig {
            drift_probability: 1e-3,
            fault_patterns: 4096,
            cell_endurance: 1_000_000,
            seed: 0xDAC2016,
            parallelism: Parallelism::Auto,
        }
    }
}

/// The measured fidelity of one circuit's compiled artifacts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    /// Every opt level proven equal to the source MIG over the full input
    /// space (`false` when the interface exceeds
    /// [`EXHAUSTIVE_WIDE_LIMIT`] inputs or any proof fails).
    pub verified_exhaustive: bool,
    /// Pattern error rate of the default program under drifted writes.
    pub fault_error_rate: f64,
    /// Invocations before the first cell of the default program exceeds
    /// the endurance budget (ideal-device closed form).
    pub lifetime_invocations: u64,
}

/// Measures one circuit's fidelity from its already-compiled artifacts.
///
/// `default_program` is the record's main compilation (`-O0`); the
/// `optimized` slice holds further opt levels that must *also* pass the
/// exhaustive proof for `verified_exhaustive` to hold. All proofs are
/// against the **raw** source MIG, so they cover rewriting and
/// compilation end to end.
///
/// # Errors
///
/// Propagates a [`MachineError`] from the fault sweep — compiled
/// programs never trigger one.
pub fn fidelity_for(
    mig: &Mig,
    default_program: &Rm3Program,
    optimized: &[&Rm3Program],
    config: &FidelityConfig,
) -> Result<Fidelity, MachineError> {
    let verified_exhaustive = mig.num_inputs() <= EXHAUSTIVE_WIDE_LIMIT
        && std::iter::once(default_program)
            .chain(optimized.iter().copied())
            .all(|compiled| verify_exhaustive(mig, compiled).is_ok());
    let fault = fault_sweep(
        &default_program.program,
        &FaultScenario {
            model: FaultModel::drift(config.drift_probability),
            patterns: config.fault_patterns,
            seed: config.seed,
            parallelism: config.parallelism,
        },
    )?;
    let lifetime = simulate_lifetime(
        &default_program.program,
        &LifetimeScenario {
            cell_endurance: config.cell_endurance,
            max_invocations: u64::MAX,
            write_noise: 0.0,
            seed: config.seed,
        },
    );
    Ok(Fidelity {
        verified_exhaustive,
        fault_error_rate: fault.error_rate(),
        lifetime_invocations: lifetime.invocations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use plim_benchmarks::suite::{build, Scale};
    use plim_compiler::{compile, CompilerOptions, OptLevel};

    fn xor_chain(inputs: usize) -> Mig {
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", inputs);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = mig.xor(acc, x);
        }
        mig.add_output("f", acc);
        mig
    }

    #[test]
    fn fidelity_of_a_correct_compilation() {
        let mig = xor_chain(6);
        let compiled = compile(&mig, CompilerOptions::new());
        let fidelity = fidelity_for(&mig, &compiled, &[], &FidelityConfig::default()).unwrap();
        assert!(fidelity.verified_exhaustive);
        // Drift at 1e-3 must corrupt *some* patterns of a multi-write
        // program, but nowhere near all of them.
        assert!(fidelity.fault_error_rate > 0.0 && fidelity.fault_error_rate < 0.5);
        assert!(fidelity.lifetime_invocations > 0);
    }

    /// The fidelity columns of a bench record, measured as the bench
    /// does: the `-O0` program of the rewritten MIG plus its `-O1`/`-O2`
    /// programs, proven against the raw MIG. ctrl (7 PIs) and int2float
    /// (11 PIs) are exhaustively provable; router (60 PIs) exceeds the
    /// wide limit and must come back unverified rather than as an error.
    #[test]
    fn annotate_bench_fills_every_record() {
        for name in ["ctrl", "int2float", "router"] {
            let mig = build(name, Scale::Reduced).unwrap();
            let rewritten = mig::rewrite::rewrite(&mig, 2);
            let compiled = |opt| compile(&rewritten, CompilerOptions::new().opt(opt));
            let (o0, o1, o2) = (
                compiled(OptLevel::O0),
                compiled(OptLevel::O1),
                compiled(OptLevel::O2),
            );
            let fidelity =
                fidelity_for(&mig, &o0, &[&o1, &o2], &FidelityConfig::default()).unwrap();
            assert_eq!(fidelity.verified_exhaustive, name != "router", "{name}");
            assert!(fidelity.fault_error_rate >= 0.0, "{name}");
            assert!(fidelity.lifetime_invocations > 0, "{name}");
        }
    }

    #[test]
    fn oversized_interface_reports_unverified_not_error() {
        let mig = xor_chain(EXHAUSTIVE_WIDE_LIMIT + 1);
        let compiled = compile(&mig, CompilerOptions::new());
        let fidelity = fidelity_for(&mig, &compiled, &[], &FidelityConfig::default()).unwrap();
        assert!(!fidelity.verified_exhaustive);
        assert!(fidelity.lifetime_invocations > 0);
    }
}
