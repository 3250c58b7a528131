//! # plim-backends — alternative emission targets for the PLiM compiler
//!
//! The compiler's middle end is target-neutral: lowering and the pass
//! pipeline work on the [`plim_compiler::ir`] event stream, and only the
//! final emission step commits to an architecture. This crate provides two
//! non-RM3 implementations of the [`plim_compiler::Backend`] trait:
//!
//! * [`AmbitBackend`] (`ambit`) — an Ambit-style bulk-bitwise DRAM target:
//!   each IR majority step becomes RowClone copies into a designated
//!   triple-row group, one destructive triple-row activation (TRA)
//!   computing the bitwise majority, and a copy back. The cost model counts
//!   row activations.
//! * [`MagicBackend`] (`magic`) — a MAGIC/IMPLY-style memristive NOR
//!   sketch: each majority step is decomposed into seven NOR pulses over
//!   six scratch memristors, each preceded by the mandatory output-device
//!   initialization. The cost model counts pulses.
//!
//! Both backends reuse the compiler's allocator replay for deterministic
//! row/cell placement and execute their artifacts 256 input patterns at a
//! time from the same poisoned memory image as the RM3 program
//! ([`plim_compiler::backend::poison`]), so the one verifier
//! ([`plim_compiler::verify::verify_exhaustive`] and its sampled sibling
//! [`plim_compiler::verify::verify_artifact`]) proves them against the
//! source MIG exactly as it proves RM3.
//!
//! Call [`install`] once (idempotent) to make the targets resolvable by
//! name through [`plim_compiler::Target`]; `plimc`, `plimd`, and the bench
//! harnesses do so at startup.

mod ambit;
mod magic;
mod rows;

pub use ambit::AmbitBackend;
pub use magic::MagicBackend;

use plim_compiler::Backend;

/// The registered `ambit` backend instance.
pub static AMBIT: AmbitBackend = AmbitBackend;

/// The registered `magic` backend instance.
pub static MAGIC: MagicBackend = MagicBackend;

/// Registers every backend of this crate with the global target registry.
///
/// Idempotent: safe to call from binaries, tests, and library users in any
/// order. After the call, `Target::parse("ambit")` and
/// `Target::parse("magic")` resolve.
pub fn install() {
    plim_compiler::backend::register(&AMBIT);
    plim_compiler::backend::register(&MAGIC);
}

/// Fills the per-target columns (`ambit_ops`/`ambit_cost`,
/// `magic_ops`/`magic_cost`) of every record of a bench run, re-costing
/// the default compiler's post-optimization IR (job 2 of each circuit's
/// job group) under each alternative backend — no recompilation.
pub fn annotate_bench(run: &mut plim_compiler::batch::BenchRun) {
    install();
    if run.records.is_empty() {
        return;
    }
    let stride = run.report.jobs.len() / run.records.len();
    let report = &run.report;
    for (index, record) in run.records.iter_mut().enumerate() {
        let ir = &report.jobs[index * stride + 2].ir;
        let ambit = AMBIT.cost(ir);
        record.ambit_ops = ambit.instructions as u64;
        record.ambit_cost = ambit.units;
        let magic = MAGIC.cost(ir);
        record.magic_ops = magic.instructions as u64;
        record.magic_cost = magic.units;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plim_compiler::Target;

    #[test]
    fn install_makes_the_targets_resolvable() {
        install();
        install(); // idempotent
        assert_eq!(Target::parse("ambit").unwrap().name(), "ambit");
        assert_eq!(Target::parse("magic").unwrap().name(), "magic");
        let names: Vec<&str> = Target::all().iter().map(|t| t.name()).collect();
        assert_eq!(names[0], "rm3", "RM3 stays first in the registry");
        assert!(names.contains(&"ambit") && names.contains(&"magic"));
    }
}
