//! The compilation driver: lower → optimize → emit.
//!
//! Algorithm 2 of the paper lives in the [`crate::ir::lower`] phase; this
//! module only sequences the three phases and packages the result.

use mig::Mig;

use crate::ir::{self, passes::PassManager, IrProgram};
use crate::options::CompilerOptions;
use crate::program::Rm3Program;

/// Compiles an MIG into a PLiM program.
///
/// With the default options this is the paper's proposed compiler:
/// nodes are scheduled in the lifetime analysis' depth-first post-order —
/// the order §4.2.1's candidate queue pops, see [`crate::ir::lower()`] — and
/// each node is translated with the smart operand selection of §4.2.2, reusing
/// RRAMs through a FIFO free list. [`CompilerOptions::naive`] reproduces the
/// Table 1 baseline instead. Compilation runs in three phases — lowering to
/// the [`crate::ir`], the [`crate::OptLevel`]-selected pass pipeline, and
/// event-stream replay back to a physical program — with `-O0` (the
/// default) running no passes and reproducing the historical single-step
/// translator byte for byte.
///
/// Dangling nodes (unreachable from every primary output) are not
/// translated.
///
/// # Examples
///
/// ```
/// use mig::Mig;
/// use plim_compiler::{compile, CompilerOptions};
/// use plim::Machine;
///
/// let mut mig = Mig::new();
/// let a = mig.add_input("a");
/// let b = mig.add_input("b");
/// let c = mig.add_input("c");
/// let m = mig.maj(a, !b, c);
/// mig.add_output("f", m);
///
/// let compiled = compile(&mig, CompilerOptions::new());
/// assert_eq!(compiled.stats.mig_nodes, 1);
///
/// let mut machine = Machine::new();
/// let out = machine.run(&compiled.program, &[true, true, false]).unwrap();
/// assert_eq!(out, vec![false]); // ⟨1 0 0⟩ = 0
/// ```
pub fn compile(mig: &Mig, options: CompilerOptions) -> Rm3Program {
    compile_full(mig, options).compiled
}

/// Everything one compilation produced: the program, the (optimized) IR it
/// was emitted from, and the pass pipeline's accounting.
#[derive(Debug, Clone)]
pub struct Compilation {
    /// The executable program with its cost metrics.
    pub compiled: Rm3Program,
    /// The IR after optimization — what `plimc --emit ir` prints.
    pub ir: IrProgram,
    /// Per-pass `#I` accounting of the pipeline run.
    pub report: ir::passes::PassReport,
}

/// Like [`compile`], but keeps the post-optimization IR and the per-pass
/// report alongside the program.
pub fn compile_full(mig: &Mig, options: CompilerOptions) -> Compilation {
    let (ir, report) = compile_ir(mig, options);
    let compiled = ir::emit(&ir);
    Compilation {
        compiled,
        ir,
        report,
    }
}

/// The lower → optimize half of [`compile_full`]: the optimized IR and the
/// pass report, without emitting the program. A caller that compiles
/// several graphs only to compare their costs emits just the one it keeps.
pub fn compile_ir(mig: &Mig, options: CompilerOptions) -> (IrProgram, ir::passes::PassReport) {
    let mut ir = ir::lower(mig, options);
    let report = PassManager::for_level(options.opt).run(&mut ir, mig, options.target.backend());
    (ir, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mig::Signal;
    use plim::Machine;

    fn exhaustive_check(mig: &Mig, compiled: &Rm3Program) {
        let n = mig.num_inputs();
        assert!(n <= 12, "test helper is exhaustive");
        let mut machine = Machine::new();
        for pattern in 0..(1usize << n) {
            let inputs: Vec<bool> = (0..n).map(|i| pattern >> i & 1 != 0).collect();
            let expected = mig::simulate::evaluate(mig, &inputs);
            let got = machine.run(&compiled.program, &inputs).unwrap();
            assert_eq!(got, expected, "mismatch on pattern {pattern:#b}");
        }
    }

    fn fig3b_mig() -> Mig {
        // The six-node MIG of Fig. 3(b), reconstructed from the listings.
        let mut mig = Mig::new();
        let i1 = mig.add_input("i1");
        let i2 = mig.add_input("i2");
        let i3 = mig.add_input("i3");
        let n1 = mig.maj(Signal::FALSE, i1, i2);
        let n2 = mig.maj(Signal::TRUE, !i2, i3);
        let n3 = mig.maj(i1, i2, i3);
        let n4 = mig.maj(Signal::TRUE, n1, i3);
        let n5 = mig.maj(n1, !n2, n3);
        let n6 = mig.maj(n4, !n5, n1);
        mig.add_output("f", n6);
        mig
    }

    #[test]
    fn naive_and_smart_compile_fig3b_correctly() {
        let mig = fig3b_mig();
        let naive = compile(&mig, CompilerOptions::naive());
        let smart = compile(&mig, CompilerOptions::new());
        exhaustive_check(&mig, &naive);
        exhaustive_check(&mig, &smart);
        assert_eq!(naive.stats.mig_nodes, 6);
        assert_eq!(smart.stats.mig_nodes, 6);
        assert!(
            smart.stats.instructions <= naive.stats.instructions,
            "smart ({}) must not exceed naive ({})",
            smart.stats.instructions,
            naive.stats.instructions
        );
        assert!(smart.stats.rams <= naive.stats.rams);
    }

    #[test]
    fn single_and_gate() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let f = mig.and(a, b);
        mig.add_output("f", f);
        let compiled = compile(&mig, CompilerOptions::new());
        exhaustive_check(&mig, &compiled);
    }

    #[test]
    fn complemented_output_is_materialized() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let f = mig.and(a, b);
        mig.add_output("f", !f);
        let compiled = compile(&mig, CompilerOptions::new());
        exhaustive_check(&mig, &compiled);
    }

    #[test]
    fn passthrough_outputs() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        mig.add_output("x", a);
        mig.add_output("nx", !a);
        mig.add_output("zero", Signal::FALSE);
        mig.add_output("one", Signal::TRUE);
        let f = mig.or(a, b);
        mig.add_output("f", f);
        let compiled = compile(&mig, CompilerOptions::new());
        exhaustive_check(&mig, &compiled);
    }

    #[test]
    fn shared_output_plain_and_complemented() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let f = mig.xor(a, b);
        mig.add_output("f", f);
        mig.add_output("g", !f);
        let compiled = compile(&mig, CompilerOptions::new());
        exhaustive_check(&mig, &compiled);
    }

    #[test]
    fn dangling_nodes_are_skipped() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let f = mig.and(a, b);
        let _dead = mig.or(a, b);
        mig.add_output("f", f);
        let compiled = compile(&mig, CompilerOptions::new());
        assert_eq!(compiled.stats.mig_nodes, 1);
        exhaustive_check(&mig, &compiled);
    }

    #[test]
    fn multi_complement_nodes_compile_correctly() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let n1 = mig.maj(!a, !b, c);
        let n2 = mig.maj(!a, !b, !c);
        let n3 = mig.maj(!n1, !n2, a);
        mig.add_output("f", n3);
        for opts in [CompilerOptions::new(), CompilerOptions::naive()] {
            let compiled = compile(&mig, opts);
            exhaustive_check(&mig, &compiled);
        }
    }

    #[test]
    fn deep_xor_chain_all_option_combinations() {
        use crate::options::{AllocatorStrategy, OperandSelection, ScheduleOrder};
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", 6);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = mig.xor(acc, x);
        }
        mig.add_output("parity", acc);
        for schedule in ScheduleOrder::ALL {
            for operands in [OperandSelection::ChildOrder, OperandSelection::Smart] {
                for allocator in AllocatorStrategy::ALL {
                    let opts = CompilerOptions::new()
                        .schedule(schedule)
                        .operands(operands)
                        .allocator(allocator);
                    let compiled = compile(&mig, opts);
                    exhaustive_check(&mig, &compiled);
                }
            }
        }
    }

    #[test]
    fn lookahead_schedule_is_correct_and_frugal_on_fig3b() {
        let mig = fig3b_mig();
        let lookahead = compile(
            &mig,
            CompilerOptions::new().schedule(crate::options::ScheduleOrder::Lookahead),
        );
        exhaustive_check(&mig, &lookahead);
        let priority = compile(&mig, CompilerOptions::new());
        assert_eq!(lookahead.stats.mig_nodes, priority.stats.mig_nodes);
        // The lookahead schedule exists to shrink the working set; on this
        // small example it must at least not regress the paper's result.
        assert!(lookahead.stats.rams <= priority.stats.rams + 1);
    }

    #[test]
    fn allocator_counters_match_static_endurance() {
        use crate::options::AllocatorStrategy;
        let mig = fig3b_mig();
        for allocator in AllocatorStrategy::ALL {
            let compiled = compile(&mig, CompilerOptions::new().allocator(allocator));
            assert_eq!(
                compiled.stats.max_cell_writes,
                compiled.static_endurance().max_writes,
                "{allocator:?}: allocator write counters diverge from the program"
            );
        }
    }

    #[test]
    fn fresh_allocator_upper_bounds_fifo() {
        use crate::options::AllocatorStrategy;
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", 8);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = mig.maj(acc, x, xs[0]);
        }
        mig.add_output("f", acc);
        let fifo = compile(&mig, CompilerOptions::new());
        let fresh = compile(
            &mig,
            CompilerOptions::new().allocator(AllocatorStrategy::Fresh),
        );
        assert!(fifo.stats.rams <= fresh.stats.rams);
        assert_eq!(fifo.stats.instructions, fresh.stats.instructions);
    }

    #[test]
    fn stats_are_consistent_with_program() {
        let mig = fig3b_mig();
        let compiled = compile(&mig, CompilerOptions::new());
        assert_eq!(compiled.stats.instructions, compiled.program.len());
        assert_eq!(compiled.stats.rams, compiled.program.num_rams());
        assert!(compiled.stats.peak_live as u32 <= compiled.stats.rams);
    }
}
