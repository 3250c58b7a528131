//! RM3 through the backend trait is the pre-refactor compiler, byte for
//! byte.
//!
//! The emit layer was redesigned around the `Backend` trait; this suite is
//! the refactor's no-regression proof. The committed goldens in
//! `tests/golden/` were captured from the single-step translator before
//! the IR split and have pinned `-O0` output ever since — here they pin
//! the trait path too — and a full schedule × allocator × opt-level matrix
//! checks the trait emission against the direct compiler on every
//! combination.

use plim_benchmarks::suite::{self, Scale};
use plim_compiler::{
    compile_full, AllocatorStrategy, CompilerOptions, OperandSelection, OptLevel, ScheduleOrder,
    Target,
};

/// `Target::RM3` emission reproduces the committed pre-refactor goldens.
#[test]
fn rm3_through_the_trait_matches_the_pre_refactor_goldens() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    for circuit in ["dec", "int2float"] {
        let mig = suite::build(circuit, Scale::Reduced).expect("suite circuit");
        let optimized = mig::rewrite::rewrite(&mig, 4);
        let compilation = compile_full(&optimized, CompilerOptions::new());
        let artifact = Target::RM3.backend().emit(&compilation.ir);
        let listing = std::fs::read_to_string(format!("{golden}/{circuit}.O0.listing"))
            .expect("committed golden listing");
        assert_eq!(
            artifact.listing(),
            listing,
            "{circuit}: trait emission diverged from the pre-refactor compiler"
        );
    }
}

/// Trait emission equals direct compilation at every schedule × allocator
/// × `-O` level — same listing, same stats.
#[test]
fn rm3_trait_emission_equals_direct_compilation_on_the_full_matrix() {
    for circuit in ["ctrl", "dec", "router"] {
        let mig = suite::build(circuit, Scale::Reduced).expect("suite circuit");
        let optimized = mig::rewrite::rewrite(&mig, 2);
        for schedule in ScheduleOrder::ALL {
            for allocator in AllocatorStrategy::ALL {
                for opt in OptLevel::ALL {
                    let options = CompilerOptions::new()
                        .schedule(schedule)
                        .operands(OperandSelection::Smart)
                        .allocator(allocator)
                        .opt(opt);
                    let compilation = compile_full(&optimized, options);
                    let artifact = options.target.backend().emit(&compilation.ir);
                    let context = format!("{circuit} @ {}", options.spec());
                    assert_eq!(
                        artifact.listing(),
                        compilation.compiled.program.to_string(),
                        "{context}: trait listing diverged"
                    );
                    let cost = artifact.cost();
                    let stats = &compilation.compiled.stats;
                    assert_eq!(cost.instructions, stats.instructions, "{context}");
                    assert_eq!(cost.footprint, stats.rams, "{context}");
                    assert_eq!(cost.wear, stats.max_cell_writes, "{context}");
                }
            }
        }
    }
}

/// At `-O0` no pass consults the cost model, so the target cannot perturb
/// lowering: an `ambit`-targeted compilation carries the exact IR — and
/// therefore the exact RM3 reference program — of the default one. (At
/// `-O2` the pipeline deliberately scores edits with the active backend's
/// model, so divergence there is a feature, not a bug.)
#[test]
fn target_choice_does_not_perturb_lowering() {
    let ambit = Target::parse("ambit").expect("built-in target");
    let mig = suite::build("int2float", Scale::Reduced).expect("suite circuit");
    let rm3 = compile_full(&mig, CompilerOptions::new());
    let other = compile_full(&mig, CompilerOptions::new().target(ambit));
    assert_eq!(
        rm3.ir.dump(),
        other.ir.dump(),
        "target choice leaked into lowering"
    );
    assert_eq!(
        rm3.compiled.program.to_string(),
        other.compiled.program.to_string()
    );
}
