//! Differential properties of the equality-saturation engine against the
//! arena and rebuild rewriters: functional equivalence (checked both at
//! the graph level and through the PLiM machine simulator), compiled cost
//! never worse than the arena result, and byte-identical determinism for
//! a fixed seed and budget.

use proptest::prelude::*;

use mig::equiv::check_equivalence;
use mig::rewrite::{rewrite, rewrite_rebuild};
use mig::Mig;
use plim_benchmarks::random::{random_logic, RandomLogicSpec};
use plim_benchmarks::suite::{self, Scale};
use plim_compiler::verify::verify;
use plim_compiler::{compile, CompilerOptions, OptLevel};
use plim_egraph::{
    optimize_compiled, optimize_with_stats, saturate, EGraph, EgraphBudget, StopReason,
};

/// The options every compiled-cost comparison here runs under: the full
/// pass pipeline for the default RM3 target, exactly what the e-graph's
/// compiling cost function judges candidates with in `plimc bench`.
fn o2() -> CompilerOptions {
    CompilerOptions::new().opt(OptLevel::O2)
}

/// Lexicographic compiled cost (#I, #R, max cell writes) of `mig`.
fn compiled_cost(mig: &Mig) -> (u64, u64, u64) {
    let compiled = compile(mig, o2());
    (
        compiled.stats.instructions as u64,
        compiled.stats.rams as u64,
        compiled.stats.max_cell_writes as u64,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On random MIGs the e-graph engine preserves the function and its
    /// compiled cost is admissible: no axis worse than the arena result.
    #[test]
    fn egraph_agrees_with_arena_and_rebuild_on_random_logic(
        seed: u64,
        inputs in 2usize..7,
        outputs in 1usize..4,
        nodes in 8usize..60,
        effort in 1usize..3,
    ) {
        let spec = RandomLogicSpec::new(inputs, outputs, nodes, seed);
        let raw = random_logic(&spec);
        let arena = rewrite(&raw, effort);
        let rebuild = rewrite_rebuild(&raw, effort);
        let (chosen, ..) = optimize_compiled(&raw, &arena, effort, o2());

        prop_assert!(check_equivalence(&raw, &chosen, 16, seed).unwrap().holds(),
            "e-graph extraction changed the function");
        prop_assert!(check_equivalence(&rebuild, &chosen, 16, seed).unwrap().holds(),
            "engines disagree");

        let base = compiled_cost(&arena);
        let ours = compiled_cost(&chosen);
        prop_assert!(ours.0 <= base.0, "#I regressed: {ours:?} vs {base:?}");
        prop_assert!(ours.1 <= base.1, "#R regressed: {ours:?} vs {base:?}");
        prop_assert!(ours.2 <= base.2, "max writes regressed: {ours:?} vs {base:?}");
    }
}

/// Every reduced-suite circuit: equivalent to the source, admissible
/// against arena on all three cost axes, never more majority nodes, and
/// the compiled artifact simulates correctly on the machine model.
#[test]
fn egraph_is_equivalent_and_admissible_on_the_reduced_suite() {
    for &name in suite::ALL.iter() {
        let raw = suite::build(name, Scale::Reduced).expect("known benchmark");
        let arena = rewrite(&raw, 2);
        let (chosen, stats) = optimize_with_stats(&raw, &arena, 2, o2());

        assert!(
            check_equivalence(&raw, &chosen, 8, 0xDAC2016)
                .unwrap()
                .holds(),
            "{name}: function changed"
        );
        assert!(
            chosen.num_majority_nodes() <= arena.num_majority_nodes(),
            "{name}: more nodes than arena ({} > {})",
            chosen.num_majority_nodes(),
            arena.num_majority_nodes()
        );
        let base = compiled_cost(&arena);
        let ours = compiled_cost(&chosen);
        assert!(
            ours <= base,
            "{name}: compiled cost regressed {ours:?} vs {base:?}"
        );

        // The machine-level anchor: the compiled RM3 program for the
        // chosen graph must agree with direct MIG simulation.
        let compilation = plim_compiler::compile_full(&chosen, o2());
        verify(&chosen, &compilation.compiled, 4, 0xDAC2016)
            .unwrap_or_else(|e| panic!("{name}: machine simulation diverged: {e}"));

        // Saturation always reports a defined stop reason and real work.
        assert!(!stats.stop.name().is_empty(), "{name}");
        assert!(stats.final_enodes >= stats.initial_enodes, "{name}");
    }
}

/// Same seed, same budget ⇒ byte-identical extraction, across repeated
/// runs and across the stats/non-stats entry points.
#[test]
fn saturation_budget_determinism_is_byte_exact() {
    let raw = suite::build("router", Scale::Reduced).expect("known benchmark");
    let arena = rewrite(&raw, 2);
    let (first, first_stats) = optimize_with_stats(&raw, &arena, 2, o2());
    let (second, second_stats) = optimize_with_stats(&raw, &arena, 2, o2());
    let (third, ..) = optimize_compiled(&raw, &arena, 2, o2());
    assert_eq!(
        mig::io::write_mig(&first),
        mig::io::write_mig(&second),
        "two runs under one budget diverged"
    );
    assert_eq!(mig::io::write_mig(&first), mig::io::write_mig(&third));
    assert_eq!(first_stats.final_enodes, second_stats.final_enodes);
    assert_eq!(first_stats.iterations, second_stats.iterations);
    assert_eq!(first_stats.stop, second_stats.stop);
}

/// Tight budgets stop saturation early but never change the safety
/// story: the result is still equivalent and admissible.
#[test]
fn starved_budgets_still_produce_admissible_results() {
    let raw = suite::build("dec", Scale::Reduced).expect("known benchmark");
    let arena = rewrite(&raw, 2);
    let budget = EgraphBudget {
        max_enodes: 64,
        max_iterations: 1,
        max_work: 2_000,
    };
    let mut g = plim_egraph::EGraph::from_mig(&arena);
    let (_, stop) = plim_egraph::saturate(&mut g, &budget);
    assert!(
        matches!(
            stop,
            StopReason::EnodeLimit | StopReason::WorkLimit | StopReason::IterationLimit
        ),
        "a starved budget must bind: {stop:?}"
    );
    // The full engine under effort 1 (the smallest budget) keeps every
    // guarantee.
    let (chosen, ..) = optimize_compiled(&raw, &arena, 1, o2());
    assert!(check_equivalence(&raw, &chosen, 8, 7).unwrap().holds());
    assert!(compiled_cost(&chosen) <= compiled_cost(&arena));
}

/// Saturation end state of every reduced-suite circuit at effort 4, seeded
/// the way `optimize_with_stats` seeds it (the arena rewrite, plus the raw
/// graph when it has at most 3 000 nodes) under the effort-4 budget scaled
/// to the seed: final e-nodes, live classes, iterations, stop reason and
/// the work counter. Memo hashing and rule matching may get faster, but
/// none of these may move: the budget stops read them.
#[test]
fn saturation_end_states_are_pinned_on_the_reduced_suite() {
    #[rustfmt::skip]
    const PINNED: [(&str, usize, usize, usize, StopReason, u64); 18] = [
        ("adder", 3078, 1159, 2, StopReason::EnodeLimit, 15177),
        ("bar", 7393, 2825, 2, StopReason::EnodeLimit, 35591),
        ("div", 10999, 4366, 2, StopReason::EnodeLimit, 81119),
        ("log2", 7967, 3097, 2, StopReason::EnodeLimit, 48264),
        ("max", 7719, 3002, 2, StopReason::EnodeLimit, 39761),
        ("multiplier", 10909, 4356, 2, StopReason::EnodeLimit, 56994),
        ("sin", 29784, 11873, 2, StopReason::EnodeLimit, 160160),
        ("sqrt", 8418, 3096, 2, StopReason::EnodeLimit, 129319),
        ("square", 12834, 5097, 2, StopReason::EnodeLimit, 67796),
        ("cavlc", 2221, 867, 2, StopReason::EnodeLimit, 12776),
        ("ctrl", 1777, 580, 4, StopReason::EnodeLimit, 17150),
        ("dec", 1997, 578, 3, StopReason::EnodeLimit, 15259),
        ("i2c", 8974, 3519, 3, StopReason::EnodeLimit, 48693),
        ("int2float", 5428, 2050, 2, StopReason::EnodeLimit, 32649),
        ("mem_ctrl", 59981, 26198, 2, StopReason::EnodeLimit, 400270),
        ("priority", 2921, 1057, 2, StopReason::EnodeLimit, 18465),
        ("router", 2932, 790, 4, StopReason::EnodeLimit, 29565),
        ("voter", 9615, 3794, 2, StopReason::EnodeLimit, 50764),
    ];
    assert_eq!(PINNED.len(), suite::ALL.len());
    for (name, enodes, classes, iterations, stop, work) in PINNED {
        let raw = suite::build(name, Scale::Reduced).expect("known benchmark");
        let arena = rewrite(&raw, 4);
        let mut g = EGraph::from_mig(&arena);
        if raw.len() <= 3_000 {
            g.absorb_equivalent(&raw);
        }
        let budget = EgraphBudget::for_effort(4).scaled_to(g.num_enodes());
        let (ran, stopped) = saturate(&mut g, &budget);
        assert_eq!(
            (g.num_enodes(), g.num_classes(), ran, stopped, g.work()),
            (enodes, classes, iterations, stop, work),
            "{name}: saturation end state moved"
        );
        // The product path seeds and budgets the graph the same way.
        if ["cavlc", "ctrl", "dec"].contains(&name) {
            let (_, stats) = optimize_with_stats(&raw, &arena, 4, o2());
            assert_eq!(
                (
                    stats.final_enodes,
                    stats.classes,
                    stats.iterations,
                    stats.stop
                ),
                (enodes, classes, iterations, stop),
                "{name}: optimize_with_stats saturated differently"
            );
        }
    }
}

/// Distinct candidates scored per reduced-suite circuit at effort 2, and
/// whether one beat the arena baseline. Deduplication compares candidate
/// structures (`mig::io::same_text`); these counts are what comparing
/// their `write_mig` text gave, so the cheaper test must reproduce them.
#[test]
fn candidates_scored_are_pinned_on_the_reduced_suite() {
    #[rustfmt::skip]
    const PINNED: [(&str, usize, bool); 18] = [
        ("adder", 3, false), ("bar", 2, false), ("div", 3, false),
        ("log2", 3, false), ("max", 3, false), ("multiplier", 3, false),
        ("sin", 1, false), ("sqrt", 3, true), ("square", 3, false),
        ("cavlc", 3, true), ("ctrl", 2, true), ("dec", 2, false),
        ("i2c", 3, false), ("int2float", 3, true), ("mem_ctrl", 3, false),
        ("priority", 3, true), ("router", 0, false), ("voter", 3, false),
    ];
    assert_eq!(PINNED.len(), suite::ALL.len());
    for (name, candidates, improved) in PINNED {
        let raw = suite::build(name, Scale::Reduced).expect("known benchmark");
        let arena = rewrite(&raw, 2);
        let (_, stats) = optimize_with_stats(&raw, &arena, 2, o2());
        assert_eq!(
            (stats.candidates_scored, stats.improved),
            (candidates, improved),
            "{name}: candidate deduplication moved"
        );
    }
}
