//! Differential properties of the two rewrite engines: the in-place arena
//! engine (the default behind `mig::rewrite::rewrite`) must be functionally
//! equivalent to the rebuild reference engine, never produce more nodes on
//! the benchmark suite, and keep the batch pipeline byte-identical to
//! serial compilation.

use proptest::prelude::*;

use mig::arena::RewriteArena;
use mig::equiv::check_equivalence;
use mig::rewrite::{rewrite, rewrite_rebuild_with_stats, rewrite_with_stats};
use plim_benchmarks::random::{random_logic, RandomLogicSpec};
use plim_benchmarks::suite::{self, Scale};
use plim_compiler::batch::{format_row, measure, measure_suite, Circuit};
use plim_compiler::{compile, CompilerOptions};
use plim_parallel::Parallelism;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On random MIGs both engines preserve the function, report consistent
    /// statistics, and the in-place engine reaches a size at least as small
    /// as its own input.
    #[test]
    fn inplace_and_rebuild_agree_on_random_logic(
        seed: u64,
        inputs in 2usize..9,
        outputs in 1usize..6,
        nodes in 10usize..150,
        effort in 1usize..5,
    ) {
        let spec = RandomLogicSpec::new(inputs, outputs, nodes, seed);
        let mig = random_logic(&spec);
        let (inplace, istats) = rewrite_with_stats(&mig, effort);
        let (rebuild, rstats) = rewrite_rebuild_with_stats(&mig, effort);

        prop_assert!(check_equivalence(&mig, &inplace, 16, seed).unwrap().holds(),
            "in-place engine changed the function");
        prop_assert!(check_equivalence(&mig, &rebuild, 16, seed).unwrap().holds(),
            "rebuild engine changed the function");
        prop_assert!(check_equivalence(&inplace, &rebuild, 16, seed).unwrap().holds());

        // Stats consistency: both saw the same input, and each reports the
        // node count of the graph it actually produced.
        prop_assert_eq!(istats.nodes_before, rstats.nodes_before);
        prop_assert_eq!(istats.nodes_after, inplace.num_majority_nodes());
        prop_assert_eq!(rstats.nodes_after, rebuild.num_majority_nodes());
        prop_assert!(istats.cycles >= 1);
        prop_assert!(istats.cycles <= effort);
        prop_assert_eq!(istats.size_per_cycle.len(), istats.cycles);
        prop_assert!(istats.nodes_after <= istats.nodes_before);
    }

    /// The in-place engine leaves no multi-complement nodes behind, exactly
    /// like the rebuild engine's Ω.I sweeps.
    #[test]
    fn inplace_engine_removes_multi_complement_nodes(
        seed: u64,
        inputs in 2usize..8,
        nodes in 10usize..120,
    ) {
        let spec = RandomLogicSpec::new(inputs, 3, nodes, seed);
        let mig = random_logic(&spec);
        let rewritten = rewrite(&mig, 4);
        for id in rewritten.majority_ids() {
            let children = rewritten.node(id).children().unwrap();
            let real = children
                .iter()
                .filter(|s| s.is_complemented() && !s.is_constant())
                .count();
            prop_assert!(real <= 1, "node {} kept {} complements", id, real);
        }
    }

    /// One reusable arena across many circuits produces exactly the same
    /// graphs as a fresh engine per circuit.
    #[test]
    fn reused_arena_matches_fresh_engine(
        seed: u64,
        inputs in 2usize..8,
        effort in 1usize..4,
    ) {
        let mut arena = RewriteArena::new();
        for round in 0..3u64 {
            let spec = RandomLogicSpec::new(inputs, 2, 40, seed ^ round);
            let mig = random_logic(&spec);
            let reused = arena.rewrite(&mig, effort);
            let fresh = rewrite(&mig, effort);
            prop_assert_eq!(mig::io::write_mig(&reused), mig::io::write_mig(&fresh));
        }
    }
}

/// On every Table 1 benchmark the in-place engine is equivalent to the
/// rebuild engine and produces a node count no worse.
#[test]
fn inplace_no_worse_than_rebuild_on_the_suite() {
    for &name in suite::ALL.iter() {
        let mig = suite::build(name, Scale::Reduced).unwrap();
        let (inplace, istats) = rewrite_with_stats(&mig, 4);
        let (rebuild, _) = rewrite_rebuild_with_stats(&mig, 4);
        assert!(
            check_equivalence(&mig, &inplace, 32, 0xDAC)
                .unwrap()
                .holds(),
            "{name}: in-place engine changed the function"
        );
        assert!(
            inplace.num_majority_nodes() <= rebuild.num_majority_nodes(),
            "{name}: in-place {} nodes vs rebuild {}",
            inplace.num_majority_nodes(),
            rebuild.num_majority_nodes()
        );
        assert_eq!(istats.nodes_before, mig.num_majority_nodes(), "{name}");
        assert_eq!(istats.nodes_after, inplace.num_majority_nodes(), "{name}");
    }
}

/// Batch compilation through the thread-local reusable arenas stays
/// byte-identical to serial compilation under the in-place engine.
#[test]
fn batch_stays_byte_identical_to_serial_under_the_inplace_engine() {
    let circuits: Vec<Circuit> = ["ctrl", "int2float", "router", "dec"]
        .iter()
        .map(|&name| Circuit::new(name, suite::build(name, Scale::Reduced).unwrap()))
        .collect();
    let run = measure_suite(&circuits, 4, Parallelism::Threads(4));
    for circuit in &circuits {
        let serial = measure(&circuit.name, &circuit.mig, 4);
        let batched = run.rows.iter().find(|r| r.name == circuit.name).unwrap();
        assert_eq!(
            format_row(&serial),
            format_row(batched),
            "{} diverged between serial and batch",
            circuit.name
        );
    }
    // The compiled programs themselves (not just the formatted rows) agree
    // with serial compilation of the same rewritten graph.
    for job in &run.report.jobs {
        let input = match job.spec.effort {
            plim_compiler::batch::RewriteEffort::Raw => circuits[job.spec.circuit].mig.clone(),
            plim_compiler::batch::RewriteEffort::Effort(e) => {
                rewrite(&circuits[job.spec.circuit].mig, e)
            }
        };
        let serial = compile(&input, job.spec.options);
        assert_eq!(job.compiled.program.to_string(), serial.program.to_string());
    }
}

/// The compaction happens exactly once per rewrite call: the arena retains
/// every dead slot of the run, so its length equals the peak, and a fresh
/// `load` is what resets it.
#[test]
fn single_compaction_per_rewrite_call() {
    let mig = suite::build("voter", Scale::Reduced).unwrap();
    let mut arena = RewriteArena::new();
    let (out, stats) = arena.rewrite_with_stats(&mig, 4);
    // No intermediate compaction: dead slots accumulate in the arena, so
    // the arena is never shorter than peak minus nothing — i.e. its final
    // length IS the peak length of the whole run.
    assert_eq!(arena.len(), arena.peak_arena_len());
    assert!(arena.live_majority_count() <= arena.len());
    // The compaction may only canonicalize further, never grow.
    assert!(out.num_majority_nodes() <= arena.live_majority_count());
    assert!(stats.nodes_after <= stats.nodes_before);
    // Compared to the rebuild engine, which allocates ~5 graphs per cycle,
    // the arena's total allocation footprint is bounded by one table.
    let naive = CompilerOptions::naive();
    let _ = compile(&out, naive); // the result is a valid compiler input
}
