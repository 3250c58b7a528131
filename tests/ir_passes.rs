//! Properties of the IR pass pipeline (`-O{0,1,2}`).
//!
//! Three invariants pin the lower → optimize → emit refactor:
//!
//! * **equivalence** — for random and suite MIGs, the optimized program
//!   verifies equivalent to the unoptimized one (and to the source MIG on
//!   the machine simulator) under every `schedule × allocator × opt-level`
//!   combination;
//! * **`-O0` byte-identity** — the default level reproduces the
//!   pre-refactor single-step translator exactly; golden listing/asm files
//!   captured from the pre-IR `plimc` pin this for two suite circuits, and
//!   the lowered-stream emit pins it structurally for random MIGs;
//! * **accounting** — the per-pass `#I` deltas reported by the
//!   `PassManager` sum to the end-to-end delta, and the emitted program
//!   matches the final IR instruction count.

use proptest::prelude::*;

use plim_benchmarks::random::{random_logic, RandomLogicSpec};
use plim_benchmarks::suite::{self, Scale};
use plim_compiler::ir;
use plim_compiler::{
    compile, compile_full, verify::verify, AllocatorStrategy, CompilerOptions, OptLevel,
    ScheduleOrder,
};

fn spec_strategy() -> impl Strategy<Value = RandomLogicSpec> {
    (2usize..10, 1usize..8, 10usize..100, any::<u64>()).prop_map(
        |(inputs, outputs, nodes, seed)| RandomLogicSpec::new(inputs, outputs, nodes, seed),
    )
}

/// Options sweep shared by the random and suite properties.
fn all_options(opt: OptLevel) -> impl Iterator<Item = CompilerOptions> {
    ScheduleOrder::ALL.into_iter().flat_map(move |schedule| {
        AllocatorStrategy::ALL.into_iter().map(move |allocator| {
            CompilerOptions::new()
                .schedule(schedule)
                .allocator(allocator)
                .opt(opt)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every optimized program is equivalent to the unoptimized one (same
    /// machine behavior, verified against the source MIG) under every
    /// schedule × allocator × opt-level combination, never costs
    /// instructions, and at `-O0` is byte-identical to the bare lowering.
    #[test]
    fn optimized_programs_verify_under_every_option_combination(spec in spec_strategy()) {
        let mig = random_logic(&spec);
        for opt in OptLevel::ALL {
            for options in all_options(opt) {
                let compiled = compile(&mig, options);
                prop_assert!(
                    verify(&mig, &compiled, 2, spec.seed).is_ok(),
                    "{} fails verification", options.spec()
                );
                let baseline = compile(&mig, options.opt(OptLevel::O0));
                prop_assert!(
                    compiled.stats.instructions <= baseline.stats.instructions,
                    "{}: optimization added instructions", options.spec()
                );
                prop_assert!(compiled.stats.rams <= baseline.stats.rams);
                prop_assert!(compiled.stats.max_cell_writes <= baseline.stats.max_cell_writes);
            }
        }
    }

    /// `-O0` is the bare lowering: emitting the lowered IR with no pass
    /// run reproduces `compile` byte-for-byte (listing, asm, stats).
    #[test]
    fn o0_is_byte_identical_to_the_bare_lowering(spec in spec_strategy()) {
        let mig = random_logic(&spec);
        for options in all_options(OptLevel::O0) {
            let compiled = compile(&mig, options);
            let lowered = ir::emit(&ir::lower(&mig, options));
            prop_assert_eq!(compiled.program.to_string(), lowered.program.to_string());
            prop_assert_eq!(
                plim::asm::write_asm(&compiled.program),
                plim::asm::write_asm(&lowered.program)
            );
            prop_assert_eq!(compiled.stats, lowered.stats);
        }
    }

    /// The `PassManager`'s per-pass `#I` deltas sum to the end-to-end
    /// delta between the lowered and the emitted program.
    #[test]
    fn per_pass_deltas_sum_to_the_end_to_end_delta(spec in spec_strategy()) {
        let mig = random_logic(&spec);
        for opt in OptLevel::ALL {
            let options = CompilerOptions::new().opt(opt);
            let lowered = ir::lower(&mig, options).num_instructions();
            let compilation = compile_full(&mig, options);
            let removed: usize = compilation.report.runs.iter().map(|run| run.removed()).sum();
            prop_assert_eq!(
                lowered - compilation.compiled.stats.instructions,
                removed,
                "per-pass deltas disagree with the end-to-end delta at {}",
                options.spec()
            );
            // Chained accounting: each run starts where the previous ended.
            let mut current = lowered;
            for run in &compilation.report.runs {
                prop_assert_eq!(run.instructions_before, current);
                current = run.instructions_after;
            }
            prop_assert_eq!(current, compilation.compiled.stats.instructions);
            prop_assert_eq!(compilation.report.total_removed(), removed);
            if opt == OptLevel::O0 {
                prop_assert!(compilation.report.runs.is_empty());
            }
        }
    }
}

/// `-O0` output is byte-identical to the pre-refactor `plimc`: the golden
/// listing and asm files were captured from the single-step translator
/// immediately before the IR split and are committed under `tests/golden/`.
#[test]
fn o0_matches_pre_refactor_goldens() {
    // This test is homed on the plim-compiler package, so golden paths are
    // relative to its manifest directory.
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    for circuit in ["dec", "int2float"] {
        let mig = suite::build(circuit, Scale::Reduced).expect("suite circuit");
        let optimized = mig::rewrite::rewrite(&mig, 4);
        let compiled = compile(&optimized, CompilerOptions::new());
        let listing = std::fs::read_to_string(format!("{golden}/{circuit}.O0.listing"))
            .expect("committed golden listing");
        assert_eq!(
            compiled.program.to_string(),
            listing,
            "{circuit}: -O0 listing diverged from the pre-refactor compiler"
        );
        let asm = std::fs::read_to_string(format!("{golden}/{circuit}.O0.asm"))
            .expect("committed golden asm");
        assert_eq!(
            plim::asm::write_asm(&compiled.program),
            asm,
            "{circuit}: -O0 asm diverged from the pre-refactor compiler"
        );
    }
}

/// The reduced suite under `-O2`: verified equivalent everywhere, at least
/// five circuits strictly below their `-O0` instruction count, and no
/// circuit worse in `#I`, `#R`, or max-cell-writes — the acceptance bar of
/// the pass pipeline.
#[test]
fn o2_strictly_improves_part_of_the_suite_without_regressions() {
    let mut strictly_better = 0;
    for name in suite::ALL {
        let mig = suite::build(name, Scale::Reduced).expect("suite circuit");
        let optimized = mig::rewrite::rewrite(&mig, 4);
        let baseline = compile(&optimized, CompilerOptions::new());
        let o2 = compile(&optimized, CompilerOptions::new().opt(OptLevel::O2));
        verify(&optimized, &o2, 2, 0xDAC2016).expect("optimized program verifies");
        assert!(
            o2.stats.instructions <= baseline.stats.instructions,
            "{name}: -O2 added instructions"
        );
        assert!(
            o2.stats.rams <= baseline.stats.rams,
            "{name}: -O2 added cells"
        );
        assert!(
            o2.stats.max_cell_writes <= baseline.stats.max_cell_writes,
            "{name}: -O2 wore cells harder"
        );
        if o2.stats.instructions < baseline.stats.instructions {
            strictly_better += 1;
        }
    }
    assert!(
        strictly_better >= 5,
        "-O2 strictly lowered #I on only {strictly_better} of {} circuits",
        suite::ALL.len()
    );
}

/// The IR dump is stable, self-consistent, and annotated: one instruction
/// per line with def/use, matching the emitted instruction count.
#[test]
fn ir_dump_lists_every_instruction_with_def_use() {
    let mig = suite::build("dec", Scale::Reduced).expect("suite circuit");
    let optimized = mig::rewrite::rewrite(&mig, 4);
    let compilation = compile_full(&optimized, CompilerOptions::new().opt(OptLevel::O2));
    let dump = compilation.ir.dump();
    let instruction_lines = dump
        .lines()
        .filter(|line| line.contains("rm3(") && line.contains("def %"))
        .count();
    assert_eq!(instruction_lines, compilation.compiled.stats.instructions);
    assert!(dump.starts_with(".ir v1\n"));
    assert!(dump.contains(".output"));
}

/// A backend that must never be consulted: scoring or emitting through it
/// fails the test.
struct Unscored;

impl plim_compiler::Backend for Unscored {
    fn name(&self) -> &'static str {
        "unscored"
    }

    fn description(&self) -> &'static str {
        "panics when the pass pipeline scores or emits"
    }

    fn instruction_set(&self) -> &'static [plim_compiler::InstructionInfo] {
        &[]
    }

    fn cost_table(&self) -> plim_compiler::CostTable {
        panic!("the -O0 pipeline priced the stream")
    }

    fn cost(&self, _: &ir::IrProgram) -> plim_compiler::Cost {
        panic!("the -O0 pipeline scored the stream")
    }

    fn emit(&self, _: &ir::IrProgram) -> Box<dyn plim_compiler::Artifact> {
        panic!("the -O0 pipeline emitted the stream")
    }
}

/// `-O0` runs no pass, so the pipeline returns at once: the lowered IR is
/// untouched, no run is reported, and the backend is never asked for a
/// cost baseline.
#[test]
fn o0_pipeline_leaves_the_ir_untouched_and_reports_no_runs() {
    let mig = suite::build("dec", Scale::Reduced).expect("suite circuit");
    let optimized = mig::rewrite::rewrite(&mig, 4);
    let lowered = ir::lower(&optimized, CompilerOptions::new());
    let mut ir = lowered.clone();
    let report =
        ir::passes::PassManager::for_level(OptLevel::O0).run(&mut ir, &optimized, &Unscored);
    assert!(report.runs.is_empty(), "runs at -O0: {:?}", report.runs);
    assert_eq!(ir.dump(), lowered.dump());
    assert_eq!(ir.events, lowered.events);
}

/// RM3's cost model, counting the [`plim_compiler::Backend::cost`] replays
/// the pipeline asks for.
#[cfg(not(debug_assertions))]
#[derive(Default)]
struct CountedRm3(std::sync::atomic::AtomicUsize);

#[cfg(not(debug_assertions))]
impl plim_compiler::Backend for CountedRm3 {
    fn name(&self) -> &'static str {
        "counted-rm3"
    }

    fn description(&self) -> &'static str {
        "RM3, counting full cost replays"
    }

    fn instruction_set(&self) -> &'static [plim_compiler::InstructionInfo] {
        plim_compiler::backend::Rm3Backend.instruction_set()
    }

    fn cost_table(&self) -> plim_compiler::CostTable {
        plim_compiler::CostTable::RM3
    }

    fn cost(&self, ir: &ir::IrProgram) -> plim_compiler::Cost {
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        ir::place(ir, self.cost_table(), &mut ()).cost
    }

    fn emit(&self, ir: &ir::IrProgram) -> Box<dyn plim_compiler::Artifact> {
        plim_compiler::backend::Rm3Backend.emit(ir)
    }
}

/// `-O2` takes its costs from `forward`'s scorer: the pipeline replays
/// the stream neither at entry nor after a `forward` run, only after each
/// `redundant-init` run that edits (none of these is reverted). `-O1` has
/// no `forward` run, so it also prices the entry stream once. The output
/// is the plain RM3 compile's either way.
///
/// Release builds only: debug builds replay the stream after every
/// `forward` run to check the scorer's price, which is the count a
/// manager replaying at entry and after each editing run would make too.
#[cfg(not(debug_assertions))]
#[test]
fn forward_prices_the_o2_pipeline_without_a_cost_replay() {
    for name in ["ctrl", "dec", "int2float", "voter"] {
        let mig = suite::build(name, Scale::Reduced).expect("suite circuit");
        let optimized = mig::rewrite::rewrite(&mig, 4);
        for (opt, entry) in [(OptLevel::O1, 1), (OptLevel::O2, 0)] {
            let backend = CountedRm3::default();
            let mut ir = ir::lower(&optimized, CompilerOptions::new());
            let report = ir::passes::PassManager::for_level(opt).run(&mut ir, &optimized, &backend);
            let gated = report
                .runs
                .iter()
                .filter(|r| r.pass == "redundant-init" && r.edits > 0)
                .count();
            assert_eq!(
                backend.0.into_inner(),
                entry + gated,
                "{name} {opt:?}: cost replays"
            );
            assert_eq!(
                ir::emit(&ir).program.to_string(),
                compile(&optimized, CompilerOptions::new().opt(opt))
                    .program
                    .to_string(),
                "{name} {opt:?}"
            );
        }
    }
}

/// Scores a stream by its event count: O(1) to score, and every legal
/// forwarding candidate deletes events, so each one commits.
#[cfg(not(debug_assertions))]
struct EventCount;

#[cfg(not(debug_assertions))]
impl plim_compiler::Backend for EventCount {
    fn name(&self) -> &'static str {
        "event-count"
    }

    fn description(&self) -> &'static str {
        "scores a stream by its event count"
    }

    fn instruction_set(&self) -> &'static [plim_compiler::InstructionInfo] {
        &[]
    }

    fn cost_table(&self) -> plim_compiler::CostTable {
        unreachable!("the model is no cost table")
    }

    fn cost(&self, ir: &ir::IrProgram) -> plim_compiler::Cost {
        plim_compiler::Cost {
            instructions: ir.events.len(),
            footprint: 0,
            wear: 0,
            units: 0,
        }
    }

    fn scorer(
        &self,
        ir: &ir::IrProgram,
    ) -> (
        Box<dyn plim_compiler::TrialScorer + '_>,
        plim_compiler::Cost,
    ) {
        (Box::new(EventCount), self.cost(ir))
    }

    fn emit(&self, _: &ir::IrProgram) -> Box<dyn plim_compiler::Artifact> {
        unreachable!("the forwarding pass never emits")
    }
}

/// Scores each trial in full, which is O(1) under this model.
#[cfg(not(debug_assertions))]
impl plim_compiler::TrialScorer for EventCount {
    fn trial(
        &mut self,
        ir: &ir::IrProgram,
        _: &plim_compiler::TrialEdit,
        bound: plim_compiler::Cost,
    ) -> Option<plim_compiler::Cost> {
        let cost = plim_compiler::Backend::cost(self, ir);
        cost.improves_on(bound).then_some(cost)
    }

    fn commit(&mut self) {}

    fn counts(&self) -> plim_compiler::TrialCounts {
        plim_compiler::TrialCounts::default()
    }
}

/// `Forward`'s bookkeeping per commit is proportional to the edit, not to
/// the stream: with scoring made free, 4× the nodes (and so about 4× the
/// commits over a 4× longer stream) costs well under 16× the time. An
/// engine that rescans and re-indexes the stream after every commit is
/// quadratic and lands above the bound.
///
/// Release builds only: debug builds re-check the whole IR after every
/// trial, which is O(n) per trial by design.
#[cfg(not(debug_assertions))]
#[test]
fn forward_bookkeeping_is_subquadratic() {
    let best_of_5 = |nodes: usize| {
        let mig = random_logic(&RandomLogicSpec::new(64, 16, nodes, 7));
        let lowered = ir::lower(&mig, CompilerOptions::new());
        (0..5)
            .map(|_| {
                let mut ir = lowered.clone();
                let start = std::time::Instant::now();
                let edits = ir::passes::forward(&mut ir, &EventCount).edits;
                let elapsed = start.elapsed().as_secs_f64();
                assert!(edits > 0, "{nodes} nodes: nothing forwarded");
                elapsed
            })
            .fold(f64::INFINITY, f64::min)
    };
    let small = best_of_5(2000);
    let large = best_of_5(8000);
    let ratio = large / small;
    assert!(
        ratio <= 16.0,
        "Forward at 4n nodes took {ratio:.1}× its time at n ({large:.4}s vs {small:.4}s)"
    );
}
