//! The static analyzer's contract, from both directions.
//!
//! Soundness on good artifacts: every compilation the pipeline produces —
//! the whole reduced suite swept across schedule × allocator × `-O`, plus
//! random MIGs — analyzes clean, and the certification replay re-derives
//! `#I`/`#R`/wear exactly. Sensitivity on bad ones: each lint `PA0001` …
//! `PA0008` has a hand-doctored stream that trips it (positive) and a
//! minimal variation that does not (negative).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use mig::NodeId;
use plim::{RamAddr, Rhs};
use plim_analysis::{
    analyze_artifact, analyze_events, certify, cross_check, AnalysisConfig, Lint, Severity,
};
use plim_benchmarks::random::{random_logic, RandomLogicSpec};
use plim_benchmarks::suite::{self, Scale};
use plim_compiler::ir::{CellId, Event, IrCell, IrOp, IrOutput, IrProgram, Value};
use plim_compiler::{
    compile_full, AllocatorStrategy, CompilerOptions, LifetimeClass, OptLevel, ScheduleOrder,
};

const SCHEDULES: [ScheduleOrder; 3] = [
    ScheduleOrder::Index,
    ScheduleOrder::Priority,
    ScheduleOrder::Lookahead,
];
const ALLOCATORS: [AllocatorStrategy; 5] = AllocatorStrategy::ALL;
const LEVELS: [OptLevel; 2] = OptLevel::ALL;

/// Asserts the full battery comes back clean and the certificate agrees
/// with the recorded stats on its own (not just through
/// `analyze_artifact`'s PA0008 path).
fn assert_artifact_clean(mig: &mig::Mig, options: CompilerOptions, context: &str) {
    let compilation = compile_full(mig, options);
    let diags = analyze_artifact(&compilation, options.opt);
    assert!(
        diags.is_empty(),
        "{context}: expected a clean artifact, got:\n{}",
        diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    let certificate = certify(&compilation.ir).expect("clean stream certifies");
    let stats = &compilation.compiled.stats;
    assert_eq!(
        certificate.instructions, stats.instructions,
        "{context}: #I"
    );
    assert_eq!(certificate.rams, stats.rams, "{context}: #R");
    assert_eq!(
        certificate.max_cell_writes, stats.max_cell_writes,
        "{context}: max cell writes"
    );
}

/// Acceptance criterion: zero diagnostics and exact resource certification
/// on every reduced-suite circuit across the full schedule × allocator ×
/// `-O` sweep.
#[test]
fn reduced_suite_sweep_is_lint_clean() {
    for name in suite::ALL {
        let mig = suite::build(name, Scale::Reduced).expect("known circuit");
        let rewritten = mig::rewrite::rewrite(&mig, 2);
        for schedule in SCHEDULES {
            for alloc in ALLOCATORS {
                for opt in LEVELS {
                    let options = CompilerOptions::new()
                        .schedule(schedule)
                        .allocator(alloc)
                        .opt(opt);
                    let context = format!("{name} {schedule:?}/{alloc:?}/{opt:?}");
                    assert_artifact_clean(&rewritten, options, &context);
                }
            }
        }
    }
}

/// The naive (Table 1 baseline) translator's artifacts are clean too.
#[test]
fn naive_translation_is_lint_clean() {
    for name in suite::ALL {
        let mig = suite::build(name, Scale::Reduced).expect("known circuit");
        assert_artifact_clean(&mig, CompilerOptions::naive(), &format!("{name} naive"));
    }
}

fn spec_strategy() -> impl Strategy<Value = RandomLogicSpec> {
    (2usize..10, 1usize..6, 10usize..90, any::<u64>()).prop_map(|(inputs, outputs, nodes, seed)| {
        RandomLogicSpec::new(inputs, outputs, nodes, seed)
    })
}

fn options_strategy() -> impl Strategy<Value = CompilerOptions> {
    (0usize..3, 0usize..5, 0usize..LEVELS.len()).prop_map(|(schedule, alloc, opt)| {
        CompilerOptions::new()
            .schedule(SCHEDULES[schedule])
            .allocator(ALLOCATORS[alloc])
            .opt(LEVELS[opt])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random MIGs under random option combinations always produce clean
    /// artifacts — the analyzer never cries wolf on the compiler's own
    /// output.
    #[test]
    fn random_artifacts_are_lint_clean(
        spec in spec_strategy(),
        options in options_strategy(),
    ) {
        let mig = random_logic(&spec);
        let compilation = compile_full(&mig, options);
        let diags = analyze_artifact(&compilation, options.opt);
        prop_assert!(diags.is_empty(), "diagnostics on a random artifact: {diags:?}");
    }
}

// ---------------------------------------------------------------------------
// Hand-doctored streams: one positive and one negative case per lint.
// ---------------------------------------------------------------------------

const C0: CellId = CellId(0);
const C1: CellId = CellId(1);

const CELL: IrCell = IrCell {
    hint: LifetimeClass::Short,
};

fn reset(z: CellId) -> IrOp {
    IrOp {
        a: Value::Const(false),
        b: Value::Const(true),
        z,
        rhs: Rhs::Const(false),
        node: None,
    }
}

fn main_op(z: CellId, node: u32) -> IrOp {
    IrOp {
        a: Value::Input(0),
        b: Value::Input(1),
        z,
        rhs: Rhs::Node(node, false),
        node: Some(NodeId::from_index(node as usize)),
    }
}

/// A minimal well-formed program: request %0, reset it, compute into it,
/// output it. Clean under every configuration.
fn base_program() -> IrProgram {
    IrProgram {
        num_inputs: 2,
        ops: vec![reset(C0), main_op(C0, 3)],
        cells: vec![CELL],
        events: vec![Event::Request(C0), Event::Op(0), Event::Op(1)],
        outputs: vec![("f".to_string(), IrOutput::Cell(C0))],
        mig_nodes: 1,
        allocator: AllocatorStrategy::Fifo,
    }
}

fn lints_of(ir: &IrProgram, config: &AnalysisConfig) -> Vec<Lint> {
    analyze_events(ir, config)
        .into_iter()
        .map(|d| d.lint)
        .collect()
}

fn structural() -> AnalysisConfig {
    AnalysisConfig::structural()
}

#[test]
fn base_program_is_clean_under_every_config() {
    let ir = base_program();
    assert!(ir.check().is_ok());
    for config in [
        structural(),
        AnalysisConfig::for_level(OptLevel::O0),
        AnalysisConfig::for_level(OptLevel::O2),
    ] {
        assert_eq!(lints_of(&ir, &config), vec![], "config {config:?}");
    }
}

#[test]
fn pa0001_use_before_init_fires_on_unreset_read() {
    let mut ir = base_program();
    // Drop the reset: the main op's non-masking destination read observes
    // a cell that holds no value yet.
    ir.events.remove(1);
    assert!(lints_of(&ir, &structural()).contains(&Lint::UseBeforeInit));
}

#[test]
fn pa0001_negative_masking_write_needs_no_init() {
    // A masking write IS the initialization; reset-then-compute is clean.
    assert_eq!(lints_of(&base_program(), &structural()), vec![]);
}

#[test]
fn pa0002_use_after_release_fires_on_released_write() {
    let mut ir = base_program();
    // Release %0 between the reset and the main op.
    ir.events.insert(2, Event::Release(C0));
    let lints = lints_of(&ir, &structural());
    assert!(lints.contains(&Lint::UseAfterRelease), "got {lints:?}");
}

#[test]
fn pa0002_negative_release_after_last_use_is_clean() {
    let mut ir = base_program();
    // Releasing after the last op is fine — but the output then reads a
    // non-live cell, so route the output to an input instead.
    ir.events.push(Event::Release(C0));
    ir.outputs = vec![(
        "f".to_string(),
        IrOutput::Input {
            index: 0,
            complemented: false,
        },
    )];
    assert_eq!(lints_of(&ir, &structural()), vec![]);
}

#[test]
fn pa0003_double_release_fires() {
    let mut ir = base_program();
    ir.events.push(Event::Release(C0));
    ir.events.push(Event::Release(C0));
    ir.outputs.clear();
    let lints = lints_of(&ir, &structural());
    assert_eq!(lints, vec![Lint::DoubleRelease]);
}

#[test]
fn pa0003_negative_single_release_is_clean() {
    let mut ir = base_program();
    ir.events.push(Event::Release(C0));
    ir.outputs.clear();
    assert_eq!(lints_of(&ir, &structural()), vec![]);
}

/// Requests %0 again after `before`, then resets it: one `PA0004` finding,
/// with `check`'s message.
fn assert_rerequest_is_pa0004(before: &[Event], at: usize) {
    let mut ir = base_program();
    ir.events.extend(before);
    ir.events.extend([Event::Request(C0), Event::Op(0)]);
    let message = format!("event {at}: %0 requested twice");
    let diags = analyze_events(&ir, &structural());
    let found: Vec<_> = diags.iter().map(|d| (d.lint, d.message.as_str())).collect();
    assert_eq!(found, vec![(Lint::PinnedAliasing, message.as_str())]);
    assert_eq!(ir.check(), Err(message));
}

#[test]
fn pa0004_fires_on_rerequesting_a_live_cell() {
    assert_rerequest_is_pa0004(&[], 3);
}

#[test]
fn pa0004_fires_on_rerequesting_a_released_cell() {
    assert_rerequest_is_pa0004(&[Event::Release(C0)], 4);
}

/// A program with the complement-materialization idiom: %0 holds node 3,
/// %1 caches ¬%0 (reset, then `⟨1 %0 0⟩` under node 3's provenance).
fn complement_program() -> IrProgram {
    let compl = IrOp {
        a: Value::Const(true),
        b: Value::Cell(C0),
        z: C1,
        rhs: Rhs::Node(3, true),
        node: Some(NodeId::from_index(3)),
    };
    let consume = IrOp {
        a: Value::Cell(C1),
        b: Value::Input(0),
        z: C0,
        rhs: Rhs::Node(4, false),
        node: Some(NodeId::from_index(4)),
    };
    IrProgram {
        num_inputs: 2,
        ops: vec![reset(C0), main_op(C0, 3), reset(C1), compl, consume],
        cells: vec![CELL; 2],
        events: vec![
            Event::Request(C0),
            Event::Op(0),
            Event::Op(1),
            Event::Request(C1),
            Event::Op(2),
            Event::Op(3),
            Event::Op(4),
        ],
        outputs: vec![("f".to_string(), IrOutput::Cell(C0))],
        mig_nodes: 2,
        allocator: AllocatorStrategy::Fifo,
    }
}

#[test]
fn pa0005_stale_complement_fires_on_recompute_before_use() {
    let mut ir = complement_program();
    // Recompute node 3 into %0 *between* materializing ¬%0 and consuming
    // it: the cached complement no longer matches.
    ir.events.insert(6, Event::Op(1));
    let lints = lints_of(&ir, &structural());
    assert!(lints.contains(&Lint::StaleComplement), "got {lints:?}");
}

#[test]
fn pa0005_negative_fresh_complement_is_clean() {
    assert_eq!(lints_of(&complement_program(), &structural()), vec![]);
}

#[test]
fn pa0006_dead_write_fires_in_optimized_streams() {
    let mut ir = base_program();
    // Nothing reads %0 once the output moves off it.
    ir.outputs = vec![("f".to_string(), IrOutput::Const(false))];
    let config = AnalysisConfig::for_level(OptLevel::O2);
    assert!(config.expect_optimized);
    let lints = lints_of(&ir, &config);
    assert_eq!(lints, vec![Lint::DeadWrite, Lint::DeadWrite]);
}

#[test]
fn pa0006_negative_unoptimized_streams_tolerate_dead_writes() {
    let mut ir = base_program();
    ir.outputs = vec![("f".to_string(), IrOutput::Const(false))];
    // `-O0` made no dead-write promise.
    assert_eq!(
        lints_of(&ir, &AnalysisConfig::for_level(OptLevel::O0)),
        vec![]
    );
}

#[test]
fn pa0007_release_never_requested_fires() {
    let mut ir = base_program();
    ir.events.insert(0, Event::Release(C0));
    let lints = lints_of(&ir, &structural());
    assert!(
        lints.contains(&Lint::ReleaseNeverRequested),
        "got {lints:?}"
    );
}

#[test]
fn pa0007_negative_release_of_requested_cell_is_clean() {
    let mut ir = base_program();
    ir.events.push(Event::Release(C0));
    ir.outputs.clear();
    assert!(!lints_of(&ir, &structural()).contains(&Lint::ReleaseNeverRequested));
}

#[test]
fn pa0008_stats_mismatch_fires_on_tampered_stats() {
    let mig = suite::build("adder4", Scale::Reduced)
        .or_else(|| suite::build(suite::ALL[0], Scale::Reduced))
        .expect("known circuit");
    let mut compilation = compile_full(&mig, CompilerOptions::new());
    compilation.compiled.stats.instructions += 1;
    compilation.compiled.stats.max_cell_writes += 1;
    let diags = analyze_artifact(&compilation, OptLevel::O0);
    let mismatches = diags
        .iter()
        .filter(|d| d.lint == Lint::StatsMismatch)
        .count();
    assert!(
        mismatches >= 2,
        "expected #I and wear mismatches, got {diags:?}"
    );
}

#[test]
fn pa0008_negative_honest_stats_certify() {
    let mig = suite::build(suite::ALL[0], Scale::Reduced).expect("known circuit");
    let compilation = compile_full(&mig, CompilerOptions::new().opt(OptLevel::O2));
    let certificate = certify(&compilation.ir).expect("clean stream certifies");
    assert_eq!(cross_check(&certificate, &compilation.compiled), vec![]);
}

/// The doctor's injection must be caught end to end through the full
/// artifact battery — the CI dry-run's in-process twin.
#[test]
fn doctored_write_after_release_fails_the_battery() {
    let mig = suite::build(suite::ALL[0], Scale::Reduced).expect("known circuit");
    let mut compilation = compile_full(&mig, CompilerOptions::new());
    assert!(analyze_artifact(&compilation, OptLevel::O0).is_empty());
    plim_analysis::doctor::inject_write_after_release(&mut compilation.ir).expect("stream has ops");
    let diags = analyze_artifact(&compilation, OptLevel::O0);
    assert!(
        diags.iter().any(|d| d.lint == Lint::UseAfterRelease),
        "expected PA0002, got {diags:?}"
    );
}

// ---------------------------------------------------------------------------
// The structural lints cover `IrProgram::check`: `PassManager::run` lets the
// analyzer decide and keeps `check` only as a backstop.
// ---------------------------------------------------------------------------

/// A draw below `n` (`n > 0`).
fn below(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Applies one random edit to `ir`: delete, duplicate or swap events, point
/// an op's operand or destination at another cell, or release an output's
/// cell.
fn mutate(ir: &mut IrProgram, rng: &mut TestRng) {
    let len = ir.events.len();
    match below(rng, 5) {
        0 => drop(ir.events.remove(below(rng, len))),
        1 => {
            let event = ir.events[below(rng, len)];
            ir.events.insert(below(rng, len + 1), event);
        }
        2 => ir.events.swap(below(rng, len), below(rng, len)),
        3 => {
            if let Event::Op(i) = ir.events[below(rng, len)] {
                let cell = CellId(below(rng, ir.cells.len()) as u32);
                let op = &mut ir.ops[i as usize];
                match below(rng, 3) {
                    0 => op.a = Value::Cell(cell),
                    1 => op.b = Value::Cell(cell),
                    _ => op.z = cell,
                }
            }
        }
        _ => {
            let output = ir.outputs.get(below(rng, ir.outputs.len().max(1)));
            if let Some(&(_, IrOutput::Cell(cell))) = output {
                ir.events.insert(below(rng, len + 1), Event::Release(cell));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// 64 mutants (one to three edits each) of a lowered and an `-O2`
    /// stream: whenever `check` rejects one, the structural lints report
    /// an error, so a clean analysis implies `check().is_ok()`.
    #[test]
    fn structural_lints_cover_every_check_error(
        spec in spec_strategy(),
        options in options_strategy(),
        seed in any::<u64>(),
    ) {
        let mig = random_logic(&spec);
        let mut rng = TestRng::new(seed);
        for opt in LEVELS {
            let ir = compile_full(&mig, options.opt(opt)).ir;
            let mut rejected = 0;
            for _ in 0..64 {
                let mut mutant = ir.clone();
                for _ in 0..1 + below(&mut rng, 3) {
                    if !mutant.events.is_empty() {
                        mutate(&mut mutant, &mut rng);
                    }
                }
                let Err(error) = mutant.check() else {
                    continue;
                };
                rejected += 1;
                let diags = analyze_events(&mutant, &structural());
                prop_assert!(
                    diags.iter().any(|d| d.lint.severity() == Severity::Error),
                    "check rejects the mutant ({error}), the analyzer reports {diags:?}"
                );
            }
            prop_assert!(rejected > 0, "no mutant broke the {opt:?} stream");
        }
    }
}

// ---------------------------------------------------------------------------
// Stale-complement tracking against a quadratic reference, plus its cost.
// ---------------------------------------------------------------------------

/// The stale-complement rule in its plainest form, kept as a test oracle:
/// a map of cached complements, scanned whole on every value-changing
/// write. Returns every `PA0005` finding as `(event, cell)`.
fn reference_stale_complements(ir: &IrProgram) -> Vec<(usize, CellId)> {
    let mut live: HashMap<CellId, bool> = HashMap::new();
    let mut known_zero: HashMap<CellId, bool> = HashMap::new();
    // cache cell -> (source, node, stale)
    let mut cached: HashMap<CellId, (CellId, NodeId, bool)> = HashMap::new();
    let mut found = Vec::new();
    for (pos, &event) in ir.events.iter().enumerate() {
        match event {
            Event::Request(c) => {
                live.insert(c, false);
                known_zero.remove(&c);
                cached.remove(&c);
            }
            Event::Release(c) => {
                live.insert(c, false);
            }
            Event::Op(i) => {
                let op = &ir.ops[i as usize];
                for c in op.reads() {
                    if live.get(&c) == Some(&true) && matches!(cached.get(&c), Some((_, _, true))) {
                        found.push((pos, c));
                    }
                }
                if op.z.index() >= ir.cells.len() {
                    continue;
                }
                live.insert(op.z, true);
                if matches!((op.a, op.b), (Value::Const(x), Value::Const(y)) if x == y) {
                    continue;
                }
                match (op.a, op.b, op.node) {
                    (Value::Const(true), Value::Cell(source), Some(node))
                        if known_zero.get(&op.z) == Some(&true) =>
                    {
                        cached.insert(op.z, (source, node, false));
                    }
                    _ => {
                        cached.remove(&op.z);
                    }
                }
                let reset = (op.a, op.b) == (Value::Const(false), Value::Const(true));
                known_zero.insert(op.z, reset);
                if let Some(node) = op.node {
                    for (cell, entry) in &mut cached {
                        if *cell != op.z && entry.0 == op.z && entry.1 == node {
                            entry.2 = true;
                        }
                    }
                }
            }
        }
    }
    found
}

/// The analyzer's `PA0005` findings as `(event, cell)`.
fn stale_findings(ir: &IrProgram) -> Vec<(usize, CellId)> {
    analyze_events(ir, &structural())
        .into_iter()
        .filter(|d| d.lint == Lint::StaleComplement)
        .map(|d| {
            (
                d.event.expect("PA0005 names its event"),
                d.cell.expect("and its cell"),
            )
        })
        .collect()
}

/// Builds event streams op by op.
struct Stream {
    ir: IrProgram,
}

impl Stream {
    fn new(cells: usize) -> Self {
        Stream {
            ir: IrProgram {
                num_inputs: 2,
                ops: Vec::new(),
                cells: vec![CELL; cells],
                events: Vec::new(),
                outputs: Vec::new(),
                mig_nodes: 0,
                allocator: AllocatorStrategy::Fifo,
            },
        }
    }

    fn event(&mut self, event: Event) -> &mut Self {
        self.ir.events.push(event);
        self
    }

    fn op(&mut self, a: Value, b: Value, z: CellId, node: Option<u32>) -> &mut Self {
        self.ir.events.push(Event::Op(self.ir.ops.len() as u32));
        self.ir.ops.push(IrOp {
            a,
            b,
            z,
            rhs: Rhs::Const(false),
            node: node.map(|n| NodeId::from_index(n as usize)),
        });
        self
    }

    /// Requests `z`, resets it and computes node `node` into it.
    fn compute(&mut self, z: CellId, node: u32) -> &mut Self {
        self.event(Event::Request(z))
            .op(Value::Const(false), Value::Const(true), z, None)
            .recompute(z, node)
    }

    /// A main op writing `z` under `node`'s provenance.
    fn recompute(&mut self, z: CellId, node: u32) -> &mut Self {
        self.op(Value::Input(0), Value::Input(1), z, Some(node))
    }

    /// The materialization idiom: reset `z`, then `z ← ⟨1 s̄ z⟩` for `node`.
    fn materialize(&mut self, z: CellId, source: CellId, node: u32) -> &mut Self {
        self.op(Value::Const(false), Value::Const(true), z, Some(node))
            .op(Value::Const(true), Value::Cell(source), z, Some(node))
    }

    /// An op reading `c` into `z` under `node`.
    fn consume(&mut self, c: CellId, z: CellId, node: u32) -> &mut Self {
        self.op(Value::Cell(c), Value::Input(0), z, Some(node))
    }

    /// Index of the next event.
    fn at(&self) -> usize {
        self.ir.events.len()
    }
}

/// Asserts the analyzer and the reference agree on `ir` and returns the
/// shared findings.
fn agreed_findings(ir: &IrProgram) -> Vec<(usize, CellId)> {
    let found = stale_findings(ir);
    assert_eq!(
        found,
        reference_stale_complements(ir),
        "analyzer vs reference"
    );
    found
}

const C2: CellId = CellId(2);
const C3: CellId = CellId(3);

#[test]
fn pa0005_two_caches_of_one_source_both_go_stale() {
    let mut s = Stream::new(4);
    s.compute(C0, 3)
        .event(Event::Request(C1))
        .event(Event::Request(C2));
    s.materialize(C1, C0, 3)
        .materialize(C2, C0, 3)
        .recompute(C0, 3);
    s.event(Event::Request(C3));
    let first = s.at();
    s.consume(C1, C3, 7);
    let second = s.at();
    s.consume(C2, C3, 7);
    assert_eq!(agreed_findings(&s.ir), vec![(first, C1), (second, C2)]);
}

#[test]
fn pa0005_a_cell_caching_its_own_complement_never_goes_stale() {
    // `⟨1 z̄ z⟩` over a reset cell: the cell caches ¬(its zero), and every
    // later value-changing write to it replaces the entry.
    let mut s = Stream::new(2);
    s.event(Event::Request(C0)).materialize(C0, C0, 3);
    s.compute(C1, 5)
        .consume(C0, C1, 5)
        .recompute(C0, 3)
        .consume(C0, C1, 5);
    assert_eq!(agreed_findings(&s.ir), vec![]);
}

#[test]
fn pa0005_rematerializing_a_stale_cache_makes_it_fresh_until_the_next_recompute() {
    let mut s = Stream::new(3);
    s.compute(C0, 3).event(Event::Request(C1)).compute(C2, 9);
    s.materialize(C1, C0, 3).recompute(C0, 3);
    // Stale now; rebuilt before its first read, so that read is clean.
    s.materialize(C1, C0, 3).consume(C1, C2, 9);
    // The rebuilt cache is indexed again: the next recompute stales it.
    s.recompute(C0, 3);
    let stale_read = s.at();
    s.consume(C1, C2, 9);
    assert_eq!(agreed_findings(&s.ir), vec![(stale_read, C1)]);
}

#[test]
fn pa0005_request_clears_a_cached_complement() {
    let mut s = Stream::new(4);
    s.compute(C0, 3).compute(C3, 9).event(Event::Request(C1));
    s.materialize(C1, C0, 3).event(Event::Release(C1));
    // %1 starts a new lifetime holding an unrelated value; recomputing
    // node 3 into %0 says nothing about it.
    s.compute(C1, 6).recompute(C0, 3).consume(C1, C3, 9);
    // The same after %1 re-materializes a different source.
    s.compute(C2, 4)
        .event(Event::Release(C1))
        .event(Event::Request(C1));
    s.materialize(C1, C2, 4).recompute(C0, 3).consume(C1, C3, 9);
    assert_eq!(agreed_findings(&s.ir), vec![]);
}

#[test]
fn pa0005_recompute_under_a_different_node_is_not_a_recompute() {
    let mut s = Stream::new(3);
    s.compute(C0, 3).compute(C2, 9).event(Event::Request(C1));
    s.materialize(C1, C0, 3);
    // A forwarding-style retarget: %0 now holds node 4.
    s.recompute(C0, 4).consume(C1, C2, 9);
    assert_eq!(agreed_findings(&s.ir), vec![]);
    // The cache stays indexed: node 3 written into %0 again stales it.
    s.recompute(C0, 3);
    let stale_read = s.at();
    s.consume(C1, C2, 9);
    assert_eq!(agreed_findings(&s.ir), vec![(stale_read, C1)]);
}

#[test]
fn pa0005_unknown_source_cell_is_a_diagnostic_not_a_panic() {
    let unknown = CellId(99);
    let mut s = Stream::new(2);
    s.compute(C1, 9).event(Event::Request(C0));
    s.materialize(C0, unknown, 3);
    s.recompute(unknown, 3).consume(C0, C1, 9);
    let diags = analyze_events(&s.ir, &structural());
    assert!(
        diags
            .iter()
            .any(|d| d.lint == Lint::UseBeforeInit && d.cell == Some(unknown)),
        "expected unknown-cell diagnostics, got {diags:?}"
    );
    assert_eq!(agreed_findings(&s.ir), vec![]);
}

/// Decodes one generated step into stream events over `cells` cells and
/// four nodes, so sources, caches and provenances collide often.
fn push_step(s: &mut Stream, cells: u32, (kind, x, y, node): (u8, u32, u32, u32)) {
    let (x, y) = (CellId(x % cells), CellId(y % cells));
    let node = node % 4;
    match kind {
        0..=2 => s.materialize(x, y, node),
        3 | 4 => s.recompute(x, node),
        5 | 6 => s.consume(x, y, node),
        7 => s.event(Event::Request(x)),
        8 => s.event(Event::Release(x)),
        // An identity write, which leaves every cached complement alone.
        9 => s.op(Value::Const(true), Value::Const(true), x, Some(node)),
        // The materialization shape without the reset: an ordinary op.
        10 => s.op(Value::Const(true), Value::Cell(y), x, Some(node)),
        // A reset without provenance, then a bare op without provenance.
        11 => s.op(Value::Const(false), Value::Const(true), x, None),
        _ => s.op(Value::Input(0), Value::Cell(y), x, None),
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The indexed analyzer reports exactly the quadratic reference's
    /// `PA0005` findings, `(event, cell)` pairs included, on streams built
    /// around the reset-then-`⟨1 s̄ z⟩` idiom.
    #[test]
    fn stale_complement_findings_match_the_quadratic_reference(
        cells in 2u32..7,
        steps in collection::vec((0u8..13, any::<u32>(), any::<u32>(), any::<u32>()), 1..120),
    ) {
        let mut s = Stream::new(cells as usize);
        for c in 0..cells {
            s.compute(CellId(c), c % 4);
        }
        for &step in &steps {
            push_step(&mut s, cells, step);
        }
        prop_assert_eq!(stale_findings(&s.ir), reference_stale_complements(&s.ir));
    }
}

/// Generated streams do exercise the rule: across a fixed set of seeds
/// the property above sees plenty of `PA0005` findings.
#[test]
fn generated_streams_exercise_stale_complements() {
    let mut rng = TestRng::new(0x5A1E);
    let mut findings = 0;
    for _ in 0..64 {
        let mut s = Stream::new(4);
        for c in 0..4 {
            s.compute(CellId(c), c);
        }
        for _ in 0..100 {
            let word = rng.next_u64();
            let step = (
                (word % 13) as u8,
                (word >> 8) as u32,
                (word >> 24) as u32,
                (word >> 40) as u32,
            );
            push_step(&mut s, 4, step);
        }
        findings += agreed_findings(&s.ir).len();
    }
    assert!(findings >= 64, "only {findings} PA0005 findings");
}

/// A complement-heavy stream of about `8 * sources * rounds` events: every
/// round re-materializes each source's complement into a fresh cell (all
/// of them stay live), recomputes the source under a foreign node and
/// under its own, and reads a cache.
fn complement_heavy_stream(sources: u32, rounds: u32) -> IrProgram {
    let mut s = Stream::new((sources + sources * rounds + 1) as usize);
    let sink = CellId(sources);
    s.compute(sink, 0);
    for c in 0..sources {
        s.compute(CellId(c), c + 1);
    }
    let mut next = sources + 1;
    for _ in 0..rounds {
        for c in 0..sources {
            let (source, cache) = (CellId(c), CellId(next));
            next += 1;
            s.event(Event::Request(cache))
                .materialize(cache, source, c + 1);
            s.recompute(source, sources + 1).recompute(source, c + 1);
            s.consume(cache, sink, 0);
        }
    }
    s.ir
}

fn time_analysis(ir: &IrProgram) -> Duration {
    let start = Instant::now();
    std::hint::black_box(analyze_events(ir, &structural()));
    start.elapsed()
}

/// The analyzer is linear in the stream: 4× the events (and 4× the live
/// caches) must cost well under the 16× a per-op scan of every cell
/// would. Host noise can only inflate a ratio, so a measurement is retried
/// up to three times; the quadratic scan measured 18× on every try.
#[test]
fn analyzer_time_grows_linearly_with_complement_heavy_streams() {
    let small = complement_heavy_stream(64, 16);
    let large = complement_heavy_stream(64, 64);
    assert_eq!(stale_findings(&large).len(), 64 * 64);
    let mut ratios = Vec::new();
    for _ in 0..3 {
        // Best of 5 each, interleaved so both sizes see the same host load.
        let (mut t_small, mut t_large) = (Duration::MAX, Duration::MAX);
        for _ in 0..5 {
            t_small = t_small.min(time_analysis(&small));
            t_large = t_large.min(time_analysis(&large));
        }
        let ratio = t_large.as_secs_f64() / t_small.as_secs_f64().max(1e-9);
        if ratio <= 8.0 {
            return;
        }
        ratios.push(format!("{ratio:.1}x ({t_small:?} -> {t_large:?})"));
    }
    panic!(
        "4x the events took {}: the analyzer is superlinear",
        ratios.join(", ")
    );
}

/// The stale-complement injection is caught through the full artifact
/// battery, on a suite circuit whose lowering reads a cached complement.
#[test]
fn doctored_stale_complement_fails_the_battery() {
    let mig = suite::build("i2c", Scale::Reduced).expect("known circuit");
    let mut compilation = compile_full(&mig, CompilerOptions::new());
    assert!(analyze_artifact(&compilation, OptLevel::O0).is_empty());
    let cell = plim_analysis::doctor::inject_stale_complement(&mut compilation.ir)
        .expect("i2c reads a cached complement");
    let diags = analyze_artifact(&compilation, OptLevel::O0);
    assert!(
        diags
            .iter()
            .any(|d| d.lint == Lint::StaleComplement && d.cell == Some(cell)),
        "expected PA0005, got {diags:?}"
    );
}

/// The physical-program analysis reports every uninitialized read, each
/// with its own message, where `check_init_discipline` stops at the first.
#[test]
fn pa0001_program_analysis_reports_every_uninitialized_read() {
    use plim::{Instruction, Operand, OutputLoc, Program};
    let mut program = Program::new(1);
    // X2 ← ⟨X1 i1' X2⟩: reads @X1 before any write, and X2's old value.
    program.push(Instruction::new(
        Operand::Ram(RamAddr(0)),
        Operand::Input(0),
        RamAddr(1),
    ));
    program.push(Instruction::reset(RamAddr(0)));
    program.add_output("f", OutputLoc::Ram(RamAddr(1)));
    program.add_output("g", OutputLoc::Ram(RamAddr(2)));
    let compiled = plim_compiler::Rm3Program {
        program,
        stats: plim_compiler::Rm3Stats::default(),
    };
    let found: Vec<(Option<usize>, String)> = plim_analysis::analyze_program(&compiled)
        .into_iter()
        .map(|d| {
            assert_eq!(d.lint, Lint::UseBeforeInit);
            (d.event, d.message)
        })
        .collect();
    assert_eq!(
        found,
        [
            (
                Some(0),
                "pc 1: instruction reads @X1 before any write".to_string()
            ),
            (
                Some(0),
                "pc 1: non-masking write observes uninitialized destination @X2".to_string()
            ),
            (None, "output `g` reads never-written cell @X3".to_string()),
        ]
    );
    assert_eq!(
        plim_compiler::verify::check_init_discipline(&compiled),
        Err(plim_compiler::verify::VerifyError::UninitializedRead { pc: 0 })
    );
}
