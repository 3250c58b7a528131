//! The alternative backends against the whole reduced suite, and the one
//! verifier against every target's artifact.
//!
//! The acceptance bar of the backend seam: every suite circuit, both raw
//! and rewritten, compiles through the `ambit` backend at `-O0` and `-O2`,
//! and every circuit within the exhaustive bound is **proven** equal to
//! its source MIG through the artifact's own executor — the `magic` sketch
//! rides the same harness on the rewritten graphs. Seeded mutants pin the
//! verifier's counterexamples on all three targets, and artifacts whose
//! interface differs from the MIG's are refused with an error.

use mig::{Mig, NodeId, Signal};
use plim_benchmarks::random::{random_logic, RandomLogicSpec};
use plim_benchmarks::suite::{self, Scale};
use plim_compiler::backend::{AmbitBackend, MagicBackend, W256};
use plim_compiler::batch::Circuit;
use plim_compiler::ir::{Event, IrProgram};
use plim_compiler::verify::{
    verify, verify_artifact, verify_exhaustive, VerifyError, EXHAUSTIVE_WIDE_LIMIT,
};
use plim_compiler::{
    compile_full, compile_ir, AllocatorStrategy, Artifact, Backend, CompilerOptions, Cost,
    OptLevel, Target,
};
use plim_parallel::Parallelism;

/// Ambit compiles the full suite — raw and rewritten, `-O0` and `-O2` —
/// with an exhaustive equivalence proof on every circuit the 2²⁰-pattern
/// bound admits.
#[test]
fn ambit_compiles_the_whole_suite_with_exhaustive_proofs() {
    let mut proven = 0usize;
    for name in suite::ALL {
        let raw = suite::build(name, Scale::Reduced).expect("suite circuit");
        let rewritten = mig::rewrite::rewrite(&raw, 4);
        for mig in [&raw, &rewritten] {
            for opt in [OptLevel::O0, OptLevel::O2] {
                let compilation = compile_full(mig, CompilerOptions::new().opt(opt));
                let artifact = AmbitBackend.emit(&compilation.ir);
                assert!(
                    artifact.cost().instructions >= compilation.compiled.stats.instructions,
                    "{name}: row ops cannot undercut RM3 ops"
                );
                if mig.num_inputs() <= EXHAUSTIVE_WIDE_LIMIT {
                    verify_exhaustive(mig, artifact.as_ref())
                        .unwrap_or_else(|e| panic!("{name} ({opt:?}): {e}"));
                    proven += 1;
                }
            }
        }
    }
    assert!(
        proven >= 8,
        "the reduced suite must contain provable circuits (got {proven})"
    );
}

/// The MAGIC sketch proves out over the provable rewritten suite.
#[test]
fn magic_proves_out_on_the_provable_suite() {
    for name in suite::ALL {
        let mig = suite::build(name, Scale::Reduced).expect("suite circuit");
        if mig.num_inputs() > EXHAUSTIVE_WIDE_LIMIT {
            continue;
        }
        let optimized = mig::rewrite::rewrite(&mig, 4);
        let compilation = compile_full(&optimized, CompilerOptions::new().opt(OptLevel::O2));
        let artifact = MagicBackend.emit(&compilation.ir);
        verify_exhaustive(&optimized, artifact.as_ref()).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// Targets thread through `CompilerOptions`: the 6-part spec round-trips
/// for the built-in backends and compilation under a non-RM3 target
/// still produces the reference RM3 program (the target chooses the
/// emission, not the middle end's semantics).
#[test]
fn targets_thread_through_compiler_options() {
    let options = CompilerOptions::new()
        .opt(OptLevel::O2)
        .target(Target::parse("ambit").unwrap());
    assert_eq!(options.spec(), "priority+smart+fifo+o2+ambit+arena");
    let parsed = CompilerOptions::parse_spec(&options.spec()).unwrap();
    assert_eq!(parsed.target.name(), "ambit");

    let mig = suite::build("ctrl", Scale::Reduced).expect("suite circuit");
    let compilation = compile_full(&mig, options);
    let artifact = options.target.backend().emit(&compilation.ir);
    assert_eq!(artifact.target(), "ambit");
    verify_exhaustive(&mig, artifact.as_ref()).unwrap();
}

/// The bench driver fills every per-target column from the `-O0`
/// compilation of the rewritten MIG, consistently with costing the
/// backend directly.
#[test]
fn bench_annotation_fills_per_target_columns() {
    let circuits = [
        Circuit::new("ctrl", suite::build("ctrl", Scale::Reduced).unwrap()),
        Circuit::new("router", suite::build("router", Scale::Reduced).unwrap()),
    ];
    let bench = plim_service::bench::run(&circuits, 2, Parallelism::Auto).unwrap();
    assert_eq!(bench.records.len(), circuits.len());
    for (circuit, record) in circuits.iter().zip(&bench.records) {
        let rewritten = mig::rewrite::rewrite(&circuit.mig, 2);
        let ir = compile_full(&rewritten, CompilerOptions::new()).ir;
        let ambit = AmbitBackend.cost(&ir);
        let magic = MagicBackend.cost(&ir);
        assert_eq!(record.ambit_ops, ambit.instructions as u64);
        assert_eq!(record.ambit_cost, ambit.units);
        assert_eq!(record.magic_ops, magic.instructions as u64);
        assert_eq!(record.magic_cost, magic.units);
        assert!(record.ambit_ops > 0 && record.magic_ops > 0);
        assert!(
            record.ambit_cost > record.ambit_ops,
            "activations > row ops"
        );
        assert_eq!(record.magic_cost, record.magic_ops, "1 pulse per op");
    }
}

/// The targets' advertisement: every backend exposes a
/// non-empty instruction set with priced instructions, and parse errors
/// list all of them.
#[test]
fn registry_advertises_instruction_sets_and_names() {
    for target in Target::all() {
        let backend = target.backend();
        assert!(!backend.description().is_empty());
        assert!(!backend.instruction_set().is_empty());
        for info in backend.instruction_set() {
            assert!(info.cost > 0, "{}: free instructions", info.mnemonic);
            assert!(!info.summary.is_empty());
        }
    }
    let err = Target::parse("gpu").unwrap_err();
    for name in ["rm3", "ambit", "magic"] {
        assert!(err.contains(name), "{err}");
    }
}

/// A full adder over inputs `x0..x2`, padded with unused inputs up to
/// `inputs`.
fn full_adder(inputs: usize) -> Mig {
    let mut mig = Mig::new();
    let x = mig.add_inputs("x", inputs);
    let sum = mig.xor3(x[0], x[1], x[2]);
    let carry = mig.maj(x[0], x[1], x[2]);
    mig.add_output("sum", sum);
    mig.add_output("carry", carry);
    mig
}

/// Test-only wrapper that hides the last output of an artifact
/// (`extra == false`) or declares one more constant output (`true`).
struct Reshaped {
    inner: Box<dyn Artifact>,
    extra: bool,
}

impl Artifact for Reshaped {
    fn target(&self) -> &'static str {
        self.inner.target()
    }
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }
    fn cost(&self) -> Cost {
        self.inner.cost()
    }
    fn listing(&self) -> String {
        self.inner.listing()
    }
    fn stats_text(&self) -> String {
        self.inner.stats_text()
    }
    fn num_outputs(&self) -> usize {
        if self.extra {
            self.inner.num_outputs() + 1
        } else {
            self.inner.num_outputs() - 1
        }
    }
    fn run_wide(&self, inputs: &[W256]) -> Result<Vec<W256>, VerifyError> {
        let mut words = self.inner.run_wide(inputs)?;
        if self.extra {
            words.push(W256::default());
        } else {
            words.pop();
        }
        Ok(words)
    }
}

/// An artifact whose output (or input) count differs from the MIG's is a
/// one-line `Interface` error from every entry point: never a panic, and
/// never a pass.
#[test]
fn interface_mismatches_are_errors_on_every_entry_point() {
    for inputs in [3, 15] {
        let mig = full_adder(inputs);
        let compilation = compile_full(&mig, CompilerOptions::new());
        // The RM3 program rebuilt with only its first output.
        let mut dropped = compilation.compiled.clone();
        let mut program = plim::Program::new(inputs);
        for &instruction in dropped.program.instructions() {
            program.push(instruction);
        }
        let (name, loc) = &dropped.program.outputs()[0];
        program.add_output(name, *loc);
        dropped.program = program;
        let missing = VerifyError::Interface {
            inputs: (inputs, inputs),
            outputs: (2, 1),
        };
        assert_eq!(verify(&mig, &dropped, 4, 1), Err(missing.clone()));
        assert_eq!(verify_artifact(&mig, &dropped, 4, 1), Err(missing.clone()));
        assert_eq!(verify_exhaustive(&mig, &dropped), Err(missing.clone()));
        for (extra, outputs) in [(false, 1), (true, 3)] {
            let reshaped = Reshaped {
                inner: AmbitBackend.emit(&compilation.ir),
                extra,
            };
            let expected = Err(VerifyError::Interface {
                inputs: (inputs, inputs),
                outputs: (2, outputs),
            });
            assert_eq!(verify_artifact(&mig, &reshaped, 4, 1), expected);
            assert_eq!(verify_exhaustive(&mig, &reshaped), expected);
        }
        // One input too many: the adder compiled with another unused input.
        let wider = compile_full(&full_adder(inputs + 1), CompilerOptions::new());
        let err = verify(&mig, &wider.compiled, 4, 1).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "the MIG has {inputs} inputs and 2 outputs but the artifact has {} and 2",
                inputs + 1
            )
        );
    }
}

/// A seeded random network plus one guarded output
/// `g = x[n-1] ∧ … ∧ x[n-guards] ∧ x0`, so that a mutant of `g` differs
/// only on patterns late in the exhaustive order, or rarely when sampled.
fn mutant_base(inputs: usize, guards: usize, seed: u64) -> Mig {
    let mut mig = random_logic(&RandomLogicSpec::new(inputs, 3, 3 * inputs, seed));
    let x: Vec<Signal> = mig
        .inputs()
        .iter()
        .map(|&id| Signal::new(id, false))
        .collect();
    let mut g = x[inputs - 1];
    for k in 2..=guards {
        g = mig.and(g, x[inputs - k]);
    }
    g = mig.and(g, x[0]);
    mig.add_output("g", g);
    mig
}

/// Rebuilds `mig` with child `slot` of majority node `target` replaced by
/// input `with`.
fn swap_edge(mig: &Mig, target: NodeId, slot: usize, with: usize) -> Mig {
    let mut out = Mig::new();
    let mut map = vec![Signal::FALSE; mig.len()];
    for (index, &id) in mig.inputs().iter().enumerate() {
        map[id.index()] = out.add_input(mig.input_name(index));
    }
    let get = |map: &[Signal], s: Signal| map[s.node().index()].complement_if(s.is_complemented());
    for id in mig.majority_ids() {
        let mut children = *mig.node(id).children().expect("majority node");
        if id == target {
            children[slot] = Signal::new(mig.inputs()[with], false);
        }
        let [a, b, c] = children.map(|s| get(&map, s));
        map[id.index()] = out.maj(a, b, c);
    }
    for (name, signal) in mig.outputs() {
        out.add_output(name.clone(), get(&map, *signal));
    }
    out
}

/// The three mutants of `base`: output 1's complement flipped, the first
/// edge of the middle random-logic node swapped to input 1, and `g`'s `x0`
/// leaf swapped to `x1`.
fn mutants(base: &Mig) -> [(&'static str, Mig); 3] {
    let mut flipped = base.clone();
    flipped.set_output(1, !base.outputs()[1].1);
    let ids: Vec<NodeId> = base.majority_ids().collect();
    let g = base.outputs().last().expect("g").1.node();
    let children = base.node(g).children().expect("majority node");
    let slot = children
        .iter()
        .position(|s| s.node() == base.inputs()[0])
        .expect("g reads x0");
    [
        ("flip", flipped),
        ("edge", swap_edge(base, ids[ids.len() / 2], 0, 1)),
        ("guard", swap_edge(base, g, slot, 1)),
    ]
}

/// Verifies the rm3, ambit and magic artifacts compiled from `mutant`
/// against `original`, returning the one verdict they must share: `ok`, or
/// the counterexample's output name and input pattern.
fn mutant_verdict(
    original: &Mig,
    mutant: &Mig,
    check: impl Fn(&dyn Artifact) -> Result<(), VerifyError>,
) -> String {
    let compilation = compile_full(mutant, CompilerOptions::new());
    let (ambit, magic) = (
        AmbitBackend.emit(&compilation.ir),
        MagicBackend.emit(&compilation.ir),
    );
    let verdicts = [&compilation.compiled as &dyn Artifact, &*ambit, &*magic].map(|artifact| {
        match check(artifact) {
            Ok(()) => "ok".to_string(),
            Err(VerifyError::Mismatch { output, inputs }) => {
                let pattern: String = inputs.iter().map(|&b| if b { '1' } else { '0' }).collect();
                format!("{output} {pattern}")
            }
            Err(e) => e.to_string(),
        }
    });
    assert!(
        verdicts.iter().all(|v| *v == verdicts[0]),
        "targets disagree on a mutant of {original:?}: {verdicts:?}"
    );
    verdicts[0].clone()
}

/// Exhaustive counterexamples (output and pattern) of seeded mutants, on
/// every target, across the 64- and 256-lane block edges. The expected
/// values were recorded before the verifier became one artifact-generic
/// checker.
#[test]
fn exhaustive_mutant_counterexamples_do_not_move() {
    let expected = [
        (4, ["y1 0000", "y2 0101", "g 1011"]),
        (6, ["y1 000000", "y0 010001", "g 100011"]),
        (7, ["y1 0000000", "y0 0101000", "g 1000011"]),
        (10, ["y1 0000000000", "y2 0100000010", "g 1000000011"]),
        (
            20,
            [
                "y1 00000000000000000000",
                "y1 01001000000000000000",
                "g 10000000000000000011",
            ],
        ),
    ];
    for (n, want) in expected {
        let base = mutant_base(n, 2, n as u64);
        for ((kind, mutant), want) in mutants(&base).into_iter().zip(want) {
            let got = mutant_verdict(&base, &mutant, |a| verify_exhaustive(&base, a));
            assert_eq!(got, want, "{kind} mutant at {n} inputs");
        }
    }
}

/// Sampled counterexamples of seeded mutants (16 inputs, past the
/// exhaustive limit), on every target: the first failing round is round
/// 0, 2, 3 (the last block of the first 256-lane run) and 4 (the first of
/// the second run), and a seed whose one round misses the `guard` mutant
/// passes. The expected values were recorded before the verifier became
/// one artifact-generic checker.
#[test]
fn sampled_mutant_counterexamples_do_not_move() {
    let expected = [
        ("flip", 1, 1, "y1 1111011101000111"),
        ("flip", 1, 7, "y1 0000101000011001"),
        ("edge", 1, 1, "y0 1111000101110100"),
        ("edge", 1, 7, "y0 1111010010000101"),
        ("guard", 1, 1, "g 1000011100111111"),
        ("guard", 3, 2, "g 1010101100111111"),
        ("guard", 4, 14, "g 1011101011111111"),
        ("guard", 5, 7, "g 1001111011111111"),
        ("guard", 1, 7, "ok"),
    ];
    let base = mutant_base(16, 6, 16);
    for (kind, mutant) in mutants(&base) {
        for &(_, rounds, seed, want) in expected.iter().filter(|case| case.0 == kind) {
            let got = mutant_verdict(&base, &mutant, |a| verify_artifact(&base, a, rounds, seed));
            assert_eq!(got, want, "{kind} mutant, {rounds} rounds, seed {seed}");
        }
    }
}

/// The destination row of each op of `ir`, in stream order, read off an
/// Ambit or MAGIC listing: a masking op is one line, any other `per_op`
/// lines, and the last token of an op's last line is its destination.
fn destination_rows(listing: &str, ir: &IrProgram, per_op: usize) -> Vec<u32> {
    let mut lines = listing
        .lines()
        .filter(|line| line.starts_with(|c: char| c.is_ascii_digit()));
    let mut rows = Vec::new();
    for event in &ir.events {
        let Event::Op(i) = *event else { continue };
        let count = if ir.ops[i as usize].masking() {
            1
        } else {
            per_op
        };
        let last = lines.nth(count - 1).expect("a line per op");
        let row = last.rsplit(' ').next().and_then(|r| r.strip_prefix('r'));
        rows.push(row.and_then(|r| r.parse().ok()).expect("a row operand"));
    }
    assert_eq!(lines.next(), None, "lines past the last op");
    rows
}

/// Every target places cells with the one allocator replay, counting its
/// own writes. Ambit writes each destination once, as RM3 does, so its
/// destination rows are the RM3 program's under every allocator, `wear`
/// included. MAGIC writes a non-masking op's destination twice, so only
/// the allocators that do not read the counters place it as RM3 does;
/// under `wear` its `maxw` is its own writes' maximum.
#[test]
fn alternative_targets_place_destinations_as_the_rm3_replay_does() {
    for name in ["voter", "dec", "int2float"] {
        let mig = suite::build(name, Scale::Reduced).expect("suite circuit");
        for alloc in AllocatorStrategy::ALL {
            for opt in [OptLevel::O0, OptLevel::O2] {
                let ir = compile_full(&mig, CompilerOptions::new().allocator(alloc).opt(opt)).ir;
                let rm3: Vec<u32> = plim_compiler::ir::emit(&ir)
                    .program
                    .instructions()
                    .iter()
                    .map(|instruction| instruction.z.0)
                    .collect();
                let case = format!("{name} {alloc:?} {opt:?}");
                let ambit = AmbitBackend.emit(&ir).listing();
                assert_eq!(destination_rows(&ambit, &ir, 5), rm3, "ambit, {case}");
                let magic = MagicBackend.emit(&ir);
                let listing = magic.listing();
                if alloc == AllocatorStrategy::WearLeveled {
                    let mut writes = std::collections::HashMap::<&str, u64>::new();
                    for line in listing
                        .lines()
                        .filter(|l| l.starts_with(|c: char| c.is_ascii_digit()))
                    {
                        *writes.entry(line.rsplit(' ').next().unwrap()).or_default() += 1;
                    }
                    let maxw = writes.values().copied().max().unwrap_or(0);
                    assert_eq!(magic.cost().wear, maxw, "magic, {case}");
                } else {
                    assert_eq!(destination_rows(&listing, &ir, 14), rm3, "magic, {case}");
                }
            }
        }
    }
}

/// Scoring an `-O2` trial costs every target about what it costs RM3: on
/// reduced mem_ctrl, Ambit and MAGIC replay at most twice RM3's mean
/// events per trial (about 1,009 against 948; 1,180 against 1,156 with
/// the checkpointed scorer `fifo` used before). A scorer that replays the
/// whole stream per trial replays about 9,000, over 9× RM3's.
#[test]
fn o2_trials_replay_about_as_many_events_on_every_target() {
    let mig = suite::build("mem_ctrl", Scale::Reduced).expect("suite circuit");
    let mean = |target: &str| {
        let options = CompilerOptions::new()
            .opt(OptLevel::O2)
            .target(Target::parse(target).unwrap());
        let scoring = compile_ir(&mig, options).1.scoring();
        assert!(scoring.trials > 0, "{target}: no trials");
        scoring.replayed as f64 / scoring.trials as f64
    };
    let rm3 = mean("rm3");
    for target in ["ambit", "magic"] {
        let events = mean(target);
        assert!(
            events <= 2.0 * rm3,
            "{target} replays {events:.0} events per trial, rm3 {rm3:.0}"
        );
    }
}
