//! Toolchain integration: the format converters, the architectural cost
//! model and the RRAM-budget search, chained the way `plimc` chains them.

use mig::aiger::{parse_aiger, write_aiger};
use mig::equiv::check_equivalence;
use mig::resynth::rewrite_extended;
use mig::rewrite::rewrite;
use plim::asm::{parse_asm, write_asm};
use plim::controller::{Controller, CostModel};
use plim::Machine;
use plim_benchmarks::random::{random_logic, RandomLogicSpec};
use plim_benchmarks::suite::{build, Scale};
use plim_compiler::report::CostReport;
use plim_compiler::{compile, verify::verify, CompilerOptions};
use plim_service::pipeline::{execute, execute_within, CompileSpec};
use proptest::prelude::*;

#[test]
fn aiger_import_feeds_the_full_pipeline() {
    // A 2:1 mux in AIGER: f = (s ∧ a) ∨ (¬s ∧ b) = ¬(¬(s∧a) ∧ ¬(¬s∧b)).
    let src = "aag 5 3 0 1 3\n2\n4\n6\n11\n8 2 4\n10 3 6\n11 9 11\n";
    // (deliberately malformed last AND: output literal reused) — parse must
    // reject it, then the corrected version must flow through.
    assert!(parse_aiger(src).is_err());
    let src = "aag 6 3 0 1 3\n2\n4\n6\n13\n8 2 4\n10 3 6\n12 9 11\n";
    let mig = parse_aiger(src).expect("well-formed");
    let optimized = rewrite(&mig, 4);
    assert!(check_equivalence(&mig, &optimized, 8, 0).unwrap().holds());
    let compiled = compile(&optimized, CompilerOptions::new());
    verify(&optimized, &compiled, 4, 0).unwrap();
}

#[test]
fn compiled_programs_roundtrip_through_asm() {
    let mig = build("int2float", Scale::Reduced).unwrap();
    let compiled = compile(&mig, CompilerOptions::new());
    let text = write_asm(&compiled.program);
    let parsed = parse_asm(&text).expect("own asm parses");
    let mut m1 = Machine::new();
    let mut m2 = Machine::new();
    let mut rng = mig::simulate::XorShift64::new(77);
    for _ in 0..64 {
        let inputs: Vec<bool> = (0..mig.num_inputs()).map(|_| rng.next_bool()).collect();
        assert_eq!(
            m1.run(&compiled.program, &inputs).unwrap(),
            m2.run(&parsed, &inputs).unwrap()
        );
    }
}

#[test]
fn controller_report_matches_static_analysis() {
    let mig = build("ctrl", Scale::Reduced).unwrap();
    let compiled = compile(&mig, CompilerOptions::new());
    let report = CostReport::analyze(&compiled);
    let mut controller = Controller::new(CostModel::default());
    let inputs = vec![false; mig.num_inputs()];
    let (_, execution) = controller.execute(&compiled.program, &inputs).unwrap();
    assert_eq!(execution.instructions as usize, report.instructions);
    assert!((execution.latency_ns - report.latency_ns).abs() < 1e-9);
    assert!((execution.energy_pj - report.energy_pj).abs() < 1e-9);
}

#[test]
fn constrained_compilation_on_suite_circuits() {
    let spec = CompileSpec::default();
    for name in ["adder", "priority", "router"] {
        let mig = build(name, Scale::Reduced).unwrap();
        let unconstrained = execute(&mig, &spec).unwrap().compilation.compiled;
        let fitted = execute_within(&mig, &spec, unconstrained.stats.rams)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .compilation
            .compiled;
        assert!(fitted.stats.rams <= unconstrained.stats.rams);
        verify(&mig, &fitted, 4, 3).unwrap();
        assert!(execute_within(&mig, &spec, 0).is_err(), "{name}");
    }
}

#[test]
fn extended_rewriting_beats_plain_on_adders() {
    let mig = build("adder", Scale::Reduced).unwrap();
    let plain = rewrite(&mig, 4);
    let extended = rewrite_extended(&mig, 4);
    assert!(check_equivalence(&mig, &extended, 16, 1).unwrap().holds());
    assert!(
        extended.num_majority_nodes() <= plain.num_majority_nodes(),
        "resynthesis must not lose to plain rewriting ({} vs {})",
        extended.num_majority_nodes(),
        plain.num_majority_nodes()
    );
    // The compiled program of the extended graph must still verify.
    let compiled = compile(&extended, CompilerOptions::new());
    verify(&extended, &compiled, 4, 2).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn aiger_roundtrip_on_random_graphs(
        seed: u64,
        inputs in 2usize..8,
        nodes in 5usize..60,
    ) {
        let spec = RandomLogicSpec::new(inputs, 3, nodes, seed);
        let mig = random_logic(&spec);
        let text = write_aiger(&mig);
        let reparsed = parse_aiger(&text).expect("own AIGER parses");
        prop_assert!(check_equivalence(&mig, &reparsed, 8, seed).unwrap().holds());
    }

    #[test]
    fn asm_roundtrip_on_random_compilations(seed: u64, inputs in 2usize..8) {
        let spec = RandomLogicSpec::new(inputs, 2, 40, seed);
        let mig = random_logic(&spec);
        let compiled = compile(&mig, CompilerOptions::new());
        let parsed = parse_asm(&write_asm(&compiled.program)).expect("asm parses");
        prop_assert_eq!(parsed.instructions(), compiled.program.instructions());
        prop_assert_eq!(parsed.outputs(), compiled.program.outputs());
        prop_assert_eq!(parsed.num_inputs(), compiled.program.num_inputs());
    }

    #[test]
    fn extended_rewrite_preserves_random_functions(seed: u64, inputs in 2usize..8) {
        let spec = RandomLogicSpec::new(inputs, 3, 50, seed);
        let mig = random_logic(&spec);
        let extended = rewrite_extended(&mig, 3);
        prop_assert!(check_equivalence(&mig, &extended, 8, seed).unwrap().holds());
        prop_assert!(extended.num_majority_nodes() <= mig.num_majority_nodes());
    }
}
