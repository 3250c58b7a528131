//! The traced path is a hand-sequenced replay of the product path; it must
//! produce byte-identical output for every workload circuit, so the
//! per-layer numbers always describe the work the product does.

use plim_compiler::batch::{self, PAPER_EFFORT};
use plim_compiler::{OptLevel, RewriteMode, Target};
use plim_perfbench::inputs::{self, Size};
use plim_perfbench::offline::traced_table1_circuit;
use plim_perfbench::path::{self, LayerCounts};
use plim_perfbench::plimd::Mix;
use plim_perfbench::trace::Tracer;
use plim_service::pipeline::{parse_network, CompileSpec, InputFormat};

fn install() {
    plim_backends::install();
    plim_egraph::install();
}

fn assert_equivalent(name: &str, text: &str, spec: &CompileSpec) {
    let mut tracer = Tracer::new();
    let mut counts = LayerCounts::default();
    let product = path::product(text, spec, "listing").expect("product path");
    let traced =
        path::traced(&mut tracer, 0, text, spec, "listing", &mut counts).expect("traced path");
    assert_eq!(
        traced.text,
        product.text,
        "{name} under {}",
        spec.options.spec()
    );
    assert_eq!(
        traced.artifacts.compilation.compiled.stats, product.artifacts.compilation.compiled.stats,
        "{name}"
    );
    assert!(
        counts.parse_nodes > 0 && counts.lower_events > 0,
        "{name}: counts not collected"
    );
}

#[test]
fn compile_workload_circuits_replay_byte_identically() {
    install();
    for input in inputs::compile_o2(Size::Tiny, 11)
        .iter()
        .chain(&inputs::egraph_o2(Size::Tiny, 11))
    {
        assert_equivalent(&input.name, &input.text, &input.spec);
    }
}

#[test]
fn plimd_mix_jobs_replay_byte_identically() {
    install();
    let mix = Mix::generate(Size::Tiny, 11, 200);
    for &(source, spec) in &mix.jobs {
        assert_equivalent(&format!("source {source}"), &mix.sources[source], &spec);
    }
}

#[test]
fn every_option_variant_replays_byte_identically() {
    install();
    let text = &inputs::table1(Size::Tiny)[0].1;
    for target in ["rm3", "ambit", "magic"] {
        for opt in [OptLevel::O0, OptLevel::O2] {
            for rewrite in [RewriteMode::Arena, RewriteMode::Egraph] {
                let mut spec = CompileSpec::default();
                spec.options = spec
                    .options
                    .target(Target::parse(target).expect("registered"))
                    .opt(opt)
                    .rewrite(rewrite);
                assert_equivalent(target, text, &spec);
            }
        }
    }
}

#[test]
fn table1_replay_matches_the_serial_rows() {
    install();
    let mut tracer = Tracer::new();
    let mut counts = LayerCounts::default();
    for (id, (name, text)) in inputs::table1(Size::Tiny).iter().enumerate() {
        let points =
            traced_table1_circuit(&mut tracer, id as u64, text, &mut counts).expect("replay");
        let mig = parse_network(InputFormat::Mig, text).expect("suite text parses");
        let row = batch::measure(name, &mig, PAPER_EFFORT);
        assert_eq!(points, [row.naive, row.rewritten, row.compiled], "{name}");
    }
    assert!(tracer.total("lint") > std::time::Duration::ZERO);
}
