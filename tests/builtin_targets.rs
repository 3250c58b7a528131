//! Every target and the e-graph work in a process that calls no setup
//! function: nothing in the compiler is filled in at run time.
//!
//! This binary must stay free of any start-up call, so that a target or a
//! rewrite engine that needs one fails here.

use plim_compiler::{OptLevel, RewriteMode, Target};
use plim_service::pipeline::{emit, execute, parse_network, CompileSpec, InputFormat};

const ADDER: &str = "inputs a b c\n\
                     s = maj(a, b, c)\n\
                     t = maj(!s, a, b)\n\
                     u = maj(t, !c, s)\n\
                     output cout = s\n\
                     output sum = u\n";

#[test]
fn the_targets_are_rm3_ambit_and_magic() {
    let names: Vec<&str> = Target::all().iter().map(|t| t.name()).collect();
    assert_eq!(names, ["rm3", "ambit", "magic"]);
    for name in names {
        assert_eq!(Target::parse(name).unwrap().backend().name(), name);
    }
}

#[test]
fn the_pipeline_serves_every_target_and_the_egraph_at_o2() {
    let input = parse_network(InputFormat::Mig, ADDER).unwrap();
    let o2 = CompileSpec::default().options.opt(OptLevel::O2);
    let cases = [
        ("ambit", RewriteMode::Arena, ".ambit v1\n"),
        ("magic", RewriteMode::Arena, ".magic v1\n"),
        ("rm3", RewriteMode::Egraph, "01: "),
    ];
    for (target, rewrite, header) in cases {
        let spec = CompileSpec {
            options: o2.target(Target::parse(target).unwrap()).rewrite(rewrite),
            ..CompileSpec::default()
        };
        let artifacts = execute(&input, &spec).unwrap_or_else(|e| panic!("{target}: {e}"));
        let listing = emit("listing", &artifacts).unwrap();
        assert!(listing.starts_with(header), "{target}:\n{listing}");
    }
}
