//! The benchmark's self-test: every workload at a tiny size, run twice.

use std::path::PathBuf;
use std::process::Command;

use plim_compiler::json::Value;
use plim_perfbench::inputs::Size;
use plim_perfbench::report::{END_TO_END, PER_LAYER};
use plim_perfbench::{run, Config, RunResult, Workload};

fn scratch(label: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(label)
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> RunResult {
    let config = Config {
        workload,
        seed,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        daemon_exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
        scratch: scratch(&format!("selftest-{}-{seed}-{trace}", workload.name())),
    };
    let result = run(&config).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(
        result.correct(),
        "{}: {:?}",
        workload.name(),
        result.measured.outcomes
    );
    result
}

#[test]
fn repeated_runs_give_identical_quality_and_outputs() {
    for workload in Workload::ALL {
        let first = tiny(workload, 7, false);
        let second = tiny(workload, 7, false);
        let (a, b) = (&first.measured, &second.measured);
        assert_eq!(a.quality, b.quality, "{}", workload.name());
        assert!(a.quality.instructions > 0, "{}", workload.name());
        assert_eq!(a.output_digest, b.output_digest, "{}", workload.name());
        assert_eq!(a.input_digest, b.input_digest, "{}", workload.name());
    }
}

#[test]
fn another_seed_changes_the_generated_inputs() {
    for workload in [
        Workload::CompileO2,
        Workload::EgraphO2,
        Workload::PlimdMixed,
    ] {
        let a = tiny(workload, 7, false).measured.input_digest;
        let b = tiny(workload, 8, false).measured.input_digest;
        assert_ne!(a, b, "{}: seed did not change the inputs", workload.name());
    }
    // Table 1 runs the fixed suite: the seed does not apply.
    let a = tiny(Workload::Table1, 7, false).measured.input_digest;
    let b = tiny(Workload::Table1, 8, false).measured.input_digest;
    assert_eq!(a, b);
}

#[test]
fn traced_runs_agree_with_untraced_ones() {
    for workload in Workload::ALL {
        let plain = tiny(workload, 3, false);
        let traced = tiny(workload, 3, true);
        assert_eq!(
            plain.measured.quality,
            traced.measured.quality,
            "{}",
            workload.name()
        );
        assert!(traced.tracer.is_some_and(|t| !t.spans().is_empty()));
    }
}

/// Runs the binary and returns its result line and the notes before it.
fn invoke(workload: Workload, trace: &str) -> (Value, String) {
    let dir = scratch(&format!("cli-{}-{trace}", workload.name()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "5",
            "--seconds",
            "0",
        ])
        .args(["--trace", trace, "--size", "tiny"])
        .current_dir(&dir)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(output.status.success(), "{}: {stdout}", workload.name());
    let last = stdout.lines().last().expect("a result line");
    (Value::parse(last).expect("the result line is JSON"), stdout)
}

#[test]
fn every_metric_prints_with_its_unit() {
    for workload in Workload::ALL {
        for (trace, expected) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let (result, stdout) = invoke(workload, trace);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert!(result.get("attempted").and_then(Value::as_u64) > Some(0));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            let names: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
            let wanted: Vec<&str> = expected.iter().map(|(name, _)| *name).collect();
            assert_eq!(names, wanted, "{} trace {trace}", workload.name());
            for (name, unit) in expected {
                let metric = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .expect("metric");
                assert_eq!(
                    metric.get("unit").and_then(Value::as_str),
                    Some(*unit),
                    "{name}"
                );
                assert!(
                    metric.get("value").and_then(Value::as_f64).is_some(),
                    "{name}"
                );
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&format!("# {name} = ")) && l.ends_with(unit)),
                    "{name} is not printed with its unit"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nonsense", "--seed", "1"])
        .output()
        .expect("the benchmark runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
