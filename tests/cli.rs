//! Command-line driver regressions: format sniffing, diagnostics, and the
//! exit-code/stderr conventions that only manifest through the `plimc`
//! binary itself. Every user error must exit 1 with a one-line `plimc: …`
//! message on stderr — never a panic.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

use plim_service::benchfile::{self, BenchRecord};

fn plimc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_plimc"))
}

/// Runs `plimc` with the given arguments and asserts the user-error
/// convention: exit code 1 and exactly one stderr line containing
/// `expected`. Returns the stderr line for further checks.
fn assert_user_error(args: &[&str], expected: &str) -> String {
    let output = plimc().args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    assert_eq!(output.status.code(), Some(1), "args {args:?}: {stderr}");
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "expected a one-line diagnostic for {args:?}: {stderr}"
    );
    assert!(
        stderr.starts_with("plimc: ") && stderr.contains(expected),
        "args {args:?}: unexpected diagnostic: {stderr}"
    );
    stderr
}

/// A tiny valid MIG document (f = a AND b) for end-to-end CLI runs.
const AND_MIG: &[u8] = b"inputs a b\nn = maj(0, a, b)\noutput f = n\n";

fn run_with_stdin(args: &[&str], stdin: &[u8]) -> Output {
    let mut child = plimc()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(stdin).unwrap();
    child.wait_with_output().unwrap()
}

/// A tiny binary AIGER document: the `aig` header followed by the
/// delta-encoded AND section (not valid UTF-8 in general; here the single
/// AND `6 4 2` — f = a AND b — encodes as the two delta bytes 2, 2).
fn binary_aiger_bytes() -> Vec<u8> {
    let mut bytes = b"aig 3 2 0 1 1\n6\n".to_vec();
    bytes.extend_from_slice(&[2u8, 2u8]);
    bytes
}

#[test]
fn binary_aiger_file_compiles_natively() {
    // Process-unique name: concurrent test runs must not race on the file.
    let dir = std::env::temp_dir();
    let path = dir.join(format!("plimc_cli_test_binary_{}.aig", std::process::id()));
    std::fs::write(&path, binary_aiger_bytes()).unwrap();

    // Formerly this rejected the file with an `aigtoaig` conversion hint;
    // the sniff now dispatches into the native binary decoder, so the file
    // compiles and verifies like any other input.
    let output = plimc()
        .args([path.to_str().unwrap(), "--emit", "stats"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("instructions"), "stats missing: {stdout}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn binary_aiger_on_stdin_compiles_too() {
    // Sniffing must run on stdin too, and win over the --format dispatch.
    let output = run_with_stdin(
        &["--format", "aag", "--emit", "stats", "-"],
        &binary_aiger_bytes(),
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("instructions"), "stats missing: {stdout}");
}

#[test]
fn corrupt_binary_aiger_gets_a_one_line_diagnostic() {
    // Truncate the AND section: the decoder must diagnose it as a binary
    // AIGER problem, not fall through to the MIG text parser or panic.
    let mut bytes = binary_aiger_bytes();
    bytes.truncate(bytes.len() - 2);
    let output = run_with_stdin(&["-"], &bytes);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{stderr}");
    assert!(
        stderr.starts_with("plimc: ") && stderr.contains("binary AIGER"),
        "unexpected diagnostic: {stderr}"
    );
    assert!(stderr.contains("AND section"), "{stderr}");
}

#[test]
fn explicit_non_aiger_format_overrides_the_sniff() {
    // A MIG text document whose first line happens to start with `aig `
    // must still parse when the user explicitly forces --format mig.
    let mut child = plimc()
        .args(["--format", "mig", "--no-verify", "--emit", "mig", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"aig = maj(0, 1, 0)\noutput f = aig\n")
        .unwrap();
    let output = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "stderr: {stderr}");
    assert!(
        !stderr.contains("binary AIGER"),
        "sniff ran anyway: {stderr}"
    );
}

#[test]
fn ascii_aiger_still_compiles_end_to_end() {
    // f = a AND NOT b, through the whole pipeline (rewrite + verify).
    let mut child = plimc()
        .args(["--format", "aag", "--emit", "stats", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"aag 3 2 0 1 1\n2\n4\n6\n6 2 5\ni0 a\ni1 b\no0 f\n")
        .unwrap();
    let output = child.wait_with_output().unwrap();
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("instructions"), "stats missing: {stdout}");
}

#[test]
fn every_rewrite_engine_compiles_and_verifies_end_to_end() {
    // All three engines must produce a verifying artifact for the same
    // input; `egraph` runs the e-graph through the service pipeline.
    for engine in ["arena", "rebuild", "egraph"] {
        let output = run_with_stdin(
            &[
                "--rewrite",
                engine,
                "--effort",
                "2",
                "-O2",
                "--emit",
                "stats",
                "-",
            ],
            AND_MIG,
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{engine}: {stderr}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("instructions"), "{engine}: {stdout}");
    }
}

#[test]
fn user_errors_exit_one_with_a_one_line_diagnostic() {
    assert_user_error(&["--effort", "four", "-"], "--effort needs a number");
    // A format typo is diagnosed as such even for unreadable/binary
    // inputs (the name is validated before the file is touched).
    assert_user_error(&["--format", "agg", "x.aig"], "unknown format `agg`");
    assert_user_error(&["--effort"], "--effort requires a value");
    assert_user_error(&["--alloc", "zigzag", "-"], "unknown allocator `zigzag`");
    assert_user_error(&["--schedule", "random", "-"], "unknown schedule `random`");
    assert_user_error(&["-O7", "-"], "unknown opt level `o7`");
    assert_user_error(&["-Ofast", "-"], "unknown opt level `ofast`");
    for args in [
        &["-O1", "-"][..],
        &["verify", "-O1", "-"],
        &["lint", "-O1", "-"],
    ] {
        assert_user_error(args, "unknown opt level `o1` (expected o0|o2)");
    }
    // The --schedule/--alloc convention: the target diagnostic lists every
    // backend name.
    let stderr = assert_user_error(&["--target", "gpu", "-"], "unknown target `gpu`");
    for name in ["rm3", "ambit", "magic"] {
        assert!(stderr.contains(name), "valid names missing: {stderr}");
    }
    assert_user_error(
        &["--rewrite", "zigzag", "-"],
        "unknown rewrite mode `zigzag`",
    );
    assert_user_error(&["--frobnicate", "-"], "unknown option `--frobnicate`");
    assert_user_error(&["a.mig", "b.mig"], "multiple input files");
    assert_user_error(&[], "no input file");
    assert_user_error(
        &["/nonexistent/plimc-test-input.mig"],
        "reading /nonexistent/plimc-test-input.mig",
    );
    assert_user_error(
        &["--limit", "4", "--alloc", "lifo", "a.mig"],
        "--limit explores schedules/allocators itself",
    );
    assert_user_error(&["bench", "--frobnicate"], "unknown bench option");
    assert_user_error(&["bench-diff", "only-one.json"], "exactly two files");
    assert_user_error(
        &["bench-diff", "/nonexistent/a.json", "/nonexistent/b.json"],
        "reading /nonexistent/a.json",
    );
}

/// `--emit mig` refuses a name the MIG text cannot carry. AIGER inputs
/// named `my input` and `0` would print as `inputs my input 0` with the
/// constant where the input `0` was, text that reads back as another
/// circuit or not at all; every other kind still prints.
#[test]
fn emit_mig_refuses_names_the_text_cannot_carry() {
    let aag = b"aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 my input\ni1 0\no0 f\n";
    let output = run_with_stdin(&["--format", "aag", "--emit", "mig", "-"], aag);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(output.stdout.is_empty());
    assert_eq!(
        stderr,
        "plimc: --emit mig cannot print the name `my input`: the text would not read back as \
         the same circuit\n"
    );
    let output = run_with_stdin(&["--format", "aag", "--emit", "stats", "-"], aag);
    assert!(output.status.success());

    // A plain name still prints, and the text reads back.
    let plain = b"aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 a\ni1 b\no0 f\n";
    let output = run_with_stdin(&["--format", "aag", "--emit", "mig", "-"], plain);
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("inputs a b\n"), "{text}");
    let output = run_with_stdin(&["--emit", "stats", "-"], text.as_bytes());
    assert!(output.status.success());
}

/// A kind the target cannot print is refused before the input is read:
/// on an input file that does not exist, the `--emit` diagnostic wins.
#[test]
fn bad_emit_kinds_exit_one_before_compiling() {
    let missing = "/nonexistent/plimc-test-input.mig";
    for (args, expected) in [
        (&["--emit", "png", missing][..], "unknown --emit `png`"),
        (
            &["--target", "ambit", "--emit", "asm", missing],
            "--emit asm renders RM3 assembly; target `ambit` prints its native form via \
             --emit listing",
        ),
    ] {
        let output = plimc().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
        assert_eq!(stderr, format!("plimc: {expected}\n"));
    }
}

/// `--extended` runs its own rewriting, so every subcommand that compiles
/// refuses another engine beside it instead of dropping that engine.
#[test]
fn extended_with_another_rewrite_engine_exits_one() {
    for args in [
        &["--extended", "--rewrite", "egraph", "-"][..],
        &["verify", "--extended", "--rewrite", "rebuild", "-"],
        &["request", "--extended", "--rewrite", "egraph", "-"],
    ] {
        let mode = args[args.len() - 2];
        assert_user_error(
            args,
            &format!(
                "--extended rewrites by majority resynthesis; it does not run --rewrite {mode}"
            ),
        );
    }
    let output = run_with_stdin(&["--extended", "--rewrite", "arena", "-"], AND_MIG);
    assert!(output.status.success());
}

/// `--effort 0` only cleans the graph, so every subcommand that compiles
/// refuses `--extended` or an engine but arena beside it instead of
/// compiling (and, over the service, caching) one identical artifact per
/// engine.
#[test]
fn effort_zero_with_a_rewrite_choice_exits_one() {
    for (args, dropped) in [
        (
            &["--effort", "0", "--rewrite", "rebuild", "-"][..],
            "--rewrite rebuild",
        ),
        (
            &["verify", "--effort", "0", "--extended", "-"],
            "--extended",
        ),
        (
            &["lint", "--effort", "0", "--rewrite", "egraph", "-"],
            "--rewrite egraph",
        ),
        (
            &["request", "--effort", "0", "--rewrite", "egraph", "-"],
            "--rewrite egraph",
        ),
    ] {
        assert_user_error(
            args,
            &format!("--effort 0 skips rewriting; it does not run {dropped}"),
        );
    }
    let output = run_with_stdin(&["--effort", "0", "--rewrite", "arena", "-"], AND_MIG);
    assert!(output.status.success());
}

/// Each subcommand that compiles refuses the compile flags it would
/// ignore, in one line and before it reads the input (the file is
/// missing, so reading it would fail differently).
#[test]
fn subcommands_refuse_the_compile_flags_they_do_not_honour() {
    let missing = "/nonexistent/plimc-test-input.mig";
    let limit = ["--limit", "3"];
    let emit = ["--emit", "stats"];
    let no_verify = ["--no-verify"];
    let alloc = ["--alloc", "wear"];
    for (sub, refused) in [
        ("verify", &[&limit[..], &emit, &no_verify][..]),
        ("lint", &[&limit, &emit, &no_verify]),
        ("scenario", &[&limit, &alloc, &emit, &no_verify]),
        ("request", &[&limit]),
    ] {
        for flag in refused {
            let args = [&[sub][..], flag, &[missing]].concat();
            let output = plimc().args(&args).output().unwrap();
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
            assert_eq!(
                stderr,
                format!("plimc: {} is not supported by {sub}\n", flag[0]),
                "{args:?}"
            );
        }
    }
}

/// `--help` and `-h` print the usage and exit 0 on every subcommand and
/// on `plimd`, wherever they appear among the arguments.
#[test]
fn every_subcommand_answers_help_with_the_usage() {
    for sub in [
        &[][..],
        &["verify"],
        &["lint"],
        &["scenario"],
        &["serve"],
        &["request"],
        &["loadtest"],
        &["targets"],
        &["dump"],
        &["bench"],
        &["bench-diff"],
        &["request", "--stats"],
        &["bench", "--reduced"],
    ] {
        for help in ["--help", "-h"] {
            let output = plimc().args(sub).arg(help).output().unwrap();
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(0), "{sub:?} {help}: {stderr}");
            assert!(stderr.starts_with("usage: "), "{sub:?} {help}: {stderr}");
            assert!(output.stdout.is_empty(), "{sub:?} {help}");
        }
    }
    let output = Command::new(env!("CARGO_BIN_EXE_plimd"))
        .arg("--help")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "plimd --help: {stderr}");
    assert!(stderr.starts_with("usage: plimd"), "{stderr}");
}

#[test]
fn opt_levels_compile_end_to_end_and_o0_is_the_default() {
    let baseline = run_with_stdin(&["--emit", "listing", "-"], AND_MIG);
    assert!(baseline.status.success());
    for level in ["-O0", "-O2"] {
        let output = run_with_stdin(&[level, "--emit", "listing", "-"], AND_MIG);
        assert!(
            output.status.success(),
            "{level}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        if level == "-O0" {
            assert_eq!(
                output.stdout, baseline.stdout,
                "-O0 must be the default level"
            );
        }
    }
}

/// `plimc --emit ir` prints the post-optimization IR in its stable text
/// form; golden files over four suite circuits pin the format and the
/// `-O2` edits (`voter` and `i2c` are where `forward` removes the most).
#[test]
fn emit_ir_matches_the_golden_dumps() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    for circuit in ["dec", "router", "voter", "i2c"] {
        let dump = plimc()
            .args(["dump", circuit, "--reduced"])
            .output()
            .unwrap();
        assert!(dump.status.success());
        let output = run_with_stdin(&["-O2", "--emit", "ir", "-"], &dump.stdout);
        assert!(
            output.status.success(),
            "{circuit}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let expected =
            std::fs::read_to_string(format!("{golden}/{circuit}.O2.ir")).expect("golden dump");
        assert_eq!(
            String::from_utf8_lossy(&output.stdout),
            expected,
            "{circuit}: --emit ir diverged from the golden dump"
        );
    }
}

/// `plimc --rewrite egraph -O2` on the two reduced circuits where the
/// e-graph beats the arena engine (`sqrt` 441→402, `cavlc` 64→57): the
/// extracted graph (`--emit mig`) and the program (`--emit listing`) are
/// pinned byte for byte, so a faster saturation, extraction or scoring
/// cannot change which candidate wins or what it compiles to.
#[test]
fn egraph_emits_match_the_golden_files() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    for circuit in ["sqrt", "cavlc"] {
        let dump = plimc()
            .args(["dump", circuit, "--reduced"])
            .output()
            .unwrap();
        assert!(dump.status.success());
        for kind in ["mig", "listing"] {
            let output = run_with_stdin(
                &["--rewrite", "egraph", "-O2", "--emit", kind, "-"],
                &dump.stdout,
            );
            assert!(
                output.status.success(),
                "{circuit}: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            let expected = std::fs::read_to_string(format!("{golden}/{circuit}.egraph.O2.{kind}"))
                .expect("golden file");
            assert_eq!(
                String::from_utf8_lossy(&output.stdout),
                expected,
                "{circuit}: --rewrite egraph --emit {kind} diverged from the golden file"
            );
        }
    }
}

/// `plimc --target ambit|magic -O2 --emit listing` on two reduced circuits
/// is pinned byte for byte, so the backends' listing writers cannot move a
/// byte of the Ambit or MAGIC text.
#[test]
fn backend_listings_match_the_golden_files() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    for circuit in ["dec", "int2float"] {
        let dump = plimc()
            .args(["dump", circuit, "--reduced"])
            .output()
            .unwrap();
        assert!(dump.status.success());
        for target in ["ambit", "magic"] {
            let output = run_with_stdin(
                &["--target", target, "-O2", "--emit", "listing", "-"],
                &dump.stdout,
            );
            assert!(
                output.status.success(),
                "{circuit}: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            let expected =
                std::fs::read_to_string(format!("{golden}/{circuit}.{target}.O2.listing"))
                    .expect("golden file");
            assert_eq!(
                String::from_utf8_lossy(&output.stdout),
                expected,
                "{circuit}: --target {target} --emit listing diverged from the golden file"
            );
        }
    }
}

/// The hash-consing tables (strash, e-graph memo) draw a fresh random key
/// in every process, so their iteration order differs from run to run.
/// Two separate `plimc` processes must still print the golden listing
/// byte for byte: no output may depend on table order.
#[test]
fn egraph_listing_is_identical_across_processes() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    for circuit in ["cavlc", "sqrt"] {
        let dump = plimc()
            .args(["dump", circuit, "--reduced"])
            .output()
            .unwrap();
        assert!(dump.status.success());
        let expected = std::fs::read_to_string(format!("{golden}/{circuit}.egraph.O2.listing"))
            .expect("golden file");
        for run in 0..2 {
            let output = run_with_stdin(
                &["--rewrite", "egraph", "-O2", "--emit", "listing", "-"],
                &dump.stdout,
            );
            assert!(
                output.status.success(),
                "{circuit}: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            assert_eq!(
                String::from_utf8_lossy(&output.stdout),
                expected,
                "{circuit}: process {run} diverged from the golden listing"
            );
        }
    }
}

#[test]
fn new_schedule_and_allocator_options_compile_end_to_end() {
    for args in [
        ["--schedule", "lookahead", "--emit", "stats"],
        ["--alloc", "wear", "--emit", "stats"],
        ["--alloc", "binned", "--emit", "stats"],
    ] {
        let mut full = args.to_vec();
        full.push("-");
        let output = run_with_stdin(&full, AND_MIG);
        assert!(
            output.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("instructions"), "{args:?}: {stdout}");
    }
}

/// A reduced-suite circuit as MIG text.
fn reduced(circuit: &str) -> Vec<u8> {
    let dump = plimc()
        .args(["dump", circuit, "--reduced"])
        .output()
        .unwrap();
    assert!(dump.status.success(), "dump {circuit}");
    dump.stdout
}

/// Runs a compile that must succeed and returns its stdout.
fn compiled(args: &[&str], mig: &[u8]) -> String {
    let output = run_with_stdin(args, mig);
    assert!(
        output.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).unwrap()
}

/// The target's footprint in `--emit stats`: RM3's work RRAMs, Ambit's
/// rows, MAGIC's cells.
fn footprint(stats: &str) -> u32 {
    stats
        .lines()
        .find_map(|line| line.strip_prefix("work RRAMs: "))
        .or_else(|| {
            stats.split_whitespace().find_map(|field| {
                field
                    .strip_prefix("rows=")
                    .or_else(|| field.strip_prefix("cells="))
            })
        })
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no footprint in {stats}"))
}

/// Runs a compile that must fail with a one-line `plimc: …` diagnostic
/// and returns that line.
fn rejected(args: &[&str], mig: &[u8]) -> String {
    let output = run_with_stdin(args, mig);
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.starts_with("plimc: "), "{args:?}: {stderr}");
    stderr.trim_end().to_string()
}

/// `--limit` bounds the `--target` artifact's own footprint: Ambit rows
/// and MAGIC cells, not the RM3 program's work RRAMs. On reduced voter
/// the plain `-O2` compile needs 41 rows and 44 cells; index scheduling
/// fits 37 and 40.
#[test]
fn limit_bounds_the_targets_own_footprint() {
    let voter = reduced("voter");
    for (target, limit, fitted) in [("ambit", "38", 37), ("magic", "40", 40)] {
        let args = ["--target", target, "-O2", "--limit", limit];
        let stats = compiled(&[&args[..], &["--emit", "stats", "-"]].concat(), &voter);
        assert_eq!(footprint(&stats), fitted, "{target}: {stats}");
    }
    for (target, limit, best) in [("ambit", "36", 37), ("magic", "39", 40)] {
        let line = rejected(&["--target", target, "-O2", "--limit", limit, "-"], &voter);
        assert_eq!(
            line,
            format!("plimc: no schedule fits {limit} {target} cells; best found uses {best}")
        );
    }
    assert_eq!(
        rejected(&["-O2", "--limit", "33", "-"], &voter),
        "plimc: no schedule fits 33 work RRAMs; best found uses 34"
    );
}

/// `--limit` keeps every other compile option: a `--naive` compile that
/// fits prints the `--naive` listing.
#[test]
fn limit_keeps_the_naive_schedule() {
    let voter = reduced("voter");
    assert_eq!(
        compiled(&["--naive", "--limit", "100", "-"], &voter),
        compiled(&["--naive", "-"], &voter)
    );
}

/// A budget equal to the plain compile's own footprint changes nothing, on
/// every target and level; a budget of zero fits nothing.
#[test]
fn limit_at_the_plain_footprint_prints_the_plain_listing() {
    for circuit in ["ctrl", "dec", "int2float", "voter"] {
        let mig = reduced(circuit);
        for target in ["rm3", "ambit", "magic"] {
            for level in ["-O0", "-O2"] {
                let plain = ["--target", target, level];
                let stats = compiled(&[&plain[..], &["--emit", "stats", "-"]].concat(), &mig);
                let limit = footprint(&stats).to_string();
                assert_eq!(
                    compiled(&[&plain[..], &["--limit", &limit, "-"]].concat(), &mig),
                    compiled(&[&plain[..], &["-"]].concat(), &mig),
                    "{circuit} {target} {level} --limit {limit}"
                );
                rejected(&[&plain[..], &["--limit", "0", "-"]].concat(), &mig);
            }
        }
    }
}

/// `plimc scenario` models the RM3 machine and sweeps every allocator, so
/// a `--target` other than rm3 and any `--alloc` are errors, not no-ops.
#[test]
fn scenario_rejects_the_flags_it_would_ignore() {
    assert_user_error(
        &["scenario", "--target", "ambit", "x.mig"],
        "--target ambit is not supported by scenario",
    );
    assert_user_error(
        &["scenario", "--alloc", "wear", "x.mig"],
        "--alloc is not supported by scenario",
    );
    let output = run_with_stdin(&["scenario", "--target", "rm3", "-"], AND_MIG);
    assert!(output.status.success());
}

/// A BENCH.json document with one record, parameterized on `#I` (the
/// optimized columns track it so the opt-monotonicity rule stays green).
fn bench_json(instructions: u64) -> String {
    format!(
        "[{{\"circuit\": \"adder\", \"instructions\": {instructions}, \"rams\": 11, \
         \"max_writes\": 22, \"lookahead_rams\": 11, \"wear_max_writes\": 22, \
         \"o2_instructions\": {instructions}, \"o2_rams\": 11, \"o2_max_writes\": 22, \
         \"o2_trials\": 0, \"o2_replayed\": 0, \
         \"ambit_ops\": 490, \"ambit_cost\": 1078, \"magic_ops\": 686, \"magic_cost\": 686, \
         \"egraph_instructions\": {instructions}, \"egraph_rams\": 11, \
         \"rewrite_ms\": 1.0, \"compile_ms\": 2.0, \"verified_exhaustive\": true, \
         \"fault_error_rate\": 0.0649, \"lifetime_invocations\": 45454, \
         \"lint_clean\": true}}]\n"
    )
}

#[test]
fn bench_diff_gates_on_injected_instruction_regression() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let baseline = dir.join(format!("plimc_cli_baseline_{pid}.json"));
    let same = dir.join(format!("plimc_cli_same_{pid}.json"));
    let regressed = dir.join(format!("plimc_cli_regressed_{pid}.json"));
    std::fs::write(&baseline, bench_json(98)).unwrap();
    std::fs::write(&same, bench_json(98)).unwrap();
    std::fs::write(&regressed, bench_json(99)).unwrap();

    // Identical metrics: the gate is green and exits 0.
    let ok = plimc()
        .args([
            "bench-diff",
            baseline.to_str().unwrap(),
            same.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        ok.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    assert!(String::from_utf8_lossy(&ok.stdout).contains("bench gate: OK"));

    // One extra instruction: the gate fails with exit 1 and names the
    // regression on stdout plus a one-line summary on stderr.
    let bad = plimc()
        .args([
            "bench-diff",
            baseline.to_str().unwrap(),
            regressed.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&bad.stdout);
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert_eq!(bad.status.code(), Some(1), "stdout: {stdout}");
    assert!(
        stdout.contains("REGRESSION: adder: #I regressed 98 → 99"),
        "{stdout}"
    );
    assert!(stderr.contains("bench gate failed"), "{stderr}");

    for path in [&baseline, &same, &regressed] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn bench_diff_time_gate_can_be_disabled_for_cross_machine_runs() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let baseline = dir.join(format!("plimc_cli_time_baseline_{pid}.json"));
    let slow = dir.join(format!("plimc_cli_time_slow_{pid}.json"));
    std::fs::write(&baseline, bench_json(98)).unwrap();
    // Same quality metrics, 100× the wall-clock.
    std::fs::write(
        &slow,
        bench_json(98).replace("\"compile_ms\": 2.0", "\"compile_ms\": 200.0"),
    )
    .unwrap();

    // The default 25 % time tolerance rejects the slowdown…
    let gated = plimc()
        .args([
            "bench-diff",
            baseline.to_str().unwrap(),
            slow.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&gated.stdout);
    assert_eq!(gated.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.contains("tolerance"), "{stdout}");

    // …while --no-time-gate reports it as a note only (CI's cross-machine
    // mode) and still exits 0.
    let noted = plimc()
        .args([
            "bench-diff",
            baseline.to_str().unwrap(),
            slow.to_str().unwrap(),
            "--no-time-gate",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&noted.stdout);
    assert!(noted.status.success(), "stdout: {stdout}");
    assert!(stdout.contains("note: wall-clock"), "{stdout}");
    assert!(stdout.contains("time gate off"), "{stdout}");

    for path in [&baseline, &slow] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn bench_diff_names_the_missing_field_in_one_line() {
    // A baseline that is valid JSON but lacks a required field used to
    // surface as a bare parse error; now it must be a one-line
    // `plimc: <file>: missing field '<name>'` diagnostic.
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let incomplete = dir.join(format!("plimc_cli_incomplete_{pid}.json"));
    let complete = dir.join(format!("plimc_cli_complete_{pid}.json"));
    std::fs::write(
        &incomplete,
        "[{\"circuit\": \"adder\", \"instructions\": 98}]\n",
    )
    .unwrap();
    std::fs::write(&complete, bench_json(98)).unwrap();

    let stderr = assert_user_error(
        &[
            "bench-diff",
            incomplete.to_str().unwrap(),
            complete.to_str().unwrap(),
        ],
        "missing field 'rams'",
    );
    let prefix = format!("plimc: {}: missing field 'rams'", incomplete.display());
    assert!(stderr.starts_with(&prefix), "diagnostic shape: {stderr}");

    for path in [&incomplete, &complete] {
        std::fs::remove_file(path).ok();
    }
}

/// Parses a `BENCH.json` document with the wall-clock columns, the only
/// ones that vary from run to run, zeroed.
fn timeless(text: &str) -> Vec<BenchRecord> {
    let mut records = benchfile::from_json(text).unwrap();
    for record in &mut records {
        record.rewrite_ms = 0.0;
        record.compile_ms = 0.0;
    }
    records
}

/// The records of `plimc bench --reduced` run with `extra` arguments.
fn reduced_bench(extra: &[&str]) -> Vec<BenchRecord> {
    let name = format!(
        "plimc_cli_bench{}_{}.json",
        extra.concat(),
        std::process::id()
    );
    let path = std::env::temp_dir().join(name);
    let output = plimc()
        .args(["bench", "--reduced", "--json", path.to_str().unwrap()])
        .args(extra)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{extra:?}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    timeless(&text)
}

#[test]
fn fresh_reduced_bench_equals_the_committed_baseline() {
    let baseline = timeless(include_str!("../benchmarks/baseline.json"));
    let fresh = reduced_bench(&[]);
    assert_eq!(benchfile::to_json(&fresh), benchfile::to_json(&baseline));
}

/// The e-graph columns are measured at the run's `--effort`, like every
/// other column: reduced mem_ctrl's must equal what `plimc --rewrite
/// egraph -O2` reports at the same effort (4875 instructions at effort 1,
/// where a paper-effort measurement gives 4857).
#[test]
fn bench_egraph_columns_follow_the_effort() {
    let records = reduced_bench(&["--effort", "1"]);
    let record = records.iter().find(|r| r.circuit == "mem_ctrl").unwrap();
    let dump = plimc()
        .args(["dump", "mem_ctrl", "--reduced"])
        .output()
        .unwrap();
    let output = run_with_stdin(
        &[
            "--rewrite",
            "egraph",
            "-O2",
            "--effort",
            "1",
            "--emit",
            "stats",
            "-",
        ],
        &dump.stdout,
    );
    assert!(output.status.success(), "{output:?}");
    let stats = String::from_utf8(output.stdout).unwrap();
    let stat = |label: &str| -> u64 {
        let line = stats.lines().find_map(|line| line.strip_prefix(label));
        let value = line.and_then(|rest| rest.split_whitespace().next());
        value
            .unwrap_or_else(|| panic!("{label}: {stats}"))
            .parse()
            .unwrap()
    };
    assert_eq!(record.egraph_instructions, stat("instructions: "));
    assert_eq!(record.egraph_rams, stat("work RRAMs: "));
}

#[test]
fn dump_prints_suite_circuits_as_parseable_mig_text() {
    let output = plimc()
        .args(["dump", "ctrl", "--reduced"])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.starts_with("# MIG"), "unexpected dump: {text}");
    // The dump round-trips through the compiler end to end.
    let compiled = run_with_stdin(&["--emit", "stats", "-"], text.as_bytes());
    assert!(
        compiled.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&compiled.stderr)
    );

    assert_user_error(&["dump", "bogus", "--reduced"], "unknown benchmark `bogus`");
    assert_user_error(&["dump"], "dump needs a circuit name");
    assert_user_error(&["dump", "ctrl", "voter"], "multiple circuits");
}

/// Full daemon round-trip through the real binaries: start `plimc serve`
/// on a free port, compare served output against offline output, check
/// the warm pass hits the cache, and shut the daemon down.
#[test]
fn serve_and_request_round_trip_byte_identically() {
    use std::io::BufRead as _;

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let circuit = dir.join(format!("plimc_cli_serve_{pid}.mig"));
    std::fs::write(
        &circuit,
        b"inputs a b c\nn1 = maj(0, a, b)\nn2 = maj(n1, c, 1)\noutput f = !n2\n",
    )
    .unwrap();
    let circuit_path = circuit.to_str().unwrap();

    let mut daemon = plimc()
        .args(["serve", "--addr", "127.0.0.1:0", "--quiet"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // The listening line is printed as soon as the daemon is ready and
    // names the actual port (we asked for port 0).
    let mut stdout = std::io::BufReader::new(daemon.stdout.take().unwrap());
    let mut listening = String::new();
    stdout.read_line(&mut listening).unwrap();
    let addr = listening
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in: {listening}"))
        .to_string();

    let offline = plimc().arg(circuit_path).output().unwrap();
    assert!(offline.status.success());

    for pass in ["cold", "warm"] {
        let served = plimc()
            .args(["request", "--addr", &addr, circuit_path])
            .output()
            .unwrap();
        assert!(
            served.status.success(),
            "{pass}: {}",
            String::from_utf8_lossy(&served.stderr)
        );
        assert_eq!(
            served.stdout, offline.stdout,
            "{pass} pass must be byte-identical to offline output"
        );
    }

    let stats = plimc()
        .args(["request", "--addr", &addr, "--stats"])
        .output()
        .unwrap();
    let stats_line = String::from_utf8_lossy(&stats.stdout);
    assert!(stats.status.success(), "{stats_line}");
    assert!(
        stats_line.contains("\"hits\":1") && stats_line.contains("\"misses\":1"),
        "warm pass must be a cache hit: {stats_line}"
    );

    let shutdown = plimc()
        .args(["request", "--addr", &addr, "--shutdown"])
        .output()
        .unwrap();
    assert!(shutdown.status.success());
    let status = daemon.wait().unwrap();
    assert!(status.success(), "daemon must exit cleanly on shutdown");
    std::fs::remove_file(&circuit).ok();
}

#[test]
fn request_against_a_dead_service_is_a_user_error() {
    // Port 1 on loopback is essentially never listening. The diagnostic is
    // the standard one-liner `plimc: cannot connect to <addr>: <cause>` at
    // exit 1 — not a raw io::Error.
    let stderr = assert_user_error(
        &["request", "--addr", "127.0.0.1:1", "--stats"],
        "cannot connect to 127.0.0.1:1",
    );
    assert!(
        stderr.trim_end().len() > "plimc: cannot connect to 127.0.0.1:1: ".len(),
        "the cause must follow the address: {stderr}"
    );
    // Compile requests hit the same path as --stats.
    let dir = std::env::temp_dir();
    let circuit = dir.join(format!("plimc_cli_dead_daemon_{}.mig", std::process::id()));
    std::fs::write(&circuit, AND_MIG).unwrap();
    assert_user_error(
        &[
            "request",
            "--addr",
            "127.0.0.1:1",
            circuit.to_str().unwrap(),
        ],
        "cannot connect to 127.0.0.1:1",
    );
    std::fs::remove_file(&circuit).ok();
    assert_user_error(
        &["request", "--stats", "--shutdown", "extra"],
        "take no further arguments",
    );
    // Two requests in one invocation would send only the first.
    assert_user_error(
        &["request", "--stats", "--shutdown"],
        "--stats and --shutdown are two requests; send one",
    );
}

#[test]
fn request_timeout_and_retry_flags_are_validated_and_still_fail_cleanly() {
    assert_user_error(
        &["request", "--timeout", "abc", "--stats"],
        "--timeout needs a positive number of seconds",
    );
    assert_user_error(
        &["request", "--timeout", "0", "--stats"],
        "--timeout needs a positive number of seconds",
    );
    assert_user_error(
        &["request", "--retries", "many", "--stats"],
        "--retries needs a number",
    );
    // With valid values against a dead port, the retries run their course
    // (with backoff) and the result is still the standard one-liner.
    assert_user_error(
        &[
            "request",
            "--addr",
            "127.0.0.1:1",
            "--timeout",
            "0.5",
            "--retries",
            "1",
            "--stats",
        ],
        "cannot connect to 127.0.0.1:1",
    );
}

#[test]
fn loadtest_flags_are_validated() {
    assert_user_error(
        &["loadtest", "--connections", "0"],
        "--connections needs a positive number",
    );
    assert_user_error(
        &["loadtest", "--pipeline", "lots"],
        "--pipeline needs a positive number",
    );
    assert_user_error(&["loadtest", "--bogus"], "unknown loadtest option");
    // Against a dead port, the connect failure is a one-line user error.
    assert_user_error(
        &["loadtest", "--addr", "127.0.0.1:1", "--connections", "2"],
        "cannot connect to 127.0.0.1:1",
    );
}

/// End-to-end through the real binaries: a stored daemon survives a
/// loadtest, and after a restart on the same store directory the repeats
/// are served from disk (`"store":{"hits":…}` nonzero in `--stats`).
#[test]
fn loadtest_and_store_round_trip_through_the_binaries() {
    use std::io::BufRead as _;

    let pid = std::process::id();
    let store = std::env::temp_dir().join(format!("plimc_cli_store_{pid}"));
    let _ = std::fs::remove_dir_all(&store);

    // The stdout reader must outlive each daemon: dropping it closes the
    // pipe, and the daemon's next println! (the store banner) would die
    // on EPIPE.
    let spawn_daemon = || {
        let mut daemon = plimc()
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--store",
                store.to_str().unwrap(),
                "--quiet",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut stdout = std::io::BufReader::new(daemon.stdout.take().unwrap());
        let mut listening = String::new();
        stdout.read_line(&mut listening).unwrap();
        let addr = listening
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no address in: {listening}"))
            .to_string();
        (daemon, addr, stdout)
    };
    let shutdown = |addr: &str, mut daemon: std::process::Child| {
        let response = plimc()
            .args(["request", "--addr", addr, "--shutdown"])
            .output()
            .unwrap();
        assert!(response.status.success());
        assert!(daemon.wait().unwrap().success());
    };

    // First daemon: the loadtest passes and fills the store.
    let (daemon, addr, _stdout) = spawn_daemon();
    let report = plimc()
        .args([
            "loadtest",
            "--addr",
            &addr,
            "--connections",
            "64",
            "--pipeline",
            "4",
            "--requests",
            "4",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&report.stdout);
    assert!(
        report.status.success(),
        "stdout: {stdout} stderr: {}",
        String::from_utf8_lossy(&report.stderr)
    );
    assert!(stdout.contains("loadtest: OK"), "{stdout}");
    shutdown(&addr, daemon);

    // Second daemon, same store: repeats come off the disk, visible as
    // nonzero store hits in the stats response.
    let (daemon, addr, _stdout) = spawn_daemon();
    let rerun = plimc()
        .args(["loadtest", "--addr", &addr, "--connections", "8"])
        .output()
        .unwrap();
    assert!(
        rerun.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&rerun.stderr)
    );
    let stats = plimc()
        .args(["request", "--addr", &addr, "--stats"])
        .output()
        .unwrap();
    let stats_line = String::from_utf8_lossy(&stats.stdout);
    assert!(stats.status.success(), "{stats_line}");
    let hits = stats_line
        .split("\"store\":{\"hits\":")
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|n| n.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("no store counters in: {stats_line}"));
    assert!(hits >= 1, "restart must hit the store: {stats_line}");
    shutdown(&addr, daemon);

    let _ = std::fs::remove_dir_all(&store);
}

/// `plimc verify` over the small-circuit matrix: every target and opt
/// level, and the e-graph rewrite, prove `ctrl`, `dec` and `int2float` at
/// exit 0 with exactly the report line each one printed before the
/// verifier became one artifact-generic checker.
#[test]
fn verify_subcommand_matrix_reports_are_unchanged() {
    const MATRIX: [(&str, &str, &str); 24] = [
        ("ctrl", "-O0", "verified: all 26 outputs equal over all 2^7 input patterns (62 instructions, 24 RAMs)"),
        ("ctrl", "-O2", "verified: all 26 outputs equal over all 2^7 input patterns (62 instructions, 24 RAMs)"),
        ("ctrl", "--target ambit -O0", "verified [ambit]: all 26 outputs equal over all 2^7 input patterns (206 ambit ops, 27 cells)"),
        ("ctrl", "--target ambit -O2", "verified [ambit]: all 26 outputs equal over all 2^7 input patterns (206 ambit ops, 27 cells)"),
        ("ctrl", "--target magic -O0", "verified [magic]: all 26 outputs equal over all 2^7 input patterns (530 magic ops, 30 cells)"),
        ("ctrl", "--target magic -O2", "verified [magic]: all 26 outputs equal over all 2^7 input patterns (530 magic ops, 30 cells)"),
        ("ctrl", "--rewrite egraph -O0", "verified: all 26 outputs equal over all 2^7 input patterns (60 instructions, 24 RAMs)"),
        ("ctrl", "--rewrite egraph -O2", "verified: all 26 outputs equal over all 2^7 input patterns (60 instructions, 24 RAMs)"),
        ("dec", "-O0", "verified: all 16 outputs equal over all 2^4 input patterns (52 instructions, 17 RAMs)"),
        ("dec", "-O2", "verified: all 16 outputs equal over all 2^4 input patterns (48 instructions, 17 RAMs)"),
        ("dec", "--target ambit -O0", "verified [ambit]: all 16 outputs equal over all 2^4 input patterns (184 ambit ops, 20 cells)"),
        ("dec", "--target ambit -O2", "verified [ambit]: all 16 outputs equal over all 2^4 input patterns (172 ambit ops, 20 cells)"),
        ("dec", "--target magic -O0", "verified [magic]: all 16 outputs equal over all 2^4 input patterns (481 magic ops, 23 cells)"),
        ("dec", "--target magic -O2", "verified [magic]: all 16 outputs equal over all 2^4 input patterns (451 magic ops, 23 cells)"),
        ("dec", "--rewrite egraph -O0", "verified: all 16 outputs equal over all 2^4 input patterns (51 instructions, 17 RAMs)"),
        ("dec", "--rewrite egraph -O2", "verified: all 16 outputs equal over all 2^4 input patterns (48 instructions, 17 RAMs)"),
        ("int2float", "-O0", "verified: all 7 outputs equal over all 2^11 input patterns (207 instructions, 21 RAMs)"),
        ("int2float", "-O2", "verified: all 7 outputs equal over all 2^11 input patterns (207 instructions, 21 RAMs)"),
        ("int2float", "--target ambit -O0", "verified [ambit]: all 7 outputs equal over all 2^11 input patterns (847 ambit ops, 24 cells)"),
        ("int2float", "--target ambit -O2", "verified [ambit]: all 7 outputs equal over all 2^11 input patterns (847 ambit ops, 24 cells)"),
        ("int2float", "--target magic -O0", "verified [magic]: all 7 outputs equal over all 2^11 input patterns (2287 magic ops, 27 cells)"),
        ("int2float", "--target magic -O2", "verified [magic]: all 7 outputs equal over all 2^11 input patterns (2287 magic ops, 27 cells)"),
        ("int2float", "--rewrite egraph -O0", "verified: all 7 outputs equal over all 2^11 input patterns (207 instructions, 21 RAMs)"),
        ("int2float", "--rewrite egraph -O2", "verified: all 7 outputs equal over all 2^11 input patterns (203 instructions, 21 RAMs)"),
    ];
    let mut dumps = std::collections::HashMap::new();
    for (circuit, flags, report) in MATRIX {
        let dump = dumps.entry(circuit).or_insert_with(|| {
            let dump = plimc()
                .args(["dump", circuit, "--reduced"])
                .output()
                .unwrap();
            assert!(dump.status.success());
            dump.stdout
        });
        let mut args = vec!["verify"];
        args.extend(flags.split(' '));
        args.push("-");
        let output = run_with_stdin(&args, dump);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{circuit} {flags}: {stderr}");
        assert_eq!(
            String::from_utf8_lossy(&output.stdout),
            format!("{report}\n"),
            "{circuit} {flags}"
        );
    }
}

/// `plimc verify` proves a suite circuit end to end and reports the proof
/// size; circuits beyond the exhaustive-input limit are a user error.
#[test]
fn verify_subcommand_proves_small_circuits_and_rejects_large_ones() {
    let dump = plimc()
        .args(["dump", "ctrl", "--reduced"])
        .output()
        .unwrap();
    assert!(dump.status.success());
    let output = run_with_stdin(&["verify", "-O2", "-"], &dump.stdout);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("verified: all") && stdout.contains("2^7 input patterns"),
        "proof report missing: {stdout}"
    );

    // The reduced router has 60 primary inputs — far beyond the
    // exhaustive limit. The refusal is the standard one-line diagnostic at
    // exit 2, distinguishable from a disproof (exit 1): a caller that gets
    // 2 may fall back to sampled verification, one that gets 1 must stop.
    let router = plimc()
        .args(["dump", "router", "--reduced"])
        .output()
        .unwrap();
    assert!(router.status.success());
    let rejected = run_with_stdin(&["verify", "-"], &router.stdout);
    let stderr = String::from_utf8_lossy(&rejected.stderr);
    assert_eq!(rejected.status.code(), Some(2), "stderr: {stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{stderr}");
    assert!(
        stderr.starts_with("plimc: verification:") && stderr.contains("supports at most 20"),
        "unexpected diagnostic: {stderr}"
    );
    // Ordinary user errors on the verify path still exit 1, so 2 really
    // does single out the too-wide refusal.
    assert_user_error(
        &["verify", "/nonexistent/input.mig"],
        "reading /nonexistent",
    );

    assert_user_error(
        &["verify", "--limit", "8", "x.mig"],
        "--limit is not supported by verify",
    );
}

/// `plimc targets` lists every backend with its instruction
/// set, and takes no arguments.
#[test]
fn targets_subcommand_lists_registered_backends() {
    let output = plimc().args(["targets"]).output().unwrap();
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines();
    // rm3 is always first: it is the reference target.
    assert!(lines.next().unwrap().starts_with("rm3"), "{stdout}");
    for (name, mnemonic) in [("ambit", "tra"), ("magic", "nor")] {
        assert!(
            stdout.lines().any(|l| l.starts_with(name)),
            "{name} missing: {stdout}"
        );
        assert!(stdout.contains(mnemonic), "{mnemonic} missing: {stdout}");
    }
    assert_user_error(&["targets", "extra"], "takes no arguments");
}

/// `--target ambit` drives the whole pipeline through the non-RM3
/// backend: emission prints the backend's native listing and `verify`
/// proves the artifact through the backend's own executor.
#[test]
fn target_flag_compiles_and_verifies_through_the_backend() {
    let dump = plimc()
        .args(["dump", "ctrl", "--reduced"])
        .output()
        .unwrap();
    assert!(dump.status.success());
    let listing = run_with_stdin(
        &["--target", "ambit", "--emit", "listing", "-"],
        &dump.stdout,
    );
    assert!(
        listing.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&listing.stderr)
    );
    let stdout = String::from_utf8_lossy(&listing.stdout);
    assert!(stdout.starts_with(".ambit v1\n"), "{stdout}");

    let proof = run_with_stdin(&["verify", "--target", "ambit", "-O2", "-"], &dump.stdout);
    assert!(
        proof.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&proof.stderr)
    );
    let stdout = String::from_utf8_lossy(&proof.stdout);
    assert!(
        stdout.contains("verified [ambit]: all") && stdout.contains("2^7 input patterns"),
        "proof report missing: {stdout}"
    );
}

/// `plimc lint` gives clean artifacts a clean bill (exit 0, text and
/// JSON), fails doctored streams with the expected lint, and honors
/// `--deny`/`--allow`.
#[test]
fn lint_subcommand_gates_artifacts_end_to_end() {
    let dump = plimc()
        .args(["dump", "ctrl", "--reduced"])
        .output()
        .unwrap();
    assert!(dump.status.success());

    // Clean at every opt level, in both output formats.
    for level in ["-O0", "-O2"] {
        let output = run_with_stdin(&["lint", level, "-"], &dump.stdout);
        assert!(
            output.status.success(),
            "{level}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains(": clean"), "{level}: {stdout}");
    }
    let json = run_with_stdin(&["lint", "-O2", "--json", "-"], &dump.stdout);
    assert!(json.status.success());
    let line = String::from_utf8_lossy(&json.stdout);
    assert!(
        line.contains("\"clean\":true") && line.contains("\"diagnostics\":[]"),
        "JSON report shape: {line}"
    );

    // The doctored stream must fail with PA0002, which proves the gate can
    // actually reject an artifact.
    let doctored = run_with_stdin(
        &["lint", "--doctor", "write-after-release", "-"],
        &dump.stdout,
    );
    let stdout = String::from_utf8_lossy(&doctored.stdout);
    let stderr = String::from_utf8_lossy(&doctored.stderr);
    assert_eq!(doctored.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.contains("PA0002"), "{stdout}");
    assert!(stderr.contains("error-level finding"), "{stderr}");

    // --allow suppresses by code or name; the doctored artifact then
    // passes (certification is also silenced: the corrupted stream cannot
    // be replayed).
    let allowed = run_with_stdin(
        &[
            "lint",
            "--doctor",
            "write-after-release",
            "--allow",
            "PA0002",
            "--allow",
            "use-before-init",
            "--allow",
            "stats-mismatch",
            "-",
        ],
        &dump.stdout,
    );
    assert!(
        allowed.status.success(),
        "stdout: {} stderr: {}",
        String::from_utf8_lossy(&allowed.stdout),
        String::from_utf8_lossy(&allowed.stderr)
    );

    // The stale-complement injection needs a cached complement that a
    // later op reads (ctrl's only feed outputs): i2c has one. Denied and
    // with the stats cross-check silenced, PA0005 alone fails the run.
    let i2c = plimc().args(["dump", "i2c", "--reduced"]).output().unwrap();
    assert!(i2c.status.success());
    let stale = run_with_stdin(
        &[
            "lint",
            "--doctor",
            "stale-complement",
            "--deny",
            "stale-complement",
            "--allow",
            "stats-mismatch",
            "-",
        ],
        &i2c.stdout,
    );
    let stdout = String::from_utf8_lossy(&stale.stdout);
    assert_eq!(stale.status.code(), Some(1), "stdout: {stdout}");
    assert!(
        stdout.contains("1 error") && stdout.contains("error[PA0005]"),
        "{stdout}"
    );
    let nothing_to_corrupt =
        run_with_stdin(&["lint", "--doctor", "stale-complement", "-"], &dump.stdout);
    let stderr = String::from_utf8_lossy(&nothing_to_corrupt.stderr);
    assert_eq!(nothing_to_corrupt.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("caches no complement to corrupt"),
        "{stderr}"
    );

    assert_user_error(
        &["lint", "--deny", "PA9999", "x.mig"],
        "unknown lint `PA9999`",
    );
    assert_user_error(
        &["lint", "--doctor", "bit-rot", "x.mig"],
        "unknown injection `bit-rot`",
    );
}

/// `plimc scenario` prints the seeded configuration header and one table
/// row per allocation strategy; malformed knobs are user errors.
#[test]
fn scenario_subcommand_sweeps_every_allocator() {
    let output = run_with_stdin(
        &[
            "scenario",
            "--patterns",
            "512",
            "--drift",
            "0.01",
            "--stuck",
            "0:1",
            "--endurance",
            "10000",
            "-",
        ],
        AND_MIG,
    );
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("scenario: 512 patterns, drift 0.01, stuck @0:1"),
        "header missing: {stdout}"
    );
    for strategy in ["fifo", "lifo", "fresh", "wear", "binned"] {
        assert!(
            stdout.lines().any(|line| line.starts_with(strategy)),
            "no row for `{strategy}`: {stdout}"
        );
    }

    assert_user_error(
        &["scenario", "--stuck", "3:2", "x.mig"],
        "--stuck needs ADDR:0 or ADDR:1",
    );
    assert_user_error(
        &["scenario", "--drift", "1.5", "x.mig"],
        "needs a probability in [0, 1]",
    );
    assert_user_error(
        &["scenario", "--patterns", "many", "x.mig"],
        "--patterns needs a number",
    );
}

/// `--help` documents native binary-AIGER support, the rewrite-engine
/// flag, and both scenario subcommands.
#[test]
fn help_mentions_binary_aiger_and_the_scenario_subcommands() {
    let output = plimc().arg("--help").output().unwrap();
    assert!(output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("binary AIGER .aig is parsed natively"),
        "native .aig support missing from --help: {stderr}"
    );
    assert!(
        stderr.contains("--rewrite arena|rebuild|egraph"),
        "rewrite engines missing from --help: {stderr}"
    );
    assert!(stderr.contains("plimc verify"), "{stderr}");
    assert!(
        stderr.contains("2: too wide for an exhaustive proof"),
        "verify exit codes missing from --help: {stderr}"
    );
    assert!(stderr.contains("plimc lint"), "{stderr}");
    assert!(stderr.contains("plimc scenario"), "{stderr}");
    assert!(stderr.contains("plimc loadtest"), "{stderr}");
    assert!(stderr.contains("--store DIR"), "{stderr}");
    assert!(stderr.contains("--timeout SECS"), "{stderr}");
}

#[test]
fn aiger_parse_errors_carry_line_numbers_through_the_cli() {
    // Truncated document: the header promises more than the file holds.
    let mut child = plimc()
        .args(["--format", "aag", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"aag 3 2 0 1 1\n2\n")
        .unwrap();
    let output = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1));
    assert!(
        stderr.contains("line 2") && stderr.contains("unexpected end of file"),
        "EOF diagnostic must name the last line read: {stderr}"
    );
}

/// Header counts that claim billions of variables in a few bytes get the
/// one-line diagnostic, in both AIGER formats, instead of an allocation
/// failure that aborts the process.
#[test]
fn huge_aiger_headers_are_one_line_errors_not_aborts() {
    let output = run_with_stdin(
        &["--format", "aag", "-"],
        b"aag 4000000000 4000000000 0 0 0\n",
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{stderr}");
    assert!(
        stderr.contains("line 1: unexpected end of file"),
        "{stderr}"
    );

    for (header, expected) in [
        (
            &b"aig 2000000000 2000000000 0 0 0\n"[..],
            "more than 1048576 inputs",
        ),
        (b"aig 2000000000 0 0 0 2000000000\n", "AND section"),
    ] {
        let output = run_with_stdin(&["-"], header);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
        assert_eq!(stderr.trim_end().lines().count(), 1, "{stderr}");
        assert!(
            stderr.starts_with("plimc: ")
                && stderr.contains("binary AIGER")
                && stderr.contains(expected),
            "{stderr}"
        );
    }
}
