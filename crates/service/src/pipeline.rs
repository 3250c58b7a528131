//! The compile pipeline shared by offline `plimc` and the `plimd` daemon.
//!
//! Both consumers run the same five stages — sniff, parse, optimize,
//! compile (+ verify), emit — through the functions here, so an artifact
//! served from the daemon is byte-identical to what `plimc` prints
//! offline for the same input and options. [`execute`] is the one compile
//! entry point: every `plimc` subcommand that compiles (the plain compile,
//! `--limit` through [`execute_within`], `verify` and `lint`) and every
//! daemon request takes its [`Artifacts`] from it.

use mig::Mig;
use plim_compiler::verify::{verify, verify_artifact};
use plim_compiler::{
    compile_full, Artifact, Compilation, CompilerOptions, OperandSelection, RewriteMode,
    ScheduleOrder, Target,
};

/// Input format of a compile request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InputFormat {
    /// The MIG text format ([`mig::io`]).
    #[default]
    Mig,
    /// ASCII AIGER ([`mig::aiger`]).
    Aag,
}

impl InputFormat {
    /// The wire/command-line name of the format.
    pub fn name(self) -> &'static str {
        match self {
            InputFormat::Mig => "mig",
            InputFormat::Aag => "aag",
        }
    }

    /// Parses a wire/command-line name.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the valid formats.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "mig" => Ok(InputFormat::Mig),
            "aag" => Ok(InputFormat::Aag),
            other => Err(format!("unknown format `{other}`")),
        }
    }

    /// The format implied by a file name (`.aag` → AIGER, MIG otherwise).
    pub fn from_path(path: &str) -> Self {
        if path.ends_with(".aag") {
            InputFormat::Aag
        } else {
            InputFormat::Mig
        }
    }
}

/// Whether the document starts with the binary-AIGER magic: an `aig`
/// keyword followed by at least the five numeric header fields
/// `M I L O A`. Requiring the numeric fields keeps text inputs that merely
/// begin with the letters `aig` (say, a MIG node named `aig`) from being
/// misdetected. The binary format delta-encodes its AND section, so it
/// cannot be fed to any of the text parsers.
pub fn is_binary_aiger(bytes: &[u8]) -> bool {
    let first_line = bytes.split(|&b| b == b'\n').next().unwrap_or(bytes);
    let mut fields = first_line.split(|&b| b == b' ').filter(|f| !f.is_empty());
    if fields.next() != Some(b"aig") {
        return false;
    }
    let mut numeric_fields = 0;
    for field in fields {
        if !field.iter().all(u8::is_ascii_digit) {
            return false;
        }
        numeric_fields += 1;
    }
    numeric_fields >= 5
}

/// Parses a logic network from text in the given format.
///
/// # Errors
///
/// Returns the underlying parser's diagnostic prefixed with the format
/// name (matching `plimc`'s long-standing messages).
pub fn parse_network(format: InputFormat, text: &str) -> Result<Mig, String> {
    match format {
        InputFormat::Aag => mig::aiger::parse_aiger(text).map_err(|e| format!("aiger: {e}")),
        InputFormat::Mig => mig::io::parse_mig(text).map_err(|e| format!("mig: {e}")),
    }
}

/// Everything that shapes the compiled artifact besides the graph itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileSpec {
    /// Rewrite effort; 0 disables rewriting (the graph is only cleaned).
    pub effort: usize,
    /// Use rewrite + majority resynthesis instead of plain rewriting; it
    /// takes only the `arena` rewrite engine and an effort above 0 (see
    /// [`check_spec`]).
    pub extended: bool,
    /// Compiler configuration.
    pub options: CompilerOptions,
    /// Check the program against bit-parallel simulation after compiling.
    pub verify: bool,
}

impl Default for CompileSpec {
    fn default() -> Self {
        CompileSpec {
            effort: 4,
            extended: false,
            options: CompilerOptions::new(),
            verify: true,
        }
    }
}

/// Refuses a spec that [`execute`] would not honour in full: `extended`
/// runs its own rewriting, so it takes no rewrite engine but `arena`, and
/// effort 0 only cleans the graph, so it takes neither `extended` nor an
/// engine but `arena`. Every front end calls this before compiling.
///
/// # Errors
///
/// Returns a one-line message naming what the spec would drop.
pub fn check_spec(spec: &CompileSpec) -> Result<(), String> {
    let engine = format!("--rewrite {}", spec.options.rewrite.name());
    let arena = spec.options.rewrite == RewriteMode::Arena;
    if spec.extended && !arena {
        return Err(format!(
            "--extended rewrites by majority resynthesis; it does not run {engine}"
        ));
    }
    if spec.effort == 0 && (spec.extended || !arena) {
        let dropped = if spec.extended { "--extended" } else { &engine };
        return Err(format!(
            "--effort 0 skips rewriting; it does not run {dropped}"
        ));
    }
    Ok(())
}

/// Runs the optimization stage of the pipeline on `input`.
///
/// The rewrite engine is selected by `spec.options.rewrite`: `arena` is
/// the in-place depth-bounded rewriter, `rebuild` reconstructs through
/// the hash-consing builder, and `egraph` saturates an e-graph
/// ([`plim_egraph::optimize_compiled`]) and keeps the extraction only when
/// its *compiled* cost beats the arena result.
pub fn optimize(input: &Mig, spec: &CompileSpec) -> Mig {
    optimize_stage(input, spec).0
}

/// The optimization stage, plus the compilation of its result when the
/// engine already made one: the e-graph compiles every candidate to score
/// it and hands back the winner's.
fn optimize_stage(input: &Mig, spec: &CompileSpec) -> (Mig, Option<Compilation>) {
    let optimized = if spec.effort == 0 {
        input.cleaned()
    } else if spec.extended {
        mig::resynth::rewrite_extended(input, spec.effort)
    } else {
        match spec.options.rewrite {
            RewriteMode::Arena => mig::rewrite::rewrite(input, spec.effort),
            RewriteMode::Rebuild => mig::rewrite::rewrite_rebuild(input, spec.effort),
            RewriteMode::Egraph => {
                let baseline = mig::rewrite::rewrite(input, spec.effort);
                let (chosen, compilation, _) =
                    plim_egraph::optimize_compiled(input, &baseline, spec.effort, spec.options);
                return (chosen, Some(compilation));
            }
        }
    };
    (optimized, None)
}

/// Everything the compile stage produced: the rewritten graph plus the
/// compilation (program, post-optimization IR, pass report). Emission
/// renders artifacts from here, so the daemon and offline `plimc` print
/// byte-identical output for every `--emit` kind.
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// The MIG after the rewrite stage (what was compiled).
    pub optimized: Mig,
    /// The compilation: program, IR, and per-pass accounting.
    pub compilation: Compilation,
    /// The emission target the compilation was made for. [`emit`]
    /// dispatches target-specific artifact kinds through its backend.
    pub target: Target,
}

/// Optimizes, compiles and (optionally) verifies `input` under `spec`.
///
/// Verification dispatches on the target: the RM3 reference program is
/// always checked against simulation (the middle end's semantic anchor),
/// and a non-RM3 target's artifact is additionally checked through its
/// backend's own executor.
///
/// # Errors
///
/// Returns a one-line message when verification fails.
pub fn execute(input: &Mig, spec: &CompileSpec) -> Result<Artifacts, String> {
    finish(optimize_stage(input, spec), spec)
}

/// The compile and verify stages of [`execute`], given the optimize
/// stage's output: compiles the graph unless the stage already did.
fn finish(
    (optimized, compiled): (Mig, Option<Compilation>),
    spec: &CompileSpec,
) -> Result<Artifacts, String> {
    let compilation = compiled.unwrap_or_else(|| compile_full(&optimized, spec.options));
    if spec.verify {
        verify(&optimized, &compilation.compiled, 4, 0xDAC2016)
            .map_err(|e| format!("verification: {e}"))?;
        if spec.options.target != Target::RM3 {
            let artifact = spec.options.target.backend().emit(&compilation.ir);
            verify_artifact(&optimized, artifact.as_ref(), 4, 0xDAC2016)
                .map_err(|e| format!("verification ({}): {e}", spec.options.target))?;
        }
    }
    Ok(Artifacts {
        optimized,
        compilation,
        target: spec.options.target,
    })
}

/// Compiles `input` within a footprint budget: [`execute`] under `spec`,
/// then with index scheduling, then with child-order operands as well
/// (an attempt equal to an earlier one is skipped), returning the first
/// whose target artifact has [`Cost::footprint`] ≤ `limit` — work RRAMs
/// on RM3, rows on Ambit, cells on MAGIC. Every other option of `spec`
/// holds for every attempt.
///
/// Only the compile options change between attempts, so the graph is
/// rewritten once and each attempt compiles it, except under the e-graph,
/// whose choice of graph depends on the attempt's compiled cost.
///
/// # Errors
///
/// Returns a one-line message naming the smallest footprint found when no
/// attempt fits, or the first failed verification.
///
/// # Examples
///
/// ```
/// use plim_service::pipeline::{execute_within, parse_network, CompileSpec, InputFormat};
///
/// let and = parse_network(InputFormat::Mig, "inputs a b\nn = maj(0, a, b)\noutput f = n\n")?;
/// let artifacts = execute_within(&and, &CompileSpec::default(), 2)?;
/// assert!(artifacts.compilation.compiled.stats.rams <= 2);
/// assert!(execute_within(&and, &CompileSpec::default(), 0).is_err());
/// # Ok::<(), String>(())
/// ```
///
/// [`Cost::footprint`]: plim_compiler::Cost::footprint
pub fn execute_within(input: &Mig, spec: &CompileSpec, limit: u32) -> Result<Artifacts, String> {
    let index = spec.options.schedule(ScheduleOrder::Index);
    let attempts = [
        spec.options,
        index,
        index.operands(OperandSelection::ChildOrder),
    ];
    let mut best = u32::MAX;
    let mut stage = optimize_stage(input, spec);
    let reoptimize = stage.1.is_some();
    for (tried, &options) in attempts.iter().enumerate() {
        if attempts[..tried].contains(&options) {
            continue;
        }
        let spec = CompileSpec { options, ..*spec };
        if tried > 0 && reoptimize {
            stage = optimize_stage(input, &spec);
        }
        let artifacts = finish(stage, &spec)?;
        let footprint = with_artifact(&artifacts, |artifact| artifact.cost().footprint);
        if footprint <= limit {
            return Ok(artifacts);
        }
        best = best.min(footprint);
        stage = (artifacts.optimized, None);
    }
    let target = spec.options.target;
    let unit = if target == Target::RM3 {
        "work RRAMs".to_string()
    } else {
        format!("{target} cells")
    };
    Err(format!(
        "no schedule fits {limit} {unit}; best found uses {best}"
    ))
}

/// The artifact kinds `--emit` understands, for diagnostics and docs.
pub const EMIT_KINDS: [&str; 6] = ["listing", "asm", "stats", "dot", "mig", "ir"];

/// Runs `f` on the target's artifact: the compiled RM3 program itself,
/// or the target backend's emission of the post-optimization IR.
pub fn with_artifact<R>(artifacts: &Artifacts, f: impl FnOnce(&dyn Artifact) -> R) -> R {
    let compilation = &artifacts.compilation;
    if artifacts.target == Target::RM3 {
        f(&compilation.compiled)
    } else {
        f(artifacts.target.backend().emit(&compilation.ir).as_ref())
    }
}

/// Refuses an artifact kind that [`emit`] cannot render for `target`,
/// with the message `emit` gives, so a front end can refuse it before
/// compiling.
///
/// # Errors
///
/// Returns a one-line message for unknown artifact kinds, and for `asm`
/// on a non-RM3 target.
pub fn check_emit(kind: &str, target: Target) -> Result<(), String> {
    if !EMIT_KINDS.contains(&kind) {
        return Err(format!("unknown --emit `{kind}`"));
    }
    if kind == "asm" && target != Target::RM3 {
        return Err(format!(
            "--emit asm renders RM3 assembly; target `{target}` prints its native \
             form via --emit listing"
        ));
    }
    Ok(())
}

/// Renders the requested artifact. The returned string is printed with
/// `print!` by every consumer (it already ends in a newline), so daemon
/// and offline output agree byte-for-byte.
///
/// `listing` and `stats` are rendered by the target's [`Artifact`]; `asm`
/// is RM3 assembly; the graph- and IR-level kinds are target-neutral.
///
/// # Errors
///
/// Returns [`check_emit`]'s message for a kind the target cannot print,
/// and refuses `mig` for a graph with an input or output name that the
/// MIG text cannot carry ([`mig::io::ambiguous_name`]): printed, it would
/// read back as another circuit or not at all.
pub fn emit(kind: &str, artifacts: &Artifacts) -> Result<String, String> {
    check_emit(kind, artifacts.target)?;
    if kind == "mig" {
        if let Some(name) = mig::io::ambiguous_name(&artifacts.optimized) {
            return Err(format!(
                "--emit mig cannot print the name `{}`: the text would not read back \
                 as the same circuit",
                name.escape_debug()
            ));
        }
    }
    Ok(match kind {
        "listing" => with_artifact(artifacts, |artifact| artifact.listing()),
        "stats" => with_artifact(artifacts, |artifact| artifact.stats_text()),
        "asm" => plim::asm::write_asm(&artifacts.compilation.compiled.program),
        "dot" => mig::dot::to_dot(&artifacts.optimized),
        "mig" => mig::io::write_mig(&artifacts.optimized),
        "ir" => artifacts.compilation.ir.dump(),
        other => unreachable!("check_emit admitted `{other}`"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const AND_MIG: &str = "inputs a b\nn = maj(0, a, b)\noutput f = n\n";

    #[test]
    fn format_names_round_trip_and_sniff_from_paths() {
        assert_eq!(InputFormat::parse("mig"), Ok(InputFormat::Mig));
        assert_eq!(InputFormat::parse("aag"), Ok(InputFormat::Aag));
        assert!(InputFormat::parse("verilog").is_err());
        assert_eq!(InputFormat::from_path("x.aag"), InputFormat::Aag);
        assert_eq!(InputFormat::from_path("x.mig"), InputFormat::Mig);
        assert_eq!(InputFormat::from_path("-"), InputFormat::Mig);
    }

    #[test]
    fn binary_aiger_sniff_requires_numeric_header() {
        assert!(is_binary_aiger(b"aig 3 2 0 1 1\nrest"));
        assert!(!is_binary_aiger(b"aag 3 2 0 1 1\n"));
        assert!(!is_binary_aiger(b"aig = maj(0, 1, 0)\n"));
        assert!(!is_binary_aiger(b"aig 1 2\n"));
    }

    #[test]
    fn execute_compiles_and_verifies() {
        let input = parse_network(InputFormat::Mig, AND_MIG).unwrap();
        let artifacts = execute(&input, &CompileSpec::default()).unwrap();
        assert!(artifacts.compilation.compiled.stats.instructions > 0);
        for kind in EMIT_KINDS {
            let artifact = emit(kind, &artifacts).unwrap();
            assert!(artifact.ends_with('\n'), "{kind} artifact misses newline");
        }
        assert!(emit("png", &artifacts).is_err());
    }

    #[test]
    fn emit_dispatches_non_rm3_targets_through_their_backend() {
        let input = parse_network(InputFormat::Mig, AND_MIG).unwrap();
        let mut spec = CompileSpec::default();
        spec.options = spec
            .options
            .target(Target::parse("ambit").expect("built-in target"));
        let artifacts = execute(&input, &spec).unwrap();
        let listing = emit("listing", &artifacts).unwrap();
        assert!(listing.starts_with(".ambit v1\n"), "{listing}");
        let stats = emit("stats", &artifacts).unwrap();
        assert!(stats.starts_with("target=ambit "), "{stats}");
        let err = emit("asm", &artifacts).unwrap_err();
        assert!(err.contains("ambit"), "{err}");
        // Graph- and IR-level kinds stay target-neutral.
        for kind in ["dot", "mig", "ir"] {
            assert_eq!(emit(kind, &artifacts).unwrap(), {
                let rm3 = execute(&input, &CompileSpec::default()).unwrap();
                emit(kind, &rm3).unwrap()
            });
        }
    }

    /// A six-input parity chain: enough live values that one work RRAM
    /// cannot hold it.
    fn sample() -> Mig {
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", 6);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            let or = mig.or(acc, x);
            let and = mig.and(acc, x);
            acc = mig.and(or, !and);
        }
        mig.add_output("f", acc);
        mig
    }

    fn rams(artifacts: &Artifacts) -> u32 {
        artifacts.compilation.compiled.stats.rams
    }

    #[test]
    fn generous_budget_succeeds() {
        let mig = sample();
        let spec = CompileSpec::default();
        let unconstrained = rams(&execute(&mig, &spec).unwrap());
        let fitted = execute_within(&mig, &spec, unconstrained).unwrap();
        assert!(rams(&fitted) <= unconstrained);
        verify(&mig, &fitted.compilation.compiled, 4, 0).unwrap();
    }

    #[test]
    fn impossible_budget_reports_best_effort() {
        let err = execute_within(&sample(), &CompileSpec::default(), 1).unwrap_err();
        let best: u32 = err
            .strip_prefix("no schedule fits 1 work RRAMs; best found uses ")
            .and_then(|best| best.parse().ok())
            .unwrap_or_else(|| panic!("{err}"));
        assert!(best > 1, "{err}");
    }

    #[test]
    fn returned_program_is_functional() {
        let mig = sample();
        let spec = CompileSpec::default();
        let unconstrained = rams(&execute(&mig, &spec).unwrap());
        // A slightly tight budget may force a different configuration; the
        // result must still be correct.
        for limit in [unconstrained, unconstrained + 5] {
            let fitted = execute_within(&mig, &spec, limit).unwrap();
            verify(&mig, &fitted.compilation.compiled, 4, 1).unwrap();
        }
    }

    #[test]
    fn parse_errors_carry_format_prefix() {
        let err = parse_network(InputFormat::Mig, "garbage").unwrap_err();
        assert!(err.starts_with("mig: "), "{err}");
        let err = parse_network(InputFormat::Aag, "garbage").unwrap_err();
        assert!(err.starts_with("aiger: "), "{err}");
    }
}
