//! # plim-analysis — static analyzer and lint framework for PLiM artifacts
//!
//! A standalone verification layer over the compiler's two artifact forms:
//!
//! * the **IR event stream** ([`plim_compiler::ir::IrProgram`]) — analyzed
//!   by the core lint engine ([`analyze_events`], re-exported here), one
//!   linear dataflow pass tracking per-cell abstract state;
//! * the **emitted program** ([`plim_compiler::Rm3Program`]) —
//!   analyzed by [`analyze_program`], which reports every finding of the
//!   program's own uninitialized-read walk
//!   ([`Rm3Program::uninitialized_reads`], whose first finding the
//!   verifier's init-discipline check reports) and every output left in a
//!   never-written cell;
//!
//! plus **resource certification** ([`certify`] / [`cross_check`]): the
//! event stream is replayed through a fresh allocator — independently of
//! the emitter — re-deriving `#I`, `#R`, and the per-cell wear profile,
//! which must agree *exactly* with the recorded
//! [`Rm3Stats`](plim_compiler::Rm3Stats) and the program's static
//! write counts. Any disagreement is a `PA0008` diagnostic: the stats the
//! benchmarks trust no longer describe the artifact.
//!
//! [`analyze_artifact`] bundles all three over a
//! [`plim_compiler::Compilation`]; `plimc lint` wraps that in
//! a CLI with per-lint `--deny`/`--allow` ([`LintConfig`]) and text/JSON
//! reports ([`Report`]).
//!
//! The [`doctor`] module deliberately corrupts event streams (e.g.
//! injecting a write-after-release) so CI can prove the analyzer actually
//! rejects bad artifacts rather than vacuously passing good ones.

use plim::{OutputLoc, RamAddr};
use plim_compiler::alloc::RramAllocator;
use plim_compiler::ir::{Event, IrProgram, Value};
use plim_compiler::json::Value as Json;
use plim_compiler::{Compilation, OptLevel, Rm3Program, UninitializedRead};

pub use plim_compiler::ir::analysis::{
    analyze_events, introduces, lint_counts, AnalysisConfig, Diagnostic, Lint, Severity, LINT_COUNT,
};

pub mod doctor;

/// Resources re-derived from the event stream alone, by replaying it
/// through a fresh allocator of the program's strategy — no numbers are
/// taken from the emitter or from [`Rm3Stats`](plim_compiler::Rm3Stats).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Instruction count (`#I`): one per [`Event::Op`].
    pub instructions: usize,
    /// Work-cell count (`#R`): the highest physical address any replayed
    /// instruction touches, plus one.
    pub rams: u32,
    /// The largest per-cell destination-write count.
    pub max_cell_writes: u64,
    /// Destination writes per physical cell, indexed by address.
    pub write_counts: Vec<u64>,
}

/// Replays `ir.events` through a fresh [`RramAllocator`] and returns the
/// re-derived resource profile.
///
/// Returns `None` if the stream is malformed (a release before a request,
/// an op touching a cell outside its lifetime, an unknown cell or op) —
/// exactly the streams on which [`analyze_events`] reports structural
/// errors, so a `None` here never goes unexplained.
pub fn certify(ir: &IrProgram) -> Option<Certificate> {
    let mut alloc = RramAllocator::new(ir.allocator);
    let mut addr: Vec<Option<RamAddr>> = vec![None; ir.cells.len()];
    let mut instructions = 0usize;
    let mut rams = 0u32;
    for &event in &ir.events {
        match event {
            Event::Request(c) => {
                let hint = ir.cells.get(c.index())?.hint;
                *addr.get_mut(c.index())? = Some(alloc.request_with_hint(hint));
            }
            Event::Release(c) => {
                let a = addr.get_mut(c.index())?.take()?;
                alloc.release(a);
            }
            Event::Op(i) => {
                let op = ir.ops.get(i as usize)?;
                let z = (*addr.get(op.z.index())?)?;
                instructions += 1;
                alloc.note_write(z);
                rams = rams.max(z.0 + 1);
                for value in [op.a, op.b] {
                    if let Value::Cell(c) = value {
                        let a = (*addr.get(c.index())?)?;
                        rams = rams.max(a.0 + 1);
                    }
                }
            }
        }
    }
    Some(Certificate {
        instructions,
        rams,
        max_cell_writes: alloc.max_writes(),
        write_counts: alloc.write_counts().to_vec(),
    })
}

/// Compares a [`Certificate`] against the emitted artifact, reporting
/// every disagreement as a `PA0008` diagnostic: `#I`, `#R`, and
/// `max_cell_writes` versus [`Rm3Stats`](plim_compiler::Rm3Stats),
/// and the full per-cell wear profile versus
/// [`Rm3Program::static_write_counts`].
pub fn cross_check(certificate: &Certificate, compiled: &Rm3Program) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut mismatch = |message: String| {
        diags.push(Diagnostic {
            lint: Lint::StatsMismatch,
            event: None,
            cell: None,
            node: None,
            message,
        });
    };
    let stats = &compiled.stats;
    if certificate.instructions != stats.instructions {
        mismatch(format!(
            "re-derived #I = {} but Rm3Stats records {}",
            certificate.instructions, stats.instructions
        ));
    }
    if certificate.rams != stats.rams {
        mismatch(format!(
            "re-derived #R = {} but Rm3Stats records {}",
            certificate.rams, stats.rams
        ));
    }
    if certificate.max_cell_writes != stats.max_cell_writes {
        mismatch(format!(
            "re-derived max cell writes = {} but Rm3Stats records {}",
            certificate.max_cell_writes, stats.max_cell_writes
        ));
    }
    let emitted = compiled.static_write_counts();
    let cells = certificate.write_counts.len().max(emitted.len());
    for index in 0..cells {
        let replayed = certificate.write_counts.get(index).copied().unwrap_or(0);
        let actual = emitted.get(index).copied().unwrap_or(0);
        if replayed != actual {
            mismatch(format!(
                "cell X{}: re-derived wear {replayed} but the program performs {actual} writes",
                index + 1
            ));
        }
    }
    diags
}

/// Analyzes the emitted physical program, reporting every read of an
/// uninitialized cell as `PA0001`: operand reads, non-masking destination
/// reads (the old value of `Z` participates in the majority unless both
/// `A` and `B` are differing constants), and outputs resident in
/// never-written cells.
///
/// The instruction findings are [`Rm3Program::uninitialized_reads`], the
/// walk whose first finding
/// [`verify::check_init_discipline`](plim_compiler::verify::check_init_discipline)
/// reports; an output is uninitialized when no instruction writes its
/// cell. In the resulting diagnostics, `event` holds the 0-based
/// instruction index (`pc`), not an event-stream position.
pub fn analyze_program(compiled: &Rm3Program) -> Vec<Diagnostic> {
    let uninit = |event, message| Diagnostic {
        lint: Lint::UseBeforeInit,
        event,
        cell: None,
        node: None,
        message,
    };
    let mut diags: Vec<Diagnostic> = compiled
        .uninitialized_reads()
        .into_iter()
        .map(|read| match read {
            UninitializedRead::Operand(pc, addr) => uninit(
                Some(pc),
                format!("pc {}: instruction reads {addr} before any write", pc + 1),
            ),
            UninitializedRead::Destination(pc, addr) => uninit(
                Some(pc),
                format!(
                    "pc {}: non-masking write observes uninitialized destination {addr}",
                    pc + 1
                ),
            ),
        })
        .collect();
    let writes = compiled.static_write_counts();
    for (name, loc) in compiled.program.outputs() {
        if let OutputLoc::Ram(addr) = *loc {
            if writes.get(addr.index()).copied().unwrap_or(0) == 0 {
                diags.push(uninit(
                    None,
                    format!("output `{name}` reads never-written cell {addr}"),
                ));
            }
        }
    }
    diags
}

/// Runs the full analysis battery over one compilation artifact: the
/// event-stream lints at the check level appropriate for `opt`
/// ([`AnalysisConfig::for_level`]), the physical-program analysis
/// ([`analyze_program`]), and resource certification ([`certify`] +
/// [`cross_check`]).
///
/// An empty result is the artifact's clean bill of health — the claim the
/// `lint_clean` benchmark column and the `plimc lint` exit status stand
/// on.
pub fn analyze_artifact(compilation: &Compilation, opt: OptLevel) -> Vec<Diagnostic> {
    let config = AnalysisConfig::for_level(opt);
    let mut diags = analyze_events(&compilation.ir, &config);
    diags.extend(analyze_program(&compilation.compiled));
    match certify(&compilation.ir) {
        Some(certificate) => diags.extend(cross_check(&certificate, &compilation.compiled)),
        // A malformed stream always carries structural errors from
        // `analyze_events`; the backstop below only guards against the two
        // analyses ever disagreeing about malformedness.
        None if diags.is_empty() => diags.push(Diagnostic {
            lint: Lint::StatsMismatch,
            event: None,
            cell: None,
            node: None,
            message: "event stream could not be replayed for certification".into(),
        }),
        None => {}
    }
    diags
}

/// Per-lint severity policy: `--deny` promotes a lint to [`Severity::Error`],
/// `--allow` suppresses it entirely. Later settings win over earlier ones
/// for the same lint.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    denied: Vec<Lint>,
    allowed: Vec<Lint>,
}

impl LintConfig {
    /// The default policy: every lint at its built-in severity.
    pub fn new() -> Self {
        LintConfig::default()
    }

    /// Treats `lint` as an error regardless of its default severity.
    pub fn deny(&mut self, lint: Lint) {
        self.allowed.retain(|&l| l != lint);
        if !self.denied.contains(&lint) {
            self.denied.push(lint);
        }
    }

    /// Suppresses `lint` entirely.
    pub fn allow(&mut self, lint: Lint) {
        self.denied.retain(|&l| l != lint);
        if !self.allowed.contains(&lint) {
            self.allowed.push(lint);
        }
    }

    /// The severity `lint` is reported at, or `None` if suppressed.
    pub fn effective(&self, lint: Lint) -> Option<Severity> {
        if self.allowed.contains(&lint) {
            return None;
        }
        if self.denied.contains(&lint) {
            return Some(Severity::Error);
        }
        Some(lint.severity())
    }
}

/// A rendered lint run over one artifact: the diagnostics that survived
/// the [`LintConfig`], each with its effective severity.
#[derive(Debug, Clone)]
pub struct Report {
    /// What was analyzed (a circuit name or file path).
    pub subject: String,
    /// Surviving findings with their effective severities, in input order.
    pub findings: Vec<(Severity, Diagnostic)>,
    /// Number of findings the config suppressed.
    pub suppressed: usize,
}

impl Report {
    /// Applies `config` to raw diagnostics.
    pub fn new(
        subject: impl Into<String>,
        diags: impl IntoIterator<Item = Diagnostic>,
        config: &LintConfig,
    ) -> Report {
        let mut findings = Vec::new();
        let mut suppressed = 0usize;
        for diag in diags {
            match config.effective(diag.lint) {
                Some(severity) => findings.push((severity, diag)),
                None => suppressed += 1,
            }
        }
        Report {
            subject: subject.into(),
            findings,
            suppressed,
        }
    }

    /// Number of error-level findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|(s, _)| *s == Severity::Error)
            .count()
    }

    /// Number of warning-level findings.
    pub fn warnings(&self) -> usize {
        self.findings.len() - self.errors()
    }

    /// `true` if no findings survived — warnings included.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// `true` if the run should fail (any error-level finding).
    pub fn failing(&self) -> bool {
        self.errors() > 0
    }

    /// Renders the report as a JSON object — the `plimc lint --json`
    /// element format. Each diagnostic carries its *effective* severity.
    pub fn to_json(&self) -> Json {
        let opt_num = |v: Option<u64>| match v {
            Some(n) => Json::number(n),
            None => Json::Null,
        };
        let diagnostics = self
            .findings
            .iter()
            .map(|(severity, diag)| {
                Json::object([
                    ("lint", Json::string(diag.lint.code())),
                    ("name", Json::string(diag.lint.name())),
                    ("severity", Json::string(severity.name())),
                    ("event", opt_num(diag.event.map(|e| e as u64))),
                    ("cell", opt_num(diag.cell.map(|c| u64::from(c.0)))),
                    ("node", opt_num(diag.node.map(|n| n.index() as u64))),
                    ("message", Json::string(diag.message.clone())),
                ])
            })
            .collect();
        Json::object([
            ("subject", Json::string(self.subject.clone())),
            ("clean", Json::Bool(self.clean())),
            ("failing", Json::Bool(self.failing())),
            ("errors", Json::number(self.errors() as u64)),
            ("warnings", Json::number(self.warnings() as u64)),
            ("suppressed", Json::number(self.suppressed as u64)),
            ("diagnostics", Json::Array(diagnostics)),
        ])
    }
}

impl std::fmt::Display for Report {
    /// The `plimc lint` text format: a one-line verdict, then one indented
    /// line per finding.
    ///
    /// ```text
    /// adder4: 1 error, 2 warnings
    ///   error[PA0002]: event 17: op writes %3 after its release
    /// ```
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let suppressed = match self.suppressed {
            0 => String::new(),
            n => format!(" ({n} suppressed)"),
        };
        if self.clean() {
            return write!(f, "{}: clean{suppressed}", self.subject);
        }
        let plural = |n: usize| if n == 1 { "" } else { "s" };
        let (errors, warnings) = (self.errors(), self.warnings());
        write!(f, "{}: ", self.subject)?;
        match (errors, warnings) {
            (0, w) => write!(f, "{w} warning{}", plural(w))?,
            (e, 0) => write!(f, "{e} error{}", plural(e))?,
            (e, w) => write!(f, "{e} error{}, {w} warning{}", plural(e), plural(w))?,
        }
        write!(f, "{suppressed}")?;
        for (severity, diag) in &self.findings {
            write!(
                f,
                "\n  {}[{}]: {}",
                severity.name(),
                diag.lint.code(),
                diag.message
            )?;
            if let Some(node) = diag.node {
                write!(f, " (node N{})", node.index())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_config_precedence_is_last_wins() {
        let mut config = LintConfig::new();
        config.deny(Lint::StaleComplement);
        assert_eq!(
            config.effective(Lint::StaleComplement),
            Some(Severity::Error)
        );
        config.allow(Lint::StaleComplement);
        assert_eq!(config.effective(Lint::StaleComplement), None);
        config.deny(Lint::StaleComplement);
        assert_eq!(
            config.effective(Lint::StaleComplement),
            Some(Severity::Error)
        );
        // Untouched lints keep their defaults.
        assert_eq!(config.effective(Lint::DeadWrite), Some(Severity::Warning));
        assert_eq!(
            config.effective(Lint::UseAfterRelease),
            Some(Severity::Error)
        );
    }

    #[test]
    fn report_counts_and_rendering() {
        let diag = |lint: Lint, message: &str| Diagnostic {
            lint,
            event: Some(3),
            cell: None,
            node: None,
            message: message.into(),
        };
        let mut config = LintConfig::new();
        config.allow(Lint::DeadWrite);
        let report = Report::new(
            "adder",
            [
                diag(Lint::UseAfterRelease, "boom"),
                diag(Lint::StaleComplement, "meh"),
                diag(Lint::DeadWrite, "gone"),
            ],
            &config,
        );
        assert_eq!(report.errors(), 1);
        assert_eq!(report.warnings(), 1);
        assert_eq!(report.suppressed, 1);
        assert!(report.failing());
        assert!(!report.clean());
        let text = report.to_string();
        assert!(text.starts_with("adder: 1 error, 1 warning (1 suppressed)"));
        assert!(text.contains("error[PA0002]: boom"));
        assert!(text.contains("warning[PA0005]: meh"));
        assert!(!text.contains("PA0006"));
        let json = report.to_json().to_json();
        assert!(json.contains("\"failing\":true"));
        assert!(json.contains("\"suppressed\":1"));
    }

    #[test]
    fn clean_report_renders_and_passes() {
        let report = Report::new("xor", [], &LintConfig::new());
        assert!(report.clean());
        assert!(!report.failing());
        assert_eq!(report.to_string(), "xor: clean");
        assert!(report.to_json().to_json().contains("\"clean\":true"));
    }
}
