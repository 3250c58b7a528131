//! # plim-service — the `plimd` compile service and the `plimc` driver
//!
//! Every consumer of the MIG → PLiM pipeline used to pay the full
//! rewrite + compile cost per invocation, even for identical inputs. This
//! crate turns the pipeline into a long-running daemon, `plimd`: a
//! std-only TCP service that accepts compile requests as newline-delimited
//! JSON, queues compile work for a worker pool
//! ([`plim_parallel::pool::WorkerPool`]), and serves repeats from a
//! content-addressed result cache
//! ([`plim_compiler::cache::LruCache`]) keyed by the canonical structural
//! digest of the input graph ([`mig::canon::structural_digest`]) plus a
//! fingerprint of the request options.
//!
//! Because the digest is order-independent and Ω.I-normalized,
//! syntactically different dumps of the same circuit hit the same cache
//! entry; a warm request skips parsing-onward work entirely (no rewrite,
//! no compile, no verification) and returns the stored artifact.
//!
//! ## The v2 server core
//!
//! The daemon fronts the worker pool with a single-threaded,
//! edge-triggered reactor ([`poller`] wraps `epoll`/`kqueue`; the event
//! loop lives in the private `reactor` module). One thread owns every
//! connection: requests are parsed out of per-connection read buffers
//! (arbitrarily pipelined), compile work joins one FIFO job queue that
//! any idle worker takes from — identical cold requests attach to one
//! in-flight compile instead of queueing their own — and completions
//! flow back over a wakeable queue
//! ([`plim_parallel::queue::CompletionQueue`]) to be written out *in
//! request order*. A connection with [`server::ServerConfig::max_pipeline`]
//! responses outstanding stops being read until it drains — backpressure
//! reaches the client as TCP flow control, not memory growth. Idle
//! connections are reaped after [`server::ServerConfig::idle_timeout`];
//! `shutdown` drains in-flight work gracefully before the process exits.
//!
//! With `--store DIR`, compiled artifacts are also written through to an
//! on-disk content-addressed store ([`plim_compiler::ArtifactStore`])
//! keyed exactly like the LRU, so a restarted daemon serves repeats
//! warm from its first request.
//!
//! The crate also hosts the `plimc` command-line driver (moved here from
//! `plim-compiler` so the `serve`/`request`/`loadtest` subcommands can
//! link the service) and splits the driver's compile path into the
//! reusable [`pipeline`] module — the daemon and the offline CLI run the
//! *same* functions, which is what makes served output byte-identical to
//! offline output (and what [`loadtest`] verifies under load).
//!
//! ## Modules
//!
//! * [`bench`](mod@bench) — the `plimc bench` driver: one batch run that measures
//!   the Table 1 rows and every `BENCH.json` column;
//! * [`benchfile`] — the `BENCH.json` column table, reader/writer and the
//!   `plimc bench-diff` regression gate;
//! * [`pipeline`] — parse / optimize / compile / verify / emit, shared by
//!   `plimc` offline mode and the daemon; it calls the e-graph
//!   (`plim_egraph::optimize_compiled`) directly, and every target is
//!   built into `plim-compiler`, so no binary or test sets anything up
//!   before compiling;
//! * [`protocol`] — the v2 wire protocol (requests, responses,
//!   error codes, stats), built on [`plim_compiler::json`];
//! * [`poller`] — the safe edge-triggered readiness facade over
//!   `epoll`/`kqueue` (the workspace's only `unsafe` code);
//! * [`server`] — daemon configuration, job dispatch, the single-flight
//!   table, cache and store plumbing, `serve` CLI;
//! * [`flags`] — the one flag reader every `plimc` subcommand and `plimd`
//!   walk their arguments with;
//! * [`client`] — the blocking client used by `plimc request`, with
//!   timeout and connect-retry support;
//! * [`loadtest`] — the `plimc loadtest` harness: thousands of concurrent
//!   pipelined connections, byte-compared against the offline pipeline.
//!
//! At the root, [`LintConfig`] and [`Report`] turn the findings of
//! [`analyze_artifact`](plim_compiler::ir::analysis::analyze_artifact)
//! into `plimc lint`'s verdict: per-lint `--deny`/`--allow` and the text
//! and `--json` reports.
//!
//! ## Wire protocol (v2)
//!
//! One JSON object per line, one response line per request, responses in
//! request order; see [`protocol`] for the exact fields and error codes.
//! Every request carries `"v":2`, and every error is a `{"code","message"}`
//! object. A session transcript:
//!
//! ```text
//! → {"v":2,"op":"compile","format":"mig","source":"inputs a b\nn = maj(0, a, b)\noutput f = n\n"}
//! ← {"ok":true,"op":"compile","cached":false,"key":"…","instructions":3,"rams":1,"max_cell_writes":3,"output":"01: …"}
//! → {"v":2,"op":"stats"}
//! ← {"ok":true,"op":"stats","hits":0,"misses":1,…,"store":{"hits":0,"misses":1,"corrupt":0,"writes":1},…}
//! → {"v":2,"op":"nonsense"}
//! ← {"ok":false,"error":{"code":"unknown_op","message":"unknown op `nonsense`"}}
//! → {"op":"stats"}
//! ← {"ok":false,"error":{"code":"unsupported_version","message":"unsupported protocol version none (this daemon speaks v2)"}}
//! → {"v":2,"op":"shutdown"}
//! ← {"ok":true,"op":"shutdown"}
//! ```

pub mod bench;
pub mod benchfile;
pub mod client;
pub mod flags;
pub mod loadtest;
pub mod pipeline;
pub mod poller;
pub mod protocol;
mod reactor;
pub mod server;

use std::fmt;

use plim_compiler::ir::analysis::{Diagnostic, Lint, Severity, LINT_COUNT};
use plim_compiler::json::Value as Json;

/// Per-lint severity policy: `--deny` promotes a lint to [`Severity::Error`],
/// `--allow` suppresses it entirely. A later setting for the same lint wins
/// over an earlier one.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Each lint's severity, indexed by [`Lint::ordinal`]; `None` when
    /// suppressed.
    severity: [Option<Severity>; LINT_COUNT],
}

impl Default for LintConfig {
    /// Every lint at its built-in severity.
    fn default() -> Self {
        LintConfig {
            severity: Lint::ALL.map(|lint| Some(lint.severity())),
        }
    }
}

impl LintConfig {
    /// Treats `lint` as an error regardless of its default severity.
    pub fn deny(&mut self, lint: Lint) {
        self.severity[lint.ordinal()] = Some(Severity::Error);
    }

    /// Suppresses `lint` entirely.
    pub fn allow(&mut self, lint: Lint) {
        self.severity[lint.ordinal()] = None;
    }

    /// The severity `lint` is reported at, or `None` if suppressed.
    pub fn effective(&self, lint: Lint) -> Option<Severity> {
        self.severity[lint.ordinal()]
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
        let diagnostics = self
            .findings
            .iter()
            .map(|(severity, diag)| diag.to_json(*severity))
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

impl fmt::Display for Report {
    /// The `plimc lint` text format: a one-line verdict, then one indented
    /// line per finding.
    ///
    /// ```text
    /// adder4: 1 error, 2 warnings
    ///   error[PA0002]: event 17: op writes %3 after its release
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
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
            f.write_str("\n  ")?;
            diag.write_text(f, *severity)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_config_precedence_is_last_wins() {
        let mut config = LintConfig::default();
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
        let mut config = LintConfig::default();
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
        let report = Report::new("xor", [], &LintConfig::default());
        assert!(report.clean());
        assert!(!report.failing());
        assert_eq!(report.to_string(), "xor: clean");
        assert!(report.to_json().to_json().contains("\"clean\":true"));
    }
}
