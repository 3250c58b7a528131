//! Static dataflow analysis over the IR event stream: the lint engine.
//!
//! One linear pass over [`IrProgram::events`] tracks a per-cell abstract
//! state — uninitialized / live / released / cached-complement — and turns
//! every violation of the machine's cell discipline into a numbered
//! [`Lint`] diagnostic instead of a hard error. The same state machine
//! backs three consumers:
//!
//! * [`passes::PassManager`](super::passes::PassManager) runs it after
//!   every pass as a translation-validation hook, wholesale-reverting any
//!   pass run that *introduces* a diagnostic;
//! * the `plim-analysis` crate re-exports it and layers program-level
//!   analysis and resource certification on top;
//! * `plimc lint` renders the diagnostics as text or JSON.
//!
//! The engine is deliberately total: it never panics on malformed streams
//! (unknown cells or op indexes become diagnostics too), so it can be
//! pointed at hand-doctored or hostile inputs where
//! [`IrProgram::check`]'s `Result` would stop at the first violation.
//!
//! # Cost
//!
//! [`analyze_events`] runs in O(#events + #cells) expected time on any
//! stream, hostile ones included. Every event costs O(1) amortized, with
//! one exception that needs an index: a value-changing write to `z` under
//! node `n` must mark stale every cached complement of `z` recorded for
//! `n`. A dependents index maps each `(source, node)` pair to the cells
//! materialized as `¬source` for `node`. A write to `z` under `n` consumes
//! the `(z, n)` list and visits only those cells. Each visited cell either
//! goes stale or no longer caches that complement, so no later write needs
//! it; each indexed cell is therefore visited at most once. Writes to a
//! cell nothing is indexed under skip the lookup entirely.

use std::collections::HashMap;
use std::fmt;

use mig::NodeId;

use crate::json::Value as Json;
use crate::options::OptLevel;

use super::{CellId, Event, IrOutput, IrProgram, Value};

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not necessarily wrong; reported, never fatal by
    /// default.
    Warning,
    /// A violation of the cell discipline; artifacts carrying one are
    /// rejected by default.
    Error,
}

impl Severity {
    /// Stable lowercase name (`"warning"` / `"error"`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The numbered lints the analyzer can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// `PA0001` — a cell is read (or an output taken) before it holds a
    /// value, or written before its lifetime begins.
    UseBeforeInit,
    /// `PA0002` — a cell is written or read after its release.
    UseAfterRelease,
    /// `PA0003` — a cell is released twice.
    DoubleRelease,
    /// `PA0004` — one cell is requested twice, so two lifetimes would share
    /// it. Its name, `pinned-aliasing`, is what `--deny`/`--allow` and JSON
    /// reports match.
    PinnedAliasing,
    /// `PA0005` — a cached complement is read after its source cell was
    /// recomputed by an op carrying the *same* MIG-node provenance, so the
    /// complement may no longer match.
    StaleComplement,
    /// `PA0006` — a write no later read observes survived an optimized
    /// (`-O2`) artifact; only checked when
    /// [`AnalysisConfig::expect_optimized`] is set.
    DeadWrite,
    /// `PA0007` — a release of a cell whose lifetime never began.
    ReleaseNeverRequested,
    /// `PA0008` — statically re-derived resources (#I, #R, per-cell wear)
    /// disagree with the recorded `Rm3Stats`; reported by the
    /// certification layer in `plim-analysis`, never by
    /// [`analyze_events`].
    StatsMismatch,
}

/// Number of distinct lints (the length of [`Lint::ALL`]).
pub const LINT_COUNT: usize = 8;

impl Lint {
    /// Every lint, in code order.
    pub const ALL: [Lint; LINT_COUNT] = [
        Lint::UseBeforeInit,
        Lint::UseAfterRelease,
        Lint::DoubleRelease,
        Lint::PinnedAliasing,
        Lint::StaleComplement,
        Lint::DeadWrite,
        Lint::ReleaseNeverRequested,
        Lint::StatsMismatch,
    ];

    /// The stable diagnostic code (`"PA0001"` …).
    pub fn code(self) -> &'static str {
        match self {
            Lint::UseBeforeInit => "PA0001",
            Lint::UseAfterRelease => "PA0002",
            Lint::DoubleRelease => "PA0003",
            Lint::PinnedAliasing => "PA0004",
            Lint::StaleComplement => "PA0005",
            Lint::DeadWrite => "PA0006",
            Lint::ReleaseNeverRequested => "PA0007",
            Lint::StatsMismatch => "PA0008",
        }
    }

    /// Short kebab-case name used in reports and `--deny`/`--allow`.
    pub fn name(self) -> &'static str {
        match self {
            Lint::UseBeforeInit => "use-before-init",
            Lint::UseAfterRelease => "use-after-release",
            Lint::DoubleRelease => "double-release",
            Lint::PinnedAliasing => "pinned-aliasing",
            Lint::StaleComplement => "stale-complement",
            Lint::DeadWrite => "dead-write",
            Lint::ReleaseNeverRequested => "release-never-requested",
            Lint::StatsMismatch => "stats-mismatch",
        }
    }

    /// Default severity.
    pub fn severity(self) -> Severity {
        match self {
            Lint::StaleComplement | Lint::DeadWrite => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// Looks a lint up by code (`"PA0001"`) or name
    /// (`"use-before-init"`), case-sensitively.
    pub fn from_code(text: &str) -> Option<Lint> {
        Lint::ALL
            .into_iter()
            .find(|lint| lint.code() == text || lint.name() == text)
    }

    /// The lint's ordinal in [`Lint::ALL`] (stable, used for counting).
    pub fn ordinal(self) -> usize {
        Lint::ALL
            .iter()
            .position(|&l| l == self)
            .expect("every lint is in ALL")
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub lint: Lint,
    /// Position in [`IrProgram::events`] (absent for end-of-program
    /// findings such as undefined outputs).
    pub event: Option<usize>,
    /// The cell at fault, when there is a single one.
    pub cell: Option<CellId>,
    /// Source-MIG provenance of the offending op, when known.
    pub node: Option<NodeId>,
    /// Human-readable, one-line description.
    pub message: String,
}

impl Diagnostic {
    /// Renders the diagnostic as a JSON object (the `plimc lint --json`
    /// element format).
    pub fn to_json(&self) -> Json {
        let opt_num = |v: Option<u64>| match v {
            Some(n) => Json::number(n),
            None => Json::Null,
        };
        Json::object([
            ("lint", Json::string(self.lint.code())),
            ("name", Json::string(self.lint.name())),
            ("severity", Json::string(self.lint.severity().name())),
            ("event", opt_num(self.event.map(|e| e as u64))),
            ("cell", opt_num(self.cell.map(|c| u64::from(c.0)))),
            ("node", opt_num(self.node.map(|n| n.index() as u64))),
            ("message", Json::string(self.message.clone())),
        ])
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.lint.severity().name(),
            self.lint.code(),
            self.message
        )?;
        if let Some(node) = self.node {
            write!(f, " (node N{})", node.index())?;
        }
        Ok(())
    }
}

/// What the analyzer checks beyond the always-on structural lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Report writes no later read observes (`PA0006`). Set for `-O2`
    /// artifacts: no pass removes dead writes, so the promise rests on
    /// lowering (which writes a cell only for a value some op or output
    /// reads) and on forwarding (which renames every reader onto the cell
    /// it claims), and this lint is what checks it.
    pub expect_optimized: bool,
}

impl AnalysisConfig {
    /// Only the always-on structural lints — what the pass-pipeline
    /// translation-validation hook runs: `PA0006` judges finished
    /// artifacts.
    pub fn structural() -> Self {
        AnalysisConfig {
            expect_optimized: false,
        }
    }

    /// The full check set appropriate for a finished artifact compiled at
    /// `opt`. At `-O2` it adds dead writes (`PA0006`): `plimc lint`, the
    /// batch driver's `lint_clean` and the pass pipeline's own tests hold
    /// every optimized stream to having no dead write. The pass pipeline's
    /// tests also hold every lowered (`-O0`) stream to none.
    pub fn for_level(opt: OptLevel) -> Self {
        AnalysisConfig {
            expect_optimized: opt == OptLevel::O2,
        }
    }
}

/// Per-cell abstract state of the linear dataflow pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellState {
    Uninit,
    Requested,
    Live,
    Released,
}

/// A recorded cached complement: `cell` holds `¬source`, materialized for
/// MIG node `node`; `stale` is set when `source` is recomputed under the
/// same provenance.
#[derive(Debug, Clone, Copy)]
struct Complement {
    source: CellId,
    node: NodeId,
    stale: bool,
}

/// Runs the analyzer over the event stream and returns every finding, in
/// event order (end-of-program findings last).
///
/// A structurally valid stream ([`IrProgram::check`] passes) can still
/// carry `PA0005` and `PA0006` findings; conversely every `check` error maps
/// to one of the structural lints, so `analyze_events(..).is_empty()`
/// implies `check().is_ok()`.
pub fn analyze_events(ir: &IrProgram, config: &AnalysisConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut state = vec![CellState::Uninit; ir.cells.len()];
    let mut complement: Vec<Option<Complement>> = vec![None; ir.cells.len()];
    // The constant a cell provably holds, fed by masking writes only. Used
    // to recognize the complement-materialization idiom (reset, then
    // `z ← ⟨1 s̄ z⟩` over the known-zero cell): a *main* RM3 can carry the
    // same operand shape, but never over a known-zero destination.
    let mut known: Vec<Option<bool>> = vec![None; ir.cells.len()];
    // The dependents index: `(source, node)` -> the cells recorded as
    // caching `¬source` for `node` since that pair was last written. A
    // cell re-materialized or re-requested since its push keeps a dead
    // entry here, which the complement check skips when the list is
    // consumed.
    let mut dependents: HashMap<(CellId, NodeId), Vec<CellId>> = HashMap::new();
    // Per source cell: how many cells its lists hold, so writes to cells
    // nothing depends on skip the lookup.
    let mut indexed = vec![0usize; ir.cells.len()];

    for (pos, &event) in ir.events.iter().enumerate() {
        match event {
            Event::Request(c) => {
                let Some(s) = state.get_mut(c.index()) else {
                    diags.push(unknown_cell(pos, c));
                    continue;
                };
                if *s != CellState::Uninit {
                    diags.push(Diagnostic {
                        lint: Lint::PinnedAliasing,
                        event: Some(pos),
                        cell: Some(c),
                        node: None,
                        message: format!("event {pos}: %{} requested twice", c.0),
                    });
                }
                *s = CellState::Requested;
                complement[c.index()] = None;
                known[c.index()] = None;
            }
            Event::Release(c) => {
                let Some(s) = state.get_mut(c.index()) else {
                    diags.push(unknown_cell(pos, c));
                    continue;
                };
                match *s {
                    CellState::Uninit => diags.push(Diagnostic {
                        lint: Lint::ReleaseNeverRequested,
                        event: Some(pos),
                        cell: Some(c),
                        node: None,
                        message: format!("event {pos}: %{} released but never requested", c.0),
                    }),
                    CellState::Released => diags.push(Diagnostic {
                        lint: Lint::DoubleRelease,
                        event: Some(pos),
                        cell: Some(c),
                        node: None,
                        message: format!("event {pos}: %{} released twice", c.0),
                    }),
                    CellState::Requested | CellState::Live => {}
                }
                *s = CellState::Released;
            }
            Event::Op(i) => {
                let Some(op) = ir.ops.get(i as usize) else {
                    diags.push(Diagnostic {
                        lint: Lint::UseBeforeInit,
                        event: Some(pos),
                        cell: None,
                        node: None,
                        message: format!("event {pos}: references unknown op {i}"),
                    });
                    continue;
                };
                for c in op.reads() {
                    match state.get(c.index()).copied() {
                        Some(CellState::Live) => {
                            if let Some(entry) = complement.get(c.index()).and_then(|e| *e) {
                                if entry.stale {
                                    diags.push(Diagnostic {
                                        lint: Lint::StaleComplement,
                                        event: Some(pos),
                                        cell: Some(c),
                                        node: op.node,
                                        message: format!(
                                            "event {pos}: op reads %{} caching ¬%{}, \
                                             but %{} was recomputed since",
                                            c.0, entry.source.0, entry.source.0
                                        ),
                                    });
                                }
                            }
                        }
                        Some(CellState::Uninit | CellState::Requested) => {
                            diags.push(Diagnostic {
                                lint: Lint::UseBeforeInit,
                                event: Some(pos),
                                cell: Some(c),
                                node: op.node,
                                message: format!(
                                    "event {pos}: op reads %{} which holds no value",
                                    c.0
                                ),
                            });
                        }
                        Some(CellState::Released) => {
                            diags.push(Diagnostic {
                                lint: Lint::UseAfterRelease,
                                event: Some(pos),
                                cell: Some(c),
                                node: op.node,
                                message: format!(
                                    "event {pos}: op reads %{} after its release",
                                    c.0
                                ),
                            });
                        }
                        None => diags.push(unknown_cell(pos, c)),
                    }
                }
                let Some(s) = state.get_mut(op.z.index()) else {
                    diags.push(unknown_cell(pos, op.z));
                    continue;
                };
                match *s {
                    CellState::Uninit => diags.push(Diagnostic {
                        lint: Lint::UseBeforeInit,
                        event: Some(pos),
                        cell: Some(op.z),
                        node: op.node,
                        message: format!(
                            "event {pos}: op writes %{} before its lifetime begins",
                            op.z.0
                        ),
                    }),
                    CellState::Released => diags.push(Diagnostic {
                        lint: Lint::UseAfterRelease,
                        event: Some(pos),
                        cell: Some(op.z),
                        node: op.node,
                        message: format!("event {pos}: op writes %{} after its release", op.z.0),
                    }),
                    CellState::Requested | CellState::Live => {}
                }
                *s = CellState::Live;
                // `⟨x x̄ z⟩` with equal constants is an identity write: the
                // value is untouched, so neither the complement map nor the
                // known-constant map moves.
                if !op.identity() {
                    // Cached-complement bookkeeping. The materialization
                    // idiom is `z ← ⟨1 s̄ z⟩` over a freshly *reset* cell —
                    // that and only that computes ¬s. The same operand
                    // shape on a cell holding a meaningful value is an
                    // ordinary majority op.
                    let was_zero = known[op.z.index()] == Some(false);
                    complement[op.z.index()] = match (op.a, op.b, op.node) {
                        (Value::Const(true), Value::Cell(source), Some(node)) if was_zero => {
                            // No write reaches an unknown source cell, so
                            // nothing is indexed under one.
                            if let Some(count) = indexed.get_mut(source.index()) {
                                *count += 1;
                                dependents.entry((source, node)).or_default().push(op.z);
                            }
                            Some(Complement {
                                source,
                                node,
                                stale: false,
                            })
                        }
                        _ => None,
                    };
                    known[op.z.index()] = match (op.a, op.b) {
                        (Value::Const(x), Value::Const(y)) if x != y => Some(x),
                        _ => None,
                    };
                    // A value-changing write under node provenance `n`
                    // invalidates cached complements of the same cell *for
                    // the same node*: that is a recomputation, which
                    // correct lowering never emits while the complement is
                    // still consumed. Forwarding retargets carry the *new*
                    // node's provenance and so never trip this. Only the
                    // cells indexed under `(z, n)` can be affected, and the
                    // walk consumes their list: each ends up stale or no
                    // longer caching `¬z` for `n`, which no later write
                    // changes. `z` itself is skipped, as any later
                    // value-changing write to `z` rewrites its entry first.
                    if let Some(node) = op.node.filter(|_| indexed[op.z.index()] > 0) {
                        let list = dependents.remove(&(op.z, node)).unwrap_or_default();
                        indexed[op.z.index()] -= list.len();
                        for cell in list {
                            if cell == op.z {
                                continue;
                            }
                            if let Some(entry) = &mut complement[cell.index()] {
                                if entry.source == op.z && entry.node == node {
                                    entry.stale = true;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    for (name, output) in &ir.outputs {
        if let IrOutput::Cell(c) = output {
            if state.get(c.index()).copied() != Some(CellState::Live) {
                diags.push(Diagnostic {
                    lint: Lint::UseBeforeInit,
                    event: None,
                    cell: Some(*c),
                    node: None,
                    message: format!(
                        "output `{name}` reads %{} which is not live at program end",
                        c.0
                    ),
                });
            }
        }
    }

    if config.expect_optimized {
        dead_writes(ir, &mut diags);
    }

    diags.sort_by_key(|d| (d.event.unwrap_or(usize::MAX), d.lint.ordinal()));
    diags
}

/// A backward liveness sweep over virtual cells: every write no later
/// instruction (as an operand or as a non-masking destination's old value)
/// and no output observes before the cell is re-initialized becomes a
/// `PA0006` finding.
fn dead_writes(ir: &IrProgram, diags: &mut Vec<Diagnostic>) {
    let mut needed = vec![false; ir.cells.len()];
    for (_, output) in &ir.outputs {
        if let IrOutput::Cell(c) = output {
            if let Some(slot) = needed.get_mut(c.index()) {
                *slot = true;
            }
        }
    }
    for pos in (0..ir.events.len()).rev() {
        let Some(op) = ir.op_of(ir.events[pos]) else {
            continue;
        };
        let Some(&z_needed) = needed.get(op.z.index()) else {
            continue; // unknown cell: already reported by the forward pass
        };
        if !z_needed {
            diags.push(Diagnostic {
                lint: Lint::DeadWrite,
                event: Some(pos),
                cell: Some(op.z),
                node: op.node,
                message: format!(
                    "event {pos}: write to %{} is never read (dead write in an optimized stream)",
                    op.z.0
                ),
            });
            continue;
        }
        needed[op.z.index()] = !op.masking();
        for value in [op.a, op.b] {
            if let Value::Cell(c) = value {
                if let Some(slot) = needed.get_mut(c.index()) {
                    *slot = true;
                }
            }
        }
    }
}

fn unknown_cell(pos: usize, c: CellId) -> Diagnostic {
    Diagnostic {
        lint: Lint::UseBeforeInit,
        event: Some(pos),
        cell: Some(c),
        node: None,
        message: format!("event {pos}: references unknown cell %{}", c.0),
    }
}

/// Per-lint finding counts, indexed by [`Lint::ordinal`].
pub fn lint_counts(diags: &[Diagnostic]) -> [usize; LINT_COUNT] {
    let mut counts = [0usize; LINT_COUNT];
    for diag in diags {
        counts[diag.lint.ordinal()] += 1;
    }
    counts
}

/// Whether `after` carries more findings of any lint than `before` — the
/// pass-pipeline revert criterion.
pub fn introduces(before: &[usize; LINT_COUNT], after: &[usize; LINT_COUNT]) -> bool {
    before.iter().zip(after.iter()).any(|(b, a)| a > b)
}
