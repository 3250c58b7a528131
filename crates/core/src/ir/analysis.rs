//! Static analysis of compiled artifacts: the one checker.
//!
//! [`analyze_events`] walks [`IrProgram::events`] once, tracking a per-cell
//! abstract state — uninitialized / live / released / cached-complement —
//! and turns every violation of the machine's cell discipline into a
//! numbered [`Lint`] diagnostic. [`analyze_artifact`] adds the emitted
//! program's analysis ([`analyze_program`]) and resource certification
//! ([`certify`] / [`cross_check`]), a replay independent of the emitter
//! that re-derives `#I`, `#R` and the per-cell wear. `plimc lint`, the
//! bench `lint_clean` column and table1's
//! [`JobResult::lint_clean`](crate::batch::JobResult::lint_clean) run
//! [`analyze_artifact`]; [`PassManager`](super::passes::PassManager) runs
//! the structural lints after an editing `forward` run, reverting a run
//! that *introduces* a finding and panicking on an error-level finding in
//! a run that stands. [`doctor`] corrupts streams on purpose, so a dry run
//! can prove the battery fires.
//!
//! The engine is total: it never panics on a malformed stream (unknown
//! cells or op indexes become diagnostics too), so it reports every
//! violation of a hand-doctored or hostile input, not only the first.
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

use mig::hash::KeyedState;
use mig::NodeId;
use plim::{OutputLoc, RamAddr};

use crate::alloc::RramAllocator;
use crate::json::Value as Json;
use crate::options::OptLevel;
use crate::{Compilation, Rm3Program, UninitializedRead};

use super::{CellId, Event, IrOutput, IrProgram, Value};

pub mod doctor;

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
    /// disagree with the recorded `Rm3Stats`; reported by
    /// [`cross_check`], never by [`analyze_events`].
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

    /// The lint's ordinal in [`Lint::ALL`] (stable, used for counting):
    /// `ALL` lists the lints in declaration order.
    pub fn ordinal(self) -> usize {
        self as usize
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
    /// A `PA0008` finding, which names no event, cell or node.
    fn stats_mismatch(message: String) -> Self {
        Diagnostic {
            lint: Lint::StatsMismatch,
            event: None,
            cell: None,
            node: None,
            message,
        }
    }

    /// Renders the finding at `severity` as a JSON object (the `plimc lint
    /// --json` element format).
    pub fn to_json(&self, severity: Severity) -> Json {
        let opt_num = |v: Option<u64>| match v {
            Some(n) => Json::number(n),
            None => Json::Null,
        };
        Json::object([
            ("lint", Json::string(self.lint.code())),
            ("name", Json::string(self.lint.name())),
            ("severity", Json::string(severity.name())),
            ("event", opt_num(self.event.map(|e| e as u64))),
            ("cell", opt_num(self.cell.map(|c| u64::from(c.0)))),
            ("node", opt_num(self.node.map(|n| n.index() as u64))),
            ("message", Json::string(self.message.clone())),
        ])
    }

    /// Writes the finding at `severity` as one line of text (the `plimc
    /// lint` format): `error[PA0002]: <message>`, then ` (node N<i>)` when
    /// the provenance is known.
    pub fn write_text(&self, f: &mut impl fmt::Write, severity: Severity) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            severity.name(),
            self.lint.code(),
            self.message
        )?;
        if let Some(node) = self.node {
            write!(f, " (node N{})", node.index())?;
        }
        Ok(())
    }
}

impl fmt::Display for Diagnostic {
    /// The text line at the lint's default severity.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_text(f, self.lint.severity())
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

/// The first error-level finding of the structural lints, or `None` for a
/// stream whose only findings, if any, are warnings.
pub fn first_error(ir: &IrProgram) -> Option<Diagnostic> {
    analyze_events(ir, &AnalysisConfig::structural())
        .into_iter()
        .find(|d| d.lint.severity() == Severity::Error)
}

/// Per-cell abstract state of the linear dataflow pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum CellState {
    #[default]
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

/// What the linear dataflow pass knows about one cell.
#[derive(Debug, Clone, Copy, Default)]
struct CellFacts {
    state: CellState,
    /// The constant the cell provably holds, fed by masking writes only.
    /// Used to recognize the complement-materialization idiom (reset, then
    /// `z ← ⟨1 s̄ z⟩` over the known-zero cell): a *main* RM3 can carry the
    /// same operand shape, but never over a known-zero destination.
    known: Option<bool>,
    /// The complement the cell caches.
    complement: Option<Complement>,
    /// How many cells the dependents index lists under this cell as the
    /// source, so writes to cells nothing depends on skip the lookup.
    indexed: usize,
}

/// Runs the analyzer over the event stream and returns every finding, in
/// event order (end-of-program findings last).
///
/// The error-level findings are the stream's structural faults: per cell,
/// exactly one request before every other touch, at most one release
/// after every other touch, no read of a cell that holds no value (the
/// machine's initialization discipline, lifted to virtual cells), and
/// every output cell live at program end. A stream without them is one
/// [`place`](super::place) can replay; it can still carry the `PA0005`
/// and `PA0006` warnings.
pub fn analyze_events(ir: &IrProgram, config: &AnalysisConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut cells = vec![CellFacts::default(); ir.cells.len()];
    // The dependents index: `(source, node)` -> the cells recorded as
    // caching `¬source` for `node` since that pair was last written. A
    // cell re-materialized or re-requested since its push keeps a dead
    // entry here, which the complement check skips when the list is
    // consumed.
    let mut dependents: HashMap<u128, Vec<CellId>, KeyedState> = HashMap::default();
    let key = |source: CellId, node: NodeId| u128::from(source.0) << 64 | node.index() as u128;

    for (pos, &event) in ir.events.iter().enumerate() {
        match event {
            Event::Request(c) => {
                let Some(facts) = cells.get_mut(c.index()) else {
                    diags.push(unknown_cell(pos, c));
                    continue;
                };
                if facts.state != CellState::Uninit {
                    diags.push(Diagnostic {
                        lint: Lint::PinnedAliasing,
                        event: Some(pos),
                        cell: Some(c),
                        node: None,
                        message: format!("event {pos}: %{} requested twice", c.0),
                    });
                }
                facts.state = CellState::Requested;
                facts.complement = None;
                facts.known = None;
            }
            Event::Release(c) => {
                let Some(facts) = cells.get_mut(c.index()) else {
                    diags.push(unknown_cell(pos, c));
                    continue;
                };
                match facts.state {
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
                facts.state = CellState::Released;
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
                // The reads of `op.reads()`, spelled out: this loop is the
                // per-trial check of `-O2` in debug builds.
                if let Value::Cell(c) = op.a {
                    check_read(&cells, pos, op.node, c, &mut diags);
                }
                if let Value::Cell(c) = op.b {
                    check_read(&cells, pos, op.node, c, &mut diags);
                }
                if !op.masking() {
                    check_read(&cells, pos, op.node, op.z, &mut diags);
                }
                let z = op.z.index();
                let Some(facts) = cells.get_mut(z) else {
                    diags.push(unknown_cell(pos, op.z));
                    continue;
                };
                match facts.state {
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
                facts.state = CellState::Live;
                // `⟨x x̄ z⟩` with equal constants is an identity write: the
                // value is untouched, so neither the complement nor the
                // known constant moves.
                if op.identity() {
                    continue;
                }
                // Cached-complement bookkeeping. The materialization idiom
                // is `z ← ⟨1 s̄ z⟩` over a freshly *reset* cell — that and
                // only that computes ¬s. The same operand shape on a cell
                // holding a meaningful value is an ordinary majority op.
                let was_zero = facts.known == Some(false);
                facts.known = None;
                facts.complement = None;
                match (op.a, op.b, op.node) {
                    // Not an identity write, so a masking one.
                    (Value::Const(x), Value::Const(_), _) => facts.known = Some(x),
                    (Value::Const(true), Value::Cell(source), Some(node)) if was_zero => {
                        facts.complement = Some(Complement {
                            source,
                            node,
                            stale: false,
                        });
                        // No write reaches an unknown source cell, so
                        // nothing is indexed under one.
                        if let Some(source_facts) = cells.get_mut(source.index()) {
                            source_facts.indexed += 1;
                            dependents.entry(key(source, node)).or_default().push(op.z);
                        }
                    }
                    _ => {}
                }
                // A value-changing write under node provenance `n`
                // invalidates cached complements of the same cell *for the
                // same node*: that is a recomputation, which correct
                // lowering never emits while the complement is still
                // consumed. Forwarding retargets carry the *new* node's
                // provenance and so never trip this. Only the cells indexed
                // under `(z, n)` can be affected, and the walk consumes
                // their list: each ends up stale or no longer caching `¬z`
                // for `n`, which no later write changes. `z` itself is
                // skipped, as any later value-changing write to `z`
                // rewrites its entry first.
                if let Some(node) = op.node.filter(|_| cells[z].indexed > 0) {
                    let list = dependents.remove(&key(op.z, node)).unwrap_or_default();
                    cells[z].indexed -= list.len();
                    for cell in list {
                        if cell == op.z {
                            continue;
                        }
                        if let Some(entry) = &mut cells[cell.index()].complement {
                            if entry.source == op.z && entry.node == node {
                                entry.stale = true;
                            }
                        }
                    }
                }
            }
        }
    }

    for (name, output) in &ir.outputs {
        if let IrOutput::Cell(c) = output {
            if cells.get(c.index()).map(|facts| facts.state) != Some(CellState::Live) {
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

/// The findings of one op's read of `c` at event `pos`: a read of a cell
/// that holds no value, of a released or unknown cell, or of a cached
/// complement gone stale.
fn check_read(
    cells: &[CellFacts],
    pos: usize,
    node: Option<NodeId>,
    c: CellId,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(facts) = cells.get(c.index()) else {
        diags.push(unknown_cell(pos, c));
        return;
    };
    let (lint, message) = match (facts.state, facts.complement) {
        (CellState::Live, Some(entry)) if entry.stale => (
            Lint::StaleComplement,
            format!(
                "event {pos}: op reads %{} caching ¬%{}, but %{} was recomputed since",
                c.0, entry.source.0, entry.source.0
            ),
        ),
        (CellState::Live, _) => return,
        (CellState::Uninit | CellState::Requested, _) => (
            Lint::UseBeforeInit,
            format!("event {pos}: op reads %{} which holds no value", c.0),
        ),
        (CellState::Released, _) => (
            Lint::UseAfterRelease,
            format!("event {pos}: op reads %{} after its release", c.0),
        ),
    };
    diags.push(Diagnostic {
        lint,
        event: Some(pos),
        cell: Some(c),
        node,
        message,
    });
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

/// Resources re-derived from the event stream alone, by replaying it
/// through a fresh allocator of the program's strategy — no numbers are
/// taken from the emitter or from [`Rm3Stats`](crate::Rm3Stats).
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
/// `max_cell_writes` versus [`Rm3Stats`](crate::Rm3Stats), and the full
/// per-cell wear profile versus [`Rm3Program::static_write_counts`].
pub fn cross_check(certificate: &Certificate, compiled: &Rm3Program) -> Vec<Diagnostic> {
    let stats = &compiled.stats;
    let mut diags: Vec<Diagnostic> = [
        (
            "#I",
            certificate.instructions as u64,
            stats.instructions as u64,
        ),
        ("#R", u64::from(certificate.rams), u64::from(stats.rams)),
        (
            "max cell writes",
            certificate.max_cell_writes,
            stats.max_cell_writes,
        ),
    ]
    .into_iter()
    .filter(|(_, replayed, recorded)| replayed != recorded)
    .map(|(what, replayed, recorded)| {
        Diagnostic::stats_mismatch(format!(
            "re-derived {what} = {replayed} but Rm3Stats records {recorded}"
        ))
    })
    .collect();
    let emitted = compiled.static_write_counts();
    let cells = certificate.write_counts.len().max(emitted.len());
    for index in 0..cells {
        let replayed = certificate.write_counts.get(index).copied().unwrap_or(0);
        let actual = emitted.get(index).copied().unwrap_or(0);
        if replayed != actual {
            diags.push(Diagnostic::stats_mismatch(format!(
                "cell X{}: re-derived wear {replayed} but the program performs {actual} writes",
                index + 1
            )));
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
/// [`verify::check_init_discipline`](crate::verify::check_init_discipline)
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
    let mut diags = analyze_events(&compilation.ir, &AnalysisConfig::for_level(opt));
    diags.extend(analyze_program(&compilation.compiled));
    match certify(&compilation.ir) {
        Some(certificate) => diags.extend(cross_check(&certificate, &compilation.compiled)),
        // A malformed stream always carries structural errors from
        // `analyze_events`; this guards against the two analyses ever
        // disagreeing about malformedness.
        None if diags.is_empty() => diags.push(Diagnostic::stats_mismatch(
            "event stream could not be replayed for certification".into(),
        )),
        None => {}
    }
    diags
}
