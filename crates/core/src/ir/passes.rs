//! The optimizing pass pipeline run between lowering and emission.
//!
//! One pass rewrites the IR event stream under the [`OptLevel`] chosen in
//! [`crate::CompilerOptions`]: [`forward`], in-place-overwrite forwarding.
//! When a node's destination value was materialized into a fresh cell (a
//! constant load or a copy) even though a cell holding one of the
//! instruction's inputs dies *physically* unread afterwards, the
//! materialization is deleted and the instruction retargeted to overwrite
//! the dying cell in place, moving it past that cell's last read. This
//! harvests slack no scheduler can see: the lowering's reference counts
//! overestimate lifetimes, because consumers that read a cached complement
//! never touch the value cell. A run indexes cells by stable event keys
//! once, and each scan walks the stream once, resuming where it committed,
//! so its bookkeeping per commit is proportional to the edit, and it scores
//! each trial edit through the backend's [`TrialScorer`], which replays
//! only from the edit to where the replay reconverges with the committed
//! one (see [`forward`]'s cost section). Between scans,
//! [`drop_identity_writes`] removes the identity writes `⟨c c̄ z⟩` (both
//! operands the same constant, so the cell keeps its value) a scan leaves:
//! lowering emits none, and a scan leaves one each time its rotate
//! candidate claims the source `s` of a copy `⟨s 1̄ x⟩`, which turns the
//! copy's consumer into `⟨1 1̄ s⟩`. [`forward`] rescans until a scan
//! commits nothing.
//!
//! `-O0` runs nothing, and `-O2` runs `forward` once. The [`PassManager`]
//! calls it; if it edited the stream, the manager lint-checks the IR,
//! re-checks it structurally, and — in debug/test builds — replays it
//! through the machine-simulator equivalence check against the source MIG,
//! so a broken pass fails loudly at the pass boundary, not in some
//! downstream consumer.
//!
//! No pass removes dead writes, re-initializations of a cell already
//! holding the constant, or ops whose result resident constants fix,
//! because no stream the product makes has any. `Mig::maj` applies Ω.M, so
//! no node has two constant children, and lowering puts a constant into a
//! cell only as a destination initialization, once per virtual cell
//! lifetime. Lowering writes a cell only for a value some op or output
//! reads, and [`forward`] renames every reader onto the cell it claims.
//! The analyzer's `PA0006` lint checks for dead writes on every `-O2`
//! artifact it is pointed at, and seeded and suite tests in this module
//! check lowered and optimized streams for every pattern, identity writes
//! included.

use mig::hash::KeyedState;
use mig::Mig;

use crate::backend::{Backend, Cost, TrialCounts, TrialEdit, TrialScorer};
use crate::options::OptLevel;

use super::analysis::{self, Severity};
use super::{CellId, Event, IrOp, IrOutput, IrProgram, Value};

/// One pass execution's accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassRun {
    /// The pass that ran.
    pub pass: &'static str,
    /// `#I` before the pass.
    pub instructions_before: usize,
    /// `#I` after the pass.
    pub instructions_after: usize,
    /// Edits (removals + rewrites) the pass applied.
    pub edits: usize,
    /// The trials the pass scored, the events their scoring replayed, and
    /// the trials finished early by reconvergence — deterministic, like
    /// every other field.
    pub scoring: TrialCounts,
    /// Forward's bookkeeping outside the scorer, counted.
    pub bookkeeping: ForwardCounts,
}

impl PassRun {
    /// Instructions this run removed (never negative: passes only shrink
    /// or rewrite the stream).
    pub fn removed(&self) -> usize {
        self.instructions_before - self.instructions_after
    }
}

/// Accounting for a whole pipeline execution.
///
/// The per-run `#I` deltas always sum to the end-to-end delta — each run's
/// `instructions_before` is the previous run's `instructions_after` — which
/// `tests/ir_passes.rs` pins as an invariant.
#[derive(Debug, Clone, Default)]
pub struct PassReport {
    /// Every pass execution, in order (including no-op runs).
    pub runs: Vec<PassRun>,
}

impl PassReport {
    /// Total instructions removed across all runs.
    pub fn total_removed(&self) -> usize {
        self.runs.iter().map(PassRun::removed).sum()
    }

    /// What scoring trial edits cost across all runs.
    pub fn scoring(&self) -> TrialCounts {
        let mut total = TrialCounts::default();
        for run in &self.runs {
            total += run.scoring;
        }
        total
    }
}

/// Runs the pipeline an [`OptLevel`] selects, verifying its result.
#[derive(Debug)]
pub struct PassManager {
    /// Whether the `-O2` pipeline runs; `-O0` runs nothing.
    optimize: bool,
}

impl PassManager {
    /// The pipeline of an optimization level.
    pub fn for_level(opt: OptLevel) -> Self {
        PassManager {
            optimize: opt == OptLevel::O2,
        }
    }

    /// Runs the pipeline, returning its accounting: no run at `-O0`, one
    /// [`forward`] run at `-O2`.
    ///
    /// Trial edits are scored under `backend`'s cost model, and so is the
    /// quality gate: [`forward`] commits only trials that
    /// [improve on](Cost::improves_on) the incumbent. Its scorers price the
    /// stream it is given and the stream it returns, where a scan trialed
    /// anything, so the manager replays neither; debug builds check such a
    /// price against a full replay.
    ///
    /// Translation validation: a run that edited the stream and raises any
    /// structural lint count over the pipeline's entry is reverted
    /// wholesale. The entry is linted only then, from the snapshot the
    /// revert would restore, so a run that edits nothing lints nothing.
    /// A run that stands and still carries an error-level finding panics,
    /// and in debug/test builds it is verified equivalent to `mig` on the
    /// machine simulator.
    ///
    /// # Panics
    ///
    /// Panics if the pass produces structurally invalid IR or (debug builds)
    /// a program that is not equivalent to the source MIG — both are
    /// compiler bugs that must not reach emitted artifacts.
    pub fn run(&self, ir: &mut IrProgram, mig: &Mig, backend: &dyn Backend) -> PassReport {
        if !self.optimize {
            return PassReport::default();
        }
        let structural = analysis::AnalysisConfig::structural();
        let instructions_before = ir.num_instructions();
        let mut before = Snapshot::take(ir);
        let run = forward(ir, backend);
        let mut edits = run.edits;
        if edits > 0 {
            let after = analysis::analyze_events(ir, &structural);
            before.swap(ir);
            let lints = analysis::lint_counts(&analysis::analyze_events(ir, &structural));
            before.swap(ir);
            if analysis::introduces(&lints, &analysis::lint_counts(&after)) {
                before.restore(ir);
                edits = 0;
            } else {
                if let Some(error) = after.iter().find(|d| d.lint.severity() == Severity::Error) {
                    panic!("pass `forward` produced invalid IR: {error}");
                }
                #[cfg(debug_assertions)]
                if let Err(error) = crate::verify::verify(mig, &super::emit(ir), 1, 0xDAC2016) {
                    panic!("pass `forward` broke machine-simulator equivalence: {error}");
                }
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = mig;
        // A reverted run leaves the stream `forward` was given.
        let cost = if edits > 0 { run.cost } else { run.entry };
        if let Some(cost) = cost {
            debug_assert_eq!(cost, backend.cost(ir), "forward's scorer mispriced");
        }
        PassReport {
            runs: vec![PassRun {
                pass: "forward",
                instructions_before,
                instructions_after: ir.num_instructions(),
                edits,
                scoring: run.scoring,
                bookkeeping: run.bookkeeping,
            }],
        }
    }
}

/// What a pass may change, saved so a rejected run can be reverted: the
/// event stream, the (plain-data) ops, and the outputs' locations. Cell
/// metadata is never edited, so it is not copied.
struct Snapshot {
    events: Vec<Event>,
    ops: Vec<IrOp>,
    outputs: Vec<IrOutput>,
}

impl Snapshot {
    fn take(ir: &IrProgram) -> Self {
        Snapshot {
            events: ir.events.clone(),
            ops: ir.ops.clone(),
            outputs: ir.outputs.iter().map(|(_, output)| *output).collect(),
        }
    }

    /// Exchanges the saved stream with `ir`'s.
    fn swap(&mut self, ir: &mut IrProgram) {
        debug_assert_eq!(ir.ops.len(), self.ops.len(), "passes never add ops");
        std::mem::swap(&mut ir.events, &mut self.events);
        std::mem::swap(&mut ir.ops, &mut self.ops);
        for ((_, output), saved) in ir.outputs.iter_mut().zip(&mut self.outputs) {
            std::mem::swap(output, saved);
        }
    }

    fn restore(mut self, ir: &mut IrProgram) {
        self.swap(ir);
    }
}

/// The constant a masking op writes (`None` for non-masking ops).
fn masked_const(op: &IrOp) -> Option<bool> {
    match (op.a, op.b) {
        (Value::Const(x), Value::Const(y)) if x != y => Some(x),
        _ => None,
    }
}

/// Identity-write removal: deletes every op `⟨c c̄ z⟩`, whose operands are
/// the same constant so the cell keeps its value, and returns how many it
/// deleted. [`forward`] runs it between its scans.
///
/// No cell loses its last reference, so no request or release goes: in a
/// valid stream an identity write reads a defined cell, so an op that is
/// no identity write wrote the cell before it, and that op stays.
pub fn drop_identity_writes(ir: &mut IrProgram) -> usize {
    let before = ir.events.len();
    let ops = &ir.ops;
    ir.events
        .retain(|&event| !matches!(event, Event::Op(i) if ops[i as usize].identity()));
    before - ir.events.len()
}

/// What one [`forward`] run did, and the stream's cost before and after it
/// as the run's scorers priced them, where a scorer was built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Forwarded {
    /// Edits: the commits of every scan plus the identity writes dropped
    /// between scans.
    pub edits: usize,
    /// What scoring the run's trial edits cost, over every scan.
    pub scoring: TrialCounts,
    /// The cost of the stream the run was given; `None` when its first
    /// scan trialed nothing.
    pub entry: Option<Cost>,
    /// The cost of the stream it returns: the entry price of its last scan,
    /// which committed nothing; `None` when that scan trialed nothing.
    pub cost: Option<Cost>,
    /// The run's bookkeeping outside the scorer, over every scan.
    pub bookkeeping: ForwardCounts,
}

/// Forward's bookkeeping outside the scorer, counted over one run —
/// deterministic, like [`TrialCounts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForwardCounts {
    /// Touch indexes built from the whole stream: one per run.
    pub index_builds: usize,
    /// Scans of the stream: one more than the scans that committed.
    pub scans: usize,
    /// Candidate moves checked for legality.
    pub checks: usize,
    /// Dependence closures started: the checked moves that passed the
    /// cheap rejections, which look only at the first ops the closure
    /// would take in.
    pub closures: usize,
    /// Touch-list entries the move checks walked, cheap rejections
    /// included.
    pub touches_walked: u64,
    /// Stream events the trial edits walked: the rewritten span and the
    /// move window. The memory move of the stream's tail is not counted.
    pub events_walked: u64,
}

/// In-place-overwrite forwarding (`forward`, the `-O2` workhorse).
///
/// Pattern: a node's main RM3 reads a destination value that lowering
/// materialized into a fresh cell — `init c` (1 op) or `set; copy s`
/// (2 ops) — while a cell holding one of the instruction's *plain* inputs
/// is physically dead afterwards: every one of its remaining touches is a
/// plain operand read (never an in-place overwrite), after which it is
/// re-initialized, released, or simply never used again. Majority is
/// symmetric in its two plain contributions (`A` and the destination's old
/// value), so the instruction can swap them: delete the materialization,
/// move the instruction just past the dying cell's last read, and
/// overwrite the dying cell in place. Later uses of the node's value are
/// renamed onto the claimed cell, whose release moves to the end of the
/// merged lifetime.
///
/// Instructions that depend on the moved one (consumers of the node's
/// value scheduled inside the move window, and transitively everything
/// ordered against them through a shared cell) move with it as a block in
/// original relative order, so the forwarding sees through the tight
/// producer-consumer packing the scheduler emits.
///
/// Scoring is `backend`'s: each trial edit commits only if it
/// [improves on](Cost::improves_on) the incumbent — strictly fewer
/// instructions, no more footprint or wear.
///
/// # Cost
///
/// Candidates are visited in stream order and the first one whose trial
/// passes the quality gate commits. A run builds its per-cell touch index
/// once, over stable `u64` event keys (per op, and per cell for its request
/// and release) that increase along the stream, and keeps it for every
/// scan; a commit re-keys only the moved block, inside the gap it lands
/// in, and renumbers the whole stream only when that gap runs out. After a
/// commit the index is patched for the cells the edit touched and the scan
/// resumes at the committed position, never going back: the commits, and
/// the emitted bytes, are exactly those of a rescan from the start (the
/// proof is on the scan loop). Most candidate moves are illegal; the move
/// check rejects most of those from the touch lists before it builds a
/// dependence closure, and builds closures on reused buffers. Bookkeeping
/// per commit is proportional to the edit (the touched cells' lists and the
/// rewritten event span), apart from one memory move of the stream's tail
/// when the edit deletes events. [`ForwardCounts`] counts it.
///
/// Trials are scored by the backend's [`TrialScorer`], told where the edit
/// changed the stream ([`TrialEdit`], from the undo log: the rewritten
/// span, the release it removed past the span, and the merged cells). The
/// scorer forks the committed replay at the first changed event and stops
/// at the first event past the change where the replay has reconverged
/// with the committed one up to a renaming of addresses (never under
/// `wear`), or as soon as the footprint or wear passes the incumbent's;
/// the final cost of a reconverged replay follows from the committed
/// replay's. A trial costs the replay from its edit to where it lost or
/// reconverged, not a replay of the stream's tail. A scan builds its
/// scorer before its first trial, so a scan that trials nothing replays
/// nothing.
///
/// # Fixpoint
///
/// A scan finds edits that an earlier scan's candidates could not see, and
/// dropping the identity writes a scan leaves frees more, so `forward`
/// rescans: after a scan that committed, it drops identity writes, patches
/// the index for them (each touches only its own destination, so its
/// entries leave that cell's lists and its key goes; the other keys stay
/// increasing), and scans again with a fresh scorer and rejection memo (a
/// trial that lost against the old stream's price may win against the new
/// one). It returns after the first scan that commits nothing. That ends:
/// every commit deletes the chain's `init` (and its `copy`) and adds no op,
/// and dropping identity writes only deletes ops, so each committing scan
/// lowers `#I`, which cannot fall below zero. A run makes at most `#I` + 1
/// scans. A further scan leaves the returned stream unchanged, and once a
/// scan has committed, the stream holds no identity write.
pub fn forward(ir: &mut IrProgram, backend: &dyn Backend) -> Forwarded {
    let mut engine = Forwarder::new(ir, KEY_SPACING);
    let mut scan = Scan::new(backend);
    let mut entry = None;
    let mut edits = 0;
    let mut scoring = TrialCounts::default();
    loop {
        let committed = engine.run(ir, &mut scan);
        engine.counts.scans += 1;
        scoring += scan.counts();
        if edits == 0 {
            entry = scan.entry;
        }
        if committed == 0 {
            return Forwarded {
                edits,
                scoring,
                entry,
                cost: scan.entry,
                bookkeeping: engine.counts,
            };
        }
        edits += committed + engine.drop_identity_writes(ir);
        scan = Scan::new(backend);
    }
}

/// Distance between consecutive event keys whenever the stream is keyed
/// from scratch.
const KEY_SPACING: u64 = 1 << 32;

/// The key of an op no event references (deleted, or never scheduled).
const DEAD: u64 = u64::MAX;

/// One touch-list entry: the touching op's event key and the op.
type Entry = (u64, u32);

/// An offset into the touch lists, which [`Span`] keeps in 32 bits.
fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("touch lists hold under 2^32 entries")
}

/// The entries of a touch list keyed in `(after, through]`.
fn window(list: &[Entry], after: u64, through: u64) -> &[Entry] {
    // Most lists the move check asks about end before the window.
    if list.last().is_none_or(|e| e.0 <= after) {
        return &[];
    }
    let rest = &list[prefix(list, |e| e.0 <= after)..];
    &rest[..prefix(rest, |e| e.0 <= through)]
}

/// How many leading entries of `list` pass `keep`, which holds for a
/// prefix of it: a scan of a short list, where it beats a binary search,
/// or a binary search of a long one.
fn prefix(list: &[Entry], keep: impl Fn(&Entry) -> bool) -> usize {
    if list.len() <= 8 {
        list.iter().position(|e| !keep(e)).unwrap_or(list.len())
    } else {
        list.partition_point(keep)
    }
}

/// Where one cell's touch list sits in [`CellIndex::entries`]: the ops
/// writing the cell, then the ops reading it (as an operand, or as a
/// non-masking destination's old value; once per read), each part in
/// stream (key) order.
#[derive(Clone, Copy, Default)]
struct Span {
    start: u32,
    /// Entries in use.
    len: u32,
    /// Entries reserved for the list.
    cap: u32,
    /// How many of the entries in use are writes.
    writes: u32,
}

/// Event keys plus a per-cell touch index, built once per [`forward`] run
/// and kept in step with the stream across all its scans.
struct CellIndex {
    /// Every cell's touch list, in one allocation. The build lays the
    /// lists out in cell order, each in exactly the room it needs; a list
    /// that outgrows its room moves to the end, leaving the old room
    /// unused.
    entries: Vec<Entry>,
    /// Per cell, where its list sits.
    spans: Vec<Span>,
    /// Per op, its event key ([`DEAD`] when no event runs it).
    op_key: Vec<u64>,
    /// Per cell, the key of its request event.
    request: Vec<Option<u64>>,
    /// Per cell, the key of its release event.
    release: Vec<Option<u64>>,
    is_output: Vec<bool>,
    spacing: u64,
}

impl CellIndex {
    fn build(ir: &IrProgram, spacing: u64) -> Self {
        // Each list's room first (`len` counts its writes for now), so the
        // lists fill in place.
        let mut spans = vec![Span::default(); ir.cells.len()];
        for &event in &ir.events {
            if let Some(op) = ir.op_of(event) {
                for c in op.reads() {
                    spans[c.index()].cap += 1;
                }
                spans[op.z.index()].cap += 1;
                spans[op.z.index()].len += 1;
            }
        }
        let mut end = 0;
        for span in &mut spans {
            span.start = end;
            end = offset(end as usize + span.cap as usize);
        }
        let mut index = CellIndex {
            entries: vec![(0, 0); end as usize],
            spans,
            op_key: vec![DEAD; ir.ops.len()],
            request: vec![None; ir.cells.len()],
            release: vec![None; ir.cells.len()],
            is_output: vec![false; ir.cells.len()],
            spacing,
        };
        for (pos, &event) in ir.events.iter().enumerate() {
            let key = (pos as u64 + 1) * spacing;
            if let Event::Op(i) = event {
                debug_assert_eq!(
                    index.op_key[i as usize], DEAD,
                    "op {i} appears twice in the stream"
                );
                let op = &ir.ops[i as usize];
                let z = &mut index.spans[op.z.index()];
                index.entries[(z.start + z.writes) as usize] = (key, i);
                z.writes += 1;
                for c in op.reads() {
                    let span = &mut index.spans[c.index()];
                    index.entries[(span.start + span.len) as usize] = (key, i);
                    span.len += 1;
                }
            }
            index.set_key(event, key);
        }
        for (_, output) in &ir.outputs {
            if let IrOutput::Cell(c) = output {
                index.is_output[c.index()] = true;
            }
        }
        index
    }

    /// The ops writing `cell`, in stream order.
    fn writes(&self, cell: CellId) -> &[Entry] {
        let span = self.spans[cell.index()];
        &self.entries[span.start as usize..(span.start + span.writes) as usize]
    }

    /// The ops reading `cell`, in stream order.
    fn reads(&self, cell: CellId) -> &[Entry] {
        let span = self.spans[cell.index()];
        &self.entries[(span.start + span.writes) as usize..(span.start + span.len) as usize]
    }

    /// The whole of `cell`'s list, writes first.
    fn list_mut(&mut self, cell: CellId) -> &mut [Entry] {
        let span = self.spans[cell.index()];
        &mut self.entries[span.start as usize..(span.start + span.len) as usize]
    }

    /// Adds op `i`'s touches at `key` to the cells it touches, at the end
    /// of each part, in the order [`CellIndex::build`] lists them.
    fn push_touches(&mut self, ir: &IrProgram, i: u32, key: u64) {
        let op = &ir.ops[i as usize];
        let z = self.room(op.z);
        let at = (z.start + z.writes) as usize;
        self.entries
            .copy_within(at..(z.start + z.len) as usize, at + 1);
        self.entries[at] = (key, i);
        let z = &mut self.spans[op.z.index()];
        z.writes += 1;
        z.len += 1;
        for c in op.reads() {
            let span = self.room(c);
            self.entries[(span.start + span.len) as usize] = (key, i);
            self.spans[c.index()].len += 1;
        }
    }

    /// Makes room for one more entry in `cell`'s list, moving the list to
    /// the end with twice the room when it is full; returns its span.
    fn room(&mut self, cell: CellId) -> Span {
        let span = &mut self.spans[cell.index()];
        if span.len == span.cap {
            let start = self.entries.len();
            let cap = span.cap.saturating_mul(2).max(4);
            self.entries
                .extend_from_within(span.start as usize..(span.start + span.len) as usize);
            self.entries
                .resize(offset(start + cap as usize) as usize, (0, 0));
            span.start = offset(start);
            span.cap = cap;
        }
        *span
    }

    /// Drops from `cell`'s list every entry of an op `changed` marks.
    fn unlist(&mut self, cell: CellId, changed: &[bool]) {
        let Span { writes, .. } = self.spans[cell.index()];
        let list = self.list_mut(cell);
        let (mut kept, mut kept_writes) = (0, 0);
        for j in 0..list.len() {
            let entry = list[j];
            if !changed[entry.1 as usize] {
                list[kept] = entry;
                kept += 1;
                kept_writes += u32::from(j < writes as usize);
            }
        }
        let span = &mut self.spans[cell.index()];
        span.len = offset(kept);
        span.writes = kept_writes;
    }

    /// Restores stream order in both parts of `cell`'s list.
    fn sort(&mut self, cell: CellId) {
        let writes = self.spans[cell.index()].writes as usize;
        let (writes, reads) = self.list_mut(cell).split_at_mut(writes);
        writes.sort_by_key(|e| e.0);
        reads.sort_by_key(|e| e.0);
    }

    fn key(&self, event: Event) -> u64 {
        match event {
            Event::Op(i) => self.op_key[i as usize],
            Event::Request(c) => self.request[c.index()].expect("requested cells are keyed"),
            Event::Release(c) => self.release[c.index()].expect("released cells are keyed"),
        }
    }

    fn set_key(&mut self, event: Event, key: u64) {
        match event {
            Event::Op(i) => self.op_key[i as usize] = key,
            Event::Request(c) => self.request[c.index()] = Some(key),
            Event::Release(c) => self.release[c.index()] = Some(key),
        }
    }

    /// The stream position of the event keyed `key` (or of the first event
    /// after it, when no event carries that key).
    fn position(&self, ir: &IrProgram, key: u64) -> usize {
        ir.events.partition_point(|&event| self.key(event) < key)
    }

    /// [`CellIndex::position`] for a key no less than that of the event at
    /// `from`: a galloping search from there, costing the log of the
    /// distance rather than of the stream.
    fn position_from(&self, ir: &IrProgram, from: usize, key: u64) -> usize {
        let rest = &ir.events[from..];
        let mut end = 1;
        while end < rest.len() && self.key(rest[end]) < key {
            end *= 2;
        }
        from + rest[..end.min(rest.len())].partition_point(|&event| self.key(event) < key)
    }

    /// Keys the events at `block` inside the gap between their neighbours,
    /// or renumbers the whole stream when the gap is too narrow. Returns
    /// whether it renumbered.
    fn key_block(&mut self, ir: &IrProgram, block: std::ops::Range<usize>) -> bool {
        let slots = block.len() as u64 + 1;
        let prev = match block.start {
            0 => 0,
            start => self.key(ir.events[start - 1]),
        };
        let next = match ir.events.get(block.end) {
            Some(&event) => self.key(event),
            None => prev
                .saturating_add(slots.saturating_mul(self.spacing))
                .min(DEAD - 1),
        };
        let step = (next - prev) / slots;
        if step == 0 {
            self.renumber(ir);
            return true;
        }
        for (j, p) in block.enumerate() {
            self.set_key(ir.events[p], prev + step * (j as u64 + 1));
        }
        false
    }

    /// Re-keys every event by its position, keeping each list's order.
    fn renumber(&mut self, ir: &IrProgram) {
        for (pos, &event) in ir.events.iter().enumerate() {
            self.set_key(event, (pos as u64 + 1) * self.spacing);
        }
        for span in &self.spans {
            let list = &mut self.entries[span.start as usize..(span.start + span.len) as usize];
            for entry in list {
                entry.0 = self.op_key[entry.1 as usize];
            }
        }
    }

    /// The materialization chain feeding the old value of `x` at the op
    /// keyed `key`: the distinct ops touching `x` before it must be exactly
    /// `init` or `set; copy`.
    fn chain(&self, ir: &IrProgram, x: CellId, key: u64) -> Option<Chain> {
        let writes = self.writes(x);
        let writes = &writes[..writes.partition_point(|e| e.0 < key)];
        // Both chain ops write `x`; only the copy reads it. A read list can
        // be long, so it is walked only up to the first read that rules
        // the chain out.
        let mut reads = self.reads(x).iter().take_while(|e| e.0 < key).map(|e| e.1);
        match *writes {
            [(_, init)] if reads.next().is_none() => {
                masked_const(&ir.ops[init as usize]).map(|value| Chain {
                    init,
                    copy: None,
                    value: Value::Const(value),
                })
            }
            [(_, init), (_, copy)] if reads.all(|i| i == copy) => {
                let copy_op = &ir.ops[copy as usize];
                let is_set = masked_const(&ir.ops[init as usize]) == Some(true);
                let is_copy =
                    copy_op.b == Value::Const(true) && !matches!(copy_op.a, Value::Const(_));
                (is_set && is_copy).then_some(Chain {
                    init,
                    copy: Some(copy),
                    value: copy_op.a,
                })
            }
            _ => None,
        }
    }

    /// If every touch of `cell` after `key` is a plain read (its in-place
    /// overwrite slot goes unused) and the cell is never written again, the
    /// key of its last such read (`key` when there is none); otherwise
    /// `None`. The caller rules out output cells.
    ///
    /// Any later write disqualifies the cell — including a *masking* one.
    /// Neither lowering nor a pass re-initializes a virtual cell
    /// mid-lifetime, but this is a legality rule, not a shortcut: claiming
    /// such a cell would let the rename put reads of the forwarded value
    /// behind that re-initialization.
    fn unused_slot_last_read(&self, cell: CellId, key: u64) -> Option<u64> {
        if self.writes(cell).last().is_some_and(|e| e.0 > key) {
            return None;
        }
        Some(self.reads(cell).last().map_or(key, |e| e.0.max(key)))
    }

    /// Whether `cell` is written by an op keyed in `(after, through]`.
    fn defined_in(&self, cell: CellId, after: u64, through: u64) -> bool {
        !window(self.writes(cell), after, through).is_empty()
    }

    /// The window ops that must move together with the forwarded
    /// instruction so every cell's touch order is preserved, as sorted
    /// `(key, op)` pairs, or `None` when the move is illegal.
    ///
    /// The forwarded op (keyed `key`, writing `x`, about to be retargeted
    /// onto `d`) moves to just after `last_read`. A window op joins the
    /// block when it touches a cell the block writes, or writes a cell the
    /// block reads — the classic dependence closure, with one twist: reads
    /// of `d` must NOT join, because the whole transformation relies on
    /// them keeping their place *before* the block overwrites `d`. If the
    /// closure would capture a `d`-reader, or grows past [`MOVE_CAP`], the
    /// move is rejected.
    ///
    /// The closure is the least fixpoint of the join rule, so whether it is
    /// rejected does not depend on the order ops join in. Most moves are
    /// rejected at a `d`-reader among the first joiners (the window ops
    /// touching `x`, or writing a cell the forwarded op reads), so those
    /// are checked first, before any closure state exists. The closure is
    /// then a worklist over the touch lists: a cell entering the written
    /// set pulls in every window op touching it, a cell entering the read
    /// set every window op writing it (its write list, so its reads are not
    /// walked) — O(closure), not O(window × sweeps). It runs on `closure`'s
    /// reused, generation-stamped marks, so only a move that succeeds
    /// allocates: the returned block.
    #[allow(clippy::too_many_arguments)]
    fn move_set(
        &self,
        closure: &mut Closure,
        counts: &mut ForwardCounts,
        ir: &IrProgram,
        key: u64,
        x: CellId,
        d: CellId,
        new_a: Value,
        b: Value,
        last_read: u64,
    ) -> Option<Vec<(u64, u32)>> {
        counts.checks += 1;
        let reads_in = |c: CellId| window(self.reads(c), key, last_read);
        let writes_in = |c: CellId| window(self.writes(c), key, last_read);
        let reads_d = |i: u32| ir.ops[i as usize].reads().any(|c| c == d);
        let read = [new_a.cell(), b.cell(), Some(d)];
        let first = reads_in(x)
            .iter()
            .chain(writes_in(x))
            .chain(read.into_iter().flatten().flat_map(writes_in));
        for &(_, i) in first {
            counts.touches_walked += 1;
            if reads_d(i) {
                return None; // a d-reader may not cross the overwrite
            }
        }

        counts.closures += 1;
        let stamp = closure.next_stamp();
        closure.written[x.index()] = stamp;
        closure.written_work.clear();
        closure.written_work.push(x);
        closure.read_work.clear();
        for c in read.into_iter().flatten() {
            if closure.read[c.index()] != stamp {
                closure.read[c.index()] = stamp;
                closure.read_work.push(c);
            }
        }
        closure.block.clear();
        // Written cells first: they pull in every window op touching them,
        // so a block over the cap reaches it after fewer lists.
        loop {
            let (cell, reads) = if let Some(cell) = closure.written_work.pop() {
                (cell, reads_in(cell))
            } else if let Some(cell) = closure.read_work.pop() {
                (cell, &[][..])
            } else {
                break;
            };
            for &(k, i) in reads.iter().chain(writes_in(cell)) {
                counts.touches_walked += 1;
                if closure.joined[i as usize] == stamp {
                    continue;
                }
                if reads_d(i) {
                    return None;
                }
                closure.joined[i as usize] = stamp;
                closure.block.push((k, i));
                if closure.block.len() > MOVE_CAP {
                    return None;
                }
                let op = &ir.ops[i as usize];
                if closure.written[op.z.index()] != stamp {
                    closure.written[op.z.index()] = stamp;
                    closure.written_work.push(op.z);
                }
                for c in op.reads() {
                    if closure.read[c.index()] != stamp {
                        closure.read[c.index()] = stamp;
                        closure.read_work.push(c);
                    }
                }
            }
        }
        closure.block.sort_unstable();
        Some(closure.block.clone())
    }
}

/// [`CellIndex::move_set`]'s reused buffers. A mark holds the stamp of the
/// closure that set it, so a new closure starts empty without clearing
/// them.
struct Closure {
    stamp: u32,
    /// Per op: joined the block.
    joined: Vec<u32>,
    /// Per cell: written by the block.
    written: Vec<u32>,
    /// Per cell: read by the block.
    read: Vec<u32>,
    /// Written cells whose window touchers are still to join.
    written_work: Vec<CellId>,
    /// Read cells whose window writers are still to join.
    read_work: Vec<CellId>,
    /// The block, as `(key, op)` pairs.
    block: Vec<(u64, u32)>,
}

impl Closure {
    fn new(ir: &IrProgram) -> Self {
        Closure {
            stamp: 0,
            joined: vec![0; ir.ops.len()],
            written: vec![0; ir.cells.len()],
            read: vec![0; ir.cells.len()],
            written_work: Vec::new(),
            read_work: Vec::new(),
            block: Vec::new(),
        }
    }

    /// A stamp no mark holds yet.
    fn next_stamp(&mut self) -> u32 {
        if self.stamp == u32::MAX {
            for marks in [&mut self.joined, &mut self.written, &mut self.read] {
                marks.fill(0);
            }
            self.stamp = 0;
        }
        self.stamp += 1;
        self.stamp
    }
}

/// The materialization chain feeding a destination's old value: `init c`
/// (`copy` is `None`, `value` the constant) or `set; ⟨s 1̄ 1⟩` (`value`
/// the copied source `s`).
struct Chain {
    init: u32,
    copy: Option<u32>,
    value: Value,
}

/// One [`forward`] scan's scoring state.
struct Scan<'a> {
    backend: &'a dyn Backend,
    /// Scores trials against the committed stream, with the committed
    /// stream's cost. Built before the scan's first trial, so a scan that
    /// trials nothing replays nothing.
    scorer: Option<(Box<dyn TrialScorer + 'a>, Cost)>,
    /// The cost of the stream the scorer was built on.
    entry: Option<Cost>,
    /// Candidates turned down by the quality gate or a blocked move, as
    /// [`candidate`] words; they stay rejected for the rest of the scan.
    rejected: std::collections::HashSet<u128, KeyedState>,
}

impl<'a> Scan<'a> {
    fn new(backend: &'a dyn Backend) -> Self {
        Scan {
            backend,
            scorer: None,
            entry: None,
            rejected: std::collections::HashSet::default(),
        }
    }

    /// The scorer, built on `ir` — the committed stream — if there is none
    /// yet, and the committed stream's cost.
    fn scorer(&mut self, ir: &IrProgram) -> &mut (Box<dyn TrialScorer + 'a>, Cost) {
        let (backend, entry) = (self.backend, &mut self.entry);
        self.scorer.get_or_insert_with(|| {
            let (scorer, cost) = backend.scorer(ir);
            *entry = Some(cost);
            (scorer, cost)
        })
    }

    /// What the scan's trials cost.
    fn counts(&self) -> TrialCounts {
        self.scorer
            .as_ref()
            .map_or_else(TrialCounts::default, |(scorer, _)| scorer.counts())
    }
}

/// A forwarding candidate, op `ki` claiming `d`, as one `u128`: the word
/// [`KeyedState`] hashes with one multiply.
fn candidate(ki: u32, d: CellId) -> u128 {
    u128::from(ki) << 32 | u128::from(d.0)
}

/// What one [`forward`] run keeps across its scans: the index, and reused
/// scratch.
struct Forwarder {
    index: CellIndex,
    /// The move check's closure buffers.
    closure: Closure,
    /// Per-op scratch marks for patching the index.
    changed: Vec<bool>,
    counts: ForwardCounts,
    /// Whole-stream renumberings.
    #[cfg_attr(not(test), allow(dead_code))]
    renumbers: usize,
}

impl Forwarder {
    fn new(ir: &IrProgram, spacing: u64) -> Self {
        Forwarder {
            index: CellIndex::build(ir, spacing),
            closure: Closure::new(ir),
            changed: vec![false; ir.ops.len()],
            counts: ForwardCounts {
                index_builds: 1,
                ..ForwardCounts::default()
            },
            renumbers: 0,
        }
    }

    /// [`drop_identity_writes`], with the index patched to match: an
    /// identity write `⟨c c̄ z⟩` touches only `z`, so its op loses its key
    /// and its entries leave `z`'s lists. The remaining keys still increase
    /// along the stream.
    fn drop_identity_writes(&mut self, ir: &mut IrProgram) -> usize {
        let dropped = drop_identity_writes(ir);
        let mut cells: Vec<CellId> = Vec::new();
        for (i, op) in ir.ops.iter().enumerate() {
            if op.identity() && self.index.op_key[i] != DEAD {
                self.index.op_key[i] = DEAD;
                self.changed[i] = true;
                cells.push(op.z);
            }
        }
        cells.sort_unstable();
        cells.dedup();
        for &c in &cells {
            self.index.unlist(c, &self.changed);
        }
        self.changed.fill(false);
        #[cfg(test)]
        tests::assert_index_matches(&self.index, ir);
        dropped
    }

    /// Scans the stream once, committing forwarding edits, and returns how
    /// many committed.
    ///
    /// After a commit it goes on at the position `commit` returns, and never
    /// visits an op before that position again. A rescan from the start
    /// would commit nothing there either:
    ///
    /// * before the resume position, a commit only deletes events: the
    ///   chain's `init` and `copy`, and the request of the old destination
    ///   `x`;
    /// * after it, the commit adds writes to the claimed cell `d` (the main
    ///   op, and the writes renamed from `x`) and reorders touches inside
    ///   the move window;
    /// * so for an earlier op, a `None` from [`CellIndex::chain`], from
    ///   [`CellIndex::unused_slot_last_read`] or from a candidate filter
    ///   stays `None`. Only the chain ops touch `x` before the main op, and
    ///   the gap check let no op write the copy source between the copy and
    ///   the main op, so every earlier chain is what it was; more writes
    ///   never free a slot, and `d` can only become an output;
    /// * every candidate that passed them already sits in `rejected`,
    ///   because its move was blocked or its trial lost.
    ///
    /// `rejected` must therefore stay as it is. One deletion falls outside
    /// the first point: when the claimed cell is a copy source released
    /// between the copy and the main op, the commit also drops that
    /// release, which can lift an earlier op's gap-release check, so
    /// [`apply_forward`] resumes the scan at the dropped release instead.
    fn run(&mut self, ir: &mut IrProgram, scan: &mut Scan) -> usize {
        let mut edits = 0;
        let mut pos = 0;
        while pos < ir.events.len() {
            match self.forward_at(ir, scan, pos) {
                Some(resume) => {
                    edits += 1;
                    pos = resume;
                }
                None => pos += 1,
            }
        }
        edits
    }

    /// Trials the forwarding candidates of the op at `pos` in order and
    /// commits the first the quality gate accepts, returning the position
    /// to resume the scan at; `None` when no candidate commits.
    fn forward_at(&mut self, ir: &mut IrProgram, scan: &mut Scan, pos: usize) -> Option<usize> {
        let Event::Op(ki) = ir.events[pos] else {
            return None;
        };
        let op = &ir.ops[ki as usize];
        if op.masking() {
            return None;
        }
        let (op_a, op_b, x) = (op.a, op.b, op.z);
        let key = self.index.op_key[ki as usize];
        // The destination's history must be exactly a materialization chain.
        let chain = self.index.chain(ir, x, key)?;
        let z_value = chain.value;
        // Candidate dying cells to overwrite in place: the copy's source,
        // then the op's own plain operand.
        // Both candidates re-read the copy's source at the main op's (new)
        // position rather than at the copy's: the source must still hold
        // the copied value there. A release in the gap is survivable (the
        // src candidate drops it when merging lifetimes), a redefinition is
        // not — and the rot candidate cannot resurrect a released source.
        let chain_start = self.index.op_key[chain.init as usize];
        let source_gap_def = matches!(z_value, Value::Cell(s)
            if self.index.defined_in(s, chain_start, key));
        let source_gap_release = matches!(z_value, Value::Cell(s)
            if self.index.release[s.index()].is_some_and(|r| r > chain_start && r < key));
        // Overwrite the copy source: ⟨a b̄ s⟩ keeps the old-value slot.
        let src = match z_value {
            Value::Cell(s) if !source_gap_def => Some((s, op_a)),
            _ => None,
        };
        // Rotate: the old-value contribution moves into the A slot (both
        // gap flags are false unless the chain copies a cell).
        let rot = match op_a {
            Value::Cell(w) if !source_gap_def && !source_gap_release => Some((w, z_value)),
            _ => None,
        };
        for (d, new_a) in src.into_iter().chain(rot) {
            if d == x
                || Some(d) == op_b.cell()
                || new_a.cell() == Some(d)
                || self.index.is_output[d.index()]
                || scan.rejected.contains(&candidate(ki, d))
            {
                continue;
            }
            let Some(last_read) = self.index.unused_slot_last_read(d, key) else {
                continue;
            };
            let moved = self.index.move_set(
                &mut self.closure,
                &mut self.counts,
                ir,
                key,
                x,
                d,
                new_a,
                op_b,
                last_read,
            );
            #[cfg(test)]
            assert_eq!(
                moved,
                tests::move_set_reference(&self.index, ir, key, x, d, new_a, op_b, last_read),
                "move_set verdict for op {ki} claiming %{}",
                d.0
            );
            let Some(moved) = moved else {
                // Memoized like quality rejections: a blocked move rarely
                // unblocks, and re-deriving the dependence closure on a
                // second visit would cost a window walk per candidate.
                scan.rejected.insert(candidate(ki, d));
                continue;
            };
            // Trial the edit and commit only if it strictly improves the
            // instruction count without costing footprint or endurance
            // under the active backend's model: lifetime merges shift the
            // allocator's replay, so the effect is global and easiest to
            // judge on the edited stream itself.
            // The edit is applied in place and undone on rejection — the
            // undo log is the rewritten event span plus a handful of
            // operand words.
            let chain_ops: Vec<u32> = std::iter::once(chain.init).chain(chain.copy).collect();
            let chain_positions: Vec<usize> = chain_ops
                .iter()
                .map(|&i| self.index.position(ir, self.index.op_key[i as usize]))
                .collect();
            // The block and the last read lie after the main op, in key
            // order.
            let mut at = pos;
            let mut position = |key| {
                at = self.index.position_from(ir, at, key);
                at
            };
            let moved_positions: Vec<usize> = moved.iter().map(|&(k, _)| position(k)).collect();
            let last_read = position(last_read);
            scan.scorer(ir);
            let applied = apply_forward(
                ir,
                &self.index,
                &mut self.counts,
                ki,
                pos,
                &chain_positions,
                d,
                new_a,
                last_read,
                &moved_positions,
            );
            #[cfg(debug_assertions)]
            if let Some(e) = analysis::first_error(ir) {
                panic!(
                    "forwarding produced invalid IR: {e} \
                     (pos={pos} x=%{} d=%{} last_read={last_read} moved={moved_positions:?} \
                     chain={chain_positions:?})",
                    x.0, d.0
                );
            }
            let (scorer, baseline) = scan.scorer.as_mut().expect("built before the edit");
            if let Some(after) = scorer.trial(ir, &applied.undo.edit(d), *baseline) {
                scorer.commit();
                *baseline = after;
                let moved_ops: Vec<u32> = moved.iter().map(|&(_, i)| i).collect();
                return Some(self.commit(ir, ki, &chain_ops, &moved_ops, applied));
            }
            applied.undo.revert(ir);
            scan.rejected.insert(candidate(ki, d));
        }
        None
    }

    /// Brings the index in step with a committed edit; returns the position
    /// to resume the scan at.
    fn commit(
        &mut self,
        ir: &IrProgram,
        ki: u32,
        chain_ops: &[u32],
        moved_ops: &[u32],
        applied: Applied,
    ) -> usize {
        let Applied {
            undo,
            block,
            resume,
        } = applied;
        let (x, d) = (undo.x, ir.ops[ki as usize].z);
        let index = &mut self.index;
        // The deleted events, and the merged lifetime's release (see
        // `apply_forward`).
        for &i in chain_ops {
            index.op_key[i as usize] = DEAD;
        }
        index.request[x.index()] = None;
        match (index.release[x.index()], index.release[d.index()]) {
            (Some(rx), Some(_)) => index.release[d.index()] = Some(rx),
            (None, Some(_)) => index.release[d.index()] = None,
            _ => {}
        }
        index.release[x.index()] = None;
        if index.is_output[x.index()] {
            index.is_output[x.index()] = false;
            index.is_output[d.index()] = true;
        }
        if index.key_block(ir, block) {
            self.renumbers += 1;
        }

        // Patch the lists of every cell a changed op touches, before or
        // after the edit: the old ones differ from the new only by `x`
        // and the main op's old `a`.
        let changed_ops: Vec<u32> = chain_ops
            .iter()
            .copied()
            .chain(std::iter::once(ki))
            .chain(undo.renamed.iter().map(|&(i, ..)| i))
            .chain(moved_ops.iter().copied())
            .collect();
        let mut cells: Vec<CellId> = vec![x];
        cells.extend(undo.op.1.cell());
        for &i in &changed_ops {
            let op = &ir.ops[i as usize];
            cells.extend(op.a.cell());
            cells.extend(op.b.cell());
            cells.push(op.z);
            self.changed[i as usize] = true;
        }
        cells.sort_unstable();
        cells.dedup();
        for &c in &cells {
            index.unlist(c, &self.changed);
        }
        for &i in &changed_ops {
            if std::mem::take(&mut self.changed[i as usize]) && index.op_key[i as usize] != DEAD {
                index.push_touches(ir, i, index.op_key[i as usize]);
            }
        }
        for &c in &cells {
            index.sort(c);
        }

        #[cfg(test)]
        tests::assert_index_matches(&self.index, ir);
        resume
    }
}

/// An applied (not yet committed) forwarding edit.
struct Applied {
    undo: ForwardUndo,
    /// Stream positions of the moved block, its relocated releases
    /// included.
    block: std::ops::Range<usize>,
    /// Stream position of the first event that followed the main op's
    /// original position (or of the block, when it did not move), or the
    /// claimed cell's release, when the edit dropped one from before it.
    resume: usize,
}

/// Reverts one [`apply_forward`] edit.
struct ForwardUndo {
    /// Start of the rewritten span.
    lo: usize,
    /// Length of the rewritten span now in the stream.
    len: usize,
    /// The span it replaced.
    events: Vec<Event>,
    /// A release past the span the edit removed, at its old position.
    removed: Option<(usize, Event)>,
    /// A release past the span the edit replaced, at its position.
    replaced: Option<(usize, Event)>,
    op: (u32, Value, CellId),
    renamed: Vec<(u32, Value, Value, CellId)>,
    outputs: Vec<usize>,
    x: CellId,
}

impl ForwardUndo {
    /// Where the edit changed the stream, with `d` the claimed cell. Past
    /// the rewritten span the stream only shifts, apart from the removed
    /// release; the replaced one is the old destination's release, which
    /// the merge renames onto `d`, like every later use of it.
    fn edit(&self, d: CellId) -> TrialEdit {
        let old_len = self.events.len();
        let removed = usize::from(self.removed.is_some());
        TrialEdit {
            from: self.lo,
            until: self.removed.map_or(self.lo + old_len, |(p, _)| p + 1),
            shift: self.len as isize - old_len as isize - removed as isize,
            merged: (self.x, d),
        }
    }

    fn revert(self, ir: &mut IrProgram) {
        ir.events.splice(self.lo..self.lo + self.len, self.events);
        if let Some((p, event)) = self.removed {
            ir.events.insert(p, event);
        }
        if let Some((p, event)) = self.replaced {
            ir.events[p] = event;
        }
        let (ki, a, z) = self.op;
        ir.ops[ki as usize].a = a;
        ir.ops[ki as usize].z = z;
        for (i, a, b, z) in self.renamed {
            let op = &mut ir.ops[i as usize];
            op.a = a;
            op.b = b;
            op.z = z;
        }
        for i in self.outputs {
            ir.outputs[i].1 = IrOutput::Cell(self.x);
        }
    }
}

/// Upper bound on instructions dragged along with a forwarded one; a
/// compile-time guard on the block a single edit may move.
const MOVE_CAP: usize = 16;

/// Applies one forwarding edit: rewrites the main op onto the dying cell,
/// deletes the materialization chain, moves the op (and its dependence
/// block) past the cell's last read — dragging releases of the involved
/// cells along — renames the old destination onto the claimed cell, and
/// merges the two lifetimes. Only the span from the first deleted event to
/// the last read of the claimed cell is rewritten, plus at most two release
/// events past it; the returned undo log holds exactly those.
///
/// No request or release of a cell that nothing touches is left behind,
/// so the edit needs no sweep for such cells. Only the old destination `x`
/// loses touches outright: the chain ops go, and every later touch of `x`
/// is renamed onto `d`; the edit drops `x`'s request, and its release is
/// dropped or becomes `d`'s. The chain's copy source stays read by the main
/// op (the rotate candidate makes it the new `a`) or becomes `d` (the
/// source candidate). The main op's old `a` stays its `a` (source) or
/// becomes `d` (rotate). Every other touch stays where it was or moves
/// with the block.
#[allow(clippy::too_many_arguments)]
fn apply_forward(
    ir: &mut IrProgram,
    index: &CellIndex,
    counts: &mut ForwardCounts,
    ki: u32,
    pos: usize,
    chain: &[usize],
    d: CellId,
    new_a: Value,
    last_read: usize,
    moved: &[usize],
) -> Applied {
    let x = ir.ops[ki as usize].z;
    let key = index.op_key[ki as usize];
    let mut undo = ForwardUndo {
        lo: 0,
        len: 0,
        events: Vec::new(),
        removed: None,
        replaced: None,
        op: (ki, ir.ops[ki as usize].a, x),
        renamed: Vec::new(),
        outputs: Vec::new(),
        x,
    };
    ir.ops[ki as usize].a = new_a;
    ir.ops[ki as usize].z = d;

    // Rename every later use of the old destination onto the claimed cell:
    // the ops reading it, then the masking ops writing it (a non-masking
    // write reads it too).
    let reads = window(index.reads(x), key, DEAD);
    let writes = window(index.writes(x), key, DEAD);
    let later = reads.iter().map(|e| (e.1, true));
    for (i, reads_x) in later.chain(writes.iter().map(|e| (e.1, false))) {
        if i == ki
            || undo.renamed.last().is_some_and(|&(j, ..)| j == i)
            || !reads_x && !ir.ops[i as usize].masking()
        {
            continue;
        }
        let op = &mut ir.ops[i as usize];
        undo.renamed.push((i, op.a, op.b, op.z));
        if op.a == Value::Cell(x) {
            op.a = Value::Cell(d);
        }
        if op.b == Value::Cell(x) {
            op.b = Value::Cell(d);
        }
        if op.z == x {
            op.z = d;
        }
    }
    if index.is_output[x.index()] {
        for (i, (_, output)) in ir.outputs.iter_mut().enumerate() {
            if *output == IrOutput::Cell(x) {
                undo.outputs.push(i);
                *output = IrOutput::Cell(d);
            }
        }
    }

    let at = |key: Option<u64>| key.map(|k| index.position(ir, k));
    let mut dropped: Vec<usize> = chain.to_vec();
    dropped.extend(at(index.request[x.index()]));
    // Merge lifetimes: the claimed cell stays live until the old
    // destination's release (which is after every touch of the merged
    // cell); its own release is superseded. A missing release — a value
    // held to program end — wins.
    let (release_x, release_d) = (at(index.release[x.index()]), at(index.release[d.index()]));
    let mut replace: Option<(usize, Event)> = None;
    match (release_x, release_d) {
        (Some(rx), Some(rd)) => {
            dropped.push(rd);
            replace = Some((rx, Event::Release(d)));
        }
        (Some(rx), None) => dropped.push(rx),
        (None, Some(rd)) => dropped.push(rd),
        (None, None) => {}
    }
    let lo = dropped
        .iter()
        .copied()
        .filter(|&p| p < pos)
        .fold(pos, usize::min);
    // The window scan for releases below, and the rewritten span.
    counts.events_walked += (last_read - pos + last_read + 1 - lo) as u64;

    // The moved block, in original relative order (the forwarded op led it
    // in the original stream, so it stays first), and per cell it touches,
    // the last entry touching it, so relocated releases re-enter as early
    // as legality allows.
    let block: Vec<usize> = std::iter::once(pos).chain(moved.iter().copied()).collect();
    let mut last_touch: Vec<(CellId, usize)> = Vec::new();
    for (entry, &q) in block.iter().enumerate() {
        let op = ir.op_of(ir.events[q]).expect("the block holds ops");
        for c in op.reads().chain([op.z]) {
            match last_touch.iter_mut().find(|(cell, _)| *cell == c) {
                Some(last) => last.1 = entry,
                None => last_touch.push((c, entry)),
            }
        }
    }
    // Any release inside the window whose cell the block touches must not
    // fire before the block runs; relocate it to just after the last block
    // entry touching the cell, keeping the lifetime as tight as the move
    // allows (a longer hold can cost a fresh cell downstream).
    let mut relocated: Vec<(usize, usize)> = Vec::new(); // (block entry, event pos), by pos
    for (p, &event) in ir
        .events
        .iter()
        .enumerate()
        .take(last_read + 1)
        .skip(pos + 1)
    {
        if let Event::Release(c) = event {
            if dropped.contains(&p) {
                continue;
            }
            // The old destination was renamed onto the claimed cell, so its
            // release follows the claimed cell's touches.
            let cell = if c == x { d } else { c };
            if let Some(&(_, entry)) = last_touch.iter().find(|(t, _)| *t == cell) {
                relocated.push((entry, p));
            }
        }
    }

    // The span keeps its events but the block, the relocated releases and
    // the dropped events, copied run by run between those positions.
    let mut gone: Vec<usize> = dropped
        .iter()
        .copied()
        .filter(|&p| p <= last_read)
        .chain(block.iter().copied())
        .chain(relocated.iter().map(|&(_, q)| q))
        .collect();
    gone.sort_unstable();
    gone.dedup();
    // The position an event at `p` of the span takes in it, when it stays.
    let kept_at = |p: usize| p - gone.partition_point(|&q| q < p);
    let mut span = Vec::with_capacity(last_read + 1 - lo);
    let mut from = lo;
    for &p in gone.iter().chain([last_read + 1].iter()) {
        span.extend_from_slice(&ir.events[from..p]);
        from = p + 1;
    }
    if let Some((rp, event)) = replace.filter(|&(p, _)| p <= last_read) {
        if gone.binary_search(&rp).is_err() {
            span[kept_at(rp) - lo] = event;
        }
    }
    let resolve = |p: usize, event: Event| match replace {
        Some((rp, rep)) if rp == p => rep,
        _ => event,
    };
    let start = lo + span.len();
    for (entry, &q) in block.iter().enumerate() {
        span.push(resolve(q, ir.events[q]));
        for &(after, rel) in &relocated {
            if after == entry {
                span.push(resolve(rel, ir.events[rel]));
            }
        }
    }
    let moved_to = start..lo + span.len();
    // See `Forwarder::run` for why the scan may resume at the claimed
    // cell's dropped release.
    let resume = kept_at(release_d.filter(|&rd| rd < pos).unwrap_or(pos));
    // Release edits past the span are point edits, so the far release of a
    // long-lived value does not widen the rewritten span.
    if let Some((p, event)) = replace.filter(|&(p, _)| p > last_read) {
        undo.replaced = Some((p, std::mem::replace(&mut ir.events[p], event)));
    }
    if let Some(&p) = dropped.iter().find(|&&p| p > last_read) {
        undo.removed = Some((p, ir.events.remove(p)));
    }
    undo.lo = lo;
    undo.len = span.len();
    undo.events = ir.events.splice(lo..=last_read, span).collect();
    Applied {
        undo,
        block: moved_to,
        resume,
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use plim_benchmarks::random::{random_logic, RandomLogicSpec};

    use super::*;
    use crate::backend::{Artifact, CostTable, InstructionInfo, Rm3Backend};
    use crate::{AllocatorStrategy, CompilerOptions, OperandSelection, ScheduleOrder};

    /// Drops request/release events of cells no surviving op or output
    /// touches. The product needs no such sweep (see [`apply_forward`]);
    /// the references below run it after their edits, and the stream
    /// checks use it to find such cells.
    fn gc_cells(ir: &mut IrProgram) {
        let mut referenced = vec![false; ir.cells.len()];
        for &event in &ir.events {
            if let Event::Op(i) = event {
                let op = &ir.ops[i as usize];
                for value in [op.a, op.b] {
                    if let Value::Cell(c) = value {
                        referenced[c.index()] = true;
                    }
                }
                referenced[op.z.index()] = true;
            }
        }
        for (_, output) in &ir.outputs {
            if let IrOutput::Cell(c) = output {
                referenced[c.index()] = true;
            }
        }
        ir.events.retain(|event| match event {
            Event::Request(c) | Event::Release(c) => referenced[c.index()],
            Event::Op(_) => true,
        });
    }

    /// The restart-from-0 forwarding engine the incremental one replaced,
    /// kept as the differential oracle: every commit rebuilds the index and
    /// rescans the stream from event 0.
    mod oracle {
        use super::super::{masked_const, MOVE_CAP};
        use super::gc_cells;
        use crate::backend::{Backend, Cost};
        use crate::ir::{analysis, CellId, Event, IrOutput, IrProgram, Value};

        /// How a position touches a cell.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Touch {
            /// Read as an operand or as a non-masking destination's old value.
            Read,
            /// Masking write: begins a fresh value, old value unread.
            DefMask,
            /// Non-masking write (always paired with a [`Touch::Read`]).
            DefPlain,
        }

        /// The old `forward`.
        pub(super) fn forward(ir: &mut IrProgram, backend: &dyn Backend) -> usize {
            let mut edits = 0;
            let mut rejected: std::collections::HashSet<(u32, u32)> =
                std::collections::HashSet::new();
            let mut baseline = backend.cost(ir);
            while forward_one(ir, backend, &mut rejected, &mut baseline) {
                edits += 1;
            }
            if edits > 0 {
                gc_cells(ir);
            }
            edits
        }

        /// Per-cell event-position index for one forwarding attempt.
        struct CellIndex {
            touches: Vec<Vec<(usize, Touch)>>,
            release: Vec<Option<usize>>,
            request: Vec<Option<usize>>,
            is_output: Vec<bool>,
        }

        impl CellIndex {
            fn build(ir: &IrProgram) -> Self {
                let mut index = CellIndex {
                    touches: vec![Vec::new(); ir.cells.len()],
                    release: vec![None; ir.cells.len()],
                    request: vec![None; ir.cells.len()],
                    is_output: vec![false; ir.cells.len()],
                };
                for (pos, &event) in ir.events.iter().enumerate() {
                    match event {
                        Event::Request(c) => index.request[c.index()] = Some(pos),
                        Event::Release(c) => index.release[c.index()] = Some(pos),
                        Event::Op(i) => {
                            let op = &ir.ops[i as usize];
                            for value in [op.a, op.b] {
                                if let Value::Cell(c) = value {
                                    index.touches[c.index()].push((pos, Touch::Read));
                                }
                            }
                            if op.masking() {
                                index.touches[op.z.index()].push((pos, Touch::DefMask));
                            } else {
                                index.touches[op.z.index()].push((pos, Touch::Read));
                                index.touches[op.z.index()].push((pos, Touch::DefPlain));
                            }
                        }
                    }
                }
                for (_, output) in &ir.outputs {
                    if let IrOutput::Cell(c) = output {
                        index.is_output[c.index()] = true;
                    }
                }
                index
            }

            /// If every touch of `cell` after `pos` is a plain read (its in-place
            /// overwrite slot goes unused) and the cell is never written again nor
            /// an output, the position of its last such read (`pos` when there is
            /// none); otherwise `None`.
            ///
            /// Any later write disqualifies the cell — including a *masking* one.
            /// Neither lowering nor a pass re-initializes a virtual cell
            /// mid-lifetime, but this is a legality rule, not a shortcut: claiming
            /// such a cell would let the rename put reads of the forwarded value
            /// behind that re-initialization.
            fn unused_slot_last_read(&self, cell: CellId, pos: usize) -> Option<usize> {
                let mut last = pos;
                for &(p, touch) in &self.touches[cell.index()] {
                    if p <= pos {
                        continue;
                    }
                    match touch {
                        Touch::Read => last = p,
                        Touch::DefMask | Touch::DefPlain => return None,
                    }
                }
                if self.is_output[cell.index()] {
                    None
                } else {
                    Some(last)
                }
            }

            /// Whether `cell` is written anywhere in `window` (inclusive bounds).
            fn defined_in(&self, cell: CellId, window: (usize, usize)) -> bool {
                self.touches[cell.index()]
                    .iter()
                    .any(|&(p, t)| p >= window.0 && p <= window.1 && t != Touch::Read)
            }
        }

        /// The materialization chain feeding a destination's old value.
        enum Chain {
            /// `init c`: one masking op.
            Const { init: usize, value: bool },
            /// `set; ⟨s 1̄ 1⟩`: a copy of `source`.
            Copy {
                init: usize,
                copy: usize,
                source: Value,
            },
        }

        /// Finds and applies one forwarding edit; `false` when none applies.
        /// Candidates in `rejected` (keyed by op index and claimed cell) were
        /// already turned down by the quality gate and are not re-trialed;
        /// `baseline` carries the current stream's cost across restarts and is
        /// updated when an edit commits.
        fn forward_one(
            ir: &mut IrProgram,
            backend: &dyn Backend,
            rejected: &mut std::collections::HashSet<(u32, u32)>,
            baseline: &mut Cost,
        ) -> bool {
            let index = CellIndex::build(ir);
            let before = *baseline;
            for pos in 0..ir.events.len() {
                let Event::Op(ki) = ir.events[pos] else {
                    continue;
                };
                let op = &ir.ops[ki as usize];
                if op.masking() {
                    continue;
                }
                let (op_a, op_b, x) = (op.a, op.b, op.z);
                // The destination's history must be exactly a materialization chain.
                let mut chain_positions: Vec<usize> = Vec::new();
                for &(p, _) in &index.touches[x.index()] {
                    if p >= pos {
                        break;
                    }
                    if chain_positions.last() != Some(&p) {
                        chain_positions.push(p);
                    }
                }
                let chain = match chain_positions.as_slice() {
                    [init] => {
                        let init_op = ir.op_of(ir.events[*init]).expect("touch is an op");
                        match masked_const(init_op) {
                            Some(value) if init_op.z == x => Chain::Const { init: *init, value },
                            _ => continue,
                        }
                    }
                    [init, copy] => {
                        let init_op = ir.op_of(ir.events[*init]).expect("touch is an op");
                        let copy_op = ir.op_of(ir.events[*copy]).expect("touch is an op");
                        let is_set = masked_const(init_op) == Some(true) && init_op.z == x;
                        let is_copy = copy_op.z == x
                            && copy_op.b == Value::Const(true)
                            && !matches!(copy_op.a, Value::Const(_));
                        if is_set && is_copy {
                            Chain::Copy {
                                init: *init,
                                copy: *copy,
                                source: copy_op.a,
                            }
                        } else {
                            continue;
                        }
                    }
                    _ => continue,
                };
                // Candidate dying cells to overwrite in place: the copy's source,
                // then the op's own plain operand.
                let (z_value, chain_ops): (Value, Vec<usize>) = match &chain {
                    Chain::Const { init, value } => (Value::Const(*value), vec![*init]),
                    Chain::Copy { init, copy, source } => (*source, vec![*init, *copy]),
                };
                // Both candidates re-read the copy's source at the main op's (new)
                // position rather than at the copy's: the source must still hold
                // the copied value there. A release in the gap is survivable (the
                // src candidate drops it when merging lifetimes), a redefinition is
                // not — and the rot candidate cannot resurrect a released source.
                let chain_start = *chain_ops.first().expect("chains are non-empty");
                let source_gap_def = matches!(z_value, Value::Cell(s)
                    if index.defined_in(s, (chain_start + 1, pos)));
                let source_gap_release = matches!(z_value, Value::Cell(s)
                    if index.release[s.index()].is_some_and(|r| r > chain_start && r < pos));
                let mut candidates: Vec<(CellId, Value)> = Vec::new();
                if let Value::Cell(s) = z_value {
                    // Overwrite the copy source: ⟨a b̄ s⟩ keeps the old-value slot.
                    if !source_gap_def {
                        candidates.push((s, op_a));
                    }
                }
                if let Value::Cell(w) = op_a {
                    // Rotate: the old-value contribution moves into the A slot.
                    let source_ok = match z_value {
                        Value::Cell(_) => !source_gap_def && !source_gap_release,
                        _ => true,
                    };
                    if source_ok {
                        candidates.push((w, z_value));
                    }
                }
                for (d, new_a) in candidates {
                    if d == x
                        || Some(d) == op_b.cell()
                        || new_a.cell() == Some(d)
                        || index.is_output[d.index()]
                        || rejected.contains(&(ki, d.0))
                    {
                        continue;
                    }
                    let Some(last_read) = index.unused_slot_last_read(d, pos) else {
                        continue;
                    };
                    let Some(moved) = move_set(ir, pos, x, d, new_a, op_b, last_read) else {
                        // Memoized like quality rejections: a blocked move rarely
                        // unblocks, and re-deriving the dependence closure on every
                        // restart made the pass quadratic on large circuits.
                        rejected.insert((ki, d.0));
                        continue;
                    };
                    // Trial the edit and commit only if it strictly improves the
                    // instruction count without costing footprint or endurance
                    // under the active backend's model: lifetime merges shift the
                    // allocator's replay, so the effect is global and easiest to
                    // judge on the edited stream itself.
                    // The edit is applied in place and undone on rejection — the
                    // undo log is a handful of operand words, where cloning the
                    // whole program (listing strings included) dominated the pass.
                    let undo = apply_forward(
                        ir,
                        &index,
                        ki,
                        pos,
                        chain_ops.clone(),
                        d,
                        new_a,
                        last_read,
                        &moved,
                    );
                    #[cfg(debug_assertions)]
                    if let Some(e) = analysis::first_error(ir) {
                        panic!(
                            "forwarding produced invalid IR: {e} \
                             (pos={pos} x=%{} d=%{} last_read={last_read} moved={moved:?} chain={chain_ops:?})",
                            d.0, ir.ops[ki as usize].z.0
                        );
                    }
                    let after = backend.cost(ir);
                    if after.improves_on(before) {
                        *baseline = after;
                        return true;
                    }
                    undo.revert(ir);
                    rejected.insert((ki, d.0));
                }
            }
            false
        }

        /// Reverts one [`apply_forward`] edit.
        struct ForwardUndo {
            events: Vec<Event>,
            op: (u32, Value, CellId),
            renamed: Vec<(u32, Value, Value, CellId)>,
            outputs: Vec<usize>,
            x: CellId,
        }

        impl ForwardUndo {
            fn revert(self, ir: &mut IrProgram) {
                ir.events = self.events;
                let (ki, a, z) = self.op;
                ir.ops[ki as usize].a = a;
                ir.ops[ki as usize].z = z;
                for (i, a, b, z) in self.renamed {
                    let op = &mut ir.ops[i as usize];
                    op.a = a;
                    op.b = b;
                    op.z = z;
                }
                for i in self.outputs {
                    ir.outputs[i].1 = IrOutput::Cell(self.x);
                }
            }
        }

        /// Computes the set of window ops that must move together with the
        /// forwarded instruction so every cell's touch order is preserved, or
        /// `None` when the move is illegal.
        ///
        /// The forwarded op (at `pos`, writing `x`, about to be retargeted onto
        /// `d`) moves to just after `last_read`. A window op joins the block when
        /// it touches a cell the block writes, or writes a cell the block reads —
        /// the classic dependence closure, with one twist: reads of `d` must NOT
        /// join, because the whole transformation relies on them keeping their
        /// place *before* the block overwrites `d`. If the closure would capture a
        /// `d`-reader, or grows past [`MOVE_CAP`], the move is rejected.
        #[allow(clippy::too_many_arguments)]
        fn move_set(
            ir: &IrProgram,
            pos: usize,
            x: CellId,
            d: CellId,
            new_a: Value,
            b: Value,
            last_read: usize,
        ) -> Option<Vec<usize>> {
            let mut defined: Vec<CellId> = vec![x];
            let mut read: Vec<CellId> = [new_a.cell(), b.cell(), Some(d)]
                .into_iter()
                .flatten()
                .collect();
            let mut moved: Vec<usize> = Vec::new();
            loop {
                let mut grew = false;
                for p in pos + 1..=last_read {
                    if moved.contains(&p) {
                        continue;
                    }
                    let Some(op) = ir.op_of(ir.events[p]) else {
                        continue;
                    };
                    let op_reads: Vec<CellId> = op.reads().collect();
                    let op_defines = op.z;
                    let joins = op_reads.iter().any(|c| defined.contains(c))
                        || defined.contains(&op_defines)
                        || read.contains(&op_defines);
                    if !joins {
                        continue;
                    }
                    if op_reads.contains(&d) {
                        return None; // a d-reader may not cross the overwrite
                    }
                    moved.push(p);
                    if moved.len() > MOVE_CAP {
                        return None;
                    }
                    if !defined.contains(&op_defines) {
                        defined.push(op_defines);
                    }
                    for c in op_reads {
                        if !read.contains(&c) {
                            read.push(c);
                        }
                    }
                    grew = true;
                }
                if !grew {
                    moved.sort_unstable();
                    return Some(moved);
                }
            }
        }

        /// Applies one forwarding edit: rewrites the main op onto the dying cell,
        /// deletes the materialization chain, moves the op (and its dependence
        /// block) past the cell's last read — dragging releases of the involved
        /// cells along — renames the old destination onto the claimed cell, and
        /// merges the two lifetimes. Returns the undo log reverting the edit.
        #[allow(clippy::too_many_arguments)]
        fn apply_forward(
            ir: &mut IrProgram,
            index: &CellIndex,
            ki: u32,
            pos: usize,
            chain_ops: Vec<usize>,
            d: CellId,
            new_a: Value,
            last_read: usize,
            moved: &[usize],
        ) -> ForwardUndo {
            let x = ir.ops[ki as usize].z;
            let mut undo = ForwardUndo {
                events: ir.events.clone(),
                op: (ki, ir.ops[ki as usize].a, x),
                renamed: Vec::new(),
                outputs: Vec::new(),
                x,
            };
            ir.ops[ki as usize].a = new_a;
            ir.ops[ki as usize].z = d;

            // Rename every later use of the old destination onto the claimed cell.
            for &(p, _) in &index.touches[x.index()] {
                if p <= pos {
                    continue;
                }
                if let Event::Op(i) = ir.events[p] {
                    if i == ki || undo.renamed.iter().any(|&(j, ..)| j == i) {
                        continue;
                    }
                    let op = &mut ir.ops[i as usize];
                    undo.renamed.push((i, op.a, op.b, op.z));
                    if op.a == Value::Cell(x) {
                        op.a = Value::Cell(d);
                    }
                    if op.b == Value::Cell(x) {
                        op.b = Value::Cell(d);
                    }
                    if op.z == x {
                        op.z = d;
                    }
                }
            }
            for (i, (_, output)) in ir.outputs.iter_mut().enumerate() {
                if *output == IrOutput::Cell(x) {
                    undo.outputs.push(i);
                    *output = IrOutput::Cell(d);
                }
            }

            let mut drop = vec![false; ir.events.len()];
            for p in chain_ops {
                drop[p] = true;
            }
            if let Some(p) = index.request[x.index()] {
                drop[p] = true;
            }
            // Merge lifetimes: the claimed cell stays live until the old
            // destination's release (which is after every touch of the merged
            // cell); its own release is superseded. A missing release — a value
            // held to program end — wins.
            let mut replace: Option<(usize, Event)> = None;
            match (index.release[x.index()], index.release[d.index()]) {
                (Some(rx), Some(rd)) => {
                    drop[rd] = true;
                    replace = Some((rx, Event::Release(d)));
                }
                (Some(rx), None) => drop[rx] = true,
                (None, Some(rd)) => drop[rd] = true,
                (None, None) => {}
            }
            // The moved block, in original relative order (the forwarded op led it
            // in the original stream, so it stays first). Touch sets per entry let
            // relocated releases re-enter as early as legality allows.
            let block: Vec<usize> = std::iter::once(pos).chain(moved.iter().copied()).collect();
            let touches_cell = |p: usize, c: CellId| -> bool {
                match ir.op_of(ir.events[p]) {
                    Some(op) => op.z == c || op.reads().any(|r| r == c),
                    None => false,
                }
            };
            // Any release inside the window whose cell the block touches must not
            // fire before the block runs; relocate it to just after the last block
            // entry touching the cell, keeping the lifetime as tight as the move
            // allows (a longer hold can cost a fresh cell downstream).
            let mut relocated: Vec<(usize, usize)> = Vec::new(); // (after-block-index, event pos)
            for (p, &event) in ir
                .events
                .iter()
                .enumerate()
                .take(last_read + 1)
                .skip(pos + 1)
            {
                if let Event::Release(c) = event {
                    if drop[p] {
                        continue;
                    }
                    // The old destination was renamed onto the claimed cell, so its
                    // release follows the claimed cell's touches.
                    let cell = if c == x { d } else { c };
                    if let Some(entry) = block.iter().rposition(|&q| touches_cell(q, cell)) {
                        relocated.push((entry, p));
                    }
                }
            }

            let resolve = |p: usize, event: Event| match replace {
                Some((rp, rep)) if rp == p => rep,
                _ => event,
            };
            let mut events = Vec::with_capacity(ir.events.len());
            for (p, &event) in ir.events.iter().enumerate() {
                let in_block =
                    p == pos || moved.contains(&p) || relocated.iter().any(|&(_, q)| q == p);
                if !in_block && !drop[p] {
                    events.push(resolve(p, event));
                }
                if p == last_read {
                    for (entry, &q) in block.iter().enumerate() {
                        events.push(resolve(q, ir.events[q]));
                        for &(after, rel) in &relocated {
                            if after == entry {
                                events.push(resolve(rel, ir.events[rel]));
                            }
                        }
                    }
                }
            }
            ir.events = events;
            undo
        }
    }

    /// Checks the incrementally patched index against a fresh build: keys
    /// increase along the stream, every list holds the same ops in the
    /// same order under the owning op's current key, and the request,
    /// release and output maps agree.
    pub(super) fn assert_index_matches(index: &CellIndex, ir: &IrProgram) {
        for pair in ir.events.windows(2) {
            assert!(
                index.key(pair[0]) < index.key(pair[1]),
                "keys out of order at {pair:?}"
            );
        }
        let live = index.op_key.iter().filter(|&&k| k != DEAD).count();
        assert_eq!(live, ir.num_instructions(), "stale op keys");
        let fresh = CellIndex::build(ir, 1);
        for cell in (0..ir.cells.len()).map(|c| CellId(c as u32)) {
            let patched = [("reads", index.reads(cell)), ("writes", index.writes(cell))];
            let built = [fresh.reads(cell), fresh.writes(cell)];
            for ((kind, patched), built) in patched.into_iter().zip(built) {
                let ops = |list: &[Entry]| list.iter().map(|e| e.1).collect::<Vec<_>>();
                assert_eq!(ops(patched), ops(built), "{kind} of %{}", cell.0);
                for &(k, i) in patched {
                    assert_eq!(k, index.op_key[i as usize], "entry key of op {i}");
                }
            }
            let c = cell.index();
            assert_eq!(index.request[c].is_some(), fresh.request[c].is_some());
            assert_eq!(index.release[c].is_some(), fresh.release[c].is_some());
        }
        assert_eq!(index.is_output, fresh.is_output);
    }

    /// The move check [`CellIndex::move_set`] replaced, kept as its
    /// reference: the dependence-closure worklist over each cell's touches
    /// in stream order (its reads and writes merged), with `Vec` sets and
    /// no early rejection. Test builds assert every production verdict
    /// against it.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn move_set_reference(
        index: &CellIndex,
        ir: &IrProgram,
        key: u64,
        x: CellId,
        d: CellId,
        new_a: Value,
        b: Value,
        last_read: u64,
    ) -> Option<Vec<(u64, u32)>> {
        // Per cell, `(key, op, writes)` in stream order, a write after the
        // same op's reads, as the index listed touches before it split
        // reads from writes.
        let touches = |cell: CellId| {
            let reads = index.reads(cell).iter().map(|&(k, i)| (k, i, false));
            let writes = index.writes(cell).iter().map(|&(k, i)| (k, i, true));
            let mut list: Vec<(u64, u32, bool)> = reads.chain(writes).collect();
            list.sort_by_key(|e| (e.0, e.2));
            list
        };
        let mut defined: Vec<CellId> = vec![x];
        let mut read: Vec<CellId> = Vec::new();
        // `(cell, written)`: a written cell joins every window op touching
        // it, a read cell only the window ops writing it.
        let mut work: Vec<(CellId, bool)> = vec![(x, true)];
        for c in [new_a.cell(), b.cell(), Some(d)].into_iter().flatten() {
            if !read.contains(&c) {
                read.push(c);
                work.push((c, false));
            }
        }
        let mut moved: Vec<(u64, u32)> = Vec::new();
        while let Some((cell, written)) = work.pop() {
            let list = touches(cell);
            for &(k, i, writes) in &list[list.partition_point(|e| e.0 <= key)..] {
                if k > last_read {
                    break;
                }
                if (!written && !writes) || moved.iter().any(|&(_, j)| j == i) {
                    continue;
                }
                let op = &ir.ops[i as usize];
                if op.reads().any(|c| c == d) {
                    return None; // a d-reader may not cross the overwrite
                }
                moved.push((k, i));
                if moved.len() > MOVE_CAP {
                    return None;
                }
                if !defined.contains(&op.z) {
                    defined.push(op.z);
                    work.push((op.z, true));
                }
                for c in op.reads() {
                    if !read.contains(&c) {
                        read.push(c);
                        work.push((c, false));
                    }
                }
            }
        }
        moved.sort_unstable();
        Some(moved)
    }

    /// Scores a stream by its length: every legal forwarding candidate
    /// deletes events, so each one commits, and scoring costs O(1).
    struct EventCount;

    impl Backend for EventCount {
        fn name(&self) -> &'static str {
            "event-count"
        }

        fn description(&self) -> &'static str {
            "scores a stream by its event count"
        }

        fn instruction_set(&self) -> &'static [InstructionInfo] {
            &[]
        }

        fn cost_table(&self) -> CostTable {
            unreachable!("the model is no cost table")
        }

        fn cost(&self, ir: &IrProgram) -> Cost {
            Cost {
                instructions: ir.events.len(),
                footprint: 0,
                wear: 0,
                units: 0,
            }
        }

        fn scorer(&self, ir: &IrProgram) -> (Box<dyn TrialScorer + '_>, Cost) {
            (Box::new(EventCount), self.cost(ir))
        }

        fn emit(&self, _: &IrProgram) -> Box<dyn Artifact> {
            unreachable!("the forwarding pass never emits")
        }
    }

    /// Scores each trial in full, which is O(1) under this model.
    impl TrialScorer for EventCount {
        fn trial(&mut self, ir: &IrProgram, _: &TrialEdit, bound: Cost) -> Option<Cost> {
            let cost = Backend::cost(self, ir);
            cost.improves_on(bound).then_some(cost)
        }

        fn commit(&mut self) {}

        fn counts(&self) -> TrialCounts {
            TrialCounts::default()
        }
    }

    /// Runs both engines on copies of `ir` and requires the same stream,
    /// operands, outputs and edit count; returns the optimized program and
    /// how often the incremental engine renumbered the stream.
    fn assert_engines_agree(
        ir: &IrProgram,
        backend: &dyn Backend,
        spacing: u64,
    ) -> (IrProgram, usize) {
        let mut expected = ir.clone();
        let want = oracle::forward(&mut expected, backend);
        let mut actual = ir.clone();
        let (got, renumbers) = scan_once(&mut actual, backend, spacing);
        assert_eq!(got, want, "edit counts differ");
        assert_eq!(actual.events, expected.events, "event streams differ");
        assert_eq!(actual.ops, expected.ops, "op operands differ");
        assert_eq!(actual.outputs, expected.outputs, "outputs differ");
        (actual, renumbers)
    }

    /// One [`forward`] scan of `ir` on a fresh index keyed `spacing`
    /// apart; returns its commits and how often it renumbered the stream.
    fn scan_once(ir: &mut IrProgram, backend: &dyn Backend, spacing: u64) -> (usize, usize) {
        let mut engine = Forwarder::new(ir, spacing);
        let commits = engine.run(ir, &mut Scan::new(backend));
        (commits, engine.renumbers)
    }

    fn lowered(
        nodes: usize,
        seed: u64,
        schedule: ScheduleOrder,
        alloc: AllocatorStrategy,
    ) -> IrProgram {
        let inputs = 3 + (seed % 6) as usize;
        let outputs = 1 + (seed / 7 % 5) as usize;
        let mig = random_logic(&RandomLogicSpec::new(inputs, outputs, nodes, seed));
        crate::ir::lower(
            &mig,
            CompilerOptions::new().schedule(schedule).allocator(alloc),
        )
    }

    /// What [`forward`] does to a scan's output before it scans again: the
    /// input its next scan sees.
    fn next_scan(mut ir: IrProgram) -> IrProgram {
        drop_identity_writes(&mut ir);
        ir
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The incremental engine commits exactly what the restart engine
        /// commits — under the RM3 cost model and under a model that
        /// commits every legal candidate — on every schedule × allocator,
        /// on lowered streams and on a second scan's input.
        #[test]
        fn incremental_forward_matches_the_restart_engine(seed in any::<u64>()) {
            for nodes in [16, 60, 180] {
                for schedule in ScheduleOrder::ALL {
                    for alloc in AllocatorStrategy::ALL {
                        let ir = lowered(nodes, seed, schedule, alloc);
                        assert_engines_agree(&ir, &Rm3Backend, KEY_SPACING);
                        let (forwarded, _) = assert_engines_agree(&ir, &EventCount, KEY_SPACING);
                        assert_engines_agree(&next_scan(forwarded), &EventCount, KEY_SPACING);
                    }
                }
            }
        }
    }

    /// [`forward`] as it was before it kept one index per run: every scan
    /// builds a fresh index, and identity writes are dropped by the plain
    /// [`drop_identity_writes`], with no index to patch.
    fn forward_with_fresh_indexes(ir: &mut IrProgram, backend: &dyn Backend) -> Forwarded {
        let mut scan = Scan::new(backend);
        let mut entry = None;
        let mut edits = 0;
        let mut scoring = TrialCounts::default();
        loop {
            let committed = Forwarder::new(ir, KEY_SPACING).run(ir, &mut scan);
            scoring += scan.counts();
            if edits == 0 {
                entry = scan.entry;
            }
            if committed == 0 {
                return Forwarded {
                    edits,
                    scoring,
                    entry,
                    cost: scan.entry,
                    bookkeeping: ForwardCounts::default(),
                };
            }
            edits += committed + drop_identity_writes(ir);
            scan = Scan::new(backend);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// One index per run, patched for the identity writes dropped
        /// between scans, gives what a fresh index per scan gives: the same
        /// edits, scoring, entry and final cost, and the same emitted
        /// bytes, under every target on the FIFO, LIFO and wear-leveling
        /// allocators. The run builds its index once. (Test builds also
        /// check every move verdict against [`tests::move_set_reference`]
        /// and the patched index against a fresh build.) Release builds
        /// draw larger graphs.
        #[test]
        fn one_index_per_run_matches_the_fresh_index_engine(seed in any::<u64>()) {
            let sizes: &[usize] = if cfg!(debug_assertions) {
                &[40, 200]
            } else {
                &[200, 800, 2000]
            };
            let allocators = [
                AllocatorStrategy::Fifo,
                AllocatorStrategy::Lifo,
                AllocatorStrategy::WearLeveled,
            ];
            for &nodes in sizes {
                for alloc in allocators {
                    let lowered = lowered(nodes, seed, ScheduleOrder::Priority, alloc);
                    for &backend in crate::backend::backends() {
                        let at = format!("{nodes} nodes, {alloc:?}, {}", backend.name());
                        let mut want_ir = lowered.clone();
                        let want = forward_with_fresh_indexes(&mut want_ir, backend);
                        let mut got_ir = lowered.clone();
                        let got = forward(&mut got_ir, backend);
                        prop_assert_eq!(got.edits, want.edits, "{}", at);
                        prop_assert_eq!(got.scoring, want.scoring, "{}", at);
                        prop_assert_eq!(got.entry, want.entry, "{}", at);
                        prop_assert_eq!(got.cost, want.cost, "{}", at);
                        prop_assert_eq!(got.bookkeeping.index_builds, 1, "{}", at);
                        prop_assert_eq!(
                            backend.emit(&got_ir).listing(),
                            backend.emit(&want_ir).listing(),
                            "{}", at
                        );
                    }
                }
            }
        }
    }

    /// A cost table behind a scorer that checks every verdict of the
    /// pipeline's scorer against a full replay, checks the committed end
    /// state against a full replay after every commit, and counts the
    /// commits of trials whose edit changed the stream's length.
    struct Audited(CostTable, std::sync::atomic::AtomicUsize);

    impl Audited {
        fn new(table: CostTable) -> Self {
            Audited(table, std::sync::atomic::AtomicUsize::new(0))
        }

        /// The commits so far whose edit changed the stream's length.
        fn shifted(&self) -> usize {
            self.1.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl Backend for Audited {
        fn name(&self) -> &'static str {
            "audited"
        }

        fn description(&self) -> &'static str {
            "every trial verdict and commit checked against a full replay"
        }

        fn instruction_set(&self) -> &'static [InstructionInfo] {
            Rm3Backend.instruction_set()
        }

        fn cost_table(&self) -> CostTable {
            self.0
        }

        fn scorer(&self, ir: &IrProgram) -> (Box<dyn TrialScorer + '_>, Cost) {
            let (inner, cost) = crate::ir::emit::DeltaScorer::new(ir, self.0);
            assert_eq!(cost, self.cost(ir), "initial cost");
            let scorer = AuditedScorer {
                inner,
                backend: self,
                accepted: None,
            };
            (Box::new(scorer), cost)
        }

        fn emit(&self, ir: &IrProgram) -> Box<dyn Artifact> {
            Rm3Backend.emit(ir)
        }
    }

    struct AuditedScorer<'a> {
        inner: crate::ir::emit::DeltaScorer,
        backend: &'a Audited,
        /// The last accepted trial's stream and edit.
        accepted: Option<(IrProgram, TrialEdit)>,
    }

    impl TrialScorer for AuditedScorer<'_> {
        fn trial(&mut self, ir: &IrProgram, edit: &TrialEdit, bound: Cost) -> Option<Cost> {
            let got = self.inner.trial(ir, edit, bound);
            let full = crate::ir::place(ir, self.backend.0, &mut ()).cost;
            assert_eq!(
                got.is_some(),
                full.improves_on(bound),
                "verdict at {edit:?}"
            );
            if let Some(cost) = got {
                assert_eq!(cost, full, "cost at {edit:?}");
            }
            self.accepted = got.map(|_| (ir.clone(), *edit));
            got
        }

        fn commit(&mut self) {
            let (ir, edit) = self.accepted.take().expect("an accepted trial");
            self.inner.commit();
            let full = crate::ir::emit::tests::full_replay(&ir, self.backend.0);
            assert_eq!(self.inner.committed(), full, "after {edit:?}");
            if edit.shift != 0 {
                self.backend
                    .1
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }

        fn counts(&self) -> TrialCounts {
            self.inner.counts()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// At every trial, the scorer accepts exactly when a full replay
        /// improves on the incumbent, and scores the accepted stream
        /// exactly as the full replay does; after every commit it holds
        /// the committed stream's cost and end write counts as a full
        /// replay computes them — under every allocator, each target's
        /// cost table and every schedule, on lowered streams and on a
        /// second scan's input. The trials it finishes by reconvergence
        /// are among them: under every table, every allocator but wear
        /// leveling has some, and wear leveling none. Some commits change
        /// the stream's length under every table.
        #[test]
        fn scorer_matches_full_replays(seed in any::<u64>()) {
            for table in crate::backend::backends().iter().map(|b| b.cost_table()) {
                let backend = Audited::new(table);
                for alloc in AllocatorStrategy::ALL {
                    crate::ir::emit::tests::take_trials();
                    for schedule in ScheduleOrder::ALL {
                        for nodes in [40, 250, 900] {
                            let mut ir = lowered(nodes, seed, schedule, alloc);
                            scan_once(&mut ir, &backend, KEY_SPACING);
                            let mut ir = next_scan(ir);
                            scan_once(&mut ir, &backend, KEY_SPACING);
                        }
                    }
                    let trials = crate::ir::emit::tests::take_trials();
                    let cuts = trials.iter().filter(|t| t.reconverged_at.is_some()).count();
                    if alloc == AllocatorStrategy::WearLeveled {
                        prop_assert_eq!(cuts, 0);
                    } else {
                        prop_assert!(cuts > 0, "{table:?}, {alloc:?}: no trial reconverged");
                    }
                }
                prop_assert!(backend.shifted() > 0, "{table:?}: no commit shifted the stream");
            }
        }
    }

    /// Every trial resumes from the checkpoint before its edit: the
    /// committed replay, advanced to the first event the edit changed. So
    /// under any allocator no trial replays an event before that one, and
    /// a rejected trial cannot silently fall back to a replay of the whole
    /// stream: most rejected trials resume past event 0. The events the
    /// scorer counts are exactly the spans its trials replayed.
    #[test]
    fn scorer_resumes_trials_from_the_checkpoint_before_the_edit() {
        crate::ir::emit::tests::take_trials();
        let (mut rejected, mut resumed_late) = (0, 0);
        for alloc in AllocatorStrategy::ALL {
            let mut ir = lowered(900, 1, ScheduleOrder::Priority, alloc);
            let run = forward(&mut ir, &Rm3Backend);
            let trials = crate::ir::emit::tests::take_trials();
            assert!(!trials.is_empty(), "{alloc:?}: no trials");
            for t in &trials {
                assert!(t.replayed.iter().all(|r| r.start == t.from), "{t:?}");
            }
            let late = trials.iter().filter(|t| !t.accepted);
            rejected += late.clone().count();
            resumed_late += late.filter(|t| t.from > 0).count();
            let replayed: usize = trials
                .iter()
                .flat_map(|t| &t.replayed)
                .map(|r| r.len())
                .sum();
            assert_eq!(replayed as u64, run.scoring.replayed, "{alloc:?}");
        }
        assert!(
            resumed_late * 2 > rejected,
            "{resumed_late} of {rejected} rejected trials resumed past event 0"
        );
    }

    /// On seeded control logic — the kind `compile-o2` times — most forward
    /// trials reconverge with the committed replay a few events past their
    /// edit under every allocator but `wear`, and finishing them there cuts
    /// the events the RM3 scorer replays to a fraction of a full replay of
    /// each trial's tail.
    ///
    /// Each row holds an allocator's trials at `-O2` on this input, which
    /// the scorer must match, and the events the scorers before it
    /// replayed, which it may not exceed: under `fifo` its own count, under
    /// the other four the count of the checkpointed scorer they used, which
    /// resumed each trial from the last checkpoint before its edit and
    /// could stop only at a committed checkpoint. The scorer that replayed
    /// every `fifo` trial to its end (checkpoints every max(256, 4 ×
    /// footprint) events) replayed 19,380,542 events over its 5,183 trials.
    /// The delta scorer replays 3,188,011 under `fifo`, 906,408 under
    /// `lifo`, 910,626 under `fresh`, 9,498,510 under `wear` and 3,048,846
    /// under `binned`.
    ///
    /// Release builds only, like the Forward scaling test: debug builds
    /// verify the program after every pass and take minutes here.
    #[cfg(not(debug_assertions))]
    #[test]
    fn scorer_cuts_replay_on_control_logic() {
        const ROWS: [(AllocatorStrategy, usize, u64); 5] = [
            (AllocatorStrategy::Fifo, 5183, 3_188_011),
            (AllocatorStrategy::Lifo, 1247, 994_379),
            (AllocatorStrategy::Fresh, 1171, 1_795_827),
            (AllocatorStrategy::WearLeveled, 1251, 9_665_411),
            (AllocatorStrategy::LifetimeBinned, 4291, 3_148_909),
        ];
        let mig = random_logic(&RandomLogicSpec::new(1024, 128, 5500, 1));
        for (alloc, trials, replayed) in ROWS {
            crate::ir::emit::tests::take_trials();
            let options = CompilerOptions::new()
                .opt(crate::OptLevel::O2)
                .allocator(alloc);
            let (_, report) = crate::compile_ir(&mig, options);
            let scoring = report.scoring();
            assert_eq!(scoring.trials, trials, "{alloc:?}: the trials");
            assert!(
                scoring.replayed <= replayed,
                "{alloc:?}: replayed {} events, more than {replayed}",
                scoring.replayed
            );
            let records = crate::ir::emit::tests::take_trials();
            let accepted = records.iter().filter(|t| t.accepted).count();
            let cut = records
                .iter()
                .filter(|t| t.accepted && t.reconverged_at.is_some())
                .count();
            if alloc == AllocatorStrategy::WearLeveled {
                assert_eq!(cut, 0, "wear leveling never cuts");
            } else {
                assert!(
                    cut * 10 >= accepted * 9,
                    "{alloc:?}: {cut} of {accepted} accepted trials cut"
                );
            }
        }
    }

    /// Scores a stream by its event count plus 100 per op whose
    /// destination differs from the one it had in `original`, except the
    /// retargets in `allowed`: a model that turns down every trial but
    /// the ones a test picks.
    struct Picky {
        original: Vec<CellId>,
        allowed: Vec<(usize, CellId)>,
    }

    impl Backend for Picky {
        fn name(&self) -> &'static str {
            "picky"
        }

        fn description(&self) -> &'static str {
            "accepts only the retargets a test picks"
        }

        fn instruction_set(&self) -> &'static [InstructionInfo] {
            &[]
        }

        fn cost_table(&self) -> CostTable {
            unreachable!("the model is no cost table")
        }

        fn cost(&self, ir: &IrProgram) -> Cost {
            let penalty = ir
                .ops
                .iter()
                .enumerate()
                .filter(|&(i, op)| op.z != self.original[i] && !self.allowed.contains(&(i, op.z)))
                .count();
            Cost {
                instructions: ir.events.len() + 100 * penalty,
                footprint: 0,
                wear: 0,
                units: 0,
            }
        }

        fn scorer(&self, ir: &IrProgram) -> (Box<dyn TrialScorer + '_>, Cost) {
            (Box::new(PickyScorer(self)), self.cost(ir))
        }

        fn emit(&self, _: &IrProgram) -> Box<dyn Artifact> {
            unreachable!("the forwarding pass never emits")
        }
    }

    struct PickyScorer<'a>(&'a Picky);

    impl TrialScorer for PickyScorer<'_> {
        fn trial(&mut self, ir: &IrProgram, _: &TrialEdit, bound: Cost) -> Option<Cost> {
            let cost = self.0.cost(ir);
            cost.improves_on(bound).then_some(cost)
        }

        fn commit(&mut self) {}

        fn counts(&self) -> TrialCounts {
            TrialCounts::default()
        }
    }

    /// Two ops copy `%0`, which is released between their copies and
    /// themselves. The second claims `%0` in place, which drops that
    /// release and so lets the first claim its own operand cell `%3`,
    /// whose rotate candidate needs the copied `%0` alive at the first op.
    /// The scan must go back to the dropped release to find it, as the
    /// restart engine does.
    #[test]
    fn a_dropped_release_before_the_main_op_resumes_the_scan_there() {
        use crate::ir::IrCell;
        let [d, x_e, x_m, w] = [0, 1, 2, 3].map(CellId);
        let op = |a, b, z| IrOp {
            a,
            b,
            z,
            rhs: plim::Rhs::Const(false),
            node: None,
        };
        let set = |z| op(Value::Const(true), Value::Const(false), z);
        let copy = |a, z| op(a, Value::Const(true), z);
        let ir = IrProgram {
            num_inputs: 4,
            ops: vec![
                set(d),
                copy(Value::Input(0), d),
                set(x_e),
                copy(Value::Cell(d), x_e),
                set(x_m),
                copy(Value::Cell(d), x_m),
                set(w),
                copy(Value::Input(1), w),
                op(Value::Cell(w), Value::Input(2), x_e),
                op(Value::Input(3), Value::Input(0), x_m),
            ],
            cells: vec![
                IrCell {
                    hint: crate::LifetimeClass::Short,
                };
                4
            ],
            events: vec![
                Event::Request(d),
                Event::Op(0),
                Event::Op(1),
                Event::Request(x_e),
                Event::Op(2),
                Event::Op(3),
                Event::Request(x_m),
                Event::Op(4),
                Event::Op(5),
                Event::Release(d),
                Event::Request(w),
                Event::Op(6),
                Event::Op(7),
                Event::Op(8),
                Event::Op(9),
                Event::Release(w),
            ],
            outputs: vec![
                ("f".to_string(), IrOutput::Cell(x_e)),
                ("g".to_string(), IrOutput::Cell(x_m)),
            ],
            mig_nodes: 2,
            allocator: AllocatorStrategy::Fifo,
        };
        assert_eq!(analysis::first_error(&ir), None, "a valid stream");
        let picky = Picky {
            original: ir.ops.iter().map(|op| op.z).collect(),
            allowed: vec![(8, w), (9, d)],
        };
        let (forwarded, _) = assert_engines_agree(&ir, &picky, KEY_SPACING);
        assert_eq!((forwarded.ops[8].z, forwarded.ops[9].z), (w, d));
    }

    /// A `forward` run that raises a structural lint count over the stream
    /// it was given is reverted whole, though the entry stream is linted
    /// only after the run. Here `%1` caches `¬%0` for node 7, and the main
    /// op, mislabeled with node 7, claims `%0` in place: the forwarded
    /// stream then reads a stale complement (`PA0005`), which the entry
    /// stream does not.
    #[test]
    fn a_run_that_raises_a_structural_lint_is_reverted() {
        use crate::ir::IrCell;
        let [d, k, x, y] = [0, 1, 2, 3].map(CellId);
        let node = Some(mig::NodeId::from_index(7));
        let op = |a, b, z, node| IrOp {
            a,
            b,
            z,
            rhs: plim::Rhs::Const(false),
            node,
        };
        let set = |z| op(Value::Const(true), Value::Const(false), z, None);
        let reset = |z| op(Value::Const(false), Value::Const(true), z, None);
        let ir = IrProgram {
            num_inputs: 3,
            ops: vec![
                set(d),
                op(Value::Input(0), Value::Const(true), d, None),
                reset(k),
                op(Value::Const(true), Value::Cell(d), k, node),
                reset(x),
                op(Value::Cell(d), Value::Input(1), x, node),
                set(y),
                op(Value::Cell(k), Value::Input(2), y, None),
            ],
            cells: vec![
                IrCell {
                    hint: crate::LifetimeClass::Short,
                };
                4
            ],
            events: vec![
                Event::Request(d),
                Event::Op(0),
                Event::Op(1),
                Event::Request(k),
                Event::Op(2),
                Event::Op(3),
                Event::Request(x),
                Event::Op(4),
                Event::Op(5),
                Event::Release(d),
                Event::Request(y),
                Event::Op(6),
                Event::Op(7),
                Event::Release(k),
            ],
            outputs: vec![
                ("f".to_string(), IrOutput::Cell(x)),
                ("g".to_string(), IrOutput::Cell(y)),
            ],
            mig_nodes: 8,
            allocator: AllocatorStrategy::Fifo,
        };
        assert_eq!(analysis::first_error(&ir), None, "a valid stream");
        let structural = analysis::AnalysisConfig::structural();
        let stale = |ir: &IrProgram| {
            analysis::analyze_events(ir, &structural)
                .iter()
                .filter(|diag| diag.lint == analysis::Lint::StaleComplement)
                .count()
        };
        let mut forwarded = ir.clone();
        assert!(
            forward(&mut forwarded, &Rm3Backend).edits > 0,
            "nothing forwarded"
        );
        assert_eq!((stale(&ir), stale(&forwarded)), (0, 1));
        let mut run = ir.clone();
        let report = PassManager::for_level(crate::OptLevel::O2).run(
            &mut run,
            &mig::Mig::new(),
            &Rm3Backend,
        );
        assert_eq!(report.runs[0].edits, 0, "{report:?}");
        assert_eq!(report.runs[0].instructions_after, ir.num_instructions());
        assert_eq!(
            (run.events, run.ops, run.outputs),
            (ir.events, ir.ops, ir.outputs)
        );
    }

    /// With keys one apart, every moved block exhausts its gap and the
    /// whole stream is renumbered; with keys a few apart, some gaps last.
    /// Either way the commits are the restart engine's.
    #[test]
    fn exhausted_key_gaps_renumber_the_stream() {
        for spacing in [1, 3] {
            let mut renumbers = 0;
            for seed in 0..6 {
                let ir = lowered(150, seed, ScheduleOrder::Priority, AllocatorStrategy::Lifo);
                renumbers += assert_engines_agree(&ir, &EventCount, spacing).1;
            }
            assert!(renumbers > 0, "spacing {spacing}: no gap ran out");
        }
        let ir = lowered(150, 1, ScheduleOrder::Priority, AllocatorStrategy::Lifo);
        let (_, renumbers) = assert_engines_agree(&ir, &EventCount, KEY_SPACING);
        assert_eq!(renumbers, 0, "wide gaps never run out on a small stream");
    }

    /// The incremental engine commits exactly what the restart engine
    /// commits on every reduced suite circuit, rewritten at effort 4, on
    /// every allocator, under the RM3 cost model and under a model that
    /// commits every legal candidate.
    ///
    /// Release builds only: the restart engine replays the whole stream
    /// per trial, and debug builds re-check the IR per trial too.
    #[cfg(not(debug_assertions))]
    #[test]
    fn forward_matches_the_restart_engine_on_the_reduced_suite() {
        use plim_benchmarks::suite::{self, Scale};
        for name in suite::ALL {
            let mig = suite::build(name, Scale::Reduced).expect("suite circuit");
            let rewritten = mig::rewrite::rewrite(&mig, 4);
            for alloc in AllocatorStrategy::ALL {
                let ir = crate::ir::lower(&rewritten, CompilerOptions::new().allocator(alloc));
                assert_engines_agree(&ir, &Rm3Backend, KEY_SPACING);
                assert_engines_agree(&ir, &EventCount, KEY_SPACING);
            }
        }
    }

    /// The `PA0006` findings the analyzer reports on an `-O2` artifact.
    fn dead_writes(ir: &IrProgram) -> usize {
        let config = analysis::AnalysisConfig::for_level(OptLevel::O2);
        let diags = analysis::analyze_events(ir, &config);
        diags
            .iter()
            .filter(|d| d.lint == analysis::Lint::DeadWrite)
            .count()
    }

    /// Known-constant dataflow along the stream: calls `action` for every op event with
    /// the op's known result (if determined) and whether the cell already holds
    /// exactly that value. `action` returns `true` to *remove* the op event.
    fn const_flow(
        ir: &mut IrProgram,
        mut action: impl FnMut(&IrOp, Option<bool>, bool) -> bool,
    ) -> usize {
        let mut known: Vec<Option<bool>> = vec![None; ir.cells.len()];
        let mut defined = vec![false; ir.cells.len()];
        let mut keep = vec![true; ir.events.len()];
        let mut edits = 0;
        for (pos, &event) in ir.events.iter().enumerate() {
            match event {
                Event::Request(c) => {
                    known[c.index()] = None;
                    defined[c.index()] = false;
                }
                Event::Release(_) => {}
                Event::Op(i) => {
                    let value_of = |v: Value, known: &[Option<bool>]| match v {
                        Value::Const(x) => Some(x),
                        Value::Input(_) => None,
                        Value::Cell(c) => known[c.index()],
                    };
                    let op = &ir.ops[i as usize];
                    let z = op.z.index();
                    let result = if let Some(v) = masked_const(op) {
                        Some(v)
                    } else if matches!((op.a, op.b), (Value::Const(x), Value::Const(y)) if x == y) {
                        // ⟨x x̄ z⟩ = z: an identity write.
                        if defined[z] {
                            known[z]
                        } else {
                            None
                        }
                    } else {
                        let p = value_of(op.a, &known);
                        let q = value_of(op.b, &known).map(|v| !v);
                        let r = if defined[z] { known[z] } else { None };
                        match (p, q, r) {
                            (Some(x), Some(y), _) if x == y => Some(x),
                            (Some(x), _, Some(y)) if x == y => Some(x),
                            (_, Some(x), Some(y)) if x == y => Some(x),
                            (Some(x), Some(y), Some(w)) => {
                                Some(usize::from(x) + usize::from(y) + usize::from(w) >= 2)
                            }
                            _ => None,
                        }
                    };
                    let identity = matches!((op.a, op.b), (Value::Const(x), Value::Const(y)) if x == y)
                        && defined[z];
                    let resident = defined[z] && result.is_some() && known[z] == result;
                    if (identity || resident) && action(op, result, true)
                        || (!identity && !resident && action(op, result, false))
                    {
                        keep[pos] = false;
                        edits += 1;
                        continue; // removed: the cell keeps its previous value
                    }
                    known[z] = result;
                    defined[z] = true;
                }
            }
        }
        if edits > 0 {
            let mut index = 0;
            ir.events.retain(|_| {
                index += 1;
                keep[index - 1]
            });
            gc_cells(ir);
        }
        edits
    }

    /// The known-constant redundant-initialization removal that
    /// [`drop_identity_writes`] replaced, kept as its reference: removes
    /// every op that re-materializes the constant its cell provably holds —
    /// a reset of a cell already holding 0, a constant-foldable op whose
    /// result equals the resident value, or an identity write to a defined
    /// cell.
    fn redundant_init(ir: &mut IrProgram) -> usize {
        const_flow(ir, |_op, _result, resident| resident)
    }

    /// The request and release events of cells no op or output touches.
    fn untouched_cell_events(ir: &IrProgram) -> usize {
        let mut swept = ir.clone();
        gc_cells(&mut swept);
        ir.events.len() - swept.events.len()
    }

    /// The identity writes `⟨c c̄ z⟩` in `ir`'s stream.
    fn identity_writes(ir: &IrProgram) -> usize {
        ir.events
            .iter()
            .filter(|&&event| ir.op_of(event).is_some_and(IrOp::identity))
            .count()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// Identity-write removal removes exactly the events the
        /// known-constant reference removes, and leaves the same program,
        /// on lowered streams and on the output of one `forward` scan under
        /// each target, on every schedule × allocator × operand policy.
        /// Release builds draw larger graphs.
        #[test]
        fn identity_removal_matches_the_const_flow_reference(seed in any::<u64>()) {
            let sizes: &[usize] = if cfg!(debug_assertions) {
                &[16, 80, 250]
            } else {
                &[60, 300, 1000]
            };
            for &nodes in sizes {
                let inputs = 3 + (seed % 6) as usize;
                let outputs = 1 + (seed / 7 % 5) as usize;
                let mig = random_logic(&RandomLogicSpec::new(inputs, outputs, nodes, seed));
                for schedule in ScheduleOrder::ALL {
                    for alloc in AllocatorStrategy::ALL {
                        for operands in OperandSelection::ALL {
                            let options = CompilerOptions::new()
                                .schedule(schedule)
                                .allocator(alloc)
                                .operands(operands);
                            let lowered = crate::ir::lower(&mig, options);
                            let mut streams = vec![("lowered", lowered.clone())];
                            for &backend in crate::backend::backends() {
                                let mut forwarded = lowered.clone();
                                scan_once(&mut forwarded, backend, KEY_SPACING);
                                streams.push((backend.name(), forwarded));
                            }
                            for (stream, ir) in streams {
                                let at = format!("{nodes} nodes, {}, {stream}", options.spec());
                                let mut want = ir.clone();
                                let mut got = ir;
                                prop_assert_eq!(
                                    drop_identity_writes(&mut got),
                                    redundant_init(&mut want),
                                    "{}", at
                                );
                                prop_assert_eq!(&got.events, &want.events, "{}", at);
                                prop_assert_eq!(&got.ops, &want.ops, "{}", at);
                                prop_assert_eq!(&got.cells, &want.cells, "{}", at);
                                prop_assert_eq!(&got.outputs, &want.outputs, "{}", at);
                            }
                        }
                    }
                }
            }
        }
    }

    /// The non-masking ops of `ir` whose result the constants resident in
    /// their cells fix, found by the known-constant dataflow.
    fn foldable_ops(ir: &IrProgram) -> usize {
        let mut found = 0;
        const_flow(&mut ir.clone(), |op, result, resident| {
            if !resident && result.is_some() && !op.masking() {
                found += 1;
            }
            false
        });
        found
    }

    /// The guard below finds each pattern it looks for: `%1 ← 1; %0 ← 0;
    /// %1 ← ⟨%0 1̄ %1⟩` computes 0 from known constants over a cell holding
    /// 1, and once no output reads `%1`, its writes are dead.
    #[test]
    fn the_guard_finds_a_foldable_op_and_dead_writes() {
        use crate::ir::IrCell;
        let (c0, c1) = (CellId(0), CellId(1));
        let op = |a, b, z| IrOp {
            a,
            b,
            z,
            rhs: plim::Rhs::Const(false),
            node: None,
        };
        let cell = IrCell {
            hint: crate::LifetimeClass::Short,
        };
        let mut ir = IrProgram {
            num_inputs: 0,
            ops: vec![
                op(Value::Const(true), Value::Const(false), c1),
                op(Value::Const(false), Value::Const(true), c0),
                op(Value::Cell(c0), Value::Const(true), c1),
            ],
            cells: vec![cell; 2],
            events: vec![
                Event::Request(c1),
                Event::Op(0),
                Event::Request(c0),
                Event::Op(1),
                Event::Op(2),
                Event::Release(c0),
            ],
            outputs: vec![("f".to_string(), IrOutput::Cell(c1))],
            mig_nodes: 0,
            allocator: AllocatorStrategy::Fifo,
        };
        assert_eq!((foldable_ops(&ir), dead_writes(&ir)), (1, 0));
        ir.outputs[0].1 = IrOutput::Const(false);
        assert_eq!(dead_writes(&ir), 3);
    }

    /// Checks a lowered stream four ways: no `PA0006` finding, no
    /// foldable op, no identity write, and the known-constant reference
    /// removes nothing, so no level need run a removal pass before
    /// [`forward`] has.
    fn assert_lowered_stream_is_clean(lowered: &IrProgram, at: &str) {
        assert_eq!(dead_writes(lowered), 0, "lowered, {at}");
        assert_eq!(foldable_ops(lowered), 0, "lowered, {at}");
        assert_eq!(identity_writes(lowered), 0, "lowered, {at}");
        assert_eq!(redundant_init(&mut lowered.clone()), 0, "lowered, {at}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// No pass removes dead writes or folds ops whose result resident
        /// constants fix, because neither lowering nor the `-O2` pipeline
        /// makes one: on every schedule × allocator × operand policy, the
        /// lowered stream and its `-O2` result under each target carry no
        /// `PA0006` finding, no such op and no identity write, and the
        /// known-constant reference finds nothing to remove in either.
        /// Every cell the `-O2` result requests is touched by an op or an
        /// output, so it needs no sweep for dead cells. A change that
        /// brings any of these back fails here instead of shipping a
        /// longer stream. Release builds draw larger graphs.
        #[test]
        fn streams_have_no_dead_write_or_foldable_op(seed in any::<u64>()) {
            let sizes: &[usize] = if cfg!(debug_assertions) {
                &[16, 80, 250]
            } else {
                &[60, 300, 1000]
            };
            for &nodes in sizes {
                let inputs = 3 + (seed % 6) as usize;
                let outputs = 1 + (seed / 7 % 5) as usize;
                let mig = random_logic(&RandomLogicSpec::new(inputs, outputs, nodes, seed));
                for schedule in ScheduleOrder::ALL {
                    for alloc in AllocatorStrategy::ALL {
                        for operands in OperandSelection::ALL {
                            let options = CompilerOptions::new()
                                .schedule(schedule)
                                .allocator(alloc)
                                .operands(operands);
                            let lowered = crate::ir::lower(&mig, options);
                            let at = format!("{nodes} nodes, {}", options.spec());
                            assert_lowered_stream_is_clean(&lowered, &at);
                            for &backend in crate::backend::backends() {
                                let mut ir = lowered.clone();
                                PassManager::for_level(OptLevel::O2).run(&mut ir, &mig, backend);
                                let at = format!("{at}, -O2 on {}", backend.name());
                                prop_assert_eq!(dead_writes(&ir), 0, "{}", at);
                                prop_assert_eq!(foldable_ops(&ir), 0, "{}", at);
                                prop_assert_eq!(identity_writes(&ir), 0, "{}", at);
                                prop_assert_eq!(redundant_init(&mut ir.clone()), 0, "{}", at);
                                prop_assert_eq!(untouched_cell_events(&ir), 0, "{}", at);
                            }
                        }
                    }
                }
            }
        }
    }

    /// The same check on the benchmark suite as `plimc` compiles it (the
    /// default rewrite), on every schedule × allocator × operand policy:
    /// the reduced suite in debug builds, the full suite in release.
    #[test]
    fn suite_streams_have_no_dead_write_or_foldable_op() {
        use plim_benchmarks::suite::{self, Scale};
        let scale = if cfg!(debug_assertions) {
            Scale::Reduced
        } else {
            Scale::Full
        };
        for name in suite::ALL {
            let mig = suite::build(name, scale).expect("suite circuit");
            let rewritten = mig::rewrite::rewrite(&mig, 4);
            for schedule in ScheduleOrder::ALL {
                for alloc in AllocatorStrategy::ALL {
                    for operands in OperandSelection::ALL {
                        let options = CompilerOptions::new()
                            .schedule(schedule)
                            .allocator(alloc)
                            .operands(operands);
                        let lowered = crate::ir::lower(&rewritten, options);
                        assert_lowered_stream_is_clean(
                            &lowered,
                            &format!("{name}, {}", options.spec()),
                        );
                    }
                }
            }
        }
    }
}
