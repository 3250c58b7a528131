//! The optimizing pass pipeline run between lowering and emission.
//!
//! Two passes rewrite the IR event stream under the [`OptLevel`] chosen in
//! [`crate::CompilerOptions`]:
//!
//! * [`redundant_init`] — removes initializations that re-materialize a
//!   constant already resident in the cell, and identity writes;
//! * [`forward`] — in-place-overwrite forwarding: when a node's destination
//!   value was materialized into a fresh cell (a constant load or a copy)
//!   even though a cell holding one of the instruction's inputs dies
//!   *physically* unread afterwards, the materialization is deleted and the
//!   instruction retargeted to overwrite the dying cell in place, moving it
//!   past that cell's last read. This harvests slack no scheduler can see:
//!   the lowering's reference counts overestimate lifetimes, because
//!   consumers that read a cached complement never touch the value cell.
//!   It indexes cells by stable event keys once per run and resumes where
//!   it committed, so its bookkeeping per commit is proportional to the
//!   edit, and it scores each trial edit through the backend's
//!   [`TrialScorer`], which replays only from the checkpoint before the
//!   edit to where the replay reconverges with the committed one (see
//!   [`forward`]'s cost section).
//!
//! `-O0` runs nothing, `-O1` one `redundant-init` run, and `-O2` runs
//! `forward` then `redundant-init`, round after round, to a fixpoint. A pass
//! is a plain function the [`PassManager`] calls; after every run that
//! edited the stream the manager lint-checks the IR, re-checks it
//! structurally, gates it on cost, and — in debug/test builds — replays it
//! through the machine-simulator equivalence check against the source MIG,
//! so a broken pass fails loudly at the pass boundary, not in some
//! downstream consumer.
//!
//! No pass removes dead writes or folds ops whose result resident constants
//! fix, because no stream the product makes has either. `Mig::maj` applies
//! Ω.M, so no node has two constant children, and lowering puts a constant
//! into a cell only as a destination initialization. Lowering writes a cell
//! only for a value some op or output reads, and [`forward`] renames every
//! reader onto the cell it claims. The analyzer's `PA0006` lint checks
//! for dead writes on every `-O1+` artifact it is pointed at, and a seeded
//! test in this module checks for both on lowered and optimized streams.

use mig::Mig;

use crate::backend::{Backend, Cost, TrialCounts, TrialEdit, TrialScorer};
use crate::options::OptLevel;

use super::{analysis, CellId, Event, IrOp, IrOutput, IrProgram, Value};

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

/// Maximum pipeline rounds at `-O2`; each round must edit the stream to
/// continue, so this is a backstop, not a tuning knob.
const MAX_ROUNDS: usize = 8;

/// Runs the pipeline an [`OptLevel`] selects, verifying after every pass.
#[derive(Debug)]
pub struct PassManager {
    /// Whether each round opens with [`forward`] (`-O2`).
    forward: bool,
    /// Rounds at most; `0` runs nothing.
    rounds: usize,
}

impl PassManager {
    /// The pipeline of an optimization level.
    pub fn for_level(opt: OptLevel) -> Self {
        let (forward, rounds) = match opt {
            OptLevel::O0 => (false, 0),
            OptLevel::O1 => (false, 1),
            OptLevel::O2 => (true, MAX_ROUNDS),
        };
        PassManager { forward, rounds }
    }

    /// Runs the pipeline to completion (one round at `-O1`, fixpoint at
    /// `-O2`), returning the per-pass accounting.
    ///
    /// Trial edits are scored under `backend`'s cost model, and so are the
    /// quality gates: [`forward`] commits only trials that
    /// [improve on](Cost::improves_on) the incumbent, and a
    /// [`redundant_init`] run that leaves the stream
    /// [worse than](Cost::worse_than) the incumbent is reverted. At `-O2`
    /// every round opens with `forward`, whose scorer prices the stream it
    /// is given and ends at the price of the stream it returns, so the
    /// manager takes its incumbent from there instead of replaying the
    /// stream; debug builds check that price against a full replay.
    ///
    /// After every pass that edited the stream, the IR is structurally
    /// re-checked, and in debug/test builds the emitted program is verified
    /// equivalent to `mig` on the machine simulator.
    ///
    /// # Panics
    ///
    /// Panics if a pass produces structurally invalid IR or (debug builds)
    /// a program that is not equivalent to the source MIG — both are
    /// compiler bugs that must not reach emitted artifacts.
    pub fn run(&self, ir: &mut IrProgram, mig: &Mig, backend: &dyn Backend) -> PassReport {
        // `-O0`: nothing would read the cost or lint baselines below.
        if self.rounds == 0 {
            return PassReport::default();
        }
        let structural = analysis::AnalysisConfig::structural();
        let mut guard = Guard {
            mig,
            lints: analysis::lint_counts(&analysis::analyze_events(ir, &structural)),
            report: PassReport::default(),
        };
        // The incumbent `redundant-init`'s gate compares against. At `-O2`
        // each round's `forward` sets it before that gate reads it.
        let mut current = (!self.forward).then(|| backend.cost(ir));
        for _ in 0..self.rounds {
            let mut round_edits = 0;
            if self.forward {
                let before = Snapshot::take(ir);
                let run = forward(ir, backend);
                // Forward's commit rule is its gate: every commit improves
                // on the incumbent.
                let edits = guard.settle(ir, before, "forward", run.edits, run.scoring, |_| true);
                // A reverted run leaves the stream `forward` was given.
                let incumbent = if edits > 0 { run.cost } else { run.entry };
                debug_assert_eq!(incumbent, backend.cost(ir), "forward's scorer mispriced");
                current = Some(incumbent);
                round_edits += edits;
            }
            let incumbent = current.as_mut().expect("priced at entry or by forward");
            let before = Snapshot::take(ir);
            let edits = redundant_init(ir);
            // A pass may only trade instructions down, never footprint or
            // endurance up. Allocator replay makes footprint and wear
            // global properties of the stream, so an edit that shifts reuse
            // the wrong way is reverted wholesale rather than shipped.
            round_edits += guard.settle(
                ir,
                before,
                "redundant-init",
                edits,
                TrialCounts::default(),
                |ir| {
                    let after = backend.cost(ir);
                    let keep = !after.worse_than(*incumbent);
                    if keep {
                        *incumbent = after;
                    }
                    keep
                },
            );
            if round_edits == 0 {
                break;
            }
        }
        guard.report
    }
}

/// The checks every pass run goes through, and the runs so far.
struct Guard<'a> {
    /// The source graph, for the debug equivalence check.
    mig: &'a Mig,
    /// The analyzer's structural lint counts at pipeline entry.
    lints: [usize; analysis::LINT_COUNT],
    report: PassReport,
}

impl Guard<'_> {
    /// Checks a pass run that took `ir` from `before` with `edits` edits
    /// and records it; returns the edits kept.
    ///
    /// Translation validation: a run that raises any structural lint count
    /// over the pipeline's entry is reverted wholesale, exactly like one
    /// `keep` turns down. The analyzer is the arbiter; the
    /// [`IrProgram::check`] panic is only a backstop for streams so broken
    /// the analyzer itself missed them.
    fn settle(
        &mut self,
        ir: &mut IrProgram,
        before: Snapshot,
        pass: &'static str,
        mut edits: usize,
        scoring: TrialCounts,
        keep: impl FnOnce(&IrProgram) -> bool,
    ) -> usize {
        let instructions_before = before.instructions;
        if edits > 0 {
            let structural = analysis::AnalysisConfig::structural();
            let after = analysis::lint_counts(&analysis::analyze_events(ir, &structural));
            let valid = !analysis::introduces(&self.lints, &after);
            if valid {
                if let Err(error) = ir.check() {
                    panic!("pass `{pass}` produced invalid IR: {error}");
                }
            }
            if !(valid && keep(ir)) {
                before.restore(ir);
                edits = 0;
            } else {
                #[cfg(debug_assertions)]
                if let Err(error) = crate::verify::verify(self.mig, &super::emit(ir), 1, 0xDAC2016)
                {
                    panic!("pass `{pass}` broke machine-simulator equivalence: {error}");
                }
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = self.mig;
        self.report.runs.push(PassRun {
            pass,
            instructions_before,
            instructions_after: ir.num_instructions(),
            edits,
            scoring,
        });
        edits
    }
}

/// What a pass may change, saved so a rejected run can be reverted: the
/// event stream, the (plain-data) ops, and the outputs' locations. Cell
/// metadata is never edited, so it is not copied.
struct Snapshot {
    events: Vec<Event>,
    ops: Vec<IrOp>,
    outputs: Vec<IrOutput>,
    /// `#I` of the saved stream.
    instructions: usize,
}

impl Snapshot {
    fn take(ir: &IrProgram) -> Self {
        Snapshot {
            instructions: ir.num_instructions(),
            events: ir.events.clone(),
            ops: ir.ops.clone(),
            outputs: ir.outputs.iter().map(|(_, output)| *output).collect(),
        }
    }

    fn restore(self, ir: &mut IrProgram) {
        debug_assert_eq!(ir.ops.len(), self.ops.len(), "passes never add ops");
        ir.events = self.events;
        ir.ops = self.ops;
        for ((_, output), saved) in ir.outputs.iter_mut().zip(self.outputs) {
            *output = saved;
        }
    }
}

/// Drops request/release events of cells no surviving op or output touches,
/// so emission never allocates for values the passes optimized away.
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

/// The constant a masking op writes (`None` for non-masking ops).
fn masked_const(op: &IrOp) -> Option<bool> {
    match (op.a, op.b) {
        (Value::Const(x), Value::Const(y)) if x != y => Some(x),
        _ => None,
    }
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

/// Redundant-initialization removal (`redundant-init`): returns the number
/// of ops removed.
///
/// Tracks which constant each cell provably holds and removes ops that
/// re-materialize exactly that value — a reset of a cell already holding 0,
/// a constant-foldable RM3 whose result equals the resident value, or an
/// identity `⟨x x̄ z⟩` write.
pub fn redundant_init(ir: &mut IrProgram) -> usize {
    const_flow(ir, |_op, _result, resident| resident)
}

/// What one [`forward`] run did, and the stream's cost before and after it
/// as the run's scorer priced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Forwarded {
    /// Edits committed.
    pub edits: usize,
    /// What scoring the run's trial edits cost.
    pub scoring: TrialCounts,
    /// The cost of the stream the run was given.
    pub entry: Cost,
    /// The cost of the stream it returns: the last committed trial's, or
    /// `entry` when none committed.
    pub cost: Cost,
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
/// and release) that increase along the stream; a commit re-keys only the
/// moved block, inside the gap it lands in, and renumbers the whole stream
/// only when that gap runs out. After a commit the index is patched for the
/// cells the edit touched and the scan resumes at the committed position,
/// first re-visiting the earlier ops that touch a changed cell. Every other
/// earlier op still has no applicable edit — its candidates read only
/// unchanged index entries, and any that reached a trial is memoized as
/// rejected — so the commits, and the emitted bytes, are exactly those of a
/// rescan from the start. Bookkeeping per commit is proportional to the
/// edit (the touched cells' lists and the rewritten event span), apart
/// from one memory move of the stream's tail when the edit deletes events.
///
/// Trials are scored by the backend's [`TrialScorer`], told where the edit
/// changed the stream ([`TrialEdit`], from the undo log: the rewritten
/// span, the release it removed past the span, and the merged cells). The
/// scorer resumes its allocator replay from the last checkpoint of the
/// committed stream at or before the first changed event, abandons it as
/// soon as the footprint or wear passes the incumbent's, and stops it at
/// the first committed checkpoint past the change where the replay has
/// reconverged with the committed one up to a renaming of addresses — the
/// final cost then follows from the committed replay's in O(footprint).
/// A trial costs the replay from its checkpoint to where it lost or
/// reconverged, not a replay of the stream's tail.
pub fn forward(ir: &mut IrProgram, backend: &dyn Backend) -> Forwarded {
    let mut forwarder = Forwarder::new(ir, backend, KEY_SPACING);
    let entry = forwarder.baseline;
    let edits = forwarder.run(ir);
    Forwarded {
        edits,
        scoring: forwarder.scorer.counts(),
        entry,
        cost: forwarder.baseline,
    }
}

/// Distance between consecutive event keys whenever the stream is keyed
/// from scratch.
const KEY_SPACING: u64 = 1 << 32;

/// The key of an op no event references (deleted, or never scheduled).
const DEAD: u64 = u64::MAX;

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

/// One touch-list entry: the touching op's event key, the op, and how it
/// touches the cell.
type Entry = (u64, u32, Touch);

/// Event keys plus a per-cell touch index, kept in step with the stream
/// across a whole [`forward`] run.
struct CellIndex {
    /// Per cell, its touches in stream (key) order.
    touches: Vec<Vec<Entry>>,
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
        let mut index = CellIndex {
            touches: vec![Vec::new(); ir.cells.len()],
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
                index.push_touches(ir, i, key);
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

    /// Appends op `i`'s touches at `key` to the lists of the cells it
    /// touches.
    fn push_touches(&mut self, ir: &IrProgram, i: u32, key: u64) {
        let op = &ir.ops[i as usize];
        for value in [op.a, op.b] {
            if let Value::Cell(c) = value {
                self.touches[c.index()].push((key, i, Touch::Read));
            }
        }
        let z = &mut self.touches[op.z.index()];
        if op.masking() {
            z.push((key, i, Touch::DefMask));
        } else {
            z.push((key, i, Touch::Read));
            z.push((key, i, Touch::DefPlain));
        }
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
        for list in &mut self.touches {
            for entry in list {
                entry.0 = self.op_key[entry.1 as usize];
            }
        }
    }

    /// The materialization chain feeding the old value of `x` at the op
    /// keyed `key`: the distinct ops touching `x` before it must be exactly
    /// `init` or `set; copy`.
    fn chain(&self, ir: &IrProgram, x: CellId, key: u64) -> Option<Chain> {
        let mut ops = [0u32; 2];
        let mut len = 0;
        for &(k, i, _) in &self.touches[x.index()] {
            if k >= key {
                break;
            }
            if len > 0 && ops[len - 1] == i {
                continue;
            }
            if len == ops.len() {
                return None;
            }
            ops[len] = i;
            len += 1;
        }
        match ops[..len] {
            [init] => {
                let init_op = &ir.ops[init as usize];
                match masked_const(init_op) {
                    Some(value) if init_op.z == x => Some(Chain {
                        init,
                        copy: None,
                        value: Value::Const(value),
                    }),
                    _ => None,
                }
            }
            [init, copy] => {
                let init_op = &ir.ops[init as usize];
                let copy_op = &ir.ops[copy as usize];
                let is_set = masked_const(init_op) == Some(true) && init_op.z == x;
                let is_copy = copy_op.z == x
                    && copy_op.b == Value::Const(true)
                    && !matches!(copy_op.a, Value::Const(_));
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
    /// overwrite slot goes unused) and the cell is never written again nor
    /// an output, the key of its last such read (`key` when there is none);
    /// otherwise `None`.
    ///
    /// Any later write disqualifies the cell — including a *masking* one.
    /// Neither lowering nor a pass re-initializes a virtual cell
    /// mid-lifetime, but this is a legality rule, not a shortcut: claiming
    /// such a cell would let the rename put reads of the forwarded value
    /// behind that re-initialization.
    fn unused_slot_last_read(&self, cell: CellId, key: u64) -> Option<u64> {
        if self.is_output[cell.index()] {
            return None;
        }
        let list = &self.touches[cell.index()];
        let mut last = key;
        for &(k, _, touch) in &list[list.partition_point(|e| e.0 <= key)..] {
            match touch {
                Touch::Read => last = k,
                Touch::DefMask | Touch::DefPlain => return None,
            }
        }
        Some(last)
    }

    /// Whether `cell` is written by an op keyed in `(after, through]`.
    fn defined_in(&self, cell: CellId, after: u64, through: u64) -> bool {
        let list = &self.touches[cell.index()];
        list[list.partition_point(|e| e.0 <= after)..]
            .iter()
            .take_while(|e| e.0 <= through)
            .any(|e| e.2 != Touch::Read)
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
    /// rejected does not depend on the order ops join in. It is computed as
    /// a worklist over the touch lists: a cell entering the written set
    /// pulls in every window op touching it, a cell entering the read set
    /// every window op writing it — O(closure), not O(window × sweeps).
    #[allow(clippy::too_many_arguments)]
    fn move_set(
        &self,
        ir: &IrProgram,
        key: u64,
        x: CellId,
        d: CellId,
        new_a: Value,
        b: Value,
        last_read: u64,
    ) -> Option<Vec<(u64, u32)>> {
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
            let list = &self.touches[cell.index()];
            for &(k, i, touch) in &list[list.partition_point(|e| e.0 <= key)..] {
                if k > last_read {
                    break;
                }
                if (!written && touch == Touch::Read) || moved.iter().any(|&(_, j)| j == i) {
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
}

/// The materialization chain feeding a destination's old value: `init c`
/// (`copy` is `None`, `value` the constant) or `set; ⟨s 1̄ 1⟩` (`value`
/// the copied source `s`).
struct Chain {
    init: u32,
    copy: Option<u32>,
    value: Value,
}

/// One [`forward`] run: the index, the quality-gate memo, and the resume
/// state.
struct Forwarder<'a> {
    /// Scores trials against the committed stream.
    scorer: Box<dyn TrialScorer + 'a>,
    index: CellIndex,
    /// Candidates (op, claimed cell) turned down by the quality gate or a
    /// blocked move; they stay rejected for the rest of the run.
    rejected: std::collections::HashSet<(u32, u32)>,
    /// The current stream's cost.
    baseline: Cost,
    /// `(key, op)` of ops before the scan cursor that touch a cell a commit
    /// changed and so must be re-visited before the scan goes on.
    pending: std::collections::BTreeSet<(u64, u32)>,
    /// Per-op scratch marks for patching the index.
    changed: Vec<bool>,
    /// Pending ops re-visited.
    #[cfg_attr(not(test), allow(dead_code))]
    revisits: usize,
    /// Whole-stream renumberings.
    #[cfg_attr(not(test), allow(dead_code))]
    renumbers: usize,
}

impl<'a> Forwarder<'a> {
    fn new(ir: &IrProgram, backend: &'a dyn Backend, spacing: u64) -> Self {
        let (scorer, baseline) = backend.scorer(ir);
        Forwarder {
            scorer,
            index: CellIndex::build(ir, spacing),
            rejected: std::collections::HashSet::new(),
            baseline,
            pending: std::collections::BTreeSet::new(),
            changed: vec![false; ir.ops.len()],
            revisits: 0,
            renumbers: 0,
        }
    }

    /// Applies forwarding edits until none applies, returning how many
    /// committed.
    ///
    /// Invariant: every op before `cursor` that is not pending has no
    /// applicable edit, so visiting the pending ops in key order and then
    /// the stream from `cursor` on finds exactly the commit a rescan from
    /// the start would.
    fn run(&mut self, ir: &mut IrProgram) -> usize {
        let mut edits = 0;
        let mut cursor = 0;
        loop {
            let pos = if let Some((key, op)) = self.pending.pop_first() {
                if self.index.op_key[op as usize] != key {
                    continue; // deleted since it was marked
                }
                self.revisits += 1;
                self.index.position(ir, key)
            } else if cursor < ir.events.len() {
                cursor += 1;
                cursor - 1
            } else {
                break;
            };
            if let Some(resume) = self.forward_at(ir, pos) {
                edits += 1;
                cursor = resume;
            }
        }
        if edits > 0 {
            gc_cells(ir);
        }
        edits
    }

    /// Trials the forwarding candidates of the op at `pos` in order and
    /// commits the first the quality gate accepts, returning the position
    /// to resume the scan at; `None` when no candidate commits.
    fn forward_at(&mut self, ir: &mut IrProgram, pos: usize) -> Option<usize> {
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
                || self.rejected.contains(&(ki, d.0))
            {
                continue;
            }
            let Some(last_read) = self.index.unused_slot_last_read(d, key) else {
                continue;
            };
            let Some(moved) = self.index.move_set(ir, key, x, d, new_a, op_b, last_read) else {
                // Memoized like quality rejections: a blocked move rarely
                // unblocks, and re-deriving the dependence closure on every
                // revisit would cost a window walk per candidate.
                self.rejected.insert((ki, d.0));
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
            let moved_positions: Vec<usize> = moved
                .iter()
                .map(|&(k, _)| self.index.position(ir, k))
                .collect();
            let last_read = self.index.position(ir, last_read);
            let applied = apply_forward(
                ir,
                &self.index,
                ki,
                pos,
                &chain_positions,
                d,
                new_a,
                last_read,
                &moved_positions,
            );
            #[cfg(debug_assertions)]
            if let Err(e) = ir.check() {
                panic!(
                    "forwarding produced invalid IR: {e} \
                     (pos={pos} x=%{} d=%{} last_read={last_read} moved={moved_positions:?} \
                     chain={chain_positions:?})",
                    x.0, d.0
                );
            }
            if let Some(after) = self.scorer.trial(ir, &applied.undo.edit(d), self.baseline) {
                self.scorer.commit();
                self.baseline = after;
                let moved_ops: Vec<u32> = moved.iter().map(|&(_, i)| i).collect();
                return Some(self.commit(ir, ki, &chain_ops, &moved_ops, applied));
            }
            applied.undo.revert(ir);
            self.rejected.insert((ki, d.0));
        }
        None
    }

    /// Brings the index in step with a committed edit and marks the earlier
    /// ops it may have made eligible; returns the position to resume the
    /// scan at.
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
            self.pending = std::mem::take(&mut self.pending)
                .into_iter()
                .filter(|&(_, i)| index.op_key[i as usize] != DEAD)
                .map(|(_, i)| (index.op_key[i as usize], i))
                .collect();
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
            index.touches[c.index()].retain(|e| !self.changed[e.1 as usize]);
        }
        for &i in &changed_ops {
            if std::mem::take(&mut self.changed[i as usize]) && index.op_key[i as usize] != DEAD {
                index.push_touches(ir, i, index.op_key[i as usize]);
            }
        }
        for &c in &cells {
            index.touches[c.index()].sort_by_key(|e| e.0);
        }

        // Resume: everything from the committed position on is rescanned;
        // before it, only ops touching a changed cell can have changed
        // their verdict — plus the main op after a copy reading one, whose
        // candidate set depends on the copied source.
        let resume_key = ir.events.get(resume).map_or(DEAD, |&e| index.key(e));
        drop(self.pending.split_off(&(resume_key, 0)));
        for &c in &cells {
            for &(k, i, touch) in &index.touches[c.index()] {
                if k >= resume_key {
                    break;
                }
                self.pending.insert((k, i));
                let op = &ir.ops[i as usize];
                if touch == Touch::Read && op.a == Value::Cell(c) && op.b == Value::Const(true) {
                    let list = &index.touches[op.z.index()];
                    if let Some(&(next, j, _)) = list[list.partition_point(|e| e.0 <= k)..].first()
                    {
                        if next < resume_key {
                            self.pending.insert((next, j));
                        }
                    }
                }
            }
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
    /// original position (or of the block, when it did not move).
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
#[allow(clippy::too_many_arguments)]
fn apply_forward(
    ir: &mut IrProgram,
    index: &CellIndex,
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

    // Rename every later use of the old destination onto the claimed cell.
    let list = &index.touches[x.index()];
    for &(_, i, _) in &list[list.partition_point(|e| e.0 <= key)..] {
        if i == ki || undo.renamed.last().is_some_and(|&(j, ..)| j == i) {
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
            if let Some(entry) = block.iter().rposition(|&q| touches_cell(q, cell)) {
                relocated.push((entry, p));
            }
        }
    }

    let resolve = |p: usize, event: Event| match replace {
        Some((rp, rep)) if rp == p => rep,
        _ => event,
    };
    let mut span = Vec::with_capacity(last_read + 1 - lo);
    let mut resume = pos;
    let mut moved_to = pos..pos;
    for p in lo..=last_read {
        if p == pos {
            resume = lo + span.len();
        }
        let in_block = p == pos
            || moved.binary_search(&p).is_ok()
            || relocated.binary_search_by_key(&p, |&(_, q)| q).is_ok();
        if !in_block && !dropped.contains(&p) {
            span.push(resolve(p, ir.events[p]));
        }
        if p == last_read {
            let start = lo + span.len();
            for (entry, &q) in block.iter().enumerate() {
                span.push(resolve(q, ir.events[q]));
                for &(after, rel) in &relocated {
                    if after == entry {
                        span.push(resolve(rel, ir.events[rel]));
                    }
                }
            }
            moved_to = start..lo + span.len();
        }
    }
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

    /// The restart-from-0 forwarding engine the incremental one replaced,
    /// kept as the differential oracle: every commit rebuilds the index and
    /// rescans the stream from event 0.
    mod oracle {
        use super::super::{gc_cells, masked_const, Touch, MOVE_CAP};
        use crate::backend::{Backend, Cost};
        use crate::ir::{CellId, Event, IrOutput, IrProgram, Value};

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
                    if let Err(e) = ir.check() {
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
    /// increase along the stream, every list holds the same touches in the
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
        for (cell, (patched, built)) in index.touches.iter().zip(&fresh.touches).enumerate() {
            let strip = |list: &[Entry]| list.iter().map(|&(_, i, t)| (i, t)).collect::<Vec<_>>();
            assert_eq!(strip(patched), strip(built), "touches of %{cell}");
            for &(k, i, _) in patched {
                assert_eq!(k, index.op_key[i as usize], "entry key of op {i}");
            }
            assert_eq!(index.request[cell].is_some(), fresh.request[cell].is_some());
            assert_eq!(index.release[cell].is_some(), fresh.release[cell].is_some());
        }
        assert_eq!(index.is_output, fresh.is_output);
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

    /// What the incremental engine reported besides its edits.
    struct Outcome {
        revisits: usize,
        renumbers: usize,
    }

    /// Runs both engines on copies of `ir` and requires the same stream,
    /// operands, outputs and edit count; returns the optimized program and
    /// the incremental engine's counters.
    fn assert_engines_agree(
        ir: &IrProgram,
        backend: &dyn Backend,
        spacing: u64,
    ) -> (IrProgram, Outcome) {
        let mut expected = ir.clone();
        let want = oracle::forward(&mut expected, backend);
        let mut actual = ir.clone();
        let mut engine = Forwarder::new(&actual, backend, spacing);
        let got = engine.run(&mut actual);
        assert_eq!(got, want, "edit counts differ");
        assert_eq!(actual.events, expected.events, "event streams differ");
        assert_eq!(actual.ops, expected.ops, "op operands differ");
        assert_eq!(actual.outputs, expected.outputs, "outputs differ");
        let outcome = Outcome {
            revisits: engine.revisits,
            renumbers: engine.renumbers,
        };
        (actual, outcome)
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

    /// The rest of an `-O2` round after forwarding, one `redundant-init`
    /// run: the input a later round's forwarding sees.
    fn next_round(mut ir: IrProgram) -> IrProgram {
        redundant_init(&mut ir);
        ir
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The incremental engine commits exactly what the restart engine
        /// commits — under the RM3 cost model and under a model that
        /// commits every legal candidate — on every schedule × allocator,
        /// on lowered streams and on a second round's input.
        #[test]
        fn incremental_forward_matches_the_restart_engine(seed in any::<u64>()) {
            for nodes in [16, 60, 180] {
                for schedule in ScheduleOrder::ALL {
                    for alloc in AllocatorStrategy::ALL {
                        let ir = lowered(nodes, seed, schedule, alloc);
                        assert_engines_agree(&ir, &Rm3Backend, KEY_SPACING);
                        let (forwarded, _) = assert_engines_agree(&ir, &EventCount, KEY_SPACING);
                        assert_engines_agree(&next_round(forwarded), &EventCount, KEY_SPACING);
                    }
                }
            }
        }
    }

    /// A cost table behind a scorer that checks every verdict of the
    /// checkpointed scorer against a full replay.
    struct Audited(CostTable);

    impl Backend for Audited {
        fn name(&self) -> &'static str {
            "audited"
        }

        fn description(&self) -> &'static str {
            "every trial verdict checked against a full replay"
        }

        fn instruction_set(&self) -> &'static [InstructionInfo] {
            Rm3Backend.instruction_set()
        }

        fn cost_table(&self) -> CostTable {
            self.0
        }

        fn scorer(&self, ir: &IrProgram) -> (Box<dyn TrialScorer + '_>, Cost) {
            let (inner, cost) = crate::ir::Scorer::new(ir, self.0);
            assert_eq!(cost, self.cost(ir), "initial cost");
            (Box::new(AuditedScorer(Box::new(inner), self.0)), cost)
        }

        fn emit(&self, ir: &IrProgram) -> Box<dyn Artifact> {
            Rm3Backend.emit(ir)
        }
    }

    struct AuditedScorer(Box<dyn TrialScorer>, CostTable);

    impl TrialScorer for AuditedScorer {
        fn trial(&mut self, ir: &IrProgram, edit: &TrialEdit, bound: Cost) -> Option<Cost> {
            let got = self.0.trial(ir, edit, bound);
            let full = crate::ir::place(ir, self.1, &mut ()).cost;
            assert_eq!(
                got.is_some(),
                full.improves_on(bound),
                "verdict at {edit:?}"
            );
            if let Some(cost) = got {
                assert_eq!(cost, full, "cost at {edit:?}");
            }
            got
        }

        fn commit(&mut self) {
            self.0.commit();
        }

        fn counts(&self) -> TrialCounts {
            self.0.counts()
        }
    }

    /// The trials that resume from a checkpoint the last commit adopted
    /// past its cut, where that commit and the one before both cut
    /// their trials short.
    fn resumed_past_two_cuts(trials: &[crate::ir::emit::tests::TrialRecord]) -> usize {
        let mut cuts: Vec<usize> = Vec::new();
        let mut count = 0;
        for t in trials {
            if cuts.len() >= 2 && cuts.last().is_some_and(|&at| t.resumed >= at) {
                count += 1;
            }
            if t.accepted {
                match t.reconverged_at {
                    Some(at) => cuts.push(at),
                    None => cuts.clear(),
                }
            }
        }
        count
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// At every trial, the checkpointed scorer accepts exactly when a
        /// full replay improves on the incumbent, and scores the accepted
        /// stream exactly as the full replay does — under each target's
        /// cost table, on every allocator, on lowered streams and on a
        /// second round's input, with streams long enough to hold several
        /// checkpoints. The trials it finishes by reconvergence are among
        /// them: under every table, every allocator whose pool serves cells
        /// by position has some, and wear leveling none. Under RM3's, some
        /// trial resumes from a checkpoint the last commit adopted past its
        /// cut, after two or more consecutive commits that cut; that path
        /// does not read the table, and the other tables' streams reach it
        /// too seldom to require it.
        #[test]
        fn scorer_matches_full_replays(seed in any::<u64>()) {
            for table in crate::backend::backends().iter().map(|b| b.cost_table()) {
                let mut resumed_past_cuts = 0;
                for alloc in AllocatorStrategy::ALL {
                    crate::ir::emit::tests::take_trials();
                    for nodes in [40, 250, 900] {
                        let ir = lowered(nodes, seed, ScheduleOrder::Priority, alloc);
                        let mut audited = ir.clone();
                        let backend = Audited(table);
                        Forwarder::new(&audited, &backend, KEY_SPACING).run(&mut audited);
                        let mut audited = next_round(audited);
                        Forwarder::new(&audited, &backend, KEY_SPACING).run(&mut audited);
                    }
                    let trials = crate::ir::emit::tests::take_trials();
                    let cuts = trials.iter().filter(|t| t.reconverged_at.is_some()).count();
                    resumed_past_cuts += resumed_past_two_cuts(&trials);
                    if alloc == AllocatorStrategy::WearLeveled {
                        prop_assert_eq!(cuts, 0);
                    } else {
                        prop_assert!(cuts > 0, "{table:?}, {alloc:?}: no trial reconverged");
                    }
                }
                if table == CostTable::RM3 {
                    prop_assert!(
                        resumed_past_cuts > 0,
                        "no trial resumed past two consecutive cut commits"
                    );
                }
            }
        }
    }

    /// Every trial resumes from the last checkpoint at or before the
    /// first event its edit changed — never from further back, so a
    /// rejected trial cannot silently fall back to a replay of the whole
    /// stream.
    #[test]
    fn scorer_resumes_trials_from_the_checkpoint_before_the_edit() {
        crate::ir::emit::tests::take_trials();
        for alloc in AllocatorStrategy::ALL {
            let mut ir = lowered(900, 1, ScheduleOrder::Priority, alloc);
            forward(&mut ir, &Rm3Backend);
        }
        let trials = crate::ir::emit::tests::take_trials();
        for t in &trials {
            assert!(
                t.resumed <= t.from && t.from < t.resumed + t.spacing,
                "{t:?}"
            );
        }
        let rejected: Vec<_> = trials.iter().filter(|t| !t.accepted).collect();
        let resumed_late = rejected.iter().filter(|t| t.resumed > 0).count();
        assert!(
            resumed_late * 2 > rejected.len(),
            "{resumed_late} of {} rejected trials resumed past event 0",
            rejected.len()
        );
    }

    /// On seeded control logic — the kind `compile-o2` times — most forward
    /// trials reconverge with the committed replay a few events past their
    /// edit, and finishing them there cuts the events the RM3 scorer
    /// replays to a fraction of a full replay of each trial's tail.
    ///
    /// At `-O2` on this input, the scorer that replayed every trial to its
    /// end (checkpoints every max(256, 4 × footprint) events) replayed
    /// 15,976,312 events over 3,591 trials.
    ///
    /// Release builds only, like the Forward scaling test: debug builds
    /// verify the program after every pass and take minutes here.
    #[cfg(not(debug_assertions))]
    #[test]
    fn scorer_cuts_replay_on_control_logic() {
        const FULL_REPLAYS: u64 = 15_976_312;
        let mig = random_logic(&RandomLogicSpec::new(1024, 128, 5500, 1));
        crate::ir::emit::tests::take_trials();
        let options = CompilerOptions::new().opt(crate::OptLevel::O2);
        let (_, report) = crate::compile_ir(&mig, options);
        let scoring = report.scoring();
        assert_eq!(scoring.trials, 3591, "the trials are the full replays'");
        assert!(
            scoring.replayed * 100 <= FULL_REPLAYS * 35,
            "replayed {} of {FULL_REPLAYS} events",
            scoring.replayed
        );
        let trials = crate::ir::emit::tests::take_trials();
        let accepted = trials.iter().filter(|t| t.accepted).count();
        let cut = trials
            .iter()
            .filter(|t| t.accepted && t.reconverged_at.is_some())
            .count();
        assert!(
            cut * 10 >= accepted * 9,
            "{cut} of {accepted} accepted trials cut"
        );
    }

    /// A commit changes the touch lists of its cells, so the earlier ops
    /// touching them are re-visited before the scan resumes. Deleting the
    /// committed op's materialization chain is the only change before it,
    /// and under today's candidate rules that never turns an earlier
    /// verdict around — a revisit re-derives the verdict it had. The marks
    /// keep the resume exact without leaning on that argument; this pins
    /// that they fire and that the commits stay the restart engine's.
    #[test]
    fn commits_revisit_the_earlier_ops_touching_their_cells() {
        let mut revisits = 0;
        for seed in 0..12 {
            for alloc in AllocatorStrategy::ALL {
                let ir = lowered(120, seed, ScheduleOrder::Index, alloc);
                let (forwarded, outcome) = assert_engines_agree(&ir, &EventCount, KEY_SPACING);
                revisits += outcome.revisits;
                let (_, outcome) =
                    assert_engines_agree(&next_round(forwarded), &Rm3Backend, KEY_SPACING);
                revisits += outcome.revisits;
            }
        }
        assert!(revisits > 0, "no commit marked an earlier op");
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
                let (_, outcome) = assert_engines_agree(&ir, &EventCount, spacing);
                renumbers += outcome.renumbers;
            }
            assert!(renumbers > 0, "spacing {spacing}: no gap ran out");
        }
        let ir = lowered(150, 1, ScheduleOrder::Priority, AllocatorStrategy::Lifo);
        let (_, outcome) = assert_engines_agree(&ir, &EventCount, KEY_SPACING);
        assert_eq!(
            outcome.renumbers, 0,
            "wide gaps never run out on a small stream"
        );
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
            pinned: plim::RamAddr(0),
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// No pass removes dead writes or folds ops whose result resident
        /// constants fix, because neither lowering nor the `-O2` pipeline
        /// makes one: on every schedule × allocator × operand policy, the
        /// lowered stream and its `-O2` result under each target carry no
        /// `PA0006` finding and no such op. A change that brings either
        /// pattern back fails here instead of shipping a longer stream.
        /// Release builds draw larger graphs.
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
                            prop_assert_eq!(dead_writes(&lowered), 0, "lowered, {}", at);
                            prop_assert_eq!(foldable_ops(&lowered), 0, "lowered, {}", at);
                            for &backend in crate::backend::backends() {
                                let mut ir = lowered.clone();
                                PassManager::for_level(OptLevel::O2).run(&mut ir, &mig, backend);
                                let at = format!("{at}, -O2 on {}", backend.name());
                                prop_assert_eq!(dead_writes(&ir), 0, "{}", at);
                                prop_assert_eq!(foldable_ops(&ir), 0, "{}", at);
                            }
                        }
                    }
                }
            }
        }
    }
}
