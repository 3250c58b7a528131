//! Emission and scoring: the one allocator replay of the IR event stream.
//!
//! The replay walks the stream through a fresh [`RramAllocator`] of the
//! program's strategy: an [`Event::Request`] assigns the virtual cell a
//! physical address, an [`Event::Release`] returns it to the free pool, and
//! every [`Event::Op`] is priced with the target's [`CostTable`], its
//! destination writes counted on the allocator's per-cell counters as the
//! target makes them (so `--alloc wear` levels the target's own writes),
//! and handed with its placed addresses to an [`OpSink`]. Every target
//! places and scores through it: [`emit`] and the other targets' lowerings
//! sink the ops into programs ([`place`]), while [`crate::Backend::cost`]
//! and the [`Scorer`] of the pass pipeline's trial edits sink them into
//! `()`.
//!
//! The replay is the compiler's only RRAM allocator (§4.2.3): lowering
//! mints virtual cells and never sees an address. On an unedited stream it
//! performs the request/release/write sequence the historical single-step
//! translator performed while translating, so `-O0` output is
//! byte-identical to it — listing comments included, which is why ops carry only the comment's right-hand
//! side, a plain [`plim::Rhs`], and the program renders the `X<addr> ←`
//! prefix from the replayed destination only when a listing is printed.
//!
//! The scorer checkpoints the replay of the committed stream — allocator,
//! owner per physical address and running metrics, every max(256,
//! footprint) events — so a trial resumes from the last checkpoint before
//! the first event its edit changed, and stops as soon as its footprint or
//! wear, which only grow, passes the incumbent's.
//!
//! Past the edit, the edited stream repeats the committed one, and a few
//! events later the trial's replay is usually the committed replay again
//! up to a renaming of physical addresses. The scorer tests for that at the
//! committed checkpoints past the edit. Once the renaming exists, the rest
//! of the trial is the committed replay renamed, so the final cost follows
//! from the committed end state in O(footprint), and a commit adopts the
//! committed checkpoints past that point instead of replaying them: early
//! cutoff, as in incremental build systems. The cut only saves work; every
//! cost it reports is the one a full replay computes.

use std::collections::HashMap;

use plim::{Instruction, Operand, OutputLoc, Program, RamAddr};

use crate::alloc::{Renaming, RramAllocator};
use crate::backend::{Cost, CostTable, TrialCounts, TrialEdit, TrialScorer, WorkRegion};
use crate::program::{Rm3Program, Rm3Stats};

use super::{CellId, Event, IrOp, IrOutput, IrProgram, Value};

/// What a replay hands the ops it places to: emission builds the target's
/// program from them; scoring passes `()`, which ignores them.
pub trait OpSink {
    /// Op `op` writes `z` and reads `a` and `b`, at the addresses the
    /// replay placed them.
    fn op(&mut self, op: &IrOp, z: RamAddr, a: Operand, b: Operand);

    /// The replay handed out a cell, leaving `live` cells live.
    fn request(&mut self, _live: usize) {}
}

impl OpSink for () {
    fn op(&mut self, _: &IrOp, _: RamAddr, _: Operand, _: Operand) {}
}

impl<F: FnMut(&IrOp, RamAddr, Operand, Operand)> OpSink for F {
    fn op(&mut self, op: &IrOp, z: RamAddr, a: Operand, b: Operand) {
        self(op, z, a, b);
    }
}

/// Where the replay placed a stream (see [`place`]).
#[derive(Debug)]
pub struct Placement {
    /// The stream's cost under the table it was placed with.
    pub cost: Cost,
    /// The rows of the work region; a target's scratch rows go above it.
    pub work_rows: u32,
    /// Where each primary output lives at program end.
    pub outputs: Vec<(String, OutputLoc)>,
}

/// Replays `ir` under `table`, handing `sink` every op with its placed
/// addresses, in stream order.
///
/// # Panics
///
/// Panics if the stream is malformed (see [`IrProgram::check`]).
pub fn place(ir: &IrProgram, table: CostTable, sink: &mut impl OpSink) -> Placement {
    let mut state = Replay::new(ir, table);
    let mut cells = CellTable::new(ir);
    state.run(ir, &mut cells, 0..ir.events.len(), UNBOUNDED, None, sink);
    let output = |output: &IrOutput| match *output {
        IrOutput::Cell(c) => OutputLoc::Ram(cells.get(c).expect("output cell released")),
        IrOutput::Input {
            index,
            complemented,
        } => OutputLoc::Input {
            index,
            complemented,
        },
        IrOutput::Const(v) => OutputLoc::Const(v),
    };
    Placement {
        cost: state.cost(),
        work_rows: state.metrics.rams,
        outputs: ir
            .outputs
            .iter()
            .map(|(name, loc)| (name.clone(), output(loc)))
            .collect(),
    }
}

/// A bound no replay passes.
const UNBOUNDED: Cost = Cost {
    instructions: usize::MAX,
    footprint: u32::MAX,
    wear: u64::MAX,
    units: u64::MAX,
};

/// The running state of one allocator replay, and the checkpoint format.
///
/// It is footprint-sized — the allocator, an owner per physical address and
/// the running metrics — and holds nothing per virtual cell, so a copy costs
/// what the allocator costs, not what the stream costs. The per-cell
/// addresses live in a [`CellTable`] beside it.
#[derive(Debug, Clone)]
struct Replay {
    table: CostTable,
    alloc: RramAllocator,
    /// The virtual cell live at each physical address.
    owner: Vec<Option<CellId>>,
    metrics: Metrics,
}

/// A replay's running metrics, which its [`CostTable`] makes a [`Cost`].
#[derive(Debug, Clone, Copy, Default)]
struct Metrics {
    instructions: usize,
    units: u64,
    /// Non-masking ops; each writes every scratch row.
    general: usize,
    /// The work region.
    rams: u32,
    /// The highest write count of a work row.
    wear: u64,
}

impl Metrics {
    fn cost(self, table: &CostTable) -> Cost {
        Cost {
            instructions: self.instructions,
            footprint: self.rams + table.scratch_rows * u32::from(self.general > 0),
            wear: self.wear.max(table.scratch_writes * self.general as u64),
            units: self.units,
        }
    }
}

/// A replay state before the event at the position it is stored with.
type Checkpoint = (usize, Replay);

/// Where a replay records its checkpoints: onto `list`, the next one before
/// the event at `next`.
struct Recorder<'a> {
    list: &'a mut Vec<Checkpoint>,
    next: usize,
}

impl Replay {
    fn new(ir: &IrProgram, table: CostTable) -> Self {
        Replay {
            table,
            alloc: RramAllocator::new(ir.allocator),
            owner: Vec::new(),
            metrics: Metrics::default(),
        }
    }

    fn cost(&self) -> Cost {
        self.metrics.cost(&self.table)
    }

    /// Whether the footprint and the wear are still within `bound`'s.
    fn within(&self, bound: Cost) -> bool {
        let cost = self.cost();
        cost.footprint <= bound.footprint && cost.wear <= bound.wear
    }

    /// Events between checkpoints: at least the footprint, so the
    /// checkpoints of a stream take O(#events) memory in all.
    fn checkpoint_spacing(&self) -> usize {
        self.owner.len().max(256)
    }

    /// Replays `ir.events[range]` on top of this state, with `cells`
    /// holding the address of every cell live at its start, hands each op
    /// to `sink`, and records a checkpoint (when given a recorder) every
    /// [`Replay::checkpoint_spacing`] events. Stops as soon as the replay is
    /// no longer [within](Replay::within) `bound`, abandoning the range
    /// midway. Returns the number of events replayed.
    ///
    /// # Panics
    ///
    /// Panics if the stream releases a cell it never requested, or an op
    /// touches a cell outside its request/release span.
    fn run(
        &mut self,
        ir: &IrProgram,
        cells: &mut CellTable,
        range: std::ops::Range<usize>,
        bound: Cost,
        mut record: Option<&mut Recorder>,
        sink: &mut impl OpSink,
    ) -> usize {
        let (from, to) = (range.start, range.end);
        let mut next_checkpoint = record.as_ref().map_or(usize::MAX, |r| r.next);
        for pos in range {
            if pos == next_checkpoint {
                let recorder = record.as_deref_mut().expect("a checkpoint is due");
                recorder.list.push((pos, self.clone()));
                next_checkpoint = pos + self.checkpoint_spacing();
                recorder.next = next_checkpoint;
            }
            match ir.events[pos] {
                Event::Request(c) => {
                    let a = self.alloc.request_with_hint(ir.cells[c.index()].hint);
                    if self.owner.len() <= a.index() {
                        self.owner.resize(a.index() + 1, None);
                    }
                    self.owner[a.index()] = Some(c);
                    cells.set(c, a);
                    if self.table.work_region == WorkRegion::Requested {
                        self.metrics.rams = self.metrics.rams.max(a.0 + 1);
                    }
                    sink.request(self.alloc.num_live());
                }
                Event::Release(c) => {
                    let a = cells.take(c).expect("release before request");
                    self.owner[a.index()] = None;
                    self.alloc.release(a);
                }
                Event::Op(i) => {
                    let op = &ir.ops[i as usize];
                    let z = cells.get(op.z).expect("write outside cell lifetime");
                    let masking = op.masking();
                    let price = if masking {
                        &self.table.masking
                    } else {
                        &self.table.other
                    };
                    let m = &mut self.metrics;
                    m.instructions += price.instructions;
                    m.units += price.units;
                    m.general += usize::from(!masking);
                    m.rams = m.rams.max(z.0 + 1);
                    let mut place = |value: Value| match value {
                        Value::Const(v) => {
                            m.units -= price.const_discount;
                            Operand::Const(v)
                        }
                        Value::Input(i) => Operand::Input(i),
                        Value::Cell(c) => {
                            let a = cells.get(c).expect("read outside cell lifetime");
                            m.rams = m.rams.max(a.0 + 1);
                            Operand::Ram(a)
                        }
                    };
                    let (a, b) = (place(op.a), place(op.b));
                    self.alloc.note_writes(z, price.writes);
                    let writes = self.alloc.write_counts()[z.index()];
                    self.metrics.wear = self.metrics.wear.max(writes);
                    sink.op(op, z, a, b);
                    if !self.within(bound) {
                        return pos + 1 - from;
                    }
                }
            }
        }
        to - from
    }

    /// The renaming of addresses under which this trial replay, with
    /// `cells`, is the committed replay `committed` with its cell
    /// `merged.0` read as `merged.1` (see [`RramAllocator::renaming`]).
    /// From such a state on, the trial replays what the committed replay
    /// does, renamed.
    ///
    /// `None` when there is no such renaming, and also when the trial's
    /// footprint does not yet cover every cell it allocated: then the cells
    /// the committed suffix touches could map past the trial's footprint
    /// so far, and its final footprint would not follow from the committed
    /// one.
    fn renaming(
        &self,
        cells: &CellTable,
        committed: &Replay,
        merged: (CellId, CellId),
    ) -> Option<Renaming> {
        if self.metrics.rams != self.alloc.num_allocated() {
            return None;
        }
        self.alloc.renaming(&committed.alloc, |below| {
            committed.owner.iter().zip(below).all(|(owner, slot)| {
                let Some(c) = *owner else {
                    return true;
                };
                let c = if c == merged.0 { merged.1 } else { c };
                cells.get(c).map(|a| *slot = a.0).is_some()
            })
        })
    }

    /// This committed replay state — at or past the committed checkpoint
    /// `base`, where the trial replay `cut` was `base` under `renaming`
    /// (see [`Replay::renaming`]) — as the trial replay reaches it:
    /// addresses renamed, each owner `c` read as `cell(c)`, and the metrics
    /// the committed replay gained since `base` added to `cut`'s.
    ///
    /// The footprint is exact because `cut`'s covers every cell `cut` had
    /// allocated: every renamed address below its fresh counter is within
    /// it, and past it the committed replay's footprint only shifts. Two
    /// adoptions in a row are one, from any state at or past the second
    /// one's `base` as the first reads it (see [`Scorer::commit`]).
    fn adopted(
        &self,
        base: &Replay,
        cut: &Replay,
        renaming: &Renaming,
        cell: impl Fn(CellId) -> CellId,
    ) -> Replay {
        let alloc = self.alloc.adopted(&base.alloc, &cut.alloc, renaming);
        let mut owner = vec![None; alloc.num_allocated() as usize];
        for (b, &c) in self.owner.iter().enumerate() {
            if let Some(a) = renaming.image(b) {
                owner[a] = c.map(&cell);
            }
        }
        Replay {
            table: self.table,
            alloc,
            owner,
            metrics: self.adopted_metrics(base, cut, renaming),
        }
    }

    /// The cost of [`Replay::adopted`]'s result, without building it.
    fn adopted_cost(&self, base: &Replay, cut: &Replay, renaming: &Renaming) -> Cost {
        self.adopted_metrics(base, cut, renaming).cost(&self.table)
    }

    /// The metrics of [`Replay::adopted`]'s result: the sums and the work
    /// region shifted past `cut`'s, and the wear of the renamed counters.
    fn adopted_metrics(&self, base: &Replay, cut: &Replay, renaming: &Renaming) -> Metrics {
        let (writes, base_writes) = (self.alloc.write_counts(), base.alloc.write_counts());
        let cut_writes = cut.alloc.write_counts();
        let (mine, base, cut) = (self.metrics, base.metrics, cut.metrics);
        // Every cell `cut` holds either is renamed from one of this
        // replay's, and has gained writes since `base`, or was parked there.
        let wear = writes
            .iter()
            .enumerate()
            .filter_map(|(b, &count)| {
                let a = renaming.image(b)?;
                let gained = count - base_writes.get(b).copied().unwrap_or(0);
                Some(gained + cut_writes.get(a).copied().unwrap_or(0))
            })
            .fold(cut.wear, u64::max);
        let rams = (i64::from(mine.rams) + renaming.shift()).max(i64::from(cut.rams));
        Metrics {
            instructions: mine.instructions - base.instructions + cut.instructions,
            units: mine.units - base.units + cut.units,
            general: mine.general - base.general + cut.general,
            rams: u32::try_from(rams).expect("a footprint fits its address width"),
            wear,
        }
    }
}

/// The physical address of every live virtual cell, generation-stamped:
/// an entry counts only while its stamp is the current generation, so
/// resuming a replay from a checkpoint invalidates the whole table in O(1)
/// and re-seeds only the cells live there.
struct CellTable {
    entries: Vec<(u32, RamAddr)>,
    generation: u32,
}

impl CellTable {
    fn new(ir: &IrProgram) -> Self {
        CellTable {
            entries: vec![(0, RamAddr(0)); ir.cells.len()],
            generation: 1,
        }
    }

    /// Forgets every entry, then records the cells `state` holds live.
    fn seed(&mut self, state: &Replay) {
        if self.generation == u32::MAX {
            self.entries.fill((0, RamAddr(0)));
            self.generation = 0;
        }
        self.generation += 1;
        for (a, owner) in state.owner.iter().enumerate() {
            if let Some(c) = owner {
                self.set(*c, RamAddr(a as u32));
            }
        }
    }

    fn get(&self, c: CellId) -> Option<RamAddr> {
        let (stamp, a) = self.entries[c.index()];
        (stamp == self.generation).then_some(a)
    }

    fn set(&mut self, c: CellId, a: RamAddr) {
        self.entries[c.index()] = (self.generation, a);
    }

    fn take(&mut self, c: CellId) -> Option<RamAddr> {
        let a = self.get(c)?;
        self.entries[c.index()].0 = 0;
        Some(a)
    }
}

/// Every backend's [`TrialScorer`]: checkpoints the replay of the
/// committed stream under the backend's [`CostTable`] and resumes each
/// trial from the last checkpoint at or before the first event the edit
/// changed, abandoning it as soon as the footprint or wear passes the
/// incumbent's, and finishing it early once it has reconverged with the
/// committed replay.
pub(crate) struct Scorer {
    committed: Checkpoints,
    /// The committed stream's replay at its end.
    end: Replay,
    /// The committed checkpoint the last trial resumed from.
    resumed: usize,
    /// The checkpoints the last trial recorded past `resumed`; empty unless
    /// it was accepted.
    trial: Vec<Checkpoint>,
    /// How the last trial ended, if it was accepted.
    accepted: Option<Accepted>,
    cells: CellTable,
    counts: TrialCounts,
}

/// The checkpoints of the committed stream, by position; the first is at 0.
///
/// A commit that cut its trial short adopts the committed checkpoints past
/// the cut as the trial would have recorded them. It does so lazily: those
/// from `lazy.from` on are kept as recorded and read through
/// `lazy.adoption`, which composes the cuts of consecutive commits, so a
/// commit costs O(footprint) however many checkpoints follow it. The
/// checkpoints before `lazy.from` are exact.
struct Checkpoints {
    list: Vec<Checkpoint>,
    lazy: Option<Lazy>,
    /// The lazily adopted checkpoints read since the last commit, as read.
    read: HashMap<usize, Replay>,
    /// The cell each committed edit merged away became, for the stale cells
    /// of lazily adopted checkpoints.
    merges: Vec<Option<CellId>>,
}

/// The lazily adopted checkpoints of [`Checkpoints`].
struct Lazy {
    /// The first of them.
    from: usize,
    adoption: Adoption,
}

/// How to read a checkpoint recorded past a cut: [`Replay::adopted`] with
/// these arguments, at its position plus `shift`.
struct Adoption {
    /// The first checkpoint read through it, as recorded.
    base: Replay,
    /// That checkpoint as read: the committed replay there.
    read: Replay,
    /// The renaming of `base`'s addresses onto `read`'s.
    renaming: Renaming,
    /// The sum of the cuts' [`TrialEdit::shift`]s.
    shift: isize,
}

/// How an accepted trial ended.
enum Accepted {
    /// It replayed to the end of its stream, reaching this state.
    Ran(Replay),
    /// It reconverged with the committed replay.
    Cut(Cut),
}

/// Where a trial replay reconverged with the committed one.
struct Cut {
    /// The committed checkpoint it matched.
    index: usize,
    /// The trial replay there.
    state: Replay,
    /// The renaming of the committed replay's addresses onto the trial's
    /// there (see [`Replay::renaming`]).
    renaming: Renaming,
    edit: TrialEdit,
}

fn shifted(pos: usize, shift: isize) -> usize {
    pos.checked_add_signed(shift)
        .expect("shifted past the edit")
}

impl Checkpoints {
    /// The number of checkpoints whose position satisfies `pred`, which
    /// holds for a prefix of them.
    fn partition_point(&self, pred: impl Fn(usize) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.list.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if pred(self.position(mid).expect("in range")) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The position of checkpoint `index`.
    fn position(&self, index: usize) -> Option<usize> {
        let (pos, _) = self.list.get(index)?;
        Some(match &self.lazy {
            Some(lazy) if index >= lazy.from => shifted(*pos, lazy.adoption.shift),
            _ => *pos,
        })
    }

    /// Checkpoint `index`: its position and replay state.
    fn get(&mut self, index: usize) -> Option<(usize, &Replay)> {
        let pos = self.position(index)?;
        let state = match &self.lazy {
            Some(lazy) if index >= lazy.from => {
                let recorded = &self.list[index].1;
                let merges = &self.merges;
                self.read
                    .entry(index)
                    .or_insert_with(|| lazy.adoption.read(recorded, merges))
            }
            _ => &self.list[index].1,
        };
        Some((pos, state))
    }

    /// Stores the lazily adopted checkpoints before `to` as read, so that
    /// the lazy ones stay a suffix, and forgets the other reads.
    fn settle(&mut self, to: usize) {
        let mut read = std::mem::take(&mut self.read);
        let Some(lazy) = self.lazy.take() else {
            return;
        };
        let to = to.min(self.list.len());
        for (index, (pos, state)) in self.list.iter_mut().enumerate().take(to).skip(lazy.from) {
            *pos = shifted(*pos, lazy.adoption.shift);
            *state = read
                .remove(&index)
                .unwrap_or_else(|| lazy.adoption.read(state, &self.merges));
        }
        if to < self.list.len() {
            self.lazy = Some(Lazy {
                from: lazy.from.max(to),
                adoption: lazy.adoption,
            });
        }
    }
}

impl Adoption {
    /// `state`, recorded at or past `base`, as read through this adoption,
    /// with the cells the committed edits in `merges` merged away renamed.
    fn read(&self, state: &Replay, merges: &[Option<CellId>]) -> Replay {
        let merged = |mut c: CellId| {
            while let Some(d) = merges[c.index()] {
                c = d;
            }
            c
        };
        state.adopted(&self.base, &self.read, &self.renaming, merged)
    }
}

impl Scorer {
    /// The scorer of `ir` under `table`, and `ir`'s cost.
    pub(crate) fn new(ir: &IrProgram, table: CostTable) -> (Self, Cost) {
        let mut end = Replay::new(ir, table);
        let mut list = vec![(0, end.clone())];
        let mut cells = CellTable::new(ir);
        let mut recorder = Recorder {
            list: &mut list,
            next: end.checkpoint_spacing(),
        };
        let all = 0..ir.events.len();
        end.run(ir, &mut cells, all, UNBOUNDED, Some(&mut recorder), &mut ());
        let cost = end.cost();
        let scorer = Scorer {
            committed: Checkpoints {
                list,
                lazy: None,
                read: HashMap::new(),
                merges: vec![None; ir.cells.len()],
            },
            end,
            resumed: 0,
            trial: Vec::new(),
            accepted: None,
            cells,
            counts: TrialCounts::default(),
        };
        (scorer, cost)
    }
}

impl TrialScorer for Scorer {
    /// Replays the trial from the checkpoint before `edit.from`. At every
    /// committed checkpoint past `edit.until` (shifted by `edit.shift`) it
    /// tests whether the trial replay is the committed one under a renaming
    /// of addresses; once it is, the rest of the trial is the committed
    /// suffix renamed, and its final cost is the committed end state
    /// [adopted](Replay::adopted) — exact, in O(footprint).
    fn trial(&mut self, ir: &IrProgram, edit: &TrialEdit, bound: Cost) -> Option<Cost> {
        self.resumed = self.committed.partition_point(|pos| pos <= edit.from) - 1;
        let (start, checkpoint) = self.committed.get(self.resumed).expect("one at 0");
        let mut state = checkpoint.clone();
        #[cfg(test)]
        let spacing = state.checkpoint_spacing();
        self.cells.seed(&state);
        self.trial.clear();
        let mut recorder = Recorder {
            list: &mut self.trial,
            next: start + state.checkpoint_spacing(),
        };
        // The committed checkpoint the trial may next reconverge at.
        let mut next = if state.alloc.serves_by_position() {
            self.committed.partition_point(|pos| pos < edit.until)
        } else {
            self.committed.list.len()
        };
        let mut pos = start;
        let mut replayed = 0;
        let reconverged = loop {
            let at = self.committed.position(next);
            let stop = at.map_or(ir.events.len(), |p| shifted(p, edit.shift));
            let record = Some(&mut recorder);
            replayed += state.run(ir, &mut self.cells, pos..stop, bound, record, &mut ());
            if at.is_none() || !state.within(bound) {
                break None;
            }
            let (_, committed) = self.committed.get(next).expect("checked");
            if let Some(renaming) = state.renaming(&self.cells, committed, edit.merged) {
                let cost = self.end.adopted_cost(committed, &state, &renaming);
                break Some((next, renaming, cost));
            }
            pos = stop;
            next += 1;
        };
        #[cfg(test)]
        let reconverged_at = reconverged.as_ref().map(|&(index, ..)| {
            let pos = self.committed.position(index).expect("a checkpoint");
            shifted(pos, edit.shift)
        });
        let cut = reconverged.is_some();
        let (cost, within, ending) = match reconverged {
            Some((index, renaming, cost)) => {
                let edit = *edit;
                let ending = Accepted::Cut(Cut {
                    index,
                    state,
                    renaming,
                    edit,
                });
                (cost, true, ending)
            }
            None => (state.cost(), state.within(bound), Accepted::Ran(state)),
        };
        let accepted = within && cost.improves_on(bound);
        self.counts.trials += 1;
        self.counts.replayed += replayed as u64;
        self.counts.cuts += usize::from(cut);
        #[cfg(test)]
        tests::note_trial(tests::TrialRecord {
            resumed: start,
            spacing,
            from: edit.from,
            accepted,
            reconverged_at,
        });
        self.accepted = accepted.then_some(ending);
        if !accepted {
            self.trial.clear();
        }
        accepted.then_some(cost)
    }

    /// Adopts the last trial's checkpoints and, past a cut, the committed
    /// checkpoints as the trial would have recorded them: those already
    /// read through an adoption compose it with the cut's, the others are
    /// adopted now (see [`Checkpoints`]).
    fn commit(&mut self) {
        let accepted = self
            .accepted
            .take()
            .expect("commit after an accepted trial");
        let committed = &mut self.committed;
        // The committed replay the trial reconverged with, taken before
        // settling forgets the reads.
        let base = match &accepted {
            Accepted::Cut(cut) => Some(committed.get(cut.index).expect("a checkpoint").1.clone()),
            Accepted::Ran(_) => None,
        };
        committed.settle(self.resumed + 1);
        let mut adopted = Vec::new();
        let mut lazy = None;
        match accepted {
            Accepted::Ran(end) => self.end = end,
            Accepted::Cut(cut) => {
                let (x, d) = cut.edit.merged;
                let base = base.expect("taken for the cut");
                let merged = |c| if c == x { d } else { c };
                let adopt =
                    |state: &Replay| state.adopted(&base, &cut.state, &cut.renaming, merged);
                self.end = adopt(&self.end);
                let shift = cut.edit.shift;
                let from = committed
                    .lazy
                    .as_ref()
                    .map_or(cut.index, |l| l.from.max(cut.index));
                adopted = committed.list[cut.index..from]
                    .iter()
                    .map(|(pos, state)| (shifted(*pos, shift), adopt(state)))
                    .collect();
                if from < committed.list.len() {
                    let adoption = match &committed.lazy {
                        Some(old) => {
                            let recorded = &committed.list[from].1;
                            let renaming = &old.adoption.renaming;
                            let renaming = cut.renaming.after(renaming, recorded.owner.len());
                            let read = if from == cut.index {
                                cut.state
                            } else {
                                adopt(&old.adoption.read(recorded, &committed.merges))
                            };
                            Adoption {
                                base: recorded.clone(),
                                read,
                                renaming,
                                shift: old.adoption.shift + shift,
                            }
                        }
                        None => Adoption {
                            base,
                            read: cut.state,
                            renaming: cut.renaming,
                            shift,
                        },
                    };
                    lazy = Some((committed.list.split_off(from), adoption));
                }
                committed.merges[x.index()] = Some(d);
            }
        }
        committed.list.truncate(self.resumed + 1);
        committed.list.append(&mut self.trial);
        committed.list.append(&mut adopted);
        committed.lazy = lazy.map(|(mut recorded, adoption)| {
            let from = committed.list.len();
            committed.list.append(&mut recorded);
            Lazy { from, adoption }
        });
    }

    fn counts(&self) -> TrialCounts {
        self.counts
    }
}

/// Replays the IR into an executable RM3 program with its cost metrics.
///
/// # Panics
///
/// Panics if the stream is malformed (see [`place`]).
pub fn emit(ir: &IrProgram) -> Rm3Program {
    /// The program, and the peak number of live cells.
    struct Emitter(Program, usize);
    impl OpSink for Emitter {
        fn op(&mut self, op: &IrOp, z: RamAddr, a: Operand, b: Operand) {
            self.0.push_assignment(Instruction::new(a, b, z), op.rhs);
        }
        fn request(&mut self, live: usize) {
            self.1 = self.1.max(live);
        }
    }
    let mut emitter = Emitter(Program::new(ir.num_inputs), 0);
    let Placement { cost, outputs, .. } = place(ir, CostTable::RM3, &mut emitter);
    let Emitter(mut program, peak_live) = emitter;
    for (name, loc) in outputs {
        program.add_output(name, loc);
    }
    let stats = Rm3Stats {
        instructions: cost.instructions,
        rams: cost.footprint,
        mig_nodes: ir.mig_nodes,
        peak_live,
        max_cell_writes: cost.wear,
    };
    debug_assert_eq!(
        (stats.instructions, stats.rams),
        (program.len(), program.num_rams())
    );
    Rm3Program { program, stats }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::RefCell;

    use plim::Rhs;

    use super::{place, Scorer};
    use crate::backend::{CostTable, TrialEdit, TrialScorer};
    use crate::ir::{CellId, Event, IrCell, IrOp, IrOutput, IrProgram, Value};
    use crate::{AllocatorStrategy, LifetimeClass};

    /// One [`super::Scorer`] trial.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct TrialRecord {
        /// The position of the checkpoint the replay resumed from.
        pub(crate) resumed: usize,
        /// That checkpoint's spacing: the committed stream's next one is
        /// this many events later.
        pub(crate) spacing: usize,
        /// The first position the trial edit changed.
        pub(crate) from: usize,
        /// Whether the trial improved on its bound.
        pub(crate) accepted: bool,
        /// Where the trial finished early because its replay reconverged
        /// with the committed one: the position of the committed checkpoint
        /// it matched, in the trial's stream. A commit adopts the committed
        /// checkpoints from there on.
        pub(crate) reconverged_at: Option<usize>,
    }

    thread_local! {
        static TRIALS: RefCell<Vec<TrialRecord>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn note_trial(record: TrialRecord) {
        TRIALS.with(|log| log.borrow_mut().push(record));
    }

    /// The trials this thread's scorers ran since the last call.
    pub(crate) fn take_trials() -> Vec<TrialRecord> {
        TRIALS.with(|log| std::mem::take(&mut *log.borrow_mut()))
    }

    /// A FIFO program over cells `%0` and `%1` whose stream is `events`,
    /// with op 0 the reset of `%0` and op 1 the reset of `%1`.
    fn program(events: Vec<Event>) -> IrProgram {
        let cell = IrCell {
            hint: LifetimeClass::Short,
        };
        let reset = |z| IrOp {
            a: Value::Const(false),
            b: Value::Const(true),
            z: CellId(z),
            rhs: Rhs::Const(false),
            node: None,
        };
        IrProgram {
            num_inputs: 0,
            ops: vec![reset(0), reset(1)],
            cells: vec![cell; 2],
            events,
            outputs: vec![("f".to_string(), IrOutput::Cell(CellId(0)))],
            mig_nodes: 0,
            allocator: AllocatorStrategy::Fifo,
        }
    }

    /// A trial whose replay has the committed one's allocator, owners and
    /// fresh counter — the identity renaming — is still not cut while it
    /// has not touched every cell it allocated: the committed replay wrote
    /// `%1`'s cell before the checkpoint and the trial never does, so the
    /// committed footprint says nothing about the trial's.
    #[test]
    fn a_trial_is_cut_only_once_its_footprint_covers_its_cells() {
        use Event::{Op, Release, Request};
        let (c0, c1) = (CellId(0), CellId(1));
        let tail = std::iter::repeat_n(Op(0), 300);
        let head = [Request(c0), Request(c1), Op(0), Op(1), Release(c1)];
        let committed = program(head.into_iter().chain(tail).collect());
        let mut trial = committed.clone();
        trial.events.remove(3);
        let (mut scorer, cost) = Scorer::new(&committed, CostTable::RM3);
        assert_eq!(cost.footprint, 2);
        let edit = TrialEdit {
            from: 3,
            until: 4,
            shift: -1,
            merged: (c1, c1),
        };
        let got = scorer.trial(&trial, &edit, cost).expect("one write fewer");
        assert_eq!(got, place(&trial, CostTable::RM3, &mut ()).cost);
        assert_eq!(got.footprint, 1);
        assert_eq!(
            take_trials().last().expect("one trial").reconverged_at,
            None
        );
    }
}
