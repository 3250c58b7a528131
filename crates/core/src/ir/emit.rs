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
//! and the [`scorer`]s of the pass pipeline's trial edits sink them into
//! `()` or replay them as this replay does.
//!
//! The replay is the compiler's only RRAM allocator (§4.2.3): lowering
//! mints virtual cells and never sees an address. On an unedited stream it
//! performs the request/release/write sequence the historical single-step
//! translator performed while translating, so `-O0` output is
//! byte-identical to it — listing comments included, which is why ops carry only the comment's right-hand
//! side, a plain [`plim::Rhs`], and the program renders the `X<addr> ←`
//! prefix from the replayed destination only when a listing is printed.
//!
//! A trial stops as soon as its footprint or wear, which only grow, passes
//! the incumbent's. Past the edit, the edited stream repeats the committed
//! one, and a few events later the trial's replay is usually the committed
//! replay again up to a renaming of physical addresses. Once the renaming
//! exists, the rest of the trial is the committed replay renamed, so the
//! final cost follows from the committed end state: early cutoff, as in
//! incremental build systems (Mokhov, Mitchell and Peyton Jones, "Build
//! Systems à la Carte", ICFP 2018), taken down to single events (Acar,
//! "Self-Adjusting Computation", CMU 2005). The cut only saves work; every
//! cost it reports is the one a full replay computes. [`scorer`] picks the
//! scorer by allocator:
//!
//! * under `fifo`, the default, the [`FifoScorer`] forks the committed
//!   replay at the first event the edit changed, replays nothing before
//!   it, tests for the renaming at every event past the edit, and prices
//!   the rest from the committed end write counts, renaming only the
//!   addresses that moved; a commit writes the new end state in place;
//! * under `lifo`, `fresh`, `binned` and `wear`, the [`Scorer`]
//!   checkpoints the committed replay — allocator, owner per physical
//!   address and running metrics, every max(256, footprint) events — so a
//!   trial resumes from the last checkpoint before its edit and tests for
//!   the renaming at the committed checkpoints past it, the rest costs
//!   O(footprint), and a commit adopts the committed checkpoints past the
//!   cut instead of replaying them. Under `wear` no trial is cut, since
//!   its choices read every write count, which no renaming preserves, so
//!   each replays to the stream's end. The checkpointed scorer is also the
//!   reference the `fifo` one is tested against.

use std::collections::HashMap;

use plim::{Instruction, Operand, OutputLoc, Program, RamAddr};

use crate::alloc::{Renaming, RramAllocator};
use crate::backend::{Cost, CostTable, TrialCounts, TrialEdit, TrialScorer, WorkRegion};
use crate::program::{Rm3Program, Rm3Stats};
use crate::AllocatorStrategy;

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
    /// Prices an op reading `a` and `b` and writing the cell at `z`, with
    /// `addr` the address of a cell it reads, as [`Replay::run`] does;
    /// returns the writes it makes to `z`.
    fn op(
        &mut self,
        table: &CostTable,
        (a, b): (Value, Value),
        z: RamAddr,
        addr: impl Fn(CellId) -> RamAddr,
    ) -> u64 {
        let masking = matches!((a, b), (Value::Const(x), Value::Const(y)) if x != y);
        let price = if masking {
            &table.masking
        } else {
            &table.other
        };
        self.instructions += price.instructions;
        self.units += price.units;
        self.general += usize::from(!masking);
        self.rams = self.rams.max(z.0 + 1);
        for value in [a, b] {
            match value {
                Value::Const(_) => self.units -= price.const_discount,
                Value::Input(_) => {}
                Value::Cell(c) => self.rams = self.rams.max(addr(c).0 + 1),
            }
        }
        price.writes
    }

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
        if cut {
            let (end, span) = (start + replayed, shifted(edit.until, edit.shift));
            let inside = end.min(span).saturating_sub(start.max(edit.from));
            self.counts.overhead += (replayed - inside) as u64;
        }
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

/// The scorer of `ir` under `table` that the pass pipeline uses, and `ir`'s
/// cost: a [`FifoScorer`] under the `fifo` allocator, the checkpointed
/// [`Scorer`] under every other.
pub(crate) fn scorer(ir: &IrProgram, table: CostTable) -> (Box<dyn TrialScorer>, Cost) {
    if ir.allocator == AllocatorStrategy::Fifo {
        let (scorer, cost) = FifoScorer::new(ir, table);
        (Box::new(scorer), cost)
    } else {
        let (scorer, cost) = Scorer::new(ir, table);
        (Box::new(scorer), cost)
    }
}

/// The cells an op touches: its operands and its destination.
type OpCells = (Value, Value, CellId);

fn op_cells(op: &IrOp) -> OpCells {
    (op.a, op.b, op.z)
}

/// The `fifo` allocator's [`TrialScorer`]: a trial replays the events its
/// edit changed and those up to where it reconverges, and nothing before
/// the edit.
///
/// Under `fifo` the free pool is one queue, so a replay is cheap to fork:
/// the scorer keeps the committed replay before the last trial's edit
/// (`base`), moved forward over the committed events up to each trial's
/// `edit.from` (Forward scans the stream in order, so it nearly never moves
/// back; when it must, it replays from event 0). A trial replays the edited
/// stream from there as a [`Delta`] that stores only what it changed over
/// `base`. Per-cell flags of the committed stream — whether its request
/// took a fresh address, whether it is released — give the committed
/// replay's fresh counter and live count past the edit without replaying
/// it (see [`FifoScorer::trial`]). At the first event past `edit.until`
/// where both agree with the trial's, and the trial's footprint covers its
/// cells, the two replays are equal up to a renaming of addresses: the
/// live cells pair up by name, the free queues by position. The scorer
/// then replays the committed stream from `edit.from` to that event, as a
/// second [`Delta`], and prices the rest of the trial — the committed
/// replay renamed — from the committed end write counts it keeps per
/// address, renaming only the addresses that moved.
///
/// A commit writes the priced end counts in place, splices the trial's
/// events into its copy of the committed stream, updates the flags and
/// records the merged cell; `base` stays valid, because it lies before the
/// edit.
pub(crate) struct FifoScorer {
    table: CostTable,
    /// The committed stream's events, and the cells each op touches; a
    /// cell an earlier commit merged away is read through `merges`.
    events: Vec<Event>,
    ops: Vec<OpCells>,
    merges: Vec<Option<CellId>>,
    /// Per cell, whether the committed replay gives it a fresh address,
    /// and whether the committed stream releases it.
    fresh: Vec<bool>,
    released: Vec<bool>,
    /// The committed replay before the event at `base.0`.
    base: (usize, Fork),
    /// The committed replay's write count per address at the stream's end,
    /// how many addresses hold each count, and its metrics there.
    end_writes: Vec<u64>,
    tally: Tally,
    end: Metrics,
    trial: Delta,
    committed: Delta,
    /// The last cut's renaming of committed addresses onto the trial's,
    /// where it moves an address or its count, stamped by `pricing`, with
    /// the addresses it covers in `renamed`.
    image: Vec<(u32, u32)>,
    pricing: u32,
    renamed: Vec<u32>,
    /// The end write counts of the last cut's stream where they differ
    /// from the committed stream's.
    priced: Vec<(u32, u64)>,
    /// What committing the last trial changes, if it was accepted.
    accepted: Option<FifoCommit>,
    counts: TrialCounts,
}

/// An accepted trial's edit, as [`FifoScorer::commit`] applies it.
struct FifoCommit {
    /// The committed events `from..until` give way to `events`.
    from: usize,
    until: usize,
    events: Vec<Event>,
    /// The ops those events hold, with the cells they touch now.
    ops: Vec<(u32, OpCells)>,
    /// The cells the edited stream requests from `from` to where the trial
    /// stopped, and whether each took a fresh address.
    requests: Vec<(CellId, bool)>,
    merged: (CellId, CellId),
    /// The edited stream's metrics at its end.
    end: Metrics,
    /// Whether the trial reconverged, leaving its end counts in
    /// [`FifoScorer::priced`], rather than replaying to the end.
    cut: bool,
}

/// A `fifo` replay that keeps, beside its metrics, each cell's address,
/// each address's owner and write count, and the free queue: what a
/// [`FifoScorer`] forks its trials from. It replays as [`Replay::run`] does
/// under `fifo`, and keeps no pool for another strategy.
struct Fork {
    table: CostTable,
    /// The address each cell was last given.
    addr: Vec<RamAddr>,
    /// The cell live at each address handed out so far.
    owner: Vec<Option<CellId>>,
    writes: Vec<u64>,
    queue: std::collections::VecDeque<RamAddr>,
    live: usize,
    metrics: Metrics,
}

impl Fork {
    fn new(ir: &IrProgram, table: CostTable) -> Self {
        Fork {
            table,
            addr: vec![RamAddr(0); ir.cells.len()],
            owner: Vec::new(),
            writes: Vec::new(),
            queue: std::collections::VecDeque::new(),
            live: 0,
            metrics: Metrics::default(),
        }
    }

    /// The addresses handed out so far.
    fn fresh(&self) -> u32 {
        self.owner.len() as u32
    }

    fn step(&mut self, ir: &IrProgram, event: Event) {
        match event {
            Event::Request(c) => {
                let a = self.queue.pop_front().unwrap_or_else(|| {
                    self.owner.push(None);
                    self.writes.push(0);
                    RamAddr(self.fresh() - 1)
                });
                self.owner[a.index()] = Some(c);
                self.addr[c.index()] = a;
                self.live += 1;
                if self.table.work_region == WorkRegion::Requested {
                    self.metrics.rams = self.metrics.rams.max(a.0 + 1);
                }
            }
            Event::Release(c) => {
                let a = self.addr[c.index()];
                self.owner[a.index()] = None;
                self.queue.push_back(a);
                self.live -= 1;
            }
            Event::Op(i) => {
                let op = &ir.ops[i as usize];
                let addr = &self.addr;
                let z = addr[op.z.index()];
                let writes = self
                    .metrics
                    .op(&self.table, (op.a, op.b), z, |c| addr[c.index()]);
                self.writes[z.index()] += writes;
                self.metrics.wear = self.metrics.wear.max(self.writes[z.index()]);
            }
        }
    }
}

/// One replay from a fork point that stores only what it changed there:
/// per cell its address (`None` once released), per address its owner and
/// write count, each stamped with the replay's generation, and the free
/// queue as the fork's queue less the `served` entries it popped, then the
/// addresses `released` since.
struct Delta {
    generation: u32,
    /// Per cell its address, and whether its request took a fresh one.
    cells: Vec<(u32, Option<RamAddr>, bool)>,
    /// Per address its owner and write count, copied from the fork when
    /// the replay first changes either.
    addrs: Vec<(u32, Option<CellId>, u64)>,
    /// The addresses it changed, each once.
    touched: Vec<u32>,
    served: usize,
    released: std::collections::VecDeque<RamAddr>,
    fresh: u32,
    live: usize,
    metrics: Metrics,
}

impl Delta {
    fn new(cells: usize) -> Self {
        Delta {
            generation: 0,
            cells: vec![(0, None, false); cells],
            addrs: Vec::new(),
            touched: Vec::new(),
            served: 0,
            released: std::collections::VecDeque::new(),
            fresh: 0,
            live: 0,
            metrics: Metrics::default(),
        }
    }

    /// Forks a replay from `base`, forgetting every change in O(1).
    fn fork(&mut self, base: &Fork) {
        if self.generation == u32::MAX {
            self.cells.fill((0, None, false));
            self.addrs.fill((0, None, 0));
            self.generation = 0;
        }
        self.generation += 1;
        self.touched.clear();
        self.served = 0;
        self.released.clear();
        self.fresh = base.fresh();
        self.live = base.live;
        self.metrics = base.metrics;
    }

    /// The address of `c`, live in this replay.
    fn addr(&self, base: &Fork, c: CellId) -> Option<RamAddr> {
        match self.cells[c.index()] {
            (stamp, a, _) if stamp == self.generation => a,
            _ => Some(base.addr[c.index()]),
        }
    }

    /// Whether this replay's request of `c` took a fresh address.
    fn took_fresh(&self, c: CellId) -> bool {
        let (stamp, _, fresh) = self.cells[c.index()];
        stamp == self.generation && fresh
    }

    fn owner(&self, base: &Fork, a: usize) -> Option<CellId> {
        match self.addrs.get(a) {
            Some(&(stamp, c, _)) if stamp == self.generation => c,
            _ => base.owner.get(a).copied().flatten(),
        }
    }

    fn writes(&self, base: &Fork, a: usize) -> u64 {
        match self.addrs.get(a) {
            Some(&(stamp, _, count)) if stamp == self.generation => count,
            _ => base.writes.get(a).copied().unwrap_or(0),
        }
    }

    /// The owner and write count of `a`, to change.
    fn entry(&mut self, base: &Fork, a: RamAddr) -> &mut (u32, Option<CellId>, u64) {
        if self.addrs.len() <= a.index() {
            self.addrs.resize(a.index() + 1, (0, None, 0));
        }
        let entry = &mut self.addrs[a.index()];
        if entry.0 != self.generation {
            let owner = base.owner.get(a.index()).copied().flatten();
            let count = base.writes.get(a.index()).copied().unwrap_or(0);
            *entry = (self.generation, owner, count);
            self.touched.push(a.0);
        }
        entry
    }

    /// The free queue, oldest release first.
    fn queue<'a>(&'a self, base: &'a Fork) -> impl Iterator<Item = RamAddr> + 'a {
        let pool = &base.queue;
        pool.range(self.served.min(pool.len())..)
            .chain(&self.released)
            .copied()
    }

    /// Replays `event`, whose op touches `op`'s cells, as [`Fork::step`]
    /// does.
    fn step(&mut self, base: &Fork, event: Event, op: OpCells) {
        match event {
            Event::Request(c) => {
                let fresh = self.fresh;
                let a = if let Some(&a) = base.queue.get(self.served) {
                    self.served += 1;
                    a
                } else if let Some(a) = self.released.pop_front() {
                    a
                } else {
                    self.fresh += 1;
                    RamAddr(fresh)
                };
                self.cells[c.index()] = (self.generation, Some(a), self.fresh > fresh);
                self.entry(base, a).1 = Some(c);
                self.live += 1;
                if base.table.work_region == WorkRegion::Requested {
                    self.metrics.rams = self.metrics.rams.max(a.0 + 1);
                }
            }
            Event::Release(c) => {
                let a = self.addr(base, c).expect("release before request");
                let fresh = self.took_fresh(c);
                self.cells[c.index()] = (self.generation, None, fresh);
                self.entry(base, a).1 = None;
                self.released.push_back(a);
                self.live -= 1;
            }
            Event::Op(_) => {
                let (a, b, z) = op;
                let addr = |c| self.addr(base, c).expect("an op touches live cells");
                let z = addr(z);
                let mut metrics = self.metrics;
                let writes = metrics.op(&base.table, (a, b), z, addr);
                let entry = self.entry(base, z);
                entry.2 += writes;
                metrics.wear = metrics.wear.max(entry.2);
                self.metrics = metrics;
            }
        }
    }
}

impl FifoScorer {
    /// The scorer of `ir`, whose allocator is `fifo`, under `table`, and
    /// `ir`'s cost.
    pub(crate) fn new(ir: &IrProgram, table: CostTable) -> (Self, Cost) {
        let mut end = Fork::new(ir, table);
        let mut fresh = vec![false; ir.cells.len()];
        let mut released = vec![false; ir.cells.len()];
        for &event in &ir.events {
            match event {
                Event::Request(c) => fresh[c.index()] = end.queue.is_empty(),
                Event::Release(c) => released[c.index()] = true,
                Event::Op(_) => {}
            }
            end.step(ir, event);
        }
        let cost = end.metrics.cost(&table);
        let scorer = FifoScorer {
            table,
            events: ir.events.clone(),
            ops: ir.ops.iter().map(op_cells).collect(),
            merges: vec![None; ir.cells.len()],
            fresh,
            released,
            base: (0, Fork::new(ir, table)),
            tally: Tally::new(&end.writes),
            end_writes: end.writes,
            end: end.metrics,
            trial: Delta::new(ir.cells.len()),
            committed: Delta::new(ir.cells.len()),
            image: Vec::new(),
            pricing: 0,
            renamed: Vec::new(),
            priced: Vec::new(),
            accepted: None,
            counts: TrialCounts::default(),
        };
        (scorer, cost)
    }

    /// The committed cell `c` stands for now.
    fn resolve(&self, mut c: CellId) -> CellId {
        while let Some(d) = self.merges[c.index()] {
            c = d;
        }
        c
    }

    /// Steps the committed replay over committed event `pos`.
    fn step_committed(&mut self, pos: usize) {
        let event = match self.events[pos] {
            Event::Request(c) => Event::Request(self.resolve(c)),
            Event::Release(c) => Event::Release(self.resolve(c)),
            op @ Event::Op(_) => op,
        };
        let op = match event {
            Event::Op(i) => {
                let (a, b, z) = self.ops[i as usize];
                let cell = |v: Value| match v {
                    Value::Cell(c) => Value::Cell(self.resolve(c)),
                    v => v,
                };
                (cell(a), cell(b), self.resolve(z))
            }
            _ => NO_OP,
        };
        self.committed.step(&self.base.1, event, op);
    }

    /// Moves `base` to the committed replay before event `to`, replaying
    /// from event 0 when `to` lies behind it.
    fn advance(&mut self, ir: &IrProgram, to: usize) {
        let (at, fork) = &mut self.base;
        if to < *at {
            *at = 0;
            *fork = Fork::new(ir, self.table);
        }
        for &event in &ir.events[*at..to] {
            fork.step(ir, event);
        }
        *at = to;
    }

    /// The edited stream's metrics at its end, from a cut where the trial
    /// replay equals the committed one up to a renaming, with `merged.0`
    /// read as `merged.1`; leaves in `priced` the end write counts that
    /// differ from the committed stream's. This is
    /// [`Replay::adopted_metrics`] on the deltas: the sums and the work
    /// region shifted past the cut's, and the committed end counts renamed.
    ///
    /// Only the addresses either replay touched, and the free queue's
    /// entries that do not pair with themselves, can move or change their
    /// count: a cell live at the fork and untouched since holds its address
    /// in both replays, and when both popped the fork's queue equally far,
    /// its unpopped entries pair with themselves. So the renaming and the
    /// counts are built on those addresses only, and every other address
    /// keeps its committed end count, the largest of which `tally` gives.
    fn price(&mut self, merged: (CellId, CellId)) -> Metrics {
        let (_, base) = &self.base;
        let (trial, committed) = (&self.trial, &self.committed);
        if self.pricing == u32::MAX {
            self.image.fill((0, 0));
            self.pricing = 0;
        }
        self.pricing += 1;
        let pricing = self.pricing;
        self.image
            .resize(self.image.len().max(trial.fresh as usize), (0, 0));
        let (image, renamed) = (&mut self.image, &mut self.renamed);
        renamed.clear();
        let mut rename = |b: RamAddr, a: RamAddr| {
            if image[b.index()].0 != pricing {
                image[b.index()] = (pricing, a.0);
                renamed.push(b.0);
            }
        };
        for &b in committed.touched.iter().chain(&trial.touched) {
            if let Some(c) = committed.owner(base, b as usize) {
                let c = if c == merged.0 { merged.1 } else { c };
                let a = trial.addr(base, c).expect("a cell live in both replays");
                rename(RamAddr(b), a);
            }
        }
        let pool = base.queue.len();
        let shared = if committed.served == trial.served {
            pool.saturating_sub(committed.served)
        } else {
            0
        };
        for (b, a) in committed.queue(base).zip(trial.queue(base)).skip(shared) {
            rename(b, a);
        }
        #[cfg(test)]
        self.check_renaming(merged);
        let (_, base) = &self.base;
        let (trial, committed) = (&self.trial, &self.committed);
        self.priced.clear();
        for &b in &self.renamed {
            let a = self.image[b as usize].1;
            let gained = self.end_writes[b as usize] - committed.writes(base, b as usize);
            let count = gained + trial.writes(base, a as usize);
            self.priced.push((a, count));
        }
        for &b in &self.renamed {
            self.tally.remove(self.end_writes[b as usize]);
        }
        let unchanged = self.tally.highest();
        for &b in &self.renamed {
            self.tally.add(self.end_writes[b as usize]);
        }
        let (end, here, cut) = (self.end, committed.metrics, trial.metrics);
        Metrics {
            instructions: end.instructions - here.instructions + cut.instructions,
            units: end.units - here.units + cut.units,
            general: end.general - here.general + cut.general,
            rams: end.rams.max(cut.rams),
            wear: self
                .priced
                .iter()
                .map(|&(_, count)| count)
                .fold(cut.wear.max(unchanged), u64::max),
        }
    }

    /// Checks the sparse renaming [`FifoScorer::price`] built against the
    /// whole one: live cells pair by name, free queues by position, every
    /// address below the fresh counter is mapped once, and the addresses
    /// left out map to themselves.
    #[cfg(test)]
    fn check_renaming(&self, merged: (CellId, CellId)) {
        let (_, base) = &self.base;
        let (trial, committed) = (&self.trial, &self.committed);
        const UNSET: u32 = u32::MAX;
        let fresh = trial.fresh as usize;
        let mut whole = vec![UNSET; fresh];
        for (b, slot) in whole.iter_mut().enumerate() {
            if let Some(c) = committed.owner(base, b) {
                let c = if c == merged.0 { merged.1 } else { c };
                *slot = trial.addr(base, c).expect("a cell live in both replays").0;
            }
        }
        for (b, a) in committed.queue(base).zip(trial.queue(base)) {
            whole[b.index()] = a.0;
        }
        let mut seen = vec![false; fresh];
        for (b, &a) in whole.iter().enumerate() {
            assert!(
                a != UNSET && !std::mem::replace(&mut seen[a as usize], true),
                "the cut's renaming is one-to-one"
            );
            let sparse = match self.image[b] {
                (stamp, a) if stamp == self.pricing => a,
                _ => b as u32,
            };
            assert_eq!(sparse, a, "the image of address {b}");
        }
    }
}

/// How many addresses hold each write count.
struct Tally(Vec<u32>);

impl Tally {
    fn new(writes: &[u64]) -> Self {
        let mut tally = Tally(Vec::new());
        for &count in writes {
            tally.add(count);
        }
        tally
    }

    fn add(&mut self, count: u64) {
        let count = usize::try_from(count).expect("a write count fits memory");
        if self.0.len() <= count {
            self.0.resize(count + 1, 0);
        }
        self.0[count] += 1;
    }

    /// Takes one address off `count`, which one holds, and drops the
    /// counts no address holds from the top.
    fn remove(&mut self, count: u64) {
        self.0[count as usize] -= 1;
        while self.0.last() == Some(&0) {
            self.0.pop();
        }
    }

    /// The highest count an address holds, 0 for none.
    fn highest(&self) -> u64 {
        self.0.len().saturating_sub(1) as u64
    }
}

/// The cells of an event that is no op.
const NO_OP: OpCells = (Value::Const(false), Value::Const(false), CellId(0));

impl TrialScorer for FifoScorer {
    /// Replays the edited stream from `edit.from`. The committed replay's
    /// fresh counter and live count follow from the committed stream's
    /// per-cell flags without replaying it: over the edited span, the
    /// committed stream requests the cells the edited one does plus the
    /// merged-away cell, and it releases one cell more exactly when it
    /// releases either merged cell; past `edit.until` both streams request
    /// and release alike, and a request takes a fresh cell when the queue —
    /// fresh counter less live count — is empty. At the first event past
    /// `edit.until` where the counters say the two replays are equal up to
    /// a renaming (see [`FifoScorer`]), the committed stream is replayed to
    /// that event, the counters are confirmed, and the cost is
    /// [priced](FifoScorer::price) from the committed end state.
    fn trial(&mut self, ir: &IrProgram, edit: &TrialEdit, bound: Cost) -> Option<Cost> {
        let TrialEdit {
            from,
            until,
            shift,
            merged: (x, d),
        } = *edit;
        self.advance(ir, from);
        self.trial.fork(&self.base.1);
        self.committed.fork(&self.base.1);
        let table = self.table;
        let within = |metrics: Metrics| {
            let cost = metrics.cost(&table);
            cost.footprint <= bound.footprint && cost.wear <= bound.wear
        };
        let step_trial = |scorer: &mut Self, pos: usize| {
            let event = ir.events[pos];
            let op = ir.op_of(event).map_or(NO_OP, op_cells);
            scorer.trial.step(&scorer.base.1, event, op);
            !matches!(event, Event::Op(_)) || within(scorer.trial.metrics)
        };
        let mut pos = from;
        let mut alive = true;
        let mut committed_fresh = self.committed.fresh + u32::from(self.fresh[x.index()]);
        while alive && pos < shifted(until, shift) {
            if let Event::Request(c) = ir.events[pos] {
                committed_fresh += u32::from(self.fresh[c.index()]);
            }
            alive = step_trial(self, pos);
            pos += 1;
        }
        let mut comparable = self.released[x.index()] || self.released[d.index()];
        let mut committed_pos = from;
        let cut = loop {
            if !alive {
                break false;
            }
            if comparable
                && self.trial.fresh == committed_fresh
                && self.trial.metrics.rams == self.trial.fresh
            {
                // The committed position the trial's `pos` repeats.
                let aligned = shifted(pos, -shift);
                while committed_pos < aligned {
                    self.step_committed(committed_pos);
                    committed_pos += 1;
                }
                let confirmed = self.committed.live == self.trial.live
                    && self.committed.fresh == committed_fresh;
                debug_assert!(confirmed, "the committed counters at {edit:?}");
                if confirmed {
                    break true;
                }
                comparable = false;
            }
            if pos == ir.events.len() {
                break false;
            }
            if matches!(ir.events[pos], Event::Request(_))
                && committed_fresh as usize == self.trial.live
            {
                committed_fresh += 1;
            }
            alive = step_trial(self, pos);
            pos += 1;
        };
        let metrics = if cut {
            self.price((x, d))
        } else {
            self.trial.metrics
        };
        let cost = metrics.cost(&table);
        let accepted = alive && cost.improves_on(bound);
        self.counts.trials += 1;
        self.counts.replayed += (pos - from + committed_pos - from) as u64;
        if cut {
            let past = pos - shifted(until, shift) + committed_pos - until;
            self.counts.overhead += past as u64;
        }
        self.counts.cuts += usize::from(cut);
        #[cfg(test)]
        tests::note_trial(tests::TrialRecord {
            resumed: from,
            spacing: 1,
            from,
            accepted,
            reconverged_at: cut.then_some(pos),
        });
        self.accepted = None;
        if !accepted {
            return None;
        }
        let trial = &self.trial;
        let requests = ir.events[from..pos]
            .iter()
            .filter_map(|&event| match event {
                Event::Request(c) => Some((c, trial.took_fresh(c))),
                _ => None,
            })
            .collect();
        let events = ir.events[from..shifted(until, shift)].to_vec();
        let ops = events
            .iter()
            .filter_map(|&event| match event {
                Event::Op(i) => Some((i, op_cells(&ir.ops[i as usize]))),
                _ => None,
            })
            .collect();
        self.accepted = Some(FifoCommit {
            from,
            until,
            events,
            ops,
            requests,
            merged: (x, d),
            end: metrics,
            cut,
        });
        Some(cost)
    }

    /// Writes the accepted trial's end state, events and flags over the
    /// committed ones.
    fn commit(&mut self) {
        let commit = self
            .accepted
            .take()
            .expect("commit after an accepted trial");
        if commit.cut {
            for &(a, count) in &self.priced {
                let old = std::mem::replace(&mut self.end_writes[a as usize], count);
                self.tally.remove(old);
                self.tally.add(count);
            }
        } else {
            let (_, base) = &self.base;
            let trial = &self.trial;
            self.end_writes = (0..trial.fresh as usize)
                .map(|a| trial.writes(base, a))
                .collect();
            self.tally = Tally::new(&self.end_writes);
        }
        self.end = commit.end;
        self.events.splice(commit.from..commit.until, commit.events);
        for (i, cells) in commit.ops {
            self.ops[i as usize] = cells;
        }
        for (c, fresh) in commit.requests {
            self.fresh[c.index()] = fresh;
        }
        let (x, d) = commit.merged;
        if x != d {
            self.released[d.index()] &= self.released[x.index()];
            self.merges[x.index()] = Some(d);
        }
    }

    fn counts(&self) -> TrialCounts {
        self.counts
    }
}

#[cfg(test)]
impl Scorer {
    /// The committed stream's cost and end write count per address.
    pub(crate) fn committed(&self) -> (Cost, Vec<u64>) {
        (self.end.cost(), self.end.alloc.write_counts().to_vec())
    }
}

#[cfg(test)]
impl FifoScorer {
    /// The committed stream's cost and end write count per address.
    pub(crate) fn committed(&self) -> (Cost, Vec<u64>) {
        (self.end.cost(&self.table), self.end_writes.clone())
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

    use super::{place, FifoScorer, Scorer};
    use crate::backend::{CostTable, TrialEdit, TrialScorer};
    use crate::ir::{CellId, Event, IrCell, IrOp, IrOutput, IrProgram, Value};
    use crate::{AllocatorStrategy, LifetimeClass};

    /// One [`super::Scorer`] trial.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct TrialRecord {
        /// The first position the trial replayed: the checkpoint it
        /// resumed from, or the edit's first changed event under `fifo`.
        pub(crate) resumed: usize,
        /// That checkpoint's spacing: the committed stream's next one is
        /// this many events later (1 under `fifo`).
        pub(crate) spacing: usize,
        /// The first position the trial edit changed.
        pub(crate) from: usize,
        /// Whether the trial improved on its bound.
        pub(crate) accepted: bool,
        /// Where the trial finished early because its replay reconverged
        /// with the committed one: the position, in the trial's stream, of
        /// the committed checkpoint it matched, or under `fifo` of the
        /// event it matched at. A commit adopts the committed state from
        /// there on.
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

    /// `ir`'s cost under `table` and its end write count per address, from
    /// one full replay.
    pub(crate) fn full_replay(ir: &IrProgram, table: CostTable) -> (crate::Cost, Vec<u64>) {
        let mut state = super::Replay::new(ir, table);
        let mut cells = super::CellTable::new(ir);
        let all = 0..ir.events.len();
        state.run(ir, &mut cells, all, super::UNBOUNDED, None, &mut ());
        (state.cost(), state.alloc.write_counts().to_vec())
    }

    /// Under `fifo`, a trial replays nothing before the first event its
    /// edit changed — it forks the committed replay there — and under
    /// every target's cost table some trials reconverge.
    #[test]
    fn fifo_trials_replay_nothing_before_their_edit() {
        use plim_benchmarks::random::{random_logic, RandomLogicSpec};
        take_trials();
        for &backend in crate::backend::backends() {
            for seed in 0..3 {
                let mig = random_logic(&RandomLogicSpec::new(8, 4, 400, seed));
                let mut ir = crate::ir::lower(&mig, crate::CompilerOptions::new());
                crate::ir::passes::forward(&mut ir, backend);
            }
            let trials = take_trials();
            assert!(!trials.is_empty(), "{}: no trials", backend.name());
            for t in &trials {
                assert_eq!(t.resumed, t.from, "{}: {t:?}", backend.name());
            }
            assert!(
                trials.iter().any(|t| t.reconverged_at.is_some()),
                "{}: no trial reconverged",
                backend.name()
            );
        }
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
        let edit = TrialEdit {
            from: 3,
            until: 4,
            shift: -1,
            merged: (c1, c1),
        };
        let scorers: [(Box<dyn TrialScorer>, _); 2] = [
            {
                let (scorer, cost) = Scorer::new(&committed, CostTable::RM3);
                (Box::new(scorer), cost)
            },
            {
                let (scorer, cost) = FifoScorer::new(&committed, CostTable::RM3);
                (Box::new(scorer), cost)
            },
        ];
        for (mut scorer, cost) in scorers {
            assert_eq!(cost.footprint, 2);
            let got = scorer.trial(&trial, &edit, cost).expect("one write fewer");
            assert_eq!(got, place(&trial, CostTable::RM3, &mut ()).cost);
            assert_eq!(got.footprint, 1);
            assert_eq!(
                take_trials().last().expect("one trial").reconverged_at,
                None
            );
        }
    }
}
