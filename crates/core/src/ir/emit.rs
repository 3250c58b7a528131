//! Emission: IR → physical [`plim::Program`].
//!
//! The emitter replays the IR's event stream through a fresh
//! [`RramAllocator`] of the program's strategy: a [`Event::Request`]
//! assigns the virtual cell a physical address, a [`Event::Release`]
//! returns it to the free pool, and every [`Event::Op`] becomes one RM3
//! instruction whose destination write is recorded on the allocator's
//! per-cell counters — the same funnel the lowering used, so
//! `max_cell_writes` stays exactly equal to the program's static endurance
//! profile no matter what the passes did to the stream.
//!
//! On an unedited stream the replay performs the identical
//! request/release/write sequence the lowering performed, so `-O0` output
//! is byte-identical to the historical single-step translator — listing
//! comments included, which is why ops carry only the comment's right-hand
//! side, a plain [`plim::Rhs`], and the program renders the `X<addr> ←`
//! prefix from the replayed destination only when a listing is printed.
//!
//! The same replay, without building the program, is the RM3 cost model:
//! one loop serves [`replay_metrics`] and the [`Rm3Scorer`] the pass
//! pipeline scores trial edits with. The scorer checkpoints the replay of
//! the committed stream — allocator, owner per physical address and running
//! metrics, every max(256, footprint) events — so a trial resumes from the
//! last checkpoint before the first event its edit changed, and stops as
//! soon as its footprint or wear passes the incumbent's.
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
use crate::backend::{Cost, TrialCounts, TrialEdit, TrialScorer};
use crate::program::{Rm3Program, Rm3Stats};

use super::{CellId, Event, IrOutput, IrProgram, Value};

/// Replays only the allocator, returning `(#I, #R, max-cell-writes)`
/// without building the program (no listing) — the RM3 cost model the pass
/// pipeline scores streams with.
pub(crate) fn replay_metrics(ir: &IrProgram) -> (usize, u32, u64) {
    let mut replay = Replay::new(ir);
    let all = 0..ir.events.len();
    let replayed = replay.run(ir, &mut CellTable::new(ir), all, UNBOUNDED, None);
    debug_assert_eq!(
        replayed,
        ir.events.len(),
        "an unbounded replay runs to the end"
    );
    (replay.instructions, replay.rams, replay.wear)
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
    alloc: RramAllocator,
    /// The virtual cell live at each physical address.
    owner: Vec<Option<CellId>>,
    instructions: usize,
    rams: u32,
    wear: u64,
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
    fn new(ir: &IrProgram) -> Self {
        Replay {
            alloc: RramAllocator::new(ir.allocator),
            owner: Vec::new(),
            instructions: 0,
            rams: 0,
            wear: 0,
        }
    }

    fn cost(&self) -> Cost {
        Cost {
            instructions: self.instructions,
            footprint: self.rams,
            wear: self.wear,
            units: self.instructions as u64,
        }
    }

    /// Whether the footprint and the wear are still within `bound`'s.
    fn within(&self, bound: Cost) -> bool {
        self.rams <= bound.footprint && self.wear <= bound.wear
    }

    /// Events between checkpoints: at least the footprint, so the
    /// checkpoints of a stream take O(#events) memory in all.
    fn checkpoint_spacing(&self) -> usize {
        self.owner.len().max(256)
    }

    /// Replays `ir.events[range]` on top of this state, with `cells`
    /// holding the address of every cell live at its start, and records a
    /// checkpoint (when given a recorder) every
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
                }
                Event::Release(c) => {
                    let a = cells.take(c).expect("release before request");
                    self.owner[a.index()] = None;
                    self.alloc.release(a);
                }
                Event::Op(i) => {
                    let op = &ir.ops[i as usize];
                    let z = cells.get(op.z).expect("write outside cell lifetime");
                    self.instructions += 1;
                    self.alloc.note_write(z);
                    self.wear = self.wear.max(self.alloc.write_counts()[z.index()]);
                    self.rams = self.rams.max(z.0 + 1);
                    for value in [op.a, op.b] {
                        if let Value::Cell(c) = value {
                            let a = cells.get(c).expect("read outside cell lifetime");
                            self.rams = self.rams.max(a.0 + 1);
                        }
                    }
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
        if self.rams != self.alloc.num_allocated() {
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
    /// one's `base` as the first reads it (see [`Rm3Scorer::commit`]).
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
        let cost = self.adopted_cost(base, cut, renaming);
        Replay {
            alloc,
            owner,
            instructions: cost.instructions,
            rams: cost.footprint,
            wear: cost.wear,
        }
    }

    /// The cost of [`Replay::adopted`]'s result, without building it.
    fn adopted_cost(&self, base: &Replay, cut: &Replay, renaming: &Renaming) -> Cost {
        let (writes, base_writes) = (self.alloc.write_counts(), base.alloc.write_counts());
        let cut_writes = cut.alloc.write_counts();
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
        let rams = (i64::from(self.rams) + renaming.shift()).max(i64::from(cut.rams));
        let instructions = self.instructions - base.instructions + cut.instructions;
        Cost {
            instructions,
            footprint: u32::try_from(rams).expect("a footprint fits its address width"),
            wear,
            units: instructions as u64,
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

/// The RM3 backend's [`TrialScorer`]: checkpoints the replay of the
/// committed stream and resumes each trial from the last checkpoint at or
/// before the first event the edit changed, abandoning it as soon as the
/// footprint or wear passes the incumbent's, and finishing it early once it
/// has reconverged with the committed replay.
pub(crate) struct Rm3Scorer {
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

impl Rm3Scorer {
    /// The scorer of `ir`, and `ir`'s cost.
    pub(crate) fn new(ir: &IrProgram) -> (Self, Cost) {
        let mut end = Replay::new(ir);
        let mut list = vec![(0, end.clone())];
        let mut cells = CellTable::new(ir);
        let mut recorder = Recorder {
            list: &mut list,
            next: end.checkpoint_spacing(),
        };
        let all = 0..ir.events.len();
        end.run(ir, &mut cells, all, UNBOUNDED, Some(&mut recorder));
        let cost = end.cost();
        let scorer = Rm3Scorer {
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

impl TrialScorer for Rm3Scorer {
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
            replayed += state.run(ir, &mut self.cells, pos..stop, bound, Some(&mut recorder));
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

/// Replays the IR into an executable program with its cost metrics.
///
/// # Panics
///
/// Panics if the event stream is malformed (an op touching a cell outside
/// its request/release span); run [`IrProgram::check`] first when in doubt
/// — the pass pipeline does so after every pass.
pub fn emit(ir: &IrProgram) -> Rm3Program {
    let mut alloc = RramAllocator::new(ir.allocator);
    let mut addr: Vec<Option<RamAddr>> = vec![None; ir.cells.len()];
    let mut program = Program::new(ir.num_inputs);
    let mut peak_live = 0usize;

    let operand = |value: Value, addr: &[Option<RamAddr>]| match value {
        Value::Const(v) => Operand::Const(v),
        Value::Input(i) => Operand::Input(i),
        Value::Cell(c) => Operand::Ram(addr[c.index()].expect("read outside cell lifetime")),
    };

    for &event in &ir.events {
        match event {
            Event::Request(c) => {
                let a = alloc.request_with_hint(ir.cells[c.index()].hint);
                addr[c.index()] = Some(a);
                peak_live = peak_live.max(alloc.num_live());
            }
            Event::Release(c) => {
                let a = addr[c.index()].take().expect("release before request");
                alloc.release(a);
            }
            Event::Op(i) => {
                let op = &ir.ops[i as usize];
                let z = addr[op.z.index()].expect("write outside cell lifetime");
                let instruction = Instruction::new(operand(op.a, &addr), operand(op.b, &addr), z);
                alloc.note_write(z);
                program.push_assignment(instruction, op.rhs);
            }
        }
    }

    for (name, output) in &ir.outputs {
        let loc = match *output {
            IrOutput::Cell(c) => {
                OutputLoc::Ram(addr[c.index()].expect("output cell released before program end"))
            }
            IrOutput::Input {
                index,
                complemented,
            } => OutputLoc::Input {
                index,
                complemented,
            },
            IrOutput::Const(v) => OutputLoc::Const(v),
        };
        program.add_output(name.clone(), loc);
    }

    let stats = Rm3Stats {
        instructions: program.len(),
        rams: program.num_rams(),
        mig_nodes: ir.mig_nodes,
        peak_live,
        max_cell_writes: alloc.max_writes(),
    };
    Rm3Program { program, stats }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::RefCell;

    use plim::{RamAddr, Rhs};

    use super::{replay_metrics, Rm3Scorer};
    use crate::backend::{TrialEdit, TrialScorer};
    use crate::ir::{CellId, Event, IrCell, IrOp, IrOutput, IrProgram, Value};
    use crate::{AllocatorStrategy, LifetimeClass};

    /// One [`super::Rm3Scorer`] trial.
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

    /// The trials this thread's RM3 scorers ran since the last call.
    pub(crate) fn take_trials() -> Vec<TrialRecord> {
        TRIALS.with(|log| std::mem::take(&mut *log.borrow_mut()))
    }

    /// A FIFO program over cells `%0` and `%1` whose stream is `events`,
    /// with op 0 the reset of `%0` and op 1 the reset of `%1`.
    fn program(events: Vec<Event>) -> IrProgram {
        let cell = IrCell {
            pinned: RamAddr(0),
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
        let (mut scorer, cost) = Rm3Scorer::new(&committed);
        assert_eq!(cost.footprint, 2);
        let edit = TrialEdit {
            from: 3,
            until: 4,
            shift: -1,
            merged: (c1, c1),
        };
        let got = scorer.trial(&trial, &edit, cost).expect("one write fewer");
        let (instructions, footprint, wear) = replay_metrics(&trial);
        assert_eq!(
            (got.instructions, got.footprint, got.wear),
            (instructions, footprint, wear)
        );
        assert_eq!(got.footprint, 1);
        assert_eq!(
            take_trials().last().expect("one trial").reconverged_at,
            None
        );
    }
}
