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
//! metrics, every max(256, 4 × footprint) events — so a trial resumes from
//! the last checkpoint before the first event its edit changed, and stops
//! as soon as its footprint or wear passes the incumbent's.

use plim::{Instruction, Operand, OutputLoc, Program, RamAddr};

use crate::alloc::RramAllocator;
use crate::backend::{Cost, TrialScorer};
use crate::program::{Rm3Program, Rm3Stats};

use super::{CellId, Event, IrOutput, IrProgram, Value};

/// Replays only the allocator, returning `(#I, #R, max-cell-writes)`
/// without building the program (no listing) — the RM3 cost model the pass
/// pipeline scores streams with.
pub(crate) fn replay_metrics(ir: &IrProgram) -> (usize, u32, u64) {
    let mut replay = Replay::new(ir);
    let finished = replay.run(ir, &mut CellTable::new(ir), 0, UNBOUNDED, None);
    debug_assert!(finished, "an unbounded replay runs to the end");
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

    /// Events between checkpoints: at least four times the footprint, so
    /// the checkpoints of a stream take O(#events) memory in all.
    fn checkpoint_spacing(&self) -> usize {
        (4 * self.owner.len()).max(256)
    }

    /// Replays `ir.events[from..]` on top of this state, with `cells`
    /// holding the address of every cell live at `from`, and pushes a
    /// checkpoint onto `checkpoints` (when given) every
    /// [`Replay::checkpoint_spacing`] events. Returns `false` as soon as
    /// the footprint or the wear passes `bound`'s, abandoning the replay
    /// midway.
    ///
    /// # Panics
    ///
    /// Panics if the stream releases a cell it never requested, or an op
    /// touches a cell outside its request/release span.
    fn run(
        &mut self,
        ir: &IrProgram,
        cells: &mut CellTable,
        from: usize,
        bound: Cost,
        mut checkpoints: Option<&mut Vec<Checkpoint>>,
    ) -> bool {
        let mut next_checkpoint = from + self.checkpoint_spacing();
        for (pos, &event) in ir.events.iter().enumerate().skip(from) {
            if pos == next_checkpoint {
                if let Some(list) = checkpoints.as_deref_mut() {
                    list.push((pos, self.clone()));
                }
                next_checkpoint = pos + self.checkpoint_spacing();
            }
            match event {
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
                    if self.rams > bound.footprint || self.wear > bound.wear {
                        return false;
                    }
                }
            }
        }
        true
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
/// footprint or wear passes the incumbent's.
pub(crate) struct Rm3Scorer {
    /// Checkpoints of the committed stream, by position; the first is at 0.
    committed: Vec<Checkpoint>,
    /// The committed checkpoint the last trial resumed from.
    resumed: usize,
    /// The checkpoints the last trial recorded past `resumed`; empty unless
    /// it ran to the end.
    trial: Vec<Checkpoint>,
    cells: CellTable,
}

impl Rm3Scorer {
    /// The scorer of `ir`, and `ir`'s cost.
    pub(crate) fn new(ir: &IrProgram) -> (Self, Cost) {
        let mut state = Replay::new(ir);
        let mut committed = vec![(0, state.clone())];
        let mut cells = CellTable::new(ir);
        state.run(ir, &mut cells, 0, UNBOUNDED, Some(&mut committed));
        let scorer = Rm3Scorer {
            committed,
            resumed: 0,
            trial: Vec::new(),
            cells,
        };
        (scorer, state.cost())
    }
}

impl TrialScorer for Rm3Scorer {
    fn trial(&mut self, ir: &IrProgram, from: usize, bound: Cost) -> Option<Cost> {
        self.resumed = self.committed.partition_point(|&(pos, _)| pos <= from) - 1;
        let (start, ref checkpoint) = self.committed[self.resumed];
        let mut state = checkpoint.clone();
        self.cells.seed(&state);
        self.trial.clear();
        let finished = state.run(ir, &mut self.cells, start, bound, Some(&mut self.trial));
        let cost = state.cost();
        let accepted = finished && cost.improves_on(bound);
        #[cfg(test)]
        tests::note_trial(tests::TrialRecord {
            resumed: start,
            spacing: checkpoint.checkpoint_spacing(),
            from,
            accepted,
        });
        if !accepted {
            self.trial.clear();
        }
        accepted.then_some(cost)
    }

    fn commit(&mut self) {
        self.committed.truncate(self.resumed + 1);
        self.committed.append(&mut self.trial);
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
}
