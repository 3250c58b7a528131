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
//! and the [`scorer`] of the pass pipeline's trial edits sink them into
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
//! cost it reports is the one a full replay computes.
//!
//! The [`DeltaScorer`] does this under every allocator. It forks the
//! committed replay at the first event the edit changed and replays
//! nothing before it, tests for the renaming at every event past the edit,
//! and prices the rest from the committed end write counts, renaming only
//! the addresses that moved; a commit writes the new end state in place.
//! The pool rules it needs — how a fork serves cells, when two forks serve
//! alike, and how their pools pair — are [`crate::alloc`]'s. Under `wear`
//! no trial is cut, since its choices read every write count, which no
//! renaming preserves, so each replays to the stream's end.

use plim::{Instruction, Operand, OutputLoc, Program, RamAddr};

use crate::alloc::{AllocDelta, RramAllocator};
use crate::backend::{Cost, CostTable, TrialCounts, TrialEdit, TrialScorer, WorkRegion};
use crate::program::{Rm3Program, Rm3Stats};

use super::{CellId, Event, IrCell, IrOp, IrOutput, IrProgram, Value};

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
/// May panic on a malformed stream: one on which
/// [`analyze_events`](super::analysis::analyze_events) reports an
/// error-level finding.
pub fn place(ir: &IrProgram, table: CostTable, sink: &mut impl OpSink) -> Placement {
    let mut state = Replay::new(ir, table);
    state.run(ir, 0..ir.events.len(), sink);
    let output = |output: &IrOutput| match *output {
        IrOutput::Cell(c) => OutputLoc::Ram(state.cells[c.index()].expect("output cell released")),
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

/// The running state of one allocator replay: the allocator, the virtual
/// cell live at each physical address and the address of each live virtual
/// cell, and the running metrics. [`place`] runs one over a whole stream;
/// the [`DeltaScorer`] keeps one as the committed replay it forks its
/// trials from.
struct Replay {
    table: CostTable,
    alloc: RramAllocator,
    owner: Vec<Option<CellId>>,
    cells: Vec<Option<RamAddr>>,
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
    /// `addr` the address of a cell it reads; returns the writes it makes
    /// to `z`, and its operands as placed.
    fn op(
        &mut self,
        table: &CostTable,
        (a, b): (Value, Value),
        z: RamAddr,
        addr: impl Fn(CellId) -> RamAddr,
    ) -> (u64, Operand, Operand) {
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
        let mut place = |value: Value| match value {
            Value::Const(v) => {
                self.units -= price.const_discount;
                Operand::Const(v)
            }
            Value::Input(i) => Operand::Input(i),
            Value::Cell(c) => {
                let a = addr(c);
                self.rams = self.rams.max(a.0 + 1);
                Operand::Ram(a)
            }
        };
        (price.writes, place(a), place(b))
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

impl Replay {
    fn new(ir: &IrProgram, table: CostTable) -> Self {
        Replay {
            table,
            alloc: RramAllocator::new(ir.allocator),
            owner: Vec::new(),
            cells: vec![None; ir.cells.len()],
            metrics: Metrics::default(),
        }
    }

    fn cost(&self) -> Cost {
        self.metrics.cost(&self.table)
    }

    /// Replays `ir.events[range]` on top of this state, handing each op to
    /// `sink`.
    fn run(&mut self, ir: &IrProgram, range: std::ops::Range<usize>, sink: &mut impl OpSink) {
        for &event in &ir.events[range] {
            self.step(ir, event, sink);
        }
    }

    /// Replays one event of `ir`.
    ///
    /// # Panics
    ///
    /// Panics if the stream releases a cell it never requested, or an op
    /// touches a cell outside its request/release span.
    fn step(&mut self, ir: &IrProgram, event: Event, sink: &mut impl OpSink) {
        match event {
            Event::Request(c) => {
                let a = self.alloc.request_with_hint(ir.cells[c.index()].hint);
                if self.owner.len() <= a.index() {
                    self.owner.resize(a.index() + 1, None);
                }
                self.owner[a.index()] = Some(c);
                self.cells[c.index()] = Some(a);
                if self.table.work_region == WorkRegion::Requested {
                    self.metrics.rams = self.metrics.rams.max(a.0 + 1);
                }
                sink.request(self.alloc.num_live());
            }
            Event::Release(c) => {
                let a = self.cells[c.index()]
                    .take()
                    .expect("release before request");
                self.owner[a.index()] = None;
                self.alloc.release(a);
            }
            Event::Op(i) => {
                let op = &ir.ops[i as usize];
                let cells = &self.cells;
                let z = cells[op.z.index()].expect("write outside cell lifetime");
                let addr = |c: CellId| cells[c.index()].expect("read outside cell lifetime");
                let (writes, a, b) = self.metrics.op(&self.table, (op.a, op.b), z, addr);
                self.alloc.note_writes(z, writes);
                let count = self.alloc.write_counts()[z.index()];
                self.metrics.wear = self.metrics.wear.max(count);
                sink.op(op, z, a, b);
            }
        }
    }
}

fn shifted(pos: usize, shift: isize) -> usize {
    pos.checked_add_signed(shift)
        .expect("shifted past the edit")
}

/// The scorer of `ir` under `table` that the pass pipeline uses, and `ir`'s
/// cost.
pub(crate) fn scorer(ir: &IrProgram, table: CostTable) -> (Box<dyn TrialScorer>, Cost) {
    let (scorer, cost) = DeltaScorer::new(ir, table);
    (Box::new(scorer), cost)
}

/// The cells an op touches: its operands and its destination.
type OpCells = (Value, Value, CellId);

fn op_cells(op: &IrOp) -> OpCells {
    (op.a, op.b, op.z)
}

/// Every allocator's [`TrialScorer`]: a trial replays the events its edit
/// changed and those up to where it reconverges, and nothing before the
/// edit.
///
/// The scorer keeps the committed replay before the last trial's edit
/// (`base`), moved forward over the committed events up to each trial's
/// `edit.from` (Forward scans the stream in order, so it nearly never moves
/// back; when it must, it replays from event 0). A trial replays the edited
/// stream from there as a [`Delta`] that stores only what it changed over
/// `base`. Per-cell flags of the committed stream — whether its request
/// took a fresh address, whether it is released — give the committed
/// replay's fresh counter and live count past the edit without replaying
/// it (see [`DeltaScorer::trial`]). At the first event past `edit.until`
/// where both agree with the trial's as the pool needs, and the trial's
/// footprint covers its cells, the scorer replays the committed stream
/// from `edit.from` to that event, as a second [`Delta`], and asks the
/// allocator whether the two replays are equal up to a renaming of
/// addresses ([`AllocDelta::renames`]): the live cells pair up by name,
/// the free pools by position. If so, it prices the rest of the trial —
/// the committed replay renamed — from the committed end write counts it
/// keeps per address, renaming only the addresses that moved.
///
/// A commit writes the priced end counts in place, splices the trial's
/// events into its copy of the committed stream, updates the flags and
/// records the merged cell; `base` stays valid, because it lies before the
/// edit.
pub(crate) struct DeltaScorer {
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
    base: (usize, Replay),
    /// The committed replay's write count per address at the stream's end,
    /// how many addresses hold each count, and its metrics there.
    end_writes: Vec<u64>,
    tally: Tally,
    end: Metrics,
    trial: Delta,
    committed: Delta,
    /// The last cut's renaming of committed addresses onto the trial's,
    /// where it moves an address or its count or leaves it unmapped
    /// ([`UNMAPPED`]), stamped by `pricing`, with the addresses it covers in
    /// `renamed`; `imaged` stamps the trial addresses it maps onto.
    image: Vec<(u32, u32)>,
    imaged: Vec<u32>,
    pricing: u32,
    renamed: Vec<u32>,
    /// The end write counts of the last cut's stream where they differ
    /// from the committed stream's.
    priced: Vec<(u32, u64)>,
    /// What committing the last trial changes, if it was accepted.
    accepted: Option<Commit>,
    counts: TrialCounts,
}

/// The image of a committed address that the renaming leaves unmapped: a
/// cell a `fresh` pool parked, which no request is served again.
const UNMAPPED: u32 = u32::MAX;

/// An accepted trial's edit, as [`DeltaScorer::commit`] applies it.
struct Commit {
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
    /// [`DeltaScorer::priced`], rather than replaying to the end.
    cut: bool,
}

/// One replay forked from the committed replay `base` that stores only
/// what it changed there: per cell its address (`None` once released) and
/// whether its request took a fresh one, per address its owner, each
/// stamped with the replay's generation, and the allocator's changes.
struct Delta {
    generation: u32,
    cells: Vec<(u32, Option<RamAddr>, bool)>,
    owners: Vec<(u32, Option<CellId>)>,
    alloc: AllocDelta,
    metrics: Metrics,
}

impl Delta {
    fn new(ir: &IrProgram) -> Self {
        Delta {
            generation: 0,
            cells: vec![(0, None, false); ir.cells.len()],
            owners: Vec::new(),
            alloc: AllocDelta::new(ir.allocator),
            metrics: Metrics::default(),
        }
    }

    /// Forks a replay from `base`, forgetting every change in O(1).
    fn fork(&mut self, base: &Replay) {
        if self.generation == u32::MAX {
            self.cells.fill((0, None, false));
            self.owners.fill((0, None));
            self.generation = 0;
        }
        self.generation += 1;
        self.alloc.fork(&base.alloc);
        self.metrics = base.metrics;
    }

    /// The address of `c`, `None` unless it is live in this replay.
    fn addr(&self, base: &Replay, c: CellId) -> Option<RamAddr> {
        match self.cells[c.index()] {
            (stamp, a, _) if stamp == self.generation => a,
            _ => base.cells[c.index()],
        }
    }

    /// Whether this replay's request of `c` took a fresh address.
    fn took_fresh(&self, c: CellId) -> bool {
        let (stamp, _, fresh) = self.cells[c.index()];
        stamp == self.generation && fresh
    }

    fn owner(&self, base: &Replay, a: usize) -> Option<CellId> {
        match self.owners.get(a) {
            Some(&(stamp, c)) if stamp == self.generation => c,
            _ => base.owner.get(a).copied().flatten(),
        }
    }

    fn set_owner(&mut self, a: RamAddr, c: Option<CellId>) {
        if self.owners.len() <= a.index() {
            self.owners.resize(a.index() + 1, (0, None));
        }
        self.owners[a.index()] = (self.generation, c);
    }

    fn writes(&self, base: &Replay, a: usize) -> u64 {
        self.alloc.writes(&base.alloc, a)
    }

    /// Replays `event`, whose op touches `op`'s cells, as [`Replay::step`]
    /// does; `cells` holds the stream's cells.
    fn step(&mut self, base: &Replay, cells: &[IrCell], event: Event, op: OpCells) {
        match event {
            Event::Request(c) => {
                let fresh = self.alloc.num_allocated();
                let a = self
                    .alloc
                    .request_with_hint(&base.alloc, cells[c.index()].hint);
                let took_fresh = self.alloc.num_allocated() > fresh;
                self.cells[c.index()] = (self.generation, Some(a), took_fresh);
                self.set_owner(a, Some(c));
                if base.table.work_region == WorkRegion::Requested {
                    self.metrics.rams = self.metrics.rams.max(a.0 + 1);
                }
            }
            Event::Release(c) => {
                let a = self.addr(base, c).expect("release before request");
                let fresh = self.took_fresh(c);
                self.cells[c.index()] = (self.generation, None, fresh);
                self.set_owner(a, None);
                self.alloc.release(&base.alloc, a);
            }
            Event::Op(_) => {
                let (a, b, z) = op;
                let addr = |c| self.addr(base, c).expect("an op touches live cells");
                let z = addr(z);
                let mut metrics = self.metrics;
                let (writes, ..) = metrics.op(&base.table, (a, b), z, addr);
                let count = self.alloc.note_writes(&base.alloc, z, writes);
                metrics.wear = metrics.wear.max(count);
                self.metrics = metrics;
            }
        }
    }
}

impl DeltaScorer {
    /// The scorer of `ir` under `table`, and `ir`'s cost.
    pub(crate) fn new(ir: &IrProgram, table: CostTable) -> (Self, Cost) {
        let mut end = Replay::new(ir, table);
        let mut fresh = vec![false; ir.cells.len()];
        let mut released = vec![false; ir.cells.len()];
        for &event in &ir.events {
            let allocated = end.alloc.num_allocated();
            end.step(ir, event, &mut ());
            match event {
                Event::Request(c) => fresh[c.index()] = end.alloc.num_allocated() > allocated,
                Event::Release(c) => released[c.index()] = true,
                Event::Op(_) => {}
            }
        }
        let cost = end.cost();
        let end_writes = end.alloc.write_counts().to_vec();
        let scorer = DeltaScorer {
            table,
            events: ir.events.clone(),
            ops: ir.ops.iter().map(op_cells).collect(),
            merges: vec![None; ir.cells.len()],
            fresh,
            released,
            base: (0, Replay::new(ir, table)),
            tally: Tally::new(&end_writes),
            end_writes,
            end: end.metrics,
            trial: Delta::new(ir),
            committed: Delta::new(ir),
            image: Vec::new(),
            imaged: Vec::new(),
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

    /// Steps the committed replay over committed event `pos`; `cells` holds
    /// the stream's cells.
    fn step_committed(&mut self, cells: &[IrCell], pos: usize) {
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
        self.committed.step(&self.base.1, cells, event, op);
    }

    /// Moves `base` to the committed replay before event `to`, replaying
    /// from event 0 when `to` lies behind it.
    fn advance(&mut self, ir: &IrProgram, to: usize) {
        let (at, replay) = &mut self.base;
        if to < *at {
            *at = 0;
            *replay = Replay::new(ir, self.table);
        }
        replay.run(ir, *at..to, &mut ());
        *at = to;
    }

    /// Whether the cell `merged.0` of the committed replay and the cell
    /// `merged.1` it is read as in the trial's, where both are live, hold
    /// values of the same lifetime class as the pool reads them: every
    /// other live cell pairs with itself.
    fn merged_classes_agree(&self, (x, d): (CellId, CellId)) -> bool {
        let (_, base) = &self.base;
        let merged = self.committed.addr(base, x).zip(self.trial.addr(base, d));
        let (committed, trial) = (&self.committed.alloc, &self.trial.alloc);
        merged.is_none_or(|merged| committed.classes_agree(trial, &base.alloc, merged))
    }

    /// The edited stream's metrics at its end, from a cut where the trial
    /// replay equals the committed one up to a renaming, with `merged.0`
    /// read as `merged.1`; leaves in `priced` the end write counts that
    /// differ from the committed stream's: the sums and the work region
    /// shifted past the cut's, and the committed end counts renamed.
    ///
    /// Only the addresses either replay touched, and the pools' entries
    /// that do not pair with themselves, can move or change their count: a
    /// cell live at the fork and untouched since holds its address in both
    /// replays, and when both served the fork's pool equally far, its
    /// unserved entries pair with themselves. So the renaming and the
    /// counts are built on those addresses only, and every other address
    /// keeps its committed end count, the largest of which `tally` gives.
    /// A committed address a `fresh` pool parked leaves unmapped, one the
    /// trial parked keeps its own count, and the addresses past the
    /// committed fresh counter keep their counts, shifted.
    fn price(&mut self, merged: (CellId, CellId)) -> Metrics {
        let (_, base) = &self.base;
        let (trial, committed) = (&self.trial, &self.committed);
        if self.pricing == u32::MAX {
            self.image.fill((0, 0));
            self.imaged.fill(0);
            self.pricing = 0;
        }
        self.pricing += 1;
        let pricing = self.pricing;
        let mine = committed.alloc.num_allocated();
        let theirs = trial.alloc.num_allocated();
        self.image
            .resize(self.image.len().max(mine as usize), (0, 0));
        self.imaged
            .resize(self.imaged.len().max(theirs as usize), 0);
        let (image, imaged, renamed) = (&mut self.image, &mut self.imaged, &mut self.renamed);
        renamed.clear();
        let mut rename = |b: RamAddr, a: u32| {
            if image[b.index()].0 != pricing {
                image[b.index()] = (pricing, a);
                renamed.push(b.0);
                if a != UNMAPPED {
                    imaged[a as usize] = pricing;
                }
            }
        };
        for &b in committed
            .alloc
            .touched()
            .iter()
            .chain(trial.alloc.touched())
        {
            if let Some(c) = committed.owner(base, b as usize) {
                let c = if c == merged.0 { merged.1 } else { c };
                let a = trial.addr(base, c).expect("a cell live in both replays");
                rename(RamAddr(b), a.0);
            }
        }
        committed
            .alloc
            .pair(&trial.alloc, &base.alloc, false, |b, a| rename(b, a.0));
        for &b in committed.alloc.touched() {
            rename(RamAddr(b), UNMAPPED);
        }
        #[cfg(test)]
        self.check_renaming(merged);
        let (_, base) = &self.base;
        let (trial, committed) = (&self.trial, &self.committed);
        self.priced.clear();
        for &b in &self.renamed {
            let a = self.image[b as usize].1;
            if a != UNMAPPED {
                let gained = self.end_writes[b as usize] - committed.writes(base, b as usize);
                let count = gained + trial.writes(base, a as usize);
                self.priced.push((a, count));
            }
        }
        for &a in trial.alloc.touched() {
            if self.imaged[a as usize] != pricing {
                self.priced.push((a, trial.writes(base, a as usize)));
            }
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
            rams: (end.rams + theirs).saturating_sub(mine).max(cut.rams),
            wear: self
                .priced
                .iter()
                .map(|&(_, count)| count)
                .fold(cut.wear.max(unchanged), u64::max),
        }
    }

    /// Checks the sparse renaming [`DeltaScorer::price`] built against the
    /// whole one: live cells pair by name, pools by position, no two
    /// addresses below the committed fresh counter map onto one, and the
    /// addresses left out map to themselves.
    #[cfg(test)]
    fn check_renaming(&self, merged: (CellId, CellId)) {
        let (_, base) = &self.base;
        let (trial, committed) = (&self.trial, &self.committed);
        let mut whole = vec![UNMAPPED; committed.alloc.num_allocated() as usize];
        for (b, slot) in whole.iter_mut().enumerate() {
            if let Some(c) = committed.owner(base, b) {
                let c = if c == merged.0 { merged.1 } else { c };
                *slot = trial.addr(base, c).expect("a cell live in both replays").0;
            }
        }
        committed
            .alloc
            .pair(&trial.alloc, &base.alloc, true, |b, a| {
                whole[b.index()] = a.0;
            });
        let mut seen = vec![false; trial.alloc.num_allocated() as usize];
        for (b, &a) in whole.iter().enumerate() {
            let sparse = match self.image[b] {
                (stamp, a) if stamp == self.pricing => a,
                _ => b as u32,
            };
            if a == UNMAPPED {
                // A parked cell: unmapped, or untouched and parked alike in
                // both replays.
                assert!(sparse == UNMAPPED || sparse == b as u32, "parked {b}");
                continue;
            }
            assert!(
                !std::mem::replace(&mut seen[a as usize], true),
                "the cut's renaming is one-to-one"
            );
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

impl TrialScorer for DeltaScorer {
    /// Replays the edited stream from `edit.from`. The committed replay's
    /// fresh counter and live count follow from the committed stream's
    /// per-cell flags without replaying it: over the edited span, the
    /// committed stream requests the cells the edited one does plus the
    /// merged-away cell, and it releases one cell more exactly when it
    /// releases either merged cell; past `edit.until` both streams request
    /// and release alike, and whether a request takes a fresh cell follows
    /// from the two counters ([`RramAllocator::takes_fresh`]). At the first
    /// event past `edit.until` where the counters allow a renaming (see
    /// [`DeltaScorer`]), the committed stream is replayed to that event and
    /// the counters are confirmed; once the allocator confirms the renaming,
    /// the cost is [priced](DeltaScorer::price) from the committed end
    /// state. Where the merged cell holds values of different lifetime
    /// classes in the two replays and the pool reads them, there is no
    /// renaming until the trial releases it, and the scorer tests for none
    /// before.
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
            scorer.trial.step(&scorer.base.1, &ir.cells, event, op);
            !matches!(event, Event::Op(_)) || within(scorer.trial.metrics)
        };
        let mut pos = from;
        let mut alive = true;
        let mut committed_fresh =
            self.committed.alloc.num_allocated() + u32::from(self.fresh[x.index()]);
        while alive && pos < shifted(until, shift) {
            if let Event::Request(c) = ir.events[pos] {
                committed_fresh += u32::from(self.fresh[c.index()]);
            }
            alive = step_trial(self, pos);
            pos += 1;
        }
        let mut comparable = self.released[x.index()] || self.released[d.index()];
        let mut committed_pos = from;
        let mut held = false;
        let cut = loop {
            if !alive {
                break false;
            }
            let fresh = self.trial.alloc.num_allocated();
            if comparable
                && !held
                && self.trial.metrics.rams == fresh
                && self.base.1.alloc.may_rename(committed_fresh, fresh)
            {
                // The committed position the trial's `pos` repeats.
                let aligned = shifted(pos, -shift);
                while committed_pos < aligned {
                    self.step_committed(&ir.cells, committed_pos);
                    committed_pos += 1;
                }
                let confirmed = self.committed.alloc.num_live() == self.trial.alloc.num_live()
                    && self.committed.alloc.num_allocated() == committed_fresh;
                debug_assert!(confirmed, "the committed counters at {edit:?}");
                if !confirmed {
                    comparable = false;
                } else if !self.merged_classes_agree((x, d)) {
                    // The pools part when the committed replay releases
                    // the merged cell, as the trial releases `d`; no
                    // renaming exists before.
                    held = true;
                } else if (self.committed.alloc).renames(&self.trial.alloc, &self.base.1.alloc) {
                    break true;
                }
            }
            if pos == ir.events.len() {
                break false;
            }
            match ir.events[pos] {
                Event::Request(_)
                    if (self.base.1.alloc)
                        .takes_fresh(committed_fresh, self.trial.alloc.num_live()) =>
                {
                    committed_fresh += 1;
                }
                Event::Release(c) if c == d => held = false,
                _ => {}
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
            from,
            accepted,
            reconverged_at: cut.then_some(pos),
            replayed: [from..pos, from..committed_pos],
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
        self.accepted = Some(Commit {
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
        let (_, base) = &self.base;
        let trial = &self.trial;
        if commit.cut {
            for &b in &self.renamed {
                self.tally.remove(self.end_writes[b as usize]);
            }
            // Under `fresh`, the addresses past the cut shift by the
            // difference of the fresh counters; every address either
            // replay handed out since the fork is priced.
            let fork = base.alloc.num_allocated() as usize;
            let mine = self.committed.alloc.num_allocated() as usize;
            let theirs = trial.alloc.num_allocated() as usize;
            if mine != theirs {
                let fill = std::iter::repeat_n(0, theirs - fork);
                self.end_writes.splice(fork..mine, fill);
            }
            for &(a, count) in &self.priced {
                self.end_writes[a as usize] = count;
                self.tally.add(count);
            }
        } else {
            self.end_writes = (0..trial.alloc.num_allocated() as usize)
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
impl DeltaScorer {
    /// The committed stream's cost and end write count per address.
    pub(crate) fn committed(&self) -> (Cost, Vec<u64>) {
        (self.end.cost(&self.table), self.end_writes.clone())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::RefCell;
    use std::ops::Range;

    use plim::Rhs;

    use super::{place, DeltaScorer};
    use crate::backend::{CostTable, TrialEdit, TrialScorer};
    use crate::ir::{CellId, Event, IrCell, IrOp, IrOutput, IrProgram, Value};
    use crate::{AllocatorStrategy, LifetimeClass};

    /// One [`DeltaScorer`] trial.
    #[derive(Debug, Clone)]
    pub(crate) struct TrialRecord {
        /// The first position the trial edit changed.
        pub(crate) from: usize,
        /// Whether the trial improved on its bound.
        pub(crate) accepted: bool,
        /// Where the trial finished early because its replay reconverged
        /// with the committed one: the position, in the trial's stream, of
        /// the event it matched at.
        pub(crate) reconverged_at: Option<usize>,
        /// The positions it replayed of the edited stream and of the
        /// committed one.
        pub(crate) replayed: [Range<usize>; 2],
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
        state.run(ir, 0..ir.events.len(), &mut ());
        (state.cost(), state.alloc.write_counts().to_vec())
    }

    /// Under `fifo`, a trial replays nothing before the first event its
    /// edit changed — it forks the committed replay there, and the events
    /// the scorer counts are exactly the spans its trials replayed — and
    /// under every target's cost table some trials reconverge.
    #[test]
    fn fifo_trials_replay_nothing_before_their_edit() {
        use plim_benchmarks::random::{random_logic, RandomLogicSpec};
        take_trials();
        for &backend in crate::backend::backends() {
            let mut counted = 0;
            for seed in 0..3 {
                let mig = random_logic(&RandomLogicSpec::new(8, 4, 400, seed));
                let mut ir = crate::ir::lower(&mig, crate::CompilerOptions::new());
                assert_eq!(ir.allocator, AllocatorStrategy::Fifo);
                counted += crate::ir::passes::forward(&mut ir, backend)
                    .scoring
                    .replayed;
            }
            let trials = take_trials();
            assert!(!trials.is_empty(), "{}: no trials", backend.name());
            for t in &trials {
                assert!(
                    t.replayed.iter().all(|r| r.start == t.from),
                    "{}: {t:?}",
                    backend.name()
                );
            }
            let replayed: usize = trials
                .iter()
                .flat_map(|t| &t.replayed)
                .map(Range::len)
                .sum();
            assert_eq!(replayed as u64, counted, "{}", backend.name());
            assert!(
                trials.iter().any(|t| t.reconverged_at.is_some()),
                "{}: no trial reconverged",
                backend.name()
            );
        }
    }

    /// A program over cells `%0` and `%1` whose stream is `events`, with
    /// op 0 the reset of `%0` and op 1 the reset of `%1`.
    fn program(events: Vec<Event>, allocator: AllocatorStrategy) -> IrProgram {
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
            allocator,
        }
    }

    /// A trial whose replay has the committed one's allocator, owners and
    /// fresh counter — the identity renaming — is still not cut while it
    /// has not touched every cell it allocated: the committed replay wrote
    /// `%1`'s cell before the edit and the trial never does, so the
    /// committed footprint says nothing about the trial's.
    #[test]
    fn a_trial_is_cut_only_once_its_footprint_covers_its_cells() {
        use Event::{Op, Release, Request};
        let (c0, c1) = (CellId(0), CellId(1));
        let tail = std::iter::repeat_n(Op(0), 300);
        let head = [Request(c0), Request(c1), Op(0), Op(1), Release(c1)];
        let edit = TrialEdit {
            from: 3,
            until: 4,
            shift: -1,
            merged: (c1, c1),
        };
        for alloc in AllocatorStrategy::ALL {
            let committed = program(head.into_iter().chain(tail.clone()).collect(), alloc);
            let mut trial = committed.clone();
            trial.events.remove(3);
            let (mut scorer, cost) = DeltaScorer::new(&committed, CostTable::RM3);
            assert_eq!(cost.footprint, 2, "{alloc:?}");
            let got = scorer.trial(&trial, &edit, cost).expect("one write fewer");
            assert_eq!(
                got,
                place(&trial, CostTable::RM3, &mut ()).cost,
                "{alloc:?}"
            );
            assert_eq!(got.footprint, 1, "{alloc:?}");
            let record = take_trials().pop().expect("one trial");
            assert_eq!(record.reconverged_at, None, "{alloc:?}");
        }
    }
}
