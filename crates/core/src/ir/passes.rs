//! The optimizing pass pipeline run between lowering and emission.
//!
//! Passes rewrite the IR event stream under the [`OptLevel`] chosen in
//! [`crate::CompilerOptions`]:
//!
//! * [`DeadWrite`] — removes writes whose value no later instruction (and
//!   no output) observes;
//! * [`RedundantInit`] — removes initializations that re-materialize a
//!   constant already resident in the cell, and identity writes;
//! * [`Forward`] — in-place-overwrite forwarding: when a node's destination
//!   value was materialized into a fresh cell (a constant load or a copy)
//!   even though a cell holding one of the instruction's inputs dies
//!   *physically* unread afterwards, the materialization is deleted and the
//!   instruction retargeted to overwrite the dying cell in place, moving it
//!   past that cell's last read. This harvests slack no scheduler can see:
//!   the lowering's reference counts overestimate lifetimes, because
//!   consumers that read a cached complement never touch the value cell;
//! * [`Peephole`] — same-cell fusion in a local window: an instruction
//!   whose result is fully determined by resident constants is folded into
//!   a plain set/reset, and back-to-back re-initializations collapse.
//!
//! `-O0` runs nothing, `-O1` one round of the linear hygiene passes,
//! `-O2` adds forwarding and iterates the whole sequence to a fixpoint.
//! After every pass that edited the stream the [`PassManager`] re-checks
//! the IR structurally and — in debug/test builds — replays it through the
//! machine-simulator equivalence check against the source MIG, so a broken
//! pass fails loudly at the pass boundary, not in some downstream consumer.

use std::fmt;

use mig::Mig;

use crate::backend::{Backend, Cost};
use crate::options::OptLevel;

use super::{analysis, CellId, Event, IrOutput, IrProgram, Value};

/// An IR-to-IR rewrite.
pub trait Pass {
    /// Stable name, reported in [`PassRun`] records and bench output.
    fn name(&self) -> &'static str;
    /// Rewrites the program, returning the number of edits applied
    /// (removed or rewritten instructions). Passes that trial edits score
    /// them with `backend`'s cost model, so the pipeline optimizes for the
    /// architecture that will actually consume the stream.
    fn run(&self, ir: &mut IrProgram, backend: &dyn Backend) -> usize;
}

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
}

impl fmt::Display for PassReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut effective: Vec<&PassRun> = self.runs.iter().filter(|r| r.edits > 0).collect();
        if effective.is_empty() {
            return write!(f, "no pass fired");
        }
        effective.sort_by_key(|r| r.pass);
        let mut first = true;
        let mut index = 0;
        while index < effective.len() {
            let pass = effective[index].pass;
            let mut removed = 0;
            let mut edits = 0;
            while index < effective.len() && effective[index].pass == pass {
                removed += effective[index].removed();
                edits += effective[index].edits;
                index += 1;
            }
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{pass}: -{removed} #I ({edits} edits)")?;
        }
        Ok(())
    }
}

/// Maximum pipeline rounds at `-O2`; each round must shrink the stream to
/// continue, so this is a backstop, not a tuning knob.
const MAX_ROUNDS: usize = 8;

/// Runs the pipeline an [`OptLevel`] selects, verifying after every pass.
#[derive(Debug)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    rounds: usize,
}

impl fmt::Debug for dyn Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pass({})", self.name())
    }
}

impl PassManager {
    /// The pipeline of an optimization level.
    ///
    /// Within a round, rewrites run before removals and [`DeadWrite`] runs
    /// last, so the feeder initializations a [`Peephole`] fold orphans are
    /// swept in the same round — the `init + op → init` fusion completes
    /// even in `-O1`'s single round.
    pub fn for_level(opt: OptLevel) -> Self {
        let (passes, rounds): (Vec<Box<dyn Pass>>, usize) = match opt {
            OptLevel::O0 => (Vec::new(), 0),
            OptLevel::O1 => (
                vec![
                    Box::new(Peephole),
                    Box::new(RedundantInit),
                    Box::new(DeadWrite),
                ],
                1,
            ),
            OptLevel::O2 => (
                vec![
                    Box::new(Forward),
                    Box::new(Peephole),
                    Box::new(RedundantInit),
                    Box::new(DeadWrite),
                ],
                MAX_ROUNDS,
            ),
        };
        PassManager { passes, rounds }
    }

    /// Runs the pipeline to completion (one round at `-O1`, fixpoint at
    /// `-O2`), returning the per-pass accounting.
    ///
    /// Trial edits are scored under `backend`'s cost model; for the RM3
    /// backend that model is exactly the historical `(#I, #R, max-writes)`
    /// allocator replay, so every gating decision — and every emitted byte
    /// — is unchanged from the pre-trait pipeline.
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
        let mut report = PassReport::default();
        // `-O0`: nothing would read the cost or lint baselines below.
        if self.passes.is_empty() || self.rounds == 0 {
            return report;
        }
        // The current stream's cost, threaded across pass runs: each
        // editing pass pays exactly one scoring (for its after-state), and
        // no-op runs pay none.
        let mut current = backend.cost(ir);
        // Translation validation: the analyzer's structural lint counts at
        // pipeline entry. A pass run that raises any count is reverted
        // wholesale, exactly like a quality-gate rejection — the analyzer
        // is the arbiter, the `check` panic below only a backstop for
        // streams so broken the analyzer itself missed them.
        let structural = analysis::AnalysisConfig::structural();
        let baseline = analysis::lint_counts(&analysis::analyze_events(ir, &structural));
        for _ in 0..self.rounds {
            let mut round_edits = 0;
            for pass in &self.passes {
                let instructions_before = ir.num_instructions();
                let snapshot = ir.clone();
                let mut edits = pass.run(ir, backend);
                if edits > 0 {
                    let after = analysis::lint_counts(&analysis::analyze_events(ir, &structural));
                    if analysis::introduces(&baseline, &after) {
                        *ir = snapshot;
                        report.runs.push(PassRun {
                            pass: pass.name(),
                            instructions_before,
                            instructions_after: instructions_before,
                            edits: 0,
                        });
                        continue;
                    }
                    if let Err(error) = ir.check() {
                        panic!("pass `{}` produced invalid IR: {error}", pass.name());
                    }
                    // Quality guard: a pass may only trade instructions
                    // down, never footprint or endurance up. Allocator
                    // replay makes footprint/wear global properties of the
                    // stream, so an edit that shifts reuse the wrong way is
                    // reverted wholesale rather than shipped.
                    let after_cost = backend.cost(ir);
                    if after_cost.worse_than(current) {
                        *ir = snapshot;
                        edits = 0;
                    } else {
                        current = after_cost;
                        #[cfg(debug_assertions)]
                        if let Err(error) =
                            crate::verify::verify(mig, &super::emit(ir), 1, 0xDAC2016)
                        {
                            panic!(
                                "pass `{}` broke machine-simulator equivalence: {error}",
                                pass.name()
                            );
                        }
                    }
                }
                #[cfg(not(debug_assertions))]
                let _ = mig;
                report.runs.push(PassRun {
                    pass: pass.name(),
                    instructions_before,
                    instructions_after: ir.num_instructions(),
                    edits,
                });
                round_edits += edits;
            }
            if round_edits == 0 {
                break;
            }
        }
        report
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
fn masked_const(op: &super::IrOp) -> Option<bool> {
    match (op.a, op.b) {
        (Value::Const(x), Value::Const(y)) if x != y => Some(x),
        _ => None,
    }
}

/// Dead-write elimination: one backward liveness sweep over virtual cells.
///
/// A write is dead when no later instruction reads the cell — as an
/// operand or as a non-masking destination's old value — before the cell
/// is re-initialized or the program ends, and the cell is not a primary
/// output. Removing a write in the backward sweep also un-marks its own
/// reads, so whole feeder chains fall in a single run.
#[derive(Debug)]
pub struct DeadWrite;

impl Pass for DeadWrite {
    fn name(&self) -> &'static str {
        "dead-write"
    }

    fn run(&self, ir: &mut IrProgram, _backend: &dyn Backend) -> usize {
        let mut needed = vec![false; ir.cells.len()];
        for (_, output) in &ir.outputs {
            if let IrOutput::Cell(c) = output {
                needed[c.index()] = true;
            }
        }
        let mut keep = vec![true; ir.events.len()];
        let mut edits = 0;
        for pos in (0..ir.events.len()).rev() {
            let Some(op) = ir.op_of(ir.events[pos]) else {
                continue;
            };
            if !needed[op.z.index()] {
                keep[pos] = false;
                edits += 1;
                continue;
            }
            needed[op.z.index()] = !op.masking();
            for value in [op.a, op.b] {
                if let Value::Cell(c) = value {
                    needed[c.index()] = true;
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
}

/// Forward known-constant dataflow shared by [`RedundantInit`] and
/// [`Peephole`]: calls `action` for every op event with the op's known
/// result (if determined) and whether the cell already holds exactly that
/// value. `action` returns `true` to *remove* the op event.
fn const_flow(
    ir: &mut IrProgram,
    mut action: impl FnMut(&mut super::IrOp, Option<bool>, bool) -> bool,
) -> usize {
    let mut known: Vec<Option<bool>> = vec![None; ir.cells.len()];
    let mut defined = vec![false; ir.cells.len()];
    let mut keep = vec![true; ir.events.len()];
    let mut edits = 0;
    // Indexed loop: the body mutates `ir.ops` through the same borrow the
    // events live under, so an iterator over `ir.events` cannot be held.
    #[allow(clippy::needless_range_loop)]
    for pos in 0..ir.events.len() {
        match ir.events[pos] {
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
                let op = &mut ir.ops[i as usize];
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

/// Redundant-initialization removal.
///
/// Tracks which constant each cell provably holds and removes ops that
/// re-materialize exactly that value — a reset of a cell already holding 0,
/// a constant-foldable RM3 whose result equals the resident value, or an
/// identity `⟨x x̄ z⟩` write.
#[derive(Debug)]
pub struct RedundantInit;

impl Pass for RedundantInit {
    fn name(&self) -> &'static str {
        "redundant-init"
    }

    fn run(&self, ir: &mut IrProgram, _backend: &dyn Backend) -> usize {
        const_flow(ir, |_op, _result, resident| resident)
    }
}

/// Same-cell peephole fusion.
///
/// Folds a non-masking op whose result is fully determined by resident
/// constants into the plain set/reset idiom. That removes its reads — in
/// particular the destination's old value — which typically leaves the
/// feeding initialization dead for the next [`DeadWrite`] run: the
/// classic `init + op` → `init` fusion of adjacent same-cell ops, done via
/// dataflow so intervening unrelated instructions don't hide the pair.
#[derive(Debug)]
pub struct Peephole;

impl Pass for Peephole {
    fn name(&self) -> &'static str {
        "peephole"
    }

    fn run(&self, ir: &mut IrProgram, _backend: &dyn Backend) -> usize {
        let mut edits = 0;
        const_flow(ir, |op, result, resident| {
            if resident {
                return false; // RedundantInit's case; don't double-handle
            }
            if let Some(v) = result {
                if !op.masking() {
                    op.a = Value::Const(v);
                    op.b = Value::Const(!v);
                    edits += 1;
                }
            }
            false
        });
        edits
    }
}

/// In-place-overwrite forwarding (the `-O2` workhorse).
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
#[derive(Debug)]
pub struct Forward;

impl Pass for Forward {
    fn name(&self) -> &'static str {
        "forward"
    }

    fn run(&self, ir: &mut IrProgram, backend: &dyn Backend) -> usize {
        let mut edits = 0;
        // Edits rejected by the quality gate stay rejected: without the
        // memo every restart would re-trial (and re-score) them, turning
        // the pass quadratic on large circuits.
        let mut rejected: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        let mut baseline = backend.cost(ir);
        while forward_one(ir, backend, &mut rejected, &mut baseline) {
            edits += 1;
        }
        if edits > 0 {
            gc_cells(ir);
        }
        edits
    }
}

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
    /// Any later write disqualifies the cell — including a *masking* one:
    /// lowering never re-initializes a virtual cell mid-lifetime, but a
    /// Peephole fold can turn an interior op into a set/reset, and claiming
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

/// Upper bound on instructions dragged along with a forwarded one; a
/// compile-time guard, since the block is rebuilt per edit.
const MOVE_CAP: usize = 16;

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
        let in_block = p == pos || moved.contains(&p) || relocated.iter().any(|&(_, q)| q == p);
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
