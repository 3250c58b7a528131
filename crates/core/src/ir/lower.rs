//! Lowering: MIG → IR (scheduling + node translation, §4.2 of the paper).
//!
//! This phase owns the scheduling (§4.2.1) and the smart per-node operand
//! selection of §4.2.2 with its complement cache, and records the result
//! as an [`IrProgram`]: every request mints a fresh virtual cell, every
//! instruction becomes an [`IrOp`] over virtual cells, and the interleaved
//! request/op/release stream is kept verbatim. No physical address exists
//! here: RRAM allocation (§4.2.3) happens once, when emission replays the
//! stream through the configured allocator.
//!
//! Each majority node `⟨c₀ c₁ c₂⟩` is translated into at least one RM3
//! instruction `Z ← ⟨A B̄ Z⟩`:
//!
//! * operand **B** is read inverted by the hardware, so a complemented child
//!   edge is "free" there;
//! * destination **Z** must already hold the third child's value and is
//!   overwritten, so reusing a child RRAM is only safe when nobody else
//!   still needs it;
//! * operand **A** is read plain.
//!
//! Children that do not fit their slot cost extra instructions (constant
//! loads, copies, complement materializations) and possibly extra RRAMs.
//! The smart selection implements the case analyses of Fig. 5 (operand B,
//! cases a–h), Fig. 6 (destination Z, cases a–e) and §4.2.2 (operand A,
//! cases a–d), including the *complement cache*: once a child's inverted
//! value has been materialized in an RRAM, it is remembered for future use.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mig::{Mig, MigNode, NodeId, Signal};
use plim::Rhs;

use crate::lifetime::{LifetimeClass, Lifetimes};
use crate::options::{CompilerOptions, OperandSelection, ScheduleOrder};

use super::{CellId, Event, IrCell, IrOp, IrOutput, IrProgram, Value};

/// How many heap-best candidates the lookahead schedule examines per step.
/// Small enough to keep scheduling near-linear, large enough to let the
/// net-release score overrule the static heap key.
const LOOKAHEAD_WINDOW: usize = 8;

/// Lowers an MIG into the PLiM IR under the given options (the
/// [`crate::OptLevel`] is ignored here — it selects the passes that run
/// *after* lowering).
///
/// Dangling nodes (unreachable from every primary output) are not
/// translated: a node is reachable exactly when [`Lifetimes`] gave it a
/// post-order position.
///
/// The default [`ScheduleOrder::Priority`] is Algorithm 2's candidate
/// selection (§4.2.1) realized as a walk over the majority nodes in
/// [`Lifetimes::order`]. That walk is exactly what a candidate heap keyed
/// by (dynamic releasing-children count, post-order position, parent
/// level, enqueue recency, node index) with a lazy refresh of the count
/// would pop:
///
/// * post-order positions are unique, so the components after it never
///   break a tie;
/// * let `k` be the next majority node in post-order; all its children
///   come earlier, so `k` is ready. Any other ready candidate `m` with a
///   static releasing count above 0 has a majority child `c` referenced
///   only by `m`, so the search emitted `c` inside `m`'s open frame. Every
///   node that frame emits after `c` precedes one of `m`'s children, which
///   are all done, so `m` is the next node the frame emits: `m = k`;
/// * so every other ready candidate has a stored count of 0 and a later
///   position. It never reaches the top ahead of `k`, and the refresh,
///   which only touches the popped top, never raises it.
///
/// This holds for any child visiting order in [`Lifetimes::compute`].
pub fn lower(mig: &Mig, options: CompilerOptions) -> IrProgram {
    let lifetimes = Lifetimes::compute(mig);
    let mut translator = Translator::new(mig, options, &lifetimes);
    match options.schedule {
        ScheduleOrder::Index => {
            for id in mig.majority_ids() {
                if lifetimes.postorder(id) != u32::MAX {
                    translator.translate_node(id);
                }
            }
        }
        ScheduleOrder::Priority => {
            for &id in lifetimes.order() {
                if mig.node(id).is_majority() {
                    translator.translate_node(id);
                }
            }
        }
        ScheduleOrder::Lookahead => run_lookahead_schedule(mig, &lifetimes, &mut translator),
    }
    translator.finalize()
}

/// The lifetime-driven lookahead schedule: a heap of ready candidates keyed
/// by (static releasing-children count, earliest post-order position); each
/// step examines a window of heap-best candidates and picks the one with
/// the best *net* RRAM effect right now — cells actually freed by
/// translating it (value cells and cached complements of dying children),
/// minus a cell when no child can be overwritten in place — breaking ties
/// toward the candidate that unlocks the biggest release one step later,
/// then toward the heap order.
fn run_lookahead_schedule(mig: &Mig, lifetimes: &Lifetimes, translator: &mut Translator<'_>) {
    let references = lifetimes.references();
    let fanouts = mig.fanouts();
    let is_majority = |n: NodeId| mig.node(n).is_majority();
    // Releasing children (§4.2.1): majority children with a single
    // reference.
    let releasing: Vec<u32> = mig
        .node_ids()
        .map(|id| match mig.node(id) {
            MigNode::Majority(children) => children
                .iter()
                .filter(|c| is_majority(c.node()) && references[c.node().index()] == 1)
                .count() as u32,
            _ => 0,
        })
        .collect();
    let key = |id: NodeId| (releasing[id.index()], Reverse(lifetimes.postorder(id)));

    let mut heap = BinaryHeap::new();
    let mut uncomputed_children = vec![0u32; mig.len()];
    for &id in lifetimes.order() {
        if let MigNode::Majority(children) = mig.node(id) {
            let pending = children.iter().filter(|c| is_majority(c.node())).count() as u32;
            uncomputed_children[id.index()] = pending;
            if pending == 0 {
                heap.push(key(id));
            }
        }
    }

    let mut drawn = Vec::with_capacity(LOOKAHEAD_WINDOW);
    loop {
        drawn.extend(std::iter::from_fn(|| heap.pop()).take(LOOKAHEAD_WINDOW));
        let mut best: Option<(i64, usize)> = None;
        for (index, &(_, Reverse(position))) in drawn.iter().enumerate() {
            let id = lifetimes.order()[position as usize];
            let freed = translator.released_cells_now(id);
            let allocates = i64::from(!translator.has_in_place_destination(id));
            // One step later: the best static release among parents this
            // translation would make computable.
            let unlocked = fanouts[id.index()]
                .iter()
                .filter(|p| uncomputed_children[p.index()] == 1)
                .map(|p| i64::from(releasing[p.index()]))
                .max()
                .unwrap_or(0);
            // The immediate net effect dominates; the unlocked release only
            // breaks ties (it is at most 3). Strictly-greater keeps the heap
            // order as the last tiebreak: `drawn` is best-first.
            let score = 8 * (freed - allocates) + unlocked;
            if best.is_none_or(|(top, _)| score > top) {
                best = Some((score, index));
            }
        }
        let Some((_, index)) = best else {
            break;
        };
        let (_, Reverse(position)) = drawn.swap_remove(index);
        heap.extend(drawn.drain(..));
        let id = lifetimes.order()[position as usize];
        translator.translate_node(id);
        for &parent in &fanouts[id.index()] {
            if lifetimes.postorder(parent) == u32::MAX {
                continue;
            }
            let pending = &mut uncomputed_children[parent.index()];
            debug_assert!(*pending > 0, "parent counted twice");
            *pending -= 1;
            if *pending == 0 {
                heap.push(key(parent));
            }
        }
    }
}

/// Incremental translation state shared by the naive and smart lowerings.
#[derive(Debug)]
struct Translator<'a> {
    mig: &'a Mig,
    opts: CompilerOptions,
    /// Lifetime analysis shared with the scheduler; supplies the
    /// allocation hints of the lifetime-aware strategies.
    lifetimes: &'a Lifetimes,
    /// What reads each node's value: the constant 0, its primary input,
    /// or the work cell it was computed into (indexed by node).
    loc: Vec<Option<Value>>,
    /// Cell holding the *complement* of each node's value, if materialized.
    compl: Vec<Option<CellId>>,
    /// References (edges from reachable parents + primary outputs) not yet
    /// consumed.
    remaining: Vec<u32>,
    /// The IR under construction.
    ops: Vec<IrOp>,
    cells: Vec<IrCell>,
    events: Vec<Event>,
    /// Majority nodes translated so far (`#N`).
    translated: usize,
}

impl<'a> Translator<'a> {
    fn new(mig: &'a Mig, opts: CompilerOptions, lifetimes: &'a Lifetimes) -> Self {
        let mut loc = vec![None; mig.len()];
        loc[NodeId::CONSTANT.index()] = Some(Value::Const(false));
        for (index, &id) in mig.inputs().iter().enumerate() {
            loc[id.index()] = Some(Value::Input(index as u32));
        }
        Translator {
            mig,
            opts,
            lifetimes,
            loc,
            compl: vec![None; mig.len()],
            remaining: lifetimes.references().to_vec(),
            ops: Vec::new(),
            cells: Vec::new(),
            events: Vec::new(),
            translated: 0,
        }
    }

    /// The operand that reads a node's (plain) value.
    ///
    /// # Panics
    ///
    /// Panics if the node has not been computed — a scheduling bug.
    fn read_operand(&self, node: NodeId) -> Value {
        self.loc[node.index()].expect("operand read before computation")
    }

    /// A signal's name in listing comments.
    fn describe(&self, signal: Signal) -> Rhs {
        let complemented = signal.is_complemented();
        match self.mig.node(signal.node()) {
            MigNode::Constant => Rhs::Const(complemented),
            MigNode::Input(i) => Rhs::Input(*i, complemented),
            MigNode::Majority(_) => Rhs::Node(signal.node().index() as u32, complemented),
        }
    }

    /// Appends the op `z ← ⟨a b̄ z⟩` to the stream. `rhs` is the listing
    /// comment's right-hand side, `node` the op's source-MIG provenance.
    fn push_op(&mut self, a: Value, b: Value, z: CellId, rhs: Rhs, node: Option<NodeId>) {
        let index = self.ops.len() as u32;
        self.ops.push(IrOp { a, b, z, rhs, node });
        self.events.push(Event::Op(index));
    }

    /// The expected-lifetime class of a node's value (allocation hint).
    fn class_of(&self, node: NodeId) -> LifetimeClass {
        self.lifetimes.class(node)
    }

    /// Mints a virtual cell and begins its lifetime; emission assigns it a
    /// physical address.
    fn request(&mut self, hint: LifetimeClass) -> CellId {
        let cell = CellId(self.cells.len() as u32);
        self.cells.push(IrCell { hint });
        self.events.push(Event::Request(cell));
        cell
    }

    /// Allocates a cell initialized to a constant (1 instruction). `hint`
    /// describes the lifetime of the value the cell will ultimately hold —
    /// that of the consuming node `node`.
    fn fresh_const(&mut self, value: bool, hint: LifetimeClass, node: NodeId) -> CellId {
        let cell = self.request(hint);
        let (a, b) = (Value::Const(value), Value::Const(!value));
        self.push_op(a, b, cell, Rhs::Const(value), Some(node));
        cell
    }

    /// Allocates a cell loaded with the *complement* of a node's value
    /// (2 instructions: reset, then `⟨1 v̄ 0⟩ = v̄`). When `cache` is set the
    /// cell is remembered as the node's complement for future use. `hint`
    /// describes the lifetime of the value the cell will ultimately hold —
    /// the complemented child's when the cell serves as an operand, the
    /// consuming node's when it serves as the destination.
    fn fresh_complement_of(&mut self, node: NodeId, cache: bool, hint: LifetimeClass) -> CellId {
        let cell = self.fresh_const(false, hint, node);
        let src = self.read_operand(node);
        let name = self.describe(Signal::new(node, true));
        self.push_op(Value::Const(true), src, cell, name, Some(node));
        if cache {
            self.compl[node.index()] = Some(cell);
        }
        cell
    }

    /// Allocates a cell loaded with a *copy* of a node's value
    /// (2 instructions: set, then `⟨v 0 1⟩ = v`). `hint` describes the
    /// lifetime of the value the cell will ultimately hold.
    fn fresh_copy_of(&mut self, node: NodeId, hint: LifetimeClass) -> CellId {
        let cell = self.fresh_const(true, hint, node);
        let src = self.read_operand(node);
        let name = self.describe(Signal::new(node, false));
        self.push_op(src, Value::Const(true), cell, name, Some(node));
        cell
    }

    /// Whether a child edge is a complemented edge to a non-constant node.
    fn is_complemented_child(&self, s: Signal) -> bool {
        !s.is_constant() && s.is_complemented()
    }

    /// References to this child's node not yet consumed (including the one
    /// being translated).
    fn remaining_of(&self, s: Signal) -> u32 {
        self.remaining[s.node().index()]
    }

    /// Whether the child's cell may be overwritten: it is an internal node
    /// held in a work cell and this is its last use.
    fn overwritable(&self, s: Signal) -> bool {
        self.remaining_of(s) == 1 && matches!(self.loc[s.node().index()], Some(Value::Cell(_)))
    }

    /// Number of cells that would actually be released if this node were
    /// translated next: for every distinct child whose remaining references
    /// are all consumed by this node, its value cell (if it has one) plus
    /// its cached complement cell. It counts *cells*, not children, so it
    /// is the quantity the lookahead scheduler optimizes.
    fn released_cells_now(&self, id: NodeId) -> i64 {
        let Some(children) = self.mig.node(id).children() else {
            return 0;
        };
        let mut total = 0i64;
        for (index, child) in children.iter().enumerate() {
            let node = child.node();
            if children[..index].iter().any(|c| c.node() == node) {
                continue; // count each distinct child node once
            }
            let occurrences = children.iter().filter(|c| c.node() == node).count() as u32;
            if self.remaining_of(*child) != occurrences {
                continue; // survives this node
            }
            if matches!(self.loc[node.index()], Some(Value::Cell(_))) {
                total += 1;
            }
            if self.compl[node.index()].is_some() {
                total += 1;
            }
        }
        total
    }

    /// Whether translating this node now can overwrite one of its children's
    /// cells as the destination `Z` (no new allocation), mirroring the
    /// destination cases (a) and (b) of the smart selection. When `false`,
    /// translating the node costs at least one fresh-or-reused cell.
    fn has_in_place_destination(&self, id: NodeId) -> bool {
        let Some(children) = self.mig.node(id).children() else {
            return false;
        };
        children.iter().any(|c| {
            (self.is_complemented_child(*c)
                && self.remaining_of(*c) == 1
                && self.compl[c.node().index()].is_some())
                || (!c.is_complemented() && self.overwritable(*c))
        })
    }

    /// Translates one majority node into RM3 instructions.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a majority node or a child is uncomputed.
    fn translate_node(&mut self, id: NodeId) {
        let children = *self
            .mig
            .node(id)
            .children()
            .expect("only majority nodes are translated");
        match self.opts.operands {
            OperandSelection::ChildOrder => self.translate_child_order(id, children),
            OperandSelection::Smart => self.translate_smart(id, children),
        }
        for child in children {
            self.consume_reference(child.node());
        }
        self.translated += 1;
    }

    /// Decrements a node's pending reference count and releases its cells
    /// when it is no longer needed.
    fn consume_reference(&mut self, node: NodeId) {
        let remaining = &mut self.remaining[node.index()];
        debug_assert!(*remaining > 0, "reference count underflow");
        *remaining -= 1;
        if *remaining == 0 {
            // Constants and inputs have nothing to release.
            if let Some(Value::Cell(cell)) = self.loc[node.index()] {
                self.loc[node.index()] = None;
                self.events.push(Event::Release(cell));
            }
            if let Some(cell) = self.compl[node.index()].take() {
                self.events.push(Event::Release(cell));
            }
        }
    }

    /// Naive fixed-slot translation (§3): first child → A, second → B,
    /// third → Z, no complement caching.
    fn translate_child_order(&mut self, id: NodeId, children: [Signal; 3]) {
        let [c0, c1, c2] = children;

        // The B operand: the hardware inverts it, so a complemented child fits
        // directly; otherwise its complement must be materialized.
        let b = if let Some(value) = c1.constant_value() {
            Value::Const(!value)
        } else if c1.is_complemented() {
            self.read_operand(c1.node())
        } else {
            let hint = self.class_of(c1.node());
            Value::Cell(self.fresh_complement_of(c1.node(), false, hint))
        };

        // Destination Z must hold the third child's value; its cell ends up
        // holding this node's result, hence the `id` lifetime hint.
        let z_hint = self.class_of(id);
        let z = if let Some(value) = c2.constant_value() {
            self.fresh_const(value, z_hint, id)
        } else if !c2.is_complemented() && self.overwritable(c2) {
            match self.loc[c2.node().index()].take() {
                Some(Value::Cell(cell)) => cell,
                _ => unreachable!("overwritable implies a cell location"),
            }
        } else if c2.is_complemented() {
            self.fresh_complement_of(c2.node(), false, z_hint)
        } else {
            self.fresh_copy_of(c2.node(), z_hint)
        };

        // The A operand is read plain.
        let a = if let Some(value) = c0.constant_value() {
            Value::Const(value)
        } else if !c0.is_complemented() {
            self.read_operand(c0.node())
        } else {
            let hint = self.class_of(c0.node());
            Value::Cell(self.fresh_complement_of(c0.node(), false, hint))
        };

        self.finish_node(id, a, b, z);
    }

    /// Smart translation implementing the case analyses of §4.2.2.
    fn translate_smart(&mut self, id: NodeId, children: [Signal; 3]) {
        let (b, b_index) = self.select_operand_b(&children);
        let rest = match b_index {
            0 => [1, 2],
            1 => [0, 2],
            _ => [0, 1],
        };
        let (z, z_index) = self.select_destination_z(id, &children, rest);
        let a_index = if rest[0] == z_index { rest[1] } else { rest[0] };
        let a = self.select_operand_a(children[a_index]);
        self.finish_node(id, a, b, z);
    }

    /// Selection of operand B, Fig. 5 cases (a)–(h). Returns the operand and
    /// the index of the child it covers.
    fn select_operand_b(&mut self, children: &[Signal; 3]) -> (Value, usize) {
        let mut indices = [0usize; 3];
        let mut count = 0;
        for (k, &child) in children.iter().enumerate() {
            if self.is_complemented_child(child) {
                indices[count] = k;
                count += 1;
            }
        }
        let complemented = &indices[..count];
        let constant = (0..3).find(|&k| children[k].is_constant());

        match complemented.len() {
            // (a) exactly one complemented child: its RRAM/input feeds B.
            1 => {
                let k = complemented[0];
                (self.read_operand(children[k].node()), k)
            }
            // More than one complemented child.
            n if n >= 2 => {
                // (b) with a constant child present, any non-constant
                // complemented child works; like (d), prefer one with
                // multiple fanout since it cannot serve as destination.
                // (d)/(e) without a constant child: same preference.
                let k = complemented
                    .iter()
                    .copied()
                    .find(|&k| self.remaining_of(children[k]) > 1)
                    .unwrap_or(complemented[0]);
                (self.read_operand(children[k].node()), k)
            }
            // No complemented child.
            _ => {
                if let Some(k) = constant {
                    // (c) B takes the inverse of the constant.
                    let value = children[k].constant_value().expect("constant child");
                    (Value::Const(!value), k)
                } else if let Some(k) =
                    (0..3).find(|&k| self.compl[children[k].node().index()].is_some())
                {
                    // (f) a complement of this child is already materialized.
                    let cell = self.compl[children[k].node().index()].expect("checked");
                    (Value::Cell(cell), k)
                } else {
                    // (g) prefer a multiple-fanout child (it is excluded from
                    // serving as destination anyway); (h) otherwise the first.
                    let k = (0..3)
                        .find(|&k| self.remaining_of(children[k]) > 1)
                        .unwrap_or(0);
                    let hint = self.class_of(children[k].node());
                    let cell = self.fresh_complement_of(children[k].node(), true, hint);
                    (Value::Cell(cell), k)
                }
            }
        }
    }

    /// Destination-Z selection, Fig. 6 cases (a)–(e), over the two children
    /// not consumed by operand B. Returns the destination cell and the index
    /// of the child it covers. `id` is the node being translated — the
    /// destination cell ends up holding its result, so fresh allocations
    /// here carry its lifetime hint.
    fn select_destination_z(
        &mut self,
        id: NodeId,
        children: &[Signal; 3],
        rest: [usize; 2],
    ) -> (CellId, usize) {
        // (a) complemented last-use child whose complement is materialized:
        // that RRAM already holds the edge's value and is safe to overwrite.
        for &k in &rest {
            let c = children[k];
            if self.is_complemented_child(c)
                && self.remaining_of(c) == 1
                && self.compl[c.node().index()].is_some()
            {
                let cell = self.compl[c.node().index()].take().expect("checked");
                return (cell, k);
            }
        }
        // (b) plain last-use child held in a work RRAM: overwrite in place.
        for &k in &rest {
            let c = children[k];
            if !c.is_complemented() && self.overwritable(c) {
                match self.loc[c.node().index()].take() {
                    Some(Value::Cell(cell)) => return (cell, k),
                    _ => unreachable!("overwritable implies a cell location"),
                }
            }
        }
        let hint = self.class_of(id);
        // (c) constant child: allocate and initialize (1 instruction).
        for &k in &rest {
            if let Some(value) = children[k].constant_value() {
                return (self.fresh_const(value, hint, id), k);
            }
        }
        // (d) complemented child: materialize its complement (2 instructions).
        for &k in &rest {
            let c = children[k];
            if self.is_complemented_child(c) {
                return (self.fresh_complement_of(c.node(), false, hint), k);
            }
        }
        // (e) plain child with other uses (or a primary input): copy it.
        let k = rest[0];
        (self.fresh_copy_of(children[k].node(), hint), k)
    }

    /// Selection of operand A, §4.2.2 cases (a)–(d), for the remaining child.
    fn select_operand_a(&mut self, child: Signal) -> Value {
        if let Some(value) = child.constant_value() {
            // (a) constant, complement folded into the value.
            Value::Const(value)
        } else if !child.is_complemented() {
            // (b) plain child: read its RRAM or input directly.
            self.read_operand(child.node())
        } else if let Some(cell) = self.compl[child.node().index()] {
            // (c) complement already materialized.
            Value::Cell(cell)
        } else {
            // (d) materialize (and cache) the complement.
            let hint = self.class_of(child.node());
            Value::Cell(self.fresh_complement_of(child.node(), true, hint))
        }
    }

    /// Emits the node's main RM3 instruction and records its location.
    fn finish_node(&mut self, id: NodeId, a: Value, b: Value, z: CellId) {
        self.push_op(a, b, z, Rhs::Node(id.index() as u32, false), Some(id));
        self.loc[id.index()] = Some(Value::Cell(z));
    }

    /// Resolves primary outputs, materializing complemented internal results
    /// so that every output is readable from the array, and finishes the
    /// IR program.
    fn finalize(mut self) -> IrProgram {
        let outputs: Vec<(String, Signal)> = self
            .mig
            .outputs()
            .iter()
            .map(|(n, s)| (n.clone(), *s))
            .collect();
        let mut ir_outputs = Vec::with_capacity(outputs.len());
        for (name, signal) in outputs {
            let node = signal.node();
            let loc = match self.mig.node(node) {
                MigNode::Constant => IrOutput::Const(signal.is_complemented()),
                MigNode::Input(i) => IrOutput::Input {
                    index: *i,
                    complemented: signal.is_complemented(),
                },
                MigNode::Majority(_) => {
                    if signal.is_complemented() {
                        let cell = match self.compl[node.index()] {
                            Some(cell) => cell,
                            // Output cells stay live to the end of the run.
                            None => self.fresh_complement_of(node, true, LifetimeClass::Long),
                        };
                        IrOutput::Cell(cell)
                    } else {
                        match self.loc[node.index()] {
                            Some(Value::Cell(cell)) => IrOutput::Cell(cell),
                            _ => panic!("primary output `{name}` was never computed"),
                        }
                    }
                }
            };
            ir_outputs.push((name, loc));
        }
        IrProgram {
            num_inputs: self.mig.num_inputs(),
            ops: self.ops,
            cells: self.cells,
            events: self.events,
            outputs: ir_outputs,
            mig_nodes: self.translated,
            allocator: self.opts.allocator,
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use mig::rewrite::rewrite;
    use plim_benchmarks::random::{random_arithmetic, random_logic, RandomLogicSpec};

    use super::*;
    use crate::AllocatorStrategy;

    /// The candidate heaps the post-order walk and the inline lookahead
    /// heap replaced, kept as the differential reference: Algorithm 2's
    /// priority queue keyed by (releasing-children count, post-order
    /// position, parent level, enqueue recency, node index) with a lazy
    /// refresh of the count from live reference counts, and the lookahead
    /// window over the same five-part key with static counts.
    mod reference {
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        use mig::{Mig, MigNode, NodeId};

        use super::super::{Translator, LOOKAHEAD_WINDOW};
        use crate::ir::IrProgram;
        use crate::lifetime::Lifetimes;
        use crate::options::{CompilerOptions, ScheduleOrder};

        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        struct Candidate {
            postorder: u32,
            releasing_children: u32,
            max_parent_level: u32,
            seq: u64,
            id: NodeId,
        }

        impl Ord for Candidate {
            fn cmp(&self, other: &Self) -> Ordering {
                // BinaryHeap is a max-heap: invert the ascending components.
                self.releasing_children
                    .cmp(&other.releasing_children)
                    .then_with(|| other.postorder.cmp(&self.postorder))
                    .then_with(|| other.max_parent_level.cmp(&self.max_parent_level))
                    .then_with(|| self.seq.cmp(&other.seq))
                    .then_with(|| other.id.cmp(&self.id))
            }
        }

        impl PartialOrd for Candidate {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        struct Priorities {
            postorder: Vec<u32>,
            releasing: Vec<u32>,
            max_parent_level: Vec<u32>,
        }

        impl Priorities {
            fn new(mig: &Mig, lifetimes: &Lifetimes) -> Self {
                let references = lifetimes.references();
                let levels = mig.levels();
                let mut releasing = vec![0u32; mig.len()];
                let mut max_parent_level = vec![u32::MAX; mig.len()];
                for id in mig.node_ids() {
                    if let MigNode::Majority(children) = mig.node(id) {
                        let mut count = 0;
                        for child in children {
                            let n = child.node();
                            if mig.node(n).is_majority() && references[n.index()] == 1 {
                                count += 1;
                            }
                            let entry = &mut max_parent_level[n.index()];
                            let level = levels[id.index()];
                            if *entry == u32::MAX || level > *entry {
                                *entry = level;
                            }
                        }
                        releasing[id.index()] = count;
                    }
                }
                let postorder = mig.node_ids().map(|id| lifetimes.postorder(id)).collect();
                Priorities {
                    postorder,
                    releasing,
                    max_parent_level,
                }
            }

            fn candidate(&self, id: NodeId) -> Candidate {
                Candidate {
                    postorder: self.postorder[id.index()],
                    releasing_children: self.releasing[id.index()],
                    max_parent_level: self.max_parent_level[id.index()],
                    seq: 0,
                    id,
                }
            }
        }

        #[derive(Default)]
        struct Queue {
            heap: BinaryHeap<Candidate>,
            next_seq: u64,
        }

        impl Queue {
            fn enqueue(&mut self, mut candidate: Candidate) {
                candidate.seq = self.next_seq;
                self.next_seq += 1;
                self.heap.push(candidate);
            }

            fn pop_scored(
                &mut self,
                window: usize,
                mut score: impl FnMut(&Candidate) -> i64,
            ) -> Option<Candidate> {
                let mut drawn: Vec<Candidate> = Vec::new();
                while drawn.len() < window {
                    match self.heap.pop() {
                        Some(candidate) => drawn.push(candidate),
                        None => break,
                    }
                }
                if drawn.is_empty() {
                    return None;
                }
                let mut best = 0;
                let mut best_score = score(&drawn[0]);
                for (index, candidate) in drawn.iter().enumerate().skip(1) {
                    let s = score(candidate);
                    if s > best_score {
                        best = index;
                        best_score = s;
                    }
                }
                let winner = drawn.swap_remove(best);
                self.heap.extend(drawn);
                Some(winner)
            }
        }

        /// The dynamic releasing-children count: majority children with
        /// exactly one remaining reference.
        fn releasing_now(translator: &Translator<'_>, id: NodeId) -> u32 {
            let mig = translator.mig;
            let children = mig.node(id).children().expect("a majority node");
            children
                .iter()
                .filter(|c| mig.node(c.node()).is_majority() && translator.remaining_of(**c) == 1)
                .count() as u32
        }

        fn seed_candidates(
            mig: &Mig,
            priorities: &Priorities,
            reachable: &[bool],
            queue: &mut Queue,
        ) -> Vec<u32> {
            let mut uncomputed_children = vec![0u32; mig.len()];
            for id in mig.node_ids() {
                if !reachable[id.index()] {
                    continue;
                }
                if let MigNode::Majority(children) = mig.node(id) {
                    let pending = children
                        .iter()
                        .filter(|c| mig.node(c.node()).is_majority())
                        .count() as u32;
                    uncomputed_children[id.index()] = pending;
                    if pending == 0 {
                        queue.enqueue(priorities.candidate(id));
                    }
                }
            }
            uncomputed_children
        }

        /// Marks `id` computed, enqueueing parents that become ready.
        fn computed(
            id: NodeId,
            fanouts: &[Vec<NodeId>],
            reachable: &[bool],
            priorities: &Priorities,
            uncomputed_children: &mut [u32],
            queue: &mut Queue,
        ) {
            for &parent in &fanouts[id.index()] {
                if !reachable[parent.index()] {
                    continue;
                }
                let pending = &mut uncomputed_children[parent.index()];
                *pending -= 1;
                if *pending == 0 {
                    queue.enqueue(priorities.candidate(parent));
                }
            }
        }

        pub(super) fn lower(mig: &Mig, options: CompilerOptions) -> IrProgram {
            let reachable = mig.reachable_mask();
            let lifetimes = Lifetimes::compute(mig);
            let mut translator = Translator::new(mig, options, &lifetimes);
            let priorities = Priorities::new(mig, &lifetimes);
            let fanouts = mig.fanouts();
            let mut queue = Queue::default();
            let mut uncomputed = seed_candidates(mig, &priorities, &reachable, &mut queue);

            match options.schedule {
                ScheduleOrder::Index => {
                    for id in mig.majority_ids() {
                        if reachable[id.index()] {
                            translator.translate_node(id);
                        }
                    }
                }
                ScheduleOrder::Priority => {
                    while let Some(mut candidate) = queue.heap.pop() {
                        let current = releasing_now(&translator, candidate.id);
                        if current > candidate.releasing_children {
                            candidate.releasing_children = current;
                            queue.heap.push(candidate);
                            continue;
                        }
                        translator.translate_node(candidate.id);
                        computed(
                            candidate.id,
                            &fanouts,
                            &reachable,
                            &priorities,
                            &mut uncomputed,
                            &mut queue,
                        );
                    }
                }
                ScheduleOrder::Lookahead => loop {
                    let popped = queue.pop_scored(LOOKAHEAD_WINDOW, |candidate| {
                        let freed = translator.released_cells_now(candidate.id);
                        let allocates =
                            i64::from(!translator.has_in_place_destination(candidate.id));
                        let unlocked = fanouts[candidate.id.index()]
                            .iter()
                            .filter(|p| reachable[p.index()] && uncomputed[p.index()] == 1)
                            .map(|p| i64::from(priorities.releasing[p.index()]))
                            .max()
                            .unwrap_or(0);
                        8 * (freed - allocates) + unlocked
                    });
                    let Some(candidate) = popped else {
                        break;
                    };
                    translator.translate_node(candidate.id);
                    computed(
                        candidate.id,
                        &fanouts,
                        &reachable,
                        &priorities,
                        &mut uncomputed,
                        &mut queue,
                    );
                },
            }

            translator.finalize()
        }
    }

    /// The first index at which two sequences differ, if any.
    fn first_difference<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
        (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))
    }

    /// Lowers `mig` under every schedule × operand policy and checks the
    /// whole program against the reference heaps.
    fn assert_matches_the_reference(mig: &Mig, at: &str) {
        for schedule in ScheduleOrder::ALL {
            for operands in OperandSelection::ALL {
                let options = CompilerOptions::new().schedule(schedule).operands(operands);
                let want = reference::lower(mig, options);
                let got = lower(mig, options);
                let at = format!("{at}, {}", options.spec());
                if let Some(i) = first_difference(&got.events, &want.events) {
                    panic!("events differ from {i} on, {at}");
                }
                if let Some(i) = first_difference(&got.ops, &want.ops) {
                    panic!("op {i} differs, {at}");
                }
                assert_eq!(got.cells, want.cells, "cells, {at}");
                assert_eq!(got.outputs, want.outputs, "outputs, {at}");
                assert_eq!(got.mig_nodes, want.mig_nodes, "#N, {at}");
            }
        }
    }

    /// Lowers `mig` under every schedule × operand policy and checks that
    /// the allocator strategy changes nothing but [`IrProgram::allocator`].
    fn assert_lowering_ignores_the_allocator(mig: &Mig, at: &str) {
        for schedule in ScheduleOrder::ALL {
            for operands in OperandSelection::ALL {
                let options = CompilerOptions::new().schedule(schedule).operands(operands);
                let want = lower(mig, options);
                for alloc in AllocatorStrategy::ALL {
                    let got = lower(mig, options.allocator(alloc));
                    let at = format!("{at}, {}", options.allocator(alloc).spec());
                    assert_eq!(got.allocator, alloc, "allocator, {at}");
                    assert_eq!(got.events, want.events, "events, {at}");
                    assert_eq!(got.ops, want.ops, "ops, {at}");
                    assert_eq!(got.cells, want.cells, "cells, {at}");
                    assert_eq!(got.outputs, want.outputs, "outputs, {at}");
                    assert_eq!(got.mig_nodes, want.mig_nodes, "#N, {at}");
                }
            }
        }
    }

    /// Runs `check` on seeded control logic and arithmetic, raw and
    /// rewritten. Release builds draw larger graphs.
    fn on_random_graphs(seed: u64, check: fn(&Mig, &str)) {
        let sizes: &[usize] = if cfg!(debug_assertions) {
            &[12, 60, 200]
        } else {
            &[60, 600, 3000]
        };
        for &nodes in sizes {
            let inputs = 3 + (seed % 6) as usize;
            let outputs = 1 + (seed / 7 % 5) as usize;
            let mig = random_logic(&RandomLogicSpec::new(inputs, outputs, nodes, seed));
            let at = format!("random_logic {nodes} nodes, seed {seed}");
            check(&mig, &at);
            check(&rewrite(&mig, 2), &format!("{at}, rewritten"));
        }
        let inputs = 4 + (seed % 13) as usize;
        let mig = random_arithmetic(inputs, seed);
        let at = format!("random_arithmetic {inputs} inputs, seed {seed}");
        check(&mig, &at);
        check(&rewrite(&mig, 2), &format!("{at}, rewritten"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The post-order walk and the inline lookahead heap lower exactly
        /// what the candidate heaps lowered.
        #[test]
        fn schedules_match_the_candidate_heaps_on_random_graphs(seed in any::<u64>()) {
            on_random_graphs(seed, assert_matches_the_reference);
        }

        /// Lowering allocates nothing: every allocator gives the same
        /// stream.
        #[test]
        fn lowering_ignores_the_allocator(seed in any::<u64>()) {
            on_random_graphs(seed, assert_lowering_ignores_the_allocator);
        }
    }

    /// Hand-built graphs at the edges of the exactness argument in
    /// [`lower`]'s documentation.
    #[test]
    fn schedules_match_the_candidate_heaps_on_hand_built_edges() {
        // A fanout-1 child that is also a primary output: `x` has one
        // majority parent, but the output reference keeps it from
        // releasing, so `top`'s static releasing count is 0.
        let mut mig = Mig::new();
        let [a, b, c, d] = [0, 1, 2, 3].map(|i| mig.add_input(format!("x{i}")));
        let x = mig.and(a, b);
        let y = mig.or(c, d);
        let top = mig.maj(x, y, !a);
        mig.add_output("top", top);
        mig.add_output("x", x);
        assert_eq!(mig.fanout_counts()[x.node().index()], 2);
        assert_matches_the_reference(&mig, "fanout-1 child that is an output");

        // A node that reads one child twice. `Mig::maj` folds a repeated
        // child (Ω.M), so the second read goes through a sibling: `m`
        // reads `c` directly and through `d`, and `c` releases only once
        // both are translated.
        let mut mig = Mig::new();
        let [a, b, e, f] = [0, 1, 2, 3].map(|i| mig.add_input(format!("x{i}")));
        let c = mig.and(a, b);
        let d = mig.maj(c, e, f);
        let m = mig.maj(c, !d, e);
        mig.add_output("m", m);
        assert_matches_the_reference(&mig, "child read directly and through a sibling");

        // A node that becomes dynamically releasing before its search frame
        // opens: `p` consumes one of `c`'s two references early, so `m`'s
        // live releasing count is 1 while its static count is 0, and `m`
        // stays ready while the search walks `top`'s deeper operand first.
        let mut mig = Mig::new();
        let xs: Vec<_> = (0..6).map(|i| mig.add_input(format!("x{i}"))).collect();
        let c = mig.and(xs[0], xs[1]);
        let p = mig.maj(c, xs[2], xs[3]);
        let m = mig.maj(c, xs[4], !xs[5]);
        let mut deep = mig.or(xs[2], xs[4]);
        for x in &xs[1..5] {
            deep = mig.maj(deep, *x, !xs[0]);
        }
        let top = mig.maj(m, deep, xs[3]);
        mig.add_output("p", p);
        mig.add_output("top", top);
        let lifetimes = Lifetimes::compute(&mig);
        let position = |s: Signal| lifetimes.postorder(s.node());
        assert!(position(p) < position(deep) && position(deep) < position(m));
        assert_matches_the_reference(&mig, "dynamically releasing before its frame");

        // Dangling nodes: `dead` hangs off the reachable `c` and `deader`
        // off `dead`; neither is translated, and neither holds a reference
        // that would keep `c` from releasing.
        let mut mig = Mig::new();
        let [a, b, e] = [0, 1, 2].map(|i| mig.add_input(format!("x{i}")));
        let c = mig.and(a, b);
        let dead = mig.or(c, e);
        let deader = mig.maj(dead, a, !e);
        let f = mig.maj(c, !a, e);
        mig.add_output("f", f);
        let lifetimes = Lifetimes::compute(&mig);
        assert_eq!(lifetimes.postorder(dead.node()), u32::MAX);
        assert_eq!(lifetimes.postorder(deader.node()), u32::MAX);
        assert_matches_the_reference(&mig, "dangling nodes");
        assert_eq!(lower(&mig, CompilerOptions::new()).mig_nodes, 2);
    }

    /// A dangling parent holds no reference to its reachable child: a
    /// 20-node chain with a dangling `or` hung off every link lowers to the
    /// clean chain's `#I` and `#R`, each link overwritten in place.
    #[test]
    fn dangling_parents_hold_no_reference() {
        let chain = |dangling: bool| {
            let mut mig = Mig::new();
            let xs: Vec<_> = (0..21).map(|i| mig.add_input(format!("x{i}"))).collect();
            let mut link = xs[0];
            for &x in &xs[1..] {
                link = mig.and(link, x);
                if dangling {
                    mig.or(link, !x);
                }
            }
            mig.add_output("f", link);
            let compiled = crate::compile(&mig, CompilerOptions::new());
            (compiled.program.len(), compiled.program.num_rams())
        };
        assert_eq!(chain(false), (22, 1), "clean chain");
        assert_eq!(chain(true), chain(false), "dangling parents");
    }
}
