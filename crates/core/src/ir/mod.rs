//! The PLiM intermediate representation: the compiler's middle end.
//!
//! Translation is split into three phases. [`lower`] runs the scheduler and
//! the per-node operand selection and records the result as an
//! [`IrProgram`] instead of a finished [`plim::Program`]: RM3-shaped ops
//! over **virtual cells** ([`CellId`]), each spanning one request/release
//! lifetime, together with the full request/op/release event stream and
//! the source-MIG provenance of every op. [`passes::PassManager`] then
//! rewrites the stream (in-place-overwrite forwarding and
//! identity-write removal) under the
//! [`crate::OptLevel`] selected in [`crate::CompilerOptions`], and [`emit`]
//! replays the event stream through a fresh [`crate::alloc::RramAllocator`]
//! to rebuild the physical program — including the exact per-cell write
//! counters the endurance model depends on. That replay is the compiler's
//! only RRAM allocator: no physical address exists before it.
//!
//! At `-O0` no pass runs and the emitted program matches the historical
//! single-step translator byte for byte (listing and asm); that identity is
//! pinned by golden files in `tests/golden/`.
//!
//! The IR exists so that instruction-stream optimizations can see what no
//! scheduler can: *physical* cell liveness. The lowering's reference counts
//! overestimate lifetimes — a consumer that reads a cached complement never
//! touches the value cell itself — and the pass pipeline harvests exactly
//! that slack.

use mig::NodeId;
use plim::{text, Rhs};

use crate::lifetime::LifetimeClass;
use crate::options::AllocatorStrategy;

pub mod analysis;
mod emit;
mod lower;
pub mod passes;

pub(crate) use emit::scorer;
pub use emit::{emit, place, OpSink, Placement};
pub use lower::lower;

/// A virtual work cell: one allocator request/release lifetime.
///
/// Unlike a physical [`plim::RamAddr`], a virtual cell is never reused —
/// every request during lowering mints a fresh one — so def/use reasoning
/// in the passes is free of false physical aliasing. A cell may
/// still be *written* several times within its lifetime (materialization,
/// the node's main RM3, in-place overwrites by later nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub u32);

impl CellId {
    /// The raw index into [`IrProgram::cells`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An IR operand: what an RM3 slot reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// A constant 0/1 applied to the array terminal.
    Const(bool),
    /// Primary input with the given index.
    Input(u32),
    /// A virtual work cell.
    Cell(CellId),
}

impl Value {
    /// The cell this operand reads, if any.
    #[inline]
    pub fn cell(self) -> Option<CellId> {
        match self {
            Value::Cell(c) => Some(c),
            _ => None,
        }
    }
}

/// One RM3-shaped IR op: `z ← ⟨a b̄ z⟩`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrOp {
    /// First operand (read plain).
    pub a: Value,
    /// Second operand (inverted intrinsically by the write).
    pub b: Value,
    /// Destination cell; its old value is the third majority input unless
    /// the op is [masking](IrOp::masking).
    pub z: CellId,
    /// Right-hand side of the listing comment (`N46`, `¬i3`, `1`, …); the
    /// listing renders the full `X<addr> ← <rhs>` comment from it and the
    /// emitted destination, so comments stay correct when a pass retargets
    /// the destination.
    pub rhs: Rhs,
    /// The source-MIG node this op helps compute, when known (main ops
    /// carry their own node, materializations the node they copy or
    /// complement).
    pub node: Option<NodeId>,
}

impl IrOp {
    /// `true` when the result is independent of the destination's old value:
    /// both operands are constants and they differ (the reset/set idioms).
    #[inline]
    pub fn masking(&self) -> bool {
        matches!((self.a, self.b), (Value::Const(x), Value::Const(y)) if x != y)
    }

    /// `true` for an identity write `⟨c c̄ z⟩`: both operands are the same
    /// constant, so the destination keeps its value.
    #[inline]
    pub fn identity(&self) -> bool {
        matches!((self.a, self.b), (Value::Const(x), Value::Const(y)) if x == y)
    }

    /// The cells this op reads: `a`, `b`, plus `z`'s old value unless the
    /// op is masking.
    pub fn reads(&self) -> impl Iterator<Item = CellId> + '_ {
        let z_old = if self.masking() { None } else { Some(self.z) };
        self.a.cell().into_iter().chain(self.b.cell()).chain(z_old)
    }
}

/// A virtual cell's lowering-time metadata. It carries no address: emission
/// assigns one when it replays the cell's [`Event::Request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrCell {
    /// Allocation hint replayed to lifetime-aware strategies.
    pub hint: LifetimeClass,
}

/// One entry of the program's ordered event stream.
///
/// The stream is the single source of truth for both instruction order and
/// allocator behavior: emission replays it verbatim, so two IR programs
/// with equal streams produce byte-identical machine programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Execute [`IrProgram::ops`]`[index]`.
    Op(u32),
    /// The cell's lifetime begins: the allocator assigns it a physical
    /// address here.
    Request(CellId),
    /// The cell's lifetime ends: its physical address returns to the free
    /// pool. Cells still holding values at program end (outputs) have no
    /// release.
    Release(CellId),
}

/// Where a primary output lives at program end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrOutput {
    /// In a work cell.
    Cell(CellId),
    /// Equal to a primary input (possibly complemented).
    Input {
        /// Input index.
        index: u32,
        /// Whether the output is the input's complement.
        complemented: bool,
    },
    /// A constant.
    Const(bool),
}

/// A lowered PLiM program in IR form.
#[derive(Debug, Clone)]
pub struct IrProgram {
    /// Primary inputs the program reads.
    pub num_inputs: usize,
    /// Op storage; program order is defined by [`IrProgram::events`], so an
    /// op a pass deleted simply has no event referencing it.
    pub ops: Vec<IrOp>,
    /// Virtual-cell metadata, indexed by [`CellId`].
    pub cells: Vec<IrCell>,
    /// The ordered op/request/release stream.
    pub events: Vec<Event>,
    /// Primary outputs, in declaration order.
    pub outputs: Vec<(String, IrOutput)>,
    /// Number of MIG majority nodes the lowering translated (`#N`).
    pub mig_nodes: usize,
    /// Allocation strategy replayed at emission.
    pub allocator: AllocatorStrategy,
}

impl IrProgram {
    /// Number of instructions the program currently emits (`#I`).
    pub fn num_instructions(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::Op(_)))
            .count()
    }

    /// The op behind an event, if it is an [`Event::Op`].
    pub(crate) fn op_of(&self, event: Event) -> Option<&IrOp> {
        match event {
            Event::Op(i) => Some(&self.ops[i as usize]),
            _ => None,
        }
    }

    /// Structurally verifies the program; run after every pass.
    ///
    /// Checks, per cell: exactly one request (before every other touch), at
    /// most one release (after every other touch), no reads of undefined
    /// values (the machine's initialization discipline, lifted to virtual
    /// cells), and that output cells are defined at program end.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first violation.
    pub fn check(&self) -> Result<(), String> {
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            Unborn,
            Requested,
            Defined,
            Released,
        }
        let mut state = vec![State::Unborn; self.cells.len()];
        for (pos, &event) in self.events.iter().enumerate() {
            match event {
                Event::Request(c) => {
                    let s = state
                        .get_mut(c.index())
                        .ok_or_else(|| format!("event {pos}: unknown cell %{}", c.0))?;
                    if *s != State::Unborn {
                        return Err(format!("event {pos}: %{} requested twice", c.0));
                    }
                    *s = State::Requested;
                }
                Event::Release(c) => {
                    let s = state
                        .get_mut(c.index())
                        .ok_or_else(|| format!("event {pos}: unknown cell %{}", c.0))?;
                    if !matches!(*s, State::Requested | State::Defined) {
                        return Err(format!("event {pos}: %{} released while not live", c.0));
                    }
                    *s = State::Released;
                }
                Event::Op(i) => {
                    let op = self
                        .ops
                        .get(i as usize)
                        .ok_or_else(|| format!("event {pos}: unknown op {i}"))?;
                    for c in op.reads() {
                        match state.get(c.index()) {
                            Some(State::Defined) => {}
                            Some(_) => {
                                return Err(format!(
                                    "event {pos}: op reads %{} which holds no value",
                                    c.0
                                ))
                            }
                            None => return Err(format!("event {pos}: unknown cell %{}", c.0)),
                        }
                    }
                    match state.get_mut(op.z.index()) {
                        Some(s @ (State::Requested | State::Defined)) => *s = State::Defined,
                        Some(_) => {
                            return Err(format!(
                                "event {pos}: op writes %{} outside its lifetime",
                                op.z.0
                            ))
                        }
                        None => return Err(format!("event {pos}: unknown cell %{}", op.z.0)),
                    }
                }
            }
        }
        for (name, output) in &self.outputs {
            if let IrOutput::Cell(c) = output {
                match state.get(c.index()) {
                    Some(State::Defined) => {}
                    _ => {
                        return Err(format!(
                            "output `{name}` reads %{} which is not live at program end",
                            c.0
                        ))
                    }
                }
            }
        }
        Ok(())
    }

    /// Renders the program in the stable `plimc --emit ir` text form: a
    /// header, one instruction per line with its def/use annotation and
    /// provenance comment, and the output directory.
    ///
    /// ```text
    /// .ir v1
    /// .inputs 3
    /// .cells 2
    /// 0001: rm3(1, 0, %0)        def %0          ; 1
    /// 0002: rm3(i2, 1, %0)       def %0 use %0   ; i2
    /// .output f = %0
    /// ```
    pub fn dump(&self) -> String {
        let total = self.num_instructions();
        let width = text::line_number_width(total);
        let mut out = String::with_capacity(64 + total * (width + DUMP_LINE_BYTES));
        out.push_str(".ir v1\n.inputs ");
        text::push_uint(&mut out, self.num_inputs as u64);
        out.push_str("\n.cells ");
        text::push_uint(&mut out, self.cells.len() as u64);
        out.push('\n');
        let cell = |out: &mut String, c: CellId| {
            out.push('%');
            text::push_uint(out, u64::from(c.0));
        };
        let value = |out: &mut String, v: Value| match v {
            Value::Const(x) => out.push(if x { '1' } else { '0' }),
            Value::Input(i) => {
                out.push('i');
                text::push_uint(out, u64::from(i) + 1);
            }
            Value::Cell(c) => cell(out, c),
        };
        let mut index = 0usize;
        for &event in &self.events {
            let Some(op) = self.op_of(event) else {
                continue;
            };
            index += 1;
            text::push_line_number(&mut out, index, width);
            let column = out.len();
            out.push_str("rm3(");
            value(&mut out, op.a);
            out.push_str(", ");
            value(&mut out, op.b);
            out.push_str(", ");
            cell(&mut out, op.z);
            out.push(')');
            text::pad_column(&mut out, column, 26);
            out.push(' ');
            let column = out.len();
            out.push_str("def ");
            cell(&mut out, op.z);
            for (k, c) in op.reads().enumerate() {
                out.push_str(if k == 0 { " use " } else { " " });
                cell(&mut out, c);
            }
            text::pad_column(&mut out, column, 24);
            out.push_str(" ; ");
            op.rhs.push_to(&mut out);
            out.push('\n');
        }
        for (name, output) in &self.outputs {
            out.push_str(".output ");
            out.push_str(name);
            out.push_str(" = ");
            match *output {
                IrOutput::Cell(c) => cell(&mut out, c),
                IrOutput::Input {
                    index,
                    complemented,
                } => {
                    if complemented {
                        out.push('!');
                    }
                    value(&mut out, Value::Input(index));
                }
                IrOutput::Const(v) => value(&mut out, Value::Const(v)),
            }
            out.push('\n');
        }
        out
    }
}

/// Bytes a `--emit ir` instruction line takes past its line number, as
/// sized up front: the two padded columns and a comment such as `¬N3456`.
const DUMP_LINE_BYTES: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{any, prop_assert_eq, proptest, ProptestConfig, TestRng};

    /// A program over two cells whose stream is `events`, with op 0
    /// `%0 ← ⟨1 %1̄ %0⟩`, op 1 the reset of `%0`, and an output `f` on `%0`.
    fn program(events: Vec<Event>) -> IrProgram {
        let cell = IrCell {
            hint: LifetimeClass::Short,
        };
        let op = |a, b, z| IrOp {
            a,
            b,
            z: CellId(z),
            rhs: Rhs::Const(false),
            node: None,
        };
        IrProgram {
            num_inputs: 0,
            ops: vec![
                op(Value::Const(true), Value::Cell(CellId(1)), 0),
                op(Value::Const(false), Value::Const(true), 0),
            ],
            cells: vec![cell; 2],
            events,
            outputs: vec![("f".to_string(), IrOutput::Cell(CellId(0)))],
            mig_nodes: 0,
            allocator: AllocatorStrategy::Fifo,
        }
    }

    /// Every violation `check` reports, with its message.
    #[test]
    fn check_reports_each_violation() {
        use Event::{Op, Release, Request};
        let (c0, c1, c9) = (CellId(0), CellId(1), CellId(9));
        assert_eq!(program(vec![Request(c0), Op(1)]).check(), Ok(()));
        for (events, message) in [
            (vec![Request(c9)], "event 0: unknown cell %9"),
            (vec![Release(c9)], "event 0: unknown cell %9"),
            (
                vec![Request(c0), Request(c0)],
                "event 1: %0 requested twice",
            ),
            (vec![Release(c0)], "event 0: %0 released while not live"),
            (vec![Op(7)], "event 0: unknown op 7"),
            (
                vec![Request(c0), Request(c1), Op(0)],
                "event 2: op reads %1 which holds no value",
            ),
            (vec![Op(1)], "event 0: op writes %0 outside its lifetime"),
            (
                vec![Request(c0), Op(1), Release(c0)],
                "output `f` reads %0 which is not live at program end",
            ),
        ] {
            assert_eq!(program(events).check(), Err(message.to_string()));
        }
        let mut unknown = program(vec![Request(c0), Op(1), Op(0)]);
        unknown.ops[0].b = Value::Cell(c9);
        assert_eq!(unknown.check(), Err("event 2: unknown cell %9".to_string()));
        unknown.ops[1].z = c9;
        assert_eq!(unknown.check(), Err("event 1: unknown cell %9".to_string()));
    }

    /// The `format!` renderer [`IrProgram::dump`] replaced, kept as its
    /// oracle.
    fn format_dump(ir: &IrProgram) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(".ir v1\n");
        let _ = writeln!(out, ".inputs {}", ir.num_inputs);
        let _ = writeln!(out, ".cells {}", ir.cells.len());
        let total = ir.num_instructions();
        let width = total.to_string().len().max(2);
        let value = |v: &Value| match v {
            Value::Const(x) => format!("{}", *x as u8),
            Value::Input(i) => format!("i{}", i + 1),
            Value::Cell(c) => format!("%{}", c.0),
        };
        let mut index = 0usize;
        for &event in &ir.events {
            let Some(op) = ir.op_of(event) else {
                continue;
            };
            index += 1;
            let text = format!("rm3({}, {}, %{})", value(&op.a), value(&op.b), op.z.0);
            let mut defuse = format!("def %{}", op.z.0);
            let uses: Vec<String> = op.reads().map(|c| format!("%{}", c.0)).collect();
            if !uses.is_empty() {
                let _ = write!(defuse, " use {}", uses.join(" "));
            }
            let _ = writeln!(out, "{index:0width$}: {text:<26} {defuse:<24} ; {}", op.rhs);
        }
        for (name, output) in &ir.outputs {
            let loc = match output {
                IrOutput::Cell(c) => format!("%{}", c.0),
                IrOutput::Input {
                    index,
                    complemented,
                } => format!("{}i{}", if *complemented { "!" } else { "" }, index + 1),
                IrOutput::Const(v) => format!("{}", *v as u8),
            };
            let _ = writeln!(out, ".output {name} = {loc}");
        }
        out
    }

    /// A draw below `n`.
    fn below(rng: &mut TestRng, n: u64) -> u64 {
        rng.next_u64() % n
    }

    /// A cell, input or node index: small mostly, seven digits now and then.
    fn index(rng: &mut TestRng) -> u32 {
        let bound = if below(rng, 8) == 0 { 10_000_000 } else { 120 };
        below(rng, bound) as u32
    }

    fn value(rng: &mut TestRng) -> Value {
        match below(rng, 3) {
            0 => Value::Const(below(rng, 2) == 1),
            1 => Value::Input(index(rng)),
            _ => Value::Cell(CellId(index(rng))),
        }
    }

    /// A random program of `len` ops with request and release events
    /// between them, over every `Value`, `Rhs` and `IrOutput` form, masking
    /// and non-masking ops, and cell numbers large enough that some columns
    /// pass their padded width. It need not pass [`IrProgram::check`].
    fn arbitrary_ir(rng: &mut TestRng, len: usize) -> IrProgram {
        let mut ir = program(Vec::new());
        ir.num_inputs = below(rng, 40) as usize;
        ir.cells = vec![ir.cells[0]; below(rng, 200) as usize];
        ir.ops.clear();
        ir.outputs.clear();
        for op in 0..len as u32 {
            let (a, b, z) = (value(rng), value(rng), CellId(index(rng)));
            let complemented = below(rng, 2) == 1;
            let rhs = match below(rng, 3) {
                0 => Rhs::Const(complemented),
                1 => Rhs::Input(index(rng), complemented),
                _ => Rhs::Node(index(rng), complemented),
            };
            ir.ops.push(IrOp {
                a,
                b,
                z,
                rhs,
                node: None,
            });
            match below(rng, 3) {
                0 => ir.events.push(Event::Request(z)),
                1 => ir.events.push(Event::Release(z)),
                _ => {}
            }
            ir.events.push(Event::Op(op));
        }
        for k in 0..below(rng, 6) {
            let output = match below(rng, 3) {
                0 => IrOutput::Const(below(rng, 2) == 1),
                1 => IrOutput::Input {
                    index: index(rng),
                    complemented: below(rng, 2) == 1,
                },
                _ => IrOutput::Cell(CellId(index(rng))),
            };
            ir.outputs.push((format!("f{k}"), output));
        }
        ir
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `dump` renders random programs byte for byte like the
        /// `format!` renderer it replaced.
        #[test]
        fn dump_matches_the_format_oracle(seed in any::<u64>(), len in 0usize..240) {
            let ir = arbitrary_ir(&mut TestRng::new(seed), len);
            prop_assert_eq!(ir.dump(), format_dump(&ir));
        }
    }

    /// On both sides of each step of the line-number width.
    #[test]
    fn dump_matches_the_oracle_across_line_number_widths() {
        let mut rng = TestRng::for_test("dump_widths");
        for len in [99, 100, 99_999, 100_000] {
            let ir = arbitrary_ir(&mut rng, len);
            assert_eq!(ir.dump(), format_dump(&ir), "{len} ops");
        }
    }
}
