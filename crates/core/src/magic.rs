//! The `magic` backend: a MAGIC/IMPLY-style memristive NOR sketch.
//!
//! MAGIC (Memristor-Aided loGIC) realizes an N-input NOR in a memristor
//! crossbar: the output device is first initialized to logic `1`, then one
//! voltage pulse across the input devices conditionally switches it to `0`
//! whenever any input holds `1`. Emission decomposes each RM3-shaped IR op
//! `z ← ⟨a b̄ z⟩` into seven NORs over six scratch devices, exploiting that
//! the majority's complemented input is stored uninverted in the IR:
//!
//! ```text
//! x1 = nor(a)           = ¬a
//! x2 = nor(z)           = ¬z_old
//! w1 = nor(x1, b)       = a ∧ ¬b
//! w2 = nor(x1, x2)      = a ∧ z_old
//! w3 = nor(b, x2)       = ¬b ∧ z_old
//! o  = nor(w1, w2, w3)  = ¬⟨a b̄ z_old⟩
//! z  = nor(o)           = ⟨a b̄ z_old⟩
//! ```
//!
//! Every NOR is preceded by the mandatory `set` of its output device, so a
//! non-masking op costs 14 pulses; masking ops (the reset/set idioms)
//! collapse to a single initialization of the destination. Cell placement
//! reuses the compiler's allocator replay ([`crate::ir::place`]);
//! the six scratch devices live above the work region. The cost model
//! counts **pulses** (every instruction is one); [`MAGIC_COST`] prices a
//! whole op so, and the replay scores streams with it.
//!
//! This is deliberately a sketch: constants ride along as NOR inputs
//! instead of being strapped to reference devices, and device variability
//! is out of scope. It exists to prove the backend seam carries a
//! fundamentally different instruction set end-to-end, executor included.

use std::fmt::Write as _;

use plim::text;
use plim::wide::{poison, LaneWord, W256};
use plim::{Operand, OutputLoc, RamAddr};

use crate::backend::{Artifact, Backend, Cost, CostTable, InstructionInfo, OpCost, WorkRegion};
use crate::ir::{self, IrOp, IrProgram};
use crate::rows::{check_inputs, push_input, push_row, read_outputs, render_outputs};
use crate::verify::VerifyError;

/// One MAGIC instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    /// Initialize a device to logic 1 (the pre-NOR `set`).
    Set(u32),
    /// Initialize a device to logic 0.
    Reset(u32),
    /// `dst ← ¬(src₁ ∨ …)`; the device must have been `set` first.
    Nor(Vec<Operand>, u32),
}

/// MAGIC's cost table, from its lowering of one IR op: a masking op is one
/// initialization of the destination; any other is seven NORs, each with
/// its `set`, for 14 pulses, writing each scratch device twice and the
/// destination twice.
const MAGIC_COST: CostTable = CostTable {
    masking: OpCost::ONE,
    other: OpCost {
        instructions: 14,
        units: 14,
        const_discount: 0,
        writes: 2,
    },
    scratch_rows: 6,
    scratch_writes: 2,
    work_region: WorkRegion::Requested,
};

/// The MAGIC backend's instruction set.
const MAGIC_ISA: [InstructionInfo; 3] = [
    InstructionInfo {
        mnemonic: "set",
        cost: 1,
        summary: "initialize the output memristor to logic 1 (one pulse)",
    },
    InstructionInfo {
        mnemonic: "reset",
        cost: 1,
        summary: "initialize the output memristor to logic 0 (one pulse)",
    },
    InstructionInfo {
        mnemonic: "nor",
        cost: 1,
        summary: "dst ← ¬(src₁ ∨ …): one MAGIC NOR pulse onto a set device",
    },
];

/// The MAGIC/IMPLY-style memristive NOR backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct MagicBackend;

impl Backend for MagicBackend {
    fn name(&self) -> &'static str {
        "magic"
    }

    fn description(&self) -> &'static str {
        "memristive NOR crossbar sketch (MAGIC-style, 7 NORs per majority)"
    }

    fn instruction_set(&self) -> &'static [InstructionInfo] {
        &MAGIC_ISA
    }

    fn cost_table(&self) -> CostTable {
        MAGIC_COST
    }

    fn emit(&self, ir: &IrProgram) -> Box<dyn Artifact> {
        Box::new(lower(ir))
    }
}

/// An emitted MAGIC program.
#[derive(Debug, Clone)]
pub struct MagicArtifact {
    num_inputs: usize,
    ops: Vec<Op>,
    outputs: Vec<(String, OutputLoc)>,
    cost: Cost,
}

/// Bytes a listing line takes past its line number, as sized up front
/// (`nor r1234 r5678 r9012`, `set r12`).
const LINE_BYTES: usize = 16;

/// Lowers the IR event stream onto the NOR crossbar.
fn lower(ir: &IrProgram) -> MagicArtifact {
    // Scratch devices, in decomposition order, above the work region, which
    // a first replay sizes.
    let work_rows = ir::place(ir, MAGIC_COST, &mut ()).work_rows;
    let [x1, x2, w1, w2, w3, o] = [0, 1, 2, 3, 4, 5].map(|k| RamAddr(work_rows + k));
    let mut ops = Vec::new();
    let mut sink = |op: &IrOp, z: RamAddr, a: Operand, b: Operand| {
        if op.masking() {
            let Operand::Const(v) = a else {
                unreachable!("masking ops have constant operands")
            };
            ops.push(if v { Op::Set(z.0) } else { Op::Reset(z.0) });
            return;
        }
        let mut nor = |dst: RamAddr, srcs: Vec<Operand>| {
            ops.push(Op::Set(dst.0));
            ops.push(Op::Nor(srcs, dst.0));
        };
        let cell = Operand::Ram;
        nor(x1, vec![a]);
        nor(x2, vec![cell(z)]);
        nor(w1, vec![cell(x1), b]);
        nor(w2, vec![cell(x1), cell(x2)]);
        nor(w3, vec![b, cell(x2)]);
        nor(o, vec![cell(w1), cell(w2), cell(w3)]);
        nor(z, vec![cell(o)]);
    };
    let placement = ir::place(ir, MAGIC_COST, &mut sink);
    MagicArtifact {
        num_inputs: ir.num_inputs,
        ops,
        outputs: placement.outputs,
        cost: placement.cost,
    }
}

impl Artifact for MagicArtifact {
    fn target(&self) -> &'static str {
        "magic"
    }

    fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    fn cost(&self) -> Cost {
        self.cost
    }

    fn listing(&self) -> String {
        let width = text::line_number_width(self.ops.len());
        let mut out = String::with_capacity(64 + self.ops.len() * (width + LINE_BYTES));
        let _ = writeln!(out, ".magic v1\n.inputs {}", self.num_inputs);
        let _ = writeln!(out, ".cells {} (6 scratch)", self.cost.footprint);
        for (index, op) in self.ops.iter().enumerate() {
            text::push_line_number(&mut out, index + 1, width);
            match op {
                Op::Set(_) => out.push_str("set "),
                Op::Reset(_) => out.push_str("reset "),
                Op::Nor(srcs, _) => {
                    out.push_str("nor ");
                    for (k, s) in srcs.iter().enumerate() {
                        if k > 0 {
                            out.push(' ');
                        }
                        match *s {
                            Operand::Const(v) => out.push(if v { '1' } else { '0' }),
                            Operand::Input(i) => push_input(&mut out, i),
                            Operand::Ram(r) => push_row(&mut out, r.0),
                        }
                    }
                    out.push(' ');
                }
            }
            let (Op::Set(d) | Op::Reset(d) | Op::Nor(_, d)) = op;
            push_row(&mut out, *d);
            out.push('\n');
        }
        render_outputs(&mut out, &self.outputs);
        out
    }

    fn stats_text(&self) -> String {
        format!(
            "target=magic ops={} cells={} maxw={} pulses={}\n",
            self.cost.instructions, self.cost.footprint, self.cost.wear, self.cost.units
        )
    }

    fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    fn run_wide(&self, inputs: &[W256]) -> Result<Vec<W256>, VerifyError> {
        check_inputs(self.num_inputs, inputs)?;
        let mut cells: Vec<W256> = (0..self.cost.footprint).map(poison).collect();
        let read = |s: &Operand, cells: &[W256]| match *s {
            Operand::Const(v) => W256::splat(v),
            Operand::Input(i) => inputs[i as usize],
            Operand::Ram(r) => cells[r.index()],
        };
        for op in &self.ops {
            match op {
                Op::Set(d) => cells[*d as usize] = W256::ones(),
                Op::Reset(d) => cells[*d as usize] = W256::zero(),
                Op::Nor(srcs, d) => {
                    let or = srcs
                        .iter()
                        .fold(W256::zero(), |acc, s| acc | read(s, &cells));
                    cells[*d as usize] = !or;
                }
            }
        }
        Ok(read_outputs(&self.outputs, &cells, inputs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::draw::{below, index, outputs};
    use crate::rows::{format_outputs, oracle};
    use crate::verify::verify_exhaustive;
    use crate::{compile_full, CompilerOptions, OptLevel};
    use proptest::{any, prop_assert_eq, proptest, ProptestConfig, TestRng};

    /// The `format!` renderer the listing replaced, kept as its oracle.
    fn format_listing(artifact: &MagicArtifact) -> String {
        let mut out = String::from(".magic v1\n");
        let _ = writeln!(out, ".inputs {}", artifact.num_inputs);
        let _ = writeln!(out, ".cells {} (6 scratch)", artifact.cost.footprint);
        let width = artifact.ops.len().to_string().len().max(2);
        let src = |s: &Operand| match *s {
            Operand::Const(v) => format!("{}", u8::from(v)),
            Operand::Input(i) => format!("i{}", i + 1),
            Operand::Ram(r) => format!("r{}", r.0),
        };
        for (index, op) in artifact.ops.iter().enumerate() {
            let text = match op {
                Op::Set(d) => format!("set r{d}"),
                Op::Reset(d) => format!("reset r{d}"),
                Op::Nor(srcs, d) => {
                    let args: Vec<String> = srcs.iter().map(src).collect();
                    format!("nor {} r{d}", args.join(" "))
                }
            };
            let _ = writeln!(out, "{:0width$}: {text}", index + 1);
        }
        format_outputs(&mut out, &artifact.outputs);
        out
    }

    /// An artifact of `len` random ops of every form, NORs of zero to
    /// three inputs over every `Operand` form, and outputs of every
    /// `OutputLoc` form. It need not run.
    fn arbitrary_artifact(rng: &mut TestRng, len: usize) -> MagicArtifact {
        let src = |rng: &mut TestRng| match below(rng, 3) {
            0 => Operand::Const(below(rng, 2) == 1),
            1 => Operand::Input(index(rng)),
            _ => Operand::Ram(RamAddr(index(rng))),
        };
        let ops = (0..len)
            .map(|_| match below(rng, 3) {
                0 => Op::Set(index(rng)),
                1 => Op::Reset(index(rng)),
                _ => {
                    let srcs = (0..below(rng, 4)).map(|_| src(rng)).collect();
                    Op::Nor(srcs, index(rng))
                }
            })
            .collect();
        MagicArtifact {
            num_inputs: below(rng, 40) as usize,
            ops,
            outputs: outputs(rng),
            cost: Cost {
                footprint: index(rng),
                ..Cost::default()
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The listing writer renders random artifacts byte for byte like
        /// the `format!` renderer it replaced.
        #[test]
        fn listing_matches_the_format_oracle(seed in any::<u64>(), len in 0usize..240) {
            let artifact = arbitrary_artifact(&mut TestRng::new(seed), len);
            prop_assert_eq!(artifact.listing(), format_listing(&artifact));
        }
    }

    /// On both sides of each step of the line-number width.
    #[test]
    fn listing_matches_the_oracle_across_line_number_widths() {
        let mut rng = TestRng::for_test("magic_widths");
        for len in [99, 100, 99_999, 100_000] {
            let artifact = arbitrary_artifact(&mut rng, len);
            assert_eq!(artifact.listing(), format_listing(&artifact), "{len} ops");
        }
    }

    /// The cost the lowering counted from its op list before the replay
    /// priced ops, kept as the oracle of the cost table: one write of its
    /// device and one pulse per op, and the work region plus the six
    /// scratch devices once a NOR runs.
    fn recount(artifact: &MagicArtifact, ir: &IrProgram) -> Cost {
        let scratch = artifact.ops.iter().any(|op| matches!(op, Op::Nor(..)));
        let footprint = oracle::work_rows(ir) + if scratch { 6 } else { 0 };
        let mut writes = vec![0u64; footprint as usize];
        for op in &artifact.ops {
            let (Op::Set(d) | Op::Reset(d) | Op::Nor(_, d)) = op;
            writes[*d as usize] += 1;
        }
        Cost {
            instructions: artifact.ops.len(),
            footprint,
            wear: writes.iter().copied().max().unwrap_or(0),
            units: artifact.ops.len() as u64,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The replay prices every stream — random logic under every
        /// allocator, at `-O0` and `-O2`, and a stream with a requested
        /// cell no op touches — as a recount of the emitted op list does.
        #[test]
        fn cost_matches_a_recount_of_the_emitted_ops(seed in any::<u64>()) {
            for ir in oracle::streams(seed, &MagicBackend) {
                let artifact = lower(&ir);
                prop_assert_eq!(MagicBackend.cost(&ir), recount(&artifact, &ir));
                prop_assert_eq!(artifact.cost, recount(&artifact, &ir));
            }
        }
    }

    fn xor5() -> mig::Mig {
        let mut mig = mig::Mig::new();
        let xs = mig.add_inputs("x", 5);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = mig.xor(acc, x);
        }
        mig.add_output("parity", acc);
        mig.add_output("nparity", !acc);
        mig
    }

    #[test]
    fn emits_equivalent_programs_at_every_opt_level() {
        let mig = xor5();
        for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            let compilation = compile_full(&mig, CompilerOptions::new().opt(opt));
            let artifact = MagicBackend.emit(&compilation.ir);
            verify_exhaustive(&mig, artifact.as_ref()).unwrap();
        }
    }

    /// Under `wear` the allocator levels MAGIC's own writes. `%0`'s
    /// non-masking op writes its row twice and `%1`'s reset writes its row
    /// once, so when both are free again `%2` takes `%1`'s row, where RM3,
    /// which writes each once, breaks the tie to `%0`'s.
    #[test]
    fn wear_leveling_counts_the_writes_magic_makes() {
        use crate::ir::{CellId, Event, IrCell, IrOutput, Value};
        use crate::{AllocatorStrategy, LifetimeClass};
        use plim::Rhs;
        let cell = IrCell {
            pinned: RamAddr(0),
            hint: LifetimeClass::Short,
        };
        let op = |a, z| IrOp {
            a,
            b: Value::Const(true),
            z: CellId(z),
            rhs: Rhs::Const(false),
            node: None,
        };
        let [c0, c1, c2] = [0, 1, 2].map(CellId);
        let ir = IrProgram {
            num_inputs: 1,
            ops: vec![
                op(Value::Input(0), 0),
                op(Value::Const(false), 1),
                op(Value::Const(false), 2),
            ],
            cells: vec![cell; 3],
            events: vec![
                Event::Request(c0),
                Event::Request(c1),
                Event::Op(0),
                Event::Op(1),
                Event::Release(c0),
                Event::Release(c1),
                Event::Request(c2),
                Event::Op(2),
            ],
            outputs: vec![("f".to_string(), IrOutput::Cell(c2))],
            mig_nodes: 1,
            allocator: AllocatorStrategy::WearLeveled,
        };
        let rm3 = crate::ir::emit(&ir);
        assert_eq!(rm3.program.instructions()[2].z, RamAddr(0));
        assert_eq!(lower(&ir).ops.last(), Some(&Op::Reset(1)));
    }

    #[test]
    fn seven_nors_per_non_masking_op() {
        let mig = xor5();
        let compilation = compile_full(&mig, CompilerOptions::new());
        let artifact = MagicBackend.emit(&compilation.ir);
        let cost = artifact.cost();
        assert_eq!(MagicBackend.cost(&compilation.ir), cost);
        assert_eq!(cost.units, cost.instructions as u64);
        // Between 1 (all masking) and 14 (all general) pulses per RM3 op.
        let rm3 = compilation.compiled.stats.instructions;
        assert!(cost.instructions >= rm3 && cost.instructions <= 14 * rm3);
        let listing = artifact.listing();
        assert!(listing.starts_with(".magic v1\n"), "{listing}");
        assert!(listing.contains("nor "), "{listing}");
        assert_eq!(artifact.target(), "magic");
    }

    #[test]
    fn run_wide_rejects_wrong_input_counts() {
        let mig = xor5();
        let compilation = compile_full(&mig, CompilerOptions::new());
        let artifact = MagicBackend.emit(&compilation.ir);
        assert!(artifact.run_wide(&[W256::zero()]).is_err());
    }
}
