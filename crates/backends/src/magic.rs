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
//! reuses the compiler's allocator replay; the six scratch devices live
//! above the work region. The cost model counts **pulses** (every
//! instruction is one).
//!
//! This is deliberately a sketch: constants ride along as NOR inputs
//! instead of being strapped to reference devices, and device variability
//! is out of scope. It exists to prove the backend seam carries a
//! fundamentally different instruction set end-to-end, executor included.

use std::fmt::Write as _;

use plim_compiler::backend::{poison, text, LaneWord, W256};
use plim_compiler::ir::{Event, IrProgram, Value};
use plim_compiler::verify::VerifyError;
use plim_compiler::{Artifact, Backend, Cost, InstructionInfo};

use crate::rows::{
    assign_rows, check_inputs, lower_outputs, push_input, push_row, read_outputs, render_outputs,
    OutLoc,
};

/// What a NOR input reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// A constant reference level.
    Const(bool),
    /// A primary input device.
    Input(u32),
    /// A work or scratch device.
    Cell(u32),
}

/// One MAGIC instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    /// Initialize a device to logic 1 (the pre-NOR `set`).
    Set(u32),
    /// Initialize a device to logic 0.
    Reset(u32),
    /// `dst ← ¬(src₁ ∨ …)`; the device must have been `set` first.
    Nor(Vec<Src>, u32),
}

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

    fn cost(&self, ir: &IrProgram) -> Cost {
        lower(ir).cost
    }

    fn emit(&self, ir: &IrProgram) -> Box<dyn Artifact> {
        Box::new(lower(ir))
    }
}

/// An emitted MAGIC program.
#[derive(Debug, Clone)]
pub struct MagicArtifact {
    num_inputs: usize,
    /// Total devices: work region plus the six scratch devices.
    cells: u32,
    ops: Vec<Op>,
    outputs: Vec<(String, OutLoc)>,
    cost: Cost,
}

/// Bytes a listing line takes past its line number, as sized up front
/// (`nor r1234 r5678 r9012`, `set r12`).
const LINE_BYTES: usize = 16;

/// Lowers the IR event stream onto the NOR crossbar.
fn lower(ir: &IrProgram) -> MagicArtifact {
    let rows = assign_rows(ir);
    // Scratch devices, in decomposition order.
    let [x1, x2, w1, w2, w3, o] = [0, 1, 2, 3, 4, 5].map(|k| rows.work_rows + k);
    let mut ops = Vec::new();
    let mut uses_scratch = false;
    let src = |value: Value, rows: &crate::rows::Rows| match value {
        Value::Const(v) => Src::Const(v),
        Value::Input(i) => Src::Input(i),
        Value::Cell(c) => Src::Cell(rows.cell_row[c.index()]),
    };
    for &event in &ir.events {
        let Event::Op(index) = event else { continue };
        let op = &ir.ops[index as usize];
        let z = rows.cell_row[op.z.index()];
        if op.masking() {
            let Value::Const(v) = op.a else {
                unreachable!("masking ops have constant operands")
            };
            ops.push(if v { Op::Set(z) } else { Op::Reset(z) });
            continue;
        }
        uses_scratch = true;
        let a = src(op.a, &rows);
        let b = src(op.b, &rows);
        let nor = |dst: u32, srcs: Vec<Src>, ops: &mut Vec<Op>| {
            ops.push(Op::Set(dst));
            ops.push(Op::Nor(srcs, dst));
        };
        nor(x1, vec![a], &mut ops);
        nor(x2, vec![Src::Cell(z)], &mut ops);
        nor(w1, vec![Src::Cell(x1), b], &mut ops);
        nor(w2, vec![Src::Cell(x1), Src::Cell(x2)], &mut ops);
        nor(w3, vec![b, Src::Cell(x2)], &mut ops);
        nor(
            o,
            vec![Src::Cell(w1), Src::Cell(w2), Src::Cell(w3)],
            &mut ops,
        );
        nor(z, vec![Src::Cell(o)], &mut ops);
    }
    let total_cells = rows.work_rows + if uses_scratch { 6 } else { 0 };

    let mut writes = vec![0u64; total_cells as usize];
    for op in &ops {
        let (Op::Set(d) | Op::Reset(d) | Op::Nor(_, d)) = op;
        writes[*d as usize] += 1;
    }
    let cost = Cost {
        instructions: ops.len(),
        footprint: total_cells,
        wear: writes.iter().copied().max().unwrap_or(0),
        // Every instruction is a single pulse.
        units: ops.len() as u64,
    };
    MagicArtifact {
        num_inputs: ir.num_inputs,
        cells: total_cells,
        outputs: lower_outputs(ir, &rows),
        ops,
        cost,
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
        let _ = writeln!(out, ".cells {} (6 scratch)", self.cells);
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
                            Src::Const(v) => out.push(if v { '1' } else { '0' }),
                            Src::Input(i) => push_input(&mut out, i),
                            Src::Cell(r) => push_row(&mut out, r),
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
        let mut cells: Vec<W256> = (0..self.cells).map(poison).collect();
        let read = |s: &Src, cells: &[W256]| match *s {
            Src::Const(v) => W256::splat(v),
            Src::Input(i) => inputs[i as usize],
            Src::Cell(r) => cells[r as usize],
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
    use crate::rows::format_outputs;
    use plim_compiler::verify::verify_exhaustive;
    use plim_compiler::{compile_full, CompilerOptions, OptLevel};
    use proptest::{any, prop_assert_eq, proptest, ProptestConfig, TestRng};

    /// The `format!` renderer the listing replaced, kept as its oracle.
    fn format_listing(artifact: &MagicArtifact) -> String {
        let mut out = String::from(".magic v1\n");
        let _ = writeln!(out, ".inputs {}", artifact.num_inputs);
        let _ = writeln!(out, ".cells {} (6 scratch)", artifact.cells);
        let width = artifact.ops.len().to_string().len().max(2);
        let src = |s: &Src| match *s {
            Src::Const(v) => format!("{}", u8::from(v)),
            Src::Input(i) => format!("i{}", i + 1),
            Src::Cell(r) => format!("r{r}"),
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
    /// three inputs over every `Src` form, and outputs of every `OutLoc`
    /// form. It need not run.
    fn arbitrary_artifact(rng: &mut TestRng, len: usize) -> MagicArtifact {
        let src = |rng: &mut TestRng| match below(rng, 3) {
            0 => Src::Const(below(rng, 2) == 1),
            1 => Src::Input(index(rng)),
            _ => Src::Cell(index(rng)),
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
            cells: index(rng),
            ops,
            outputs: outputs(rng),
            cost: Cost::default(),
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
