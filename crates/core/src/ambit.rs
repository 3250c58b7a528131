//! The `ambit` backend: bulk-bitwise in-DRAM majority (Ambit-style).
//!
//! Ambit computes bitwise Boolean functions inside DRAM by activating
//! rows: a **triple-row activation** (TRA) drives three rows onto the
//! shared bitlines simultaneously, and the charge-sharing result — the
//! bitwise majority of the three — is written back into *all three* rows
//! (the operation is destructive). RowClone provides fast row-to-row
//! copies, and dual-contact cells give an inverted read.
//!
//! Emission maps each RM3-shaped IR op `z ← ⟨a b̄ z⟩` onto that substrate:
//!
//! 1. copy operand `A` into scratch row `T0` (RowClone, or `set`/`reset`
//!    for constants),
//! 2. copy operand `B` **inverted** into `T1` (dual-contact read),
//! 3. copy the destination's old value into `T2`,
//! 4. `tra T0 T1 T2` — all three scratch rows now hold the majority,
//! 5. copy `T0` back into the destination row.
//!
//! Masking ops (both operands constant and differing — the reset/set
//! idioms) collapse to a single `set`/`reset` of the destination, since
//! `⟨a b̄ x⟩ = a` when `a = ¬b`.
//!
//! Work rows come from the compiler's allocator replay
//! ([`crate::ir::place`]), so placement honors the IR's lifetime
//! discipline; `T0`–`T2` live directly above the work region. The cost
//! model counts **row activations**: 1 per `set`/`reset`, 2 per copy
//! (activate source, activate destination), 3 per TRA. [`AMBIT_COST`]
//! prices a whole op so, and the replay scores streams with it.

use std::fmt::Write as _;

use plim::text;
use plim::wide::{poison, LaneWord, W256};
use plim::{Operand, OutputLoc, RamAddr};

use crate::backend::{Artifact, Backend, Cost, CostTable, InstructionInfo, OpCost, WorkRegion};
use crate::ir::{self, IrOp, IrProgram};
use crate::rows::{check_inputs, push_input, push_row, read_outputs, render_outputs};
use crate::verify::VerifyError;

/// Where a row operation reads from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// A primary-input row.
    Input(u32),
    /// A work or scratch row.
    Row(u32),
}

/// One Ambit instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Fill a row with all-ones.
    Set(u32),
    /// Fill a row with all-zeros.
    Reset(u32),
    /// RowClone copy into a row.
    Copy(Src, u32),
    /// Inverted (dual-contact) copy into a row.
    Not(Src, u32),
    /// Triple-row activation: all three rows ← their bitwise majority.
    Tra(u32, u32, u32),
}

/// Ambit's cost table, from its lowering of one IR op: a masking op is one
/// `set`/`reset` of the destination; any other is five row ops — two
/// transfers into `T0`/`T1` (a constant one a single-activation
/// `set`/`reset`), the copy of the destination into `T2`, the TRA, and the
/// copy back — for 2 + 2 + 2 + 3 + 2 activations, writing each scratch row
/// twice and the destination once.
const AMBIT_COST: CostTable = CostTable {
    masking: OpCost::ONE,
    other: OpCost {
        instructions: 5,
        units: 11,
        const_discount: 1,
        writes: 1,
    },
    scratch_rows: 3,
    scratch_writes: 2,
    work_region: WorkRegion::Requested,
};

/// The Ambit backend's instruction set.
const AMBIT_ISA: [InstructionInfo; 5] = [
    InstructionInfo {
        mnemonic: "set",
        cost: 1,
        summary: "fill a row with all-ones (one activation)",
    },
    InstructionInfo {
        mnemonic: "reset",
        cost: 1,
        summary: "fill a row with all-zeros (one activation)",
    },
    InstructionInfo {
        mnemonic: "copy",
        cost: 2,
        summary: "RowClone row-to-row copy (activate source, activate destination)",
    },
    InstructionInfo {
        mnemonic: "not",
        cost: 2,
        summary: "inverted copy through a dual-contact row",
    },
    InstructionInfo {
        mnemonic: "tra",
        cost: 3,
        summary: "triple-row activation: all three rows ← bitwise majority (destructive)",
    },
];

/// The Ambit-style bulk-bitwise DRAM backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct AmbitBackend;

impl Backend for AmbitBackend {
    fn name(&self) -> &'static str {
        "ambit"
    }

    fn description(&self) -> &'static str {
        "bulk-bitwise in-DRAM majority via triple-row activation (Ambit-style)"
    }

    fn instruction_set(&self) -> &'static [InstructionInfo] {
        &AMBIT_ISA
    }

    fn cost_table(&self) -> CostTable {
        AMBIT_COST
    }

    fn emit(&self, ir: &IrProgram) -> Box<dyn Artifact> {
        Box::new(lower(ir))
    }
}

/// An emitted Ambit program.
#[derive(Debug, Clone)]
pub struct AmbitArtifact {
    num_inputs: usize,
    ops: Vec<Op>,
    outputs: Vec<(String, OutputLoc)>,
    cost: Cost,
}

/// Bytes a listing line takes past its line number, as sized up front
/// (`copy r1234 r5678`).
const LINE_BYTES: usize = 17;

/// Lowers the IR event stream onto the Ambit substrate.
fn lower(ir: &IrProgram) -> AmbitArtifact {
    // The scratch group sits above the work region, which a first replay
    // sizes.
    let work_rows = ir::place(ir, AMBIT_COST, &mut ()).work_rows;
    let [t0, t1, t2] = [0, 1, 2].map(|k| work_rows + k);
    let mut ops = Vec::new();
    let src = |operand: Operand| match operand {
        Operand::Input(i) => Src::Input(i),
        Operand::Ram(r) => Src::Row(r.0),
        Operand::Const(_) => unreachable!("constants are lowered to set/reset"),
    };
    let mut sink = |op: &IrOp, z: RamAddr, a: Operand, b: Operand| {
        let z = z.0;
        if op.masking() {
            // ⟨a b̄ x⟩ = a when a = ¬b: a single row initialization.
            let Operand::Const(v) = a else {
                unreachable!("masking ops have constant operands")
            };
            ops.push(if v { Op::Set(z) } else { Op::Reset(z) });
            return;
        }
        match a {
            Operand::Const(v) => ops.push(if v { Op::Set(t0) } else { Op::Reset(t0) }),
            other => ops.push(Op::Copy(src(other), t0)),
        }
        match b {
            // B is inverted intrinsically by RM3; `set` for false keeps it so.
            Operand::Const(v) => ops.push(if v { Op::Reset(t1) } else { Op::Set(t1) }),
            other => ops.push(Op::Not(src(other), t1)),
        }
        ops.push(Op::Copy(Src::Row(z), t2));
        ops.push(Op::Tra(t0, t1, t2));
        ops.push(Op::Copy(Src::Row(t0), z));
    };
    let placement = ir::place(ir, AMBIT_COST, &mut sink);
    AmbitArtifact {
        num_inputs: ir.num_inputs,
        ops,
        outputs: placement.outputs,
        cost: placement.cost,
    }
}

impl Artifact for AmbitArtifact {
    fn target(&self) -> &'static str {
        "ambit"
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
        let _ = writeln!(out, ".ambit v1\n.inputs {}", self.num_inputs);
        let _ = writeln!(out, ".rows {} (3 scratch)", self.cost.footprint);
        let transfer = |out: &mut String, mnemonic: &str, s: Src, d: u32| {
            out.push_str(mnemonic);
            match s {
                Src::Input(i) => push_input(out, i),
                Src::Row(r) => push_row(out, r),
            }
            out.push(' ');
            push_row(out, d);
        };
        for (index, op) in self.ops.iter().enumerate() {
            text::push_line_number(&mut out, index + 1, width);
            match *op {
                Op::Set(r) => {
                    out.push_str("set ");
                    push_row(&mut out, r);
                }
                Op::Reset(r) => {
                    out.push_str("reset ");
                    push_row(&mut out, r);
                }
                Op::Copy(s, d) => transfer(&mut out, "copy ", s, d),
                Op::Not(s, d) => transfer(&mut out, "not ", s, d),
                Op::Tra(a, b, c) => {
                    out.push_str("tra ");
                    push_row(&mut out, a);
                    out.push(' ');
                    push_row(&mut out, b);
                    out.push(' ');
                    push_row(&mut out, c);
                }
            }
            out.push('\n');
        }
        render_outputs(&mut out, &self.outputs);
        out
    }

    fn stats_text(&self) -> String {
        format!(
            "target=ambit ops={} rows={} maxw={} activations={}\n",
            self.cost.instructions, self.cost.footprint, self.cost.wear, self.cost.units
        )
    }

    fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    fn run_wide(&self, inputs: &[W256]) -> Result<Vec<W256>, VerifyError> {
        check_inputs(self.num_inputs, inputs)?;
        let mut rows: Vec<W256> = (0..self.cost.footprint).map(poison).collect();
        let read = |s: Src, rows: &[W256]| match s {
            Src::Input(i) => inputs[i as usize],
            Src::Row(r) => rows[r as usize],
        };
        for op in &self.ops {
            match *op {
                Op::Set(r) => rows[r as usize] = W256::ones(),
                Op::Reset(r) => rows[r as usize] = W256::zero(),
                Op::Copy(s, d) => rows[d as usize] = read(s, &rows),
                Op::Not(s, d) => rows[d as usize] = !read(s, &rows),
                Op::Tra(a, b, c) => {
                    let (x, y, z) = (rows[a as usize], rows[b as usize], rows[c as usize]);
                    let maj = (x & y) | (x & z) | (y & z);
                    rows[a as usize] = maj;
                    rows[b as usize] = maj;
                    rows[c as usize] = maj;
                }
            }
        }
        Ok(read_outputs(&self.outputs, &rows, inputs))
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
    fn format_listing(artifact: &AmbitArtifact) -> String {
        let mut out = String::from(".ambit v1\n");
        let _ = writeln!(out, ".inputs {}", artifact.num_inputs);
        let _ = writeln!(out, ".rows {} (3 scratch)", artifact.cost.footprint);
        let width = artifact.ops.len().to_string().len().max(2);
        let src = |s: Src| match s {
            Src::Input(i) => format!("i{}", i + 1),
            Src::Row(r) => format!("r{r}"),
        };
        for (index, op) in artifact.ops.iter().enumerate() {
            let text = match *op {
                Op::Set(r) => format!("set r{r}"),
                Op::Reset(r) => format!("reset r{r}"),
                Op::Copy(s, d) => format!("copy {} r{d}", src(s)),
                Op::Not(s, d) => format!("not {} r{d}", src(s)),
                Op::Tra(a, b, c) => format!("tra r{a} r{b} r{c}"),
            };
            let _ = writeln!(out, "{:0width$}: {text}", index + 1);
        }
        format_outputs(&mut out, &artifact.outputs);
        out
    }

    /// An artifact of `len` random ops of every form over every `Src`
    /// form, and outputs of every `OutputLoc` form. It need not run.
    fn arbitrary_artifact(rng: &mut TestRng, len: usize) -> AmbitArtifact {
        let src = |rng: &mut TestRng| {
            if below(rng, 2) == 0 {
                Src::Input(index(rng))
            } else {
                Src::Row(index(rng))
            }
        };
        let ops = (0..len)
            .map(|_| match below(rng, 5) {
                0 => Op::Set(index(rng)),
                1 => Op::Reset(index(rng)),
                2 => Op::Copy(src(rng), index(rng)),
                3 => Op::Not(src(rng), index(rng)),
                _ => Op::Tra(index(rng), index(rng), index(rng)),
            })
            .collect();
        AmbitArtifact {
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
        let mut rng = TestRng::for_test("ambit_widths");
        for len in [99, 100, 99_999, 100_000] {
            let artifact = arbitrary_artifact(&mut rng, len);
            assert_eq!(artifact.listing(), format_listing(&artifact), "{len} ops");
        }
    }

    /// The cost the lowering counted from its op list before the replay
    /// priced ops, kept as the oracle of the cost table: writes per row
    /// (a TRA writes its three rows), activations per op, and the work
    /// region plus the scratch group once a TRA runs.
    fn recount(artifact: &AmbitArtifact, ir: &IrProgram) -> Cost {
        let scratch = artifact.ops.iter().any(|op| matches!(op, Op::Tra(..)));
        let footprint = oracle::work_rows(ir) + if scratch { 3 } else { 0 };
        let mut writes = vec![0u64; footprint as usize];
        let mut units = 0;
        for op in &artifact.ops {
            units += match *op {
                Op::Set(r) | Op::Reset(r) => {
                    writes[r as usize] += 1;
                    1
                }
                Op::Copy(_, r) | Op::Not(_, r) => {
                    writes[r as usize] += 1;
                    2
                }
                Op::Tra(a, b, c) => {
                    for r in [a, b, c] {
                        writes[r as usize] += 1;
                    }
                    3
                }
            };
        }
        Cost {
            instructions: artifact.ops.len(),
            footprint,
            wear: writes.iter().copied().max().unwrap_or(0),
            units,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The replay prices every stream — random logic under every
        /// allocator, at `-O0` and `-O2`, and a stream with a requested
        /// cell no op touches — as a recount of the emitted op list does.
        #[test]
        fn cost_matches_a_recount_of_the_emitted_ops(seed in any::<u64>()) {
            for ir in oracle::streams(seed, &AmbitBackend) {
                let artifact = lower(&ir);
                prop_assert_eq!(AmbitBackend.cost(&ir), recount(&artifact, &ir));
                prop_assert_eq!(artifact.cost, recount(&artifact, &ir));
            }
        }
    }

    fn fig3b() -> mig::Mig {
        let mut mig = mig::Mig::new();
        let i1 = mig.add_input("i1");
        let i2 = mig.add_input("i2");
        let i3 = mig.add_input("i3");
        let n1 = mig.maj(mig::Signal::FALSE, i1, i2);
        let n2 = mig.maj(mig::Signal::TRUE, !i2, i3);
        let n3 = mig.maj(i1, i2, i3);
        let n4 = mig.maj(mig::Signal::TRUE, n1, i3);
        let n5 = mig.maj(n1, !n2, n3);
        let n6 = mig.maj(n4, !n5, n1);
        mig.add_output("f", n6);
        mig
    }

    #[test]
    fn emits_equivalent_programs_at_every_opt_level() {
        let mig = fig3b();
        for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            let compilation = compile_full(&mig, CompilerOptions::new().opt(opt));
            let artifact = AmbitBackend.emit(&compilation.ir);
            verify_exhaustive(&mig, artifact.as_ref()).unwrap();
        }
    }

    #[test]
    fn cost_matches_the_emitted_artifact() {
        let mig = fig3b();
        let compilation = compile_full(&mig, CompilerOptions::new());
        let artifact = AmbitBackend.emit(&compilation.ir);
        assert_eq!(AmbitBackend.cost(&compilation.ir), artifact.cost());
        // Five row ops per non-masking RM3 op, one per masking op, so the
        // instruction count strictly exceeds RM3's.
        let rm3 = compilation.compiled.stats.instructions;
        assert!(artifact.cost().instructions > rm3);
        assert!(artifact.cost().units > artifact.cost().instructions as u64);
    }

    #[test]
    fn listing_names_the_scratch_group_and_outputs() {
        let mig = fig3b();
        let compilation = compile_full(&mig, CompilerOptions::new());
        let artifact = AmbitBackend.emit(&compilation.ir);
        let listing = artifact.listing();
        assert!(listing.starts_with(".ambit v1\n"), "{listing}");
        assert!(listing.contains("tra r"), "{listing}");
        assert!(listing.contains(".output f = "), "{listing}");
        assert_eq!(artifact.num_outputs(), 1);
        assert_eq!(artifact.target(), "ambit");
    }

    #[test]
    fn run_wide_rejects_wrong_input_counts() {
        let mig = fig3b();
        let compilation = compile_full(&mig, CompilerOptions::new());
        let artifact = AmbitBackend.emit(&compilation.ir);
        assert!(artifact.run_wide(&[W256::zero(); 2]).is_err());
    }

    #[test]
    fn passthrough_and_constant_outputs_survive() {
        let mut mig = mig::Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        mig.add_output("x", a);
        mig.add_output("nx", !a);
        mig.add_output("one", mig::Signal::TRUE);
        let f = mig.or(a, b);
        mig.add_output("f", f);
        let compilation = compile_full(&mig, CompilerOptions::new());
        let artifact = AmbitBackend.emit(&compilation.ir);
        verify_exhaustive(&mig, artifact.as_ref()).unwrap();
    }
}
