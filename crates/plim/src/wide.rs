//! Bit-parallel PLiM execution: many input patterns per instruction step.
//!
//! The scalar [`crate::Machine`] interprets one input vector at a time,
//! which is fine for spot checks but far too slow for exhaustive
//! equivalence over 2ⁿ input patterns or Monte-Carlo fault sweeps over
//! millions of invocations. The RM3 write is a pure bitwise function, so
//! it vectorizes trivially: store one *lane word* per cell instead of one
//! bool, where bit `k` of every word belongs to pattern `k`, and a single
//! `(a & !b) | (a & z) | (!b & z)` over whole words executes the
//! instruction for every pattern at once.
//!
//! [`WideMachine`] is generic over the lane word: `u64` gives 64 patterns
//! per step, [`W256`] packs 4×u64 for 256. The executor mirrors the scalar
//! machine exactly — same [`MachineError`] values, cells retained across
//! runs, write counters accumulating — so differential tests can compare
//! the two bit for bit. Write counters count *pattern executions*: one
//! wide write adds [`LaneWord::LANES`] to the destination cell's counter,
//! keeping wide totals equal to what the scalar machine would accumulate
//! running every lane separately.
//!
//! Fault injection hooks in through [`WriteHook`]: every value about to be
//! committed to a cell passes through the hook first, which lets a
//! scenario engine model stuck-at cells or probabilistically drifted
//! writes without the executor knowing anything about fault models.

use crate::endurance::EnduranceStats;
use crate::error::MachineError;
use crate::isa::{Instruction, Operand, OutputLoc, Program, RamAddr};
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// A machine word holding one bit per simulated input pattern (lane).
///
/// Implemented by `u64` (64 lanes) and [`W256`] (256 lanes). The bitwise
/// supertraits are all the executor needs to run RM3 across every lane in
/// one operation.
pub trait LaneWord:
    Copy
    + fmt::Debug
    + PartialEq
    + Eq
    + Not<Output = Self>
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
{
    /// Number of input patterns carried per word.
    const LANES: usize;

    /// Number of `u64` blocks per word (`LANES / 64`).
    const WORDS: usize;

    /// The all-zeros word.
    fn zero() -> Self;

    /// The all-ones word.
    fn ones() -> Self;

    /// Broadcasts one bit into every lane.
    fn splat(bit: bool) -> Self {
        if bit {
            Self::ones()
        } else {
            Self::zero()
        }
    }

    /// Builds a word from its `u64` blocks; `f(i)` supplies block `i`
    /// (block 0 holds lanes 0–63, block 1 lanes 64–127, …).
    fn from_blocks(f: impl FnMut(usize) -> u64) -> Self;

    /// The `u64` block at `index` (lanes `64·index .. 64·index + 64`).
    fn block(self, index: usize) -> u64;

    /// The bit carried by `lane`.
    fn lane(self, lane: usize) -> bool {
        self.block(lane / 64) >> (lane % 64) & 1 == 1
    }

    /// Number of set bits across all lanes.
    fn count_ones(self) -> u32 {
        (0..Self::WORDS).map(|i| self.block(i).count_ones()).sum()
    }
}

impl LaneWord for u64 {
    const LANES: usize = 64;
    const WORDS: usize = 1;

    fn zero() -> Self {
        0
    }

    fn ones() -> Self {
        u64::MAX
    }

    fn from_blocks(mut f: impl FnMut(usize) -> u64) -> Self {
        f(0)
    }

    fn block(self, index: usize) -> u64 {
        debug_assert_eq!(index, 0);
        self
    }
}

/// A 256-lane word: four `u64` blocks operated on element-wise.
///
/// Wide enough that the compiler can keep the whole RM3 update in vector
/// registers on AVX2-class hardware, while staying plain portable Rust.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct W256(pub [u64; 4]);

macro_rules! w256_bitop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for W256 {
            type Output = W256;
            fn $method(self, rhs: W256) -> W256 {
                W256([
                    self.0[0] $op rhs.0[0],
                    self.0[1] $op rhs.0[1],
                    self.0[2] $op rhs.0[2],
                    self.0[3] $op rhs.0[3],
                ])
            }
        }
    };
}

w256_bitop!(BitAnd, bitand, &);
w256_bitop!(BitOr, bitor, |);
w256_bitop!(BitXor, bitxor, ^);

impl Not for W256 {
    type Output = W256;
    fn not(self) -> W256 {
        W256([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }
}

impl LaneWord for W256 {
    const LANES: usize = 256;
    const WORDS: usize = 4;

    fn zero() -> Self {
        W256([0; 4])
    }

    fn ones() -> Self {
        W256([u64::MAX; 4])
    }

    fn from_blocks(mut f: impl FnMut(usize) -> u64) -> Self {
        W256([f(0), f(1), f(2), f(3)])
    }

    fn block(self, index: usize) -> u64 {
        self.0[index]
    }
}

/// The word a verification run preloads into never-written cell `cell`:
/// nonzero and different per cell, so a read of a cell the program never
/// wrote cannot masquerade as a correct zero. Every target's executor
/// starts from this image.
pub fn poison<W: LaneWord>(cell: u32) -> W {
    W::from_blocks(|_| 0xAAAA_AAAA_AAAA_AAAA ^ u64::from(cell))
}

/// Intercepts every value about to be written to a work cell.
///
/// The hook sees the *post-majority* value and returns what is actually
/// committed, so a scenario engine can model stuck-at cells (ignore the
/// value, return the stuck level) or drifted writes (flip a random subset
/// of lanes) without the executor carrying any fault-model code.
pub trait WriteHook<W: LaneWord> {
    /// Transforms `value` on its way into cell `addr`.
    fn transform(&mut self, addr: RamAddr, value: W) -> W;
}

/// The identity hook: every write commits unmodified.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl<W: LaneWord> WriteHook<W> for NoFaults {
    fn transform(&mut self, _addr: RamAddr, value: W) -> W {
        value
    }
}

/// The bit-parallel PLiM machine: each work cell stores one lane word,
/// executing [`LaneWord::LANES`] input patterns per instruction step.
///
/// # Examples
///
/// The same `a ∧ b̄` program as the scalar [`crate::Machine`] docs, over
/// 64 patterns at once:
///
/// ```
/// use plim::wide::{LaneWord, WideMachine};
/// use plim::{Instruction, Operand, OutputLoc, Program, RamAddr};
///
/// let mut p = Program::new(2);
/// p.push(Instruction::reset(RamAddr(0)));
/// p.push(Instruction::new(Operand::Input(0), Operand::Input(1), RamAddr(0)));
/// p.add_output("f", OutputLoc::Ram(RamAddr(0)));
///
/// let mut machine = WideMachine::<u64>::new();
/// let outputs = machine.run(&p, &[0b0110, 0b1010]).unwrap();
/// assert_eq!(outputs[0] & 0b1111, 0b0100); // a ∧ b̄ per lane
/// ```
#[derive(Debug, Clone)]
pub struct WideMachine<W> {
    cells: Vec<W>,
    write_counts: Vec<u64>,
    inputs: Vec<W>,
    cycles: u64,
}

impl<W: LaneWord> WideMachine<W> {
    /// Creates a machine with no cells; the array grows on demand when a
    /// program is loaded.
    pub fn new() -> Self {
        WideMachine {
            cells: Vec::new(),
            write_counts: Vec::new(),
            inputs: Vec::new(),
            cycles: 0,
        }
    }

    /// Creates a machine whose `count` work cells hold the [`poison`]
    /// image (write counters start at zero).
    pub fn poisoned(count: u32) -> Self {
        WideMachine {
            cells: (0..count).map(poison).collect(),
            write_counts: vec![0; count as usize],
            inputs: Vec::new(),
            cycles: 0,
        }
    }

    /// Loads primary-input lane words into the input region.
    pub fn load_inputs(&mut self, inputs: &[W]) {
        self.inputs = inputs.to_vec();
    }

    /// Ensures the work array has at least `count` cells (new cells are 0).
    pub fn ensure_cells(&mut self, count: usize) {
        if self.cells.len() < count {
            self.cells.resize(count, W::zero());
            self.write_counts.resize(count, 0);
        }
    }

    /// The current lane word of a work cell.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::AddressOutOfRange`] for unallocated cells.
    pub fn cell(&self, addr: RamAddr) -> Result<W, MachineError> {
        self.cells
            .get(addr.index())
            .copied()
            .ok_or(MachineError::AddressOutOfRange { addr })
    }

    /// Writes a work cell directly (standard-RAM mode, `LiM = 0`),
    /// counting [`LaneWord::LANES`] pattern writes toward endurance.
    pub fn write_cell(&mut self, addr: RamAddr, value: W) {
        self.ensure_cells(addr.index() + 1);
        self.cells[addr.index()] = value;
        self.write_counts[addr.index()] += W::LANES as u64;
    }

    /// Number of LiM cycles (wide RM3 instructions) executed so far.
    #[inline]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Per-cell write counters in *pattern executions*: one wide write
    /// adds [`LaneWord::LANES`], so totals match a scalar machine running
    /// every lane separately.
    #[inline]
    pub fn write_counts(&self) -> &[u64] {
        &self.write_counts
    }

    /// Endurance statistics over all work cells (pattern-execution units).
    pub fn endurance(&self) -> EnduranceStats {
        EnduranceStats::from_counts(&self.write_counts)
    }

    fn operand_value(&self, operand: Operand) -> Result<W, MachineError> {
        match operand {
            Operand::Const(v) => Ok(W::splat(v)),
            Operand::Input(i) => self
                .inputs
                .get(i as usize)
                .copied()
                .ok_or(MachineError::InputOutOfRange { index: i }),
            Operand::Ram(addr) => self.cell(addr),
        }
    }

    /// Executes one RM3 instruction across all lanes: `Z ← ⟨A B̄ Z⟩`,
    /// routing the committed value through `hook`.
    ///
    /// # Errors
    ///
    /// Same failure modes as the scalar [`crate::Machine::step`].
    pub fn step_hooked(
        &mut self,
        instruction: Instruction,
        hook: &mut impl WriteHook<W>,
    ) -> Result<(), MachineError> {
        let a = self.operand_value(instruction.a)?;
        let b = self.operand_value(instruction.b)?;
        let z = self.cell(instruction.z)?;
        let not_b = !b;
        let result = (a & not_b) | (a & z) | (not_b & z);
        self.cells[instruction.z.index()] = hook.transform(instruction.z, result);
        self.write_counts[instruction.z.index()] += W::LANES as u64;
        self.cycles += 1;
        Ok(())
    }

    /// Executes one RM3 instruction across all lanes without faults.
    ///
    /// # Errors
    ///
    /// Same failure modes as the scalar [`crate::Machine::step`].
    pub fn step(&mut self, instruction: Instruction) -> Result<(), MachineError> {
        self.step_hooked(instruction, &mut NoFaults)
    }

    /// Runs a whole program on lane-word inputs and reads back the
    /// declared outputs, routing every committed write through `hook`.
    ///
    /// Exactly like the scalar [`crate::Machine::run`], the work array is
    /// sized to the program's RRAM count and **not** cleared between runs;
    /// write counters accumulate.
    ///
    /// # Errors
    ///
    /// Returns an error if the input count mismatches or an operand is
    /// invalid — the same [`MachineError`] values as the scalar machine.
    pub fn run_hooked(
        &mut self,
        program: &Program,
        inputs: &[W],
        hook: &mut impl WriteHook<W>,
    ) -> Result<Vec<W>, MachineError> {
        if inputs.len() != program.num_inputs() {
            return Err(MachineError::InputCountMismatch {
                expected: program.num_inputs(),
                got: inputs.len(),
            });
        }
        self.load_inputs(inputs);
        self.ensure_cells(program.num_rams() as usize);
        for &instruction in program.instructions() {
            self.step_hooked(instruction, hook)?;
        }
        program
            .outputs()
            .iter()
            .map(|(_, loc)| match *loc {
                OutputLoc::Ram(addr) => self.cell(addr),
                OutputLoc::Const(v) => Ok(W::splat(v)),
                OutputLoc::Input {
                    index,
                    complemented,
                } => self
                    .inputs
                    .get(index as usize)
                    .copied()
                    .map(|v| v ^ W::splat(complemented))
                    .ok_or(MachineError::InputOutOfRange { index }),
            })
            .collect()
    }

    /// Runs a whole program without faults.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`WideMachine::run_hooked`].
    pub fn run(&mut self, program: &Program, inputs: &[W]) -> Result<Vec<W>, MachineError> {
        self.run_hooked(program, inputs, &mut NoFaults)
    }
}

impl<W: LaneWord> Default for WideMachine<W> {
    fn default() -> Self {
        WideMachine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rm3_semantics_match_scalar_on_every_lane() {
        // Drive all eight (a, b, z) combinations in eight distinct lanes
        // of one wide step and check each against the scalar formula.
        let a_word: u64 = 0b10101010;
        let b_word: u64 = 0b11001100;
        let z_word: u64 = 0b11110000;
        let mut machine = WideMachine::<u64>::new();
        machine.write_cell(RamAddr(0), z_word);
        machine.load_inputs(&[a_word, b_word]);
        machine
            .step(Instruction::new(
                Operand::Input(0),
                Operand::Input(1),
                RamAddr(0),
            ))
            .unwrap();
        let result = machine.cell(RamAddr(0)).unwrap();
        for lane in 0..8 {
            let (a, b, z) = (a_word.lane(lane), b_word.lane(lane), z_word.lane(lane));
            let expected = (a & !b) | (a & z) | (!b & z);
            assert_eq!(result.lane(lane), expected, "lane {lane}");
        }
    }

    #[test]
    fn reset_and_set_idioms_cover_all_lanes() {
        let mut machine = WideMachine::<W256>::new();
        machine.write_cell(RamAddr(0), W256([0xDEAD, 0xBEEF, 0, u64::MAX]));
        machine.step(Instruction::reset(RamAddr(0))).unwrap();
        assert_eq!(machine.cell(RamAddr(0)).unwrap(), W256::zero());
        machine.step(Instruction::set(RamAddr(0))).unwrap();
        assert_eq!(machine.cell(RamAddr(0)).unwrap(), W256::ones());
    }

    #[test]
    fn run_checks_input_count_like_scalar() {
        let p = Program::new(3);
        let mut machine = WideMachine::<u64>::new();
        let err = machine.run(&p, &[1]).unwrap_err();
        assert_eq!(
            err,
            MachineError::InputCountMismatch {
                expected: 3,
                got: 1
            }
        );
    }

    #[test]
    fn step_rejects_unallocated_cell_and_missing_input() {
        let mut machine = WideMachine::<u64>::new();
        let err = machine.step(Instruction::reset(RamAddr(5))).unwrap_err();
        assert_eq!(err, MachineError::AddressOutOfRange { addr: RamAddr(5) });
        machine.ensure_cells(1);
        let err = machine
            .step(Instruction::new(
                Operand::Input(2),
                Operand::Const(false),
                RamAddr(0),
            ))
            .unwrap_err();
        assert_eq!(err, MachineError::InputOutOfRange { index: 2 });
    }

    #[test]
    fn write_counts_are_lane_adjusted() {
        let mut machine = WideMachine::<u64>::new();
        machine.ensure_cells(2);
        for _ in 0..5 {
            machine.step(Instruction::reset(RamAddr(0))).unwrap();
        }
        machine.step(Instruction::reset(RamAddr(1))).unwrap();
        assert_eq!(machine.write_counts()[0], 5 * 64);
        assert_eq!(machine.write_counts()[1], 64);
        assert_eq!(machine.cycles(), 6);
        let mut wide256 = WideMachine::<W256>::new();
        wide256.ensure_cells(1);
        wide256.step(Instruction::reset(RamAddr(0))).unwrap();
        assert_eq!(wide256.write_counts()[0], 256);
    }

    #[test]
    fn output_locations_resolve_per_lane() {
        let mut p = Program::new(2);
        p.push(Instruction::reset(RamAddr(0)));
        p.add_output("r", OutputLoc::Ram(RamAddr(0)));
        p.add_output("c", OutputLoc::Const(true));
        p.add_output(
            "i",
            OutputLoc::Input {
                index: 1,
                complemented: true,
            },
        );
        let mut machine = WideMachine::<u64>::new();
        let outputs = machine.run(&p, &[0, 0b1010]).unwrap();
        assert_eq!(outputs, vec![0, u64::MAX, !0b1010]);
    }

    #[test]
    fn stuck_at_hook_overrides_writes() {
        struct StuckHigh(RamAddr);
        impl WriteHook<u64> for StuckHigh {
            fn transform(&mut self, addr: RamAddr, value: u64) -> u64 {
                if addr == self.0 {
                    u64::MAX
                } else {
                    value
                }
            }
        }
        let mut p = Program::new(0);
        p.push(Instruction::reset(RamAddr(0)));
        p.push(Instruction::reset(RamAddr(1)));
        p.add_output("f", OutputLoc::Ram(RamAddr(0)));
        p.add_output("g", OutputLoc::Ram(RamAddr(1)));
        let mut machine = WideMachine::<u64>::new();
        let outputs = machine
            .run_hooked(&p, &[], &mut StuckHigh(RamAddr(0)))
            .unwrap();
        assert_eq!(outputs, vec![u64::MAX, 0]);
    }

    #[test]
    fn lane_word_blocks_round_trip() {
        let w = W256::from_blocks(|i| i as u64 + 1);
        assert_eq!(w, W256([1, 2, 3, 4]));
        assert_eq!(w.block(2), 3);
        assert!(w.lane(128)); // block 2, bit 0 — value 3 has bit 0 set
        assert!(!w.lane(1));
        assert_eq!(w.count_ones(), 1 + 1 + 2 + 1);
        assert_eq!(<u64 as LaneWord>::from_blocks(|_| 42), 42);
        assert_eq!(7u64.block(0), 7);
        assert_eq!(W256::splat(true), W256::ones());
        assert_eq!(W256::splat(false), W256::zero());
    }

    #[test]
    fn cells_retain_values_across_runs() {
        // Matching the scalar machine: no clearing between runs.
        let mut p = Program::new(0);
        p.push(Instruction::set(RamAddr(0)));
        p.add_output("f", OutputLoc::Ram(RamAddr(0)));
        let mut machine = WideMachine::<u64>::new();
        machine.run(&p, &[]).unwrap();
        let mut probe = Program::new(0);
        probe.add_output("f", OutputLoc::Ram(RamAddr(0)));
        // The cell written by the previous run is still set.
        assert_eq!(machine.run(&probe, &[]).unwrap(), vec![u64::MAX]);
    }
}
