//! Compilation results.

use std::fmt;

use plim::endurance::EnduranceStats;
use plim::{Operand, Program, RamAddr};

/// Cost metrics of a compiled PLiM program (the paper's Table 1 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Rm3Stats {
    /// Number of RM3 instructions (`#I`).
    pub instructions: usize,
    /// Number of distinct work RRAMs allocated (`#R`).
    pub rams: u32,
    /// Number of MIG majority nodes translated (`#N`).
    pub mig_nodes: usize,
    /// Peak number of simultaneously live work RRAMs during translation.
    pub peak_live: usize,
    /// Highest per-cell write count of one execution (the wear of the
    /// endurance-limiting cell), recorded by the allocator's write counters
    /// and always equal to [`Rm3Program::static_endurance`]'s
    /// `max_writes`.
    pub max_cell_writes: u64,
}

impl fmt::Display for Rm3Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#N={} #I={} #R={} peak={} maxw={}",
            self.mig_nodes, self.instructions, self.rams, self.peak_live, self.max_cell_writes
        )
    }
}

/// A read of a work cell that no earlier instruction wrote, found by
/// [`Rm3Program::uninitialized_reads`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UninitializedRead {
    /// `Operand(pc, addr)`: instruction `pc` (0-based) reads operand cell
    /// `addr`.
    Operand(usize, RamAddr),
    /// `Destination(pc, addr)`: instruction `pc` is not masking, so its
    /// result depends on the old value of its destination `addr`.
    Destination(usize, RamAddr),
}

/// A compiled PLiM program together with its cost metrics.
#[derive(Debug, Clone)]
pub struct Rm3Program {
    /// The executable RM3 program (including output locations).
    pub program: Program,
    /// Cost metrics.
    pub stats: Rm3Stats,
}

impl Rm3Program {
    /// Per-cell write counts of a *single* execution, derived statically
    /// from the instruction sequence. Useful for endurance analysis without
    /// running the machine.
    pub fn static_write_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.program.num_rams() as usize];
        for instruction in self.program.instructions() {
            counts[instruction.z.index()] += 1;
        }
        counts
    }

    /// Endurance statistics of one execution, derived statically.
    pub fn static_endurance(&self) -> EnduranceStats {
        EnduranceStats::from_counts(&self.static_write_counts())
    }

    /// Every instruction's read of a never-written work cell, in program
    /// order.
    ///
    /// An instruction masks its destination (result independent of the
    /// old value) exactly when its constant operands satisfy `A = ¬B̄`,
    /// i.e. the pairs `(0, 1)` and `(1, 0)`: the reset/set idioms and
    /// constant loads. Any other instruction reads its destination.
    pub fn uninitialized_reads(&self) -> Vec<UninitializedRead> {
        let mut found = Vec::new();
        let mut written = vec![false; self.program.num_rams() as usize];
        for (pc, instruction) in self.program.instructions().iter().enumerate() {
            for operand in [instruction.a, instruction.b] {
                if let Operand::Ram(addr) = operand {
                    if !written[addr.index()] {
                        found.push(UninitializedRead::Operand(pc, addr));
                    }
                }
            }
            let masking = matches!(
                (instruction.a, instruction.b),
                (Operand::Const(a), Operand::Const(b)) if a != b
            );
            let addr = instruction.z;
            if !masking && !written[addr.index()] {
                found.push(UninitializedRead::Destination(pc, addr));
            }
            written[addr.index()] = true;
        }
        found
    }

    /// Number of instructions whose operands are both constants (array
    /// initialization traffic); the rest perform "real" logic.
    pub fn init_instruction_count(&self) -> usize {
        self.program
            .instructions()
            .iter()
            .filter(|i| matches!((i.a, i.b), (Operand::Const(_), Operand::Const(_))))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plim::{Instruction, RamAddr};

    #[test]
    fn static_write_counts_count_destinations() {
        let mut program = Program::new(0);
        program.push(Instruction::reset(RamAddr(0)));
        program.push(Instruction::reset(RamAddr(0)));
        program.push(Instruction::set(RamAddr(2)));
        let compiled = Rm3Program {
            program,
            stats: Rm3Stats::default(),
        };
        assert_eq!(compiled.static_write_counts(), vec![2, 0, 1]);
        assert_eq!(compiled.static_endurance().max_writes, 2);
        assert_eq!(compiled.init_instruction_count(), 3);
    }

    #[test]
    fn stats_display() {
        let stats = Rm3Stats {
            instructions: 10,
            rams: 3,
            mig_nodes: 4,
            peak_live: 2,
            max_cell_writes: 7,
        };
        let text = stats.to_string();
        assert!(text.contains("#I=10"));
        assert!(text.contains("#R=3"));
        assert!(text.contains("maxw=7"));
    }
}
