//! Monte-Carlo fault injection against the bit-parallel executor.
//!
//! Two physical fault classes of resistive memories are modelled, both
//! injected through [`plim::wide::WriteHook`] so the executor itself
//! stays fault-agnostic:
//!
//! * **stuck-at cells** — a cell whose resistive state no longer
//!   switches; every write to it commits the stuck level instead of the
//!   majority result (the fault takes effect from the first write, which
//!   compiled programs issue before any read, per the compiler's
//!   initialization discipline);
//! * **drifted writes** — every committed bit flips independently with a
//!   small probability, modelling disturbed or incomplete switching.
//!
//! A sweep runs the same seeded random input patterns through a fault-free
//! and a faulty machine and reports how often outputs differ. Randomness
//! is drawn from per-block [`XorShift64::for_stream`] substreams, so the
//! report is reproducible bit-for-bit for a given seed regardless of how
//! many worker threads execute the blocks.

use mig::simulate::XorShift64;
use plim::wide::{LaneWord, WideMachine, WriteHook, W256};
use plim::{MachineError, Program, RamAddr};
use plim_parallel::{par_map, Parallelism};

use crate::random::BiasedBits;

/// The fault classes injected into a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultModel {
    /// Cells stuck at a level: every write commits the level instead of
    /// the computed value.
    pub stuck: Vec<(RamAddr, bool)>,
    /// Per-write probability that each committed bit flips.
    pub drift_probability: f64,
}

impl FaultModel {
    /// A pure drifted-write model.
    pub fn drift(probability: f64) -> Self {
        FaultModel {
            stuck: Vec::new(),
            drift_probability: probability,
        }
    }

    /// A single stuck-at cell.
    pub fn stuck_at(addr: RamAddr, level: bool) -> Self {
        FaultModel {
            stuck: vec![(addr, level)],
            drift_probability: 0.0,
        }
    }
}

/// A [`WriteHook`] applying a [`FaultModel`]: drift first (the write
/// lands disturbed), then stuck-at (a dead cell ignores the write
/// entirely).
#[derive(Debug)]
pub struct FaultHook<'m> {
    model: &'m FaultModel,
    bias: BiasedBits,
    rng: XorShift64,
}

impl<'m> FaultHook<'m> {
    /// Creates a hook drawing drift randomness from `rng`.
    pub fn new(model: &'m FaultModel, rng: XorShift64) -> Self {
        FaultHook {
            model,
            bias: BiasedBits::new(model.drift_probability),
            rng,
        }
    }
}

impl<W: LaneWord> WriteHook<W> for FaultHook<'_> {
    fn transform(&mut self, addr: RamAddr, value: W) -> W {
        let mut committed = value;
        if !self.bias.is_zero() {
            committed = committed ^ self.bias.draw(&mut self.rng);
        }
        for &(stuck_addr, level) in &self.model.stuck {
            if stuck_addr == addr {
                committed = W::splat(level);
            }
        }
        committed
    }
}

/// Everything shaping one fault sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScenario {
    /// The injected faults.
    pub model: FaultModel,
    /// Random input patterns to simulate (rounded up to a multiple of the
    /// 256-lane block size).
    pub patterns: u64,
    /// Master seed; every report is a pure function of it.
    pub seed: u64,
    /// Worker threads for the block fan-out (the result does not depend
    /// on the choice).
    pub parallelism: Parallelism,
}

impl Default for FaultScenario {
    fn default() -> Self {
        FaultScenario {
            model: FaultModel::default(),
            patterns: 4096,
            seed: 0xDAC2016,
            parallelism: Parallelism::Auto,
        }
    }
}

/// Measured outcome of a fault sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Input patterns simulated.
    pub patterns: u64,
    /// Patterns on which at least one output differed.
    pub erroneous_patterns: u64,
    /// Output bits compared (`patterns × outputs`).
    pub output_bits: u64,
    /// Output bits that differed.
    pub erroneous_bits: u64,
}

impl FaultReport {
    /// Fraction of patterns with at least one wrong output.
    pub fn error_rate(&self) -> f64 {
        if self.patterns == 0 {
            0.0
        } else {
            self.erroneous_patterns as f64 / self.patterns as f64
        }
    }

    /// Fraction of individual output bits that were wrong.
    pub fn bit_error_rate(&self) -> f64 {
        if self.output_bits == 0 {
            0.0
        } else {
            self.erroneous_bits as f64 / self.output_bits as f64
        }
    }
}

/// The 256-lane word whose first `lanes` lanes are 1.
fn lane_mask(lanes: u64) -> W256 {
    W256::from_blocks(|block| {
        let low = block as u64 * 64;
        if lanes >= low + 64 {
            !0
        } else if lanes <= low {
            0
        } else {
            (1u64 << (lanes - low)) - 1
        }
    })
}

/// Runs `scenario.patterns` seeded random input patterns through a
/// fault-free and a faulted execution of `program` and reports the
/// measured output-error rates.
///
/// # Errors
///
/// Returns the underlying [`MachineError`] if the program is malformed
/// (references a missing input, for instance) — compiled programs never
/// trigger this.
pub fn fault_sweep(
    program: &Program,
    scenario: &FaultScenario,
) -> Result<FaultReport, MachineError> {
    let n = program.num_inputs();
    let lanes = W256::LANES as u64;
    let blocks: Vec<u64> = (0..scenario.patterns.div_ceil(lanes)).collect();
    let outputs = program.outputs().len() as u64;
    let per_block = par_map(&blocks, scenario.parallelism, |_, &block| {
        let mut input_rng = XorShift64::for_stream(scenario.seed, 2 * block);
        let inputs: Vec<W256> = (0..n)
            .map(|_| W256::from_blocks(|_| input_rng.next_word()))
            .collect();
        let mut clean = WideMachine::<W256>::new();
        let expected = clean.run(program, &inputs)?;
        let mut faulty = WideMachine::<W256>::new();
        let mut hook = FaultHook::new(
            &scenario.model,
            XorShift64::for_stream(scenario.seed, 2 * block + 1),
        );
        let got = faulty.run_hooked(program, &inputs, &mut hook)?;
        let live = lane_mask((scenario.patterns - block * lanes).min(lanes));
        let mut any_diff = W256::zero();
        let mut bits = 0u64;
        for (&e, &g) in expected.iter().zip(&got) {
            let diff = (e ^ g) & live;
            any_diff = any_diff | diff;
            bits += u64::from(diff.count_ones());
        }
        Ok((
            u64::from(any_diff.count_ones()),
            bits,
            (scenario.patterns - block * lanes).min(lanes),
        ))
    });
    let mut report = FaultReport::default();
    for outcome in per_block {
        let (wrong_patterns, wrong_bits, live_lanes) = outcome?;
        report.patterns += live_lanes;
        report.erroneous_patterns += wrong_patterns;
        report.output_bits += live_lanes * outputs;
        report.erroneous_bits += wrong_bits;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plim::{Instruction, Operand, OutputLoc};

    /// `f = i1` through one work cell.
    fn copy_program() -> Program {
        let mut p = Program::new(1);
        p.push(Instruction::set(RamAddr(0)));
        p.push(Instruction::new(
            Operand::Input(0),
            Operand::Const(true),
            RamAddr(0),
        ));
        p.add_output("f", OutputLoc::Ram(RamAddr(0)));
        p
    }

    #[test]
    fn benign_model_measures_zero_errors() {
        let report = fault_sweep(&copy_program(), &FaultScenario::default()).unwrap();
        assert_eq!(report.patterns, 4096);
        assert_eq!(report.erroneous_patterns, 0);
        assert_eq!(report.error_rate(), 0.0);
        assert_eq!(report.output_bits, 4096);
    }

    #[test]
    fn stuck_output_cell_shows_errors() {
        let scenario = FaultScenario {
            model: FaultModel::stuck_at(RamAddr(0), false),
            ..FaultScenario::default()
        };
        let report = fault_sweep(&copy_program(), &scenario).unwrap();
        // The output cell is stuck at 0, so every pattern with i1 = 1 is
        // wrong: about half of them.
        assert!(report.error_rate() > 0.4 && report.error_rate() < 0.6);
        assert_eq!(report.erroneous_bits, report.erroneous_patterns);
    }

    #[test]
    fn drift_rate_tracks_probability() {
        let scenario = FaultScenario {
            model: FaultModel::drift(0.05),
            patterns: 16384,
            ..FaultScenario::default()
        };
        let report = fault_sweep(&copy_program(), &scenario).unwrap();
        // Output = a & z with z set by the first write. For a = 0 the
        // output is wrong iff the final write drifts (p); for a = 1 iff
        // exactly one of the two writes drifts (2p(1-p)). Expected rate
        // = p/2 + p(1-p) = 0.0725 at p = 0.05.
        let expected = 0.05 / 2.0 + 0.05 * 0.95;
        assert!(
            (report.error_rate() - expected).abs() < 0.01,
            "rate {}",
            report.error_rate()
        );
    }

    #[test]
    fn reports_are_thread_count_invariant() {
        let base = FaultScenario {
            model: FaultModel::drift(0.01),
            patterns: 2048,
            seed: 7,
            parallelism: Parallelism::Serial,
        };
        let serial = fault_sweep(&copy_program(), &base).unwrap();
        for workers in [2, 5, 16] {
            let scenario = FaultScenario {
                parallelism: Parallelism::Threads(workers),
                ..base.clone()
            };
            assert_eq!(serial, fault_sweep(&copy_program(), &scenario).unwrap());
        }
    }

    #[test]
    fn partial_final_block_is_masked() {
        let scenario = FaultScenario {
            model: FaultModel::stuck_at(RamAddr(0), false),
            patterns: 300, // 256 + 44: the second block is partial
            ..FaultScenario::default()
        };
        let report = fault_sweep(&copy_program(), &scenario).unwrap();
        assert_eq!(report.patterns, 300);
        assert_eq!(report.output_bits, 300);
        assert!(report.erroneous_patterns <= 300);
    }

    #[test]
    fn malformed_program_propagates_machine_error() {
        let mut p = Program::new(0);
        p.push(Instruction::new(
            Operand::Input(3),
            Operand::Const(false),
            RamAddr(0),
        ));
        let err = fault_sweep(&p, &FaultScenario::default()).unwrap_err();
        assert_eq!(err, MachineError::InputOutOfRange { index: 3 });
    }

    #[test]
    fn lane_masks_cover_boundaries() {
        assert_eq!(lane_mask(0), W256::zero());
        assert_eq!(lane_mask(256), W256::ones());
        assert_eq!(lane_mask(64), W256([!0, 0, 0, 0]));
        assert_eq!(lane_mask(65), W256([!0, 1, 0, 0]));
        assert_eq!(lane_mask(63).count_ones(), 63);
    }
}
