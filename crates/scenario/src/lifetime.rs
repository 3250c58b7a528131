//! Device-lifetime simulation: how many invocations until a cell dies.
//!
//! Every RM3 instruction writes its destination cell exactly once, so a
//! program's per-invocation wear profile is static — the number of
//! instructions targeting each cell. A cell *dies* when its accumulated
//! wear exceeds the endurance budget, and the simulation reports the
//! number of invocations completed before the first death.
//!
//! Two regimes:
//!
//! * **noise = 0** — wear is purely linear, so the lifetime has the
//!   closed form `min_c ⌊budget / writes_per_invocation(c)⌋`, consistent
//!   with [`plim::EnduranceStats::lifetime_executions`]. Millions of
//!   invocations cost nothing to "simulate".
//! * **noise > 0** — each write additionally wears its cell by one extra
//!   unit with probability `write_noise` (modelling harsh SET/RESET
//!   cycles). Invocations are simulated 64 at a time as lanes of biased
//!   `u64` draws, with per-block seeded [`XorShift64::for_stream`]
//!   substreams, and the dying invocation is resolved to the exact lane.

use mig::simulate::XorShift64;
use plim::{Program, RamAddr};

use crate::random::BiasedBits;

/// Everything shaping one lifetime simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeScenario {
    /// Endurance budget per cell: a cell dies when its wear exceeds this.
    pub cell_endurance: u64,
    /// Stop after this many successful invocations even if no cell died.
    pub max_invocations: u64,
    /// Per-write probability of one extra unit of wear (0 = ideal
    /// devices, closed-form lifetime).
    pub write_noise: f64,
    /// Master seed for the noisy regime.
    pub seed: u64,
}

impl Default for LifetimeScenario {
    fn default() -> Self {
        LifetimeScenario {
            cell_endurance: 1_000_000,
            max_invocations: 10_000_000,
            write_noise: 0.0,
            seed: 0xDAC2016,
        }
    }
}

/// Outcome of a lifetime simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifetimeReport {
    /// Invocations completed before the first cell death (capped at the
    /// scenario's `max_invocations`).
    pub invocations: u64,
    /// The first cell whose wear exceeded the budget, or `None` if the
    /// simulation hit `max_invocations` with every cell alive.
    pub first_dead_cell: Option<RamAddr>,
    /// Wear of the hottest cell when the simulation stopped.
    pub peak_wear: u64,
}

/// Writes per invocation for every cell (instructions targeting it).
fn static_write_counts(program: &Program) -> Vec<u64> {
    let mut counts = vec![0u64; program.num_rams() as usize];
    for inst in program.instructions() {
        counts[inst.z.0 as usize] += 1;
    }
    counts
}

/// Simulates repeated invocations of `program` under `scenario` and
/// reports the device lifetime.
pub fn simulate_lifetime(program: &Program, scenario: &LifetimeScenario) -> LifetimeReport {
    let counts = static_write_counts(program);
    let bias = BiasedBits::new(scenario.write_noise);
    if bias.is_zero() {
        return closed_form(&counts, scenario);
    }
    noisy_simulation(&counts, bias, scenario)
}

/// Ideal devices: lifetime is `min_c ⌊budget / counts[c]⌋`.
fn closed_form(counts: &[u64], scenario: &LifetimeScenario) -> LifetimeReport {
    let mut lifetime = scenario.max_invocations;
    let mut first_dead = None;
    for (cell, &writes) in counts.iter().enumerate() {
        if writes == 0 {
            continue;
        }
        let survives = scenario.cell_endurance / writes;
        if survives < lifetime {
            lifetime = survives;
            first_dead = Some(RamAddr(cell as u32));
        }
    }
    let peak = counts.iter().max().copied().unwrap_or(0) * lifetime;
    LifetimeReport {
        invocations: lifetime,
        first_dead_cell: first_dead,
        peak_wear: peak,
    }
}

/// Noisy devices: 64 invocations per block, one biased `u64` draw per
/// write slot (lane *k* = invocation *k*'s extra wear for that write).
fn noisy_simulation(
    counts: &[u64],
    bias: BiasedBits,
    scenario: &LifetimeScenario,
) -> LifetimeReport {
    let budget = scenario.cell_endurance;
    let mut wear = vec![0u64; counts.len()];
    let mut done = 0u64;
    let mut block = 0u64;
    // One draw buffer per cell: extra-wear counts for each of the 64
    // lanes of the current block.
    let mut extra = vec![[0u32; 64]; counts.len()];
    while done < scenario.max_invocations {
        let lanes = (scenario.max_invocations - done).min(64);
        let mut rng = XorShift64::for_stream(scenario.seed, block);
        for (cell, &writes) in counts.iter().enumerate() {
            extra[cell] = [0u32; 64];
            for _ in 0..writes {
                let word: u64 = bias.draw(&mut rng);
                let mut bits = word & lane_mask64(lanes);
                while bits != 0 {
                    let lane = bits.trailing_zeros() as usize;
                    extra[cell][lane] += 1;
                    bits &= bits - 1;
                }
            }
        }
        // Fast path: does any cell die within this block at all?
        let block_kills = counts.iter().enumerate().any(|(cell, &writes)| {
            let total_extra: u64 = extra[cell][..lanes as usize]
                .iter()
                .map(|&e| u64::from(e))
                .sum();
            wear[cell] + lanes * writes + total_extra > budget
        });
        if !block_kills {
            for (cell, &writes) in counts.iter().enumerate() {
                let total_extra: u64 = extra[cell][..lanes as usize]
                    .iter()
                    .map(|&e| u64::from(e))
                    .sum();
                wear[cell] += lanes * writes + total_extra;
            }
            done += lanes;
            block += 1;
            continue;
        }
        // Resolve the exact dying lane: walk invocations in order and
        // find the first one that pushes some cell past the budget. The
        // lane is a cross-cell coordinate into every `extra` row, so an
        // iterator over one row cannot replace the index.
        #[allow(clippy::needless_range_loop)]
        for lane in 0..lanes as usize {
            for (cell, &writes) in counts.iter().enumerate() {
                wear[cell] += writes + u64::from(extra[cell][lane]);
            }
            if let Some(dead) = wear.iter().position(|&w| w > budget) {
                return LifetimeReport {
                    invocations: done + lane as u64,
                    first_dead_cell: Some(RamAddr(dead as u32)),
                    peak_wear: wear.iter().max().copied().unwrap_or(0),
                };
            }
        }
        unreachable!("a block that kills must contain a dying lane");
    }
    LifetimeReport {
        invocations: done,
        first_dead_cell: None,
        peak_wear: wear.iter().max().copied().unwrap_or(0),
    }
}

/// The `u64` whose low `lanes` bits are 1.
fn lane_mask64(lanes: u64) -> u64 {
    if lanes >= 64 {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plim::{EnduranceStats, Instruction, Operand, OutputLoc};

    /// Three instructions: two writes to cell 0, one to cell 1.
    fn skewed_program() -> Program {
        let mut p = Program::new(1);
        p.push(Instruction::set(RamAddr(0)));
        p.push(Instruction::new(
            Operand::Input(0),
            Operand::Const(true),
            RamAddr(0),
        ));
        p.push(Instruction::set(RamAddr(1)));
        p.add_output("f", OutputLoc::Ram(RamAddr(0)));
        p
    }

    #[test]
    fn closed_form_matches_endurance_stats() {
        let program = skewed_program();
        let scenario = LifetimeScenario {
            cell_endurance: 1001,
            ..LifetimeScenario::default()
        };
        let report = simulate_lifetime(&program, &scenario);
        assert_eq!(report.invocations, 500); // ⌊1001 / 2⌋
        assert_eq!(report.first_dead_cell, Some(RamAddr(0)));
        let stats = EnduranceStats::from_counts(&static_write_counts(&program));
        assert_eq!(stats.lifetime_executions(1001), Some(report.invocations));
    }

    #[test]
    fn cap_is_honoured_when_no_cell_dies() {
        let scenario = LifetimeScenario {
            cell_endurance: u64::MAX,
            max_invocations: 12345,
            ..LifetimeScenario::default()
        };
        let report = simulate_lifetime(&skewed_program(), &scenario);
        assert_eq!(report.invocations, 12345);
        assert_eq!(report.first_dead_cell, None);
        assert_eq!(report.peak_wear, 2 * 12345);
    }

    #[test]
    fn noisy_lifetime_is_shorter_and_deterministic() {
        let program = skewed_program();
        let ideal = simulate_lifetime(
            &program,
            &LifetimeScenario {
                cell_endurance: 10_000,
                ..LifetimeScenario::default()
            },
        );
        let noisy_scenario = LifetimeScenario {
            cell_endurance: 10_000,
            write_noise: 0.25,
            ..LifetimeScenario::default()
        };
        let noisy = simulate_lifetime(&program, &noisy_scenario);
        assert!(noisy.invocations < ideal.invocations);
        // Wear per invocation of cell 0 averages 2 · 1.25 = 2.5, so the
        // lifetime should be near 10 000 / 2.5 = 4000.
        assert!(
            noisy.invocations > 3600 && noisy.invocations < 4400,
            "noisy lifetime {}",
            noisy.invocations
        );
        assert_eq!(noisy, simulate_lifetime(&program, &noisy_scenario));
        assert_eq!(noisy.first_dead_cell, Some(RamAddr(0)));
        assert!(noisy.peak_wear > 10_000);
    }

    #[test]
    fn noisy_cap_with_partial_final_block() {
        let scenario = LifetimeScenario {
            cell_endurance: u64::MAX,
            max_invocations: 100, // 64 + 36: second block is partial
            write_noise: 0.5,
            ..LifetimeScenario::default()
        };
        let report = simulate_lifetime(&skewed_program(), &scenario);
        assert_eq!(report.invocations, 100);
        assert_eq!(report.first_dead_cell, None);
        // Extra wear can at most double the static wear of cell 0.
        assert!(report.peak_wear >= 200 && report.peak_wear <= 400);
    }

    #[test]
    fn zero_noise_equals_tiny_noise_limit() {
        // Sanity: the closed form and the block simulation agree when the
        // noise rounds to zero.
        let scenario = LifetimeScenario {
            cell_endurance: 1000,
            write_noise: 1e-12,
            ..LifetimeScenario::default()
        };
        let report = simulate_lifetime(&skewed_program(), &scenario);
        assert_eq!(report.invocations, 500);
        assert_eq!(report.first_dead_cell, Some(RamAddr(0)));
    }
}
