//! Control-logic benchmark generators: `dec`, `priority`, `voter` (exact
//! EPFL function families) and the seeded random-logic substitutes for the
//! control netlists whose sources are not redistributable (`cavlc`, `ctrl`,
//! `i2c`, `mem_ctrl`, `router`). The substitutes keep each netlist's
//! input/output interface and draw seeded logic behind it, so their
//! Table 1 figures are comparable in scale to the paper's, not equal.

use mig::Mig;

use crate::random::{random_logic, RandomLogicSpec};
use crate::word;

/// Full decoder: `n` select inputs, `2^n` one-hot outputs.
///
/// `dec(8)` matches the EPFL `dec` interface (8/256).
pub fn dec(select_bits: usize) -> Mig {
    let mut mig = Mig::new();
    let select = mig.add_inputs("s", select_bits);
    let outputs = word::decode(&mut mig, &select);
    for (i, &o) in outputs.iter().enumerate() {
        mig.add_output(format!("o{i}"), o);
    }
    mig
}

/// Priority encoder: `n` request inputs, `log2(n) + 1` outputs (index plus
/// valid). The width must be a power of two for exact indices.
///
/// `priority(128)` matches the EPFL `priority` interface (128/8).
pub fn priority(width: usize) -> Mig {
    assert!(
        width.is_power_of_two(),
        "priority encoder width must be a power of two"
    );
    let mut mig = Mig::new();
    let requests = mig.add_inputs("r", width);
    let (index, valid) = word::priority_encode(&mut mig, &requests);
    for (i, &b) in index.iter().enumerate() {
        mig.add_output(format!("i{i}"), b);
    }
    mig.add_output("valid", valid);
    mig
}

/// Majority voter: `n` inputs (odd), 1 output — 1 when more than half of
/// the inputs are 1. Built as a popcount adder tree plus a comparator.
///
/// `voter(1001)` matches the EPFL `voter` interface (1001/1).
pub fn voter(inputs: usize) -> Mig {
    assert!(inputs % 2 == 1, "voter needs an odd number of inputs");
    let mut mig = Mig::new();
    let bits = mig.add_inputs("v", inputs);
    let count = word::popcount(&mut mig, &bits);
    let threshold = word::constant_word((inputs / 2) as u64, count.len());
    // majority ⇔ count > n/2 ⇔ threshold < count.
    let majority = word::less_than(&mut mig, &threshold, &count);
    mig.add_output("maj", majority);
    mig
}

/// The five EPFL control netlists reproduced as seeded random logic with
/// matching interfaces and approximate pre-optimization sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlBenchmark {
    /// Context-adaptive variable-length coding logic (10/11).
    Cavlc,
    /// ALU control unit (7/26).
    Ctrl,
    /// I²C controller (147/142).
    I2c,
    /// Memory controller (1204/1231).
    MemCtrl,
    /// Lookup-based router (60/30).
    Router,
}

impl ControlBenchmark {
    /// The generation spec: interface, target node count and seed.
    pub fn spec(self, scale_divisor: usize) -> RandomLogicSpec {
        let d = scale_divisor.max(1);
        match self {
            // Node targets approximate the paper's pre-rewriting #N.
            ControlBenchmark::Cavlc => RandomLogicSpec::new(10, 11, 693 / d, 0xCA71C),
            ControlBenchmark::Ctrl => RandomLogicSpec::new(7, 26, 174 / d, 0xC021),
            ControlBenchmark::I2c => RandomLogicSpec::new(147, 142, 1342 / d, 0x12C),
            ControlBenchmark::MemCtrl => RandomLogicSpec::new(1204, 1231, 46836 / d, 0x3E3),
            ControlBenchmark::Router => RandomLogicSpec::new(60, 30, 257 / d, 0x2007),
        }
    }

    /// Builds the benchmark at full scale.
    pub fn build(self) -> Mig {
        random_logic(&self.spec(1))
    }

    /// Builds a reduced-size version for fast tests (`scale_divisor`-fold
    /// fewer nodes, same interface).
    pub fn build_scaled(self, scale_divisor: usize) -> Mig {
        random_logic(&self.spec(scale_divisor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mig::simulate::evaluate;

    fn eval(mig: &Mig, value: u64) -> u64 {
        let inputs: Vec<bool> = (0..mig.num_inputs()).map(|i| value >> i & 1 != 0).collect();
        evaluate(mig, &inputs)
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &b)| acc | (b as u64) << i)
    }

    #[test]
    fn dec_is_one_hot() {
        let mig = dec(4);
        assert_eq!(mig.num_inputs(), 4);
        assert_eq!(mig.num_outputs(), 16);
        for s in 0..16u64 {
            assert_eq!(eval(&mig, s), 1 << s);
        }
    }

    #[test]
    fn priority_encodes_highest_request() {
        let mig = priority(16);
        assert_eq!(mig.num_inputs(), 16);
        assert_eq!(mig.num_outputs(), 5);
        for pattern in [1u64, 0b1000, 0b1010, 0x8000, 0xFFFF] {
            let out = eval(&mig, pattern);
            let expected = 63 - pattern.leading_zeros() as u64;
            assert_eq!(out & 0xF, expected, "{pattern:#x}");
            assert_eq!(out >> 4, 1);
        }
        assert_eq!(eval(&mig, 0) >> 4, 0);
    }

    #[test]
    fn voter_votes() {
        let mig = voter(7);
        assert_eq!(mig.num_inputs(), 7);
        assert_eq!(mig.num_outputs(), 1);
        for pattern in 0..128u64 {
            let expected = u64::from(pattern.count_ones() >= 4);
            assert_eq!(eval(&mig, pattern), expected, "{pattern:#b}");
        }
    }

    #[test]
    fn control_interfaces_match_table1() {
        for (bench, pi, po) in [
            (ControlBenchmark::Cavlc, 10, 11),
            (ControlBenchmark::Ctrl, 7, 26),
            (ControlBenchmark::Router, 60, 30),
        ] {
            let mig = bench.build_scaled(4);
            assert_eq!(mig.num_inputs(), pi, "{bench:?} inputs");
            assert_eq!(mig.num_outputs(), po, "{bench:?} outputs");
        }
    }

    #[test]
    fn control_generation_is_deterministic() {
        let a = ControlBenchmark::Router.build_scaled(4);
        let b = ControlBenchmark::Router.build_scaled(4);
        assert_eq!(a.num_majority_nodes(), b.num_majority_nodes());
        assert_eq!(eval(&a, 0x123456789), eval(&b, 0x123456789));
    }
}
