//! The benchmark suite: one entry per row of the paper's Table 1.
//!
//! Each entry knows how to build the circuit (at full scale or a reduced
//! scale for fast tests) and carries the paper's reported numbers so
//! harnesses can print paper-vs-measured comparisons.

use mig::Mig;

use crate::control::{self, ControlBenchmark};
use crate::{arith, shift};

/// `(#N, #I, #R)` triple as reported in Table 1.
pub type Nir = (usize, usize, usize);

/// One row of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Primary inputs / primary outputs of the EPFL netlist.
    pub pi: usize,
    /// Primary outputs.
    pub po: usize,
    /// Naive translation on the initial MIG: `(#N, #I, #R)`.
    pub naive: Nir,
    /// After MIG rewriting (naive translation): `(#N, #I, #R)`.
    pub rewritten: Nir,
    /// After rewriting and smart compilation: `(#I, #R)` (same `#N` as
    /// `rewritten`).
    pub compiled: (usize, usize),
}

/// Scale at which to build a benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Interface-faithful full size (matches Table 1's PI/PO).
    #[default]
    Full,
    /// Reduced size for fast tests; same circuit family, smaller widths.
    Reduced,
}

/// The 18 benchmarks of Table 1, in the paper's order.
pub const ALL: [&str; 18] = [
    "adder",
    "bar",
    "div",
    "log2",
    "max",
    "multiplier",
    "sin",
    "sqrt",
    "square",
    "cavlc",
    "ctrl",
    "dec",
    "i2c",
    "int2float",
    "mem_ctrl",
    "priority",
    "router",
    "voter",
];

/// The paper's Table 1 reference numbers for a benchmark.
///
/// Returns `None` for unknown names.
pub fn paper_row(name: &str) -> Option<PaperRow> {
    let row = |name, pi, po, naive, rewritten, compiled| PaperRow {
        name,
        pi,
        po,
        naive,
        rewritten,
        compiled,
    };
    Some(match name {
        "adder" => row(
            "adder",
            256,
            129,
            (1020, 2844, 512),
            (1020, 2037, 386),
            (1911, 259),
        ),
        "bar" => row(
            "bar",
            135,
            128,
            (3336, 8136, 523),
            (3240, 5895, 371),
            (6011, 332),
        ),
        "div" => row(
            "div",
            128,
            128,
            (57247, 146617, 687),
            (50841, 147026, 771),
            (147608, 590),
        ),
        "log2" => row(
            "log2",
            32,
            32,
            (32060, 78885, 1597),
            (31419, 60402, 1487),
            (60184, 1256),
        ),
        "max" => row(
            "max",
            512,
            130,
            (2865, 6731, 1021),
            (2845, 5092, 867),
            (4996, 579),
        ),
        "multiplier" => row(
            "multiplier",
            128,
            128,
            (27062, 76156, 2798),
            (26951, 56428, 1672),
            (56009, 419),
        ),
        "sin" => row(
            "sin",
            24,
            25,
            (5416, 12479, 438),
            (5344, 10300, 426),
            (10223, 402),
        ),
        "sqrt" => row(
            "sqrt",
            128,
            64,
            (24618, 60691, 375),
            (22351, 47454, 433),
            (49782, 323),
        ),
        "square" => row(
            "square",
            64,
            128,
            (18484, 54704, 3272),
            (18085, 33625, 3247),
            (33369, 452),
        ),
        "cavlc" => row(
            "cavlc",
            10,
            11,
            (693, 1919, 262),
            (691, 1146, 236),
            (1124, 102),
        ),
        "ctrl" => row("ctrl", 7, 26, (174, 499, 66), (156, 258, 55), (263, 39)),
        "dec" => row("dec", 8, 256, (304, 822, 257), (304, 783, 257), (777, 258)),
        "i2c" => row(
            "i2c",
            147,
            142,
            (1342, 3314, 545),
            (1311, 2119, 487),
            (2028, 234),
        ),
        "int2float" => row(
            "int2float",
            11,
            7,
            (260, 648, 99),
            (257, 432, 83),
            (428, 41),
        ),
        "mem_ctrl" => row(
            "mem_ctrl",
            1204,
            1231,
            (46836, 113244, 8127),
            (46519, 85785, 6708),
            (84963, 2223),
        ),
        "priority" => row(
            "priority",
            128,
            8,
            (978, 2461, 315),
            (977, 2126, 241),
            (2147, 149),
        ),
        "router" => row(
            "router",
            60,
            30,
            (257, 503, 117),
            (257, 407, 112),
            (401, 64),
        ),
        "voter" => row(
            "voter",
            1001,
            1,
            (13758, 38002, 1749),
            (12992, 25009, 1544),
            (24990, 1063),
        ),
        _ => return None,
    })
}

/// Builds a benchmark by name.
///
/// At [`Scale::Full`] the interface matches the paper's PI/PO columns; at
/// [`Scale::Reduced`] the same circuit family is built with smaller widths
/// (suitable for exhaustive or fast randomized checking).
///
/// The returned graph is *levelized* ([`Mig::levelized`]): node order
/// matches what netlist files provide, which is what the paper's naive
/// index-order translation consumes.
///
/// Returns `None` for unknown names.
pub fn build(name: &str, scale: Scale) -> Option<Mig> {
    build_creation_order(name, scale).map(|mig| mig.levelized())
}

fn build_creation_order(name: &str, scale: Scale) -> Option<Mig> {
    let full = scale == Scale::Full;
    Some(match name {
        "adder" => arith::adder(if full { 128 } else { 8 }),
        "bar" => shift::bar(if full { 128 } else { 16 }),
        "div" => arith::div(if full { 64 } else { 6 }),
        "log2" => shift::log2(if full { 32 } else { 16 }),
        "max" => arith::max(if full { 128 } else { 8 }),
        "multiplier" => arith::multiplier(if full { 64 } else { 7 }),
        "sin" => shift::sin(if full { 24 } else { 8 }),
        "sqrt" => arith::sqrt(if full { 64 } else { 7 }),
        "square" => arith::square(if full { 64 } else { 8 }),
        "cavlc" => scaled_control(ControlBenchmark::Cavlc, full),
        "ctrl" => scaled_control(ControlBenchmark::Ctrl, full),
        "dec" => control::dec(if full { 8 } else { 4 }),
        "i2c" => scaled_control(ControlBenchmark::I2c, full),
        "int2float" => arith::int2float(11, 3, 4),
        "mem_ctrl" => scaled_control(ControlBenchmark::MemCtrl, full),
        "priority" => control::priority(if full { 128 } else { 16 }),
        "router" => scaled_control(ControlBenchmark::Router, full),
        "voter" => control::voter(if full { 1001 } else { 31 }),
        _ => return None,
    })
}

fn scaled_control(bench: ControlBenchmark, full: bool) -> Mig {
    if full {
        bench.build()
    } else {
        bench.build_scaled(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_is_buildable_reduced() {
        for name in ALL {
            let mig = build(name, Scale::Reduced).expect(name);
            assert!(mig.num_majority_nodes() > 0, "{name} is empty");
            assert!(mig.num_inputs() > 0, "{name} has no inputs");
            assert!(mig.num_outputs() > 0, "{name} has no outputs");
        }
    }

    #[test]
    fn paper_rows_exist_for_all() {
        for name in ALL {
            let row = paper_row(name).expect(name);
            assert_eq!(row.name, name);
            assert!(row.naive.1 > 0);
        }
        assert!(paper_row("bogus").is_none());
        assert!(build("bogus", Scale::Reduced).is_none());
    }

    #[test]
    fn full_interfaces_match_paper() {
        // Only the cheap-to-build full-scale benchmarks; the arithmetic
        // giants are covered by `plimc bench`.
        for name in ["adder", "bar", "dec", "priority", "int2float", "voter"] {
            let mig = build(name, Scale::Full).unwrap();
            let row = paper_row(name).unwrap();
            assert_eq!(mig.num_inputs(), row.pi, "{name} PI");
            assert_eq!(mig.num_outputs(), row.po, "{name} PO");
        }
    }

    #[test]
    fn paper_sums_match_reported_totals() {
        // The Σ row of Table 1.
        let mut naive = (0, 0, 0);
        let mut rewr = (0, 0, 0);
        let mut comp = (0, 0);
        for name in ALL {
            let row = paper_row(name).unwrap();
            naive.0 += row.naive.0;
            naive.1 += row.naive.1;
            naive.2 += row.naive.2;
            rewr.0 += row.rewritten.0;
            rewr.1 += row.rewritten.1;
            rewr.2 += row.rewritten.2;
            comp.0 += row.compiled.0;
            comp.1 += row.compiled.1;
        }
        assert_eq!(naive, (236710, 608655, 22760));
        assert_eq!(rewr, (225560, 486324, 19383));
        assert_eq!(comp, (487214, 8785));
    }
}
