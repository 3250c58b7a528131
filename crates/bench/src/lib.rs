//! # plim-bench — experiment harnesses
//!
//! Suite-loading glue for the binaries that regenerate the paper's
//! experimental artifacts beyond Table 1:
//!
//! * `motivation` — the §3 example programs (Fig. 3a/3b);
//! * `ablation` — candidate-selection, allocator-strategy and
//!   rewrite-effort ablations, batch-compiled across cores;
//! * the `scenario` bench — the wide executor's speedup floor and the
//!   fault/lifetime engines' throughput.
//!
//! Table 1 itself and the `BENCH.json` regression artifact come from
//! `plimc bench` (the `plim_service::bench` driver); the measurement
//! vocabulary and the parallel driver live in [`plim_compiler::batch`].

use plim_benchmarks::suite::{self, Scale};
use plim_compiler::batch::Circuit;

/// Builds a named subset of the suite as batch [`Circuit`]s.
///
/// # Panics
///
/// Panics if a name is not a Table 1 benchmark.
pub fn circuits_named(names: &[&str], scale: Scale) -> Vec<Circuit> {
    names
        .iter()
        .map(|&name| Circuit::new(name, suite::build(name, scale).expect("known benchmark")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_circuits_cover_all_rows() {
        let circuits = circuits_named(&suite::ALL, Scale::Reduced);
        assert_eq!(circuits.len(), suite::ALL.len());
        for (circuit, &name) in circuits.iter().zip(suite::ALL.iter()) {
            assert_eq!(circuit.name, name);
            assert!(circuit.mig.num_majority_nodes() > 0, "{name} is empty");
        }
    }

    #[test]
    fn named_subset_preserves_order() {
        let circuits = circuits_named(&["voter", "adder"], Scale::Reduced);
        assert_eq!(circuits[0].name, "voter");
        assert_eq!(circuits[1].name, "adder");
    }
}
