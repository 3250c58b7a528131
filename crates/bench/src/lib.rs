//! # plim-bench — experiment harnesses
//!
//! Shared measurement pipeline for the binaries that regenerate the paper's
//! experimental artifacts:
//!
//! * `table1` — the full Table 1 (naive | MIG rewriting | rewriting +
//!   compilation) over the benchmark suite, batch-compiled across cores;
//! * `motivation` — the §3 example programs (Fig. 3a/3b);
//! * `ablation` — candidate-selection, allocator-strategy and
//!   rewrite-effort ablations, batch-compiled across cores.
//!
//! The measurement vocabulary ([`Point`], [`MeasuredRow`], [`measure`],
//! [`measure_suite`]) and the parallel driver live in
//! [`plim_compiler::batch`]; this crate re-exports them and adds the
//! suite-loading glue.

pub use plim_compiler::batch::{
    format_row, measure, measure_suite, run_batch, table_header, totals, BatchReport, Circuit,
    JobResult, JobSpec, MeasuredRow, Point, RewriteEffort, RewritePass, SuiteRun, PAPER_EFFORT,
};
pub use plim_parallel::Parallelism;

use plim_benchmarks::suite::{self, Scale};

/// Builds every Table 1 benchmark as a batch [`Circuit`], in the paper's
/// row order.
pub fn suite_circuits(scale: Scale) -> Vec<Circuit> {
    suite::ALL
        .iter()
        .map(|&name| Circuit::new(name, suite::build(name, scale).expect("known benchmark")))
        .collect()
}

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
        let circuits = suite_circuits(Scale::Reduced);
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

    #[test]
    fn reexported_measure_matches_suite_pipeline() {
        let circuits = circuits_named(&["ctrl", "dec"], Scale::Reduced);
        let suite_run = measure_suite(&circuits, 1, Parallelism::Auto);
        for circuit in &circuits {
            let serial = measure(&circuit.name, &circuit.mig, 1);
            let batched = suite_run
                .rows
                .iter()
                .find(|row| row.name == circuit.name)
                .unwrap();
            assert_eq!(format_row(&serial), format_row(batched));
        }
        assert_eq!(suite_run.report.jobs.len(), 6);
    }
}
