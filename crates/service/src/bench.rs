//! The bench driver: one run over a circuit suite that measures the
//! Table 1 rows and every `BENCH.json` column.
//!
//! [`run`] builds the job matrix (seven compile jobs per circuit, laid out
//! once in `circuit_jobs`), executes it with [`run_batch`], and fills each
//! circuit's [`BenchRecord`] from that circuit's own jobs:
//!
//! * the Table 1 rows and the probe columns, from the compiled programs;
//! * the per-target columns, by costing the `-O0` job's IR under
//!   [`AmbitBackend`] and [`MagicBackend`] (no recompilation);
//! * the e-graph columns, by running [`plim_egraph::optimize_compiled`] at
//!   `-O2` and the run's rewrite effort, with the circuit's batch rewrite
//!   pass as the arena baseline;
//! * the fidelity columns, through [`fidelity_for`] on the `-O0`, `-O1`
//!   and `-O2` programs.
//!
//! The column table and the gate live next door in [`crate::benchfile`];
//! adding a column is one row there and one line here.

use std::time::Duration;

use plim::MachineError;
use plim_compiler::backend::{AmbitBackend, MagicBackend};
use plim_compiler::batch::{
    run_batch, Circuit, JobSpec, MeasuredRow, Point, RewriteEffort, SuiteRun,
};
use plim_compiler::{
    AllocatorStrategy, Backend, CompilerOptions, OptLevel, RewriteMode, ScheduleOrder,
};
use plim_parallel::{par_map, Parallelism};
use plim_scenario::{fidelity_for, FidelityConfig};

use crate::benchfile::BenchRecord;

/// One bench run: the Table 1 rows with the batch behind them, and one
/// `BENCH.json` record per circuit.
#[derive(Debug)]
pub struct Bench {
    /// The Table 1 rows, in circuit order, and the batch that produced
    /// them ([`SuiteRun::row_time`] gives a row's wall-clock work).
    pub suite: SuiteRun,
    /// One bench-gate record per circuit, in circuit order.
    pub records: Vec<BenchRecord>,
}

/// Compile jobs per circuit.
const JOBS: usize = 7;

/// The jobs behind one circuit's record, in batch order: the three
/// Table 1 jobs (naive on the raw MIG, naive and smart on the rewritten
/// MIG), then the lookahead-scheduling, wear-budget-allocator, `-O1` and
/// `-O2` probes. The six rewritten jobs share one memoized rewrite pass.
fn circuit_jobs(circuit: usize, effort: usize) -> [JobSpec; JOBS] {
    let rewritten = RewriteEffort::Effort(effort);
    let smart = CompilerOptions::new();
    [
        JobSpec::new(circuit, RewriteEffort::Raw, CompilerOptions::naive()),
        JobSpec::new(circuit, rewritten, CompilerOptions::naive()),
        JobSpec::new(circuit, rewritten, smart),
        JobSpec::new(circuit, rewritten, smart.schedule(ScheduleOrder::Lookahead)),
        JobSpec::new(
            circuit,
            rewritten,
            smart.allocator(AllocatorStrategy::WearLeveled),
        ),
        JobSpec::new(circuit, rewritten, smart.opt(OptLevel::O1)),
        JobSpec::new(circuit, rewritten, smart.opt(OptLevel::O2)),
    ]
}

fn ms(time: Duration) -> f64 {
    time.as_secs_f64() * 1e3
}

/// Measures every circuit at rewrite `effort`, spreading the batch, the
/// e-graph runs and the fault sweeps across `parallelism`.
///
/// `rewrite_ms` and `compile_ms` time the circuit's rewrite pass and its
/// seven batch jobs; the e-graph and fidelity measurements are not timed.
///
/// # Errors
///
/// Propagates a [`MachineError`] from the fault sweep — compiled programs
/// never trigger one.
pub fn run(
    circuits: &[Circuit],
    effort: usize,
    parallelism: Parallelism,
) -> Result<Bench, MachineError> {
    let specs: Vec<JobSpec> = (0..circuits.len())
        .flat_map(|circuit| circuit_jobs(circuit, effort))
        .collect();
    let report = run_batch(circuits, &specs, parallelism);
    let egraph_options = CompilerOptions::new()
        .opt(OptLevel::O2)
        .rewrite(RewriteMode::Egraph);
    // The six rewritten jobs of a circuit share one rewrite pass, so the
    // passes come one per circuit, in circuit order. Each is the circuit's
    // e-graph arena baseline.
    let egraph = par_map(circuits, parallelism, |index, circuit| {
        let baseline = &report.rewrites[index].mig;
        let (_, compilation, _) =
            plim_egraph::optimize_compiled(&circuit.mig, baseline, effort, egraph_options);
        compilation.compiled.stats
    });
    let fidelity = FidelityConfig {
        parallelism,
        ..FidelityConfig::default()
    };

    let mut rows = Vec::with_capacity(circuits.len());
    let mut records = Vec::with_capacity(circuits.len());
    let per_circuit = report.jobs.chunks_exact(JOBS).zip(&egraph);
    for (index, (circuit, (jobs, egraph))) in circuits.iter().zip(per_circuit).enumerate() {
        let [naive, rewritten, smart, lookahead, wear, o1, o2] = jobs else {
            unreachable!("chunks_exact yields {JOBS} jobs")
        };
        rows.push(MeasuredRow {
            name: circuit.name.clone(),
            pi: circuit.mig.num_inputs(),
            po: circuit.mig.num_outputs(),
            naive: Point::from(&naive.compiled),
            rewritten: Point::from(&rewritten.compiled),
            compiled: Point::from(&smart.compiled),
        });
        let ambit = AmbitBackend.cost(&smart.ir);
        let magic = MagicBackend.cost(&smart.ir);
        let proof = fidelity_for(
            &circuit.mig,
            &smart.compiled,
            &[&o1.compiled, &o2.compiled],
            &fidelity,
        )?;
        let stats = smart.compiled.stats;
        records.push(BenchRecord {
            circuit: circuit.name.clone(),
            instructions: stats.instructions as u64,
            rams: u64::from(stats.rams),
            max_writes: stats.max_cell_writes,
            lookahead_rams: u64::from(lookahead.compiled.stats.rams),
            wear_max_writes: wear.compiled.stats.max_cell_writes,
            o1_instructions: o1.compiled.stats.instructions as u64,
            o1_rams: u64::from(o1.compiled.stats.rams),
            o2_instructions: o2.compiled.stats.instructions as u64,
            o2_rams: u64::from(o2.compiled.stats.rams),
            o2_max_writes: o2.compiled.stats.max_cell_writes,
            ambit_ops: ambit.instructions as u64,
            ambit_cost: ambit.units,
            magic_ops: magic.instructions as u64,
            magic_cost: magic.units,
            egraph_instructions: egraph.instructions as u64,
            egraph_rams: u64::from(egraph.rams),
            rewrite_ms: ms(report.rewrites[index].time),
            compile_ms: jobs.iter().map(|job| ms(job.compile_time)).sum(),
            verified_exhaustive: proof.verified_exhaustive,
            fault_error_rate: proof.fault_error_rate,
            lifetime_invocations: proof.lifetime_invocations,
            // Every artifact behind the record must come back clean from
            // the static analyzer for the circuit to claim the column.
            lint_clean: jobs.iter().all(|job| job.lint_clean),
        });
    }
    Ok(Bench {
        suite: SuiteRun { rows, report },
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mig::rewrite::rewrite;
    use plim_benchmarks::suite::{build, Scale};
    use plim_compiler::backend::{AmbitBackend, MagicBackend};
    use plim_compiler::batch::{format_row, measure};
    use plim_compiler::{compile, compile_full};

    /// Every column family equals its direct computation, at an effort
    /// other than the paper's so the e-graph columns must follow the run.
    /// ctrl and int2float are exhaustively provable; router's 60 inputs
    /// are not, and must come back unverified rather than as an error.
    #[test]
    fn every_column_matches_its_direct_computation() {
        let effort = 2;
        let circuits: Vec<Circuit> = ["ctrl", "int2float", "router"]
            .into_iter()
            .map(|name| Circuit::new(name, build(name, Scale::Reduced).unwrap()))
            .collect();
        let bench = run(&circuits, effort, Parallelism::Auto).unwrap();
        let report = &bench.suite.report;
        // Seven jobs per circuit, one shared rewrite pass each.
        assert_eq!(report.jobs.len(), JOBS * circuits.len());
        assert_eq!(report.rewrites.len(), circuits.len());
        assert_eq!(bench.records.len(), circuits.len());

        for (index, circuit) in circuits.iter().enumerate() {
            let (mig, name) = (&circuit.mig, &circuit.name);
            let row = &bench.suite.rows[index];
            let record = &bench.records[index];
            assert_eq!(record.circuit, *name);
            assert_eq!(format_row(row), format_row(&measure(name, mig, effort)));

            let rewritten = rewrite(mig, effort);
            let compiled = |options| compile(&rewritten, options);
            let (smart, o1, o2) = (
                compiled(CompilerOptions::new()),
                compiled(CompilerOptions::new().opt(OptLevel::O1)),
                compiled(CompilerOptions::new().opt(OptLevel::O2)),
            );
            let lookahead = compiled(CompilerOptions::new().schedule(ScheduleOrder::Lookahead));
            let wear = compiled(CompilerOptions::new().allocator(AllocatorStrategy::WearLeveled));
            let fidelity = fidelity_for(mig, &smart, &[&o1, &o2], &FidelityConfig::default());
            let fidelity = fidelity.unwrap();
            let (smart, o1, o2) = (smart.stats, o1.stats, o2.stats);
            let (lookahead, wear) = (lookahead.stats, wear.stats);
            assert_eq!(record.instructions, smart.instructions as u64, "{name}");
            assert_eq!(record.rams, u64::from(smart.rams), "{name}");
            assert_eq!(record.max_writes, smart.max_cell_writes, "{name}");
            assert_eq!(record.lookahead_rams, u64::from(lookahead.rams), "{name}");
            assert_eq!(record.wear_max_writes, wear.max_cell_writes, "{name}");
            assert_eq!(record.o1_instructions, o1.instructions as u64, "{name}");
            assert_eq!(record.o1_rams, u64::from(o1.rams), "{name}");
            assert_eq!(record.o2_instructions, o2.instructions as u64, "{name}");
            assert_eq!(record.o2_rams, u64::from(o2.rams), "{name}");
            assert_eq!(record.o2_max_writes, o2.max_cell_writes, "{name}");
            assert!(record.lint_clean, "{name}");
            assert!(record.compile_ms > 0.0, "{name}");

            let ir = compile_full(&rewritten, CompilerOptions::new()).ir;
            let (ambit, magic) = (AmbitBackend.cost(&ir), MagicBackend.cost(&ir));
            assert_eq!(record.ambit_ops, ambit.instructions as u64, "{name}");
            assert_eq!(record.ambit_cost, ambit.units, "{name}");
            assert_eq!(record.magic_ops, magic.instructions as u64, "{name}");
            assert_eq!(record.magic_cost, magic.units, "{name}");

            let options = CompilerOptions::new()
                .opt(OptLevel::O2)
                .rewrite(RewriteMode::Egraph);
            let egraph = plim_egraph::optimize_compiled(mig, &rewritten, effort, options)
                .1
                .compiled
                .stats;
            assert_eq!(record.egraph_instructions, egraph.instructions as u64);
            assert_eq!(record.egraph_rams, u64::from(egraph.rams), "{name}");

            assert_eq!(record.verified_exhaustive, fidelity.verified_exhaustive);
            assert_eq!(record.verified_exhaustive, name != "router");
            assert_eq!(record.fault_error_rate, fidelity.fault_error_rate);
            assert_eq!(record.lifetime_invocations, fidelity.lifetime_invocations);
        }
    }
}
