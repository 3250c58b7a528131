//! Ablation studies for the design choices called out in DESIGN.md:
//!
//! 1. **Candidate selection** (§4.2.1): priority-queue vs index-order
//!    scheduling, on rewritten MIGs — isolates the `#R` contribution of the
//!    scheduler.
//! 2. **Operand selection** (§4.2.2): smart case analysis vs fixed
//!    child-order slots — isolates the `#I` contribution of translation.
//! 3. **Scheduling × allocation sweep**: every [`ScheduleOrder`] crossed
//!    with every [`AllocatorStrategy`], reporting `#I` / `#R` / max
//!    cell-writes per combination — where the lifetime-driven lookahead
//!    scheduler and the wear-budget/lifetime-binned allocators earn (or
//!    fail to earn) their keep, per circuit.
//! 4. **Rewrite effort**: 0–8 cycles (the paper fixes 4).
//!
//! All four studies are expressed as **one batch job matrix** and executed
//! through `plim_compiler::batch`: studies 1–3 and the effort-4 column of
//! study 4 share a single memoized rewrite pass per circuit.
//!
//! Run with `cargo run --release -p plim-bench --bin ablation [--reduced]
//! [--jobs N]` (`--jobs 1` runs serially).

use plim_bench::circuits_named;
use plim_benchmarks::suite::Scale;
use plim_compiler::batch::{
    run_batch, BatchReport, Circuit, JobResult, JobSpec, RewriteEffort, PAPER_EFFORT,
};
use plim_compiler::{AllocatorStrategy, CompilerOptions, OperandSelection, ScheduleOrder};
use plim_parallel::Parallelism;

/// Benchmarks used for the ablations (a representative, fast subset).
const CIRCUITS: [&str; 6] = ["adder", "bar", "max", "voter", "i2c", "priority"];

/// Rewrite efforts of the sweep (the paper fixes 4).
const EFFORTS: [usize; 5] = [0, 1, 2, 4, 8];

/// Schedules crossed with every allocator in study 3 (index order is
/// covered separately by study 1).
const SWEEP_SCHEDULES: [ScheduleOrder; 2] = [ScheduleOrder::Priority, ScheduleOrder::Lookahead];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reduced = args.iter().any(|a| a == "--reduced");
    let scale = if reduced { Scale::Reduced } else { Scale::Full };
    let jobs = args.iter().position(|a| a == "--jobs").map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("ablation: --jobs needs a number");
                std::process::exit(1);
            })
    });
    let parallelism = Parallelism::from_jobs(jobs);

    let circuits = circuits_named(&CIRCUITS, scale);
    let paper = RewriteEffort::Effort(PAPER_EFFORT);

    // One job matrix for all four studies; sections are sliced back out of
    // the (deterministically ordered) report below.
    let mut specs: Vec<JobSpec> = Vec::new();
    for c in 0..circuits.len() {
        specs.push(JobSpec::new(c, paper, CompilerOptions::naive()));
        specs.push(JobSpec::new(c, paper, CompilerOptions::new()));
    }
    for c in 0..circuits.len() {
        specs.push(JobSpec::new(
            c,
            paper,
            CompilerOptions::naive().operands(OperandSelection::ChildOrder),
        ));
        specs.push(JobSpec::new(c, paper, CompilerOptions::naive()));
    }
    for c in 0..circuits.len() {
        for schedule in SWEEP_SCHEDULES {
            for strategy in AllocatorStrategy::ALL {
                specs.push(JobSpec::new(
                    c,
                    paper,
                    CompilerOptions::new()
                        .schedule(schedule)
                        .allocator(strategy),
                ));
            }
        }
    }
    for c in 0..circuits.len() {
        for effort in EFFORTS {
            specs.push(JobSpec::new(
                c,
                RewriteEffort::Effort(effort),
                CompilerOptions::new(),
            ));
        }
    }

    let report = run_batch(&circuits, &specs, parallelism);
    let n = circuits.len();
    let combos = SWEEP_SCHEDULES.len() * AllocatorStrategy::ALL.len();
    let (scheduling, rest) = report.jobs.split_at(2 * n);
    let (operands, rest) = rest.split_at(2 * n);
    let (allocators, sweep) = rest.split_at(combos * n);

    candidate_selection_ablation(&circuits, scheduling);
    operand_selection_ablation(&circuits, operands);
    schedule_allocation_sweep(&circuits, allocators);
    effort_sweep(&circuits, sweep, &report);
    println!("batch: {}", report.summary());
}

fn candidate_selection_ablation(circuits: &[Circuit], jobs: &[JobResult]) {
    println!("═══ Ablation 1: candidate selection (scheduling) — #R on rewritten MIGs ═══");
    println!(
        "{:<11} {:>10} {:>10} {:>9}",
        "Benchmark", "index #R", "priority #R", "impr."
    );
    for (c, pair) in jobs.chunks(2).enumerate() {
        let (index, priority) = (&pair[0].compiled, &pair[1].compiled);
        println!(
            "{:<11} {:>10} {:>10} {:>8.2}%",
            circuits[c].name,
            index.stats.rams,
            priority.stats.rams,
            improvement(index.stats.rams as usize, priority.stats.rams as usize),
        );
    }
    println!();
}

fn operand_selection_ablation(circuits: &[Circuit], jobs: &[JobResult]) {
    println!("═══ Ablation 2: operand selection (translation) — #I on rewritten MIGs ═══");
    println!(
        "{:<11} {:>12} {:>10} {:>9}",
        "Benchmark", "child-order", "smart #I", "impr."
    );
    for (c, pair) in jobs.chunks(2).enumerate() {
        let (fixed, smart) = (&pair[0].compiled, &pair[1].compiled);
        println!(
            "{:<11} {:>12} {:>10} {:>8.2}%",
            circuits[c].name,
            fixed.stats.instructions,
            smart.stats.instructions,
            improvement(fixed.stats.instructions, smart.stats.instructions),
        );
    }
    println!();
}

fn schedule_allocation_sweep(circuits: &[Circuit], jobs: &[JobResult]) {
    println!("═══ Ablation 3: scheduling × allocation — #I / #R / max writes per cell ═══");
    print!("{:<11} {:<10}", "Benchmark", "schedule");
    for strategy in AllocatorStrategy::ALL {
        print!(" {:>14}", strategy.name());
    }
    println!();
    let per_circuit = SWEEP_SCHEDULES.len() * AllocatorStrategy::ALL.len();
    for (c, block) in jobs.chunks(per_circuit).enumerate() {
        for (s, row) in block.chunks(AllocatorStrategy::ALL.len()).enumerate() {
            print!("{:<11} {:<10}", circuits[c].name, SWEEP_SCHEDULES[s].name());
            for job in row {
                let stats = &job.compiled.stats;
                print!(
                    " {:>14}",
                    format!(
                        "{}/{}/{}",
                        stats.instructions, stats.rams, stats.max_cell_writes
                    )
                );
            }
            println!();
        }
    }
    println!("(reuse policy never changes #I; the scheduler changes #R; the wear and");
    println!(" binned policies trade free-pool rotation for lower peak cell wear)");
    println!();
}

fn effort_sweep(circuits: &[Circuit], jobs: &[JobResult], report: &BatchReport) {
    println!("═══ Ablation 4: rewrite effort sweep — #N / #I after k cycles ═══");
    print!("{:<11}", "Benchmark");
    for effort in EFFORTS {
        print!(" {:>14}", format!("effort {effort}"));
    }
    println!();
    let rewritten_nodes = |circuit: usize, effort: usize| {
        report
            .rewrites
            .iter()
            .find(|pass| pass.circuit == circuit && pass.effort == effort)
            .expect("sweep jobs rewrite every (circuit, effort)")
            .mig
            .num_majority_nodes()
    };
    for (c, row) in jobs.chunks(EFFORTS.len()).enumerate() {
        print!("{:<11}", circuits[c].name);
        for (job, effort) in row.iter().zip(EFFORTS) {
            print!(
                " {:>14}",
                format!(
                    "{}/{}",
                    rewritten_nodes(c, effort),
                    job.compiled.stats.instructions
                )
            );
        }
        println!();
    }
    println!("(the paper fixes effort = 4; the sweep shows where returns diminish)");
    println!();
}

fn improvement(old: usize, new: usize) -> f64 {
    if old == 0 {
        0.0
    } else {
        (old as f64 - new as f64) / old as f64 * 100.0
    }
}
