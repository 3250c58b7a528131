//! The compile path, two ways: the product path (`pipeline::parse_network`
//! → `pipeline::execute` → `pipeline::emit`), timed from outside, and a
//! hand-sequenced replay of the same public calls with one span per call.
//!
//! The replay must produce byte-identical output; the trace-equivalence
//! test and every traced run check that it does.

use mig::Mig;
use plim_compiler::ir::analysis::{analyze_events, AnalysisConfig};
use plim_compiler::ir::passes::PassManager;
use plim_compiler::verify::{verify, verify_artifact};
use plim_compiler::{Compilation, RewriteMode, Rm3Stats, Target};
use plim_service::pipeline::{self, Artifacts, CompileSpec, InputFormat};

use crate::trace::Tracer;

/// The seed `pipeline::execute` verifies with.
const VERIFY_SEED: u64 = 0xDAC2016;

/// Quality counts of one compiled program: `#I`, `#R` and the largest
/// per-cell write count of one execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quality {
    /// RM3 instructions.
    pub instructions: u64,
    /// Work RRAMs.
    pub rams: u64,
    /// Largest per-cell write count.
    pub max_cell_writes: u64,
}

impl Quality {
    /// The counts of an RM3 program's stats.
    pub fn of(stats: &Rm3Stats) -> Quality {
        Quality {
            instructions: stats.instructions as u64,
            rams: u64::from(stats.rams),
            max_cell_writes: stats.max_cell_writes,
        }
    }

    /// Adds another program's counts.
    pub fn add(&mut self, other: Quality) {
        self.instructions += other.instructions;
        self.rams += other.rams;
        self.max_cell_writes += other.max_cell_writes;
    }
}

/// What one compile produced.
#[derive(Debug, Clone)]
pub struct Output {
    /// The rendered artifact, exactly as `plimc` prints it.
    pub text: String,
    /// Everything the compile stage produced.
    pub artifacts: Artifacts,
}

/// The product path: parse, execute (optimize, compile, verify), emit.
///
/// # Errors
///
/// Returns the pipeline's one-line message on a parse, verify or emit
/// failure.
pub fn product(source: &str, spec: &CompileSpec, kind: &str) -> Result<Output, String> {
    let input = pipeline::parse_network(InputFormat::Mig, source)?;
    let artifacts = pipeline::execute(&input, spec)?;
    let text = pipeline::emit(kind, &artifacts)?;
    Ok(Output { text, artifacts })
}

/// Work counts the traced replay collects at the layer boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCounts {
    /// Majority nodes parsed.
    pub parse_nodes: u64,
    /// Majority nodes after the rewrite stage.
    pub rewrite_nodes_out: u64,
    /// E-graph runs.
    pub egraph_runs: u64,
    /// E-nodes when saturation stopped, summed over runs.
    pub egraph_enodes: u64,
    /// Saturation iterations, summed over runs.
    pub egraph_iterations: u64,
    /// Candidates scored by compilation, summed over runs.
    pub egraph_candidates: u64,
    /// Runs whose extraction beat the arena baseline.
    pub egraph_improved: u64,
    /// IR events after lowering.
    pub lower_events: u64,
    /// Pass runs in the pass reports.
    pub pass_runs: u64,
    /// Pass runs that removed at least one instruction.
    pub pass_runs_effective: u64,
    /// Committed edits.
    pub pass_edits: u64,
    /// Instructions removed by the passes.
    pub pass_removed: u64,
}

impl LayerCounts {
    fn add_report(&mut self, report: &plim_compiler::ir::passes::PassReport) {
        self.pass_runs += report.runs.len() as u64;
        self.pass_runs_effective += report.runs.iter().filter(|r| r.removed() > 0).count() as u64;
        self.pass_edits += report.runs.iter().map(|r| r.edits as u64).sum::<u64>();
        self.pass_removed += report.total_removed() as u64;
    }
}

/// Rewrite stage of the replay: the calls `pipeline::optimize` makes.
fn traced_optimize(
    t: &mut Tracer,
    id: u64,
    input: &Mig,
    spec: &CompileSpec,
    counts: &mut LayerCounts,
) -> Mig {
    let optimized = if spec.effort == 0 {
        t.span("rewrite", id, |_| input.cleaned())
    } else if spec.extended {
        t.span("rewrite", id, |_| {
            mig::resynth::rewrite_extended(input, spec.effort)
        })
    } else {
        match spec.options.rewrite {
            RewriteMode::Arena => {
                t.span("rewrite", id, |_| mig::rewrite::rewrite(input, spec.effort))
            }
            RewriteMode::Rebuild => t.span("rewrite", id, |_| {
                mig::rewrite::rewrite_rebuild(input, spec.effort)
            }),
            RewriteMode::Egraph => {
                let baseline = t.span("rewrite", id, |_| mig::rewrite::rewrite(input, spec.effort));
                let (chosen, stats) = t.span("egraph", id, |_| {
                    plim_egraph::optimize_with_stats(input, &baseline, spec.effort, spec.options)
                });
                counts.egraph_runs += 1;
                counts.egraph_enodes += stats.final_enodes as u64;
                counts.egraph_iterations += stats.iterations as u64;
                counts.egraph_candidates += stats.candidates_scored as u64;
                counts.egraph_improved += u64::from(stats.improved);
                chosen
            }
        }
    };
    counts.rewrite_nodes_out += optimized.num_majority_nodes() as u64;
    optimized
}

/// Lower, the entry-lint probe, passes and emission: the calls
/// `compile_full` makes, plus one `analyze_events` probe on the lowered IR
/// (the lint `PassManager::run` opens with), recorded as `analyze`.
pub fn traced_compile_full(
    t: &mut Tracer,
    id: u64,
    mig: &Mig,
    options: plim_compiler::CompilerOptions,
    counts: &mut LayerCounts,
) -> Compilation {
    let mut ir = t.span("lower", id, |_| plim_compiler::ir::lower(mig, options));
    counts.lower_events += ir.events.len() as u64;
    t.span("analyze", id, |_| {
        std::hint::black_box(analyze_events(&ir, &AnalysisConfig::structural()));
    });
    let report = t.span("passes", id, |_| {
        PassManager::for_level(options.opt).run(&mut ir, mig, options.target.backend())
    });
    counts.add_report(&report);
    let compiled = t.span("emit", id, |_| plim_compiler::ir::emit(&ir));
    Compilation {
        compiled,
        ir,
        report,
    }
}

/// The traced replay of [`product`], one span per public call under a
/// `compile` root span.
///
/// # Errors
///
/// Same messages as [`product`].
pub fn traced(
    t: &mut Tracer,
    id: u64,
    source: &str,
    spec: &CompileSpec,
    kind: &str,
    counts: &mut LayerCounts,
) -> Result<Output, String> {
    t.span("compile", id, |t| {
        let input = t.span("parse", id, |_| {
            pipeline::parse_network(InputFormat::Mig, source)
        })?;
        counts.parse_nodes += input.num_majority_nodes() as u64;
        let optimized = traced_optimize(t, id, &input, spec, counts);
        let compilation = traced_compile_full(t, id, &optimized, spec.options, counts);
        let target = spec.options.target;
        if spec.verify {
            t.span("verify", id, |_| {
                verify(&optimized, &compilation.compiled, 4, VERIFY_SEED)
            })
            .map_err(|e| format!("verification: {e}"))?;
            if target != Target::RM3 {
                let artifact = t.span("backend", id, |_| target.backend().emit(&compilation.ir));
                t.span("verify", id, |_| {
                    verify_artifact(&optimized, artifact.as_ref(), 4, VERIFY_SEED)
                })
                .map_err(|e| format!("verification ({target}): {e}"))?;
            }
        }
        let artifacts = Artifacts {
            optimized,
            compilation,
            target,
        };
        // Non-RM3 listings are rendered by the target's backend.
        let render = if target == Target::RM3 {
            "emit"
        } else {
            "backend"
        };
        let text = t.span(render, id, |_| pipeline::emit(kind, &artifacts))?;
        Ok(Output { text, artifacts })
    })
}
