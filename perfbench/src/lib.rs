//! The benchmark of `plimc` and `plimd`: four workloads, each run in a
//! fresh process, timed from outside through the public functions of
//! `mig`, `plim-egraph`, `plim-compiler` and `plim-service`.
//!
//! An untraced run prints the end-to-end metrics; a traced run replays the
//! same work through hand-sequenced public calls, one span per call, and
//! prints the per-layer metrics. See `README.md` for the workloads, the
//! metrics and which layer moves which end-to-end metric.

pub mod host;
pub mod inputs;
pub mod offline;
pub mod path;
pub mod plimd;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;

use std::path::PathBuf;

use inputs::Size;
use report::Measured;
use trace::Tracer;

/// How many times set-up runs per process; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table 1 experiment through `batch::measure_suite`.
    Table1,
    /// `-O2` compiles with the arena rewrite, closed loop.
    CompileO2,
    /// `-O2` compiles with `--rewrite egraph`, closed loop.
    EgraphO2,
    /// An open loop of mixed requests against a fresh `plimd`.
    PlimdMixed,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Table1,
        Workload::CompileO2,
        Workload::EgraphO2,
        Workload::PlimdMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::CompileO2 => "compile-o2",
            Workload::EgraphO2 => "egraph-o2",
            Workload::PlimdMixed => "plimd-mixed",
        }
    }

    /// Parses a command-line name.
    ///
    /// # Errors
    ///
    /// Names the valid workloads.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload `{name}` (one of {})", names.join(", "))
            })
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Intended length of the timed phase; sets the number of rounds.
    pub seconds: f64,
    /// Replay the work traced and report per-layer metrics.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
    /// Executable that serves `daemon` (this benchmark's own binary).
    pub daemon_exe: PathBuf,
    /// Directory for temporary stores and traces.
    pub scratch: PathBuf,
}

/// What a run produced.
#[derive(Debug)]
pub struct RunResult {
    /// The raw measurements.
    pub measured: Measured,
    /// Per-layer metrics (traced runs only).
    pub layers: Option<Vec<(&'static str, &'static str, f64)>>,
    /// The spans (traced runs only).
    pub tracer: Option<Tracer>,
}

impl RunResult {
    /// Bundles a run's results.
    pub fn new(
        measured: Measured,
        layers: Option<Vec<(&'static str, &'static str, f64)>>,
        tracer: Option<Tracer>,
    ) -> Self {
        RunResult {
            measured,
            layers,
            tracer,
        }
    }

    /// The metrics the result line carries: per-layer for a traced run,
    /// end-to-end otherwise.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        self.layers
            .clone()
            .unwrap_or_else(|| self.measured.end_to_end())
    }

    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.measured.outcomes.failed == 0 && self.measured.outcomes.attempted > 0
    }
}

/// Runs one workload in this process.
///
/// # Errors
///
/// Returns a message when the workload cannot run at all (as opposed to
/// operations failing, which are counted).
pub fn run(config: &Config) -> Result<RunResult, String> {
    plim_backends::install();
    plim_egraph::install();
    match config.workload {
        Workload::Table1 => offline::run_table1(config, 11.0),
        Workload::CompileO2 => offline::run_compile(config, inputs::compile_o2, 5.5),
        Workload::EgraphO2 => offline::run_compile(config, inputs::egraph_o2, 3.8),
        Workload::PlimdMixed => plimd::run_plimd(config),
    }
}
