//! Metric names, units, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use crate::path::{LayerCounts, Quality};
use crate::stats::{self, Outcomes};
use crate::trace::Tracer;

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("compile_ms_geomean", "ms"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("instructions", "count"),
    ("rams", "count"),
    ("max_cell_writes", "count"),
];

/// The per-layer metrics every traced run prints, with their units. A
/// layer that does not run on a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("parse.ms", "ms"),
    ("parse.nodes", "count"),
    ("rewrite.ms", "ms"),
    ("rewrite.nodes_out", "count"),
    ("egraph.ms", "ms"),
    ("egraph.enodes", "count"),
    ("egraph.iterations", "count"),
    ("egraph.candidates", "count"),
    ("egraph.improved_share", "ratio"),
    ("lower.ms", "ms"),
    ("lower.events", "count"),
    ("analyze.entry_ms", "ms"),
    ("passes.ms", "ms"),
    ("passes.runs", "count"),
    ("passes.edits", "count"),
    ("passes.removed", "count"),
    ("passes.effective_share", "ratio"),
    ("emit.ms", "ms"),
    ("backend.ms", "ms"),
    ("verify.ms", "ms"),
    ("lint.ms", "ms"),
    ("batch.ms", "ms"),
    ("batch.work_ms", "ms"),
    ("batch.efficiency", "ratio"),
    ("batch.longest_job_ms", "ms"),
    ("plimd.latency_ms_p99", "ms"),
    ("plimd.hit_ms_p50", "ms"),
    ("plimd.miss_ms_p50", "ms"),
    ("plimd.miss_ms_p99", "ms"),
    ("cache.hit_share", "ratio"),
    ("store.hits", "count"),
    ("store.writes", "count"),
    ("gen.lateness_ms_p99", "ms"),
    ("trace.overhead_share", "ratio"),
    ("host.probe_ms", "ms"),
    ("latency_ms_p90", "ms"),
];

/// What a workload run measured, before it is reduced to metrics. Times
/// are rescaled to the reference host (see [`crate::host`]) unless named
/// raw.
#[derive(Debug, Default)]
pub struct Measured {
    /// Duration of each set-up repetition.
    pub setup: Vec<Duration>,
    /// Time of each untraced round of the timed phase.
    pub rounds: Vec<Duration>,
    /// Raw wall time of each untraced round.
    pub raw_rounds: Vec<Duration>,
    /// CPU time of the measured process in each untraced round.
    pub cpu_rounds: Vec<Duration>,
    /// Time over which `latencies` were collected.
    pub elapsed: Duration,
    /// One latency per operation, tagged with the operation's input key.
    pub latencies: Vec<(usize, Duration)>,
    /// Consecutive slices of `latencies` whose latency figures are taken
    /// separately and reported as their median (0 or 1: all at once).
    pub segments: usize,
    /// Raw times of every host probe of the run.
    pub probes: Vec<Duration>,
    /// Peak RSS of the measured process.
    pub peak_rss_mb: f64,
    /// Quality counts of the workload's compiled programs.
    pub quality: Quality,
    /// Operation outcomes.
    pub outcomes: Outcomes,
    /// Names of the inputs the latency keys refer to (offline workloads).
    pub names: Vec<String>,
    /// Digest of every generated input, in order.
    pub input_digest: u128,
    /// Digest of every output, in order.
    pub output_digest: u128,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

/// Operation latencies tagged with their input keys.
type Latencies = [(usize, Duration)];

fn secs(durations: &[Duration]) -> Vec<f64> {
    durations.iter().map(Duration::as_secs_f64).collect()
}

fn latency_ms(slice: &Latencies) -> Vec<f64> {
    slice.iter().map(|&(_, l)| stats::ms(l)).collect()
}

impl Measured {
    /// A figure per segment of `latencies`, then their median: a stall
    /// that spans part of an open-loop schedule moves one segment, not the
    /// result.
    fn per_segment(&self, figure: &dyn Fn(&Latencies) -> f64) -> f64 {
        let n = self.latencies.len();
        let segments = self.segments.max(1);
        let values: Vec<f64> = (0..segments)
            .map(|s| figure(&self.latencies[s * n / segments..(s + 1) * n / segments]))
            .collect();
        stats::median(&values)
    }

    /// The latency tail: p90 when 10 samples lie beyond it, per segment.
    pub fn latency_p90_ms(&self) -> f64 {
        self.per_segment(&|slice| stats::tail(&latency_ms(slice), 90.0).value)
    }

    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64)> {
        let geomean = |slice: &Latencies| {
            let mut by_key: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
            for &(key, latency) in slice {
                by_key.entry(key).or_default().push(stats::ms(latency));
            }
            let per_key: Vec<f64> = by_key.values().map(|v| stats::median(v)).collect();
            stats::geomean(&per_key)
        };
        let values = [
            stats::median(&secs(&self.setup)),
            stats::median(&secs(&self.rounds)),
            stats::median(&secs(&self.cpu_rounds)),
            self.per_segment(&geomean),
            self.latencies.len() as f64 / self.elapsed.as_secs_f64().max(1e-9),
            self.per_segment(&|slice| stats::median(&latency_ms(slice))),
            self.peak_rss_mb,
            self.quality.instructions as f64,
            self.quality.rams as f64,
            self.quality.max_cell_writes as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect()
    }

    /// Notes on how the latency tail and the sample counts came about, and
    /// each named input's median latency.
    pub fn latency_notes(&self) -> Vec<String> {
        let segments = self.segments.max(1);
        let first: Vec<f64> = self.latencies[..self.latencies.len() / segments]
            .iter()
            .map(|&(_, l)| stats::ms(l))
            .collect();
        let tail = stats::tail(&first, 90.0);
        let mut notes = vec![format!(
            "latency_ms_p90 (per layer) reports p{:.2} over {} samples ({} beyond it) per segment, median of {segments} segment(s); {} rounds; error_share {:.6}",
            tail.percentile,
            tail.samples,
            tail.beyond,
            self.rounds.len(),
            self.outcomes.error_share()
        )];
        let list = |durations: &[Duration]| {
            secs(durations)
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        notes.push(format!(
            "host probe median {:.3} ms over {} probes (reference {:.3} ms); rounds (s) {}; raw rounds (s) {}",
            stats::median(&secs(&self.probes)) * 1e3,
            self.probes.len(),
            stats::ms(crate::host::REFERENCE),
            list(&self.rounds),
            list(&self.raw_rounds),
        ));
        for (key, name) in self.names.iter().enumerate() {
            let own: Vec<f64> = self
                .latencies
                .iter()
                .filter(|&&(k, _)| k == key)
                .map(|&(_, l)| stats::ms(l))
                .collect();
            notes.push(format!(
                "input {name}: median {:.3} ms over {} samples",
                stats::median(&own),
                own.len()
            ));
        }
        notes
    }
}

/// Layer figures of a traced run that do not come from spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerExtras {
    /// `batch.ms`, `batch.work_ms`, `batch.efficiency`, `batch.longest_job_ms`.
    pub batch: [f64; 4],
    /// `plimd.latency_ms_p99`, `plimd.hit_ms_p50`, `plimd.miss_ms_p50`,
    /// `plimd.miss_ms_p99`, `cache.hit_share`, `store.hits`,
    /// `store.writes`, `gen.lateness_ms_p99`.
    pub service: [f64; 8],
    /// Traced time over untraced time of the same work, minus one.
    pub overhead_share: f64,
    /// `latency_ms_p90` of the run's untraced operations.
    pub latency_p90_ms: f64,
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order. Span
/// times and counts are divided by `rounds` (per-round figures); span
/// times are rescaled by the run's median host probe.
pub fn per_layer(
    tracer: &Tracer,
    counts: &LayerCounts,
    extras: &LayerExtras,
    rounds: usize,
    probes: &[Duration],
) -> Vec<(&'static str, &'static str, f64)> {
    let per = rounds.max(1) as f64;
    let probe_ms = stats::median(&secs(probes)) * 1e3;
    let scale = if probe_ms > 0.0 {
        stats::ms(crate::host::REFERENCE) / probe_ms
    } else {
        1.0
    };
    let self_ms = tracer.self_times();
    let ms = |name: &str| self_ms.get(name).map_or(0.0, |d| stats::ms(*d)) * scale / per;
    let count = |c: u64| c as f64 / per;
    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    let values = [
        ms("parse"),
        count(counts.parse_nodes),
        ms("rewrite"),
        count(counts.rewrite_nodes_out),
        ms("egraph"),
        count(counts.egraph_enodes),
        count(counts.egraph_iterations),
        count(counts.egraph_candidates),
        share(counts.egraph_improved, counts.egraph_runs),
        ms("lower"),
        count(counts.lower_events),
        ms("analyze"),
        ms("passes"),
        count(counts.pass_runs),
        count(counts.pass_edits),
        count(counts.pass_removed),
        share(counts.pass_runs_effective, counts.pass_runs),
        ms("emit"),
        ms("backend"),
        ms("verify"),
        ms("lint"),
        extras.batch[0],
        extras.batch[1],
        extras.batch[2],
        extras.batch[3],
        extras.service[0],
        extras.service[1],
        extras.service[2],
        extras.service[3],
        extras.service[4],
        extras.service[5],
        extras.service[6],
        extras.service[7],
        extras.overhead_share,
        probe_ms,
        extras.latency_p90_ms,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect()
}

/// Formats a metric value for JSON: every digit, never NaN or infinity.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(
    correct: bool,
    outcomes: &Outcomes,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcomes.attempted, outcomes.failed
    );
    for (index, (name, unit, value)) in metrics.iter().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        );
    }
    out.push_str("}}");
    out
}
