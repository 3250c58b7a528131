//! The summary helpers: percentile floor, geometric mean, failure
//! accounting, open-loop latency, and span self time.

use std::time::Duration;

use plim_perfbench::stats::{self, Failure, OpenLoopSample, Outcomes, TAIL_FLOOR};
use plim_perfbench::trace::Tracer;

fn ascending(n: usize) -> Vec<f64> {
    (1..=n).map(|v| v as f64).collect()
}

#[test]
fn p99_is_reported_only_with_ten_samples_beyond_it() {
    let tail = stats::tail(&ascending(1000), 99.0);
    assert_eq!(tail.percentile, 99.0);
    assert_eq!(tail.value, 990.0);
    assert_eq!(tail.beyond, 10);
    assert_eq!(tail.samples, 1000);

    // The end-to-end tail asks for p90, which 100 samples already allow.
    let tail = stats::tail(&ascending(100), 90.0);
    assert_eq!((tail.percentile, tail.value, tail.beyond), (90.0, 90.0, 10));
}

#[test]
fn fewer_samples_fall_back_to_the_highest_percentile_with_ten_beyond() {
    let tail = stats::tail(&ascending(500), 99.0);
    assert_eq!(tail.beyond, TAIL_FLOOR);
    assert_eq!(tail.value, 490.0);
    assert!((tail.percentile - 98.0).abs() < 1e-9, "{tail:?}");

    // Order of the input does not matter.
    let mut shuffled = ascending(40);
    shuffled.reverse();
    let tail = stats::tail(&shuffled, 99.0);
    assert_eq!((tail.value, tail.beyond), (30.0, 10));
    assert!((tail.percentile - 75.0).abs() < 1e-9);
}

#[test]
fn too_few_samples_report_the_maximum_with_nothing_beyond() {
    let tail = stats::tail(&ascending(10), 99.0);
    assert_eq!((tail.value, tail.beyond, tail.percentile), (10.0, 0, 100.0));
    let empty = stats::tail(&[], 99.0);
    assert_eq!((empty.value, empty.samples), (0.0, 0));
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(stats::median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(stats::median(&[]), 0.0);
}

#[test]
fn geometric_mean() {
    assert!((stats::geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    assert!((stats::geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
    assert!((stats::geomean(&[5.0]) - 5.0).abs() < 1e-9);
    assert_eq!(stats::geomean(&[]), 0.0);
}

#[test]
fn refused_missing_and_timed_out_requests_count_as_failed() {
    let mut outcomes = Outcomes::default();
    outcomes.record(None);
    outcomes.record(Some(Failure::Refused));
    outcomes.record(Some(Failure::Missing));
    outcomes.record(Some(Failure::Timeout));
    outcomes.record(None);
    assert_eq!(outcomes.attempted, 5);
    assert_eq!(outcomes.failed, 3);
    assert!((outcomes.error_share() - 0.6).abs() < 1e-12);

    // A failure found after the timed phase marks a counted operation.
    outcomes.fail_counted();
    assert_eq!((outcomes.attempted, outcomes.failed), (5, 4));
    for _ in 0..5 {
        outcomes.fail_counted();
    }
    assert_eq!(outcomes.failed, 5, "never more failures than attempts");
    assert_eq!(Outcomes::default().error_share(), 0.0);
}

#[test]
fn open_loop_latency_runs_from_the_scheduled_send_time() {
    let sample = OpenLoopSample {
        due: Duration::from_millis(10),
        sent: Duration::from_millis(15),
        done: Duration::from_millis(17),
    };
    // The 5 ms the generator ran late is part of what the user waited.
    assert_eq!(sample.latency(), Duration::from_millis(7));
    assert_eq!(sample.lateness(), Duration::from_millis(5));
    let on_time = OpenLoopSample {
        due: Duration::from_millis(10),
        sent: Duration::from_millis(10),
        done: Duration::from_millis(12),
    };
    assert_eq!(on_time.latency(), Duration::from_millis(2));
    assert_eq!(on_time.lateness(), Duration::ZERO);
}

#[test]
fn self_time_subtracts_the_time_children_cover() {
    let mut tracer = Tracer::new();
    tracer.span("compile", 1, |t| {
        t.span("parse", 1, |_| {
            std::thread::sleep(Duration::from_millis(20))
        });
        t.span("emit", 1, |_| std::thread::sleep(Duration::from_millis(10)));
        std::thread::sleep(Duration::from_millis(5));
    });
    let self_times = tracer.self_times();
    let total = tracer.total("compile");
    let children = tracer.total("parse") + tracer.total("emit");
    assert_eq!(self_times["compile"], total - children);
    assert!(self_times["parse"] >= Duration::from_millis(20));
    assert!(self_times["compile"] >= Duration::from_millis(5));
    let spans = tracer.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[0].parent, None);
    assert!(tracer.to_json().contains("\"name\":\"parse\""));
}
