//! # plim-parallel — a minimal deterministic data-parallel executor
//!
//! The batch-compilation pipeline fans independent jobs across CPU cores.
//! This workspace builds offline, so instead of depending on `rayon` it
//! ships this small executor: scoped worker threads pull job indices from a
//! shared atomic counter (self-balancing, like a work-stealing pool whose
//! units are whole jobs) and results are merged back **in job order**, so
//! the output is byte-for-byte independent of scheduling.
//!
//! The API is deliberately a subset of rayon's `par_iter().map().collect()`
//! shape; swapping rayon in later is a one-function change in [`par_map`].
//!
//! For long-running services that need persistent workers rather than
//! one-shot fan-outs, the [`pool`] module provides a
//! [`pool::WorkerPool`] draining one FIFO job queue with graceful
//! shutdown, and the [`queue`] module
//! a wakeable [`queue::CompletionQueue`] for handing finished work back
//! to an event-loop consumer.
//!
//! ```
//! use plim_parallel::{par_map, Parallelism};
//!
//! let squares = par_map(&[1u64, 2, 3, 4], Parallelism::Auto, |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

pub mod pool;
pub mod queue;

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Degree of parallelism for a [`par_map`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker per available hardware thread (capped at the job count).
    #[default]
    Auto,
    /// Run everything on the calling thread, in order.
    Serial,
    /// Exactly `n` workers (clamped to at least 1, capped at the job count).
    Threads(usize),
}

impl Parallelism {
    /// Parses a `--jobs`-style request: `None` means [`Parallelism::Auto`],
    /// `Some(0)` and `Some(1)` mean [`Parallelism::Serial`].
    pub fn from_jobs(jobs: Option<usize>) -> Self {
        match jobs {
            None => Parallelism::Auto,
            Some(0) | Some(1) => Parallelism::Serial,
            Some(n) => Parallelism::Threads(n),
        }
    }

    /// Number of worker threads this setting yields for `jobs` jobs.
    pub fn worker_count(self, jobs: usize) -> usize {
        let cap = match self {
            Parallelism::Serial => 1,
            Parallelism::Auto => available_threads(),
            Parallelism::Threads(n) => n.max(1),
        };
        cap.min(jobs).max(1)
    }
}

/// Number of hardware threads available to this process (at least 1).
pub fn available_threads() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every item and collects the results **in item order**.
///
/// Jobs are distributed dynamically: each worker repeatedly claims the next
/// unclaimed index, so long jobs do not stall the queue behind them. The
/// result vector is identical to the serial
/// `items.iter().enumerate().map(|(i, x)| f(i, x)).collect()` for a pure
/// `f`, regardless of how jobs were scheduled.
///
/// # Panics
///
/// Propagates the panic of any job (the remaining workers finish their
/// current job first).
pub fn par_map<T, R, F>(items: &[T], parallelism: Parallelism, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = parallelism.worker_count(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }

    let next = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, R)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(index) else {
                            return done;
                        };
                        done.push((index, f(index, item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });

    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for (index, result) in buckets.into_iter().flatten() {
        debug_assert!(slots[index].is_none(), "job {index} ran twice");
        slots[index] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every job ran exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<usize> = (0..257).collect();
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Auto,
            Parallelism::Threads(3),
            Parallelism::Threads(64),
        ] {
            let out = par_map(&items, parallelism, |i, &x| {
                assert_eq!(i, x);
                x * 2 + 1
            });
            let expected: Vec<usize> = items.iter().map(|&x| x * 2 + 1).collect();
            assert_eq!(out, expected, "{parallelism:?}");
        }
    }

    #[test]
    fn matches_serial_for_uneven_workloads() {
        // Jobs of wildly different cost still land in their own slot.
        let items: Vec<u64> = (0..48).map(|i| (i * 37) % 23).collect();
        let work = |_: usize, &n: &u64| -> u64 { (0..n * 1000).fold(n, |acc, x| acc ^ x) };
        let serial = par_map(&items, Parallelism::Serial, work);
        let parallel = par_map(&items, Parallelism::Threads(7), work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = par_map(&[], Parallelism::Auto, |_, &x: &u32| x);
        assert!(none.is_empty());
        let one = par_map(&[9u32], Parallelism::Threads(8), |_, &x| x + 1);
        assert_eq!(one, vec![10]);
    }

    #[test]
    fn worker_counts_are_clamped() {
        assert_eq!(Parallelism::Serial.worker_count(100), 1);
        assert_eq!(Parallelism::Threads(4).worker_count(2), 2);
        assert_eq!(Parallelism::Threads(0).worker_count(5), 1);
        assert!(Parallelism::Auto.worker_count(1000) >= 1);
        // Even with zero jobs the count stays sane.
        assert_eq!(Parallelism::Auto.worker_count(0), 1);
    }

    #[test]
    fn from_jobs_maps_cli_conventions() {
        assert_eq!(Parallelism::from_jobs(None), Parallelism::Auto);
        assert_eq!(Parallelism::from_jobs(Some(0)), Parallelism::Serial);
        assert_eq!(Parallelism::from_jobs(Some(1)), Parallelism::Serial);
        assert_eq!(Parallelism::from_jobs(Some(6)), Parallelism::Threads(6));
    }

    #[test]
    fn propagates_job_panics() {
        let result = std::panic::catch_unwind(|| {
            par_map(&[0, 1, 2, 3], Parallelism::Threads(2), |_, &x| {
                assert!(x != 2, "boom");
                x
            })
        });
        assert!(result.is_err());
    }
}
