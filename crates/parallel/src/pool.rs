//! A reusable worker pool with one FIFO job queue and graceful shutdown.
//!
//! [`par_map`](crate::par_map) covers one-shot fan-outs; a long-running
//! daemon needs the opposite shape — threads that outlive any single
//! batch, accept work continuously, and drain cleanly on shutdown.
//! [`WorkerPool`] provides exactly that: every job joins one queue, and
//! whichever worker is idle takes the oldest job. Jobs start in
//! submission order, and a slow job occupies one worker only — the rest
//! keep draining the queue around it.
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//! use plim_parallel::pool::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! let counter = Arc::new(AtomicUsize::new(0));
//! for _ in 0..16 {
//!     let counter = Arc::clone(&counter);
//!     pool.submit(move || {
//!         counter.fetch_add(1, Ordering::Relaxed);
//!     });
//! }
//! pool.shutdown(); // waits for every queued job
//! assert_eq!(counter.load(Ordering::Relaxed), 16);
//! ```

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The job queue every worker takes from.
#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
}

/// A fixed-size pool of named worker threads draining one FIFO queue.
///
/// Dropping the pool shuts it down gracefully (equivalent to calling
/// [`WorkerPool::shutdown`]): the queue closes, already-queued jobs still
/// run, and the worker threads are joined.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (at least 1).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared::default());
        let workers = (0..workers.max(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("plim-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a worker thread")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Queues `job` for the next idle worker. Returns `false` (dropping
    /// the job) when the pool is already shutting down.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> bool {
        let mut queue = self.shared.queue.lock().expect("pool lock poisoned");
        if queue.closed {
            return false;
        }
        queue.jobs.push_back(Box::new(job));
        drop(queue);
        self.shared.available.notify_one();
        true
    }

    /// Jobs currently waiting (not yet started) in the queue.
    pub fn queue_depth(&self) -> usize {
        self.shared
            .queue
            .lock()
            .expect("pool lock poisoned")
            .jobs
            .len()
    }

    /// Closes the queue, runs the jobs already queued, and joins the
    /// worker threads. Idempotent; also invoked by `Drop`.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.queue.lock().expect("pool lock poisoned").closed = true;
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            // Worker loops catch job panics, so a join failure is
            // exceptional. Never re-raise while already unwinding (Drop
            // during a panic): a double panic aborts the process.
            if let Err(payload) = worker.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool lock poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.closed {
                    return;
                }
                queue = shared.available.wait(queue).expect("pool lock poisoned");
            }
        };
        // A panicking job must not take its worker down with it: the pool
        // would silently shrink, and at zero workers queued jobs would
        // never run. Answering the job's submitter is the job's own
        // business (the daemon's compile job catches its panic itself).
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn runs_every_submitted_job() {
        let pool = WorkerPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            assert!(pool.submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn jobs_start_in_fifo_order_on_one_worker() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        for n in 0..20 {
            let tx = tx.clone();
            pool.submit(move || tx.send(n).unwrap());
        }
        pool.shutdown();
        let seen: Vec<i32> = rx.try_iter().collect();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn an_idle_worker_takes_the_job_behind_a_busy_one() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.workers(), 2);
        // Block one worker; the next job must still run on the other.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        started_rx.recv().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        pool.submit(move || done_tx.send("ran").unwrap());
        assert_eq!(done_rx.recv().unwrap(), "ran");
        release_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn queue_depth_counts_jobs_not_yet_started() {
        let pool = WorkerPool::new(1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        started_rx.recv().unwrap();
        assert_eq!(pool.queue_depth(), 0);
        pool.submit(|| {});
        pool.submit(|| {});
        assert_eq!(pool.queue_depth(), 2);
        release_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn shutdown_rejects_late_submissions() {
        let pool = WorkerPool::new(1);
        // Simulate the race by closing the queue directly: after close,
        // submit reports failure instead of silently dropping work.
        pool.shared.queue.lock().unwrap().closed = true;
        assert!(!pool.submit(|| panic!("must not run")));
        pool.shared.available.notify_all();
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..10 {
                let counter = Arc::clone(&counter);
                pool.submit(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            // No explicit shutdown: Drop must still run everything.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn a_panicking_job_does_not_wedge_the_pool() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        pool.submit(|| panic!("job blew up"));
        // The only worker must survive and run the next job.
        pool.submit(move || tx.send("still alive").unwrap());
        assert_eq!(rx.recv().unwrap(), "still alive");
        // Shutdown joins cleanly — the panic was contained.
        pool.shutdown();
    }

    #[test]
    fn zero_worker_request_is_clamped() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let (tx, rx) = mpsc::channel();
        pool.submit(move || tx.send(42).unwrap());
        pool.shutdown();
        assert_eq!(rx.recv().unwrap(), 42);
    }
}
