//! Host speed: a fixed probe computation timed between operations.
//!
//! On a shared virtual machine the same compile can run 1.6× faster or
//! slower from one few-second stretch to the next, because other tenants
//! come and go. Run-to-run spread of raw times then says more about the
//! neighbours than about the code. The benchmark therefore times this
//! probe — a fixed piece of the benchmark's own code, which no change to
//! the product can speed up — around every operation, and reports times
//! rescaled to a host on which the probe takes [`REFERENCE`]. Raw times
//! and the probe medians are printed in the notes.

use std::collections::HashMap;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The probe time the reported times are rescaled to.
pub const REFERENCE: Duration = Duration::from_millis(1);

/// Times one run of the probe: hash-map updates, vector pushes and a sort
/// over a fixed pseudo-random sequence, the kind of work the compiler does.
pub fn probe() -> Duration {
    let clock = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut counts: HashMap<u64, u64> = HashMap::with_capacity(8192);
    let mut values: Vec<u32> = Vec::with_capacity(30_000);
    for i in 0..30_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *counts.entry(x & 0x1fff).or_default() += i;
        values.push((x >> 20) as u32);
    }
    values.sort_unstable();
    std::hint::black_box((counts.len(), values[values.len() / 2]));
    clock.elapsed()
}

/// The factor that rescales a time to the reference host, from the probes
/// around it.
pub fn scale(probes: &[Duration]) -> f64 {
    let mut sorted = probes.to_vec();
    sorted.sort();
    let probe = sorted
        .get(sorted.len() / 2)
        .map_or(0.0, Duration::as_secs_f64);
    REFERENCE.as_secs_f64() / probe.max(1e-9)
}

/// Probes the host from a background thread, so an operation that runs for
/// seconds — longer than the host keeps one speed — is rescaled by the
/// probes taken while it ran, and another process (the daemon) can sample
/// its own host speed. At one probe per 50 ms it keeps a core about 3 %
/// busy.
#[derive(Debug)]
pub struct Sampler {
    probes: Arc<Mutex<Vec<(Instant, Duration)>>>,
    stop: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Starts the sampling thread, pausing `every` between probes.
    pub fn start(every: Duration) -> Sampler {
        let probes = Arc::new(Mutex::new(Vec::new()));
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = {
            let probes = Arc::clone(&probes);
            std::thread::spawn(move || loop {
                let at = Instant::now();
                let time = probe();
                probes
                    .lock()
                    .expect("sampler lock poisoned")
                    .push((at, time));
                // Wakes at once when the sampler is dropped, so stopping
                // never waits out a pause.
                if stopped.recv_timeout(every) != Err(RecvTimeoutError::Timeout) {
                    break;
                }
            })
        };
        Sampler {
            probes,
            stop: Some(stop),
            thread: Some(thread),
        }
    }

    /// The median of every probe so far.
    pub fn median(&self) -> Option<Duration> {
        let mut times: Vec<Duration> = self
            .probes
            .lock()
            .expect("sampler lock poisoned")
            .iter()
            .map(|&(_, time)| time)
            .collect();
        times.sort();
        times.get(times.len() / 2).copied()
    }

    /// The probes that started between `from` and `to`.
    fn between(&self, from: Instant, to: Instant) -> Vec<Duration> {
        self.probes
            .lock()
            .expect("sampler lock poisoned")
            .iter()
            .filter(|&&(at, _)| at >= from && at <= to)
            .map(|&(_, time)| time)
            .collect()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(thread) = self.thread.take() {
            // A panicked sampler only loses probes; nothing to report.
            let _ = thread.join();
        }
    }
}

/// Times operations between host probes.
#[derive(Debug)]
pub struct Meter {
    /// Raw time of every probe taken on the measuring thread.
    pub probes: Vec<Duration>,
    sampler: Option<Sampler>,
}

impl Default for Meter {
    fn default() -> Self {
        Meter::new()
    }
}

impl Meter {
    /// Starts with two probes.
    pub fn new() -> Self {
        Meter {
            probes: vec![probe(), probe()],
            sampler: None,
        }
    }

    /// A meter that also probes from a background [`Sampler`] every 50 ms.
    pub fn sampled() -> Self {
        Meter {
            sampler: Some(Sampler::start(Duration::from_millis(50))),
            ..Meter::new()
        }
    }

    /// Takes one probe and returns its raw time.
    pub fn probe(&mut self) -> Duration {
        let time = probe();
        self.probes.push(time);
        time
    }

    /// Runs `f` and probes after it; returns its result, its time rescaled
    /// to the reference host, and its raw time. The rescale factor comes
    /// from the median of the background probes taken while `f` ran when
    /// there are at least three, otherwise of the probe after `f` and the
    /// two before it, so one probe that a neighbour happened to slow does
    /// not skew the operation.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Duration, Duration) {
        let clock = Instant::now();
        let value = f();
        let end = Instant::now();
        let raw = end - clock;
        self.probe();
        let during = self
            .sampler
            .as_ref()
            .map(|sampler| sampler.between(clock, end))
            .unwrap_or_default();
        let factor = if during.len() >= 3 {
            scale(&during)
        } else {
            scale(&self.probes[self.probes.len() - 3..])
        };
        (value, raw.mul_f64(factor), raw)
    }
}
