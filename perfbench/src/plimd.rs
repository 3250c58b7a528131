//! The `plimd-mixed` workload: one client thread drives a fresh daemon in
//! an open loop over TCP with a seeded request mix.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use mig::simulate::XorShift64;
use plim_compiler::cache::fnv128;
use plim_compiler::{OptLevel, Target};
use plim_service::client;
use plim_service::pipeline::CompileSpec;
use plim_service::poller::{Event, Interest, Poller};
use plim_service::protocol::{CompileRequest, Request, Response};

use crate::host::Meter;
use crate::inputs::{self, control_text, mix, Size};
use crate::offline::time_traced;
use crate::path::{self, LayerCounts, Quality};
use crate::report::{self, LayerExtras, Measured};
use crate::stats::{self, Failure, OpenLoopSample};
use crate::trace::Tracer;
use crate::{Config, RunResult, SETUP_REPS};

/// Requests per second of the open loop: a rate the daemon sustains on two
/// cores without a growing backlog, with a miss share that keeps the
/// worker pool busy part of the time.
pub const RATE: f64 = 200.0;

/// Share of requests (percent) for cold distinct circuits and for circuits
/// pre-seeded into the store; the rest repeat the hot set.
const COLD_PERCENT: usize = 15;
const STORED_PERCENT: usize = 15;

/// Percent of hot and cold requests sent at `-O2` or the `ambit`/`magic`
/// targets instead of the default options.
const VARIANT_PERCENT: u64 = 10;

/// Prefix of the daemon's last output line: the median host probe (ms)
/// its own sampler thread took while it served.
pub const DAEMON_PROBE: &str = "perfbench daemon: probe median ms ";

/// Consecutive slices of the schedule whose latency figures are taken
/// separately; the median over them is reported.
const SEGMENTS: usize = 5;

/// How long responses may trail the end of the schedule before the missing
/// ones count as timed out.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Suite circuits of the hot set (full-scale, small enough to compile in
/// milliseconds on their first miss).
const HOT_SUITE: [&str; 9] = [
    "adder",
    "log2",
    "cavlc",
    "ctrl",
    "dec",
    "i2c",
    "int2float",
    "priority",
    "router",
];

/// Options a request can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Default,
    O2,
    Ambit,
    Magic,
}

impl Variant {
    fn spec(self) -> CompileSpec {
        let mut spec = CompileSpec::default();
        spec.options = match self {
            Variant::Default => spec.options,
            Variant::O2 => spec.options.opt(OptLevel::O2),
            Variant::Ambit => spec
                .options
                .target(Target::parse("ambit").expect("backends installed")),
            Variant::Magic => spec
                .options
                .target(Target::parse("magic").expect("backends installed")),
        };
        spec
    }
}

/// The seeded request mix: distinct jobs and the order they are requested.
#[derive(Debug, Clone, PartialEq)]
pub struct Mix {
    /// Distinct circuits, as MIG text.
    pub sources: Vec<String>,
    /// Distinct `(source, spec)` jobs.
    pub jobs: Vec<(usize, CompileSpec)>,
    /// Jobs pre-seeded into the store during set-up.
    pub stored: Vec<usize>,
    /// The job of each request, in schedule order.
    pub schedule: Vec<usize>,
}

impl Mix {
    /// Generates the mix of `requests` requests from `seed`.
    pub fn generate(size: Size, seed: u64, requests: usize) -> Mix {
        let mut rng = XorShift64::for_stream(seed, 0x6d6978);
        let (hot_control, stored_shape, cold_nodes): (
            usize,
            (usize, usize, usize),
            (usize, usize),
        ) = match size {
            Size::Full => (3, (128, 16, 400), (300, 700)),
            Size::Tiny => (1, (16, 4, 40), (30, 60)),
        };
        let mut sources: Vec<String> = Vec::new();
        let hot_names: &[&str] = match size {
            Size::Full => &HOT_SUITE,
            Size::Tiny => &HOT_SUITE[3..5],
        };
        for name in hot_names {
            sources.push(mig::io::write_mig(&inputs::suite_circuit(name, size)));
        }
        for index in 0..hot_control {
            sources.push(control_text(256, 32, 800, mix(seed, 100 + index as u64)));
        }
        let hot = 0..sources.len();
        let stored_count = match size {
            Size::Full => 24,
            Size::Tiny => 3,
        };
        let stored_start = sources.len();
        for index in 0..stored_count {
            let (pi, po, nodes) = stored_shape;
            sources.push(control_text(pi, po, nodes, mix(seed, 200 + index as u64)));
        }

        // Exact class counts, shuffled, so the composition never varies.
        let cold = requests * COLD_PERCENT / 100;
        let stored = requests * STORED_PERCENT / 100;
        let mut classes: Vec<u8> = std::iter::repeat_n(0u8, requests - cold - stored)
            .chain(std::iter::repeat_n(1u8, stored))
            .chain(std::iter::repeat_n(2u8, cold))
            .collect();
        for i in (1..classes.len()).rev() {
            classes.swap(i, rng.next_below(i as u64 + 1) as usize);
        }

        let mut jobs: Vec<(usize, CompileSpec)> = Vec::new();
        let job_of = |source: usize, spec: CompileSpec, jobs: &mut Vec<(usize, CompileSpec)>| {
            jobs.iter()
                .position(|&j| j == (source, spec))
                .unwrap_or_else(|| {
                    jobs.push((source, spec));
                    jobs.len() - 1
                })
        };
        let variant = |rng: &mut XorShift64| {
            if rng.next_below(100) < VARIANT_PERCENT {
                [Variant::O2, Variant::Ambit, Variant::Magic][rng.next_below(3) as usize]
            } else {
                Variant::Default
            }
        };
        let stored_jobs: Vec<usize> = (0..stored_count)
            .map(|i| job_of(stored_start + i, CompileSpec::default(), &mut jobs))
            .collect();
        let mut schedule = Vec::with_capacity(requests);
        for (index, class) in classes.into_iter().enumerate() {
            let job = match class {
                0 => {
                    let source = hot.start + rng.next_below(hot.len() as u64) as usize;
                    let spec = variant(&mut rng).spec();
                    job_of(source, spec, &mut jobs)
                }
                1 => stored_jobs[rng.next_below(stored_count as u64) as usize],
                _ => {
                    let (low, high) = cold_nodes;
                    let nodes = low + rng.next_below((high - low) as u64) as usize;
                    let inputs = 96 + rng.next_below(96) as usize;
                    sources.push(control_text(
                        inputs,
                        16,
                        nodes,
                        mix(seed, 1000 + index as u64),
                    ));
                    let spec = variant(&mut rng).spec();
                    job_of(sources.len() - 1, spec, &mut jobs)
                }
            };
            schedule.push(job);
        }
        Mix {
            sources,
            jobs,
            stored: stored_jobs,
            schedule,
        }
    }

    /// The compile request of a job.
    fn request(&self, job: usize) -> Request {
        let (source, spec) = self.jobs[job];
        Request::Compile(CompileRequest {
            source: self.sources[source].clone(),
            spec,
            ..CompileRequest::default()
        })
    }
}

/// A daemon child process. Dropping it kills and reaps the process if it
/// is still running.
#[derive(Debug)]
struct Daemon {
    child: Child,
    addr: String,
    // Held open so the daemon's lines never hit a closed pipe; read after
    // exit for its probe median.
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(exe: &Path, store: &Path) -> Result<Daemon, String> {
        let threads = plim_parallel::available_threads().to_string();
        let mut child = Command::new(exe)
            .args([
                "daemon",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                &threads,
                "--quiet",
                "--store",
            ])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting the daemon {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .strip_prefix("plimd: listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stdout,
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                daemon.addr = addr;
                Ok(daemon)
            }
            _ => Err(format!(
                "the daemon did not report its address (got {line:?})"
            )),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Stops the daemon through the `shutdown` op, checks its exit status,
    /// and returns the median host probe it reported.
    fn shutdown(mut self) -> Result<Option<Duration>, String> {
        match client::send(&self.addr, &Request::Shutdown)? {
            Response::Shutdown => {}
            other => return Err(format!("shutdown answered {other:?}")),
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| format!("waiting: {e}"))? {
                if !status.success() {
                    return Err(format!("the daemon exited with {status}"));
                }
                let mut rest = String::new();
                let _ = self.stdout.read_to_string(&mut rest);
                return Ok(rest
                    .lines()
                    .find_map(|line| line.strip_prefix(DAEMON_PROBE))
                    .and_then(|ms| ms.trim().parse::<f64>().ok())
                    .map(|ms| Duration::from_secs_f64(ms / 1e3)));
            }
            if Instant::now() > deadline {
                return Err("the daemon did not exit after shutdown".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A store directory that is removed when dropped.
#[derive(Debug)]
struct TempStore(PathBuf);

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once the scratch directory is empty.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Set-up: a first daemon instance seeds the store with the `stored` jobs
/// and stops; a fresh daemon then starts on that store.
fn start(config: &Config, mix: &Mix, rep: usize) -> Result<(Daemon, TempStore), String> {
    let store = TempStore(
        config
            .scratch
            .join(format!("plimd-{}-{rep}", std::process::id())),
    );
    let _ = std::fs::remove_dir_all(&store.0);
    std::fs::create_dir_all(&store.0)
        .map_err(|e| format!("creating {}: {e}", store.0.display()))?;
    let seeder = Daemon::spawn(&config.daemon_exe, &store.0)?;
    let mut conn = client::Connection::connect(&seeder.addr)?;
    for &job in &mix.stored {
        match conn.roundtrip(&mix.request(job))? {
            Response::Compile(_) => {}
            other => return Err(format!("seeding the store: {other:?}")),
        }
    }
    drop(conn);
    seeder.shutdown()?;
    let daemon = Daemon::spawn(&config.daemon_exe, &store.0)?;
    Ok((daemon, store))
}

/// One client connection of the open loop.
struct Conn {
    stream: std::net::TcpStream,
    out: Vec<u8>,
    written: usize,
    buf: Vec<u8>,
    inflight: VecDeque<usize>,
    open: bool,
}

/// What the open loop observed for one request.
#[derive(Debug, Clone, Default)]
struct Answer {
    sent: Duration,
    done: Option<Duration>,
    line: Option<String>,
    closed: bool,
}

/// Drives the schedule; returns per-request answers and the phase's wall
/// time.
fn open_loop(
    addr: &str,
    mix: &Mix,
    lines: &[Vec<u8>],
    connections: usize,
) -> Result<(Vec<Answer>, Duration), String> {
    let mut poller = Poller::new().map_err(|e| format!("creating the poller: {e}"))?;
    let mut conns = Vec::with_capacity(connections);
    for index in 0..connections {
        let stream =
            std::net::TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("unblocking: {e}"))?;
        let _ = stream.set_nodelay(true);
        poller
            .register(stream.as_raw_fd(), index as u64, Interest::BOTH)
            .map_err(|e| format!("registering: {e}"))?;
        conns.push(Conn {
            stream,
            out: Vec::new(),
            written: 0,
            buf: Vec::new(),
            inflight: VecDeque::new(),
            open: true,
        });
    }
    let total = mix.schedule.len();
    let due = |i: usize| Duration::from_secs_f64(i as f64 / RATE);
    let mut answers = vec![Answer::default(); total];
    let mut next = 0usize;
    let mut finished = 0usize;
    let mut events: Vec<Event> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let start = Instant::now();
    let deadline = due(total) + DRAIN_TIMEOUT;
    while finished < total {
        let now = start.elapsed();
        if now > deadline {
            break;
        }
        while next < total && due(next) <= now {
            let conn = &mut conns[next % connections];
            conn.out.extend_from_slice(&lines[mix.schedule[next]]);
            conn.inflight.push_back(next);
            answers[next].sent = now;
            next += 1;
        }
        for conn in conns.iter_mut().filter(|c| c.open) {
            while conn.written < conn.out.len() {
                match conn.stream.write(&conn.out[conn.written..]) {
                    Ok(0) => break,
                    Ok(n) => conn.written += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.open = false;
                        break;
                    }
                }
            }
            if conn.written == conn.out.len() {
                conn.out.clear();
                conn.written = 0;
            }
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.open = false;
                        break;
                    }
                    Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.open = false;
                        break;
                    }
                }
            }
            let done = start.elapsed();
            let mut consumed = 0;
            while let Some(offset) = conn.buf[consumed..].iter().position(|&b| b == b'\n') {
                let line =
                    String::from_utf8_lossy(&conn.buf[consumed..consumed + offset]).into_owned();
                consumed += offset + 1;
                if let Some(request) = conn.inflight.pop_front() {
                    answers[request].done = Some(done);
                    answers[request].line = Some(line);
                    finished += 1;
                }
            }
            conn.buf.drain(..consumed);
            if !conn.open {
                for request in conn.inflight.drain(..) {
                    answers[request].closed = true;
                    finished += 1;
                }
            }
        }
        // Sleep until the next send is due or a response arrives; near the
        // due time, poll in short steps so sends are not a millisecond late.
        let until_next = if next < total {
            due(next).saturating_sub(start.elapsed())
        } else {
            Duration::from_millis(50)
        };
        if until_next > Duration::from_millis(2) {
            poller
                .wait(&mut events, Some(until_next - Duration::from_millis(1)))
                .map_err(|e| format!("polling: {e}"))?;
        } else if !until_next.is_zero() {
            std::thread::sleep(until_next.min(Duration::from_micros(100)));
        }
    }
    let wall = start.elapsed();
    for conn in &conns {
        let _ = poller.deregister(conn.stream.as_raw_fd());
    }
    Ok((answers, wall))
}

/// `plimd-mixed`.
pub fn run_plimd(config: &Config) -> Result<RunResult, String> {
    plim_backends::install();
    let requests = ((config.seconds * RATE).round() as usize).max(match config.size {
        Size::Full => 200,
        Size::Tiny => 40,
    });
    let connections = plim_parallel::available_threads().max(1);
    let mut measured = Measured::default();
    let mut meter = Meter::new();
    let mut setup: Option<(Mix, Vec<Vec<u8>>, Daemon, TempStore)> = None;
    for rep in 0..SETUP_REPS {
        let (started, scaled, _) = meter.time(|| {
            let mix = Mix::generate(config.size, config.seed, requests);
            let lines: Vec<Vec<u8>> = (0..mix.jobs.len())
                .map(|job| format!("{}\n", mix.request(job).to_json()).into_bytes())
                .collect();
            start(config, &mix, rep).map(|(daemon, store)| (mix, lines, daemon, store))
        });
        let (mix, lines, daemon, store) = started?;
        measured.setup.push(scaled);
        if let Some((previous, _, previous_daemon, _previous_store)) = setup.take() {
            previous_daemon.shutdown()?;
            if previous != mix {
                return Err("request mix generation is not deterministic".to_string());
            }
        }
        setup = Some((mix, lines, daemon, store));
    }
    let (mix, lines, daemon, store) = setup.expect("SETUP_REPS > 0");
    measured.input_digest = fnv128(
        &mix.schedule
            .iter()
            .flat_map(|&job| fnv128(&lines[job]).to_le_bytes())
            .collect::<Vec<u8>>(),
    );

    let cpu_start = crate::sys::cpu_time(Some(daemon.pid()))?;
    let (answers, wall) = open_loop(&daemon.addr, &mix, &lines, connections)?;
    let cpu = crate::sys::cpu_time(Some(daemon.pid()))? - cpu_start;
    measured.peak_rss_mb = crate::sys::peak_rss_mb(Some(daemon.pid()))?;
    let service = match client::send(&daemon.addr, &Request::Stats)? {
        Response::Stats(stats) => stats,
        other => return Err(format!("stats answered {other:?}")),
    };
    // Times are rescaled by the probes the daemon took of its own host
    // speed while it served (the client thread's speed says little about
    // the daemon's threads).
    let daemon_probe = daemon
        .shutdown()?
        .ok_or("the daemon reported no host probe")?;
    measured.probes.push(daemon_probe);
    let scale = crate::host::scale(&[daemon_probe]);
    drop(store);
    // The schedule fixes the phase's length, so wall time is reported raw.
    measured.rounds.push(wall);
    measured.raw_rounds.push(wall);
    measured.cpu_rounds.push(cpu.mul_f64(scale));
    measured.elapsed = wall;

    // The offline references, outside the timed phase (and traced in a
    // traced run, against the untraced product path).
    let mut tracer = Tracer::new();
    let mut counts = LayerCounts::default();
    let mut expected: Vec<Option<(String, Quality)>> = Vec::with_capacity(mix.jobs.len());
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    for (job, &(source, spec)) in mix.jobs.iter().enumerate() {
        let text = &mix.sources[source];
        let (output, scaled, _) = meter.time(|| path::product(text, &spec, "listing").ok());
        untraced += scaled;
        if config.trace {
            let (replay, time) = time_traced(&mut meter, &mut tracer, |t| {
                path::traced(t, job as u64, text, &spec, "listing", &mut counts)
            });
            traced += time;
            if replay.ok().map(|r| r.text) != output.as_ref().map(|o| o.text.clone()) {
                measured.outcomes.record(Some(Failure::Mismatch));
            }
        }
        expected.push(output.map(|o| {
            let quality = Quality::of(&o.artifacts.compilation.compiled.stats);
            (o.text, quality)
        }));
    }

    let mut samples: Vec<(usize, OpenLoopSample, bool)> = Vec::new();
    let mut answered = vec![false; mix.jobs.len()];
    let mut digests = Vec::with_capacity(answers.len());
    for (index, answer) in answers.iter().enumerate() {
        let job = mix.schedule[index];
        let failure = match (&answer.line, answer.done) {
            (Some(line), Some(done)) => match Response::from_json(line) {
                Ok(Response::Compile(response)) => {
                    let quality = Quality {
                        instructions: response.instructions,
                        rams: response.rams,
                        max_cell_writes: response.max_cell_writes,
                    };
                    digests.push(fnv128(response.output.as_bytes()));
                    let sample = OpenLoopSample {
                        due: Duration::from_secs_f64(index as f64 / RATE),
                        sent: answer.sent,
                        done,
                    };
                    samples.push((job, sample, response.cached));
                    match &expected[job] {
                        Some((text, offline))
                            if *text == response.output && *offline == quality =>
                        {
                            if !answered[job] {
                                answered[job] = true;
                                measured.quality.add(quality);
                            }
                            None
                        }
                        _ => Some(Failure::Mismatch),
                    }
                }
                _ => Some(Failure::Refused),
            },
            _ if answer.closed => Some(Failure::Missing),
            _ => Some(Failure::Timeout),
        };
        measured.outcomes.record(failure);
    }
    measured.output_digest = fnv128(
        &digests
            .iter()
            .flat_map(|d| d.to_le_bytes())
            .collect::<Vec<u8>>(),
    );
    let scaled = |sample: &OpenLoopSample| sample.latency().mul_f64(scale);
    measured.segments = SEGMENTS;
    measured.latencies = samples
        .iter()
        .map(|(job, s, _)| (*job, scaled(s)))
        .collect();

    let hits: Vec<f64> = samples
        .iter()
        .filter(|s| s.2)
        .map(|s| stats::ms(scaled(&s.1)))
        .collect();
    let misses: Vec<f64> = samples
        .iter()
        .filter(|s| !s.2)
        .map(|s| stats::ms(scaled(&s.1)))
        .collect();
    let lateness: Vec<f64> = samples.iter().map(|s| stats::ms(s.1.lateness())).collect();
    let latency_tail = stats::tail(
        &measured
            .latencies
            .iter()
            .map(|&(_, l)| stats::ms(l))
            .collect::<Vec<_>>(),
        99.0,
    );
    let lateness_tail = stats::tail(&lateness, 99.0);
    measured.notes.push(format!(
        "plimd-mixed: {} requests at {RATE}/s on {connections} connections, {} hits / {} misses, \
         latency p{:.2} {:.3} ms, generator lateness p{:.2} {:.3} ms",
        answers.len(),
        hits.len(),
        misses.len(),
        latency_tail.percentile,
        latency_tail.value,
        lateness_tail.percentile,
        lateness_tail.value
    ));

    let layers = config.trace.then(|| {
        for (index, (_, sample, cached)) in samples.iter().enumerate() {
            let name = if *cached {
                "request.hit"
            } else {
                "request.miss"
            };
            tracer.record(name, index as u64, sample.due, sample.done);
        }
        let store = service.store.unwrap_or_default();
        let extras = LayerExtras {
            service: [
                latency_tail.value,
                stats::median(&hits),
                stats::median(&misses),
                stats::tail(&misses, 99.0).value,
                hits.len() as f64 / samples.len().max(1) as f64,
                store.hits as f64,
                store.writes as f64,
                lateness_tail.value,
            ],
            overhead_share: if untraced.is_zero() {
                0.0
            } else {
                traced.as_secs_f64() / untraced.as_secs_f64() - 1.0
            },
            latency_p90_ms: measured.latency_p90_ms(),
            ..LayerExtras::default()
        };
        report::per_layer(&tracer, &counts, &extras, 1, &meter.probes)
    });
    measured.probes.extend(meter.probes);
    Ok(RunResult::new(
        measured,
        layers,
        config.trace.then_some(tracer),
    ))
}
