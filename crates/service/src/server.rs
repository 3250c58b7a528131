//! The `plimd` daemon: reactor front end, one job queue, one result
//! cache, and a single-flight table.
//!
//! ## Architecture
//!
//! ```text
//!  clients ──► reactor thread (epoll/kqueue, edge-triggered)
//!                │  parse lines · admit known keys · order responses
//!                ▼ submit(job)
//!              WorkerPool (N workers, one FIFO queue)
//!                │  parse · admit · compile · verify · emit
//!                ▼ CompletionQueue.push + Waker.wake
//!              reactor thread (encode, flush in request order)
//! ```
//!
//! One thread runs the reactor: it accepts connections, reads
//! newline-delimited requests from non-blocking sockets, and answers warm
//! cache hits inline. Compile work never runs on the reactor: a cold
//! request becomes a job on the one queue of a
//! [`plim_parallel::pool::WorkerPool`], and whichever worker is idle takes
//! it, so a slow compile occupies one worker and never the requests
//! queued behind it. Finished compiles flow back over a
//! [`CompletionQueue`] whose notifier rings the reactor's [`Waker`].
//!
//! Identical requests compile once through one mechanism, the
//! single-flight table (the pattern of Go's `singleflight`): once a
//! request's cache key is known, `admit` either answers it from the
//! cache, attaches its `(conn, seq)` to the compile already running for
//! that key, or makes it the key's leader. The leader compiles, fills the
//! cache, and then answers itself and every request attached meanwhile.
//!
//! Connections pipeline: a client may write many requests before reading
//! a response, and responses always come back in request order. Each
//! connection's in-flight window is bounded (`max_pipeline`); past it the
//! reactor simply stops reading that socket, letting TCP push back on the
//! client until responses drain.
//!
//! ## Cache semantics
//!
//! The key is the canonical structural digest of the parsed graph
//! ([`mig::canon::structural_digest`]) plus the request-options
//! fingerprint. A hit returns the artifact stored by the first-seen
//! member of the key's equivalence class: byte-identical for repeats of
//! the same dump, and functionally equivalent (same logic, possibly a
//! different but equally valid instruction schedule) for dumps that only
//! differ in node order or Ω.I complement placement. Entries are evicted
//! least-recently-used once the configured byte budget is exceeded.
//!
//! With `--store DIR` the in-memory cache gains a persistent layer: every
//! compiled artifact is written through to an on-disk
//! [`ArtifactStore`], and a leader consults the store before compiling —
//! so a restarted daemon answers repeat requests warm. Store files are
//! self-verifying; a corrupt or truncated file is logged, counted, and
//! treated as a miss, never served.
//!
//! The daemon needs no start-up wiring: every target is a row of
//! `plim_compiler::backend::backends` and the e-graph is a plain call in
//! [`pipeline`], so any `+target` or `+egraph` spec compiles from the
//! first request on.
//!
//! ## Where a warm hit's time goes
//!
//! A warm hit decodes the request line, hashes its source for the text
//! index, looks the key up, and encodes the cached listing. The JSON
//! codec copies whole runs between escapes, the source is moved out of
//! the parsed line, and the response is escaped straight from the cached
//! [`StoredArtifact`] into its line (see `Reply`), which the reactor sends
//! without a further copy when nothing is queued before it. Measured on a
//! two-core VM, medians of 300 calls, for full-scale i2c (a 28.8 KB source
//! and a 64.8 KB listing), before and after that change:
//!
//! | step | before | after |
//! |---|---|---|
//! | decode the request | 237–255 µs | 16–17 µs |
//! | hash the source for the text index | 44–46 µs | 4.5 µs |
//! | encode the response | 268–276 µs | 21–34 µs |
//!
//! What is left of a hit's latency is mostly the two socket round trips
//! and the reactor's wake-ups, not the daemon's own work.
//!
//! Requests are decoded on the reactor thread, which serves every
//! connection, so decoding is linear in the line (an object's duplicate
//! keys are found through a hash set), and a line longer than
//! `REACTOR_LINE_BYTES` is decoded on a worker instead, one such line at
//! a time.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mig::canon::structural_digest;
use mig::hash::TextHash;
use plim_compiler::cache::{CacheKey, LruCache};
use plim_compiler::store::{ArtifactStore, StoreLookup, StoredArtifact};
use plim_parallel::pool::WorkerPool;
use plim_parallel::queue::CompletionQueue;

use crate::flags::Flags;
use crate::pipeline;
use crate::poller::Waker;
use crate::protocol::{
    cache_key, write_compile, CompileRequest, ErrorCode, Request, Response, ServiceStats, WireError,
};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Compile worker threads; 0 means one per hardware thread.
    pub threads: usize,
    /// Byte budget of the result cache. An artifact larger than the
    /// whole budget is never cached (the daemon logs when that happens).
    pub cache_bytes: usize,
    /// Directory of the persistent artifact store; `None` disables
    /// persistence (in-memory cache only).
    pub store: Option<String>,
    /// Close a connection after this long without reads, writes, or
    /// in-flight requests.
    pub idle_timeout: Duration,
    /// Per-connection cap on in-flight pipelined requests; past it the
    /// reactor stops reading the socket until responses drain.
    pub max_pipeline: usize,
    /// Log one line per request to stderr.
    pub log: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7393".to_string(),
            threads: 0,
            cache_bytes: 64 << 20,
            store: None,
            idle_timeout: Duration::from_secs(60),
            max_pipeline: 128,
            log: false,
        }
    }
}

/// A finished compile flowing from a worker back to the reactor, tagged
/// with the connection and per-connection sequence number it answers.
pub(crate) struct Completion {
    pub(crate) conn: u64,
    pub(crate) seq: u64,
    pub(crate) reply: Reply,
}

/// An answer as the daemon holds it until the reactor encodes it. A
/// compile result stays the cached artifact itself, so its text is
/// escaped once, straight into its response line, and copied nowhere
/// else; its bytes are [`Response::to_json`]'s for the same
/// compile.
#[derive(Clone, Debug)]
pub(crate) enum Reply {
    /// A compile answered from the cache, or just stored into it.
    Artifact {
        key: CacheKey,
        cached: bool,
        artifact: Arc<StoredArtifact>,
    },
    /// Every other answer.
    Response(Response),
}

impl Reply {
    pub(crate) fn error(code: ErrorCode, message: impl Into<String>) -> Reply {
        Reply::Response(Response::Error(WireError::new(code, message)))
    }

    /// Appends the response line, newline included.
    pub(crate) fn encode(&self, out: &mut String) {
        match self {
            Reply::Artifact {
                key,
                cached,
                artifact,
            } => {
                let quality = [
                    artifact.instructions,
                    artifact.rams,
                    artifact.max_cell_writes,
                ];
                write_compile(out, *cached, &key.hex(), quality, &artifact.output);
            }
            Reply::Response(response) => out.push_str(&response.to_json()),
        }
        out.push('\n');
    }
}

/// The single-flight table: every key being compiled, with the
/// `(conn, seq)` of each request waiting on that compile.
#[derive(Default)]
pub(crate) struct InFlight {
    waiters: HashMap<CacheKey, Vec<(u64, u64)>>,
    /// Requests answered by attaching to a running compile; they are
    /// cache hits the cache itself never saw.
    attached: u64,
}

pub(crate) struct Shared {
    pub(crate) pool: WorkerPool,
    /// Lock order: `in_flight` before `cache`, never the reverse.
    pub(crate) in_flight: Mutex<InFlight>,
    pub(crate) cache: Mutex<LruCache<Arc<StoredArtifact>>>,
    /// First-level index: `(text_hash(source), format)` → the
    /// canonical structural digest of the parsed graph. A hit here skips
    /// the parser entirely for byte-identical resubmissions — under *any*
    /// options, since the mapping is option-independent (the full cache
    /// key is derived by adding the request fingerprint at lookup). The
    /// format belongs in the key: the same bytes under another format
    /// would parse differently or not at all. Artifacts themselves live
    /// in (and are accounted to) the cache above.
    pub(crate) text_index: Mutex<LruCache<u128>>,
    /// The text index's hash, keyed when the daemon binds.
    pub(crate) text_hash: TextHash,
    pub(crate) long_lines: Mutex<LongLines>,
    pub(crate) store: Option<ArtifactStore>,
    pub(crate) completions: CompletionQueue<Completion>,
    pub(crate) waker: Waker,
    pub(crate) shutdown: AtomicBool,
    pub(crate) idle_timeout: Duration,
    pub(crate) max_pipeline: usize,
    pub(crate) log: bool,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("workers", &self.pool.workers())
            .finish()
    }
}

/// A bound (but not yet running) compile service.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener, opens the store (if configured), and spawns
    /// the worker pool.
    ///
    /// # Errors
    ///
    /// Returns a one-line message when the address cannot be bound or the
    /// store directory cannot be created.
    pub fn bind(config: &ServerConfig) -> Result<Server, String> {
        // Best-effort: the reactor holds one fd per connection, so a
        // default 1024-fd soft limit caps concurrency long before memory
        // does. Failure is not fatal — the daemon just accepts fewer.
        let _ = crate::poller::raise_nofile_limit(8192);
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("binding {}: {e}", config.addr))?;
        let threads = if config.threads == 0 {
            plim_parallel::available_threads()
        } else {
            config.threads
        };
        let store = config.store.as_ref().map(ArtifactStore::open).transpose()?;
        let waker = Waker::new().map_err(|e| format!("creating the reactor waker: {e}"))?;
        let completions = CompletionQueue::new();
        // Workers push, then ring: by the time the reactor wakes, the
        // completion is already visible in the queue.
        let ring = waker.clone();
        completions.set_notify(move || ring.wake());
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                pool: WorkerPool::new(threads),
                in_flight: Mutex::new(InFlight::default()),
                cache: Mutex::new(LruCache::new(config.cache_bytes)),
                // ~16k text mappings; entries weigh a fixed 64 bytes.
                text_index: Mutex::new(LruCache::new(1 << 20)),
                text_hash: TextHash::new(),
                long_lines: Mutex::new(LongLines::default()),
                store,
                completions,
                waker,
                shutdown: AtomicBool::new(false),
                idle_timeout: config.idle_timeout,
                max_pipeline: config.max_pipeline.max(1),
                log: config.log,
            }),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    ///
    /// # Errors
    ///
    /// Returns a one-line message when the socket address is unavailable.
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener
            .local_addr()
            .map_err(|e| format!("resolving the listen address: {e}"))
    }

    /// Runs the reactor until a `shutdown` request arrives, then drains:
    /// in-flight compiles are answered, buffers flushed, and queued jobs
    /// finish before this returns.
    ///
    /// # Errors
    ///
    /// Returns a one-line message on reactor failures.
    pub fn run(self) -> Result<(), String> {
        crate::reactor::run(self.listener, self.shared)
        // Dropping the last `Shared` reference shuts the pool down and
        // drains any still-queued jobs (their requesters are gone, but the
        // cache inserts still happen before the drop completes).
    }
}

/// What the reactor should do with one decoded request line.
pub(crate) enum Disposition {
    /// Answer now.
    Ready(Reply),
    /// A worker owns it; a [`Completion`] with this line's `(conn, seq)`
    /// will arrive on the queue.
    Dispatched,
    /// Answer now, then drain and exit.
    StartShutdown(Reply),
}

/// The reactor-facing result of handling one request line.
pub(crate) struct LineOutcome {
    /// Op tag for the request log.
    pub(crate) op: &'static str,
    pub(crate) disposition: Disposition,
}

/// Lines longer than this are decoded on a worker. Decoding is linear,
/// but an object of millions of keys still takes seconds (a 64 MiB line of
/// 5.2 million keys, 4.3 s), and the reactor serves every connection.
/// Real requests lie well below it, so the reactor decodes them at once:
/// the largest `perfbench` `plimd-mixed` line is 30,054 bytes, and the
/// largest suite circuit's (full-scale div) 1,340,385 bytes.
const REACTOR_LINE_BYTES: usize = 4 << 20;

/// Lines longer than [`REACTOR_LINE_BYTES`], as `(conn, seq, line)`,
/// waiting for the one worker that decodes them in turn. One at a time
/// bounds their memory: a decoded 64 MiB line of distinct keys weighs
/// about 700 MB.
#[derive(Default)]
pub(crate) struct LongLines {
    queue: VecDeque<(u64, u64, String)>,
    /// A worker is draining `queue`.
    draining: bool,
}

/// Handles one request line on the reactor thread: decode, answer
/// stats/shutdown/warm hits inline, queue compile work. A line longer
/// than [`REACTOR_LINE_BYTES`] is copied into [`LongLines`], whose worker
/// does all of this and answers through the completion queue.
pub(crate) fn handle_line(shared: &Arc<Shared>, conn: u64, seq: u64, line: &str) -> LineOutcome {
    if line.len() <= REACTOR_LINE_BYTES {
        return route(shared, conn, seq, line);
    }
    let mut long = shared.long_lines.lock().expect("long-line lock poisoned");
    long.queue.push_back((conn, seq, line.to_string()));
    if !long.draining {
        long.draining = true;
        drop(long);
        let worker = Arc::clone(shared);
        if !shared.pool.submit(move || decode_long_lines(&worker)) {
            let mut long = shared.long_lines.lock().expect("long-line lock poisoned");
            long.draining = false;
            for (conn, seq, _) in long.queue.drain(..) {
                complete(shared, conn, seq, shutting_down());
            }
        }
    }
    LineOutcome {
        op: "request",
        disposition: Disposition::Dispatched,
    }
}

/// Decodes and routes the queued long lines one after another, until the
/// queue is empty.
fn decode_long_lines(shared: &Arc<Shared>) {
    loop {
        let next = {
            let mut long = shared.long_lines.lock().expect("long-line lock poisoned");
            let next = long.queue.pop_front();
            long.draining = next.is_some();
            next
        };
        let Some((conn, seq, line)) = next else {
            return;
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| route(shared, conn, seq, &line)));
        match outcome.map(|outcome| outcome.disposition) {
            Ok(Disposition::Ready(reply)) => complete(shared, conn, seq, reply),
            Ok(Disposition::Dispatched) => {}
            Ok(Disposition::StartShutdown(reply)) => {
                // Set before the answer rings the reactor, which drains.
                shared.shutdown.store(true, Ordering::SeqCst);
                complete(shared, conn, seq, reply);
            }
            Err(_) => complete(shared, conn, seq, panicked()),
        }
    }
}

/// Decodes a line and routes the request.
fn route(shared: &Arc<Shared>, conn: u64, seq: u64, line: &str) -> LineOutcome {
    let (op, disposition) = match Request::decode(line) {
        Err(error) => (
            "invalid",
            Disposition::Ready(Reply::Response(Response::Error(error))),
        ),
        Ok(Request::Stats) => (
            "stats",
            Disposition::Ready(Reply::Response(Response::Stats(gather_stats(shared)))),
        ),
        Ok(Request::Shutdown) => (
            "shutdown",
            Disposition::StartShutdown(Reply::Response(Response::Shutdown)),
        ),
        Ok(Request::Compile(request)) => ("compile", dispatch_compile(shared, conn, seq, request)),
    };
    LineOutcome { op, disposition }
}

fn gather_stats(shared: &Shared) -> ServiceStats {
    let attached = shared
        .in_flight
        .lock()
        .expect("in-flight lock poisoned")
        .attached;
    let mut cache = shared.cache.lock().expect("cache lock poisoned").stats();
    cache.hits += attached;
    let targets = plim_compiler::backend::backends()
        .iter()
        .map(|backend| backend.name().to_string())
        .collect();
    ServiceStats {
        queue_depth: shared.pool.queue_depth(),
        cache,
        targets,
        store: shared.store.as_ref().map(ArtifactStore::counters),
    }
}

/// The text index's key: the keyed hash of the source and the format.
fn text_key(shared: &Shared, request: &CompileRequest) -> CacheKey {
    CacheKey::new(
        shared.text_hash.hash(request.source.as_bytes()),
        request.format as u64,
    )
}

/// Routes a compile request. A byte-identical resubmission has a known
/// key and is admitted right here, so a warm hit or a request attached to
/// a running compile never queues; everything else becomes a job.
fn dispatch_compile(
    shared: &Arc<Shared>,
    conn: u64,
    seq: u64,
    request: CompileRequest,
) -> Disposition {
    let indexed = shared
        .text_index
        .lock()
        .expect("index lock poisoned")
        .get(&text_key(shared, &request))
        .copied();
    let leader = match indexed.map(|digest| cache_key(digest, &request)) {
        Some(key) => match admit(shared, key, conn, seq) {
            Admission::Hit(artifact) => {
                return Disposition::Ready(artifact_reply(key, true, artifact));
            }
            Admission::Attached => return Disposition::Dispatched,
            Admission::Leader => Some(key),
        },
        // Unknown text: parsing is compile work and stays off the reactor.
        None => None,
    };
    let worker = Arc::clone(shared);
    let submitted = shared.pool.submit(move || match leader {
        Some(key) => lead(&worker, key, conn, seq, || {
            compile(&worker, &request, None, key)
        }),
        None => compile_text(&worker, conn, seq, &request),
    });
    if !submitted {
        // A leader's refusal also answers everything attached to it.
        match leader {
            Some(key) => lead(shared, key, conn, seq, shutting_down),
            None => complete(shared, conn, seq, shutting_down()),
        }
    }
    Disposition::Dispatched
}

/// How [`admit`] placed a compile request whose key is known.
enum Admission {
    /// Warm: answer from this cached artifact.
    Hit(Arc<StoredArtifact>),
    /// Attached to the compile running for the key; its leader answers.
    Attached,
    /// The key is cold and now in flight: the caller must [`lead`] it.
    Leader,
}

/// The single-flight decision, counting each request exactly once in the
/// stats: attaching is a hit, and otherwise the cache lookup counts the
/// hit or the miss. The cache is looked up under the in-flight lock, so
/// no request can miss both a finished compile's entry and its flight.
fn admit(shared: &Shared, key: CacheKey, conn: u64, seq: u64) -> Admission {
    let mut in_flight = shared.in_flight.lock().expect("in-flight lock poisoned");
    if let Some(waiters) = in_flight.waiters.get_mut(&key) {
        waiters.push((conn, seq));
        in_flight.attached += 1;
        return Admission::Attached;
    }
    // Only the Arc is cloned under the locks; the reactor escapes the
    // artifact body into the connection's buffer after they are released.
    let hit = shared
        .cache
        .lock()
        .expect("cache lock poisoned")
        .get(&key)
        .cloned();
    match hit {
        Some(artifact) => Admission::Hit(artifact),
        None => {
            in_flight.waiters.insert(key, Vec::new());
            Admission::Leader
        }
    }
}

/// The leader's job: runs `work` (which fills the cache), then removes
/// the key's flight and answers the leader and every attached request —
/// the latter with `cached: true`. A panicking `work` answers `internal`
/// to all of them; the flight is removed either way.
fn lead(shared: &Shared, key: CacheKey, conn: u64, seq: u64, work: impl FnOnce() -> Reply) {
    let reply = catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|_| panicked());
    let waiters = shared
        .in_flight
        .lock()
        .expect("in-flight lock poisoned")
        .waiters
        .remove(&key)
        .unwrap_or_default();
    if !waiters.is_empty() {
        let mut shared_reply = reply.clone();
        if let Reply::Artifact { cached, .. } = &mut shared_reply {
            *cached = true;
        }
        for (conn, seq) in waiters {
            complete(shared, conn, seq, shared_reply.clone());
        }
    }
    complete(shared, conn, seq, reply);
}

fn panicked() -> Reply {
    Reply::error(ErrorCode::Internal, "the compile job panicked")
}

fn shutting_down() -> Reply {
    Reply::error(ErrorCode::ShuttingDown, "service is shutting down")
}

/// The job of a request whose text the index has not seen: parse, learn
/// the digest, then admit the request as the reactor would have.
fn compile_text(shared: &Shared, conn: u64, seq: u64, request: &CompileRequest) {
    let parsed = catch_unwind(|| {
        pipeline::parse_network(request.format, &request.source).map(|mig| {
            let digest = structural_digest(&mig);
            (mig, digest)
        })
    });
    let (mig, digest) = match parsed {
        Ok(Ok(parsed)) => parsed,
        Ok(Err(message)) => {
            return complete(
                shared,
                conn,
                seq,
                Reply::error(ErrorCode::ParseError, message),
            );
        }
        Err(_) => return complete(shared, conn, seq, panicked()),
    };
    shared
        .text_index
        .lock()
        .expect("index lock poisoned")
        .insert(text_key(shared, request), digest, 64);
    let key = cache_key(digest, request);
    match admit(shared, key, conn, seq) {
        Admission::Hit(artifact) => {
            complete(shared, conn, seq, artifact_reply(key, true, artifact));
        }
        Admission::Attached => {}
        Admission::Leader => lead(shared, key, conn, seq, || {
            compile(shared, request, Some(mig), key)
        }),
    }
}

/// A leader's work: the persistent store, else parse (unless the caller
/// already did), compile, verify and emit; the artifact is cached before
/// this returns.
fn compile(
    shared: &Shared,
    request: &CompileRequest,
    mig: Option<mig::Mig>,
    key: CacheKey,
) -> Reply {
    // A verified disk hit is promoted into the in-memory cache; a corrupt
    // file is logged and recompiled (the overwrite heals it).
    if let Some(store) = &shared.store {
        match store.load(&key) {
            StoreLookup::Hit(artifact) => {
                let artifact = Arc::new(artifact);
                insert_artifact(shared, key, &artifact);
                return artifact_reply(key, true, artifact);
            }
            StoreLookup::Corrupt(diagnostic) => {
                if shared.log {
                    eprintln!("plimd: store: {diagnostic}");
                }
            }
            StoreLookup::Miss => {}
        }
    }
    let mig = match mig {
        Some(mig) => mig,
        None => match pipeline::parse_network(request.format, &request.source) {
            Ok(mig) => mig,
            Err(message) => return Reply::error(ErrorCode::ParseError, message),
        },
    };
    let artifacts = match pipeline::execute(&mig, &request.spec) {
        Ok(result) => result,
        // `execute` only fails verification; parse failures happen above.
        Err(message) => return Reply::error(ErrorCode::VerifyError, message),
    };
    let output = match pipeline::emit(&request.emit, &artifacts) {
        Ok(output) => output,
        Err(message) => return Reply::error(ErrorCode::BadRequest, message),
    };
    let stats = &artifacts.compilation.compiled.stats;
    let artifact = Arc::new(StoredArtifact {
        instructions: stats.instructions as u64,
        rams: u64::from(stats.rams),
        max_cell_writes: stats.max_cell_writes,
        output,
    });
    insert_artifact(shared, key, &artifact);
    if let Some(store) = &shared.store {
        if let Err(message) = store.save(&key, &artifact) {
            // A failed write-through only costs warmth after a restart;
            // keep serving.
            if shared.log {
                eprintln!("plimd: store: {message}");
            }
        }
    }
    artifact_reply(key, false, artifact)
}

fn insert_artifact(shared: &Shared, key: CacheKey, artifact: &Arc<StoredArtifact>) {
    let weight = artifact.weight();
    let mut cache = shared.cache.lock().expect("cache lock poisoned");
    if weight > cache.budget() && shared.log {
        // insert() would silently skip it; make the lost warm path
        // visible.
        eprintln!(
            "plimd: artifact of {weight} bytes exceeds the {}-byte cache budget; \
             not cached (raise --cache-bytes)",
            cache.budget()
        );
    }
    cache.insert(key, Arc::clone(artifact), weight);
}

fn complete(shared: &Shared, conn: u64, seq: u64, reply: Reply) {
    shared.completions.push(Completion { conn, seq, reply });
}

fn artifact_reply(key: CacheKey, cached: bool, artifact: Arc<StoredArtifact>) -> Reply {
    Reply::Artifact {
        key,
        cached,
        artifact,
    }
}

pub(crate) fn log_reply(op: &str, reply: &Reply, elapsed: Duration) {
    match reply {
        Reply::Artifact {
            key,
            cached,
            artifact,
        } => eprintln!(
            "plimd: {op} key={}… {} #I={} #R={} ({elapsed:.1?})",
            &key.hex()[..12],
            if *cached { "hit" } else { "miss" },
            artifact.instructions,
            artifact.rams,
        ),
        Reply::Response(Response::Error(error)) => {
            eprintln!("plimd: {op} error: {} ({elapsed:.1?})", error.message);
        }
        Reply::Response(_) => eprintln!("plimd: {op} ({elapsed:.1?})"),
    }
}

/// The `--help` text of `plimc serve` and `plimd`.
const SERVE_USAGE: &str = "\
usage: plimd [--addr HOST:PORT] [--threads N] [--cache-bytes N] [--store DIR]
             [--idle-timeout SECS] [--max-pipeline N] [--quiet]
       plimc serve takes the same options
";

/// Runs `plimc serve` / `plimd`: parses the serve flags, binds, prints the
/// listening line, and serves until shutdown.
///
/// # Errors
///
/// Returns a one-line user diagnostic (bad flag, unbindable address).
pub fn serve_cli(args: &[String]) -> Result<(), String> {
    let mut config = ServerConfig {
        log: true,
        ..ServerConfig::default()
    };
    let mut flags = Flags::new("serve", SERVE_USAGE, args);
    while let Some(arg) = flags.next() {
        match arg {
            "--addr" => config.addr = flags.value(arg)?.to_string(),
            "--threads" => config.threads = flags.number(arg)?,
            "--cache-bytes" => config.cache_bytes = flags.number(arg)?,
            "--store" => config.store = Some(flags.value(arg)?.to_string()),
            "--idle-timeout" => {
                config.idle_timeout =
                    Duration::from_secs(flags.typed(arg, "a number of seconds", |_| true)?);
            }
            "--max-pipeline" => config.max_pipeline = flags.positive(arg)?,
            "--quiet" => config.log = false,
            other => return Err(flags.unknown(other)),
        }
    }
    let server = Server::bind(&config)?;
    let addr = server.local_addr()?;
    let workers = server.shared.pool.workers();
    // Stdout is line-buffered, so this line is visible to a supervising
    // process (CI greps it for the port) as soon as the daemon is ready.
    println!(
        "plimd: listening on {addr} ({workers} workers, {} cache bytes)",
        config.cache_bytes
    );
    if let Some(store) = &server.shared.store {
        println!("plimd: persistent store at {}", store.root().display());
    }
    server.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn bind() -> Server {
        Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            ..ServerConfig::default()
        })
        .expect("bind on a free port")
    }

    /// Waits for `count` completions, keyed by `(conn, seq)`.
    fn completions(shared: &Shared, count: usize) -> HashMap<(u64, u64), Reply> {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut answered = HashMap::new();
        while answered.len() < count {
            assert!(Instant::now() < deadline, "only {answered:?} answered");
            for done in shared.completions.drain() {
                answered.insert((done.conn, done.seq), done.reply);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        answered
    }

    /// A reply written from the cached artifact is the line
    /// `Response::to_json` writes for the same compile.
    #[test]
    fn artifact_replies_encode_like_compile_responses() {
        let artifact = Arc::new(StoredArtifact {
            instructions: 3,
            rams: 2,
            max_cell_writes: 1_000_000_000_000_000,
            output: "01: 0, 1, @X1\n\"q\" \\ \u{1} ¬ ←\n".to_string(),
        });
        let key = CacheKey::new(0xFEED, 0xF00D);
        for cached in [false, true] {
            let mut line = String::new();
            artifact_reply(key, cached, Arc::clone(&artifact)).encode(&mut line);
            let response = Response::Compile(crate::protocol::CompileResponse {
                cached,
                key: key.hex(),
                instructions: artifact.instructions,
                rams: artifact.rams,
                max_cell_writes: artifact.max_cell_writes,
                output: artifact.output.clone(),
            });
            assert_eq!(line, format!("{}\n", response.to_json()));
        }
    }

    /// A line past `REACTOR_LINE_BYTES` is answered through the completion
    /// queue, by the same routing as a short one, and the long-line worker
    /// stops once its queue is empty.
    #[test]
    fn long_lines_are_decoded_on_a_worker() {
        let server = bind();
        let shared = &server.shared;
        let pad = "x".repeat(REACTOR_LINE_BYTES);
        let stats = format!(r#"{{"v":2,"op":"stats","pad":"{pad}"}}"#);
        let outcome = handle_line(shared, 0, 0, &stats);
        assert!(matches!(outcome.disposition, Disposition::Dispatched));
        let bad = format!(r#"{{"v":2,"op":"stats","pad":"{pad}"#);
        handle_line(shared, 0, 1, &bad);
        let shutdown = format!(r#"{{"v":2,"op":"shutdown","pad":"{pad}"}}"#);
        handle_line(shared, 1, 0, &shutdown);
        let answered = completions(shared, 3);
        assert!(matches!(
            answered.get(&(0, 0)),
            Some(Reply::Response(Response::Stats(_)))
        ));
        let Some(Reply::Response(Response::Error(error))) = answered.get(&(0, 1)) else {
            panic!("{:?}", answered.get(&(0, 1)));
        };
        assert_eq!(error.code, ErrorCode::BadRequest);
        assert!(error.message.contains("unterminated string"), "{error:?}");
        assert!(matches!(
            answered.get(&(1, 0)),
            Some(Reply::Response(Response::Shutdown))
        ));
        assert!(shared.shutdown.load(Ordering::SeqCst));

        let deadline = Instant::now() + Duration::from_secs(60);
        while shared.long_lines.lock().unwrap().draining {
            assert!(
                Instant::now() < deadline,
                "the long-line worker never stopped"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // The next long line starts the worker again.
        handle_line(shared, 2, 0, &stats);
        let answered = completions(shared, 1);
        assert!(matches!(
            answered.get(&(2, 0)),
            Some(Reply::Response(Response::Stats(_)))
        ));
    }

    #[test]
    fn a_panicking_compile_answers_internal_to_everyone_waiting_on_it() {
        let server = bind();
        let shared = &server.shared;
        let key = CacheKey::new(7, 7);
        assert!(matches!(admit(shared, key, 0, 0), Admission::Leader));
        assert!(matches!(admit(shared, key, 1, 0), Admission::Attached));
        // Pipelined behind the leader on its connection: an unrelated
        // compile through the reactor's own entry point.
        let request = Request::Compile(CompileRequest {
            source: "inputs a b\nn = maj(0, a, b)\noutput f = n\n".to_string(),
            ..CompileRequest::default()
        });
        let outcome = handle_line(shared, 0, 1, &request.to_json());
        assert!(matches!(outcome.disposition, Disposition::Dispatched));

        lead(shared, key, 0, 0, || panic!("injected compile failure"));

        let answered = completions(shared, 3);
        for requester in [(0, 0), (1, 0)] {
            let Some(Reply::Response(Response::Error(error))) = answered.get(&requester) else {
                panic!("{requester:?} got {:?}", answered.get(&requester));
            };
            assert_eq!(error.code, ErrorCode::Internal);
        }
        assert!(
            matches!(
                answered.get(&(0, 1)),
                Some(Reply::Artifact { cached: false, .. })
            ),
            "{:?}",
            answered.get(&(0, 1))
        );
        // The flight is gone: the next request for the key leads anew.
        assert!(matches!(admit(shared, key, 2, 0), Admission::Leader));
    }
}
