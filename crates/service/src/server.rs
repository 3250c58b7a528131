//! The `plimd` daemon: reactor front end, shard-pinned compile workers,
//! tiered result cache.
//!
//! ## Architecture
//!
//! ```text
//!  clients ──► reactor thread (epoll/kqueue, edge-triggered)
//!                │  parse lines · answer warm hits · order responses
//!                ▼ submit(shard, job)
//!              WorkerPool (N pinned workers, one LRU shard each)
//!                │  parse · compile · verify · emit
//!                ▼ CompletionQueue.push + Waker.wake
//!              reactor thread (encode, flush in request order)
//! ```
//!
//! One thread runs the reactor: it accepts
//! connections, reads newline-delimited requests from non-blocking
//! sockets, and answers warm cache hits inline. Compile work never runs
//! on the reactor: a cold request is dispatched to the shard that owns
//! its cache key — one of N workers of a
//! [`plim_parallel::pool::WorkerPool`], each paired with its own
//! [`LruCache`] shard. Pinning a key range to one worker serializes
//! same-key requests, so a burst of identical submissions compiles once
//! and the rest are answered from the cache the first one filled.
//! Finished compiles flow back over a
//! [`CompletionQueue`] whose
//! notifier rings the reactor's [`Waker`].
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
//! [`ArtifactStore`], and an in-memory miss consults the store before
//! compiling — so a restarted daemon answers repeat requests warm. Store
//! files are self-verifying; a corrupt or truncated file is logged,
//! counted, and treated as a miss, never served.
//!
//! The daemon needs no start-up wiring: every target is a row of
//! `plim_compiler::backend::backends` and the e-graph is a plain call in
//! [`pipeline`], so any `+target` or `+egraph` spec compiles from the
//! first request on.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mig::canon::structural_digest;
use plim_compiler::cache::{fnv128, CacheKey, LruCache};
use plim_compiler::store::{ArtifactStore, StoreLookup, StoredArtifact};
use plim_parallel::pool::WorkerPool;
use plim_parallel::queue::CompletionQueue;

use crate::flags::Flags;
use crate::pipeline;
use crate::poller::Waker;
use crate::protocol::{
    cache_key, CompileRequest, CompileResponse, ErrorCode, Request, Response, ServiceStats,
    ShardStats, WireError,
};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Worker threads (= cache shards); 0 means one per hardware thread.
    pub threads: usize,
    /// Byte budget of the result cache, split evenly across shards. An
    /// artifact larger than `cache_bytes / threads` is never cached (the
    /// daemon logs when that happens) — on many-core hosts serving large
    /// circuits, raise the budget accordingly.
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
    pub(crate) response: Response,
}

pub(crate) struct Shared {
    pub(crate) pool: WorkerPool,
    pub(crate) caches: Vec<Mutex<LruCache<Arc<StoredArtifact>>>>,
    /// First-level index: `(fnv128(source), fnv128(format))` → the
    /// canonical structural digest of the parsed graph. A hit here skips
    /// the parser entirely for byte-identical resubmissions — under *any*
    /// options, since the mapping is option-independent (the full cache
    /// key is derived by adding the request fingerprint at lookup). The
    /// format belongs in the key: the same bytes under another format
    /// would parse differently or not at all. Artifacts themselves live
    /// in (and are accounted to) the sharded caches above.
    pub(crate) text_index: Mutex<LruCache<u128>>,
    pub(crate) store: Option<ArtifactStore>,
    pub(crate) completions: CompletionQueue<Completion>,
    pub(crate) waker: Waker,
    pub(crate) shutdown: AtomicBool,
    pub(crate) idle_timeout: Duration,
    pub(crate) max_pipeline: usize,
    pub(crate) log: bool,
}

impl Shared {
    pub(crate) fn shards(&self) -> usize {
        self.caches.len()
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("shards", &self.shards())
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
        let shard_budget = config.cache_bytes / threads.max(1);
        let caches = (0..threads.max(1))
            .map(|_| Mutex::new(LruCache::new(shard_budget)))
            .collect();
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
                caches,
                // ~16k text mappings; entries weigh a fixed 64 bytes.
                text_index: Mutex::new(LruCache::new(1 << 20)),
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
    Ready(Response),
    /// A worker owns it; a [`Completion`] with this line's `(conn, seq)`
    /// will arrive on the queue.
    Dispatched,
    /// Answer now, then drain and exit.
    StartShutdown(Response),
}

/// The reactor-facing result of handling one request line.
pub(crate) struct LineOutcome {
    /// Op tag for the request log.
    pub(crate) op: &'static str,
    pub(crate) disposition: Disposition,
}

/// Handles one request line on the reactor thread: decode, answer
/// stats/shutdown/warm hits inline, dispatch compile work to its shard.
pub(crate) fn handle_line(shared: &Arc<Shared>, conn: u64, seq: u64, line: &str) -> LineOutcome {
    let (op, disposition) = match Request::decode(line) {
        Err(error) => ("invalid", Disposition::Ready(Response::Error(error))),
        Ok(Request::Stats) => (
            "stats",
            Disposition::Ready(Response::Stats(gather_stats(shared))),
        ),
        Ok(Request::Shutdown) => ("shutdown", Disposition::StartShutdown(Response::Shutdown)),
        Ok(Request::Compile(request)) => ("compile", dispatch_compile(shared, conn, seq, request)),
    };
    LineOutcome { op, disposition }
}

fn gather_stats(shared: &Shared) -> ServiceStats {
    let shards = (0..shared.shards())
        .map(|index| ShardStats {
            queue_depth: shared.pool.queue_depth(index),
            cache: shared.caches[index]
                .lock()
                .expect("cache lock poisoned")
                .stats(),
        })
        .collect();
    let targets = plim_compiler::backend::backends()
        .iter()
        .map(|backend| backend.name().to_string())
        .collect();
    ServiceStats {
        shards,
        targets,
        store: shared.store.as_ref().map(ArtifactStore::counters),
    }
}

fn text_key(request: &CompileRequest) -> CacheKey {
    CacheKey::new(
        fnv128(request.source.as_bytes()),
        fnv128(request.format.name().as_bytes()) as u64,
    )
}

/// Routes a compile request: warm in-memory hits are answered inline on
/// the reactor thread (no queueing); everything else goes to a worker.
fn dispatch_compile(
    shared: &Arc<Shared>,
    conn: u64,
    seq: u64,
    request: CompileRequest,
) -> Disposition {
    // L1: exact-text index. A byte-identical resubmission resolves its
    // structural digest without re-parsing the source.
    let indexed = shared
        .text_index
        .lock()
        .expect("index lock poisoned")
        .get(&text_key(&request))
        .copied();
    let (digest, shard) = match indexed {
        Some(digest) => {
            let key = cache_key(digest, &request);
            let shard = key.shard(shared.shards());
            // Fast path: a warm request never queues. Only the Arc is
            // cloned under the lock; the response (which copies the
            // artifact body) is built after it is released.
            let hit = {
                let mut cache = shared.caches[shard].lock().expect("cache lock poisoned");
                cache.get(&key).cloned()
            };
            if let Some(artifact) = hit {
                return Disposition::Ready(compile_response(&key.hex(), true, &artifact));
            }
            (Some(digest), shard)
        }
        // Unknown text: parsing is compile work and stays off the reactor
        // thread. A provisional shard keyed on the raw text serializes
        // identical cold submissions until the digest is known.
        None => (
            None,
            (fnv128(request.source.as_bytes()) % shared.shards() as u128) as usize,
        ),
    };
    let worker = Arc::clone(shared);
    let submitted = shared.pool.submit(shard, move || {
        run_compile_job(&worker, conn, seq, request, digest, shard);
    });
    if submitted {
        Disposition::Dispatched
    } else {
        Disposition::Ready(Response::Error(WireError::new(
            ErrorCode::ShuttingDown,
            "service is shutting down",
        )))
    }
}

/// First worker stage: resolve the digest (parsing if needed), then
/// compile on the shard that owns the full cache key — handing off when
/// that is a different shard, so same-key serialization always holds.
fn run_compile_job(
    shared: &Arc<Shared>,
    conn: u64,
    seq: u64,
    request: CompileRequest,
    digest: Option<u128>,
    current_shard: usize,
) {
    // With a known digest, the reactor already did (and counted) the
    // in-memory lookup; for cold text the first lookup happens on the
    // shard and must be counted there.
    let counted = digest.is_some();
    let (digest, mig) = match digest {
        Some(digest) => (digest, None),
        None => match pipeline::parse_network(request.format, &request.source) {
            Ok(mig) => {
                let digest = structural_digest(&mig);
                shared
                    .text_index
                    .lock()
                    .expect("index lock poisoned")
                    .insert(text_key(&request), digest, 64);
                (digest, Some(mig))
            }
            Err(message) => {
                complete(
                    shared,
                    conn,
                    seq,
                    Response::Error(WireError::new(ErrorCode::ParseError, message)),
                );
                return;
            }
        },
    };
    let key = cache_key(digest, &request);
    let owner = key.shard(shared.shards());
    if owner == current_shard {
        let response = compile_on_shard(shared, owner, &request, mig, key, counted);
        complete(shared, conn, seq, response);
        return;
    }
    let worker = Arc::clone(shared);
    let submitted = shared.pool.submit(owner, move || {
        let response = compile_on_shard(&worker, owner, &request, mig, key, counted);
        complete(&worker, conn, seq, response);
    });
    if !submitted {
        complete(
            shared,
            conn,
            seq,
            Response::Error(WireError::new(
                ErrorCode::ShuttingDown,
                "service is shutting down",
            )),
        );
    }
}

fn compile_on_shard(
    shared: &Shared,
    shard: usize,
    request: &CompileRequest,
    mig: Option<mig::Mig>,
    key: CacheKey,
    // Whether the reactor already counted an in-memory lookup for this
    // key; false for cold text, whose first lookup is counted here.
    counted: bool,
) -> Response {
    let key_hex = key.hex();
    // Same-shard requests are serialized by the pinned worker, so an
    // identical request queued behind the one that compiles lands here
    // after the insert: re-check before doing the work. The reactor
    // already counted its lookup as a miss, so peek first and only count
    // a hit when the dedup actually pays off (and count the miss here for
    // requests the reactor never looked up). As on the fast path, only
    // the Arc clone happens under the lock.
    let deduped = {
        let mut cache = shared.caches[shard].lock().expect("cache lock poisoned");
        if cache.peek(&key).is_some() {
            Some(cache.get(&key).cloned().expect("peeked entry is live"))
        } else {
            if !counted {
                let _ = cache.get(&key);
            }
            None
        }
    };
    if let Some(artifact) = deduped {
        return compile_response(&key_hex, true, &artifact);
    }
    // L2→L3: consult the persistent store before compiling. A verified
    // disk hit is promoted into the in-memory shard; a corrupt file is
    // logged and recompiled (the overwrite heals it).
    if let Some(store) = &shared.store {
        match store.load(&key) {
            StoreLookup::Hit(artifact) => {
                let artifact = Arc::new(artifact);
                insert_artifact(shared, shard, key, &artifact);
                return compile_response(&key_hex, true, &artifact);
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
            Err(message) => return Response::Error(WireError::new(ErrorCode::ParseError, message)),
        },
    };
    let artifacts = match pipeline::execute(&mig, &request.spec) {
        Ok(result) => result,
        // `execute` only fails verification; parse failures happen above.
        Err(message) => return Response::Error(WireError::new(ErrorCode::VerifyError, message)),
    };
    let output = match pipeline::emit(&request.emit, &artifacts) {
        Ok(output) => output,
        Err(message) => return Response::Error(WireError::new(ErrorCode::BadRequest, message)),
    };
    let stats = &artifacts.compilation.compiled.stats;
    let artifact = Arc::new(StoredArtifact {
        instructions: stats.instructions as u64,
        rams: u64::from(stats.rams),
        max_cell_writes: stats.max_cell_writes,
        output,
    });
    insert_artifact(shared, shard, key, &artifact);
    if let Some(store) = &shared.store {
        if let Err(message) = store.save(&key, &artifact) {
            // A failed write-through only costs warmth after a restart;
            // keep serving.
            if shared.log {
                eprintln!("plimd: store: {message}");
            }
        }
    }
    compile_response(&key_hex, false, &artifact)
}

fn insert_artifact(shared: &Shared, shard: usize, key: CacheKey, artifact: &Arc<StoredArtifact>) {
    let weight = artifact.weight();
    let mut cache = shared.caches[shard].lock().expect("cache lock poisoned");
    if weight > cache.budget() && shared.log {
        // The per-shard budget is cache_bytes / workers, so on a
        // many-core host a large listing can exceed it. insert()
        // would silently skip it; make the lost warm path visible.
        eprintln!(
            "plimd: artifact of {weight} bytes exceeds the {}-byte shard budget; \
             not cached (raise --cache-bytes)",
            cache.budget()
        );
    }
    cache.insert(key, Arc::clone(artifact), weight);
}

fn complete(shared: &Shared, conn: u64, seq: u64, response: Response) {
    shared.completions.push(Completion {
        conn,
        seq,
        response,
    });
}

fn compile_response(key_hex: &str, cached: bool, artifact: &Arc<StoredArtifact>) -> Response {
    Response::Compile(CompileResponse {
        cached,
        key: key_hex.to_string(),
        instructions: artifact.instructions,
        rams: artifact.rams,
        max_cell_writes: artifact.max_cell_writes,
        output: artifact.output.clone(),
    })
}

pub(crate) fn log_response(op: &str, response: &Response, elapsed: Duration) {
    match response {
        Response::Compile(compile) => eprintln!(
            "plimd: {op} key={}… {} #I={} #R={} ({elapsed:.1?})",
            &compile.key[..12],
            if compile.cached { "hit" } else { "miss" },
            compile.instructions,
            compile.rams,
        ),
        Response::Error(error) => {
            eprintln!("plimd: {op} error: {} ({elapsed:.1?})", error.message);
        }
        _ => eprintln!("plimd: {op} ({elapsed:.1?})"),
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
    let workers = server.shared.shards();
    // Stdout is line-buffered, so this line is visible to a supervising
    // process (CI greps it for the port) as soon as the daemon is ready.
    println!(
        "plimd: listening on {addr} ({workers} workers, {} cache bytes)",
        {
            let per_shard = server.shared.caches[0]
                .lock()
                .expect("cache lock poisoned")
                .budget();
            per_shard * workers
        }
    );
    if let Some(store) = &server.shared.store {
        println!("plimd: persistent store at {}", store.root().display());
    }
    server.run()
}
