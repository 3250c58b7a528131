//! # plim-service — the `plimd` compile service and the `plimc` driver
//!
//! Every consumer of the MIG → PLiM pipeline used to pay the full
//! rewrite + compile cost per invocation, even for identical inputs. This
//! crate turns the pipeline into a long-running daemon, `plimd`: a
//! std-only TCP service that accepts compile requests as newline-delimited
//! JSON, queues compile work for a worker pool
//! ([`plim_parallel::pool::WorkerPool`]), and serves repeats from a
//! content-addressed result cache
//! ([`plim_compiler::cache::LruCache`]) keyed by the canonical structural
//! digest of the input graph ([`mig::canon::structural_digest`]) plus a
//! fingerprint of the request options.
//!
//! Because the digest is order-independent and Ω.I-normalized,
//! syntactically different dumps of the same circuit hit the same cache
//! entry; a warm request skips parsing-onward work entirely (no rewrite,
//! no compile, no verification) and returns the stored artifact.
//!
//! ## The v2 server core
//!
//! The daemon fronts the worker pool with a single-threaded,
//! edge-triggered reactor ([`poller`] wraps `epoll`/`kqueue`; the event
//! loop lives in the private `reactor` module). One thread owns every
//! connection: requests are parsed out of per-connection read buffers
//! (arbitrarily pipelined), compile work joins one FIFO job queue that
//! any idle worker takes from — identical cold requests attach to one
//! in-flight compile instead of queueing their own — and completions
//! flow back over a wakeable queue
//! ([`plim_parallel::queue::CompletionQueue`]) to be written out *in
//! request order*. A connection with [`server::ServerConfig::max_pipeline`]
//! responses outstanding stops being read until it drains — backpressure
//! reaches the client as TCP flow control, not memory growth. Idle
//! connections are reaped after [`server::ServerConfig::idle_timeout`];
//! `shutdown` drains in-flight work gracefully before the process exits.
//!
//! With `--store DIR`, compiled artifacts are also written through to an
//! on-disk content-addressed store ([`plim_compiler::ArtifactStore`])
//! keyed exactly like the LRU, so a restarted daemon serves repeats
//! warm from its first request.
//!
//! The crate also hosts the `plimc` command-line driver (moved here from
//! `plim-compiler` so the `serve`/`request`/`loadtest` subcommands can
//! link the service) and splits the driver's compile path into the
//! reusable [`pipeline`] module — the daemon and the offline CLI run the
//! *same* functions, which is what makes served output byte-identical to
//! offline output (and what [`loadtest`] verifies under load).
//!
//! ## Modules
//!
//! * [`bench`](mod@bench) — the `plimc bench` driver: one batch run that measures
//!   the Table 1 rows and every `BENCH.json` column;
//! * [`benchfile`] — the `BENCH.json` column table, reader/writer and the
//!   `plimc bench-diff` regression gate;
//! * [`pipeline`] — parse / optimize / compile / verify / emit, shared by
//!   `plimc` offline mode and the daemon; it calls the e-graph
//!   (`plim_egraph::optimize_compiled`) directly, and every target is
//!   built into `plim-compiler`, so no binary or test sets anything up
//!   before compiling;
//! * [`protocol`] — the v2 wire protocol (requests, responses,
//!   error codes, stats), built on [`plim_compiler::json`];
//! * [`poller`] — the safe edge-triggered readiness facade over
//!   `epoll`/`kqueue` (the workspace's only `unsafe` code);
//! * [`server`] — daemon configuration, job dispatch, the single-flight
//!   table, cache and store plumbing, `serve` CLI;
//! * [`flags`] — the one flag reader every `plimc` subcommand and `plimd`
//!   walk their arguments with;
//! * [`client`] — the blocking client used by `plimc request`, with
//!   timeout and connect-retry support;
//! * [`loadtest`] — the `plimc loadtest` harness: thousands of concurrent
//!   pipelined connections, byte-compared against the offline pipeline.
//!
//! ## Wire protocol (v2)
//!
//! One JSON object per line, one response line per request, responses in
//! request order; see [`protocol`] for the exact fields and error codes.
//! Every request carries `"v":2`, and every error is a `{"code","message"}`
//! object. A session transcript:
//!
//! ```text
//! → {"v":2,"op":"compile","format":"mig","source":"inputs a b\nn = maj(0, a, b)\noutput f = n\n"}
//! ← {"ok":true,"op":"compile","cached":false,"key":"…","instructions":3,"rams":1,"max_cell_writes":3,"output":"01: …"}
//! → {"v":2,"op":"stats"}
//! ← {"ok":true,"op":"stats","hits":0,"misses":1,…,"store":{"hits":0,"misses":1,"corrupt":0,"writes":1},…}
//! → {"v":2,"op":"nonsense"}
//! ← {"ok":false,"error":{"code":"unknown_op","message":"unknown op `nonsense`"}}
//! → {"op":"stats"}
//! ← {"ok":false,"error":{"code":"unsupported_version","message":"unsupported protocol version none (this daemon speaks v2)"}}
//! → {"v":2,"op":"shutdown"}
//! ← {"ok":true,"op":"shutdown"}
//! ```

pub mod bench;
pub mod benchfile;
pub mod client;
pub mod flags;
pub mod loadtest;
pub mod pipeline;
pub mod poller;
pub mod protocol;
mod reactor;
pub mod server;
