//! The daemon's event loop: one thread, thousands of connections.
//!
//! Everything socket-shaped happens here, on a single thread, driven by
//! the edge-triggered [`Poller`](crate::poller::Poller):
//!
//! * **Accepting.** The listener is non-blocking; each readable edge is
//!   drained to `WouldBlock`. Connections live in a slab indexed by their
//!   poller token; a slot freed mid-batch is not reused until the batch
//!   ends, so a stale event can never reach a new connection.
//! * **Reading and framing.** Sockets are read in chunks into a
//!   per-connection buffer and split on newlines; each complete line is
//!   handled by [`server::handle_line`](crate::server). Warm cache hits,
//!   stats, and malformed requests are answered inline; compile work
//!   joins the worker pool's job queue (or attaches to the running
//!   compile of its key) and a `Waiting` placeholder keeps its place in
//!   the response queue.
//! * **Pipelining with ordered responses.** The per-connection `pending`
//!   queue holds one entry per in-flight request, in arrival order.
//!   Responses are flushed strictly from the front, so a fast compile
//!   queued behind a slow one waits — bytes on the wire always match
//!   request order.
//! * **Backpressure.** Past `max_pipeline` in-flight requests the
//!   reactor simply stops reading the socket (no re-registration — the
//!   interest set never changes). The kernel's receive buffer fills and
//!   TCP pushes back on the client; reading resumes as responses drain.
//! * **Completions.** Workers push finished compiles onto the
//!   [`CompletionQueue`](plim_parallel::queue::CompletionQueue) and ring
//!   the self-pipe [`Waker`](crate::poller::Waker); the reactor drains
//!   the queue every iteration and resolves each completion's `(conn,
//!   seq)` placeholder.
//! * **Timeouts and drain.** The poll loop ticks at least every 250 ms
//!   to sweep idle connections. A `shutdown` request stops accepting,
//!   stops reading, answers everything in flight, flushes, and closes —
//!   with a hard deadline so one dead peer cannot hold the daemon open.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::poller::{Event, Interest, Poller};
use crate::protocol::{ErrorCode, Response, WireError};
use crate::server::{handle_line, log_response, Disposition, Shared};

/// Upper bound on one request line. Without it a client that streams
/// bytes with no newline would grow the read buffer without limit,
/// OOMing the daemon regardless of the artifact cache's byte budget.
pub(crate) const MAX_REQUEST_BYTES: usize = 64 << 20;

const LISTENER: u64 = 0;
const WAKER: u64 = 1;
const TOKEN_BASE: u64 = 2;
/// Poll tick: the idle sweep and drain-deadline granularity.
const TICK: Duration = Duration::from_millis(250);
/// How long a drain waits for in-flight work and unflushed bytes.
const DRAIN_GRACE: Duration = Duration::from_secs(10);
const READ_CHUNK: usize = 64 << 10;

/// One slot of a connection's ordered response queue.
enum Pending {
    /// Encoded response bytes (newline included), ready to flush.
    Ready(Vec<u8>),
    /// A dispatched compile; its completion carries the same `seq`.
    Waiting {
        seq: u64,
        op: &'static str,
        started: Instant,
    },
}

struct Conn {
    /// Stable identity (tokens/slots are reused; ids never are).
    id: u64,
    stream: TcpStream,
    read_buf: Vec<u8>,
    /// Prefix of `read_buf` already scanned for a newline.
    scanned: usize,
    write_buf: Vec<u8>,
    write_pos: usize,
    pending: VecDeque<Pending>,
    next_seq: u64,
    last_activity: Instant,
    /// Read side hit EOF; serve what's buffered, then close.
    peer_closed: bool,
    /// Stop parsing; close once `pending` and `write_buf` drain.
    closing: bool,
    /// Reading suspended by backpressure.
    paused: bool,
    /// A readable edge arrived while paused; re-read on resume.
    read_ready: bool,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.write_pos == self.write_buf.len()
    }
}

struct Reactor {
    poller: Poller,
    listener: TcpListener,
    shared: Arc<Shared>,
    conns: Vec<Option<Conn>>,
    /// Slots safe to reuse (freed in an earlier batch).
    free: Vec<usize>,
    /// Slots freed in the current batch; promoted to `free` at batch end
    /// so stale events in this batch cannot hit a fresh connection.
    freed: Vec<usize>,
    by_id: HashMap<u64, usize>,
    next_conn_id: u64,
    live: usize,
    events: Vec<Event>,
    draining: bool,
    drain_deadline: Option<Instant>,
    last_sweep: Instant,
}

/// Runs the event loop until shutdown completes.
pub(crate) fn run(listener: TcpListener, shared: Arc<Shared>) -> Result<(), String> {
    let poller = Poller::new().map_err(|e| format!("creating the event poller: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("unblocking the listener: {e}"))?;
    poller
        .register(listener.as_raw_fd(), LISTENER, Interest::READABLE)
        .map_err(|e| format!("registering the listener: {e}"))?;
    poller
        .register(shared.waker.read_fd(), WAKER, Interest::READABLE)
        .map_err(|e| format!("registering the waker: {e}"))?;
    let mut reactor = Reactor {
        poller,
        listener,
        shared,
        conns: Vec::new(),
        free: Vec::new(),
        freed: Vec::new(),
        by_id: HashMap::new(),
        next_conn_id: 0,
        live: 0,
        events: Vec::new(),
        draining: false,
        drain_deadline: None,
        last_sweep: Instant::now(),
    };
    reactor.run()
}

impl Reactor {
    fn run(&mut self) -> Result<(), String> {
        loop {
            let mut events = std::mem::take(&mut self.events);
            self.poller
                .wait(&mut events, Some(TICK))
                .map_err(|e| format!("polling for events: {e}"))?;
            for event in &events {
                match event.token {
                    LISTENER => self.accept_all(),
                    WAKER => self.shared.waker.drain(),
                    token => {
                        let slot = (token - TOKEN_BASE) as usize;
                        if slot >= self.conns.len() || self.conns[slot].is_none() {
                            continue; // stale event for a closed connection
                        }
                        if event.readable {
                            self.on_readable(slot);
                        }
                        self.pump(slot);
                    }
                }
            }
            self.events = events;
            self.deliver_completions();
            if self.shared.shutdown.load(Ordering::SeqCst) && !self.draining {
                self.start_drain();
            }
            self.sweep_idle();
            // Only now may slots freed during this batch be reused.
            self.free.append(&mut self.freed);
            if self.draining {
                if self.live == 0 {
                    return Ok(());
                }
                if self
                    .drain_deadline
                    .is_some_and(|deadline| Instant::now() >= deadline)
                {
                    for slot in 0..self.conns.len() {
                        if self.conns[slot].is_some() {
                            self.close(slot);
                        }
                    }
                    return Ok(());
                }
            }
        }
    }

    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.draining {
                        continue; // accept-and-drop: the fd edge must drain
                    }
                    self.add_conn(stream);
                }
                Err(error) if error.kind() == ErrorKind::WouldBlock => return,
                Err(error) if error.kind() == ErrorKind::Interrupted => continue,
                Err(error) => {
                    // Per-connection accept failures (ECONNABORTED, a
                    // transient EMFILE burst) must not kill the daemon;
                    // the next readable edge retries.
                    if self.shared.log {
                        eprintln!("plimd: accepting a connection: {error}");
                    }
                    return;
                }
            }
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Pipelined request/response lines are latency-bound, not
        // bandwidth-bound; Nagle only hurts here.
        let _ = stream.set_nodelay(true);
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        let token = slot as u64 + TOKEN_BASE;
        if let Err(error) = self
            .poller
            .register(stream.as_raw_fd(), token, Interest::BOTH)
        {
            if self.shared.log {
                eprintln!("plimd: registering a connection: {error}");
            }
            self.free.push(slot);
            return;
        }
        let id = self.next_conn_id;
        self.next_conn_id += 1;
        self.by_id.insert(id, slot);
        self.conns[slot] = Some(Conn {
            id,
            stream,
            read_buf: Vec::new(),
            scanned: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            pending: VecDeque::new(),
            next_seq: 0,
            last_activity: Instant::now(),
            peer_closed: false,
            closing: false,
            paused: false,
            read_ready: false,
        });
        self.live += 1;
        // The peer may have sent bytes between accept and register; an
        // edge-triggered poller would report that readiness, but reading
        // now costs one harmless WouldBlock and closes the race for sure.
        self.on_readable(slot);
        self.pump(slot);
    }

    fn close(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.by_id.remove(&conn.id);
        self.freed.push(slot);
        self.live -= 1;
        // `conn.stream` drops here, closing the fd after deregistration.
    }

    /// Reads until `WouldBlock`, parsing after every chunk so
    /// backpressure can stop the reads mid-stream.
    fn on_readable(&mut self, slot: usize) {
        let mut chunk = vec![0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.paused || conn.closing {
                conn.read_ready = true;
                return;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    self.parse_lines(slot);
                    self.maybe_close(slot);
                    return;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    self.parse_lines(slot);
                }
                Err(error) if error.kind() == ErrorKind::WouldBlock => return,
                Err(error) if error.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
    }

    /// Splits buffered bytes into lines and handles each; returns whether
    /// any request was consumed.
    fn parse_lines(&mut self, slot: usize) -> bool {
        let mut progressed = false;
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return progressed;
            };
            if conn.closing || self.draining {
                return progressed;
            }
            if conn.pending.len() >= self.shared.max_pipeline {
                conn.paused = true;
                return progressed;
            }
            let position = conn.read_buf[conn.scanned..]
                .iter()
                .position(|&byte| byte == b'\n');
            let line = match position {
                Some(offset) => {
                    let end = conn.scanned + offset;
                    let line: Vec<u8> = conn.read_buf.drain(..=end).collect();
                    conn.scanned = 0;
                    line
                }
                None => {
                    conn.scanned = conn.read_buf.len();
                    if conn.read_buf.len() > MAX_REQUEST_BYTES {
                        // The rest of the stream is unframed garbage:
                        // answer once and drop the connection.
                        conn.read_buf = Vec::new();
                        conn.scanned = 0;
                        self.push_error(
                            slot,
                            ErrorCode::TooLarge,
                            format!("request exceeds {MAX_REQUEST_BYTES} bytes"),
                        );
                        if let Some(conn) = self.conns[slot].as_mut() {
                            conn.closing = true;
                        }
                        return true;
                    }
                    if conn.peer_closed && !conn.read_buf.is_empty() {
                        // EOF with an unterminated final line: treat it as
                        // a request (matching the blocking server's
                        // read_until behavior).
                        let line = std::mem::take(&mut conn.read_buf);
                        conn.scanned = 0;
                        self.handle_raw_line(slot, &line);
                        progressed = true;
                        continue;
                    }
                    return progressed;
                }
            };
            self.handle_raw_line(slot, &line);
            progressed = true;
        }
    }

    fn handle_raw_line(&mut self, slot: usize, line: &[u8]) {
        let Ok(text) = std::str::from_utf8(line) else {
            // A stray non-UTF-8 byte gets a diagnosable error response,
            // not a dropped connection.
            self.push_error(slot, ErrorCode::BadRequest, "request is not valid UTF-8");
            return;
        };
        if text.trim().is_empty() {
            return;
        }
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let conn_id = conn.id;
        let seq = conn.next_seq;
        conn.next_seq += 1;
        let started = Instant::now();
        let outcome = handle_line(&self.shared, conn_id, seq, text);
        match outcome.disposition {
            Disposition::Ready(response) => {
                if self.shared.log {
                    log_response(outcome.op, &response, started.elapsed());
                }
                self.push_ready(slot, &response);
            }
            Disposition::Dispatched => {
                if let Some(conn) = self.conns[slot].as_mut() {
                    conn.pending.push_back(Pending::Waiting {
                        seq,
                        op: outcome.op,
                        started,
                    });
                }
            }
            Disposition::StartShutdown(response) => {
                if self.shared.log {
                    log_response(outcome.op, &response, started.elapsed());
                }
                self.push_ready(slot, &response);
                self.shared.shutdown.store(true, Ordering::SeqCst);
            }
        }
    }

    fn push_ready(&mut self, slot: usize, response: &Response) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let mut encoded = response.to_json();
        encoded.push('\n');
        conn.pending.push_back(Pending::Ready(encoded.into_bytes()));
    }

    fn push_error(&mut self, slot: usize, code: ErrorCode, message: impl Into<String>) {
        let response = Response::Error(WireError::new(code, message));
        if self.shared.log {
            log_response("invalid", &response, Duration::ZERO);
        }
        self.push_ready(slot, &response);
    }

    /// Resolves finished compiles into their `Waiting` placeholders.
    fn deliver_completions(&mut self) {
        for completion in self.shared.completions.drain() {
            let Some(&slot) = self.by_id.get(&completion.conn) else {
                continue; // the requester hung up; drop the result
            };
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            let mut resolved = false;
            for pending in &mut conn.pending {
                if let Pending::Waiting { seq, op, started } = pending {
                    if *seq == completion.seq {
                        if self.shared.log {
                            log_response(op, &completion.response, started.elapsed());
                        }
                        let mut encoded = completion.response.to_json();
                        encoded.push('\n');
                        *pending = Pending::Ready(encoded.into_bytes());
                        resolved = true;
                        break;
                    }
                }
            }
            if resolved {
                conn.last_activity = Instant::now();
                self.pump(slot);
            }
        }
    }

    /// Drives one connection until quiescent: flush what's flushable,
    /// resume a paused reader when the window has room, parse what's
    /// buffered, and close when both sides are done.
    fn pump(&mut self, slot: usize) {
        loop {
            let mut progressed = self.flush(slot);
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.paused && !conn.closing && conn.pending.len() < self.shared.max_pipeline {
                conn.paused = false;
                progressed = true;
            }
            if !conn.paused && !conn.closing {
                progressed |= self.parse_lines(slot);
                if let Some(conn) = self.conns[slot].as_mut() {
                    if conn.read_ready && !conn.paused && !conn.closing {
                        conn.read_ready = false;
                        self.on_readable(slot);
                        progressed = true;
                    }
                }
            }
            if self.maybe_close(slot) || !progressed {
                return;
            }
        }
    }

    /// Moves ready responses into the write buffer (strictly from the
    /// queue front — response order is request order) and writes as much
    /// as the socket accepts.
    fn flush(&mut self, slot: usize) -> bool {
        let Some(conn) = self.conns[slot].as_mut() else {
            return false;
        };
        let mut progressed = false;
        while matches!(conn.pending.front(), Some(Pending::Ready(_))) {
            let Some(Pending::Ready(bytes)) = conn.pending.pop_front() else {
                unreachable!("front was just matched as Ready");
            };
            conn.write_buf.extend_from_slice(&bytes);
            progressed = true;
        }
        let mut dead = false;
        while conn.write_pos < conn.write_buf.len() {
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => {
                    conn.write_pos += n;
                    conn.last_activity = Instant::now();
                    progressed = true;
                }
                Err(error) if error.kind() == ErrorKind::WouldBlock => break,
                Err(error) if error.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if dead {
            self.close(slot);
            return true;
        }
        if conn.flushed() && !conn.write_buf.is_empty() {
            conn.write_buf.clear();
            conn.write_pos = 0;
        }
        progressed
    }

    /// Closes the connection when there is nothing left to say: the peer
    /// is gone (or we are closing) and no responses are owed or buffered.
    fn maybe_close(&mut self, slot: usize) -> bool {
        let Some(conn) = self.conns[slot].as_ref() else {
            return true;
        };
        let done_reading = conn.peer_closed && conn.read_buf.is_empty();
        if (conn.closing || done_reading) && conn.pending.is_empty() && conn.flushed() {
            self.close(slot);
            return true;
        }
        false
    }

    fn sweep_idle(&mut self) {
        let now = Instant::now();
        if now.duration_since(self.last_sweep) < TICK || self.draining {
            return;
        }
        self.last_sweep = now;
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            // A connection with work in flight is not idle, no matter how
            // long the compile takes.
            if conn.pending.is_empty()
                && conn.flushed()
                && now.duration_since(conn.last_activity) >= self.shared.idle_timeout
            {
                self.close(slot);
            }
        }
    }

    /// Enters the drain: stop accepting, stop reading, answer what is in
    /// flight, flush, close.
    fn start_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns[slot].as_mut() {
                conn.closing = true;
                self.pump(slot);
            }
        }
    }
}
