//! Socket frontends for `fjs serve`: concurrent connections over unix
//! sockets and TCP, speaking the same line protocol.
//!
//! Topology: one accept thread per listener, one reader thread and one
//! writer thread per connection. Readers split the byte stream into
//! lines and feed a **bounded** event channel (so a flood of clients
//! exerts backpressure instead of growing an unbounded queue); the
//! dispatching thread submits each line to the [`Backend`] and routes
//! completed replies to the owning connection's writer. Pooled work that
//! completes posts a `Wake` on the same channel (never blocking: a full
//! queue drops it), and the dispatcher pumps the backend after *every*
//! event, so a dropped wake is covered by the pump after the event that
//! filled the queue. Its only timer is a 100 ms heartbeat that checks
//! for a stop signal. Each connection
//! has its own byte-offset space; the protocol line counter is global,
//! so journal resume cursors only apply to file/stdin frontends (socket
//! input is not re-readable).
//!
//! Failure containment (the PR's bugfix contract):
//!
//! * a connection's read/write error (`ECONNRESET`, `EPIPE`, a client
//!   killed mid-line) drops **that connection only** — counted in
//!   [`ServeSummary::disconnects`](super::ServeSummary) — and the daemon
//!   keeps serving everyone else;
//! * a client that streams bytes without ever sending a newline can no
//!   longer grow the reader's accumulator without bound: once a frame
//!   exceeds `--max-frame-bytes` the connection gets one
//!   `err line-too-long` reply and is dropped (counted in
//!   `oversize_disconnects`), leaving every other session untouched;
//! * a client that stops draining its replies fills its **bounded**
//!   writer queue (`--writer-queue`); rather than let one stalled reader
//!   wedge the dispatcher, the connection is shut down and counted in
//!   `slow_disconnects`;
//! * transient `accept()` failures (`EINTR`, `ECONNABORTED`,
//!   `ECONNRESET`, `EMFILE`/`ENFILE` exhaustion) are retried with a
//!   short backoff and counted, never fatal;
//! * binding a unix socket first **probes** an existing path with a
//!   connect attempt: if another daemon answers, binding fails with
//!   [`SocketClaimError::Live`] (the CLI exits 2) instead of silently
//!   clobbering the live daemon's socket; only stale files are removed.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::Arc;
use std::time::Duration;

use super::Backend;
use crate::soak::stop_requested;

/// Bounded capacity of the line/event channel feeding the dispatcher.
const EVENT_QUEUE: usize = 1024;

/// How often an idle dispatcher wakes to check for a stop signal.
const HEARTBEAT: Duration = Duration::from_millis(100);

/// Poll cadence for nonblocking accepts.
const IDLE_TICK: Duration = Duration::from_millis(20);

/// Backoff after a transient `accept()` failure.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Why a unix socket path could not be claimed.
#[derive(Debug)]
pub enum SocketClaimError {
    /// Another daemon is alive behind the path (a connect succeeded);
    /// refusing to clobber it. The CLI maps this to a usage error
    /// (exit 2).
    Live(String),
    /// A real I/O failure while probing or binding.
    Io(String),
}

impl std::fmt::Display for SocketClaimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocketClaimError::Live(m) | SocketClaimError::Io(m) => write!(f, "{m}"),
        }
    }
}

/// A listener of either family.
pub enum AnyListener {
    /// TCP (`--tcp <addr>`).
    Tcp(TcpListener),
    /// Unix domain socket (`--socket <path>`); the path is removed when
    /// the accept loop exits.
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener, PathBuf),
}

impl AnyListener {
    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            AnyListener::Tcp(l) => l.set_nonblocking(true),
            #[cfg(unix)]
            AnyListener::Unix(l, _) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> io::Result<AnyStream> {
        match self {
            AnyListener::Tcp(l) => l.accept().map(|(s, _)| {
                // Replies are single lines a client is actively waiting
                // for; leaving Nagle on would serialize closed-loop
                // clients on delayed ACKs.
                let _ = s.set_nodelay(true);
                AnyStream::Tcp(s)
            }),
            #[cfg(unix)]
            AnyListener::Unix(l, _) => l.accept().map(|(s, _)| AnyStream::Unix(s)),
        }
    }

    fn describe(&self) -> String {
        match self {
            AnyListener::Tcp(l) => l
                .local_addr()
                .map(|a| format!("tcp {a}"))
                .unwrap_or_else(|_| "tcp".into()),
            #[cfg(unix)]
            AnyListener::Unix(_, p) => format!("unix {}", p.display()),
        }
    }

    fn cleanup(&self) {
        #[cfg(unix)]
        if let AnyListener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A connected stream of either family.
enum AnyStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl AnyStream {
    fn try_clone(&self) -> io::Result<AnyStream> {
        match self {
            AnyStream::Tcp(s) => s.try_clone().map(AnyStream::Tcp),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.try_clone().map(AnyStream::Unix),
        }
    }

    fn set_read_timeout(&self, d: Duration) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.set_read_timeout(Some(d)),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.set_read_timeout(Some(d)),
        }
    }

    /// Tears the connection down from outside its reader/writer threads.
    /// The writer may be blocked in `write` against a client that stopped
    /// reading — dropping its channel would never wake it, but shutting
    /// the socket down makes the syscall return an error immediately.
    fn shutdown(&self) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for AnyStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.flush(),
        }
    }
}

/// Claims a unix socket path: probes an existing file with a connect
/// attempt, refuses if a daemon answers, removes only stale leftovers,
/// then binds.
#[cfg(unix)]
pub fn bind_unix(path: &std::path::Path) -> Result<AnyListener, SocketClaimError> {
    use std::os::unix::net::{UnixListener, UnixStream};

    if path.exists() {
        match UnixStream::connect(path) {
            Ok(_) => {
                return Err(SocketClaimError::Live(format!(
                    "socket {} is in use by a live daemon; \
                     refusing to clobber it (pick another path or stop that daemon)",
                    path.display()
                )));
            }
            Err(_) => {
                // Nothing answered: a stale socket from a killed daemon
                // (or a non-socket file); safe to reclaim.
                std::fs::remove_file(path).map_err(|e| {
                    SocketClaimError::Io(format!("removing stale {}: {e}", path.display()))
                })?;
            }
        }
    }
    let listener = UnixListener::bind(path)
        .map_err(|e| SocketClaimError::Io(format!("binding {}: {e}", path.display())))?;
    Ok(AnyListener::Unix(listener, path.to_path_buf()))
}

/// Binds a TCP listener for `--tcp <addr>`.
pub fn bind_tcp(addr: &str) -> Result<AnyListener, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("binding tcp {addr}: {e}"))?;
    Ok(AnyListener::Tcp(listener))
}

/// `accept()` failures worth retrying: interrupted syscalls, connections
/// that died in the backlog, and descriptor/buffer exhaustion (which
/// recovers as clients disconnect). Checked by error kind plus the raw
/// errnos std does not map (`ENFILE` 23, `EMFILE` 24, `ENOBUFS` 105).
fn transient_accept(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::TimedOut
    ) || matches!(e.raw_os_error(), Some(23) | Some(24) | Some(105))
}

enum NetEvent {
    Accepted {
        conn: u64,
        outbox: SyncSender<String>,
        kill: AnyStream,
        depth: Arc<AtomicUsize>,
    },
    Line {
        conn: u64,
        offset: u64,
        line: String,
    },
    /// The connection exceeded the frame-length cap; the dispatcher
    /// answers `err line-too-long` and drops only this connection.
    Oversize {
        conn: u64,
    },
    Closed {
        conn: u64,
        errored: bool,
    },
    AcceptFatal {
        what: String,
    },
    /// Pooled work completed; the dispatcher pumps the backend.
    Wake,
}

/// Splits a byte stream into newline-terminated frames with a hard cap
/// on frame length, tracking each frame's byte offset within the
/// stream. Pure (no I/O) so the oversize contract is unit-testable:
/// the accumulator can never hold more than `max_frame` bytes of an
/// unterminated line, which is what makes a newline-less flood bounded.
pub(crate) struct LineFramer {
    acc: Vec<u8>,
    consumed: u64,
    max_frame: usize,
}

impl LineFramer {
    pub(crate) fn new(max_frame: usize) -> Self {
        LineFramer {
            acc: Vec::new(),
            consumed: 0,
            max_frame: max_frame.max(1),
        }
    }

    /// Feeds one chunk; returns the completed `(offset, line)` frames
    /// (newline included, like the previous reader) and whether the
    /// stream just went oversize — either a completed line longer than
    /// the cap, or an unterminated residual exceeding it. Frames
    /// completed *before* the violation are still returned so the
    /// well-formed prefix is served.
    pub(crate) fn push(&mut self, chunk: &[u8]) -> (Vec<(u64, String)>, bool) {
        self.acc.extend_from_slice(chunk);
        let mut lines = Vec::new();
        while let Some(pos) = self.acc.iter().position(|&b| b == b'\n') {
            if pos > self.max_frame {
                return (lines, true);
            }
            let line_bytes: Vec<u8> = self.acc.drain(..=pos).collect();
            let offset = self.consumed;
            self.consumed += line_bytes.len() as u64;
            lines.push((offset, String::from_utf8_lossy(&line_bytes).into_owned()));
        }
        let oversize = self.acc.len() > self.max_frame;
        (lines, oversize)
    }

    /// True when an unterminated partial line is buffered.
    pub(crate) fn partial(&self) -> bool {
        !self.acc.is_empty()
    }
}

/// The per-connection reader: splits the stream into capped frames (each
/// frame's byte offset tracked within this connection) and feeds the
/// shared event channel. A read error or EOF reports `Closed`, an
/// oversize frame reports `Oversize`; either ends the thread — never
/// the daemon.
fn reader_loop(
    mut stream: AnyStream,
    conn: u64,
    max_frame: usize,
    tx: SyncSender<NetEvent>,
    shutdown: Arc<AtomicBool>,
) {
    let mut framer = LineFramer::new(max_frame);
    let mut chunk = [0u8; 4096];
    let errored = loop {
        if shutdown.load(Ordering::Relaxed) {
            break false;
        }
        let n = match stream.read(&mut chunk) {
            // EOF at a line boundary is a clean close; EOF with a
            // partial request buffered means the client died mid-line —
            // data was lost, so it counts as a dropped connection.
            Ok(0) => break framer.partial(),
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break true,
        };
        let (lines, oversize) = framer.push(&chunk[..n]);
        for (offset, line) in lines {
            if tx.send(NetEvent::Line { conn, offset, line }).is_err() {
                return; // dispatcher is gone; we are shutting down
            }
        }
        if oversize {
            // The dispatcher replies `err line-too-long` and drops the
            // connection's outbox; no Closed event follows from here.
            let _ = tx.send(NetEvent::Oversize { conn });
            return;
        }
    };
    // A partial trailing line (client died mid-line) is dropped, never
    // dispatched: the protocol is strictly line-framed.
    let _ = tx.send(NetEvent::Closed { conn, errored });
}

/// The per-connection writer: relays routed replies; a write error
/// (`EPIPE` to a dead client) reports `Closed` and ends the thread.
fn writer_loop(
    mut stream: AnyStream,
    conn: u64,
    replies: mpsc::Receiver<String>,
    depth: Arc<AtomicUsize>,
    tx: SyncSender<NetEvent>,
) {
    while let Ok(reply) = replies.recv() {
        depth.fetch_sub(1, Ordering::Relaxed);
        if writeln!(stream, "{reply}")
            .and_then(|_| stream.flush())
            .is_err()
        {
            let _ = tx.send(NetEvent::Closed {
                conn,
                errored: true,
            });
            return;
        }
    }
}

fn accept_loop(
    listener: AnyListener,
    caps: ConnCaps,
    tx: SyncSender<NetEvent>,
    shutdown: Arc<AtomicBool>,
    ids: Arc<AtomicU64>,
    retries: Arc<AtomicU64>,
) {
    if let Err(e) = listener.set_nonblocking() {
        let _ = tx.send(NetEvent::AcceptFatal {
            what: format!("{}: {e}", listener.describe()),
        });
        listener.cleanup();
        return;
    }
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok(stream) => {
                let conn = ids.fetch_add(1, Ordering::Relaxed);
                if let Err(e) = spawn_connection(stream, conn, caps, &tx, &shutdown) {
                    // Setting up this one connection failed; it alone is
                    // dropped.
                    let _ = tx.send(NetEvent::Closed {
                        conn,
                        errored: true,
                    });
                    let _ = e;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(IDLE_TICK);
            }
            Err(e) if transient_accept(&e) => {
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(ACCEPT_BACKOFF);
            }
            Err(e) => {
                let _ = tx.send(NetEvent::AcceptFatal {
                    what: format!("accept on {}: {e}", listener.describe()),
                });
                break;
            }
        }
    }
    listener.cleanup();
}

/// Per-connection resource caps, read once from the backend's options.
#[derive(Clone, Copy)]
struct ConnCaps {
    max_frame: usize,
    writer_queue: usize,
}

fn spawn_connection(
    stream: AnyStream,
    conn: u64,
    caps: ConnCaps,
    tx: &SyncSender<NetEvent>,
    shutdown: &Arc<AtomicBool>,
) -> io::Result<()> {
    stream.set_read_timeout(Duration::from_millis(100))?;
    let writer_stream = stream.try_clone()?;
    let kill = stream.try_clone()?;
    let (outbox, replies) = mpsc::sync_channel::<String>(caps.writer_queue.max(1));
    let depth = Arc::new(AtomicUsize::new(0));
    if tx
        .send(NetEvent::Accepted {
            conn,
            outbox,
            kill,
            depth: Arc::clone(&depth),
        })
        .is_err()
    {
        return Ok(()); // dispatcher is gone; we are shutting down
    }
    {
        let tx = tx.clone();
        let shutdown = Arc::clone(shutdown);
        std::thread::spawn(move || reader_loop(stream, conn, caps.max_frame, tx, shutdown));
    }
    {
        let tx = tx.clone();
        std::thread::spawn(move || writer_loop(writer_stream, conn, replies, depth, tx));
    }
    Ok(())
}

/// Serves all `listeners` concurrently against `backend` until a stop is
/// requested (`SIGINT`/`SIGTERM`), the backend halts, or a listener
/// fails unrecoverably. Per-connection failures never propagate.
pub fn run_connections(backend: &mut Backend, listeners: Vec<AnyListener>) -> Result<(), String> {
    let (tx, rx) = mpsc::sync_channel::<NetEvent>(EVENT_QUEUE);
    let shutdown = Arc::new(AtomicBool::new(false));
    let ids = Arc::new(AtomicU64::new(1));
    let retries = Arc::new(AtomicU64::new(0));
    let caps = ConnCaps {
        max_frame: backend.max_frame_bytes(),
        writer_queue: backend.writer_queue(),
    };
    let mut accept_threads = Vec::new();
    for listener in listeners {
        let tx = tx.clone();
        let shutdown = Arc::clone(&shutdown);
        let ids = Arc::clone(&ids);
        let retries = Arc::clone(&retries);
        accept_threads.push(std::thread::spawn(move || {
            accept_loop(listener, caps, tx, shutdown, ids, retries)
        }));
    }

    // The waker holds a sender, so it must be uninstalled on every exit
    // from the loop, error returns included.
    let wake_tx = tx.clone();
    backend.set_waker(Some(Box::new(move || {
        let _ = wake_tx.try_send(NetEvent::Wake);
    })));
    drop(tx);

    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    let mut out: Vec<(u64, String)> = Vec::new();
    let dispatched = dispatch_loop(backend, &rx, caps, &mut conns, &mut out);
    backend.set_waker(None);
    let fatal = dispatched?;

    // Drain: deliver every completed reply we still can, then close the
    // writers (clients see EOF) and stop the accept loops.
    shutdown.store(true, Ordering::Relaxed);
    backend.settle(&mut out)?;
    route_replies(backend, &mut out, &mut conns);
    drop(conns);
    for t in accept_threads {
        let _ = t.join();
    }
    backend.summary_mut().accept_retries += retries.load(Ordering::Relaxed);
    match fatal {
        Some(what) => Err(what),
        None => Ok(()),
    }
}

/// The dispatcher: handles each event, then pumps the backend and routes
/// whatever completed. Returns `Ok(Some(what))` when a listener failed
/// unrecoverably, `Ok(None)` on a stop request, a halt or disconnection.
fn dispatch_loop(
    backend: &mut Backend,
    rx: &mpsc::Receiver<NetEvent>,
    caps: ConnCaps,
    conns: &mut HashMap<u64, ConnState>,
    out: &mut Vec<(u64, String)>,
) -> Result<Option<String>, String> {
    let throttle = backend.throttle_ms();
    loop {
        if stop_requested() || backend.halted() {
            return Ok(None);
        }
        match rx.recv_timeout(HEARTBEAT) {
            Ok(NetEvent::Accepted {
                conn,
                outbox,
                kill,
                depth,
            }) => {
                conns.insert(
                    conn,
                    ConnState {
                        outbox,
                        kill,
                        depth,
                    },
                );
                backend.summary_mut().connections += 1;
            }
            Ok(NetEvent::Line { conn, offset, line }) => {
                if throttle > 0 {
                    std::thread::sleep(Duration::from_millis(throttle));
                }
                backend.submit(conn, offset, &line, out)?;
            }
            Ok(NetEvent::Oversize { conn }) => {
                if let Some(state) = conns.remove(&conn) {
                    // One diagnostic reply, then the writer drains and
                    // exits as its channel closes. Only this connection
                    // is affected. The gauge increment keeps the writer's
                    // per-recv decrement balanced.
                    state.depth.fetch_add(1, Ordering::Relaxed);
                    if state
                        .outbox
                        .try_send(super::wire::line_too_long(caps.max_frame))
                        .is_err()
                    {
                        state.depth.fetch_sub(1, Ordering::Relaxed);
                    }
                    backend.forget_conn(conn);
                    backend.summary_mut().oversize_disconnects += 1;
                }
            }
            Ok(NetEvent::Closed { conn, errored }) => {
                if conns.remove(&conn).is_some() {
                    backend.forget_conn(conn);
                    if errored {
                        backend.summary_mut().disconnects += 1;
                    }
                }
            }
            Ok(NetEvent::AcceptFatal { what }) => return Ok(Some(what)),
            Ok(NetEvent::Wake) | Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(None),
        }
        backend.pump(out)?;
        route_replies(backend, out, conns);
    }
}

/// A live connection's dispatcher-side handles: the bounded reply queue,
/// a kill handle for tearing down stalled clients, and the queue-depth
/// gauge shared with the writer thread.
struct ConnState {
    outbox: SyncSender<String>,
    kill: AnyStream,
    depth: Arc<AtomicUsize>,
}

fn route_replies(
    backend: &mut Backend,
    out: &mut Vec<(u64, String)>,
    conns: &mut HashMap<u64, ConnState>,
) {
    for (conn, reply) in out.drain(..) {
        let Some(state) = conns.get(&conn) else {
            continue;
        };
        // Increment BEFORE sending: the writer thread decrements as it
        // receives, so an increment after a successful `try_send` could
        // lose the race and watch the gauge underflow.
        let depth = state
            .depth
            .fetch_add(1, Ordering::Relaxed)
            .saturating_add(1);
        match state.outbox.try_send(reply) {
            Ok(()) => {
                let summary = backend.summary_mut();
                summary.peak_writer_queue = summary.peak_writer_queue.max(depth);
            }
            Err(mpsc::TrySendError::Full(_)) => {
                state.depth.fetch_sub(1, Ordering::Relaxed);
                // The client stopped draining replies. Never block the
                // dispatcher on one stalled reader: shut the socket down
                // (waking a writer blocked mid-`write`) and drop the
                // connection.
                let state = conns.remove(&conn).expect("connection state present");
                let _ = state.kill.shutdown();
                backend.forget_conn(conn);
                backend.summary_mut().slow_disconnects += 1;
            }
            Err(mpsc::TrySendError::Disconnected(_)) => {
                // Writer already died; the Closed event does the
                // bookkeeping.
                state.depth.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::LineFramer;

    #[test]
    fn framer_splits_lines_and_tracks_offsets() {
        let mut f = LineFramer::new(64);
        let (lines, oversize) = f.push(b"open a eager\njob a 0,5,2\npartial");
        assert!(!oversize);
        assert_eq!(
            lines,
            vec![
                (0, "open a eager\n".to_string()),
                (13, "job a 0,5,2\n".to_string()),
            ]
        );
        assert!(f.partial());
        let (lines, oversize) = f.push(b" tail\n");
        assert!(!oversize);
        assert_eq!(lines, vec![(25, "partial tail\n".to_string())]);
        assert!(!f.partial());
    }

    #[test]
    fn framer_caps_unterminated_floods() {
        // A newline-less flood trips the cap as soon as the residual
        // exceeds it — the accumulator cannot grow without bound.
        let mut f = LineFramer::new(8);
        let (lines, oversize) = f.push(b"12345678");
        assert!(lines.is_empty() && !oversize, "exactly at cap is fine");
        let (lines, oversize) = f.push(b"9");
        assert!(lines.is_empty() && oversize);
    }

    #[test]
    fn framer_rejects_oversize_completed_lines_but_keeps_the_prefix() {
        let mut f = LineFramer::new(8);
        let (lines, oversize) = f.push(b"ok\n0123456789ABCDEF\nok2\n");
        assert!(oversize, "completed line above the cap trips");
        assert_eq!(lines, vec![(0, "ok\n".to_string())], "prefix still served");
    }

    #[test]
    fn framer_boundary_line_passes() {
        // Content of exactly max_frame bytes (newline excluded) passes.
        let mut f = LineFramer::new(8);
        let (lines, oversize) = f.push(b"12345678\n");
        assert!(!oversize);
        assert_eq!(lines.len(), 1);
    }
}
