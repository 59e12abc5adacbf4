//! The `poll(2)` frontend of `fjs serve`: concurrent connections over
//! unix sockets and TCP, or the line source (stdin or `--input`), all
//! speaking the same line protocol.
//!
//! Topology: one `poll(2)` loop on the calling thread serves every
//! listener and connection, or the line source; the daemon runs no
//! thread per listener, connection or input. Listeners and connections
//! are nonblocking and share the poll set with one end of a socketpair,
//! to which completed threaded work writes a byte (the pool coalesces
//! those wakes), so a completion wakes the loop just as a request does.
//! A readable connection is read once and its complete lines go to the
//! [`Server`], each marked as backlog when another framed line of the
//! same read or another readable input of the same wakeup comes after it
//! (so the pool queues it for a worker thread instead of applying it on
//! this one); after every wakeup the loop pumps the server, appends each
//! reply to its connection's output buffer and flushes each buffer with
//! one nonblocking `write`. For 40 µs after a wakeup that found work
//! the loop polls without blocking, so a closed-loop client's next
//! request or a worker's wake byte usually finds it awake; past that
//! window, and always on one CPU, it blocks. The only timer is a 100 ms
//! heartbeat for the stop flag, and a signal interrupts `poll`, so a stop
//! is seen at once.
//! Each connection has its own byte-offset space; the protocol line
//! counter is global, so journal resume cursors only apply to the line
//! source.
//!
//! The line source is connection 0 and keeps the rules of a file rather
//! than a socket: it is not counted in `connections`, has no frame cap,
//! serves a final line that lacks its newline, and writes its replies to
//! stdout with blocking writes. Its submission stops at the line where a
//! stop request or a halt lands, and the loop ends with its input.
//!
//! Failure containment:
//!
//! * a connection's read/write error (`ECONNRESET`, `EPIPE`, a client
//!   killed mid-line) drops **that connection only** — counted in
//!   [`ServeSummary::disconnects`](super::ServeSummary) — and the daemon
//!   keeps serving everyone else;
//! * a frame longer than `--max-frame-bytes` (a newline-less flood
//!   included: the framer never holds more) gets one `err line-too-long`
//!   reply and only that connection is dropped (`oversize_disconnects`);
//! * a client that stops reading its replies is closed (counted in
//!   `slow_disconnects`) when more than `--writer-queue` of them would
//!   wait for the kernel to accept them, so it can neither wedge the loop
//!   nor grow its buffer without bound;
//! * after EOF or an oversize frame the loop stops reading a connection,
//!   flushes the replies already routed to it, then drops it;
//! * transient `accept()` failures (`EINTR`, `ECONNABORTED`,
//!   `ECONNRESET`, `EMFILE`/`ENFILE`) are counted and take only that
//!   listener out of the poll set for a short backoff, never the loop;
//! * binding a unix socket first **probes** an existing path with a
//!   connect attempt: if another daemon answers, binding fails with
//!   [`SocketClaimError::Live`] (the CLI exits 2) instead of silently
//!   clobbering the live daemon's socket; only stale files are removed.

use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use super::Server;
use crate::soak::stop_requested;

/// How often an idle loop wakes to check for a stop signal.
const HEARTBEAT: Duration = Duration::from_millis(100);

/// How long the loop keeps polling without blocking after a wakeup that
/// found work: long enough to cover a closed-loop client's turn (read the
/// reply, send the next request) and a worker's reply, short enough that
/// the spin does not starve the threads it waits for. On a 2-core host
/// 40 µs measured best at `--workers 2` (20 µs and 200 µs were slower),
/// and longer windows gained little at `--workers 1`.
const BUSY_POLL: Duration = Duration::from_micros(40);

/// How long a listener sits out of the poll set after a transient
/// `accept()` failure.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Bytes read from a connection or the line source per readiness.
const READ_CHUNK: usize = 4096;

/// The line source's connection id; sockets count from 1.
const SOURCE: u64 = 0;

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
    /// the loop exits.
    Unix(UnixListener, PathBuf),
}

impl AnyListener {
    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            AnyListener::Tcp(l) => l.set_nonblocking(true),
            AnyListener::Unix(l, _) => l.set_nonblocking(true),
        }
    }

    fn fd(&self) -> i32 {
        match self {
            AnyListener::Tcp(l) => l.as_raw_fd(),
            AnyListener::Unix(l, _) => l.as_raw_fd(),
        }
    }

    fn accept(&self) -> io::Result<Box<dyn Stream>> {
        Ok(match self {
            AnyListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                // Replies are single lines a client is actively waiting
                // for; leaving Nagle on would serialize closed-loop
                // clients on delayed ACKs.
                let _ = s.set_nodelay(true);
                Box::new(s)
            }
            AnyListener::Unix(l, _) => Box::new(l.accept()?.0),
        })
    }

    fn describe(&self) -> String {
        match self {
            AnyListener::Tcp(l) => l
                .local_addr()
                .map(|a| format!("tcp {a}"))
                .unwrap_or_else(|_| "tcp".into()),
            AnyListener::Unix(_, p) => format!("unix {}", p.display()),
        }
    }

    fn cleanup(&self) {
        if let AnyListener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A connected stream of either family.
trait Stream: Read + Write + AsRawFd {
    fn make_nonblocking(&self) -> io::Result<()>;
}

impl Stream for TcpStream {
    fn make_nonblocking(&self) -> io::Result<()> {
        self.set_nonblocking(true)
    }
}

impl Stream for UnixStream {
    fn make_nonblocking(&self) -> io::Result<()> {
        self.set_nonblocking(true)
    }
}

/// Claims a unix socket path: probes an existing file with a connect
/// attempt, refuses if a daemon answers, removes only stale leftovers,
/// then binds.
pub fn bind_unix(path: &std::path::Path) -> Result<AnyListener, SocketClaimError> {
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
            lines.push((offset, decode(line_bytes)));
        }
        let oversize = self.acc.len() > self.max_frame;
        (lines, oversize)
    }

    /// True when an unterminated partial line is buffered.
    pub(crate) fn partial(&self) -> bool {
        !self.acc.is_empty()
    }

    /// Takes the buffered unterminated line, if any, as a final frame.
    pub(crate) fn finish(&mut self) -> Option<(u64, String)> {
        if self.acc.is_empty() {
            return None;
        }
        let offset = self.consumed;
        self.consumed += self.acc.len() as u64;
        Some((offset, decode(std::mem::take(&mut self.acc))))
    }
}

/// A frame's text: its own buffer when it is valid UTF-8, a lossy copy
/// (invalid bytes as U+FFFD) otherwise.
fn decode(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// How long the next `poll(2)` may block: not at all within [`BUSY_POLL`]
/// of `last_ready`, the end of the last wakeup that found work, and
/// `blocking` otherwise. Before the first such wakeup, and always with
/// fewer than two `cores`, it is `blocking`: on one CPU a spin only
/// delays the threads it waits for.
fn poll_timeout(
    last_ready: Option<Instant>,
    now: Instant,
    blocking: Duration,
    cores: usize,
) -> Duration {
    match last_ready {
        Some(t) if cores >= 2 && now.saturating_duration_since(t) < BUSY_POLL => Duration::ZERO,
        _ => blocking,
    }
}

/// `poll(2)`, declared by hand (like `signal(2)` in `serve/mod.rs`) so
/// the workspace stays free of external crates.
mod sys {
    use std::io;
    use std::time::Duration;

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;
    pub const POLLERR: i16 = 0x8;
    pub const POLLHUP: i16 = 0x10;

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[cfg(target_os = "linux")]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }

    /// Waits up to `timeout` (rounded up to whole milliseconds) for
    /// readiness on `fds` and returns how many are ready. An interrupted
    /// wait (`EINTR`) reports nothing ready, so the caller sees a signal's
    /// stop request at once.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        let ms = timeout.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32;
        // SAFETY: `fds` is an exclusively borrowed array of `repr(C)`
        // `pollfd` records, and its length is the count passed.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
        if ready >= 0 {
            return Ok(ready as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() == io::ErrorKind::Interrupted {
            Ok(0)
        } else {
            Err(e)
        }
    }
}

/// One connection as the loop sees it.
struct Conn {
    stream: Box<dyn Stream>,
    framer: LineFramer,
    /// False once EOF or an oversize frame was read: the loop flushes
    /// what is queued, then drops the connection.
    reading: bool,
    /// Reply bytes the kernel has not accepted yet.
    unsent: Vec<u8>,
    /// Bytes the kernel has accepted since the connection opened.
    written: u64,
    /// Where each reply still in `unsent` ends, on the `written` scale;
    /// its length is the writer-queue depth.
    ends: VecDeque<u64>,
    /// The last write left bytes behind: wait for `POLLOUT`.
    blocked: bool,
}

impl Conn {
    fn new(stream: Box<dyn Stream>, max_frame: usize) -> Conn {
        Conn {
            stream,
            framer: LineFramer::new(max_frame),
            reading: true,
            unsent: Vec::new(),
            written: 0,
            ends: VecDeque::new(),
            blocked: false,
        }
    }

    fn queue(&mut self, reply: &str) {
        self.unsent.extend_from_slice(reply.as_bytes());
        self.unsent.push(b'\n');
        self.ends.push_back(self.written + self.unsent.len() as u64);
    }

    /// Offers everything queued to the kernel in one nonblocking `write`.
    fn flush(&mut self) -> io::Result<()> {
        if !self.unsent.is_empty() {
            match self.stream.write(&self.unsent) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.unsent.drain(..n);
                    self.written += n as u64;
                    while self.ends.front().is_some_and(|&end| end <= self.written) {
                        self.ends.pop_front();
                    }
                }
                Err(e) if is_retry(&e) => {}
                Err(e) => return Err(e),
            }
        }
        self.blocked = !self.unsent.is_empty();
        Ok(())
    }
}

/// Errors that mean "not now" on a nonblocking descriptor.
fn is_retry(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
    )
}

/// The line source: stdin or `--input`, as connection [`SOURCE`].
struct Source {
    input: File,
    framer: LineFramer,
    /// False once input ended or a stop request or halt ended submission.
    reading: bool,
    /// Reply bytes not yet written to stdout.
    unsent: Vec<u8>,
}

/// Bookkeeping for a connection dropped by an I/O error. One still being
/// read is forgotten by the server and counted; after EOF or an oversize
/// frame it already was, and a failed flush of its last replies is not a
/// second disconnect.
fn count_lost(server: &mut Server, id: u64, reading: bool) {
    if reading {
        server.forget_conn(id);
        server.summary_mut().disconnects += 1;
    }
}

/// What a poll-set entry stands for.
#[derive(Clone, Copy)]
enum Token {
    Waker,
    Source,
    Listener(usize),
    Conn(u64),
}

impl Token {
    /// Whether this entry's readiness means input to read: lines, or the
    /// EOF or error a read reports.
    fn has_input(self, revents: i16) -> bool {
        use sys::{POLLERR, POLLHUP, POLLIN};
        matches!(self, Token::Source | Token::Conn(_))
            && revents & (POLLIN | POLLHUP | POLLERR) != 0
    }
}

/// The loop's state: listeners, live connections, the line source and
/// replies not yet queued on their connection.
struct Reactor {
    /// Each listener, and when it rejoins the poll set after a transient
    /// `accept()` failure.
    listeners: Vec<(AnyListener, Option<Instant>)>,
    conns: BTreeMap<u64, Conn>,
    source: Option<Source>,
    next_conn: u64,
    max_frame: usize,
    writer_queue: usize,
    /// Completed `(conn, reply)` pairs from the server.
    out: Vec<(u64, String)>,
}

/// Serves all `listeners` concurrently against `server` until a stop is
/// requested (`SIGINT`/`SIGTERM`), the server halts, or a listener
/// fails unrecoverably. Per-connection failures never propagate.
pub fn run_connections(server: &mut Server, listeners: Vec<AnyListener>) -> Result<(), String> {
    let mut reactor = Reactor::new(server, listeners, None);
    let result = reactor.run(server);
    for (listener, _) in &reactor.listeners {
        listener.cleanup();
    }
    result
}

/// Serves the lines of `input` (a file, or a duplicate of stdin's
/// descriptor), replying on stdout, until the input ends, a stop is
/// requested or the server halts.
pub fn run_lines(server: &mut Server, input: File) -> Result<(), String> {
    let source = Source {
        input,
        framer: LineFramer::new(usize::MAX),
        reading: true,
        unsent: Vec::new(),
    };
    Reactor::new(server, Vec::new(), Some(source)).run(server)
}

impl Reactor {
    fn new(server: &Server, listeners: Vec<AnyListener>, source: Option<Source>) -> Reactor {
        Reactor {
            listeners: listeners.into_iter().map(|l| (l, None)).collect(),
            conns: BTreeMap::new(),
            source,
            next_conn: SOURCE + 1,
            max_frame: server.opts().max_frame_bytes,
            writer_queue: server.opts().writer_queue.max(1),
            out: Vec::new(),
        }
    }

    fn run(&mut self, server: &mut Server) -> Result<(), String> {
        for (listener, _) in &self.listeners {
            listener
                .set_nonblocking()
                .map_err(|e| format!("{}: {e}", listener.describe()))?;
        }
        let (wake_rx, wake_tx) = UnixStream::pair()
            .and_then(|(rx, tx)| {
                rx.set_nonblocking(true)?;
                tx.set_nonblocking(true)?;
                Ok((rx, tx))
            })
            .map_err(|e| format!("serve: waker socketpair: {e}"))?;
        // A full socketpair already wakes the loop, so a failed write is
        // no lost wakeup.
        server.set_waker(Some(Box::new(move || {
            let _ = (&wake_tx).write(&[1]);
        })));
        let served = self.serve(server, &wake_rx);
        server.set_waker(None);
        let fatal = served?;

        // Drain: deliver every completed reply the kernel takes now; the
        // connections close (clients see EOF) when the reactor drops.
        server.settle(&mut self.out);
        self.route(server);
        self.flush_all(server);
        self.flush_source()?;
        fatal.map_or(Ok(()), Err)
    }

    /// The loop proper. Returns `Ok(Some(what))` when a listener failed
    /// unrecoverably, `Ok(None)` on a stop request, a halt or the end of
    /// the line source.
    fn serve(&mut self, server: &mut Server, waker: &UnixStream) -> Result<Option<String>, String> {
        use sys::{PollFd, POLLIN, POLLOUT};

        let throttle = server.opts().throttle_ms;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut last_ready = None;
        let mut fds: Vec<PollFd> = Vec::new();
        let mut tokens: Vec<Token> = Vec::new();
        loop {
            let source_done = self.source.as_ref().is_some_and(|s| !s.reading);
            if stop_requested() || server.halted() || source_done {
                return Ok(None);
            }
            fds.clear();
            tokens.clear();
            let mut watch = |fd, events, token| {
                fds.push(PollFd {
                    fd,
                    events,
                    revents: 0,
                });
                tokens.push(token);
            };
            watch(waker.as_raw_fd(), POLLIN, Token::Waker);
            if let Some(source) = &self.source {
                watch(source.input.as_raw_fd(), POLLIN, Token::Source);
            }
            let now = Instant::now();
            let mut blocking = HEARTBEAT;
            for (i, (listener, parked)) in self.listeners.iter_mut().enumerate() {
                match *parked {
                    Some(until) if until > now => blocking = blocking.min(until - now),
                    _ => {
                        *parked = None;
                        watch(listener.fd(), POLLIN, Token::Listener(i));
                    }
                }
            }
            for (&id, conn) in &self.conns {
                let read = if conn.reading { POLLIN } else { 0 };
                let write = if conn.blocked { POLLOUT } else { 0 };
                watch(conn.stream.as_raw_fd(), read | write, Token::Conn(id));
            }
            let timeout = poll_timeout(last_ready, now, blocking, cores);
            let ready = sys::wait(&mut fds, timeout).map_err(|e| format!("serve: poll: {e}"))?;
            // Readable inputs of this wakeup not yet read: while any is
            // left, every line read is backlog.
            let mut inputs = fds
                .iter()
                .zip(&tokens)
                .filter(|(fd, &token)| token.has_input(fd.revents))
                .count();
            for (fd, &token) in fds.iter().zip(&tokens) {
                if fd.revents == 0 {
                    continue;
                }
                if token.has_input(fd.revents) {
                    inputs -= 1;
                }
                let backlog = inputs > 0;
                match token {
                    Token::Waker => {
                        // One read: a byte left behind keeps the pair
                        // readable, so the next poll returns at once.
                        let _ = (&*waker).read(&mut [0u8; 64]);
                    }
                    Token::Source => self.read_source(server, throttle, backlog)?,
                    Token::Listener(i) => {
                        if let Some(what) = self.accept(i, server) {
                            return Ok(Some(what));
                        }
                    }
                    Token::Conn(id) => self.ready(id, fd.revents, server, throttle, backlog)?,
                }
            }
            server.pump(&mut self.out);
            self.route(server);
            self.flush_all(server);
            self.flush_source()?;
            if ready > 0 {
                last_ready = Some(Instant::now());
            }
        }
    }

    /// Reads once from the line source and submits its lines, stopping
    /// at the line where a stop request or a halt lands. At the end of
    /// input a final line without its newline is served too. Every line
    /// but the last of the read is backlog, and so is the last one when
    /// `backlog` says another input is ready.
    fn read_source(
        &mut self,
        server: &mut Server,
        throttle: u64,
        backlog: bool,
    ) -> Result<(), String> {
        let Some(source) = self.source.as_mut() else {
            return Ok(());
        };
        let mut chunk = [0u8; READ_CHUNK];
        let n = match source.input.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if is_retry(&e) => return Ok(()),
            Err(e) => return Err(format!("reading input: {e}")),
        };
        let (mut lines, _) = source.framer.push(&chunk[..n]);
        if n == 0 {
            source.reading = false;
            lines.extend(source.framer.finish());
        }
        let last = lines.len();
        for (i, (offset, line)) in lines.into_iter().enumerate() {
            if stop_requested() || server.halted() {
                source.reading = false;
                break;
            }
            if throttle > 0 {
                std::thread::sleep(Duration::from_millis(throttle));
            }
            let more = backlog || i + 1 < last;
            server.submit(SOURCE, offset, &line, more, &mut self.out)?;
        }
        Ok(())
    }

    /// Writes the line source's queued replies to stdout, blocking.
    fn flush_source(&mut self) -> Result<(), String> {
        let Some(source) = self.source.as_mut() else {
            return Ok(());
        };
        if source.unsent.is_empty() {
            return Ok(());
        }
        let mut stdout = io::stdout().lock();
        stdout
            .write_all(&source.unsent)
            .and_then(|()| stdout.flush())
            .map_err(|e| format!("writing reply: {e}"))?;
        source.unsent.clear();
        Ok(())
    }

    /// Accepts every connection queued on listener `i`. Returns what
    /// failed when the listener cannot go on.
    fn accept(&mut self, i: usize, server: &mut Server) -> Option<String> {
        let (listener, parked) = &mut self.listeners[i];
        loop {
            match listener.accept() {
                Ok(stream) => {
                    // A connection that cannot be made nonblocking is
                    // dropped alone.
                    if stream.make_nonblocking().is_ok() {
                        let conn = Conn::new(stream, self.max_frame);
                        self.conns.insert(self.next_conn, conn);
                        server.summary_mut().connections += 1;
                    }
                    self.next_conn += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return None,
                Err(e) if transient_accept(&e) => {
                    server.summary_mut().accept_retries += 1;
                    *parked = Some(Instant::now() + ACCEPT_BACKOFF);
                    return None;
                }
                Err(e) => return Some(format!("accept on {}: {e}", listener.describe())),
            }
        }
    }

    /// Handles one connection's readiness: a flush on `POLLOUT`, one read
    /// on `POLLIN`. A hang-up on a connection no longer read drops it
    /// (nobody is left to take its replies); on one still read, the read
    /// reports the EOF or the error. `backlog` is passed to the read.
    fn ready(
        &mut self,
        id: u64,
        revents: i16,
        server: &mut Server,
        throttle: u64,
        backlog: bool,
    ) -> Result<(), String> {
        use sys::{POLLERR, POLLHUP, POLLIN, POLLOUT};

        let Some(conn) = self.conns.get_mut(&id) else {
            return Ok(());
        };
        let hangup = revents & (POLLHUP | POLLERR) != 0;
        let reading = conn.reading;
        if !reading && hangup {
            self.conns.remove(&id);
        } else if revents & POLLOUT != 0 && conn.flush().is_err() {
            self.conns.remove(&id);
            count_lost(server, id, reading);
        } else if reading && (revents & POLLIN != 0 || hangup) {
            self.read(id, server, throttle, backlog)?;
        }
        Ok(())
    }

    /// Reads once from a connection and submits its complete lines; every
    /// line but the last is backlog, and the last one too when `backlog`
    /// says another input is ready.
    fn read(
        &mut self,
        id: u64,
        server: &mut Server,
        throttle: u64,
        backlog: bool,
    ) -> Result<(), String> {
        let Some(conn) = self.conns.get_mut(&id) else {
            return Ok(());
        };
        let mut chunk = [0u8; READ_CHUNK];
        let n = match conn.stream.read(&mut chunk) {
            // EOF at a line boundary is a clean close; EOF with a partial
            // request buffered means the client died mid-line — data was
            // lost, so it counts as a dropped connection. The partial line
            // is never dispatched: the protocol is strictly line-framed.
            Ok(0) => {
                conn.reading = false;
                server.forget_conn(id);
                if conn.framer.partial() {
                    server.summary_mut().disconnects += 1;
                }
                return Ok(());
            }
            Ok(n) => n,
            Err(e) if is_retry(&e) => return Ok(()),
            Err(_) => {
                self.conns.remove(&id);
                count_lost(server, id, true);
                return Ok(());
            }
        };
        let (lines, oversize) = conn.framer.push(&chunk[..n]);
        let last = lines.len();
        for (i, (offset, line)) in lines.into_iter().enumerate() {
            if throttle > 0 {
                std::thread::sleep(Duration::from_millis(throttle));
            }
            let more = backlog || i + 1 < last;
            server.submit(id, offset, &line, more, &mut self.out)?;
        }
        if oversize {
            // One diagnostic reply, after those of the frames before the
            // violation, then the connection closes. Only this connection
            // is affected.
            conn.reading = false;
            self.out
                .push((id, super::wire::line_too_long(self.max_frame)));
            server.forget_conn(id);
            server.summary_mut().oversize_disconnects += 1;
        }
        Ok(())
    }

    /// Queues completed replies on their connections (the line source's
    /// on its stdout buffer, uncapped). A connection that
    /// already holds `writer_queue` replies the kernel has not accepted
    /// gets one more write; if that does not make room, the client has
    /// stopped reading and the connection is closed.
    fn route(&mut self, server: &mut Server) {
        for (id, reply) in self.out.drain(..) {
            if let (SOURCE, Some(source)) = (id, self.source.as_mut()) {
                source.unsent.extend_from_slice(reply.as_bytes());
                source.unsent.push(b'\n');
                continue;
            }
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            if conn.ends.len() >= self.writer_queue {
                let flushed = conn.flush();
                if flushed.is_err() || conn.ends.len() >= self.writer_queue {
                    let reading = conn.reading;
                    self.conns.remove(&id);
                    if flushed.is_err() {
                        count_lost(server, id, reading);
                    } else if reading {
                        server.forget_conn(id);
                        server.summary_mut().slow_disconnects += 1;
                    }
                    continue;
                }
            }
            conn.queue(&reply);
            let summary = server.summary_mut();
            summary.peak_writer_queue = summary.peak_writer_queue.max(conn.ends.len());
        }
    }

    /// Gives every connection with new, unblocked output one write, and
    /// drops closing connections once their output is gone.
    fn flush_all(&mut self, server: &mut Server) {
        self.conns.retain(|&id, conn| {
            if !conn.blocked && conn.flush().is_err() {
                count_lost(server, id, conn.reading);
                return false;
            }
            conn.reading || !conn.unsent.is_empty()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::{poll_timeout, LineFramer, ACCEPT_BACKOFF, BUSY_POLL, HEARTBEAT};
    use std::time::{Duration, Instant};

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

    #[test]
    fn framer_decodes_invalid_utf8_lossily_and_counts_raw_bytes() {
        let mut f = LineFramer::new(64);
        let (lines, oversize) = f.push(b"a\xffb\nnext\n");
        assert!(!oversize);
        assert_eq!(
            lines,
            vec![(0, "a\u{fffd}b\n".to_string()), (4, "next\n".to_string())],
            "U+FFFD is 3 bytes of text but the raw frame was 4 bytes"
        );
        f.push(b"\xfe");
        assert_eq!(f.finish(), Some((9, "\u{fffd}".to_string())));
    }

    #[test]
    fn poll_blocks_only_outside_the_busy_window() {
        let t = Instant::now();
        for within in [Duration::ZERO, Duration::from_micros(1), BUSY_POLL / 2] {
            assert_eq!(
                poll_timeout(Some(t), t + within, HEARTBEAT, 2),
                Duration::ZERO
            );
        }
        for past in [BUSY_POLL, BUSY_POLL * 2, HEARTBEAT] {
            assert_eq!(poll_timeout(Some(t), t + past, HEARTBEAT, 2), HEARTBEAT);
        }
    }

    #[test]
    fn poll_blocks_before_the_first_ready_wakeup() {
        let now = Instant::now();
        for cores in [1, 2, 64] {
            assert_eq!(poll_timeout(None, now, HEARTBEAT, cores), HEARTBEAT);
        }
    }

    #[test]
    fn poll_never_spins_on_one_cpu() {
        let t = Instant::now();
        for cores in [0, 1] {
            assert_eq!(poll_timeout(Some(t), t, HEARTBEAT, cores), HEARTBEAT);
        }
    }

    #[test]
    fn poll_never_outwaits_a_parked_listener() {
        let t = Instant::now();
        let left = ACCEPT_BACKOFF / 3;
        for since in [Duration::ZERO, BUSY_POLL, ACCEPT_BACKOFF] {
            for last in [None, Some(t)] {
                assert!(poll_timeout(last, t + since, left, 2) <= left);
            }
        }
    }
}
