//! The serve dispatcher: [`Server`], the one server behind `fjs serve`
//! at every `--workers` count.
//!
//! It keeps the protocol-facing state machine (line numbering, resume
//! cursor, quarantine, admission control) on the dispatching thread —
//! where requests are still seen in input order — and ships session work
//! to a [`SessionPool`] sharded by stable tenant hash. Worker 0 has no
//! thread, so a request on shard 0 is applied inside [`Server::submit`];
//! shards `1..N` have worker threads. The pool is work-conserving: a
//! request whose worker has nothing outstanding is applied on this thread
//! too, unless the frontend says more input is waiting (the `backlog`
//! hint of [`Server::submit`]; journal replay and drain always pass it),
//! in which case it is queued so the threads work in parallel. Three
//! ordering domains make this deterministic without serializing the
//! actual scheduling work:
//!
//! 1. **Per-session order** — all requests of one session go to one
//!    worker, in FIFO order whichever thread applies them, so each
//!    session evolves exactly as it would under a single thread
//!    (simulation time advances with offers, never with wall clock).
//! 2. **Global sequence order** — every dispatched request gets a
//!    sequence number; completed results are parked until contiguous and
//!    then emitted, so decision-log and journal lines appear in input
//!    order: byte-identical at any worker count (the same index-ordered
//!    merge discipline as the sharded sweep executor).
//! 3. **Per-connection order** — replies are released as soon as all of
//!    the *same connection's* earlier requests have completed. When a
//!    worker thread applies it, one tenant's slow offer (a hung scheduler
//!    burning its watchdog budget) delays only its own connection's
//!    replies; siblings keep flowing even while the global log emission
//!    waits for the straggler. When this thread applies it (always on
//!    shard 0, and on an idle shard with no input waiting) it stalls
//!    every connection for that bounded time, as at `--workers 1`.
//!
//! Admission control that needs the *global* open-session set
//! (`--max-sessions`, duplicate opens, unknown sids) runs on the
//! dispatcher against a session→worker directory maintained
//! synchronously in input order; spec validation also happens here (via
//! the same constructor the workers use) so directory membership never
//! depends on an asynchronous worker outcome. Per-session checks
//! (`--max-pending`, terminal verdicts) run on the owning worker, which
//! sees the session's exact state after all prior requests. The dispatch
//! window (requests in flight across all workers) is capped at
//! `--max-pending` globally; hitting it blocks the frontend instead of
//! shedding, because shedding on a timing-dependent condition would
//! break determinism.
//!
//! A state-changing request (`open`, `job`, `close`) is held in flight as
//! its journal record, a [`ServeEvent`] built once from the parsed request.
//! The pool request is made from the record ([`ServeEvent::pool_request`]),
//! and the record moves into the journal once the worker has applied it.
//! [`Server::resume`] hands journaled records to the same submit path after
//! only the directory bookkeeping: replay does not re-decide admission.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use fjs_core::service::{
    stable_shard, tenant_of, OpenDecision, PoolReply, PoolRequest, ServeEvent, ServeJournal,
    SessionPool, TenantBreakers, Waker,
};
use fjs_workloads::{DeadLetter, Quarantine};

use super::protocol::{parse_request, Request};
use super::{build_session, wire, ServeOptions, ServeSummary, Sink};

/// How long one blocking wait on the results channel lasts before the
/// pool is re-checked (requests always finish — watchdogs bound even
/// hung schedulers — so this only shapes shutdown latency).
const PUMP_TICK: Duration = Duration::from_millis(100);

/// What the dispatcher keeps while a request is in flight: the journal
/// record of a state-changing request (`open`, `job`, `close`), or the
/// sid a `stats` probe reads.
enum Held {
    Record(ServeEvent),
    Probe(String),
}

impl Held {
    fn sid(&self) -> &str {
        match self {
            Held::Record(ev) => ev.session(),
            Held::Probe(sid) => sid,
        }
    }

    /// The protocol verb, as replies name it.
    fn verb(&self) -> &'static str {
        match self {
            Held::Record(ServeEvent::Open { .. }) => "open",
            Held::Record(ServeEvent::Job { .. }) => "job",
            Held::Record(ServeEvent::Close { .. }) => "close",
            Held::Probe(_) => "stats",
        }
    }

    /// The input line of a record; a probe's reply names none.
    fn line(&self) -> u64 {
        match self {
            Held::Record(ev) => ev.line(),
            Held::Probe(_) => 0,
        }
    }
}

struct Inflight {
    held: Held,
    /// Byte offset of the request in its connection's stream.
    offset: u64,
    /// `(conn, conn_seq)` to route the reply, `None` for replay/drain.
    reply_to: Option<(u64, u64)>,
    /// A journal record being replayed: it is in the journal already.
    replay: bool,
}

/// A journal-equivalent breaker transition, carried inside a [`Block`] so
/// it is applied in **global sequence order** by [`Server::flush_blocks`].
/// Applying it at render time instead would capture the cooldown clock in
/// worker-completion order, which varies run to run — this is what keeps
/// breaker state byte-identical across `--workers N`.
enum BreakerNote {
    /// An admitted open or an admitted/poisoned job offer (clock tick).
    Event,
    /// A close verdict.
    Close { sid: String, completed: bool },
}

/// A completed request, parked until the global sequence reaches it.
#[derive(Default)]
struct Block {
    log_lines: Vec<String>,
    journal: Option<ServeEvent>,
    breaker: Option<BreakerNote>,
}

/// One connection's reply order: replies release in the order its
/// requests arrived.
#[derive(Default)]
struct ConnOrder {
    /// Reply slot the next request gets.
    next: u64,
    /// Reply slot released next.
    emit: u64,
    /// Completed replies waiting for an earlier one.
    parked: BTreeMap<u64, String>,
}

/// One slot of the sequence window.
enum Slot {
    /// Submitted to the pool; the worker's reply has not been rendered.
    Waiting(Inflight),
    /// Rendered, waiting for every earlier slot to be emitted.
    Done(Block),
}

/// The resident daemon core: see the module docs for the ordering
/// contract. Frontends ([`super::net`], [`super::run_script`]) feed it
/// one line at a time.
pub struct Server {
    opts: ServeOptions,
    pool: SessionPool,
    /// sid → owning worker, maintained synchronously in input order.
    directory: BTreeMap<String, usize>,
    journal: Option<ServeJournal>,
    log: Sink,
    summary: ServeSummary,
    line_no: u64,
    cursor: u64,
    /// Sequence number of `window[0]`, the next request to emit; the
    /// next one to assign is `next_emit + window.len()`.
    next_emit: u64,
    window: VecDeque<Slot>,
    /// Per-connection reply order, by connection id.
    conns: BTreeMap<u64, ConnOrder>,
    /// Replies released in their connection's order, not yet handed to
    /// the frontend.
    released: Vec<(u64, String)>,
    breakers: TenantBreakers,
}

impl Server {
    /// Builds the dispatcher and its pool of `opts.workers` session
    /// workers (worker 0 without a thread), writing decisions to
    /// `log` and journaling admitted requests to `journal` (if any).
    pub fn new(opts: ServeOptions, log: Sink, journal: Option<ServeJournal>) -> Server {
        let watchdog = opts.watchdog_events;
        let factory = Arc::new(move |spec: &str| build_session(spec, watchdog));
        let pool = SessionPool::new(opts.workers, opts.max_pending, opts.tenant_quotas, factory);
        let breakers = TenantBreakers::new(opts.breaker);
        Server {
            opts,
            pool,
            directory: BTreeMap::new(),
            journal,
            log,
            summary: ServeSummary::default(),
            line_no: 0,
            cursor: 0,
            next_emit: 0,
            window: VecDeque::new(),
            conns: BTreeMap::new(),
            released: Vec::new(),
            breakers,
        }
    }

    /// The dispatcher's options (frontends read the net-layer caps).
    pub(crate) fn opts(&self) -> &ServeOptions {
        &self.opts
    }

    /// `true` once the stream must stop (halt-policy quarantine or fatal
    /// I/O error); frontends check this after every line.
    pub fn halted(&self) -> bool {
        self.summary.halted.is_some()
    }

    /// The resume cursor: input lines `<= cursor` are skipped.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    pub(crate) fn summary_mut(&mut self) -> &mut ServeSummary {
        &mut self.summary
    }

    /// Installs or removes the pool's completion waker (see
    /// [`SessionPool::set_waker`]). A frontend that blocks on its own
    /// event source installs one so finished work wakes it, and calls
    /// [`Server::pump`] after every event it receives.
    pub fn set_waker(&mut self, waker: Option<Waker>) {
        self.pool.set_waker(waker);
    }

    fn halt(&mut self, why: String) {
        if self.summary.halted.is_none() {
            self.summary.halted = Some(why);
        }
    }

    fn log_line(&mut self, line: &str) {
        if let Err(e) = self.log.write_line(line) {
            self.halt(format!("decision log: {e}"));
            return;
        }
        self.summary.decision_lines += 1;
    }

    fn journal_append(&mut self, ev: &ServeEvent) {
        if let Some(j) = self.journal.as_mut() {
            if let Err(e) = j.append(ev) {
                self.halt(format!("journal: {e}"));
            }
        }
    }

    /// Releases a completed reply, and any it unblocks, once every
    /// earlier reply of its connection is out; parks it otherwise.
    fn park_reply(&mut self, conn: u64, conn_seq: u64, reply: String) {
        // A forgotten (disconnected) connection has no entry; its
        // undeliverable replies are dropped.
        let Some(order) = self.conns.get_mut(&conn) else {
            return;
        };
        if conn_seq != order.emit {
            order.parked.insert(conn_seq, reply);
            return;
        }
        self.released.push((conn, reply));
        order.emit += 1;
        while let Some(next) = order.parked.remove(&order.emit) {
            self.released.push((conn, next));
            order.emit += 1;
        }
    }

    /// Emits globally contiguous completed blocks: decision-log lines
    /// first, then the journal record, then the breaker note.
    fn flush_blocks(&mut self) {
        while matches!(self.window.front(), Some(Slot::Done(_))) {
            let Some(Slot::Done(block)) = self.window.pop_front() else {
                unreachable!("front was checked");
            };
            self.next_emit += 1;
            for line in &block.log_lines {
                self.log_line(line);
            }
            if let Some(ev) = &block.journal {
                self.journal_append(ev);
            }
            match block.breaker {
                Some(BreakerNote::Event) => self.breakers.note_event(),
                Some(BreakerNote::Close { ref sid, completed }) => {
                    self.breakers.note_close(sid, completed);
                    self.summary.breaker_trips = self.breakers.trips();
                }
                None => {}
            }
        }
    }

    /// Renders and emits until at most `keep` requests remain in the
    /// sequence window. Released replies wait for the next `pump`. With
    /// `keep == 0`, breaker state and the summary reflect all prior input
    /// in order, as at the same line of a one-worker run.
    fn settle_blocks(&mut self, keep: usize) {
        loop {
            self.flush_blocks();
            if self.window.len() <= keep {
                return;
            }
            // The front slot is waiting on the pool.
            if let Some((seq, reply)) = self.pool.recv_timeout(PUMP_TICK) {
                self.render(seq, reply);
            }
        }
    }

    /// Assigns `conn`'s next reply slot.
    fn conn_slot(&mut self, conn: u64) -> (u64, u64) {
        let order = self.conns.entry(conn).or_default();
        order.next += 1;
        (conn, order.next - 1)
    }

    /// An immediately-answerable request (admission shed, unknown sid,
    /// parse error): completes at its sequence slot without pool work.
    fn complete_immediate(&mut self, conn: u64, reply: String) {
        self.window.push_back(Slot::Done(Block::default()));
        let (conn, conn_seq) = self.conn_slot(conn);
        self.park_reply(conn, conn_seq, reply);
    }

    /// Drains ready worker results and releases ordered output into
    /// `out` as `(conn, reply)` pairs. The waker is re-armed *before* the
    /// drain, so a result landing after it fires a fresh wake.
    pub fn pump(&mut self, out: &mut Vec<(u64, String)>) {
        self.pool.rearm_waker();
        while let Some((seq, reply)) = self.pool.try_recv() {
            self.render(seq, reply);
        }
        self.flush_blocks();
        out.append(&mut self.released);
    }

    /// Blocks until every submitted request has completed, then releases
    /// all ordered output.
    pub fn settle(&mut self, out: &mut Vec<(u64, String)>) {
        self.settle_blocks(0);
        out.append(&mut self.released);
    }

    /// Drops a disconnected connection's reply state; replies already
    /// inflight for it will be discarded on arrival.
    pub fn forget_conn(&mut self, conn: u64) {
        self.conns.remove(&conn);
        self.released.retain(|&(c, _)| c != conn);
    }

    /// Renders a worker reply into its parked block + routed reply. A
    /// request the worker applied moves its record into the block for
    /// the journal, unless it is a replay (in the journal already).
    fn render(&mut self, seq: u64, reply: PoolReply) {
        let idx = (seq - self.next_emit) as usize;
        let Some(slot) = self.window.get_mut(idx) else {
            return;
        };
        let Slot::Waiting(meta) = std::mem::replace(slot, Slot::Done(Block::default())) else {
            return;
        };
        let sid = meta.held.sid();
        let mut block = Block::default();
        if let PoolReply::OfferAdmitted { decisions, .. }
        | PoolReply::OfferPoisoned { decisions, .. }
        | PoolReply::Closed { decisions, .. } = &reply
        {
            block.log_lines = decisions
                .iter()
                .map(|d| wire::decision_line(sid, d))
                .collect();
        }
        let reply_text = match (meta.held.verb(), reply) {
            ("open", PoolReply::Opened { name }) => {
                self.summary.opened += 1;
                block.breaker = Some(BreakerNote::Event);
                Some(wire::open_ok(sid, &name))
            }
            ("open", PoolReply::OpenFailed { error }) => {
                // Can't happen post-validation; keep the directory honest.
                self.directory.remove(sid);
                Some(wire::open_err(sid, &error))
            }
            ("job", PoolReply::OfferAdmitted { id, span, .. }) => {
                block.breaker = Some(BreakerNote::Event);
                if !meta.replay {
                    self.summary.jobs += 1;
                }
                Some(wire::job_ok(sid, id, span))
            }
            ("job", PoolReply::OfferPoisoned { verdict, .. }) => {
                // The offer mutated the session before poisoning it, so
                // it is journaled exactly like an admitted job.
                block.breaker = Some(BreakerNote::Event);
                if !meta.replay {
                    self.summary.jobs += 1;
                }
                Some(wire::job_poisoned(sid, &verdict))
            }
            ("job", PoolReply::OfferTerminal { verdict }) => {
                Some(wire::job_terminal(sid, &verdict))
            }
            ("job", PoolReply::OfferShed { resident }) => {
                self.summary.shed += 1;
                Some(wire::job_busy(sid, resident, self.opts.max_pending))
            }
            (
                "job",
                PoolReply::OfferTenantShed {
                    tenant,
                    cause,
                    used,
                    limit,
                },
            ) => {
                self.summary.tenant_shed += 1;
                Some(wire::job_tenant_busy(sid, &tenant, cause, used, limit))
            }
            ("job", PoolReply::OfferRejected { error }) => Some(wire::job_rejected(
                sid,
                meta.held.line(),
                meta.offset,
                &error,
            )),
            (
                "close",
                PoolReply::Closed {
                    verdict,
                    span,
                    jobs,
                    ..
                },
            ) => {
                block
                    .log_lines
                    .push(wire::close_line(sid, span, verdict.label()));
                block.breaker = Some(BreakerNote::Close {
                    sid: sid.to_string(),
                    completed: verdict.is_completed(),
                });
                self.summary.closed += 1;
                Some(wire::close_ok(sid, span, jobs, verdict.label()))
            }
            ("stats", PoolReply::Stats(s)) => Some(wire::stats_ok(sid, &s)),
            (verb @ ("job" | "close" | "stats"), PoolReply::NoSession) => {
                Some(wire::no_session(verb, sid))
            }
            (_, other) => {
                // A worker answered out of protocol — unrecoverable.
                self.halt(format!("worker protocol violation for {sid}: {other:?}"));
                None
            }
        };
        // What the worker applied is a breaker event, and the journal
        // records it.
        if block.breaker.is_some() && !meta.replay && self.journal.is_some() {
            if let Held::Record(ev) = meta.held {
                block.journal = Some(ev);
            }
        }
        self.window[idx] = Slot::Done(block);
        if let (Some((conn, conn_seq)), Some(text)) = (meta.reply_to, reply_text) {
            self.park_reply(conn, conn_seq, text);
        }
    }

    /// Submits the request `meta` holds to the pool under the next
    /// sequence slot, once the global dispatch window has room for it.
    /// It is applied on this thread if its worker has nothing outstanding
    /// and no `backlog` of input waits (see [`SessionPool::run_or_queue`]).
    /// Live requests, replayed records and drain closes all come here.
    fn submit_pool(&mut self, worker: usize, meta: Inflight, backlog: bool) -> Result<(), String> {
        self.settle_blocks(self.opts.max_pending.max(1) - 1);
        let seq = self.next_emit + self.window.len() as u64;
        let req = match &meta.held {
            Held::Record(ev) => ev.pool_request(),
            Held::Probe(sid) => PoolRequest::Stats { sid: sid.clone() },
        };
        let reply_to = meta.reply_to.map(|(conn, _)| self.conn_slot(conn));
        self.window
            .push_back(Slot::Waiting(Inflight { reply_to, ..meta }));
        self.pool
            .run_or_queue(worker, seq, req, backlog)
            .map_err(|e| format!("worker pool: {e}"))
    }

    /// Places a newly opened session on its tenant's shard.
    fn place(&mut self, sid: &str) -> usize {
        let worker = stable_shard(tenant_of(sid), self.pool.workers());
        self.directory.insert(sid.to_string(), worker);
        self.summary.peak_sessions = self.summary.peak_sessions.max(self.directory.len());
        worker
    }

    /// Handles one raw input line from `conn` starting at byte `offset`
    /// in that connection's stream. Completed replies are appended to
    /// `out` (possibly for other connections). Blank and comment lines,
    /// and lines at or before the resume cursor, get no reply. `offset`
    /// and the line counter attribute quarantined lines exactly (the
    /// batch trace reader's dead-letter provenance). `backlog` says
    /// whether more complete input is already waiting behind this line;
    /// it changes only which thread applies the request, never a byte of
    /// output. `Err` only when the pool has lost a worker thread.
    pub fn submit(
        &mut self,
        conn: u64,
        offset: u64,
        raw: &str,
        backlog: bool,
        out: &mut Vec<(u64, String)>,
    ) -> Result<(), String> {
        self.line_no += 1;
        self.summary.lines += 1;
        if self.line_no > self.cursor {
            self.accept_line(conn, offset, raw, backlog)?;
        }
        self.pump(out);
        Ok(())
    }

    /// Parses a line past the resume cursor and dispatches or answers it.
    fn accept_line(
        &mut self,
        conn: u64,
        offset: u64,
        raw: &str,
        backlog: bool,
    ) -> Result<(), String> {
        if self.halted() {
            self.complete_immediate(conn, "err halted".into());
            return Ok(());
        }
        let raw = raw.trim_end_matches('\n').trim_end_matches('\r');
        match parse_request(raw) {
            Ok(None) => Ok(()),
            Ok(Some(req)) => {
                self.summary.requests += 1;
                self.dispatch(conn, offset, req, backlog)
            }
            Err(reason) => {
                let reply = self.quarantine_line(offset, raw, reason);
                self.complete_immediate(conn, reply);
                Ok(())
            }
        }
    }

    /// Submits one line of the single in-process stream (connection 0)
    /// and waits for its reply; `None` where [`Server::submit`] gives
    /// none. A pool failure halts the server.
    pub fn handle_line(&mut self, offset: u64, raw: &str) -> Option<String> {
        let mut out = Vec::new();
        if let Err(e) = self.submit(0, offset, raw, false, &mut out) {
            self.halt(e);
        }
        self.settle(&mut out);
        out.pop().map(|(_, reply)| reply)
    }

    fn quarantine_line(&mut self, offset: u64, raw: &str, reason: String) -> String {
        let line = self.line_no;
        let reply = format!("err line={line} offset={offset}: {reason}");
        match self.opts.quarantine {
            Quarantine::Halt => {
                self.summary.halted = Some(format!("line {line} (byte {offset}): {reason}"));
            }
            Quarantine::Skip => self.summary.quarantined += 1,
            Quarantine::DeadLetter => {
                self.summary.quarantined += 1;
                self.summary.dead.push(DeadLetter {
                    line: self.line_no as usize,
                    offset,
                    raw: raw.to_string(),
                });
            }
        }
        reply
    }

    fn dispatch(
        &mut self,
        conn: u64,
        offset: u64,
        req: Request,
        backlog: bool,
    ) -> Result<(), String> {
        let line = self.line_no;
        let (worker, held) = match req {
            Request::Open { sid, spec } => {
                if self.directory.contains_key(&sid) {
                    self.complete_immediate(conn, wire::open_err(&sid, "session already open"));
                    return Ok(());
                }
                if self.directory.len() >= self.opts.max_sessions {
                    self.summary.shed += 1;
                    self.complete_immediate(
                        conn,
                        wire::open_busy(&sid, self.directory.len(), self.opts.max_sessions),
                    );
                    return Ok(());
                }
                // Admission order, fixed at every worker count:
                // duplicate → global cap → tenant cap → breaker → spec
                // validation.
                let tenant = tenant_of(&sid).to_string();
                let cap = self.opts.tenant_max_sessions;
                if cap > 0 {
                    let open = self
                        .directory
                        .keys()
                        .filter(|k| tenant_of(k) == tenant)
                        .count();
                    if open >= cap {
                        self.summary.tenant_shed += 1;
                        let reply = wire::open_tenant_busy(&sid, &tenant, open, cap);
                        self.complete_immediate(conn, reply);
                        return Ok(());
                    }
                }
                let mut breaker_checked = false;
                if self.opts.breaker.threshold > 0 {
                    // Opens are rare, so a pipeline barrier here is cheap;
                    // in exchange the breaker sees every prior event in
                    // input order and decides exactly as at one worker.
                    self.settle_blocks(0);
                    breaker_checked = true;
                    if let OpenDecision::Refuse {
                        failures,
                        retry_after,
                    } = self.breakers.admit_open(&sid)
                    {
                        self.summary.breaker_refused += 1;
                        self.complete_immediate(
                            conn,
                            wire::open_breaker(&sid, &tenant, failures, retry_after),
                        );
                        return Ok(());
                    }
                }
                // Validate here (same constructor the worker uses) so the
                // directory never holds a sid whose open will fail.
                if let Err(e) = build_session(&spec, self.opts.watchdog_events) {
                    if breaker_checked {
                        self.breakers.abort_open(&sid);
                    }
                    self.complete_immediate(conn, wire::open_err(&sid, &e));
                    return Ok(());
                }
                let worker = self.place(&sid);
                let open = ServeEvent::Open {
                    session: sid,
                    scheduler: spec,
                    line,
                };
                (worker, Held::Record(open))
            }
            Request::Job {
                sid,
                arrival,
                deadline,
                length,
            } => {
                let Some(&worker) = self.directory.get(&sid) else {
                    self.complete_immediate(conn, wire::no_session("job", &sid));
                    return Ok(());
                };
                let job = ServeEvent::Job {
                    session: sid,
                    line,
                    arrival,
                    deadline,
                    length,
                };
                (worker, Held::Record(job))
            }
            Request::Close { sid } => {
                let Some(worker) = self.directory.remove(&sid) else {
                    self.complete_immediate(conn, wire::no_session("close", &sid));
                    return Ok(());
                };
                let close = ServeEvent::Close { session: sid, line };
                (worker, Held::Record(close))
            }
            Request::Stats { sid } => {
                let Some(&worker) = self.directory.get(&sid) else {
                    self.complete_immediate(conn, wire::no_session("stats", &sid));
                    return Ok(());
                };
                (worker, Held::Probe(sid))
            }
            Request::StatsDaemon => {
                // Daemon-wide counters must reflect every prior request in
                // input order, whatever the worker count.
                self.settle_blocks(0);
                self.complete_immediate(conn, wire::stats_daemon(&self.summary));
                return Ok(());
            }
        };
        let meta = Inflight {
            held,
            offset,
            reply_to: Some((conn, 0)),
            replay: false,
        };
        self.submit_pool(worker, meta, backlog)
    }

    /// Replays journal records written by a previous (killed) run through
    /// the live submit path, in order: every session is rebuilt to its
    /// exact pre-crash state and the same decision-log lines are
    /// re-emitted (journal appends and replies suppressed). Admission is
    /// not re-decided: the records were admitted under the caps of the run
    /// that wrote them. Input lines at or before the last journaled line
    /// are then skipped on re-read.
    pub fn resume(&mut self, events: &[ServeEvent]) -> Result<(), String> {
        for ev in events {
            let worker = match ev {
                ServeEvent::Open { session, .. } => {
                    // Journaled opens were admitted, so advance the breaker
                    // (half-open probe reservation) as live admission did,
                    // with state current through all earlier records.
                    if self.opts.breaker.threshold > 0 {
                        self.settle_blocks(0);
                        let _ = self.breakers.admit_open(session);
                    }
                    Some(self.place(session))
                }
                ServeEvent::Job { session, .. } => self.directory.get(session).copied(),
                ServeEvent::Close { session, .. } => self.directory.remove(session),
            };
            if let Some(worker) = worker {
                let meta = Inflight {
                    held: Held::Record(ev.clone()),
                    offset: 0,
                    reply_to: None,
                    replay: true,
                };
                self.submit_pool(worker, meta, true)
                    .map_err(|e| format!("resume: replaying line {}: {e}", ev.line()))?;
            }
            self.cursor = self.cursor.max(ev.line());
        }
        self.settle_blocks(0);
        self.line_no = 0;
        Ok(())
    }

    /// Graceful drain: closes every remaining session in alphabetical
    /// order (so drains are deterministic), waits for all workers, flushes
    /// the log and syncs the journal. Called on end-of-input and on
    /// `SIGINT`/`SIGTERM`, through [`Server::finish`]. A drain close is a
    /// journaled `close` with no reply.
    pub fn drain(&mut self) -> Result<(), String> {
        let line = self.line_no;
        for (session, worker) in std::mem::take(&mut self.directory) {
            let meta = Inflight {
                held: Held::Record(ServeEvent::Close { session, line }),
                offset: 0,
                reply_to: None,
                replay: false,
            };
            self.submit_pool(worker, meta, true)?;
        }
        self.settle_blocks(0);
        self.log.flush().map_err(|e| format!("decision log: {e}"))?;
        if let Some(j) = self.journal.as_mut() {
            j.sync().map_err(|e| format!("journal: {e}"))?;
        }
        Ok(())
    }

    /// Drains, shuts the pool down (folding worker reports into the
    /// summary), and returns the final accounting and the log sink.
    pub fn finish(mut self) -> Result<(ServeSummary, Sink), String> {
        self.drain()?;
        let workers = self.pool.workers();
        let report = self.pool.shutdown();
        if workers > 1 {
            self.summary.pool_applies = Some((report.on_dispatcher, report.on_thread));
        }
        self.summary.peak_retained = self.summary.peak_retained.max(report.peak_retained);
        self.summary.peak_live_segments = self
            .summary
            .peak_live_segments
            .max(report.peak_live_segments);
        Ok((self.summary, self.log))
    }
}
