//! A worker pool that shards [`Session`]s across workers.
//!
//! `fjs serve` at `--workers N` dispatches every session to one of `N`
//! workers chosen by a **stable hash of the session's tenant**
//! ([`stable_shard`] over [`tenant_of`]), so all requests of one session —
//! and of every sibling session of its tenant — apply on one worker in
//! submission order. Tenant co-location is what makes the governor's
//! per-tenant quotas exact: the owning worker can sum resident jobs and
//! admitted bytes over the whole tenant without racing anyone. Each
//! submitted request carries a **global sequence number** assigned by
//! the dispatcher; replies come back tagged with it, and the dispatcher
//! merges decision-log and journal lines in sequence order — the same
//! index-ordered merge discipline as the sharded sweep executor in
//! `fjs-analysis` — which makes the merged output a pure function of the
//! request stream, independent of the worker count.
//!
//! Why this is deterministic: a session's observable behaviour (its
//! decisions, its span, its shed/terminal outcomes) is a function of its
//! *own* request subsequence only — simulation time advances with offers,
//! never with wall clock. Requests of one session are FIFO on one worker,
//! so every per-request reply equals the reply a one-worker pool would
//! have produced, and the sequence-ordered merge reproduces the
//! one-worker interleaving byte for byte.
//!
//! Each worker's state sits behind a `Mutex` it shares with its thread.
//! Worker 0 has no thread; workers `1..N` are resident threads, each fed
//! by its own FIFO channel, all answering on one shared reply channel. So
//! a pool of `N` workers adds `N - 1` threads to the caller's, and at
//! `--workers 1` there is no thread and no channel.
//!
//! # Work-conserving dispatch
//!
//! [`SessionPool::submit`] always queues a request on its worker's thread
//! (worker 0, which has none, applies it on the caller's thread).
//! [`SessionPool::run_or_queue`] applies a request on the caller's thread
//! instead when two things hold: nothing queued to that worker is still
//! waiting to be handed back by [`SessionPool::try_recv`] (or
//! [`SessionPool::recv_timeout`]), and the caller
//! says no other complete input is waiting. A closed-loop request to an
//! idle shard then never crosses a thread, while under backlog the
//! threads still run in parallel. Worker 0 is the thread-less case of the
//! same rule: its count of queued requests is always zero.
//!
//! Why per-session FIFO holds: the pool counts, per worker, the requests
//! queued to its thread whose replies it has not handed back. A thread
//! applies a request, releases the lock, and only then sends the reply.
//! So when the count is zero, every earlier request of that worker's
//! sessions has been applied and the lock is free; applying the next one
//! on the caller's thread is exactly what the thread would have done
//! next. Requests queued after it follow it on the channel.
//!
//! The price is isolation. A hung scheduler burns its watchdog event
//! budget on whichever thread applies its request, so a request that runs
//! on the dispatcher stalls every connection for that bounded time, as at
//! `--workers 1`. And because a session's requests may run on either
//! thread, sessions must be `Send`, which is why
//! [`OnlineScheduler`](crate::sim::sched::OnlineScheduler) requires it.
//!
//! The pool is deliberately free of any protocol or I/O concern: it
//! receives typed [`PoolRequest`]s and returns typed [`PoolReply`]s. The
//! CLI's dispatcher owns parsing, admission (session-count limits need
//! the global open-set, which only the dispatcher sees in input order),
//! journaling and rendering.
//!
//! # Waking the dispatcher
//!
//! A frontend that blocks on its own event source (socket lines, stdin)
//! learns about finished threaded work through a **waker** installed with
//! [`SessionPool::set_waker`]: after a worker puts a reply on the result
//! channel it swaps a shared `armed` flag to `false` and, if the flag was
//! set, calls the waker. So at most one wake is outstanding until the
//! dispatcher re-arms with [`SessionPool::rearm_waker`], which it does
//! *before* draining [`SessionPool::try_recv`].
//!
//! No reply is ever stranded, because the reply is sent before the flag
//! is swapped and the re-arm happens before the drain. Take a reply `R`
//! and the swap its worker makes after sending it. If that swap finds the
//! flag set, it fires a wake, and the drain that wake triggers runs after
//! `R` was sent. If it finds the flag clear, another swap cleared it since
//! the last re-arm and fired a wake, so the dispatcher will pump again;
//! that pump's re-arm is later than the last one, hence later than `R`'s
//! swap, and the drain after it sees `R`. Both sides swap with
//! acquire/release ordering, so a re-arm that reads a worker's cleared
//! flag also sees that worker's send. A wake may be spurious (an earlier
//! drain already took its reply); an empty drain is harmless. A request
//! applied on the caller's thread never wakes anyone: its reply is queued
//! before the call returns.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use super::governor::{tenant_of, TenantQuotas, TenantShedCause};
use super::session::{Decision, JobOffer, Session, SessionError};
use crate::job::JobId;
use crate::supervise::Verdict;
use crate::time::Dur;

/// Builds a session from a scheduler spec string, on whichever thread
/// applies the `open`. The callable must be shareable across workers.
pub type SessionFactory = Arc<dyn Fn(&str) -> Result<Session, String> + Send + Sync>;

/// FNV-1a over 64 bits: the shard hash of [`stable_shard`] and the
/// digest of the golden-output tests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Stable session-id shard assignment: [`fnv1a`] over the id's bytes, mod
/// the worker count. Pure, platform-independent, and fixed for the life
/// of the repo — reassigning sids across versions would silently break
/// per-worker FIFO expectations in mixed-version tooling.
pub fn stable_shard(sid: &str, workers: usize) -> usize {
    if workers <= 1 {
        return 0;
    }
    (fnv1a(sid.as_bytes()) % workers as u64) as usize
}

/// A request routed to the worker owning the session.
#[derive(Clone, Debug)]
pub enum PoolRequest {
    /// Create the session (the factory runs on the worker thread).
    Open {
        /// Session id.
        sid: String,
        /// Scheduler spec handed to the factory.
        spec: String,
    },
    /// Offer one job to the session.
    Offer {
        /// Session id.
        sid: String,
        /// The offer.
        offer: JobOffer,
    },
    /// Close the session and drain it to quiescence.
    Close {
        /// Session id.
        sid: String,
    },
    /// Read-only probe.
    Stats {
        /// Session id.
        sid: String,
    },
}

/// Read-only session probe results (the `stats` reply payload).
#[derive(Clone, Copy, Debug)]
pub struct SessionSnapshot {
    /// Running span.
    pub span: Dur,
    /// Jobs admitted but not started.
    pub pending: usize,
    /// Jobs running.
    pub running: usize,
    /// Materialized job records.
    pub retained: usize,
    /// High-water mark of materialized records.
    pub peak_retained: usize,
    /// Events processed.
    pub events_total: usize,
}

/// What a worker did with a request. Every variant maps to one reply of
/// the server, including which ones count as *admitted* (and therefore
/// journaled) versus shed or rejected.
#[derive(Clone, Debug)]
pub enum PoolReply {
    /// The session was built and registered.
    Opened {
        /// The scheduler's self-reported name.
        name: String,
    },
    /// The factory refused the spec (or the sid was already resident —
    /// a dispatcher-directory inconsistency that should not happen).
    OpenFailed {
        /// Human-readable reason.
        error: String,
    },
    /// The offer was admitted and applied.
    OfferAdmitted {
        /// The released job's id.
        id: JobId,
        /// Session span after the offer.
        span: Dur,
        /// Decisions emitted by this offer, in order.
        decisions: Vec<Decision>,
    },
    /// The offer was admitted and its application poisoned the session
    /// (the mutation happened, so the request must still be journaled).
    OfferPoisoned {
        /// The terminal verdict.
        verdict: Verdict,
        /// Decisions emitted before the poison landed.
        decisions: Vec<Decision>,
    },
    /// The session was already terminal; nothing was mutated.
    OfferTerminal {
        /// The pre-existing terminal verdict.
        verdict: Verdict,
    },
    /// The per-session resident-job cap would be exceeded; shed.
    OfferShed {
        /// Resident (pending + running) jobs at the time of the check.
        resident: usize,
    },
    /// A per-tenant governor quota would be exceeded; shed. Exact
    /// because the dispatcher shards sessions by tenant, so the worker
    /// sees all of the tenant's sessions.
    OfferTenantShed {
        /// The tenant (sid prefix) the quota charged.
        tenant: String,
        /// Which quota tripped.
        cause: TenantShedCause,
        /// Tenant-wide usage observed at the check.
        used: u64,
        /// The configured limit.
        limit: u64,
    },
    /// The offer failed validation; nothing was mutated.
    OfferRejected {
        /// The validation error.
        error: SessionError,
    },
    /// The session closed.
    Closed {
        /// Terminal verdict.
        verdict: Verdict,
        /// Final span.
        span: Dur,
        /// Jobs admitted over the session's lifetime.
        jobs: u64,
        /// Decisions flushed by the close drain.
        decisions: Vec<Decision>,
    },
    /// Stats probe.
    Stats(SessionSnapshot),
    /// The worker has no such session (dispatcher-directory
    /// inconsistency; rendered as the `no such session` error).
    NoSession,
}

/// Peaks observed by one worker, and where its requests were applied
/// (merged into the serve summary). The split between the dispatcher and
/// the worker's thread depends on timing; the peaks do not.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerReport {
    /// Max materialized records in any of this worker's sessions.
    pub peak_retained: usize,
    /// Max live span segments in any of this worker's sessions.
    pub peak_live_segments: usize,
    /// Requests applied on the caller's (dispatcher's) thread.
    pub on_dispatcher: u64,
    /// Requests applied on the worker's own thread.
    pub on_thread: u64,
}

impl WorkerReport {
    fn note(&mut self, session: &Session) {
        self.peak_retained = self.peak_retained.max(session.peak_retained_records());
        self.peak_live_segments = self.peak_live_segments.max(session.peak_live_segments());
    }

    /// Pointwise max of the peaks, sum of the counts.
    pub fn merge(&mut self, other: WorkerReport) {
        self.peak_retained = self.peak_retained.max(other.peak_retained);
        self.peak_live_segments = self.peak_live_segments.max(other.peak_live_segments);
        self.on_dispatcher += other.on_dispatcher;
        self.on_thread += other.on_thread;
    }
}

struct Task {
    seq: u64,
    req: PoolRequest,
}

struct Slot {
    session: Session,
    jobs: u64,
}

/// Per-worker state: the sessions hashed to this worker plus the peaks
/// they reached.
struct Worker {
    sessions: BTreeMap<String, Slot>,
    factory: SessionFactory,
    max_pending: usize,
    quotas: TenantQuotas,
    report: WorkerReport,
}

impl Worker {
    fn new(factory: SessionFactory, max_pending: usize, quotas: TenantQuotas) -> Worker {
        Worker {
            sessions: BTreeMap::new(),
            factory,
            max_pending,
            quotas,
            report: WorkerReport::default(),
        }
    }

    /// Tenant-wide (resident jobs, admitted payload bytes) across this
    /// worker's open sessions of `tenant`. Exact by construction: the
    /// dispatcher shards by tenant, so no other worker holds any of them.
    fn tenant_usage(&self, tenant: &str) -> (usize, u64) {
        let mut resident = 0usize;
        let mut bytes = 0u64;
        for (sid, slot) in &self.sessions {
            if tenant_of(sid) == tenant {
                resident += slot.session.num_pending() + slot.session.num_running();
                bytes += slot.session.admitted_payload_bytes();
            }
        }
        (resident, bytes)
    }

    fn handle(&mut self, req: PoolRequest) -> PoolReply {
        match req {
            PoolRequest::Open { sid, spec } => {
                if self.sessions.contains_key(&sid) {
                    return PoolReply::OpenFailed {
                        error: "session already open".into(),
                    };
                }
                match (self.factory)(&spec) {
                    Ok(session) => {
                        let name = session.scheduler_name();
                        self.sessions.insert(sid, Slot { session, jobs: 0 });
                        PoolReply::Opened { name }
                    }
                    Err(error) => PoolReply::OpenFailed { error },
                }
            }
            PoolRequest::Offer { sid, offer } => {
                let Some(slot) = self.sessions.get_mut(&sid) else {
                    return PoolReply::NoSession;
                };
                if let Some(v) = slot.session.verdict() {
                    return PoolReply::OfferTerminal { verdict: v.clone() };
                }
                let resident = slot.session.num_pending() + slot.session.num_running();
                if resident >= self.max_pending {
                    return PoolReply::OfferShed { resident };
                }
                let slot = if self.quotas.enabled() {
                    let tenant = tenant_of(&sid).to_string();
                    let (t_resident, t_bytes) = self.tenant_usage(&tenant);
                    if self.quotas.max_pending > 0 && t_resident >= self.quotas.max_pending {
                        return PoolReply::OfferTenantShed {
                            tenant,
                            cause: TenantShedCause::Pending,
                            used: t_resident as u64,
                            limit: self.quotas.max_pending as u64,
                        };
                    }
                    if self.quotas.max_bytes > 0
                        && t_bytes + offer.canonical_bytes() > self.quotas.max_bytes
                    {
                        return PoolReply::OfferTenantShed {
                            tenant,
                            cause: TenantShedCause::Bytes,
                            used: t_bytes,
                            limit: self.quotas.max_bytes,
                        };
                    }
                    let Some(slot) = self.sessions.get_mut(&sid) else {
                        return PoolReply::NoSession;
                    };
                    slot
                } else {
                    slot
                };
                let outcome = slot.session.offer(offer);
                if outcome.is_ok() {
                    slot.jobs += 1;
                }
                let decisions = slot.session.take_decisions();
                let span = slot.session.span();
                self.report.note(&slot.session);
                match outcome {
                    Ok(id) => PoolReply::OfferAdmitted {
                        id,
                        span,
                        decisions,
                    },
                    Err(SessionError::Terminal(verdict)) => {
                        PoolReply::OfferPoisoned { verdict, decisions }
                    }
                    Err(error) => PoolReply::OfferRejected { error },
                }
            }
            PoolRequest::Close { sid } => {
                let Some(mut slot) = self.sessions.remove(&sid) else {
                    return PoolReply::NoSession;
                };
                let verdict = slot.session.close();
                let span = slot.session.span();
                let decisions = slot.session.take_decisions();
                self.report.note(&slot.session);
                PoolReply::Closed {
                    verdict,
                    span,
                    jobs: slot.jobs,
                    decisions,
                }
            }
            PoolRequest::Stats { sid } => match self.sessions.get(&sid) {
                None => PoolReply::NoSession,
                Some(slot) => {
                    let s = &slot.session;
                    PoolReply::Stats(SessionSnapshot {
                        span: s.span(),
                        pending: s.num_pending(),
                        running: s.num_running(),
                        retained: s.retained_records(),
                        peak_retained: s.peak_retained_records(),
                        events_total: s.stats().events_total,
                    })
                }
            },
        }
    }
}

/// A callback that wakes the thread draining the pool's replies. It runs
/// on a worker thread and must never block.
pub type Waker = Box<dyn Fn() + Send + Sync>;

/// The waker shared by every worker, and the flag that coalesces its
/// calls (see the module docs).
#[derive(Default)]
struct WakeSlot {
    armed: AtomicBool,
    waker: Mutex<Option<Waker>>,
}

impl WakeSlot {
    /// Called by a worker after its reply is on the result channel.
    fn notify(&self) {
        if self.armed.swap(false, Ordering::AcqRel) {
            // Calling under the lock is what makes `set_waker(None)` final:
            // once it returns, no worker is inside the old waker.
            let waker = self.waker.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(wake) = waker.as_ref() {
                wake();
            }
        }
    }
}

/// A worker's state, shared by its thread and the caller.
type SharedWorker = Arc<Mutex<Worker>>;

fn lock(worker: &SharedWorker) -> std::sync::MutexGuard<'_, Worker> {
    // Scheduler panics are contained inside `Session`, so only a bug in
    // the pool itself could poison the lock; like the waker's lock, it is
    // recovered rather than turned into a second panic.
    worker.lock().unwrap_or_else(|e| e.into_inner())
}

/// One worker as the caller sees it.
struct Shard {
    worker: SharedWorker,
    /// The worker thread's FIFO request channel; `None` for worker 0.
    tx: Option<mpsc::Sender<Task>>,
    /// Requests sent on `tx` whose replies have not been handed back.
    queued: Cell<usize>,
}

/// The pool: worker 0 without a thread, workers `1..N` on resident
/// threads, with replies tagged by global sequence number. Scheduler
/// panics are already contained inside [`Session`]; the threads
/// themselves only die if the process is torn down around them, which
/// [`SessionPool::submit`] reports as an error.
pub struct SessionPool {
    shards: Vec<Shard>,
    /// Replies of requests applied on the caller's thread, not yet
    /// handed back.
    done: RefCell<VecDeque<(u64, PoolReply)>>,
    /// The threads' shared reply channel, each reply tagged with its
    /// worker; `None` when there are no threads.
    rx: Option<mpsc::Receiver<(usize, u64, PoolReply)>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    wake: Arc<WakeSlot>,
}

impl SessionPool {
    /// Builds the pool: worker 0 plus `workers - 1` threads (none for
    /// `workers <= 1`). `max_pending` is the per-session resident-job cap
    /// enforced by the owning worker — the worker sees its session's
    /// exact state after all prior requests, so the shed decision is
    /// identical at every worker count. `quotas` are the per-tenant caps
    /// (off by default), exact under tenant-sharded dispatch for the same
    /// reason.
    pub fn new(
        workers: usize,
        max_pending: usize,
        quotas: TenantQuotas,
        factory: SessionFactory,
    ) -> SessionPool {
        let wake = Arc::new(WakeSlot::default());
        let shared = || {
            Arc::new(Mutex::new(Worker::new(
                Arc::clone(&factory),
                max_pending,
                quotas,
            )))
        };
        let mut shards = vec![Shard {
            worker: shared(),
            tx: None,
            queued: Cell::new(0),
        }];
        let mut handles = Vec::new();
        let rx = (workers > 1).then(|| {
            let (reply_tx, rx) = mpsc::channel();
            for index in 1..workers {
                let (tx, task_rx) = mpsc::channel::<Task>();
                let worker = shared();
                let mine = Arc::clone(&worker);
                let reply_tx = reply_tx.clone();
                let wake = Arc::clone(&wake);
                handles.push(std::thread::spawn(move || {
                    while let Ok(task) = task_rx.recv() {
                        // The lock is released before the reply is sent:
                        // a caller that has every reply back finds it free.
                        let reply = {
                            let mut w = lock(&mine);
                            w.report.on_thread += 1;
                            w.handle(task.req)
                        };
                        if reply_tx.send((index, task.seq, reply)).is_err() {
                            break;
                        }
                        wake.notify();
                    }
                }));
                shards.push(Shard {
                    worker,
                    tx: Some(tx),
                    queued: Cell::new(0),
                });
            }
            rx
        });
        SessionPool {
            shards,
            done: RefCell::new(VecDeque::new()),
            rx,
            handles,
            wake,
        }
    }

    /// Installs (`Some`) or removes (`None`) the callback a worker thread
    /// makes after putting a reply on the result channel, and arms it.
    /// Calls are coalesced: after one wake, the next fires only once
    /// [`SessionPool::rearm_waker`] has run. Once this returns with
    /// `None`, the previous waker is never called again. A request applied
    /// on the caller's thread never calls it.
    pub fn set_waker(&self, waker: Option<Waker>) {
        *self.wake.waker.lock().unwrap_or_else(|e| e.into_inner()) = waker;
        self.rearm_waker();
    }

    /// Re-arms the waker. Call it *before* draining [`SessionPool::try_recv`]:
    /// a reply that lands after the drain then fires a fresh wake.
    pub fn rearm_waker(&self) {
        // A swap, not a store: reading a worker's cleared flag must
        // synchronize with that worker's send (see the module docs).
        self.wake.armed.swap(true, Ordering::AcqRel);
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, worker: usize) -> Result<&Shard, String> {
        self.shards
            .get(worker)
            .ok_or_else(|| format!("no such worker {worker}"))
    }

    /// Queues a request on `worker`'s thread (see [`stable_shard`])
    /// tagged `seq`. Worker 0 has no thread and applies it before
    /// returning.
    pub fn submit(&self, worker: usize, seq: u64, req: PoolRequest) -> Result<(), String> {
        let shard = self.shard(worker)?;
        match &shard.tx {
            Some(tx) => {
                tx.send(Task { seq, req })
                    .map_err(|_| format!("worker {worker} is gone"))?;
                shard.queued.set(shard.queued.get() + 1);
            }
            None => self.apply_here(shard, seq, req),
        }
        Ok(())
    }

    /// Applies a request on the calling thread when `worker` has no
    /// queued request whose reply is still outstanding and `backlog` is
    /// false (no other complete input waits); queues it like
    /// [`SessionPool::submit`] otherwise. Either way its reply arrives
    /// through [`SessionPool::try_recv`]. See the module docs for why
    /// per-session order holds.
    pub fn run_or_queue(
        &self,
        worker: usize,
        seq: u64,
        req: PoolRequest,
        backlog: bool,
    ) -> Result<(), String> {
        let shard = self.shard(worker)?;
        if shard.tx.is_some() && (backlog || shard.queued.get() > 0) {
            return self.submit(worker, seq, req);
        }
        self.apply_here(shard, seq, req);
        Ok(())
    }

    fn apply_here(&self, shard: &Shard, seq: u64, req: PoolRequest) {
        let reply = {
            let mut w = lock(&shard.worker);
            w.report.on_dispatcher += 1;
            w.handle(req)
        };
        self.done.borrow_mut().push_back((seq, reply));
    }

    /// Counts a thread's reply as handed back.
    fn handed_back(&self, (worker, seq, reply): (usize, u64, PoolReply)) -> (u64, PoolReply) {
        let queued = &self.shards[worker].queued;
        queued.set(queued.get() - 1);
        (seq, reply)
    }

    /// A completed reply, if one is ready. Replies of requests applied
    /// on this thread come first.
    pub fn try_recv(&self) -> Option<(u64, PoolReply)> {
        let here = self.done.borrow_mut().pop_front();
        here.or_else(|| Some(self.handed_back(self.rx.as_ref()?.try_recv().ok()?)))
    }

    /// Waits up to `timeout` for a completed reply. A reply of a request
    /// applied on this thread returns at once, and a pool without threads
    /// never waits.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(u64, PoolReply)> {
        let here = self.done.borrow_mut().pop_front();
        here.or_else(|| Some(self.handed_back(self.rx.as_ref()?.recv_timeout(timeout).ok()?)))
    }

    /// Stops every worker (thread queues drain first) and merges their
    /// reports. Sessions still resident are dropped without a close —
    /// callers drain before shutting down.
    pub fn shutdown(mut self) -> WorkerReport {
        for shard in &mut self.shards {
            shard.tx = None;
        }
        for h in self.handles {
            let _ = h.join();
        }
        let mut merged = WorkerReport::default();
        for shard in &self.shards {
            merged.merge(lock(&shard.worker).report);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::env::Clairvoyance;
    use crate::sim::sched::{Arrival, Ctx, OnlineScheduler};
    use crate::time::{dur, t};
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    struct Eager;
    impl OnlineScheduler for Eager {
        fn name(&self) -> String {
            "pool-eager".into()
        }
        fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
            ctx.start(job.id);
        }
        fn on_deadline(&mut self, _id: JobId, _ctx: &mut Ctx<'_>) {}
    }

    fn factory() -> SessionFactory {
        Arc::new(|spec: &str| {
            if spec == "eager" {
                Ok(Session::new(Box::new(Eager), Clairvoyance::Clairvoyant))
            } else {
                Err(format!("unknown scheduler '{spec}'"))
            }
        })
    }

    fn offer(a: f64, d: f64, p: f64) -> JobOffer {
        JobOffer {
            arrival: t(a),
            deadline: t(d),
            length: dur(p),
        }
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for sid in ["a", "s0", "s1", "tenant-42", "x.y_z"] {
            for n in [1usize, 2, 3, 8] {
                let w = stable_shard(sid, n);
                assert!(w < n, "{sid}@{n}");
                assert_eq!(w, stable_shard(sid, n), "{sid}@{n} must be stable");
            }
        }
        // Pinned values: the hash is part of the cross-version contract.
        assert_eq!(stable_shard("s0", 8), stable_shard("s0", 8));
        assert_ne!(
            (0..16).map(|i| stable_shard(&format!("s{i}"), 8)).max(),
            Some(0),
            "ids must spread across workers"
        );
    }

    #[test]
    fn pool_round_trips_a_session_lifecycle() {
        let pool = SessionPool::new(2, 1024, TenantQuotas::off(), factory());
        let w = stable_shard("a", pool.workers());
        pool.submit(
            w,
            0,
            PoolRequest::Open {
                sid: "a".into(),
                spec: "eager".into(),
            },
        )
        .unwrap();
        pool.submit(
            w,
            1,
            PoolRequest::Offer {
                sid: "a".into(),
                offer: offer(0.0, 5.0, 2.0),
            },
        )
        .unwrap();
        pool.submit(w, 2, PoolRequest::Close { sid: "a".into() })
            .unwrap();

        let mut replies = BTreeMap::new();
        for _ in 0..3 {
            let (seq, reply) = pool
                .recv_timeout(Duration::from_secs(5))
                .expect("pool reply");
            replies.insert(seq, reply);
        }
        assert!(
            matches!(replies.get(&0), Some(PoolReply::Opened { name }) if name == "pool-eager")
        );
        match replies.get(&1) {
            Some(PoolReply::OfferAdmitted {
                span, decisions, ..
            }) => {
                assert_eq!(*span, dur(2.0));
                assert_eq!(decisions.len(), 1, "eager start decision");
            }
            other => panic!("want OfferAdmitted, got {other:?}"),
        }
        match replies.get(&2) {
            Some(PoolReply::Closed {
                verdict,
                span,
                jobs,
                decisions,
            }) => {
                assert!(verdict.is_completed());
                assert_eq!(*span, dur(2.0));
                assert_eq!(*jobs, 1);
                assert_eq!(decisions.len(), 1, "close drains the done decision");
            }
            other => panic!("want Closed, got {other:?}"),
        }
        let report = pool.shutdown();
        assert!(report.peak_retained >= 1);
    }

    #[test]
    fn unknown_spec_and_missing_session_are_typed() {
        let pool = SessionPool::new(1, 1024, TenantQuotas::off(), factory());
        pool.submit(
            0,
            0,
            PoolRequest::Open {
                sid: "a".into(),
                spec: "bogus".into(),
            },
        )
        .unwrap();
        pool.submit(
            0,
            1,
            PoolRequest::Offer {
                sid: "ghost".into(),
                offer: offer(0.0, 1.0, 1.0),
            },
        )
        .unwrap();
        let mut replies = BTreeMap::new();
        for _ in 0..2 {
            let (seq, reply) = pool
                .recv_timeout(Duration::from_secs(5))
                .expect("pool reply");
            replies.insert(seq, reply);
        }
        assert!(
            matches!(replies.get(&0), Some(PoolReply::OpenFailed { error }) if error.contains("bogus"))
        );
        assert!(matches!(replies.get(&1), Some(PoolReply::NoSession)));
        pool.shutdown();
    }

    #[test]
    fn per_session_shed_is_enforced_on_the_worker() {
        // A session under a scheduler that keeps jobs pending would need
        // a non-starting scheduler; eager starts instantly, so resident
        // stays 1 — use max_pending 1 and two same-instant offers: the
        // first is running when the second arrives, so it sheds.
        let pool = SessionPool::new(1, 1, TenantQuotas::off(), factory());
        pool.submit(
            0,
            0,
            PoolRequest::Open {
                sid: "a".into(),
                spec: "eager".into(),
            },
        )
        .unwrap();
        pool.submit(
            0,
            1,
            PoolRequest::Offer {
                sid: "a".into(),
                offer: offer(0.0, 5.0, 10.0),
            },
        )
        .unwrap();
        pool.submit(
            0,
            2,
            PoolRequest::Offer {
                sid: "a".into(),
                offer: offer(1.0, 6.0, 1.0),
            },
        )
        .unwrap();
        let mut got_shed = false;
        for _ in 0..3 {
            if let Some((seq, reply)) = pool.recv_timeout(Duration::from_secs(5)) {
                if seq == 2 {
                    assert!(
                        matches!(reply, PoolReply::OfferShed { resident: 1 }),
                        "{reply:?}"
                    );
                    got_shed = true;
                }
            }
        }
        assert!(got_shed);
        pool.shutdown();
    }

    #[test]
    fn tenant_pending_quota_spans_sibling_sessions() {
        // Tenant `t` owns two sessions on one worker; a 1-job tenant
        // quota sheds the second session's offer while the first tenant's
        // job is still resident — and leaves other tenants alone.
        let quotas = TenantQuotas {
            max_pending: 1,
            max_bytes: 0,
        };
        let pool = SessionPool::new(1, 1024, quotas, factory());
        for (seq, sid) in [(0u64, "t.a"), (1, "t.b"), (2, "u.a")] {
            pool.submit(
                0,
                seq,
                PoolRequest::Open {
                    sid: sid.into(),
                    spec: "eager".into(),
                },
            )
            .unwrap();
        }
        pool.submit(
            0,
            3,
            PoolRequest::Offer {
                sid: "t.a".into(),
                offer: offer(0.0, 5.0, 10.0),
            },
        )
        .unwrap();
        pool.submit(
            0,
            4,
            PoolRequest::Offer {
                sid: "t.b".into(),
                offer: offer(0.0, 6.0, 1.0),
            },
        )
        .unwrap();
        pool.submit(
            0,
            5,
            PoolRequest::Offer {
                sid: "u.a".into(),
                offer: offer(0.0, 6.0, 1.0),
            },
        )
        .unwrap();
        let mut replies = BTreeMap::new();
        for _ in 0..6 {
            let (seq, reply) = pool
                .recv_timeout(Duration::from_secs(5))
                .expect("pool reply");
            replies.insert(seq, reply);
        }
        assert!(matches!(
            replies.get(&3),
            Some(PoolReply::OfferAdmitted { .. })
        ));
        match replies.get(&4) {
            Some(PoolReply::OfferTenantShed {
                tenant,
                cause: TenantShedCause::Pending,
                used: 1,
                limit: 1,
            }) => assert_eq!(tenant, "t"),
            other => panic!("want tenant shed, got {other:?}"),
        }
        assert!(matches!(
            replies.get(&5),
            Some(PoolReply::OfferAdmitted { .. })
        ));
        pool.shutdown();
    }

    #[test]
    fn tenant_byte_quota_charges_canonical_payload_bytes() {
        // "0,5,2" is 5 canonical bytes; a 9-byte quota admits one offer
        // and sheds the next (5 + 5 > 9). Bytes are only released at
        // close, so job completion does not reopen the budget.
        let quotas = TenantQuotas {
            max_pending: 0,
            max_bytes: 9,
        };
        let pool = SessionPool::new(1, 1024, quotas, factory());
        pool.submit(
            0,
            0,
            PoolRequest::Open {
                sid: "t.a".into(),
                spec: "eager".into(),
            },
        )
        .unwrap();
        pool.submit(
            0,
            1,
            PoolRequest::Offer {
                sid: "t.a".into(),
                offer: offer(0.0, 5.0, 2.0),
            },
        )
        .unwrap();
        pool.submit(
            0,
            2,
            PoolRequest::Offer {
                sid: "t.a".into(),
                offer: offer(3.0, 8.0, 2.0),
            },
        )
        .unwrap();
        let mut replies = BTreeMap::new();
        for _ in 0..3 {
            let (seq, reply) = pool
                .recv_timeout(Duration::from_secs(5))
                .expect("pool reply");
            replies.insert(seq, reply);
        }
        assert!(matches!(
            replies.get(&1),
            Some(PoolReply::OfferAdmitted { .. })
        ));
        match replies.get(&2) {
            Some(PoolReply::OfferTenantShed {
                tenant,
                cause: TenantShedCause::Bytes,
                used: 5,
                limit: 9,
            }) => assert_eq!(tenant, "t"),
            other => panic!("want byte shed, got {other:?}"),
        }
        pool.shutdown();
    }

    /// A cheap request: a stats probe of a session nobody opened.
    fn probe() -> PoolRequest {
        PoolRequest::Stats {
            sid: "ghost".into(),
        }
    }

    /// Installs a waker that counts its calls and signals each one.
    fn counting_waker(pool: &SessionPool) -> (Arc<AtomicUsize>, mpsc::Receiver<()>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        let counter = Arc::clone(&calls);
        pool.set_waker(Some(Box::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
            let _ = tx.send(());
        })));
        (calls, rx)
    }

    const WAIT: Duration = Duration::from_secs(5);

    #[test]
    fn reply_is_ready_when_the_waker_fires() {
        // Workers 1 and 2 are threads; worker 0 runs inline and never wakes.
        let pool = SessionPool::new(3, 1024, TenantQuotas::off(), factory());
        let (_, wakes) = counting_waker(&pool);
        for seq in 0..50u64 {
            pool.rearm_waker();
            pool.submit(1 + (seq % 2) as usize, seq, probe()).unwrap();
            wakes.recv_timeout(WAIT).expect("wake");
            let (got, reply) = pool.try_recv().expect("reply sent before the wake");
            assert_eq!(got, seq);
            assert!(matches!(reply, PoolReply::NoSession));
        }
        pool.shutdown();
    }

    #[test]
    fn wakes_coalesce_until_rearmed() {
        // Worker 1 is the pool's one thread: worker 0 never wakes.
        let pool = SessionPool::new(2, 1024, TenantQuotas::off(), factory());
        let (calls, wakes) = counting_waker(&pool);
        for seq in 0..20u64 {
            pool.submit(1, seq, probe()).unwrap();
        }
        for _ in 0..20 {
            pool.recv_timeout(WAIT).expect("reply");
        }
        wakes.recv_timeout(WAIT).expect("first completion wakes");
        // Give the last worker swap time to land: with no re-arm, nothing
        // may wake again however long we wait.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(calls.load(Ordering::SeqCst), 1, "20 completions, one wake");

        pool.rearm_waker();
        pool.submit(1, 20, probe()).unwrap();
        wakes.recv_timeout(WAIT).expect("re-armed completion wakes");
        assert_eq!(pool.recv_timeout(WAIT).map(|(seq, _)| seq), Some(20));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        pool.shutdown();
    }

    #[test]
    fn uninstalled_waker_is_never_called() {
        let pool = SessionPool::new(3, 1024, TenantQuotas::off(), factory());
        let (calls, _wakes) = counting_waker(&pool);
        pool.set_waker(None);
        for seq in 0..20u64 {
            pool.rearm_waker();
            pool.submit(1 + (seq % 2) as usize, seq, probe()).unwrap();
            pool.recv_timeout(WAIT).expect("reply");
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        pool.shutdown();
    }

    #[test]
    fn worker_zero_runs_inline_and_never_wakes() {
        for n in [1usize, 3] {
            let (spy, seen) = spy_factory();
            let pool = SessionPool::new(n, 1024, TenantQuotas::off(), spy);
            assert_eq!(pool.workers(), n);
            let (calls, wakes) = counting_waker(&pool);
            let open = |sid: &str| PoolRequest::Open {
                sid: sid.into(),
                spec: "eager".into(),
            };
            let here = std::thread::current().id();

            pool.submit(0, 0, open("a")).unwrap();
            assert_eq!(*seen.lock().unwrap(), vec![here], "n={n}");
            assert!(matches!(
                pool.try_recv(),
                Some((0, PoolReply::Opened { .. }))
            ));
            for seq in 1..20u64 {
                pool.rearm_waker();
                pool.submit(0, seq, probe()).unwrap();
                let (got, _) = pool.try_recv().expect("reply ready when submit returns");
                assert_eq!(got, seq);
            }
            assert!(pool.try_recv().is_none());
            assert_eq!(
                calls.load(Ordering::SeqCst),
                0,
                "n={n}: worker 0 never wakes"
            );
            assert!(
                pool.submit(n, 20, probe()).is_err(),
                "only workers 0..{n} exist"
            );

            // Workers 1..n are threads of their own.
            for w in 1..n {
                pool.submit(w, 20 + w as u64, open("b")).unwrap();
            }
            if n > 1 {
                wakes.recv_timeout(WAIT).expect("a threaded reply wakes");
            }
            for _ in 1..n {
                pool.recv_timeout(WAIT).expect("threaded reply");
            }
            let threads = seen.lock().unwrap();
            let distinct: HashSet<_> = threads.iter().collect();
            assert_eq!(
                (threads.len(), distinct.len()),
                (n, n),
                "n={n}: one thread per worker"
            );
            drop(threads);
            pool.shutdown();
        }

        // Only the worker that ran a session has peaks, so each worker's
        // report must reach the merge.
        for worker in 0..3 {
            let pool = SessionPool::new(3, 1024, TenantQuotas::off(), factory());
            let open = PoolRequest::Open {
                sid: "a".into(),
                spec: "eager".into(),
            };
            let job = PoolRequest::Offer {
                sid: "a".into(),
                offer: offer(0.0, 5.0, 2.0),
            };
            pool.submit(worker, 0, open).unwrap();
            pool.submit(worker, 1, job).unwrap();
            for _ in 0..2 {
                pool.recv_timeout(WAIT).expect("reply");
            }
            let report = pool.shutdown();
            assert!(report.peak_retained >= 1, "worker {worker}'s peaks");
            assert!(report.peak_live_segments >= 1, "worker {worker}'s peaks");
        }
    }

    /// A factory that records the thread each `open` ran on.
    fn spy_factory() -> (SessionFactory, Arc<Mutex<Vec<std::thread::ThreadId>>>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let record = Arc::clone(&seen);
        let inner = factory();
        let spy: SessionFactory = Arc::new(move |spec: &str| {
            record.lock().unwrap().push(std::thread::current().id());
            inner(spec)
        });
        (spy, seen)
    }

    #[test]
    fn idle_worker_without_backlog_runs_on_the_caller() {
        let (spy, seen) = spy_factory();
        let pool = SessionPool::new(2, 1024, TenantQuotas::off(), spy);
        let (calls, _wakes) = counting_waker(&pool);
        let here = std::thread::current().id();
        let open = |sid: &str| PoolRequest::Open {
            sid: sid.into(),
            spec: "eager".into(),
        };
        pool.run_or_queue(1, 0, open("a"), false).unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![here]);
        assert!(matches!(
            pool.try_recv(),
            Some((0, PoolReply::Opened { .. }))
        ));
        // Backlog queues the request on the worker's thread.
        pool.run_or_queue(1, 1, open("b"), true).unwrap();
        assert!(pool.recv_timeout(WAIT).is_some());
        let threads = seen.lock().unwrap().clone();
        assert_eq!(threads.len(), 2);
        assert_ne!(threads[1], here, "a backlog request runs on the thread");
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(calls.load(Ordering::SeqCst), 1, "only the queued one wakes");
        let report = pool.shutdown();
        assert_eq!((report.on_dispatcher, report.on_thread), (1, 1));
    }

    /// While a worker has a queued request whose reply is not handed
    /// back, a request for it is queued behind, never applied ahead.
    #[test]
    fn busy_worker_keeps_fifo_order() {
        let pool = SessionPool::new(2, 1024, TenantQuotas::off(), factory());
        let open = PoolRequest::Open {
            sid: "a".into(),
            spec: "eager".into(),
        };
        pool.submit(1, 0, open).unwrap();
        // The reply may already be on the channel, but it has not been
        // handed back, so this offer must follow the open on the thread.
        let job = PoolRequest::Offer {
            sid: "a".into(),
            offer: offer(0.0, 5.0, 2.0),
        };
        pool.run_or_queue(1, 1, job, false).unwrap();
        let mut replies = BTreeMap::new();
        for _ in 0..2 {
            let (seq, reply) = pool.recv_timeout(WAIT).expect("reply");
            replies.insert(seq, reply);
        }
        assert!(matches!(
            replies.get(&1),
            Some(PoolReply::OfferAdmitted { .. })
        ));
        // Both replies are back: the worker is idle again.
        pool.run_or_queue(1, 2, probe(), false).unwrap();
        assert_eq!(pool.try_recv().map(|(seq, _)| seq), Some(2));
        let report = pool.shutdown();
        assert_eq!((report.on_dispatcher, report.on_thread), (1, 2));
    }

    /// The dispatcher's loop in miniature: block on the wake, re-arm,
    /// drain. Every round submits to all three workers: worker 0's reply
    /// is queued inline, and the two threads complete concurrently, so
    /// their swaps race each other and the re-arm; a lost wakeup would
    /// leave a reply stranded and the wait would time out.
    #[test]
    fn no_wakeup_is_lost_under_racing_completions() {
        let pool = SessionPool::new(3, 1024, TenantQuotas::off(), factory());
        let (_, wakes) = counting_waker(&pool);
        let mut seq = 0u64;
        for round in 0..10_000 {
            for worker in 0..3 {
                pool.submit(worker, seq, probe()).unwrap();
                seq += 1;
            }
            let mut drained = 0;
            while drained < 3 {
                wakes
                    .recv_timeout(WAIT)
                    .unwrap_or_else(|_| panic!("round {round}: wakeup lost"));
                pool.rearm_waker();
                while pool.try_recv().is_some() {
                    drained += 1;
                }
            }
            assert_eq!(drained, 3, "round {round}");
        }
        pool.shutdown();
    }
}
