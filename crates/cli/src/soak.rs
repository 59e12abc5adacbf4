//! The engine behind `fjs soak`: long-running supervised sweeps with a
//! crash-safe checkpoint journal.
//!
//! A soak run enumerates a deterministic grid of cells — conformance-deck
//! cases (or a single CSV trace) crossed with the selected targets — and
//! drives each cell through [`fjs_core::supervise::supervise`]: watchdog
//! event budget, panic containment, deterministic retry of transient
//! environment faults. Every finished cell is recorded in a [`Journal`]
//! before the next one starts, so a `SIGKILL` at any point loses at most
//! the cell in flight; `--resume` skips journalled cells and converges to
//! the same journal bytes — and therefore the same report — as an
//! uninterrupted run.
//!
//! The final report is rendered *purely* from the sorted journal entry set
//! (plus the trace ingest stats, themselves a pure function of the input
//! file), never from in-memory sweep state. That is what makes
//! "interrupted + resumed" and "uninterrupted" bit-identical on stdout —
//! and, because the journal bytes are a pure function of the completed
//! cell *set*, it also makes `--shards` a pure wall-clock knob: the cells
//! fan out through [`fjs_analysis::sharded_map`], and every shard count
//! converges to the same journal and report.

use fjs_analysis::{sharded_map, ShardPlan};
use fjs_core::job::Instance;
use fjs_core::sim::OnlineScheduler;
use fjs_core::sim::StaticEnv;
use fjs_core::supervise::{
    supervise, with_quiet_panics, Cell, CellResult, Journal, PoisonMode, PoisonedScheduler,
    RetryPolicy, SuperviseConfig, DEFAULT_WATCHDOG_EVENTS,
};
use fjs_prng::check::case_seed;
use fjs_testkit::Target;
use fjs_workloads::{conformance_deck, Family, IngestStats, Quarantine, TraceReader};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Set by the `SIGINT` handler (or [`request_stop`]); polled between cells.
static INTERRUPT_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Asks the running sweep to stop gracefully after the cell in flight.
/// This is exactly what the `SIGINT` handler does.
pub fn request_stop() {
    INTERRUPT_REQUESTED.store(true, Ordering::SeqCst);
}

/// Clears a pending stop request (call before starting a fresh sweep).
pub fn clear_stop() {
    INTERRUPT_REQUESTED.store(false, Ordering::SeqCst);
}

/// Whether a graceful stop has been requested.
pub fn stop_requested() -> bool {
    INTERRUPT_REQUESTED.load(Ordering::SeqCst)
}

/// Installs a `SIGINT` handler that requests a graceful stop: the sweep
/// finishes the cell in flight, flushes the journal (already durable — every
/// cell is persisted as it completes) and exits 0 with a resume hint.
///
/// Uses the libc `signal(2)` symbol directly so the workspace stays free of
/// external crates; on non-Unix targets this is a no-op and `Ctrl-C` simply
/// kills the process — which the journal is designed to survive anyway.
#[cfg(unix)]
#[allow(clippy::fn_to_numeric_cast)] // signal(2) takes the handler as an address
pub fn install_sigint_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_sigint(_signum: i32) {
        INTERRUPT_REQUESTED.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
    }
}

/// No-op on non-Unix targets (see the Unix version for why that is safe).
#[cfg(not(unix))]
pub fn install_sigint_handler() {}

/// Configuration for one soak sweep.
#[derive(Clone, Debug)]
pub struct SoakOptions {
    /// The targets every case is crossed with.
    pub targets: Vec<Target>,
    /// Deck cases to enumerate; case `i` draws deck member `i % deck.len()`
    /// with seed `case_seed(base_seed, i)`. Ignored in trace mode.
    pub cells: usize,
    /// Base seed; the whole sweep is a pure function of the options.
    pub base_seed: u64,
    /// Watchdog event budget per supervised run.
    pub watchdog_events: usize,
    /// Wrap every subject in a deliberately faulty [`PoisonedScheduler`] —
    /// a self-test that the watchdog and panic containment actually fire.
    pub poison: Option<PoisonMode>,
    /// Stop gracefully once this much wall clock has elapsed.
    pub time_budget: Option<Duration>,
    /// Resume from an existing journal instead of starting a fresh one.
    pub resume: bool,
    /// Journal path (JSONL, atomically rewritten after every cell).
    pub journal: PathBuf,
    /// Soak a CSV trace instead of the conformance deck: the file is
    /// streamed through [`TraceReader`] under [`Quarantine::Skip`] and the
    /// surviving records form the single case.
    pub trace: Option<PathBuf>,
    /// Sleep inserted after every executed cell — keeps a smoke run alive
    /// long enough for an external `kill -INT` to land (CI uses this).
    pub throttle: Duration,
    /// Stop gracefully after this many cells have been *executed* (skipped
    /// cells don't count). A deterministic stand-in for a mid-sweep kill in
    /// tests.
    pub stop_after: Option<usize>,
    /// Worker shards for the cell sweep ([`fjs_analysis::ShardPlan`]): `1`
    /// (the default) keeps the classic serial loop, `0` spreads cells over
    /// one shard per core, any other value is an explicit count. The journal
    /// serializes its *sorted* entry set, so completed sweeps produce
    /// bit-identical journal bytes — and reports — at every shard count.
    pub shards: usize,
}

impl SoakOptions {
    /// Options with the given targets and journal path, defaults elsewhere.
    pub fn new(targets: Vec<Target>, journal: impl Into<PathBuf>) -> Self {
        SoakOptions {
            targets,
            cells: 64,
            base_seed: 1,
            watchdog_events: DEFAULT_WATCHDOG_EVENTS,
            poison: None,
            time_budget: None,
            resume: false,
            journal: journal.into(),
            trace: None,
            throttle: Duration::ZERO,
            stop_after: None,
            shards: 1,
        }
    }
}

/// What a soak sweep did and found.
#[derive(Clone, Debug)]
pub struct SoakSummary {
    /// The deterministic report (rendered from the journal alone).
    pub report: String,
    /// Cells executed by *this* invocation.
    pub ran: usize,
    /// Cells skipped because the resume journal already recorded them.
    pub skipped: usize,
    /// Cells now in the journal (executed this time or before).
    pub journal_cells: usize,
    /// Journalled cells whose verdict is not `completed`.
    pub degraded: usize,
    /// `true` when the sweep stopped early (signal, time budget or
    /// [`SoakOptions::stop_after`]) — rerun with `resume` to finish.
    pub interrupted: bool,
    /// Ingestion stats when a trace was soaked.
    pub ingest: Option<IngestStats>,
}

/// One enumerated case: a deck family or a fixed trace-derived instance.
struct CaseSpec {
    label: String,
    seed: u64,
    family: Option<Family>,
    fixed: Option<Instance>,
}

impl CaseSpec {
    fn materialize(&self) -> Instance {
        match (&self.family, &self.fixed) {
            (Some(f), _) => f.generate(self.seed),
            (None, Some(inst)) => inst.clone(),
            (None, None) => Instance::empty(),
        }
    }
}

fn enumerate_cases(opts: &SoakOptions) -> Result<(Vec<CaseSpec>, Option<IngestStats>), String> {
    if let Some(path) = &opts.trace {
        let (spec, stats) = load_trace_case(path, opts.base_seed)?;
        return Ok((vec![spec], Some(stats)));
    }
    let deck = conformance_deck();
    let specs = (0..opts.cells)
        .map(|i| {
            let family = deck[i % deck.len()];
            CaseSpec {
                label: family.label(),
                seed: case_seed(opts.base_seed, i),
                family: Some(family),
                fixed: None,
            }
        })
        .collect();
    Ok((specs, None))
}

fn load_trace_case(path: &Path, seed: u64) -> Result<(CaseSpec, IngestStats), String> {
    let file =
        std::fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let mut reader = TraceReader::new(std::io::BufReader::new(file)).with_policy(Quarantine::Skip);
    let mut jobs = Vec::new();
    for record in reader.by_ref() {
        let record = record.map_err(|e| format!("{}: {e}", path.display()))?;
        jobs.push(record.job);
    }
    let stats = reader.stats();
    if jobs.is_empty() {
        return Err(format!("{}: no valid records to soak", path.display()));
    }
    let spec = CaseSpec {
        label: format!("trace:{}", path.display()),
        seed,
        family: None,
        fixed: Some(Instance::new(jobs)),
    };
    Ok((spec, stats))
}

/// The subject a cell runs: the target's scheduler stack, optionally
/// wrapped in a poison layer.
fn build_subject(target: &Target, poison: Option<PoisonMode>) -> Box<dyn OnlineScheduler> {
    let inner = target.build();
    match poison {
        Some(mode) => Box::new(PoisonedScheduler::new(inner, mode)),
        None => inner,
    }
}

fn run_cell(target: &Target, inst: &Instance, cell: Cell, opts: &SoakOptions) -> CellResult {
    let config = SuperviseConfig {
        watchdog_events: opts.watchdog_events,
        // Seed the retry jitter per cell so the ledger is a pure function
        // of the cell, not of sweep order.
        retry: RetryPolicy {
            seed: cell.seed,
            ..RetryPolicy::default()
        },
    };
    let model = target.information_model();
    let sup = supervise(
        |_attempt| {
            (
                StaticEnv::new(inst, model),
                build_subject(target, opts.poison),
            )
        },
        &config,
    );
    CellResult {
        cell,
        verdict: sup.verdict.label().to_string(),
        span: sup.outcome.as_ref().map(|o| o.span.get()).unwrap_or(0.0),
        events: sup
            .outcome
            .as_ref()
            .map(|o| o.events_processed)
            .unwrap_or(0),
        retries: sup.retries.len() as u32,
    }
}

/// Runs a soak sweep. Deterministic up to wall-clock stopping points: the
/// set of cells is fixed by the options, each cell's result is a pure
/// function of `(target, family, seed)`, and the report depends only on
/// the journal's entry set.
pub fn run_soak(opts: &SoakOptions) -> Result<SoakSummary, String> {
    let start = Instant::now();
    let journal = if opts.resume {
        Journal::resume(&opts.journal)
    } else {
        Journal::create(&opts.journal)
    }
    .map_err(|e| format!("journal: {e}"))?;

    let (specs, ingest) = enumerate_cases(opts)?;

    // Flat cell list in the classic specs × targets order; with `shards: 1`
    // the sharded executor runs it serially on this thread, exactly like
    // the historical nested loop.
    let cells: Vec<(usize, usize)> = (0..specs.len())
        .flat_map(|si| (0..opts.targets.len()).map(move |ti| (si, ti)))
        .collect();
    // Each deck instance is materialized at most once no matter how many
    // targets (or shards) consume it.
    let insts: Vec<OnceLock<Instance>> = specs.iter().map(|_| OnceLock::new()).collect();

    let journal = Mutex::new(journal);
    let ran = AtomicUsize::new(0);
    let skipped = AtomicUsize::new(0);
    let stopped = AtomicBool::new(false);
    let lock_journal = || journal.lock().unwrap_or_else(|e| e.into_inner());

    let run_one = |&(si, ti): &(usize, usize)| -> Result<(), String> {
        let spec = &specs[si];
        let target = &opts.targets[ti];
        let over_time = opts.time_budget.is_some_and(|b| start.elapsed() >= b);
        if stop_requested() || over_time || stopped.load(Ordering::SeqCst) {
            stopped.store(true, Ordering::SeqCst);
            return Ok(());
        }
        let cell = Cell {
            target: target.name(),
            family: spec.label.clone(),
            seed: spec.seed,
        };
        if lock_journal().contains(&cell) {
            skipped.fetch_add(1, Ordering::SeqCst);
            return Ok(());
        }
        // Reserve an execution slot *before* running so `stop_after` bounds
        // the number of executed cells exactly even when shards race.
        let reserved = match opts.stop_after {
            Some(n) => ran
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |r| {
                    (r < n).then_some(r + 1)
                })
                .is_ok(),
            None => {
                ran.fetch_add(1, Ordering::SeqCst);
                true
            }
        };
        if !reserved {
            stopped.store(true, Ordering::SeqCst);
            return Ok(());
        }
        let instance = insts[si].get_or_init(|| spec.materialize());
        let result = run_cell(target, instance, cell, opts);
        // The guard drops at the end of this statement, so a due sync
        // stalls only this shard, before its next cell.
        let pending = lock_journal().record(result);
        if let Some(sync) = pending.map_err(|e| format!("journal: {e}"))? {
            sync.run().map_err(|e| format!("journal: {e}"))?;
        }
        if !opts.throttle.is_zero() {
            std::thread::sleep(opts.throttle);
        }
        Ok(())
    };
    let sweep = || -> Result<(), String> {
        let plan = ShardPlan::with_shards(opts.shards).seeded(opts.base_seed);
        sharded_map(&cells, plan, run_one).into_iter().collect()
    };
    // Poison sweeps panic on purpose in every cell; silence the global
    // panic hook so the report is the only output.
    let swept = if opts.poison.is_some() {
        with_quiet_panics(sweep)
    } else {
        sweep()
    };
    // Every exit path (done, stopped, over budget, failed) leaves the
    // journal in its sorted form.
    let mut journal = journal.into_inner().unwrap_or_else(|e| e.into_inner());
    let compacted = journal.compact().map_err(|e| format!("journal: {e}"));
    swept.and(compacted)?;
    let degraded = journal
        .entries()
        .filter(|r| r.verdict != "completed")
        .count();
    let report = render_report(&journal, ingest.as_ref());
    Ok(SoakSummary {
        report,
        ran: ran.load(Ordering::SeqCst),
        skipped: skipped.load(Ordering::SeqCst),
        journal_cells: journal.len(),
        degraded,
        interrupted: stopped.load(Ordering::SeqCst),
        ingest,
    })
}

#[derive(Default)]
struct Tally {
    cells: usize,
    completed: usize,
    timed_out: usize,
    panicked: usize,
    faulted: usize,
    retries: u64,
    events: u64,
    span: f64,
}

/// Renders the soak report from the journal alone (sorted entry set plus
/// optional ingest stats) — the invariant behind resume bit-identity.
pub fn render_report(journal: &Journal, ingest: Option<&IngestStats>) -> String {
    let mut per_target: BTreeMap<&str, Tally> = BTreeMap::new();
    for r in journal.entries() {
        let t = per_target.entry(r.cell.target.as_str()).or_default();
        t.cells += 1;
        match r.verdict.as_str() {
            "completed" => t.completed += 1,
            "timed-out" => t.timed_out += 1,
            "panicked" => t.panicked += 1,
            "faulted" => t.faulted += 1,
            _ => {}
        }
        t.retries += u64::from(r.retries);
        t.events += r.events as u64;
        t.span += r.span;
    }

    let mut table = fjs_analysis::Table::new(
        format!("soak report ({} cell(s))", journal.len()),
        &[
            "target",
            "cells",
            "completed",
            "timed-out",
            "panicked",
            "faulted",
            "retries",
            "events",
            "total span",
        ],
    );
    for (target, t) in &per_target {
        table.push_row(vec![
            (*target).to_string(),
            format!("{}", t.cells),
            format!("{}", t.completed),
            format!("{}", t.timed_out),
            format!("{}", t.panicked),
            format!("{}", t.faulted),
            format!("{}", t.retries),
            format!("{}", t.events),
            format!("{:.3}", t.span),
        ]);
    }

    let total = journal.len();
    let completed: usize = per_target.values().map(|t| t.completed).sum();
    let mut out = table.render();
    out.push_str(&format!(
        "\n{total} cell(s): {completed} completed, {} degraded\n",
        total - completed
    ));
    if let Some(s) = ingest {
        out.push_str(&format!(
            "ingest: {} line(s), {} record(s), {} quarantined\n",
            s.lines, s.records, s.quarantined
        ));
    }
    out
}
