//! The engine layers on large traces, driven in process by the traced
//! `serve-w1` run.
//!
//! The benchmark writes three ~100k-job traces from the seed, one per
//! scenario: `cloud-batch` (heavy-tailed lengths, a deadline alarm per
//! job), `bursty-analytics` (bursts of same-instant releases) and
//! `slack-rich` (huge laxities, so lazy schedulers hold long queues).
//! It parses them with `parse_trace` and runs all 7 head-to-head
//! schedulers on each, in passes. There are no sockets and no exact DP:
//! the engine's calendar, arena, event kinds and the schedulers'
//! callbacks do nearly all the work.

use std::time::Instant;

use fjs_core::interval::IntervalSet;
use fjs_core::job::Instance;
use fjs_core::sim::env::StaticEnv;
use fjs_core::sim::{run_with_config, RunStats, SimConfig, SimOutcome};
use fjs_schedulers::SchedulerKind;
use fjs_workloads::{parse_trace, write_trace, Scenario};

use crate::stats::median;
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

const TRACE_JOBS: usize = 100_000;
/// Parses of the three traces; `workloads.io.parse_trace_ms` is their
/// median.
const PARSES: usize = 5;
const SCENARIOS: [Scenario; 3] = [
    Scenario::CloudBatch,
    Scenario::BurstyAnalytics,
    Scenario::SlackRich,
];

/// The `sim.run_ms.*` metric of a scheduler (`batch+` is not a valid
/// metric name).
fn run_ms_metric(kind: SchedulerKind) -> &'static str {
    match kind.short_name() {
        "eager" => "sim.run_ms.eager",
        "lazy" => "sim.run_ms.lazy",
        "batch" => "sim.run_ms.batch",
        "batch+" => "sim.run_ms.batchplus",
        "cdb" => "sim.run_ms.cdb",
        "profit" => "sim.run_ms.profit",
        "doubler" => "sim.run_ms.doubler",
        other => panic!("no run-time metric for scheduler {other}"),
    }
}

fn event_metric(kind: &str) -> &'static str {
    match kind {
        "completion" => "sim.events.completion",
        "release" => "sim.events.release",
        "ordered-start" => "sim.events.ordered-start",
        "length-probe" => "sim.events.length-probe",
        "deadline-alarm" => "sim.events.deadline-alarm",
        "wakeup" => "sim.events.wakeup",
        other => panic!("no metric for event kind {other}"),
    }
}

/// Checks one outcome: feasible, complete, and its span equal to the span
/// recomputed from the schedule as a union of busy intervals.
fn check(outcome: &SimOutcome, what: &str, out: &mut Outcome) -> bool {
    if !outcome.is_feasible() || !outcome.schedule.is_complete() {
        out.problem(format!("{what}: infeasible or incomplete outcome"));
        return false;
    }
    let inst = &outcome.instance;
    let busy = IntervalSet::from_intervals(
        inst.iter()
            .filter_map(|(id, _)| outcome.schedule.active_interval(inst, id)),
    );
    if busy.measure() != outcome.span {
        out.problem(format!(
            "{what}: span {} but the schedule's busy union measures {}",
            outcome.span,
            busy.measure()
        ));
        return false;
    }
    true
}

fn parse_all(paths: &[std::path::PathBuf]) -> Result<Vec<Instance>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_trace(&text)
                .map(|t| t.instance)
                .map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// Drives the engine layers; reports only per-layer metrics.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut paths = Vec::new();
    for (i, scenario) in SCENARIOS.iter().enumerate() {
        let inst = scenario.generate(TRACE_JOBS, ctx.seed.wrapping_add(i as u64));
        let path = ctx.run_dir.join(format!("{}.csv", scenario.name()));
        std::fs::write(&path, write_trace(&inst, None))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        paths.push(path);
    }
    let mut parse_s = Vec::with_capacity(PARSES);
    let mut traces = Vec::new();
    for _ in 0..PARSES {
        let t0 = Instant::now();
        traces = tracer.span("workloads.io.parse_trace", 0, || parse_all(&paths))?;
        parse_s.push(t0.elapsed().as_secs_f64());
    }
    out.set("workloads.io.parse_trace_ms", median(&parse_s) * 1e3);

    // Passes of every scheduler over every trace. The first pass checks
    // each outcome in full; later ones that its event counts repeat.
    let kinds = SchedulerKind::full_set();
    let mut times = vec![vec![Vec::new(); kinds.len()]; traces.len()];
    let mut first: Vec<Vec<RunStats>> = Vec::new();
    let mut events = [0usize; 6];
    let (mut peak_queue, mut peak_retained, mut arena_slots) = (0, 0, 0);
    let t0 = Instant::now();
    let mut pass = 0;
    while pass < 2 || t0.elapsed() < ctx.budget(0.1) {
        for (ti, inst) in traces.iter().enumerate() {
            if pass == 0 {
                first.push(Vec::new());
            }
            for (ki, kind) in kinds.iter().enumerate() {
                let start = Instant::now();
                let outcome = tracer.span("sim.run", pass as u64, || kind.run_on(inst));
                times[ti][ki].push(start.elapsed().as_secs_f64());
                let what = format!("{} on {}", kind.short_name(), SCENARIOS[ti].name());
                out.attempted += 1;
                let ok = if pass == 0 {
                    let stats = outcome.stats;
                    first[ti].push(stats);
                    for (t, (_, n)) in events.iter_mut().zip(stats.events_by_kind()) {
                        *t += n;
                    }
                    peak_queue = peak_queue.max(stats.peak_queue);
                    peak_retained = peak_retained.max(stats.peak_retained);
                    arena_slots = arena_slots.max(stats.arena_slots);
                    check(&outcome, &what, &mut out)
                } else if first[ti][ki].events_by_kind() != outcome.stats.events_by_kind() {
                    out.problem(format!("{what}: event counts differ from the first pass"));
                    false
                } else {
                    true
                };
                if !ok {
                    out.failed += 1;
                }
            }
        }
        pass += 1;
    }
    let mut pass_s = 0.0;
    for (ki, kind) in kinds.iter().enumerate() {
        let s: f64 = times.iter().map(|per_kind| median(&per_kind[ki])).sum();
        out.set(run_ms_metric(*kind), s * 1e3);
        pass_s += s;
    }
    for ((kind, _), n) in RunStats::default().events_by_kind().iter().zip(events) {
        out.set(event_metric(kind), n as f64);
    }
    let total_events: usize = events.iter().sum();
    out.set("sim.ns_per_event", pass_s * 1e9 / total_events as f64);
    out.set("sim.peak_queue", peak_queue as f64);
    out.set("sim.peak_retained", peak_retained as f64);
    out.set("sim.arena_slots", arena_slots as f64);

    // One more pass with the engine's own phase clocks on.
    let (mut total, mut sched, mut env) = (0.0, 0.0, 0.0);
    for inst in &traces {
        for kind in &kinds {
            let config = SimConfig {
                time_phases: true,
                ..SimConfig::default()
            };
            let static_env = StaticEnv::new(inst, kind.information_model());
            let o = tracer.span("sim.run_with_config", pass as u64, || {
                run_with_config(static_env, kind.build(), config)
            });
            total += o.stats.wall_total_s;
            sched += o.stats.wall_scheduler_s;
            env += o.stats.wall_environment_s;
        }
    }
    out.set("sim.scheduler_share", sched / total);
    out.set("sim.environment_share", env / total);
    let jobs: usize = traces.iter().map(Instance::len).sum();
    out.notes.push(format!(
        "engine: {pass} passes of 7 schedulers x 3 traces ({jobs} jobs), medians per run; \
         phase clocks on for one more"
    ));
    Ok(out)
}
