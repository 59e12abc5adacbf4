//! Frozen engine outputs. `tests/golden/engine.txt` holds one line per
//! cell, `<cell> decisions=<digest> counters=<digest>`, each an FNV-1a-64
//! digest ([`fnv1a`]) of one run of `fjs_core::sim::run_with_config`:
//!
//! - `decisions`: the rendered decision log (`TraceMode::Full`), the span,
//!   every job's arrival, deadline, length and start, the violations, the
//!   rejected actions, the termination and the unresolved jobs;
//! - `counters`: `events_processed` and every `RunStats` counter (the
//!   three wall clocks are measurements and enter as zero).
//!
//! Every `f64` enters as its bits or through `{:?}`, never at a fixed
//! precision. The table pins the `(time, kind-order, seq)` event contract
//! on the full scheduler registry over the seeded μ×slack×load family
//! grid, the committed `tests/corpus/` counterexamples (chaos targets
//! exercising violation/force-start paths), the Theorem 3.3 adaptive
//! adversary (LengthProbe / deferred-ruling paths), the Fibonacci
//! clairvoyant adversary, and event-cap-truncated partial runs; one test
//! checks the whole table and one each of those five paths' rows. A
//! mismatch names each changed, missing and added cell with its old and
//! new digests, then prints the whole actual table. Each completed run's
//! incremental span must also equal the bits of the schedule's
//! busy-interval union, measured independently of the engine.
//!
//! The table is the reference: a change that moves a digest must explain
//! why, and replaces the file with the printed table. Beside it,
//! [`recycled_scratch_matches_fresh_thread_runs`] compares the engine with
//! itself across its thread-local scratch pool, on the same text the
//! digests hash.

use fjs::adversary::{CvAdversary, NcAdversary, NcAdversaryParams};
use fjs::schedulers::SchedulerKind;
use fjs::workloads::{IntFamily, LoadRegime, SlackRegime};
use fjs_core::faults::ChaosScheduler;
use fjs_core::job::{Instance, JobId};
use fjs_core::service::fnv1a;
use fjs_core::sim::{
    render_trace, run_with_config, RunStats, SimConfig, SimOutcome, StaticEnv, Termination,
    TraceMode,
};
use fjs_prng::check::case_seed;
use fjs_testkit::{all_targets, load_dir, Target};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;

const FIXTURE: &str = include_str!("golden/engine.txt");

fn config() -> SimConfig {
    SimConfig {
        max_events: 1_000_000,
        trace: TraceMode::Full,
        ..SimConfig::default()
    }
}

fn run_target(target: Target, inst: &Instance) -> SimOutcome {
    run_target_with(target, inst, config())
}

fn run_target_with(target: Target, inst: &Instance, cfg: SimConfig) -> SimOutcome {
    let env = StaticEnv::new(inst, target.information_model());
    match target {
        Target::Kind(kind) => run_with_config(env, kind.build(), cfg),
        Target::Chaos { inner, mode } => {
            run_with_config(env, ChaosScheduler::new(inner.build(), mode), cfg)
        }
    }
}

/// Wall clocks are measurements, not decisions; everything else must match.
fn zero_walls(mut s: RunStats) -> RunStats {
    s.wall_total_s = 0.0;
    s.wall_scheduler_s = 0.0;
    s.wall_environment_s = 0.0;
    s
}

/// Every cell of the table with its outcome, in fixture order.
fn cells() -> Vec<(String, SimOutcome)> {
    let mut cells = Vec::new();

    // The full registry over the seeded μ×slack×load family grid.
    let mut case = 0usize;
    for target in all_targets() {
        for &mu in &[1u64, 2, 4] {
            for &slack in &[
                SlackRegime::Rigid,
                SlackRegime::Tight,
                SlackRegime::Proportional,
                SlackRegime::Generous,
            ] {
                for &load in &[LoadRegime::Burst, LoadRegime::Moderate, LoadRegime::Sparse] {
                    let fam = IntFamily {
                        n: 6,
                        mu,
                        slack,
                        load,
                    };
                    for rep in 0..2 {
                        let inst = fam.generate(case_seed(0xe901, case));
                        let cell = format!("grid/{}/{}/rep{rep}", target.name(), fam.label());
                        cells.push((cell, run_target(target, &inst)));
                        case += 1;
                    }
                }
            }
        }
    }

    // Every committed counterexample: chaos targets drive the violation,
    // rejection and force-start paths.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let entries = load_dir(&dir).expect("corpus must load");
    assert!(
        !entries.is_empty(),
        "corpus ships at least the chaos entries"
    );
    for (path, entry) in &entries {
        let target = Target::from_name(&entry.target)
            .unwrap_or_else(|| panic!("{}: unknown target {}", path.display(), entry.target));
        let name = path.file_name().expect("corpus file").to_string_lossy();
        cells.push((
            format!("corpus/{name}"),
            run_target(target, &entry.instance),
        ));
    }

    // The Theorem 3.3 adaptive adversary rules lengths *after* starts via
    // deferred probes, the one path static instances never reach.
    for &mu in &[2.0, 4.0] {
        for &n in &[4usize, 9] {
            for kind in SchedulerKind::non_clairvoyant_set() {
                let env = NcAdversary::new(NcAdversaryParams::uniform(mu, 2, n));
                cells.push((
                    format!("nc-adversary/mu={mu}/n={n}/{}", kind.short_name()),
                    run_with_config(env, kind.build(), config()),
                ));
            }
        }
    }

    // The clairvoyant lower-bound adversary releases jobs reactively
    // based on the world state it observes.
    for &n in &[3usize, 5, 8] {
        for kind in SchedulerKind::clairvoyant_set() {
            cells.push((
                format!("cv-adversary/n={n}/{}", kind.short_name()),
                run_with_config(CvAdversary::new(n), kind.build(), config()),
            ));
        }
    }

    // Event-cap-truncated runs: termination, unresolved lists and
    // placeholder instances of *partial* outcomes.
    let fam = IntFamily {
        n: 12,
        mu: 4,
        slack: SlackRegime::Tight,
        load: LoadRegime::Burst,
    };
    let inst = fam.generate(case_seed(0xe902, 0));
    for cap in [1usize, 3, 7, 15, 30] {
        let cfg = SimConfig {
            max_events: cap,
            ..config()
        };
        let kind = SchedulerKind::Batch;
        let env = StaticEnv::new(&inst, kind.information_model());
        cells.push((
            format!("event-cap/{cap}/{}", kind.short_name()),
            run_with_config(env, kind.build(), cfg),
        ));
    }
    cells
}

/// What a cell's two digests cover, as text: the decisions, then the
/// counters.
fn render(out: &SimOutcome) -> (String, String) {
    let mut decisions = render_trace(&out.trace);
    let d = &mut decisions;
    writeln!(d, "span {:016x}", out.span.get().to_bits()).unwrap();
    for i in 0..out.instance.len() {
        let id = JobId(i as u32);
        let job = out.instance.job(id);
        writeln!(
            d,
            "{id} {:016x} {:016x} {:016x} {:?}",
            job.arrival().get().to_bits(),
            job.deadline().get().to_bits(),
            job.length().get().to_bits(),
            out.schedule.start(id).map(|t| t.get().to_bits())
        )
        .unwrap();
    }
    writeln!(d, "violations {:?}", out.violations).unwrap();
    writeln!(d, "rejected {:?}", out.rejected_actions).unwrap();
    writeln!(d, "termination {:?}", out.termination).unwrap();
    writeln!(d, "unresolved {:?}", out.unresolved).unwrap();
    // `{:?}` of the whole struct names every counter, a new one included.
    let counters = format!(
        "events_processed={} {:?}",
        out.events_processed,
        zero_walls(out.stats)
    );
    (decisions, counters)
}

/// Splits a table into `cell -> "decisions=… counters=…"`, keeping order.
fn parse(table: &str) -> Vec<(&str, &str)> {
    table
        .lines()
        .map(|line| line.split_once(' ').unwrap_or((line, "")))
        .collect()
}

/// The actual digest table, one line per cell in fixture order. It is
/// computed once and shared by every test that compares rows.
fn table() -> &'static str {
    static TABLE: OnceLock<String> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = String::new();
        for (cell, out) in cells() {
            if out.termination.is_completed() {
                assert_eq!(
                    out.span.get().to_bits(),
                    out.schedule.span(&out.instance).get().to_bits(),
                    "{cell}: running span {} vs the schedule's union {}",
                    out.span,
                    out.schedule.span(&out.instance)
                );
            }
            let (decisions, counters) = render(&out);
            writeln!(
                table,
                "{cell} decisions={:016x} counters={:016x}",
                fnv1a(decisions.as_bytes()),
                fnv1a(counters.as_bytes())
            )
            .unwrap();
        }
        table
    })
}

/// Compares the rows whose cell starts with `prefix` (every row for `""`)
/// with the fixture's. A mismatch lists each changed, missing and added
/// cell with its old and new digests, then prints the whole actual table.
fn assert_rows_match(prefix: &str) {
    let table = table();
    let rows = |t| -> Vec<_> {
        let mut rows = parse(t);
        rows.retain(|(cell, _)| cell.starts_with(prefix));
        rows
    };
    let (old, new) = (rows(FIXTURE), rows(table));
    assert!(!new.is_empty(), "no cell starts with {prefix:?}");
    if old == new {
        return;
    }

    let (old_map, new_map): (BTreeMap<_, _>, BTreeMap<_, _>) =
        (old.iter().copied().collect(), new.iter().copied().collect());
    let mut report = String::new();
    for &(cell, digests) in &old {
        match new_map.get(cell) {
            Some(&now) if now != digests => {
                writeln!(report, "changed {cell}: {digests} -> {now}").unwrap()
            }
            Some(_) => {}
            None => writeln!(report, "missing {cell}: {digests}").unwrap(),
        }
    }
    for &(cell, digests) in &new {
        if !old_map.contains_key(cell) {
            writeln!(report, "added {cell}: {digests}").unwrap();
        }
    }
    panic!(
        "engine outputs differ from tests/golden/engine.txt:\n{report}\
         actual table:\n{table}"
    );
}

/// The whole table, row order included: the test whose printed table
/// replaces the fixture after an explained change.
#[test]
fn engine_outputs_match_the_frozen_reference() {
    assert_rows_match("");
}

// One test per path the fixture pins, so a failure names the path. The
// rows were frozen from an engine that matched the legacy reference
// engine on every one of these cells, before that engine was deleted.

#[test]
fn registry_matches_legacy_on_family_grid() {
    assert_rows_match("grid/");
}

#[test]
fn corpus_counterexamples_match_legacy() {
    assert_rows_match("corpus/");
}

#[test]
fn adaptive_adversary_matches_legacy() {
    assert_rows_match("nc-adversary/");
}

#[test]
fn clairvoyant_adversary_matches_legacy() {
    assert_rows_match("cv-adversary/");
}

#[test]
fn event_cap_partial_outcomes_match_legacy() {
    assert_rows_match("event-cap/");
}

/// The fixture must pin every registered scheduler on the whole family
/// grid: 3 μ × 4 slack × 3 load × 2 reps.
#[test]
fn equivalence_covers_every_registered_kind() {
    for target in all_targets() {
        let prefix = format!("grid/{}/", target.name());
        let rows = FIXTURE.lines().filter(|l| l.starts_with(&prefix)).count();
        assert_eq!(
            rows,
            72,
            "tests/golden/engine.txt has {rows} grid rows for {}",
            target.name()
        );
    }
}

/// The engine parks its allocations (arena world, event heap, scratch
/// buffers) in a thread-local pool between runs. A recycled run must be
/// bit-identical to a fresh-thread run — including after a much larger run
/// has grown the pooled heap and arena in between, after an event-capped
/// run has parked a heap that still holds events, and across different
/// schedulers and information models sharing one thread.
#[test]
fn recycled_scratch_matches_fresh_thread_runs() {
    let small = Instance::new(vec![
        fjs_core::job::Job::adp(0.0, 3.0, 1.0),
        fjs_core::job::Job::adp(0.5, 3.5, 2.0),
        fjs_core::job::Job::adp(2.0, 2.5, 0.5),
    ]);
    let big = Instance::new(
        (0..600)
            .map(|i| {
                let a = (i as f64) * 0.17;
                fjs_core::job::Job::adp(a, a + 4.0, 1.0 + (i % 7) as f64 * 0.3)
            })
            .collect::<Vec<_>>(),
    );

    for target in all_targets() {
        // Fresh thread: the very first run finds an empty pool.
        let fresh = std::thread::spawn({
            let small = small.clone();
            move || run_target(target, &small)
        })
        .join()
        .expect("fresh-thread run");

        // Same thread, pool warmed — first by the small run itself, then by
        // a big run that grows the pooled arena and event heap, then by a
        // capped run of the big instance that stops with events queued.
        let warmed = std::thread::spawn({
            let (small, big) = (small.clone(), big.clone());
            move || {
                let first = run_target(target, &small);
                let grown = run_target(target, &big);
                assert!(grown.termination.is_completed());
                let capped_cfg = SimConfig {
                    max_events: 50,
                    ..config()
                };
                let capped = run_target_with(target, &big, capped_cfg);
                assert_eq!(
                    capped.termination,
                    Termination::EventCapExhausted { events: 50 }
                );
                let second = run_target(target, &small);
                (first, second)
            }
        })
        .join()
        .expect("warmed-thread runs");

        let label = format!("{target:?} (recycled vs fresh)");
        assert_eq!(render(&warmed.0), render(&fresh), "{label}");
        assert_eq!(render(&warmed.1), render(&fresh), "{label}");
    }
}
