//! The `fjs` experiment runner.
//!
//! ```text
//! fjs list                 # show the experiment registry
//! fjs e3                   # run one experiment (quick profile)
//! fjs e3 --full            # full parameter grid
//! fjs all --full           # everything (regenerates EXPERIMENTS.md data)
//! fjs e5 --csv out/        # additionally write each table as CSV
//! fjs gantt batch+         # visualize a scheduler on a demo workload
//! fjs trace jobs.csv       # run every scheduler on your own CSV trace
//! fjs audit profit         # run a scheduler and audit it against its rules
//! fjs chaos                # fault-injection matrix over every scheduler
//! fjs chaos batch+         # fault-injection matrix for one scheduler
//! fjs stats batch+         # engine RunStats counters for one scheduler
//! fjs stats all --log-jsonl runs.jsonl   # counters for all, logged as JSONL
//! fjs bench --json new.json              # time the bench suite, write its records
//! fjs bench-diff old.json new.json       # gate new.json against old.json
//! fjs conform all          # property-based conformance: every scheduler × oracle
//! fjs conform uniform      # the uniform-jobs family on the unit-length deck
//! fjs conform batch+ --cases 256 --seed 7    # one scheduler, deeper run
//! fjs conform chaos        # harness self-test: must fail and shrink
//! fjs conform all --journal c.jsonl          # checkpoint every finished cell
//! fjs conform all --journal c.jsonl --resume # skip journalled cells after a kill
//! fjs soak all --cells 256 --journal s.jsonl # supervised long-running sweep
//! fjs soak batch --minutes 10 --journal s.jsonl --resume  # continue after Ctrl-C
//! fjs soak batch --poison hang --watchdog-events 20000 --journal p.jsonl
//! ```
//!
//! Exit codes: 0 success, 1 runtime failure (failed audit, unsound chaos
//! cell, conformance oracle violation, bench regression past threshold or
//! a baseline case missing, unreadable/unparseable input, I/O error), 2
//! usage error.

use fjs_cli::experiments::{all, by_id, Experiment, Profile};
use fjs_core::supervise::DEFAULT_WATCHDOG_EVENTS;
use std::io::{ErrorKind, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Set once a write to stdout has failed; later output is dropped.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes command output to stdout, like `print!`, through
/// [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

/// [`out!`] with a trailing newline, like `println!`.
macro_rules! outln {
    ($($arg:tt)*) => { write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

/// Writes to the locked, line-buffered stdout. Once stdout's reader has
/// gone away (`fjs … | head`), the rest of the output is dropped instead
/// of panicking as `println!` does, so the command still writes its files
/// and exits with its own status. Any other write error is reported once,
/// and output stops there too.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
        if e.kind() != ErrorKind::BrokenPipe {
            eprintln!("fjs: cannot write to stdout: {e}");
        }
    }
}

/// The single error path: every subcommand reports failures as one of
/// these, and only `main` turns them into exit codes.
enum CliError {
    /// Bad invocation (unknown command, malformed flags): exit 2.
    Usage(Option<String>),
    /// The invocation was fine but the work failed: exit 1.
    Runtime(String),
}

impl CliError {
    fn usage() -> Self {
        CliError::Usage(None)
    }
}

const USAGE: &str = "usage: fjs <list | all | e1..e15> [--full] [--csv <dir>]\n\
 \u{20}      fjs gantt [scheduler] [seed]\n\
 \u{20}      fjs trace <file.csv>\n\
 \u{20}      fjs audit <batch|batch+|profit> [seed]\n\
 \u{20}      fjs chaos [scheduler] [--watchdog-events <n>]\n\
 \u{20}      fjs stats <scheduler|all> [--n <jobs>] [--seed <s>] [--log-jsonl <file>]\n\
 \u{20}      fjs bench [--json <file>] [--quick]\n\
 \u{20}      fjs bench-diff <old.json> <new.json> [--max-regress <pct>]   (default 20)\n\
 \u{20}      fjs conform <scheduler|all|uniform|chaos> [--cases <n>] [--seed <s>] [--quick]\n\
 \u{20}                  [--deck main|uniform] [--corpus <dir>] [--journal <file>] [--resume]\n\
 \u{20}                  [--watchdog-events <n>] [--shards <n>]\n\
 \u{20}      fjs soak <scheduler|all|chaos> --journal <file> [--cells <n>] [--seed <s>]\n\
 \u{20}               [--seconds <s> | --minutes <m>] [--resume] [--watchdog-events <n>]\n\
 \u{20}               [--poison panic|hang] [--trace <file.csv>] [--throttle-ms <n>] [--shards <n>]\n\
 \u{20}      fjs serve [--input <file> | --socket <path> and/or --tcp <addr>] [--log <file>]\n\
 \u{20}                [--journal <file>] [--resume] [--workers <n>] [--max-sessions <n>]\n\
 \u{20}                [--max-pending <n>] [--watchdog-events <n>] [--quarantine halt|skip|dead-letter]\n\
 \u{20}                [--checkpoint-every <n>] [--throttle-ms <n>] [--stats-jsonl <file>]\n\
 \u{20}                [--tenant-max-sessions <n>] [--tenant-max-pending <n>] [--tenant-max-bytes <n>]\n\
 \u{20}                [--breaker-threshold <n>] [--breaker-cooldown <events>]\n\
 \u{20}                [--max-frame-bytes <n>] [--writer-queue <n>]\n\
 \u{20}      fjs loadgen (--emit <file|-> | --socket <path> | --tcp <addr>) [--sessions <n>]\n\
 \u{20}                [--jobs <n>] [--rate <r>] [--seed <s>] [--scheduler <spec>] [--mean-length <x>]\n\
 \u{20}                [--laxity <x>] [--concurrency <k>] [--json <file>] [--sid-prefix <p>]\n\
 \u{20}                [--misbehave torn|garbage|giant|partial|disconnect|slowloris]\n\
 \u{20}      fjs fuzz-serve (--socket <path> and/or --tcp <addr>) [--seed <s>] [--connections <n>]\n\
 \u{20}                [--frames <n>] [--scheduler <spec>] [--emit-clean <file>]\n\
 Reproduces the figures/theorems of Ren & Tang, SPAA 2017 (see DESIGN.md).\n\
 Exit codes: 0 ok, 1 runtime failure, 2 usage error.";

fn pick_scheduler(name: &str) -> Result<fjs_schedulers::SchedulerKind, CliError> {
    let lower = name.to_ascii_lowercase();
    let canonical = if lower == "semi-cdb" {
        "semicdb"
    } else {
        lower.as_str()
    };
    fjs_schedulers::SchedulerKind::from_short_name(canonical).ok_or_else(|| {
        CliError::Usage(Some(format!(
            "unknown scheduler '{name}' (try eager/lazy/batch/batch+/cdb/profit/doubler/\
             random/threshold/semicdb)"
        )))
    })
}

fn cmd_gantt(args: &[String]) -> Result<(), CliError> {
    let kind = pick_scheduler(args.first().map(String::as_str).unwrap_or("batch+"))?;
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    let inst = fjs_workloads::Scenario::BurstyAnalytics.generate(24, seed);
    let out = kind.run_on(&inst);
    let metrics = fjs_core::metrics::schedule_metrics(&out.instance, &out.schedule);
    outln!(
        "{} on bursty-analytics (24 jobs, seed {seed}):\n",
        kind.label()
    );
    outln!(
        "{}",
        fjs_analysis::render_gantt(
            &out.instance,
            &out.schedule,
            fjs_analysis::GanttOptions::default()
        )
    );
    outln!(
        "span = {:.2}  peak concurrency = {}  mean concurrency = {:.2}  laxity used = {:.0}%",
        metrics.span.get(),
        metrics.peak_concurrency,
        metrics.mean_concurrency,
        100.0 * metrics.laxity_utilization
    );
    Ok(())
}

fn cmd_audit(args: &[String]) -> Result<(), CliError> {
    use fjs_core::sim::{run_static, Clairvoyance};
    use fjs_schedulers::FlagRecorder;
    let which = args.first().map(String::as_str).unwrap_or("batch+");
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(7);
    let inst = fjs_workloads::Scenario::CloudBatch.generate(300, seed);
    let verdict = match which {
        "batch" => {
            let mut s = fjs_schedulers::Batch::new();
            let out = run_static(&inst, Clairvoyance::NonClairvoyant, &mut s);
            fjs_schedulers::audit_batch(&out.instance, &out.schedule, &s.flag_jobs())
                .map(|()| (out.span, s.flag_jobs().len()))
        }
        "batch+" | "batchplus" => {
            let mut s = fjs_schedulers::BatchPlus::new();
            let out = run_static(&inst, Clairvoyance::NonClairvoyant, &mut s);
            fjs_schedulers::audit_batch_plus(&out.instance, &out.schedule, &s.flag_jobs())
                .map(|()| (out.span, s.flag_jobs().len()))
        }
        "profit" => {
            let mut s = fjs_schedulers::Profit::optimal();
            let out = run_static(&inst, Clairvoyance::Clairvoyant, &mut s);
            fjs_schedulers::audit_profit(
                &out.instance,
                &out.schedule,
                &s.flag_jobs(),
                fjs_schedulers::OPTIMAL_K,
            )
            .map(|()| (out.span, s.flag_jobs().len()))
        }
        other => {
            return Err(CliError::Usage(Some(format!(
                "cannot audit '{other}' (try batch, batch+, profit)"
            ))));
        }
    };
    match verdict {
        Ok((span, flags)) => {
            outln!(
                "audit PASSED: {which} on cloud-batch (300 jobs, seed {seed}) — \
                 span {span}, {flags} flag jobs, every start justified by the paper's rules"
            );
            Ok(())
        }
        Err(e) => Err(CliError::Runtime(format!("audit FAILED: {e}"))),
    }
}

fn cmd_trace(args: &[String]) -> Result<(), CliError> {
    let Some(path) = args.first() else {
        return Err(CliError::usage());
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("cannot read {path}: {e}")))?;
    let trace = fjs_workloads::parse_trace(&text)
        .map_err(|e| CliError::Runtime(format!("cannot parse {path}: {e}")))?;
    let inst = trace.instance;
    let lb = fjs_opt::best_lower_bound(&inst).get();
    let stats = fjs_workloads::workload_stats(&inst);
    outln!(
        "{path}: {} jobs, μ = {:.2}, mean laxity/length = {:.2}, {:.0}% rigid, \
         load = {:.2}, OPT span ≥ {lb:.3}\n",
        stats.n,
        stats.mu,
        stats.mean_laxity_ratio,
        100.0 * stats.rigid_fraction,
        stats.load,
    );
    let mut table = fjs_analysis::Table::new(
        "scheduler comparison",
        &["scheduler", "span", "span/OPT-LB", "peak concurrency"],
    );
    for kind in fjs_schedulers::SchedulerKind::full_set() {
        let out = kind.run_on(&inst);
        let m = fjs_core::metrics::schedule_metrics(&out.instance, &out.schedule);
        table.push_row(vec![
            kind.label(),
            format!("{:.3}", out.span.get()),
            format!("{:.3}", out.span.get() / lb),
            format!("{}", m.peak_concurrency),
        ]);
    }
    outln!("{}", table.render());
    Ok(())
}

fn cmd_chaos(args: &[String]) -> Result<(), CliError> {
    use fjs_schedulers::chaos::run_chaos_matrix;
    use fjs_schedulers::SchedulerKind;

    let mut args = args.to_vec();
    let watchdog = take_watchdog_events(&mut args)?;
    let kinds = match args.first() {
        Some(name) => vec![pick_scheduler(name)?],
        None => SchedulerKind::registered_set(),
    };
    let report = run_chaos_matrix(&kinds, watchdog);

    let env_total = fjs_core::faults::EnvFaultMode::ALL.len();
    let sched_total = fjs_core::faults::SchedFaultMode::ALL.len();
    outln!(
        "fault-injection matrix: {} scheduler(s) × ({env_total} environment + \
         {sched_total} scheduler action) fault modes = {} cells\n",
        kinds.len(),
        report.cells.len(),
    );

    let mut table = fjs_analysis::Table::new(
        "chaos verdicts",
        &["scheduler", "env faults", "action faults", "verdict"],
    );
    for sched in report.scheduler_labels() {
        let passed = |prefix: &str| {
            report
                .cells
                .iter()
                .filter(|c| {
                    c.scheduler == sched && c.fault.starts_with(prefix) && c.verdict.is_completed()
                })
                .count()
        };
        let clean = report
            .cells
            .iter()
            .filter(|c| c.scheduler == sched)
            .all(|c| c.verdict.is_completed());
        table.push_row(vec![
            sched.clone(),
            format!("{}/{env_total}", passed("env:")),
            format!("{}/{sched_total}", passed("sched:")),
            (if clean { "pass" } else { "FAIL" }).to_string(),
        ]);
    }
    outln!("{}", table.render());

    // The ingestion side of the chaos matrix: every IO fault mode against
    // every TraceReader quarantine policy.
    let io_cells = fjs_workloads::run_io_chaos(1);
    let mut io_table = fjs_analysis::Table::new(
        "ingestion fault matrix (TraceReader quarantine)",
        &["io fault", "policy", "verdict", "detail"],
    );
    for c in &io_cells {
        io_table.push_row(vec![
            c.mode.label().to_string(),
            c.policy.label().to_string(),
            (if c.passed { "pass" } else { "FAIL" }).to_string(),
            c.detail.clone(),
        ]);
    }
    outln!("{}", io_table.render());

    let failures = report.failures();
    let io_failures = io_cells.iter().filter(|c| !c.passed).count();
    if failures.is_empty() && io_failures == 0 {
        outln!(
            "all cells pass: no panics, every run completed with a valid full schedule, \
             every malformed trace was quarantined per policy."
        );
        Ok(())
    } else {
        if !failures.is_empty() {
            let mut detail =
                fjs_analysis::Table::new("failing cells", &["scheduler", "fault", "verdict"]);
            for c in &failures {
                detail.push_row(vec![
                    c.scheduler.clone(),
                    c.fault.clone(),
                    c.verdict.to_string(),
                ]);
            }
            outln!("{}", detail.render());
        }
        Err(CliError::Runtime(format!(
            "chaos found {} failing cell(s) out of {}",
            failures.len() + io_failures,
            report.cells.len() + io_cells.len()
        )))
    }
}

/// Removes a boolean `--flag` from `args`, returning whether it was present.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Pulls the value of `--flag <value>` out of `args`, removing both tokens.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, CliError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => {
            if i + 1 >= args.len() {
                return Err(CliError::Usage(Some(format!("{flag} needs a value"))));
            }
            let value = args.remove(i + 1);
            args.remove(i);
            Ok(Some(value))
        }
    }
}

/// Pulls `--watchdog-events <n>` out of `args`: the engine-event budget of
/// every watchdogged run (default [`DEFAULT_WATCHDOG_EVENTS`]). A budget of
/// 0 would cut every run off at its first event, so it is a usage error.
fn take_watchdog_events(args: &mut Vec<String>) -> Result<usize, CliError> {
    const FLAG: &str = "--watchdog-events";
    match take_flag_value(args, FLAG)? {
        None => Ok(DEFAULT_WATCHDOG_EVENTS),
        Some(v) => match v.parse() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(CliError::Usage(Some(format!(
                "{FLAG}: '{v}' is not a positive event count"
            )))),
        },
    }
}

fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    use fjs_core::sim::{run_with_config, SimConfig, StaticEnv};
    use fjs_schedulers::SchedulerKind;
    use fjs_workloads::Scenario;

    let mut args = args.to_vec();
    let n: usize = match take_flag_value(&mut args, "--n")? {
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(Some(format!("--n: '{v}' is not a job count"))))?,
        None => 500,
    };
    let seed: u64 = match take_flag_value(&mut args, "--seed")? {
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(Some(format!("--seed: '{v}' is not a seed"))))?,
        None => 42,
    };
    let jsonl_path = take_flag_value(&mut args, "--log-jsonl")?;

    let which = args.first().map(String::as_str).unwrap_or("all");
    let kinds = match which {
        "all" => SchedulerKind::full_set(),
        name => vec![pick_scheduler(name)?],
    };

    let mut table = fjs_analysis::Table::new(
        format!("engine run stats ({n} jobs, seed {seed})"),
        &[
            "scheduler",
            "scenario",
            "events",
            "peak queue",
            "applied",
            "rejected",
            "force-starts",
            "wakeups",
            "wall",
            "sched%",
            "env%",
        ],
    );
    let mut jsonl = String::new();
    for kind in &kinds {
        for sc in Scenario::all() {
            let inst = sc.generate(n, seed);
            let cache_before = fjs_opt::cache::stats();
            let out = run_with_config(
                StaticEnv::new(&inst, kind.information_model()),
                kind.build(),
                SimConfig {
                    time_phases: true,
                    ..SimConfig::default()
                },
            );
            let mut s = out.stats;
            // The engine never touches the exact-optimum memo itself; copy
            // the process-wide cache movement observed during this run in,
            // as `RunStats` documents harnesses should.
            let cache_after = fjs_opt::cache::stats();
            s.opt_cache_hits = cache_after.hits - cache_before.hits;
            s.opt_cache_misses = cache_after.misses - cache_before.misses;
            debug_assert!(s.is_consistent());
            let pct = |part: f64| {
                if s.wall_total_s > 0.0 {
                    100.0 * part / s.wall_total_s
                } else {
                    0.0
                }
            };
            table.push_row(vec![
                kind.label(),
                sc.name().to_string(),
                format!("{}", s.events_total),
                format!("{}", s.peak_queue),
                format!("{}", s.actions_applied),
                format!("{}", s.actions_rejected),
                format!("{}", s.force_starts),
                format!("{}", s.wakeups),
                format!("{:.2} ms", s.wall_total_s * 1e3),
                format!("{:.0}", pct(s.wall_scheduler_s)),
                format!("{:.0}", pct(s.wall_environment_s)),
            ]);
            if jsonl_path.is_some() {
                jsonl.push_str(&run_stats_jsonl_record(
                    &kind.label(),
                    sc.name(),
                    n,
                    seed,
                    out.span.get(),
                    &s,
                ));
            }
        }
    }
    outln!("{}", table.render());
    if let Some(path) = jsonl_path {
        use std::fs::OpenOptions;
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| CliError::Runtime(format!("cannot open {path}: {e}")))?;
        f.write_all(jsonl.as_bytes())
            .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
        outln!(
            "appended {} JSONL record(s) to {path}",
            kinds.len() * Scenario::all().len()
        );
    }
    Ok(())
}

/// One JSONL line per run: identifying fields plus every
/// [`fjs_core::sim::RunStats`] counter, for downstream sweep tooling.
fn run_stats_jsonl_record(
    scheduler: &str,
    scenario: &str,
    n: usize,
    seed: u64,
    span: f64,
    s: &fjs_core::sim::RunStats,
) -> String {
    use fjs_core::json::{fmt_f64, Line};
    let mut line = Line::new()
        .str("scheduler", scheduler)
        .str("scenario", scenario)
        .num("n", n)
        .num("seed", seed)
        .num("span", fmt_f64(span))
        .num("release_events", s.release_events)
        .num("jobs_released", s.jobs_released)
        .num("completions", s.completions)
        .num("ordered_starts", s.ordered_starts)
        .num("length_probes", s.length_probes)
        .num("deadline_alarms", s.deadline_alarms)
        .num("wakeups", s.wakeups)
        .num("events_total", s.events_total)
        .num("peak_queue", s.peak_queue)
        .num("actions_applied", s.actions_applied)
        .num("actions_rejected", s.actions_rejected)
        .num("force_starts", s.force_starts)
        .num("jobs_completed", s.jobs_completed)
        .num("peak_retained", s.peak_retained)
        .num("arena_slots", s.arena_slots)
        .num("opt_cache_hits", s.opt_cache_hits)
        .num("opt_cache_misses", s.opt_cache_misses)
        .num("wall_total_s", fmt_f64(s.wall_total_s))
        .num("wall_scheduler_s", fmt_f64(s.wall_scheduler_s))
        .num("wall_environment_s", fmt_f64(s.wall_environment_s))
        .finish();
    line.push('\n');
    line
}

/// Runs the in-process bench suite, prints the per-case report lines and
/// optionally writes the schema-v1 JSON (`--json <file>`, `-` for stdout).
/// `--quick` takes fewer samples per case; every case's input is the same.
fn cmd_bench(args: &[String]) -> Result<(), CliError> {
    let mut args = args.to_vec();
    let json_path = take_flag_value(&mut args, "--json")?;
    let quick = take_switch(&mut args, "--quick");
    if let Some(extra) = args.first() {
        return Err(CliError::Usage(Some(format!(
            "bench: unexpected argument '{extra}'"
        ))));
    }
    fjs_opt::cache::reset();
    let report = fjs_cli::bench::run_bench_suite(quick);
    let cache = fjs_opt::cache::stats();
    if cache.hits + cache.misses > 0 {
        eprintln!(
            "opt-cache: {}/{} lookups hit ({:.1}%), {} entries",
            cache.hits,
            cache.hits + cache.misses,
            100.0 * cache.hit_rate(),
            cache.entries,
        );
    }
    match json_path.as_deref() {
        None => {}
        Some("-") => out!("{}", report.to_json()),
        Some(path) => {
            std::fs::write(path, report.to_json())
                .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
            outln!("wrote {} case(s) to {path}", report.cases.len());
        }
    }
    Ok(())
}

fn cmd_bench_diff(args: &[String]) -> Result<(), CliError> {
    use fjs_analysis::benchjson::{diff_reports, BenchReport};

    let mut args = args.to_vec();
    let threshold = match take_flag_value(&mut args, "--max-regress")? {
        Some(v) => {
            let p: f64 = v.parse().map_err(|_| {
                CliError::Usage(Some(format!("--max-regress: '{v}' is not a number")))
            })?;
            if !(p.is_finite() && p >= 0.0) {
                return Err(CliError::Usage(Some(format!(
                    "--max-regress must be a non-negative percentage, got {v}"
                ))));
            }
            p / 100.0
        }
        None => 0.2,
    };
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(CliError::Usage(Some(format!(
            "bench-diff: unknown option '{flag}'"
        ))));
    }
    let [old_path, new_path] = args.as_slice() else {
        return Err(CliError::Usage(Some(
            "bench-diff needs exactly two files: <old.json> <new.json>".into(),
        )));
    };
    let load = |path: &str| -> Result<BenchReport, CliError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Runtime(format!("cannot read {path}: {e}")))?;
        BenchReport::parse(&text)
            .map_err(|e| CliError::Runtime(format!("cannot parse {path}: {e}")))
    };
    let old = load(old_path)?;
    let new = load(new_path)?;
    outln!(
        "old: {old_path} ({}, {} cases)\nnew: {new_path} ({}, {} cases)\n",
        old.git_describe,
        old.cases.len(),
        new.git_describe,
        new.cases.len(),
    );

    let diff = diff_reports(&old, &new);
    let mut table = fjs_analysis::Table::new(
        format!(
            "bench deltas (regression threshold +{:.0}%)",
            threshold * 100.0
        ),
        &["case", "old median", "new median", "ratio", "delta"],
    );
    for d in &diff.aligned {
        let flag = if d.relative_change() > threshold {
            "  <-- REGRESSION"
        } else {
            ""
        };
        table.push_row(vec![
            d.name.clone(),
            format!("{:.3e} s", d.old_median_s),
            format!("{:.3e} s", d.new_median_s),
            format!("{:.3}", d.ratio()),
            format!("{:+.1}%{flag}", d.relative_change() * 100.0),
        ]);
    }
    outln!("{}", table.render());
    for name in &diff.only_new {
        outln!("only in new: {name}");
    }
    if diff.aligned.is_empty() {
        return Err(CliError::Runtime(
            "no cases align by name; nothing was compared".into(),
        ));
    }

    // A case missing from the new report fails too: otherwise renaming or
    // dropping a case would quietly take it out of the gate.
    let regressions = diff.regressions(threshold);
    let mut failures = Vec::new();
    if !regressions.is_empty() {
        failures.push(format!(
            "{} case(s) regressed by more than {:.0}%",
            regressions.len(),
            threshold * 100.0
        ));
    }
    if !diff.only_old.is_empty() {
        failures.push(format!(
            "{} case(s) missing from {new_path}: {}",
            diff.only_old.len(),
            diff.only_old.join(", ")
        ));
    }
    if failures.is_empty() {
        outln!(
            "\nok: no case regressed by more than {:.0}% ({} compared)",
            threshold * 100.0,
            diff.aligned.len()
        );
        Ok(())
    } else {
        Err(CliError::Runtime(failures.join("; ")))
    }
}

fn cmd_conform(args: &[String]) -> Result<(), CliError> {
    use fjs_core::supervise::Journal;
    use fjs_testkit::{
        all_targets, row, run_conformance_with, save_entry, set_watchdog_events, uniform_targets,
        ConformConfig, ConformHooks, CorpusEntry, DeckKind, Expectation, Failure, Target,
    };
    use std::sync::Mutex;

    let mut args = args.to_vec();
    let cases: usize = match take_flag_value(&mut args, "--cases")? {
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(Some(format!("--cases: '{v}' is not a count"))))?,
        None => ConformConfig::default().cases,
    };
    let base_seed: u64 = match take_flag_value(&mut args, "--seed")? {
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(Some(format!("--seed: '{v}' is not a seed"))))?,
        None => ConformConfig::default().base_seed,
    };
    let quick = take_switch(&mut args, "--quick");
    let corpus_flag = take_flag_value(&mut args, "--corpus")?;
    let deck_flag = take_flag_value(&mut args, "--deck")?;
    set_watchdog_events(take_watchdog_events(&mut args)?);
    let shards: usize = match take_flag_value(&mut args, "--shards")? {
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(Some(format!("--shards: '{v}' is not a count"))))?,
        None => 0,
    };
    let journal_path = take_flag_value(&mut args, "--journal")?;
    let resume = take_switch(&mut args, "--resume");
    if resume && journal_path.is_none() {
        return Err(CliError::Usage(Some(
            "--resume needs --journal <file>".into(),
        )));
    }

    let which = args.first().map(String::as_str).unwrap_or("all");
    let (targets, default_deck): (Vec<Target>, DeckKind) = match which {
        "all" => (all_targets(), DeckKind::Main),
        "uniform" => (uniform_targets(), DeckKind::Uniform),
        "chaos" => (vec![Target::default_chaos()], DeckKind::Main),
        name => (
            vec![Target::from_name(name).ok_or_else(|| {
                CliError::Usage(Some(format!(
                    "unknown conformance target '{name}' (a scheduler short name, 'all', \
                     'uniform', 'chaos', or 'chaos:<mode>:<scheduler>')"
                )))
            })?],
            DeckKind::Main,
        ),
    };
    let deck = match deck_flag.as_deref() {
        None => default_deck,
        Some("main") => DeckKind::Main,
        Some("uniform") => DeckKind::Uniform,
        Some(v) => {
            return Err(CliError::Usage(Some(format!(
                "--deck: '{v}' is not a deck ('main' or 'uniform')"
            ))))
        }
    };
    // Uniform-deck counterexamples live in their own corpus directory so
    // the replay suites stay per-family.
    let corpus_dir = corpus_flag.unwrap_or_else(|| match deck {
        DeckKind::Main => "tests/corpus".into(),
        DeckKind::Uniform => "tests/corpus/uniform".into(),
    });

    let config = ConformConfig {
        cases,
        deck,
        base_seed,
        quick,
        shards,
        ..ConformConfig::default()
    };
    let journal = match &journal_path {
        None => None,
        Some(p) => {
            let j = if resume {
                Journal::resume(p)
            } else {
                Journal::create(p)
            }
            .map_err(|e| CliError::Runtime(format!("journal: {e}")))?;
            Some(Mutex::new(j))
        }
    };
    // Flush each counterexample to the corpus the moment it is shrunk, so
    // a killed sweep keeps everything found up to that point.
    let dir = std::path::PathBuf::from(&corpus_dir);
    let mut on_failure = |f: &Failure| {
        let entry = CorpusEntry {
            target: f.target.name(),
            oracle: f.oracle,
            expect: Expectation::Violate,
            note: format!(
                "shrunk from {} seed {} in {} evaluation(s)",
                f.family, f.seed, f.shrink_stats.evaluations
            ),
            instance: f.shrunk.clone(),
        };
        match save_entry(&dir, &entry) {
            Ok(path) => outln!("counterexample written: {}", path.display()),
            Err(e) => eprintln!("warning: could not save counterexample: {e}"),
        }
    };
    let hooks = ConformHooks {
        journal: journal.as_ref(),
        on_failure: Some(&mut on_failure),
    };
    let report = run_conformance_with(&targets, &config, hooks);
    if let Some(j) = journal {
        let mut j = j.into_inner().unwrap_or_else(|e| e.into_inner());
        j.compact()
            .map_err(|e| CliError::Runtime(format!("journal: {e}")))?;
    }
    outln!(
        "conformance: {} case(s) × {} target(s) = {} oracle checks \
         ({} mode, {} deck, base seed {base_seed})\n",
        report.cases,
        targets.len(),
        report.checks,
        if quick { "quick" } else { "full" },
        deck.name(),
    );
    if report.skipped > 0 {
        outln!(
            "resume: skipped {} already-journalled cell(s)\n",
            report.skipped
        );
    }

    let mut table = fjs_analysis::Table::new("guarantee table", &["target", "oracles", "verdict"]);
    for t in &targets {
        let oracle_ids: Vec<&str> = row(t).iter().map(|o| o.id()).collect();
        let fails = report.failures.iter().filter(|f| f.target == *t).count();
        table.push_row(vec![
            t.name(),
            oracle_ids.join(", "),
            if fails == 0 {
                "pass".into()
            } else {
                format!("FAIL ({fails} oracle(s))")
            },
        ]);
    }
    outln!("{}", table.render());

    if report.is_clean() {
        outln!(
            "all conformance oracles hold across {} check(s).",
            report.checks
        );
        return Ok(());
    }

    let mut detail = fjs_analysis::Table::new(
        "violations (minimized by the shrinker)",
        &[
            "target", "oracle", "family", "seed", "hits", "jobs", "shrunk", "detail",
        ],
    );
    for f in &report.failures {
        detail.push_row(vec![
            f.target.name(),
            f.oracle.id().to_string(),
            f.family.clone(),
            format!("{}", f.seed),
            format!("{}", f.occurrences),
            format!("{}", f.instance.len()),
            format!("{}", f.shrunk.len()),
            f.detail.clone(),
        ]);
    }
    outln!("{}", detail.render());

    Err(CliError::Runtime(format!(
        "conform: {} distinct oracle violation(s) across {} check(s)",
        report.failures.len(),
        report.checks
    )))
}

fn cmd_soak(args: &[String]) -> Result<(), CliError> {
    use fjs_cli::soak::{install_sigint_handler, run_soak, SoakOptions};
    use fjs_core::supervise::PoisonMode;
    use fjs_testkit::{all_targets, Target};
    use std::time::Duration;

    let mut args = args.to_vec();
    let parse_num = |flag: &str, v: String| -> Result<u64, CliError> {
        v.parse()
            .map_err(|_| CliError::Usage(Some(format!("{flag}: '{v}' is not a number"))))
    };
    let cells: usize = match take_flag_value(&mut args, "--cells")? {
        Some(v) => parse_num("--cells", v)? as usize,
        None => 64,
    };
    let base_seed: u64 = match take_flag_value(&mut args, "--seed")? {
        Some(v) => parse_num("--seed", v)?,
        None => 1,
    };
    let watchdog_events = take_watchdog_events(&mut args)?;
    let seconds = take_flag_value(&mut args, "--seconds")?
        .map(|v| parse_num("--seconds", v))
        .transpose()?;
    let minutes = take_flag_value(&mut args, "--minutes")?
        .map(|v| parse_num("--minutes", v))
        .transpose()?;
    let time_budget = match (seconds, minutes) {
        (None, None) => None,
        (s, m) => Some(Duration::from_secs(s.unwrap_or(0) + 60 * m.unwrap_or(0))),
    };
    let throttle = Duration::from_millis(match take_flag_value(&mut args, "--throttle-ms")? {
        Some(v) => parse_num("--throttle-ms", v)?,
        None => 0,
    });
    let stop_after = take_flag_value(&mut args, "--stop-after")?
        .map(|v| parse_num("--stop-after", v).map(|n| n as usize))
        .transpose()?;
    let shards: usize = match take_flag_value(&mut args, "--shards")? {
        Some(v) => parse_num("--shards", v)? as usize,
        None => 1,
    };
    let poison = match take_flag_value(&mut args, "--poison")? {
        None => None,
        Some(v) => Some(PoisonMode::from_label(&v).ok_or_else(|| {
            CliError::Usage(Some(format!("--poison: '{v}' is not a mode (panic, hang)")))
        })?),
    };
    let trace = take_flag_value(&mut args, "--trace")?.map(std::path::PathBuf::from);
    let resume = take_switch(&mut args, "--resume");
    let Some(journal) = take_flag_value(&mut args, "--journal")? else {
        return Err(CliError::Usage(Some("soak needs --journal <file>".into())));
    };
    if resume {
        // A --resume against a missing or empty journal would silently run
        // fresh; that is always an operator mistake (typo'd path, wrong
        // directory), so fail loudly as a usage error instead.
        let has_cells = std::fs::metadata(&journal)
            .map(|m| m.len() > 0)
            .unwrap_or(false);
        if !has_cells {
            return Err(CliError::Usage(Some(format!(
                "--resume: journal '{journal}' is missing or empty; nothing to resume \
                 (start without --resume to begin a fresh run)"
            ))));
        }
    }

    let which = args.first().map(String::as_str).unwrap_or("all");
    let targets: Vec<Target> = match which {
        "all" => all_targets(),
        "chaos" => vec![Target::default_chaos()],
        name => vec![Target::from_name(name).ok_or_else(|| {
            CliError::Usage(Some(format!(
                "unknown soak target '{name}' (a scheduler short name, 'all', 'chaos', \
                 or 'chaos:<mode>:<scheduler>')"
            )))
        })?],
    };

    install_sigint_handler();
    let opts = SoakOptions {
        cells,
        base_seed,
        watchdog_events,
        poison,
        time_budget,
        resume,
        trace,
        throttle,
        stop_after,
        shards,
        ..SoakOptions::new(targets, &journal)
    };
    let summary = run_soak(&opts).map_err(CliError::Runtime)?;
    out!("{}", summary.report);
    eprintln!(
        "soak: ran {} cell(s), skipped {} already-journalled, journal {} now holds {}",
        summary.ran, summary.skipped, journal, summary.journal_cells
    );
    if summary.interrupted {
        eprintln!("soak: interrupted — journal is flushed; rerun with --resume to finish");
        return Ok(());
    }
    if summary.degraded > 0 {
        return Err(CliError::Runtime(format!(
            "soak: {} of {} cell(s) did not complete cleanly",
            summary.degraded, summary.journal_cells
        )));
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    use fjs_cli::serve::{install_drain_handlers, ServeOptions, Server, Sink};
    use fjs_core::service::ServeJournal;
    use std::io::BufWriter;

    let mut args = args.to_vec();
    let parse_num = |flag: &str, v: String| -> Result<u64, CliError> {
        v.parse()
            .map_err(|_| CliError::Usage(Some(format!("{flag}: '{v}' is not a number"))))
    };
    let input = take_flag_value(&mut args, "--input")?;
    let socket = take_flag_value(&mut args, "--socket")?.map(std::path::PathBuf::from);
    let tcp = take_flag_value(&mut args, "--tcp")?;
    let log_path = take_flag_value(&mut args, "--log")?;
    let journal_path = take_flag_value(&mut args, "--journal")?;
    let resume = take_switch(&mut args, "--resume");
    let mut opts = ServeOptions::default();
    if let Some(v) = take_flag_value(&mut args, "--workers")? {
        let n = parse_num("--workers", v)? as usize;
        // `--workers 0` means "one per core".
        opts.workers = if n == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            n
        };
    }
    if let Some(v) = take_flag_value(&mut args, "--max-sessions")? {
        opts.max_sessions = parse_num("--max-sessions", v)? as usize;
    }
    if let Some(v) = take_flag_value(&mut args, "--max-pending")? {
        opts.max_pending = parse_num("--max-pending", v)? as usize;
    }
    opts.watchdog_events = take_watchdog_events(&mut args)?;
    if let Some(v) = take_flag_value(&mut args, "--checkpoint-every")? {
        opts.checkpoint_every = parse_num("--checkpoint-every", v)? as usize;
    }
    if let Some(v) = take_flag_value(&mut args, "--throttle-ms")? {
        opts.throttle_ms = parse_num("--throttle-ms", v)?;
    }
    if let Some(v) = take_flag_value(&mut args, "--quarantine")? {
        opts.quarantine = fjs_workloads::Quarantine::ALL
            .iter()
            .copied()
            .find(|q| q.label() == v)
            .ok_or_else(|| {
                CliError::Usage(Some(format!(
                    "--quarantine: '{v}' is not a policy (halt, skip, dead-letter)"
                )))
            })?;
    }
    if let Some(v) = take_flag_value(&mut args, "--tenant-max-sessions")? {
        opts.tenant_max_sessions = parse_num("--tenant-max-sessions", v)? as usize;
    }
    if let Some(v) = take_flag_value(&mut args, "--tenant-max-pending")? {
        opts.tenant_quotas.max_pending = parse_num("--tenant-max-pending", v)? as usize;
    }
    if let Some(v) = take_flag_value(&mut args, "--tenant-max-bytes")? {
        opts.tenant_quotas.max_bytes = parse_num("--tenant-max-bytes", v)?;
    }
    if let Some(v) = take_flag_value(&mut args, "--breaker-threshold")? {
        opts.breaker.threshold = parse_num("--breaker-threshold", v)? as u32;
    }
    if let Some(v) = take_flag_value(&mut args, "--breaker-cooldown")? {
        opts.breaker.cooldown_events = parse_num("--breaker-cooldown", v)?;
    }
    if let Some(v) = take_flag_value(&mut args, "--max-frame-bytes")? {
        let n = parse_num("--max-frame-bytes", v)? as usize;
        if n == 0 {
            return Err(CliError::Usage(Some(
                "--max-frame-bytes must be at least 1".into(),
            )));
        }
        opts.max_frame_bytes = n;
    }
    if let Some(v) = take_flag_value(&mut args, "--writer-queue")? {
        let n = parse_num("--writer-queue", v)? as usize;
        if n == 0 {
            return Err(CliError::Usage(Some(
                "--writer-queue must be at least 1".into(),
            )));
        }
        opts.writer_queue = n;
    }
    let stats_jsonl = take_flag_value(&mut args, "--stats-jsonl")?;
    if let Some(extra) = args.first() {
        return Err(CliError::Usage(Some(format!(
            "serve: unexpected argument '{extra}'"
        ))));
    }
    if input.is_some() && (socket.is_some() || tcp.is_some()) {
        return Err(CliError::Usage(Some(
            "serve: --input and --socket/--tcp are mutually exclusive".into(),
        )));
    }
    if resume && journal_path.is_none() {
        return Err(CliError::Usage(Some(
            "serve: --resume needs --journal <file>".into(),
        )));
    }

    // Load journaled events before (re)opening the journal for append.
    let journaled = match (&journal_path, resume) {
        (Some(path), true) => {
            if !std::path::Path::new(path).exists() {
                return Err(CliError::Usage(Some(format!(
                    "--resume: journal '{path}' is missing; nothing to resume \
                     (start without --resume to begin a fresh run)"
                ))));
            }
            ServeJournal::load(path).map_err(|e| CliError::Runtime(format!("journal: {e}")))?
        }
        _ => Vec::new(),
    };

    let log = match &log_path {
        Some(p) => {
            // Truncated even on resume: the journal replay rewrites the
            // prefix so the final log matches an uninterrupted run byte
            // for byte.
            let f = std::fs::File::create(p)
                .map_err(|e| CliError::Runtime(format!("cannot create {p}: {e}")))?;
            Sink::File(BufWriter::new(f))
        }
        None => Sink::Stdout(std::io::stdout()),
    };
    let journal = match &journal_path {
        Some(p) => {
            let j = if resume {
                ServeJournal::open_append(p)
            } else {
                ServeJournal::create(p)
            }
            .map_err(|e| CliError::Runtime(format!("journal: {e}")))?;
            Some(j.with_sync_every(opts.checkpoint_every))
        }
        None => None,
    };

    let mut server = Server::new(opts, log, journal);
    if resume {
        server.resume(&journaled).map_err(CliError::Runtime)?;
        eprintln!(
            "serve: resumed {} journaled event(s); input lines <= {} will be skipped",
            journaled.len(),
            server.cursor()
        );
    }

    fjs_cli::soak::clear_stop();
    install_drain_handlers();

    #[cfg(not(unix))]
    return Err(CliError::Runtime("serve: needs a unix target".into()));
    #[cfg(unix)]
    {
        use fjs_cli::serve::net;
        if socket.is_some() || tcp.is_some() {
            let mut listeners = Vec::new();
            if let Some(sock) = &socket {
                match net::bind_unix(sock) {
                    Ok(l) => listeners.push(l),
                    Err(net::SocketClaimError::Live(msg)) => {
                        return Err(CliError::Usage(Some(format!("serve: {msg}"))));
                    }
                    Err(net::SocketClaimError::Io(msg)) => {
                        return Err(CliError::Runtime(format!("serve: {msg}")));
                    }
                }
            }
            if let Some(addr) = &tcp {
                listeners.push(net::bind_tcp(addr).map_err(CliError::Runtime)?);
            }
            net::run_connections(&mut server, listeners).map_err(CliError::Runtime)?;
        } else {
            let input = match &input {
                Some(path) => std::fs::File::open(path)
                    .map_err(|e| CliError::Runtime(format!("cannot open {path}: {e}")))?,
                None => {
                    use std::os::fd::AsFd;
                    std::io::stdin()
                        .as_fd()
                        .try_clone_to_owned()
                        .map(std::fs::File::from)
                        .map_err(|e| CliError::Runtime(format!("serve: stdin: {e}")))?
                }
            };
            net::run_lines(&mut server, input).map_err(CliError::Runtime)?;
        }
    }

    let (summary, _log) = server.finish().map_err(CliError::Runtime)?;
    eprint!("{summary}");
    if let Some(path) = &stats_jsonl {
        let mut line = summary.to_jsonl();
        line.push('\n');
        std::fs::write(path, line)
            .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
        eprintln!("serve: wrote degradation counters to {path}");
    }
    if let Some(why) = summary.halted {
        return Err(CliError::Runtime(format!("serve: halted: {why}")));
    }
    Ok(())
}

fn cmd_fuzz_serve(args: &[String]) -> Result<(), CliError> {
    use fjs_cli::fuzz::{run_fuzz_serve, FuzzServeOptions};
    use fjs_cli::loadgen::DriveTarget;

    let mut args = args.to_vec();
    let parse_num = |flag: &str, v: String| -> Result<u64, CliError> {
        v.parse()
            .map_err(|_| CliError::Usage(Some(format!("{flag}: '{v}' is not a number"))))
    };
    let mut opts = FuzzServeOptions::default();
    if let Some(sock) = take_flag_value(&mut args, "--socket")? {
        #[cfg(unix)]
        opts.targets.push(DriveTarget::Unix(sock.into()));
        #[cfg(not(unix))]
        {
            let _ = sock;
            return Err(CliError::Runtime(
                "fuzz-serve: --socket needs unix domain sockets".into(),
            ));
        }
    }
    if let Some(addr) = take_flag_value(&mut args, "--tcp")? {
        opts.targets.push(DriveTarget::Tcp(addr));
    }
    if let Some(v) = take_flag_value(&mut args, "--seed")? {
        opts.seed = parse_num("--seed", v)?;
    }
    if let Some(v) = take_flag_value(&mut args, "--connections")? {
        let n = parse_num("--connections", v)? as usize;
        if n == 0 {
            return Err(CliError::Usage(Some(
                "--connections must be at least 1".into(),
            )));
        }
        opts.connections = n;
    }
    if let Some(v) = take_flag_value(&mut args, "--frames")? {
        opts.frames = parse_num("--frames", v)?;
    }
    if let Some(v) = take_flag_value(&mut args, "--scheduler")? {
        opts.scheduler = v;
    }
    if let Some(path) = take_flag_value(&mut args, "--emit-clean")? {
        opts.emit_clean = Some(path.into());
    }
    if let Some(extra) = args.first() {
        return Err(CliError::Usage(Some(format!(
            "fuzz-serve: unexpected argument '{extra}'"
        ))));
    }
    if opts.targets.is_empty() {
        return Err(CliError::Usage(Some(
            "fuzz-serve needs --socket <path> and/or --tcp <addr>".into(),
        )));
    }
    let report = run_fuzz_serve(&opts).map_err(CliError::Runtime)?;
    outln!("{report}");
    if !report.healthy() {
        return Err(CliError::Runtime(
            "fuzz-serve: daemon unhealthy after chaos (see report above)".into(),
        ));
    }
    Ok(())
}

fn cmd_loadgen(args: &[String]) -> Result<(), CliError> {
    use fjs_cli::loadgen::{emit_script, LoadgenOptions};

    let mut args = args.to_vec();
    let parse_num = |flag: &str, v: String| -> Result<u64, CliError> {
        v.parse()
            .map_err(|_| CliError::Usage(Some(format!("{flag}: '{v}' is not a number"))))
    };
    let parse_f64 = |flag: &str, v: String| -> Result<f64, CliError> {
        v.parse()
            .map_err(|_| CliError::Usage(Some(format!("{flag}: '{v}' is not a number"))))
    };
    let mut opts = LoadgenOptions::default();
    if let Some(v) = take_flag_value(&mut args, "--sessions")? {
        opts.sessions = parse_num("--sessions", v)? as usize;
    }
    if let Some(v) = take_flag_value(&mut args, "--jobs")? {
        opts.jobs = parse_num("--jobs", v)? as usize;
    }
    if let Some(v) = take_flag_value(&mut args, "--rate")? {
        opts.rate = parse_f64("--rate", v)?;
    }
    if let Some(v) = take_flag_value(&mut args, "--seed")? {
        opts.seed = parse_num("--seed", v)?;
    }
    if let Some(v) = take_flag_value(&mut args, "--scheduler")? {
        opts.scheduler = v;
    }
    if let Some(v) = take_flag_value(&mut args, "--mean-length")? {
        opts.mean_length = parse_f64("--mean-length", v)?;
    }
    if let Some(v) = take_flag_value(&mut args, "--laxity")? {
        opts.laxity = parse_f64("--laxity", v)?;
    }
    if let Some(v) = take_flag_value(&mut args, "--sid-prefix")? {
        opts.sid_prefix = v;
    }
    let misbehave = match take_flag_value(&mut args, "--misbehave")? {
        Some(v) => Some(fjs_cli::fuzz::Misbehave::parse(&v).ok_or_else(|| {
            CliError::Usage(Some(format!(
                "--misbehave: '{v}' is not a mode \
                 (torn, garbage, giant, partial, disconnect, slowloris)"
            )))
        })?),
        None => None,
    };
    let emit = take_flag_value(&mut args, "--emit")?;
    let socket = take_flag_value(&mut args, "--socket")?;
    let tcp = take_flag_value(&mut args, "--tcp")?;
    let json = take_flag_value(&mut args, "--json")?;
    let concurrency = match take_flag_value(&mut args, "--concurrency")? {
        Some(v) => {
            let k = parse_num("--concurrency", v)? as usize;
            if k == 0 {
                return Err(CliError::Usage(Some(
                    "--concurrency must be at least 1".into(),
                )));
            }
            k
        }
        None => 1,
    };
    if let Some(extra) = args.first() {
        return Err(CliError::Usage(Some(format!(
            "loadgen: unexpected argument '{extra}'"
        ))));
    }

    if let Some(path) = emit {
        let script = emit_script(&opts);
        if path == "-" {
            out!("{script}");
        } else {
            std::fs::write(&path, &script)
                .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
            eprintln!(
                "loadgen: wrote {} line(s) to {path} (seed {})",
                script.lines().count(),
                opts.seed
            );
        }
        return Ok(());
    }

    let target = match (socket, tcp) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(Some(
                "loadgen: --socket and --tcp are mutually exclusive".into(),
            )));
        }
        (Some(sock), None) => {
            #[cfg(unix)]
            {
                Some(fjs_cli::loadgen::DriveTarget::Unix(sock.into()))
            }
            #[cfg(not(unix))]
            {
                let _ = sock;
                return Err(CliError::Runtime(
                    "loadgen: --socket needs unix domain sockets".into(),
                ));
            }
        }
        (None, Some(addr)) => Some(fjs_cli::loadgen::DriveTarget::Tcp(addr)),
        (None, None) => None,
    };

    if let Some(target) = target {
        if let Some(mode) = misbehave {
            let line =
                fjs_cli::fuzz::drive_misbehave(&target, &opts, mode).map_err(CliError::Runtime)?;
            outln!("{line}");
            return Ok(());
        }
        let report =
            fjs_cli::loadgen::drive(&target, &opts, concurrency).map_err(CliError::Runtime)?;
        outln!("{report}");
        if let Some(json_path) = json {
            let text = report.to_benchjson(&fjs_cli::bench::git_describe());
            std::fs::write(&json_path, text)
                .map_err(|e| CliError::Runtime(format!("cannot write {json_path}: {e}")))?;
            eprintln!("loadgen: wrote {json_path}");
        }
        return Ok(());
    }

    Err(CliError::Usage(Some(
        "loadgen needs --emit <file|->, --socket <path> or --tcp <addr>".into(),
    )))
}

fn real_main(args: &[String]) -> Result<(), CliError> {
    if args.is_empty() {
        return Err(CliError::usage());
    }
    let cmd = args[0].as_str();
    let full = args.iter().any(|a| a == "--full");
    let profile = if full { Profile::Full } else { Profile::Quick };
    let csv_dir = match args.iter().position(|a| a == "--csv") {
        Some(i) => match args.get(i + 1) {
            Some(dir) => Some(dir.clone()),
            None => return Err(CliError::Usage(Some("--csv needs a directory".into()))),
        },
        None => None,
    };

    match cmd {
        "gantt" => cmd_gantt(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "audit" => cmd_audit(&args[1..]),
        "chaos" => cmd_chaos(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        "bench-diff" => cmd_bench_diff(&args[1..]),
        "conform" => cmd_conform(&args[1..]),
        "soak" => cmd_soak(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "loadgen" => cmd_loadgen(&args[1..]),
        "fuzz-serve" => cmd_fuzz_serve(&args[1..]),
        "list" => {
            for e in all() {
                outln!("{:4}  {}", e.id, e.title);
            }
            Ok(())
        }
        "all" => {
            for e in all() {
                run_one(&e, profile, csv_dir.as_deref())?;
            }
            Ok(())
        }
        id => match by_id(id) {
            Some(e) => run_one(&e, profile, csv_dir.as_deref()),
            None => Err(CliError::usage()),
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(()) => {}
        Err(CliError::Usage(msg)) => {
            if let Some(msg) = msg {
                eprintln!("{msg}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }
}

fn run_one(e: &Experiment, profile: Profile, csv_dir: Option<&str>) -> Result<(), CliError> {
    eprintln!("==> {} — {} [{:?}]", e.id, e.title, profile);
    let start = Instant::now();
    let tables = (e.run)(profile);
    for (i, t) in tables.iter().enumerate() {
        outln!("{}", t.render());
        if let Some(dir) = csv_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| CliError::Runtime(format!("cannot create {dir}: {e}")))?;
            let path = format!("{dir}/{}-{}.csv", e.id, i);
            let mut f = std::fs::File::create(&path)
                .map_err(|e| CliError::Runtime(format!("cannot create {path}: {e}")))?;
            f.write_all(t.to_csv().as_bytes())
                .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
            eprintln!("    wrote {path}");
        }
    }
    eprintln!("<== {} done in {:.2}s", e.id, start.elapsed().as_secs_f64());
    Ok(())
}
