//! The `fjs` experiment runner: `fjs e3` regenerates one figure or
//! theorem of the paper as a table, `fjs all --full` all of them, and the
//! other commands run the harnesses and the `serve` daemon (see README).
//! `fjs` with no arguments prints the usage, rendered from the one command
//! table, [`COMMANDS`], that also checks every command line.
//!
//! Exit codes: 0 success, 1 runtime failure (failed audit, unsound chaos
//! cell, conformance oracle violation, bench regression past threshold or
//! a baseline case missing, unreadable/unparseable input, I/O error), 2
//! usage error.

use fjs_cli::experiments::{all, by_id, Experiment, Profile};
use fjs_cli::fuzz::{Misbehave, MISBEHAVE_MODES};
use fjs_core::supervise::{PoisonMode, DEFAULT_WATCHDOG_EVENTS};
use fjs_testkit::DeckKind;
use fjs_workloads::Quarantine;
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
    fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(Some(msg.into()))
    }
}

/// What the value of a flag or target must be. A numeric kind carries the
/// noun its usage error names (`--n: 'x' is not a job count`), so the noun
/// of a range that starts above 0 says so.
#[derive(Clone, Copy)]
enum Kind {
    /// A flag that takes no value.
    Switch,
    /// `Uint(min, max, noun)`: an unsigned integer in `min..=max`. A
    /// bounded `max` is printed after the noun.
    Uint(u64, u64, &'static str),
    /// `Real(positive, noun)`: a finite `f64` above 0 if `positive`, else
    /// at least 0.
    Real(bool, &'static str),
    /// Any text (a path, an address, a spec), shown as `<meta>`.
    Text(&'static str),
    /// One of the labels `labels(0)`, `labels(1)`, … up to the first
    /// `None`, read off the enum that owns them.
    Choice(fn(usize) -> Option<&'static str>),
}

const NUM: Kind = Kind::Uint(0, u64::MAX, "a number");
const COUNT: Kind = Kind::Uint(0, u64::MAX, "a count");
const POSITIVE: Kind = Kind::Uint(1, u64::MAX, "a positive number");
const SEED: Kind = Kind::Uint(0, u64::MAX, "a seed");
const ON: Kind = Kind::Switch;
const TEXT: Kind = Kind::Text("text");
const FILE: Kind = Kind::Text("file");
const PATH: Kind = Kind::Text("path");
const ADDR: Kind = Kind::Text("addr");
const SPEC: Kind = Kind::Text("spec");
const WATCHDOG: Arg = Arg(
    "--watchdog-events",
    Kind::Uint(1, u64::MAX, "a positive event count"),
);

fn labels(of: fn(usize) -> Option<&'static str>) -> impl Iterator<Item = &'static str> {
    (0..).map_while(of)
}

impl Kind {
    /// Accepts `raw` as a value of this kind, or names `who` (the flag, or
    /// the command for a target) and `raw` in a usage error.
    fn check(self, who: &str, raw: &str) -> Result<(), CliError> {
        let ok = match self {
            Kind::Switch | Kind::Text(_) => true,
            Kind::Uint(min, max, _) => raw.parse().is_ok_and(|n| (min..=max).contains(&n)),
            Kind::Real(positive, _) => raw
                .parse()
                .is_ok_and(|x: f64| x.is_finite() && (x > 0.0 || (!positive && x == 0.0))),
            Kind::Choice(of) => labels(of).any(|l| l == raw),
        };
        let what = match self {
            _ if ok => return Ok(()),
            Kind::Uint(min, max, noun) if max < u64::MAX => format!("{noun} ({min} to {max})"),
            Kind::Uint(_, _, noun) | Kind::Real(_, noun) => noun.to_string(),
            Kind::Choice(of) => format!("one of {}", labels(of).collect::<Vec<_>>().join(", ")),
            Kind::Switch | Kind::Text(_) => unreachable!("every text is accepted"),
        };
        Err(CliError::usage(format!("{who}: '{raw}' is not {what}")))
    }

    /// The value as the usage text shows it after the flag's name.
    fn meta(self) -> String {
        match self {
            Kind::Switch => String::new(),
            Kind::Uint(..) => " <n>".into(),
            Kind::Real(..) => " <x>".into(),
            Kind::Text(meta) => format!(" <{meta}>"),
            Kind::Choice(of) => format!(" {}", labels(of).collect::<Vec<_>>().join("|")),
        }
    }
}

/// A `--flag`, or a target by the name the usage text shows, and the kind
/// of its value.
struct Arg(&'static str, Kind);

/// One `fjs` command: its targets, of which the first `required` must be
/// given, its flags, and the function that runs it.
struct Command {
    name: &'static str,
    targets: &'static [Arg],
    required: usize,
    flags: &'static [Arg],
    run: fn(&Args<'_>) -> Result<(), CliError>,
}

/// The usage name of the experiment registry's ids; `main` dispatches
/// every id to this entry.
const EXPERIMENT_IDS: &str = "e1..e15";
const EXPERIMENT_FLAGS: &[Arg] = &[Arg("--full", ON), Arg("--csv", Kind::Text("dir"))];

/// Every `fjs` command. `main` dispatches through it, [`parse`] checks
/// each command line against it and [`usage`] renders it.
#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    Command { name: "list", run: cmd_list, required: 0, targets: &[], flags: &[] },
    Command { name: "all", run: cmd_experiments, required: 0, targets: &[],
        flags: EXPERIMENT_FLAGS },
    Command { name: EXPERIMENT_IDS, run: cmd_experiments, required: 0, targets: &[],
        flags: EXPERIMENT_FLAGS },
    Command { name: "gantt", run: cmd_gantt, required: 0,
        targets: &[Arg("scheduler", TEXT), Arg("seed", SEED)], flags: &[] },
    Command { name: "trace", run: cmd_trace, required: 1, targets: &[Arg("file.csv", TEXT)],
        flags: &[] },
    Command { name: "audit", run: cmd_audit, required: 0,
        targets: &[Arg("batch|batch+|profit", TEXT), Arg("seed", SEED)], flags: &[] },
    Command { name: "chaos", run: cmd_chaos, required: 0, targets: &[Arg("scheduler", TEXT)],
        flags: &[WATCHDOG] },
    Command { name: "stats", run: cmd_stats, required: 0, targets: &[Arg("scheduler|all", TEXT)],
        flags: &[
            Arg("--n", Kind::Uint(0, u64::MAX, "a job count")), Arg("--seed", SEED),
            Arg("--log-jsonl", FILE),
        ] },
    Command { name: "bench", run: cmd_bench, required: 0, targets: &[],
        flags: &[Arg("--json", FILE), Arg("--quick", ON)] },
    Command { name: "bench-diff", run: cmd_bench_diff, required: 2,
        targets: &[Arg("old.json", TEXT), Arg("new.json", TEXT)],
        flags: &[Arg("--max-regress", Kind::Real(false, "a non-negative percentage"))] },
    Command { name: "conform", run: cmd_conform, required: 0,
        targets: &[Arg("scheduler|all|uniform|chaos", TEXT)],
        flags: &[
            Arg("--cases", COUNT), Arg("--seed", SEED), Arg("--quick", ON),
            Arg("--deck", Kind::Choice(|i| DeckKind::ALL.get(i).map(DeckKind::name))),
            Arg("--corpus", Kind::Text("dir")), Arg("--journal", FILE), Arg("--resume", ON),
            WATCHDOG, Arg("--shards", COUNT),
        ] },
    Command { name: "soak", run: cmd_soak, required: 0,
        targets: &[Arg("scheduler|all|chaos", TEXT)],
        flags: &[
            Arg("--journal", FILE), Arg("--cells", COUNT), Arg("--seed", SEED),
            Arg("--seconds", NUM), Arg("--minutes", NUM), Arg("--resume", ON), WATCHDOG,
            Arg("--poison", Kind::Choice(|i| PoisonMode::ALL.get(i).map(PoisonMode::label))),
            Arg("--trace", Kind::Text("file.csv")), Arg("--throttle-ms", NUM),
            Arg("--shards", COUNT),
        ] },
    Command { name: "serve", run: cmd_serve, required: 0, targets: &[],
        flags: &[
            Arg("--input", FILE), Arg("--socket", PATH), Arg("--tcp", ADDR), Arg("--log", FILE),
            Arg("--journal", FILE), Arg("--resume", ON), Arg("--workers", NUM),
            Arg("--max-sessions", NUM), Arg("--max-pending", NUM), WATCHDOG,
            Arg("--quarantine", Kind::Choice(|i| Quarantine::ALL.get(i).map(Quarantine::label))),
            Arg("--checkpoint-every", NUM), Arg("--throttle-ms", NUM),
            Arg("--stats-jsonl", FILE), Arg("--tenant-max-sessions", NUM),
            Arg("--tenant-max-pending", NUM), Arg("--tenant-max-bytes", NUM),
            Arg("--breaker-threshold", Kind::Uint(0, u32::MAX as u64, "a failure count")),
            Arg("--breaker-cooldown", NUM), Arg("--max-frame-bytes", POSITIVE),
            Arg("--writer-queue", POSITIVE),
        ] },
    Command { name: "loadgen", run: cmd_loadgen, required: 0, targets: &[],
        flags: &[
            Arg("--emit", Kind::Text("file|-")), Arg("--socket", PATH), Arg("--tcp", ADDR),
            Arg("--sessions", NUM), Arg("--jobs", NUM),
            Arg("--rate", Kind::Real(true, "a positive rate")), Arg("--seed", SEED),
            Arg("--scheduler", SPEC), Arg("--mean-length", Kind::Real(true, "a positive length")),
            Arg("--laxity", Kind::Real(false, "a non-negative laxity")),
            Arg("--concurrency", POSITIVE), Arg("--json", FILE),
            Arg("--sid-prefix", Kind::Text("p")),
            Arg("--misbehave", Kind::Choice(|i| MISBEHAVE_MODES.get(i).map(Misbehave::name))),
        ] },
    Command { name: "fuzz-serve", run: cmd_fuzz_serve, required: 0, targets: &[],
        flags: &[
            Arg("--socket", PATH), Arg("--tcp", ADDR), Arg("--seed", SEED),
            Arg("--connections", POSITIVE), Arg("--frames", NUM), Arg("--scheduler", SPEC),
            Arg("--emit-clean", FILE),
        ] },
];

/// A command line checked against its [`Command`]: the value of each flag
/// and target as typed, in table order with the flags first (a switch
/// holds its own name). Every value has passed its kind's check.
struct Args<'a> {
    cmd: &'a str,
    spec: &'static Command,
    values: Vec<Option<&'a str>>,
}

impl<'a> Args<'a> {
    /// The slot and the declaration of flag or target `name`.
    fn slot(&self, name: &str) -> (usize, &'static Arg) {
        let spec = self.spec;
        let mut all = spec.flags.iter().chain(spec.targets).enumerate();
        all.find(|(_, a)| a.0 == name)
            .unwrap_or_else(|| panic!("`fjs {}` declares no {name}", spec.name))
    }

    /// The value given for `name`, as typed.
    fn text(&self, name: &str) -> Option<&'a str> {
        self.values[self.slot(name).0]
    }

    /// The first target, if one was given.
    fn target(&self) -> Option<&'a str> {
        self.values[self.spec.flags.len()..]
            .first()
            .copied()
            .flatten()
    }

    /// Whether switch `name` was given.
    fn on(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// The value given for `name`, parsed (its kind's check parsed it once
    /// already).
    fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.text(name).and_then(|v| v.parse().ok())
    }

    /// Overwrites `field` with the value given for `name`, if any.
    fn set<T: std::str::FromStr>(&self, name: &str, field: &mut T) {
        if let Some(v) = self.get(name) {
            *field = v;
        }
    }

    /// The member of `all` whose label was given for choice `name`.
    fn choice<T: Copy>(&self, name: &str, all: &[T]) -> Option<T> {
        let (slot, arg) = self.slot(name);
        let Kind::Choice(of) = arg.1 else {
            panic!("{name} is not a choice")
        };
        let given = self.values[slot]?;
        labels(of).position(|l| l == given).map(|i| all[i])
    }

    /// `--watchdog-events`: the engine-event budget of every watchdogged
    /// run.
    fn watchdog_events(&self) -> usize {
        self.get(WATCHDOG.0).unwrap_or(DEFAULT_WATCHDOG_EVENTS)
    }
}

/// Checks `args`, the tokens after the command's name, against `spec`
/// before any work starts. A `--flag` takes the next token as its value
/// unless it is a switch; any other token fills the next target. A stray
/// token, an unknown or repeated flag, a missing value or target, and a
/// value its kind rejects are usage errors that name the token or flag.
fn parse<'a>(
    spec: &'static Command,
    cmd: &'a str,
    args: &'a [String],
) -> Result<Args<'a>, CliError> {
    let mut values = vec![None; spec.flags.len() + spec.targets.len()];
    let mut targets = 0;
    let mut tokens = args.iter().map(String::as_str);
    while let Some(tok) = tokens.next() {
        let stray = || CliError::usage(format!("{cmd}: unexpected argument '{tok}'"));
        let (slot, value) = if tok.starts_with("--") {
            let slot = spec
                .flags
                .iter()
                .position(|f| f.0 == tok)
                .ok_or_else(stray)?;
            if values[slot].is_some() {
                return Err(CliError::usage(format!("{cmd}: {tok} given twice")));
            }
            let value = match spec.flags[slot].1 {
                Kind::Switch => tok,
                kind => {
                    let v = tokens.next();
                    let v = v.ok_or_else(|| CliError::usage(format!("{tok} needs a value")))?;
                    kind.check(tok, v)?;
                    v
                }
            };
            (slot, value)
        } else {
            let target = spec.targets.get(targets).ok_or_else(stray)?;
            target.1.check(cmd, tok)?;
            targets += 1;
            (spec.flags.len() + targets - 1, tok)
        };
        values[slot] = Some(value);
    }
    if let Some(missing) = spec.targets[..spec.required].get(targets) {
        return Err(CliError::usage(format!("{cmd}: missing <{}>", missing.0)));
    }
    Ok(Args { cmd, spec, values })
}

/// The usage text, rendered from [`COMMANDS`] and wrapped at 100 columns.
fn usage() -> String {
    let mut text = String::new();
    for (n, c) in COMMANDS.iter().enumerate() {
        let head = format!("{:7}fjs {}", if n == 0 { "usage:" } else { "" }, c.name);
        let targets = c.targets.iter().enumerate();
        let targets = targets.map(|(i, t)| match i < c.required {
            true => format!("<{}>", t.0),
            false => format!("[{}]", t.0),
        });
        let flags = c.flags.iter().map(|f| format!("[{}{}]", f.0, f.1.meta()));
        let mut line = head.clone();
        for word in targets.chain(flags) {
            if line.len() + 1 + word.len() > 100 {
                text += &line;
                text += "\n";
                line = " ".repeat(head.len());
            }
            line += " ";
            line += &word;
        }
        text += &line;
        text += "\n";
    }
    text + "Flags may come in any order. A stray token, an unknown or repeated flag, a missing\n\
            value or a value out of range is a usage error.\n\
            Reproduces the figures/theorems of Ren & Tang, SPAA 2017 (see DESIGN.md).\n\
            Exit codes: 0 ok, 1 runtime failure, 2 usage error."
}

fn pick_scheduler(name: &str) -> Result<fjs_schedulers::SchedulerKind, CliError> {
    let lower = name.to_ascii_lowercase();
    let canonical = if lower == "semi-cdb" {
        "semicdb"
    } else {
        lower.as_str()
    };
    fjs_schedulers::SchedulerKind::from_short_name(canonical).ok_or_else(|| {
        CliError::usage(format!(
            "unknown scheduler '{name}' (try eager/lazy/batch/batch+/cdb/profit/doubler/\
             random/threshold/semicdb)"
        ))
    })
}

fn cmd_gantt(a: &Args<'_>) -> Result<(), CliError> {
    let kind = pick_scheduler(a.target().unwrap_or("batch+"))?;
    let seed: u64 = a.get("seed").unwrap_or(42);
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

fn cmd_audit(a: &Args<'_>) -> Result<(), CliError> {
    use fjs_core::sim::{run_static, Clairvoyance};
    use fjs_schedulers::FlagRecorder;
    let which = a.target().unwrap_or("batch+");
    let seed: u64 = a.get("seed").unwrap_or(7);
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
            return Err(CliError::usage(format!(
                "cannot audit '{other}' (try batch, batch+, profit)"
            )));
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

fn cmd_trace(a: &Args<'_>) -> Result<(), CliError> {
    let path = a.target().unwrap_or_default();
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

fn cmd_chaos(a: &Args<'_>) -> Result<(), CliError> {
    use fjs_schedulers::chaos::run_chaos_matrix;
    use fjs_schedulers::SchedulerKind;

    let kinds = match a.target() {
        Some(name) => vec![pick_scheduler(name)?],
        None => SchedulerKind::registered_set(),
    };
    let report = run_chaos_matrix(&kinds, a.watchdog_events());

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

fn cmd_stats(a: &Args<'_>) -> Result<(), CliError> {
    use fjs_core::sim::{run_with_config, SimConfig, StaticEnv};
    use fjs_schedulers::SchedulerKind;
    use fjs_workloads::Scenario;

    let n: usize = a.get("--n").unwrap_or(500);
    let seed: u64 = a.get("--seed").unwrap_or(42);
    let jsonl_path = a.text("--log-jsonl");
    let kinds = match a.target().unwrap_or("all") {
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
            .open(path)
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
fn cmd_bench(a: &Args<'_>) -> Result<(), CliError> {
    fjs_opt::cache::reset();
    let report = fjs_cli::bench::run_bench_suite(a.on("--quick"));
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
    match a.text("--json") {
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

fn cmd_bench_diff(a: &Args<'_>) -> Result<(), CliError> {
    use fjs_analysis::benchjson::{diff_reports, BenchReport};

    let threshold = a.get("--max-regress").unwrap_or(20.0) / 100.0;
    let old_path = a.text("old.json").unwrap_or_default();
    let new_path = a.text("new.json").unwrap_or_default();
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

fn cmd_conform(a: &Args<'_>) -> Result<(), CliError> {
    use fjs_core::supervise::Journal;
    use fjs_testkit::{
        all_targets, row, run_conformance_with, save_entry, set_watchdog_events, uniform_targets,
        ConformConfig, ConformHooks, CorpusEntry, Expectation, Failure, Target,
    };
    use std::sync::Mutex;

    let defaults = ConformConfig::default();
    let base_seed: u64 = a.get("--seed").unwrap_or(defaults.base_seed);
    let quick = a.on("--quick");
    set_watchdog_events(a.watchdog_events());
    let resume = a.on("--resume");
    if resume && a.text("--journal").is_none() {
        return Err(CliError::usage("--resume needs --journal <file>"));
    }

    let (targets, default_deck): (Vec<Target>, DeckKind) = match a.target().unwrap_or("all") {
        "all" => (all_targets(), DeckKind::Main),
        "uniform" => (uniform_targets(), DeckKind::Uniform),
        "chaos" => (vec![Target::default_chaos()], DeckKind::Main),
        name => (
            vec![Target::from_name(name).ok_or_else(|| {
                CliError::usage(format!(
                    "unknown conformance target '{name}' (a scheduler short name, 'all', \
                     'uniform', 'chaos', or 'chaos:<mode>:<scheduler>')"
                ))
            })?],
            DeckKind::Main,
        ),
    };
    let deck = a.choice("--deck", &DeckKind::ALL).unwrap_or(default_deck);
    // Uniform-deck counterexamples live in their own corpus directory so
    // the replay suites stay per-family.
    let corpus_dir = a.text("--corpus").unwrap_or(match deck {
        DeckKind::Main => "tests/corpus",
        DeckKind::Uniform => "tests/corpus/uniform",
    });

    let config = ConformConfig {
        cases: a.get("--cases").unwrap_or(defaults.cases),
        deck,
        base_seed,
        quick,
        shards: a.get("--shards").unwrap_or(0),
        ..defaults
    };
    let journal = match a.text("--journal") {
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
    let dir = std::path::PathBuf::from(corpus_dir);
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

fn cmd_soak(a: &Args<'_>) -> Result<(), CliError> {
    use fjs_cli::soak::{install_sigint_handler, run_soak, SoakOptions};
    use fjs_testkit::{all_targets, Target};
    use std::time::Duration;

    let Some(journal) = a.text("--journal") else {
        return Err(CliError::usage("soak needs --journal <file>"));
    };
    let resume = a.on("--resume");
    if resume {
        // A --resume against a missing or empty journal would silently run
        // fresh; that is always an operator mistake (typo'd path, wrong
        // directory), so fail loudly as a usage error instead.
        let has_cells = std::fs::metadata(journal)
            .map(|m| m.len() > 0)
            .unwrap_or(false);
        if !has_cells {
            return Err(CliError::usage(format!(
                "--resume: journal '{journal}' is missing or empty; nothing to resume \
                 (start without --resume to begin a fresh run)"
            )));
        }
    }

    let targets: Vec<Target> = match a.target().unwrap_or("all") {
        "all" => all_targets(),
        "chaos" => vec![Target::default_chaos()],
        name => vec![Target::from_name(name).ok_or_else(|| {
            CliError::usage(format!(
                "unknown soak target '{name}' (a scheduler short name, 'all', 'chaos', \
                 or 'chaos:<mode>:<scheduler>')"
            ))
        })?],
    };
    let time_budget = match (a.get::<u64>("--seconds"), a.get::<u64>("--minutes")) {
        (None, None) => None,
        (s, m) => Some(Duration::from_secs(
            s.unwrap_or(0)
                .saturating_add(m.unwrap_or(0).saturating_mul(60)),
        )),
    };

    install_sigint_handler();
    let opts = SoakOptions {
        cells: a.get("--cells").unwrap_or(64),
        base_seed: a.get("--seed").unwrap_or(1),
        watchdog_events: a.watchdog_events(),
        poison: a.choice("--poison", &PoisonMode::ALL),
        time_budget,
        resume,
        trace: a.text("--trace").map(std::path::PathBuf::from),
        throttle: Duration::from_millis(a.get("--throttle-ms").unwrap_or(0)),
        shards: a.get("--shards").unwrap_or(1),
        ..SoakOptions::new(targets, journal)
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

fn cmd_serve(a: &Args<'_>) -> Result<(), CliError> {
    use fjs_cli::serve::{install_drain_handlers, ServeOptions, Server, Sink};
    use fjs_core::service::ServeJournal;
    use std::io::BufWriter;

    let input = a.text("--input");
    let socket = a.text("--socket").map(std::path::PathBuf::from);
    let tcp = a.text("--tcp");
    let journal_path = a.text("--journal");
    let resume = a.on("--resume");
    if input.is_some() && (socket.is_some() || tcp.is_some()) {
        return Err(CliError::usage(
            "serve: --input and --socket/--tcp are mutually exclusive",
        ));
    }
    if resume && journal_path.is_none() {
        return Err(CliError::usage("serve: --resume needs --journal <file>"));
    }
    let mut opts = ServeOptions::default();
    a.set("--workers", &mut opts.workers);
    if opts.workers == 0 {
        // `--workers 0` means "one per core".
        opts.workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    }
    opts.watchdog_events = a.watchdog_events();
    a.set("--max-sessions", &mut opts.max_sessions);
    a.set("--max-pending", &mut opts.max_pending);
    a.set("--checkpoint-every", &mut opts.checkpoint_every);
    a.set("--throttle-ms", &mut opts.throttle_ms);
    if let Some(q) = a.choice("--quarantine", &Quarantine::ALL) {
        opts.quarantine = q;
    }
    a.set("--tenant-max-sessions", &mut opts.tenant_max_sessions);
    a.set("--tenant-max-pending", &mut opts.tenant_quotas.max_pending);
    a.set("--tenant-max-bytes", &mut opts.tenant_quotas.max_bytes);
    a.set("--breaker-threshold", &mut opts.breaker.threshold);
    a.set("--breaker-cooldown", &mut opts.breaker.cooldown_events);
    a.set("--max-frame-bytes", &mut opts.max_frame_bytes);
    a.set("--writer-queue", &mut opts.writer_queue);
    let log_path = a.text("--log");
    let stats_jsonl = a.text("--stats-jsonl");

    // Load journaled events before (re)opening the journal for append.
    let journaled = match (&journal_path, resume) {
        (Some(path), true) => {
            if !std::path::Path::new(path).exists() {
                return Err(CliError::usage(format!(
                    "--resume: journal '{path}' is missing; nothing to resume \
                     (start without --resume to begin a fresh run)"
                )));
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
                        return Err(CliError::usage(format!("serve: {msg}")));
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

fn cmd_fuzz_serve(a: &Args<'_>) -> Result<(), CliError> {
    use fjs_cli::fuzz::{run_fuzz_serve, FuzzServeOptions};
    use fjs_cli::loadgen::DriveTarget;

    let mut opts = FuzzServeOptions::default();
    if let Some(sock) = a.text("--socket") {
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
    if let Some(addr) = a.text("--tcp") {
        opts.targets.push(DriveTarget::Tcp(addr.into()));
    }
    a.set("--seed", &mut opts.seed);
    a.set("--connections", &mut opts.connections);
    a.set("--frames", &mut opts.frames);
    a.set("--scheduler", &mut opts.scheduler);
    opts.emit_clean = a.get("--emit-clean");
    if opts.targets.is_empty() {
        return Err(CliError::usage(
            "fuzz-serve needs --socket <path> and/or --tcp <addr>",
        ));
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

fn cmd_loadgen(a: &Args<'_>) -> Result<(), CliError> {
    use fjs_cli::loadgen::{emit_script, LoadgenOptions};

    let mut opts = LoadgenOptions::default();
    a.set("--sessions", &mut opts.sessions);
    a.set("--jobs", &mut opts.jobs);
    a.set("--rate", &mut opts.rate);
    a.set("--seed", &mut opts.seed);
    a.set("--scheduler", &mut opts.scheduler);
    a.set("--mean-length", &mut opts.mean_length);
    a.set("--laxity", &mut opts.laxity);
    a.set("--sid-prefix", &mut opts.sid_prefix);
    let misbehave = a.choice("--misbehave", &MISBEHAVE_MODES);
    let (emit, socket, tcp) = (a.text("--emit"), a.text("--socket"), a.text("--tcp"));
    let concurrency = a.get("--concurrency").unwrap_or(1);

    if let Some(path) = emit {
        let script = emit_script(&opts);
        if path == "-" {
            out!("{script}");
        } else {
            std::fs::write(path, &script)
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
            return Err(CliError::usage(
                "loadgen: --socket and --tcp are mutually exclusive",
            ));
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
        (None, Some(addr)) => Some(fjs_cli::loadgen::DriveTarget::Tcp(addr.into())),
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
        if let Some(json_path) = a.text("--json") {
            let text = report.to_benchjson(&fjs_cli::bench::git_describe());
            std::fs::write(json_path, text)
                .map_err(|e| CliError::Runtime(format!("cannot write {json_path}: {e}")))?;
            eprintln!("loadgen: wrote {json_path}");
        }
        return Ok(());
    }

    Err(CliError::usage(
        "loadgen needs --emit <file|->, --socket <path> or --tcp <addr>",
    ))
}

fn real_main(args: &[String]) -> Result<(), CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::Usage(None));
    };
    let name = by_id(cmd).map_or(cmd.as_str(), |_| EXPERIMENT_IDS);
    let Some(spec) = COMMANDS.iter().find(|c| c.name == name) else {
        return Err(CliError::usage(format!("unknown command '{cmd}'")));
    };
    (spec.run)(&parse(spec, cmd, rest)?)
}

fn cmd_list(_: &Args<'_>) -> Result<(), CliError> {
    for e in all() {
        outln!("{:4}  {}", e.id, e.title);
    }
    Ok(())
}

/// `all` runs every experiment (so does `e1..e15` typed as such), `e<N>`
/// the one with that id.
fn cmd_experiments(a: &Args<'_>) -> Result<(), CliError> {
    let profile = if a.on("--full") {
        Profile::Full
    } else {
        Profile::Quick
    };
    let chosen = by_id(a.cmd).map_or_else(all, |e| vec![e]);
    chosen
        .iter()
        .try_for_each(|e| run_one(e, profile, a.text("--csv")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(()) => {}
        Err(CliError::Usage(msg)) => {
            if let Some(msg) = msg {
                eprintln!("{msg}");
            }
            eprintln!("{}", usage());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_well_formed() {
        assert_eq!(EXPERIMENT_IDS, format!("e1..e{}", all().len()));
        for c in COMMANDS {
            let mut names: Vec<&str> = c.flags.iter().chain(c.targets).map(|a| a.0).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), c.flags.len() + c.targets.len(), "{}", c.name);
            assert!(c.flags.iter().all(|f| f.0.starts_with("--")), "{}", c.name);
            let plain = |t: &Arg| !t.0.starts_with("--") && !matches!(t.1, Kind::Switch);
            assert!(c.targets.iter().all(plain), "{}", c.name);
            assert!(c.required <= c.targets.len(), "{}", c.name);
        }
    }

    #[test]
    fn every_target_and_flag_appears_in_its_commands_usage() {
        let text = usage();
        let mut entries: Vec<String> = Vec::new();
        for line in text.lines().map(|l| l.trim_start_matches("usage:").trim()) {
            if line.starts_with("fjs ") {
                entries.push(format!("{line} "));
            } else if line.starts_with('[') {
                *entries.last_mut().unwrap() += &format!("{line} ");
            }
        }
        assert_eq!(entries.len(), COMMANDS.len(), "{text}");
        for (c, entry) in COMMANDS.iter().zip(&entries) {
            assert!(entry.starts_with(&format!("fjs {} ", c.name)), "{entry}");
            for (i, t) in c.targets.iter().enumerate() {
                let shown = match i < c.required {
                    true => format!("<{}> ", t.0),
                    false => format!("[{}] ", t.0),
                };
                assert!(entry.contains(&shown), "{shown} missing from: {entry}");
            }
            for f in c.flags {
                let shown = format!("[{}{}] ", f.0, f.1.meta());
                assert!(entry.contains(&shown), "{shown} missing from: {entry}");
            }
        }
    }
}
