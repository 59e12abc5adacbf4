//! IO-layer fault injection for streaming trace ingestion — the
//! `EnvFaultMode` analogue for [`crate::TraceReader`].
//!
//! Real trace files fail in boring, mechanical ways: a line cut short by a
//! full disk, unrelated garbage interleaved by a misdirected logger, a file
//! whose final record was truncated by a kill. Each [`IoFaultMode`] injects
//! one of these corruptions into a clean trace deterministically (seeded),
//! and [`run_io_chaos`] checks every `(fault, quarantine-policy)` pair:
//! skipping policies must recover every undamaged record and count the
//! damage, the halting policy must stop at the first damaged record, and
//! nothing may panic. `fjs chaos` renders the resulting matrix alongside
//! the scheduler fault matrix.

use crate::io::{write_trace, Quarantine, TraceReader};
use fjs_core::job::{Instance, Job};
use fjs_core::supervise::contain_panic;
use fjs_prng::SmallRng;

/// A corruption mode for trace ingestion.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoFaultMode {
    /// One data line is cut off mid-record (e.g. a full disk): the line
    /// keeps only its first column.
    TruncatedLine,
    /// Non-CSV garbage lines are interleaved between data records (e.g. a
    /// logger writing to the same file).
    InterleavedGarbage,
    /// The file ends in the middle of its final record (e.g. the writer
    /// was killed mid-write).
    EofMidRecord,
}

impl IoFaultMode {
    /// All ingestion fault modes.
    pub const ALL: [IoFaultMode; 3] = [
        IoFaultMode::TruncatedLine,
        IoFaultMode::InterleavedGarbage,
        IoFaultMode::EofMidRecord,
    ];

    /// Stable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            IoFaultMode::TruncatedLine => "truncated-line",
            IoFaultMode::InterleavedGarbage => "interleaved-garbage",
            IoFaultMode::EofMidRecord => "eof-mid-record",
        }
    }

    /// How many records the corruption damages.
    pub fn damaged_records(&self) -> usize {
        match self {
            IoFaultMode::TruncatedLine | IoFaultMode::EofMidRecord => 1,
            IoFaultMode::InterleavedGarbage => GARBAGE_LINES,
        }
    }

    /// Applies the corruption to clean trace text, deterministically in
    /// `seed`. The result always contains `damaged_records()` malformed
    /// records; every other record is left byte-identical.
    pub fn corrupt(&self, text: &str, seed: u64) -> String {
        let mut rng = SmallRng::seed_from_u64(seed);
        let lines: Vec<&str> = text.lines().collect();
        let data_idx: Vec<usize> = lines
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                let t = l.trim();
                !t.is_empty() && !t.starts_with('#')
            })
            .map(|(i, _)| i)
            .collect();
        assert!(
            !data_idx.is_empty(),
            "corrupt() needs at least one data record"
        );
        match self {
            IoFaultMode::TruncatedLine => {
                // Cutting at the first comma leaves a 1-column record,
                // which no header/arity rule can mistake for valid.
                let victim = data_idx[rng.u64_below(data_idx.len() as u64) as usize];
                let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
                let cut = out[victim].find(',').unwrap_or(out[victim].len());
                out[victim].truncate(cut);
                out.join("\n") + "\n"
            }
            IoFaultMode::InterleavedGarbage => {
                // Insert after the first data line so the garbage can
                // never be mistaken for a skippable header.
                let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
                let first_data = data_idx[0];
                for g in 0..GARBAGE_LINES {
                    let lo = first_data + 1;
                    let at = lo + rng.u64_below((out.len() - lo + 1) as u64) as usize;
                    out.insert(at, format!("@@garbage#{g}@@,<binary\u{1}junk>,!!"));
                }
                out.join("\n") + "\n"
            }
            IoFaultMode::EofMidRecord => {
                // Cut the whole file at the final record's first comma —
                // a writer killed mid-record, no trailing newline.
                let last = data_idx[data_idx.len() - 1];
                let offset: usize = lines[..last].iter().map(|l| l.len() + 1).sum::<usize>();
                let cut = lines[last].find(',').unwrap_or(lines[last].len());
                text[..offset + cut].to_string()
            }
        }
    }
}

/// Garbage lines [`IoFaultMode::InterleavedGarbage`] interleaves.
pub const GARBAGE_LINES: usize = 3;

/// One `(fault, policy)` cell of the ingestion chaos matrix.
#[derive(Clone, Debug)]
pub struct IoChaosCell {
    /// The injected fault.
    pub mode: IoFaultMode,
    /// The quarantine policy under test.
    pub policy: Quarantine,
    /// Whether the reader met the policy's contract.
    pub passed: bool,
    /// What happened (counts on pass, diagnosis on fail).
    pub detail: String,
}

/// The deterministic reference trace the matrix corrupts: a comment header
/// plus 8 integral records.
pub fn io_chaos_reference() -> Instance {
    Instance::new(
        (0..8)
            .map(|i| {
                let a = (i * 2) as f64;
                Job::adp(a, a + 3.0, 1.0 + (i % 3) as f64)
            })
            .collect::<Vec<_>>(),
    )
}

fn fail(mode: IoFaultMode, policy: Quarantine, why: String) -> IoChaosCell {
    IoChaosCell {
        mode,
        policy,
        passed: false,
        detail: why,
    }
}

/// Runs the full `IoFaultMode × Quarantine` ingestion matrix, seeded.
///
/// Contract per cell — any breach (or panic) fails the cell:
/// * [`Quarantine::Skip`] / [`Quarantine::DeadLetter`]: the stream yields
///   no error, recovers exactly the undamaged records, and counts exactly
///   the damaged ones (dead-letter additionally retains their raw text);
/// * [`Quarantine::Halt`]: the stream yields exactly one error and ends.
pub fn run_io_chaos(seed: u64) -> Vec<IoChaosCell> {
    let inst = io_chaos_reference();
    let clean = write_trace(&inst, None);
    let n = inst.len();
    let mut cells = Vec::new();
    for (i, &mode) in IoFaultMode::ALL.iter().enumerate() {
        let corrupted = mode.corrupt(&clean, seed.wrapping_add(i as u64));
        let damaged = mode.damaged_records();
        // Interleaved garbage damages *extra* lines; the others damage one
        // of the n real records.
        let intact = match mode {
            IoFaultMode::InterleavedGarbage => n,
            _ => n - 1,
        };
        for policy in Quarantine::ALL {
            cells.push(run_io_cell(mode, policy, &corrupted, intact, damaged));
        }
    }
    cells
}

fn run_io_cell(
    mode: IoFaultMode,
    policy: Quarantine,
    corrupted: &str,
    intact: usize,
    damaged: usize,
) -> IoChaosCell {
    let outcome = contain_panic(|| {
        let mut reader = TraceReader::new(corrupted.as_bytes()).with_policy(policy);
        let mut ok = 0usize;
        let mut errors = Vec::new();
        let mut ok_after_error = false;
        for item in reader.by_ref() {
            match item {
                Ok(_) => {
                    if !errors.is_empty() {
                        ok_after_error = true;
                    }
                    ok += 1;
                }
                Err(e) => errors.push(e),
            }
        }
        Ok((
            ok,
            errors,
            ok_after_error,
            reader.stats(),
            reader.dead_letters().len(),
        ))
    });
    let (ok, errors, ok_after_error, stats, dead) = match outcome {
        Ok(r) => r,
        Err(verdict) => return fail(mode, policy, verdict.to_string()),
    };
    match policy {
        Quarantine::Halt => {
            if errors.len() != 1 {
                return fail(
                    mode,
                    policy,
                    format!("expected 1 error, got {}", errors.len()),
                );
            }
            if ok_after_error {
                return fail(
                    mode,
                    policy,
                    "stream continued past a halt error".to_string(),
                );
            }
            if ok > intact {
                return fail(
                    mode,
                    policy,
                    format!("{ok} records before error, > {intact}"),
                );
            }
            IoChaosCell {
                mode,
                policy,
                passed: true,
                detail: format!("halted at line {} after {ok} records", errors[0].line()),
            }
        }
        Quarantine::Skip | Quarantine::DeadLetter => {
            if let Some(e) = errors.first() {
                return fail(mode, policy, format!("unexpected error: {e}"));
            }
            if ok != intact {
                return fail(
                    mode,
                    policy,
                    format!("recovered {ok} records, want {intact}"),
                );
            }
            if stats.quarantined != damaged {
                return fail(
                    mode,
                    policy,
                    format!("quarantined {}, want {damaged}", stats.quarantined),
                );
            }
            let want_dead = if policy == Quarantine::DeadLetter {
                damaged
            } else {
                0
            };
            if dead != want_dead {
                return fail(
                    mode,
                    policy,
                    format!("{dead} dead letters, want {want_dead}"),
                );
            }
            IoChaosCell {
                mode,
                policy,
                passed: true,
                detail: format!("recovered {ok}, quarantined {}", stats.quarantined),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::parse_trace;

    #[test]
    fn corruptions_are_deterministic_and_malformed() {
        let clean = write_trace(&io_chaos_reference(), None);
        for mode in IoFaultMode::ALL {
            let a = mode.corrupt(&clean, 7);
            assert_eq!(
                a,
                mode.corrupt(&clean, 7),
                "{} not deterministic",
                mode.label()
            );
            assert_ne!(a, clean, "{} must change the text", mode.label());
            assert!(
                parse_trace(&a).is_err(),
                "{} must make the strict parser fail",
                mode.label()
            );
        }
    }

    #[test]
    fn full_matrix_passes() {
        for cell in run_io_chaos(42) {
            assert!(
                cell.passed,
                "{} / {}: {}",
                cell.mode.label(),
                cell.policy.label(),
                cell.detail
            );
        }
    }

    #[test]
    fn matrix_is_deterministic() {
        let a: Vec<String> = run_io_chaos(3).into_iter().map(|c| c.detail).collect();
        let b: Vec<String> = run_io_chaos(3).into_iter().map(|c| c.detail).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn garbage_lands_after_first_data_line() {
        // If garbage ever preceded all data, the header rule would absorb
        // one garbage line and the damage count would drop to 2.
        let clean = write_trace(&io_chaos_reference(), None);
        for seed in 0..32 {
            let corrupted = IoFaultMode::InterleavedGarbage.corrupt(&clean, seed);
            let mut reader = TraceReader::new(corrupted.as_bytes()).with_policy(Quarantine::Skip);
            let n = reader.by_ref().filter(Result::is_ok).count();
            assert_eq!(n, io_chaos_reference().len(), "seed {seed}");
            assert_eq!(reader.stats().quarantined, GARBAGE_LINES, "seed {seed}");
        }
    }
}
