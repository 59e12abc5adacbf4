//! Crash-safe checkpointing for `fjs serve` sessions.
//!
//! A [`ServeJournal`] is the shared append-only log
//! ([`crate::supervise::journal::AppendLog`]) of [`ServeEvent`]s: one
//! self-contained record per protocol request that changed session state —
//! `open`, `job`, `close` — as a flat JSON line written and read through
//! [`crate::json`]. Replaying those records through fresh
//! [`Session`](crate::service::Session)s reproduces the daemon's state
//! bit-for-bit, because sessions are deterministic functions of their
//! offer streams; the decision log of a killed-and-resumed daemon is
//! byte-identical to an uninterrupted run's.
//!
//! The durability contract is the shared log's:
//!
//! * every record is written before `append` returns, and synced every
//!   `--checkpoint-every` records (default [`DEFAULT_SYNC_EVERY`]) and on
//!   `sync`;
//! * a torn trailing line (the process died mid-write) is dropped on load
//!   and cut off the file before the resumed daemon appends — the
//!   corresponding request is simply re-consumed from the input stream;
//! * interior garbage is a hard
//!   [`JournalError::Corrupt`](crate::supervise::JournalError::Corrupt) —
//!   that is data loss, not a crash artifact, and resuming from it would
//!   fabricate decisions.
//!
//! The governor's state (per-tenant admitted-byte usage, circuit-breaker
//! phases and failure streaks) is deliberately **not** journaled: every
//! governor transition is keyed off exactly the events recorded here —
//! admitted opens, admitted jobs, closes — so a resume replay re-derives
//! it bit-identically for free, with no new record kind and no version
//! bump. [`ServeEvent::payload_bytes`] is the replay-side hook for the
//! byte accounting.

use crate::json::{self, Line};
use crate::supervise::journal::{AppendLog, Record};

pub use crate::supervise::journal::DEFAULT_SYNC_EVERY;

/// Journal format version.
pub const SERVE_JOURNAL_VERSION: u32 = 1;

/// The append-only serve journal (see module docs).
pub type ServeJournal = AppendLog<ServeEvent>;

/// One replayable state-changing request.
///
/// `line` is the 1-based input-stream line that carried the request; on
/// resume the daemon replays journal records and then skips input lines up
/// to and including the largest journaled `line`, so requests are neither
/// lost nor double-applied.
#[derive(Clone, PartialEq, Debug)]
pub enum ServeEvent {
    /// A session was opened.
    Open {
        /// Session name (protocol identifier).
        session: String,
        /// Scheduler spec the session was opened with (registry short
        /// name, possibly wrapped in a fault mode).
        scheduler: String,
        /// Input line that carried the request.
        line: u64,
    },
    /// A job was admitted into a session.
    Job {
        /// Session name.
        session: String,
        /// Input line that carried the request.
        line: u64,
        /// Arrival time (raw value; `Display`-rendered, so it round-trips
        /// exactly).
        arrival: f64,
        /// Starting deadline.
        deadline: f64,
        /// Processing length.
        length: f64,
    },
    /// A session was closed (drained to its verdict).
    Close {
        /// Session name.
        session: String,
        /// Input line that carried the request.
        line: u64,
    },
}

impl ServeEvent {
    /// The input line that carried this request.
    pub fn line(&self) -> u64 {
        match self {
            ServeEvent::Open { line, .. }
            | ServeEvent::Job { line, .. }
            | ServeEvent::Close { line, .. } => *line,
        }
    }

    /// The session the request addressed.
    pub fn session(&self) -> &str {
        match self {
            ServeEvent::Open { session, .. }
            | ServeEvent::Job { session, .. }
            | ServeEvent::Close { session, .. } => session,
        }
    }

    /// Canonical payload bytes this event charges against its tenant's
    /// byte quota (`None` for non-job events). Matches
    /// [`JobOffer::canonical_bytes`](crate::service::JobOffer::canonical_bytes)
    /// on the offer the record was journaled for, so live accounting and
    /// replay agree exactly.
    pub fn payload_bytes(&self) -> Option<u64> {
        match self {
            ServeEvent::Job {
                arrival,
                deadline,
                length,
                ..
            } => Some(
                crate::service::JobOffer {
                    arrival: crate::time::Time::new(*arrival),
                    deadline: crate::time::Time::new(*deadline),
                    length: crate::time::Dur::new(*length),
                }
                .canonical_bytes(),
            ),
            _ => None,
        }
    }
}

impl Record for ServeEvent {
    fn to_line(&self) -> String {
        let head = |kind: &str, session: &str| {
            Line::new()
                .num("v", SERVE_JOURNAL_VERSION)
                .str("kind", kind)
                .str("session", session)
        };
        match self {
            ServeEvent::Open {
                session,
                scheduler,
                line,
            } => head("open", session)
                .str("scheduler", scheduler)
                .num("line", line),
            ServeEvent::Job {
                session,
                line,
                arrival,
                deadline,
                length,
            } => head("job", session)
                .num("line", line)
                .num("arrival", arrival)
                .num("deadline", deadline)
                .num("length", length),
            ServeEvent::Close { session, line } => head("close", session).num("line", line),
        }
        .finish()
    }

    fn parse_line(text: &str) -> Result<ServeEvent, String> {
        let record = json::parse_record(text, SERVE_JOURNAL_VERSION)?;
        let session = record.str("session")?.to_string();
        let line = record.num("line")?;
        let num = |key: &str| -> Result<f64, String> {
            let v: f64 = record.num(key)?;
            if !v.is_finite() {
                return Err(format!("non-finite '{key}'"));
            }
            Ok(v)
        };
        match record.str("kind")? {
            "open" => Ok(ServeEvent::Open {
                scheduler: record.str("scheduler")?.to_string(),
                session,
                line,
            }),
            "job" => Ok(ServeEvent::Job {
                session,
                line,
                arrival: num("arrival")?,
                deadline: num("deadline")?,
                length: num("length")?,
            }),
            "close" => Ok(ServeEvent::Close { session, line }),
            other => Err(format!("unknown kind '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::session::{Decision, JobOffer, Session};
    use crate::sim::env::Clairvoyance;
    use crate::sim::sched::{Arrival, Ctx, OnlineScheduler};
    use crate::supervise::{JournalError, Verdict};
    use crate::time::{dur, t};

    struct Eager;
    impl OnlineScheduler for Eager {
        fn name(&self) -> String {
            "test-eager".into()
        }
        fn on_arrival(&mut self, job: Arrival, ctx: &mut Ctx<'_>) {
            ctx.start(job.id);
        }
        fn on_deadline(&mut self, _id: crate::job::JobId, _ctx: &mut Ctx<'_>) {}
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "fjs-serve-journal-{}-{name}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample_events() -> Vec<ServeEvent> {
        vec![
            ServeEvent::Open {
                session: "alpha".into(),
                scheduler: "eager".into(),
                line: 1,
            },
            ServeEvent::Job {
                session: "alpha".into(),
                line: 2,
                arrival: 0.0,
                deadline: 2.5,
                length: 1.25,
            },
            ServeEvent::Job {
                session: "alpha".into(),
                line: 3,
                arrival: 0.1,
                deadline: 7.0,
                length: 0.30000000000000004,
            },
            ServeEvent::Close {
                session: "alpha".into(),
                line: 4,
            },
        ]
    }

    #[test]
    fn roundtrips_all_record_kinds_exactly() {
        let path = scratch("roundtrip");
        let mut j = ServeJournal::create(&path).unwrap();
        for ev in sample_events() {
            j.append(&ev).unwrap();
        }
        j.sync().unwrap();
        assert_eq!(j.records_appended(), 4);
        assert_eq!(ServeJournal::load(&path).unwrap(), sample_events());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn golden_line_format_is_stable() {
        // The on-disk grammar is a compatibility surface: resume must read
        // journals written by earlier daemon runs.
        let golden = [
            "{\"v\":1,\"kind\":\"open\",\"session\":\"alpha\",\"scheduler\":\"eager\",\"line\":1}",
            "{\"v\":1,\"kind\":\"job\",\"session\":\"alpha\",\"line\":2,\"arrival\":0,\"deadline\":2.5,\"length\":1.25}",
            "{\"v\":1,\"kind\":\"job\",\"session\":\"alpha\",\"line\":3,\"arrival\":0.1,\"deadline\":7,\"length\":0.30000000000000004}",
            "{\"v\":1,\"kind\":\"close\",\"session\":\"alpha\",\"line\":4}",
        ];
        for (ev, want) in sample_events().iter().zip(golden) {
            assert_eq!(ev.to_line(), want);
            assert_eq!(&ServeEvent::parse_line(want).unwrap(), ev);
        }
    }

    #[test]
    fn missing_file_is_empty_and_create_persists_immediately() {
        let path = scratch("missing");
        assert_eq!(ServeJournal::load(&path).unwrap(), Vec::new());
        let _j = ServeJournal::create(&path).unwrap();
        assert!(path.exists(), "created journal persists even when empty");
        assert_eq!(ServeJournal::load(&path).unwrap(), Vec::new());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_interior_garbage_is_fatal() {
        let path = scratch("torn");
        let mut j = ServeJournal::create(&path).unwrap();
        for ev in sample_events() {
            j.append(&ev).unwrap();
        }
        j.sync().unwrap();
        drop(j);
        // Torn tail: a crash mid-write leaves a half record.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"v\":1,\"kind\":\"job\",\"session\":\"al");
        std::fs::write(&path, &text).unwrap();
        assert_eq!(ServeJournal::load(&path).unwrap(), sample_events());
        // Interior garbage: not a crash artifact, must refuse to resume.
        let broken = text.replacen("\"kind\":\"job\"", "\"kind\":\"jbo\"", 1);
        std::fs::write(&path, &broken).unwrap();
        let err = ServeJournal::load(&path).unwrap_err();
        let JournalError::Corrupt { line, .. } = err else {
            panic!("want Corrupt, got {err:?}");
        };
        assert_eq!(line, 2);
        let _ = std::fs::remove_file(&path);
    }

    /// The resume contract, in-process: replaying the journaled offer
    /// stream through a fresh session reproduces the decision stream
    /// byte-for-byte.
    #[test]
    fn replayed_journal_reproduces_decision_stream() {
        let path = scratch("replay");
        let offers = [
            JobOffer {
                arrival: t(0.0),
                deadline: t(3.0),
                length: dur(2.0),
            },
            JobOffer {
                arrival: t(1.5),
                deadline: t(4.0),
                length: dur(1.0),
            },
            JobOffer {
                arrival: t(6.0),
                deadline: t(6.5),
                length: dur(0.25),
            },
        ];
        let run = |offers: &[JobOffer]| -> (Vec<Decision>, Verdict) {
            let mut s = Session::new(Box::new(Eager), Clairvoyance::Clairvoyant);
            for &o in offers {
                s.offer(o).unwrap();
            }
            let v = s.close();
            (s.take_decisions(), v)
        };
        // Original daemon: journal every offer as it is admitted.
        let mut j = ServeJournal::create(&path).unwrap().with_sync_every(1);
        j.append(&ServeEvent::Open {
            session: "s".into(),
            scheduler: "eager".into(),
            line: 1,
        })
        .unwrap();
        for (i, o) in offers.iter().enumerate() {
            j.append(&ServeEvent::Job {
                session: "s".into(),
                line: 2 + i as u64,
                arrival: o.arrival.get(),
                deadline: o.deadline.get(),
                length: o.length.get(),
            })
            .unwrap();
        }
        drop(j); // killed before close: no close record
        let (original, verdict) = run(&offers);
        assert_eq!(verdict, Verdict::Completed);
        // Resumed daemon: rebuild offers from the journal, replay.
        let mut replayed_offers = Vec::new();
        for ev in ServeJournal::load(&path).unwrap() {
            if let ServeEvent::Job {
                arrival,
                deadline,
                length,
                ..
            } = ev
            {
                replayed_offers.push(JobOffer {
                    arrival: t(arrival),
                    deadline: t(deadline),
                    length: dur(length),
                });
            }
        }
        let (replayed, _) = run(&replayed_offers);
        let render = |ds: &[Decision]| ds.iter().map(|d| format!("{d}\n")).collect::<String>();
        assert_eq!(render(&original), render(&replayed));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn payload_bytes_matches_the_live_offer_accounting() {
        let ev = ServeEvent::Job {
            session: "t.a".into(),
            line: 7,
            arrival: 0.5,
            deadline: 2.0,
            length: 1.25,
        };
        let live = JobOffer {
            arrival: t(0.5),
            deadline: t(2.0),
            length: dur(1.25),
        };
        assert_eq!(ev.payload_bytes(), Some(live.canonical_bytes()));
        assert_eq!(ev.payload_bytes(), Some("0.5,2,1.25".len() as u64));
        let open = ServeEvent::Open {
            session: "t.a".into(),
            scheduler: "eager".into(),
            line: 1,
        };
        assert_eq!(open.payload_bytes(), None);
    }
}
