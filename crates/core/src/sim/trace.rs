//! Event traces: an optional chronological record of everything that
//! happened in a simulation, for debugging, visualization and replay
//! verification. Select a [`TraceMode`] via [`crate::sim::SimConfig::trace`].

use crate::job::JobId;
use crate::time::{Dur, Time};
use std::fmt;

/// How much of the event history a run records into
/// [`SimOutcome::trace`](crate::sim::SimOutcome::trace).
///
/// The default is [`TraceMode::Off`]: long simulations would otherwise
/// accumulate an unbounded `Vec<TraceEvent>` (one entry per release, start,
/// ruling, completion, …), which dominates memory on soak-scale runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TraceMode {
    /// Record nothing (the default). The outcome's trace is empty and the
    /// engine's record path is a single branch.
    #[default]
    Off,
    /// Record every event, unbounded. What `record_trace: true` used to do;
    /// required by oracles that replay the full lifecycle (e.g. the
    /// masked-lengths check).
    Full,
}

/// One recorded simulation event.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TraceEvent {
    /// When it happened.
    pub time: Time,
    /// What happened.
    pub kind: TraceKind,
}

/// The kinds of recorded events.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TraceKind {
    /// A job was released (arrived).
    Released {
        /// The job.
        id: JobId,
        /// Its starting deadline.
        deadline: Time,
    },
    /// A job was started by the scheduler.
    Started {
        /// The job.
        id: JobId,
    },
    /// An adaptive length was ruled (fixed-length jobs do not emit this;
    /// their length is known at release).
    LengthRuled {
        /// The job.
        id: JobId,
        /// The ruled length.
        length: Dur,
    },
    /// A job completed.
    Completed {
        /// The job.
        id: JobId,
    },
    /// The engine force-started a job whose deadline passed (a scheduler
    /// bug; mirrors [`crate::sim::Violation`]).
    ForcedStart {
        /// The job.
        id: JobId,
    },
    /// A scheduler wakeup fired.
    Wakeup {
        /// The token passed to `Ctx::wake_at`.
        token: u64,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[t={}] ", self.time)?;
        match self.kind {
            TraceKind::Released { id, deadline } => {
                write!(f, "released {id} (deadline {deadline})")
            }
            TraceKind::Started { id } => write!(f, "started {id}"),
            TraceKind::LengthRuled { id, length } => {
                write!(f, "length of {id} ruled: {length}")
            }
            TraceKind::Completed { id } => write!(f, "completed {id}"),
            TraceKind::ForcedStart { id } => write!(f, "FORCED start of {id}"),
            TraceKind::Wakeup { token } => write!(f, "wakeup {token}"),
        }
    }
}

/// Renders a trace as one event per line.
pub fn render_trace(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{dur, t};

    #[test]
    fn display_formats() {
        let e = TraceEvent {
            time: t(2.5),
            kind: TraceKind::Released {
                id: JobId(3),
                deadline: t(7.0),
            },
        };
        assert_eq!(e.to_string(), "[t=2.5] released J3 (deadline 7)");
        let e = TraceEvent {
            time: t(3.0),
            kind: TraceKind::LengthRuled {
                id: JobId(0),
                length: dur(1.5),
            },
        };
        assert!(e.to_string().contains("ruled: 1.5"));
    }

    #[test]
    fn trace_mode_enablement() {
        assert_eq!(TraceMode::default(), TraceMode::Off);
    }

    #[test]
    fn render_joins_lines() {
        let events = vec![
            TraceEvent {
                time: t(0.0),
                kind: TraceKind::Started { id: JobId(0) },
            },
            TraceEvent {
                time: t(1.0),
                kind: TraceKind::Completed { id: JobId(0) },
            },
        ];
        let r = render_trace(&events);
        assert_eq!(r.lines().count(), 2);
        assert!(r.contains("started J0"));
    }
}
