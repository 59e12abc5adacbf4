//! Tenant-level overload and abuse containment for the serve stack.
//!
//! A **tenant** is the session-id prefix before the first `.` (the whole
//! sid when there is no dot), so `acme.batch-7` and `acme.rt` belong to
//! tenant `acme` while bare sids like `s0` are their own tenant. Two
//! mechanisms hang off that identity:
//!
//! * [`TenantQuotas`] — caps on resident jobs and admitted payload bytes
//!   across all of one tenant's open sessions, enforced where the exact
//!   session state lives: on the owning pool worker, which is why the
//!   dispatcher shards sessions by *tenant* hash — co-location makes the
//!   check exact and deterministic.
//! * [`TenantBreakers`] — a circuit breaker per tenant: repeated
//!   non-`Completed` close verdicts open the breaker, subsequent `open`s
//!   are refused with a structured `busy breaker-open` reply, and after a
//!   cooldown measured in **applied events** (never wall clock) a single
//!   half-open probe decides between closing and re-opening it.
//!
//! Determinism is the design constraint everything here bends around:
//! every piece of breaker state advances only on *journal-equivalent*
//! events — admitted opens, admitted (journaled) offers, and closes — so
//! a SIGKILL + `--resume` replay of the journal reconstructs breaker
//! state bit-identically, with no new journal record kind and no version
//! bump. Refused opens are not journaled and never mutate breaker state,
//! so their absence from a replay cannot cause divergence.

use std::collections::HashMap;

/// The tenant a session id belongs to: the prefix before the first `.`,
/// or the whole sid when there is no dot (or the dot is leading, so the
/// prefix would be empty).
pub fn tenant_of(sid: &str) -> &str {
    match sid.find('.') {
        Some(i) if i > 0 => &sid[..i],
        _ => sid,
    }
}

/// Per-tenant admission quotas, enforced across all of a tenant's open
/// sessions. `0` disables a quota.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantQuotas {
    /// Cap on resident (pending + running) jobs summed over the tenant's
    /// open sessions; offers beyond it are shed `busy`.
    pub max_pending: usize,
    /// Cap on canonical payload bytes admitted into the tenant's
    /// currently-open sessions (released wholesale when a session
    /// closes); offers beyond it are shed `busy`. This bounds how much
    /// work a tenant can pump in without recycling sessions.
    pub max_bytes: u64,
}

impl TenantQuotas {
    /// Both quotas disabled (the default: zero overhead on the hot path).
    pub fn off() -> TenantQuotas {
        TenantQuotas {
            max_pending: 0,
            max_bytes: 0,
        }
    }

    /// `true` when at least one quota is active.
    pub fn enabled(&self) -> bool {
        self.max_pending > 0 || self.max_bytes > 0
    }
}

impl Default for TenantQuotas {
    fn default() -> Self {
        TenantQuotas::off()
    }
}

/// Which tenant quota shed an offer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantShedCause {
    /// The resident-jobs quota ([`TenantQuotas::max_pending`]).
    Pending,
    /// The admitted-bytes quota ([`TenantQuotas::max_bytes`]).
    Bytes,
}

impl TenantShedCause {
    /// The wire token used in `busy` replies (`tenant-pending` /
    /// `tenant-bytes`).
    pub fn label(&self) -> &'static str {
        match self {
            TenantShedCause::Pending => "pending",
            TenantShedCause::Bytes => "bytes",
        }
    }
}

/// Circuit-breaker tuning. The cooldown counts **applied events** (every
/// journal-equivalent event daemon-wide), never wall-clock time, so the
/// breaker timeline is a pure function of the input stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive non-`Completed` close verdicts (while closed) that
    /// trip the breaker. `0` disables the breaker entirely.
    pub threshold: u32,
    /// Applied events between tripping and the half-open probe window.
    pub cooldown_events: u64,
}

/// Default trip threshold: three consecutive failed sessions.
pub const DEFAULT_BREAKER_THRESHOLD: u32 = 3;
/// Default cooldown: 256 applied events.
pub const DEFAULT_BREAKER_COOLDOWN: u64 = 256;

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: DEFAULT_BREAKER_THRESHOLD,
            cooldown_events: DEFAULT_BREAKER_COOLDOWN,
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
enum BreakerState {
    Closed,
    Open { since: u64 },
    HalfOpen { probe: Option<String> },
}

#[derive(Clone, Debug)]
struct TenantBreaker {
    state: BreakerState,
    failures: u32,
}

/// The outcome of a breaker check on an `open`.
#[derive(Clone, Debug, PartialEq)]
pub enum OpenDecision {
    /// Admit the open (possibly as the half-open probe).
    Admit,
    /// Refuse with `busy breaker-open`.
    Refuse {
        /// Consecutive failures recorded when the breaker tripped.
        failures: u32,
        /// Applied events until the half-open window (0 while a probe is
        /// already outstanding).
        retry_after: u64,
    },
}

/// All tenants' breakers plus the global applied-event clock.
///
/// State only changes on journal-equivalent events (see module docs), and
/// entries exist only for tenants with recorded failures — healthy
/// traffic costs one map lookup per event.
#[derive(Debug)]
pub struct TenantBreakers {
    cfg: BreakerConfig,
    tenants: HashMap<String, TenantBreaker>,
    clock: u64,
    trips: u64,
}

impl TenantBreakers {
    /// A breaker set under `cfg` (threshold 0 disables everything).
    pub fn new(cfg: BreakerConfig) -> TenantBreakers {
        TenantBreakers {
            cfg,
            tenants: HashMap::new(),
            clock: 0,
            trips: 0,
        }
    }

    /// Times the breaker has tripped (transitioned to open) over the run.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// The global applied-event clock.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Ticks the clock for one applied (journal-equivalent) event: an
    /// admitted open or an admitted (journaled) job offer.
    pub fn note_event(&mut self) {
        if self.cfg.threshold == 0 {
            return;
        }
        self.clock += 1;
    }

    /// Records a close verdict (and ticks the clock — closes are applied
    /// events too). `completed` is `Verdict::is_completed`.
    pub fn note_close(&mut self, sid: &str, completed: bool) {
        if self.cfg.threshold == 0 {
            return;
        }
        self.clock += 1;
        let tenant = tenant_of(sid);
        let Some(b) = self.tenants.get_mut(tenant) else {
            if !completed {
                let mut b = TenantBreaker {
                    state: BreakerState::Closed,
                    failures: 1,
                };
                if b.failures >= self.cfg.threshold {
                    b.state = BreakerState::Open { since: self.clock };
                    self.trips += 1;
                }
                self.tenants.insert(tenant.to_string(), b);
            }
            return;
        };
        match &b.state {
            BreakerState::Closed => {
                if completed {
                    self.tenants.remove(tenant);
                } else {
                    b.failures += 1;
                    if b.failures >= self.cfg.threshold {
                        b.state = BreakerState::Open { since: self.clock };
                        self.trips += 1;
                    }
                }
            }
            // Sessions opened before the trip keep draining; their
            // verdicts neither extend nor shorten the cooldown.
            BreakerState::Open { .. } => {}
            BreakerState::HalfOpen { probe } => {
                if probe.as_deref() == Some(sid) {
                    if completed {
                        self.tenants.remove(tenant);
                    } else {
                        b.state = BreakerState::Open { since: self.clock };
                        self.trips += 1;
                    }
                }
            }
        }
    }

    /// Checks (and, for the half-open transition, advances) the breaker
    /// for an `open` of `sid`. State mutations happen only on `Admit`
    /// paths, which correspond to journaled opens — so a resume replay,
    /// which re-runs exactly the admitted opens, reproduces them.
    pub fn admit_open(&mut self, sid: &str) -> OpenDecision {
        if self.cfg.threshold == 0 {
            return OpenDecision::Admit;
        }
        let tenant = tenant_of(sid);
        let Some(b) = self.tenants.get_mut(tenant) else {
            return OpenDecision::Admit;
        };
        if let BreakerState::Open { since } = b.state {
            if self.clock.saturating_sub(since) >= self.cfg.cooldown_events {
                b.state = BreakerState::HalfOpen { probe: None };
            }
        }
        match &mut b.state {
            BreakerState::Closed => OpenDecision::Admit,
            BreakerState::Open { since } => OpenDecision::Refuse {
                failures: b.failures,
                retry_after: self
                    .cfg
                    .cooldown_events
                    .saturating_sub(self.clock.saturating_sub(*since)),
            },
            BreakerState::HalfOpen { probe } => match probe {
                None => {
                    *probe = Some(sid.to_string());
                    OpenDecision::Admit
                }
                Some(_) => OpenDecision::Refuse {
                    failures: b.failures,
                    retry_after: 0,
                },
            },
        }
    }

    /// Rolls back a half-open probe reservation whose open then failed
    /// (duplicate sid or invalid spec — checks that run after the breaker
    /// so both server backends agree on reply order). Failed opens are
    /// not journaled, and reserve+rollback nets to no state change, so
    /// replay stays consistent.
    pub fn abort_open(&mut self, sid: &str) {
        if let Some(b) = self.tenants.get_mut(tenant_of(sid)) {
            if let BreakerState::HalfOpen { probe: Some(p) } = &b.state {
                if p == sid {
                    b.state = BreakerState::HalfOpen { probe: None };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threshold: u32, cooldown: u64) -> BreakerConfig {
        BreakerConfig {
            threshold,
            cooldown_events: cooldown,
        }
    }

    #[test]
    fn tenant_is_the_prefix_before_the_first_dot() {
        assert_eq!(tenant_of("acme.batch-7"), "acme");
        assert_eq!(tenant_of("acme.rt.x"), "acme");
        assert_eq!(tenant_of("s0"), "s0");
        assert_eq!(tenant_of(".hidden"), ".hidden");
        assert_eq!(tenant_of("a."), "a");
    }

    #[test]
    fn quotas_default_off() {
        assert!(!TenantQuotas::default().enabled());
        assert!(TenantQuotas {
            max_pending: 1,
            max_bytes: 0
        }
        .enabled());
    }

    /// The pinned state machine: closed → open → half-open → closed, and
    /// the re-open path when the probe fails.
    #[test]
    fn breaker_lifecycle_closed_open_halfopen_closed_and_reopen() {
        let mut b = TenantBreakers::new(cfg(2, 4));

        // Closed: failures accumulate only while consecutive.
        b.note_close("t.a", false);
        b.note_close("t.b", true); // completed resets the streak
        assert_eq!(b.admit_open("t.c"), OpenDecision::Admit);
        assert_eq!(b.trips(), 0);

        // Two consecutive failures trip it.
        b.note_close("t.a", false);
        b.note_close("t.b", false);
        assert_eq!(b.trips(), 1);
        assert!(matches!(
            b.admit_open("t.c"),
            OpenDecision::Refuse {
                failures: 2,
                retry_after: 4
            }
        ));

        // Other tenants are unaffected.
        assert_eq!(b.admit_open("other.x"), OpenDecision::Admit);

        // Cooldown counts applied events, not wall clock.
        for _ in 0..4 {
            b.note_event();
        }
        // Half-open: first open becomes the probe, siblings are refused.
        assert_eq!(b.admit_open("t.probe"), OpenDecision::Admit);
        assert!(matches!(
            b.admit_open("t.d"),
            OpenDecision::Refuse { retry_after: 0, .. }
        ));

        // Probe failing re-opens (second trip)…
        b.note_close("t.probe", false);
        assert_eq!(b.trips(), 2);
        assert!(matches!(b.admit_open("t.e"), OpenDecision::Refuse { .. }));

        // …cooldown again, and a successful probe closes it fully.
        for _ in 0..4 {
            b.note_event();
        }
        assert_eq!(b.admit_open("t.probe2"), OpenDecision::Admit);
        b.note_close("t.probe2", true);
        // Closed again: every open is admitted, not only a probe.
        assert_eq!(b.admit_open("t.f"), OpenDecision::Admit);
        assert_eq!(b.admit_open("t.g"), OpenDecision::Admit);
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn non_probe_closes_during_halfopen_are_ignored() {
        let mut b = TenantBreakers::new(cfg(1, 0));
        b.note_close("t.a", false); // trips immediately (threshold 1)
        assert_eq!(b.trips(), 1);
        // cooldown 0: next open goes straight to half-open probe.
        assert_eq!(b.admit_open("t.p"), OpenDecision::Admit);
        // A pre-trip session failing while the probe is out must not
        // re-trip the breaker.
        b.note_close("t.old", false);
        assert_eq!(b.trips(), 1);
        // The probe's own verdict decides.
        b.note_close("t.p", true);
        assert_eq!(b.admit_open("t.q"), OpenDecision::Admit);
        assert_eq!(b.admit_open("t.r"), OpenDecision::Admit);
    }

    #[test]
    fn abort_open_rolls_back_a_probe_reservation() {
        let mut b = TenantBreakers::new(cfg(1, 0));
        b.note_close("t.a", false);
        assert_eq!(b.admit_open("t.p"), OpenDecision::Admit);
        // The open failed post-breaker (bad spec): roll the probe back so
        // the next open can probe instead of being refused forever.
        b.abort_open("t.p");
        assert_eq!(b.admit_open("t.q"), OpenDecision::Admit);
    }

    #[test]
    fn threshold_zero_disables_everything() {
        let mut b = TenantBreakers::new(cfg(0, 8));
        for _ in 0..10 {
            b.note_close("t.a", false);
        }
        assert_eq!(b.admit_open("t.b"), OpenDecision::Admit);
        assert_eq!(b.trips(), 0);
        assert_eq!(b.clock(), 0);
    }
}
