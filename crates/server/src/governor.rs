//! Admission control and resource accounting for [`crate::QueryService`].
//!
//! One small mutex-guarded state block holds every gauge (active sessions,
//! pages in flight, resident MEM units) *and* every lifetime counter the
//! service exposes. Keeping them under a single lock is deliberate:
//! [`crate::QueryService::metrics`] snapshots all of them **atomically** —
//! no torn reads where `sessions_opened` has advanced but `sessions_closed`
//! has not — and admission decisions (compare gauge against cap, then
//! increment) are race-free without compare-and-swap loops. The critical
//! sections are a handful of integer operations; at any-k page rates the
//! lock is uncontended noise next to a single answer's heap pop.
//!
//! Memory accounting is in the paper's currency: **MEM(k) units**, the
//! number of live entries in the enumeration data structures (candidate
//! queues + shared-prefix arenas + successor-structure indexes + the
//! structures' choices, summed over decomposition trees — see
//! [`anyk_core::MemoryStats::resident_units`]).
//! Each session is charged its cursor's current footprint and re-charged
//! the delta after every page. The budget is checked where the total grows:
//! at open, against the new cursor's charge, and before every page pull,
//! which is shed while the total is at or over budget. Algorithms whose
//! memory is not organised in those structures (`Recursive`, `Batch`) are
//! charged a flat configured rate
//! ([`GovernorConfig::untracked_session_units`]).

use crate::error::{OverloadReason, ServiceError};
use std::sync::Mutex;
use std::time::Duration;

/// Resource caps and lifecycle deadlines enforced by the service.
///
/// Every cap is optional; the default governor enforces nothing, so a
/// service configured with `ServiceConfig::default()` behaves exactly like
/// the pre-governance service. See the crate docs for a tuning guide.
#[derive(Debug, Clone)]
pub struct GovernorConfig {
    /// Cap on concurrently open (active, not yet ended) sessions. Opens
    /// beyond the cap are shed with [`ServiceError::Overloaded`].
    pub max_sessions: Option<usize>,
    /// Cap on pages being pulled at this instant across all sessions — a
    /// brake on thread-pool overcommit, not on open sessions (suspended
    /// sessions cost memory, not CPU). Pulls beyond the cap are shed.
    pub max_pages_in_flight: Option<usize>,
    /// Global budget, in MEM(k) units, for the enumeration structures of
    /// all live sessions combined. A session whose admission would push the
    /// resident total over budget is shed, and so is a page pull while the
    /// resident total is at or over budget: sessions grow as they page, so
    /// the total can pass the budget only by what the pages already in
    /// flight add.
    pub memory_budget_units: Option<u64>,
    /// Flat per-session charge (in units) for cursors that cannot report
    /// MEM(k) — `Recursive` and `Batch` streams.
    pub untracked_session_units: u64,
    /// Hard lifetime for a session, measured from open. An expired session
    /// ends as `Expired`: its enumeration state is dropped, and further
    /// pulls return [`ServiceError::SessionExpired`].
    pub session_ttl: Option<Duration>,
    /// Idle lifetime, measured from the last page pull (or from open if no
    /// page was ever pulled). The sweep ends idle sessions as `Expired`.
    pub idle_timeout: Option<Duration>,
    /// Back-off hint carried inside [`ServiceError::Overloaded`] for shed
    /// requests.
    pub retry_after_hint: Duration,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            max_sessions: None,
            max_pages_in_flight: None,
            memory_budget_units: None,
            untracked_session_units: 1024,
            session_ttl: None,
            idle_timeout: None,
            retry_after_hint: Duration::from_millis(50),
        }
    }
}

/// Gauges + lifetime counters, all behind one lock (see module docs).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct GovState {
    // Gauges.
    pub active_sessions: usize,
    pub pages_in_flight: usize,
    pub mem_resident_units: u64,
    pub peak_mem_resident_units: u64,
    // Lifetime counters.
    pub sessions_opened: u64,
    pub sessions_closed: u64,
    pub sessions_shed: u64,
    pub sessions_expired: u64,
    pub sessions_cancelled: u64,
    pub sessions_poisoned: u64,
    pub pages_served: u64,
    pub answers_served: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub plan_evictions: u64,
    // Snapshot lifecycle (see `crate::service` — rotation & delta
    // ingestion). `snapshot_resident_units` and `active_generations` are
    // gauges: they rise when a generation is installed and fall when the
    // retired snapshot's last pinned session ends and its `Snapshot` wrapper
    // drops. The rest are lifetime counters.
    pub snapshot_resident_units: u64,
    pub active_generations: usize,
    pub current_generation: u64,
    pub snapshots_retired: u64,
    pub generations_rotated: u64,
    pub deltas_ingested: u64,
    pub plans_refreshed: u64,
    pub plans_recompiled: u64,
    // Connection-level counters, bumped by the TCP transport
    // (`crate::net::AnyKServer`). They live in the same state block as the
    // session counters so one `metrics()` snapshot covers the whole stack
    // without torn reads (e.g. `connections_accepted` can never lag behind a
    // session that connection opened).
    pub connections_accepted: u64,
    pub connections_shed_at_accept: u64,
    pub net_read_timeouts: u64,
    pub net_write_timeouts: u64,
    pub connections_drained_on_shutdown: u64,
}

#[derive(Debug)]
pub(crate) struct Governor {
    pub config: GovernorConfig,
    state: Mutex<GovState>,
}

/// RAII permit for one in-flight page pull; decrements the gauge on drop,
/// so a panicking pull (or an early `?` return) can never leak a permit.
#[derive(Debug)]
pub(crate) struct PagePermit<'g> {
    gov: &'g Governor,
}

impl Drop for PagePermit<'_> {
    fn drop(&mut self) {
        self.gov.with(|s| s.pages_in_flight -= 1);
    }
}

impl Governor {
    pub fn new(config: GovernorConfig) -> Self {
        Governor {
            config,
            state: Mutex::new(GovState::default()),
        }
    }

    /// Run `f` under the state lock. The only lock-acquisition point, and
    /// poison-proof: state mutations are plain integer math that cannot
    /// panic halfway, so a poisoned lock still holds consistent numbers.
    pub fn with<R>(&self, f: impl FnOnce(&mut GovState) -> R) -> R {
        let mut s = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        f(&mut s)
    }

    pub fn snapshot(&self) -> GovState {
        self.with(|s| *s)
    }

    fn shed(&self, reason: OverloadReason) -> ServiceError {
        self.with(|s| s.sessions_shed += 1);
        ServiceError::Overloaded {
            reason,
            retry_after_hint: self.config.retry_after_hint,
        }
    }

    /// Admission check for the cheap half of opening a session, *before*
    /// plan compilation: is there a session slot at all?
    pub fn admit_session_slot(&self) -> Result<(), ServiceError> {
        if let Some(cap) = self.config.max_sessions {
            if self.with(|s| s.active_sessions) >= cap {
                return Err(self.shed(OverloadReason::Sessions));
            }
        }
        Ok(())
    }

    /// Commit a session holding `units` MEM(k) units. Re-checks the session
    /// cap (another open may have won the race since
    /// [`Governor::admit_session_slot`]) and checks the memory budget, then
    /// updates the gauges — all in one critical section, so concurrent
    /// opens can never jointly overshoot a cap.
    pub fn commit_session(&self, units: u64) -> Result<(), ServiceError> {
        let reason = self.with(|s| {
            if let Some(cap) = self.config.max_sessions {
                if s.active_sessions >= cap {
                    return Some(OverloadReason::Sessions);
                }
            }
            if let Some(budget) = self.config.memory_budget_units {
                if s.mem_resident_units.saturating_add(units) > budget {
                    return Some(OverloadReason::Memory);
                }
            }
            s.active_sessions += 1;
            s.sessions_opened += 1;
            s.mem_resident_units += units;
            s.peak_mem_resident_units = s.peak_mem_resident_units.max(s.mem_resident_units);
            None
        });
        match reason {
            Some(r) => Err(self.shed(r)),
            None => Ok(()),
        }
    }

    /// Acquire a permit for one in-flight page pull, or shed: at the
    /// in-flight cap, or while the resident total is at or over the memory
    /// budget (a page grows its session's structures, and admission alone
    /// charged the session only what its cursor held at open).
    pub fn acquire_page(&self) -> Result<PagePermit<'_>, ServiceError> {
        let reason = self.with(|s| {
            if let Some(cap) = self.config.max_pages_in_flight {
                if s.pages_in_flight >= cap {
                    return Some(OverloadReason::PagesInFlight);
                }
            }
            if let Some(budget) = self.config.memory_budget_units {
                if s.mem_resident_units >= budget {
                    return Some(OverloadReason::Memory);
                }
            }
            s.pages_in_flight += 1;
            None
        });
        match reason {
            Some(r) => Err(self.shed(r)),
            None => Ok(PagePermit { gov: self }),
        }
    }

    /// Re-charge a session whose footprint moved from `old` to `new` units
    /// (page pulls grow — and occasionally shrink — the structures).
    pub fn recharge(&self, old: u64, new: u64) {
        self.with(|s| {
            s.mem_resident_units = s.mem_resident_units - old + new;
            s.peak_mem_resident_units = s.peak_mem_resident_units.max(s.mem_resident_units);
        });
    }

    /// Account one served page of `answers` answers.
    pub fn record_page(&self, answers: usize) {
        self.with(|s| {
            s.pages_served += 1;
            s.answers_served += answers as u64;
        });
    }

    /// Account a newly installed snapshot generation holding `units`
    /// resident tuples.
    pub fn install_snapshot(&self, generation: u64, units: u64) {
        self.with(|s| {
            s.snapshot_resident_units += units;
            s.active_generations += 1;
            s.current_generation = generation;
        });
    }

    /// Release a retired snapshot's residency — called from
    /// `Snapshot::drop`, i.e. when the last session pinning the generation
    /// ends (or immediately on rotation if nothing pinned it).
    pub fn retire_snapshot(&self, units: u64) {
        self.with(|s| {
            s.snapshot_resident_units -= units;
            s.active_generations -= 1;
            s.snapshots_retired += 1;
        });
    }

    /// Release an active session's resources, recording why it ended.
    pub fn release_session(&self, units: u64, why: SessionOutcome) {
        self.with(|s| {
            s.active_sessions -= 1;
            s.mem_resident_units -= units;
            match why {
                SessionOutcome::Closed => s.sessions_closed += 1,
                SessionOutcome::Expired => s.sessions_expired += 1,
                SessionOutcome::Cancelled => s.sessions_cancelled += 1,
                SessionOutcome::Poisoned => s.sessions_poisoned += 1,
            }
        });
    }
}

/// Why an active session stopped being active (metrics taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SessionOutcome {
    Closed,
    Expired,
    Cancelled,
    Poisoned,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_cap_sheds_and_releases() {
        let g = Governor::new(GovernorConfig {
            max_sessions: Some(2),
            ..GovernorConfig::default()
        });
        g.commit_session(0).unwrap();
        g.commit_session(0).unwrap();
        let err = g.commit_session(0).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Overloaded {
                reason: OverloadReason::Sessions,
                ..
            }
        ));
        g.release_session(0, SessionOutcome::Closed);
        g.commit_session(0).unwrap();
        let s = g.snapshot();
        assert_eq!(s.sessions_opened, 3);
        assert_eq!(s.sessions_shed, 1);
        assert_eq!(s.active_sessions, 2);
    }

    #[test]
    fn memory_budget_sheds_and_tracks_peak() {
        let g = Governor::new(GovernorConfig {
            memory_budget_units: Some(100),
            ..GovernorConfig::default()
        });
        g.commit_session(60).unwrap();
        assert!(matches!(
            g.commit_session(50).unwrap_err(),
            ServiceError::Overloaded {
                reason: OverloadReason::Memory,
                ..
            }
        ));
        g.commit_session(40).unwrap();
        g.recharge(60, 30);
        let s = g.snapshot();
        assert_eq!(s.mem_resident_units, 70);
        assert_eq!(s.peak_mem_resident_units, 100);
        g.release_session(30, SessionOutcome::Expired);
        g.release_session(40, SessionOutcome::Closed);
        assert_eq!(g.snapshot().mem_resident_units, 0);
    }

    #[test]
    fn page_permits_are_raii() {
        let g = Governor::new(GovernorConfig {
            max_pages_in_flight: Some(1),
            ..GovernorConfig::default()
        });
        let permit = g.acquire_page().unwrap();
        assert!(matches!(
            g.acquire_page().unwrap_err(),
            ServiceError::Overloaded {
                reason: OverloadReason::PagesInFlight,
                ..
            }
        ));
        drop(permit);
        drop(g.acquire_page().unwrap());
        assert_eq!(g.snapshot().pages_in_flight, 0);
        assert_eq!(g.snapshot().sessions_shed, 1);
    }

    #[test]
    fn pages_shed_while_resident_memory_is_at_budget() {
        let g = Governor::new(GovernorConfig {
            memory_budget_units: Some(100),
            ..GovernorConfig::default()
        });
        g.commit_session(10).unwrap();
        let permit = g.acquire_page().unwrap();
        g.recharge(10, 100);
        drop(permit);
        assert!(matches!(
            g.acquire_page().unwrap_err(),
            ServiceError::Overloaded {
                reason: OverloadReason::Memory,
                ..
            }
        ));
        assert_eq!(g.snapshot().pages_in_flight, 0);
        g.recharge(100, 99);
        drop(g.acquire_page().unwrap());
        assert_eq!(g.snapshot().sessions_shed, 1);
    }
}
