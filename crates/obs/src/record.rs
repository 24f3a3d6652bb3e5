//! Per-cursor delay recording and the per-plan distribution registry.
//!
//! The paper's guarantees are *per answer*: TTF, TT(k), and bounded delay
//! between consecutive results. [`DelayRecorder`] measures exactly that at
//! the engine's expansion loop: one [`Clock`] read per answer plus a few
//! plain integer adds into a cursor-local [`LocalHistogram`] — no atomics,
//! no allocation, no locks on the hot path. At page boundaries (and on
//! drop) the recorder *flushes* the increment since the last flush into the
//! shared, atomic per-plan histograms ([`PlanObs`]), so service-wide stats
//! stay fresh without taxing the loop.
//!
//! Recording is gated by a process-wide runtime switch
//! ([`set_recording`] / [`recording_enabled`]), the knob the overhead
//! benchmark flips to prove instrumentation stays under its budget.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use crate::hist::{HistogramSnapshot, HistogramSummary, LatencyHistogram, LocalHistogram};
use crate::Clock;

static RECORDING: AtomicBool = AtomicBool::new(true);

/// Turn per-answer delay recording and phase spans on or off process-wide.
/// Takes effect for cursors opened (and spans started) after the call.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Whether recording is currently enabled (one relaxed load).
pub fn recording_enabled() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// The shared per-plan distributions: everything the stats endpoint reports
/// about one plan key. All histograms are lock-free ([`LatencyHistogram`]).
#[derive(Debug, Default)]
pub struct PlanObs {
    /// Time-to-first-answer per session (nanoseconds).
    pub ttf: LatencyHistogram,
    /// Delay between consecutive answers (nanoseconds; the first answer's
    /// delay is its TTF, matching `EnumerationTrace` semantics).
    pub delay: LatencyHistogram,
    /// Wall time of one `next_page` service call (nanoseconds).
    pub page: LatencyHistogram,
}

/// A decoded-side copy of one plan's summaries (see [`PlanRegistry::summaries`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanSummaries {
    /// TTF distribution summary.
    pub ttf: HistogramSummary,
    /// Inter-answer delay distribution summary.
    pub delay: HistogramSummary,
    /// Page service-latency distribution summary.
    pub page: HistogramSummary,
}

/// Get-or-insert registry of [`PlanObs`] keyed by canonical plan key.
///
/// Lookups happen at session open (cold path); the hot loop only ever
/// touches the `Arc<PlanObs>` it was handed. The map itself never forgets a
/// key: the owner bounds it with [`PlanRegistry::retain`] (the service
/// retires the keys its plan cache no longer holds).
#[derive(Debug, Default)]
pub struct PlanRegistry {
    plans: RwLock<HashMap<String, Arc<PlanObs>>>,
}

impl PlanRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared observation block for `plan_key`, created on first use.
    pub fn handle(&self, plan_key: &str) -> Arc<PlanObs> {
        if let Some(p) = self.plans.read().unwrap().get(plan_key) {
            return Arc::clone(p);
        }
        let mut w = self.plans.write().unwrap();
        Arc::clone(w.entry(plan_key.to_string()).or_default())
    }

    /// Summaries for every plan, sorted by key (stable wire order).
    pub fn summaries(&self) -> Vec<(String, PlanSummaries)> {
        let r = self.plans.read().unwrap();
        let mut out: Vec<(String, PlanSummaries)> = r
            .iter()
            .map(|(k, p)| {
                (
                    k.clone(),
                    PlanSummaries {
                        ttf: p.ttf.summary(),
                        delay: p.delay.summary(),
                        page: p.page.summary(),
                    },
                )
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Retire every block whose key `keep` rejects. A cursor still holding
    /// a retired block keeps recording into it; the block only stops being
    /// reported, and a later [`PlanRegistry::handle`] for the key starts a
    /// fresh one.
    pub fn retain(&self, mut keep: impl FnMut(&str) -> bool) {
        self.plans.write().unwrap().retain(|key, _| keep(key));
    }

    /// Number of plans currently registered.
    pub fn len(&self) -> usize {
        self.plans.read().unwrap().len()
    }

    /// Whether no plan has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Measures per-answer delay and TTF for one cursor.
///
/// Owned by the cursor (single-threaded); [`DelayRecorder::observe_answer`]
/// is the only hot call. A recorder optionally carries an `Arc<PlanObs>` —
/// the plan-wide sink its local counts are flushed into.
#[derive(Debug)]
pub struct DelayRecorder {
    clock: Arc<dyn Clock>,
    plan: Option<Arc<PlanObs>>,
    opened: u64,
    last: u64,
    ttf: Option<u64>,
    local: LocalHistogram,
    /// Flush bookkeeping: per-bucket counts already pushed to `plan`.
    flushed_buckets: Option<Box<[u64]>>,
    flushed_count: u64,
    flushed_sum: u64,
    flushed_ttf: bool,
}

impl DelayRecorder {
    /// Start recording now (the construction instant is the session-open
    /// reference for TTF). `plan` is the shared sink flushes feed, if any.
    pub fn new(clock: Arc<dyn Clock>, plan: Option<Arc<PlanObs>>) -> Self {
        let opened = clock.now_nanos();
        let flushed_buckets = plan
            .is_some()
            .then(|| vec![0u64; crate::hist::NUM_BUCKETS].into_boxed_slice());
        DelayRecorder {
            clock,
            plan,
            opened,
            last: opened,
            ttf: None,
            local: LocalHistogram::new(),
            flushed_buckets,
            flushed_count: 0,
            flushed_sum: 0,
            flushed_ttf: false,
        }
    }

    /// Record one produced answer: one clock read plus a handful of plain
    /// integer ops. The first answer's delay doubles as the TTF.
    #[inline]
    pub fn observe_answer(&mut self) {
        let now = self.clock.now_nanos();
        let gap = now.saturating_sub(self.last);
        self.last = now;
        if self.ttf.is_none() {
            self.ttf = Some(now.saturating_sub(self.opened));
        }
        self.local.record(gap);
    }

    /// Push everything recorded since the previous flush into the plan's
    /// shared histograms. Cold path: call at page boundaries. No-op without
    /// a plan sink.
    pub fn flush(&mut self) {
        let (Some(plan), Some(marks)) = (self.plan.as_deref(), self.flushed_buckets.as_deref_mut())
        else {
            return;
        };
        let (count, sum, max) = self.local.totals();
        if count > self.flushed_count {
            for (i, (&have, mark)) in self
                .local
                .buckets()
                .iter()
                .zip(marks.iter_mut())
                .enumerate()
            {
                let delta = have - *mark;
                if delta > 0 {
                    plan.delay.add_bucket(i, delta);
                    *mark = have;
                }
            }
            plan.delay.add_totals(
                count - self.flushed_count,
                sum.wrapping_sub(self.flushed_sum),
                max,
            );
            self.flushed_count = count;
            self.flushed_sum = sum;
        }
        if !self.flushed_ttf {
            if let Some(ttf) = self.ttf {
                plan.ttf.record(ttf);
                self.flushed_ttf = true;
            }
        }
    }

    /// The cursor-local delay distribution recorded so far (the first
    /// answer's delay is its TTF, matching `EnumerationTrace`).
    pub fn delays(&self) -> HistogramSnapshot {
        self.local.snapshot()
    }

    /// Time to first answer in nanoseconds, once one was produced.
    pub fn ttf_nanos(&self) -> Option<u64> {
        self.ttf
    }

    /// Answers observed so far.
    pub fn answers(&self) -> u64 {
        self.local.count()
    }
}

impl Drop for DelayRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManualClock;
    use std::time::Duration;

    #[test]
    fn recorder_measures_exact_gaps_on_manual_clock() {
        let clock = Arc::new(ManualClock::new());
        let mut r = DelayRecorder::new(clock.clone() as Arc<dyn Clock>, None);
        clock.advance(Duration::from_micros(5));
        r.observe_answer(); // ttf = 5µs, first delay = 5µs
        clock.advance(Duration::from_micros(3));
        r.observe_answer(); // delay = 3µs
        clock.advance(Duration::from_micros(9));
        r.observe_answer(); // delay = 9µs
        assert_eq!(r.ttf_nanos(), Some(5_000));
        assert_eq!(r.answers(), 3);
        let d = r.delays();
        assert_eq!(d.count(), 3);
        assert_eq!(d.sum(), 17_000);
        assert_eq!(d.max(), 9_000);
    }

    #[test]
    fn flush_is_incremental_not_duplicating() {
        let clock = Arc::new(ManualClock::new());
        let plan = Arc::new(PlanObs::default());
        let mut r = DelayRecorder::new(clock.clone() as Arc<dyn Clock>, Some(Arc::clone(&plan)));
        clock.advance(Duration::from_micros(1));
        r.observe_answer();
        r.flush();
        clock.advance(Duration::from_micros(2));
        r.observe_answer();
        r.flush();
        r.flush(); // idempotent when nothing new happened
        drop(r); // drop flushes too — still no double counting
        let delay = plan.delay.snapshot();
        assert_eq!(delay.count(), 2);
        assert_eq!(delay.sum(), 3_000);
        assert_eq!(plan.ttf.snapshot().count(), 1, "TTF recorded exactly once");
    }

    #[test]
    fn registry_hands_out_one_block_per_key() {
        let reg = PlanRegistry::new();
        let a = reg.handle("path4");
        let b = reg.handle("path4");
        assert!(Arc::ptr_eq(&a, &b));
        let _ = reg.handle("star3");
        assert_eq!(reg.len(), 2);
        a.ttf.record(100);
        let sums = reg.summaries();
        assert_eq!(sums[0].0, "path4");
        assert_eq!(sums[1].0, "star3");
        assert_eq!(sums[0].1.ttf.count, 1);
        // Retiring a key drops it from the report; the holder's block lives
        // on, and the key starts over if it comes back.
        reg.retain(|key| key != "path4");
        assert_eq!(reg.len(), 1);
        a.ttf.record(200);
        assert!(!Arc::ptr_eq(&a, &reg.handle("path4")));
    }

    #[test]
    fn recording_switch_toggles() {
        let _guard = crate::RECORDING_TEST_LOCK.lock().unwrap();
        assert!(recording_enabled(), "default is on");
        set_recording(false);
        assert!(!recording_enabled());
        set_recording(true);
        assert!(recording_enabled());
    }
}
