//! Per-cursor delay recording and the per-plan distribution registry.
//!
//! The paper's guarantees are *per answer*: TTF, TT(k), and bounded delay
//! between consecutive results. [`DelayRecorder`] measures them at the
//! engine's expansion loop at a cost the loop does not notice: the first
//! answer is stamped on its own (so TTF is exact), and after it the clock is
//! read once per stride of [`STRIDE`] answers and once at each end of a
//! page pull. A stride's gap is spread evenly over its answers
//! ([`LocalHistogram::record_spread`]), so the delay count and sum stay
//! exact while the percentiles and the max are those of stride means. Per
//! answer the loop pays one counter increment — no atomics, no allocation,
//! no locks. At page boundaries (and on drop) the recorder *flushes* the
//! increment since the last flush into the shared, atomic per-plan
//! histograms ([`PlanObs`]), so service-wide stats stay fresh without
//! taxing the loop.
//!
//! A pull's first delay counts from the start of that pull
//! ([`DelayRecorder::begin_page`]), not from the previous pull's last
//! answer, so client think time and round trips between pages stay out of
//! the delay distribution.
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

/// Answers per clock read in a [`DelayRecorder`] after the first answer.
pub const STRIDE: u64 = 32;

/// Turn delay recording and phase spans on or off process-wide.
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
    /// Delay between consecutive answers within a page pull (nanoseconds;
    /// the first answer's delay is its TTF, matching `EnumerationTrace`
    /// semantics). One sample per answer served, timed per stride of
    /// [`STRIDE`] answers: the count and sum are exact, the percentiles and
    /// the max are those of stride means.
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

/// Measures inter-answer delay and TTF for one cursor.
///
/// Owned by the cursor (single-threaded); [`DelayRecorder::observe_answer`]
/// is the only hot call, bracketed per page pull by
/// [`DelayRecorder::begin_page`] and [`DelayRecorder::end_page`]. A recorder
/// optionally carries an `Arc<PlanObs>` — the plan-wide sink its local
/// counts are flushed into.
#[derive(Debug)]
pub struct DelayRecorder {
    clock: Arc<dyn Clock>,
    plan: Option<Arc<PlanObs>>,
    opened: u64,
    /// The reference point of the current stride: the last clock read.
    last: u64,
    /// Answers observed since `last` and not yet booked.
    pending: u64,
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
            pending: 0,
            ttf: None,
            local: LocalHistogram::new(),
            flushed_buckets,
            flushed_count: 0,
            flushed_sum: 0,
            flushed_ttf: false,
        }
    }

    /// A page pull starts: once the first answer has been seen, the next
    /// delay counts from now, so the time between pulls is not a delay.
    pub fn begin_page(&mut self) {
        if self.ttf.is_some() {
            self.last = self.clock.now_nanos();
        }
    }

    /// Record one produced answer. The first answer reads the clock, and
    /// its delay doubles as the TTF; after it, the clock is read once per
    /// [`STRIDE`] answers and the stride's gap is spread over them.
    #[inline]
    pub fn observe_answer(&mut self) {
        if self.ttf.is_none() {
            let now = self.clock.now_nanos();
            self.ttf = Some(now.saturating_sub(self.opened));
            self.local.record(now.saturating_sub(self.last));
            self.last = now;
            return;
        }
        self.pending += 1;
        if self.pending == STRIDE {
            self.stamp();
        }
    }

    /// Book the pending answers: one clock read, their gap spread evenly.
    fn stamp(&mut self) {
        let now = self.clock.now_nanos();
        self.local
            .record_spread(now.saturating_sub(self.last), self.pending);
        self.last = now;
        self.pending = 0;
    }

    /// A page pull ends: book a partial stride, then [`flush`](Self::flush).
    pub fn end_page(&mut self) {
        if self.pending > 0 {
            self.stamp();
        }
        self.flush();
    }

    /// Push everything booked since the previous flush into the plan's
    /// shared histograms. Cold path, reads no clock. No-op without a plan
    /// sink.
    fn flush(&mut self) {
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

    /// The cursor-local delay distribution booked so far (the first
    /// answer's delay is its TTF, matching `EnumerationTrace`). Answers of a
    /// stride still open are booked at [`DelayRecorder::end_page`].
    pub fn delays(&self) -> HistogramSnapshot {
        self.local.snapshot()
    }

    /// Time to first answer in nanoseconds, once one was produced.
    pub fn ttf_nanos(&self) -> Option<u64> {
        self.ttf
    }

    /// Answers observed so far, booked or not.
    pub fn answers(&self) -> u64 {
        self.local.count() + self.pending
    }
}

impl Drop for DelayRecorder {
    fn drop(&mut self) {
        self.end_page();
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
        r.begin_page();
        clock.advance(Duration::from_micros(5));
        r.observe_answer(); // ttf = 5µs, first delay = 5µs, stamped alone
        assert_eq!(r.delays().count(), 1);
        // A stride and a half at 3µs each, then a 9µs gap: the full stride
        // is booked when it closes, the rest when the page ends.
        let n = STRIDE + STRIDE / 2;
        for _ in 0..n {
            clock.advance(Duration::from_micros(3));
            r.observe_answer();
        }
        clock.advance(Duration::from_micros(9));
        r.observe_answer();
        assert_eq!(r.delays().count(), 1 + STRIDE, "one stride booked");
        assert_eq!(r.answers(), n + 2, "pending answers are still counted");
        r.end_page();

        assert_eq!(r.ttf_nanos(), Some(5_000));
        assert_eq!(r.answers(), n + 2);
        let d = r.delays();
        assert_eq!(d.count(), n + 2);
        assert_eq!(d.sum(), 5_000 + 3_000 * n + 9_000, "sum is exact");
        assert_eq!(d.max(), 5_000, "the TTF; the 9µs gap is spread");
        assert_eq!(
            crate::hist::bucket_index(d.p50()),
            crate::hist::bucket_index(3_000),
            "a full stride's mean"
        );
    }

    #[test]
    fn flush_is_incremental_not_duplicating() {
        let clock = Arc::new(ManualClock::new());
        let plan = Arc::new(PlanObs::default());
        let mut r = DelayRecorder::new(clock.clone() as Arc<dyn Clock>, Some(Arc::clone(&plan)));
        let us = Duration::from_micros;
        r.begin_page();
        clock.advance(us(1));
        r.observe_answer();
        r.end_page();
        assert_eq!(plan.delay.snapshot().count(), 1);
        assert_eq!(plan.ttf.snapshot().count(), 1);

        r.begin_page();
        clock.advance(us(2));
        r.observe_answer();
        r.end_page();
        r.flush(); // idempotent when nothing new happened
        r.end_page(); // so is an empty page end
        let delay = plan.delay.snapshot();
        assert_eq!((delay.count(), delay.sum()), (2, 3_000));

        // A page longer than a stride, flushed in increments.
        r.begin_page();
        for _ in 0..STRIDE + 3 {
            clock.advance(us(1));
            r.observe_answer();
        }
        r.flush(); // the closed stride only
        let delay = plan.delay.snapshot();
        assert_eq!(
            (delay.count(), delay.sum()),
            (2 + STRIDE, 3_000 + 1_000 * STRIDE)
        );
        drop(r); // drop ends the page — still no double counting
        let delay = plan.delay.snapshot();
        assert_eq!(delay.count(), 2 + STRIDE + 3);
        assert_eq!(delay.sum(), 3_000 + 1_000 * (STRIDE + 3));
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
