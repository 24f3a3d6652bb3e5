//! Lightweight instrumentation used by the experiment harness.
//!
//! The paper's evaluation reports time-to-first (TTF), time-to-k-th result
//! (TT(k)), time-to-last (TTL), and the delay between consecutive results.
//! [`EnumerationTrace`] records the clock reading at which each result was
//! produced and derives those quantities; it is deliberately minimal so that
//! recording adds only one [`Clock`] read per result.
//!
//! Time comes from the injectable [`anyk_obs::Clock`] — production traces
//! use the monotonic default, tests hand in a
//! [`ManualClock`](anyk_obs::ManualClock) and script exact delays. For
//! *serving-path* delay measurement (timed per stride of answers inside a
//! live cursor, flushed to shared per-plan histograms) see
//! [`anyk_obs::DelayRecorder`]; this trace keeps every emission time and so
//! suits offline runs, not million-answer production sessions.

use anyk_obs::{Clock, HistogramSnapshot, LocalHistogram, MonotonicClock};
use std::sync::Arc;
use std::time::Duration;

/// A recording of one ranked-enumeration run.
#[derive(Debug, Clone)]
pub struct EnumerationTrace {
    clock: Arc<dyn Clock>,
    origin_nanos: u64,
    /// Elapsed time (since construction) at which the i-th result was
    /// emitted.
    emit_times: Vec<Duration>,
}

impl Default for EnumerationTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl EnumerationTrace {
    /// Start a new trace on the monotonic clock; the clock starts
    /// immediately.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// Start a new trace on an injected clock (origin = the clock's reading
    /// at this call). A [`ManualClock`](anyk_obs::ManualClock) makes every
    /// derived statistic exactly scriptable.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        let origin_nanos = clock.now_nanos();
        EnumerationTrace {
            clock,
            origin_nanos,
            emit_times: Vec::new(),
        }
    }

    /// Record that one more result has just been produced.
    pub fn record(&mut self) {
        let nanos = self.clock.now_nanos().saturating_sub(self.origin_nanos);
        self.emit_times.push(Duration::from_nanos(nanos));
    }

    /// Number of results recorded.
    pub fn count(&self) -> usize {
        self.emit_times.len()
    }

    /// Time-to-first result, if any result was produced.
    pub fn ttf(&self) -> Option<Duration> {
        self.emit_times.first().copied()
    }

    /// Time to the `k`-th result (1-based), if produced.
    pub fn tt(&self, k: usize) -> Option<Duration> {
        if k == 0 {
            return None;
        }
        self.emit_times.get(k - 1).copied()
    }

    /// Time-to-last result (equals `tt(count())`).
    pub fn ttl(&self) -> Option<Duration> {
        self.emit_times.last().copied()
    }

    /// Maximum delay between consecutive results (including the delay before
    /// the first one).
    pub fn max_delay(&self) -> Option<Duration> {
        if self.emit_times.is_empty() {
            return None;
        }
        let mut max = self.emit_times[0];
        for w in self.emit_times.windows(2) {
            max = max.max(w[1] - w[0]);
        }
        Some(max)
    }

    /// Mean delay between results (TTL divided by the number of results).
    pub fn mean_delay(&self) -> Option<Duration> {
        let ttl = self.ttl()?;
        Some(ttl / self.emit_times.len() as u32)
    }

    /// The consecutive-result delays folded into the shared log-bucketed
    /// histogram type ([`anyk_obs::HistogramSnapshot`]) — the same bucket
    /// math the serving path uses, so bench percentiles and service
    /// percentiles are directly comparable. The first result's delay is its
    /// TTF, matching [`EnumerationTrace::max_delay`].
    pub fn delay_histogram(&self) -> HistogramSnapshot {
        let mut hist = LocalHistogram::new();
        let mut prev = Duration::ZERO;
        for &t in &self.emit_times {
            let gap = t.saturating_sub(prev);
            hist.record(u64::try_from(gap.as_nanos()).unwrap_or(u64::MAX));
            prev = t;
        }
        hist.snapshot()
    }

    /// The full series of `(k, elapsed)` pairs — the exact data behind the
    /// "#results over time" plots (Figs. 10–13).
    pub fn series(&self) -> impl Iterator<Item = (usize, Duration)> + '_ {
        self.emit_times.iter().enumerate().map(|(i, d)| (i + 1, *d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_obs::ManualClock;

    fn traced(n: usize, limit: Option<usize>) -> (EnumerationTrace, usize) {
        let mut trace = EnumerationTrace::new();
        let mut produced = 0;
        for _ in 0..n {
            if let Some(l) = limit {
                if produced >= l {
                    break;
                }
            }
            trace.record();
            produced += 1;
        }
        (trace, produced)
    }

    #[test]
    fn trace_records_monotone_times() {
        let (trace, n) = traced(100, Some(10));
        assert_eq!(n, 10);
        assert_eq!(trace.count(), 10);
        assert!(trace.ttf().unwrap() <= trace.ttl().unwrap());
        assert_eq!(trace.tt(10), trace.ttl());
        assert!(trace.tt(11).is_none());
        assert!(trace.max_delay().is_some());
        assert!(trace.mean_delay().unwrap() <= trace.ttl().unwrap());
    }

    #[test]
    fn empty_trace_has_no_statistics() {
        let (trace, n) = traced(0, None);
        assert_eq!(n, 0);
        assert!(trace.ttf().is_none());
        assert!(trace.ttl().is_none());
        assert!(trace.max_delay().is_none());
        assert!(trace.delay_histogram().is_empty());
    }

    #[test]
    fn series_is_one_based_and_complete() {
        let (trace, _) = traced(5, None);
        let ks: Vec<usize> = trace.series().map(|(k, _)| k).collect();
        assert_eq!(ks, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn manual_clock_scripts_exact_delays() {
        // Regression: the trace used to call `Instant::now()` directly,
        // which made delay assertions non-deterministic. With the clock
        // threaded through, a scripted schedule yields exact statistics.
        let clock = Arc::new(ManualClock::new());
        let mut trace = EnumerationTrace::with_clock(clock.clone() as Arc<dyn Clock>);

        clock.advance(Duration::from_millis(7)); // TTF
        trace.record();
        clock.advance(Duration::from_millis(2));
        trace.record();
        clock.advance(Duration::from_millis(5));
        trace.record();
        clock.advance(Duration::from_millis(1));
        trace.record();

        assert_eq!(trace.ttf(), Some(Duration::from_millis(7)));
        assert_eq!(trace.tt(3), Some(Duration::from_millis(14)));
        assert_eq!(trace.ttl(), Some(Duration::from_millis(15)));
        assert_eq!(trace.max_delay(), Some(Duration::from_millis(7)));
        assert_eq!(
            trace.mean_delay(),
            Some(Duration::from_millis(15) / 4),
            "TTL / count exactly"
        );

        let hist = trace.delay_histogram();
        assert_eq!(hist.count(), 4);
        assert_eq!(hist.sum(), 15_000_000);
        assert_eq!(hist.max(), 7_000_000);
    }

    #[test]
    fn with_clock_origin_is_the_current_reading() {
        let clock = Arc::new(ManualClock::new());
        clock.advance(Duration::from_secs(100));
        let mut trace = EnumerationTrace::with_clock(clock.clone() as Arc<dyn Clock>);
        clock.advance(Duration::from_millis(3));
        trace.record();
        assert_eq!(
            trace.ttf(),
            Some(Duration::from_millis(3)),
            "elapsed is measured from construction, not the clock's origin"
        );
    }

    #[test]
    fn driving_a_trace_over_an_iterator_counts_and_limits() {
        // What the retired `trace_enumeration` helper did, written directly
        // against the surviving API: pull an iterator, record each item,
        // stop at the limit.
        let mut trace = EnumerationTrace::new();
        let mut produced = 0;
        for _ in 0..5 {
            if produced >= 3 {
                break;
            }
            trace.record();
            produced += 1;
        }
        assert_eq!(produced, 3);
        assert_eq!(trace.count(), 3);
    }
}
