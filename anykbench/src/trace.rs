//! Bench-side tracing: one span around every call into a layer's public
//! entry point. The traced run issues the same logical operation at
//! successively deeper entry points, so a layer's *self* time is its own
//! span's median minus the median of the span one level in (its child).

use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans kept for the trace file; later spans still feed the medians.
const MAX_KEPT_SPANS: usize = 120_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Spans of one logical operation share the id, across depths.
    pub op: u64,
    pub name: &'static str,
    /// Name of the enclosing layer's span for the same operation (`""` for
    /// the outermost).
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span sink; written out once, when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Durations in ms per span name — every span, kept or not.
    durations: BTreeMap<&'static str, Vec<f64>>,
    dropped: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            durations: BTreeMap::new(),
            dropped: 0,
        }
    }

    /// Record a finished call.
    pub fn record(
        &mut self,
        op: u64,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        self.durations
            .entry(name)
            .or_default()
            .push((end_ns - start_ns) as f64 / 1e6);
        if self.spans.len() < MAX_KEPT_SPANS {
            self.spans.push(Span {
                op,
                name,
                parent,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Median duration of `name` in ms and its sample count (0.0 and 0 if
    /// the span never fired).
    pub fn median_ms(&self, name: &str) -> (f64, usize) {
        match self.durations.get(name) {
            Some(d) if !d.is_empty() => (stats::median(d), d.len()),
            _ => (0.0, 0),
        }
    }

    /// Self time of `name` in ms: its median minus its child's. Kept
    /// signed: a thin layer over a noisy child can read slightly negative,
    /// and hiding that would overstate how well the parts sum to the whole.
    pub fn self_ms(&self, name: &str, child: &str) -> (f64, usize) {
        let (own, n) = self.median_ms(name);
        (own - self.median_ms(child).0, n)
    }

    pub fn to_json(&self, workload: &str) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("dropped_spans", Json::Num(self.dropped as f64)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("op", Json::Num(s.op as f64)),
                                ("name", Json::str(s.name)),
                                ("parent", Json::str(s.parent)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tracer_with(spans: &[(&'static str, u64)]) -> Tracer {
        let mut t = Tracer::new();
        let base = t.epoch;
        for (i, (name, micros)) in spans.iter().enumerate() {
            t.record(
                i as u64,
                name,
                "",
                base,
                base + Duration::from_micros(*micros),
            );
        }
        t
    }

    #[test]
    fn self_times_telescope_to_the_outermost_span() {
        let t = tracer_with(&[
            ("net.page", 800),
            ("net.page", 820),
            ("net.page", 780),
            ("service.page", 600),
            ("cursor.page", 210),
            ("stream.page", 200),
        ]);
        let net = t.self_ms("net.page", "service.page").0;
        let service = t.self_ms("service.page", "cursor.page").0;
        let cursor = t.self_ms("cursor.page", "stream.page").0;
        let stream = t.median_ms("stream.page").0;
        assert!((net - 0.2).abs() < 1e-9 && (service - 0.39).abs() < 1e-9);
        assert!((net + service + cursor + stream - t.median_ms("net.page").0).abs() < 1e-9);
        assert_eq!(t.median_ms("net.page").1, 3);
    }

    #[test]
    fn a_span_that_never_fired_reads_zero() {
        let t = tracer_with(&[("service.page", 500)]);
        assert_eq!(t.median_ms("net.page"), (0.0, 0));
        // An absent child leaves the whole span as self time.
        assert_eq!(t.self_ms("service.page", "cursor.page").0, 0.5);
        // Thin layer over a noisy child: the sign is kept.
        let t = tracer_with(&[("cursor.page", 200), ("stream.page", 210)]);
        assert!(t.self_ms("cursor.page", "stream.page").0 < 0.0);
    }

    #[test]
    fn spans_beyond_the_cap_still_count() {
        let mut t = Tracer::new();
        let base = t.epoch;
        for i in 0..(MAX_KEPT_SPANS as u64 + 5) {
            t.record(i, "x", "", base, base + Duration::from_micros(1));
        }
        assert_eq!(t.spans.len(), MAX_KEPT_SPANS);
        assert_eq!(t.dropped, 5);
        assert_eq!(t.median_ms("x").1, MAX_KEPT_SPANS + 5);
    }
}
