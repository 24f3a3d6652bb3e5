//! The stats snapshot the observability endpoint serves.
//!
//! [`StatsSnapshot`] bundles everything [`QueryService::stats_snapshot`]
//! scrapes — the atomic [`ServiceMetrics`] counters, the process-wide phase
//! timings, the service-wide page-latency summary, and per-plan TTF / delay
//! / page distributions — behind an explicit `version` so wire peers can
//! reject layouts they do not understand. [`StatsSnapshot::render_prometheus`]
//! turns one snapshot into the Prometheus text exposition format for
//! scrape-style consumers.
//!
//! [`QueryService::stats_snapshot`]: crate::QueryService::stats_snapshot

use crate::service::ServiceMetrics;
use anyk_obs::{HistogramSummary, PhaseSnapshot, PlanSummaries};

/// Layout version of [`StatsSnapshot`] (bumped whenever a field is added,
/// removed, or reordered — including [`ServiceMetrics::fields`] entries).
pub const STATS_VERSION: u32 = 3;

/// One consistent scrape of the service's observability surface: counters,
/// phase timings, and latency distributions in one versioned bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Layout version ([`STATS_VERSION`] for snapshots produced by this
    /// build).
    pub version: u32,
    /// The snapshot generation serving new sessions, taken from the same
    /// critical section as `metrics` (never disagrees with
    /// `metrics.current_generation`).
    pub generation: u64,
    /// Every counter and gauge, scraped atomically.
    pub metrics: ServiceMetrics,
    /// Process-wide phase timing accumulators (index build, compile,
    /// bottom-up sweep, refresh, rotation, wire read/write).
    pub phases: Vec<PhaseSnapshot>,
    /// Service-wide `next_page` latency distribution across all plans.
    pub page_latency: HistogramSummary,
    /// Per-plan distributions, sorted by canonical plan key.
    pub plans: Vec<(String, PlanSummaries)>,
}

/// Escape a label value per the Prometheus text format (`\`, `"`, newline).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Append one histogram summary as `<metric>{<labels>quantile="…"}` lines
/// plus `_count` / `_sum` / `_max` companions.
fn push_summary(out: &mut String, metric: &str, labels: &str, s: &HistogramSummary) {
    use std::fmt::Write as _;
    let sep = if labels.is_empty() { "" } else { "," };
    for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
        let _ = writeln!(out, "{metric}{{{labels}{sep}quantile=\"{q}\"}} {v}");
    }
    let brace = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let _ = writeln!(out, "{metric}_count{brace} {}", s.count);
    let _ = writeln!(out, "{metric}_sum{brace} {}", s.sum);
    let _ = writeln!(out, "{metric}_max{brace} {}", s.max);
}

impl StatsSnapshot {
    /// Render the snapshot in the Prometheus text exposition format. All
    /// durations are nanoseconds (suffix `_nanos`); quantile lines follow
    /// the summary-metric convention so dashboards can plot p50/p90/p99
    /// delay directly against the paper's delay guarantees.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        const GAUGES: [&str; 7] = [
            "active_sessions",
            "pages_in_flight",
            "mem_resident_units",
            "current_generation",
            "active_generations",
            "snapshot_resident_units",
            "peak_mem_resident_units",
        ];
        let mut out = String::new();
        let _ = writeln!(out, "anyk_stats_version {}", self.version);
        let _ = writeln!(out, "anyk_generation {}", self.generation);
        for (name, value) in self.metrics.fields() {
            let kind = if GAUGES.contains(&name) {
                "gauge"
            } else {
                "counter"
            };
            let _ = writeln!(out, "# TYPE anyk_{name} {kind}");
            let _ = writeln!(out, "anyk_{name} {value}");
        }
        for p in &self.phases {
            let label = format!("phase=\"{}\"", p.phase.name());
            let _ = writeln!(out, "anyk_phase_count{{{label}}} {}", p.count);
            let _ = writeln!(out, "anyk_phase_nanos_total{{{label}}} {}", p.total_nanos);
            let _ = writeln!(out, "anyk_phase_max_nanos{{{label}}} {}", p.max_nanos);
        }
        push_summary(&mut out, "anyk_page_latency_nanos", "", &self.page_latency);
        for (key, sums) in &self.plans {
            let label = format!("plan=\"{}\"", escape_label(key));
            push_summary(&mut out, "anyk_plan_ttf_nanos", &label, &sums.ttf);
            push_summary(&mut out, "anyk_plan_delay_nanos", &label, &sums.delay);
            push_summary(&mut out, "anyk_plan_page_nanos", &label, &sums.page);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_obs::Phase;

    fn sample() -> StatsSnapshot {
        let metrics = ServiceMetrics {
            sessions_opened: 3,
            answers_served: 41,
            current_generation: 7,
            ..Default::default()
        };
        StatsSnapshot {
            version: STATS_VERSION,
            generation: 7,
            metrics,
            phases: vec![PhaseSnapshot {
                phase: Phase::Compile,
                count: 2,
                total_nanos: 9000,
                max_nanos: 6000,
            }],
            page_latency: HistogramSummary {
                count: 5,
                sum: 5000,
                max: 2000,
                p50: 900,
                p90: 1900,
                p99: 2000,
            },
            plans: vec![("Q(x) :- R(x, \"lit\")".to_owned(), PlanSummaries::default())],
        }
    }

    #[test]
    fn prometheus_rendering_covers_every_section() {
        let text = sample().render_prometheus();
        assert!(text.contains(&format!("anyk_stats_version {STATS_VERSION}")));
        assert!(text.contains("anyk_generation 7"));
        assert!(text.contains("# TYPE anyk_sessions_opened counter"));
        assert!(text.contains("anyk_sessions_opened 3"));
        assert!(text.contains("# TYPE anyk_active_sessions gauge"));
        assert!(text.contains("anyk_phase_count{phase=\"compile\"} 2"));
        assert!(text.contains("anyk_phase_nanos_total{phase=\"compile\"} 9000"));
        assert!(text.contains("anyk_page_latency_nanos{quantile=\"0.5\"} 900"));
        assert!(text.contains("anyk_page_latency_nanos_count 5"));
        assert!(
            text.contains("anyk_plan_ttf_nanos{plan=\"Q(x) :- R(x, \\\"lit\\\")\",quantile="),
            "label values are escaped"
        );
    }

    #[test]
    fn metrics_field_round_trip_is_lossless() {
        let metrics = sample().metrics;
        let values: Vec<u64> = metrics.fields().iter().map(|(_, v)| *v).collect();
        let arr: [u64; ServiceMetrics::FIELD_COUNT] = values.try_into().unwrap();
        assert_eq!(ServiceMetrics::from_values(&arr), metrics);
    }
}
