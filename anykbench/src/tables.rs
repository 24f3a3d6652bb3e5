//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` lists the same
//! names (a test below keeps the two in step); later issues quote them
//! verbatim.

/// Which query a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// `R1(x1,x2), R2(x2,x3), R3(x3,x4), R4(x4,x5)`.
    Path4,
    /// Path-4 with an equality selection on the middle variable `x3`.
    Filter4,
    /// The 6-cycle over the worst-case (hub) instance.
    Cycle6,
}

/// Which entry point the untraced loop drives, i.e. the outermost layer a
/// user of that workload talks to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In-process `QueryService`, a pristine service per session.
    ColdService,
    /// `AnyKServer` over TCP, plan cached, `C` closed-loop clients.
    ServeTcp,
    /// `ServeTcp` with one paging client fewer and an open-loop ingester.
    MixedTcp,
    /// Bare engine: cold `from_spec` + one `AnswerCursor` per session.
    DeepEngine,
}

/// How a session pages: one pull of `first` answers, then pulls of `page`
/// until `k` answers were served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub first: usize,
    pub page: usize,
    pub k: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub query: Query,
    pub kind: Kind,
    /// Tuples per relation, fixed in code.
    pub n: usize,
    pub shape: Shape,
    /// What `--quick` shrinks: tuples per relation and answers per session.
    pub quick_n: usize,
    pub quick_k: usize,
}

const PAGES_OF_100: Shape = Shape {
    first: 100,
    page: 100,
    k: 1000,
};

const fn path4(name: &'static str, why: &'static str, query: Query, kind: Kind) -> Workload {
    Workload {
        name,
        why,
        query,
        kind,
        n: 50_000,
        shape: PAGES_OF_100,
        quick_n: 400,
        quick_k: 1000,
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        // The first pull is one answer, so text -> first pull is the
        // paper's TTF.
        shape: Shape {
            first: 1,
            ..PAGES_OF_100
        },
        ..path4(
            "cold_path4",
            "pristine service per session: index build, compile and bottom-up do the work, wire none",
            Query::Path4,
            Kind::ColdService,
        )
    },
    path4(
        "serve_path4",
        "TCP paging over a warm large plan: cursor construction and the per-page MEM re-charge dominate",
        Query::Path4,
        Kind::ServeTcp,
    ),
    path4(
        "serve_filter4",
        "same loop over a tiny filtered plan: wire and codec are the largest share, engine the smallest",
        Query::Filter4,
        Kind::ServeTcp,
    ),
    path4(
        "mixed_path4",
        "paging beside open-loop delta ingestion: writes and reads share the snapshot machinery",
        Query::Path4,
        Kind::MixedTcp,
    ),
    Workload {
        name: "deep_cycle6",
        why: "one cursor pulled to k = 1e6 on the worst-case 6-cycle: core heap, arena and union at large k",
        query: Query::Cycle6,
        kind: Kind::DeepEngine,
        n: 1_000,
        shape: Shape {
            first: 1000,
            page: 1000,
            k: 1_000_000,
        },
        quick_n: 60,
        quick_k: 20_000,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// `compare` (and the driver) call it a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these (README: what each means on
/// each workload). Timings drifted by up to 16 % (quartile distance over
/// ten seeds) on the shared recording box, so they carry the contract's
/// widest bound; the counts carry about three times what they showed
/// (README, *Steadiness*).
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("prep_p50_ms", "ms", Better::Lower, 0.25),
    e2e("cold_ttf_p50_ms", "ms", Better::Lower, 0.25),
    e2e("first_page_p50_ms", "ms", Better::Lower, 0.25),
    e2e("page_p50_ms", "ms", Better::Lower, 0.25),
    e2e("session_p50_ms", "ms", Better::Lower, 0.25),
    e2e("pages_per_s", "1/s", Better::Higher, 0.25),
    e2e("ttk_p50_ms", "ms", Better::Lower, 0.25),
    e2e("ingest_p50_ms", "ms", Better::Lower, 0.25),
    e2e("mem_units", "units", Better::Lower, 0.05),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Algorithm tokens used in `core.<alg>.*` names, in the paper's plot order.
pub const ALGORITHMS: [&str; 6] = ["recursive", "take2", "lazy", "eager", "all", "batch"];

/// Every traced run reports every one of these; a layer a workload never
/// enters reads 0.
pub const PER_LAYER: [PerLayer; 68] = [
    // query
    lo("query.parse_us", "us"),
    lo("query.plan_key_us", "us"),
    // storage
    lo("storage.index_build_ms", "ms"),
    lo("storage.index_misses_per_prepare", "count"),
    hi("storage.index_cache_hit_ratio", "ratio"),
    lo("storage.apply_delta_ms", "ms"),
    // engine
    lo("engine.prepare_cold_ms", "ms"),
    lo("engine.prepare_warm_ms", "ms"),
    lo("engine.cursor_first_page_ms", "ms"),
    lo("engine.cursor_page_self_ms", "ms"),
    lo("engine.refresh_ms", "ms"),
    lo("engine.rebuild_ms", "ms"),
    hi("engine.refresh_speedup", "ratio"),
    lo("engine.shard_prep_ratio", "ratio"),
    // core
    lo("core.stream_first_page_ms", "ms"),
    lo("core.stream_page_ms", "ms"),
    lo("core.recursive.ttf_ms", "ms"),
    lo("core.recursive.tt1000_ms", "ms"),
    lo("core.recursive.ttk_ms", "ms"),
    lo("core.take2.ttf_ms", "ms"),
    lo("core.take2.tt1000_ms", "ms"),
    lo("core.take2.ttk_ms", "ms"),
    lo("core.lazy.ttf_ms", "ms"),
    lo("core.lazy.tt1000_ms", "ms"),
    lo("core.lazy.ttk_ms", "ms"),
    lo("core.eager.ttf_ms", "ms"),
    lo("core.eager.tt1000_ms", "ms"),
    lo("core.eager.ttk_ms", "ms"),
    lo("core.all.ttf_ms", "ms"),
    lo("core.all.tt1000_ms", "ms"),
    lo("core.all.ttk_ms", "ms"),
    lo("core.batch.ttf_ms", "ms"),
    lo("core.batch.tt1000_ms", "ms"),
    lo("core.batch.ttk_ms", "ms"),
    lo("core.mem.candidates", "count"),
    lo("core.mem.prefix_arena", "count"),
    lo("core.mem.succ_structures", "count"),
    lo("core.mem.succ_table_slots", "count"),
    lo("core.mem.succ_choices", "count"),
    // obs
    lo("obs.recording_overhead_pct", "%"),
    lo("obs.ttf_ns", "ns"),
    lo("obs.delay_p50_ns", "ns"),
    lo("obs.delay_p99_ns", "ns"),
    // service
    lo("service.prepare_self_ms", "ms"),
    lo("service.open_self_ms", "ms"),
    lo("service.page_self_ms", "ms"),
    lo("service.close_us", "us"),
    lo("service.ingest_self_ms", "ms"),
    hi("service.plan_hit_ratio", "ratio"),
    hi("service.pages_served", "count"),
    hi("service.sessions_opened", "count"),
    lo("service.sessions_shed", "count"),
    hi("service.plans_refreshed", "count"),
    lo("service.plans_recompiled", "count"),
    lo("service.peak_mem_units", "units"),
    // net
    lo("net.ping_us", "us"),
    lo("net.open_self_ms", "ms"),
    lo("net.page_self_ms", "ms"),
    lo("net.page_codec_us", "us"),
    lo("net.ingest_self_ms", "ms"),
    hi("net.connections_accepted", "count"),
    lo("net.read_timeouts", "count"),
    // tails under the real load shape: too unsteady on a shared host to
    // gate on, so demoted from the end-to-end list (README, *Steadiness*)
    lo("first_page_p99_ms", "ms"),
    lo("page_p99_ms", "ms"),
    lo("ingest_p90_ms", "ms"),
    // datagen and the harness itself
    lo("datagen.build_s", "s"),
    lo("bench.trace_overhead_pct", "%"),
    lo("bench.gen_lateness_p99_ms", "ms"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    /// The contract's name rule: starts with a letter or digit, at most 64 of
    /// `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The contract's unit rule: at most 16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn name_rule() {
        for ok in [
            "setup_s",
            "core.take2.ttf_ms",
            "p99-tail",
            "4cycle",
            "A.b_c-9",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "slash/x",
            "pct%",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MB"));
        assert!(!valid_unit("") && !valid_unit("per second") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn every_name_is_valid_and_used_once() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "{unit}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        for alg in ALGORITHMS {
            for suffix in ["ttf_ms", "tt1000_ms", "ttk_ms"] {
                let name = format!("core.{alg}.{suffix}");
                assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
            }
        }
    }

    /// `BENCHMARK.json` at the repo root and the tables above list the same
    /// names, units, directions and bounds.
    #[test]
    fn tables_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let Json::Obj(pairs) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
        }
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
        }
    }
}
