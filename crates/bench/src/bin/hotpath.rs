//! Hot-path microbenchmark for the CSR T-DP layout work: TTF / TT(k) for the
//! workload shapes whose candidate-expansion loops dominate wall-clock
//! (path-4, star-3, cycle-6, plus the string-keyed text-3 scenario whose
//! columns are dictionary-encoded usernames), across every any-k algorithm,
//! plus `prep_ms` (compile + bottom-up — the phase targeted by the
//! columnar/parallel preprocessing pipeline) and a MEM(k) snapshot per
//! anyK-part variant (candidate queue, shared-prefix arena,
//! successor-structure table). The text scenario must track the integer
//! scenarios closely: encoding happens at build time, so any enumeration gap
//! would indicate the dictionary layer leaking into the hot loops.
//!
//! A `service` scenario additionally measures the query-service subsystem:
//! concurrent paged sessions (N sessions × path-4/star-3/text3, pages of
//! 100 answers) reporting p50/p99 page latency and aggregate pages/sec —
//! the serving-throughput counterpart to the per-algorithm TT(k) numbers.
//! An `overload` scenario then doubles the client count against a governor
//! capped at N sessions, reporting the admission controller's shed rate and
//! the p99 page latency admitted sessions see at 2× capacity.
//!
//! Two network scenarios put the same serving loops behind the TCP wire
//! transport (`anyk_server::net`): `net4` runs thousands of *sequential*
//! sessions over one real socket — its page latencies sit next to the
//! in-process `service` numbers, so the delta between the two sections is
//! the wire tax (frame encode/decode plus a localhost round-trip) — and
//! `net_overload` repeats the 2×-capacity experiment over real sockets,
//! where shed replies additionally ride the protocol's retry-after hint
//! back to the blocking client.
//!
//! A `delta4` scenario measures incremental maintenance: a ~0.1% edit batch
//! applied via `Database::apply_delta` + `PreparedQuery::refresh` (the
//! dirty-cone re-sweep behind `QueryService::ingest`) versus a full
//! recompile over the same post-edit data, reporting the refresh speedup.
//!
//! An `obs` scenario prices the observability layer itself: TT(1000) on the
//! path-4 paged cursor with delay recording on versus off
//! (`anyk_obs::set_recording`), interleaved best-of-N so thermal drift hits
//! both sides equally. `overhead_pct` is the cost of leaving recording on —
//! the budget is a few percent. The `net4` scenario additionally scrapes the
//! server's Stats opcode after its run and embeds the per-plan delay
//! percentiles and the prep-phase breakdown (index build / compile /
//! bottom-up) the wire reported.
//!
//! Writes `BENCH_hotpath.json` (override with `ANYK_HOTPATH_OUT`) so the
//! perf trajectory of the enumeration hot loops is recorded in-repo. If
//! `ANYK_HOTPATH_BASELINE` names an existing JSON file (a previous run, e.g.
//! measured on the pre-refactor tree), its contents are embedded verbatim
//! under the `"baseline"` key for side-by-side comparison.
//!
//! Run with `ANYK_SCALE=quick` for a CI smoke pass (sub-second inputs).

use anyk_bench::Scale;
use anyk_core::metrics::EnumerationTrace;
use anyk_core::AnyKAlgorithm;
use anyk_datagen::{cycles, rng, text, uniform};
use anyk_engine::{PreparedQuery, RankedQuery};
use anyk_query::{parse_query, QueryBuilder, QuerySpec, RankingFunction};
use anyk_server::net::{AnyKClient, AnyKServer, ClientConfig, NetConfig};
use anyk_server::{
    set_recording, GovernorConfig, HistogramSummary, Phase, PlanSummaries, QueryService,
    ServiceConfig, ServiceError,
};
use anyk_storage::{Database, DeltaBatch, Tuple};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ranks at which TT(k) is reported.
const CHECKPOINTS: [usize; 4] = [1, 10, 100, 1000];
/// Enumeration is cut off after this many results: the hot loops are fully
/// exercised by then and full enumeration would dominate the run time.
const LIMIT: usize = 1000;
/// Timed repetitions per (workload, algorithm); the best run is reported
/// (standard practice for cache-sensitivity microbenchmarks).
const REPEATS: usize = 3;

/// The algorithms whose hot loops this benchmark tracks. `Batch` is excluded:
/// its time is all materialisation + sort (minutes on the worst-case cycle
/// input), not the candidate-expansion loops this file measures.
const ALGORITHMS: [AnyKAlgorithm; 5] = [
    AnyKAlgorithm::Recursive,
    AnyKAlgorithm::Take2,
    AnyKAlgorithm::Lazy,
    AnyKAlgorithm::Eager,
    AnyKAlgorithm::All,
];

struct Workload {
    name: &'static str,
    db: Database,
    /// The request, as a `QuerySpec` — every workload now goes through the
    /// textual request API's plan path (`RankedQuery::from_spec`), so this
    /// benchmark also guards the spec/pushdown layer's overhead.
    spec: QuerySpec,
}

fn workloads(scale: Scale) -> Vec<Workload> {
    let path_n = scale.pick(400, 50_000, 200_000);
    let star_n = scale.pick(400, 50_000, 200_000);
    let cycle_n = scale.pick(60, 1_000, 4_000);
    let path_db = uniform::path_or_star_database(4, path_n, &mut rng(11));
    vec![
        Workload {
            name: "path4",
            db: path_db.clone(),
            spec: QuerySpec::from_query(
                &QueryBuilder::path(4).build(),
                RankingFunction::SumAscending,
            ),
        },
        // The selection-pushdown hot path: path-4 with a selective equality
        // predicate on the middle join variable (`x3 = 7` keeps ~1/domain of
        // R2/R3). `prep_ms` covers the row-list pass + compilation over the
        // listed rows.
        Workload {
            name: "filter4",
            db: path_db,
            spec: parse_query(
                "Q(x1, x2, x3, x4, x5) :- R1(x1, x2), R2(x2, x3), R3(x3, x4), R4(x4, x5), \
                 x3 = 7",
            )
            .expect("filter4 request parses"),
        },
        Workload {
            name: "star3",
            db: uniform::path_or_star_database(3, star_n, &mut rng(12)),
            spec: QuerySpec::from_query(
                &QueryBuilder::star(3).build(),
                RankingFunction::SumAscending,
            ),
        },
        Workload {
            name: "cycle6",
            db: cycles::worst_case_cycle_database(6, cycle_n, &mut rng(13)),
            spec: QuerySpec::from_query(
                &QueryBuilder::cycle(6).build(),
                RankingFunction::SumAscending,
            ),
        },
        Workload {
            name: "text3",
            db: text::text_social_database(
                3,
                text::TextSocialConfig {
                    users: scale.pick(200, 8_000, 40_000),
                    avg_degree: 4,
                },
                &mut rng(14),
            ),
            spec: QuerySpec::from_query(
                &QueryBuilder::path(3).build(),
                RankingFunction::SumAscending,
            ),
        },
    ]
}

fn ms(d: Option<Duration>) -> String {
    match d {
        Some(d) => format!("{:.4}", d.as_secs_f64() * 1e3),
        None => "null".to_string(),
    }
}

/// Concurrent sessions per service scenario.
const SERVICE_SESSIONS: usize = 8;
/// Answers per page in the service scenario.
const SERVICE_PAGE_SIZE: usize = 100;

struct ServiceRun {
    pages: usize,
    answers: usize,
    pages_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

/// Run `SERVICE_SESSIONS` concurrent sessions over `w`, each pulling pages
/// of `SERVICE_PAGE_SIZE` until `LIMIT` answers (or exhaustion), and report
/// aggregate paging throughput and page-latency percentiles. The plan is
/// prepared once up front (shared by all sessions via the service's plan
/// cache), so the measured latencies are pure enumeration + service
/// overhead — the steady-state serving cost.
fn run_service(w: &Workload) -> ServiceRun {
    let service = QueryService::new(w.db.clone());
    service.prepare_spec(&w.spec).expect("plan");
    let start = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SERVICE_SESSIONS)
            .map(|_| {
                let service = &service;
                let spec = &w.spec;
                scope.spawn(move || {
                    let id = service.open_session_spec(spec).unwrap();
                    let mut lat = Vec::new();
                    let mut buf = Vec::with_capacity(SERVICE_PAGE_SIZE);
                    let mut served = 0usize;
                    loop {
                        let t = Instant::now();
                        let done = service
                            .next_page_into(id, SERVICE_PAGE_SIZE, &mut buf)
                            .unwrap();
                        lat.push(t.elapsed().as_secs_f64() * 1e3);
                        served += buf.len();
                        if done || served >= LIMIT {
                            break;
                        }
                    }
                    service.close_session(id);
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("session thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let metrics = service.metrics();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    ServiceRun {
        pages: latencies.len(),
        answers: metrics.answers_served as usize,
        pages_per_sec: latencies.len() as f64 / wall,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
    }
}

struct OverloadRun {
    clients: usize,
    session_cap: usize,
    opens: u64,
    sheds: u64,
    shed_rate: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Answers each overload client pulls. Larger than the service scenario's
/// `LIMIT`: session open (cursor construction) costs real CPU, so sessions
/// must live long enough relative to opens for 2× clients to actually
/// overlap at the admission controller instead of draining in sequence.
const OVERLOAD_ANSWERS: usize = 5 * LIMIT;

/// Overload scenario: `2 × SERVICE_SESSIONS` clients hammer a service whose
/// governor caps concurrent sessions at `SERVICE_SESSIONS`. Clients retry
/// shed opens after the service's own `retry_after_hint`, so the measured
/// numbers are the steady-state behaviour a well-behaved client sees at 2×
/// capacity: what fraction of open attempts the admission controller sheds,
/// and what paging latency admitted sessions get while the cap keeps the
/// box from overcommitting.
fn run_overload(w: &Workload) -> OverloadRun {
    let session_cap = SERVICE_SESSIONS;
    let clients = 2 * session_cap;
    let service = QueryService::with_config(
        w.db.clone(),
        ServiceConfig {
            governor: GovernorConfig {
                max_sessions: Some(session_cap),
                retry_after_hint: Duration::from_micros(200),
                ..GovernorConfig::default()
            },
            ..ServiceConfig::default()
        },
    );
    service.prepare_spec(&w.spec).expect("plan");
    // All clients arrive at once: without the barrier, fast workloads let
    // early sessions drain before late threads even spawn, and the
    // admission controller never sees 2× pressure.
    let start_line = std::sync::Barrier::new(clients);
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let service = &service;
                let spec = &w.spec;
                let start_line = &start_line;
                scope.spawn(move || {
                    start_line.wait();
                    let id = loop {
                        match service.open_session_spec(spec) {
                            Ok(id) => break id,
                            Err(ServiceError::Overloaded {
                                retry_after_hint, ..
                            }) => std::thread::sleep(retry_after_hint),
                            Err(other) => panic!("unexpected open error: {other}"),
                        }
                    };
                    let mut lat = Vec::new();
                    let mut buf = Vec::with_capacity(SERVICE_PAGE_SIZE);
                    let mut served = 0usize;
                    loop {
                        let t = Instant::now();
                        let done = service
                            .next_page_into(id, SERVICE_PAGE_SIZE, &mut buf)
                            .unwrap();
                        lat.push(t.elapsed().as_secs_f64() * 1e3);
                        served += buf.len();
                        if done || served >= OVERLOAD_ANSWERS {
                            break;
                        }
                    }
                    service.close_session(id);
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let metrics = service.metrics();
    assert_eq!(metrics.active_sessions, 0, "all overload clients finished");
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let attempts = metrics.sessions_opened + metrics.sessions_shed;
    OverloadRun {
        clients,
        session_cap,
        opens: metrics.sessions_opened,
        sheds: metrics.sessions_shed,
        shed_rate: metrics.sessions_shed as f64 / attempts as f64,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
    }
}

struct NetRun {
    sessions: usize,
    pages: usize,
    answers: usize,
    sessions_per_sec: f64,
    pages_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    /// The workload plan's TTF/delay/page distributions as the server's
    /// Stats opcode reported them after the run — the wire-scraped
    /// counterpart to the client-side latencies above.
    plan_stats: PlanSummaries,
    /// Process-wide prep-phase accumulators from the same scrape:
    /// `(phase name, fire count, total ms)` for the preprocessing pipeline.
    /// Cumulative across every scenario the bench ran before this one.
    prep_phases: Vec<(&'static str, u64, f64)>,
}

/// `net4`: the wire-transport counterpart to the `service` scenario. One
/// blocking client runs thousands of sequential sessions against an
/// [`AnyKServer`] on an ephemeral localhost port, each session streaming
/// `LIMIT` answers in `SERVICE_PAGE_SIZE` pages. Enumeration cost is
/// identical to the in-process path (same plan cache, same cursors), so the
/// per-page latency delta versus `service` is pure wire tax: frame
/// encode/decode plus a localhost TCP round-trip. Session churn (open +
/// close round-trips per session) lands in `sessions_per_sec` instead of
/// the page percentiles.
fn run_net(w: &Workload, scale: Scale) -> NetRun {
    let sessions = scale.pick(40, 2_000, 10_000);
    let service = Arc::new(QueryService::new(w.db.clone()));
    service.prepare_spec(&w.spec).expect("plan");
    let mut server = AnyKServer::bind(
        Arc::clone(&service),
        ("127.0.0.1", 0),
        NetConfig {
            // One sequential client: a single worker owns its connection.
            workers: 1,
            max_connections: 4,
            ..NetConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let text = w.spec.canonical_text();
    let mut client = AnyKClient::connect(server.local_addr(), ClientConfig::default());
    let mut latencies: Vec<f64> = Vec::new();
    let mut answers = 0usize;
    let start = Instant::now();
    for _ in 0..sessions {
        let session = client.open_session(&text).expect("open over tcp");
        let mut served = 0usize;
        loop {
            let t = Instant::now();
            let page = client
                .next_page(session, SERVICE_PAGE_SIZE)
                .expect("page over tcp");
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            served += page.answers.len();
            answers += page.answers.len();
            if page.done || served >= LIMIT {
                break;
            }
        }
        client.close(session).expect("close over tcp");
    }
    let wall = start.elapsed().as_secs_f64();
    // One Stats round-trip before shutdown: the scrape every dashboard
    // would make, here doubling as bench output.
    let stats = client.stats().expect("stats over tcp");
    server.shutdown();
    let key = w.spec.plan_key();
    let plan_stats = stats
        .plans
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, s)| *s)
        .expect("the benched plan has distributions");
    let prep_phases = [Phase::IndexBuild, Phase::Compile, Phase::BottomUp]
        .into_iter()
        .map(|p| {
            let s = stats.phases.iter().find(|s| s.phase == p);
            (
                p.name(),
                s.map_or(0, |s| s.count),
                s.map_or(0.0, |s| s.total_nanos as f64 / 1e6),
            )
        })
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    NetRun {
        sessions,
        pages: latencies.len(),
        answers,
        sessions_per_sec: sessions as f64 / wall,
        pages_per_sec: latencies.len() as f64 / wall,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        plan_stats,
        prep_phases,
    }
}

/// `net_overload`: the 2×-capacity overload experiment over real sockets.
/// Same governor cap as [`run_overload`], but every shed now travels the
/// wire as an `Overloaded` frame whose retry-after hint the blocking client
/// honours inside `open_session` — so the measured shed rate and admitted
/// page latency are what a remote, well-behaved client sees.
fn run_net_overload(w: &Workload) -> OverloadRun {
    let session_cap = SERVICE_SESSIONS;
    let clients = 2 * session_cap;
    let service = Arc::new(QueryService::with_config(
        w.db.clone(),
        ServiceConfig {
            governor: GovernorConfig {
                max_sessions: Some(session_cap),
                retry_after_hint: Duration::from_micros(200),
                ..GovernorConfig::default()
            },
            ..ServiceConfig::default()
        },
    ));
    service.prepare_spec(&w.spec).expect("plan");
    let mut server = AnyKServer::bind(
        Arc::clone(&service),
        ("127.0.0.1", 0),
        NetConfig {
            // Every client must be served concurrently: a worker owns its
            // connection until disconnect, so the pool matches the crowd.
            workers: clients,
            max_connections: 2 * clients,
            ..NetConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let text = w.spec.canonical_text();
    let start_line = std::sync::Barrier::new(clients);
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let text = &text;
                let start_line = &start_line;
                scope.spawn(move || {
                    // Session sheds ride the governor's 200µs retry-after
                    // hint; a matching backoff floor keeps the hint, not the
                    // client's own schedule, in charge of the retry cadence.
                    let mut client = AnyKClient::connect(
                        addr,
                        ClientConfig {
                            initial_backoff: Duration::from_micros(200),
                            max_backoff: Duration::from_millis(2),
                            max_retries: u32::MAX,
                            ..ClientConfig::default()
                        },
                    );
                    start_line.wait();
                    let session = client.open_session(text).expect("open survives shedding");
                    let mut lat = Vec::new();
                    let mut served = 0usize;
                    loop {
                        let t = Instant::now();
                        let page = client
                            .next_page(session, SERVICE_PAGE_SIZE)
                            .expect("page over tcp");
                        lat.push(t.elapsed().as_secs_f64() * 1e3);
                        served += page.answers.len();
                        if page.done || served >= OVERLOAD_ANSWERS {
                            break;
                        }
                    }
                    client.close(session).expect("close over tcp");
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("net client thread"))
            .collect()
    });
    server.shutdown();
    let metrics = service.metrics();
    assert_eq!(
        metrics.active_sessions, 0,
        "all net overload clients finished"
    );
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let attempts = metrics.sessions_opened + metrics.sessions_shed;
    OverloadRun {
        clients,
        session_cap,
        opens: metrics.sessions_opened,
        sheds: metrics.sessions_shed,
        shed_rate: metrics.sessions_shed as f64 / attempts as f64,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
    }
}

struct DeltaRun {
    edits: usize,
    apply_ms: f64,
    refresh_ms: f64,
    rebuild_prep_ms: f64,
    speedup: f64,
}

/// `delta4`: delta maintenance vs full rebuild on the path-4 workload.
/// A ~0.1%-of-tuples batch (one delete + one insert per edit slot, spread
/// across all four relations) is applied to a prepared plan two ways: the
/// incremental path (`Database::apply_delta` + `PreparedQuery::refresh`,
/// which re-sweeps only the dirty cone of the bottom-up DP) and a full
/// recompile over the delta-applied database. `speedup` is rebuild prep
/// over total incremental time — the factor a serving ingest saves per
/// cached plan. Both paths are checked to stream identical top answers
/// before anything is reported.
fn run_delta(w: &Workload) -> DeltaRun {
    let base = Arc::new(w.db.clone());
    let prepared = PreparedQuery::from_spec_delta(Arc::clone(&base), &w.spec)
        .expect("delta-capable path-4 plan");
    let n = base.expect("R1").len();
    let domain = (n / 10).max(1) as u64;
    let edits_per_rel = (n / 1000).max(1);
    // Deterministic, duplicate-free edit schedule: evenly-strided deletes,
    // multiplicatively-scattered (but in-domain) inserts.
    let mut batch = DeltaBatch::new();
    for (ri, rel) in ["R1", "R2", "R3", "R4"].into_iter().enumerate() {
        for e in 0..edits_per_rel {
            let tid = (e * n) / edits_per_rel;
            let src = (tid as u64 * 7919 + ri as u64) % domain + 1;
            let dst = (tid as u64 * 6271 + ri as u64) % domain + 1;
            batch = batch
                .delete(rel, tid)
                .insert(rel, Tuple::new(vec![src, dst], (e % 97) as f64 + 0.5));
        }
    }

    let mut apply_best = f64::MAX;
    let mut refresh_best = f64::MAX;
    let mut rebuild_best = f64::MAX;
    let mut refreshed = None;
    let mut rebuilt = None;
    for _ in 0..REPEATS {
        let t = Instant::now();
        let new_db = base.apply_delta(&batch).expect("valid batch");
        apply_best = apply_best.min(t.elapsed().as_secs_f64() * 1e3);
        let new_db = Arc::new(new_db);

        let t = Instant::now();
        let r = prepared
            .refresh(Arc::clone(&new_db), &batch)
            .expect("path-4 plan is refreshable");
        refresh_best = refresh_best.min(t.elapsed().as_secs_f64() * 1e3);
        refreshed = Some(r);

        let t = Instant::now();
        let b = PreparedQuery::from_spec_delta(Arc::clone(&new_db), &w.spec)
            .expect("rebuild over delta-applied db");
        rebuild_best = rebuild_best.min(t.elapsed().as_secs_f64() * 1e3);
        rebuilt = Some(b);
    }
    let (refreshed, rebuilt) = (refreshed.expect("repeats"), rebuilt.expect("repeats"));
    // The differential guarantee, spot-checked at bench time: the refreshed
    // plan streams the same top-LIMIT ranked answers as the rebuild.
    let a: Vec<_> = refreshed
        .enumerate(AnyKAlgorithm::Take2)
        .take(LIMIT)
        .collect();
    let b: Vec<_> = rebuilt
        .enumerate(AnyKAlgorithm::Take2)
        .take(LIMIT)
        .collect();
    assert_eq!(a, b, "refresh diverged from rebuild");

    let incremental = apply_best + refresh_best;
    DeltaRun {
        edits: batch.edit_count(),
        apply_ms: apply_best,
        refresh_ms: refresh_best,
        rebuild_prep_ms: rebuild_best,
        speedup: rebuild_best / incremental,
    }
}

struct ObsRun {
    on_ms: f64,
    off_ms: f64,
    overhead_pct: f64,
    ttf_ns: u64,
    delay: HistogramSummary,
}

/// Interleaved repetitions per recording state in the `obs` scenario (far
/// more than [`REPEATS`]: the measured effect is a few percent — smaller
/// than run-to-run scheduler noise — so both best-ofs need a deep pool to
/// converge on their true floors).
const OBS_REPEATS: usize = 25;

/// `obs`: the price of leaving delay recording on. TT(`LIMIT`) through the
/// paged cursor — the path that carries a [`DelayRecorder`] (one
/// monotonic-clock read per stride of answers and at each end of a page
/// into a local log-bucketed histogram) — measured with the process-wide
/// switch on versus off,
/// interleaved so drift hits both sides equally. The "on" side's best run
/// also reports the delay distribution it recorded: the observability
/// layer measuring its own overhead run.
///
/// [`DelayRecorder`]: anyk_obs::DelayRecorder
fn run_obs(w: &Workload) -> ObsRun {
    let prepared =
        Arc::new(PreparedQuery::from_spec(Arc::new(w.db.clone()), &w.spec).expect("plan"));
    let tt_limit = || {
        let mut cursor = prepared.cursor(AnyKAlgorithm::Take2);
        let mut buf = Vec::with_capacity(SERVICE_PAGE_SIZE);
        let t = Instant::now();
        let mut served = 0usize;
        loop {
            let done = cursor.next_page_into(SERVICE_PAGE_SIZE, &mut buf);
            served += buf.len();
            if done || served >= LIMIT {
                break;
            }
        }
        let elapsed = t.elapsed().as_secs_f64() * 1e3;
        let recorded = cursor
            .ttf_nanos()
            .zip(cursor.delay_histogram().map(|h| h.summary()));
        (elapsed, recorded)
    };
    let mut on_best = f64::MAX;
    let mut off_best = f64::MAX;
    let mut best_recorded = None;
    for _ in 0..OBS_REPEATS {
        set_recording(true);
        let (elapsed, recorded) = tt_limit();
        if elapsed < on_best {
            on_best = elapsed;
            best_recorded = recorded;
        }
        set_recording(false);
        let (elapsed, _) = tt_limit();
        off_best = off_best.min(elapsed);
    }
    set_recording(true);
    let (ttf_ns, delay) = best_recorded.expect("recording was on");
    ObsRun {
        on_ms: on_best,
        off_ms: off_best,
        overhead_pct: (on_best - off_best) / off_best * 100.0,
        ttf_ns,
        delay,
    }
}

fn main() {
    let scale = Scale::from_env();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(json, "  \"limit\": {LIMIT},");
    let _ = writeln!(json, "  \"repeats\": {REPEATS},");
    json.push_str("  \"workloads\": [\n");

    let all_workloads = workloads(scale);
    for (wi, w) in all_workloads.iter().enumerate() {
        let tuples: usize = w
            .spec
            .atoms
            .iter()
            .map(|a| w.db.expect(&a.relation).len())
            .sum();
        println!("== {} ({} input tuples) ==", w.name, tuples);

        // Pre-processing (selection pushdown + compile + bottom-up) is timed
        // separately from enumeration: the paper's TTF includes it, the
        // TT(k) deltas do not.
        let prep_start = Instant::now();
        let prepared = RankedQuery::from_spec(&w.db, &w.spec).expect("plan");
        let prep = prep_start.elapsed();

        if wi > 0 {
            json.push_str(",\n");
        }
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", w.name);
        let _ = writeln!(json, "      \"input_tuples\": {tuples},");
        let _ = writeln!(json, "      \"prep_ms\": {:.4},", prep.as_secs_f64() * 1e3);
        json.push_str("      \"algorithms\": [\n");

        for (ai, &alg) in ALGORITHMS.iter().enumerate() {
            let mut best: Option<EnumerationTrace> = None;
            let mut produced = 0usize;
            for _ in 0..REPEATS {
                let mut trace = EnumerationTrace::new();
                produced = 0;
                for _ in prepared.enumerate(alg) {
                    trace.record();
                    produced += 1;
                    if produced >= LIMIT {
                        break;
                    }
                }
                let better = match &best {
                    None => true,
                    Some(b) => trace.ttl() < b.ttl(),
                };
                if better {
                    best = Some(trace);
                }
            }
            let trace = best.expect("at least one repeat");
            println!(
                "  {:<10} ttf {:>12} tt(1000) {:>12} produced {}",
                alg.name(),
                ms(trace.ttf()),
                ms(trace.tt(1000)),
                produced
            );
            if ai > 0 {
                json.push_str(",\n");
            }
            let _ = write!(
                json,
                "        {{\"name\": \"{}\", \"ttf_ms\": {}, ",
                alg.name(),
                ms(trace.ttf())
            );
            let tt: Vec<String> = CHECKPOINTS
                .iter()
                .map(|&k| format!("\"{}\": {}", k, ms(trace.tt(k))))
                .collect();
            let _ = write!(json, "\"tt_ms\": {{{}}}, ", tt.join(", "));
            // Per-answer delay percentiles through the shared log-bucketed
            // histogram (`anyk_obs`) — the same bucket math the service's
            // Stats opcode reports, so bench and production percentiles are
            // directly comparable.
            let delay = trace.delay_histogram().summary();
            let _ = write!(
                json,
                "\"delay_ns\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}, ",
                delay.p50, delay.p90, delay.p99, delay.max
            );
            // MEM(k) snapshot after LIMIT results: successor-structure table
            // and prefix-arena sizes (null for non-anyK-part algorithms).
            match prepared.mem_profile(alg, LIMIT) {
                Some(m) => {
                    let _ = write!(
                        json,
                        "\"mem\": {{\"candidates\": {}, \"prefix_arena\": {}, \
                         \"succ_structures\": {}, \"succ_table_slots\": {}, \
                         \"succ_choices\": {}}}, ",
                        m.candidates,
                        m.prefix_arena_entries,
                        m.structures_allocated,
                        m.structure_table_slots,
                        m.structure_choices
                    );
                }
                None => {
                    let _ = write!(json, "\"mem\": null, ");
                }
            }
            let _ = write!(json, "\"produced\": {produced}}}");
        }
        json.push_str("\n      ]\n    }");
    }
    json.push_str("\n  ]");

    // Service scenario: concurrent paged sessions over the non-cycle
    // workloads (cycle-6's worst-case input makes the first page all TTF,
    // which the per-algorithm section already reports).
    println!("== service ({SERVICE_SESSIONS} sessions, pages of {SERVICE_PAGE_SIZE}) ==");
    json.push_str(",\n  \"service\": {\n");
    let _ = writeln!(json, "    \"sessions\": {SERVICE_SESSIONS},");
    let _ = writeln!(json, "    \"page_size\": {SERVICE_PAGE_SIZE},");
    json.push_str("    \"algorithm\": \"Take2\",\n    \"scenarios\": [\n");
    let service_workloads: Vec<&Workload> = all_workloads
        .iter()
        .filter(|w| w.name != "cycle6")
        .collect();
    for (si, w) in service_workloads.iter().enumerate() {
        let run = run_service(w);
        println!(
            "  {:<10} {:>9.1} pages/sec  p50 {:>8.4}ms  p99 {:>8.4}ms  ({} pages, {} answers)",
            w.name, run.pages_per_sec, run.p50_ms, run.p99_ms, run.pages, run.answers
        );
        if si > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "      {{\"name\": \"{}\", \"pages\": {}, \"answers\": {}, \
             \"pages_per_sec\": {:.1}, \"page_p50_ms\": {:.4}, \"page_p99_ms\": {:.4}}}",
            w.name, run.pages, run.answers, run.pages_per_sec, run.p50_ms, run.p99_ms
        );
    }
    json.push_str("\n    ]\n  }");

    // Overload scenario: the admission controller at 2× its session cap.
    // One workload suffices — shedding is a property of the governor, not
    // the join shape; path-4 is the steadiest enumerator of the set.
    let overload_workload = service_workloads
        .first()
        .expect("at least one service workload");
    let run = run_overload(overload_workload);
    println!(
        "== overload ({} clients vs cap {}) ==",
        run.clients, run.session_cap
    );
    println!(
        "  {:<10} shed_rate {:>6.3} ({} sheds / {} opens)  p50 {:>8.4}ms  p99 {:>8.4}ms",
        overload_workload.name, run.shed_rate, run.sheds, run.opens, run.p50_ms, run.p99_ms
    );
    json.push_str(",\n  \"overload\": {\n");
    let _ = writeln!(json, "    \"workload\": \"{}\",", overload_workload.name);
    let _ = writeln!(json, "    \"clients\": {},", run.clients);
    let _ = writeln!(json, "    \"session_cap\": {},", run.session_cap);
    let _ = writeln!(json, "    \"opens\": {},", run.opens);
    let _ = writeln!(json, "    \"sheds\": {},", run.sheds);
    let _ = writeln!(json, "    \"shed_rate\": {:.4},", run.shed_rate);
    let _ = writeln!(json, "    \"page_p50_ms\": {:.4},", run.p50_ms);
    let _ = writeln!(json, "    \"page_p99_ms\": {:.4}", run.p99_ms);
    json.push_str("  }");

    // Net scenario: the same serving loops behind the TCP wire transport.
    // Reuses the overload workload (path-4) so "service p50 vs net4 p50" is
    // an apples-to-apples read of the wire tax.
    let net_workload = *service_workloads
        .first()
        .expect("at least one service workload");
    let net = run_net(net_workload, scale);
    println!(
        "== net4 ({} sequential TCP sessions, pages of {SERVICE_PAGE_SIZE}) ==",
        net.sessions
    );
    println!(
        "  {:<10} {:>8.1} sessions/sec  {:>9.1} pages/sec  p50 {:>8.4}ms  p99 {:>8.4}ms",
        net_workload.name, net.sessions_per_sec, net.pages_per_sec, net.p50_ms, net.p99_ms
    );
    json.push_str(",\n  \"net4\": {\n");
    let _ = writeln!(json, "    \"workload\": \"{}\",", net_workload.name);
    let _ = writeln!(json, "    \"sessions\": {},", net.sessions);
    let _ = writeln!(json, "    \"page_size\": {SERVICE_PAGE_SIZE},");
    let _ = writeln!(json, "    \"pages\": {},", net.pages);
    let _ = writeln!(json, "    \"answers\": {},", net.answers);
    let _ = writeln!(
        json,
        "    \"sessions_per_sec\": {:.1},",
        net.sessions_per_sec
    );
    let _ = writeln!(json, "    \"pages_per_sec\": {:.1},", net.pages_per_sec);
    let _ = writeln!(json, "    \"page_p50_ms\": {:.4},", net.p50_ms);
    let _ = writeln!(json, "    \"page_p99_ms\": {:.4},", net.p99_ms);
    // What the server's Stats opcode said about the same run: per-plan
    // delay/TTF percentiles (nanoseconds) and the prep-phase breakdown
    // (process-wide accumulators, cumulative over the scenarios above).
    println!(
        "  stats scrape: ttf_p50 {}ns  delay p50 {}ns p99 {}ns  ({} delays recorded)",
        net.plan_stats.ttf.p50,
        net.plan_stats.delay.p50,
        net.plan_stats.delay.p99,
        net.plan_stats.delay.count
    );
    for (name, count, total_ms) in &net.prep_phases {
        println!("  phase {name:<12} count {count:>6}  total {total_ms:>10.3}ms");
    }
    json.push_str("    \"stats\": {\n");
    let _ = writeln!(
        json,
        "      \"plan_ttf_p50_ns\": {},",
        net.plan_stats.ttf.p50
    );
    let _ = writeln!(
        json,
        "      \"plan_delay_p50_ns\": {},",
        net.plan_stats.delay.p50
    );
    let _ = writeln!(
        json,
        "      \"plan_delay_p99_ns\": {},",
        net.plan_stats.delay.p99
    );
    let _ = writeln!(
        json,
        "      \"plan_delay_count\": {},",
        net.plan_stats.delay.count
    );
    json.push_str("      \"prep_phase_ms\": {");
    for (pi, (name, _, total_ms)) in net.prep_phases.iter().enumerate() {
        if pi > 0 {
            json.push_str(", ");
        }
        let _ = write!(json, "\"{name}\": {total_ms:.3}");
    }
    json.push_str("}\n    }\n  }");

    // Net overload scenario: shedding measured from the far side of the
    // socket — shed rate should match the in-process overload run, page
    // latency carries the additional round-trip.
    let net_over = run_net_overload(net_workload);
    println!(
        "== net_overload ({} TCP clients vs cap {}) ==",
        net_over.clients, net_over.session_cap
    );
    println!(
        "  {:<10} shed_rate {:>6.3} ({} sheds / {} opens)  p50 {:>8.4}ms  p99 {:>8.4}ms",
        net_workload.name,
        net_over.shed_rate,
        net_over.sheds,
        net_over.opens,
        net_over.p50_ms,
        net_over.p99_ms
    );
    json.push_str(",\n  \"net_overload\": {\n");
    let _ = writeln!(json, "    \"workload\": \"{}\",", net_workload.name);
    let _ = writeln!(json, "    \"clients\": {},", net_over.clients);
    let _ = writeln!(json, "    \"session_cap\": {},", net_over.session_cap);
    let _ = writeln!(json, "    \"opens\": {},", net_over.opens);
    let _ = writeln!(json, "    \"sheds\": {},", net_over.sheds);
    let _ = writeln!(json, "    \"shed_rate\": {:.4},", net_over.shed_rate);
    let _ = writeln!(json, "    \"page_p50_ms\": {:.4},", net_over.p50_ms);
    let _ = writeln!(json, "    \"page_p99_ms\": {:.4}", net_over.p99_ms);
    json.push_str("  }");

    // Delta scenario: incremental maintenance vs full rebuild on path-4 —
    // the serving-ingest counterpart to the prep_ms numbers above.
    let delta_workload = *service_workloads
        .first()
        .expect("at least one service workload");
    let delta = run_delta(delta_workload);
    println!("== delta4 ({} edits, refresh vs rebuild) ==", delta.edits);
    println!(
        "  {:<10} apply {:>8.4}ms  refresh {:>8.4}ms  rebuild_prep {:>8.4}ms  speedup {:>6.1}x",
        delta_workload.name, delta.apply_ms, delta.refresh_ms, delta.rebuild_prep_ms, delta.speedup
    );
    json.push_str(",\n  \"delta4\": {\n");
    let _ = writeln!(json, "    \"workload\": \"{}\",", delta_workload.name);
    let _ = writeln!(json, "    \"edits\": {},", delta.edits);
    let _ = writeln!(json, "    \"apply_ms\": {:.4},", delta.apply_ms);
    let _ = writeln!(json, "    \"refresh_ms\": {:.4},", delta.refresh_ms);
    let _ = writeln!(
        json,
        "    \"rebuild_prep_ms\": {:.4},",
        delta.rebuild_prep_ms
    );
    let _ = writeln!(json, "    \"refresh_speedup\": {:.2}", delta.speedup);
    json.push_str("  }");

    // Obs scenario: recording on vs off on the paged cursor — the cost of
    // leaving the delay instrumentation enabled in production.
    let obs_workload = *service_workloads
        .first()
        .expect("at least one service workload");
    let obs = run_obs(obs_workload);
    println!("== obs (tt({LIMIT}) recording on vs off, best of {OBS_REPEATS}) ==");
    println!(
        "  {:<10} on {:>8.4}ms  off {:>8.4}ms  overhead {:>+6.2}%",
        obs_workload.name, obs.on_ms, obs.off_ms, obs.overhead_pct
    );
    println!(
        "  recorded: ttf {}ns  delay p50 {}ns p90 {}ns p99 {}ns max {}ns",
        obs.ttf_ns, obs.delay.p50, obs.delay.p90, obs.delay.p99, obs.delay.max
    );
    json.push_str(",\n  \"obs\": {\n");
    let _ = writeln!(json, "    \"workload\": \"{}\",", obs_workload.name);
    let _ = writeln!(json, "    \"algorithm\": \"Take2\",");
    let _ = writeln!(json, "    \"page_size\": {SERVICE_PAGE_SIZE},");
    let _ = writeln!(json, "    \"repeats\": {OBS_REPEATS},");
    let _ = writeln!(json, "    \"tt1000_recording_on_ms\": {:.4},", obs.on_ms);
    let _ = writeln!(json, "    \"tt1000_recording_off_ms\": {:.4},", obs.off_ms);
    let _ = writeln!(json, "    \"overhead_pct\": {:.2},", obs.overhead_pct);
    let _ = writeln!(json, "    \"ttf_ns\": {},", obs.ttf_ns);
    let _ = writeln!(json, "    \"delay_p50_ns\": {},", obs.delay.p50);
    let _ = writeln!(json, "    \"delay_p90_ns\": {},", obs.delay.p90);
    let _ = writeln!(json, "    \"delay_p99_ns\": {},", obs.delay.p99);
    let _ = writeln!(json, "    \"delay_max_ns\": {}", obs.delay.max);
    json.push_str("  }");

    if let Ok(path) = std::env::var("ANYK_HOTPATH_BASELINE") {
        if let Ok(baseline) = std::fs::read_to_string(&path) {
            json.push_str(",\n  \"baseline\": ");
            // Indent the embedded document so the output stays readable.
            json.push_str(&baseline.trim_end().replace('\n', "\n  "));
        }
    }
    json.push_str("\n}\n");

    let out = std::env::var("ANYK_HOTPATH_OUT").unwrap_or_else(|_| "BENCH_hotpath.json".into());
    std::fs::write(&out, &json).expect("write bench output");
    println!("wrote {out}");
}
