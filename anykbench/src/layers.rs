//! The traced run: the per-layer metrics. "Tracing" is bench-side only —
//! the same logical operation is issued at successively deeper public entry
//! points with a span around every call, and a layer's self time is its
//! span's median minus its child's. Counts come from the program's own
//! counters (`ServiceMetrics`, `IndexCacheStats`, `MemoryStats`).

use crate::depths::{
    page_is_traced, run_session, CursorDepth, Expect, NetDepth, ServiceDepth, ServiceRequest,
    StreamDepth,
};
use crate::inputs::{DeltaGen, Inputs};
use crate::stats::{self, Reading};
use crate::system::{reference_answers, set_up, weight_bits, Params, System};
use crate::tables::{Kind, Shape, ALGORITHMS, PER_LAYER};
use crate::trace::Tracer;
use crate::untraced::{serve_window, Metric, Outcome, Samples};
use crate::verify::{self, Checks};
use anyk_core::AnyKAlgorithm;
use anyk_engine::{Answer, PreparedQuery};
use anyk_query::parse_query;
use anyk_server::{set_recording, QueryService, ServiceMetrics, DEFAULT_ALGORITHM};
use anyk_storage::{Database, HashIndex};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Answers of the fixed-size checkpoint `core.<alg>.tt1000_ms` and the
/// recording-overhead pairs.
const CHECKPOINT: usize = 1000;
/// `Batch` materialises every answer; it runs only where that is this many
/// or fewer.
const BATCH_MAX_ANSWERS: u128 = 2_000_000;
/// Recording on/off pairs the overhead estimate needs at least.
const MIN_OBS_PAIRS: usize = 200;

/// Per-layer readings by name; unset names read 0.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, Reading>);

impl Layers {
    fn set(&mut self, name: &str, value: f64, n: usize) {
        let name = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"))
            .name;
        self.0.insert(name, Reading::exact(value, n));
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|m| Metric {
                name: m.name,
                reading: self
                    .0
                    .get(m.name)
                    .copied()
                    .unwrap_or(Reading::exact(0.0, 0)),
            })
            .collect()
    }
}

struct Run<'a> {
    p: &'a Params,
    shape: Shape,
    tracer: Tracer,
    out: Layers,
    s: Samples,
    next_op: u64,
}

impl Run<'_> {
    fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Time one call into a layer as a span.
    fn span<T>(
        &mut self,
        op: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let v = f();
        self.tracer.record(op, name, parent, start, Instant::now());
        v
    }

    fn median(&self, span: &str) -> f64 {
        self.tracer.median_ms(span).0
    }

    /// Report a span's median (ms, times `scale`) as a metric.
    fn set_median(&mut self, metric: &str, span: &str, scale: f64) {
        let (ms, n) = self.tracer.median_ms(span);
        self.out.set(metric, ms * scale, n);
    }

    /// Report a span's self time (its median minus its child's, ms).
    fn set_self(&mut self, metric: &str, span: &str, child: &str) {
        let (ms, n) = self.tracer.self_ms(span, child);
        self.out.set(metric, ms, n);
    }
}

/// The compile a service runs underneath `prepare`: delta-capable, so that
/// ingestion can refresh the plan — except on the engine-only workload,
/// which compiles the way its own loop does.
fn compile(kind: Kind, db: &Arc<Database>, inputs: &Inputs) -> Result<PreparedQuery, String> {
    if kind == Kind::DeepEngine {
        PreparedQuery::from_spec(Arc::clone(db), &inputs.spec)
    } else {
        PreparedQuery::from_spec_delta(Arc::clone(db), &inputs.spec)
    }
    .map_err(|e| e.to_string())
}

fn slice(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

/// The session ladder: one operation = the same session at every depth the
/// workload has, outermost first. Within a session span recording
/// alternates on and off from page to page; the on − off difference of the
/// outermost depth's median page is what tracing itself costs.
fn session_ladder(
    run: &mut Run<'_>,
    sys: &mut System,
    service: Option<&QueryService>,
    plan: &Arc<PreparedQuery>,
    bits: &[u64],
    seconds: f64,
) {
    let shape = run.shape;
    let expect = Expect::Weights(bits);
    let until = slice(seconds);
    let mut buf: Vec<Answer> = Vec::new();
    let (mut outer_on, mut outer_off) = (Vec::new(), Vec::new());
    let net = sys.served.is_some();
    let mut rounds = 0;
    while rounds < 3 || Instant::now() < until {
        rounds += 1;
        let op = run.op();
        let mut outermost = true;
        macro_rules! at_depth {
            ($depth:expr) => {{
                let sink = Some((&mut run.tracer, op));
                let r = run_session(&mut $depth, shape, &expect, sink, None, &mut buf);
                if let Some(t) = run.s.attempt("ladder session", r) {
                    if outermost {
                        for (i, &ns) in t.pages_ns.iter().enumerate() {
                            let side = if page_is_traced(i) {
                                &mut outer_on
                            } else {
                                &mut outer_off
                            };
                            side.push(ns as f64 / 1e6);
                        }
                    }
                    outermost = false;
                    t.mem
                } else {
                    None
                }
            }};
        }
        if net {
            at_depth!(NetDepth::new(&mut sys.clients[0], &sys.inputs.text));
        }
        if let Some(service) = service {
            at_depth!(ServiceDepth::new(
                service,
                ServiceRequest::Spec(&sys.inputs.spec)
            ));
        }
        let mut cursor = CursorDepth::new(plan);
        cursor.measure_mem = rounds == 1;
        if let Some(mem) = at_depth!(cursor) {
            run.out.set("core.mem.candidates", mem.candidates as f64, 1);
            run.out
                .set("core.mem.prefix_arena", mem.prefix_arena_entries as f64, 1);
            run.out.set(
                "core.mem.succ_structures",
                mem.structures_allocated as f64,
                1,
            );
            run.out.set(
                "core.mem.succ_table_slots",
                mem.structure_table_slots as f64,
                1,
            );
            run.out
                .set("core.mem.succ_choices", mem.structure_choices as f64, 1);
        }
        at_depth!(StreamDepth::new(plan, DEFAULT_ALGORITHM));
        let _ = outermost;
    }

    run.set_median("core.stream_first_page_ms", "stream.to_first", 1.0);
    run.set_median("core.stream_page_ms", "stream.page", 1.0);
    run.set_median("engine.cursor_first_page_ms", "cursor.to_first", 1.0);
    run.set_self("engine.cursor_page_self_ms", "cursor.page", "stream.page");
    if service.is_some() {
        run.set_self(
            "service.open_self_ms",
            "service.to_first",
            "cursor.to_first",
        );
        run.set_self("service.page_self_ms", "service.page", "cursor.page");
        run.set_median("service.close_us", "service.close", 1e3);
    }
    if net {
        run.set_self("net.open_self_ms", "net.to_first", "service.to_first");
        run.set_self("net.page_self_ms", "net.page", "service.page");
        // The empty round trip: the transport's floor under every request.
        let op = run.op();
        for _ in 0..1000 {
            let client = &mut sys.clients[0];
            let r = run.span(op, "net.ping", "", || {
                client.ping().map_err(|e| e.to_string())
            });
            run.s.attempt("ping", r);
        }
        run.set_median("net.ping_us", "net.ping", 1e3);
        let (page_self, n) = run.tracer.self_ms("net.page", "service.page");
        let codec_us = (page_self - run.median("net.ping")) * 1e3;
        run.out.set("net.page_codec_us", codec_us, n);
    }
    let on = stats::median(&outer_on);
    let off = stats::median(&outer_off);
    run.out.set(
        "bench.trace_overhead_pct",
        (on - off) / off * 100.0,
        outer_on.len().min(outer_off.len()),
    );
}

/// Counters of the service the ladder ran against, as deltas over it.
fn service_counters(run: &mut Run<'_>, before: &ServiceMetrics, after: &ServiceMetrics) {
    let opened = after.sessions_opened - before.sessions_opened;
    let misses = after.plan_misses - before.plan_misses;
    let n = opened as usize;
    // Share of sessions that found their plan compiled.
    let hit_ratio = if opened == 0 {
        0.0
    } else {
        1.0 - (misses as f64 / opened as f64).min(1.0)
    };
    run.out.set("service.plan_hit_ratio", hit_ratio, n);
    run.out.set(
        "service.pages_served",
        (after.pages_served - before.pages_served) as f64,
        n,
    );
    run.out.set("service.sessions_opened", opened as f64, n);
    run.out.set(
        "service.sessions_shed",
        (after.sessions_shed - before.sessions_shed) as f64,
        n,
    );
    run.out.set(
        "service.peak_mem_units",
        after.peak_mem_resident_units as f64,
        n,
    );
    // Since the server started: the clients connect during set-up.
    run.out.set(
        "net.connections_accepted",
        after.connections_accepted as f64,
        n,
    );
    run.out.set(
        "net.read_timeouts",
        (after.net_read_timeouts - before.net_read_timeouts) as f64,
        n,
    );
}

/// The prep ladder: `service.prepare_text` on a pristine service ⊃ the
/// engine's compile on a cold, then warm, index cache ⊃ the index builds
/// and the parse. On the cold workload each pristine service also serves
/// its session, and its counters are what `service.*` reports.
fn prep_ladder(run: &mut Run<'_>, inputs: &Inputs, seconds: f64) {
    let kind = run.p.workload.kind;
    let until = slice(seconds);
    let mut reps = 0;
    let (mut misses, mut builds_ms, mut hit_ratio) = (Vec::new(), Vec::new(), Vec::new());
    let mut buf = Vec::new();
    while reps < 3 || Instant::now() < until {
        reps += 1;
        let op = run.op();
        // Whichever compile runs second finds the allocator warm, so the
        // two depths take turns going first.
        for service_turn in [reps % 2 == 0, reps % 2 == 1] {
            if service_turn && kind != Kind::DeepEngine {
                // Plans are handed out of the spans: dropping one is not
                // part of preparing it.
                let service = QueryService::new(inputs.pristine.clone());
                let r = run.span(op, "service.prepare", "", || {
                    service
                        .prepare_text(&inputs.text)
                        .map_err(|e| e.to_string())
                });
                run.s.attempt("prepare_text", r);
                misses.push(service.index_cache_stats().misses as f64);
            } else if !service_turn {
                let db = Arc::new(inputs.pristine.clone());
                let r = run.span(op, "engine.prepare_cold", "service.prepare", || {
                    compile(kind, &db, inputs)
                });
                run.s.attempt("cold compile", r);
                let cold = db.index_cache_stats();
                if kind == Kind::DeepEngine {
                    misses.push(cold.misses as f64);
                }
                let r = run.span(op, "engine.prepare_warm", "service.prepare", || {
                    compile(kind, &db, inputs)
                });
                run.s.attempt("warm compile", r);
                let warm = db.index_cache_stats();
                let (hits, more_misses) = (warm.hits - cold.hits, warm.misses - cold.misses);
                if hits + more_misses > 0 {
                    hit_ratio.push(hits as f64 / (hits + more_misses) as f64);
                }
            }
        }
        let mut total = 0.0;
        for (rel, key) in inputs.index_keys() {
            let relation = inputs.pristine.expect(&rel);
            let t = Instant::now();
            run.span(op, "storage.index_build", "engine.prepare_cold", || {
                std::hint::black_box(HashIndex::build(relation, &key));
            });
            total += t.elapsed().as_secs_f64() * 1e3;
        }
        builds_ms.push(total);
    }
    // Parse and key: microseconds, so time batches of them.
    const BATCH: u32 = 64;
    let (mut parse_us, mut key_us) = (Vec::new(), Vec::new());
    for _ in 0..32 {
        let t = Instant::now();
        for _ in 0..BATCH {
            std::hint::black_box(parse_query(std::hint::black_box(&inputs.text)).is_ok());
        }
        parse_us.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(BATCH));
        let t = Instant::now();
        for _ in 0..BATCH {
            std::hint::black_box(std::hint::black_box(&inputs.spec).plan_key());
        }
        key_us.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(BATCH));
    }
    run.out
        .set("query.parse_us", stats::median(&parse_us), parse_us.len());
    run.out
        .set("query.plan_key_us", stats::median(&key_us), key_us.len());
    run.out.set(
        "storage.index_build_ms",
        stats::median(&builds_ms),
        builds_ms.len(),
    );
    run.out.set(
        "storage.index_misses_per_prepare",
        stats::median(&misses),
        misses.len(),
    );
    if !hit_ratio.is_empty() {
        run.out.set(
            "storage.index_cache_hit_ratio",
            stats::median(&hit_ratio),
            hit_ratio.len(),
        );
    }
    run.set_median("engine.prepare_cold_ms", "engine.prepare_cold", 1.0);
    run.set_median("engine.prepare_warm_ms", "engine.prepare_warm", 1.0);
    if kind != Kind::DeepEngine {
        run.set_self(
            "service.prepare_self_ms",
            "service.prepare",
            "engine.prepare_cold",
        );
    }
    if kind == Kind::ColdService {
        // The cold workload's own operation, for the service's counters:
        // every session meets a service that has compiled nothing.
        let mut counters = ServiceMetrics::default();
        for _ in 0..reps {
            let r =
                crate::system::cold_service_request(inputs, run.shape, &Expect::Order, &mut buf);
            if let Some((service, _, _)) = run.s.attempt("cold session", r) {
                let m = service.metrics();
                counters.sessions_opened += m.sessions_opened;
                counters.plan_misses += m.plan_misses;
                counters.pages_served += m.pages_served;
                counters.sessions_shed += m.sessions_shed;
                counters.peak_mem_resident_units = counters
                    .peak_mem_resident_units
                    .max(m.peak_mem_resident_units);
            }
        }
        service_counters(run, &ServiceMetrics::default(), &counters);
    }
}

/// `core.<alg>.*`: TTF, TT(1000) and — where the workload pulls further —
/// TT(k), at stream depth, every algorithm the instance allows.
fn per_algorithm(run: &mut Run<'_>, plan: &PreparedQuery, seconds: f64) {
    let k = run.shape.k;
    let with_batch = plan.count_answers() <= BATCH_MAX_ANSWERS;
    let until = slice(seconds);
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut rounds = 0;
    let min_rounds = if k > CHECKPOINT { 1 } else { 3 };
    while rounds < min_rounds || Instant::now() < until {
        rounds += 1;
        for (alg, token) in AnyKAlgorithm::ALL.into_iter().zip(ALGORITHMS) {
            if alg == AnyKAlgorithm::Batch && !with_batch {
                continue;
            }
            let start = Instant::now();
            let mut stream = plan.enumerate(alg);
            let mut served = 0usize;
            let mut last = f64::NEG_INFINITY;
            let mut ordered = true;
            let mut pull = |upto: usize, served: &mut usize| {
                while *served < upto {
                    match stream.next() {
                        Some(a) => {
                            ordered &= a.weight() >= last;
                            last = a.weight();
                            *served += 1;
                        }
                        None => break,
                    }
                }
                start.elapsed().as_secs_f64() * 1e3
            };
            let ttf = pull(1, &mut served);
            let tt1000 = pull(CHECKPOINT.min(k), &mut served);
            samples
                .entry(format!("core.{token}.ttf_ms"))
                .or_default()
                .push(ttf);
            samples
                .entry(format!("core.{token}.tt1000_ms"))
                .or_default()
                .push(tt1000);
            if k > CHECKPOINT {
                let ttk = pull(k, &mut served);
                samples
                    .entry(format!("core.{token}.ttk_ms"))
                    .or_default()
                    .push(ttk);
            }
            let complete = if ordered && served == k {
                Ok(())
            } else {
                Err(format!("{alg}: {served} answers, ordered = {ordered}"))
            };
            run.s.attempt("algorithm sweep", complete);
        }
    }
    for (name, values) in samples {
        run.out.set(&name, stats::median(&values), values.len());
    }
}

/// `obs.*`: what leaving per-answer delay recording on costs, as the median
/// paired difference of cursor-depth TT(1000) with the switch on and off,
/// the order within each pair alternating; then the program's own delay
/// histogram for one recorded session.
fn obs_overhead(run: &mut Run<'_>, plan: &Arc<PreparedQuery>, seconds: f64) {
    let shape = Shape {
        k: run.shape.k.min(CHECKPOINT),
        ..run.shape
    };
    let mut buf = Vec::new();
    let mut tt = |recording: bool| -> Result<f64, String> {
        set_recording(recording);
        let t = run_session(
            &mut CursorDepth::new(plan),
            shape,
            &Expect::Order,
            None,
            None,
            &mut buf,
        )?;
        Ok(t.ttk_ns as f64 / 1e6)
    };
    let min_pairs = if run.p.quick { 20 } else { MIN_OBS_PAIRS };
    let until = slice(seconds);
    let (mut diffs, mut offs) = (Vec::new(), Vec::new());
    let mut failure = None;
    while diffs.len() < min_pairs || (Instant::now() < until && diffs.len() < 5000) {
        let on_first = diffs.len() % 2 == 0;
        let pair = if on_first {
            tt(true).and_then(|on| tt(false).map(|off| (on, off)))
        } else {
            tt(false).and_then(|off| tt(true).map(|on| (on, off)))
        };
        match pair {
            Ok((on, off)) => {
                diffs.push(on - off);
                offs.push(off);
            }
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    set_recording(true); // the production default
    run.s
        .attempt("recording pairs", failure.map_or(Ok(()), Err));
    if !diffs.is_empty() {
        let pct = stats::median(&diffs) / stats::median(&offs) * 100.0;
        run.out.set("obs.recording_overhead_pct", pct, diffs.len());
    }
    let mut cursor = plan.cursor(DEFAULT_ALGORITHM);
    let mut served = 0;
    while served < shape.k {
        cursor.next_page_into(shape.page.min(shape.k - served), &mut buf);
        if buf.is_empty() {
            break;
        }
        served += buf.len();
    }
    if let (Some(ttf), Some(delays)) = (cursor.ttf_nanos(), cursor.delay_histogram()) {
        let n = delays.count() as usize;
        run.out.set("obs.ttf_ns", ttf as f64, 1);
        run.out.set("obs.delay_p50_ns", delays.p50() as f64, n);
        run.out.set("obs.delay_p99_ns", delays.p99() as f64, n);
    }
}

/// The ingest ladder: the same batches through `AnyKClient::ingest` ⊃
/// `QueryService::ingest` ⊃ `Database::apply_delta` + `PreparedQuery::refresh`
/// (or the recompile the service falls back to), each depth on a lineage of
/// its own, plus the from-scratch rebuild the refresh is measured against.
fn ingest_ladder(run: &mut Run<'_>, sys: &mut System, seconds: f64) {
    let kind = run.p.workload.kind;
    let System {
        inputs,
        served,
        clients,
        ..
    } = sys;
    let inputs = &*inputs;
    let mut gen = DeltaGen::new(inputs, 2);
    let service = (kind != Kind::DeepEngine).then(|| QueryService::new(inputs.pristine.clone()));
    if let Some(service) = &service {
        let r = service
            .prepare_text(&inputs.text)
            .map(drop)
            .map_err(|e| e.to_string());
        run.s.attempt("ladder plan", r);
    }
    let mut db = Arc::new(inputs.pristine.clone());
    let Some(mut plan) = run.s.attempt("ladder plan", compile(kind, &db, inputs)) else {
        return;
    };
    let refreshable = plan.supports_refresh();
    let until = slice(seconds);
    let mut reps = 0;
    while reps < 5 || Instant::now() < until {
        reps += 1;
        let op = run.op();
        let batch = gen.next_batch();
        if served.is_some() {
            let client = &mut clients[0];
            let r = run.span(op, "net.ingest", "", || {
                client.ingest(&batch).map(drop).map_err(|e| e.to_string())
            });
            run.s.attempt("net ingest", r);
        }
        if let Some(service) = &service {
            let r = run.span(op, "service.ingest", "net.ingest", || {
                service.ingest(&batch).map(drop).map_err(|e| e.to_string())
            });
            run.s.attempt("service ingest", r);
        }
        let applied = run.span(op, "storage.apply_delta", "service.ingest", || {
            db.apply_delta(&batch)
                .map(Arc::new)
                .map_err(|e| e.to_string())
        });
        let Some(next) = run.s.attempt("apply_delta", applied) else {
            return;
        };
        let refreshed = if refreshable {
            let r = run.span(op, "engine.refresh", "service.ingest", || {
                plan.refresh(Arc::clone(&next), &batch)
                    .map_err(|e| e.to_string())
            });
            run.s.attempt("refresh", r)
        } else {
            None
        };
        let rebuilt = run.span(op, "engine.rebuild", "service.ingest", || {
            compile(kind, &next, inputs)
        });
        let Some(rebuilt) = run.s.attempt("rebuild", rebuilt) else {
            return;
        };
        plan = refreshed.unwrap_or(rebuilt);
        db = next;
    }
    let apply = run.median("storage.apply_delta");
    let refresh = run.median("engine.refresh");
    let rebuild = run.median("engine.rebuild");
    run.out.set("storage.apply_delta_ms", apply, reps);
    run.out.set("engine.rebuild_ms", rebuild, reps);
    if refreshable {
        run.out.set("engine.refresh_ms", refresh, reps);
        run.out
            .set("engine.refresh_speedup", rebuild / (apply + refresh), reps);
    }
    // What the service does underneath one ingest: the delta, then a
    // refresh where the plan allows one and a recompile where not.
    let engine_share = apply + if refreshable { refresh } else { rebuild };
    if let Some(service) = &service {
        run.out.set(
            "service.ingest_self_ms",
            run.median("service.ingest") - engine_share,
            reps,
        );
        let m = service.metrics();
        run.out
            .set("service.plans_refreshed", m.plans_refreshed as f64, reps);
        run.out
            .set("service.plans_recompiled", m.plans_recompiled as f64, reps);
    }
    if served.is_some() {
        run.set_self("net.ingest_self_ms", "net.ingest", "service.ingest");
    }
}

/// `engine.shard_prep_ratio`: a cold open with the `shards <nproc>` clause ÷
/// one without. (`prepare_text` ignores the clause; the open path honours
/// it, so that is where the sharded compile is timed.) Reads 0 if the
/// clause is rejected.
fn shard_ratio(run: &mut Run<'_>, inputs: &Inputs) {
    let sharded_text = format!("{} shards {}", inputs.text, crate::system::nproc().max(2));
    let cold_open = |text: &str| -> Result<f64, String> {
        let service = QueryService::new(inputs.pristine.clone());
        let t = Instant::now();
        let id = service.open_session_text(text).map_err(|e| e.to_string())?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        service.close_session(id);
        Ok(ms)
    };
    let (mut plain, mut sharded) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        match (cold_open(&inputs.text), cold_open(&sharded_text)) {
            (Ok(a), Ok(b)) => {
                plain.push(a);
                sharded.push(b);
            }
            (Err(e), _) => {
                run.s.attempt::<()>("cold open", Err(e));
                return;
            }
            (_, Err(_)) => return, // clause rejected: not a failure
        }
    }
    run.out.set(
        "engine.shard_prep_ratio",
        stats::median(&sharded) / stats::median(&plain),
        plain.len(),
    );
}

pub fn run(p: &Params) -> Outcome {
    let mut run = Run {
        p,
        shape: p.shape(),
        tracer: Tracer::new(),
        out: Layers::default(),
        s: Samples::new(Instant::now()),
        next_op: 0,
    };
    let mut checks = Checks::default();
    let kind = p.workload.kind;
    let budget = p.seconds;
    let Some((mut sys, _)) = run.s.attempt("set-up", set_up(p)) else {
        return outcome(run, checks, Vec::new());
    };
    run.out.set("datagen.build_s", sys.inputs.datagen_s, 1);

    // The cold workload's users talk to an in-process service; for the
    // warm-plan ladder it gets one of its own.
    let local_service = (kind == Kind::ColdService).then(|| {
        let service = QueryService::new(sys.inputs.pristine.clone());
        let r = service
            .prepare_text(&sys.inputs.text)
            .map(drop)
            .map_err(|e| e.to_string());
        run.s.attempt("warm service", r);
        service
    });
    let served_service = sys.served.as_ref().map(|s| Arc::clone(&s.service));
    let service: Option<&QueryService> = served_service.as_deref().or(local_service.as_ref());
    let plan = match service {
        Some(service) => service
            .prepare_spec(&sys.inputs.spec)
            .map_err(|e| e.to_string()),
        None => PreparedQuery::from_spec(Arc::new(sys.inputs.pristine.clone()), &sys.inputs.spec)
            .map(Arc::new)
            .map_err(|e| e.to_string()),
    };
    let Some(plan) = run.s.attempt("ladder plan", plan) else {
        return outcome(run, checks, Vec::new());
    };
    let bits = weight_bits(&reference_answers(&plan, run.shape.k.min(CHECKPOINT)));

    let before = service.map(QueryService::metrics);
    session_ladder(&mut run, &mut sys, service, &plan, &bits, budget * 0.35);
    if let (Some(before), Some(service), true) = (before, service, kind != Kind::ColdService) {
        service_counters(&mut run, &before, &service.metrics());
    }
    per_algorithm(&mut run, &plan, budget * 0.15);
    obs_overhead(&mut run, &plan, budget * 0.10);
    prep_ladder(&mut run, &sys.inputs, budget * 0.10);
    if kind != Kind::DeepEngine {
        shard_ratio(&mut run, &sys.inputs);
    }
    ingest_ladder(&mut run, &mut sys, budget * 0.10);

    let mut warnings = Vec::new();
    if sys.served.is_some() {
        // A short stretch of the workload's real load shape — all clients,
        // and on the mixed workload the open-loop ingester — for the tails
        // and for the generator's own honesty figure.
        let stretch = budget * 0.15;
        let mut gen = DeltaGen::new(&sys.inputs, 3);
        let ingest = (kind == Kind::MixedTcp).then_some(&mut gen);
        let w = serve_window(&mut sys, run.shape, &Expect::Order, stretch, ingest);
        for (name, series, pct) in [
            ("first_page_p99_ms", &w.first_page_ms, 99.0),
            ("page_p99_ms", &w.page_ms, 99.0),
            ("ingest_p90_ms", &w.ingest_ms, 90.0),
        ] {
            let r = series.steady(stretch, pct);
            if r.n > 0 {
                run.out.set(name, r.value, r.n);
            }
        }
        if kind == Kind::MixedTcp {
            let late = stats::tail(&w.lateness_ms, 99.0);
            run.out.set("bench.gen_lateness_p99_ms", late.value, late.n);
            if late.value > 5.0 {
                warnings.push(format!(
                    "open-loop ingester ran late: p{:.0} {:.2} ms > 5 ms",
                    late.pct, late.value
                ));
            }
        }
        run.s.absorb(w);
        if kind == Kind::MixedTcp {
            verify::pinned_generation(&mut sys, p, &mut gen, &mut checks);
        }
    }
    verify::system(&mut sys, p, &mut checks);
    drop(sys);
    outcome(run, checks, warnings)
}

fn outcome(run: Run<'_>, checks: Checks, mut warnings: Vec<String>) -> Outcome {
    let overhead = run
        .out
        .0
        .get("bench.trace_overhead_pct")
        .map_or(0.0, |r| r.value);
    if overhead > 3.0 {
        warnings.push(format!(
            "span recording cost {overhead:.2} % of the outermost depth's page (> 3 %)"
        ));
    }
    let path = format!("target/anykbench/trace-{}.json", run.p.workload.name);
    let written = std::fs::create_dir_all("target/anykbench")
        .and_then(|()| std::fs::write(&path, run.tracer.to_json(run.p.workload.name).compact()));
    let mut notes = Vec::new();
    match written {
        Ok(()) => notes.push(format!("spans written to {path}")),
        Err(e) => warnings.push(format!("could not write {path}: {e}")),
    }
    let mut errors = run.s.errors;
    errors.extend(checks.errors);
    Outcome {
        attempted: run.s.attempted + checks.attempted,
        failed: run.s.failed + checks.failed,
        metrics: run.out.into_metrics(),
        info: Vec::new(),
        errors,
        warnings,
        notes,
    }
}
