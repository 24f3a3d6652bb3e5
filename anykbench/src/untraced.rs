//! The untraced run: set the system up several times, warm it, drive the
//! workload's closed loop for the measured window, probe ingestion, verify,
//! and reduce the samples to the end-to-end metrics.

use crate::depths::{run_session, CursorDepth, Expect, NetDepth, SessionTimes};
use crate::inputs::{DeltaGen, Inputs};
use crate::stats::{self, Reading, Series};
use crate::system::{
    cold_engine_request, cold_service_request, mem_after_k, nproc, peak_rss_mb, reference_answers,
    set_up, weight_bits, Params, System,
};
use crate::tables::{Kind, Shape};
use crate::verify::{self, Checks};
use anyk_engine::PreparedQuery;
use anyk_server::net::AnyKClient;
use anyk_server::QueryService;
use anyk_storage::DeltaBatch;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Open-loop ingestion rate on `mixed_path4`, batches per second.
pub const INGEST_RATE: f64 = 6.0;
/// Closed-loop ingests in the probe that follows the window on the other
/// workloads (enough for a p90 with ten samples beyond it).
const PROBE_INGESTS: usize = 100;
/// Set-ups per run: at least this many, and at least `SETUP_MIN_S` of them.
const SETUP_MIN_REPS: usize = 15;
const SETUP_MAX_REPS: usize = 100;
const SETUP_MIN_S: f64 = 1.0;

/// Raw samples of one window, in milliseconds, each positioned by when it
/// completed (seconds into the window) or, for the sequential set-ups and
/// the ingest probe, by its index.
#[derive(Debug)]
pub struct Samples {
    /// When the window opened; positions count from here.
    origin: Instant,
    pub prep_ms: Series,
    pub cold_ttf_ms: Series,
    pub first_page_ms: Series,
    pub page_ms: Series,
    pub session_ms: Series,
    pub ttk_ms: Series,
    pub ingest_ms: Series,
    /// How late the open-loop generator fired each ingest.
    pub lateness_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl Samples {
    pub fn new(origin: Instant) -> Samples {
        Samples {
            origin,
            prep_ms: Series::default(),
            cold_ttf_ms: Series::default(),
            first_page_ms: Series::default(),
            page_ms: Series::default(),
            session_ms: Series::default(),
            ttk_ms: Series::default(),
            ingest_ms: Series::default(),
            lateness_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// Count one attempted operation; record its failure if it failed.
    pub fn attempt<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Record a session that just ended.
    pub fn session(&mut self, r: Result<SessionTimes, String>) -> Option<SessionTimes> {
        let t = self.attempt("session", r)?;
        let end = self.now();
        let started = end - t.session_ns as f64 / 1e9;
        self.first_page_ms
            .push(started + t.first_page_ns as f64 / 1e9, ms(t.first_page_ns));
        // Later pulls are spread evenly between the first page and the
        // k-th answer: close enough to place them in a sub-window.
        let (from, to) = (t.first_page_ns as f64 / 1e9, t.ttk_ns as f64 / 1e9);
        let pulls = t.pages_ns.len() as f64;
        for (i, &ns) in t.pages_ns.iter().enumerate() {
            let at = started + from + (to - from) * (i as f64 + 1.0) / pulls;
            self.page_ms.push(at, ms(ns));
        }
        self.session_ms.push(end, ms(t.session_ns));
        self.ttk_ms.push(end, ms(t.ttk_ns));
        Some(t)
    }

    pub fn absorb(&mut self, o: Samples) {
        self.count(&o);
        self.prep_ms.extend(o.prep_ms);
        self.cold_ttf_ms.extend(o.cold_ttf_ms);
        self.first_page_ms.extend(o.first_page_ms);
        self.page_ms.extend(o.page_ms);
        self.session_ms.extend(o.session_ms);
        self.ttk_ms.extend(o.ttk_ms);
        self.ingest_ms.extend(o.ingest_ms);
        self.lateness_ms.extend(o.lateness_ms);
    }

    /// Take over only the operation counts (a discarded warm-up).
    pub fn count(&mut self, o: &Samples) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        for e in &o.errors {
            if self.errors.len() < 5 {
                self.errors.push(e.clone());
            }
        }
    }
}

/// One closed-loop paging client: sessions back to back for `seconds`.
fn paging_client(
    client: &mut AnyKClient,
    text: &str,
    shape: Shape,
    expect: &Expect<'_>,
    seconds: f64,
) -> Samples {
    let mut s = Samples::new(Instant::now());
    let mut buf = Vec::new();
    while s.now() < seconds {
        let r = run_session(
            &mut NetDepth::new(client, text),
            shape,
            expect,
            None,
            None,
            &mut buf,
        );
        s.session(r);
    }
    s
}

/// The open-loop ingester: batch `i` is due at `i / rate` seconds whatever
/// the server is doing, and its latency runs from that due time, so a stall
/// is billed to every batch it delays.
fn ingester(client: &mut AnyKClient, gen: &mut DeltaGen, seconds: f64) -> Samples {
    let mut s = Samples::new(Instant::now());
    for i in 0u32.. {
        let due = f64::from(i) / INGEST_RATE;
        if due >= seconds {
            break;
        }
        let batch = gen.next_batch();
        let wait = due - s.now();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        s.lateness_ms.push((s.now() - due).max(0.0) * 1e3);
        let r = client.ingest(&batch).map_err(|e| e.to_string());
        if s.attempt("ingest", r).is_some() {
            s.ingest_ms.push(due, (s.now() - due) * 1e3);
        }
    }
    s
}

/// One window of a TCP workload: the paging clients (and, on the mixed
/// workload, the ingester) start together and run for `seconds`.
pub fn serve_window(
    sys: &mut System,
    shape: Shape,
    expect: &Expect<'_>,
    seconds: f64,
    ingest: Option<&mut DeltaGen>,
) -> Samples {
    let text = sys.inputs.text.as_str();
    // Threads never exceed the cores: the ingester takes one client's place.
    let pagers = if ingest.is_some() {
        sys.clients.len().saturating_sub(1).max(1)
    } else {
        sys.clients.len()
    };
    let (paging, rest) = sys.clients.split_at_mut(pagers);
    let mut spare;
    let ingest_client = match rest.first_mut() {
        Some(c) => Some(c),
        // A single core: the ingester needs a connection of its own.
        None if ingest.is_some() => {
            spare = sys.served.as_ref().and_then(|s| s.client().ok());
            spare.as_mut()
        }
        None => None,
    };
    let threads = paging.len() + usize::from(ingest.is_some());
    let barrier = Barrier::new(threads);
    let mut total = Samples::new(Instant::now());
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in paging.iter_mut() {
            let barrier = &barrier;
            handles.push(scope.spawn(move || {
                barrier.wait();
                paging_client(client, text, shape, expect, seconds)
            }));
        }
        if let (Some(gen), Some(client)) = (ingest, ingest_client) {
            let barrier = &barrier;
            handles.push(scope.spawn(move || {
                barrier.wait();
                ingester(client, gen, seconds)
            }));
        }
        for h in handles {
            match h.join() {
                Ok(s) => total.absorb(s),
                Err(_) => total.fail("a load-generator thread panicked".into()),
            }
        }
    });
    total
}

/// One cold session at service depth, samples recorded.
fn cold_session(inputs: &Inputs, shape: Shape, expect: &Expect<'_>, s: &mut Samples) {
    match cold_service_request(inputs, shape, expect, &mut Vec::new()) {
        Ok((_, cold, times)) => {
            let at = s.now();
            s.prep_ms.push(at, cold.prep_ms);
            s.cold_ttf_ms.push(at, cold.ttf_ms);
            s.session(Ok(times));
        }
        Err(e) => {
            s.session(Err(e));
        }
    }
}

/// One cold session at engine depth; returns MEM(k) of its cursor.
fn deep_session(inputs: &Inputs, shape: Shape, s: &mut Samples) -> Option<u64> {
    let start = Instant::now();
    let db = Arc::new(inputs.pristine.clone());
    let plan = PreparedQuery::from_spec(db, &inputs.spec).map_err(|e| e.to_string());
    let plan = Arc::new(s.attempt("from_spec", plan)?);
    let prep_ns = start.elapsed().as_nanos() as u64;
    let mut depth = CursorDepth::new(&plan);
    depth.measure_mem = true;
    let t = s.session(run_session(
        &mut depth,
        shape,
        &Expect::Order,
        None,
        None,
        &mut Vec::new(),
    ))?;
    let at = s.now();
    s.prep_ms.push(at, ms(prep_ns));
    s.cold_ttf_ms.push(at, ms(prep_ns + t.first_page_ns));
    t.mem.map(|m| m.resident_units())
}

/// Closed-loop ingests after the window, readers idle: what one batch
/// costs at this workload's depth when nothing competes with it.
fn ingest_probe(sys: &mut System, kind: Kind, count: usize, s: &mut Samples) {
    let mut gen = DeltaGen::new(&sys.inputs, 1);
    type Ingest<'a> = Box<dyn FnMut(&DeltaBatch) -> Result<(), String> + 'a>;
    let mut timed = |mut ingest: Ingest<'_>| {
        for _ in 0..count {
            let batch = gen.next_batch();
            let t = Instant::now();
            let r = ingest(&batch);
            let took = t.elapsed().as_secs_f64() * 1e3;
            if s.attempt("ingest", r).is_some() {
                s.ingest_ms.push_next(took);
            }
        }
    };
    match kind {
        Kind::ServeTcp | Kind::MixedTcp => {
            let client = &mut sys.clients[0];
            timed(Box::new(|batch| {
                client.ingest(batch).map(drop).map_err(|e| e.to_string())
            }));
        }
        // No plan is cached, so this is the storage half alone: apply the
        // delta and rotate the snapshot.
        Kind::ColdService => {
            let service = QueryService::new(sys.inputs.pristine.clone());
            timed(Box::new(|batch| {
                service.ingest(batch).map(drop).map_err(|e| e.to_string())
            }));
        }
        // Cycle plans cannot be refreshed: a batch costs the delta plus a
        // recompile.
        Kind::DeepEngine => {
            let mut db = Arc::new(sys.inputs.pristine.clone());
            let spec = &sys.inputs.spec;
            timed(Box::new(|batch| {
                let next = Arc::new(db.apply_delta(batch).map_err(|e| e.to_string())?);
                PreparedQuery::from_spec(Arc::clone(&next), spec).map_err(|e| e.to_string())?;
                db = next;
                Ok(())
            }));
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub reading: Reading,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Figures printed for the reader but not part of the result object.
    pub info: Vec<Metric>,
    pub errors: Vec<String>,
    pub warnings: Vec<String>,
    /// Remarks that are not complaints (where the spans went, how late the
    /// generator ran).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Repeat the set-up; keep the last system and every repetition's time. The
/// cold first request each set-up makes is a `prep`/`cold_ttf` sample.
fn repeated_set_up(p: &Params, s: &mut Samples) -> Option<(System, Vec<f64>)> {
    let (min_reps, max_reps) = if p.quick {
        (3, 3)
    } else {
        (SETUP_MIN_REPS, SETUP_MAX_REPS)
    };
    let started = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < min_reps
        || (times.len() < max_reps && started.elapsed().as_secs_f64() < SETUP_MIN_S)
    {
        drop(last.take()); // the previous server is shut down outside the timing
        let (system, secs) = s.attempt("set-up", set_up(p))?;
        s.prep_ms.push_next(system.cold.prep_ms);
        s.cold_ttf_ms.push_next(system.cold.ttf_ms);
        times.push(secs);
        last = Some(system);
    }
    last.map(|system| (system, times))
}

pub fn run(p: &Params) -> Outcome {
    let mut s = Samples::new(Instant::now());
    let mut checks = Checks::default();
    let kind = p.workload.kind;
    let shape = p.shape();
    // Whether the loop itself makes cold requests; if not, the set-ups'
    // first requests are the `prep`/`cold_ttf` samples.
    let cold_loop = matches!(kind, Kind::ColdService | Kind::DeepEngine);
    let Some((mut sys, setup_times)) = repeated_set_up(p, &mut s) else {
        return finish(p, s, checks, &[], f64::NAN, f64::NAN);
    };
    if cold_loop {
        s.prep_ms.clear();
        s.cold_ttf_ms.clear();
    }

    // The reference stream and MEM(k), from a plan compiled here — not the
    // one the service cached.
    let reference_plan =
        cold_engine_request(&sys.inputs, shape, &mut Vec::new()).map(|(plan, _)| plan);
    let Some(reference_plan) = s.attempt("reference plan", reference_plan) else {
        return finish(p, s, checks, &setup_times, f64::NAN, f64::NAN);
    };
    let bits = weight_bits(&reference_answers(&reference_plan, shape.k.min(1000)));
    let mut mem_units = f64::NAN;
    if kind != Kind::DeepEngine {
        if let Some(m) = s.attempt("mem_units", mem_after_k(&reference_plan, shape)) {
            mem_units = m.resident_units() as f64;
        }
    }
    drop(reference_plan);

    let mut gen = DeltaGen::new(&sys.inputs, 0);
    let mut window = |sys: &mut System, seconds: f64| -> Samples {
        let mut w = Samples::new(Instant::now());
        match kind {
            Kind::ColdService => {
                while w.now() < seconds {
                    cold_session(&sys.inputs, shape, &Expect::Weights(&bits), &mut w);
                }
            }
            Kind::DeepEngine => {
                while w.now() < seconds {
                    if let Some(units) = deep_session(&sys.inputs, shape, &mut w) {
                        let same = mem_units.is_nan() || mem_units == units as f64;
                        mem_units = units as f64;
                        let r = if same {
                            Ok(())
                        } else {
                            Err(format!("now {units}"))
                        };
                        w.attempt("MEM(k) repeats across sessions", r);
                    }
                }
            }
            Kind::ServeTcp => w = serve_window(sys, shape, &Expect::Weights(&bits), seconds, None),
            Kind::MixedTcp => w = serve_window(sys, shape, &Expect::Order, seconds, Some(&mut gen)),
        }
        w
    };
    let warm = window(&mut sys, (p.seconds * 0.1).clamp(0.2, 2.0));
    s.count(&warm);
    let measured = window(&mut sys, p.seconds);
    s.absorb(measured);

    if kind != Kind::MixedTcp {
        let count = if p.quick {
            2 * stats::MIN_BEYOND
        } else {
            PROBE_INGESTS
        };
        ingest_probe(&mut sys, kind, count, &mut s);
    }
    // The high-water mark of the workload itself: verification below
    // materialises whole answer sets and must not count.
    let peak_rss = peak_rss_mb();

    verify::system(&mut sys, p, &mut checks);
    if kind == Kind::MixedTcp {
        verify::pinned_generation(&mut sys, p, &mut gen, &mut checks);
    }
    verify::reduced_instance(p.workload.query, p.seed, p.quick, &mut checks);
    drop(sys);
    finish(p, s, checks, &setup_times, mem_units, peak_rss)
}

/// Reduce the samples to the end-to-end metrics. Latencies and the rate
/// are the steady figures of [`Series`] (lower quartile of the sub-windows'
/// percentiles); `setup_s` is the plain median of the set-ups.
fn finish(
    p: &Params,
    s: Samples,
    checks: Checks,
    setup_times: &[f64],
    mem_units: f64,
    peak_rss: f64,
) -> Outcome {
    let kind = p.workload.kind;
    let window = p.seconds;
    // Sequential series are cut by index, timed ones by the clock.
    let by_index = |series: &Series| series.len().max(1) as f64;
    let cold_span = if matches!(kind, Kind::ColdService | Kind::DeepEngine) {
        window
    } else {
        by_index(&s.prep_ms)
    };
    let ingest_span = if kind == Kind::MixedTcp {
        window
    } else {
        by_index(&s.ingest_ms)
    };
    let mut pulls = s.first_page_ms.clone();
    pulls.extend(s.page_ms.clone());
    let metric = |name, reading| Metric { name, reading };
    let metrics = vec![
        metric("setup_s", stats::p50(setup_times)),
        metric("prep_p50_ms", s.prep_ms.steady(cold_span, 50.0)),
        metric("cold_ttf_p50_ms", s.cold_ttf_ms.steady(cold_span, 50.0)),
        metric("first_page_p50_ms", s.first_page_ms.steady(window, 50.0)),
        metric("page_p50_ms", s.page_ms.steady(window, 50.0)),
        metric("session_p50_ms", s.session_ms.steady(window, 50.0)),
        metric("pages_per_s", pulls.rate(window)),
        metric("ttk_p50_ms", s.ttk_ms.steady(window, 50.0)),
        metric("ingest_p50_ms", s.ingest_ms.steady(ingest_span, 50.0)),
        metric("mem_units", Reading::exact(mem_units, 1)),
        metric("peak_rss_mb", Reading::exact(peak_rss, 1)),
    ];

    // The tails, for the reader: not steady enough on a shared host to be
    // end-to-end metrics (the traced run reports them per layer).
    let info = vec![
        metric("first_page_p99_ms", s.first_page_ms.steady(window, 99.0)),
        metric("page_p99_ms", s.page_ms.steady(window, 99.0)),
        metric("ingest_p90_ms", s.ingest_ms.steady(ingest_span, 90.0)),
    ];

    let (mut warnings, mut notes) = (Vec::new(), Vec::new());
    let lateness = stats::tail(&s.lateness_ms, 99.0);
    if lateness.n > 0 {
        if lateness.value > 5.0 {
            warnings.push(format!(
                "open-loop ingester ran late: p{:.0} lateness {:.2} ms > 5 ms",
                lateness.pct, lateness.value
            ));
        }
        notes.push(format!(
            "bench.gen_lateness p{:.0} = {:.3} ms over {} ingests",
            lateness.pct, lateness.value, lateness.n
        ));
    }
    if kind == Kind::MixedTcp && nproc() < 2 {
        warnings.push("one core: the ingester and the paging client share it".into());
    }
    let mut errors = s.errors;
    errors.extend(checks.errors);
    Outcome {
        attempted: s.attempted + checks.attempted,
        failed: s.failed + checks.failed,
        metrics,
        info,
        errors,
        warnings,
        notes,
    }
}
