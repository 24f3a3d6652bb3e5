//! Chaos suite: fault injection, panic isolation, cancellation, deadlines,
//! and overload shedding for the query service.
//!
//! Everything here is deterministic: time comes from a [`ManualClock`],
//! randomness from seeded [`SmallRng`]s, and faults from explicitly
//! installed [`FaultPlan`]s (whose install guard serialises fault-armed
//! tests process-wide, so hit counters never race).

use anyk_core::AnyKAlgorithm;
use anyk_datagen::uniform::path_or_star_database;
use anyk_engine::EngineError;
use anyk_server::faults::{self, FaultPlan, Trigger, SITES};
use anyk_server::{
    Answer, Clock, GovernorConfig, ManualClock, OverloadReason, QueryService, ServiceConfig,
    ServiceError, ServiceMetrics, SessionId, SessionState, DEFAULT_ALGORITHM,
};
use anyk_storage::{Database, DeltaBatch, Relation, Tuple};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::{Arc, Mutex, Once};
use std::time::Duration;

const ALGORITHMS: [AnyKAlgorithm; 6] = [
    AnyKAlgorithm::Eager,
    AnyKAlgorithm::Lazy,
    AnyKAlgorithm::All,
    AnyKAlgorithm::Take2,
    AnyKAlgorithm::Recursive,
    AnyKAlgorithm::Batch,
];

/// The failpoint registry is process-global, and its install guard only
/// serializes tests *while armed* — a test that arms and disarms repeatedly
/// leaves windows where a concurrently running test's sessions would hit
/// its plans. Serialize every test in this file across its whole body.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Injected panics are part of the plan here; keep them out of the test
/// output while still printing genuine (assertion) panics.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("failpoint") {
                default(info);
            }
        }));
    });
}

fn small_path_db() -> Database {
    let mut db = Database::new();
    let mut r1 = Relation::new("R1", 2);
    r1.push_edge(1, 10, 1.0);
    r1.push_edge(2, 20, 4.0);
    r1.push_edge(3, 10, 9.0);
    let mut r2 = Relation::new("R2", 2);
    r2.push_edge(10, 5, 2.0);
    r2.push_edge(20, 6, 1.0);
    db.add(r1);
    db.add(r2);
    db
}

fn wide_path_db(seed: u64) -> Database {
    let mut rng = SmallRng::seed_from_u64(seed);
    path_or_star_database(3, 40, &mut rng)
}

const SMALL_QUERY: &str = "Q(x, y, z) :- R1(x, y), R2(y, z)";
const WIDE_QUERY: &str = "Q(a, b, c, d) :- R1(a, b), R2(b, c), R3(c, d)";

fn assert_metrics_consistent(service: &QueryService) {
    let m = service.metrics();
    assert_eq!(
        m.sessions_opened,
        m.active_sessions
            + m.sessions_closed
            + m.sessions_expired
            + m.sessions_cancelled
            + m.sessions_poisoned,
        "every opened session is in exactly one lifecycle bucket: {m:?}"
    );
    assert_eq!(m.pages_in_flight, 0, "all page permits returned");
}

/// Sites that opening and paging a session never reach: plan migration
/// during `ingest`. The `ingest_survives_*` cases below drive them.
const INGEST_PATH_SITES: [&str; 2] = ["core.patch", "engine.refresh"];

/// Every failpoint site, under both actions, is contained to a typed error
/// — and the service is fully healthy the moment the plan disarms.
#[test]
fn every_failpoint_site_is_contained() {
    let _serial = serial();
    quiet_injected_panics();
    // `net.*` sites sit on the TCP transport, which an in-process service
    // never reaches; tests/net_chaos.rs drives those.
    for site in SITES
        .iter()
        .copied()
        .filter(|s| !s.starts_with("net.") && !INGEST_PATH_SITES.contains(s))
    {
        for panic_action in [false, true] {
            let service = QueryService::new(small_path_db());
            let plan = if panic_action {
                FaultPlan::new().panic(site, Trigger::Always)
            } else {
                FaultPlan::new().error(site, Trigger::Always)
            };
            let guard = faults::install(plan);
            match service.open_session_text(SMALL_QUERY) {
                Err(err) => {
                    // Preparation-path sites kill the open with a typed
                    // error; `check` sites inject `Fault`, infallible-path
                    // checkpoints and panic actions are contained panics.
                    match (site, panic_action) {
                        ("server.open" | "engine.compile", false) => {
                            assert!(matches!(err, ServiceError::Fault(_)), "{site}: {err}")
                        }
                        _ => {
                            assert!(
                                matches!(err, ServiceError::Panicked { .. }),
                                "{site}: {err}"
                            )
                        }
                    }
                }
                Ok(id) => {
                    // Paging-path sites let the open through and hit pulls.
                    assert!(
                        matches!(site, "engine.page" | "server.page"),
                        "site {site} should have failed the open"
                    );
                    let err = service.next_page(id, 10).unwrap_err();
                    match (site, panic_action) {
                        ("server.page", false) => {
                            assert!(matches!(err, ServiceError::Fault(_)), "{site}: {err}")
                        }
                        _ => {
                            assert!(
                                matches!(err, ServiceError::Panicked { .. }),
                                "{site}: {err}"
                            )
                        }
                    }
                    // A faulted pull retires nothing by itself (transient
                    // errors are retryable); release the slot explicitly.
                    service.close_session(id);
                }
            }
            assert!(guard.hits(site) >= 1, "failpoint {site} was exercised");
            drop(guard);
            // Disarmed: the same service serves the same query perfectly.
            let id = service.open_session_text(SMALL_QUERY).unwrap();
            let page = service.next_page(id, 100).unwrap();
            assert_eq!(page.answers.len(), 3, "{site}: healthy after disarm");
            assert!(page.done);
            service.close_session(id);
            assert_eq!(service.metrics().mem_resident_units, 0, "{site}");
            assert_metrics_consistent(&service);
        }
    }
}

/// A panic mid-stream poisons exactly one session: its neighbour, paging
/// the same plan concurrently, still produces the bit-identical stream.
#[test]
fn a_panicking_session_never_perturbs_its_neighbours() {
    let _serial = serial();
    quiet_injected_panics();
    let service = QueryService::new(wide_path_db(7));
    let one_shot: Vec<Answer> = {
        let prepared = service.prepare_text(WIDE_QUERY).unwrap();
        prepared.enumerate(DEFAULT_ALGORITHM).collect()
    };
    assert!(one_shot.len() > 20, "enough answers to page through");

    let healthy = service.open_session_text(WIDE_QUERY).unwrap();
    let doomed = service.open_session_text(WIDE_QUERY).unwrap();
    let mut got = service.next_page(healthy, 5).unwrap().answers;

    {
        let _guard = faults::install(FaultPlan::new().panic("engine.page", Trigger::Nth(3)));
        let err = service.next_page(doomed, 10).unwrap_err();
        assert!(matches!(err, ServiceError::Panicked { .. }));
        assert!(err.to_string().contains("engine.page"), "{err}");
    }

    // The doomed session is poisoned — typed error, state visible, memory
    // released — while the registry stays unlocked and unpoisoned.
    assert!(matches!(
        service.next_page(doomed, 1),
        Err(ServiceError::SessionPoisoned(_))
    ));
    assert_eq!(
        service.session_status(doomed).unwrap().state,
        SessionState::Poisoned
    );
    let m = service.metrics();
    assert_eq!(m.sessions_poisoned, 1);
    assert_eq!(m.active_sessions, 1, "only the healthy session");

    // The neighbour pages on, bit-identically to the one-shot stream.
    loop {
        let page = service.next_page(healthy, 7).unwrap();
        got.extend(page.answers);
        if page.done {
            break;
        }
    }
    assert_eq!(got, one_shot, "neighbour stream is bit-identical");

    // And the service still accepts fresh sessions.
    let fresh = service.open_session_text(WIDE_QUERY).unwrap();
    assert!(!service.next_page(fresh, 1).unwrap().answers.is_empty());
    service.close_session(healthy);
    service.close_session(doomed);
    service.close_session(fresh);
    assert_eq!(service.tracked_sessions(), 0);
    assert_eq!(service.metrics().mem_resident_units, 0);
    assert_metrics_consistent(&service);
}

/// Cancellation from another thread stops an in-flight pull between
/// answers; whichever way the race resolves, the stream stays a prefix of
/// the one-shot stream and every resource comes back.
#[test]
fn cancelling_an_in_flight_pull_yields_a_valid_prefix() {
    let _serial = serial();
    let service = Arc::new(QueryService::new(wide_path_db(11)));
    let one_shot: Vec<Answer> = {
        let prepared = service.prepare_text(WIDE_QUERY).unwrap();
        prepared.enumerate(AnyKAlgorithm::Lazy).collect()
    };
    let id = service
        .open_session_text(&format!("{WIDE_QUERY} via lazy"))
        .unwrap();

    let svc = Arc::clone(&service);
    let puller = std::thread::spawn(move || {
        let mut out = Vec::new();
        let done = svc.next_page_into(id, usize::MAX, &mut out);
        (done, out)
    });
    // Race the pull deliberately; both interleavings must be clean.
    let _ = service.cancel_session(id);
    let (done, answers) = puller.join().expect("pull thread must not panic");
    match done {
        Ok(done) => {
            assert!(done, "a cancelled or exhausted pull reports done");
            assert_eq!(answers.as_slice(), &one_shot[..answers.len()], "prefix");
        }
        Err(e) => assert!(
            matches!(e, ServiceError::SessionCancelled(_)),
            "cancel won before the pull started: {e}"
        ),
    }
    let m = service.metrics();
    assert_eq!(m.active_sessions, 0);
    assert_eq!(m.mem_resident_units, 0);
    assert_eq!(m.sessions_cancelled, 1);
    assert_metrics_consistent(&service);
}

/// 2× the session cap arrives at once: exactly `cap` sessions are admitted,
/// the rest shed with a typed, retry-hinted error, and a close frees a slot.
#[test]
fn concurrent_overload_sheds_exactly_to_the_cap() {
    let _serial = serial();
    let service = Arc::new(QueryService::with_config(
        small_path_db(),
        ServiceConfig {
            governor: GovernorConfig {
                max_sessions: Some(4),
                ..GovernorConfig::default()
            },
            ..ServiceConfig::default()
        },
    ));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let svc = Arc::clone(&service);
            std::thread::spawn(move || svc.open_session_text(SMALL_QUERY))
        })
        .collect();
    let mut admitted = Vec::new();
    let mut shed = 0;
    for h in handles {
        match h.join().unwrap() {
            Ok(id) => admitted.push(id),
            Err(ServiceError::Overloaded {
                reason: OverloadReason::Sessions,
                retry_after_hint,
            }) => {
                assert!(retry_after_hint > Duration::ZERO);
                shed += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(admitted.len(), 4, "cap admits exactly 4");
    assert_eq!(shed, 4);
    let m = service.metrics();
    assert_eq!(m.sessions_opened, 4);
    assert_eq!(m.sessions_shed, 4);
    // Admitted sessions all page correctly, and a close frees a slot.
    for &id in &admitted {
        assert_eq!(service.next_page(id, 100).unwrap().answers.len(), 3);
    }
    service.close_session(admitted[0]);
    assert!(service.open_session_text(SMALL_QUERY).is_ok());
    assert_metrics_consistent(&service);
}

/// The `ANYK_FAULTS` env grammar drives the same registry as programmatic
/// plans: `@n+` triggers fire from the n-th hit on.
#[test]
fn env_fault_plans_follow_the_documented_grammar() {
    let _serial = serial();
    std::env::set_var("ANYK_FAULTS", "server.page=error@2+");
    let plan = FaultPlan::from_env()
        .expect("variable is set")
        .expect("grammar is valid");
    std::env::remove_var("ANYK_FAULTS");

    let service = QueryService::new(small_path_db());
    let id = service.open_session_text(SMALL_QUERY).unwrap();
    let guard = faults::install(plan);
    assert!(service.next_page(id, 1).is_ok(), "hit 1 passes through");
    assert!(matches!(
        service.next_page(id, 1),
        Err(ServiceError::Fault(i)) if i.site == "server.page"
    ));
    assert!(matches!(
        service.next_page(id, 1),
        Err(ServiceError::Fault(_))
    ));
    assert_eq!(guard.hits("server.page"), 3);
    drop(guard);
    assert!(service.next_page(id, 1).is_ok(), "disarmed");
}

/// The big one: seeded random schedules of open/page/cancel/close/expire
/// with intermittent error *and* panic faults, across all six algorithms.
/// Afterwards the registry must be drained, the MEM(k) gauge must be back
/// to zero, and every opened session accounted for in exactly one bucket.
#[test]
fn random_kill_cancel_fault_schedules_leak_nothing() {
    let _serial = serial();
    quiet_injected_panics();
    for (a, &algorithm) in ALGORITHMS.iter().enumerate() {
        let clock = Arc::new(ManualClock::new());
        let service = QueryService::with_config(
            wide_path_db(23 + a as u64),
            ServiceConfig {
                governor: GovernorConfig {
                    max_sessions: Some(12),
                    max_pages_in_flight: Some(8),
                    memory_budget_units: Some(200_000),
                    session_ttl: Some(Duration::from_secs(120)),
                    idle_timeout: Some(Duration::from_secs(45)),
                    ..GovernorConfig::default()
                },
                clock: Some(Arc::clone(&clock) as Arc<dyn Clock>),
                ..ServiceConfig::default()
            },
        );
        let mut rng = SmallRng::seed_from_u64(0xC4A0_5000 + a as u64);
        let mut live: Vec<SessionId> = Vec::new();
        let algo_name = format!("{algorithm:?}").to_lowercase();
        let open_text = format!("{WIDE_QUERY} via {algo_name}");

        for _step in 0..150 {
            // Some steps run with a fault armed at a random site.
            let guard = if rng.gen_bool(0.2) {
                let site = SITES[rng.gen_range(0..SITES.len())];
                let plan = if rng.gen_bool(0.5) {
                    FaultPlan::new().error(site, Trigger::Always)
                } else {
                    FaultPlan::new().panic(site, Trigger::Always)
                };
                Some(faults::install(plan))
            } else {
                None
            };
            match rng.gen_range(0..100u32) {
                0..=29 => {
                    if let Ok(id) = service.open_session_text(&open_text) {
                        live.push(id);
                    }
                }
                30..=74 => {
                    if !live.is_empty() {
                        let id = live[rng.gen_range(0..live.len())];
                        let _ = service.next_page(id, rng.gen_range(1usize..16));
                    }
                }
                75..=82 => {
                    if !live.is_empty() {
                        let id = live[rng.gen_range(0..live.len())];
                        let _ = service.cancel_session(id);
                    }
                }
                83..=90 => {
                    if !live.is_empty() {
                        let id = live.swap_remove(rng.gen_range(0..live.len()));
                        service.close_session(id);
                    }
                }
                91..=96 => clock.advance(Duration::from_secs(rng.gen_range(1u64..30))),
                _ => {
                    service.sweep_expired();
                }
            }
            drop(guard);
        }

        for id in live.drain(..) {
            service.close_session(id);
        }
        let m: ServiceMetrics = service.metrics();
        assert_eq!(service.tracked_sessions(), 0, "{algorithm:?}: no leaks");
        assert_eq!(m.active_sessions, 0, "{algorithm:?}");
        assert_eq!(m.mem_resident_units, 0, "{algorithm:?}: budget returned");
        assert_metrics_consistent(&service);
        assert!(m.sessions_opened > 0, "{algorithm:?}: schedule opened work");

        // After all that chaos the service still serves, verbatim.
        let id = service.open_session_text(&open_text).unwrap();
        let mut n = 0;
        loop {
            let page = service.next_page(id, 16).unwrap();
            n += page.answers.len();
            if page.done {
                break;
            }
        }
        let expected: usize = {
            let prepared = service.prepare_text(WIDE_QUERY).unwrap();
            prepared.enumerate(algorithm).count()
        };
        assert_eq!(n, expected, "{algorithm:?}: exact stream after chaos");
        service.close_session(id);
    }
}

/// A random but always-valid delta against `db`: one delete and a couple of
/// in-domain inserts per touched relation (the generator's join columns
/// live in 1..=4 for `n = 40`, so inserts keep joining).
fn random_batch(db: &Database, rng: &mut SmallRng) -> DeltaBatch {
    let names: Vec<String> = db.relations().map(|r| r.name().to_string()).collect();
    let mut batch = DeltaBatch::new();
    for name in names {
        if rng.gen_bool(0.5) {
            continue;
        }
        let len = db.expect(&name).len();
        batch = batch.delete(&name, rng.gen_range(0..len));
        for _ in 0..rng.gen_range(1usize..4) {
            let values = vec![rng.gen_range(1u64..=4), rng.gen_range(1u64..=4)];
            let weight = rng.gen_range(0..10_000) as f64 / 100.0;
            batch = batch.insert(&name, Tuple::new(values, weight));
        }
    }
    if batch.is_empty() {
        // Never hand the service a no-op round; always edit something.
        batch = batch.delete("R2", rng.gen_range(0..db.expect("R2").len()));
    }
    batch
}

/// Stream session `id` to exhaustion, appending to `got`.
fn drain(service: &QueryService, id: SessionId, mut got: Vec<Answer>) -> Vec<Answer> {
    loop {
        let page = service.next_page(id, 16).unwrap();
        got.extend(page.answers);
        if page.done {
            return got;
        }
    }
}

/// One ingest with `site` armed, under both actions.
///
/// The fault lands inside plan migration, which by design never fails an
/// ingest: a plan that cannot be refreshed is recompiled, one that cannot
/// be recompiled is dropped and compiled again on demand. So the ingest
/// returns the next generation, the metrics say which fallback ran, and —
/// what the registry exists to prove — the session opened before the ingest
/// streams its pinned generation bit-identically, sessions opened after it
/// stream what a from-scratch service over the same data streams, and every
/// MEM(k) unit comes back. Where the site sits on a fallible path, the
/// error it injects is typed at the boundary that owns it; `typed_probe`
/// checks that while the plan is still armed.
fn ingest_survives(
    site: &'static str,
    migrated: impl Fn(&ServiceMetrics) -> bool,
    typed_probe: impl Fn(&QueryService, bool),
) {
    let _serial = serial();
    quiet_injected_panics();
    assert!(SITES.contains(&site), "{site} is registered");
    let text = format!("{WIDE_QUERY} via take2");
    for panic_action in [false, true] {
        let mut shadow = wide_path_db(41);
        let service = QueryService::new(shadow.clone());
        let before = {
            let oracle = QueryService::new(shadow.clone());
            drain(
                &oracle,
                oracle.open_session_text(&text).unwrap(),
                Vec::new(),
            )
        };
        let pinned = service.open_session_text(&text).unwrap();
        let first = service.next_page(pinned, 5).unwrap().answers;

        let batch = random_batch(&shadow, &mut SmallRng::seed_from_u64(0xFA17));
        shadow = shadow.apply_delta(&batch).unwrap();
        let plan = if panic_action {
            FaultPlan::new().panic(site, Trigger::Always)
        } else {
            FaultPlan::new().error(site, Trigger::Always)
        };
        let guard = faults::install(plan);
        assert_eq!(
            service.ingest(&batch).unwrap(),
            1,
            "{site}: ingest contained"
        );
        assert!(guard.hits(site) >= 1, "failpoint {site} was exercised");
        let m = service.metrics();
        assert_eq!(m.plans_refreshed, 0, "{site}: the refresh was the casualty");
        assert!(migrated(&m), "{site}: {m:?}");
        typed_probe(&service, panic_action);
        drop(guard);

        assert_eq!(
            drain(&service, pinned, first),
            before,
            "{site}: the previous generation streams on, bit-identical"
        );
        let fresh = service.open_session_text(&text).unwrap();
        let after = drain(&service, fresh, Vec::new());
        let rebuilt = QueryService::new(shadow.clone());
        assert_eq!(
            after,
            drain(
                &rebuilt,
                rebuilt.open_session_text(&text).unwrap(),
                Vec::new()
            ),
            "{site}: the new generation ≡ a from-scratch rebuild"
        );
        service.close_session(pinned);
        service.close_session(fresh);
        let m = service.metrics();
        assert_eq!(m.mem_resident_units, 0, "{site}");
        assert_eq!(m.active_generations, 1, "{site}: generation 0 retired");
        assert_metrics_consistent(&service);
    }
}

/// `engine.refresh` (fallible): the plan's refresh returns the typed fault,
/// the service recompiles instead.
#[test]
fn ingest_survives_a_fault_at_engine_refresh() {
    ingest_survives(
        "engine.refresh",
        |m| m.plans_recompiled == 1,
        |service, panic_action| {
            // The same call the migration made, made directly.
            let plan = service.prepare_text(WIDE_QUERY).unwrap();
            let db = service.database();
            let noop = DeltaBatch::new();
            let refreshed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                plan.refresh(Arc::new(db.apply_delta(&noop).unwrap()), &noop)
            }));
            match (refreshed, panic_action) {
                (Ok(Err(EngineError::Fault(i))), false) => assert_eq!(i.site, "engine.refresh"),
                (Err(_), true) => {}
                (other, _) => panic!("engine.refresh: unexpected {:?}", other.map(|r| r.err())),
            }
        },
    );
}

/// `core.patch` (infallible path, so both actions panic): the panic is
/// caught around the refresh and the service recompiles instead.
#[test]
fn ingest_survives_a_fault_at_core_patch() {
    ingest_survives("core.patch", |m| m.plans_recompiled == 1, |_, _| {});
}

/// Rotation + ingestion under concurrency: each round opens 8 paging
/// sessions, edits the served snapshot out from under them (delta ingest,
/// or a wholesale rotate on the last round), then drives the old crew to
/// random fates — stream-to-exhaustion, cancel, or kill — on concurrent
/// threads. Sessions that finish must stream **bit-identical** to their
/// pinned pre-edit snapshot; sessions opened after the edit must stream
/// bit-identical to a from-scratch service over an independently maintained
/// shadow copy (the delta ≡ rebuild guarantee). Every retired generation
/// must release its residency, MEM must return to zero, and a sweep with
/// generous deadlines must reap nothing.
#[test]
fn rotation_and_ingestion_under_concurrent_chaos_pin_generations() {
    let _serial = serial();
    const ROUNDS: usize = 4;
    const CREW: usize = 8;
    let clock = Arc::new(ManualClock::new());
    let service = Arc::new(QueryService::with_config(
        wide_path_db(31),
        ServiceConfig {
            governor: GovernorConfig {
                session_ttl: Some(Duration::from_secs(3_600)),
                idle_timeout: Some(Duration::from_secs(3_600)),
                ..GovernorConfig::default()
            },
            clock: Some(Arc::clone(&clock) as Arc<dyn Clock>),
            ..ServiceConfig::default()
        },
    ));
    // The shadow replays every edit independently; comparing streams against
    // a service built fresh over it is the delta-vs-rebuild differential.
    let mut shadow = wide_path_db(31);
    let mut rng = SmallRng::seed_from_u64(0x0DE1_7A01);

    for round in 0..ROUNDS {
        let oracle = QueryService::new(shadow.clone());
        let generation_before = service.current_generation();
        let mut crew: Vec<(SessionId, AnyKAlgorithm, Vec<Answer>)> = Vec::new();
        for i in 0..CREW {
            let algorithm = ALGORITHMS[(round + i) % ALGORITHMS.len()];
            let algo_name = format!("{algorithm:?}").to_lowercase();
            let text = format!("{WIDE_QUERY} via {algo_name}");
            let id = service.open_session_text(&text).unwrap();
            let first = service.next_page(id, rng.gen_range(1usize..8)).unwrap();
            crew.push((id, algorithm, first.answers));
        }

        // Edit the served snapshot while all 8 sessions are mid-stream.
        if round == ROUNDS - 1 {
            let replacement = wide_path_db(100 + round as u64);
            shadow = replacement.clone();
            assert_eq!(service.rotate(replacement), generation_before + 1);
        } else {
            let batch = random_batch(&shadow, &mut rng);
            shadow = shadow.apply_delta(&batch).unwrap();
            assert_eq!(service.ingest(&batch).unwrap(), generation_before + 1);
        }
        assert_eq!(service.current_generation(), generation_before + 1);

        // With generous deadlines nothing is expired; the sweep must not
        // reap sessions merely because their generation was rotated away.
        clock.advance(Duration::from_secs(5));
        assert_eq!(service.sweep_expired(), 0, "round {round}: nothing stale");

        std::thread::scope(|scope| {
            for (id, algorithm, first) in crew.drain(..) {
                let svc = &service;
                let oracle = &oracle;
                let fate = rng.gen_range(0..4u32);
                let mut rng = SmallRng::seed_from_u64(rng.gen());
                scope.spawn(move || {
                    assert_eq!(
                        svc.session_status(id).unwrap().generation,
                        generation_before,
                        "{algorithm:?}: session stays pinned to its snapshot"
                    );
                    match fate {
                        0 | 1 => {
                            // Stream to exhaustion across the edit.
                            let mut got = first;
                            loop {
                                let page = svc.next_page(id, rng.gen_range(1usize..16)).unwrap();
                                got.extend(page.answers);
                                if page.done {
                                    break;
                                }
                            }
                            let expected: Vec<Answer> = oracle
                                .prepare_text(WIDE_QUERY)
                                .unwrap()
                                .enumerate(algorithm)
                                .collect();
                            assert_eq!(
                                got, expected,
                                "{algorithm:?}: pinned stream bit-identical across the edit"
                            );
                            svc.close_session(id);
                        }
                        2 => {
                            svc.cancel_session(id).unwrap();
                            svc.close_session(id);
                        }
                        _ => {
                            // Kill: drop the session cold, mid-stream.
                            svc.close_session(id);
                        }
                    }
                });
            }
        });

        // The whole pre-edit crew is gone: its generation must have retired
        // and returned both its snapshot residency and its MEM(k).
        let m = service.metrics();
        assert_eq!(
            m.active_generations, 1,
            "round {round}: old generation freed"
        );
        assert_eq!(m.mem_resident_units, 0, "round {round}");
        assert_eq!(m.snapshots_retired as usize, round + 1, "round {round}");

        // A fresh session sees exactly what a from-scratch rebuild serves.
        let algorithm = ALGORITHMS[round % ALGORITHMS.len()];
        let algo_name = format!("{algorithm:?}").to_lowercase();
        let text = format!("{WIDE_QUERY} via {algo_name}");
        let id = service.open_session_text(&text).unwrap();
        let mut got = Vec::new();
        loop {
            let page = service.next_page(id, 16).unwrap();
            got.extend(page.answers);
            if page.done {
                break;
            }
        }
        let rebuilt = QueryService::new(shadow.clone());
        let expected: Vec<Answer> = rebuilt
            .prepare_text(WIDE_QUERY)
            .unwrap()
            .enumerate(algorithm)
            .collect();
        assert_eq!(
            got, expected,
            "round {round}, {algorithm:?}: delta-maintained ≡ from-scratch rebuild"
        );
        service.close_session(id);
    }

    let m = service.metrics();
    let current_units: u64 = shadow.relations().map(|r| r.len() as u64).sum();
    assert_eq!(service.tracked_sessions(), 0, "no session leaks");
    assert_eq!(m.mem_resident_units, 0);
    assert_eq!(m.active_generations, 1);
    assert_eq!(m.snapshot_resident_units, current_units);
    assert_eq!(m.snapshots_retired as usize, ROUNDS);
    assert_eq!(m.deltas_ingested as usize, ROUNDS - 1);
    assert_eq!(m.generations_rotated, 1);
    assert!(
        m.plans_refreshed >= 1,
        "at least one ingest carried the cached plan by delta refresh"
    );
    assert_eq!(service.sweep_expired(), 0, "final sweep reaps nothing");
    assert_metrics_consistent(&service);
}

/// Deadlines under an injected clock: TTL and idle expiry both reap, and
/// the tombstone keeps the id typed until the client closes it.
#[test]
fn deadlines_fire_deterministically_under_manual_clock() {
    let _serial = serial();
    let clock = Arc::new(ManualClock::new());
    let service = QueryService::with_config(
        small_path_db(),
        ServiceConfig {
            governor: GovernorConfig {
                session_ttl: Some(Duration::from_secs(100)),
                idle_timeout: Some(Duration::from_secs(10)),
                ..GovernorConfig::default()
            },
            clock: Some(Arc::clone(&clock) as Arc<dyn Clock>),
            ..ServiceConfig::default()
        },
    );
    // Idle expiry: no pulls for > 10s.
    let idle = service.open_session_text(SMALL_QUERY).unwrap();
    clock.advance(Duration::from_secs(10));
    assert_eq!(service.sweep_expired(), 1);
    assert!(matches!(
        service.next_page(idle, 1),
        Err(ServiceError::SessionExpired(_))
    ));
    // TTL expiry: kept warm with pulls, but the total lifetime cap bites.
    let busy = service.open_session_text(SMALL_QUERY).unwrap();
    for _ in 0..12 {
        clock.advance(Duration::from_secs(9));
        let _ = service.next_page(busy, 1); // refreshes idle, not TTL
    }
    assert_eq!(
        service.session_status(busy).unwrap().state,
        SessionState::Expired
    );
    let m = service.metrics();
    assert_eq!(m.sessions_expired, 2);
    assert_eq!(m.mem_resident_units, 0);
    assert!(service.close_session(idle));
    assert!(service.close_session(busy));
    assert_eq!(service.tracked_sessions(), 0);
    assert_metrics_consistent(&service);
}
