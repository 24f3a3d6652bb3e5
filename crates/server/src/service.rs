//! The query service: prepared-plan cache + sharded session registry +
//! lifecycle governance (admission control, deadlines, panic isolation).

use crate::error::ServiceError;
use crate::governor::{Governor, GovernorConfig, SessionOutcome};
use crate::stats::{StatsSnapshot, STATS_VERSION};
use anyk_core::AnyKAlgorithm;
use anyk_engine::{Answer, AnswerCursor, AnswerDecoder, Page, PreparedQuery, RankingFunction};
use anyk_obs::{
    Clock, Event, EventKind, EventRing, LatencyHistogram, MonotonicClock, PlanObs, PlanRegistry,
};
use anyk_query::{ConjunctiveQuery, QuerySpec};
use anyk_storage::{Database, DeltaBatch, IndexCacheStats};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, TryLockError};

/// Identifies one open enumeration session. Ids are unique over the life of
/// a service and never reused, so a stale id can only miss (never alias a
/// newer session).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

impl SessionId {
    /// Fabricate an id for crate-internal tests; real ids only ever come
    /// from [`QueryService::open_session_spec`].
    #[cfg(test)]
    pub(crate) fn test_only(raw: u64) -> Self {
        SessionId(raw)
    }
}

/// Construction-time options for [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Re-bound the database's index cache before sharing it (`None` keeps
    /// the database's current bound — the `ANYK_INDEX_CACHE_CAP` default).
    /// Only meaningful when the service still owns the database
    /// ([`QueryService::new`] / [`QueryService::with_config`]);
    /// [`QueryService::over`] rejects it, because an already-shared
    /// snapshot's cache cannot be re-bounded.
    pub index_cache_capacity: Option<usize>,
    /// Number of independent `RwLock` shards for the session registry.
    /// Session lookups hash across the shards, so concurrent page pulls on
    /// different sessions contend only 1-in-`session_shards` of the time
    /// even while other sessions are being opened or closed.
    pub session_shards: usize,
    /// Bound on the number of memoised prepared plans (clamped to ≥ 1).
    /// Prepared plans are much heavier than indexes — a cycle plan owns
    /// materialised bag databases — so a service facing ad-hoc queries
    /// must evict here too: least-recently-prepared plans are dropped
    /// first. Sessions already opened keep their (Arc'd) plan alive until
    /// they close; eviction only forces a recompile for *future* sessions.
    pub plan_cache_capacity: usize,
    /// Resource caps and deadlines; the default enforces nothing. See
    /// [`GovernorConfig`] and the crate-level tuning guide.
    pub governor: GovernorConfig,
    /// Time source for TTL/idle deadlines. `None` (the default) uses a
    /// process-monotonic clock; tests inject a
    /// [`ManualClock`](crate::ManualClock) to make expiry deterministic.
    pub clock: Option<Arc<dyn Clock>>,
    /// Events retained in each session's post-mortem ring
    /// ([`QueryService::session_trace`]): open, page pulls, shed pulls, and
    /// how the session ended, oldest evicted first. `0` disables the rings
    /// entirely (every push becomes a no-op).
    pub session_event_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            index_cache_capacity: None,
            session_shards: 8,
            plan_cache_capacity: 32,
            governor: GovernorConfig::default(),
            clock: None,
            session_event_capacity: 32,
        }
    }
}

/// A snapshot of the service's counters and gauges, taken **atomically**:
/// all fields come from one critical section, so derived invariants (e.g.
/// `sessions_opened == active_sessions + sessions_closed + sessions_expired
/// plus the cancelled and poisoned counts) hold exactly in every snapshot,
/// even under concurrent traffic. Counters increase monotonically over the
/// service's lifetime; gauges move both ways.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Sessions opened so far (admission-accepted; shed requests are not
    /// opens).
    pub sessions_opened: u64,
    /// Sessions explicitly closed while still active.
    pub sessions_closed: u64,
    /// Requests shed by admission control (session cap, page cap, or
    /// memory budget).
    pub sessions_shed: u64,
    /// Sessions ended by the TTL/idle reaper.
    pub sessions_expired: u64,
    /// Sessions ended by [`QueryService::cancel_session`] (or by a close
    /// racing an in-flight page pull).
    pub sessions_cancelled: u64,
    /// Sessions poisoned by a panicking page pull (isolated; see the crate
    /// docs).
    pub sessions_poisoned: u64,
    /// Pages served across all sessions.
    pub pages_served: u64,
    /// Answers served across all sessions.
    pub answers_served: u64,
    /// Prepared-plan cache hits (a session opened without recompiling).
    pub plan_hits: u64,
    /// Prepared-plan cache misses (compile + preprocessing ran).
    pub plan_misses: u64,
    /// Prepared plans evicted by the plan-cache LRU bound.
    pub plan_evictions: u64,
    /// Gauge: sessions currently active (opened, not yet ended).
    pub active_sessions: u64,
    /// Gauge: page pulls executing at this instant.
    pub pages_in_flight: u64,
    /// Gauge: MEM(k) units currently charged across all live sessions
    /// (see [`GovernorConfig::memory_budget_units`]).
    pub mem_resident_units: u64,
    /// High-water mark of `mem_resident_units` over the service's lifetime.
    pub peak_mem_resident_units: u64,
    /// TCP connections accepted and handed to a transport worker (zero when
    /// the service is driven purely in-process; see [`crate::net`]).
    pub connections_accepted: u64,
    /// TCP connections shed at accept time by the transport's connection cap
    /// (a retry-after status frame, written before any handshake work).
    pub connections_shed_at_accept: u64,
    /// Socket reads that hit the per-read or whole-frame deadline; each one
    /// dropped its connection.
    pub net_read_timeouts: u64,
    /// Response writes that hit the write deadline; each one dropped its
    /// connection.
    pub net_write_timeouts: u64,
    /// Connections retired by a graceful transport shutdown after their
    /// in-flight work drained.
    pub connections_drained_on_shutdown: u64,
    /// Gauge: generation id of the snapshot serving new sessions.
    pub current_generation: u64,
    /// Gauge: snapshot generations currently alive — the serving one plus
    /// any retired generations kept alive by sessions still pinned to them.
    pub active_generations: u64,
    /// Gauge: tuples resident across all live snapshot generations.
    pub snapshot_resident_units: u64,
    /// Retired generations fully released: rotated away *and* their last
    /// pinned session has ended, so their residency dropped to zero.
    pub snapshots_retired: u64,
    /// Wholesale snapshot replacements ([`QueryService::rotate`]).
    pub generations_rotated: u64,
    /// Delta batches applied ([`QueryService::ingest`]).
    pub deltas_ingested: u64,
    /// Cached plans carried across an ingestion by delta refresh — the
    /// bottom-up DP re-swept only its dirty cone instead of recompiling.
    pub plans_refreshed: u64,
    /// Cached plans carried across an ingestion by full recompilation
    /// (selection-pushdown and cycle plans cannot be delta-refreshed).
    pub plans_recompiled: u64,
}

impl ServiceMetrics {
    /// Number of entries [`ServiceMetrics::fields`] yields — the implicit
    /// schema of stats wire frames (guarded by
    /// [`crate::stats::STATS_VERSION`]: adding a field bumps the version).
    pub const FIELD_COUNT: usize = 28;

    /// Every counter and gauge as `(name, value)`, in declaration order.
    /// This is the single source of the stats wire layout and the
    /// Prometheus rendering, so the three views can never skew.
    pub fn fields(&self) -> [(&'static str, u64); Self::FIELD_COUNT] {
        [
            ("sessions_opened", self.sessions_opened),
            ("sessions_closed", self.sessions_closed),
            ("sessions_shed", self.sessions_shed),
            ("sessions_expired", self.sessions_expired),
            ("sessions_cancelled", self.sessions_cancelled),
            ("sessions_poisoned", self.sessions_poisoned),
            ("pages_served", self.pages_served),
            ("answers_served", self.answers_served),
            ("plan_hits", self.plan_hits),
            ("plan_misses", self.plan_misses),
            ("plan_evictions", self.plan_evictions),
            ("active_sessions", self.active_sessions),
            ("pages_in_flight", self.pages_in_flight),
            ("mem_resident_units", self.mem_resident_units),
            ("peak_mem_resident_units", self.peak_mem_resident_units),
            ("connections_accepted", self.connections_accepted),
            (
                "connections_shed_at_accept",
                self.connections_shed_at_accept,
            ),
            ("net_read_timeouts", self.net_read_timeouts),
            ("net_write_timeouts", self.net_write_timeouts),
            (
                "connections_drained_on_shutdown",
                self.connections_drained_on_shutdown,
            ),
            ("current_generation", self.current_generation),
            ("active_generations", self.active_generations),
            ("snapshot_resident_units", self.snapshot_resident_units),
            ("snapshots_retired", self.snapshots_retired),
            ("generations_rotated", self.generations_rotated),
            ("deltas_ingested", self.deltas_ingested),
            ("plans_refreshed", self.plans_refreshed),
            ("plans_recompiled", self.plans_recompiled),
        ]
    }

    /// Rebuild a snapshot from [`ServiceMetrics::fields`]-ordered values
    /// (the wire decoder's inverse of `fields`).
    pub fn from_values(values: &[u64; Self::FIELD_COUNT]) -> Self {
        ServiceMetrics {
            sessions_opened: values[0],
            sessions_closed: values[1],
            sessions_shed: values[2],
            sessions_expired: values[3],
            sessions_cancelled: values[4],
            sessions_poisoned: values[5],
            pages_served: values[6],
            answers_served: values[7],
            plan_hits: values[8],
            plan_misses: values[9],
            plan_evictions: values[10],
            active_sessions: values[11],
            pages_in_flight: values[12],
            mem_resident_units: values[13],
            peak_mem_resident_units: values[14],
            connections_accepted: values[15],
            connections_shed_at_accept: values[16],
            net_read_timeouts: values[17],
            net_write_timeouts: values[18],
            connections_drained_on_shutdown: values[19],
            current_generation: values[20],
            active_generations: values[21],
            snapshot_resident_units: values[22],
            snapshots_retired: values[23],
            generations_rotated: values[24],
            deltas_ingested: values[25],
            plans_refreshed: values[26],
            plans_recompiled: values[27],
        }
    }
}

/// One served database generation: the sealed snapshot plus its governor
/// accounting. Sessions pin the `Arc<Snapshot>` they were opened against,
/// so a rotated-away generation stays resident exactly as long as a session
/// still streams from it; when the last pin drops, this wrapper's `Drop`
/// returns the generation's residency to the governor.
pub(crate) struct Snapshot {
    generation: u64,
    db: Arc<Database>,
    /// Resident tuples charged against `snapshot_resident_units` for this
    /// generation's lifetime.
    units: u64,
    gov: Arc<Governor>,
}

impl Snapshot {
    /// Wrap a sealed database as the next served generation, charging its
    /// residency to the governor.
    fn install(db: Arc<Database>, gov: &Arc<Governor>) -> Arc<Snapshot> {
        debug_assert!(db.is_sealed(), "served snapshots are always sealed");
        let units: u64 = db.relations().map(|r| r.len() as u64).sum();
        let generation = db.generation();
        gov.install_snapshot(generation, units);
        Arc::new(Snapshot {
            generation,
            db,
            units,
            gov: Arc::clone(gov),
        })
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.gov.retire_snapshot(self.units);
    }
}

/// The lifecycle state of a session; see the state diagram in the
/// [crate docs](crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Open with answers (potentially) remaining.
    Active,
    /// The stream ended normally (exhausted or hit its `limit`); the id
    /// stays valid for status/close until explicitly closed.
    Drained,
    /// Reaped by the TTL/idle deadline; enumeration state is gone.
    Expired,
    /// Cancelled; enumeration state is gone.
    Cancelled,
    /// A page pull panicked; the session was isolated and its state
    /// discarded.
    Poisoned,
}

/// Progress report for one session; see [`QueryService::session_status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStatus {
    /// Answers served so far across all of the session's pages.
    pub served: usize,
    /// True once the session can serve no further answers (for any reason —
    /// drained, expired, cancelled, or poisoned).
    pub done: bool,
    /// The any-k algorithm driving the session.
    pub algorithm: AnyKAlgorithm,
    /// Where the session is in its lifecycle.
    pub state: SessionState,
    /// The snapshot generation the session is pinned to. Rotation never
    /// moves an open session: it streams its pinned generation to the end.
    pub generation: u64,
}

/// The algorithm driving a session when the request does not pin one.
///
/// Lazy, by anykbench's per-algorithm rows (medians of ten traced runs,
/// seed 11, 2 vCPUs). On `deep_cycle6`, one cursor to k = 10⁶ on the
/// worst-case 6-cycle, `core.lazy.ttk_ms` reads 363 ms against
/// `core.take2.ttk_ms` 751: Take2's candidate queue grows by about one entry
/// per answer (1 044 145 after 10⁶), Lazy's by one per live prefix (34 088).
/// At k = 1 000 the two are level (`tt1000_ms` 0.35 against 0.36). Lazy
/// borrows the plan's root heap as Take2 does, so opening a cursor costs the
/// same.
pub const DEFAULT_ALGORITHM: AnyKAlgorithm = AnyKAlgorithm::Lazy;

/// Key of the prepared-plan cache: the snapshot generation the plan was
/// compiled (or refreshed) over, plus [`QuerySpec::plan_key`] — the
/// canonical spec text (variables alpha-renamed, predicates sorted) with
/// the execution attributes (algorithm, limit) stripped. Alpha-equivalent
/// requests — text or struct, `R(x,y),S(y,z)` or `R(a,b),S(b,c)` — share
/// one compiled plan; the generation half guarantees a rotated snapshot can
/// never serve a plan compiled over different data.
type PlanKey = (u64, String);

/// One memoised plan plus its recency tick (atomic so cache hits can
/// refresh recency under the read lock; used for LRU eviction).
struct PlanEntry {
    plan: Arc<PreparedQuery>,
    /// The plan's spec, execution attributes stripped — kept so ingestion
    /// can recompile plans that cannot be delta-refreshed.
    spec: QuerySpec,
    last_used: AtomicU64,
}

/// A live session: the cursor plus its governance bookkeeping.
struct ActiveSession {
    cursor: AnswerCursor,
    /// The generation the session streams from. The `Arc` is the pin: a
    /// retired generation's accounting is released by its last pin dropping.
    snapshot: Arc<Snapshot>,
    /// MEM(k) units currently charged against the governor's budget for
    /// this session (re-charged to the live footprint after every page).
    charged_units: u64,
    opened_nanos: u64,
    last_used_nanos: u64,
    /// Bounded post-mortem trace of lifecycle events
    /// ([`ServiceConfig::session_event_capacity`]); migrates into the
    /// tombstone when the session ends.
    ring: EventRing,
    /// The plan-wide observation block page latencies are recorded into
    /// (the cursor's delay recorder flushes into the same block).
    obs: Arc<PlanObs>,
}

/// How a session stopped being active (the tombstone kept in its slot so
/// later calls get a *typed* error instead of `UnknownSession`).
#[derive(Debug, Clone, Copy)]
enum SessionEnd {
    Expired,
    Cancelled,
    Poisoned,
}

impl SessionEnd {
    fn error(self, id: SessionId) -> ServiceError {
        match self {
            SessionEnd::Expired => ServiceError::SessionExpired(id),
            SessionEnd::Cancelled => ServiceError::SessionCancelled(id),
            SessionEnd::Poisoned => ServiceError::SessionPoisoned(id),
        }
    }

    fn state(self) -> SessionState {
        match self {
            SessionEnd::Expired => SessionState::Expired,
            SessionEnd::Cancelled => SessionState::Cancelled,
            SessionEnd::Poisoned => SessionState::Poisoned,
        }
    }

    fn event_kind(self) -> EventKind {
        match self {
            SessionEnd::Expired => EventKind::Expire,
            SessionEnd::Cancelled => EventKind::Cancel,
            SessionEnd::Poisoned => EventKind::Poison,
        }
    }
}

enum SlotState {
    Active(ActiveSession),
    /// The cursor (and its enumeration memory, and its snapshot pin) is
    /// gone; only the facts a status call needs — plus the event ring for
    /// post-mortems — survive.
    Ended {
        end: SessionEnd,
        served: usize,
        algorithm: AnyKAlgorithm,
        generation: u64,
        ring: EventRing,
    },
}

struct Slot {
    state: SlotState,
}

impl Slot {
    /// Transition Active → Ended, returning the active half (whose drop —
    /// in the caller, outside any registry lock — frees the cursor and
    /// releases the snapshot pin). The event ring migrates into the
    /// tombstone, stamped with the terminal event. Panics if the slot
    /// already ended; callers check first.
    fn end(&mut self, end: SessionEnd, at_nanos: u64) -> ActiveSession {
        let (served, algorithm, generation, mut ring) = match &mut self.state {
            SlotState::Active(a) => (
                a.cursor.served(),
                a.cursor.algorithm(),
                a.snapshot.generation,
                std::mem::replace(&mut a.ring, EventRing::new(0)),
            ),
            SlotState::Ended { .. } => unreachable!("slot ended twice"),
        };
        ring.record(at_nanos, end.event_kind(), served as u64);
        let prev = std::mem::replace(
            &mut self.state,
            SlotState::Ended {
                end,
                served,
                algorithm,
                generation,
                ring,
            },
        );
        match prev {
            SlotState::Active(a) => a,
            SlotState::Ended { .. } => unreachable!(),
        }
    }
}

/// One registry slot. The cancellation token lives *outside* the slot
/// mutex so a cancel (or close) can trip it while a page pull is in
/// flight — the pull observes it between answers and stops within one
/// any-k delay.
struct SessionSlot {
    cancel: anyk_engine::CancellationToken,
    inner: Mutex<Slot>,
}

type SessionShard = RwLock<HashMap<u64, Arc<SessionSlot>>>;

/// A long-lived query service over one shared, read-mostly [`Database`]
/// snapshot. See the [crate docs](crate) for the full model and an example.
///
/// All methods take `&self`: wrap the service in an `Arc` (or hand out
/// `&QueryService` borrows) and drive it from as many threads as needed.
/// Per-session state is behind a per-session mutex, so concurrent pulls on
/// *different* sessions run in parallel while concurrent pulls on the *same*
/// session serialise (each page is still an atomic, contiguous chunk of the
/// session's ranked stream).
pub struct QueryService {
    /// The snapshot serving *new* sessions. Swapped wholesale by
    /// [`QueryService::ingest`]/[`QueryService::rotate`]; readers clone the
    /// `Arc` and release the lock immediately, so rotation never blocks
    /// behind a long-running request.
    current: RwLock<Arc<Snapshot>>,
    /// Serialises rotation and ingestion: generations advance one at a
    /// time, and plan migration for generation *g* finishes before *g + 1*
    /// can begin.
    rotation: Mutex<()>,
    plans: RwLock<HashMap<PlanKey, PlanEntry>>,
    /// Single-flight guards for plan compilation: one mutex per key being
    /// compiled right now. A stampede of requests for the same new plan
    /// elects one compiler; the rest block on its flight mutex and then
    /// find the plan in the cache — the compile runs once, not N times.
    plan_flights: PlanFlights,
    plan_cache_capacity: usize,
    plan_clock: AtomicU64,
    session_shards: Vec<SessionShard>,
    next_session: AtomicU64,
    governor: Arc<Governor>,
    clock: Arc<dyn Clock>,
    /// Per-plan TTF/delay/page-latency distributions, keyed by canonical
    /// plan key (the same key the plan cache uses, generation stripped).
    plan_obs: PlanRegistry,
    /// Service-wide page latency distribution across all plans.
    page_hist: LatencyHistogram,
    session_event_capacity: usize,
}

/// A poisoned lock only means a panic elsewhere; the maps/sessions are
/// always structurally consistent. (Page-pull panics are additionally
/// caught *inside* the slot mutex, so in practice these locks never poison
/// — this is belt and braces.)
macro_rules! lock {
    ($e:expr) => {
        $e.unwrap_or_else(|poisoned| poisoned.into_inner())
    };
}

/// The single-flight registry: one mutex per plan key being compiled.
type PlanFlights = Mutex<HashMap<PlanKey, Arc<Mutex<()>>>>;

/// One thread's place in the single-flight registry for one plan key: the
/// flight it joined, or opened when none was registered. Dropping the ticket
/// retires that flight on every exit path, the re-check hit included, but
/// only while the registry still holds *this* flight: a newer one, opened by
/// another thread after this flight was retired (say, after a failed
/// compile), stays for the threads that wait on it.
struct FlightTicket<'a> {
    flights: &'a PlanFlights,
    key: &'a PlanKey,
    flight: Arc<Mutex<()>>,
}

impl<'a> FlightTicket<'a> {
    fn join(flights: &'a PlanFlights, key: &'a PlanKey) -> Self {
        let flight = Arc::clone(lock!(flights.lock()).entry(key.clone()).or_default());
        FlightTicket {
            flights,
            key,
            flight,
        }
    }
}

impl Drop for FlightTicket<'_> {
    fn drop(&mut self) {
        let mut flights = lock!(self.flights.lock());
        if flights
            .get(self.key)
            .is_some_and(|f| Arc::ptr_eq(f, &self.flight))
        {
            flights.remove(self.key);
        }
    }
}

/// Run `f` with panics converted to [`ServiceError::Panicked`] — the
/// containment boundary that keeps one request's panic from killing the
/// process or poisoning shared state.
fn catch_panic<R>(context: &str, f: impl FnOnce() -> R) -> Result<R, ServiceError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        ServiceError::Panicked {
            context: format!("{context}: {msg}"),
        }
    })
}

impl QueryService {
    /// Build a service owning `db`, with default [`ServiceConfig`].
    pub fn new(db: Database) -> Self {
        Self::with_config(db, ServiceConfig::default())
    }

    /// Build a service owning `db` with explicit options.
    pub fn with_config(mut db: Database, mut config: ServiceConfig) -> Self {
        if let Some(cap) = config.index_cache_capacity.take() {
            db.set_index_cache_capacity(cap);
        }
        Self::over(Arc::new(db), config)
    }

    /// Build a service over an already-shared snapshot (e.g. several
    /// services over one database).
    ///
    /// The snapshot is **sealed** here: once a database is served, any
    /// remaining mutable handle that tries [`Database::add`] panics instead
    /// of swapping a relation under live sessions. New data enters through
    /// [`QueryService::ingest`] (delta batches) or [`QueryService::rotate`]
    /// (wholesale replacement), both of which install a *new* sealed
    /// generation and leave this one untouched.
    ///
    /// # Panics
    /// Panics if `config.index_cache_capacity` is set: a shared snapshot's
    /// cache cannot be re-bounded, and silently dropping a configured
    /// memory bound would be worse than refusing it. Bound the cache before
    /// sharing (via [`Database::set_index_cache_capacity`] or
    /// [`QueryService::with_config`]).
    pub fn over(db: Arc<Database>, config: ServiceConfig) -> Self {
        assert!(
            config.index_cache_capacity.is_none(),
            "index_cache_capacity cannot be applied to an already-shared \
             database; call Database::set_index_cache_capacity before \
             wrapping it in an Arc (or use QueryService::with_config)"
        );
        let shards = config.session_shards.max(1);
        let governor = Arc::new(Governor::new(config.governor));
        db.seal();
        let current = Snapshot::install(db, &governor);
        QueryService {
            current: RwLock::new(current),
            rotation: Mutex::new(()),
            plans: RwLock::new(HashMap::new()),
            plan_flights: Mutex::new(HashMap::new()),
            plan_cache_capacity: config.plan_cache_capacity.max(1),
            plan_clock: AtomicU64::new(0),
            session_shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            next_session: AtomicU64::new(0),
            governor,
            clock: config
                .clock
                .unwrap_or_else(|| Arc::new(MonotonicClock::new())),
            plan_obs: PlanRegistry::new(),
            page_hist: LatencyHistogram::new(),
            session_event_capacity: config.session_event_capacity,
        }
    }

    /// The database snapshot currently serving new sessions (sealed;
    /// rotation installs a new snapshot rather than mutating this one).
    pub fn database(&self) -> Arc<Database> {
        Arc::clone(&self.current_snapshot().db)
    }

    /// The generation id of the snapshot currently serving new sessions.
    pub fn current_generation(&self) -> u64 {
        self.current_snapshot().generation
    }

    fn current_snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&lock!(self.current.read()))
    }

    /// Compile `query` under `ranking`, or return the memoised plan if an
    /// equivalent query was prepared before. See
    /// [`QueryService::prepare_spec`], which this delegates to — struct and
    /// text requests share one cache, keyed by canonical spec text.
    pub fn prepare(
        &self,
        query: &ConjunctiveQuery,
        ranking: RankingFunction,
    ) -> Result<Arc<PreparedQuery>, ServiceError> {
        self.prepare_spec(&QuerySpec::from_query(query, ranking))
    }

    /// Parse `text` in the query language and compile it (or return the
    /// memoised plan); see [`QueryService::prepare_spec`].
    pub fn prepare_text(&self, text: &str) -> Result<Arc<PreparedQuery>, ServiceError> {
        self.prepare_spec(&QuerySpec::parse(text)?)
    }

    /// Cache lookup half of [`QueryService::prepare_spec`]: bump the LRU
    /// stamp and the hit counter iff `key` is resident.
    fn cached_plan(&self, key: &PlanKey) -> Option<Arc<PreparedQuery>> {
        let plans = lock!(self.plans.read());
        let entry = plans.get(key)?;
        entry.last_used.store(
            self.plan_clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        self.governor.with(|s| s.plan_hits += 1);
        Some(Arc::clone(&entry.plan))
    }

    /// Compile `spec` — selection predicates pushed down to row lists over
    /// the snapshot's base relations, the plan rooted at the atom with the
    /// fewest rows — or return the memoised plan if a request with the
    /// same [`QuerySpec::plan_key`] was prepared before over the *current
    /// generation* (the spec's `algorithm` and `limit` are per-session
    /// attributes and do not fragment the cache; the generation half of the
    /// key means a rotated snapshot can never serve a stale plan).
    /// Compilation runs *outside* the plan-cache lock, so preparing
    /// distinct queries proceeds in parallel; a stampede on the *same* key
    /// is single-flighted — one thread compiles (one cache miss), the rest
    /// wait on its flight lock and take the cached plan (a hit each). The
    /// cache is LRU-bounded ([`ServiceConfig::plan_cache_capacity`]); an
    /// evicted plan stays alive for the sessions already holding it and is
    /// simply recompiled if the query comes back. A panic during
    /// compilation (e.g. an injected fault) is contained: it surfaces as
    /// [`ServiceError::Panicked`], nothing is cached, and waiting threads
    /// retry the compile themselves.
    pub fn prepare_spec(&self, spec: &QuerySpec) -> Result<Arc<PreparedQuery>, ServiceError> {
        let snap = self.current_snapshot();
        let key = (snap.generation, spec.plan_key());
        self.prepare_on(&snap, spec, &key)
    }

    /// [`QueryService::prepare_spec`] against an explicit snapshot — the
    /// open path captures the snapshot once so the plan, the session's pin,
    /// and the cache key all agree on the generation even if a rotation
    /// lands mid-open. `key` is `(snap.generation, spec.plan_key())`,
    /// computed once by the caller (who also needs its text for the
    /// session's observation block).
    fn prepare_on(
        &self,
        snap: &Arc<Snapshot>,
        spec: &QuerySpec,
        key: &PlanKey,
    ) -> Result<Arc<PreparedQuery>, ServiceError> {
        if let Some(plan) = self.cached_plan(key) {
            return Ok(plan);
        }
        self.compile_in_flight(snap, spec, key)
    }

    /// The cache-miss half of [`QueryService::prepare_on`]: join `key`'s
    /// flight (opening one if none is registered), and under its lock
    /// compile unless the plan was cached meanwhile. The flight leaves the
    /// registry when this returns, by whichever path (see [`FlightTicket`]).
    fn compile_in_flight(
        &self,
        snap: &Arc<Snapshot>,
        spec: &QuerySpec,
        key: &PlanKey,
    ) -> Result<Arc<PreparedQuery>, ServiceError> {
        let ticket = FlightTicket::join(&self.plan_flights, key);
        let _compiling = lock!(ticket.flight.lock());
        // Re-check under the flight lock: if another thread won the race,
        // its plan is in the cache by the time its flight lock releases —
        // and a racer that missed the cache before the winner cached it may
        // have opened a fresh flight of its own here, which its ticket
        // retires.
        if let Some(plan) = self.cached_plan(key) {
            return Ok(plan);
        }
        self.governor.with(|s| s.plan_misses += 1);
        // Compile with delta support so ingestion can carry the plan to the
        // next generation by patching its dirty cone instead of recompiling.
        let stripped = spec.without_execution_attrs();
        let compiled = catch_panic("plan preparation", || {
            PreparedQuery::from_spec_delta(Arc::clone(&snap.db), &stripped)
        })
        .and_then(|r| r.map_err(ServiceError::from));
        // A failed flight is retired by the ticket too, so late arrivals
        // retry the compile themselves instead of waiting on a dead lock.
        let prepared = Arc::new(compiled?);
        let out;
        {
            let mut plans = lock!(self.plans.write());
            let tick = self.plan_clock.fetch_add(1, Ordering::Relaxed) + 1;
            let entry = plans.entry(key.clone()).or_insert_with(|| PlanEntry {
                plan: prepared,
                spec: stripped,
                last_used: AtomicU64::new(0),
            });
            *entry.last_used.get_mut() = tick;
            out = Arc::clone(&entry.plan);
            while plans.len() > self.plan_cache_capacity {
                let victim = plans
                    .iter()
                    .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                    .map(|(k, _)| k.clone())
                    .expect("non-empty plan cache");
                plans.remove(&victim);
                self.governor.with(|s| s.plan_evictions += 1);
            }
            // The per-plan observation registry is bounded like the cache:
            // a miss that finds it full first retires every block whose key
            // the cache has since evicted or dropped. Sessions still
            // streaming such a plan keep recording into their own `Arc`;
            // the block only leaves the scrape.
            if self.plan_obs.len() >= self.plan_cache_capacity {
                let cached: HashSet<&str> = plans.keys().map(|(_, k)| k.as_str()).collect();
                self.plan_obs.retain(|k| cached.contains(k));
            }
        }
        // The ticket retires the flight on return, only now that the plan is
        // visible in the cache: a late arrival either joins this flight (and
        // re-checks the cache once the lock releases) or misses the flight
        // map entirely and finds the cached plan directly.
        Ok(out)
    }

    /// Apply `batch` to the current snapshot and serve the result as the
    /// next generation. Returns the new generation id.
    ///
    /// The old snapshot is untouched: sessions pinned to it keep streaming
    /// bit-identical ranked answers to the end, and its residency is
    /// released when the last pinned session ends. Cached plans are carried
    /// forward — delta-refreshable plans are patched (the bottom-up DP
    /// re-sweeps only the dirty cone of the edits, a small fraction of full
    /// compile + preprocessing), the rest (selection-pushdown, cycles) are
    /// recompiled over the new snapshot. Either way the migrated plan is
    /// equivalent to a from-scratch rebuild: every ranked stream drawn from
    /// it is bit-identical to one compiled fresh over the new data.
    ///
    /// A rejected batch ([`ServiceError::Delta`]: unknown relation, arity
    /// mismatch, delete out of range) changes nothing — validation runs
    /// before any snapshot work.
    pub fn ingest(&self, batch: &DeltaBatch) -> Result<u64, ServiceError> {
        catch_panic("delta ingestion", || {
            let _rotating = lock!(self.rotation.lock());
            let _span = anyk_obs::phase::span(anyk_obs::Phase::Rotation);
            let old = self.current_snapshot();
            let new_db = old.db.apply_delta(batch)?;
            new_db.seal();
            let new_db = Arc::new(new_db);
            let generation = new_db.generation();
            self.migrate_plans(old.generation, &new_db, generation, batch);
            let snapshot = Snapshot::install(Arc::clone(&new_db), &self.governor);
            self.governor.with(|s| s.deltas_ingested += 1);
            *lock!(self.current.write()) = snapshot;
            Ok(generation)
        })?
    }

    /// Replace the served database wholesale with `db`, the next
    /// generation (sealed here; its generation id is assigned by the
    /// service). Existing sessions keep streaming their pinned generation;
    /// new sessions see only `db`. Unlike [`QueryService::ingest`], cached
    /// plans cannot be carried — the new data bears no known relationship
    /// to the old — so the plan cache starts cold. Returns the new
    /// generation id.
    pub fn rotate(&self, mut db: Database) -> u64 {
        let _rotating = lock!(self.rotation.lock());
        let _span = anyk_obs::phase::span(anyk_obs::Phase::Rotation);
        let old = self.current_snapshot();
        let generation = old.generation + 1;
        db.set_generation(generation);
        db.seal();
        lock!(self.plans.write()).clear();
        let snapshot = Snapshot::install(Arc::new(db), &self.governor);
        self.governor.with(|s| s.generations_rotated += 1);
        *lock!(self.current.write()) = snapshot;
        generation
    }

    /// Carry the plan cache across an ingestion, re-keying every entry from
    /// `old_generation` to `generation`. Refresh where the plan supports
    /// it, recompile where it does not; a plan that fails either way (or a
    /// stale entry from an even older generation, unreachable by lookups)
    /// is dropped and simply recompiled on demand if its query returns.
    fn migrate_plans(
        &self,
        old_generation: u64,
        new_db: &Arc<Database>,
        generation: u64,
        batch: &DeltaBatch,
    ) {
        let entries: Vec<(PlanKey, PlanEntry)> = lock!(self.plans.write()).drain().collect();
        let mut migrated = Vec::with_capacity(entries.len());
        for ((entry_generation, key), entry) in entries {
            if entry_generation != old_generation {
                continue;
            }
            let refreshed = if entry.plan.supports_refresh() {
                catch_panic("plan refresh", || {
                    entry.plan.refresh(Arc::clone(new_db), batch)
                })
                .ok()
                .and_then(Result::ok)
            } else {
                None
            };
            let plan = match refreshed {
                Some(p) => {
                    self.governor.with(|s| s.plans_refreshed += 1);
                    p
                }
                None => {
                    let recompiled = catch_panic("plan recompile", || {
                        PreparedQuery::from_spec_delta(Arc::clone(new_db), &entry.spec)
                    });
                    match recompiled {
                        Ok(Ok(p)) => {
                            self.governor.with(|s| s.plans_recompiled += 1);
                            p
                        }
                        _ => continue,
                    }
                }
            };
            migrated.push((
                (generation, key),
                PlanEntry {
                    plan: Arc::new(plan),
                    spec: entry.spec,
                    last_used: entry.last_used,
                },
            ));
        }
        lock!(self.plans.write()).extend(migrated);
    }

    /// Open a session over `query` with the default ranking
    /// ([`RankingFunction::SumAscending`]).
    pub fn open_session(
        &self,
        query: &ConjunctiveQuery,
        algorithm: AnyKAlgorithm,
    ) -> Result<SessionId, ServiceError> {
        self.open_session_with(query, RankingFunction::SumAscending, algorithm)
    }

    /// Open a session over `query` under an explicit ranking.
    pub fn open_session_with(
        &self,
        query: &ConjunctiveQuery,
        ranking: RankingFunction,
        algorithm: AnyKAlgorithm,
    ) -> Result<SessionId, ServiceError> {
        let mut spec = QuerySpec::from_query(query, ranking);
        spec.algorithm = Some(algorithm);
        self.open_session_spec(&spec)
    }

    /// Open a session straight from query-language text — the one entry
    /// point from a string to ranked pages:
    ///
    /// ```text
    /// Q(x, z) :- R(x, y), S(y, z), y = 7 rank by sum limit 1000
    /// ```
    ///
    /// The plan comes from the shared cache (keyed by canonical spec text,
    /// so alpha-renamed variants and struct-built equivalents all hit the
    /// same entry); the spec's `via` algorithm (default
    /// [`DEFAULT_ALGORITHM`]) and `limit` apply to this session only.
    pub fn open_session_text(&self, text: &str) -> Result<SessionId, ServiceError> {
        self.open_session_spec(&QuerySpec::parse(text)?)
    }

    /// Open a session over an already-parsed [`QuerySpec`]; see
    /// [`QueryService::open_session_text`].
    pub fn open_session_spec(&self, spec: &QuerySpec) -> Result<SessionId, ServiceError> {
        catch_panic("session open", || {
            self.admit_open()?;
            let snap = self.current_snapshot();
            let key = (snap.generation, spec.plan_key());
            let prepared = self.prepare_on(&snap, spec, &key)?;
            let algorithm = spec.algorithm.unwrap_or(DEFAULT_ALGORITHM);
            self.install_session(snap, &prepared, algorithm, spec.limit, &key.1)
        })?
    }

    /// Open a session over an explicitly prepared plan (e.g. one prepared
    /// ahead of a traffic spike, or obtained from [`QueryService::prepare`]).
    /// Subject to admission control like every other open. The session is
    /// accounted against the *current* generation; the plan itself keeps
    /// whatever snapshot it was compiled over alive regardless.
    pub fn open_prepared(
        &self,
        prepared: &Arc<PreparedQuery>,
        algorithm: AnyKAlgorithm,
    ) -> Result<SessionId, ServiceError> {
        catch_panic("session open", || {
            self.admit_open()?;
            // The ahead-of-time path skipped the spec; rebuild the canonical
            // key so its sessions share a distribution with text/struct
            // opens of the same query.
            let key = QuerySpec::from_query(prepared.query(), prepared.ranking()).plan_key();
            self.install_session(self.current_snapshot(), prepared, algorithm, None, &key)
        })?
    }

    /// The cheap front half of every open: failpoint, opportunistic reap of
    /// expired sessions (so their slots free up *before* the cap check),
    /// then the session-count cap — all before any compilation work.
    fn admit_open(&self) -> Result<(), ServiceError> {
        anyk_core::faults::check("server.open")?;
        self.sweep_expired();
        self.governor.admit_session_slot()
    }

    fn install_session(
        &self,
        snapshot: Arc<Snapshot>,
        prepared: &Arc<PreparedQuery>,
        algorithm: AnyKAlgorithm,
        limit: Option<usize>,
        plan_key: &str,
    ) -> Result<SessionId, ServiceError> {
        let mut cursor = catch_panic("cursor construction", || {
            prepared.cursor_with_limit(algorithm, limit)
        })?;
        let units = self.charge_for(&cursor);
        // Cap + budget re-checked and gauges bumped in one critical
        // section; a shed here drops the cursor before it served anything.
        self.governor.commit_session(units)?;
        let now = self.clock.now_nanos();
        let obs = self.plan_obs.handle(plan_key);
        // Re-arm the cursor's delay recorder on the *service's* clock and
        // plan sink (its default recorder measures against a private
        // monotonic clock and flushes nowhere).
        cursor.enable_recording(Arc::clone(&self.clock), Some(Arc::clone(&obs)));
        let mut ring = EventRing::new(self.session_event_capacity);
        ring.record(now, EventKind::Open, units);
        let id = SessionId(self.next_session.fetch_add(1, Ordering::Relaxed) + 1);
        let slot = Arc::new(SessionSlot {
            cancel: cursor.cancel_token().clone(),
            inner: Mutex::new(Slot {
                state: SlotState::Active(ActiveSession {
                    cursor,
                    snapshot,
                    charged_units: units,
                    opened_nanos: now,
                    last_used_nanos: now,
                    ring,
                    obs,
                }),
            }),
        });
        lock!(self.shard_of(id).write()).insert(id.0, slot);
        Ok(id)
    }

    /// MEM(k) units to charge for `cursor`'s current footprint: the live
    /// count of entries in its enumeration structures, or the configured
    /// flat rate for algorithms that cannot report one (Recursive, Batch).
    fn charge_for(&self, cursor: &AnswerCursor) -> u64 {
        cursor
            .memory_stats()
            .map(|m| m.resident_units())
            .unwrap_or(self.governor.config.untracked_session_units)
    }

    fn shard_of(&self, id: SessionId) -> &SessionShard {
        let mut h = DefaultHasher::new();
        id.0.hash(&mut h);
        &self.session_shards[(h.finish() as usize) % self.session_shards.len()]
    }

    fn session(&self, id: SessionId) -> Result<Arc<SessionSlot>, ServiceError> {
        lock!(self.shard_of(id).read())
            .get(&id.0)
            .cloned()
            .ok_or(ServiceError::UnknownSession(id))
    }

    fn past_deadline(&self, session: &ActiveSession, now: u64) -> bool {
        let cfg = &self.governor.config;
        let over = |since: u64, dl: std::time::Duration| {
            now.saturating_sub(since) >= u64::try_from(dl.as_nanos()).unwrap_or(u64::MAX)
        };
        cfg.session_ttl
            .is_some_and(|ttl| over(session.opened_nanos, ttl))
            || cfg
                .idle_timeout
                .is_some_and(|idle| over(session.last_used_nanos, idle))
    }

    /// Pull the next page of up to `page_size` ranked answers from session
    /// `id`, resuming exactly where the previous page stopped.
    pub fn next_page(&self, id: SessionId, page_size: usize) -> Result<Page, ServiceError> {
        let mut answers = Vec::new();
        let done = self.next_page_into(id, page_size, &mut answers)?;
        Ok(Page { answers, done })
    }

    /// Like [`QueryService::next_page`], but fills a caller-provided buffer
    /// (cleared first) so steady-state clients pay no per-page allocation.
    /// Returns `true` when the session's stream is exhausted.
    ///
    /// This is the governed hot path:
    /// * sheds with [`ServiceError::Overloaded`] when the in-flight page
    ///   cap is reached or the resident MEM(k) total is at or over the
    ///   memory budget (the permit is RAII, so it cannot leak); a shed pull
    ///   leaves the session as it was;
    /// * enforces the session's TTL/idle deadline before doing work;
    /// * observes cooperative cancellation between answers — a cancelled
    ///   pull returns its partial page with `done = true`, and later calls
    ///   get [`ServiceError::SessionCancelled`];
    /// * catches panics from the cursor: the session is poisoned (state
    ///   dropped, memory released, later calls get
    ///   [`ServiceError::SessionPoisoned`]) while every other session — and
    ///   the registry locks — stay healthy.
    pub fn next_page_into(
        &self,
        id: SessionId,
        page_size: usize,
        out: &mut Vec<Answer>,
    ) -> Result<bool, ServiceError> {
        // The outer catch contains panics raised *outside* the cursor (e.g.
        // a panic-action fault at `server.page`, which fires before any
        // session state is touched); cursor panics are caught further in,
        // where the session can still be poisoned.
        catch_panic("page request", || {
            self.governed_page_into(id, page_size, out)
        })?
    }

    fn governed_page_into(
        &self,
        id: SessionId,
        page_size: usize,
        out: &mut Vec<Answer>,
    ) -> Result<bool, ServiceError> {
        anyk_core::faults::check("server.page")?;
        let _permit = match self.governor.acquire_page() {
            Ok(permit) => permit,
            Err(err) => {
                self.note_shed_page(id);
                return Err(err);
            }
        };
        let slot = self.session(id)?;
        let mut guard = lock!(slot.inner.lock());
        if let SlotState::Ended { end, .. } = &guard.state {
            return Err(end.error(id));
        }
        let now = self.clock.now_nanos();
        let expired = matches!(&guard.state, SlotState::Active(a) if self.past_deadline(a, now));
        if expired {
            let active = guard.end(SessionEnd::Expired, now);
            self.governor
                .release_session(active.charged_units, SessionOutcome::Expired);
            return Err(ServiceError::SessionExpired(id));
        }
        let SlotState::Active(active) = &mut guard.state else {
            unreachable!("ended slots returned above")
        };
        let old_units = active.charged_units;
        let pull = catch_panic("page pull", || active.cursor.next_page_into(page_size, out));
        match pull {
            Err(err) => {
                // The cursor may have been left mid-panic in an arbitrary
                // state; poison the session and drop it. The catch happened
                // *inside* the slot mutex, so no lock is poisoned and no
                // other session noticed.
                out.clear();
                let active = guard.end(SessionEnd::Poisoned, self.clock.now_nanos());
                self.governor
                    .release_session(old_units, SessionOutcome::Poisoned);
                drop(active);
                Err(err)
            }
            Ok(done) => {
                let served_at = self.observe_page(active, now, out.len());
                if active.cursor.is_cancelled() {
                    // The token tripped mid-pull: serve the partial page
                    // (its answers are valid and in order), then retire the
                    // session.
                    self.governor.record_page(out.len());
                    let active = guard.end(SessionEnd::Cancelled, served_at);
                    self.governor
                        .release_session(old_units, SessionOutcome::Cancelled);
                    drop(active);
                    return Ok(true);
                }
                let new_units = self.charge_for(&active.cursor);
                active.charged_units = new_units;
                active.last_used_nanos = now;
                self.governor.recharge(old_units, new_units);
                self.governor.record_page(out.len());
                Ok(done)
            }
        }
    }

    /// Record one completed page pull into the session's event ring and —
    /// when recording is on — the service-wide and per-plan page-latency
    /// histograms. Returns the completion timestamp so callers can reuse
    /// the reading.
    fn observe_page(&self, active: &mut ActiveSession, started_nanos: u64, answers: usize) -> u64 {
        let finished = self.clock.now_nanos();
        active
            .ring
            .record(finished, EventKind::Page, answers as u64);
        if anyk_obs::recording_enabled() {
            let elapsed = finished.saturating_sub(started_nanos);
            self.page_hist.record(elapsed);
            active.obs.page.record(elapsed);
        }
        finished
    }

    /// A page pull was shed by the in-flight cap or the memory budget: leave
    /// a breadcrumb in the session's ring (best effort — skipped if the slot
    /// is busy, since a shed must never queue behind the very pull that
    /// crowded it out).
    fn note_shed_page(&self, id: SessionId) {
        let Ok(slot) = self.session(id) else { return };
        let mut guard = match slot.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return,
        };
        if let SlotState::Active(a) = &mut guard.state {
            a.ring.record(self.clock.now_nanos(), EventKind::Shed, 0);
        }
    }

    /// Cancel session `id`: trip its cancellation token (an in-flight page
    /// pull stops within one answer's delay), drop its enumeration state,
    /// and release its memory charge. Idempotent; later pulls return
    /// [`ServiceError::SessionCancelled`]. Returns an error only for
    /// unknown ids or sessions that already ended another way.
    pub fn cancel_session(&self, id: SessionId) -> Result<(), ServiceError> {
        let slot = self.session(id)?;
        // Trip the token *before* taking the slot lock: an in-flight pull
        // holds the lock, observes the flag between answers, and retires
        // the session itself — at which point our lock acquisition below
        // succeeds and sees the tombstone.
        slot.cancel.cancel();
        let mut guard = lock!(slot.inner.lock());
        match &guard.state {
            SlotState::Active(_) => {
                let active = guard.end(SessionEnd::Cancelled, self.clock.now_nanos());
                self.governor
                    .release_session(active.charged_units, SessionOutcome::Cancelled);
                Ok(())
            }
            SlotState::Ended {
                end: SessionEnd::Cancelled,
                ..
            } => Ok(()),
            SlotState::Ended { end, .. } => Err(end.error(id)),
        }
    }

    /// End every active session whose TTL or idle deadline has passed
    /// (per [`GovernorConfig`]); returns how many were reaped. Runs
    /// opportunistically on every open, so an explicit call is only needed
    /// on an otherwise-quiet service. Sessions with a page pull in flight
    /// are skipped (`try_lock`) — they re-check their own deadline on the
    /// next pull anyway.
    pub fn sweep_expired(&self) -> usize {
        let cfg = &self.governor.config;
        if cfg.session_ttl.is_none() && cfg.idle_timeout.is_none() {
            return 0;
        }
        let now = self.clock.now_nanos();
        let mut reaped = 0;
        for shard in &self.session_shards {
            let slots: Vec<Arc<SessionSlot>> = lock!(shard.read()).values().cloned().collect();
            for slot in slots {
                let mut guard = match slot.inner.try_lock() {
                    Ok(g) => g,
                    Err(TryLockError::Poisoned(p)) => p.into_inner(),
                    Err(TryLockError::WouldBlock) => continue,
                };
                if matches!(&guard.state, SlotState::Active(a) if self.past_deadline(a, now)) {
                    slot.cancel.cancel();
                    let active = guard.end(SessionEnd::Expired, now);
                    self.governor
                        .release_session(active.charged_units, SessionOutcome::Expired);
                    reaped += 1;
                }
            }
        }
        reaped
    }

    /// Progress of session `id` (answers served, exhaustion, algorithm,
    /// lifecycle state). Works on ended sessions too — their tombstone
    /// remembers what a status call needs.
    pub fn session_status(&self, id: SessionId) -> Result<SessionStatus, ServiceError> {
        let slot = self.session(id)?;
        let guard = lock!(slot.inner.lock());
        Ok(match &guard.state {
            SlotState::Active(a) => SessionStatus {
                served: a.cursor.served(),
                done: a.cursor.is_done(),
                algorithm: a.cursor.algorithm(),
                state: if a.cursor.is_done() {
                    SessionState::Drained
                } else {
                    SessionState::Active
                },
                generation: a.snapshot.generation,
            },
            SlotState::Ended {
                end,
                served,
                algorithm,
                generation,
                ..
            } => SessionStatus {
                served: *served,
                done: true,
                algorithm: *algorithm,
                state: end.state(),
                generation: *generation,
            },
        })
    }

    /// The decoder for session `id`'s answers (original strings for
    /// dictionary-encoded columns); see
    /// [`AnswerDecoder`](anyk_engine::AnswerDecoder). Ended sessions have
    /// dropped their plan handle, so this returns their typed end error.
    pub fn decoder(&self, id: SessionId) -> Result<AnswerDecoder, ServiceError> {
        let slot = self.session(id)?;
        let guard = lock!(slot.inner.lock());
        match &guard.state {
            SlotState::Active(a) => Ok(a.cursor.prepared().decoder()),
            SlotState::Ended { end, .. } => Err(end.error(id)),
        }
    }

    /// Close session `id`, dropping its enumeration state (if any remains)
    /// and its registry slot. Returns `false` if the session was unknown
    /// (or already closed). Closing is the only way a slot leaves the
    /// registry: expired/cancelled/poisoned sessions keep a tiny tombstone
    /// so clients get a typed error instead of `UnknownSession`, and the
    /// tombstone is reclaimed here.
    pub fn close_session(&self, id: SessionId) -> bool {
        let removed = lock!(self.shard_of(id).write()).remove(&id.0);
        let Some(slot) = removed else {
            return false;
        };
        // Stop any in-flight pull promptly, then wait for it to release
        // the slot (cooperative cancellation bounds the wait to one
        // answer's delay).
        slot.cancel.cancel();
        let mut guard = lock!(slot.inner.lock());
        if matches!(guard.state, SlotState::Active(_)) {
            let active = guard.end(SessionEnd::Cancelled, self.clock.now_nanos());
            self.governor
                .release_session(active.charged_units, SessionOutcome::Closed);
        }
        true
    }

    /// Number of currently active sessions (a gauge; tombstones of ended
    /// but not yet closed sessions are not counted).
    pub fn session_count(&self) -> usize {
        self.governor.with(|s| s.active_sessions)
    }

    /// Number of registry slots, active **and** tombstoned — what a leak
    /// check should assert drains to zero after closing every id.
    pub fn tracked_sessions(&self) -> usize {
        self.session_shards
            .iter()
            .map(|s| lock!(s.read()).len())
            .sum()
    }

    /// Number of distinct prepared plans currently memoised.
    pub fn prepared_count(&self) -> usize {
        lock!(self.plans.read()).len()
    }

    /// Atomic snapshot of every counter and gauge (one critical section;
    /// see [`ServiceMetrics`]).
    pub fn metrics(&self) -> ServiceMetrics {
        let s = self.governor.snapshot();
        ServiceMetrics {
            sessions_opened: s.sessions_opened,
            sessions_closed: s.sessions_closed,
            sessions_shed: s.sessions_shed,
            sessions_expired: s.sessions_expired,
            sessions_cancelled: s.sessions_cancelled,
            sessions_poisoned: s.sessions_poisoned,
            pages_served: s.pages_served,
            answers_served: s.answers_served,
            plan_hits: s.plan_hits,
            plan_misses: s.plan_misses,
            plan_evictions: s.plan_evictions,
            active_sessions: s.active_sessions as u64,
            pages_in_flight: s.pages_in_flight as u64,
            mem_resident_units: s.mem_resident_units,
            peak_mem_resident_units: s.peak_mem_resident_units,
            connections_accepted: s.connections_accepted,
            connections_shed_at_accept: s.connections_shed_at_accept,
            net_read_timeouts: s.net_read_timeouts,
            net_write_timeouts: s.net_write_timeouts,
            connections_drained_on_shutdown: s.connections_drained_on_shutdown,
            current_generation: s.current_generation,
            active_generations: s.active_generations as u64,
            snapshot_resident_units: s.snapshot_resident_units,
            snapshots_retired: s.snapshots_retired,
            generations_rotated: s.generations_rotated,
            deltas_ingested: s.deltas_ingested,
            plans_refreshed: s.plans_refreshed,
            plans_recompiled: s.plans_recompiled,
        }
    }

    /// Hit/miss/eviction counters of the current snapshot's index cache.
    pub fn index_cache_stats(&self) -> IndexCacheStats {
        self.current_snapshot().db.index_cache_stats()
    }

    /// Everything the stats endpoint reports, in one pass: the atomic
    /// [`ServiceMetrics`] snapshot, the process-wide phase timings, the
    /// service-wide page-latency summary, and the per-plan TTF / delay /
    /// page distributions (sorted by plan key). The reported `generation`
    /// comes from the same governor critical section as the counters, so a
    /// concurrent rotation can never produce a snapshot whose counters and
    /// generation disagree.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let metrics = self.metrics();
        StatsSnapshot {
            version: STATS_VERSION,
            generation: metrics.current_generation,
            metrics,
            phases: anyk_obs::phase::snapshot_phases(),
            page_latency: self.page_hist.summary(),
            plans: self.plan_obs.summaries(),
        }
    }

    /// The retained lifecycle events of session `id`, oldest first — open,
    /// page pulls (detail: answers returned), shed pulls, and how the
    /// session ended. Works on ended-but-not-closed sessions too: the ring
    /// migrates into the tombstone. Capacity is
    /// [`ServiceConfig::session_event_capacity`]; closing the session
    /// discards the trace with the slot.
    pub fn session_trace(&self, id: SessionId) -> Result<Vec<Event>, ServiceError> {
        let slot = self.session(id)?;
        let guard = lock!(slot.inner.lock());
        Ok(match &guard.state {
            SlotState::Active(a) => a.ring.events(),
            SlotState::Ended { ring, .. } => ring.events(),
        })
    }

    /// The governor, for sibling modules (the TCP transport records its
    /// connection counters in the same atomic-snapshot state block).
    pub(crate) fn governor(&self) -> &Governor {
        &self.governor
    }

    /// The service's time source (shared with the transport so frame
    /// deadlines and session deadlines tick on the same clock).
    pub(crate) fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("sessions", &self.session_count())
            .field("prepared_plans", &self.prepared_count())
            .field("metrics", &self.metrics())
            .finish()
    }
}

// The whole service is shareable across threads by construction; keep that
// guarantee compile-time checked.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryService>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::OverloadReason;
    use anyk_obs::ManualClock;
    use anyk_query::QueryBuilder;
    use anyk_storage::Relation;
    use std::time::Duration;

    fn path_db() -> Database {
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

    fn service_with(governor: GovernorConfig, clock: Arc<dyn Clock>) -> QueryService {
        QueryService::with_config(
            path_db(),
            ServiceConfig {
                governor,
                clock: Some(clock),
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn sessions_page_independently_and_deterministically() {
        let service = QueryService::new(path_db());
        let query = QueryBuilder::path(2).build();
        let one_shot: Vec<Answer> = service
            .prepare(&query, RankingFunction::SumAscending)
            .unwrap()
            .enumerate(AnyKAlgorithm::Take2)
            .collect();

        let a = service.open_session(&query, AnyKAlgorithm::Take2).unwrap();
        let b = service.open_session(&query, AnyKAlgorithm::Take2).unwrap();
        // Interleave pulls with different page sizes.
        let mut got_a = service.next_page(a, 1).unwrap().answers;
        let mut got_b = service.next_page(b, 2).unwrap().answers;
        got_a.extend(service.next_page(a, 10).unwrap().answers);
        got_b.extend(service.next_page(b, 10).unwrap().answers);
        assert_eq!(got_a, one_shot);
        assert_eq!(got_b, one_shot);
        assert_eq!(service.metrics().plan_misses, 1, "compiled exactly once");
        assert_eq!(service.metrics().plan_hits, 2);
    }

    #[test]
    fn a_plan_stampede_compiles_exactly_once() {
        let service = QueryService::new(path_db());
        let spec = QuerySpec::from_query(
            &QueryBuilder::path(2).build(),
            RankingFunction::SumAscending,
        );
        const RACERS: usize = 8;
        let start_line = std::sync::Barrier::new(RACERS);
        let plans: Vec<Arc<PreparedQuery>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..RACERS)
                .map(|_| {
                    let service = &service;
                    let spec = &spec;
                    let start_line = &start_line;
                    scope.spawn(move || {
                        start_line.wait();
                        service.prepare_spec(spec).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Single-flight: one racer compiled, the rest waited and share the
        // winner's plan.
        assert_eq!(service.metrics().plan_misses, 1);
        assert_eq!(service.metrics().plan_hits, RACERS as u64 - 1);
        assert!(plans.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        // The flight registry drains: nothing left once compiles settle.
        assert!(lock!(service.plan_flights.lock()).is_empty());
    }

    #[test]
    fn a_late_racer_retires_the_flight_it_opened() {
        // The interleaving a stampede hits now and then, made deterministic:
        // a racer misses the cache, the winner caches the plan and retires
        // its flight, then the racer opens a fresh flight and finds the plan
        // on its re-check. That flight must leave with the racer.
        let service = QueryService::new(path_db());
        let spec = QuerySpec::from_query(
            &QueryBuilder::path(2).build(),
            RankingFunction::SumAscending,
        );
        let winner = service.prepare_spec(&spec).unwrap();
        let snap = service.current_snapshot();
        let key = (snap.generation, spec.plan_key());
        let late = service.compile_in_flight(&snap, &spec, &key).unwrap();
        assert!(Arc::ptr_eq(&winner, &late));
        assert_eq!(service.metrics().plan_misses, 1, "the racer hit the cache");
        assert!(lock!(service.plan_flights.lock()).is_empty());

        // A ticket retires only its own flight: one that another thread
        // opened after this flight was retired stays registered.
        let ticket = FlightTicket::join(&service.plan_flights, &key);
        let newer = Arc::new(Mutex::new(()));
        lock!(service.plan_flights.lock()).insert(key.clone(), Arc::clone(&newer));
        drop(ticket);
        let flights = lock!(service.plan_flights.lock());
        assert!(Arc::ptr_eq(&flights[&key], &newer));
    }

    #[test]
    fn unknown_and_closed_sessions_are_rejected() {
        let service = QueryService::new(path_db());
        let query = QueryBuilder::path(2).build();
        let id = service.open_session(&query, AnyKAlgorithm::Lazy).unwrap();
        assert!(service.next_page(id, 1).is_ok());
        assert!(service.close_session(id));
        assert!(!service.close_session(id), "double close is a no-op");
        assert!(matches!(
            service.next_page(id, 1),
            Err(ServiceError::UnknownSession(_))
        ));
        assert_eq!(service.session_count(), 0);
        assert_eq!(service.tracked_sessions(), 0);
    }

    #[test]
    fn prepare_failures_surface_engine_errors() {
        let service = QueryService::new(path_db());
        let query = QueryBuilder::new().atom("Nope", &["x", "y"]).build();
        let err = service
            .open_session(&query, AnyKAlgorithm::Take2)
            .unwrap_err();
        assert!(matches!(err, ServiceError::Engine(_)));
        assert!(err.to_string().contains("Nope"));
    }

    #[test]
    fn session_status_tracks_progress() {
        let service = QueryService::new(path_db());
        let query = QueryBuilder::path(2).build();
        let id = service
            .open_session(&query, AnyKAlgorithm::Recursive)
            .unwrap();
        assert_eq!(
            service.session_status(id).unwrap(),
            SessionStatus {
                served: 0,
                done: false,
                algorithm: AnyKAlgorithm::Recursive,
                state: SessionState::Active,
                generation: 0,
            }
        );
        service.next_page(id, 2).unwrap();
        let status = service.session_status(id).unwrap();
        assert_eq!(status.served, 2);
        assert!(!status.done);
        assert_eq!(status.state, SessionState::Active);
        service.next_page(id, 2).unwrap();
        let status = service.session_status(id).unwrap();
        assert!(status.done);
        assert_eq!(status.state, SessionState::Drained);
    }

    #[test]
    fn distinct_rankings_get_distinct_plans() {
        let service = QueryService::new(path_db());
        let query = QueryBuilder::path(2).build();
        let asc = service
            .prepare(&query, RankingFunction::SumAscending)
            .unwrap();
        let desc = service
            .prepare(&query, RankingFunction::SumDescending)
            .unwrap();
        assert!(!Arc::ptr_eq(&asc, &desc));
        assert_eq!(service.prepared_count(), 2);
        let asc2 = service
            .prepare(&query, RankingFunction::SumAscending)
            .unwrap();
        assert!(Arc::ptr_eq(&asc, &asc2));
    }

    #[test]
    fn plan_cache_is_lru_bounded_and_evicted_plans_keep_serving_open_sessions() {
        let service = QueryService::with_config(
            path_db(),
            ServiceConfig {
                plan_cache_capacity: 2,
                ..ServiceConfig::default()
            },
        );
        let path = QueryBuilder::path(2).build();
        // A session holds the plan that is about to be evicted.
        let id = service.open_session(&path, AnyKAlgorithm::Take2).unwrap();
        // Two more distinct plans (same query, different rankings) overflow
        // the 2-slot cache and evict the least recently prepared.
        service
            .prepare(&path, RankingFunction::SumDescending)
            .unwrap();
        service
            .prepare(&path, RankingFunction::BottleneckAscending)
            .unwrap();
        assert_eq!(service.prepared_count(), 2, "bounded");
        assert_eq!(service.metrics().plan_evictions, 1);
        // The open session still streams from the evicted plan (its Arc
        // keeps it alive) ...
        let page = service.next_page(id, 100).unwrap();
        assert_eq!(page.answers.len(), 3);
        // ... and re-preparing the evicted query recompiles, correctly.
        let m = service.metrics();
        let again = service
            .prepare(&path, RankingFunction::SumAscending)
            .unwrap();
        assert_eq!(service.metrics().plan_misses, m.plan_misses + 1);
        assert_eq!(again.top_k(AnyKAlgorithm::Take2, 1)[0].weight(), 3.0);
    }

    #[test]
    fn plan_observations_are_bounded_like_the_plan_cache() {
        const CAPACITY: usize = 4;
        let service = QueryService::with_config(
            path_db(),
            ServiceConfig {
                plan_cache_capacity: CAPACITY,
                ..ServiceConfig::default()
            },
        );
        // A client that varies a filter constant: every request is a new
        // plan key. The sessions stay open across their plan's eviction.
        for c in 0..3 * CAPACITY {
            let id = service
                .open_session_text(&format!("Q(x, y, z) :- R1(x, y), R2(y, z), x = {c}"))
                .unwrap();
            service.next_page(id, 10).unwrap();
        }
        let stats = service.stats_snapshot();
        assert_eq!(service.prepared_count(), CAPACITY);
        assert!(
            stats.plans.len() <= CAPACITY,
            "{} blocks",
            stats.plans.len()
        );
        // The newest key is among the survivors, with its page recorded.
        let newest = QuerySpec::parse(&format!(
            "Q(x, y, z) :- R1(x, y), R2(y, z), x = {}",
            3 * CAPACITY - 1
        ))
        .unwrap()
        .plan_key();
        let (_, newest) = stats.plans.iter().find(|(k, _)| *k == newest).unwrap();
        assert_eq!(newest.page.count, 1);
        // And the Stats frame built from it survives its own decoder.
        use crate::net::protocol::{encode_response, Response};
        let (mut frame, mut payload) = (Vec::new(), Vec::new());
        let response = Response::Stats(Box::new(stats.clone()));
        encode_response(&mut frame, &mut payload, &response);
        match Response::decode(response.status() as u8, &payload) {
            Ok(Response::Stats(back)) => assert_eq!(*back, stats),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "already-shared")]
    fn over_rejects_an_unappliable_index_cache_bound() {
        let db = Arc::new(path_db());
        QueryService::over(
            db,
            ServiceConfig {
                index_cache_capacity: Some(4),
                ..ServiceConfig::default()
            },
        );
    }

    #[test]
    fn metrics_count_pages_and_answers() {
        let service = QueryService::new(path_db());
        let query = QueryBuilder::path(2).build();
        let id = service.open_session(&query, AnyKAlgorithm::Eager).unwrap();
        let mut buf = Vec::new();
        while !service.next_page_into(id, 1, &mut buf).unwrap() {}
        let m = service.metrics();
        assert_eq!(m.answers_served, 3);
        assert_eq!(m.pages_served, 4, "3 full pages + 1 short (empty) page");
        assert_eq!(m.sessions_opened, 1);
        assert_eq!(m.active_sessions, 1);
        assert_eq!(m.pages_in_flight, 0, "permits all returned");
    }

    #[test]
    fn text_sessions_match_struct_sessions_and_share_the_plan() {
        let service = QueryService::new(path_db());
        let query = QueryBuilder::path(2).build();
        let by_struct = service.open_session(&query, DEFAULT_ALGORITHM).unwrap();
        // The same query as text, alpha-renamed: must hit the struct plan.
        let by_text = service
            .open_session_text("Q(a, b, c) :- R1(a, b), R2(b, c)")
            .unwrap();
        let a = service.next_page(by_struct, 100).unwrap();
        let b = service.next_page(by_text, 100).unwrap();
        assert_eq!(a, b, "text and struct sessions page identically");
        assert_eq!(service.prepared_count(), 1, "one shared plan entry");
        assert_eq!(service.metrics().plan_misses, 1);
        assert_eq!(service.metrics().plan_hits, 1);
    }

    #[test]
    fn text_sessions_honor_via_and_limit_without_fragmenting_the_cache() {
        let service = QueryService::new(path_db());
        let id = service
            .open_session_text("Q(x, y, z) :- R1(x, y), R2(y, z) via lazy limit 2")
            .unwrap();
        assert_eq!(
            service.session_status(id).unwrap().algorithm,
            AnyKAlgorithm::Lazy
        );
        let page = service.next_page(id, 100).unwrap();
        assert_eq!(page.answers.len(), 2, "limit 2 of 3 answers");
        assert!(page.done);
        // Same plan key as the unlimited request: no extra compilation.
        service
            .open_session_text("Q(x, y, z) :- R1(x, y), R2(y, z)")
            .unwrap();
        assert_eq!(service.metrics().plan_misses, 1);
        assert_eq!(service.metrics().plan_hits, 1);
    }

    #[test]
    fn text_sessions_with_predicates_filter_answers() {
        let service = QueryService::new(path_db());
        // Only the x = 2 path (2, 20) ⋈ (20, 6) survives.
        let id = service
            .open_session_text("Q(x, y, z) :- R1(x, y), R2(y, z), x = 2")
            .unwrap();
        let page = service.next_page(id, 100).unwrap();
        assert_eq!(page.answers.len(), 1);
        assert_eq!(page.answers[0].values(), &[2, 20, 6]);
        assert_eq!(page.answers[0].weight(), 5.0);
    }

    #[test]
    fn bad_text_is_a_typed_parse_error() {
        let service = QueryService::new(path_db());
        let err = service.open_session_text("Q(x :- R1(x, y)").unwrap_err();
        assert!(matches!(err, ServiceError::Parse(_)));
        assert!(err.to_string().contains("parse error"));
        // The removed `shards` clause is such an error, refused before
        // admission or the plan cache see the request.
        let before = service.metrics();
        let err = service
            .open_session_text("Q(x, y, z) :- R1(x, y), R2(y, z) shards 2")
            .unwrap_err();
        assert!(matches!(err, ServiceError::Parse(_)));
        assert_eq!(service.metrics(), before);
        // Valid syntax, unknown relation: an engine error, still typed.
        let err = service
            .open_session_text("Q(x, y) :- Nope(x, y)")
            .unwrap_err();
        assert!(matches!(err, ServiceError::Engine(_)));
    }

    #[test]
    fn session_cap_sheds_opens_until_a_close_frees_a_slot() {
        let service = service_with(
            GovernorConfig {
                max_sessions: Some(2),
                ..GovernorConfig::default()
            },
            Arc::new(ManualClock::new()),
        );
        let query = QueryBuilder::path(2).build();
        let a = service.open_session(&query, AnyKAlgorithm::Take2).unwrap();
        let _b = service.open_session(&query, AnyKAlgorithm::Take2).unwrap();
        let err = service
            .open_session(&query, AnyKAlgorithm::Take2)
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Overloaded {
                reason: OverloadReason::Sessions,
                ..
            }
        ));
        assert_eq!(service.metrics().sessions_shed, 1);
        service.close_session(a);
        assert!(service.open_session(&query, AnyKAlgorithm::Take2).is_ok());
    }

    #[test]
    fn ttl_expires_sessions_deterministically() {
        let clock = Arc::new(ManualClock::new());
        let service = service_with(
            GovernorConfig {
                session_ttl: Some(Duration::from_secs(10)),
                ..GovernorConfig::default()
            },
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let query = QueryBuilder::path(2).build();
        let id = service.open_session(&query, AnyKAlgorithm::Take2).unwrap();
        assert!(service.next_page(id, 1).is_ok(), "within TTL");
        clock.advance(Duration::from_secs(10));
        assert!(matches!(
            service.next_page(id, 1),
            Err(ServiceError::SessionExpired(_))
        ));
        // The tombstone keeps the id typed; memory is back to zero.
        assert_eq!(
            service.session_status(id).unwrap().state,
            SessionState::Expired
        );
        let m = service.metrics();
        assert_eq!(m.sessions_expired, 1);
        assert_eq!(m.active_sessions, 0);
        assert_eq!(m.mem_resident_units, 0);
        assert!(service.close_session(id), "tombstone reclaimed by close");
        assert_eq!(service.tracked_sessions(), 0);
    }

    #[test]
    fn idle_sessions_are_reaped_by_the_sweep() {
        let clock = Arc::new(ManualClock::new());
        let service = service_with(
            GovernorConfig {
                idle_timeout: Some(Duration::from_secs(5)),
                ..GovernorConfig::default()
            },
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let query = QueryBuilder::path(2).build();
        let idle = service.open_session(&query, AnyKAlgorithm::Take2).unwrap();
        clock.advance(Duration::from_secs(3));
        let busy = service.open_session(&query, AnyKAlgorithm::Take2).unwrap();
        service.next_page(busy, 1).unwrap(); // refreshes busy's idle clock
        clock.advance(Duration::from_secs(3));
        assert_eq!(service.sweep_expired(), 1, "only the idle session");
        assert_eq!(
            service.session_status(idle).unwrap().state,
            SessionState::Expired
        );
        assert!(service.next_page(busy, 1).is_ok(), "busy session survives");
    }

    #[test]
    fn cancel_session_stops_the_stream_and_is_idempotent() {
        let service = QueryService::new(path_db());
        let query = QueryBuilder::path(2).build();
        let id = service.open_session(&query, AnyKAlgorithm::Lazy).unwrap();
        service.next_page(id, 1).unwrap();
        service.cancel_session(id).unwrap();
        service.cancel_session(id).unwrap(); // idempotent
        assert!(matches!(
            service.next_page(id, 1),
            Err(ServiceError::SessionCancelled(_))
        ));
        assert_eq!(
            service.session_status(id).unwrap().state,
            SessionState::Cancelled
        );
        let m = service.metrics();
        assert_eq!(m.sessions_cancelled, 1);
        assert_eq!(m.active_sessions, 0);
        assert_eq!(m.mem_resident_units, 0);
    }

    #[test]
    fn memory_budget_sheds_new_sessions() {
        // The flat untracked charge makes the arithmetic exact: budget for
        // one Recursive session, not two.
        let service = service_with(
            GovernorConfig {
                memory_budget_units: Some(1500),
                untracked_session_units: 1024,
                ..GovernorConfig::default()
            },
            Arc::new(ManualClock::new()),
        );
        let query = QueryBuilder::path(2).build();
        let a = service
            .open_session(&query, AnyKAlgorithm::Recursive)
            .unwrap();
        let err = service
            .open_session(&query, AnyKAlgorithm::Recursive)
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Overloaded {
                reason: OverloadReason::Memory,
                ..
            }
        ));
        service.close_session(a);
        assert_eq!(service.metrics().mem_resident_units, 0);
        assert!(service
            .open_session(&query, AnyKAlgorithm::Recursive)
            .is_ok());
        assert_eq!(service.metrics().peak_mem_resident_units, 1024);
    }

    #[test]
    fn tracked_algorithms_charge_their_live_mem_and_release_it() {
        let service = service_with(GovernorConfig::default(), Arc::new(ManualClock::new()));
        let query = QueryBuilder::path(2).build();
        let id = service.open_session(&query, AnyKAlgorithm::Take2).unwrap();
        service.next_page(id, 2).unwrap();
        let m = service.metrics();
        assert!(
            m.mem_resident_units > 0,
            "paging populated the enumeration structures"
        );
        assert!(m.peak_mem_resident_units >= m.mem_resident_units);
        service.close_session(id);
        assert_eq!(service.metrics().mem_resident_units, 0);
    }

    /// Deletes R1's (2, 20) edge and adds a (10, 7) edge to R2 — the path
    /// query's answer set goes from 3 to 4.
    fn path_delta() -> DeltaBatch {
        DeltaBatch::new()
            .delete("R1", 1)
            .insert("R2", anyk_storage::Tuple::new(vec![10, 7], 0.5))
    }

    #[test]
    fn serving_seals_the_snapshot() {
        let db = Arc::new(path_db());
        assert!(!db.is_sealed());
        let service = QueryService::over(Arc::clone(&db), ServiceConfig::default());
        assert!(db.is_sealed(), "over() seals the snapshot it serves");
        drop(service);
        assert!(db.is_sealed(), "sealing is permanent");
    }

    /// Regression: a caller holding a mutable handle used to be able to swap
    /// a relation out from under live sessions after handing the database to
    /// a service — silently serving torn data. Mutation now panics instead.
    #[test]
    #[should_panic(expected = "sealed")]
    fn mutating_a_served_snapshot_panics_instead_of_tearing_sessions() {
        let db = Arc::new(path_db());
        let service = QueryService::over(Arc::clone(&db), ServiceConfig::default());
        drop(service);
        // Even with the service gone the seal stands; the only unique handle
        // left must still refuse mutation.
        let mut db = Arc::try_unwrap(db).expect("last handle");
        db.add(Relation::new("R3", 2));
    }

    #[test]
    fn ingest_rotates_the_generation_and_pins_existing_sessions() {
        let service = QueryService::new(path_db());
        let query = QueryBuilder::path(2).build();
        assert_eq!(service.current_generation(), 0);

        let old_session = service.open_session(&query, AnyKAlgorithm::Take2).unwrap();
        let first = service.next_page(old_session, 1).unwrap().answers;

        let generation = service.ingest(&path_delta()).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(service.current_generation(), 1);
        assert_eq!(service.metrics().deltas_ingested, 1);

        // The old session keeps streaming its pinned generation-0 snapshot.
        assert_eq!(service.session_status(old_session).unwrap().generation, 0);
        let mut old_stream = first;
        loop {
            let page = service.next_page(old_session, 10).unwrap();
            old_stream.extend(page.answers);
            if page.done {
                break;
            }
        }
        let baseline: Vec<Answer> = QueryService::new(path_db())
            .prepare(&query, RankingFunction::SumAscending)
            .unwrap()
            .enumerate(AnyKAlgorithm::Take2)
            .collect();
        assert_eq!(old_stream, baseline, "pinned stream is bit-identical");

        // A new session sees the delta-maintained data, bit-identical to a
        // from-scratch service over the rebuilt database.
        let new_session = service.open_session(&query, AnyKAlgorithm::Take2).unwrap();
        assert_eq!(service.session_status(new_session).unwrap().generation, 1);
        let fresh = service.next_page(new_session, 100).unwrap().answers;
        let rebuilt_db = path_db().apply_delta(&path_delta()).unwrap();
        let rebuilt: Vec<Answer> = QueryService::new(rebuilt_db)
            .prepare(&query, RankingFunction::SumAscending)
            .unwrap()
            .enumerate(AnyKAlgorithm::Take2)
            .collect();
        assert_eq!(fresh.len(), 4, "delete killed one path, insert added two");
        assert_eq!(fresh, rebuilt, "delta-maintained ≡ from-scratch rebuild");
    }

    #[test]
    fn ingest_refreshes_cached_plans_in_place() {
        let service = QueryService::new(path_db());
        let query = QueryBuilder::path(2).build();
        service
            .prepare(&query, RankingFunction::SumAscending)
            .unwrap();
        assert_eq!(service.metrics().plan_misses, 1);

        service.ingest(&path_delta()).unwrap();
        let m = service.metrics();
        assert_eq!(m.plans_refreshed, 1, "delta-capable plan was patched");
        assert_eq!(m.plans_recompiled, 0);

        // The migrated plan serves the new generation without a fresh
        // compile: opening the same query is a cache hit, not a miss.
        let id = service.open_session(&query, AnyKAlgorithm::Lazy).unwrap();
        assert_eq!(service.metrics().plan_misses, 1, "no recompilation");
        let page = service.next_page(id, 100).unwrap();
        assert_eq!(page.answers.len(), 4);
    }

    #[test]
    fn retired_snapshots_release_residency_with_their_last_session() {
        let service = QueryService::new(path_db());
        let query = QueryBuilder::path(2).build();
        let pinned = service.open_session(&query, AnyKAlgorithm::Take2).unwrap();

        let before = service.metrics();
        assert_eq!(before.active_generations, 1);
        assert_eq!(before.snapshot_resident_units, 5, "3 + 2 tuples");

        service.ingest(&path_delta()).unwrap();
        let during = service.metrics();
        assert_eq!(
            during.active_generations, 2,
            "old generation held by its pinned session (and its plan)"
        );
        assert_eq!(during.snapshot_resident_units, 5 + 5, "2 R1 + 3 R2 new");
        assert_eq!(during.snapshots_retired, 0);

        // Closing the last pinned session retires generation 0 and returns
        // its residency to the governor.
        service.close_session(pinned);
        let after = service.metrics();
        assert_eq!(after.active_generations, 1);
        assert_eq!(after.snapshot_resident_units, 5);
        assert_eq!(after.snapshots_retired, 1);
        assert_eq!(after.mem_resident_units, 0);
    }

    #[test]
    fn rotate_replaces_the_snapshot_and_colds_the_plan_cache() {
        let service = QueryService::new(path_db());
        let query = QueryBuilder::path(2).build();
        service
            .prepare(&query, RankingFunction::SumAscending)
            .unwrap();
        assert_eq!(service.prepared_count(), 1);

        let mut replacement = Database::new();
        let mut r1 = Relation::new("R1", 2);
        r1.push_edge(7, 70, 1.0);
        let mut r2 = Relation::new("R2", 2);
        r2.push_edge(70, 8, 1.0);
        replacement.add(r1);
        replacement.add(r2);

        let generation = service.rotate(replacement);
        assert_eq!(generation, 1);
        assert_eq!(service.current_generation(), 1);
        assert_eq!(service.prepared_count(), 0, "no stale plans survive");
        assert_eq!(service.metrics().generations_rotated, 1);
        assert!(service.database().is_sealed());

        let id = service.open_session(&query, AnyKAlgorithm::Eager).unwrap();
        let page = service.next_page(id, 10).unwrap();
        assert_eq!(page.answers.len(), 1);
        assert_eq!(page.answers[0].values(), &[7, 70, 8]);
    }

    #[test]
    fn a_rejected_delta_changes_nothing() {
        let service = QueryService::new(path_db());
        let bad = DeltaBatch::new().delete("Nope", 0);
        let err = service.ingest(&bad).unwrap_err();
        assert!(matches!(err, ServiceError::Delta(_)));
        assert!(err.to_string().contains("Nope"));
        let m = service.metrics();
        assert_eq!(service.current_generation(), 0, "generation unchanged");
        assert_eq!(m.deltas_ingested, 0);
        assert_eq!(m.active_generations, 1);
    }

    #[test]
    fn session_traces_record_lifecycle_with_injected_timestamps() {
        let clock = Arc::new(ManualClock::new());
        let service = QueryService::with_config(
            path_db(),
            ServiceConfig {
                clock: Some(Arc::clone(&clock) as Arc<dyn Clock>),
                session_event_capacity: 8,
                ..ServiceConfig::default()
            },
        );
        let query = QueryBuilder::path(2).build();
        let id = service.open_session(&query, AnyKAlgorithm::Take2).unwrap();
        clock.advance(Duration::from_millis(5));
        service.next_page(id, 2).unwrap();
        clock.advance(Duration::from_millis(7));
        service.cancel_session(id).unwrap();

        let trace = service.session_trace(id).unwrap();
        let kinds: Vec<EventKind> = trace.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::Open, EventKind::Page, EventKind::Cancel]
        );
        let open_at = trace[0].at_nanos;
        assert!(trace[0].detail > 0, "open detail carries charged MEM units");
        assert_eq!(trace[1].at_nanos - open_at, 5_000_000);
        assert_eq!(trace[1].detail, 2, "page detail counts answers returned");
        assert_eq!(trace[2].at_nanos - open_at, 12_000_000);
        assert_eq!(trace[2].detail, 2, "terminal detail counts answers served");

        // The trace survives in the tombstone for post-mortems; reclaiming
        // the id finally forgets it.
        assert_eq!(
            service.session_status(id).unwrap().state,
            SessionState::Cancelled
        );
        service.close_session(id);
        assert!(matches!(
            service.session_trace(id),
            Err(ServiceError::UnknownSession(_))
        ));
    }

    #[test]
    fn session_event_rings_evict_oldest_and_can_be_disabled() {
        let query = QueryBuilder::path(2).build();

        let bounded = QueryService::with_config(
            path_db(),
            ServiceConfig {
                session_event_capacity: 2,
                ..ServiceConfig::default()
            },
        );
        let id = bounded.open_session(&query, AnyKAlgorithm::Lazy).unwrap();
        for _ in 0..3 {
            bounded.next_page(id, 1).unwrap();
        }
        let trace = bounded.session_trace(id).unwrap();
        assert_eq!(trace.len(), 2, "ring keeps only the most recent events");
        assert!(trace.iter().all(|e| e.kind == EventKind::Page));

        let disabled = QueryService::with_config(
            path_db(),
            ServiceConfig {
                session_event_capacity: 0,
                ..ServiceConfig::default()
            },
        );
        let id = disabled.open_session(&query, AnyKAlgorithm::Lazy).unwrap();
        disabled.next_page(id, 1).unwrap();
        assert!(
            disabled.session_trace(id).unwrap().is_empty(),
            "capacity 0 disables tracing without failing the call"
        );
    }

    #[test]
    fn stats_snapshots_report_one_consistent_generation_under_rotation() {
        let service = Arc::new(QueryService::new(path_db()));
        let query = QueryBuilder::path(2).build();
        let id = service.open_session(&query, AnyKAlgorithm::Take2).unwrap();
        service.next_page(id, 10).unwrap();

        const ROTATIONS: u64 = 50;
        std::thread::scope(|scope| {
            let svc = Arc::clone(&service);
            let rotator = scope.spawn(move || {
                for _ in 0..ROTATIONS {
                    svc.rotate(path_db());
                }
            });
            let mut last = 0u64;
            while !rotator.is_finished() {
                let s = service.stats_snapshot();
                assert_eq!(s.version, STATS_VERSION);
                assert_eq!(
                    s.generation, s.metrics.current_generation,
                    "generation and counters come from one critical section"
                );
                assert!(s.generation >= last, "generation never goes backwards");
                last = s.generation;
            }
            rotator.join().unwrap();
        });

        let settled = service.stats_snapshot();
        assert_eq!(settled.generation, ROTATIONS);
        assert_eq!(settled.metrics.generations_rotated, ROTATIONS);
        assert!(settled.page_latency.count >= 1, "page latency was recorded");
        let key = QuerySpec::from_query(&query, RankingFunction::SumAscending).plan_key();
        let plan = settled
            .plans
            .iter()
            .find(|(k, _)| *k == key)
            .expect("per-plan distributions keyed by canonical plan key");
        assert!(plan.1.ttf.count >= 1, "TTF flushed at the page boundary");
        assert!(plan.1.delay.count >= 1, "per-answer delays flushed");
    }
}
