//! # anyk-server
//!
//! A query-service subsystem over the any-k engine: long-lived, concurrent,
//! resumable ranked enumeration — the serving seam between the paper's
//! algorithms (Tziavelis et al., VLDB 2020) and a system that answers many
//! clients over one shared database snapshot.
//!
//! The any-k algorithms are *anytime* by construction: after one
//! preprocessing pass, answers stream out one at a time in rank order with
//! logarithmic delay. That maps naturally onto a service in which clients
//! **pull pages** of ranked answers and may pause between pages for
//! arbitrarily long:
//!
//! * [`QueryService`] owns an `Arc`-shared, read-mostly
//!   [`Database`](anyk_storage::Database) snapshot whose index cache is
//!   LRU-bounded and `RwLock`-sharded, so many sessions preprocess and
//!   enumerate concurrently without blocking each other.
//! * [`QueryService::open_session_text`] is the one entry point from a
//!   string to ranked pages: it parses the textual query language
//!   (`Q(x, z) :- R(x, y), S(y, z), y = 7 rank by sum limit 1000`, see
//!   [`anyk_query::parse`]), pushes the selections down to row lists over
//!   the base relations, and opens a session — parse and validation failures
//!   surface as typed [`ServiceError::Parse`] / [`ServiceError::Engine`]
//!   values, never panics.
//! * [`QueryService::prepare`] / [`QueryService::prepare_spec`] compile a
//!   request **once** (selection pushdown, join-tree or cycle
//!   decomposition, T-DP compilation, bottom-up phase) and memoise the
//!   resulting [`PreparedQuery`] keyed by **canonical spec text**
//!   ([`anyk_query::QuerySpec::plan_key`]): alpha-renamed variants of one
//!   query — and the same query built via `QueryBuilder` — share a single
//!   cache entry, while per-request `via …` / `limit …` clauses apply to
//!   the session, not the plan.
//! * [`QueryService::open_session`] hands out a [`SessionId`] backed by an
//!   [`AnswerCursor`](anyk_engine::AnswerCursor): the live any-k iterator
//!   state (candidate queue, shared-prefix arena, successor structures,
//!   union heap) is retained **per session**, which is what makes sessions
//!   suspendable mid-enumeration and resumable later — suspension is simply
//!   not calling [`QueryService::next_page`] for a while.
//!
//! **Determinism guarantee:** concatenating the pages of a session yields a
//! stream bit-identical to the one-shot
//! [`PreparedQuery::enumerate`](anyk_engine::PreparedQuery::enumerate)
//! stream for the same algorithm, regardless of page sizes, suspensions, or
//! what other sessions do concurrently.
//!
//! ## Example
//!
//! ```
//! use anyk_core::AnyKAlgorithm;
//! use anyk_query::QueryBuilder;
//! use anyk_server::QueryService;
//! use anyk_storage::{Database, Relation};
//!
//! let mut db = Database::new();
//! let mut r1 = Relation::new("R1", 2);
//! r1.push_edge(1, 10, 1.0);
//! r1.push_edge(2, 20, 4.0);
//! let mut r2 = Relation::new("R2", 2);
//! r2.push_edge(10, 5, 2.0);
//! r2.push_edge(20, 6, 1.0);
//! db.add(r1);
//! db.add(r2);
//!
//! let service = QueryService::new(db);
//! let query = QueryBuilder::path(2).build();
//!
//! // Two independent clients over the same prepared plan.
//! let a = service.open_session(&query, AnyKAlgorithm::Take2).unwrap();
//! let b = service.open_session(&query, AnyKAlgorithm::Lazy).unwrap();
//!
//! let first = service.next_page(a, 1).unwrap();
//! assert_eq!(first.answers[0].weight(), 3.0);
//! // Session `a` is now suspended; session `b` streams independently.
//! let all = service.next_page(b, 100).unwrap();
//! assert_eq!(all.answers.len(), 2);
//! assert!(all.done);
//! // Resume `a` where it left off.
//! let rest = service.next_page(a, 100).unwrap();
//! assert_eq!(rest.answers.len(), 1);
//!
//! assert_eq!(service.metrics().plan_hits, 1, "second session reused the plan");
//! service.close_session(a);
//! service.close_session(b);
//! ```
//!
//! ## Session lifecycle
//!
//! Every session walks one edge path of this diagram; the registry slot
//! holds the live state, and ended sessions leave a tiny *tombstone* so
//! clients get a typed error ([`ServiceError::SessionExpired`] /
//! [`ServiceError::SessionCancelled`] / [`ServiceError::SessionPoisoned`])
//! instead of an ambiguous `UnknownSession`:
//!
//! ```text
//!                    open_session*            next_page (stream ends)
//!   [admission] ───────────────────▶ Active ─────────────────────▶ Drained
//!        │ shed: Overloaded            │                              │
//!        ▼                             │ TTL/idle deadline            │
//!   (no session)                       ├────────────────▶ Expired     │
//!                                      │ cancel_session              close_session
//!                                      ├────────────────▶ Cancelled   │
//!                                      │ panic in a page pull         │
//!                                      └────────────────▶ Poisoned    │
//!                                                            │        ▼
//!                                          close_session ────┴──▶ (slot freed)
//! ```
//!
//! * **Admission** ([`GovernorConfig`]): opens are shed with
//!   [`ServiceError::Overloaded`] when the concurrent-session cap, the
//!   in-flight page cap, or the global MEM(k) memory budget would be
//!   exceeded; the error carries a `retry_after_hint` for client back-off.
//! * **Deadlines** are driven by an injectable [`Clock`]
//!   ([`ServiceConfig::clock`]): production uses a monotonic clock, tests a
//!   [`ManualClock`], which makes expiry and the chaos suite fully
//!   deterministic. Expired sessions are reaped opportunistically on every
//!   open and explicitly via [`QueryService::sweep_expired`]; a session
//!   with a pull in flight re-checks its own deadline on the next pull.
//! * **Cancellation** is cooperative and answer-granular: the cursor checks
//!   a shared token between answers, so
//!   [`QueryService::cancel_session`] stops an in-flight pull within one
//!   any-k delay and the partial page (still valid, still in rank order) is
//!   delivered.
//! * **Panic isolation**: a panic inside a page pull (or plan compilation)
//!   is caught *inside* the session's mutex scope — the session is marked
//!   `Poisoned`, its cursor and memory charge are released, **no registry
//!   lock is ever poisoned**, and every other session keeps paging
//!   bit-identically. The caller gets [`ServiceError::Panicked`] with the
//!   panic message.
//!
//! ## Snapshot rotation & delta ingestion
//!
//! The service never mutates the data it serves. [`QueryService::over`]
//! **seals** the database it is handed — any leftover mutable handle that
//! tries [`Database::add`](anyk_storage::Database::add) afterwards panics
//! instead of swapping a relation under live sessions — and new data only
//! ever enters as a **new generation**:
//!
//! ```text
//!            over(db)                 ingest(batch) / rotate(db)
//!   [unsealed db] ──▶ gen 0 (sealed) ─────────────▶ gen 1 (sealed) ──▶ …
//!                        ▲ current                     ▲ current
//!                        │                             │
//!            sessions opened before the edit stay      │ new sessions,
//!            *pinned* to gen 0 and stream it to        │ new plans
//!            the end, bit-identically                  │
//!                        │                             │
//!                        ▼ last pinned session ends    │
//!                  gen 0 retired: snapshot dropped,    │
//!                  residency returned to the Governor  │
//! ```
//!
//! * **Generation pinning**: [`QueryService::open_session`] binds the
//!   session to the snapshot current *at open*; rotation never perturbs an
//!   in-flight stream ([`SessionStatus::generation`] says which one).
//!   A retired snapshot is dropped with its **last** pinned session, and
//!   its tuple residency ([`ServiceMetrics::snapshot_resident_units`],
//!   [`ServiceMetrics::active_generations`]) is released then.
//! * **Plan cache keying**: cached plans are keyed by
//!   `(generation, plan_key)`, so a rotated snapshot can never serve a
//!   stale plan — and neither can the storage-level index cache, whose
//!   entries carry the generation too.
//! * **Delta ingestion** ([`QueryService::ingest`]): a
//!   [`DeltaBatch`](anyk_storage::DeltaBatch) of per-relation deletes and
//!   inserts is validated, applied to a **copy** of the current snapshot,
//!   and served as the next generation. Cached delta-capable plans are
//!   carried forward by re-sweeping only the **dirty cone** of the
//!   bottom-up DP (a small fraction of a full compile); the rest are
//!   recompiled. Either way the differential guarantee holds: every ranked
//!   stream from a delta-maintained instance is **bit-identical** to one
//!   from a from-scratch rebuild, across all six any-k algorithms.
//! * **Wholesale rotation** ([`QueryService::rotate`]) swaps in unrelated
//!   data: the plan cache starts cold, pinned sessions still finish their
//!   old generation.
//!
//! ## Tuning the governor
//!
//! * `max_sessions` bounds *suspended state*: each open session parks its
//!   enumeration structures. Size it from the MEM(k) profile of your
//!   workload (see [`PreparedQuery::mem_profile`](anyk_engine::PreparedQuery::mem_profile)).
//! * `max_pages_in_flight` bounds *CPU overcommit* — pulls beyond it shed
//!   instead of queueing. A good default is your worker-thread count.
//! * `memory_budget_units` is denominated in MEM(k) units
//!   ([`anyk_core::MemoryStats::resident_units`]: entries in the candidate
//!   queue and the prefix arena, the entries the cursor's successor-structure
//!   index holds — at most about two per structure built — and the choices
//!   held by those structures). A session that pages a short
//!   prefix of a large plan is charged for that prefix, not for the plan's
//!   size, and a session paged deep is charged for its frontier, not its
//!   k: the prefix arena holds the entries the queued candidates reach
//!   (never one for an answer's last position), so it grows with the
//!   candidate queue rather than with the answers emitted. Sessions are
//!   re-charged their actual footprint after every page, so the budget tracks reality, not a static estimate; the cursor
//!   keeps these figures as counters, so the re-charge reads five numbers
//!   however large the plan is. The budget is enforced at open and before
//!   every page pull: while the resident total is at or over budget, pulls
//!   shed with `OverloadReason::Memory` until sessions close or expire, so
//!   the total passes the budget by at most what the pages in flight add. The count is logical: a
//!   root structure the plan built once and lends to every cursor is charged
//!   to each of them, so a session costs the same units whether it is the
//!   first on its plan or the thousandth. `Recursive`/`Batch` cursors, which
//!   do not expose those structures, are charged the flat
//!   `untracked_session_units` rate.
//! * `session_ttl` caps total session lifetime; `idle_timeout` reclaims
//!   abandoned sessions. Both `None` (the default) means sessions live
//!   until closed, exactly like the pre-governance service.
//!
//! ## Fault injection
//!
//! The [`faults`] module (re-exported from `anyk_core`) is a
//! no-dependencies failpoint registry wired through the whole stack —
//! index build, bottom-up preprocessing, plan compilation, delta refresh
//! and the core patch under it, the paging path, and the service entry
//! points ([`faults::SITES`] lists them). Tests (and operators, via the
//! `ANYK_FAULTS` environment variable) arm error or panic faults at named
//! sites to prove the containment story above; unarmed, every hook is one
//! relaxed atomic load.
//!
//! ## Serving over TCP
//!
//! The [`net`] module is the wire: [`net::AnyKServer`] exposes a
//! `QueryService` on a `std::net::TcpListener` behind a length-prefixed,
//! versioned binary protocol (fully specified in [`net::protocol`]), and
//! [`net::AnyKClient`] is the matching blocking client. The transport is
//! semantics-free — every TCP-served ranked stream is bit-identical to the
//! in-process stream for the same `QuerySpec` — and every
//! [`ServiceError`] variant crosses the wire as a typed status code, so
//! remote clients see the same `Overloaded { retry_after_hint }` /
//! `SessionExpired` / `SessionPoisoned` taxonomy in-process callers do.
//!
//! ```no_run
//! use anyk_server::net::{AnyKClient, AnyKServer, ClientConfig, NetConfig};
//! use anyk_server::QueryService;
//! use anyk_storage::Database;
//! use std::sync::Arc;
//!
//! let service = Arc::new(QueryService::new(Database::new()));
//! let mut server =
//!     AnyKServer::bind(service, ("127.0.0.1", 0), NetConfig::default()).unwrap();
//! let mut client = AnyKClient::connect(server.local_addr(), ClientConfig::default());
//! client.ping().unwrap();
//! server.shutdown(); // drains in-flight pages, closes sessions, joins
//! ```
//!
//! ### Tuning the transport
//!
//! * `NetConfig::workers` is the serving parallelism — connections beyond
//!   it queue at the accept channel. Pair it with
//!   `GovernorConfig::max_pages_in_flight ≈ workers` so the two layers
//!   agree on CPU overcommit.
//! * `NetConfig::max_connections` bounds live connections (served +
//!   queued); beyond it, accepts shed with a protocol-level
//!   `Overloaded { retry_after }` **before** any handshake or session work
//!   — the cheapest possible rejection under connection floods.
//! * `read_timeout`/`write_timeout` are OS socket deadlines (a parked-idle
//!   connection is reaped after `read_timeout`); `frame_deadline` bounds
//!   one whole frame's wall time on the injectable [`Clock`], which is what
//!   defeats slow-loris clients dribbling a byte per timeout window.
//! * `max_frame_bytes` caps frames in both directions (announced-length
//!   rejection, no allocation); `max_page_size` clamps page requests so
//!   response frames stay under that cap.
//! * Session handles are **per-connection**: a connection can only address
//!   sessions it opened, and all of them are closed when it disconnects —
//!   cleanly, torn, timed-out, or shed — so the Governor's MEM gauge
//!   returns to zero when the clients go away. Reconnecting clients re-open
//!   and re-enumerate (determinism makes the replay bit-identical).
//!
//! ## Observing the service
//!
//! The paper's contract is stated in *per-answer time*: TTF (time to first
//! answer), TT(k), and a bounded delay between consecutive results. The
//! observability layer (crate `anyk-obs`, re-exported here) measures exactly
//! those quantities in production, cheaply enough to leave on:
//!
//! * **Delay histograms** — every cursor carries a
//!   [`DelayRecorder`](anyk_obs::DelayRecorder) feeding a cursor-local,
//!   allocation-free log-bucketed histogram (~2.5 % relative error),
//!   flushed into shared lock-free per-plan atomics at page boundaries. The
//!   first answer is stamped alone, so TTF is exact; after it the
//!   monotonic clock is read once per stride of
//!   [`STRIDE`](anyk_obs::record::STRIDE) answers and once at each end of a
//!   page pull, and a stride's gap is spread over its answers. There is one
//!   delay sample per answer served, with an exact count and sum; the
//!   percentiles and the max are those of stride means. A pull's first
//!   delay counts from the start of that pull, so client think time and
//!   round trips between pages are not delays. The per-plan distributions
//!   — TTF, inter-answer delay, and page service latency, keyed by
//!   [`QuerySpec::plan_key`] — are what
//!   [`QueryService::stats_snapshot`] reports as [`PlanSummaries`], for at
//!   most [`ServiceConfig::plan_cache_capacity`] plans (a key the plan
//!   cache evicted leaves the report and starts over if it returns):
//!   plot `delay.p99` against the theoretical `O(log n)` delay bound and a
//!   regression is a dashboard artifact, not a bisection. In-process
//!   callers get the same distribution per cursor via
//!   [`AnswerCursor::delay_histogram`].
//! * **Phase spans** — the expensive one-off phases (index build, plan
//!   compile, bottom-up sweep, delta refresh, snapshot rotation, wire
//!   read/write) accumulate `(count, total, max)` into process-wide
//!   [`PhaseSnapshot`]s, so a scrape separates *preprocessing* cost from
//!   *enumeration* cost — the paper's central distinction. Note that
//!   `wire_read` spans cover the blocking wait for the next request, so
//!   they include client think time by design: the figure bounds how long
//!   workers sit in reads, not pure socket cost.
//! * **Session traces** — each session keeps a bounded [`EventRing`]
//!   (capacity [`ServiceConfig::session_event_capacity`]; 0 disables) of
//!   lifecycle [`Event`]s: open, every page pull, shed pulls, and its
//!   terminal cancel/expire/poison/close, timestamped by the injectable
//!   [`Clock`]. The ring migrates into the session's tombstone, so
//!   [`QueryService::session_trace`] answers "what happened to session X?"
//!   *after* it died. Size the ring to your paging pattern: pages dominate,
//!   so ~2× the expected pulls per session keeps whole lifecycles.
//! * **The Stats opcode** — `0x08` on the wire returns a versioned
//!   [`StatsSnapshot`]: every [`ServiceMetrics`] counter, the phase table,
//!   the service-wide page-latency summary, and the per-plan distributions,
//!   all scraped in one request ([`net::AnyKClient::stats`]). The
//!   `generation` field comes from the same critical section as the
//!   counters, so a scrape racing [`QueryService::rotate`] still describes
//!   one consistent generation. [`StatsSnapshot::render_prometheus`] turns
//!   a snapshot into the Prometheus text format for scrape-style pipelines.
//! * **The recording switch** — [`set_recording`]`(false)` turns the
//!   delay clock reads and histogram stores off process-wide (session
//!   event rings and plain counters stay on). The overhead benchmark keeps
//!   recording honest: enabled-vs-disabled on the hot path must stay within
//!   a few percent.
//!
//! [`DelayRecorder`]: anyk_obs::DelayRecorder
//! [`EventRing`]: anyk_obs::EventRing
//! [`AnswerCursor::delay_histogram`]: anyk_engine::AnswerCursor::delay_histogram
//! [`QuerySpec::plan_key`]: anyk_query::QuerySpec::plan_key

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod governor;
pub mod net;
mod service;
mod stats;

// The time source lives in anyk-obs so the engine's delay recorder and the
// service tick on one clock; these are its historical service paths.
pub use anyk_obs::{Clock, ManualClock, MonotonicClock};
pub use error::{OverloadReason, ServiceError};
pub use governor::GovernorConfig;
pub use service::{
    QueryService, ServiceConfig, ServiceMetrics, SessionId, SessionState, SessionStatus,
    DEFAULT_ALGORITHM,
};
pub use stats::{StatsSnapshot, STATS_VERSION};

// Re-exported so stats/trace consumers can name the observability types
// (histogram summaries, phase timings, session events, the recording
// switch) without depending on anyk-obs directly.
pub use anyk_obs::{
    recording_enabled, set_recording, Event, EventKind, HistogramSummary, Phase, PhaseSnapshot,
    PlanSummaries,
};

// The failpoint registry lives in anyk-core (the bottom of the crate DAG,
// so every layer can host hooks); service users reach it as
// `anyk_server::faults`.
pub use anyk_core::faults;

// Re-exported so service callers can name the page/cursor/request types
// without depending on anyk-engine / anyk-query directly.
pub use anyk_engine::{Answer, AnswerCursor, CancellationToken, Page, PreparedQuery};
pub use anyk_query::{ParseError, QuerySpec};

// Re-exported so ingestion callers can build delta batches without
// depending on anyk-storage directly.
pub use anyk_storage::{DeltaBatch, DeltaError, RelationDelta};
