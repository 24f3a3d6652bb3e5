//! Owning, thread-shareable prepared queries and resumable answer cursors.
//!
//! [`RankedQuery`](crate::RankedQuery) borrows its database and query, which
//! is the right shape for one-shot library calls but not for a long-lived
//! service: a service compiles a query **once**, shares the compiled plan
//! among many clients, and lets each client pull ranked answers **in pages**
//! across an arbitrary number of calls (and threads). This module provides
//! that shape:
//!
//! * [`PreparedQuery`] — owns an `Arc`-shared [`Database`] snapshot, the
//!   query, and the fully compiled plan (T-DP instances with the bottom-up
//!   phase already run). `Send + Sync`: one prepared query serves any number
//!   of concurrent sessions.
//! * [`AnswerCursor`] — one client's enumeration state over a prepared
//!   query: the any-k iterator (candidate queue, prefix arena, successor
//!   structures — see [`anyk_core::RankedIter`]) parked between calls.
//!   Pulling pages with [`AnswerCursor::next_page`] yields **bit-identical**
//!   answers, in the same order, as a one-shot
//!   [`PreparedQuery::enumerate`] stream — paging only changes *when* the
//!   iterator is advanced, never *what* it produces.
//!
//! ```
//! use anyk_engine::{PreparedQuery, RankingFunction};
//! use anyk_core::AnyKAlgorithm;
//! use anyk_query::QueryBuilder;
//! use anyk_storage::{Database, Relation};
//! use std::sync::Arc;
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
//! let query = QueryBuilder::path(2).build();
//! let prepared = Arc::new(
//!     PreparedQuery::prepare(Arc::new(db), &query, RankingFunction::SumAscending).unwrap(),
//! );
//! let mut cursor = prepared.cursor(AnyKAlgorithm::Take2);
//! let page = cursor.next_page(1);
//! assert_eq!(page.answers[0].weight(), 3.0);
//! assert!(!page.done);
//! // ... suspend the cursor for as long as we like, then resume:
//! let rest = cursor.next_page(10);
//! assert_eq!(rest.answers.len(), 1);
//! assert!(rest.done);
//! ```

use crate::answer::Answer;
use crate::error::EngineError;
use crate::ranked::{AnswerStream, Plan};
use anyk_core::{AnyKAlgorithm, MemoryStats};
use anyk_obs::{Clock, DelayRecorder, HistogramSnapshot, MonotonicClock, PlanObs};
use anyk_query::ConjunctiveQuery;
use anyk_query::RankingFunction;
use anyk_storage::{Database, DeltaBatch};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cooperative cancellation flag shared between an [`AnswerCursor`] and
/// whoever needs to stop it — a service's explicit cancel path, a deadline
/// reaper, a client that hung up.
///
/// Cloning the token clones the *handle*, not the flag: every clone observes
/// (and can trip) the same underlying bit. Cancellation is cooperative and
/// answer-granular: the cursor checks the flag between answers inside
/// [`AnswerCursor::next_page_into`], so a cancelled cursor stops within one
/// answer's worth of work (the any-k delay bound, TT(k+1) − TT(k)) and the
/// page it was filling comes back short.
#[derive(Clone, Debug, Default)]
pub struct CancellationToken(Arc<AtomicBool>);

impl CancellationToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trip the flag. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether [`CancellationToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A conjunctive query compiled and preprocessed once, owning everything it
/// needs to enumerate (`Arc`-shared database snapshot + compiled plan).
///
/// `Send + Sync`: wrap it in an `Arc` and hand out [`AnswerCursor`]s to as
/// many threads as needed — enumeration state lives entirely inside each
/// cursor, so concurrent sessions never perturb each other's ranked order.
pub struct PreparedQuery {
    db: Arc<Database>,
    query: ConjunctiveQuery,
    ranking: RankingFunction,
    plan: Plan,
}

impl PreparedQuery {
    /// Compile and preprocess `query` over `db` under `ranking`.
    ///
    /// This is the expensive step (the paper's TTF preprocessing: join-tree
    /// selection or cycle decomposition, T-DP compilation, bottom-up phase);
    /// everything after it — cursors, pages — is pure enumeration.
    pub fn prepare(
        db: Arc<Database>,
        query: &ConjunctiveQuery,
        ranking: RankingFunction,
    ) -> Result<Self, EngineError> {
        Self::build(db, query.clone(), ranking, &[], false)
    }

    /// Like [`PreparedQuery::prepare`], additionally retaining the
    /// bookkeeping that lets [`PreparedQuery::refresh`] patch the plan under
    /// a [`DeltaBatch`] instead of recompiling: `O(n)` tuple→state maps and
    /// kill flags, and a flat key table per join; the plan's successor CSR
    /// is the same one either way. Cycle plans and plans with selections
    /// (predicates or repeated variables) silently skip the bookkeeping —
    /// check [`PreparedQuery::supports_refresh`].
    pub fn prepare_delta(
        db: Arc<Database>,
        query: &ConjunctiveQuery,
        ranking: RankingFunction,
    ) -> Result<Self, EngineError> {
        Self::build(db, query.clone(), ranking, &[], true)
    }

    /// Compile and preprocess a [`QuerySpec`](anyk_query::QuerySpec):
    /// selection predicates reduce each constrained atom to the list of its
    /// rows that pass, and the plan compiles over those rows of `db`, so
    /// answers' witnesses name `db`'s tuples. The spec's
    /// execution attributes — `algorithm`, `limit` — are deliberately *not*
    /// baked in: a prepared plan is shared by every request with the same
    /// [`plan_key`](anyk_query::QuerySpec::plan_key), and sessions apply
    /// those attributes per cursor ([`PreparedQuery::cursor_with_limit`]).
    pub fn from_spec(db: Arc<Database>, spec: &anyk_query::QuerySpec) -> Result<Self, EngineError> {
        let query = spec.to_query()?;
        Self::build(db, query, spec.ranking, &spec.predicates, false)
    }

    /// [`PreparedQuery::from_spec`] with delta-maintenance bookkeeping; see
    /// [`PreparedQuery::prepare_delta`].
    pub fn from_spec_delta(
        db: Arc<Database>,
        spec: &anyk_query::QuerySpec,
    ) -> Result<Self, EngineError> {
        let query = spec.to_query()?;
        Self::build(db, query, spec.ranking, &spec.predicates, true)
    }

    /// Parse `text` in the query language and prepare it; see
    /// [`PreparedQuery::from_spec`].
    pub fn from_text(db: Arc<Database>, text: &str) -> Result<Self, EngineError> {
        Self::from_spec(db, &anyk_query::QuerySpec::parse(text)?)
    }

    fn build(
        db: Arc<Database>,
        query: ConjunctiveQuery,
        ranking: RankingFunction,
        predicates: &[anyk_query::Predicate],
        retain_delta: bool,
    ) -> Result<Self, EngineError> {
        let selection = crate::select::select(&db, &query, predicates)?;
        let plan = Plan::prepare(&db, &query, &selection, ranking, retain_delta)?;
        Ok(PreparedQuery {
            db,
            query,
            ranking,
            plan,
        })
    }

    /// Prepare with the default ranking ([`RankingFunction::SumAscending`]).
    pub fn new(db: Arc<Database>, query: &ConjunctiveQuery) -> Result<Self, EngineError> {
        Self::prepare(db, query, RankingFunction::SumAscending)
    }

    /// The shared database snapshot this plan was compiled over.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The query this plan answers.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The ranking function in effect.
    pub fn ranking(&self) -> RankingFunction {
        self.ranking
    }

    /// Whether the plan uses the cycle decomposition.
    pub fn is_decomposed(&self) -> bool {
        self.plan.is_decomposed()
    }

    /// The exact number of answers, computed without enumerating them.
    pub fn count_answers(&self) -> u128 {
        self.plan.count_answers()
    }

    /// Whether [`PreparedQuery::refresh`] can patch this plan under a
    /// [`DeltaBatch`]: compiled through [`PreparedQuery::prepare_delta`] /
    /// [`PreparedQuery::from_spec_delta`], acyclic, and free of selections
    /// (a selected plan compiles without the bookkeeping and recompiles on
    /// ingestion).
    pub fn supports_refresh(&self) -> bool {
        self.plan.supports_refresh()
    }

    /// Delta-maintain the plan: a **new** prepared query answering the same
    /// query over `new_db`, which must be this plan's snapshot plus `batch`
    /// (the output of
    /// [`Database::apply_delta`](anyk_storage::Database::apply_delta)).
    ///
    /// Only the dirty cone of the bottom-up phase is re-swept (see
    /// [`anyk_core::tdp::apply_patch`]); the ranked streams of the result
    /// are bit-identical to recompiling from scratch over `new_db`. The
    /// original plan is untouched — open cursors keep streaming their
    /// pinned snapshot (a hard requirement: cursors hold self-references
    /// into the plan, so prepared queries are never mutated in place).
    pub fn refresh(
        &self,
        new_db: Arc<Database>,
        batch: &DeltaBatch,
    ) -> Result<PreparedQuery, EngineError> {
        let plan = self.plan.refresh(&new_db, batch, self.ranking)?;
        Ok(PreparedQuery {
            db: new_db,
            query: self.query.clone(),
            ranking: self.ranking,
            plan,
        })
    }

    /// A decoder mapping this query's answers back to original strings
    /// (identity on raw-id columns); see [`crate::AnswerDecoder`]. Built
    /// over the plan's snapshot, so page decoding stays consistent even if
    /// the catalog the service started from is later replaced elsewhere.
    /// Selected plans read the snapshot's own columns, so the decoder is the
    /// same with and without predicates.
    pub fn decoder(&self) -> crate::AnswerDecoder {
        crate::AnswerDecoder::for_query(&self.db, &self.query)
    }

    /// Enumerate every answer exactly once, in rank order (the one-shot
    /// stream that paged cursors are guaranteed to reproduce bit-identically).
    pub fn enumerate(&self, algorithm: AnyKAlgorithm) -> Box<dyn AnswerStream + '_> {
        self.plan.enumerate(&self.db, algorithm, self.ranking)
    }

    /// Convenience: the top `k` answers as a vector.
    pub fn top_k(&self, algorithm: AnyKAlgorithm, k: usize) -> Vec<Answer> {
        self.enumerate(algorithm).take(k).collect()
    }

    /// MEM(k) profile; see [`crate::RankedQuery::mem_profile`].
    pub fn mem_profile(&self, algorithm: AnyKAlgorithm, k: usize) -> Option<MemoryStats> {
        self.plan.mem_profile(&self.db, algorithm, self.ranking, k)
    }

    /// Open a new enumeration cursor over this prepared query.
    ///
    /// Requires `&Arc<Self>` (not `&self`): the cursor keeps the prepared
    /// query alive for as long as it exists, which is what makes it an
    /// independent, storable session — drop the service's other handles and
    /// the cursor still enumerates.
    pub fn cursor(self: &Arc<Self>, algorithm: AnyKAlgorithm) -> AnswerCursor {
        AnswerCursor::new(Arc::clone(self), algorithm, None)
    }

    /// Like [`PreparedQuery::cursor`], but the stream ends after `limit`
    /// answers (a spec's `limit N` clause, applied per session so the
    /// compiled plan stays shareable across different limits). `None` means
    /// unlimited.
    pub fn cursor_with_limit(
        self: &Arc<Self>,
        algorithm: AnyKAlgorithm,
        limit: Option<usize>,
    ) -> AnswerCursor {
        AnswerCursor::new(Arc::clone(self), algorithm, limit)
    }
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("query", &self.query.to_string())
            .field("ranking", &self.ranking)
            .field("decomposed", &self.is_decomposed())
            .finish()
    }
}

/// One page of ranked answers pulled from an [`AnswerCursor`].
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    /// The answers, in global rank order (continuing from the previous
    /// page's last answer).
    pub answers: Vec<Answer>,
    /// True when the stream is exhausted: this page is short (fewer than the
    /// requested `page_size` answers, possibly zero).
    pub done: bool,
}

/// A resumable enumeration session over a [`PreparedQuery`].
///
/// The cursor owns the live any-k iterator — candidate priority queue,
/// shared-prefix arena, successor structures (or branch streams / the union
/// heap for `Recursive` / cycle plans) — plus an `Arc` on the prepared query
/// that keeps the compiled plan alive. Between [`AnswerCursor::next_page`]
/// calls the iterator simply sits in memory: suspension and resumption are
/// free and cannot change the stream. A page allocates its `Vec` of answers
/// (nothing, with [`AnswerCursor::next_page_into`] and a reused buffer); an
/// answer itself allocates only its core solution's state vector, since
/// [`Answer`] stores up to eight values and witness entries inline.
///
/// `Send`: a suspended cursor may migrate across threads (e.g. live in a
/// session registry served by a thread pool).
pub struct AnswerCursor {
    // Field order is load-bearing: `iter` borrows from the heap allocation
    // behind `owner` and must be dropped first (fields drop in declaration
    // order).
    iter: Box<dyn AnswerStream + 'static>,
    algorithm: AnyKAlgorithm,
    served: usize,
    /// Answers still allowed before the session's `limit` cuts the stream
    /// (`None` = unlimited).
    remaining: Option<usize>,
    done: bool,
    cancel: CancellationToken,
    /// Set once a page pull observed the tripped token and stopped early.
    cancelled: bool,
    /// Delay instrumentation (`None` when recording is switched off, see
    /// [`anyk_obs::set_recording`]): a counter increment per answer, one
    /// clock read per stride of [`anyk_obs::record::STRIDE`] answers and
    /// at each end of a page pull, flushed to shared per-plan histograms at
    /// page boundaries.
    recorder: Option<Box<DelayRecorder>>,
    owner: Arc<PreparedQuery>,
}

impl AnswerCursor {
    fn new(owner: Arc<PreparedQuery>, algorithm: AnyKAlgorithm, limit: Option<usize>) -> Self {
        let iter: Box<dyn AnswerStream + '_> = owner.enumerate(algorithm);
        // SAFETY: `iter` borrows only from the `PreparedQuery` behind
        // `owner` — its plan, and the database snapshot its `Arc` field
        // keeps alive. That pointee never moves and is never mutated:
        // `PreparedQuery` has no interior mutability that could invalidate
        // either, both plain fields of it. The cursor stores
        // `owner` next to `iter`, never hands the iterator out, and its
        // field order drops `iter` before `owner`, so the borrow outlives
        // every use and the `'static` lifetime is a private fiction that
        // cannot escape.
        let iter: Box<dyn AnswerStream + 'static> = unsafe { std::mem::transmute(iter) };
        let recorder = anyk_obs::recording_enabled().then(|| {
            Box::new(DelayRecorder::new(
                Arc::new(MonotonicClock::new()) as Arc<dyn Clock>,
                None,
            ))
        });
        AnswerCursor {
            iter,
            algorithm,
            served: 0,
            remaining: limit,
            done: limit == Some(0),
            cancel: CancellationToken::new(),
            cancelled: false,
            recorder,
            owner,
        }
    }

    /// The prepared query this cursor enumerates.
    pub fn prepared(&self) -> &Arc<PreparedQuery> {
        &self.owner
    }

    /// The any-k algorithm driving this cursor.
    pub fn algorithm(&self) -> AnyKAlgorithm {
        self.algorithm
    }

    /// Answers served so far across all pages.
    pub fn served(&self) -> usize {
        self.served
    }

    /// True once the stream has been exhausted.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The cursor's cancellation token. Clone it and call
    /// [`CancellationToken::cancel`] from any thread to make the next (or
    /// in-flight) page pull stop between answers.
    pub fn cancel_token(&self) -> &CancellationToken {
        &self.cancel
    }

    /// True once a page pull observed a tripped [`CancellationToken`] and
    /// ended the stream early (distinct from natural exhaustion, which
    /// leaves this `false` even though [`AnswerCursor::is_done`] is true).
    pub fn is_cancelled(&self) -> bool {
        self.cancelled
    }

    /// The live MEM(k) footprint of the enumeration structures behind this
    /// cursor — candidate queues, shared-prefix arenas, successor-structure
    /// tables, summed over decomposition trees for cycle plans. `None` for
    /// `Recursive` and `Batch`, whose memory is not organised in these
    /// structures (see [`PreparedQuery::mem_profile`]).
    pub fn memory_stats(&self) -> Option<MemoryStats> {
        self.iter.live_mem()
    }

    /// Replace the cursor's delay instrumentation: record against `clock`
    /// (the service's injectable clock, so `ManualClock` tests script exact
    /// delays) and flush into `plan`'s shared per-plan histograms at page
    /// boundaries. The TTF reference point is *this call*, so attach before
    /// the first page pull. Respects the process-wide recording switch —
    /// a no-op (clearing any default recorder) when recording is off.
    pub fn enable_recording(&mut self, clock: Arc<dyn Clock>, plan: Option<Arc<PlanObs>>) {
        self.recorder =
            anyk_obs::recording_enabled().then(|| Box::new(DelayRecorder::new(clock, plan)));
    }

    /// The inter-answer delay distribution recorded so far, one sample per
    /// answer served, in the shared log-bucketed histogram type (the first
    /// answer's delay is its TTF, matching
    /// [`anyk_core::metrics::EnumerationTrace`] semantics; a pull's first
    /// delay counts from the start of that pull). Answers are timed per
    /// stride, so the count and sum are exact and the percentiles are those
    /// of stride means. `None` when recording is switched off.
    pub fn delay_histogram(&self) -> Option<HistogramSnapshot> {
        self.recorder.as_deref().map(DelayRecorder::delays)
    }

    /// Nanoseconds from recorder attachment (cursor open, unless
    /// [`AnswerCursor::enable_recording`] re-armed it) to the first answer.
    /// `None` before the first answer or when recording is off.
    pub fn ttf_nanos(&self) -> Option<u64> {
        self.recorder.as_deref().and_then(DelayRecorder::ttf_nanos)
    }

    /// Pull the next page of up to `page_size` answers.
    pub fn next_page(&mut self, page_size: usize) -> Page {
        let mut answers = Vec::new();
        let done = self.next_page_into(page_size, &mut answers);
        Page { answers, done }
    }

    /// Pull the next page into `out` (cleared first), reusing its capacity —
    /// a steady-state client pays no per-page allocation. Returns `true`
    /// when the stream is exhausted (the page came back short).
    pub fn next_page_into(&mut self, page_size: usize, out: &mut Vec<Answer>) -> bool {
        out.clear();
        if self.done {
            return true;
        }
        let quota = match self.remaining {
            Some(r) => page_size.min(r),
            None => page_size,
        };
        if let Some(r) = self.recorder.as_deref_mut() {
            r.begin_page();
        }
        while out.len() < quota {
            if self.cancel.is_cancelled() {
                self.cancelled = true;
                self.done = true;
                break;
            }
            anyk_core::faults::checkpoint("engine.page");
            match self.iter.next() {
                Some(answer) => {
                    if let Some(r) = self.recorder.as_deref_mut() {
                        r.observe_answer();
                    }
                    out.push(answer);
                }
                None => {
                    self.done = true;
                    break;
                }
            }
        }
        if let Some(r) = &mut self.remaining {
            *r -= out.len();
            if *r == 0 {
                self.done = true;
            }
        }
        self.served += out.len();
        // Page boundary: book the open stride and push this page's delay
        // counts to the shared per-plan histograms.
        if let Some(r) = self.recorder.as_deref_mut() {
            r.end_page();
        }
        self.done
    }
}

impl std::fmt::Debug for AnswerCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnswerCursor")
            .field("algorithm", &self.algorithm)
            .field("served", &self.served)
            .field("done", &self.done)
            .finish()
    }
}

// Compile-time guarantees for the service layer: prepared plans are shared
// across threads, cursors migrate between them.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<PreparedQuery>();
    assert_send::<AnswerCursor>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_query::QueryBuilder;
    use anyk_storage::Relation;

    fn path_db() -> Arc<Database> {
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
        Arc::new(db)
    }

    fn prepared() -> Arc<PreparedQuery> {
        let query = QueryBuilder::path(2).build();
        Arc::new(PreparedQuery::new(path_db(), &query).unwrap())
    }

    #[test]
    fn paged_stream_matches_one_shot_stream() {
        let p = prepared();
        let one_shot: Vec<Answer> = p.enumerate(AnyKAlgorithm::Take2).collect();
        for page_size in [1, 2, 3, 100] {
            let mut cursor = p.cursor(AnyKAlgorithm::Take2);
            let mut paged = Vec::new();
            loop {
                let page = cursor.next_page(page_size);
                paged.extend(page.answers);
                if page.done {
                    break;
                }
            }
            assert_eq!(paged, one_shot, "page size {page_size}");
            assert_eq!(cursor.served(), one_shot.len());
            assert!(cursor.is_done());
        }
    }

    #[test]
    fn oversized_page_finishes_in_one_pull() {
        let p = prepared();
        let mut cursor = p.cursor(AnyKAlgorithm::Lazy);
        let page = cursor.next_page(1000);
        assert_eq!(page.answers.len(), 3);
        assert!(page.done);
        // Pulling past the end is a stable no-op.
        let empty = cursor.next_page(10);
        assert!(empty.answers.is_empty());
        assert!(empty.done);
        assert_eq!(cursor.served(), 3);
    }

    #[test]
    fn zero_sized_page_is_a_probe() {
        let p = prepared();
        let mut cursor = p.cursor(AnyKAlgorithm::Eager);
        let page = cursor.next_page(0);
        assert!(page.answers.is_empty());
        assert!(!page.done, "a zero-sized page consumes nothing");
        assert_eq!(cursor.next_page(100).answers.len(), 3);
    }

    #[test]
    fn next_page_into_reuses_the_buffer() {
        let p = prepared();
        let mut cursor = p.cursor(AnyKAlgorithm::Recursive);
        let mut buf = Vec::with_capacity(2);
        assert!(!cursor.next_page_into(2, &mut buf));
        assert_eq!(buf.len(), 2);
        let cap = buf.capacity();
        assert!(cursor.next_page_into(2, &mut buf));
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.capacity(), cap, "no reallocation");
    }

    #[test]
    fn cursor_outlives_every_other_handle() {
        let mut cursor = {
            let p = prepared();
            p.cursor(AnyKAlgorithm::Take2)
        };
        // The Arc inside the cursor is now the only handle; enumeration
        // still works because the cursor keeps the plan alive.
        let page = cursor.next_page(10);
        assert_eq!(page.answers.len(), 3);
        assert_eq!(page.answers[0].weight(), 3.0);
    }

    #[test]
    fn cursor_can_move_between_threads_mid_stream() {
        let p = prepared();
        let mut cursor = p.cursor(AnyKAlgorithm::All);
        let first = cursor.next_page(1);
        let rest = std::thread::spawn(move || cursor.next_page(100))
            .join()
            .unwrap();
        let one_shot: Vec<Answer> = p.enumerate(AnyKAlgorithm::All).collect();
        let mut recombined = first.answers;
        recombined.extend(rest.answers);
        assert_eq!(recombined, one_shot);
    }

    #[test]
    fn cursor_records_exact_delays_on_manual_clock() {
        use anyk_obs::ManualClock;
        use std::time::Duration;

        let p = prepared();
        let clock = Arc::new(ManualClock::new());
        let plan = Arc::new(PlanObs::default());
        let mut cursor = p.cursor(AnyKAlgorithm::Take2);
        cursor.enable_recording(clock.clone() as Arc<dyn Clock>, Some(Arc::clone(&plan)));

        // The manual clock only moves between pages here (the expansion
        // loop itself reads a frozen clock), so the first page's three
        // answers arrive at delays 5ms, 0, 0.
        clock.advance(Duration::from_millis(5));
        let page = cursor.next_page(10);
        assert_eq!(page.answers.len(), 3);

        assert_eq!(cursor.ttf_nanos(), Some(5_000_000));
        let d = cursor.delay_histogram().expect("recording is on");
        assert_eq!(d.count(), 3);
        assert_eq!(d.sum(), 5_000_000);
        assert_eq!(d.max(), 5_000_000);

        // Page boundary flushed into the shared per-plan histograms.
        assert_eq!(plan.ttf.snapshot().count(), 1);
        let shared = plan.delay.snapshot();
        assert_eq!(shared.count(), 3);
        assert_eq!(shared.sum(), 5_000_000);
    }

    #[test]
    fn a_pulls_first_delay_counts_from_the_pull() {
        use anyk_obs::ManualClock;
        use std::time::Duration;

        let p = prepared();
        let clock = Arc::new(ManualClock::new());
        let plan = Arc::new(PlanObs::default());
        let mut cursor = p.cursor(AnyKAlgorithm::Lazy);
        cursor.enable_recording(clock.clone() as Arc<dyn Clock>, Some(Arc::clone(&plan)));

        clock.advance(Duration::from_millis(5));
        assert_eq!(cursor.next_page(1).answers.len(), 1);
        // Client think time plus a round trip between the two pulls.
        clock.advance(Duration::from_millis(7));
        assert_eq!(cursor.next_page(10).answers.len(), 2);

        assert_eq!(cursor.ttf_nanos(), Some(5_000_000), "TTF is unchanged");
        for d in [cursor.delay_histogram().unwrap(), plan.delay.snapshot()] {
            assert_eq!(d.count(), cursor.served() as u64);
            assert!(d.max() < 7_000_000, "the gap between pulls is no delay");
            assert_eq!(d.sum(), 5_000_000);
        }
    }

    #[test]
    fn recording_reads_the_clock_per_stride_not_per_answer() {
        use std::sync::atomic::AtomicU64;

        /// A clock that ticks once per read, so its reading is its count.
        #[derive(Debug, Default)]
        struct CountingClock(AtomicU64);
        impl Clock for CountingClock {
            fn now_nanos(&self) -> u64 {
                self.0.fetch_add(1, Ordering::Relaxed)
            }
        }

        // 40 × 40 answers through one join value.
        let mut db = Database::new();
        let mut r1 = Relation::new("R1", 2);
        let mut r2 = Relation::new("R2", 2);
        for i in 0..40 {
            r1.push_edge(i, 0, i as f64);
            r2.push_edge(0, i, i as f64 * 40.0);
        }
        db.add(r1);
        db.add(r2);
        let query = QueryBuilder::path(2).build();
        let p = Arc::new(PreparedQuery::new(Arc::new(db), &query).unwrap());

        let clock = Arc::new(CountingClock::default());
        let mut cursor = p.cursor(AnyKAlgorithm::Lazy);
        cursor.enable_recording(clock.clone() as Arc<dyn Clock>, None);
        let (answers, pages) = (1000, 10);
        for _ in 0..pages {
            assert_eq!(
                cursor.next_page(answers / pages).answers.len(),
                answers / pages
            );
        }
        let stride = anyk_obs::record::STRIDE as usize;
        let bound = answers.div_ceil(stride) + 2 * pages + 1;
        let reads = clock.0.load(Ordering::Relaxed) as usize;
        assert!(reads <= bound, "{reads} clock reads, bound {bound}");
        assert_eq!(cursor.delay_histogram().unwrap().count(), answers as u64);
    }

    #[test]
    fn prepared_metadata_matches_ranked_query() {
        let db = path_db();
        let query = QueryBuilder::path(2).build();
        let p = PreparedQuery::prepare(Arc::clone(&db), &query, RankingFunction::SumDescending)
            .unwrap();
        assert_eq!(p.count_answers(), 3);
        assert!(!p.is_decomposed());
        assert_eq!(p.ranking(), RankingFunction::SumDescending);
        assert_eq!(p.query().to_string(), query.to_string());
        assert_eq!(p.top_k(AnyKAlgorithm::Take2, 1)[0].weight(), 11.0);
    }
}
