//! The user-facing ranked-enumeration API.

use crate::answer::Answer;
use crate::compile::{Assembler, Compiled};
use crate::cycle;
use crate::error::EngineError;
use crate::select::Selection;
use anyk_core::dioid::{Dioid, MinMaxDioid, OrderedF64, TropicalMin};
use anyk_core::tdp::NodeId;
use anyk_core::{
    ranked_enumerate, AnyKAlgorithm, AnyKPart, MemoryStats, RankedIter, SuccessorKind,
    UnionEnumerator,
};
use anyk_query::ConjunctiveQuery;
use anyk_query::RankingFunction;
use anyk_storage::{Database, DeltaBatch, RowRef};

/// A full conjunctive query prepared for ranked enumeration.
///
/// * Acyclic queries are compiled into a single T-DP instance (§5.1) with
///   `TTF = O(n)` pre-processing.
/// * Simple ℓ-cycle queries (ℓ ≥ 4) are decomposed into ℓ + 1 acyclic trees
///   (§5.3.1) whose ranked streams are merged by a UT-DP union (§5.2); the
///   pre-processing is `O(n^{2−2/ℓ})`, matching the best known bound for the
///   Boolean version of the query.
/// * Other cyclic queries are rejected with
///   [`EngineError::UnsupportedCyclicQuery`]; they can still be evaluated
///   through [`crate::wcoj`] followed by sorting (without the any-k
///   guarantees).
///
/// ```
/// use anyk_engine::{RankedQuery, RankingFunction};
/// use anyk_core::AnyKAlgorithm;
/// use anyk_query::QueryBuilder;
/// use anyk_storage::{Database, Relation};
///
/// let mut db = Database::new();
/// let mut r1 = Relation::new("R1", 2);
/// r1.push_edge(1, 10, 1.0);
/// r1.push_edge(2, 20, 4.0);
/// let mut r2 = Relation::new("R2", 2);
/// r2.push_edge(10, 5, 2.0);
/// r2.push_edge(20, 6, 1.0);
/// db.add(r1);
/// db.add(r2);
///
/// let query = QueryBuilder::path(2).build();
/// let prepared = RankedQuery::new(&db, &query).unwrap();
/// let top: Vec<_> = prepared.enumerate(AnyKAlgorithm::Take2).collect();
/// assert_eq!(top[0].weight(), 3.0);
/// assert_eq!(top[0].values(), &[1, 10, 5]);
/// ```
///
/// Queries with **selections** — predicates from a
/// [`QuerySpec`](anyk_query::QuerySpec) (see [`RankedQuery::from_spec`] /
/// [`RankedQuery::from_text`]) or repeated variables within an atom
/// (`R(x, x)`) — first reduce each constrained atom to the list of its rows
/// that pass (§2.1's linear-time preprocessing, the `select` module). The
/// plan is compiled over those rows of the borrowed database, so every
/// answer's witness names the borrowed database's tuples.
pub struct RankedQuery<'a> {
    db: &'a Database,
    query: ConjunctiveQuery,
    ranking: RankingFunction,
    /// Stop enumeration after this many answers (from the spec's `limit`).
    limit: Option<usize>,
    plan: Plan,
}

/// A ranked stream of assembled [`Answer`]s that can also report the live
/// MEM(k) footprint of the enumeration structures driving it.
///
/// This is what [`RankedQuery::enumerate`] and
/// [`PreparedQuery::enumerate`](crate::PreparedQuery::enumerate) hand back:
/// a plain `Iterator<Item = Answer> + Send`, plus [`AnswerStream::live_mem`]
/// so a serving layer can charge each suspended cursor's *actual* resident
/// footprint against a memory budget instead of re-profiling from scratch.
pub trait AnswerStream: Iterator<Item = Answer> + Send {
    /// A MEM(k) snapshot of the stream's current data structures —
    /// candidate queue, shared-prefix arena, successor structures —
    /// summed across the trees of a cycle decomposition. `None` for
    /// algorithms that do not organise memory this way (`Recursive`,
    /// `Batch`). Constant time per tree (see
    /// [`anyk_core::SolutionStream::live_mem`]).
    fn live_mem(&self) -> Option<MemoryStats> {
        None
    }
}

/// Acyclic plan stream: core solutions assembled into answers.
struct AssembleStream<'s, D: Dioid<V = OrderedF64>> {
    inner: RankedIter<'s, D>,
    assembler: Assembler<'s, D>,
    ranking: RankingFunction,
}

impl<D: Dioid<V = OrderedF64>> Iterator for AssembleStream<'_, D> {
    type Item = Answer;
    fn next(&mut self) -> Option<Answer> {
        let sol = self.inner.next()?;
        let weight = self.ranking.decode(sol.weight.get());
        Some(self.assembler.assemble(&sol.states, weight))
    }
}

impl<D: Dioid<V = OrderedF64>> AnswerStream for AssembleStream<'_, D> {
    fn live_mem(&self) -> Option<MemoryStats> {
        self.inner.live_mem()
    }
}

/// One source of a cycle-union stream: a decomposition tree's ranked
/// solutions as `(encoded weight, (tree index, states))`. The union moves
/// these small items through its heap and assembles only the answer it
/// emits.
struct TreeSource<'s, D: Dioid<V = OrderedF64>> {
    inner: RankedIter<'s, D>,
    tree: usize,
}

impl<D: Dioid<V = OrderedF64>> Iterator for TreeSource<'_, D> {
    type Item = (OrderedF64, (usize, Vec<NodeId>));
    fn next(&mut self) -> Option<Self::Item> {
        let sol = self.inner.next()?;
        Some((sol.weight, (self.tree, sol.states)))
    }
}

/// Cycle plan stream: the ranked union over the decomposition trees, each
/// tree's answers assembled with the head values in the original query's
/// head order. Witnesses reference bag tuples, not original input tuples,
/// so none are kept.
struct CycleStream<'s, D: Dioid<V = OrderedF64>> {
    union: UnionEnumerator<OrderedF64, (usize, Vec<NodeId>), TreeSource<'s, D>>,
    /// One per tree, indexed by [`TreeSource::tree`].
    assemblers: Vec<Assembler<'s, D>>,
    ranking: RankingFunction,
}

impl<D: Dioid<V = OrderedF64>> Iterator for CycleStream<'_, D> {
    type Item = Answer;
    fn next(&mut self) -> Option<Answer> {
        let (key, (tree, states)) = self.union.next()?;
        let weight = self.ranking.decode(key.get());
        Some(self.assemblers[tree].assemble(&states, weight))
    }
}

impl<D: Dioid<V = OrderedF64>> AnswerStream for CycleStream<'_, D> {
    fn live_mem(&self) -> Option<MemoryStats> {
        let mut total = MemoryStats::default();
        let mut any = false;
        for source in self.union.sources() {
            if let Some(m) = source.inner.live_mem() {
                total.absorb(&m);
                any = true;
            }
        }
        any.then_some(total)
    }
}

/// A stream truncated after `remaining` answers (a spec's `limit`),
/// forwarding MEM(k) reporting to the inner stream.
pub(crate) struct LimitStream<I> {
    pub(crate) inner: I,
    pub(crate) remaining: usize,
}

impl<I: Iterator<Item = Answer>> Iterator for LimitStream<I> {
    type Item = Answer;
    fn next(&mut self) -> Option<Answer> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.inner.next()
    }
}

impl<I: AnswerStream> AnswerStream for LimitStream<I> {
    fn live_mem(&self) -> Option<MemoryStats> {
        self.inner.live_mem()
    }
}

impl<S: AnswerStream + ?Sized> AnswerStream for Box<S> {
    fn live_mem(&self) -> Option<MemoryStats> {
        (**self).live_mem()
    }
}

/// One tree of a cycle decomposition, compiled and ready to enumerate.
pub(crate) struct CycleTreePlan<D: Dioid<V = OrderedF64>> {
    /// The materialised bag relations (owned by the plan).
    database: Database,
    compiled: Compiled<D>,
    /// `head_perm[i]` = position of the i-th *original* head variable within
    /// the tree query's head variables.
    head_perm: Vec<usize>,
}

/// A fully compiled execution plan, decoupled from how the database and
/// query are owned: [`RankedQuery`] borrows them, [`crate::PreparedQuery`]
/// owns them (`Arc`-shared database). The plan itself owns every compiled
/// T-DP instance (bottom-up phase already run), so enumeration never goes
/// back to preprocessing.
pub(crate) enum Plan {
    AcyclicSum(Compiled<TropicalMin>),
    AcyclicBottleneck(Compiled<MinMaxDioid>),
    CycleSum(Vec<CycleTreePlan<TropicalMin>>),
    CycleBottleneck(Vec<CycleTreePlan<MinMaxDioid>>),
}

impl Plan {
    /// Compile `query` over the rows of `db` that `selection` lists, under
    /// `ranking` (validation, join-tree / cycle-decomposition selection,
    /// T-DP compilation, bottom-up phase). `retain_delta` keeps the delta
    /// bookkeeping of [`crate::compile::compile_with_opts`] in acyclic plans
    /// over every row, enabling [`Plan::refresh`] at the cost of one extra
    /// CSR copy plus `O(n)` tuple→state maps (cycle plans and selected plans
    /// ignore the flag — they recompile on ingestion).
    pub(crate) fn prepare(
        db: &Database,
        query: &ConjunctiveQuery,
        selection: &Selection,
        ranking: RankingFunction,
        retain_delta: bool,
    ) -> Result<Self, EngineError> {
        anyk_core::faults::check("engine.compile")?;
        let _span = anyk_obs::phase::span(anyk_obs::Phase::Compile);
        crate::compile::validate(db, query)?;
        if query.is_acyclic() {
            if ranking.is_bottleneck() {
                let c = crate::compile::compile_with_opts::<MinMaxDioid, _>(
                    db,
                    query,
                    selection,
                    |t| ranking.encode(t.weight()),
                    retain_delta,
                )?;
                Ok(Plan::AcyclicBottleneck(c))
            } else {
                let c = crate::compile::compile_with_opts::<TropicalMin, _>(
                    db,
                    query,
                    selection,
                    |t| ranking.encode(t.weight()),
                    retain_delta,
                )?;
                Ok(Plan::AcyclicSum(c))
            }
        } else {
            let combine = ranking.combine_fn();
            let trees = cycle::decompose(db, query, selection, |w| ranking.encode(w), combine)?;
            let original_head = query.head_variables();
            if ranking.is_bottleneck() {
                Ok(Plan::CycleBottleneck(Self::compile_trees::<MinMaxDioid>(
                    trees,
                    &original_head,
                )?))
            } else {
                Ok(Plan::CycleSum(Self::compile_trees::<TropicalMin>(
                    trees,
                    &original_head,
                )?))
            }
        }
    }

    fn compile_trees<D: Dioid<V = OrderedF64>>(
        trees: Vec<cycle::DecomposedTree>,
        original_head: &[String],
    ) -> Result<Vec<CycleTreePlan<D>>, EngineError> {
        trees
            .into_iter()
            .map(|tree| {
                // Bag weights are already encoded by the decomposition.
                let compiled = crate::compile::compile_with::<D, _>(
                    &tree.database,
                    &tree.query,
                    |t: RowRef<'_>| t.weight(),
                )?;
                let tree_head = tree.query.head_variables();
                let head_perm = original_head
                    .iter()
                    .map(|v| {
                        tree_head.iter().position(|x| x == v).ok_or_else(|| {
                            EngineError::Internal(format!(
                                "cycle decomposition lost head variable `{v}`"
                            ))
                        })
                    })
                    .collect::<Result<_, _>>()?;
                Ok(CycleTreePlan {
                    database: tree.database,
                    compiled,
                    head_perm,
                })
            })
            .collect()
    }

    /// Whether the plan uses the cycle decomposition.
    pub(crate) fn is_decomposed(&self) -> bool {
        matches!(self, Plan::CycleSum(_) | Plan::CycleBottleneck(_))
    }

    /// Whether [`Plan::refresh`] can patch this plan in place (acyclic and
    /// compiled with delta support).
    pub(crate) fn supports_refresh(&self) -> bool {
        match self {
            Plan::AcyclicSum(c) => c.supports_refresh(),
            Plan::AcyclicBottleneck(c) => c.supports_refresh(),
            Plan::CycleSum(_) | Plan::CycleBottleneck(_) => false,
        }
    }

    /// Delta-maintain the plan: produce a new plan answering the same query
    /// over `new_db`, which must be the plan's snapshot plus `batch` (see
    /// [`crate::refresh`]). Returns the refreshed plan and the core patch
    /// statistics (how local the dirty-cone re-sweep was).
    pub(crate) fn refresh(
        &self,
        new_db: &Database,
        batch: &DeltaBatch,
        ranking: RankingFunction,
    ) -> Result<(Self, anyk_core::tdp::PatchStats), EngineError> {
        anyk_core::faults::check("engine.refresh")?;
        let _span = anyk_obs::phase::span(anyk_obs::Phase::Refresh);
        match self {
            Plan::AcyclicSum(c) => {
                let (c, stats) =
                    crate::refresh::refresh_compiled(c, new_db, batch, &|w| ranking.encode(w))?;
                Ok((Plan::AcyclicSum(c), stats))
            }
            Plan::AcyclicBottleneck(c) => {
                let (c, stats) =
                    crate::refresh::refresh_compiled(c, new_db, batch, &|w| ranking.encode(w))?;
                Ok((Plan::AcyclicBottleneck(c), stats))
            }
            Plan::CycleSum(_) | Plan::CycleBottleneck(_) => Err(EngineError::RefreshUnsupported(
                "cycle-decomposed plans are rebuilt from their bag databases".into(),
            )),
        }
    }

    /// The exact number of answers, without enumerating them.
    pub(crate) fn count_answers(&self) -> u128 {
        match self {
            Plan::AcyclicSum(c) => c.instance.count_solutions(),
            Plan::AcyclicBottleneck(c) => c.instance.count_solutions(),
            Plan::CycleSum(trees) => trees
                .iter()
                .map(|t| t.compiled.instance.count_solutions())
                .sum(),
            Plan::CycleBottleneck(trees) => trees
                .iter()
                .map(|t| t.compiled.instance.count_solutions())
                .sum(),
        }
    }

    /// Enumerate every answer exactly once, in rank order. `db` must be the
    /// database the plan was prepared over (used only to resolve witness
    /// tuples into head values for acyclic plans; cycle plans carry their
    /// own bag databases).
    ///
    /// The returned stream is `Send` and retains all enumeration state
    /// (candidate queues, prefix arenas, branch streams, the union heap)
    /// between `next()` calls, so it can be suspended in a session table
    /// and resumed on any thread without perturbing the stream; its
    /// [`AnswerStream::live_mem`] reports the structures' current MEM(k).
    pub(crate) fn enumerate<'s>(
        &'s self,
        db: &'s Database,
        algorithm: AnyKAlgorithm,
        ranking: RankingFunction,
    ) -> Box<dyn AnswerStream + 's> {
        match self {
            Plan::AcyclicSum(c) => Self::enumerate_acyclic(db, c, algorithm, ranking),
            Plan::AcyclicBottleneck(c) => Self::enumerate_acyclic(db, c, algorithm, ranking),
            Plan::CycleSum(trees) => Self::enumerate_cycle(trees, algorithm, ranking),
            Plan::CycleBottleneck(trees) => Self::enumerate_cycle(trees, algorithm, ranking),
        }
    }

    /// See [`RankedQuery::mem_profile`].
    pub(crate) fn mem_profile(&self, algorithm: AnyKAlgorithm, k: usize) -> Option<MemoryStats> {
        let kind = match algorithm {
            AnyKAlgorithm::Eager => SuccessorKind::Eager,
            AnyKAlgorithm::Lazy => SuccessorKind::Lazy,
            AnyKAlgorithm::All => SuccessorKind::All,
            AnyKAlgorithm::Take2 => SuccessorKind::Take2,
            AnyKAlgorithm::Recursive | AnyKAlgorithm::Batch => return None,
        };

        fn profile_one<D: Dioid>(c: &Compiled<D>, kind: SuccessorKind, k: usize) -> MemoryStats {
            let mut part = AnyKPart::new(&c.instance, kind);
            while part.emitted() < k && part.next().is_some() {}
            part.memory_stats()
        }

        let mut total = MemoryStats::default();
        match self {
            Plan::AcyclicSum(c) => total.absorb(&profile_one(c, kind, k)),
            Plan::AcyclicBottleneck(c) => total.absorb(&profile_one(c, kind, k)),
            Plan::CycleSum(trees) => {
                for t in trees {
                    total.absorb(&profile_one(&t.compiled, kind, k));
                }
            }
            Plan::CycleBottleneck(trees) => {
                for t in trees {
                    total.absorb(&profile_one(&t.compiled, kind, k));
                }
            }
        }
        Some(total)
    }

    fn enumerate_acyclic<'s, D: Dioid<V = OrderedF64>>(
        db: &'s Database,
        compiled: &'s Compiled<D>,
        algorithm: AnyKAlgorithm,
        ranking: RankingFunction,
    ) -> Box<dyn AnswerStream + 's> {
        Box::new(AssembleStream {
            inner: ranked_enumerate(&compiled.instance, algorithm),
            assembler: Assembler::new(compiled, db),
            ranking,
        })
    }

    fn enumerate_cycle<'s, D: Dioid<V = OrderedF64>>(
        trees: &'s [CycleTreePlan<D>],
        algorithm: AnyKAlgorithm,
        ranking: RankingFunction,
    ) -> Box<dyn AnswerStream + 's> {
        // One ranked source per decomposition tree; the partitions are
        // disjoint (§5.3.1), so the union needs no duplicate elimination.
        let sources: Vec<TreeSource<'s, D>> = trees
            .iter()
            .enumerate()
            .map(|(tree, plan)| TreeSource {
                inner: ranked_enumerate(&plan.compiled.instance, algorithm),
                tree,
            })
            .collect();
        let assemblers = trees
            .iter()
            .map(|plan| Assembler::new(&plan.compiled, &plan.database).permuted(&plan.head_perm))
            .collect();
        Box::new(CycleStream {
            union: UnionEnumerator::new(sources),
            assemblers,
            ranking,
        })
    }
}

impl<'a> RankedQuery<'a> {
    /// Prepare `query` over `db` with the default ranking
    /// ([`RankingFunction::SumAscending`]).
    pub fn new(db: &'a Database, query: &ConjunctiveQuery) -> Result<Self, EngineError> {
        Self::with_ranking(db, query, RankingFunction::SumAscending)
    }

    /// Prepare `query` over `db` with an explicit ranking function.
    pub fn with_ranking(
        db: &'a Database,
        query: &ConjunctiveQuery,
        ranking: RankingFunction,
    ) -> Result<Self, EngineError> {
        Self::build(db, query.clone(), ranking, &[], None)
    }

    /// Prepare a [`QuerySpec`](anyk_query::QuerySpec) over `db`: selection
    /// predicates reduce each constrained atom to a list of its rows before
    /// compilation, and the spec's `limit` (if any) caps
    /// [`RankedQuery::enumerate`]. The spec's `algorithm` pin, being a
    /// per-enumeration choice, is left to the caller (read it from
    /// `spec.algorithm`).
    pub fn from_spec(db: &'a Database, spec: &anyk_query::QuerySpec) -> Result<Self, EngineError> {
        let query = spec.to_query()?;
        Self::build(db, query, spec.ranking, &spec.predicates, spec.limit)
    }

    /// Parse `text` in the query language and prepare it; see
    /// [`RankedQuery::from_spec`] and [`anyk_query::parse`] for the grammar.
    pub fn from_text(db: &'a Database, text: &str) -> Result<Self, EngineError> {
        Self::from_spec(db, &anyk_query::QuerySpec::parse(text)?)
    }

    fn build(
        db: &'a Database,
        query: ConjunctiveQuery,
        ranking: RankingFunction,
        predicates: &[anyk_query::Predicate],
        limit: Option<usize>,
    ) -> Result<Self, EngineError> {
        let selection = crate::select::select(db, &query, predicates)?;
        let plan = Plan::prepare(db, &query, &selection, ranking, false)?;
        Ok(RankedQuery {
            db,
            query,
            ranking,
            limit,
            plan,
        })
    }

    /// The query this plan answers.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The result limit carried over from the spec, if any.
    pub fn limit(&self) -> Option<usize> {
        self.limit
    }

    /// The ranking function in effect.
    pub fn ranking(&self) -> RankingFunction {
        self.ranking
    }

    /// A decoder mapping this query's answers back to original strings
    /// (identity on raw-id columns). Built over the plan's database and
    /// query — selected plans read that database's columns, and decomposed
    /// cycle plans emit original column ids reordered into the query's head
    /// order, so one decoder covers every plan shape.
    pub fn decoder(&self) -> crate::AnswerDecoder {
        crate::AnswerDecoder::for_query(self.db, &self.query)
    }

    /// Whether the plan uses the cycle decomposition (as opposed to a single
    /// acyclic T-DP instance).
    pub fn is_decomposed(&self) -> bool {
        self.plan.is_decomposed()
    }

    /// The exact number of answers [`RankedQuery::enumerate`] will produce,
    /// computed without enumerating them (stage-wise counting over the
    /// compiled instances, capped by the spec's limit when one is set).
    pub fn count_answers(&self) -> u128 {
        let n = self.plan.count_answers();
        match self.limit {
            Some(l) => n.min(l as u128),
            None => n,
        }
    }

    /// Enumerate every answer exactly once, in rank order, with the chosen
    /// any-k algorithm (stopping at the spec's limit when one is set).
    pub fn enumerate(&self, algorithm: AnyKAlgorithm) -> Box<dyn AnswerStream + '_> {
        let iter = self.plan.enumerate(self.db, algorithm, self.ranking);
        match self.limit {
            Some(l) => Box::new(LimitStream {
                inner: iter,
                remaining: l,
            }),
            None => iter,
        }
    }

    /// Convenience: the top `k` answers as a vector.
    pub fn top_k(&self, algorithm: AnyKAlgorithm, k: usize) -> Vec<Answer> {
        self.enumerate(algorithm).take(k).collect()
    }

    /// Run the anyK-part variant `algorithm` until `k` results (or
    /// exhaustion) and report the MEM(k) footprint of its data structures —
    /// candidate queue, shared-prefix arena, and successor-structure table.
    ///
    /// For a cycle plan the footprint is summed over the decomposition trees,
    /// each enumerated to `k` on its own — an upper bound on what the union
    /// enumerator would have touched. Returns `None` for `Recursive` and
    /// `Batch`, whose memory is not organised in these structures.
    pub fn mem_profile(&self, algorithm: AnyKAlgorithm, k: usize) -> Option<MemoryStats> {
        self.plan.mem_profile(algorithm, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_query::QueryBuilder;
    use anyk_storage::{Relation, Value};

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

    /// Worst-case 4-cycle construction of §7: (0, i) and (i, 0) tuples.
    fn cycle_db(n: u64) -> Database {
        let mut db = Database::new();
        for i in 1..=4 {
            let mut r = Relation::new(format!("R{i}"), 2);
            for j in 1..=n / 2 {
                r.push_edge(0, j, (i as f64) + (j as f64) / 10.0);
                r.push_edge(j, 0, (i as f64) * 2.0 + (j as f64) / 10.0);
            }
            db.add(r);
        }
        db
    }

    #[test]
    fn acyclic_enumeration_in_ascending_order() {
        let db = path_db();
        let q = QueryBuilder::path(2).build();
        let rq = RankedQuery::new(&db, &q).unwrap();
        assert!(!rq.is_decomposed());
        assert_eq!(rq.count_answers(), 3);
        let all: Vec<Answer> = rq.enumerate(AnyKAlgorithm::Take2).collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].weight(), 3.0);
        assert_eq!(all[0].values(), &[1, 10, 5]);
        for w in all.windows(2) {
            assert!(w[0].weight() <= w[1].weight());
        }
    }

    #[test]
    fn descending_ranking_reverses_order() {
        let db = path_db();
        let q = QueryBuilder::path(2).build();
        let asc = RankedQuery::new(&db, &q).unwrap();
        let desc = RankedQuery::with_ranking(&db, &q, RankingFunction::SumDescending).unwrap();
        let a: Vec<f64> = asc
            .enumerate(AnyKAlgorithm::Lazy)
            .map(|x| x.weight())
            .collect();
        let d: Vec<f64> = desc
            .enumerate(AnyKAlgorithm::Lazy)
            .map(|x| x.weight())
            .collect();
        let mut a_rev = a.clone();
        a_rev.reverse();
        assert_eq!(a_rev, d);
    }

    #[test]
    fn bottleneck_ranking_minimises_maximum_tuple_weight() {
        let db = path_db();
        let q = QueryBuilder::path(2).build();
        let rq = RankedQuery::with_ranking(&db, &q, RankingFunction::BottleneckAscending).unwrap();
        let all: Vec<Answer> = rq.enumerate(AnyKAlgorithm::Take2).collect();
        // Bottlenecks: (1,10)+(10,5): max(1,2)=2; (2,20)+(20,6): max(4,1)=4;
        // (3,10)+(10,5): max(9,2)=9.
        assert_eq!(
            all.iter().map(Answer::weight).collect::<Vec<_>>(),
            vec![2.0, 4.0, 9.0]
        );
    }

    #[test]
    fn all_algorithms_agree_on_acyclic_queries() {
        let db = path_db();
        let q = QueryBuilder::path(2).build();
        let rq = RankedQuery::new(&db, &q).unwrap();
        let reference: Vec<Vec<Value>> = rq
            .enumerate(AnyKAlgorithm::Batch)
            .map(|a| a.values().to_vec())
            .collect();
        for alg in AnyKAlgorithm::ALL {
            let got: Vec<Vec<Value>> = rq.enumerate(alg).map(|a| a.values().to_vec()).collect();
            assert_eq!(got, reference, "algorithm {alg}");
        }
    }

    #[test]
    fn four_cycle_is_decomposed_and_ranked() {
        let db = cycle_db(8);
        let q = QueryBuilder::cycle(4).build();
        let rq = RankedQuery::new(&db, &q).unwrap();
        assert!(rq.is_decomposed());
        let answers: Vec<Answer> = rq.enumerate(AnyKAlgorithm::Take2).collect();
        assert!(!answers.is_empty());
        // Ranked order.
        for w in answers.windows(2) {
            assert!(w[0].weight() <= w[1].weight() + 1e-9);
        }
        // Same multiset of answers from every algorithm.
        let mut reference: Vec<(Vec<Value>, i64)> = answers
            .iter()
            .map(|a| (a.values().to_vec(), (a.weight() * 1000.0).round() as i64))
            .collect();
        reference.sort();
        for alg in AnyKAlgorithm::ALL {
            let mut got: Vec<(Vec<Value>, i64)> = rq
                .enumerate(alg)
                .map(|a| (a.values().to_vec(), (a.weight() * 1000.0).round() as i64))
                .collect();
            got.sort();
            assert_eq!(got, reference, "algorithm {alg}");
        }
    }

    #[test]
    fn triangle_query_is_rejected() {
        let mut db = Database::new();
        for i in 1..=3 {
            let mut r = Relation::new(format!("R{i}"), 2);
            r.push_edge(1, 2, 1.0);
            db.add(r);
        }
        let q = QueryBuilder::cycle(3).build();
        assert!(matches!(
            RankedQuery::new(&db, &q),
            Err(EngineError::UnsupportedCyclicQuery(_))
        ));
    }
}
