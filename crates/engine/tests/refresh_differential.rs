//! Differential suite for delta maintenance: a plan refreshed under a
//! [`DeltaBatch`] must be indistinguishable from recompiling from scratch
//! over the post-delta database — **bit-identical ranked streams** (same
//! weights, same values, same witnesses, same order) across all six any-k
//! algorithms. Weights are random and distinct, so the ranked order is
//! unique and the comparison is exact, not modulo ties.

use anyk_core::AnyKAlgorithm;
use anyk_engine::{PreparedQuery, RankingFunction};
use anyk_query::{ConjunctiveQuery, QueryBuilder};
use anyk_storage::{Database, DeltaBatch, Relation, Tuple, Value};
use std::collections::HashSet;
use std::sync::Arc;

/// Deterministic xorshift64* so failures reproduce.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A source of random weights that are globally distinct, so every ranked
/// stream has exactly one valid order.
struct Weights {
    rng: Rng,
    used: HashSet<u64>,
}

impl Weights {
    fn new(seed: u64) -> Self {
        Weights {
            rng: Rng::new(seed),
            used: HashSet::new(),
        }
    }

    fn next(&mut self) -> f64 {
        loop {
            let raw = self.rng.below(1 << 40);
            if self.used.insert(raw) {
                return raw as f64 / 1024.0;
            }
        }
    }
}

fn path_db(weights: &mut Weights, len: usize, per_relation: usize, fanout: u64) -> Database {
    let mut db = Database::new();
    let mut rng = Rng::new(weights.rng.next());
    for i in 1..=len {
        let mut r = Relation::new(format!("R{i}"), 2);
        for _ in 0..per_relation {
            r.push_edge(rng.below(fanout), rng.below(fanout), weights.next());
        }
        db.add(r);
    }
    db
}

fn star_db(weights: &mut Weights, arms: usize, per_relation: usize, fanout: u64) -> Database {
    let mut db = Database::new();
    let mut rng = Rng::new(weights.rng.next());
    for i in 1..=arms {
        let mut r = Relation::new(format!("R{i}"), 2);
        for _ in 0..per_relation {
            r.push_edge(rng.below(fanout), rng.below(fanout), weights.next());
        }
        db.add(r);
    }
    db
}

/// A random batch over `db`: for each relation, delete a few random tuples
/// and insert a few random ones (keys drawn from the same domain, so some
/// inserts join and some dangle).
fn random_batch(db: &Database, weights: &mut Weights, fanout: u64, edits: usize) -> DeltaBatch {
    let mut rng = Rng::new(weights.rng.next());
    let mut batch = DeltaBatch::new();
    for rel in db.relations() {
        let mut deleted = HashSet::new();
        for _ in 0..edits {
            if !rel.is_empty() {
                let tid = rng.below(rel.len() as u64) as usize;
                if deleted.insert(tid) {
                    batch = batch.delete(rel.name(), tid);
                }
            }
            batch = batch.insert(
                rel.name(),
                Tuple::new(
                    vec![rng.below(fanout) as Value, rng.below(fanout) as Value],
                    weights.next(),
                ),
            );
        }
    }
    batch
}

/// The heart of the suite: refresh must equal rebuild, answer for answer,
/// across every algorithm. Where consecutive answers tie on weight (routine
/// for bottleneck rankings, where the answer weight is one tuple's weight)
/// the tie class is compared as a set — both orders are valid ranked
/// streams, and a patched successor list may break the tie differently than
/// a rebuilt one. With distinct random weights the sum rankings never tie,
/// so there the comparison degenerates to exact bit-identity.
fn assert_streams_bit_identical(refreshed: &Arc<PreparedQuery>, rebuilt: &Arc<PreparedQuery>) {
    assert_eq!(refreshed.count_answers(), rebuilt.count_answers());
    for alg in AnyKAlgorithm::ALL {
        let a: Vec<_> = refreshed.enumerate(alg).collect();
        let b: Vec<_> = rebuilt.enumerate(alg).collect();
        assert_eq!(
            a.len(),
            b.len(),
            "{alg}: refreshed stream length diverged from rebuild"
        );
        let mut i = 0;
        while i < a.len() {
            // The end of the weight-tie class starting at `i` (usually i+1).
            let mut j = i + 1;
            while j < a.len() && a[j].weight() == a[i].weight() {
                j += 1;
            }
            let key =
                |x: &anyk_engine::Answer| (x.values().to_vec(), x.witness().to_vec(), x.weight());
            let mut ra: Vec<_> = a[i..j].iter().map(key).collect();
            let mut rb: Vec<_> = b[i..j].iter().map(key).collect();
            ra.sort_by(|x, y| x.partial_cmp(y).unwrap());
            rb.sort_by(|x, y| x.partial_cmp(y).unwrap());
            assert_eq!(
                ra,
                rb,
                "{alg}: answers {i}..{j} diverged beyond tie order \
                 (refreshed {:?} vs rebuilt {:?})",
                &a[i..j],
                &b[i..j]
            );
            i = j;
        }
    }
}

/// Run `rounds` sequential deltas over `db`, refreshing one plan chain and
/// rebuilding from scratch at every step.
fn differential_rounds(
    db: Database,
    query: &ConjunctiveQuery,
    ranking: RankingFunction,
    weights: &mut Weights,
    fanout: u64,
    rounds: usize,
    edits: usize,
) {
    let mut snapshot = Arc::new(db);
    let mut maintained =
        Arc::new(PreparedQuery::prepare_delta(Arc::clone(&snapshot), query, ranking).unwrap());
    assert!(maintained.supports_refresh());
    for round in 0..rounds {
        let batch = random_batch(&snapshot, weights, fanout, edits);
        let next = Arc::new(snapshot.apply_delta(&batch).unwrap());
        assert_eq!(next.generation(), snapshot.generation() + 1);
        maintained = Arc::new(
            maintained
                .refresh(Arc::clone(&next), &batch)
                .unwrap_or_else(|e| panic!("round {round}: refresh failed: {e}")),
        );
        let rebuilt = Arc::new(PreparedQuery::prepare(Arc::clone(&next), query, ranking).unwrap());
        assert_streams_bit_identical(&maintained, &rebuilt);
        snapshot = next;
    }
}

#[test]
fn path_sum_ascending_matches_rebuild_across_rounds() {
    let mut weights = Weights::new(0xA11CE);
    let db = path_db(&mut weights, 3, 40, 12);
    let q = QueryBuilder::path(3).build();
    differential_rounds(
        db,
        &q,
        RankingFunction::SumAscending,
        &mut weights,
        12,
        4,
        6,
    );
}

#[test]
fn path_sum_descending_matches_rebuild_across_rounds() {
    let mut weights = Weights::new(0xB0B);
    let db = path_db(&mut weights, 3, 30, 10);
    let q = QueryBuilder::path(3).build();
    differential_rounds(
        db,
        &q,
        RankingFunction::SumDescending,
        &mut weights,
        10,
        3,
        5,
    );
}

#[test]
fn path_bottleneck_matches_rebuild_across_rounds() {
    let mut weights = Weights::new(0xCAFE);
    let db = path_db(&mut weights, 4, 25, 8);
    let q = QueryBuilder::path(4).build();
    differential_rounds(
        db,
        &q,
        RankingFunction::BottleneckAscending,
        &mut weights,
        8,
        3,
        5,
    );
}

#[test]
fn star_sum_matches_rebuild_across_rounds() {
    let mut weights = Weights::new(0x57A7);
    let db = star_db(&mut weights, 3, 30, 6);
    let q = QueryBuilder::star(3).build();
    differential_rounds(db, &q, RankingFunction::SumAscending, &mut weights, 6, 4, 5);
}

#[test]
fn delete_only_and_insert_only_batches_match_rebuild() {
    let mut weights = Weights::new(0xDEAD);
    let db = path_db(&mut weights, 2, 20, 6);
    let q = QueryBuilder::path(2).build();
    let snapshot = Arc::new(db);
    let plan = Arc::new(
        PreparedQuery::prepare_delta(Arc::clone(&snapshot), &q, RankingFunction::SumAscending)
            .unwrap(),
    );

    // Delete-only: wipe a prefix of R1.
    let mut batch = DeltaBatch::new();
    for tid in 0..5 {
        batch = batch.delete("R1", tid);
    }
    let next = Arc::new(snapshot.apply_delta(&batch).unwrap());
    let refreshed = Arc::new(plan.refresh(Arc::clone(&next), &batch).unwrap());
    let rebuilt = Arc::new(
        PreparedQuery::prepare(Arc::clone(&next), &q, RankingFunction::SumAscending).unwrap(),
    );
    assert_streams_bit_identical(&refreshed, &rebuilt);

    // Insert-only on top: new keys on both sides, including a key that only
    // ever existed on the child side (semi-join dropped until now).
    let mut batch2 = DeltaBatch::new();
    for v in 100..106 {
        batch2 = batch2.insert("R1", Tuple::new(vec![v, v + 1], weights.next()));
        batch2 = batch2.insert("R2", Tuple::new(vec![v + 1, v + 2], weights.next()));
    }
    let next2 = Arc::new(next.apply_delta(&batch2).unwrap());
    let refreshed2 = Arc::new(refreshed.refresh(Arc::clone(&next2), &batch2).unwrap());
    let rebuilt2 = Arc::new(
        PreparedQuery::prepare(Arc::clone(&next2), &q, RankingFunction::SumAscending).unwrap(),
    );
    assert_streams_bit_identical(&refreshed2, &rebuilt2);
}

#[test]
fn orphaned_join_key_reconnects_when_a_parent_returns() {
    // R1 = {(1, 7)} joins R2 = {(7, 3), (7, 4)}. Deleting the R1 tuple
    // orphans key 7's value node; re-inserting a parent with key 7 must
    // reconnect the *existing* child states, not duplicate them.
    let mut db = Database::new();
    let mut r1 = Relation::new("R1", 2);
    r1.push_edge(1, 7, 1.0);
    let mut r2 = Relation::new("R2", 2);
    r2.push_edge(7, 3, 2.0);
    r2.push_edge(7, 4, 4.0);
    db.add(r1);
    db.add(r2);
    let q = QueryBuilder::path(2).build();
    let snapshot = Arc::new(db);
    let plan = Arc::new(
        PreparedQuery::prepare_delta(Arc::clone(&snapshot), &q, RankingFunction::SumAscending)
            .unwrap(),
    );

    let kill = DeltaBatch::new().delete("R1", 0);
    let empty_snap = Arc::new(snapshot.apply_delta(&kill).unwrap());
    let emptied = Arc::new(plan.refresh(Arc::clone(&empty_snap), &kill).unwrap());
    assert_eq!(emptied.count_answers(), 0);

    let revive = DeltaBatch::new().insert("R1", Tuple::new(vec![2, 7], 0.5));
    let revived_snap = Arc::new(empty_snap.apply_delta(&revive).unwrap());
    let revived = Arc::new(emptied.refresh(Arc::clone(&revived_snap), &revive).unwrap());
    let rebuilt = Arc::new(
        PreparedQuery::prepare(Arc::clone(&revived_snap), &q, RankingFunction::SumAscending)
            .unwrap(),
    );
    assert_streams_bit_identical(&revived, &rebuilt);
    assert_eq!(revived.count_answers(), 2);
}

/// Cursors cache the ordered root choice set — every tuple of the relation
/// at the root of the join tree — on the plan. Refresh clones the compiled
/// plan and patches the clone; if the clone carried the cache, the new
/// generation would rank by the old relation. Open a cursor first (which
/// fills the cache), then replace exactly the tuple at the head of that
/// order with a better one.
#[test]
fn a_warm_root_cache_never_leaks_into_the_refreshed_plan() {
    let text = "Q(a, b, c, d) :- R1(a, b), R2(b, c), R3(c, d)";
    let spec = anyk_query::QuerySpec::parse(text).unwrap();
    for alg in AnyKAlgorithm::ALL {
        let mut weights = Weights::new(0x5EED);
        let snapshot = Arc::new(path_db(&mut weights, 3, 40, 12));
        let plan = Arc::new(PreparedQuery::from_spec_delta(Arc::clone(&snapshot), &spec).unwrap());
        let pinned_expected: Vec<_> = PreparedQuery::from_spec(Arc::clone(&snapshot), &spec)
            .unwrap()
            .enumerate(alg)
            .collect();

        let mut pinned = plan.enumerate(alg);
        let top = pinned.next().expect("the instance has answers");
        // An unfiltered plan is rooted at the GYO root, and witnesses list
        // atoms in atom order; atom `i` of the path is `R{i+1}(x_i, x_{i+1})`.
        let root = anyk_query::gyo::join_tree(spec.to_query().unwrap().atoms())
            .unwrap()
            .root();
        let (atom, top_root_tuple) = top.witness()[root];
        let root_relation = format!("R{}", atom + 1);
        let batch = DeltaBatch::new()
            .delete(&root_relation, top_root_tuple)
            .insert(
                &root_relation,
                Tuple::new(top.values()[atom..atom + 2].to_vec(), 0.0),
            );
        let next = Arc::new(snapshot.apply_delta(&batch).unwrap());
        let refreshed = Arc::new(plan.refresh(Arc::clone(&next), &batch).unwrap());
        let rebuilt = Arc::new(PreparedQuery::from_spec(Arc::clone(&next), &spec).unwrap());
        assert_streams_bit_identical(&refreshed, &rebuilt);
        let new_top = refreshed.enumerate(alg).next().unwrap();
        assert!(
            new_top.weight() < top.weight() && new_top.values() == top.values(),
            "{alg}: the inserted tuple leads the refreshed stream"
        );

        // The cursor opened before the refresh finishes its own generation.
        let mut got = vec![top];
        got.extend(pinned);
        assert_eq!(got, pinned_expected, "{alg}: pinned stream unchanged");
    }
}

#[test]
fn refresh_without_delta_support_is_a_typed_error() {
    // A path plan compiled without delta support, and two 4-cycle plans
    // compiled with it: the cycle's bag trees never carry it, and a cycle
    // over empty relations decomposes into no tree at all.
    let mut weights = Weights::new(3);
    let path = Arc::new(path_db(&mut weights, 2, 5, 4));
    let cycle = Arc::new(path_db(&mut weights, 4, 12, 3));
    let empty = Arc::new(path_db(&mut weights, 4, 0, 3));
    let ranking = RankingFunction::SumAscending;
    let c4 = QueryBuilder::cycle(4).build();
    let plans = [
        PreparedQuery::prepare(Arc::clone(&path), &QueryBuilder::path(2).build(), ranking),
        PreparedQuery::prepare_delta(Arc::clone(&cycle), &c4, ranking),
        PreparedQuery::prepare_delta(Arc::clone(&empty), &c4, ranking),
    ];
    for (plan, snapshot) in plans.into_iter().zip([path, cycle, empty]) {
        let plan = plan.unwrap();
        assert!(!plan.supports_refresh());
        let batch = DeltaBatch::new().insert("R1", Tuple::new(vec![1, 2], 9.0));
        let next = Arc::new(snapshot.apply_delta(&batch).unwrap());
        assert!(matches!(
            plan.refresh(next, &batch),
            Err(anyk_engine::EngineError::RefreshUnsupported(_))
        ));
    }
}

#[test]
fn mismatched_snapshot_is_rejected_not_miscomputed() {
    let mut weights = Weights::new(4);
    let db = path_db(&mut weights, 2, 10, 4);
    let q = QueryBuilder::path(2).build();
    let snapshot = Arc::new(db);
    let plan = Arc::new(
        PreparedQuery::prepare_delta(Arc::clone(&snapshot), &q, RankingFunction::SumAscending)
            .unwrap(),
    );
    let batch = DeltaBatch::new().delete("R1", 0);
    let other = batch.clone().delete("R1", 1);
    // Apply a *different* batch to the database than the one handed to
    // refresh: the tuple counts no longer line up.
    let next = Arc::new(snapshot.apply_delta(&other).unwrap());
    assert!(matches!(
        plan.refresh(next, &batch),
        Err(anyk_engine::EngineError::Internal(_))
    ));
}
