//! Tuple weights must be finite. Under `sum asc` a `+∞` weight is the
//! tropical `0̄`, the weight of a pruned state, so an answer through such a
//! tuple would exist or not depending on where the tuple sits in the join
//! tree. Both entry points refuse it: `Relation::push_row` panics and
//! `Database::apply_delta` returns a typed error, for every relation of a
//! 3-path. A huge finite weight, wherever it sits, adds its answers like any
//! other tuple.

use anyk_core::AnyKAlgorithm;
use anyk_engine::naive_sql::join_and_sort;
use anyk_engine::{Answer, PreparedQuery, RankingFunction};
use anyk_query::{ConjunctiveQuery, QueryBuilder};
use anyk_storage::{Database, DeltaBatch, DeltaError, Relation, Tuple};
use std::sync::Arc;

const NON_FINITE: [f64; 3] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

/// `R1(x1, x2) ⋈ R2(x2, x3) ⋈ R3(x3, x4)` with two answers, and for each
/// relation a row that joins with the rest.
fn three_path() -> (Database, [(&'static str, [u64; 2]); 3]) {
    let mut db = Database::new();
    let mut r1 = Relation::new("R1", 2);
    r1.push_edge(1, 10, 1.0);
    r1.push_edge(2, 10, 2.0);
    let mut r2 = Relation::new("R2", 2);
    r2.push_edge(10, 20, 3.0);
    let mut r3 = Relation::new("R3", 2);
    r3.push_edge(20, 30, 4.0);
    db.add(r1);
    db.add(r2);
    db.add(r3);
    let joining = [("R1", [3, 10]), ("R2", [10, 20]), ("R3", [20, 31])];
    (db, joining)
}

fn path3() -> ConjunctiveQuery {
    QueryBuilder::path(3).build()
}

/// Every algorithm streams the oracle over `db`, and `count_answers` is
/// its length.
fn assert_streams_the_oracle(db: Database, q: &ConjunctiveQuery, label: &str) -> usize {
    let db = Arc::new(db);
    let oracle = join_and_sort(&db, q, RankingFunction::SumAscending).unwrap();
    let plan =
        PreparedQuery::prepare_delta(Arc::clone(&db), q, RankingFunction::SumAscending).unwrap();
    assert_eq!(plan.count_answers(), oracle.len() as u128, "{label}: count");
    for alg in AnyKAlgorithm::ALL {
        let stream: Vec<Answer> = plan.enumerate(alg).collect();
        assert_eq!(stream, oracle, "{label}: {alg}");
    }
    oracle.len()
}

#[test]
fn push_row_refuses_a_non_finite_weight_in_every_relation_of_a_3_path() {
    let (db, joining) = three_path();
    for (relation, row) in joining {
        for weight in NON_FINITE {
            let mut copy = db.expect(relation).clone();
            let pushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                copy.push_row(&row, weight);
            }));
            assert!(pushed.is_err(), "{relation}, {weight}: push_row panics");
            assert_eq!(copy.len(), db.expect(relation).len(), "{relation}");
        }
    }
}

#[test]
fn apply_delta_refuses_a_non_finite_weight_in_every_relation_of_a_3_path() {
    let (db, joining) = three_path();
    let q = path3();
    for (relation, row) in joining {
        for weight in NON_FINITE {
            let batch = DeltaBatch::new().insert(relation, Tuple::new(row.to_vec(), weight));
            assert_eq!(
                db.apply_delta(&batch).err(),
                Some(DeltaError::NonFiniteWeight {
                    relation: relation.to_string(),
                    insert: 0,
                }),
                "{relation}, {weight}"
            );
        }
    }
    assert_eq!(assert_streams_the_oracle(db, &q, "unchanged"), 2);
}

#[test]
fn a_huge_finite_weight_adds_its_answers_in_every_relation_of_a_3_path() {
    let (db, joining) = three_path();
    let q = path3();
    for (relation, row) in joining {
        let batch = DeltaBatch::new().insert(relation, Tuple::new(row.to_vec(), 1e300));
        let next = db.apply_delta(&batch).unwrap();
        let answers = assert_streams_the_oracle(next, &q, relation);
        // A new R1 row adds one answer; a new R2 or R3 row, one per R1 row.
        assert_eq!(answers, if relation == "R1" { 3 } else { 4 }, "{relation}");
    }
}
