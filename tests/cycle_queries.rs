//! Integration tests for cyclic queries: the simple-cycle decomposition
//! (§5.3.1) produces exactly the same ranked output as independent
//! evaluation strategies, on random inputs and on the constructions used in
//! the paper's experiments.

use anyk::core::AnyKAlgorithm;
use anyk::datagen::{adversarial, cycles, rng};
use anyk::engine::{naive_sql, wcoj, PreparedQuery, RankedQuery, RankingFunction};
use anyk::query::QueryBuilder;
use anyk::storage::{Database, Relation};
use proptest::prelude::*;
use std::sync::Arc;

fn random_cycle_db(ell: usize, max_tuples: usize) -> impl Strategy<Value = Database> {
    proptest::collection::vec(
        proptest::collection::vec((0u64..5, 0u64..5, 0u32..50), 1..=max_tuples),
        ell,
    )
    .prop_map(|relations| {
        let mut db = Database::new();
        for (i, tuples) in relations.into_iter().enumerate() {
            let mut r = Relation::new(format!("R{}", i + 1), 2);
            for (a, b, w) in tuples {
                r.push_edge(a, b, w as f64);
            }
            db.add(r);
        }
        db
    })
}

fn assert_cycle_equivalence(db: &Database, ell: usize) {
    let query = QueryBuilder::cycle(ell).build();
    let expected: Vec<f64> = naive_sql::join_and_sort(db, &query, RankingFunction::SumAscending)
        .unwrap()
        .iter()
        .map(|a| a.weight())
        .collect();
    let prepared = RankedQuery::new(db, &query).expect("simple cycle plan");
    assert!(prepared.is_decomposed());
    assert_eq!(prepared.count_answers() as usize, expected.len());
    for algorithm in AnyKAlgorithm::ALL {
        let got: Vec<f64> = prepared.enumerate(algorithm).map(|a| a.weight()).collect();
        assert_eq!(got.len(), expected.len(), "{algorithm}: cardinality");
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-9, "{algorithm}: {g} vs {e}");
        }
        for w in got.windows(2) {
            assert!(w[0] <= w[1] + 1e-9, "{algorithm}: not sorted");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn four_cycle_decomposition_matches_naive_join(db in random_cycle_db(4, 14)) {
        assert_cycle_equivalence(&db, 4);
    }

    #[test]
    fn six_cycle_decomposition_matches_naive_join(db in random_cycle_db(6, 8)) {
        assert_cycle_equivalence(&db, 6);
    }
}

#[test]
fn worst_case_cycle_instance_is_fully_enumerated() {
    let n = 12;
    let db = cycles::worst_case_cycle_database(4, n, &mut rng(5));
    let query = QueryBuilder::cycle(4).build();
    let prepared = RankedQuery::new(&db, &query).unwrap();
    assert_eq!(
        prepared.count_answers(),
        cycles::worst_case_output_size(4, n)
    );
    let answers: Vec<f64> = prepared
        .enumerate(AnyKAlgorithm::Recursive)
        .map(|a| a.weight())
        .collect();
    assert_eq!(answers.len() as u128, cycles::worst_case_output_size(4, n));
    for w in answers.windows(2) {
        assert!(w[0] <= w[1] + 1e-9);
    }
}

#[test]
fn nprr_adversarial_instance_top_answer_matches_wcoj() {
    // Database I1 (Fig. 16): the any-k plan finds the same top-ranked 4-cycle
    // that the WCOJ + sort baseline finds, but the latter must materialise
    // 2n² results first.
    let n = 12;
    let db = adversarial::nprr_i1(n);
    let query = QueryBuilder::cycle(4).build();

    let prepared = RankedQuery::new(&db, &query).unwrap();
    assert_eq!(
        prepared.count_answers(),
        adversarial::nprr_i1_output_size(n)
    );
    let top = prepared
        .enumerate(AnyKAlgorithm::Lazy)
        .next()
        .expect("at least one cycle");

    let batch = wcoj::generic_join_sorted(&db, &query, RankingFunction::SumAscending).unwrap();
    assert_eq!(batch.len() as u128, adversarial::nprr_i1_output_size(n));
    assert!((batch[0].weight() - top.weight()).abs() < 1e-9);
}

#[test]
fn bottleneck_ranking_works_through_the_decomposition() {
    let db = cycles::worst_case_cycle_database(4, 8, &mut rng(9));
    let query = QueryBuilder::cycle(4).build();
    let prepared =
        RankedQuery::with_ranking(&db, &query, RankingFunction::BottleneckAscending).unwrap();
    let answers: Vec<f64> = prepared
        .enumerate(AnyKAlgorithm::Take2)
        .map(|a| a.weight())
        .collect();
    // Verify against brute force over the naive join: bottleneck = max weight
    // among the four witness tuples.
    let naive =
        naive_sql::join_and_sort(&db, &query, RankingFunction::BottleneckAscending).unwrap();
    assert_eq!(answers.len(), naive.len());
    for (g, e) in answers.iter().zip(naive.iter().map(|a| a.weight())) {
        assert!((g - e).abs() < 1e-9);
    }
}

/// MEM(k) has one definition: `mem_profile(alg, k)` is the footprint of the
/// plan's own stream after `k` answers, so it equals what a cursor reports
/// after paging `k` answers — for a cycle plan too, where the union pulls
/// from each tree only as far as the merged stream needs.
#[test]
fn mem_profile_is_a_cursor_footprint_after_k_answers() {
    let shapes = [
        (QueryBuilder::cycle(4).build(), 4, 64), // 2·32² = 2048 answers
        (QueryBuilder::cycle(6).build(), 6, 20), // 2·10³ = 2000 answers
        (QueryBuilder::path(4).build(), 6, 20),  // one tree, over R1..R4
    ];
    for (query, ell, n) in shapes {
        let db = Arc::new(cycles::worst_case_cycle_database(ell, n, &mut rng(17)));
        for ranking in [
            RankingFunction::SumAscending,
            RankingFunction::BottleneckAscending,
        ] {
            let plan = Arc::new(PreparedQuery::prepare(Arc::clone(&db), &query, ranking).unwrap());
            assert_eq!(plan.is_decomposed(), !query.is_acyclic());
            for algorithm in [
                AnyKAlgorithm::Eager,
                AnyKAlgorithm::Lazy,
                AnyKAlgorithm::All,
                AnyKAlgorithm::Take2,
            ] {
                for k in [1, 100, 1000] {
                    let mut cursor = plan.cursor(algorithm);
                    assert_eq!(cursor.next_page(k).answers.len(), k);
                    assert_eq!(
                        plan.mem_profile(algorithm, k),
                        cursor.memory_stats(),
                        "{query} {ranking:?} {algorithm} k={k}"
                    );
                }
            }
        }
    }
}

/// A deep session's prefix arena follows its frontier, not its k: the last
/// serial position is never stored, so an answer that deviates there adds
/// no arena entry. On the worst-case 6-cycle most answers do, and the
/// arena stays below one entry per answer under every anyK-part kind.
#[test]
fn the_prefix_arena_stays_below_one_entry_per_answer() {
    let (n, k) = (40, 4000); // 2·20³ = 16 000 answers
    let db = Arc::new(cycles::worst_case_cycle_database(6, n, &mut rng(17)));
    let query = QueryBuilder::cycle(6).build();
    let plan = PreparedQuery::prepare(db, &query, RankingFunction::SumAscending).unwrap();
    for algorithm in [
        AnyKAlgorithm::Eager,
        AnyKAlgorithm::Lazy,
        AnyKAlgorithm::All,
        AnyKAlgorithm::Take2,
    ] {
        let stats = plan.mem_profile(algorithm, k).unwrap();
        // The union's trees each pull up to one answer ahead of the merge.
        assert!(stats.emitted >= k);
        assert!(
            stats.prefix_arena_entries < k,
            "{algorithm}: {} arena entries after {k} answers",
            stats.prefix_arena_entries
        );
    }
}
