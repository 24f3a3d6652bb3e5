//! Property tests for the column-major storage layer: a columnar
//! [`Relation`] must be observationally identical to a row-major oracle
//! (a plain `Vec` of rows) through every access path — row views, column
//! slices, filters, index construction and lookups — and the database's
//! index cache must be transparent (same answers, fresh after replacement).

use anyk::storage::{Database, HashIndex, Relation, Tuple, Value};
use proptest::prelude::*;

/// Row-major oracle: `(values, weight)` per tuple, insertion order.
type Oracle = Vec<(Vec<Value>, f64)>;

/// Random rows of a fixed arity with a small value domain (to force
/// duplicate join keys) and integer weights (exact float comparison).
fn random_rows(arity: usize, max_rows: usize) -> impl Strategy<Value = Oracle> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0u64..7, arity..=arity),
            0u32..1000,
        ),
        0..=max_rows,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(values, w)| (values, w as f64))
            .collect()
    })
}

fn build_relation(oracle: &Oracle, arity: usize) -> Relation {
    let mut r = Relation::with_capacity("R", arity, oracle.len());
    for (values, w) in oracle {
        r.push_row(values, *w);
    }
    r
}

/// The oracle's answer to an index lookup: ids of rows whose `key_cols`
/// project onto `key`, in insertion order.
fn oracle_lookup(oracle: &Oracle, key_cols: &[usize], key: &[Value]) -> Vec<usize> {
    oracle
        .iter()
        .enumerate()
        .filter(|(_, (values, _))| key_cols.iter().zip(key).all(|(&c, &k)| values[c] == k))
        .map(|(i, _)| i)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn columnar_relation_round_trips_rows(oracle in random_rows(3, 40)) {
        let r = build_relation(&oracle, 3);
        prop_assert_eq!(r.len(), oracle.len());
        // Row views agree with the oracle, via iter() and tuple().
        for (tid, row) in r.iter() {
            prop_assert_eq!(&row.values_vec(), &oracle[tid].0);
            prop_assert_eq!(row.weight(), oracle[tid].1);
            prop_assert_eq!(row.id(), tid);
            let t: Tuple = r.tuple(tid).to_tuple();
            prop_assert_eq!(t.values(), &oracle[tid].0[..]);
        }
        // Column slices are the transposed oracle.
        for c in 0..3 {
            let col: Vec<Value> = oracle.iter().map(|(v, _)| v[c]).collect();
            prop_assert_eq!(r.column(c), &col[..]);
        }
        let weights: Vec<f64> = oracle.iter().map(|&(_, w)| w).collect();
        prop_assert_eq!(r.weights(), &weights[..]);
        let total: f64 = weights.iter().sum();
        prop_assert!((r.total_weight() - total).abs() < 1e-9);
    }

    #[test]
    fn index_build_and_lookup_agree_with_oracle(
        oracle in random_rows(3, 40),
        key_choice in 0usize..4,
        keep in any::<u64>(),
    ) {
        let key_cols: &[usize] = match key_choice {
            0 => &[0],
            1 => &[1],
            2 => &[0, 2],
            _ => &[2, 1, 0],
        };
        let r = build_relation(&oracle, 3);
        let idx = HashIndex::build(&r, key_cols);

        // Every row's group resolves to exactly the oracle's matching ids.
        for (tid, row) in r.iter() {
            let key: Vec<Value> = key_cols.iter().map(|&c| row.value(c)).collect();
            let expected = oracle_lookup(&oracle, key_cols, &key);
            prop_assert_eq!(idx.lookup(&key), &expected[..]);
            // The retained tuple→group map agrees with a fresh probe.
            prop_assert_eq!(Some(idx.group_of_tuple(tid)), idx.group_of(&key));
            prop_assert_eq!(idx.group_of_row_in(&r, tid, key_cols), idx.group_of(&key));
        }
        // A key absent from the relation finds nothing.
        let absent: Vec<Value> = vec![99; key_cols.len()];
        prop_assert!(idx.lookup(&absent).is_empty());
        // Groups partition the tuple ids.
        let mut covered: Vec<usize> = idx.groups().flat_map(|(_, tids)| tids.to_vec()).collect();
        covered.sort_unstable();
        prop_assert_eq!(covered, (0..oracle.len()).collect::<Vec<_>>());

        // A row list of every row builds the same index as `build`.
        let all: Vec<usize> = (0..oracle.len()).collect();
        let listed = HashIndex::build_rows(&r, key_cols, Some(&all));
        prop_assert_eq!(listed.num_groups(), idx.num_groups());
        for (tid, row) in r.iter() {
            let key: Vec<Value> = key_cols.iter().map(|&c| row.value(c)).collect();
            prop_assert_eq!(listed.lookup(&key), idx.lookup(&key));
            prop_assert_eq!(listed.group_of_tuple(tid), idx.group_of_tuple(tid));
        }

        // Over a strict subset, lookups return only the listed ids, and the
        // retained row→group map is addressed by position in the list.
        let mut rows: Vec<usize> = (0..oracle.len()).filter(|&t| keep >> (t % 64) & 1 == 1).collect();
        if rows.len() == oracle.len() {
            rows.pop();
        }
        let sub = HashIndex::build_rows(&r, key_cols, Some(&rows));
        for (tid, row) in r.iter() {
            let key: Vec<Value> = key_cols.iter().map(|&c| row.value(c)).collect();
            let expected: Vec<usize> = oracle_lookup(&oracle, key_cols, &key)
                .into_iter()
                .filter(|t| rows.contains(t))
                .collect();
            prop_assert_eq!(sub.lookup(&key), &expected[..]);
            prop_assert_eq!(sub.group_of_row_in(&r, tid, key_cols), sub.group_of(&key));
        }
        for (i, &tid) in rows.iter().enumerate() {
            let key: Vec<Value> = key_cols.iter().map(|&c| r.tuple(tid).value(c)).collect();
            prop_assert_eq!(Some(sub.group_of_tuple(i)), sub.group_of(&key));
        }
    }

    #[test]
    fn filter_matches_oracle_retain(oracle in random_rows(2, 40), pivot in 0u64..7) {
        let r = build_relation(&oracle, 2);
        let filtered = r.filter("F", |t| t.value(0) >= pivot);
        let expected: Oracle = oracle
            .iter()
            .filter(|(v, _)| v[0] >= pivot)
            .cloned()
            .collect();
        prop_assert_eq!(filtered.len(), expected.len());
        for (tid, row) in filtered.iter() {
            prop_assert_eq!(&row.values_vec(), &expected[tid].0);
            prop_assert_eq!(row.weight(), expected[tid].1);
        }
    }

    #[test]
    fn cached_database_index_serves_current_data(
        first in random_rows(2, 25),
        second in random_rows(2, 25),
    ) {
        let mut db = Database::new();
        db.add(build_relation(&first, 2));
        let idx1 = db.index("R", &[0]);
        for key in 0u64..7 {
            prop_assert_eq!(idx1.lookup1(key), &oracle_lookup(&first, &[0], &[key])[..]);
        }
        // Replace the relation: the cache must never serve the stale index.
        db.add(build_relation(&second, 2));
        let idx2 = db.index("R", &[0]);
        for key in 0u64..7 {
            prop_assert_eq!(idx2.lookup1(key), &oracle_lookup(&second, &[0], &[key])[..]);
        }
    }
}
