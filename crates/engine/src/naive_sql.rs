//! A generic tuple-at-a-time hash-join engine + sort.
//!
//! This module stands in for the PostgreSQL comparison of Fig. 14 (§7.3): a
//! conventional batch engine that evaluates the join with a left-deep
//! pipeline of hash joins in the order the atoms are written, materialising
//! every intermediate result, and finally sorts the output by the ranking
//! function. Unlike [`crate::yannakakis`] it performs **no semi-join
//! reduction**, so dangling intermediate tuples are carried along — the
//! behaviour the paper contrasts its `Batch` implementation against.
//!
//! The pipeline is oblivious to dictionary encoding: text columns hold dense
//! ids, so probes, equality filters and the final sort's value tie-break all
//! operate on ids, and the resulting [`Answer`]s decode through the same
//! [`crate::AnswerDecoder`] as the any-k stream — which is what makes this
//! engine usable as the oracle in the text-workload differential tests.

use crate::answer::Answer;
use crate::compile::validate;
use crate::error::EngineError;
use anyk_query::{ConjunctiveQuery, Constant, Predicate, QuerySpec, RankingFunction};
use anyk_storage::{Database, Value};
use std::collections::HashMap;

/// An intermediate pipeline row: bound-variable values, accumulated weight,
/// and the witness tuples collected so far.
type Row = (Vec<Value>, f64, Vec<(usize, usize)>);

/// Evaluate a full CQ with a left-deep hash-join pipeline (atom order as
/// written) and return the result sorted by `ranking`.
///
/// Works for both acyclic and cyclic full queries (a cyclic query simply
/// produces additional equality filters on already-bound variables).
pub fn join_and_sort(
    db: &Database,
    query: &ConjunctiveQuery,
    ranking: RankingFunction,
) -> Result<Vec<Answer>, EngineError> {
    let mut answers = join_unsorted(db, query, ranking)?;
    sort_answers(&mut answers, ranking);
    Ok(answers)
}

/// Evaluate a [`QuerySpec`] — selection predicates included — and return the
/// result sorted by the spec's ranking. Selections are applied **inline** in
/// the pipeline (constants checked when a variable is first bound, repeated
/// variables as per-tuple column equalities): a deliberately independent
/// implementation from the engine's row-list pushdown, which makes this the
/// oracle the differential tests compare the any-k path against, witnesses
/// included (each names an input tuple of `db`).
///
/// The spec's `limit` and `algorithm` are ignored — the oracle always
/// produces the full sorted result, so callers can compare any prefix.
pub fn join_and_sort_spec(db: &Database, spec: &QuerySpec) -> Result<Vec<Answer>, EngineError> {
    let query = spec.to_query()?;
    let mut answers = join_pipeline(db, &query, spec.ranking, &spec.predicates)?;
    sort_answers(&mut answers, spec.ranking);
    Ok(answers)
}

fn sort_answers(answers: &mut [Answer], ranking: RankingFunction) {
    answers.sort_by(|a, b| {
        ranking
            .encode(a.weight())
            .total_cmp(&ranking.encode(b.weight()))
            .then_with(|| a.values().cmp(b.values()))
    });
}

/// Evaluate the join without the final sort (used to separate join cost from
/// sort cost in the harness, like "Batch (No sort)" in the paper's plots).
pub fn join_unsorted(
    db: &Database,
    query: &ConjunctiveQuery,
    ranking: RankingFunction,
) -> Result<Vec<Answer>, EngineError> {
    join_pipeline(db, query, ranking, &[])
}

fn join_pipeline(
    db: &Database,
    query: &ConjunctiveQuery,
    ranking: RankingFunction,
    predicates: &[Predicate],
) -> Result<Vec<Answer>, EngineError> {
    validate(db, query)?;
    let combine = ranking.combine_fn();
    let atoms = query.atoms();
    for p in predicates {
        if !atoms.iter().any(|a| a.binds(&p.variable)) {
            return Err(EngineError::Query(
                anyk_query::QueryError::UnknownPredicateVariable {
                    variable: p.variable.clone(),
                },
            ));
        }
        // Type-check the constant against *every* column binding the
        // variable (not just the one the pipeline probes) — the same
        // contract as the engine's pushdown, so the differential paths
        // accept and reject identical inputs.
        for atom in atoms {
            let relation = db.expect(&atom.relation);
            for (col, v) in atom.variables.iter().enumerate() {
                if *v != p.variable {
                    continue;
                }
                let text_column = relation.dictionary(col).is_some();
                let matches = match &p.constant {
                    Constant::Int(_) => !text_column,
                    Constant::Str(_) => text_column,
                };
                if !matches {
                    return Err(EngineError::ConstantTypeMismatch {
                        relation: relation.name().to_string(),
                        column: col,
                        constant: p.constant.to_string(),
                    });
                }
            }
        }
    }

    // Intermediate rows: values of the variables bound so far (in `bound`
    // order) plus the accumulated weight and witness.
    let mut bound: Vec<String> = Vec::new();
    let mut rows: Vec<Row> = vec![(Vec::new(), 0.0, Vec::new())];
    let mut first = true;

    for (atom_idx, atom) in atoms.iter().enumerate() {
        let relation = db.expect(&atom.relation);
        // Variables of this atom that are already bound (the join key) and
        // new ones — each **distinct** variable once, so an atom repeating a
        // variable contributes one key/binding column plus equality checks.
        let mut key_vars: Vec<String> = Vec::new();
        let mut new_vars: Vec<String> = Vec::new();
        // Within-atom equalities: column `b` must equal column `a` (the
        // variable's first occurrence).
        let mut intra_eqs: Vec<(usize, usize)> = Vec::new();
        for (col, v) in atom.variables.iter().enumerate() {
            if let Some(prev) = atom.variables[..col].iter().position(|x| x == v) {
                intra_eqs.push((prev, col));
            } else if bound.contains(v) {
                key_vars.push(v.clone());
            } else {
                new_vars.push(v.clone());
            }
        }
        let key_cols = atom.positions_of(&key_vars)?;
        let key_bound_pos: Vec<usize> = key_vars
            .iter()
            .map(|v| bound.iter().position(|b| b == v).expect("key var is bound"))
            .collect();
        let new_cols = atom.positions_of(&new_vars)?;
        // Constant requirements, checked the moment a variable is first
        // bound: `(column, Some(encoded))`, or `None` when the constant can
        // never match (a string the dictionary never interned).
        let mut const_checks: Vec<(usize, Option<Value>)> = Vec::new();
        for (v, &col) in new_vars.iter().zip(&new_cols) {
            for p in predicates.iter().filter(|p| p.variable == *v) {
                let encoded = match (&p.constant, relation.dictionary(col)) {
                    (Constant::Int(value), None) => Some(*value),
                    (Constant::Str(s), Some(dict)) => dict.lookup(s),
                    _ => {
                        return Err(EngineError::ConstantTypeMismatch {
                            relation: relation.name().to_string(),
                            column: col,
                            constant: p.constant.to_string(),
                        });
                    }
                };
                const_checks.push((col, encoded));
            }
        }

        // Memoised per (relation, key columns): a self-join or a repeated
        // evaluation over the same database skips the O(n) rebuild.
        let index = db.index(&atom.relation, &key_cols);
        let mut next_rows = Vec::new();
        for (values, weight, witness) in &rows {
            // Allocation-free probe: the key is hashed straight out of the
            // intermediate row via its bound-variable positions.
            for &tid in index.lookup_cols(values, &key_bound_pos) {
                let t = relation.tuple(tid);
                if !intra_eqs.iter().all(|&(a, b)| t.value(a) == t.value(b)) {
                    continue;
                }
                if !const_checks
                    .iter()
                    .all(|&(col, req)| req == Some(t.value(col)))
                {
                    continue;
                }
                let mut v = values.clone();
                v.extend(new_cols.iter().map(|&c| t.value(c)));
                let w = if first {
                    ranking.encode(t.weight())
                } else {
                    combine(*weight, ranking.encode(t.weight()))
                };
                let mut wit = witness.clone();
                wit.push((atom_idx, tid));
                next_rows.push((v, w, wit));
            }
        }
        bound.extend(new_vars);
        rows = next_rows;
        first = false;
    }

    // Project onto the head variables.
    let head = query.head_variables();
    let head_pos: Vec<usize> = head
        .iter()
        .map(|v| bound.iter().position(|b| b == v).unwrap())
        .collect();
    let positions: HashMap<usize, usize> =
        head_pos.iter().enumerate().map(|(i, &p)| (i, p)).collect();
    Ok(rows
        .into_iter()
        .map(|(values, weight, witness)| {
            let head_values = (0..head.len()).map(|i| values[positions[&i]]).collect();
            Answer::new(ranking.decode(weight), head_values, witness)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_core::AnyKAlgorithm;
    use anyk_query::QueryBuilder;
    use anyk_storage::Relation;

    fn db() -> Database {
        let mut db = Database::new();
        for (name, seed) in [("R1", 1u64), ("R2", 3), ("R3", 5), ("R4", 7)] {
            let mut r = Relation::new(name, 2);
            for i in 0..8u64 {
                let a = (i * seed) % 5;
                let b = (i * seed + 1) % 5;
                r.push_edge(a, b, ((i + seed) % 7) as f64);
            }
            db.add(r);
        }
        db
    }

    #[test]
    fn agrees_with_ranked_enumeration_on_paths() {
        let db = db();
        for ell in [2usize, 3, 4] {
            let q = QueryBuilder::path(ell).build();
            let naive = join_and_sort(&db, &q, RankingFunction::SumAscending).unwrap();
            let rq = crate::RankedQuery::new(&db, &q).unwrap();
            let anyk: Vec<f64> = rq
                .enumerate(AnyKAlgorithm::Lazy)
                .map(|a| a.weight())
                .collect();
            assert_eq!(naive.len(), anyk.len(), "ℓ = {ell}");
            for (a, b) in naive.iter().zip(&anyk) {
                assert!((a.weight() - b).abs() < 1e-9, "ℓ = {ell}");
            }
        }
    }

    #[test]
    fn agrees_with_ranked_enumeration_on_cycles() {
        let db = db();
        let q = QueryBuilder::cycle(4).build();
        let naive = join_and_sort(&db, &q, RankingFunction::SumAscending).unwrap();
        let rq = crate::RankedQuery::new(&db, &q).unwrap();
        let anyk: Vec<f64> = rq
            .enumerate(AnyKAlgorithm::Take2)
            .map(|a| a.weight())
            .collect();
        assert_eq!(naive.len(), anyk.len());
        for (a, b) in naive.iter().zip(&anyk) {
            assert!((a.weight() - b).abs() < 1e-9);
        }
    }

    #[test]
    fn string_keyed_answers_decode_identically_to_anyk() {
        use crate::answer::AnswerDecoder;
        use anyk_storage::Schema;

        let schema = Schema::text_shared(2);
        let mut db = Database::new();
        for (name, shift) in [("R1", 0usize), ("R2", 1)] {
            let mut r = Relation::with_schema(name, schema.clone());
            let users = ["alice", "bob", "carol", "dave"];
            for i in 0..users.len() {
                let from = users[(i + shift) % users.len()];
                let to = users[(i + shift + 1) % users.len()];
                r.push_text_edge(from, to, (i % 3) as f64 + 1.0);
            }
            db.add(r);
        }
        let q = QueryBuilder::path(2).build();
        let decoder = AnswerDecoder::for_query(&db, &q);
        let naive = join_and_sort(&db, &q, RankingFunction::SumAscending).unwrap();
        assert!(!naive.is_empty());
        let rq = crate::RankedQuery::new(&db, &q).unwrap();
        let anyk: Vec<_> = rq.enumerate(AnyKAlgorithm::Take2).collect();
        assert_eq!(naive.len(), anyk.len());
        let mut a: Vec<(Vec<String>, i64)> = naive
            .iter()
            .map(|x| (decoder.render(x), (x.weight() * 1e6).round() as i64))
            .collect();
        let mut b: Vec<(Vec<String>, i64)> = anyk
            .iter()
            .map(|x| (decoder.render(x), (x.weight() * 1e6).round() as i64))
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "same decoded multiset from both engines");
        for (values, _) in &a {
            for v in values {
                assert!(
                    v.chars().all(|c| c.is_ascii_alphabetic()),
                    "decoded value {v:?} is a username, not an id"
                );
            }
        }
    }

    #[test]
    fn unsorted_join_has_same_multiset() {
        let db = db();
        let q = QueryBuilder::path(3).build();
        let sorted = join_and_sort(&db, &q, RankingFunction::SumAscending).unwrap();
        let unsorted = join_unsorted(&db, &q, RankingFunction::SumAscending).unwrap();
        assert_eq!(sorted.len(), unsorted.len());
        let sum_a: f64 = sorted.iter().map(Answer::weight).sum();
        let sum_b: f64 = unsorted.iter().map(Answer::weight).sum();
        assert!((sum_a - sum_b).abs() < 1e-6);
    }
}
