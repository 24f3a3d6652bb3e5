//! Cross-crate tests for the `QuerySpec` request API: the textual path is
//! bit-identical to the builder path, the parse→print→parse fixpoint holds,
//! randomized specs with selection predicates agree with the
//! predicate-aware naive-SQL oracle across all six algorithms (witnesses
//! included: each names an input tuple, selections or not), the query
//! service answers text and struct requests identically (sharing one plan
//! cache entry for alpha-equivalent requests), and the on-disk parser
//! corpus produces typed errors, never panics.

use anyk::core::AnyKAlgorithm;
use anyk::engine::{naive_sql, Answer, RankedQuery, RankingFunction};
use anyk::prelude::Algorithm;
use anyk::query::{parse_query, Atom, Predicate, QueryBuilder, QuerySpec};
use anyk::server::QueryService;
use anyk::storage::{Database, Relation, Schema, TupleId, Value};
use proptest::prelude::*;

/// A random database of `ell` binary relations with values in a small domain
/// (to force joins) and integer weights (to keep float sums exact).
fn random_db(ell: usize, max_tuples: usize) -> impl Strategy<Value = Database> {
    proptest::collection::vec(
        proptest::collection::vec((0u64..6, 0u64..6, 0u32..100), 1..=max_tuples),
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

/// A random spec over `R1..R3`: one of four shapes (including a
/// repeated-variable atom), up to two integer predicates, any ranking, and
/// sometimes a projected head.
fn random_spec() -> impl Strategy<Value = QuerySpec> {
    (0usize..4, 0usize..3, 0u64..6, 0u64..6, 0usize..3, 0usize..2).prop_map(
        |(shape, npreds, c1, c2, ranking, project)| {
            let (atoms, head): (Vec<Atom>, Vec<&str>) = match shape {
                0 => (
                    vec![
                        Atom::new("R1", &["x1", "x2"]),
                        Atom::new("R2", &["x2", "x3"]),
                        Atom::new("R3", &["x3", "x4"]),
                    ],
                    vec!["x1", "x2", "x3", "x4"],
                ),
                1 => (
                    vec![
                        Atom::new("R1", &["x0", "y1"]),
                        Atom::new("R2", &["x0", "y2"]),
                        Atom::new("R3", &["x0", "y3"]),
                    ],
                    vec!["x0", "y1", "y2", "y3"],
                ),
                2 => (
                    vec![Atom::new("R1", &["x", "y"]), Atom::new("R1", &["y", "z"])],
                    vec!["x", "y", "z"],
                ),
                _ => (
                    vec![Atom::new("R1", &["x", "x"]), Atom::new("R2", &["x", "y"])],
                    vec!["x", "y"],
                ),
            };
            let mut spec = QuerySpec::new(
                atoms,
                if project == 1 {
                    head[..head.len() - 1]
                        .iter()
                        .map(|s| s.to_string())
                        .collect()
                } else {
                    head.iter().map(|s| s.to_string()).collect()
                },
            );
            let vars = spec.variables();
            if npreds >= 1 {
                spec.predicates
                    .push(Predicate::int(vars[c1 as usize % vars.len()].clone(), c1));
            }
            if npreds >= 2 {
                spec.predicates
                    .push(Predicate::int(vars[c2 as usize % vars.len()].clone(), c2));
            }
            spec.ranking = match ranking {
                0 => RankingFunction::SumAscending,
                1 => RankingFunction::SumDescending,
                _ => RankingFunction::BottleneckAscending,
            };
            spec
        },
    )
}

/// One answer's fingerprint: values, weight in fixed-point, and the sorted
/// witness (`(atom, tuple id)` pairs naming input tuples).
type Fingerprint = (Vec<Value>, i64, Vec<(usize, TupleId)>);

/// Collapse an acyclic plan's answer stream into a sorted multiset of
/// fingerprints that is stable across tie orders.
fn multiset(answers: impl IntoIterator<Item = Answer>) -> Vec<Fingerprint> {
    let mut out: Vec<Fingerprint> = answers
        .into_iter()
        .map(|a| {
            let mut witness = a.witness().to_vec();
            witness.sort_unstable();
            (
                a.values().to_vec(),
                (a.weight() * 1e6).round() as i64,
                witness,
            )
        })
        .collect();
    out.sort();
    out
}

/// [`multiset`] without witnesses, for cycle plans: their answers carry
/// none, since bag tuples are not input tuples.
fn value_multiset(answers: impl IntoIterator<Item = Answer>) -> Vec<(Vec<Value>, i64)> {
    multiset(answers)
        .into_iter()
        .map(|(values, weight, _)| (values, weight))
        .collect()
}

/// The any-k spec path agrees with the predicate-aware oracle: same answer
/// multiset from every algorithm, every stream in rank order.
fn assert_spec_matches_oracle(db: &Database, spec: &QuerySpec) {
    let oracle = naive_sql::join_and_sort_spec(db, spec).expect("oracle evaluation");
    let expected = multiset(oracle.iter().cloned());
    let prepared = RankedQuery::from_spec(db, spec).expect("spec plan");
    assert_eq!(prepared.count_answers() as usize, expected.len());
    for algorithm in AnyKAlgorithm::ALL {
        let answers: Vec<Answer> = prepared.enumerate(algorithm).collect();
        for w in answers.windows(2) {
            let (a, b) = (
                spec.ranking.encode(w[0].weight()),
                spec.ranking.encode(w[1].weight()),
            );
            assert!(a <= b + 1e-9, "{algorithm}: out of rank order");
        }
        assert_eq!(multiset(answers), expected, "{algorithm}: answer multiset");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn randomized_specs_agree_with_the_filtered_oracle(
        db in random_db(3, 15),
        spec in random_spec(),
    ) {
        assert_spec_matches_oracle(&db, &spec);
    }

    #[test]
    fn parse_print_parse_is_a_fixpoint(spec in random_spec()) {
        let canonical = spec.canonical();
        prop_assert_eq!(canonical.canonical(), canonical.clone(), "canonical is idempotent");
        let printed = spec.canonical_text();
        let reparsed = parse_query(&printed).expect("canonical text parses");
        prop_assert_eq!(&reparsed, &canonical, "parse inverts the pretty-printer");
        prop_assert_eq!(reparsed.canonical_text(), printed, "printing is a fixpoint");
        // The as-written printer round-trips too.
        prop_assert_eq!(parse_query(&spec.to_text()).expect("as-written text parses"), spec);
    }

    #[test]
    fn text_path_is_bit_identical_to_builder_path(db in random_db(4, 12)) {
        // The same query three ways: builder struct, written text, and the
        // canonical (alpha-renamed) text. All three must produce the same
        // answers in the same order, per algorithm — not just as multisets.
        let query = QueryBuilder::path(4).build();
        let by_struct = RankedQuery::new(&db, &query).unwrap();
        let by_text = RankedQuery::from_text(
            &db,
            "Q(x1, x2, x3, x4, x5) :- R1(x1, x2), R2(x2, x3), R3(x3, x4), R4(x4, x5)",
        )
        .unwrap();
        let alpha = QuerySpec::from_query(&query, RankingFunction::SumAscending).canonical_text();
        let by_canonical = RankedQuery::from_text(&db, &alpha).unwrap();
        for algorithm in AnyKAlgorithm::ALL {
            let reference: Vec<Answer> = by_struct.enumerate(algorithm).collect();
            let text: Vec<Answer> = by_text.enumerate(algorithm).collect();
            let canonical: Vec<Answer> = by_canonical.enumerate(algorithm).collect();
            prop_assert_eq!(&text, &reference, "{}: text vs struct", algorithm);
            prop_assert_eq!(&canonical, &reference, "{}: canonical vs struct", algorithm);
        }
    }

    #[test]
    fn limits_truncate_the_ranked_stream(db in random_db(3, 12), limit in 0usize..8) {
        let text = format!(
            "Q(x1, x2, x3, x4) :- R1(x1, x2), R2(x2, x3), R3(x3, x4) limit {limit}"
        );
        let limited = RankedQuery::from_text(&db, &text).unwrap();
        let unlimited = RankedQuery::from_text(
            &db,
            "Q(x1, x2, x3, x4) :- R1(x1, x2), R2(x2, x3), R3(x3, x4)",
        )
        .unwrap();
        for algorithm in [AnyKAlgorithm::Take2, AnyKAlgorithm::Recursive] {
            let full: Vec<Answer> = unlimited.enumerate(algorithm).collect();
            let cut: Vec<Answer> = limited.enumerate(algorithm).collect();
            prop_assert_eq!(cut.len(), full.len().min(limit));
            prop_assert_eq!(cut.as_slice(), &full[..cut.len()], "{}", algorithm);
        }
        prop_assert_eq!(
            limited.count_answers(),
            (unlimited.count_answers()).min(limit as u128)
        );
    }

    #[test]
    fn repeated_variable_queries_match_the_oracle_via_both_apis(db in random_db(2, 15)) {
        // `R1(x, x), R2(x, y)` through the builder (struct) path: the
        // row-list selection closes the old "not supported directly" caveat
        // without the caller doing anything.
        let query = QueryBuilder::new()
            .atom("R1", &["x", "x"])
            .atom("R2", &["x", "y"])
            .build();
        let spec = QuerySpec::from_query(&query, RankingFunction::SumAscending);
        let oracle = multiset(naive_sql::join_and_sort_spec(&db, &spec).unwrap());
        let by_struct = RankedQuery::new(&db, &query).unwrap();
        let by_text = RankedQuery::from_text(&db, "Q(x, y) :- R1(x, x), R2(x, y)").unwrap();
        for algorithm in AnyKAlgorithm::ALL {
            prop_assert_eq!(
                multiset(by_struct.enumerate(algorithm)),
                oracle.clone(),
                "{}: struct",
                algorithm
            );
            prop_assert_eq!(
                multiset(by_text.enumerate(algorithm)),
                oracle.clone(),
                "{}: text",
                algorithm
            );
        }
    }
}

#[test]
fn service_text_and_struct_sessions_page_identically_for_all_algorithms() {
    let mut db = Database::new();
    for (name, seed) in [("R1", 1u64), ("R2", 3), ("R3", 5)] {
        let mut r = Relation::new(name, 2);
        for i in 0..12u64 {
            r.push_edge((i * seed) % 5, (i * seed + 1) % 5, ((i + seed) % 7) as f64);
        }
        db.add(r);
    }
    let service = QueryService::new(db);
    let query = QueryBuilder::path(3).build();
    for algorithm in AnyKAlgorithm::ALL {
        let by_struct = service.open_session(&query, algorithm).unwrap();
        let text = format!(
            "Q(a, b, c, d) :- R1(a, b), R2(b, c), R3(c, d) via {}",
            anyk::query::spec::algorithm_token(algorithm)
        );
        let by_text = service.open_session_text(&text).unwrap();
        loop {
            let a = service.next_page(by_struct, 7).unwrap();
            let b = service.next_page(by_text, 7).unwrap();
            assert_eq!(a, b, "{algorithm}: pages diverged");
            if a.done {
                break;
            }
        }
    }
    // Six algorithms × two sessions over one query shape: a single compiled
    // plan serves everything (alpha-renaming included).
    assert_eq!(service.prepared_count(), 1);
    let metrics = service.metrics();
    assert_eq!(metrics.plan_misses, 1);
    assert_eq!(metrics.plan_hits, 11);
}

#[test]
fn cyclic_text_queries_with_predicates_decompose_over_selected_rows() {
    // A 4-cycle with both heavy hubs (value 0) and light values, queried
    // through text with a selection on one cycle attribute: the pushdown
    // runs before the cycle decomposition, so every partition enumerates
    // the reduced input. Differential against the filtered oracle.
    let mut db = Database::new();
    for i in 1..=4 {
        let mut r = Relation::new(format!("R{i}"), 2);
        for j in 1..=6u64 {
            r.push_edge(0, j, (i as f64) + (j as f64) / 10.0);
            r.push_edge(j, 0, (i as f64) * 2.0 + (j as f64) / 10.0);
        }
        db.add(r);
    }
    let text = "Q(x1, x2, x3, x4) :- R1(x1, x2), R2(x2, x3), R3(x3, x4), R4(x4, x1), x2 = 3";
    let spec = parse_query(text).unwrap();
    let oracle = naive_sql::join_and_sort_spec(&db, &spec).unwrap();
    assert!(!oracle.is_empty());
    let prepared = RankedQuery::from_text(&db, text).unwrap();
    assert!(
        prepared.is_decomposed(),
        "still a simple cycle after rewrite"
    );
    for algorithm in AnyKAlgorithm::ALL {
        let answers: Vec<Answer> = prepared.enumerate(algorithm).collect();
        for a in &answers {
            assert_eq!(a.values()[1], 3, "{algorithm}: selection pushed down");
        }
        assert_eq!(
            value_multiset(answers),
            value_multiset(oracle.iter().cloned()),
            "{algorithm}"
        );
    }
}

#[test]
fn service_sessions_with_predicates_match_the_oracle() {
    let mut db = Database::new();
    for (name, seed) in [("R1", 2u64), ("R2", 3)] {
        let mut r = Relation::new(name, 2);
        for i in 0..20u64 {
            r.push_edge((i * seed) % 6, (i + seed) % 6, (i % 9) as f64);
        }
        db.add(r);
    }
    let spec = parse_query("Q(x, y, z) :- R1(x, y), R2(y, z), y = 2 rank by sum desc").unwrap();
    let oracle = naive_sql::join_and_sort_spec(&db, &spec).unwrap();
    let service = QueryService::new(db);
    let id = service.open_session_spec(&spec).unwrap();
    let mut paged = Vec::new();
    loop {
        let page = service.next_page(id, 3).unwrap();
        paged.extend(page.answers);
        if page.done {
            break;
        }
    }
    assert_eq!(multiset(paged), multiset(oracle));
}

#[test]
fn string_predicates_filter_through_dictionaries() {
    let schema = Schema::text_shared(2);
    let mut db = Database::new();
    for (name, shift) in [("F1", 0usize), ("F2", 1)] {
        let mut r = Relation::with_schema(name, schema.clone());
        let users = ["alice", "bob", "carol", "dave", "erin"];
        for i in 0..users.len() {
            for j in 1..=2 {
                r.push_text_edge(
                    users[(i + shift) % users.len()],
                    users[(i + shift + j) % users.len()],
                    (i * j % 5) as f64 + 1.0,
                );
            }
        }
        db.add(r);
    }
    let spec = parse_query("Q(a, b, c) :- F1(a, b), F2(b, c), a = \"alice\"").unwrap();
    let oracle = naive_sql::join_and_sort_spec(&db, &spec).unwrap();
    assert!(!oracle.is_empty(), "test data joins for alice");
    let prepared = RankedQuery::from_spec(&db, &spec).unwrap();
    let decoder = prepared.decoder();
    for algorithm in AnyKAlgorithm::ALL {
        let answers: Vec<Answer> = prepared.enumerate(algorithm).collect();
        assert_eq!(
            multiset(answers.iter().cloned()),
            multiset(oracle.iter().cloned())
        );
        for a in &answers {
            assert_eq!(decoder.render(a)[0], "alice", "{algorithm}");
        }
    }
    // Inline string constants desugar to the same plan.
    let sugar = parse_query("Q(b, c) :- F1(\"alice\", b), F2(b, c)").unwrap();
    assert!(!RankedQuery::from_spec(&db, &sugar)
        .unwrap()
        .top_k(Algorithm::Take2, 1)
        .is_empty());
    // A username the dictionary never saw matches nothing (and is an empty
    // result, not an error).
    let nobody = parse_query("Q(a, b) :- F1(a, b), a = \"nobody\"").unwrap();
    assert_eq!(
        RankedQuery::from_spec(&db, &nobody)
            .unwrap()
            .count_answers(),
        0
    );
}

/// The on-disk parser corpus: every `valid/*.q` file parses and its
/// canonical text is a parse/print fixpoint; every `invalid/*.q` file
/// produces a typed error (never a panic).
fn corpus_dir(kind: &str) -> Vec<(String, String)> {
    let dir = format!("{}/tests/corpus/{kind}", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {dir}: {e}"))
        .map(|entry| entry.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "q"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "empty corpus dir {dir}");
    files
        .into_iter()
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read_to_string(&p).expect("readable corpus file"),
            )
        })
        .collect()
}

#[test]
fn corpus_valid_queries_parse_and_round_trip() {
    for (name, text) in corpus_dir("valid") {
        for line in text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        {
            let spec = parse_query(line).unwrap_or_else(|e| panic!("{name}: `{line}`: {e}"));
            let canonical = spec.canonical_text();
            let reparsed = parse_query(&canonical)
                .unwrap_or_else(|e| panic!("{name}: canonical `{canonical}`: {e}"));
            assert_eq!(reparsed, spec.canonical(), "{name}: `{line}`");
        }
    }
}

#[test]
fn corpus_invalid_queries_fail_with_typed_errors() {
    for (name, text) in corpus_dir("invalid") {
        for line in text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        {
            let result = std::panic::catch_unwind(|| parse_query(line));
            match result {
                Ok(Err(err)) => {
                    // Typed error with a position and a message.
                    assert!(!err.message.is_empty(), "{name}: `{line}`");
                    assert!(err.offset <= line.len(), "{name}: `{line}`");
                }
                Ok(Ok(spec)) => panic!("{name}: `{line}` unexpectedly parsed: {spec:?}"),
                Err(_) => panic!("{name}: `{line}` panicked instead of returning an error"),
            }
        }
    }
}
