//! Differential tests for the query-service subsystem: paged, suspendable,
//! concurrent sessions must reproduce the one-shot [`RankedQuery`] streams
//! **bit-identically** — same values, same weights, same order — whatever
//! the page sizes, suspension points, interleavings, thread schedules, or
//! index-cache evictions.

use anyk::core::AnyKAlgorithm;
use anyk::datagen::{cycles, rng, text, uniform};
use anyk::engine::{Answer, RankedQuery, RankingFunction};
use anyk::query::{ConjunctiveQuery, QueryBuilder};
use anyk::server::{QueryService, ServiceConfig, SessionId, DEFAULT_ALGORITHM};
use anyk::storage::Database;

/// Drain a session in pages of `page_size`, concatenating the pages.
fn drain_paged(service: &QueryService, id: SessionId, page_size: usize) -> Vec<Answer> {
    let mut all = Vec::new();
    loop {
        let page = service.next_page(id, page_size).expect("live session");
        all.extend(page.answers);
        if page.done {
            return all;
        }
    }
}

fn one_shot(db: &Database, query: &ConjunctiveQuery, algorithm: AnyKAlgorithm) -> Vec<Answer> {
    RankedQuery::new(db, query)
        .expect("plan")
        .enumerate(algorithm)
        .collect()
}

#[test]
fn paged_streams_are_bit_identical_across_all_variants_and_page_sizes() {
    let db = uniform::path_or_star_database(3, 60, &mut rng(42));
    let query = QueryBuilder::path(3).build();
    let service = QueryService::new(db.clone());
    for algorithm in AnyKAlgorithm::ALL {
        let reference = one_shot(&db, &query, algorithm);
        assert!(!reference.is_empty(), "workload produces answers");
        let total = reference.len();
        for page_size in [1, 3, 7, total, total + 10] {
            let id = service.open_session(&query, algorithm).unwrap();
            let paged = drain_paged(&service, id, page_size);
            assert_eq!(paged, reference, "{algorithm} with page size {page_size}");
            service.close_session(id);
        }
    }
}

#[test]
fn cycle_sessions_page_the_union_enumerator_identically() {
    // A 4-cycle query runs through the cycle decomposition + UT-DP union:
    // paging must suspend/resume the union heap and every per-tree
    // enumerator as one unit.
    let db = cycles::worst_case_cycle_database(4, 30, &mut rng(7));
    let query = QueryBuilder::cycle(4).build();
    let service = QueryService::new(db.clone());
    for algorithm in [
        AnyKAlgorithm::Take2,
        AnyKAlgorithm::Lazy,
        AnyKAlgorithm::Recursive,
    ] {
        let reference = one_shot(&db, &query, algorithm);
        assert!(!reference.is_empty());
        let id = service.open_session(&query, algorithm).unwrap();
        let paged = drain_paged(&service, id, 5);
        assert_eq!(paged, reference, "{algorithm}");
    }
}

#[test]
fn suspended_and_resumed_sessions_match_one_shot_streams() {
    // The acceptance criterion verbatim: pull a prefix, suspend the session
    // while other sessions run to completion, resume, and require the
    // concatenation to equal the one-shot stream — for every any-k variant.
    let db = uniform::path_or_star_database(4, 50, &mut rng(9));
    let query = QueryBuilder::path(4).build();
    let service = QueryService::new(db.clone());
    for algorithm in [
        AnyKAlgorithm::Eager,
        AnyKAlgorithm::Lazy,
        AnyKAlgorithm::All,
        AnyKAlgorithm::Take2,
        AnyKAlgorithm::Recursive,
    ] {
        let reference = one_shot(&db, &query, algorithm);
        let id = service.open_session(&query, algorithm).unwrap();
        let mut resumed = service.next_page(id, 5).unwrap().answers;
        // Suspension = simply not pulling. Meanwhile, other sessions (same
        // plan, different plan) run to completion.
        let other = service.open_session(&query, AnyKAlgorithm::Take2).unwrap();
        drain_paged(&service, other, 13);
        let star = QueryBuilder::star(4).build();
        let noise = service.open_session(&star, algorithm).unwrap();
        drain_paged(&service, noise, 8);
        // Resume.
        resumed.extend(drain_paged(&service, id, 11));
        assert_eq!(resumed, reference, "{algorithm}");
    }
}

#[test]
fn interleaved_sessions_do_not_perturb_each_other() {
    let db = uniform::path_or_star_database(3, 80, &mut rng(21));
    let path = QueryBuilder::path(3).build();
    let star = QueryBuilder::star(3).build();
    let service = QueryService::new(db.clone());

    // Six sessions over two queries and three algorithms, pulled round-robin
    // with co-prime page sizes so suspension points never line up.
    let spec: Vec<(&ConjunctiveQuery, AnyKAlgorithm, usize)> = vec![
        (&path, AnyKAlgorithm::Take2, 1),
        (&star, AnyKAlgorithm::Take2, 3),
        (&path, AnyKAlgorithm::Lazy, 5),
        (&star, AnyKAlgorithm::Recursive, 7),
        (&path, AnyKAlgorithm::Eager, 11),
        (&star, AnyKAlgorithm::All, 13),
    ];
    let mut sessions: Vec<(SessionId, usize, Vec<Answer>, bool)> = spec
        .iter()
        .map(|&(q, alg, page)| {
            (
                service.open_session(q, alg).unwrap(),
                page,
                Vec::new(),
                false,
            )
        })
        .collect();
    loop {
        let mut any_live = false;
        for (id, page_size, collected, done) in &mut sessions {
            if *done {
                continue;
            }
            any_live = true;
            let page = service.next_page(*id, *page_size).unwrap();
            collected.extend(page.answers);
            *done = page.done;
        }
        if !any_live {
            break;
        }
    }
    for ((q, alg, _), (_, _, collected, _)) in spec.iter().zip(&sessions) {
        assert_eq!(collected, &one_shot(&db, q, *alg), "{alg}");
    }
    // Two distinct queries × deduped rankings: exactly 2 compilations.
    assert_eq!(service.metrics().plan_misses, 2);
    assert_eq!(service.prepared_count(), 2);
}

#[test]
fn eight_concurrent_sessions_survive_a_starved_index_cache() {
    // ≥ 8 concurrent sessions over one snapshot while the index cache is
    // capped *below* the number of distinct (relation, key columns) pairs
    // the two plans exercise (path-4 wants (R1,[1]), (R2,[1]), (R3,[1]);
    // star-3 wants (R1,[0]) — four distinct pairs, cap 2), so evictions can
    // land mid-preparation. Every paged stream must still equal its
    // one-shot reference.
    let db = uniform::path_or_star_database(4, 40, &mut rng(33));
    let path = QueryBuilder::path(4).build();
    let star = QueryBuilder::star(3).build();
    let path_refs: Vec<Vec<Answer>> = [AnyKAlgorithm::Take2, AnyKAlgorithm::Recursive]
        .iter()
        .map(|&a| one_shot(&db, &path, a))
        .collect();
    let star_refs: Vec<Vec<Answer>> = [AnyKAlgorithm::Take2, AnyKAlgorithm::Recursive]
        .iter()
        .map(|&a| one_shot(&db, &star, a))
        .collect();

    let service = QueryService::with_config(
        db,
        ServiceConfig {
            index_cache_capacity: Some(2),
            ..ServiceConfig::default()
        },
    );
    assert_eq!(service.database().index_cache_capacity(), 2);

    let sessions = 10;
    std::thread::scope(|scope| {
        for t in 0..sessions {
            let service = &service;
            let (query, reference) = if t % 2 == 0 {
                (&path, &path_refs[(t / 2) % 2])
            } else {
                (&star, &star_refs[(t / 2) % 2])
            };
            let algorithm = if (t / 2) % 2 == 0 {
                AnyKAlgorithm::Take2
            } else {
                AnyKAlgorithm::Recursive
            };
            scope.spawn(move || {
                let id = service.open_session(query, algorithm).unwrap();
                let paged = drain_paged(service, id, 1 + t);
                assert_eq!(&paged, reference, "thread {t} ({algorithm})");
                service.close_session(id);
            });
        }
    });

    let cache = service.index_cache_stats();
    assert!(
        cache.entries <= 2,
        "LRU bound held: {} entries",
        cache.entries
    );
    assert!(
        cache.evictions > 0,
        "cap below working set forced evictions"
    );
    let m = service.metrics();
    assert_eq!(m.sessions_opened, sessions as u64);
    assert_eq!(m.sessions_closed, sessions as u64);
    assert_eq!(service.session_count(), 0);
}

#[test]
fn text_sessions_decode_pages_like_one_shot_streams() {
    let db = text::text_social_database(
        3,
        text::TextSocialConfig {
            users: 80,
            avg_degree: 3,
        },
        &mut rng(5),
    );
    let query = QueryBuilder::path(3).build();
    let service = QueryService::new(db.clone());

    let ranked = RankedQuery::new(&db, &query).expect("plan");
    let decoder = ranked.decoder();
    let reference: Vec<Vec<String>> = ranked
        .enumerate(DEFAULT_ALGORITHM)
        .map(|a| decoder.render(&a))
        .collect();
    assert!(!reference.is_empty());

    let id = service.open_session(&query, DEFAULT_ALGORITHM).unwrap();
    let session_decoder = service.decoder(id).unwrap();
    let mut rendered = Vec::new();
    loop {
        let page = service.next_page(id, 7).unwrap();
        rendered.extend(page.answers.iter().map(|a| session_decoder.render(a)));
        if page.done {
            break;
        }
    }
    assert_eq!(rendered, reference);
    // Every decoded head value is a username, not a dense id.
    assert!(rendered
        .iter()
        .flatten()
        .all(|v| v.chars().any(|c| c.is_alphabetic())));
}

#[test]
fn descending_ranking_sessions_page_identically() {
    let db = uniform::path_or_star_database(2, 70, &mut rng(17));
    let query = QueryBuilder::path(2).build();
    let service = QueryService::new(db.clone());
    let reference: Vec<Answer> =
        RankedQuery::with_ranking(&db, &query, RankingFunction::SumDescending)
            .unwrap()
            .enumerate(AnyKAlgorithm::Lazy)
            .collect();
    let id = service
        .open_session_with(&query, RankingFunction::SumDescending, AnyKAlgorithm::Lazy)
        .unwrap();
    assert_eq!(drain_paged(&service, id, 4), reference);
}
