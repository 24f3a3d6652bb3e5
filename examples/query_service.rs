//! End-to-end demo of the textual query-service API: one process, two shared
//! database snapshots (an integer path workload and a string-keyed social
//! graph), and a crowd of concurrent clients whose **entire interface to the
//! engine is a string** — `Q(…) :- …` in, ranked pages out.
//!
//! Every client checks its paged stream against the one-shot enumeration of
//! the same plan, alpha-renamed requests are shown hitting one plan-cache
//! entry, and a selection predicate (`y = 7` / `a = "…"`, §2.1's
//! linear-time row-list preprocessing) is verified against the
//! predicate-aware naive-SQL oracle — so this example doubles as a smoke
//! test (it panics on any divergence; CI runs it).
//!
//! ```text
//! cargo run --release --example query_service
//! ```

use anyk::datagen::{rng, text, uniform};
use anyk::engine::{naive_sql, Answer};
use anyk::prelude::*;
use anyk::server::ServiceError;

const PAGE_SIZE: usize = 25;

/// One client: open a session from query text, pull pages with
/// think-time-like interleaving (yielding between pages), and return the
/// concatenated stream.
fn run_text_client(
    service: &QueryService,
    text: &str,
) -> Result<(SessionId, Vec<Answer>), ServiceError> {
    let id = service.open_session_text(text)?;
    let mut collected = Vec::new();
    let mut buf = Vec::with_capacity(PAGE_SIZE);
    loop {
        // `next_page_into` reuses the buffer: zero allocation per page.
        let done = service.next_page_into(id, PAGE_SIZE, &mut buf)?;
        collected.extend(buf.iter().cloned());
        // A real client would go do something else here; the session state
        // (candidate queue, prefix arena, ...) waits, suspended, in the
        // service registry.
        std::thread::yield_now();
        if done {
            break;
        }
    }
    service.close_session(id);
    Ok((id, collected))
}

fn main() {
    // ---------------------------------------------------------------- data
    let int_db = uniform::path_or_star_database(4, 300, &mut rng(2024));
    let text_db = text::text_social_database(
        3,
        text::TextSocialConfig {
            users: 150,
            avg_degree: 4,
        },
        &mut rng(7),
    );

    // ------------------------------------------------------------ services
    // A modest index-cache bound, to show the LRU + metrics in action.
    let config = ServiceConfig {
        index_cache_capacity: Some(8),
        ..ServiceConfig::default()
    };
    let int_service = QueryService::with_config(int_db, config.clone());
    let text_service = QueryService::with_config(text_db, config);

    // The requests, as clients would send them over a wire. The four int
    // clients are deliberately alpha-renamed variants of one query pinned
    // to different algorithms: same canonical form, one compiled plan.
    let int_requests = [
        "Q(x1, x2, x3, x4, x5) :- R1(x1, x2), R2(x2, x3), R3(x3, x4), R4(x4, x5) via take2",
        "Q(a, b, c, d, e) :- R1(a, b), R2(b, c), R3(c, d), R4(d, e) via lazy",
        "Q(p, q, r, s, t) :- R1(p, q), R2(q, r), R3(r, s), R4(s, t) via eager",
        "Q(v, w, x, y, z) :- R1(v, w), R2(w, x), R3(x, y), R4(y, z) via recursive",
    ];
    let text_requests = [
        "Q(a, b, c, d) :- R1(a, b), R2(b, c), R3(c, d) via take2",
        "Q(u1, u2, u3, u4) :- R1(u1, u2), R2(u2, u3), R3(u3, u4) via lazy",
        "Q(a, b, c, d) :- R1(a, b), R2(b, c), R3(c, d) via eager",
        "Q(a, b, c, d) :- R1(a, b), R2(b, c), R3(c, d) via recursive",
    ];

    println!(
        "integer workload: path-4 over {} tuples",
        int_service.database().total_tuples()
    );
    println!(
        "text workload:    path-3 over {} follow edges",
        text_service.database().total_tuples()
    );

    // ------------------------------------------------------------- clients
    // 4 clients per service, all driving the engine purely through text,
    // running concurrently over the same snapshots and one memoised plan
    // per service.
    std::thread::scope(|scope| {
        for (c, (label, service, request)) in int_requests
            .iter()
            .map(|r| ("int", &int_service, *r))
            .chain(text_requests.iter().map(|r| ("text", &text_service, *r)))
            .enumerate()
        {
            scope.spawn(move || {
                let (id, answers) = run_text_client(service, request).unwrap();
                // The determinism check: the paged stream equals this
                // request's one-shot stream over the same cached plan.
                let spec: QuerySpec = request.parse().unwrap();
                let algorithm = spec.algorithm.expect("requests pin an algorithm");
                let reference: Vec<Answer> = service
                    .prepare_spec(&spec)
                    .unwrap()
                    .enumerate(algorithm)
                    .collect();
                assert_eq!(
                    answers, reference,
                    "{label} client {c} diverged from the one-shot stream"
                );
                println!(
                    "  {label} client {c} {id}: {} answers in pages of {PAGE_SIZE} ✓",
                    answers.len()
                );
            });
        }
    });
    for (name, service) in [("int", &int_service), ("text", &text_service)] {
        assert_eq!(
            service.metrics().plan_misses,
            1,
            "{name}: alpha-renamed requests must share one plan"
        );
    }

    // ------------------------------------------ selections, text to pages
    // A selective request: only paths through hub value 7, heaviest first,
    // top 3 — all expressed in the query text, verified against the
    // predicate-aware naive-SQL oracle.
    let filtered = "Q(x1, x2, x3, x4, x5) :- R1(x1, x2), R2(x2, x3), R3(x3, x4), R4(x4, x5), \
                    x3 = 7 rank by sum desc limit 3";
    let (_, top) = run_text_client(&int_service, filtered).unwrap();
    let spec: QuerySpec = filtered.parse().unwrap();
    let oracle = naive_sql::join_and_sort_spec(&int_service.database(), &spec).unwrap();
    assert!(top.len() <= 3, "limit 3 honored");
    assert_eq!(top.len(), oracle.len().min(3));
    for (a, b) in top.iter().zip(&oracle) {
        assert!((a.weight() - b.weight()).abs() < 1e-9, "oracle disagrees");
        assert_eq!(a.values()[2], 7, "selection pushed down");
    }
    println!("filtered request `{filtered}`:");
    for a in &top {
        println!("  {:?} weight {:.3}", a.values(), a.weight());
    }

    // A string selection over the social graph, decoded back to usernames.
    let decoder = text_service
        .prepare_text("Q(a, b, c, d) :- R1(a, b), R2(b, c), R3(c, d)")
        .unwrap()
        .decoder();
    let some_user = decoder.render(
        &text_service
            .prepare_text("Q(a, b, c, d) :- R1(a, b), R2(b, c), R3(c, d)")
            .unwrap()
            .top_k(Algorithm::Take2, 1)[0],
    )[0]
    .clone();
    let request =
        format!("Q(a, b, c, d) :- R1(a, b), R2(b, c), R3(c, d), a = \"{some_user}\" limit 3");
    let (_, friends) = run_text_client(&text_service, &request).unwrap();
    println!("top-3 paths from {some_user} (decoded):");
    for answer in &friends {
        assert_eq!(decoder.render(answer)[0], some_user);
        println!(
            "  {:<44} weight {:.3}",
            decoder.render(answer).join(" -> "),
            answer.weight()
        );
    }

    // -------------------------------------------------------------- totals
    for (name, service) in [("int", &int_service), ("text", &text_service)] {
        let m = service.metrics();
        let c = service.index_cache_stats();
        println!(
            "{name} service: {} sessions, {} pages, {} answers, {} plan compilations; \
             index cache {}/{} entries, {} hits / {} misses / {} evictions",
            m.sessions_opened,
            m.pages_served,
            m.answers_served,
            m.plan_misses,
            c.entries,
            c.capacity,
            c.hits,
            c.misses,
            c.evictions
        );
    }
    println!("all paged text-query streams matched their one-shot references");
}
