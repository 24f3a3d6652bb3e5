//! Sessions are admitted by what they hold, and the budget holds while they
//! grow. Under a fixed MEM(k) budget, a service keeps opening path-4
//! sessions and paging each to 1 000 answers until it sheds with
//! `OverloadReason::Memory`. A session's charge counts the
//! successor-structure index entries it allocated for the choice sets it
//! touched, not one entry per (state, branch) pair of the plan, so the
//! budget admits more than twice the sessions a per-plan index would. A
//! session is charged little at open and grows as it pages, so page pulls
//! shed while the resident total is at or over budget: the total passes the
//! budget by at most the one page that crossed it.

use anyk_core::dioid::TropicalMin;
use anyk_core::AnyKAlgorithm;
use anyk_datagen::{rng, uniform::path_or_star_database};
use anyk_engine::{compile::compile_with, PreparedQuery};
use anyk_server::{
    GovernorConfig, OverloadReason, QueryService, ServiceConfig, ServiceError, SessionId,
};
use anyk_storage::Database;
use std::sync::Arc;

const BODY: &str = "Q(a, b, c, d, e) :- R1(a, b), R2(b, c), R3(c, d), R4(d, e)";
const PAGE: usize = 100;
const PAGES: usize = 10;

/// Path-4, 20 000 rows per relation. At a few thousand rows the root set
/// and the touched choices dominate a session's charge whichever index it
/// keeps, so the instance is large enough for the index to matter.
fn database() -> Database {
    path_or_star_database(4, 20_000, &mut rng(5))
}

/// A Lazy session's charge after `PAGES` pages when its cursor allocates
/// one index entry per (state, branch) pair of the plan, as a dense
/// per-cursor table does: what the session holds, with its index entries
/// replaced by the plan's (state, branch) pairs.
fn dense_index_charge() -> u64 {
    let db = database();
    let spec = anyk_query::QuerySpec::parse(BODY).unwrap();
    let plan = compile_with::<TropicalMin, _>(&db, &spec.to_query().unwrap(), |t| t.weight())
        .unwrap()
        .instance
        .num_slot_ids() as u64;
    let prepared = PreparedQuery::from_text(Arc::new(db), BODY).unwrap();
    let m = prepared
        .mem_profile(AnyKAlgorithm::Lazy, PAGE * PAGES)
        .unwrap();
    assert!(
        plan > 10 * m.structure_table_slots as u64,
        "{plan} (state, branch) pairs, {} index entries",
        m.structure_table_slots
    );
    m.resident_units() - m.structure_table_slots as u64 + plan
}

fn service(budget: u64) -> QueryService {
    QueryService::with_config(
        database(),
        ServiceConfig {
            governor: GovernorConfig {
                memory_budget_units: Some(budget),
                ..GovernorConfig::default()
            },
            ..ServiceConfig::default()
        },
    )
}

fn is_memory_shed(err: &ServiceError) -> bool {
    matches!(
        err,
        ServiceError::Overloaded {
            reason: OverloadReason::Memory,
            ..
        }
    )
}

/// Serves one page and returns how many units it added to the resident
/// total; pulls run one at a time here, so the difference is this page's.
fn page(service: &QueryService, id: SessionId) -> Result<u64, ServiceError> {
    let before = service.metrics().mem_resident_units;
    let page = service.next_page(id, PAGE)?;
    assert_eq!(page.answers.len(), PAGE);
    Ok(service.metrics().mem_resident_units.saturating_sub(before))
}

#[test]
fn a_memory_budget_admits_sessions_by_what_they_touched() {
    let sessions_at_dense_charge = 10;
    let budget = sessions_at_dense_charge * dense_index_charge();
    let service = service(budget);
    let query = format!("{BODY} via lazy");
    let mut paged_to_the_end = 0u64;
    let mut largest_page = 0;
    let shed = 'open: loop {
        assert!(paged_to_the_end < 1_000, "the budget never shed");
        let id = match service.open_session_text(&query) {
            Ok(id) => id,
            Err(err) => break err,
        };
        for _ in 0..PAGES {
            match page(&service, id) {
                Ok(grew) => largest_page = largest_page.max(grew),
                Err(err) => break 'open err,
            }
        }
        paged_to_the_end += 1;
    };
    assert!(is_memory_shed(&shed), "{shed}");
    assert!(
        paged_to_the_end >= 2 * sessions_at_dense_charge,
        "{paged_to_the_end} sessions paged to {} answers under a budget of \
         {budget} units, which a per-plan index admits {sessions_at_dense_charge} of",
        PAGE * PAGES
    );
    let peak = service.metrics().peak_mem_resident_units;
    assert!(
        peak <= budget + largest_page,
        "peak {peak} over a budget of {budget} by more than one page ({largest_page})"
    );
}

/// Sessions opened together are each charged what a fresh cursor holds, so
/// admission lets many in; as they page, pulls shed at the budget, the
/// total stays within one page of it, and pulls resume once sessions close.
#[test]
fn sessions_opened_together_cannot_page_past_the_budget() {
    let budget = 4 * dense_index_charge();
    let service = service(budget);
    let query = format!("{BODY} via lazy");
    let ids: Vec<SessionId> = (0..200)
        .map(|_| service.open_session_text(&query).unwrap())
        .collect();
    assert!(service.metrics().mem_resident_units < budget / 10);

    let mut largest_page = 0;
    let mut served = vec![0usize; ids.len()];
    let mut shed = 0;
    for _ in 0..PAGES {
        for (i, &id) in ids.iter().enumerate() {
            match page(&service, id) {
                Ok(grew) => {
                    largest_page = largest_page.max(grew);
                    served[i] += PAGE;
                }
                Err(err) => {
                    assert!(is_memory_shed(&err), "{err}");
                    shed += 1;
                }
            }
        }
    }
    assert!(
        shed > 0,
        "200 sessions paged to the end under {budget} units"
    );
    let m = service.metrics();
    assert!(
        m.peak_mem_resident_units <= budget + largest_page,
        "peak {} over a budget of {budget} by more than one page ({largest_page})",
        m.peak_mem_resident_units
    );

    // Closing sessions returns their units, and a shed session resumes its
    // stream where it stopped: its next page continues the ranked order a
    // session run alone produces.
    let (&survivor, rest) = ids.split_first().unwrap();
    let stopped_at = served[0];
    assert!(stopped_at > 0 && stopped_at < PAGE * PAGES, "{stopped_at}");
    for &id in rest {
        service.close_session(id);
    }
    assert!(service.metrics().mem_resident_units < budget);
    let resumed = service.next_page(survivor, PAGE).unwrap();
    let alone = service.open_session_text(&query).unwrap();
    let mut expected = Vec::new();
    while expected.len() < stopped_at + PAGE {
        expected.extend(service.next_page(alone, PAGE).unwrap().answers);
    }
    assert!(resumed.answers == expected[stopped_at..]);
}
