//! The correctness gate. Every check is one attempted operation; a failed
//! check counts in `failed`, makes the run `correct: false`, and `all` /
//! `verify` exit non-zero on it.

use crate::depths::{
    run_session, CursorDepth, Depth, Expect, NetDepth, ServiceDepth, ServiceRequest, StreamDepth,
};
use crate::inputs::{DeltaGen, Inputs};
use crate::system::{mem_after_k, reference_answers, Params, System};
use crate::tables::{Kind, Query, Shape};
use anyk_core::AnyKAlgorithm;
use anyk_engine::{Answer, PreparedQuery};
use anyk_server::{QueryService, DEFAULT_ALGORITHM};
use std::sync::Arc;

#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.errors.len() < 10 {
                self.errors.push(format!("verify {what}: {e}"));
            }
        }
    }
}

/// Tuples per relation of the reduced instance each query is enumerated to
/// exhaustion on.
pub fn reduced_n(query: Query, quick: bool) -> usize {
    match query {
        // n * 10^3 answers, times six algorithms.
        Query::Path4 | Query::Filter4 => {
            if quick {
                60
            } else {
                300
            }
        }
        Query::Cycle6 => 60,
    }
}

fn same_answers(what: &str, got: &[Answer], want: &[Answer]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} answers, reference has {}",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(a, b)| {
        a.weight().to_bits() != b.weight().to_bits()
            || a.values() != b.values()
            || a.witness() != b.witness()
    }) {
        Some(i) => Err(format!(
            "{what}: answer {i} is not bit-identical to the reference"
        )),
        None => Ok(()),
    }
}

/// Weights agree across algorithms up to floating-point association: the
/// algorithms add the same tuple weights in different orders, so the last
/// bits may differ (the repo's own equivalence suites allow the same 1e-9).
const WEIGHT_TOLERANCE: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= WEIGHT_TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

fn same_weights(got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} answers, the reference has {}",
            got.len(),
            want.len()
        ));
    }
    if let Some(i) = got
        .windows(2)
        .position(|w| w[1] < w[0] && !close(w[0], w[1]))
    {
        return Err(format!("rank order broken after answer {i}"));
    }
    match got.iter().zip(want).position(|(&a, &b)| !close(a, b)) {
        Some(i) => Err(format!(
            "weight {i} is {} but the reference has {}",
            got[i], want[i]
        )),
        None => Ok(()),
    }
}

fn weights(answers: impl Iterator<Item = Answer>) -> Vec<f64> {
    answers.map(|a| a.weight()).collect()
}

/// One session at depth `d`, its answers kept.
fn collect<D: Depth>(d: &mut D, shape: Shape) -> Result<Vec<Answer>, String> {
    let mut kept = Vec::with_capacity(shape.k);
    run_session(
        d,
        shape,
        &Expect::Order,
        None,
        Some(&mut kept),
        &mut Vec::new(),
    )?;
    Ok(kept)
}

/// The first 1 000 answers (fewer if the workload pulls fewer) are
/// bit-identical — weight bits, values, witness — at every depth the
/// workload has, against a plan compiled fresh over the data being served;
/// MEM(k) of a cursor equals the engine's own profile; the any-k algorithms
/// agree on the weight sequence.
pub fn system(sys: &mut System, p: &Params, checks: &mut Checks) {
    let shape = Shape {
        k: p.shape().k.min(1000),
        ..p.shape()
    };
    let inputs = &sys.inputs;
    // What is being served now (ingestion may have moved it on).
    let db = match &sys.served {
        Some(served) => served.service.database(),
        None => Arc::new(inputs.pristine.clone()),
    };
    let plan = match PreparedQuery::from_spec(db, &inputs.spec) {
        Ok(plan) => Arc::new(plan),
        Err(e) => return checks.check("reference plan", Err(e.to_string())),
    };
    let reference = reference_answers(&plan, shape.k);
    checks.check(
        "answer count",
        if reference.len() == shape.k {
            Ok(())
        } else {
            Err(format!("reference stream has {} answers", reference.len()))
        },
    );

    let mut depth = |name: &str, got: Result<Vec<Answer>, String>| {
        checks.check(
            &format!("{name} depth"),
            got.and_then(|got| same_answers(name, &got, &reference)),
        );
    };
    depth(
        "stream",
        collect(&mut StreamDepth::new(&plan, DEFAULT_ALGORITHM), shape),
    );
    depth("cursor", collect(&mut CursorDepth::new(&plan), shape));
    match p.workload.kind {
        Kind::DeepEngine => {}
        Kind::ColdService => {
            let service = QueryService::new(inputs.pristine.clone());
            let request = ServiceRequest::Text(&inputs.text);
            depth(
                "service",
                collect(&mut ServiceDepth::new(&service, request), shape),
            );
        }
        Kind::ServeTcp | Kind::MixedTcp => {
            if let Some(served) = &sys.served {
                let request = ServiceRequest::Spec(&inputs.spec);
                depth(
                    "service",
                    collect(&mut ServiceDepth::new(&served.service, request), shape),
                );
            }
            depth(
                "net",
                collect(&mut NetDepth::new(&mut sys.clients[0], &inputs.text), shape),
            );
        }
    }

    // The engine profiles each tree of a cycle decomposition on its own, so
    // the cursor's live count only has to match on acyclic plans.
    if inputs.query != Query::Cycle6 {
        let live = mem_after_k(&plan, shape);
        let profiled = plan.mem_profile(DEFAULT_ALGORITHM, shape.k);
        checks.check(
            "MEM(k) matches mem_profile",
            live.and_then(|live| match profiled {
                Some(p) if p == live => Ok(()),
                other => Err(format!("cursor {live:?} vs profile {other:?}")),
            }),
        );
    }

    let want = weights(reference.into_iter());
    for alg in AnyKAlgorithm::ALL {
        if alg == AnyKAlgorithm::Batch {
            continue; // materialises every answer; exercised on the reduced instance
        }
        let got = weights(plan.enumerate(alg).take(shape.k));
        checks.check(
            &format!("{alg} agrees on the first {} weights", shape.k),
            same_weights(&got, &want),
        );
    }
}

/// All six algorithms emit the same weight sequence to exhaustion on the
/// reduced instance, in rank order, and as many answers as the plan counts.
pub fn reduced_instance(query: Query, seed: u64, quick: bool, checks: &mut Checks) {
    let inputs = Inputs::generate(query, reduced_n(query, quick), seed);
    let plan = match PreparedQuery::from_spec(Arc::new(inputs.pristine.clone()), &inputs.spec) {
        Ok(plan) => plan,
        Err(e) => return checks.check("reduced plan", Err(e.to_string())),
    };
    let expected = plan.count_answers();
    let mut reference: Option<Vec<f64>> = None;
    for alg in AnyKAlgorithm::ALL {
        let got = weights(plan.enumerate(alg));
        let r = if got.len() as u128 != expected {
            Err(format!("{} answers, the plan counts {expected}", got.len()))
        } else {
            same_weights(&got, reference.as_deref().unwrap_or(&got))
        };
        checks.check(&format!("reduced {query:?} via {alg}"), r);
        reference.get_or_insert(got);
    }
}

/// A session opened before an ingest streams its pinned generation
/// unchanged: open over TCP, pull half, ingest, pull the rest, compare with
/// the pre-ingest reference.
pub fn pinned_generation(sys: &mut System, p: &Params, gen: &mut DeltaGen, checks: &mut Checks) {
    let shape = p.shape();
    let Some(served) = &sys.served else { return };
    let before = match PreparedQuery::from_spec(served.service.database(), &sys.inputs.spec) {
        Ok(plan) => reference_answers(&plan, shape.k),
        Err(e) => return checks.check("pinned reference", Err(e.to_string())),
    };
    let text = sys.inputs.text.clone();
    let (reader, writer) = sys.clients.split_at_mut(1);
    let (reader, writer) = (&mut reader[0], writer.first_mut());
    let mut spare;
    let writer = match writer {
        Some(w) => w,
        None => match served.client() {
            Ok(c) => {
                spare = c;
                &mut spare
            }
            Err(e) => return checks.check("pinned writer", Err(e)),
        },
    };
    let result = (|| {
        let session = reader.open_session(&text).map_err(|e| e.to_string())?;
        let mut got = Vec::new();
        let mut ingested = false;
        while got.len() < shape.k {
            if !ingested && got.len() >= shape.k / 2 {
                writer
                    .ingest(&gen.next_batch())
                    .map_err(|e| e.to_string())?;
                ingested = true;
            }
            let page = reader
                .next_page(session, shape.page.min(shape.k - got.len()))
                .map_err(|e| e.to_string())?;
            if page.answers.is_empty() {
                break;
            }
            got.extend(page.answers);
        }
        reader.close(session).map_err(|e| e.to_string())?;
        same_answers("pinned session", &got, &before)
    })();
    checks.check("session pinned across an ingest", result);
}
