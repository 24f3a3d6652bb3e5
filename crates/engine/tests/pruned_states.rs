//! Pruned states stay in a plan's successor lists; choice sets skip them.
//! Over inputs where at least 30 % of the join keys on either side of every
//! join find no partner, so many states are pruned, and again after a
//! refresh that kills states, every algorithm must stream exactly what the
//! hash-join oracle returns, `count_answers` must equal the oracle's count,
//! and MEM(k)'s `structure_choices` must count live choices only.

use anyk_core::AnyKAlgorithm;
use anyk_engine::naive_sql::join_and_sort;
use anyk_engine::{Answer, PreparedQuery, RankingFunction};
use anyk_query::{gyo, ConjunctiveQuery, QueryBuilder};
use anyk_storage::{Database, DeltaBatch, Relation, Tuple, TupleId, Value};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// Deterministic xorshift64* so failures reproduce.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D) % n
    }

    fn in_range(&mut self, lo: u64, width: u64) -> Value {
        lo + self.below(width)
    }

    /// A random weight; with 2⁴⁰ of them, sums of a few never tie in
    /// practice, so every ranked stream has exactly one valid order.
    fn weight(&mut self) -> f64 {
        self.below(1 << 40) as f64 / 1024.0
    }
}

const ROWS: usize = 60;
const WIDTH: u64 = 20;

/// Path-4: every `R_i(a, b)` draws `b` from `[0, W)` and `a` from
/// `[W/2, 3W/2)`, so half of the keys on either side of each join have no
/// partner.
fn path_db(rng: &mut Rng) -> Database {
    let mut db = Database::new();
    for i in 1..=4 {
        let mut r = Relation::new(format!("R{i}"), 2);
        for _ in 0..ROWS {
            let a = rng.in_range(WIDTH / 2, WIDTH);
            r.push_edge(a, rng.below(WIDTH), rng.weight());
        }
        db.add(r);
    }
    db
}

/// Star-3: arm `R_i(x, y_i)` draws `x` from a window of width `W` shifted by
/// `0.4·W·(i − 1)`, so any two arms share at most 60 % of their keys.
fn star_db(rng: &mut Rng) -> Database {
    let mut db = Database::new();
    for i in 1..=3 {
        let mut r = Relation::new(format!("R{i}"), 2);
        for _ in 0..ROWS {
            let x = rng.in_range(2 * WIDTH * (i - 1) / 5, WIDTH);
            r.push_edge(x, rng.below(WIDTH), rng.weight());
        }
        db.add(r);
    }
    db
}

/// The test's premise: for every pair of atoms that share a variable, at
/// least 30 % of either side's keys on it match nothing on the other side.
fn assert_keys_dangle(db: &Database, q: &ConjunctiveQuery) {
    let atoms = q.atoms();
    let keys = |a: usize, var: &String| -> HashSet<Value> {
        let col = atoms[a].variables.iter().position(|v| v == var).unwrap();
        db.expect(&atoms[a].relation)
            .column(col)
            .iter()
            .copied()
            .collect()
    };
    for a in 0..atoms.len() {
        for b in (0..atoms.len()).filter(|&b| b != a) {
            for var in atoms[a].shared_variables(&atoms[b]) {
                let (mine, theirs) = (keys(a, &var), keys(b, &var));
                let alone = mine.difference(&theirs).count();
                assert!(
                    alone * 10 >= mine.len() * 3,
                    "atom {a} on {var}: {alone} of {} keys dangle",
                    mine.len()
                );
            }
        }
    }
}

/// The live choices a full enumeration holds in successor structures: s₀'s
/// choice of every root tuple that is in an answer, and per join-tree link,
/// one choice per child tuple in one. A parent tuple's one decision into its
/// value node sits at a forced position, which holds no structure.
fn live_choices(q: &ConjunctiveQuery, oracle: &[Answer]) -> usize {
    let tree = gyo::join_tree(q.atoms()).expect("acyclic");
    let mut used: Vec<BTreeSet<TupleId>> = vec![BTreeSet::new(); q.atoms().len()];
    for answer in oracle {
        for &(atom, tid) in answer.witness() {
            used[atom].insert(tid);
        }
    }
    let root = tree.root();
    used[root].len()
        + (0..used.len())
            .filter_map(|a| tree.parent(a).map(|_| used[a].len()))
            .sum::<usize>()
}

fn check(plan: &PreparedQuery, db: &Database, q: &ConjunctiveQuery, label: &str) {
    let oracle = join_and_sort(db, q, RankingFunction::SumAscending).unwrap();
    assert!(!oracle.is_empty(), "{label}: the join is not empty");
    assert_eq!(plan.count_answers(), oracle.len() as u128, "{label}: count");
    for alg in AnyKAlgorithm::ALL {
        let stream: Vec<Answer> = plan.enumerate(alg).collect();
        assert_eq!(stream, oracle, "{label}: {alg} stream");
        if let Some(mem) = plan.mem_profile(alg, oracle.len()) {
            assert_eq!(
                mem.structure_choices,
                live_choices(q, &oracle),
                "{label}: {alg} structure_choices"
            );
        }
    }
}

/// Delete the first tuple of every relation that is in an answer, and insert
/// a joining and a dangling tuple into every relation.
fn killing_batch(db: &Database, q: &ConjunctiveQuery, rng: &mut Rng) -> DeltaBatch {
    let oracle = join_and_sort(db, q, RankingFunction::SumAscending).unwrap();
    let mut batch = DeltaBatch::new();
    for (a, atom) in q.atoms().iter().enumerate() {
        let used = oracle.iter().flat_map(|x| x.witness()).find(|w| w.0 == a);
        batch = batch.delete(&atom.relation, used.expect("every atom is in an answer").1);
        let row = db.expect(&atom.relation).tuple(0);
        let joining = Tuple::new(vec![row.value(0), row.value(1)], rng.weight());
        let dangling = Tuple::new(vec![10 * WIDTH, 10 * WIDTH], rng.weight());
        batch = batch
            .insert(&atom.relation, joining)
            .insert(&atom.relation, dangling);
    }
    batch
}

fn built_and_refreshed(db: Database, q: &ConjunctiveQuery, rng: &mut Rng, label: &str) {
    assert_keys_dangle(&db, q);
    let db = Arc::new(db);
    let plan =
        PreparedQuery::prepare_delta(Arc::clone(&db), q, RankingFunction::SumAscending).unwrap();
    check(&plan, &db, q, &format!("{label}, built"));

    let batch = killing_batch(&db, q, rng);
    let next = Arc::new(db.apply_delta(&batch).unwrap());
    let refreshed = plan.refresh(Arc::clone(&next), &batch).unwrap();
    assert_ne!(
        refreshed.count_answers(),
        plan.count_answers(),
        "{label}: states were killed"
    );
    check(&refreshed, &next, q, &format!("{label}, refreshed"));
}

#[test]
fn a_path_with_dangling_keys_streams_the_oracle_built_and_refreshed() {
    let mut rng = Rng(0x5EED_0001);
    let db = path_db(&mut rng);
    built_and_refreshed(db, &QueryBuilder::path(4).build(), &mut rng, "path-4");
}

#[test]
fn a_star_with_dangling_keys_streams_the_oracle_built_and_refreshed() {
    let mut rng = Rng(0x5EED_0002);
    let db = star_db(&mut rng);
    built_and_refreshed(db, &QueryBuilder::star(3).build(), &mut rng, "star-3");
}
