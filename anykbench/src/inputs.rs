//! Everything the program is handed: databases, query text and delta
//! batches, all derived from `--seed`. The program never sees the seed.

use crate::tables::Query;
use anyk_datagen::{cycles, rng, uniform};
use anyk_query::{parse_query, QueryBuilder, QuerySpec, RankingFunction};
use anyk_storage::{Database, DeltaBatch, Tuple};
use std::collections::BTreeSet;
use std::time::Instant;

pub struct Inputs {
    /// Never queried directly: every consumer clones it, so its index cache
    /// stays empty and a clone is a cold database.
    pub pristine: Database,
    pub spec: QuerySpec,
    /// Query-language text of `spec`, as a client would send it.
    pub text: String,
    pub query: Query,
    /// Tuples per relation.
    pub n: usize,
    pub seed: u64,
    /// Seconds spent generating the data and building the `Database`.
    pub datagen_s: f64,
}

impl Inputs {
    pub fn generate(query: Query, n: usize, seed: u64) -> Inputs {
        let start = Instant::now();
        let pristine = match query {
            Query::Path4 | Query::Filter4 => uniform::path_or_star_database(4, n, &mut rng(seed)),
            Query::Cycle6 => cycles::worst_case_cycle_database(6, n, &mut rng(seed)),
        };
        let datagen_s = start.elapsed().as_secs_f64();
        let spec = match query {
            Query::Path4 => QuerySpec::from_query(
                &QueryBuilder::path(4).build(),
                RankingFunction::SumAscending,
            ),
            Query::Filter4 => parse_query(&format!(
                "Q(x1, x2, x3, x4, x5) :- R1(x1, x2), R2(x2, x3), R3(x3, x4), R4(x4, x5), x3 = {}",
                filter_constant(&pristine)
            ))
            .expect("filter4 request parses"),
            Query::Cycle6 => QuerySpec::from_query(
                &QueryBuilder::cycle(6).build(),
                RankingFunction::SumAscending,
            ),
        };
        let text = spec.canonical_text();
        Inputs {
            pristine,
            spec,
            text,
            query,
            n,
            seed,
            datagen_s,
        }
    }

    pub fn relations(&self) -> Vec<String> {
        self.spec.atoms.iter().map(|a| a.relation.clone()).collect()
    }

    /// The `(relation, key columns)` pairs a join over the atoms in written
    /// order probes: each atom after the first, keyed on the variables it
    /// shares with the atoms before it. Used to time `HashIndex::build` on
    /// its own; the engine's real choice may differ in direction, which
    /// does not change the build cost on these symmetric inputs.
    pub fn index_keys(&self) -> Vec<(String, Vec<usize>)> {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut keys = Vec::new();
        for (i, atom) in self.spec.atoms.iter().enumerate() {
            let shared: Vec<usize> = atom
                .variables
                .iter()
                .enumerate()
                .filter(|(_, v)| seen.contains(v.as_str()))
                .map(|(col, _)| col)
                .collect();
            if i > 0 && !shared.is_empty() {
                keys.push((atom.relation.clone(), shared));
            }
            seen.extend(atom.variables.iter().map(String::as_str));
        }
        keys
    }
}

/// The constant `c` of filter-4's `x3 = c`. A fixed literal would make the
/// filtered plan's size swing by tens of percent from seed to seed (the
/// count of a single value among 50 000 uniform draws is Poisson(10)), so
/// the value is picked from the data: the one whose selectivity on `R2`,
/// `R3` and fan-out into `R1`, `R4` is closest to the expectation. Every
/// seed then serves a plan of the same size.
fn filter_constant(db: &Database) -> u64 {
    let col = |rel: &str, c: usize| db.expect(rel).column(c);
    let domain = col("R2", 1)
        .iter()
        .chain(col("R3", 0))
        .max()
        .copied()
        .unwrap_or(1) as usize;
    let counts = |values: &[u64]| {
        let mut c = vec![0u64; domain + 1];
        for &v in values {
            if let Some(slot) = c.get_mut(v as usize) {
                *slot += 1;
            }
        }
        c
    };
    // How many tuples of R1 end at / R4 start from each value.
    let (r1_in, r4_out) = (counts(col("R1", 1)), counts(col("R4", 0)));
    let (mut hits2, mut hits3) = (vec![0u64; domain + 1], vec![0u64; domain + 1]);
    let (mut fan1, mut fan4) = (vec![0u64; domain + 1], vec![0u64; domain + 1]);
    for (&x2, &x3) in col("R2", 0).iter().zip(col("R2", 1)) {
        hits2[x3 as usize] += 1;
        fan1[x3 as usize] += r1_in.get(x2 as usize).copied().unwrap_or(0);
    }
    for (&x3, &x4) in col("R3", 0).iter().zip(col("R3", 1)) {
        hits3[x3 as usize] += 1;
        fan4[x3 as usize] += r4_out.get(x4 as usize).copied().unwrap_or(0);
    }
    let n = db.expect("R2").len() as u64;
    let per_value = (n / domain.max(1) as u64).max(1);
    let off = |got: u64, want: u64| got.abs_diff(want);
    (1..=domain as u64)
        .min_by_key(|&v| {
            let i = v as usize;
            (
                off(hits2[i], per_value) + off(hits3[i], per_value),
                off(fan1[i], per_value * per_value) + off(fan4[i], per_value * per_value),
                v,
            )
        })
        .unwrap_or(1)
}

/// SplitMix64: the bench's own generator for delta batches, so batches
/// depend on nothing but the seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A stream of delta batches over one database lineage: each batch deletes
/// 0.1 % of every relation's tuples and inserts as many fresh ones drawn
/// like the original data, so relation sizes — and the cost of the next
/// batch — stay put. Clones replay the same stream, which lets the traced
/// run feed identical batches to each depth's own lineage.
#[derive(Debug, Clone)]
pub struct DeltaGen {
    rng: SplitMix64,
    query: Query,
    relations: Vec<String>,
    n: usize,
}

impl DeltaGen {
    /// `stream` separates the batch sequences of one run (window, probe,
    /// ladder): replaying a sequence onto data that already absorbed it
    /// would insert duplicate tuples, i.e. exact weight ties.
    pub fn new(inputs: &Inputs, stream: u64) -> DeltaGen {
        DeltaGen {
            rng: SplitMix64::new(
                (inputs.seed ^ 0xD1B5_4A32_D192_ED03)
                    .wrapping_add(stream.wrapping_mul(0x2545_F491_4F6C_DD1D)),
            ),
            query: inputs.query,
            relations: inputs.relations(),
            n: inputs.n,
        }
    }

    /// Edits of each kind per relation per batch.
    pub fn edits_per_relation(&self) -> usize {
        (self.n / 1000).max(1)
    }

    pub fn next_batch(&mut self) -> DeltaBatch {
        let edits = self.edits_per_relation();
        let n = self.n as u64;
        let mut batch = DeltaBatch::new();
        for rel in &self.relations {
            let mut deletes = BTreeSet::new();
            while deletes.len() < edits {
                deletes.insert(self.rng.below(n) as usize);
            }
            for tid in deletes {
                batch = batch.delete(rel, tid);
            }
            for _ in 0..edits {
                let weight = self.rng.unit() * 10_000.0;
                let values = match self.query {
                    Query::Path4 | Query::Filter4 => {
                        let domain = (n / 10).max(1);
                        vec![1 + self.rng.below(domain), 1 + self.rng.below(domain)]
                    }
                    // Keep the hub shape: (0, i) or (i, 0).
                    Query::Cycle6 => {
                        let i = 1 + self.rng.below((n / 2).max(1));
                        if self.rng.below(2) == 0 {
                            vec![0, i]
                        } else {
                            vec![i, 0]
                        }
                    }
                };
                batch = batch.insert(rel, Tuple::new(values, weight));
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = Inputs::generate(Query::Filter4, 400, 5);
        let b = Inputs::generate(Query::Filter4, 400, 5);
        assert_eq!(a.text, b.text);
        assert_eq!(
            a.pristine.expect("R3").column(0),
            b.pristine.expect("R3").column(0)
        );
        let c = Inputs::generate(Query::Filter4, 400, 6);
        assert_ne!(
            a.pristine.expect("R3").column(0),
            c.pristine.expect("R3").column(0)
        );
    }

    #[test]
    fn filter_constant_has_expected_selectivity() {
        let inputs = Inputs::generate(Query::Filter4, 20_000, 3);
        let c = inputs.spec.predicates[0]
            .constant
            .to_string()
            .parse::<u64>()
            .unwrap();
        let hits = |rel: &str, col: usize| {
            inputs
                .pristine
                .expect(rel)
                .column(col)
                .iter()
                .filter(|&&v| v == c)
                .count()
        };
        // Expected 10 each; a single value's count is Poisson(10), i.e.
        // anywhere in 3..=20 if the constant were a fixed literal.
        let (h2, h3) = (hits("R2", 1), hits("R3", 0));
        assert!(h2.abs_diff(10) + h3.abs_diff(10) <= 1, "{h2} {h3}");
    }

    #[test]
    fn batches_are_stationary_valid_and_replayable() {
        let inputs = Inputs::generate(Query::Path4, 3000, 9);
        let mut gen = DeltaGen::new(&inputs, 0);
        let mut replay = gen.clone();
        let mut db = inputs.pristine.clone();
        for _ in 0..5 {
            let batch = gen.next_batch();
            assert_eq!(batch.edit_count(), 4 * 2 * 3);
            assert_eq!(format!("{batch:?}"), format!("{:?}", replay.next_batch()));
            db = db.apply_delta(&batch).expect("batch applies");
            assert!(db.relations().all(|r| r.len() == 3000));
        }
    }

    #[test]
    fn index_keys_follow_the_join_order() {
        let path = Inputs::generate(Query::Path4, 50, 1);
        assert_eq!(
            path.index_keys(),
            vec![
                ("R2".to_string(), vec![0]),
                ("R3".to_string(), vec![0]),
                ("R4".to_string(), vec![0])
            ]
        );
    }
}
