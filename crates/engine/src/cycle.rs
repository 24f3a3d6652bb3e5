//! The simple-cycle decomposition (§5.3.1).
//!
//! An ℓ-cycle query `QCℓ(x) :- R1(x1,x2), …, Rℓ(xℓ,x1)` is cyclic, so no join
//! tree exists. Following Alon–Yuster–Zwick and the paper's §5.3.1, the input
//! is partitioned by the first relation whose tuple is *heavy* (its cycle
//! attribute value occurs at least `n^{2/ℓ}` times), yielding ℓ "heavy"
//! partitions plus one "all-light" partition. Every partition admits an
//! acyclic query over **materialised bags** of size `O(n^{2−2/ℓ})`:
//!
//! * the heavy partition broken at attribute `A_i` uses a chain of ℓ−2 bags
//!   `(A_i, A_{i+m+1}, A_{i+m+2})`, each containing the heavy `A_i` values
//!   combined with one original relation (two for the first and last bag);
//! * the all-light partition uses two bags, each a chain join of ℓ/2 light
//!   relations.
//!
//! Each original relation's weight is accounted for in **exactly one** bag
//! (the lineage bookkeeping of §5.3), so the sum of bag weights equals the
//! original witness weight, and the partitions produce **disjoint** outputs,
//! so the UT-DP union needs no duplicate elimination.

use crate::error::EngineError;
use crate::select::Selection;
use anyk_query::{Atom, ConjunctiveQuery};
use anyk_storage::stats::{heavy_threshold, ColumnStats};
use anyk_storage::{Database, Relation, Tuple, Value};

/// One acyclic sub-problem of the decomposition: a database of materialised
/// bag relations and the acyclic query joining them. The bag tuples' weights
/// are already in the engine's *encoded* weight space.
#[derive(Debug, Clone)]
pub struct DecomposedTree {
    /// Bag relations for this partition.
    pub database: Database,
    /// The acyclic query over the bags. Its variables are the original cycle
    /// variables, so answers project directly onto the original head.
    pub query: ConjunctiveQuery,
    /// Human-readable partition label (e.g. `"heavy(R2)"` or `"all-light"`).
    pub label: String,
}

/// The cycle structure of a query: the atoms in cyclic order together with
/// their orientation, and the cycle variables in order.
#[derive(Debug, Clone)]
pub struct CycleShape {
    /// `(atom index, flipped)` in cycle order; `flipped` means the atom's
    /// variables are `(A_{j+1}, A_j)` instead of `(A_j, A_{j+1})`.
    pub atoms: Vec<(usize, bool)>,
    /// The cycle variables `A_0 … A_{ℓ−1}` in cycle order.
    pub variables: Vec<String>,
}

impl CycleShape {
    /// The cycle length ℓ.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the cycle is empty (never true for a detected shape).
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }
}

/// Detect whether `query` is a simple cycle: all atoms binary, every variable
/// shared by exactly two atoms, and the atoms form one cycle of length ≥ 3.
pub fn detect_simple_cycle(query: &ConjunctiveQuery) -> Option<CycleShape> {
    let atoms = query.atoms();
    let ell = atoms.len();
    if ell < 3 {
        return None;
    }
    for a in atoms {
        if a.arity() != 2 || a.variables[0] == a.variables[1] {
            return None;
        }
    }
    // Every variable must occur in exactly two atoms.
    let vars = query.variables();
    if vars.len() != ell {
        return None;
    }
    for v in &vars {
        if atoms.iter().filter(|a| a.binds(v)).count() != 2 {
            return None;
        }
    }
    // Walk the cycle starting from atom 0 in its given orientation.
    let mut order: Vec<(usize, bool)> = vec![(0, false)];
    let mut cycle_vars: Vec<String> = vec![atoms[0].variables[0].clone()];
    let mut current_var = atoms[0].variables[1].clone();
    let mut used = vec![false; ell];
    used[0] = true;
    for _ in 1..ell {
        cycle_vars.push(current_var.clone());
        let (next_idx, next_atom) = atoms
            .iter()
            .enumerate()
            .find(|(i, a)| !used[*i] && a.binds(&current_var))?;
        used[next_idx] = true;
        let flipped = next_atom.variables[1] == current_var;
        order.push((next_idx, flipped));
        current_var = if flipped {
            next_atom.variables[0].clone()
        } else {
            next_atom.variables[1].clone()
        };
    }
    // The walk must close the cycle back at the starting variable.
    if current_var != atoms[0].variables[0] {
        return None;
    }
    Some(CycleShape {
        atoms: order,
        variables: cycle_vars,
    })
}

/// A relation of the cycle, re-oriented so column 0 is its cycle attribute
/// `A_j` and column 1 is `A_{j+1}`, with encoded weights: only the rows
/// `selection` lists for its atom, read column-wise into the scratch
/// database's naming scheme.
fn oriented_relation(
    db: &Database,
    query: &ConjunctiveQuery,
    selection: &Selection,
    shape: &CycleShape,
    j: usize,
    encode: &impl Fn(f64) -> f64,
) -> Relation {
    let (atom_idx, flipped) = shape.atoms[j];
    let source = db.expect(&query.atoms()[atom_idx].relation);
    let (from, to) = if flipped { (1, 0) } else { (0, 1) };
    let (from, to) = (source.column(from), source.column(to));
    let tids = selection.tuple_ids(atom_idx, source);
    let mut out = Relation::with_capacity(oriented_name(j), 2, tids.len());
    for tid in tids {
        out.push_row(&[from[tid], to[tid]], encode(source.tuple(tid).weight()));
    }
    out
}

/// Scratch-database relation names for the decomposition's partitions.
fn oriented_name(j: usize) -> String {
    format!("oriented_{j}")
}
fn heavy_name(j: usize) -> String {
    format!("heavy_{j}")
}
fn light_name(j: usize) -> String {
    format!("light_{j}")
}

/// Decompose a simple ℓ-cycle query (ℓ ≥ 4) over the rows of `db` that
/// `selection` lists into ℓ + 1 acyclic sub-problems.
///
/// `encode` maps input weights into the engine's internal weight space and
/// `combine` aggregates two weights (`+` for sum rankings, `max` for the
/// bottleneck ranking).
pub(crate) fn decompose(
    db: &Database,
    query: &ConjunctiveQuery,
    selection: &Selection,
    encode: impl Fn(f64) -> f64,
    combine: impl Fn(f64, f64) -> f64 + Copy,
) -> Result<Vec<DecomposedTree>, EngineError> {
    let shape = detect_simple_cycle(query)
        .ok_or_else(|| EngineError::UnsupportedCyclicQuery(query.to_string()))?;
    let ell = shape.len();
    if ell < 4 {
        // The decomposition gives no benefit for triangles (§7.2); callers
        // should use the WCOJ fallback.
        return Err(EngineError::UnsupportedCyclicQuery(query.to_string()));
    }

    // Re-orient all relations so that relation j is over (A_j, A_{j+1}). The
    // oriented copies and their heavy/light splits live in a scratch database
    // so that the indexes the partitions request repeatedly (each heavy tree
    // indexes the same oriented/light relations by the same key) are built
    // once and then served from the database's index cache.
    let mut scratch = Database::new();
    for j in 0..ell {
        scratch.add(oriented_relation(db, query, selection, &shape, j, &encode));
    }
    let n = scratch.relations().map(Relation::len).max().unwrap_or(0);
    let threshold = heavy_threshold(n, ell);

    // Heavy value sets and heavy/light splits, per relation, on column 0 (A_j).
    let stats: Vec<ColumnStats> = (0..ell)
        .map(|j| ColumnStats::compute(scratch.expect(&oriented_name(j)), 0))
        .collect();
    let splits: Vec<Relation> = stats
        .iter()
        .enumerate()
        .flat_map(|(j, s)| {
            let r = scratch.expect(&oriented_name(j));
            [
                r.filter(heavy_name(j), |t| s.is_heavy(t.value(0), threshold)),
                r.filter(light_name(j), |t| !s.is_heavy(t.value(0), threshold)),
            ]
        })
        .collect();
    for split in splits {
        scratch.add(split);
    }

    let mut trees = Vec::with_capacity(ell + 1);
    for (i, heavy_stats) in stats.iter().enumerate() {
        if scratch.expect(&heavy_name(i)).is_empty() {
            continue; // empty partition: contributes no answers
        }
        // Partition T_i: relations before i are light, relation i is heavy,
        // relations after i are unrestricted.
        let part = |j: usize| -> String {
            if j < i {
                light_name(j)
            } else if j == i {
                heavy_name(i)
            } else {
                oriented_name(j)
            }
        };
        let label = format!("heavy({})", query.atoms()[shape.atoms[i].0].relation);
        if let Some(tree) = build_heavy_tree(
            &scratch,
            &shape,
            i,
            part,
            heavy_stats,
            threshold,
            combine,
            &label,
        ) {
            trees.push(tree);
        }
    }
    if let Some(tree) = build_light_tree(&scratch, &shape, combine) {
        trees.push(tree);
    }
    Ok(trees)
}

/// Build the heavy tree of partition `i` as a chain of ℓ−2 bags. `part` maps
/// an absolute cycle position to its partition relation's name within
/// `scratch`, whose index cache serves the repeated per-partition indexes.
#[allow(clippy::too_many_arguments)]
fn build_heavy_tree(
    scratch: &Database,
    shape: &CycleShape,
    i: usize,
    part: impl Fn(usize) -> String,
    heavy_stats: &ColumnStats,
    threshold: usize,
    combine: impl Fn(f64, f64) -> f64 + Copy,
    label: &str,
) -> Option<DecomposedTree> {
    let ell = shape.len();
    let var = |k: usize| shape.variables[(i + k) % ell].clone();
    let rel_name = |k: usize| part((i + k) % ell);
    let heavy_values: Vec<Value> = heavy_stats.heavy_values(threshold);

    let mut database = Database::new();
    let mut atoms = Vec::new();

    for m in 0..ell - 2 {
        let bag_name = format!("bag{m}");
        let mut bag = Relation::new(bag_name.clone(), 3);
        if m == 0 {
            // (A_i, A_{i+1}, A_{i+2}) = S_0 ⋈ S_1 (S_0 is the heavy split).
            let s1 = scratch.expect(&rel_name(1));
            let idx = scratch.index(&rel_name(1), &[0]);
            for (_, t0) in scratch.expect(&rel_name(0)).iter() {
                for &tid in idx.lookup1(t0.value(1)) {
                    let t1 = s1.tuple(tid);
                    bag.push_row(
                        &[t0.value(0), t0.value(1), t1.value(1)],
                        combine(t0.weight(), t1.weight()),
                    );
                }
            }
        } else if m == ell - 3 {
            // (A_i, A_{i+ℓ-2}, A_{i+ℓ-1}) checking both S_{ℓ-2} and the
            // closing relation S_{ℓ-1}(A_{i+ℓ-1}, A_i).
            let closing = scratch.expect(&rel_name(ell - 1));
            let idx = scratch.index(&rel_name(ell - 1), &[0, 1]);
            let second_last = scratch.expect(&rel_name(ell - 2));
            for &a in &heavy_values {
                for (_, t) in second_last.iter() {
                    for &ctid in idx.lookup(&[t.value(1), a]) {
                        let c = closing.tuple(ctid);
                        bag.push_row(
                            &[a, t.value(0), t.value(1)],
                            combine(t.weight(), c.weight()),
                        );
                    }
                }
            }
        } else {
            // (A_i, A_{i+m+1}, A_{i+m+2}) = heavy values × S_{m+1}.
            let source = scratch.expect(&rel_name(m + 1));
            for &a in &heavy_values {
                for (_, t) in source.iter() {
                    bag.push_row(&[a, t.value(0), t.value(1)], t.weight());
                }
            }
        }
        if bag.is_empty() {
            return None; // this partition produces no answers
        }
        atoms.push(Atom::new(
            bag_name.clone(),
            &[var(0).as_str(), var(m + 1).as_str(), var(m + 2).as_str()],
        ));
        database.add(bag);
    }

    Some(DecomposedTree {
        database,
        query: ConjunctiveQuery::full(atoms),
        label: label.to_string(),
    })
}

/// Build the all-light tree: two bags, each a chain join of roughly ℓ/2
/// light relations (resolved by name from the scratch database).
fn build_light_tree(
    scratch: &Database,
    shape: &CycleShape,
    combine: impl Fn(f64, f64) -> f64 + Copy,
) -> Option<DecomposedTree> {
    let ell = shape.len();
    let h = ell.div_ceil(2);
    let names: Vec<String> = (0..ell).map(light_name).collect();
    // Left bag over A_0..A_h, right bag over A_h..A_{ℓ-1},A_0.
    let left = chain_join(scratch, &names[0..h], combine)?;
    let right = chain_join(scratch, &names[h..ell], combine)?;

    let mut database = Database::new();
    let mut left_rel = Relation::new("light_left", h + 1);
    for t in left {
        left_rel.push(t);
    }
    let mut right_rel = Relation::new("light_right", ell - h + 1);
    for t in right {
        right_rel.push(t);
    }
    if left_rel.is_empty() || right_rel.is_empty() {
        return None;
    }
    database.add(left_rel);
    database.add(right_rel);

    let left_vars: Vec<String> = (0..=h).map(|k| shape.variables[k].clone()).collect();
    let mut right_vars: Vec<String> = (h..ell).map(|k| shape.variables[k].clone()).collect();
    right_vars.push(shape.variables[0].clone());
    let atoms = vec![
        Atom::new(
            "light_left",
            &left_vars.iter().map(String::as_str).collect::<Vec<_>>(),
        ),
        Atom::new(
            "light_right",
            &right_vars.iter().map(String::as_str).collect::<Vec<_>>(),
        ),
    ];
    Some(DecomposedTree {
        database,
        query: ConjunctiveQuery::full(atoms),
        label: "all-light".to_string(),
    })
}

/// Chain-join named binary relations `T_0(A_0,A_1) ⋈ T_1(A_1,A_2) ⋈ …` of
/// the scratch database, producing tuples over `(A_0, …, A_k)` with combined
/// weights. Returns `None` if the name slice is empty. Per-step indexes come
/// from the scratch cache (the heavy trees request the same `light_j` keys).
fn chain_join(
    scratch: &Database,
    names: &[String],
    combine: impl Fn(f64, f64) -> f64 + Copy,
) -> Option<Vec<Tuple>> {
    let first = scratch.expect(names.first()?);
    let mut acc: Vec<Tuple> = first
        .tuples()
        .map(|t| Tuple::new(vec![t.value(0), t.value(1)], t.weight()))
        .collect();
    for name in &names[1..] {
        let rel = scratch.expect(name);
        let idx = scratch.index(name, &[0]);
        let mut next = Vec::new();
        for t in &acc {
            let join_val = *t.values().last().expect("non-empty chain tuple");
            for &tid in idx.lookup1(join_val) {
                let ext = rel.tuple(tid);
                let mut values = t.values().to_vec();
                values.push(ext.value(1));
                next.push(Tuple::new(values, combine(t.weight(), ext.weight())));
            }
        }
        acc = next;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_query::QueryBuilder;

    fn cycle_db(ell: usize, edges: &[(u64, u64, f64)]) -> Database {
        let mut db = Database::new();
        for i in 1..=ell {
            let mut r = Relation::new(format!("R{i}"), 2);
            for &(a, b, w) in edges {
                r.push_edge(a, b, w);
            }
            db.add(r);
        }
        db
    }

    #[test]
    fn detects_canonical_cycles() {
        for ell in [3, 4, 5, 6] {
            let q = QueryBuilder::cycle(ell).build();
            let shape = detect_simple_cycle(&q).expect("cycle shape");
            assert_eq!(shape.len(), ell);
            assert_eq!(shape.variables.len(), ell);
            assert!(shape.atoms.iter().all(|(_, flipped)| !flipped));
        }
    }

    #[test]
    fn detects_reversed_atom_orientation() {
        // R1(x1,x2), R2(x3,x2), R3(x3,x4), R4(x1,x4): still a simple 4-cycle,
        // with atoms 2 and 4 flipped.
        let q = QueryBuilder::new()
            .atom("R1", &["x1", "x2"])
            .atom("R2", &["x3", "x2"])
            .atom("R3", &["x3", "x4"])
            .atom("R4", &["x1", "x4"])
            .build();
        let shape = detect_simple_cycle(&q).expect("cycle shape");
        assert_eq!(shape.len(), 4);
        assert!(shape.atoms.iter().any(|(_, flipped)| *flipped));
    }

    #[test]
    fn rejects_paths_and_stars() {
        assert!(detect_simple_cycle(&QueryBuilder::path(4).build()).is_none());
        assert!(detect_simple_cycle(&QueryBuilder::star(4).build()).is_none());
    }

    #[test]
    fn decomposition_covers_all_witnesses_exactly_once() {
        // A small 4-cycle instance with both heavy and light values:
        // the worst-case construction of §7 (values 0 are heavy hubs).
        let n = 8u64;
        let mut edges = Vec::new();
        for i in 1..=n / 2 {
            edges.push((0, i, i as f64));
            edges.push((i, 0, 10.0 * i as f64));
        }
        let db = cycle_db(4, &edges);
        let q = QueryBuilder::cycle(4).build();
        let trees = decompose(&db, &q, &Selection::default(), |w| w, |a, b| a + b).unwrap();
        assert!(!trees.is_empty());
        assert!(trees.len() <= 5);
        // Brute-force the cycle output to compare total counts.
        let r = db.expect("R1");
        let mut expected = 0usize;
        for (_, t1) in r.iter() {
            for (_, t2) in db.expect("R2").iter() {
                if t1.value(1) != t2.value(0) {
                    continue;
                }
                for (_, t3) in db.expect("R3").iter() {
                    if t2.value(1) != t3.value(0) {
                        continue;
                    }
                    for (_, t4) in db.expect("R4").iter() {
                        if t3.value(1) == t4.value(0) && t4.value(1) == t1.value(0) {
                            expected += 1;
                        }
                    }
                }
            }
        }
        // Count the decomposed answers by brute-forcing each tree.
        let mut got = 0usize;
        for tree in &trees {
            got += count_tree_answers(&tree.database, &tree.query);
        }
        assert_eq!(got, expected);
        assert!(expected > 0);
    }

    /// Brute-force count of the answers of a 2- or 3-atom acyclic bag query.
    fn count_tree_answers(db: &Database, q: &ConjunctiveQuery) -> usize {
        use std::collections::HashMap;
        let atoms = q.atoms();
        let mut count = 0usize;
        // Enumerate assignments atom by atom (tiny inputs, exponential is fine).
        fn recurse(
            db: &Database,
            atoms: &[Atom],
            idx: usize,
            binding: &mut HashMap<String, Value>,
            count: &mut usize,
        ) {
            if idx == atoms.len() {
                *count += 1;
                return;
            }
            let atom = &atoms[idx];
            let rel = db.expect(&atom.relation);
            'tuples: for (_, t) in rel.iter() {
                let mut newly_bound = Vec::new();
                for (pos, v) in atom.variables.iter().enumerate() {
                    match binding.get(v) {
                        Some(&val) if val != t.value(pos) => {
                            for nb in newly_bound {
                                binding.remove(nb);
                            }
                            continue 'tuples;
                        }
                        Some(_) => {}
                        None => {
                            binding.insert(v.clone(), t.value(pos));
                            newly_bound.push(v.as_str());
                        }
                    }
                }
                recurse(db, atoms, idx + 1, binding, count);
                for nb in newly_bound {
                    binding.remove(nb);
                }
            }
        }
        recurse(db, atoms, 0, &mut HashMap::new(), &mut count);
        count
    }

    #[test]
    fn triangle_is_rejected() {
        let db = cycle_db(3, &[(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)]);
        let q = QueryBuilder::cycle(3).build();
        assert!(decompose(&db, &q, &Selection::default(), |w| w, |a, b| a + b).is_err());
    }

    #[test]
    fn six_cycle_decomposition_produces_trees_with_four_bags() {
        let mut edges = Vec::new();
        for i in 1..=4u64 {
            edges.push((0, i, 1.0));
            edges.push((i, 0, 1.0));
        }
        let db = cycle_db(6, &edges);
        let q = QueryBuilder::cycle(6).build();
        let trees = decompose(&db, &q, &Selection::default(), |w| w, |a, b| a + b).unwrap();
        for tree in &trees {
            if tree.label.starts_with("heavy") {
                assert_eq!(tree.query.num_atoms(), 4, "6-cycle heavy tree has ℓ-2 bags");
            } else {
                assert_eq!(tree.query.num_atoms(), 2, "light tree has two bags");
            }
            assert!(tree.query.is_acyclic());
        }
    }
}
