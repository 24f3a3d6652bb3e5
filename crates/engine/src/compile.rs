//! Compilation of acyclic full conjunctive queries into T-DP instances
//! (§3, §5.1) using the `O(ℓn)` equi-join encoding of Fig. 3.
//!
//! Every atom of the query becomes one *output* stage whose states are the
//! tuples of the referenced relation (payload = tuple id, weight = the
//! tuple's encoded weight). Between a child atom's stage and its parent's
//! stage sits an auxiliary **value-node** stage with one state per distinct
//! join-key value: parent tuples connect to the value node of their key with
//! weight `1̄`, and the value node connects to every child tuple with that
//! key. This keeps the number of decisions linear in the input instead of
//! quadratic, and — crucially for `Recursive` — lets all parent tuples with
//! the same key *share* the ranked stream of suffixes below the value node.

use crate::answer::Answer;
use crate::error::EngineError;
use crate::select::Selection;
use anyk_core::dioid::{Dioid, OrderedF64};
use anyk_core::solution::Solution;
use anyk_core::tdp::{NodeId, StageId, TdpBuilder, TdpInstance};
use anyk_query::{gyo, ConjunctiveQuery};
use anyk_storage::{Database, HashIndex, RowRef, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A compiled acyclic query: the T-DP instance plus the metadata needed to
/// turn its [`Solution`]s back into query [`Answer`]s.
#[derive(Debug, Clone)]
pub struct Compiled<D: Dioid> {
    /// The T-DP instance (bottom-up phase already run).
    pub instance: TdpInstance<D>,
    /// For each output stage (in the instance's serial order): the index of
    /// the query atom it encodes.
    output_atoms: Vec<usize>,
    /// For each output stage (aligned with `output_atoms`): its serial
    /// position, i.e. where its state sits in a [`Solution`].
    output_positions: Vec<usize>,
    /// Relation name per atom.
    pub(crate) atom_relations: Vec<String>,
    /// The query's head variables.
    head_vars: Vec<String>,
    /// For each head variable: (position within `output_atoms`, column of
    /// that atom's relation holding the variable's value).
    var_sources: Vec<(usize, usize)>,
    /// The tuple↔state bookkeeping needed to maintain the instance under
    /// input deltas (see `crate::refresh`); captured only when
    /// `compile_with_opts` is asked to retain it.
    pub(crate) delta: Option<DeltaSupport>,
}

/// Per-compilation bookkeeping for delta maintenance: which T-DP state each
/// input tuple became, and how atoms link through value-node stages.
#[derive(Debug, Clone)]
pub(crate) struct DeltaSupport {
    /// Atom indices in join-tree traversal order (root first).
    pub(crate) order: Vec<usize>,
    /// The output stage of each atom (by atom index).
    pub(crate) stage_of_atom: Vec<StageId>,
    /// For each non-root atom: how it hangs off its parent. `None` for the
    /// traversal root.
    pub(crate) parent_link: Vec<Option<AtomLink>>,
    /// Child atoms of each atom in the join tree (by atom index).
    pub(crate) children: Vec<Vec<usize>>,
    /// State per (atom, tuple id); `None` for tuples dropped by the
    /// semi-join part of the encoding.
    pub(crate) states: Vec<Vec<Option<NodeId>>>,
}

/// How a non-root atom connects to its parent in the equi-join encoding.
#[derive(Debug, Clone)]
pub(crate) struct AtomLink {
    /// The parent atom's index.
    pub(crate) parent_atom: usize,
    /// Join-key positions within the parent atom's relation.
    pub(crate) parent_positions: Vec<usize>,
    /// Join-key positions within this atom's relation.
    pub(crate) child_positions: Vec<usize>,
    /// The value-node stage between parent and child.
    pub(crate) value_stage: StageId,
    /// The value node of every join-key value that has one — keys occurring
    /// on the parent side at compile time, plus keys whose vnode a later
    /// refresh created. Orphaned vnodes (all parents deleted) stay mapped:
    /// the "state exists ⇔ key has a vnode" invariant is what lets a refresh
    /// materialise new child tuples exactly once.
    pub(crate) vnode_by_key: std::collections::HashMap<Vec<Value>, NodeId>,
}

/// Validate that every atom references an existing relation of matching arity.
pub fn validate(db: &Database, query: &ConjunctiveQuery) -> Result<(), EngineError> {
    for atom in query.atoms() {
        let rel = db
            .get(&atom.relation)
            .ok_or_else(|| EngineError::UnknownRelation(atom.relation.clone()))?;
        if rel.arity() != atom.arity() {
            return Err(EngineError::ArityMismatch {
                relation: atom.relation.clone(),
                atom_arity: atom.arity(),
                relation_arity: rel.arity(),
            });
        }
    }
    Ok(())
}

/// Compile an acyclic full CQ into a T-DP instance over the dioid `D`,
/// weighting each input tuple with `weight_fn`.
///
/// Returns [`EngineError::UnsupportedCyclicQuery`] if the query has no join
/// tree (use [`crate::cycle`] or [`crate::wcoj`] for cyclic queries).
pub fn compile_with<D, F>(
    db: &Database,
    query: &ConjunctiveQuery,
    weight_fn: F,
) -> Result<Compiled<D>, EngineError>
where
    D: Dioid<V = OrderedF64>,
    F: Fn(RowRef<'_>) -> f64,
{
    compile_with_opts(db, query, &Selection::default(), weight_fn, false)
}

/// The compile entry point over the rows `selection` lists (see
/// [`crate::select`]), with `retain_delta` explicit: when set, the plan
/// additionally keeps the full T-DP topology and the tuple↔state
/// bookkeeping needed for [`crate::refresh`] (one extra CSR copy plus `O(n)`
/// state maps). A plan over a non-trivial selection never keeps it, since
/// refresh maps states by tuple id over every row.
///
/// Structural defects — a join-tree key not bound by its atom, a head
/// variable missing from the body — surface as typed
/// [`EngineError::Query`] errors rather than panics, since arbitrary names
/// can reach this through the textual query path.
pub(crate) fn compile_with_opts<D, F>(
    db: &Database,
    query: &ConjunctiveQuery,
    selection: &Selection,
    weight_fn: F,
    retain_delta: bool,
) -> Result<Compiled<D>, EngineError>
where
    D: Dioid<V = OrderedF64>,
    F: Fn(RowRef<'_>) -> f64,
{
    validate(db, query)?;
    let join_tree = gyo::join_tree(query.atoms())
        .ok_or_else(|| EngineError::UnsupportedCyclicQuery(query.to_string()))?;
    let retain_delta = retain_delta && selection.is_trivial();
    let atoms = query.atoms();
    let order = join_tree.traversal_order();
    let mut builder = TdpBuilder::<D>::new();
    builder.retain_topology(retain_delta);
    // Delta bookkeeping, filled only when `retain_delta` (see DeltaSupport).
    let mut parent_link: Vec<Option<AtomLink>> = vec![None; atoms.len()];
    let mut tree_children: Vec<Vec<usize>> = vec![Vec::new(); atoms.len()];

    // Stage id of each atom's (output) stage, indexed by atom index.
    let mut stage_of_atom: Vec<Option<StageId>> = vec![None; atoms.len()];
    // T-DP states of each atom's rows, indexed by atom index then row (the
    // tuple id itself when the atom ranges over every row). `None` for rows
    // that were not materialised (child tuples whose join key never occurs
    // on the parent side). A state's payload is its tuple id.
    let mut states_of_atom: Vec<Vec<Option<NodeId>>> = vec![Vec::new(); atoms.len()];

    for (visit_idx, &atom_idx) in order.iter().enumerate() {
        let atom = &atoms[atom_idx];
        let relation = db.expect(&atom.relation);
        let tids = selection.tuple_ids(atom_idx, relation);
        if visit_idx == 0 {
            // Root atom: its stage hangs directly under the T-DP root and
            // every row connects to s₀.
            let stage = builder.add_stage_under_root(&atom.relation, true);
            stage_of_atom[atom_idx] = Some(stage);
            states_of_atom[atom_idx] = tids
                .map(|tid| {
                    let s = builder.add_state_with_payload(
                        stage.index(),
                        OrderedF64::from(weight_fn(relation.tuple(tid))),
                        tid as u64,
                    );
                    builder.connect_root(s);
                    Some(s)
                })
                .collect();
            continue;
        }

        let parent_idx = join_tree
            .parent(atom_idx)
            .expect("non-root atom has a parent in the join tree");
        let parent_atom = &atoms[parent_idx];
        let parent_stage = stage_of_atom[parent_idx].expect("parent visited before child");

        // Join key: the variables shared between parent and child atoms
        // (possibly empty — a cross product — which yields a single value node).
        let key_vars = parent_atom.shared_variables(atom);
        let parent_positions = parent_atom.positions_of(&key_vars)?;
        let child_positions = atom.positions_of(&key_vars)?;

        let value_stage = builder.add_stage(
            &format!("{}⋈{}", parent_atom.relation, atom.relation),
            parent_stage,
            false,
        );
        let atom_stage = builder.add_stage(&atom.relation, value_stage, true);
        stage_of_atom[atom_idx] = Some(atom_stage);

        // One value node per distinct join-key value occurring on the parent
        // side; parent rows connect to their key's value node. A parent over
        // every row takes its index from the database's per-(relation, key)
        // cache — a self-join or a star query re-joining the same parent key
        // hits the cache — and a selected parent gets one over its listed
        // rows, private to this compile. Either way the index's retained
        // row→group map resolves each parent row's group with one array read
        // (the build already hashed every row).
        let parent_index = match selection.rows(parent_idx) {
            None => db.index(&parent_atom.relation, &parent_positions),
            Some(rows) => Arc::new(HashIndex::build_rows(
                db.expect(&parent_atom.relation),
                &parent_positions,
                Some(rows),
            )),
        };
        let mut vnode_of_group: Vec<Option<NodeId>> = vec![None; parent_index.num_groups()];
        for (row, pstate) in states_of_atom[parent_idx].iter().enumerate() {
            let &Some(pstate) = pstate else {
                continue;
            };
            let g = parent_index.group_of_tuple(row);
            let vnode = *vnode_of_group[g].get_or_insert_with(|| {
                builder.add_state_with_payload(value_stage.index(), D::one(), u64::MAX)
            });
            builder.connect(pstate, vnode);
        }
        if retain_delta {
            // Re-key the group-indexed vnodes by join-key value: group ids
            // are an artifact of this index build and would not survive a
            // delta, key values do.
            let vnode_by_key = vnode_of_group
                .iter()
                .enumerate()
                .filter_map(|(g, v)| v.map(|v| (parent_index.group(g).0.to_vec(), v)))
                .collect();
            parent_link[atom_idx] = Some(AtomLink {
                parent_atom: parent_idx,
                parent_positions: parent_positions.clone(),
                child_positions: child_positions.clone(),
                value_stage,
                vnode_by_key,
            });
            tree_children[parent_idx].push(atom_idx);
        }

        // Child rows connect below the value node of their key (tuples with
        // keys that never occur on the parent side are dropped here — the
        // "semi-join" part of the encoding). Probing uses the single-column
        // fast path when the join key is one variable (the common case for
        // the paper's path/star/cycle queries): a read of the one key column.
        let key_column = (child_positions.len() == 1).then(|| relation.column(child_positions[0]));
        states_of_atom[atom_idx] = tids
            .map(|tid| {
                let g = match key_column {
                    Some(col) => parent_index.group_of1(col[tid]),
                    None => parent_index.group_of_row_in(relation, tid, &child_positions),
                };
                let vnode = g.and_then(|g| vnode_of_group[g])?;
                let s = builder.add_state_with_payload(
                    atom_stage.index(),
                    OrderedF64::from(weight_fn(relation.tuple(tid))),
                    tid as u64,
                );
                builder.connect(vnode, s);
                Some(s)
            })
            .collect();
    }

    let instance = builder.build();

    // Map serial output stages back to atom indices.
    let stage_to_atom: HashMap<StageId, usize> = stage_of_atom
        .iter()
        .enumerate()
        .filter_map(|(a, s)| s.map(|s| (s, a)))
        .collect();
    let (output_positions, output_atoms): (Vec<usize>, Vec<usize>) = instance
        .serial_order()
        .iter()
        .enumerate()
        .filter(|(_, sid)| instance.stage(**sid).is_output)
        .map(|(pos, sid)| (pos, stage_to_atom[sid]))
        .unzip();

    // Where does each head variable come from?
    let head_vars = query.head_variables();
    let var_sources = head_vars
        .iter()
        .map(|v| {
            output_atoms
                .iter()
                .enumerate()
                .find_map(|(pos, &a)| {
                    atoms[a]
                        .variables
                        .iter()
                        .position(|x| x == v)
                        .map(|col| (pos, col))
                })
                .ok_or_else(|| {
                    EngineError::Query(anyk_query::QueryError::UnknownHeadVariable {
                        variable: v.clone(),
                    })
                })
        })
        .collect::<Result<Vec<_>, _>>()?;

    let delta = retain_delta.then(|| DeltaSupport {
        order: order.to_vec(),
        stage_of_atom: stage_of_atom
            .iter()
            .map(|s| s.expect("every atom was visited"))
            .collect(),
        parent_link,
        children: tree_children,
        states: states_of_atom,
    });

    Ok(Compiled {
        instance,
        output_atoms,
        output_positions,
        atom_relations: atoms.iter().map(|a| a.relation.clone()).collect(),
        head_vars,
        var_sources,
        delta,
    })
}

impl<D: Dioid<V = OrderedF64>> Compiled<D> {
    /// The atoms encoded by the instance's output stages, in serial order.
    pub fn output_atoms(&self) -> &[usize] {
        &self.output_atoms
    }

    /// Whether the plan carries the tuple↔state bookkeeping needed by delta
    /// maintenance (compiled through `compile_with_opts` with `retain_delta`
    /// over every row).
    pub fn supports_refresh(&self) -> bool {
        self.delta.is_some()
    }

    /// The query's head variables.
    pub fn head_vars(&self) -> &[String] {
        &self.head_vars
    }

    /// Turn a T-DP solution into a query answer. `decode` maps the internal
    /// weight back to the user-facing weight (e.g. un-negating for
    /// descending rankings). A stream of answers resolves its columns once
    /// through [`Assembler`] instead.
    pub fn assemble(
        &self,
        db: &Database,
        solution: &Solution<D>,
        decode: impl Fn(f64) -> f64,
    ) -> Answer {
        Assembler::new(self, db).assemble(&solution.states, decode(solution.weight.get()))
    }
}

/// Answer assembly for one stream: every head value resolved, once, to the
/// serial position whose state's payload is the tuple id and the column that
/// holds the value. An answer is then filled in place, with no relation
/// lookup by name and (within [`Answer`]'s inline capacity) no allocation.
pub(crate) struct Assembler<'s, D: Dioid<V = OrderedF64>> {
    compiled: &'s Compiled<D>,
    /// Per answer value: (serial position, column of the tuple it reads).
    columns: Vec<(usize, &'s [Value])>,
    witness: bool,
}

impl<'s, D: Dioid<V = OrderedF64>> Assembler<'s, D> {
    /// Assemble `compiled`'s head values, in head order, with witnesses,
    /// reading tuples from `db`.
    pub(crate) fn new(compiled: &'s Compiled<D>, db: &'s Database) -> Self {
        let columns = compiled
            .var_sources
            .iter()
            .map(|&(pos, col)| {
                let relation = db.expect(&compiled.atom_relations[compiled.output_atoms[pos]]);
                (compiled.output_positions[pos], relation.column(col))
            })
            .collect();
        Assembler {
            compiled,
            columns,
            witness: true,
        }
    }

    /// Emit the head values in the order `perm` (`perm[i]` is the head
    /// position of the i-th value) and no witness — for a cycle tree, whose
    /// bag tuples are not input tuples.
    pub(crate) fn permuted(self, perm: &[usize]) -> Self {
        Assembler {
            columns: perm.iter().map(|&p| self.columns[p]).collect(),
            witness: false,
            ..self
        }
    }

    /// The answer of a solution's `states` (serial order), with the
    /// user-facing `weight`.
    pub(crate) fn assemble(&self, states: &[NodeId], weight: f64) -> Answer {
        let instance = &self.compiled.instance;
        let tuple = |pos: usize| instance.payload(states[pos]) as usize;
        let values = self.columns.iter().map(|&(pos, col)| col[tuple(pos)]);
        let c = self.compiled;
        // A cycle tree keeps no witness: an empty zip, not a second path.
        let kept = if self.witness {
            c.output_atoms.len()
        } else {
            0
        };
        let witness = c.output_atoms[..kept]
            .iter()
            .zip(&c.output_positions)
            .map(|(&atom, &pos)| (atom, tuple(pos)));
        Answer::from_iters(weight, values, witness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_core::dioid::TropicalMin;
    use anyk_core::{ranked_enumerate, AnyKAlgorithm};
    use anyk_query::QueryBuilder;
    use anyk_storage::Relation;

    fn two_path_db() -> Database {
        let mut db = Database::new();
        let mut r1 = Relation::new("R1", 2);
        r1.push_edge(1, 10, 1.0);
        r1.push_edge(2, 20, 5.0);
        r1.push_edge(3, 30, 2.0); // dangling: 30 has no continuation
        let mut r2 = Relation::new("R2", 2);
        r2.push_edge(10, 100, 2.0);
        r2.push_edge(10, 200, 7.0);
        r2.push_edge(20, 300, 1.0);
        db.add(r1);
        db.add(r2);
        db
    }

    #[test]
    fn compiles_path_query_with_value_nodes() {
        let db = two_path_db();
        let q = QueryBuilder::path(2).build();
        let c = compile_with::<TropicalMin, _>(&db, &q, |t: RowRef<'_>| t.weight()).unwrap();
        // 2 output stages + 1 value stage (+ root).
        assert_eq!(c.instance.num_stages(), 4);
        assert!(c.instance.has_solution());
        // Minimum weight path: (1,10) + (10,100) = 3.
        assert_eq!(*c.instance.optimum(), OrderedF64::from(3.0));
        // 3 joining combinations in total.
        assert_eq!(c.instance.count_solutions(), 3);
    }

    #[test]
    fn answers_carry_values_and_witnesses() {
        let db = two_path_db();
        let q = QueryBuilder::path(2).build();
        let c = compile_with::<TropicalMin, _>(&db, &q, |t: RowRef<'_>| t.weight()).unwrap();
        let answers: Vec<Answer> = ranked_enumerate(&c.instance, AnyKAlgorithm::Take2)
            .map(|s| c.assemble(&db, &s, |w| w))
            .collect();
        assert_eq!(answers.len(), 3);
        assert_eq!(answers[0].weight(), 3.0);
        // Head vars of the 2-path are x1, x2, x3.
        assert_eq!(answers[0].values(), &[1, 10, 100]);
        assert_eq!(answers[1].weight(), 6.0);
        assert_eq!(answers[1].values(), &[2, 20, 300]);
        assert_eq!(answers[2].weight(), 8.0);
        assert_eq!(answers[2].values(), &[1, 10, 200]);
        // Witnesses reference the originating tuples.
        assert_eq!(answers[0].witness().len(), 2);
    }

    #[test]
    fn cyclic_query_is_rejected() {
        let mut db = Database::new();
        for i in 1..=4 {
            let mut r = Relation::new(format!("R{i}"), 2);
            r.push_edge(1, 2, 1.0);
            db.add(r);
        }
        let q = QueryBuilder::cycle(4).build();
        assert!(matches!(
            compile_with::<TropicalMin, _>(&db, &q, |t: RowRef<'_>| t.weight()),
            Err(EngineError::UnsupportedCyclicQuery(_))
        ));
    }

    #[test]
    fn unknown_relation_is_rejected() {
        let db = two_path_db();
        let q = QueryBuilder::new().atom("Nope", &["x", "y"]).build();
        assert!(matches!(
            compile_with::<TropicalMin, _>(&db, &q, |t: RowRef<'_>| t.weight()),
            Err(EngineError::UnknownRelation(_))
        ));
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let db = two_path_db();
        let q = QueryBuilder::new().atom("R1", &["x", "y", "z"]).build();
        assert!(matches!(
            compile_with::<TropicalMin, _>(&db, &q, |t: RowRef<'_>| t.weight()),
            Err(EngineError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn star_query_compiles_to_tree_instance() {
        let mut db = Database::new();
        for name in ["R1", "R2", "R3"] {
            let mut r = Relation::new(name, 2);
            r.push_edge(1, 10, 1.0);
            r.push_edge(1, 20, 2.0);
            r.push_edge(2, 30, 4.0);
            db.add(r);
        }
        let q = QueryBuilder::star(3).build();
        let c = compile_with::<TropicalMin, _>(&db, &q, |t: RowRef<'_>| t.weight()).unwrap();
        // Hub value 1: 2×2×2 = 8 combinations; hub value 2: 1 combination.
        assert_eq!(c.instance.count_solutions(), 9);
        let answers: Vec<Answer> = ranked_enumerate(&c.instance, AnyKAlgorithm::Lazy)
            .map(|s| c.assemble(&db, &s, |w| w))
            .collect();
        assert_eq!(answers.len(), 9);
        assert_eq!(answers[0].weight(), 3.0);
        for w in answers.windows(2) {
            assert!(w[0].weight() <= w[1].weight());
        }
    }

    #[test]
    fn self_join_uses_same_relation_twice() {
        let mut db = Database::new();
        let mut e = Relation::new("E", 2);
        e.push_edge(1, 2, 1.0);
        e.push_edge(2, 3, 2.0);
        e.push_edge(3, 4, 4.0);
        db.add(e);
        let q = QueryBuilder::new()
            .atom("E", &["x", "y"])
            .atom("E", &["y", "z"])
            .build();
        let c = compile_with::<TropicalMin, _>(&db, &q, |t: RowRef<'_>| t.weight()).unwrap();
        let answers: Vec<Answer> = ranked_enumerate(&c.instance, AnyKAlgorithm::Recursive)
            .map(|s| c.assemble(&db, &s, |w| w))
            .collect();
        // Paths of length 2: (1,2,3) and (2,3,4).
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[0].values(), &[1, 2, 3]);
        assert_eq!(answers[1].values(), &[2, 3, 4]);
    }
}
