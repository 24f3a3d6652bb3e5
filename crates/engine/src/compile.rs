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
use anyk_query::{gyo, ConjunctiveQuery, JoinTree};
use anyk_storage::{Database, HashIndex, KeyMap, Relation, RowRef, Value};
use std::sync::Arc;

/// A compiled acyclic query: the T-DP instance plus the metadata needed to
/// turn its [`Solution`]s back into query [`Answer`]s.
#[derive(Debug, Clone)]
pub struct Compiled<D: Dioid> {
    /// The T-DP instance (bottom-up phase already run).
    pub instance: TdpInstance<D>,
    /// For each atom (by atom index): the serial position of its output
    /// stage, i.e. where its state sits in a [`Solution`]. A witness lists
    /// atoms in this order — ascending, whichever atom roots the tree.
    output_positions: Vec<usize>,
    /// Relation name per atom.
    pub(crate) atom_relations: Vec<String>,
    /// The query's head variables.
    head_vars: Vec<String>,
    /// For each head variable: (the first atom binding it, column of that
    /// atom's relation holding the variable's value).
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
    /// The value node (its `NodeId`'s number) of every join-key value that
    /// has one — keys occurring on the parent side at compile time, plus
    /// keys whose vnode a later refresh created. Orphaned vnodes (all
    /// parents deleted) stay mapped: the "state exists ⇔ key has a vnode"
    /// invariant is what lets a refresh materialise new child tuples exactly
    /// once. Keys are stored flat, so a refresh clones this with a copy.
    pub(crate) vnodes: KeyMap,
}

/// A link of the join tree while the plan compiles: the parent atom, the
/// join key's positions on both sides, the value-node stage and its slot
/// under the parent's stage, the parent's index on the key, and the child
/// rows that find a group in it.
struct Link {
    parent: usize,
    parent_positions: Vec<usize>,
    child_positions: Vec<usize>,
    value_stage: StageId,
    slot: u32,
    index: Arc<HashIndex>,
    /// The child rows whose key occurs on the parent side, in row order:
    /// each one's position in the atom's rows and its group. The others
    /// are dropped — the "semi-join" part of the encoding.
    matched: Vec<(u32, u32)>,
    /// Per group: its matched child rows.
    group_rows: Vec<u32>,
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
/// additionally keeps the tuple↔state bookkeeping needed for
/// [`crate::refresh`]: `O(n)` state maps, a kill flag per T-DP state and a
/// flat key table per join-tree link; the T-DP successor CSR is the same
/// one. A plan over a non-trivial selection never keeps it, since
/// refresh maps states by tuple id over every row. The join tree is GYO's,
/// rerooted at [`plan_root`].
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
    let join_tree = join_tree.rerooted(plan_root(db, query, &join_tree, selection));
    compile_over(db, query, &join_tree, selection, weight_fn, retain_delta)
}

/// The atom a plan's join tree is rooted at. Any atom may root a T-DP (§3):
/// a non-root state's bottom-up value depends only on its subtree. A plan
/// over every row keeps the GYO root. Under a selection the root is the
/// atom with the fewest rows — a selected atom counts its row list, an
/// unselected one its relation. Every row of the root becomes a state, with
/// a value node per join key below it, before the bottom-up pass prunes
/// those that reach no answer; this rule sizes them by what the selection
/// keeps. A tie goes to the GYO root, else to the lowest atom index.
fn plan_root(
    db: &Database,
    query: &ConjunctiveQuery,
    join_tree: &JoinTree,
    selection: &Selection,
) -> usize {
    let gyo_root = join_tree.root();
    if selection.is_trivial() {
        return gyo_root;
    }
    let rows = |a: usize| {
        let relation = db.expect(&query.atoms()[a].relation);
        selection.tuple_ids(a, relation).len()
    };
    (0..query.atoms().len())
        .min_by_key(|&a| (rows(a), a != gyo_root, a))
        .expect("a query has at least one atom")
}

/// [`compile_with_opts`] over an explicit, valid join tree of `query`,
/// rooted where the plan's root stage belongs.
fn compile_over<D, F>(
    db: &Database,
    query: &ConjunctiveQuery,
    join_tree: &JoinTree,
    selection: &Selection,
    weight_fn: F,
    retain_delta: bool,
) -> Result<Compiled<D>, EngineError>
where
    D: Dioid<V = OrderedF64>,
    F: Fn(RowRef<'_>) -> f64,
{
    let retain_delta = retain_delta && selection.is_trivial();
    let atoms = query.atoms();
    let order = join_tree.traversal_order();
    let mut builder = TdpBuilder::<D>::new();
    builder.retain_topology(retain_delta);

    // Every stage first, with each link's parent index and the child rows
    // that find a group in it. Slot ids are then fixed as each state is
    // added, and the root's rows, the matched rows and the groups per index
    // bound every plan array, which is reserved before the first state and
    // written once.
    let mut stage_of_atom: Vec<Option<StageId>> = vec![None; atoms.len()];
    let mut links: Vec<Option<Link>> = (0..atoms.len()).map(|_| None).collect();
    let mut tree_children: Vec<Vec<usize>> = vec![Vec::new(); atoms.len()];
    for &atom_idx in &order {
        let atom = &atoms[atom_idx];
        let Some(parent_idx) = join_tree.parent(atom_idx) else {
            // The root atom's stage hangs directly under the T-DP root.
            stage_of_atom[atom_idx] = Some(builder.add_stage_under_root(&atom.relation, true));
            continue;
        };
        let parent_atom = &atoms[parent_idx];
        let parent_stage = stage_of_atom[parent_idx].expect("parent visited before child");

        // Join key: the variables shared between parent and child atoms
        // (possibly empty — a cross product — which yields a single value node).
        let key_vars = parent_atom.shared_variables(atom);
        let parent_positions = parent_atom.positions_of(&key_vars)?;
        let child_positions = atom.positions_of(&key_vars)?;

        // The parent's stage holds one value stage per child link, in order.
        let slot = tree_children[parent_idx].len() as u32;
        let value_stage = builder.add_stage(
            &format!("{}⋈{}", parent_atom.relation, atom.relation),
            parent_stage,
            false,
        );
        stage_of_atom[atom_idx] = Some(builder.add_stage(&atom.relation, value_stage, true));

        // A parent over every row takes its index from the database's
        // per-(relation, key) cache — a self-join or a star query re-joining
        // the same parent key hits the cache — and a selected parent gets one
        // over its listed rows, private to this compile. Either way the
        // index's retained row→group map resolves each parent row's group
        // with one array read (the build already hashed every row).
        let index = match selection.rows(parent_idx) {
            None => db.index(&parent_atom.relation, &parent_positions),
            Some(rows) => Arc::new(HashIndex::build_rows(
                db.expect(&parent_atom.relation),
                &parent_positions,
                Some(rows),
            )),
        };

        // Probing uses the single-column fast path when the join key is one
        // variable (the common case for the paper's path/star/cycle
        // queries): a read of the one key column.
        let relation = db.expect(&atom.relation);
        let tids = selection.tuple_ids(atom_idx, relation);
        let mut group_rows: Vec<u32> = vec![0; index.num_groups()];
        let mut matched: Vec<(u32, u32)> = Vec::with_capacity(tids.len());
        let key_column = (child_positions.len() == 1).then(|| relation.column(child_positions[0]));
        for (i, tid) in tids.enumerate() {
            let g = match key_column {
                Some(col) => index.group_of1(col[tid]),
                None => index.group_of_row_in(relation, tid, &child_positions),
            };
            if let Some(g) = g {
                group_rows[g] += 1;
                matched.push((i as u32, g as u32));
            }
        }
        tree_children[parent_idx].push(atom_idx);
        links[atom_idx] = Some(Link {
            parent: parent_idx,
            parent_positions,
            child_positions,
            value_stage,
            slot,
            index,
            matched,
            group_rows,
        });
    }
    let stage_of_atom: Vec<StageId> = stage_of_atom
        .into_iter()
        .map(|s| s.expect("every atom was visited"))
        .collect();

    // Sizes, bounded by what the join can keep: an atom gets at most one
    // state per root row or matched row, and a link at most one value node
    // per group and per parent state. Every atom state has one successor
    // per child link (its key's value node), a value node one row, and s₀
    // one entry per root row.
    let rows = |a: usize| selection.tuple_ids(a, db.expect(&atoms[a].relation)).len();
    let root = order[0];
    let at_most = |a: usize| links[a].as_ref().map_or(rows(root), |l| l.matched.len());
    let (mut states, mut slots, mut successors) = (0, 0, rows(root));
    for &a in &order {
        let (n, children) = (at_most(a), tree_children[a].len());
        states += n;
        slots += n * children;
        successors += n * children;
        builder.reserve_stage(stage_of_atom[a], n);
        if let Some(link) = &links[a] {
            let vnodes = link.index.num_groups().min(at_most(link.parent));
            states += vnodes;
            slots += vnodes;
            successors += n;
            builder.reserve_stage(link.value_stage, vnodes);
        }
    }
    builder.reserve(states, slots, successors);
    let root_rows = u32::try_from(rows(root)).expect("a relation's rows fit u32 node ids");
    builder.root_rows(root_rows);

    // T-DP states of each atom's rows, indexed by atom index then row (the
    // tuple id itself when the atom ranges over every row). `None` for rows
    // that were not materialised (child tuples whose join key never occurs
    // on the parent side). A state's payload is its tuple id.
    let mut states_of_atom: Vec<Vec<Option<NodeId>>> = vec![Vec::new(); atoms.len()];
    let weight = |relation: &Relation, tid: usize| OrderedF64::from(weight_fn(relation.tuple(tid)));
    let relation = db.expect(&atoms[root].relation);
    let stage = stage_of_atom[root].index();
    states_of_atom[root] = selection
        .tuple_ids(root, relation)
        .enumerate()
        .map(|(i, tid)| {
            let s = builder.add_state_with_rows(stage, weight(relation, tid), tid as u64, 1);
            builder.set_successor(NodeId::ROOT, 0, i as u32, s);
            Some(s)
        })
        .collect();

    // Delta bookkeeping, filled only when `retain_delta` (see DeltaSupport).
    let mut parent_link: Vec<Option<AtomLink>> = vec![None; atoms.len()];
    for &atom_idx in &order[1..] {
        let link = links[atom_idx].take().expect("a non-root atom has a link");
        let relation = db.expect(&atoms[atom_idx].relation);
        let index = &link.index;

        // One value node per distinct join-key value occurring on the parent
        // side, in the order parent rows first reach it, with a row for every
        // child row of its group; parent rows connect to their key's node.
        let mut vnode_of_group: Vec<Option<NodeId>> = vec![None; index.num_groups()];
        let value_stage = link.value_stage.index();
        for (row, pstate) in states_of_atom[link.parent].iter().enumerate() {
            let &Some(pstate) = pstate else {
                continue;
            };
            let g = index.group_of_tuple(row);
            let vnode = *vnode_of_group[g].get_or_insert_with(|| {
                builder.add_state_with_rows(value_stage, D::one(), u64::MAX, link.group_rows[g])
            });
            builder.set_successor(pstate, link.slot, 0, vnode);
        }

        // Matched rows in order: a state for each row under a value node, set
        // into the next entry of that node's row.
        let mut fill = link.group_rows;
        fill.fill(0);
        let stage = stage_of_atom[atom_idx].index();
        let tids = selection.rows(atom_idx);
        let mut states = vec![None; rows(atom_idx)];
        for (i, g) in link.matched {
            let (i, g) = (i as usize, g as usize);
            let Some(vnode) = vnode_of_group[g] else {
                continue;
            };
            let tid = tids.map_or(i, |t| t[i]);
            let s = builder.add_state_with_rows(stage, weight(relation, tid), tid as u64, 1);
            builder.set_successor(vnode, 0, fill[g], s);
            fill[g] += 1;
            states[i] = Some(s);
        }
        states_of_atom[atom_idx] = states;

        if retain_delta {
            // Re-key the group-indexed vnodes by join-key value: group ids
            // are an artifact of this index build and would not survive a
            // delta, key values do.
            let count = vnode_of_group.iter().flatten().count();
            let mut vnodes = KeyMap::with_capacity(link.parent_positions.len(), count);
            for (g, v) in vnode_of_group.iter().enumerate() {
                if let Some(v) = v {
                    vnodes.insert(index.group(g).0, v.0);
                }
            }
            parent_link[atom_idx] = Some(AtomLink {
                parent_atom: link.parent,
                parent_positions: link.parent_positions,
                child_positions: link.child_positions,
                value_stage: link.value_stage,
                vnodes,
            });
        }
    }

    let instance = builder.build();

    // Each atom's serial position, in atom order: fixed once per plan, so a
    // witness lists atoms ascending, whichever atom roots the tree, at no
    // per-answer cost.
    let serial = instance.serial_order();
    let output_positions = stage_of_atom
        .iter()
        .map(|s| {
            serial
                .iter()
                .position(|x| x == s)
                .expect("a stage is serial")
        })
        .collect();

    // Where does each head variable come from?
    let head_vars = query.head_variables();
    let var_sources = head_vars
        .iter()
        .map(|v| {
            atoms
                .iter()
                .enumerate()
                .find_map(|(a, atom)| {
                    atom.variables
                        .iter()
                        .position(|x| x == v)
                        .map(|col| (a, col))
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
        stage_of_atom,
        parent_link,
        children: tree_children,
        states: states_of_atom,
    });

    Ok(Compiled {
        instance,
        output_positions,
        atom_relations: atoms.iter().map(|a| a.relation.clone()).collect(),
        head_vars,
        var_sources,
        delta,
    })
}

impl<D: Dioid<V = OrderedF64>> Compiled<D> {
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
            .map(|&(atom, col)| {
                let relation = db.expect(&compiled.atom_relations[atom]);
                (compiled.output_positions[atom], relation.column(col))
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
        // A cycle tree keeps no witness: an empty slice, not a second path.
        let kept = if self.witness {
            c.output_positions.len()
        } else {
            0
        };
        let witness = c.output_positions[..kept]
            .iter()
            .enumerate()
            .map(|(atom, &pos)| (atom, tuple(pos)));
        Answer::from_iters(weight, values, witness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_core::dioid::TropicalMin;
    use anyk_core::{ranked_enumerate, AnyKAlgorithm};
    use anyk_query::QueryBuilder;

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

    /// A seeded database with a relation per atom of `query`: `rows` rows
    /// each, values drawn from `0..3`, integer weights — from `0..4` (heavy
    /// ties) or, when `distinct`, a power of two per tuple, so that answers
    /// over distinct tuples have distinct totals.
    fn seeded_db(seed: u64, query: &ConjunctiveQuery, rows: usize, distinct: bool) -> Database {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut db = Database::new();
        let mut tuples = 0;
        for atom in query.atoms() {
            let mut r = Relation::new(atom.relation.as_str(), atom.arity());
            for _ in 0..rows {
                let row: Vec<Value> = (0..atom.arity()).map(|_| next() % 3).collect();
                let weight = if distinct {
                    (tuples as f64).exp2()
                } else {
                    (next() % 4) as f64
                };
                r.push_row(&row, weight);
                tuples += 1;
            }
            db.add(r);
        }
        db
    }

    #[test]
    fn every_valid_root_yields_the_same_answers() {
        // A path, a star, a branching tree and a two-column join key, each
        // over every row and under a one-atom or two-atom selection.
        let cases = [
            (
                "Q(a, b, c, d, e) :- A(a, b), B(b, c), C(c, d), D(d, e)",
                "c = 1",
            ),
            ("Q(h, x, y, z) :- A(h, x), B(h, y), C(h, z)", "y = 2"),
            (
                "Q(a, b, c, d, e) :- A(a, b), B(b, c), C(b, d), D(d, e)",
                "e = 0",
            ),
            (
                "Q(a, b, c, d, e) :- A(a, b, c), B(a, b, d), C(c, e)",
                "d = 2",
            ),
        ];
        type Stream = Vec<(u64, Vec<Value>, Vec<(usize, usize)>)>;
        let sorted = |s: &Stream| {
            let mut s = s.clone();
            s.sort();
            s
        };
        for (case, (body, predicate)) in cases.iter().enumerate() {
            for (text, distinct) in [body.to_string(), format!("{body}, {predicate}")]
                .into_iter()
                .flat_map(|t| [(t.clone(), false), (t, true)])
            {
                let spec = anyk_query::QuerySpec::parse(&text).unwrap();
                let q = spec.to_query().unwrap();
                let tree = gyo::join_tree(q.atoms()).unwrap();
                let db = seeded_db(case as u64 + 1, &q, 12, distinct);
                let selection = crate::select::select(&db, &q, &spec.predicates).unwrap();
                let stream = |tree: &JoinTree, algorithm: AnyKAlgorithm| -> Stream {
                    let c = compile_over::<TropicalMin, _>(
                        &db,
                        &q,
                        tree,
                        &selection,
                        |t| t.weight(),
                        false,
                    )
                    .unwrap();
                    ranked_enumerate(&c.instance, algorithm)
                        .map(|s| c.assemble(&db, &s, |w| w))
                        .map(|a| {
                            let weight = a.weight().to_bits();
                            (weight, a.values().to_vec(), a.witness().to_vec())
                        })
                        .collect()
                };
                let reference = stream(&tree, AnyKAlgorithm::Eager);
                assert!(!reference.is_empty(), "{text}: no answers");
                let totals_distinct = reference.windows(2).all(|w| w[0].0 != w[1].0);
                assert_eq!(totals_distinct, distinct, "{text}");
                for root in 0..q.atoms().len() {
                    for algorithm in AnyKAlgorithm::ALL {
                        let got = stream(&tree.rerooted(root), algorithm);
                        let ctx = format!("{text}, root {root}, {algorithm}, distinct {distinct}");
                        let weights = got.iter().map(|a| f64::from_bits(a.0));
                        assert!(weights.is_sorted(), "{ctx}: weights decrease");
                        // Non-decreasing streams with one multiset have one
                        // multiset within each weight.
                        assert_eq!(sorted(&got), sorted(&reference), "{ctx}");
                        if distinct {
                            assert_eq!(got, reference, "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_filtered_plan_is_sized_by_its_selection() {
        // `x3 = 47` keeps about ten of R2's and R3's 2 000 rows. The plan is
        // rooted at one of those atoms, not at the unselected R4, so its
        // (state, branch) pairs count states of the selected answers' rows,
        // not every row of R4 and its value nodes.
        use anyk_datagen::{rng, uniform::path_or_star_database};
        let db = path_or_star_database(4, 2000, &mut rng(3));
        let body = "Q(x1, x2, x3, x4, x5) :- R1(x1, x2), R2(x2, x3), R3(x3, x4), R4(x4, x5)";
        let slot_ids = |text: &str| {
            let spec = anyk_query::QuerySpec::parse(text).unwrap();
            let q = spec.to_query().unwrap();
            let selection = crate::select::select(&db, &q, &spec.predicates).unwrap();
            let c = compile_with_opts::<TropicalMin, _>(&db, &q, &selection, |t| t.weight(), false)
                .unwrap();
            c.instance.num_slot_ids()
        };
        let filtered = slot_ids(&format!("{body}, x3 = 47"));
        assert!(
            filtered <= 200,
            "{filtered} (state, branch) pairs for a plan over ~20 selected rows"
        );
        let unfiltered = slot_ids(body);
        assert!(unfiltered > 2000, "the unfiltered plan has {unfiltered}");
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
