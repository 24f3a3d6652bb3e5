//! Delta maintenance of compiled plans: patch a [`Compiled`] instance under
//! a [`DeltaBatch`] instead of recompiling from scratch.
//!
//! A plan compiled with delta support
//! ([`crate::compile::compile_with_opts`] with `retain_delta`) carries
//! [`DeltaSupport`](crate::compile::DeltaSupport): the T-DP state of every
//! input tuple, the join-tree shape, and the value node of every join-key
//! value. Given the *post-delta* database (produced by
//! [`Database::apply_delta`](anyk_storage::Database::apply_delta), so
//! surviving tuples keep their relative order) this module translates the
//! batch into a [`TdpPatch`]:
//!
//! * **deleted tuple with a state** → kill the state; the core patcher drops
//!   its rows and in-edges and re-sweeps only the dirty cone of ancestors.
//! * **surviving tuple whose id shifted** → payload update (payloads are
//!   tuple ids used to assemble answers); no re-evaluation.
//! * **inserted tuple** → materialise a state and cascade down the join
//!   tree: if its join-key value is new on the parent side, a fresh value
//!   node is created and *every* matching child tuple (old or new) is
//!   materialised below it, exactly once — the "state exists ⇔ key has a
//!   value node" invariant.
//!
//! The result is **equivalent to a from-scratch rebuild**: `⊕` is selective
//! and `⊗` folds in fixed slot order, so the re-swept `π₁` values — and
//! therefore every ranked stream drawn from the patched instance — are
//! bit-identical to recompiling over the new database (weight ties may still
//! order arbitrarily, exactly as they may between two rebuilds).

use crate::compile::Compiled;
use crate::error::EngineError;
use anyk_core::dioid::{Dioid, OrderedF64};
use anyk_core::tdp::{apply_patch, NodeId, TdpInstance, TdpPatch};
use anyk_storage::{Database, DeltaBatch, TidRemap, Value};

/// Refresh `compiled` to answer its query over `new_db`, which **must** be
/// the result of applying `batch` to the database the plan was compiled
/// over (tuple ids compacted in order, inserts appended — the contract of
/// [`Database::apply_delta`](anyk_storage::Database::apply_delta)).
///
/// `encode` maps user-facing tuple weights to the plan's internal encoding
/// (the ranking function's `encode`), and must be the same function the
/// original compilation used.
///
/// Returns the refreshed plan. Fails with
/// [`EngineError::RefreshUnsupported`] when the plan was not compiled with
/// delta support.
pub(crate) fn refresh_compiled<D>(
    compiled: &Compiled<D>,
    new_db: &Database,
    batch: &DeltaBatch,
    encode: &dyn Fn(f64) -> f64,
) -> Result<Compiled<D>, EngineError>
where
    D: Dioid<V = OrderedF64>,
{
    let mut next = compiled.clone();
    let Some(mut support) = next.delta.take() else {
        return Err(EngineError::RefreshUnsupported(
            "plan was compiled without delta support".into(),
        ));
    };
    let mut patch = TdpPatch::new();

    // Phase 1 — deletions and tuple-id compaction, per touched atom (a
    // self-join visits every atom over the touched relation independently).
    for atom in 0..next.atom_relations.len() {
        let Some(delta) = batch.for_relation(&next.atom_relations[atom]) else {
            continue;
        };
        let new_len = new_db.expect(&next.atom_relations[atom]).len();
        let remap = TidRemap::new(delta.sorted_deletes());
        let old_states = std::mem::take(&mut support.states[atom]);
        if old_states.len() != new_len + remap.deleted_count() - delta.inserts.len() {
            return Err(EngineError::Internal(format!(
                "refresh: relation `{}` has {} tuples but the plan tracked {} \
                 ({} deletes, {} inserts) — `new_db` is not the plan's \
                 snapshot plus this batch",
                next.atom_relations[atom],
                new_len,
                old_states.len(),
                remap.deleted_count(),
                delta.inserts.len(),
            )));
        }
        let mut new_states = vec![None; new_len];
        for (old_tid, state) in old_states.iter().enumerate() {
            match remap.map(old_tid) {
                Some(new_tid) => {
                    if let Some(n) = state {
                        if new_tid != old_tid {
                            patch.payload_updates.push((*n, new_tid as u64));
                        }
                    }
                    new_states[new_tid] = *state;
                }
                None => {
                    if let Some(n) = state {
                        // Killing the state also drops its rows and in-edges
                        // and marks the surviving ancestors dirty.
                        patch.kill_nodes.push(*n);
                    }
                }
            }
        }
        support.states[atom] = new_states;
    }

    // Phase 2 — insertions, in join-tree traversal order (parents first, so
    // a parent inserted in this batch exists before its children look for a
    // value node). Inserted tuples occupy the tail of the new relation.
    let order = support.order.clone();
    for &atom in &order {
        let Some(delta) = batch.for_relation(&next.atom_relations[atom]) else {
            continue;
        };
        let new_len = new_db.expect(&next.atom_relations[atom]).len();
        for tid in new_len - delta.inserts.len()..new_len {
            insert_tuple(
                new_db,
                &next.atom_relations,
                &next.instance,
                &mut support,
                &mut patch,
                encode,
                atom,
                tid,
            );
        }
    }

    apply_patch(&mut next.instance, &patch)
        .map_err(|e| EngineError::Internal(format!("refresh: core patch rejected: {e}")))?;
    next.delta = Some(support);
    Ok(next)
}

/// Materialise the state of tuple `tid` of `atom` (unless it already has
/// one, or its join key has no value node — the semi-join drop), then
/// cascade into the atom's join-tree children: any child link whose key
/// value gains its first value node materialises every matching child tuple
/// below it.
#[allow(clippy::too_many_arguments)]
fn insert_tuple<D: Dioid<V = OrderedF64>>(
    db: &Database,
    atom_relations: &[String],
    instance: &TdpInstance<D>,
    support: &mut crate::compile::DeltaSupport,
    patch: &mut TdpPatch<D>,
    encode: &dyn Fn(f64) -> f64,
    atom: usize,
    tid: usize,
) {
    if support.states[atom][tid].is_some() {
        // Already materialised by an earlier cascade in this batch.
        return;
    }
    let relation = db.expect(&atom_relations[atom]);
    let row = relation.tuple(tid);
    let weight = OrderedF64::from(encode(row.weight()));
    let stage = support.stage_of_atom[atom];

    let state = match &support.parent_link[atom] {
        None => {
            // Traversal root: hang the state directly under s₀.
            let state = patch.add_node(instance, stage, weight, tid as u64);
            let slot = instance.stage(stage).slot_in_parent;
            patch.add_edges.push((NodeId::ROOT, slot, state));
            state
        }
        Some(link) => {
            let key: Vec<Value> = link.child_positions.iter().map(|&c| row.value(c)).collect();
            let Some(vnode) = link.vnodes.get(&key).map(NodeId) else {
                // No parent tuple carries this key: the tuple joins with
                // nothing (yet). If a parent arrives later, its cascade
                // creates the value node and materialises this tuple.
                return;
            };
            let state = patch.add_node(instance, stage, weight, tid as u64);
            let slot = instance.stage(stage).slot_in_parent;
            patch.add_edges.push((vnode, slot, state));
            state
        }
    };
    support.states[atom][tid] = Some(state);

    // Cascade: connect this tuple to the value node of each child link,
    // creating the node — and materialising every matching child tuple —
    // when this is the first parent-side occurrence of the key value.
    let children = support.children[atom].clone();
    for child in children {
        let (key, value_stage, child_positions) = {
            let link = support.parent_link[child]
                .as_ref()
                .expect("join-tree child has a parent link");
            debug_assert_eq!(link.parent_atom, atom);
            let key: Vec<Value> = link
                .parent_positions
                .iter()
                .map(|&c| row.value(c))
                .collect();
            (key, link.value_stage, link.child_positions.clone())
        };
        let existing = support.parent_link[child]
            .as_ref()
            .expect("join-tree child has a parent link")
            .vnodes
            .get(&key)
            .map(NodeId);
        let vnode = match existing {
            Some(v) => v,
            None => {
                let v = patch.add_node(instance, value_stage, D::one(), u64::MAX);
                support.parent_link[child]
                    .as_mut()
                    .expect("join-tree child has a parent link")
                    .vnodes
                    .insert(&key, v.0);
                // First parent with this key: every matching child tuple
                // (pre-existing semi-join drops and batch inserts alike)
                // materialises now, exactly once.
                let matches: Vec<usize> = db
                    .index(&atom_relations[child], &child_positions)
                    .lookup(&key)
                    .to_vec();
                for ctid in matches {
                    insert_tuple(
                        db,
                        atom_relations,
                        instance,
                        support,
                        patch,
                        encode,
                        child,
                        ctid,
                    );
                }
                v
            }
        };
        let slot = instance.stage(value_stage).slot_in_parent;
        patch.add_edges.push((state, slot, vnode));
    }
}
