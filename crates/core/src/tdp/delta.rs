//! Incremental patching of built T-DP instances (delta ingestion).
//!
//! A built [`TdpInstance`] is normally immutable; re-building one from
//! scratch costs the full compile + bottom-up (`O(ℓn)`), even when an input
//! delta touched a handful of tuples. This module implements the cheap
//! alternative: [`apply_patch`] edits the instance structure in place and
//! **re-sweeps only the dirty cone** of the bottom-up DP — the edited states
//! plus every ancestor whose `π₁` actually changed — instead of re-evaluating
//! all states.
//!
//! ## One CSR
//!
//! An instance keeps every decision into a pruned state in its successor
//! lists ([`TdpInstance::choices`] skips them), so an edge into a pruned
//! state is still there when a later insert makes that state viable again.
//! Instances built with
//! [`TdpBuilder::retain_topology`](super::TdpBuilder::retain_topology) add
//! one "killed" flag per state; [`apply_patch`] rewrites the CSR with the
//! edits applied and sweeps it.
//!
//! ## The sweep
//!
//! Stages are processed children-first (reverse serial order, root last), so
//! when a dirty state is re-evaluated all of its successors' `π₁` values are
//! final. A re-evaluation is a call of `bottom_up::eval_state` over the
//! edited CSR, the function the build-time bottom-up phase runs for every
//! state. So patched values are bit-identical to a from-scratch rebuild over
//! the same data: the arithmetic is the same code, `⊕` is selective
//! (successor-list order does not matter), and the `⊗` fold order per state
//! is fixed by the stage tree. Dirtiness propagates to a state's
//! predecessors only when its `π₁` changed, which is what keeps the sweep
//! proportional to the affected cone rather than the instance.
//!
//! Killed states (deleted input tuples) keep `π₁ = 0̄` permanently and are
//! excluded from re-evaluation; their rows and in-edges are dropped from the
//! CSR so no later patch can resurrect them.

use super::{bottom_up, Node, NodeId, StageId, TdpInstance};
use crate::dioid::Dioid;

/// A batch of structural edits to a built [`TdpInstance`], applied by
/// [`apply_patch`].
///
/// New states receive ids deterministically: the `i`-th entry of
/// [`TdpPatch::new_nodes`] becomes `NodeId(instance.num_nodes() + i)`
/// ([`TdpPatch::add_node`] hands the id out at queue time), so edges among
/// new states can be queued before the patch is applied.
#[derive(Debug, Clone)]
pub struct TdpPatch<D: Dioid> {
    /// States to append: `(stage, decision weight, payload)`.
    pub new_nodes: Vec<(StageId, D::V, u64)>,
    /// Decisions to add: `(parent state, slot, child state)`. Either side may
    /// be a new state.
    pub add_edges: Vec<(NodeId, u32, NodeId)>,
    /// Decisions to drop: `(parent state, slot, child state)`.
    pub remove_edges: Vec<(NodeId, u32, NodeId)>,
    /// States to kill (deleted input tuples): `π₁` forced to `0̄` forever,
    /// every incident edge dropped.
    pub kill_nodes: Vec<NodeId>,
    /// Payload rewrites `(state, new payload)` — used when a delta compacts
    /// the tuple-id space of surviving input tuples.
    pub payload_updates: Vec<(NodeId, u64)>,
}

impl<D: Dioid> Default for TdpPatch<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D: Dioid> TdpPatch<D> {
    /// An empty patch.
    pub fn new() -> Self {
        TdpPatch {
            new_nodes: Vec::new(),
            add_edges: Vec::new(),
            remove_edges: Vec::new(),
            kill_nodes: Vec::new(),
            payload_updates: Vec::new(),
        }
    }

    /// True if applying the patch would change nothing.
    pub fn is_empty(&self) -> bool {
        self.new_nodes.is_empty()
            && self.add_edges.is_empty()
            && self.remove_edges.is_empty()
            && self.kill_nodes.is_empty()
            && self.payload_updates.is_empty()
    }

    /// Queue a new state for `instance` and return the id it **will** have
    /// once the patch is applied (valid immediately for queueing edges).
    pub fn add_node(
        &mut self,
        instance: &TdpInstance<D>,
        stage: StageId,
        weight: D::V,
        payload: u64,
    ) -> NodeId {
        assert!(
            stage != StageId::ROOT && stage.index() < instance.num_stages(),
            "invalid stage {stage:?} for a patched state"
        );
        let id = NodeId((instance.num_nodes() + self.new_nodes.len()) as u32);
        self.new_nodes.push((stage, weight, payload));
        id
    }
}

/// Why [`apply_patch`] refused to run. The instance is left unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchError {
    /// The instance was built without
    /// [`TdpBuilder::retain_topology`](super::TdpBuilder::retain_topology),
    /// so it keeps no kill flags to patch with.
    TopologyNotRetained,
}

impl std::fmt::Display for PatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatchError::TopologyNotRetained => write!(
                f,
                "instance was built without retain_topology; \
                 it keeps no kill flags to patch with"
            ),
        }
    }
}

impl std::error::Error for PatchError {}

/// What a patch sweep actually did — the observable cost of the dirty cone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// States re-evaluated by the dirty sweep (edited + changed ancestors).
    pub nodes_reevaluated: usize,
    /// Total states after the patch.
    pub nodes_total: usize,
}

/// Apply `patch` to `instance` in place: rewrite the successor CSR with the
/// edits applied and re-sweep the dirty cone of the bottom-up DP. See the
/// module docs for the exact semantics and the bit-identity argument.
///
/// On `Err` the instance is unchanged.
///
/// # Panics
/// Panics if the patch references out-of-range states/stages or slots, or if
/// the patched instance would overflow the `u32` slot-id/edge space — the
/// same invariants [`TdpBuilder::build`](super::TdpBuilder::build) asserts.
pub fn apply_patch<D: Dioid>(
    instance: &mut TdpInstance<D>,
    patch: &TdpPatch<D>,
) -> Result<PatchStats, PatchError> {
    if instance.killed.is_none() {
        return Err(PatchError::TopologyNotRetained);
    }
    crate::faults::checkpoint("core.patch");
    let mut killed = instance.killed.take().expect("checked above");
    // The root's cached successor structures order the choices of the data
    // as it was.
    instance.root_cache.clear();

    // 1. Payload rewrites (pure metadata; no DP impact).
    for &(n, payload) in &patch.payload_updates {
        instance.nodes[n.index()].payload = payload;
    }

    // 2. Append new states. Slot ids of existing states are unchanged (new
    //    slots go on the end), so queued edge references stay valid.
    let old_num_nodes = instance.nodes.len();
    for (i, (stage, weight, payload)) in patch.new_nodes.iter().enumerate() {
        assert!(
            *stage != StageId::ROOT && stage.index() < instance.stages.len(),
            "invalid stage {stage:?} in patch"
        );
        let id = NodeId((old_num_nodes + i) as u32);
        instance.nodes.push(Node {
            stage: *stage,
            weight: weight.clone(),
            payload: *payload,
        });
        instance.stages[stage.index()].nodes.push(id);
        let slots = instance.stages[stage.index()].children.len();
        let prev = *instance.slot_offsets.last().expect("non-empty") as usize;
        assert!(
            prev + slots <= u32::MAX as usize,
            "patched instance exceeds u32 slot-id space"
        );
        instance.slot_offsets.push((prev + slots) as u32);
        instance.subtree_opt.push(D::zero());
        instance
            .branch_opt
            .extend(std::iter::repeat_with(D::zero).take(slots));
        killed.push(false);
    }
    let num_nodes = instance.nodes.len();
    let num_slots = *instance.slot_offsets.last().expect("non-empty") as usize;

    // 3. Kill states: permanently pruned, excluded from the sweep.
    for &n in &patch.kill_nodes {
        killed[n.index()] = true;
        instance.subtree_opt[n.index()] = D::zero();
    }

    // 4. Rebuild the CSR with the edge edits applied, seeding the dirty
    //    set with every live state whose successor row changed (plus all new
    //    states). Surviving edges keep their order; additions append in
    //    queue order — successor-list order does not affect DP values (see
    //    module docs). Slot ids are visited in ascending order below, so the
    //    edits are sorted once and merged with cursors instead of per-slot
    //    hash lookups (the lookup would otherwise dominate: every slot of
    //    every state pays it, patch or no patch).
    let mut adds: Vec<(u32, NodeId)> = Vec::with_capacity(patch.add_edges.len());
    for &(parent, slot, child) in &patch.add_edges {
        assert!(
            (slot as usize)
                < instance.stages[instance.nodes[parent.index()].stage.index()]
                    .children
                    .len(),
            "patch edge slot {slot} out of range for {parent:?}"
        );
        adds.push((instance.slot_id(parent, slot), child));
    }
    adds.sort_by_key(|&(d, _)| d);
    let mut removes: Vec<(u32, u32)> = patch
        .remove_edges
        .iter()
        .map(|&(parent, slot, child)| (instance.slot_id(parent, slot), child.0))
        .collect();
    removes.sort_unstable();

    let mut dirty = vec![false; num_nodes];
    dirty[old_num_nodes..num_nodes].fill(true);

    let old_offsets = std::mem::take(&mut instance.succ_offsets);
    let old_data = std::mem::take(&mut instance.succ_data);
    let old_slot_count = old_offsets.len() - 1;
    let mut offsets: Vec<u32> = Vec::with_capacity(num_slots + 1);
    offsets.push(0);
    let mut data: Vec<NodeId> = Vec::with_capacity(old_data.len() + patch.add_edges.len());
    let mut add_cursor = 0usize;
    let mut rem_cursor = 0usize;
    for (n, dirty_n) in dirty.iter_mut().enumerate() {
        let owner_dead = killed[n];
        let first = instance.slot_offsets[n] as usize;
        let last = instance.slot_offsets[n + 1] as usize;
        for d in first..last {
            let mut changed = false;
            while rem_cursor < removes.len() && (removes[rem_cursor].0 as usize) < d {
                rem_cursor += 1;
            }
            let mut rem_end = rem_cursor;
            while rem_end < removes.len() && removes[rem_end].0 as usize == d {
                rem_end += 1;
            }
            let row_removes = &removes[rem_cursor..rem_end];
            if d < old_slot_count {
                let start = old_offsets[d] as usize;
                let end = old_offsets[d + 1] as usize;
                for &t in &old_data[start..end] {
                    if owner_dead || killed[t.index()] || row_removes.iter().any(|r| r.1 == t.0) {
                        changed = true;
                        continue;
                    }
                    data.push(t);
                }
            }
            while add_cursor < adds.len() && (adds[add_cursor].0 as usize) < d {
                add_cursor += 1;
            }
            while add_cursor < adds.len() && adds[add_cursor].0 as usize == d {
                let t = adds[add_cursor].1;
                add_cursor += 1;
                if owner_dead || killed[t.index()] {
                    continue;
                }
                data.push(t);
                changed = true;
            }
            if changed && !owner_dead {
                *dirty_n = true;
            }
            offsets.push(data.len() as u32);
        }
    }
    assert!(
        data.len() <= u32::MAX as usize,
        "patched instance exceeds u32 successor-offset space"
    );

    // 5+6. Dirty sweep, children-first (reverse serial order, then the
    //    root): every successor π₁ a re-evaluation reads is already final.
    //    Dirtiness propagates *forward*: a re-evaluation whose π₁ actually
    //    changed marks its state (and its stage) `changed`; when a parent
    //    stage is processed, states that are not structurally dirty scan
    //    their rows into changed child stages for a changed successor — no
    //    reverse CSR is ever materialised. Stages none of whose child stages
    //    changed skip the scan entirely, so untouched branches of the join
    //    tree cost one flag check per state.
    let stage_order: Vec<StageId> = instance.stages_children_first().collect();
    let mut changed = vec![false; num_nodes];
    let mut stage_changed = vec![false; instance.stages.len()];
    let mut nodes_reevaluated = 0usize;
    for sid in stage_order {
        let num_stage_slots = instance.stages[sid.index()].children.len();
        // Slots worth scanning for changed successors: only those whose
        // child stage re-evaluated at least one state to a new π₁.
        let scan_slots: Vec<usize> = (0..num_stage_slots)
            .filter(|&off| stage_changed[instance.stages[sid.index()].children[off].index()])
            .collect();
        for idx in 0..instance.stages[sid.index()].nodes.len() {
            let nid = instance.stages[sid.index()].nodes[idx];
            let n = nid.index();
            if killed[n] {
                continue;
            }
            let first = instance.slot_offsets[n] as usize;
            let needs_eval = dirty[n]
                || scan_slots.iter().any(|&off| {
                    let d = first + off;
                    let start = offsets[d] as usize;
                    let end = offsets[d + 1] as usize;
                    data[start..end].iter().any(|t| changed[t.index()])
                });
            if !needs_eval {
                continue;
            }
            nodes_reevaluated += 1;
            let total = bottom_up::eval_state::<D>(
                &instance.nodes,
                &offsets,
                &data,
                &instance.subtree_opt,
                &mut instance.branch_opt,
                first,
                num_stage_slots,
            );
            if instance.subtree_opt[n] != total {
                instance.subtree_opt[n] = total;
                changed[n] = true;
                stage_changed[sid.index()] = true;
            }
        }
    }

    instance.succ_offsets = offsets;
    instance.succ_data = data;
    instance.killed = Some(killed);
    Ok(PatchStats {
        nodes_reevaluated,
        nodes_total: num_nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dioid::{OrderedF64, TropicalMin};
    use crate::tdp::{top1_solution, TdpBuilder};

    fn chain_builder() -> TdpBuilder<TropicalMin> {
        let mut b = TdpBuilder::<TropicalMin>::serial(3);
        b.retain_topology(true);
        b
    }

    /// A 3-stage chain: 1 -{a}- 2 -{m1,m2}- 3 -{z}.
    fn chain() -> (TdpInstance<TropicalMin>, [NodeId; 4]) {
        let mut b = chain_builder();
        let a = b.add_state(1, 1.0.into());
        let m1 = b.add_state(2, 10.0.into());
        let m2 = b.add_state(2, 20.0.into());
        let z = b.add_state(3, 100.0.into());
        b.connect_root(a);
        b.connect(a, m1);
        b.connect(a, m2);
        b.connect(m1, z);
        b.connect(m2, z);
        (b.build(), [a, m1, m2, z])
    }

    #[test]
    fn patch_requires_retained_topology() {
        let mut b = TdpBuilder::<TropicalMin>::serial(2);
        let a = b.add_state(1, 1.0.into());
        let z = b.add_state(2, 2.0.into());
        b.connect_root(a);
        b.connect(a, z);
        let mut inst = b.build();
        let patch = TdpPatch::<TropicalMin>::new();
        assert_eq!(
            apply_patch(&mut inst, &patch),
            Err(PatchError::TopologyNotRetained)
        );
    }

    #[test]
    fn empty_patch_changes_nothing() {
        let (mut inst, _) = chain();
        let before = *inst.optimum();
        let edges = inst.num_edges();
        let stats = apply_patch(&mut inst, &TdpPatch::new()).unwrap();
        assert_eq!(stats.nodes_reevaluated, 0);
        assert_eq!(*inst.optimum(), before);
        assert_eq!(inst.num_edges(), edges);
        assert!(inst.supports_patch(), "the kill flags survive");
    }

    #[test]
    fn killing_the_best_midpoint_reroutes_the_optimum() {
        let (mut inst, [a, m1, m2, _z]) = chain();
        assert_eq!(*inst.optimum(), OrderedF64::from(111.0));
        let mut patch = TdpPatch::new();
        patch.kill_nodes.push(m1);
        patch.remove_edges.push((a, 0, m1));
        let stats = apply_patch(&mut inst, &patch).unwrap();
        assert_eq!(*inst.optimum(), OrderedF64::from(121.0), "reroutes via m2");
        assert_eq!(inst.count_solutions(), 1);
        assert_eq!(inst.successors(a, 0), &[m2]);
        assert!(stats.nodes_reevaluated >= 2, "a and root re-swept");
        let (states, w) = top1_solution(&inst).unwrap();
        assert_eq!(states[1], m2);
        assert_eq!(w, OrderedF64::from(121.0));
    }

    #[test]
    fn inserting_a_better_midpoint_improves_the_optimum() {
        let (mut inst, [a, _m1, _m2, z]) = chain();
        let mut patch = TdpPatch::new();
        let m3 = patch.add_node(&inst, StageId(2), 2.0.into(), 77);
        patch.add_edges.push((a, 0, m3));
        patch.add_edges.push((m3, 0, z));
        apply_patch(&mut inst, &patch).unwrap();
        assert_eq!(*inst.optimum(), OrderedF64::from(103.0));
        assert_eq!(inst.count_solutions(), 3);
        assert_eq!(inst.payload(m3), 77);
        let (states, _) = top1_solution(&inst).unwrap();
        assert_eq!(states[1], m3);
    }

    #[test]
    fn an_insert_can_resurrect_a_pruned_state() {
        // m2 pruned at build time (no edge to stage 3); the CSR still holds
        // a→m2, so adding m2→z revives the branch.
        let mut b = chain_builder();
        let a = b.add_state(1, 1.0.into());
        let m1 = b.add_state(2, 10.0.into());
        let m2 = b.add_state(2, 5.0.into());
        let z = b.add_state(3, 100.0.into());
        b.connect_root(a);
        b.connect(a, m1);
        b.connect(a, m2);
        b.connect(m1, z);
        let mut inst = b.build();
        assert_eq!(*inst.subtree_opt(m2), TropicalMin::zero(), "pruned");
        assert_eq!(inst.count_solutions(), 1);

        let mut patch = TdpPatch::new();
        patch.add_edges.push((m2, 0, z));
        apply_patch(&mut inst, &patch).unwrap();
        assert_ne!(*inst.subtree_opt(m2), TropicalMin::zero(), "revived");
        assert_eq!(*inst.optimum(), OrderedF64::from(106.0));
        assert_eq!(inst.count_solutions(), 2);
        let choices: Vec<NodeId> = inst.choices(a, 0).map(|(t, _)| t).collect();
        assert_eq!(choices, [m1, m2], "m2's choice comes back");
    }

    #[test]
    fn patched_instance_matches_a_from_scratch_rebuild() {
        // Apply a mixed patch (kill + insert + payload rewrite), then build
        // the same final shape from scratch: π₁ values must be bit-identical
        // state-for-state.
        let (mut inst, [a, m1, _m2, z]) = chain();
        let mut patch = TdpPatch::new();
        patch.kill_nodes.push(m1);
        patch.remove_edges.push((a, 0, m1));
        patch.remove_edges.push((m1, 0, z));
        let m3 = patch.add_node(&inst, StageId(2), 7.0.into(), 9);
        patch.add_edges.push((a, 0, m3));
        patch.add_edges.push((m3, 0, z));
        patch.payload_updates.push((z, 42));
        apply_patch(&mut inst, &patch).unwrap();

        let mut b = TdpBuilder::<TropicalMin>::serial(3);
        let a2 = b.add_state(1, 1.0.into());
        let m2b = b.add_state(2, 20.0.into());
        let m3b = b.add_state(2, 7.0.into());
        let z2 = b.add_state(3, 100.0.into());
        b.connect_root(a2);
        b.connect(a2, m2b);
        b.connect(a2, m3b);
        b.connect(m2b, z2);
        b.connect(m3b, z2);
        let rebuilt = b.build();

        assert_eq!(*inst.optimum(), *rebuilt.optimum());
        assert_eq!(inst.count_solutions(), rebuilt.count_solutions());
        assert_eq!(*inst.subtree_opt(a), *rebuilt.subtree_opt(a2));
        assert_eq!(inst.payload(z), 42);
        let (_, w1) = top1_solution(&inst).unwrap();
        let (_, w2) = top1_solution(&rebuilt).unwrap();
        assert_eq!(w1, w2);
    }

    /// Enumerators cache the ordered root choice set on the instance. A
    /// patch that replaces the best root state must not leave that order
    /// behind — neither on the patched instance nor on a patched clone —
    /// and a cursor opened before the clone keeps its own generation.
    #[test]
    fn a_patch_drops_the_cached_root_order() {
        use crate::{ranked_enumerate, AnyKAlgorithm};
        let weights = |inst: &TdpInstance<TropicalMin>, alg| -> Vec<OrderedF64> {
            ranked_enumerate(inst, alg).map(|s| s.weight).collect()
        };
        for alg in AnyKAlgorithm::ALL {
            let mut b = TdpBuilder::<TropicalMin>::serial(2);
            b.retain_topology(true);
            let roots: Vec<NodeId> = [1.0, 2.0, 3.0]
                .iter()
                .map(|&w| b.add_state(1, w.into()))
                .collect();
            let z = b.add_state(2, 10.0.into());
            for &r in &roots {
                b.connect_root(r);
                b.connect(r, z);
            }
            let original = b.build();
            let before: Vec<OrderedF64> = [11.0, 12.0, 13.0].map(Into::into).to_vec();
            let mut pinned = ranked_enumerate(&original, alg);
            assert_eq!(pinned.next().map(|s| s.weight), Some(before[0]), "{alg}");

            let mut patch = TdpPatch::new();
            patch.kill_nodes.push(roots[0]);
            let better = patch.add_node(&original, StageId(1), 0.5.into(), 7);
            patch.add_edges.push((NodeId::ROOT, 0, better));
            patch.add_edges.push((better, 0, z));
            let after: Vec<OrderedF64> = [10.5, 12.0, 13.0].map(Into::into).to_vec();

            let mut next = original.clone();
            apply_patch(&mut next, &patch).unwrap();
            assert_eq!(weights(&next, alg), after, "{alg}: patched clone");
            assert_eq!(
                pinned.map(|s| s.weight).collect::<Vec<_>>(),
                before[1..],
                "{alg}: the cursor over the original is undisturbed"
            );
            assert_eq!(weights(&original, alg), before, "{alg}: so is the original");

            // The same edit in place, on an instance whose cache is warm.
            let mut in_place = original;
            apply_patch(&mut in_place, &patch).unwrap();
            assert_eq!(weights(&in_place, alg), after, "{alg}: patched in place");
        }
    }

    #[test]
    fn killed_states_stay_dead_across_later_patches() {
        let (mut inst, [a, m1, _m2, _z]) = chain();
        let mut p1 = TdpPatch::new();
        p1.kill_nodes.push(m1);
        p1.remove_edges.push((a, 0, m1));
        apply_patch(&mut inst, &p1).unwrap();

        // A later patch trying to link back into the killed state is a no-op.
        let mut p2 = TdpPatch::new();
        p2.add_edges.push((a, 0, m1));
        apply_patch(&mut inst, &p2).unwrap();
        assert_eq!(*inst.subtree_opt(m1), TropicalMin::zero());
        assert_eq!(inst.count_solutions(), 1);
    }

    #[test]
    fn dirty_cone_is_local_in_a_star() {
        // Star: center with two leaf branches. Editing one branch must not
        // re-evaluate the other branch's states.
        let mut b = TdpBuilder::<TropicalMin>::new();
        let center = b.add_stage_under_root("center", true);
        let left = b.add_stage("left", center, true);
        let right = b.add_stage("right", center, true);
        b.retain_topology(true);
        let c = b.add_state(center.index(), 1.0.into());
        let l1 = b.add_state(left.index(), 10.0.into());
        let r: Vec<NodeId> = (0..100)
            .map(|i| b.add_state(right.index(), (100.0 + i as f64).into()))
            .collect();
        b.connect_root(c);
        b.connect(c, l1);
        for &ri in &r {
            b.connect(c, ri);
        }
        let mut inst = b.build();
        assert_eq!(*inst.optimum(), OrderedF64::from(111.0));

        let mut patch = TdpPatch::new();
        let l2 = patch.add_node(&inst, left, 5.0.into(), 0);
        patch.add_edges.push((c, 0, l2));
        let stats = apply_patch(&mut inst, &patch).unwrap();
        assert_eq!(*inst.optimum(), OrderedF64::from(106.0));
        // Only l2, c, and the root are re-evaluated — not the 100 right
        // states.
        assert_eq!(stats.nodes_reevaluated, 3);
    }
}
