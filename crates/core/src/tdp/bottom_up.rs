//! The standard DP bottom-up phase (Eq. 2 for serial DP, Eq. 7 for T-DP).
//!
//! Processes stages children-first and computes for every state `s`
//!
//! * `branch_opt(s, c) = min over decisions (s, t) into child stage c of
//!   w(t) ⊗ π₁(t)` — the optimal completion of a single branch, and
//! * `π₁(s) = ⊗ over child stages c of branch_opt(s, c)` — the optimal
//!   completion of the whole subtree below `s`.
//!
//! States with `π₁(s) = 0̄` cannot participate in any solution. They stay in
//! the successor lists, and [`TdpInstance::choices`] skips them, so the
//! enumeration algorithms never see them. This is the semi-join–style
//! reduction that the paper identifies with Yannakakis' algorithm on the
//! Boolean semiring (§3).
//!
//! [`eval_state`] is the only copy of this arithmetic:
//! [`crate::tdp::TdpBuilder::build`] runs it over every state, and
//! [`crate::tdp::apply_patch`] over the dirty cone of a patch, which is why a
//! patched instance is bit-identical to a rebuilt one.

use super::{Node, NodeId, TdpInstance};
use crate::dioid::Dioid;

/// Evaluate one state over the successor CSR `offsets`/`data`: write the
/// `num_slots` values `branch[first_slot..]` (`⊕` over each successor row,
/// skipping targets with `π₁ = 0̄`) and return their `⊗` in slot order, the
/// state's new `π₁`. Every `subtree` entry a row points at must be final.
///
/// `⊕` is selective, so the order of a row does not change the result; the
/// `⊗` fold order is fixed by the stage tree.
pub(super) fn eval_state<D: Dioid>(
    nodes: &[Node<D::V>],
    offsets: &[u32],
    data: &[NodeId],
    subtree: &[D::V],
    branch: &mut [D::V],
    first_slot: usize,
    num_slots: usize,
) -> D::V {
    let zero = D::zero();
    let mut total = D::one();
    for d in first_slot..first_slot + num_slots {
        let mut best = D::zero();
        for &t in &data[offsets[d] as usize..offsets[d + 1] as usize] {
            let sub = &subtree[t.index()];
            if *sub == zero {
                continue;
            }
            best = D::plus(&best, &D::times(&nodes[t.index()].weight, sub));
        }
        total = D::times(&total, &best);
        branch[d] = best;
    }
    total
}

/// Run the bottom-up phase over the instance's successor CSR,
/// filling `subtree_opt` and `branch_opt` (the latter keyed by dense slot id).
pub(crate) fn run<D: Dioid>(instance: &mut TdpInstance<D>) {
    crate::faults::checkpoint("core.bottom_up");
    let _span = anyk_obs::phase::span(anyk_obs::Phase::BottomUp);
    let mut subtree_opt = vec![D::zero(); instance.nodes.len()];
    let mut branch_opt: Vec<D::V> = vec![D::zero(); instance.num_slot_ids()];
    for sid in instance.stages_children_first() {
        let stage = &instance.stages[sid.index()];
        for &nid in &stage.nodes {
            subtree_opt[nid.index()] = eval_state::<D>(
                &instance.nodes,
                &instance.succ_offsets,
                &instance.succ_data,
                &subtree_opt,
                &mut branch_opt,
                instance.slot_offsets[nid.index()] as usize,
                stage.children.len(),
            );
        }
    }
    instance.subtree_opt = subtree_opt;
    instance.branch_opt = branch_opt;
}

/// Reconstruct the single optimal ("top-1") solution by following optimal
/// decisions top-down, as classic DP would (§3). Returns the states in serial
/// stage order, or `None` if the instance has no solution.
///
/// This is primarily a testing aid: the enumeration algorithms recompute the
/// top-1 solution through their own machinery, and tests check that all of
/// them agree with this direct reconstruction.
pub fn top1_solution<D: Dioid>(instance: &TdpInstance<D>) -> Option<(Vec<NodeId>, D::V)> {
    if !instance.has_solution() {
        return None;
    }
    let ell = instance.solution_len();
    let mut states: Vec<NodeId> = Vec::with_capacity(ell);
    let mut weight = D::one();
    for pos in 0..ell {
        let parent_state = match instance.parent_pos(pos) {
            None => NodeId::ROOT,
            Some(p) => states[p],
        };
        let sid = instance.serial_order[pos];
        let slot = instance.stages[sid.index()].slot_in_parent;
        let (best, _) = instance
            .choices(parent_state, slot)
            .min_by(|a, b| a.1.cmp(&b.1))
            .expect("unpruned state must have at least one choice per slot");
        weight = D::times(&weight, instance.weight(best));
        states.push(best);
    }
    Some((states, weight))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dioid::{OrderedF64, TropicalMin};
    use crate::tdp::TdpBuilder;

    #[test]
    fn top1_matches_example_6() {
        // Example 6/7 of the paper: Cartesian product with weights equal to
        // the tuple labels; the optimum is 1 + 10 + 100 = 111.
        let mut b = TdpBuilder::<TropicalMin>::serial(3);
        let mut per_stage = Vec::new();
        for (stage, weights) in [
            (1usize, [1.0, 2.0, 3.0]),
            (2, [10.0, 20.0, 30.0]),
            (3, [100.0, 200.0, 300.0]),
        ] {
            let ids: Vec<_> = weights
                .iter()
                .map(|&w| b.add_state(stage, w.into()))
                .collect();
            per_stage.push(ids);
        }
        for &a in &per_stage[0] {
            b.connect_root(a);
        }
        for i in 0..2 {
            for &a in &per_stage[i] {
                for &c in &per_stage[i + 1] {
                    b.connect(a, c);
                }
            }
        }
        let inst = b.build();
        let (states, weight) = top1_solution(&inst).unwrap();
        assert_eq!(weight, OrderedF64::from(111.0));
        assert_eq!(states.len(), 3);
        assert_eq!(*inst.weight(states[0]), OrderedF64::from(1.0));
        assert_eq!(*inst.weight(states[1]), OrderedF64::from(10.0));
        assert_eq!(*inst.weight(states[2]), OrderedF64::from(100.0));
    }

    #[test]
    fn pruning_cascades_upwards() {
        // A 3-stage chain where stage 3 is empty: every state must be pruned
        // and there is no solution.
        let mut b = TdpBuilder::<TropicalMin>::serial(3);
        let a = b.add_state(1, 1.0.into());
        let m = b.add_state(2, 2.0.into());
        b.connect_root(a);
        b.connect(a, m);
        let inst = b.build();
        assert!(!inst.has_solution());
        assert_eq!(*inst.subtree_opt(a), TropicalMin::zero());
        assert_eq!(*inst.subtree_opt(m), TropicalMin::zero());
        assert!(top1_solution(&inst).is_none());
    }

    #[test]
    fn branch_opt_is_per_branch_minimum() {
        let mut b = TdpBuilder::<TropicalMin>::new();
        let center = b.add_stage_under_root("center", true);
        let left = b.add_stage("left", center, true);
        let right = b.add_stage("right", center, true);
        let c = b.add_state(center.index(), 0.0.into());
        let l1 = b.add_state(left.index(), 3.0.into());
        let l2 = b.add_state(left.index(), 1.0.into());
        let r1 = b.add_state(right.index(), 5.0.into());
        b.connect_root(c);
        b.connect(c, l1);
        b.connect(c, l2);
        b.connect(c, r1);
        let inst = b.build();
        assert_eq!(*inst.branch_opt(c, 0), OrderedF64::from(1.0));
        assert_eq!(*inst.branch_opt(c, 1), OrderedF64::from(5.0));
        assert_eq!(*inst.subtree_opt(c), OrderedF64::from(6.0));
        assert_eq!(*inst.optimum(), OrderedF64::from(6.0));
    }
}
