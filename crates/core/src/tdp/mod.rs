//! Tree-based Dynamic Programming (T-DP) instances (§3, §5.1).
//!
//! A T-DP instance is a rooted tree of *stages*; each stage holds *states*
//! (nodes), and a *decision* connects a state of a stage to a state of one of
//! its child stages. A **solution** picks exactly one state per (non-root)
//! stage such that every parent–child pair of picked states is connected.
//!
//! Serial DP — the path-query case of §3 and §4 — is the special case where
//! the stage tree is a single chain.
//!
//! Weights live on states: following the paper's equi-join encoding (Fig. 3),
//! the weight of the decision `(s, s')` is the weight of the target state
//! `s'`, so a solution's weight is the `⊗`-aggregate of the weights of its
//! states. The artificial root state `s₀` has weight `1̄`.
//!
//! The instance is immutable after [`TdpBuilder::build`], which also runs the
//! standard DP **bottom-up phase** (Eq. 2 / Eq. 7): it computes, for every
//! state, the weight of its optimal subtree completion and marks the states
//! that cannot reach a full solution as pruned (`π₁ = 0̄`).
//!
//! ## Memory layout: CSR with dense slot ids
//!
//! The any-k guarantees bound the *per-result* delay, so the constant factor
//! of every choice-set access dominates real wall-clock. All per-(state,
//! branch) data therefore lives in flat CSR (compressed sparse row) arrays
//! instead of nested vectors:
//!
//! * Every pair `(node, slot)` — a state together with one child stage of its
//!   stage — is assigned a dense **slot id**: `slot_offsets[n]` is the first
//!   slot id of node `n` (one consecutive id per child stage), so
//!   `slot_id(n, s) = slot_offsets[n] + s` and `slot_offsets` has
//!   `num_nodes + 1` entries. Slot ids index both the successor CSR and
//!   `branch_opt`, and give downstream consumers (e.g. the `anyk_part`
//!   successor-structure table) a perfect, hash-free key.
//! * All successor lists live contiguously in one `succ_data: Vec<NodeId>`;
//!   the list of slot id `d` is `succ_data[succ_offsets[d]..succ_offsets[d+1]]`.
//! * `branch_opt: Vec<V>` is keyed by slot id; `subtree_opt: Vec<V>` by node.
//!
//! An instance holds **one** successor CSR. Pruned states stay in it, and
//! [`TdpInstance::choices`] skips them: enumeration reads a choice set once,
//! when it builds that set's successor structure, so the skip costs one
//! comparison per choice there and nothing per answer. Keeping them means
//! no build-time copy of the edges without them, and it is what lets
//! [`apply_patch`] revive a pruned state in place.

mod bottom_up;
mod builder;
mod delta;

pub use bottom_up::top1_solution;
pub use builder::TdpBuilder;
pub use delta::{apply_patch, PatchError, PatchStats, TdpPatch};

use crate::anyk_part::successor::RootCache;
use crate::dioid::Dioid;

/// Identifier of a stage within a [`TdpInstance`]. Stage `0` is the
/// artificial root stage containing only the start state `s₀`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StageId(pub u32);

impl StageId {
    /// The artificial root stage.
    pub const ROOT: StageId = StageId(0);

    /// The stage id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a state (node) within a [`TdpInstance`]. Node `0` is the
/// artificial start state `s₀`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The artificial start state `s₀`.
    pub const ROOT: NodeId = NodeId(0);

    /// The node id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A stage of the T-DP problem.
#[derive(Debug, Clone)]
pub struct Stage {
    /// The parent stage (`None` only for the root stage).
    pub parent: Option<StageId>,
    /// Child stages in insertion order; the position of a child in this list
    /// is its *slot*, used to index per-state adjacency lists.
    pub children: Vec<StageId>,
    /// The slot of this stage within its parent's `children` list.
    pub slot_in_parent: u32,
    /// Human-readable label (e.g. the relation/atom this stage encodes).
    pub label: String,
    /// Whether states of this stage carry payloads that belong to the output
    /// witness. Auxiliary stages (e.g. equi-join "value nodes") set this to
    /// `false`.
    pub is_output: bool,
    /// States belonging to this stage.
    pub nodes: Vec<NodeId>,
}

/// A state of the T-DP problem.
#[derive(Debug, Clone)]
pub struct Node<V> {
    /// The stage this state belongs to.
    pub stage: StageId,
    /// The weight of every decision *into* this state (Fig. 3 encoding).
    pub weight: V,
    /// Opaque user payload, typically an input-tuple identifier; carried
    /// through to [`crate::Solution`] witnesses.
    pub payload: u64,
}

/// An immutable T-DP instance, ready for ranked enumeration.
///
/// Construct one with [`TdpBuilder`]. See the module docs for the flat CSR
/// memory layout.
#[derive(Debug, Clone)]
pub struct TdpInstance<D: Dioid> {
    pub(crate) stages: Vec<Stage>,
    pub(crate) nodes: Vec<Node<D::V>>,
    /// Dense slot-id base per node: node `n`'s slots occupy ids
    /// `slot_offsets[n]..slot_offsets[n + 1]` (one per child stage of its
    /// stage). Length `num_nodes + 1`.
    pub(crate) slot_offsets: Vec<u32>,
    /// CSR row offsets into `succ_data`, keyed by slot id. Length
    /// `num_slot_ids + 1`.
    pub(crate) succ_offsets: Vec<u32>,
    /// All successor lists, contiguous, pruned states included.
    pub(crate) succ_data: Vec<NodeId>,
    /// `π₁(s)`: weight of the optimal subtree completion rooted at `s`
    /// (excluding `s`'s own weight). `0̄` for pruned states. Keyed by node.
    pub(crate) subtree_opt: Vec<D::V>,
    /// `branch_opt[slot_id]`: optimal completion restricted to one branch,
    /// i.e. `min over successors t of (w(t) ⊗ π₁(t))`. Keyed by slot id.
    pub(crate) branch_opt: Vec<D::V>,
    /// Non-root stages serialised so that every parent precedes its children
    /// (§5.1 "tree order"). Position `j` (0-based) of this list is the
    /// "serial position `j+1`" of the paper.
    pub(crate) serial_order: Vec<StageId>,
    /// For each serial position (0-based, aligned with `serial_order`): the
    /// serial position of the parent stage, or `None` if the parent is the
    /// root stage.
    pub(crate) parent_pos: Vec<Option<usize>>,
    /// For each serial position `j`: the "pending branches" used to complete
    /// a prefix of positions `< j` optimally — pairs `(prefix position,
    /// slot)` of branches that hang off the prefix but are not covered by the
    /// subtree of the stage at position `j` (see `anyk_part`).
    pub(crate) pending: Vec<Vec<(Option<usize>, u32)>>,
    /// Per state: killed by a patch (a deleted input tuple), so `π₁ = 0̄`
    /// for good. Kept only when the builder was asked to
    /// [`TdpBuilder::retain_topology`], which [`apply_patch`] (delta
    /// ingestion) requires; `None` for ordinary instances.
    pub(crate) killed: Option<Vec<bool>>,
    /// Successor structures of the root's choice sets, filled by the first
    /// enumerator that needs one and shared by the rest. Cloning the
    /// instance yields an empty cache and [`apply_patch`] empties it: the
    /// cached order belongs to this generation of the data only.
    pub(crate) root_cache: RootCache<D>,
}

impl<D: Dioid> TdpInstance<D> {
    /// Number of stages, including the artificial root stage.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Number of states, including the artificial start state `s₀`.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of decisions (edges) stored, those into pruned states
    /// included.
    pub fn num_edges(&self) -> usize {
        self.succ_data.len()
    }

    /// The number of non-root stages, i.e. the length ℓ of a solution.
    pub fn solution_len(&self) -> usize {
        self.serial_order.len()
    }

    /// The dense slot id of `(node, slot)` — the key into [`Self::branch_opt`]
    /// and the successor CSR, and a perfect hash for per-choice-set tables.
    #[inline]
    pub fn slot_id(&self, id: NodeId, slot: u32) -> u32 {
        self.slot_offsets[id.index()] + slot
    }

    /// Total number of `(node, slot)` pairs, i.e. the exclusive upper bound
    /// of [`Self::slot_id`].
    pub fn num_slot_ids(&self) -> usize {
        *self.slot_offsets.last().expect("slot_offsets is non-empty") as usize
    }

    /// Stage metadata.
    pub fn stage(&self, id: StageId) -> &Stage {
        &self.stages[id.index()]
    }

    /// State metadata.
    pub fn node(&self, id: NodeId) -> &Node<D::V> {
        &self.nodes[id.index()]
    }

    /// The weight of (every decision into) state `id`.
    #[inline]
    pub fn weight(&self, id: NodeId) -> &D::V {
        &self.nodes[id.index()].weight
    }

    /// The payload of state `id`.
    pub fn payload(&self, id: NodeId) -> u64 {
        self.nodes[id.index()].payload
    }

    /// `π₁(s)`: the weight of the best completion of the subtree below `s`
    /// (not including `s`'s own weight). Equals `0̄` iff `s` was pruned by the
    /// bottom-up phase, i.e. cannot be part of any solution.
    #[inline]
    pub fn subtree_opt(&self, id: NodeId) -> &D::V {
        &self.subtree_opt[id.index()]
    }

    /// The optimal completion of the branch `slot` of state `id`.
    #[inline]
    pub fn branch_opt(&self, id: NodeId, slot: u32) -> &D::V {
        &self.branch_opt[self.slot_id(id, slot) as usize]
    }

    /// Successor states of `id` in the `slot`-th child stage of its stage,
    /// in insertion order, pruned states included ([`Self::choices`] skips
    /// them).
    #[inline]
    pub fn successors(&self, id: NodeId, slot: u32) -> &[NodeId] {
        let d = self.slot_id(id, slot) as usize;
        &self.succ_data[self.succ_offsets[d] as usize..self.succ_offsets[d + 1] as usize]
    }

    /// The stages in serial (parents-first) order, excluding the root stage.
    pub fn serial_order(&self) -> &[StageId] {
        &self.serial_order
    }

    /// For serial position `pos` (0-based), the serial position of the parent
    /// stage, or `None` if the parent is the root stage.
    pub fn parent_pos(&self, pos: usize) -> Option<usize> {
        self.parent_pos[pos]
    }

    /// The weight of the overall optimal solution, or `0̄` if the instance has
    /// no solution.
    pub fn optimum(&self) -> &D::V {
        self.subtree_opt(NodeId::ROOT)
    }

    /// True iff the instance has at least one solution.
    pub fn has_solution(&self) -> bool {
        *self.optimum() != D::zero()
    }

    /// The value of the choice `(s → t)`: `w(t) ⊗ π₁(t)` (the best solution
    /// weight of the branch through `t`). `0̄` if `t` is pruned.
    #[inline]
    pub fn choice_value(&self, target: NodeId) -> D::V {
        D::times(self.weight(target), self.subtree_opt(target))
    }

    /// Iterate over the `(successor, choice value)` pairs of the choice set
    /// `Choices(s, slot)`: the successors in list order, skipping pruned
    /// states (`π₁ = 0̄`). At most `successors(id, slot).len()` items.
    pub fn choices(&self, id: NodeId, slot: u32) -> impl Iterator<Item = (NodeId, D::V)> + '_ {
        let zero = D::zero();
        self.successors(id, slot).iter().filter_map(move |&t| {
            let sub = self.subtree_opt(t);
            (*sub != zero).then(|| (t, D::times(self.weight(t), sub)))
        })
    }

    /// Count the total number of solutions by stage-wise suffix counting
    /// over the choice sets (exact, without enumerating them; a pruned
    /// successor counts nothing). Saturates at `u128::MAX`.
    ///
    /// This is the quantity `Π*(1)` used in the proof of Theorem 11.
    pub fn count_solutions(&self) -> u128 {
        let mut counts: Vec<u128> = vec![0; self.nodes.len()];
        // A pruned successor completes no solution; skipping it also keeps
        // out a state a patch killed, whose count is never computed.
        for sid in self.stages_children_first() {
            let stage = &self.stages[sid.index()];
            let num_slots = stage.children.len();
            for &nid in &stage.nodes {
                let mut total: u128 = 1;
                for slot in 0..num_slots {
                    let branch: u128 = self
                        .choices(nid, slot as u32)
                        .map(|(t, _)| counts[t.index()])
                        .fold(0u128, |a, b| a.saturating_add(b));
                    total = total.saturating_mul(branch);
                }
                counts[nid.index()] = total;
            }
        }
        counts[NodeId::ROOT.index()]
    }

    /// Every stage children-first: reverse serial order, then the root
    /// stage. When a stage comes up, all of its child stages are done.
    pub(crate) fn stages_children_first(&self) -> impl Iterator<Item = StageId> + '_ {
        self.serial_order
            .iter()
            .rev()
            .copied()
            .chain(std::iter::once(StageId::ROOT))
    }

    /// The "pending branches" of serial position `pos` (see the module docs
    /// of [`crate::anyk_part`]).
    pub(crate) fn pending_branches(&self, pos: usize) -> &[(Option<usize>, u32)] {
        &self.pending[pos]
    }

    /// True if this instance was built with
    /// [`TdpBuilder::retain_topology`] and can therefore be edited with
    /// [`apply_patch`].
    pub fn supports_patch(&self) -> bool {
        self.killed.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dioid::{OrderedF64, TropicalMin};

    fn cartesian_3() -> TdpInstance<TropicalMin> {
        let mut b = TdpBuilder::<TropicalMin>::serial(3);
        let s1: Vec<_> = [1.0, 2.0, 3.0]
            .iter()
            .map(|&w| b.add_state(1, w.into()))
            .collect();
        let s2: Vec<_> = [10.0, 20.0, 30.0]
            .iter()
            .map(|&w| b.add_state(2, w.into()))
            .collect();
        let s3: Vec<_> = [100.0, 200.0, 300.0]
            .iter()
            .map(|&w| b.add_state(3, w.into()))
            .collect();
        for &a in &s1 {
            b.connect_root(a);
        }
        for &a in &s1 {
            for &c in &s2 {
                b.connect(a, c);
            }
        }
        for &a in &s2 {
            for &c in &s3 {
                b.connect(a, c);
            }
        }
        b.build()
    }

    #[test]
    fn cartesian_product_bottom_up_optimum() {
        let inst = cartesian_3();
        assert_eq!(inst.solution_len(), 3);
        assert!(inst.has_solution());
        assert_eq!(*inst.optimum(), OrderedF64::from(111.0));
        assert_eq!(inst.count_solutions(), 27);
    }

    #[test]
    fn pruning_removes_dead_states() {
        // Stage 2 state "dead" has no successors in stage 3 → must be pruned.
        let mut b = TdpBuilder::<TropicalMin>::serial(3);
        let a = b.add_state(1, 1.0.into());
        let good = b.add_state(2, 5.0.into());
        let dead = b.add_state(2, 0.5.into());
        let z = b.add_state(3, 7.0.into());
        b.connect_root(a);
        b.connect(a, good);
        b.connect(a, dead);
        b.connect(good, z);
        let inst = b.build();
        assert_eq!(*inst.subtree_opt(dead), TropicalMin::zero());
        assert_eq!(*inst.optimum(), OrderedF64::from(13.0));
        assert_eq!(inst.count_solutions(), 1);
        // The decision into `dead` stays stored; its choice set skips it.
        assert_eq!(inst.successors(a, 0), &[good, dead]);
        assert_eq!(
            inst.choices(a, 0).map(|(t, _)| t).collect::<Vec<_>>(),
            [good]
        );
        assert_eq!(inst.num_edges(), 4);
    }

    #[test]
    fn star_tree_optimum_multiplies_branches() {
        // Root stage 1 with two child stages 2 and 3 (a "star").
        let mut b = TdpBuilder::<TropicalMin>::new();
        let s1 = b.add_stage_under_root("center", true);
        let s2 = b.add_stage("left", s1, true);
        let s3 = b.add_stage("right", s1, true);
        let c = b.add_state(s1.index(), 1.0.into());
        let l1 = b.add_state(s2.index(), 10.0.into());
        let l2 = b.add_state(s2.index(), 20.0.into());
        let r1 = b.add_state(s3.index(), 100.0.into());
        b.connect_root(c);
        b.connect(c, l1);
        b.connect(c, l2);
        b.connect(c, r1);
        let inst = b.build();
        assert_eq!(*inst.optimum(), OrderedF64::from(111.0));
        assert_eq!(inst.count_solutions(), 2);
    }

    #[test]
    fn empty_instance_has_no_solution() {
        let b = TdpBuilder::<TropicalMin>::serial(2);
        let inst = b.build();
        assert!(!inst.has_solution());
        assert_eq!(inst.count_solutions(), 0);
    }

    #[test]
    fn slot_ids_are_dense_and_per_node_contiguous() {
        let mut b = TdpBuilder::<TropicalMin>::new();
        let center = b.add_stage_under_root("center", true);
        let _left = b.add_stage("left", center, true);
        let _right = b.add_stage("right", center, true);
        let c1 = b.add_state(center.index(), 1.0.into());
        let c2 = b.add_state(center.index(), 2.0.into());
        b.connect_root(c1);
        b.connect_root(c2);
        let inst = b.build();
        // Root has one slot (id 0); each center state has two.
        assert_eq!(inst.slot_id(NodeId::ROOT, 0), 0);
        assert_eq!(inst.slot_id(c1, 0), 1);
        assert_eq!(inst.slot_id(c1, 1), 2);
        assert_eq!(inst.slot_id(c2, 0), 3);
        assert_eq!(inst.slot_id(c2, 1), 4);
        assert_eq!(inst.num_slot_ids(), 5);
    }
}
