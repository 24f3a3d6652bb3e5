//! Construction of [`TdpInstance`]s.

use super::{bottom_up, DpEntry, Node, NodeId, Stage, StageId, TdpInstance};
use crate::anyk_part::successor::RootCache;
use crate::dioid::Dioid;

/// Builder for [`TdpInstance`]s.
///
/// A builder starts with the artificial root stage (stage `0`) containing the
/// single start state `s₀`. Stages are added under the root or under other
/// stages, then states are added to stages, and decisions connect states of
/// a stage to states of one of its child stages. [`TdpBuilder::build`]
/// freezes the instance and runs the DP bottom-up phase.
///
/// Every stage is added before the first state, so a state's slot ids are
/// fixed when it is added, and so is the place of its successor rows in the
/// CSR. A caller that knows a state's row lengths up front
/// ([`TdpBuilder::add_state_with_rows`], [`TdpBuilder::root_rows`]) writes
/// each decision into its final place with [`TdpBuilder::set_successor`]:
/// the equi-join compilation writes every plan array once, at its final
/// size ([`TdpBuilder::reserve`]). Decisions added one by one with
/// [`TdpBuilder::connect`] are instead laid out by one counting sort at
/// build time, after the sized rows of their slot.
#[derive(Debug, Clone)]
pub struct TdpBuilder<D: Dioid> {
    stages: Vec<Stage>,
    nodes: Vec<Node>,
    /// Per state: its weight, and `π₁` left at `0̄` for the bottom-up phase.
    dp: Vec<DpEntry<D::V>>,
    /// Slot-id base per state; `num_nodes + 1` entries once the first state
    /// is added (see [`TdpInstance`]), just `[0]` before.
    slot_offsets: Vec<u32>,
    /// CSR row ends per slot id, as on [`TdpInstance`]: a row's length is
    /// fixed when its state is added.
    succ_offsets: Vec<u32>,
    /// The sized successor rows; an entry not yet set holds `s₀`, which is
    /// never a successor.
    succ_data: Vec<NodeId>,
    /// The length of each of `s₀`'s rows ([`TdpBuilder::root_rows`]).
    root_rows: u32,
    /// Decisions added by [`TdpBuilder::connect`]: `(slot id, child)`, in
    /// insertion order.
    connected: Vec<(u32, NodeId)>,
    /// Keep per-state kill flags so the instance can be edited with
    /// [`crate::tdp::apply_patch`].
    retain_topology: bool,
}

impl<D: Dioid> Default for TdpBuilder<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D: Dioid> TdpBuilder<D> {
    /// A builder with only the artificial root stage and start state `s₀`.
    pub fn new() -> Self {
        let root_stage = Stage {
            parent: None,
            children: Vec::new(),
            slot_in_parent: 0,
            label: "s0".to_string(),
            is_output: false,
            nodes: vec![NodeId::ROOT],
        };
        let root_node = Node {
            stage: StageId::ROOT,
            payload: u64::MAX,
        };
        TdpBuilder {
            stages: vec![root_stage],
            nodes: vec![root_node],
            dp: vec![DpEntry {
                weight: D::one(),
                opt: D::zero(),
            }],
            slot_offsets: vec![0],
            succ_offsets: vec![0],
            succ_data: Vec::new(),
            root_rows: 0,
            connected: Vec::new(),
            retain_topology: false,
        }
    }

    /// Make the built instance editable in place by
    /// [`crate::tdp::apply_patch`] (delta maintenance): it then keeps one
    /// kill flag per state, `O(n)` bytes. The successor CSR is the same
    /// either way. Off by default.
    pub fn retain_topology(&mut self, retain: bool) {
        self.retain_topology = retain;
    }

    /// A builder for a *serial* (path-shaped) problem with `len` stages
    /// chained under the root: stage `i`'s parent is stage `i − 1`.
    ///
    /// This models the path queries of §3/§4; stage indices `1..=len` can be
    /// passed directly to [`TdpBuilder::add_state`].
    pub fn serial(len: usize) -> Self {
        let mut b = Self::new();
        let mut parent = StageId::ROOT;
        for i in 1..=len {
            parent = b.add_stage(&format!("stage{i}"), parent, true);
        }
        b
    }

    /// Add a stage under `parent` and return its id.
    ///
    /// `is_output` controls whether the stage's states contribute payloads to
    /// solution witnesses (auxiliary "value node" stages pass `false`).
    ///
    /// # Panics
    /// Panics once a state has been added: slot ids are fixed per stage.
    pub fn add_stage(&mut self, label: &str, parent: StageId, is_output: bool) -> StageId {
        assert!(
            !self.frozen(),
            "stage {label} added after the first state: add every stage first"
        );
        let id = StageId(self.stages.len() as u32);
        let slot = self.stages[parent.index()].children.len() as u32;
        self.stages[parent.index()].children.push(id);
        self.stages.push(Stage {
            parent: Some(parent),
            children: Vec::new(),
            slot_in_parent: slot,
            label: label.to_string(),
            is_output,
            nodes: Vec::new(),
        });
        id
    }

    /// Add an output stage directly under the artificial root stage.
    pub fn add_stage_under_root(&mut self, label: &str, is_output: bool) -> StageId {
        self.add_stage(label, StageId::ROOT, is_output)
    }

    /// Size each of `s₀`'s successor rows (one per child stage of the root
    /// stage) to `len` entries, to be filled with
    /// [`TdpBuilder::set_successor`].
    ///
    /// # Panics
    /// Panics once a state has been added.
    pub fn root_rows(&mut self, len: u32) {
        assert!(!self.frozen(), "s₀'s rows are sized before the first state");
        self.root_rows = len;
    }

    /// Reserve room for `states` more states, `slots` more of their
    /// `(state, child stage)` pairs and `successors` more successor entries
    /// (`s₀`'s rows included), so that adding them moves no array.
    pub fn reserve(&mut self, states: usize, slots: usize, successors: usize) {
        let (root_base, root_slots) = if self.frozen() {
            (0, 0)
        } else {
            (1, self.stages[StageId::ROOT.index()].children.len())
        };
        self.nodes.reserve_exact(states);
        self.dp.reserve_exact(states);
        self.slot_offsets.reserve_exact(states + root_base);
        self.succ_offsets.reserve_exact(slots + root_slots);
        self.succ_data.reserve_exact(successors);
    }

    /// Reserve room for `states` more states in the list of `stage`.
    pub fn reserve_stage(&mut self, stage: StageId, states: usize) {
        self.stages[stage.index()].nodes.reserve_exact(states);
    }

    /// Add a state with the given weight to the stage with index `stage`
    /// (counting the root stage as `0`) and return its id.
    ///
    /// # Panics
    /// Panics if `stage` does not exist or is the root stage.
    pub fn add_state(&mut self, stage: usize, weight: D::V) -> NodeId {
        self.add_state_with_rows(stage, weight, 0, 0)
    }

    /// Like [`TdpBuilder::add_state`] but with an explicit payload (typically
    /// an input-tuple identifier).
    pub fn add_state_with_payload(&mut self, stage: usize, weight: D::V, payload: u64) -> NodeId {
        self.add_state_with_rows(stage, weight, payload, 0)
    }

    /// Like [`TdpBuilder::add_state_with_payload`], and size each of the
    /// state's successor rows (one per child stage of its stage) to
    /// `row_len` entries, to be filled with [`TdpBuilder::set_successor`]
    /// before [`TdpBuilder::build`].
    pub fn add_state_with_rows(
        &mut self,
        stage: usize,
        weight: D::V,
        payload: u64,
        row_len: u32,
    ) -> NodeId {
        assert!(
            stage > 0 && stage < self.stages.len(),
            "invalid stage index {stage}"
        );
        self.freeze();
        let id = NodeId(self.nodes.len() as u32);
        let slots = self.stages[stage].children.len();
        self.push_slots(slots, row_len);
        self.nodes.push(Node {
            stage: StageId(stage as u32),
            payload,
        });
        self.dp.push(DpEntry {
            weight,
            opt: D::zero(),
        });
        self.stages[stage].nodes.push(id);
        id
    }

    /// Set entry `i` of the successor row of `(parent, slot)` to `child`,
    /// a state of the `slot`-th child stage of `parent`'s stage.
    ///
    /// # Panics
    /// Panics if `child`'s stage is not that stage, or if the row has no
    /// entry `i`.
    #[inline]
    pub fn set_successor(&mut self, parent: NodeId, slot: u32, i: u32, child: NodeId) {
        let p_stage = self.nodes[parent.index()].stage;
        let c_stage = self.nodes[child.index()].stage;
        assert!(
            self.stages[p_stage.index()].children.get(slot as usize) == Some(&c_stage),
            "stage {c_stage:?} is not child {slot} of stage {p_stage:?}"
        );
        let d = self.slot_offsets[parent.index()] as usize + slot as usize;
        let (start, end) = (self.succ_offsets[d], self.succ_offsets[d + 1]);
        assert!(
            i < end - start,
            "entry {i} is beyond the {}-entry row of {parent:?} slot {slot}",
            end - start
        );
        self.succ_data[(start + i) as usize] = child;
    }

    /// Connect two states with a decision. `child`'s stage must be a child of
    /// `parent`'s stage. The decision follows the sized entries of its row
    /// and the decisions connected into the row before it.
    ///
    /// # Panics
    /// Panics if the stages are not in a parent–child relationship.
    pub fn connect(&mut self, parent: NodeId, child: NodeId) {
        let p_stage = self.nodes[parent.index()].stage;
        let c_stage = self.nodes[child.index()].stage;
        let slot = self.stages[p_stage.index()]
            .children
            .iter()
            .position(|&s| s == c_stage)
            .unwrap_or_else(|| {
                panic!(
                    "stage {:?} ({}) is not a child of stage {:?} ({})",
                    c_stage,
                    self.stages[c_stage.index()].label,
                    p_stage,
                    self.stages[p_stage.index()].label
                )
            });
        let d = self.slot_offsets[parent.index()] + slot as u32;
        self.connected.push((d, child));
    }

    /// Connect the artificial start state `s₀` to a state whose stage is a
    /// direct child of the root stage.
    pub fn connect_root(&mut self, child: NodeId) {
        self.connect(NodeId::ROOT, child);
    }

    /// Declare that `node` (in a leaf stage) can terminate a solution.
    ///
    /// In this crate's encoding every state of a leaf stage implicitly
    /// connects to the terminal state with weight `1̄`, so this is a
    /// validation aid only: it panics if the node's stage is not a leaf,
    /// catching mis-built instances early.
    pub fn connect_terminal(&mut self, node: NodeId) {
        let stage = self.nodes[node.index()].stage;
        assert!(
            self.stages[stage.index()].children.is_empty(),
            "connect_terminal called on node of non-leaf stage {}",
            self.stages[stage.index()].label
        );
    }

    /// Number of states added so far (including `s₀`).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of stages added so far (including the root stage).
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Whether `s₀`'s slots are fixed, which the first state does.
    fn frozen(&self) -> bool {
        self.slot_offsets.len() > self.nodes.len()
    }

    /// Fix `s₀`'s slot ids and rows; a no-op once done.
    fn freeze(&mut self) {
        if !self.frozen() {
            let slots = self.stages[StageId::ROOT.index()].children.len();
            self.push_slots(slots, self.root_rows);
        }
    }

    /// Give the next state `slots` slot ids with rows of `row_len` unset
    /// entries each.
    fn push_slots(&mut self, slots: usize, row_len: u32) {
        let base = *self.slot_offsets.last().expect("non-empty") as usize;
        assert!(
            base + slots <= u32::MAX as usize,
            "T-DP instance exceeds u32 slot-id space"
        );
        self.slot_offsets.push((base + slots) as u32);
        let first = self.succ_data.len();
        let len = first + slots * row_len as usize;
        assert!(
            len <= u32::MAX as usize,
            "T-DP instance exceeds u32 successor-offset space ({len} decisions)"
        );
        for s in 1..=slots {
            self.succ_offsets
                .push((first + s * row_len as usize) as u32);
        }
        self.succ_data.resize(len, NodeId::ROOT);
    }

    /// Merge the decisions of [`TdpBuilder::connect`] into the CSR by one
    /// counting sort: a slot's row is its sized entries, then its connected
    /// decisions in insertion order.
    fn lay_out_connected(&mut self) {
        let num_slots = self.succ_offsets.len() - 1;
        let mut offsets: Vec<u32> = vec![0; num_slots + 1];
        for &(d, _) in &self.connected {
            offsets[d as usize + 1] += 1;
        }
        let total = self.succ_data.len() + self.connected.len();
        assert!(
            total <= u32::MAX as usize,
            "T-DP instance exceeds u32 successor-offset space ({total} decisions)"
        );
        let mut data: Vec<NodeId> = vec![NodeId::ROOT; total];
        let mut cursor: Vec<u32> = Vec::with_capacity(num_slots);
        for d in 0..num_slots {
            let sized =
                &self.succ_data[self.succ_offsets[d] as usize..self.succ_offsets[d + 1] as usize];
            let start = offsets[d] as usize;
            offsets[d + 1] += offsets[d] + sized.len() as u32;
            data[start..start + sized.len()].copy_from_slice(sized);
            cursor.push((start + sized.len()) as u32);
        }
        for &(d, child) in &self.connected {
            data[cursor[d as usize] as usize] = child;
            cursor[d as usize] += 1;
        }
        self.succ_offsets = offsets;
        self.succ_data = data;
    }

    /// Freeze the instance: lay out the connected decisions, compute the
    /// serial stage order and run the DP bottom-up phase (pruning + `π₁`,
    /// one serial pass of `bottom_up::eval_state` per state, which also
    /// records the forced serial positions). Pruned states stay in the
    /// successor rows; [`TdpInstance::choices`] skips them.
    /// [`crate::tdp::apply_patch`] evaluates states with the same function.
    pub fn build(mut self) -> TdpInstance<D> {
        self.freeze();
        if !self.connected.is_empty() {
            self.lay_out_connected();
        }
        debug_assert!(
            !self.succ_data.contains(&NodeId::ROOT),
            "a sized successor row was left with an unset entry"
        );
        let TdpBuilder {
            stages,
            nodes,
            dp,
            slot_offsets,
            succ_offsets,
            succ_data,
            retain_topology,
            ..
        } = self;
        let serial_order = serialise_stages(&stages);
        let parent_pos = compute_parent_positions(&stages, &serial_order);
        let pending = compute_pending_branches(&stages, &serial_order, &parent_pos);
        let root_slots = stages[StageId::ROOT.index()].children.len();
        let killed = retain_topology.then(|| vec![false; nodes.len()]);
        let mut instance = TdpInstance {
            stages,
            nodes,
            dp,
            slot_offsets,
            succ_offsets,
            succ_data,
            branch_opt: Vec::new(),
            serial_order,
            parent_pos,
            forced: Vec::new(),
            pending,
            killed,
            root_cache: RootCache::new(root_slots),
        };
        bottom_up::run(&mut instance);
        instance
    }
}

/// Topologically order the non-root stages so that parents come first
/// (depth-first, preserving child insertion order).
fn serialise_stages(stages: &[Stage]) -> Vec<StageId> {
    let mut order = Vec::with_capacity(stages.len().saturating_sub(1));
    let mut stack: Vec<StageId> = stages[StageId::ROOT.index()]
        .children
        .iter()
        .rev()
        .copied()
        .collect();
    while let Some(s) = stack.pop() {
        order.push(s);
        for &c in stages[s.index()].children.iter().rev() {
            stack.push(c);
        }
    }
    order
}

fn compute_parent_positions(stages: &[Stage], serial_order: &[StageId]) -> Vec<Option<usize>> {
    let mut pos_of_stage = vec![usize::MAX; stages.len()];
    for (pos, &sid) in serial_order.iter().enumerate() {
        pos_of_stage[sid.index()] = pos;
    }
    serial_order
        .iter()
        .map(|&sid| {
            let parent = stages[sid.index()]
                .parent
                .expect("non-root stage has a parent");
            if parent == StageId::ROOT {
                None
            } else {
                Some(pos_of_stage[parent.index()])
            }
        })
        .collect()
}

/// For each serial position `j` (0-based), the branches `(prefix position,
/// slot)` that hang off stages strictly before `j` but lead to stages at
/// positions `> j` outside the subtree of position `j`. These are the
/// branches whose optimal completion must be added when scoring an anyK-part
/// candidate that deviates at position `j` (see `anyk_part`).
fn compute_pending_branches(
    stages: &[Stage],
    serial_order: &[StageId],
    parent_pos: &[Option<usize>],
) -> Vec<Vec<(Option<usize>, u32)>> {
    let ell = serial_order.len();
    let mut pending = vec![Vec::new(); ell];
    for (child_pos, &sid) in serial_order.iter().enumerate() {
        let slot = stages[sid.index()].slot_in_parent;
        let ppos = parent_pos[child_pos];
        // The branch rooted at `child_pos` (hanging off `ppos`) is pending for
        // every deviation position j with ppos < j < child_pos — at such j the
        // branch root has not been expanded yet and is not inside j's subtree
        // (subtrees are contiguous in the DFS serial order).
        let lower = ppos.map(|p| p + 1).unwrap_or(0);
        for entry in &mut pending[lower..child_pos] {
            entry.push((ppos, slot));
        }
    }
    pending
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dioid::TropicalMin;

    #[test]
    fn serial_builder_creates_chain() {
        let b = TdpBuilder::<TropicalMin>::serial(4);
        assert_eq!(b.num_stages(), 5);
        let inst = b.build();
        assert_eq!(inst.solution_len(), 4);
        for pos in 0..4 {
            let expected = if pos == 0 { None } else { Some(pos - 1) };
            assert_eq!(inst.parent_pos(pos), expected);
        }
        // A chain has no pending branches anywhere.
        for pos in 0..4 {
            assert!(inst.pending_branches(pos).is_empty());
        }
    }

    #[test]
    fn star_tree_has_pending_branches() {
        // Root stage "center" with three leaf children. Serial order:
        // center(0), a(1), b(2), c(3). A deviation at position 1 (child `a`)
        // still owes the optimal completions of branches b and c from the
        // center, and a deviation at position 2 owes branch c.
        let mut b = TdpBuilder::<TropicalMin>::new();
        let center = b.add_stage_under_root("center", true);
        let _a = b.add_stage("a", center, true);
        let _bs = b.add_stage("b", center, true);
        let _c = b.add_stage("c", center, true);
        let inst = b.build();
        assert_eq!(inst.solution_len(), 4);
        assert_eq!(inst.pending_branches(0), &[]);
        assert_eq!(inst.pending_branches(1), &[(Some(0), 1), (Some(0), 2)]);
        assert_eq!(inst.pending_branches(2), &[(Some(0), 2)]);
        assert_eq!(inst.pending_branches(3), &[]);
    }

    #[test]
    #[should_panic(expected = "is not a child of stage")]
    fn connecting_unrelated_stages_panics() {
        let mut b = TdpBuilder::<TropicalMin>::serial(3);
        let a = b.add_state(1, 1.0.into());
        let c = b.add_state(3, 1.0.into());
        b.connect(a, c);
    }

    #[test]
    #[should_panic(expected = "non-leaf stage")]
    fn connect_terminal_rejects_inner_stage() {
        let mut b = TdpBuilder::<TropicalMin>::serial(2);
        let a = b.add_state(1, 1.0.into());
        b.connect_terminal(a);
    }

    #[test]
    fn deep_tree_serialisation_is_depth_first() {
        let mut b = TdpBuilder::<TropicalMin>::new();
        let s1 = b.add_stage_under_root("s1", true);
        let s2 = b.add_stage("s2", s1, true);
        let s3 = b.add_stage("s3", s1, true);
        let s4 = b.add_stage("s4", s2, true);
        let inst = b.build();
        assert_eq!(inst.serial_order(), &[s1, s2, s4, s3]);
        // Deviating at s2 (pos 1) or s4 (pos 2) owes the s3 branch of s1.
        assert_eq!(inst.pending_branches(1), &[(Some(0), 1)]);
        assert_eq!(inst.pending_branches(2), &[(Some(0), 1)]);
        assert_eq!(inst.pending_branches(3), &[]);
    }
}
