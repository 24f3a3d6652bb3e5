//! Construction of [`TdpInstance`]s.

use super::{bottom_up, Node, NodeId, Stage, StageId, TdpInstance};
use crate::anyk_part::successor::RootCache;
use crate::dioid::Dioid;

/// Builder for [`TdpInstance`]s.
///
/// A builder starts with the artificial root stage (stage `0`) containing the
/// single start state `s₀`. Stages are added under the root or under other
/// stages, states are added to stages, and decisions connect states of a
/// stage to states of one of its child stages. [`TdpBuilder::build`] freezes
/// the instance and runs the DP bottom-up phase.
///
/// Decisions are accumulated in one flat `(parent, slot, child)` list — no
/// per-state adjacency vectors — and scattered into the successor CSR by a
/// counting sort at [`TdpBuilder::build`] time. Adding a state and adding a
/// decision are therefore both amortised `O(1)` pushes into flat memory,
/// which keeps the `O(ℓn)` equi-join compilation allocation-light.
#[derive(Debug, Clone)]
pub struct TdpBuilder<D: Dioid> {
    stages: Vec<Stage>,
    nodes: Vec<Node<D::V>>,
    /// All decisions in insertion order: `(parent node, slot, child node)`.
    edges: Vec<(NodeId, u32, NodeId)>,
    /// Keep the full pre-compaction successor CSR on the built instance so
    /// it can be edited with [`crate::tdp::apply_patch`].
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
            weight: D::one(),
            payload: u64::MAX,
        };
        TdpBuilder {
            stages: vec![root_stage],
            nodes: vec![root_node],
            edges: Vec::new(),
            retain_topology: false,
        }
    }

    /// Ask [`TdpBuilder::build`] to keep the full pre-compaction successor
    /// topology on the instance, enabling in-place delta maintenance via
    /// [`crate::tdp::apply_patch`] at the cost of one extra CSR copy
    /// (`O(E)` memory). Off by default.
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
    pub fn add_stage(&mut self, label: &str, parent: StageId, is_output: bool) -> StageId {
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

    /// Add a state with the given weight to the stage with index `stage`
    /// (counting the root stage as `0`) and return its id.
    ///
    /// # Panics
    /// Panics if `stage` does not exist or is the root stage.
    pub fn add_state(&mut self, stage: usize, weight: D::V) -> NodeId {
        self.add_state_with_payload(stage, weight, 0)
    }

    /// Like [`TdpBuilder::add_state`] but with an explicit payload (typically
    /// an input-tuple identifier).
    pub fn add_state_with_payload(&mut self, stage: usize, weight: D::V, payload: u64) -> NodeId {
        assert!(
            stage > 0 && stage < self.stages.len(),
            "invalid stage index {stage}"
        );
        let id = NodeId(self.nodes.len() as u32);
        let stage_id = StageId(stage as u32);
        self.nodes.push(Node {
            stage: stage_id,
            weight,
            payload,
        });
        self.stages[stage].nodes.push(id);
        id
    }

    /// Connect two states with a decision. `child`'s stage must be a child of
    /// `parent`'s stage.
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
        self.edges.push((parent, slot as u32, child));
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

    /// Freeze the instance: flatten the adjacency into CSR, compute the
    /// serial stage order, run the DP bottom-up phase (pruning + `π₁`, one
    /// serial pass of `bottom_up::eval_state` per state), and compact pruned
    /// states out of every successor list (`bottom_up::compact`).
    /// [`crate::tdp::apply_patch`] runs the same two functions.
    pub fn build(self) -> TdpInstance<D> {
        let TdpBuilder {
            stages,
            nodes,
            edges,
            retain_topology,
        } = self;
        let serial_order = serialise_stages(&stages);
        let parent_pos = compute_parent_positions(&stages, &serial_order);
        let pending = compute_pending_branches(&stages, &serial_order, &parent_pos);

        // Assign dense slot ids: one consecutive id per (node, child stage of
        // its stage) pair. The CSR always reserves one slot id per child
        // stage, including slots no decision ever targeted.
        let num_nodes = nodes.len();
        let mut slot_offsets: Vec<u32> = Vec::with_capacity(num_nodes + 1);
        let mut total_slots = 0usize;
        for node in &nodes {
            slot_offsets.push(total_slots as u32);
            total_slots += stages[node.stage.index()].children.len();
        }
        assert!(
            total_slots <= u32::MAX as usize,
            "T-DP instance exceeds u32 slot-id space ({total_slots} (node, slot) pairs)"
        );
        slot_offsets.push(total_slots as u32);

        let total_edges = edges.len();
        assert!(
            total_edges <= u32::MAX as usize,
            "T-DP instance exceeds u32 successor-offset space ({total_edges} decisions)"
        );
        // Counting sort of the flat decision list into the successor CSR:
        // count per slot id, prefix-sum, then scatter in insertion order
        // (stable, so each successor list keeps its insertion order).
        let mut succ_offsets: Vec<u32> = vec![0; total_slots + 1];
        for &(parent, slot, _) in &edges {
            let d = slot_offsets[parent.index()] as usize + slot as usize;
            succ_offsets[d + 1] += 1;
        }
        for i in 0..total_slots {
            succ_offsets[i + 1] += succ_offsets[i];
        }
        let mut succ_data: Vec<NodeId> = vec![NodeId::ROOT; total_edges];
        let mut cursor: Vec<u32> = succ_offsets[..total_slots].to_vec();
        for &(parent, slot, child) in &edges {
            let d = slot_offsets[parent.index()] as usize + slot as usize;
            succ_data[cursor[d] as usize] = child;
            cursor[d] += 1;
        }
        // The decision list is three times the CSR's size; free it before
        // compaction allocates the compacted lists.
        drop(cursor);
        drop(edges);

        let root_slots = stages[StageId::ROOT.index()].children.len();
        let mut instance = TdpInstance {
            stages,
            nodes,
            slot_offsets,
            succ_offsets,
            succ_data,
            subtree_opt: Vec::new(),
            branch_opt: Vec::new(),
            serial_order,
            parent_pos,
            pending,
            retained: None,
            root_cache: RootCache::new(root_slots),
        };
        bottom_up::run(&mut instance);
        let zero = D::zero();
        let live: Vec<bool> = instance.subtree_opt.iter().map(|v| *v != zero).collect();
        let (offsets, data) = bottom_up::compact(
            &instance.slot_offsets,
            &instance.succ_offsets,
            &instance.succ_data,
            &live,
        );
        let full_offsets = std::mem::replace(&mut instance.succ_offsets, offsets);
        let full_data = std::mem::replace(&mut instance.succ_data, data);
        if retain_topology {
            // Compaction drops edges into pruned states; apply_patch needs
            // them to revive such states, so the full CSR moves here.
            instance.retained = Some(super::delta::RetainedTopology::new(
                full_offsets,
                full_data,
                num_nodes,
            ));
        }
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
