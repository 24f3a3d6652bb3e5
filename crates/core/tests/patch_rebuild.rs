//! A patched T-DP instance must be **bit-identical** to one rebuilt from
//! scratch over the same final decisions: `apply_patch` re-evaluates its
//! dirty cone with the same per-state function the build runs for every
//! state.
//!
//! Each case builds a random instance over a stage tree (chains, multi-slot
//! stars, random brooms) with stages above 4 096 states, applies two random
//! patches in a row (kill states, remove and add edges, append states, and
//! link out of states the build pruned), and then builds the final decisions
//! from scratch with the same node order. Every state no patch killed must
//! agree on `subtree_opt` and every `branch_opt` slot at the f64 bit level,
//! and on its choice sets (live successors, in order); both instances must
//! agree on `count_solutions()`.

use anyk_core::dioid::{OrderedF64, TropicalMin};
use anyk_core::tdp::{apply_patch, NodeId, TdpBuilder, TdpInstance, TdpPatch};
use anyk_core::StageId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// States per stage of the initial instance.
const BIG_STAGE: usize = 4600;

/// The decisions of an instance, kept beside it so the final shape after any
/// number of patches can be rebuilt from scratch.
struct Model {
    /// `parents[i]` is the parent of stage `i + 1` (0 = root stage).
    parents: Vec<usize>,
    /// Stage and weight of every state in node-id order (state 0 is `s₀`).
    states: Vec<(usize, f64)>,
    /// The states of each stage, in node-id order.
    by_stage: Vec<Vec<NodeId>>,
    /// Decisions in insertion order.
    edges: Vec<(NodeId, NodeId)>,
    /// States some patch killed.
    killed: Vec<bool>,
}

impl Model {
    /// A random instance over a stage tree. The root state connects to
    /// every state of its child stages, as a compiled query's does; every
    /// other state gets random children.
    fn random(parents: Vec<usize>, rng: &mut SmallRng) -> Model {
        let mut model = Model {
            by_stage: vec![Vec::new(); parents.len() + 1],
            parents,
            states: Vec::new(),
            edges: Vec::new(),
            killed: Vec::new(),
        };
        model.push_state(0, 0.0);
        for stage in 1..model.by_stage.len() {
            for _ in 0..BIG_STAGE {
                model.push_state(stage, rng.gen_range(0.0..100.0));
            }
            if model.parents[stage - 1] == 0 {
                let roots = model.by_stage[stage].iter().map(|&c| (NodeId::ROOT, c));
                model.edges.extend(roots);
            }
        }
        for n in 1..model.states.len() {
            let edges = model.random_children(NodeId(n as u32), rng);
            model.edges.extend(edges);
        }
        model
    }

    fn push_state(&mut self, stage: usize, weight: f64) -> NodeId {
        let id = NodeId(self.states.len() as u32);
        self.states.push((stage, weight));
        self.by_stage[stage].push(id);
        self.killed.push(false);
        id
    }

    /// Edges from `parent` to between 0 and 3 random states of each child
    /// stage; 0 in one case out of ten, so the build prunes some states.
    fn random_children(&self, parent: NodeId, rng: &mut SmallRng) -> Vec<(NodeId, NodeId)> {
        let stage = self.states[parent.index()].0;
        let mut edges = Vec::new();
        for child_stage in (1..self.by_stage.len()).filter(|&s| self.parents[s - 1] == stage) {
            let children = &self.by_stage[child_stage];
            let degree = if rng.gen_bool(0.1) {
                0
            } else {
                rng.gen_range(1..=3usize)
            };
            for _ in 0..degree {
                edges.push((parent, children[rng.gen_range(0..children.len())]));
            }
        }
        edges
    }

    /// The slot of `child`'s stage among its parent stage's children.
    fn slot_of(&self, child: NodeId) -> u32 {
        let stage = self.states[child.index()].0;
        let parent_stage = self.parents[stage - 1];
        (1..stage)
            .filter(|&s| self.parents[s - 1] == parent_stage)
            .count() as u32
    }

    /// Build the model's decisions from scratch, in node-id order.
    fn build(&self, retain_topology: bool) -> TdpInstance<TropicalMin> {
        let mut b = TdpBuilder::<TropicalMin>::new();
        b.retain_topology(retain_topology);
        let mut stage_ids = vec![StageId::ROOT];
        for (i, &parent) in self.parents.iter().enumerate() {
            stage_ids.push(b.add_stage(&format!("s{}", i + 1), stage_ids[parent], true));
        }
        for &(stage, weight) in &self.states[1..] {
            b.add_state(stage_ids[stage].index(), OrderedF64::from(weight));
        }
        for &(p, c) in &self.edges {
            b.connect(p, c);
        }
        b.build()
    }

    /// Queue a random patch against `inst` and apply the same edits to the
    /// model with `apply_patch`'s semantics: a removal drops every copy of
    /// an existing edge, additions go after the survivors, and a killed
    /// state loses every incident edge for good.
    fn random_patch(
        &mut self,
        inst: &TdpInstance<TropicalMin>,
        rng: &mut SmallRng,
    ) -> TdpPatch<TropicalMin> {
        let mut patch = TdpPatch::new();
        for n in 1..self.states.len() {
            if !self.killed[n] && rng.gen_bool(0.02) {
                self.killed[n] = true;
                patch.kill_nodes.push(NodeId(n as u32));
            }
        }

        let mut removed = HashSet::new();
        for _ in 0..self.edges.len() / 50 {
            let (p, c) = self.edges[rng.gen_range(0..self.edges.len())];
            removed.insert((p, c));
            patch.remove_edges.push((p, self.slot_of(c), c));
        }

        let first_new = self.states.len();
        for stage in 1..self.by_stage.len() {
            for _ in 0..40 {
                let weight = rng.gen_range(0.0..100.0);
                let id = patch.add_node(inst, StageId(stage as u32), weight.into(), 0);
                assert_eq!(id, self.push_state(stage, weight), "ids in queue order");
            }
        }

        // Every new state gets parents and (usually) children.
        let mut added = Vec::new();
        for n in first_new..self.states.len() {
            let id = NodeId(n as u32);
            let parents = &self.by_stage[self.parents[self.states[n].0 - 1]];
            for _ in 0..rng.gen_range(1..=3usize) {
                added.push((parents[rng.gen_range(0..parents.len())], id));
            }
            added.extend(self.random_children(id, rng));
        }
        // Extra edges between old states, some of them out of states the
        // build pruned for lack of successors, some into killed states.
        for _ in 0..200 {
            let child = NodeId(rng.gen_range(1..first_new) as u32);
            let parents = &self.by_stage[self.parents[self.states[child.index()].0 - 1]];
            added.push((parents[rng.gen_range(0..parents.len())], child));
        }
        for &(p, c) in &added {
            patch.add_edges.push((p, self.slot_of(c), c));
        }

        let killed = &self.killed;
        let alive = |&(p, c): &(NodeId, NodeId)| !killed[p.index()] && !killed[c.index()];
        self.edges.retain(|e| !removed.contains(e) && alive(e));
        self.edges.extend(added.into_iter().filter(alive));
        patch
    }
}

/// Every state no patch killed agrees bit for bit; so do the solution counts.
fn assert_patched_equals_rebuilt(
    patched: &TdpInstance<TropicalMin>,
    rebuilt: &TdpInstance<TropicalMin>,
    killed: &[bool],
    label: &str,
) {
    assert_eq!(
        patched.num_nodes(),
        rebuilt.num_nodes(),
        "{label}: node count"
    );
    for n in (0..patched.num_nodes()).filter(|&n| !killed[n]) {
        let nid = NodeId(n as u32);
        assert_eq!(
            patched.subtree_opt(nid).get().to_bits(),
            rebuilt.subtree_opt(nid).get().to_bits(),
            "{label}: subtree_opt of node {n}"
        );
        let num_slots = patched.stage(patched.node(nid).stage).children.len();
        for slot in 0..num_slots as u32 {
            assert_eq!(
                patched.branch_opt(nid, slot).get().to_bits(),
                rebuilt.branch_opt(nid, slot).get().to_bits(),
                "{label}: branch_opt of node {n} slot {slot}"
            );
            let choices = |inst: &TdpInstance<TropicalMin>| -> Vec<NodeId> {
                inst.choices(nid, slot).map(|(t, _)| t).collect()
            };
            assert_eq!(
                choices(patched),
                choices(rebuilt),
                "{label}: choices of node {n} slot {slot}"
            );
        }
    }
    assert_eq!(
        patched.count_solutions(),
        rebuilt.count_solutions(),
        "{label}: solution count"
    );
}

fn check(parents: Vec<usize>, rng: &mut SmallRng, label: &str) {
    let mut model = Model::random(parents, rng);
    let mut inst = model.build(true);
    for round in 0..2 {
        let patch = model.random_patch(&inst, rng);
        apply_patch(&mut inst, &patch).expect("built with retain_topology");
        let label = format!("{label}, after patch {round}");
        assert_patched_equals_rebuilt(&inst, &model.build(false), &model.killed, &label);
    }
}

#[test]
fn patched_chains_and_stars_equal_a_rebuild() {
    let mut rng = SmallRng::seed_from_u64(0xB0770);
    check(vec![0, 1, 2], &mut rng, "3-chain");
    check(vec![0, 1, 2, 3], &mut rng, "4-chain");
    // One center stage with three leaf children: its states own three slots.
    check(vec![0, 1, 1, 1], &mut rng, "star");
}

#[test]
fn patched_random_trees_equal_a_rebuild() {
    let mut rng = SmallRng::seed_from_u64(0x7EAF);
    for round in 0..3 {
        // Each stage hangs under a uniformly chosen earlier stage (0 = root),
        // so rounds mix chains, stars and brooms.
        let parents: Vec<usize> = (0..4usize).map(|i| rng.gen_range(0..=i)).collect();
        let label = format!("round {round} {parents:?}");
        check(parents, &mut rng, &label);
    }
}
