//! The anyK-rec algorithm `Recursive` (Algorithm 2, §4.2), generalised to
//! tree-based DP (§5.1).
//!
//! anyK-rec rests on a generalised principle of optimality: if the k-th best
//! solution from a state `s` continues through child `s'` using `s'`'s
//! j-th best subtree solution, then the *next* solution from `s` through `s'`
//! uses `s'`'s (j+1)-st best subtree solution. Every state therefore
//! maintains a **ranked stream** of its subtree solutions, materialised
//! lazily and *shared* among all states that can reach it — this reuse of
//! ranked suffixes is what makes `Recursive` asymptotically faster than
//! sorting for full-result enumeration on some instances (Theorem 11).
//!
//! Following Algorithm 2, the replacement of a popped choice (`next` on the
//! child) is **deferred** until the following solution is requested ("peek
//! instead of popping; the pop happens in the following call"), so producing
//! the top-1 result does not force any deeper rank to be materialised.
//!
//! For a state with several child stages, a subtree solution combines one
//! branch solution per child stage; the combinations are ranked lazily over
//! the Cartesian product of the per-branch streams using the duplicate-free
//! "increment at or after the last non-zero coordinate" frontier scheme —
//! the paper's anyK-part-over-the-product construction specialised to the
//! case where the per-branch streams are already produced in sorted order.

use crate::dioid::Dioid;
use crate::slot_map::{self, SlotMap};
use crate::solution::Solution;
use crate::tdp::{NodeId, TdpInstance};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A ranked solution of a single branch `(state, child slot)`: continue into
/// `child` and use that child's `rank`-th subtree solution.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BranchSol<V> {
    /// `w(child) ⊗ (weight of child's rank-th subtree solution)`.
    weight: V,
    child: NodeId,
    rank: u32,
}

impl<V: Ord> PartialOrd for BranchSol<V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<V: Ord> Ord for BranchSol<V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.weight
            .cmp(&other.weight)
            .then_with(|| self.child.cmp(&other.child))
            .then_with(|| self.rank.cmp(&other.rank))
    }
}

/// The lazily ranked stream `Π_j(s, c)` of solutions of one branch.
#[derive(Debug)]
struct BranchStream<V> {
    sorted: Vec<BranchSol<V>>,
    frontier: BinaryHeap<Reverse<BranchSol<V>>>,
    /// True if the replacement ("next through the same child") of the most
    /// recently committed element has not been generated yet.
    pending: bool,
}

/// A ranked combination of branch solutions at a multi-child state: one rank
/// per child slot.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MultiSol<V> {
    weight: V,
    ranks: Vec<u32>,
}

impl<V: Ord> PartialOrd for MultiSol<V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<V: Ord> Ord for MultiSol<V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.weight
            .cmp(&other.weight)
            .then_with(|| self.ranks.cmp(&other.ranks))
    }
}

/// The lazily ranked stream of *subtree* solutions of a multi-child state.
#[derive(Debug)]
struct MultiStream<V> {
    sorted: Vec<MultiSol<V>>,
    frontier: BinaryHeap<Reverse<MultiSol<V>>>,
    pending: bool,
}

/// Ranked enumeration with the `Recursive` (REA) strategy.
///
/// Construct with [`Recursive::new`] and consume as an [`Iterator`] of
/// [`Solution`]s in non-decreasing weight order.
///
/// Streams live in dense pools in creation order and are found through
/// small hash maps from a slot id or node index to a pool
/// position, which grow with the pools. So an enumerator's memory and drop
/// cost follow the streams it touched, not the size of the instance.
#[derive(Debug)]
pub struct Recursive<'a, D: Dioid> {
    inst: &'a TdpInstance<D>,
    /// Slot id → where the branch stream sits in `branch`.
    branch_index: SlotMap,
    branch: Vec<BranchStream<D::V>>,
    /// Node index → where the subtree stream of a state with two or more
    /// child slots sits in `multi`. States with no child slot have exactly
    /// one (empty) subtree solution of weight `1̄`, and the subtree stream of
    /// a state with one child slot *is* its branch stream; neither needs an
    /// entry.
    multi_index: SlotMap,
    multi: Vec<MultiStream<D::V>>,
    next_rank: usize,
    finished: bool,
}

impl<'a, D: Dioid> Recursive<'a, D> {
    /// Create an enumerator over `inst`.
    pub fn new(inst: &'a TdpInstance<D>) -> Self {
        Recursive {
            inst,
            branch_index: slot_map::new(),
            branch: Vec::new(),
            multi_index: slot_map::new(),
            multi: Vec::new(),
            next_rank: 0,
            finished: false,
        }
    }

    /// Total number of suffix (branch-stream) elements materialised so far —
    /// the quantity whose sum drives Recursive's amortised TTL (Theorem 11).
    pub fn materialised_suffixes(&self) -> usize {
        self.branch.iter().map(|b| b.sorted.len()).sum()
    }

    /// Number of child slots of `node`'s stage.
    fn child_slots(&self, node: NodeId) -> usize {
        self.inst.stage(self.inst.node(node).stage).children.len()
    }

    // -- branch streams ----------------------------------------------------

    /// Pool position of the stream of branch `(node, slot)`, created on first
    /// access.
    fn branch_stream(&mut self, node: NodeId, slot: u32) -> usize {
        let d = self.inst.slot_id(node, slot);
        if let Some(&b) = self.branch_index.get(&d) {
            return b as usize;
        }
        // Choices₁(s): one entry per unpruned successor, at rank 0; the value
        // w(t) ⊗ π₁(t) was already computed by the bottom-up phase.
        let mut entries = Vec::with_capacity(self.inst.successors(node, slot).len());
        entries.extend(self.inst.choices(node, slot).map(|(child, value)| {
            Reverse(BranchSol {
                weight: value,
                child,
                rank: 0,
            })
        }));
        let frontier = BinaryHeap::from(entries);
        self.branch_index.insert(d, self.branch.len() as u32);
        self.branch.push(BranchStream {
            sorted: Vec::new(),
            frontier,
            pending: false,
        });
        self.branch.len() - 1
    }

    /// Weight of the `rank`-th solution of branch `(node, slot)`, or `None`
    /// if the branch has fewer solutions. Materialises lazily.
    fn branch_weight(&mut self, node: NodeId, slot: u32, rank: usize) -> Option<D::V> {
        let b = self.branch_stream(node, slot);
        loop {
            // Fast path: already materialised.
            if let Some(sol) = self.branch[b].sorted.get(rank) {
                return Some(sol.weight.clone());
            }
            // Deferred replacement of the last committed element (Algorithm 2
            // line 26–31): generate "next through the same child" before the
            // next pop.
            let stream = &mut self.branch[b];
            let pending_sol = if stream.pending {
                stream.pending = false;
                stream.sorted.last().cloned()
            } else {
                None
            };
            if let Some(last) = pending_sol {
                let next_rank = last.rank + 1;
                if let Some(w) = self.subtree_weight(last.child, next_rank as usize) {
                    let weight = D::times(self.inst.weight(last.child), &w);
                    self.branch[b].frontier.push(Reverse(BranchSol {
                        weight,
                        child: last.child,
                        rank: next_rank,
                    }));
                }
            }
            // Commit the next-lightest frontier entry.
            let stream = &mut self.branch[b];
            match stream.frontier.pop() {
                None => return None,
                Some(Reverse(best)) => {
                    stream.sorted.push(best);
                    stream.pending = true;
                }
            }
        }
    }

    fn branch_sol(&self, node: NodeId, slot: u32, rank: usize) -> &BranchSol<D::V> {
        let b = self.branch_index[&self.inst.slot_id(node, slot)];
        self.branch[b as usize]
            .sorted
            .get(rank)
            .expect("branch solution materialised")
    }

    // -- subtree streams ---------------------------------------------------

    /// Pool position of the subtree stream of `node`, a state with
    /// `slots ≥ 2` child slots; created on first access.
    fn multi_stream(&mut self, node: NodeId, slots: usize) -> usize {
        let key = node.0;
        if let Some(&m) = self.multi_index.get(&key) {
            return m as usize;
        }
        // Seed the product frontier with the all-zeros rank vector.
        let mut weight = D::one();
        let mut ok = true;
        for slot in 0..slots {
            match self.branch_weight(node, slot as u32, 0) {
                Some(w) => weight = D::times(&weight, &w),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        let mut frontier = BinaryHeap::new();
        if ok {
            frontier.push(Reverse(MultiSol {
                weight,
                ranks: vec![0; slots],
            }));
        }
        self.multi_index.insert(key, self.multi.len() as u32);
        self.multi.push(MultiStream {
            sorted: Vec::new(),
            frontier,
            pending: false,
        });
        self.multi.len() - 1
    }

    /// Weight of the `rank`-th subtree solution of `node`, or `None`.
    fn subtree_weight(&mut self, node: NodeId, rank: usize) -> Option<D::V> {
        let slots = self.child_slots(node);
        match slots {
            0 => return if rank == 0 { Some(D::one()) } else { None },
            1 => return self.branch_weight(node, 0, rank),
            _ => {}
        }
        let m = self.multi_stream(node, slots);
        loop {
            if let Some(sol) = self.multi[m].sorted.get(rank) {
                return Some(sol.weight.clone());
            }
            // Deferred successor generation for the last committed element.
            let stream = &mut self.multi[m];
            let pending_sol = if stream.pending {
                stream.pending = false;
                stream.sorted.last().cloned()
            } else {
                None
            };
            if let Some(last) = pending_sol {
                for s in self.multi_successors(node, &last) {
                    self.multi[m].frontier.push(Reverse(s));
                }
            }
            // Commit the next-lightest combination.
            let stream = &mut self.multi[m];
            match stream.frontier.pop() {
                None => return None,
                Some(Reverse(best)) => {
                    stream.sorted.push(best);
                    stream.pending = true;
                }
            }
        }
    }

    /// Duplicate-free successors of a combination in the ranked Cartesian
    /// product: increment coordinate `i` only for `i ≥` the last non-zero
    /// coordinate, so every combination has a unique, lighter predecessor.
    fn multi_successors(&mut self, node: NodeId, last: &MultiSol<D::V>) -> Vec<MultiSol<D::V>> {
        let slots = last.ranks.len();
        let last_nonzero = last.ranks.iter().rposition(|&r| r > 0).unwrap_or(0);
        let mut successors = Vec::new();
        for slot in last_nonzero..slots {
            let mut ranks = last.ranks.clone();
            ranks[slot] += 1;
            // Recompute the combination weight from scratch — no ⊗-inverse
            // required (§6.2), O(number of branches) per successor.
            let mut weight = D::one();
            let mut ok = true;
            for (s, &r) in ranks.iter().enumerate() {
                match self.branch_weight(node, s as u32, r as usize) {
                    Some(w) => weight = D::times(&weight, &w),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                successors.push(MultiSol { weight, ranks });
            }
        }
        successors
    }

    // -- assembly ----------------------------------------------------------

    /// Collect the states of `node`'s `rank`-th subtree solution in serial
    /// (DFS, slot-ordered) stage order, materialising referenced descendant
    /// solutions on demand.
    fn collect_states(&mut self, node: NodeId, rank: usize, out: &mut Vec<NodeId>) {
        // Ensure the solution (and hence its per-branch references) exists.
        let ensured = self.subtree_weight(node, rank);
        debug_assert!(ensured.is_some(), "assembling a non-existent solution");
        let slots = self.child_slots(node);
        if slots == 0 {
            return;
        }
        let ranks: Vec<u32> = if slots == 1 {
            vec![rank as u32]
        } else {
            let m = self.multi_index.get(&node.0);
            self.multi[*m.expect("subtree stream initialised") as usize].sorted[rank]
                .ranks
                .clone()
        };
        for (slot, &r) in ranks.iter().enumerate() {
            // The branch solution is materialised (subtree_weight above
            // guarantees it), so this lookup cannot fail.
            let (child, child_rank) = {
                let sol = self.branch_sol(node, slot as u32, r as usize);
                (sol.child, sol.rank as usize)
            };
            out.push(child);
            self.collect_states(child, child_rank, out);
        }
    }
}

impl<D: Dioid> Iterator for Recursive<'_, D> {
    type Item = Solution<D>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        if !self.inst.has_solution() {
            self.finished = true;
            return None;
        }
        let rank = self.next_rank;
        match self.subtree_weight(NodeId::ROOT, rank) {
            None => {
                self.finished = true;
                None
            }
            Some(weight) => {
                self.next_rank += 1;
                let mut states = Vec::with_capacity(self.inst.solution_len());
                self.collect_states(NodeId::ROOT, rank, &mut states);
                debug_assert_eq!(states.len(), self.inst.solution_len());
                Some(Solution::new(weight, states))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dioid::{OrderedF64, TropicalMin};
    use crate::tdp::{StageId, TdpBuilder};

    fn cartesian(per_stage: &[&[f64]]) -> TdpInstance<TropicalMin> {
        let mut b = TdpBuilder::<TropicalMin>::serial(per_stage.len());
        let mut ids: Vec<Vec<NodeId>> = Vec::new();
        for (i, ws) in per_stage.iter().enumerate() {
            ids.push(ws.iter().map(|&w| b.add_state(i + 1, w.into())).collect());
        }
        for &a in &ids[0] {
            b.connect_root(a);
        }
        for i in 0..per_stage.len() - 1 {
            for &a in &ids[i] {
                for &c in &ids[i + 1] {
                    b.connect(a, c);
                }
            }
        }
        b.build()
    }

    #[test]
    fn matches_brute_force_on_cartesian_product() {
        let inst = cartesian(&[
            &[1.0, 2.0, 3.0],
            &[10.0, 20.0, 30.0],
            &[100.0, 200.0, 300.0],
        ]);
        let got: Vec<OrderedF64> = Recursive::new(&inst).map(|s| s.weight).collect();
        let mut expected = Vec::new();
        for a in [1.0, 2.0, 3.0] {
            for b in [10.0, 20.0, 30.0] {
                for c in [100.0, 200.0, 300.0] {
                    expected.push(OrderedF64::from(a + b + c));
                }
            }
        }
        expected.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn example_10_first_solutions() {
        // Figure 4 of the paper: the first few solutions of Example 6.
        let inst = cartesian(&[
            &[1.0, 2.0, 3.0],
            &[10.0, 20.0, 30.0],
            &[100.0, 200.0, 300.0],
        ]);
        let first: Vec<OrderedF64> = Recursive::new(&inst).take(4).map(|s| s.weight).collect();
        assert_eq!(
            first,
            vec![
                OrderedF64::from(111.0),
                OrderedF64::from(112.0),
                OrderedF64::from(113.0),
                OrderedF64::from(121.0)
            ]
        );
    }

    #[test]
    fn top1_does_not_materialise_deep_suffixes() {
        // Producing only the first result must touch one suffix per stage
        // (plus none deeper), not force rank-1/2 solutions anywhere.
        let inst = cartesian(&[&[1.0, 2.0], &[1.0, 2.0], &[1.0, 2.0], &[1.0, 2.0]]);
        let mut rec = Recursive::new(&inst);
        let _ = rec.next().unwrap();
        assert!(
            rec.materialised_suffixes() <= inst.solution_len() + 1,
            "top-1 materialised {} suffixes",
            rec.materialised_suffixes()
        );
    }

    #[test]
    fn star_tree_products_are_ranked_without_duplicates() {
        let mut b = TdpBuilder::<TropicalMin>::new();
        let center = b.add_stage_under_root("center", true);
        let left = b.add_stage("left", center, true);
        let right = b.add_stage("right", center, true);
        let c1 = b.add_state(center.index(), 1.0.into());
        let c2 = b.add_state(center.index(), 5.0.into());
        let ls: Vec<_> = [10.0, 20.0, 30.0]
            .iter()
            .map(|&w| b.add_state(left.index(), w.into()))
            .collect();
        let rs: Vec<_> = [100.0, 200.0]
            .iter()
            .map(|&w| b.add_state(right.index(), w.into()))
            .collect();
        for &c in &[c1, c2] {
            b.connect_root(c);
            for &l in &ls {
                b.connect(c, l);
            }
            for &r in &rs {
                b.connect(c, r);
            }
        }
        let inst = b.build();
        let sols: Vec<_> = Recursive::new(&inst).collect();
        assert_eq!(sols.len(), 12);
        for w in sols.windows(2) {
            assert!(w[0].weight <= w[1].weight);
        }
        let mut witnesses: Vec<Vec<NodeId>> = sols.iter().map(|s| s.states.clone()).collect();
        witnesses.sort();
        witnesses.dedup();
        assert_eq!(witnesses.len(), 12);
    }

    #[test]
    fn weights_match_recomputation() {
        let inst = cartesian(&[&[3.0, 1.0], &[4.0, 2.0], &[9.0, 5.0], &[7.0, 6.0]]);
        for sol in Recursive::new(&inst) {
            assert_eq!(sol.weight, sol.recompute_weight(&inst));
        }
    }

    #[test]
    fn empty_instance_yields_nothing() {
        let inst = TdpBuilder::<TropicalMin>::serial(3).build();
        assert_eq!(Recursive::new(&inst).count(), 0);
    }

    /// The two maps index exactly the streams built: every pool position
    /// once, under a key whose choice set the stream ranks, and in a map no
    /// larger than a ¾ load of its entries needs (16 at least).
    fn assert_maps_index_the_streams(rec: &Recursive<'_, TropicalMin>) {
        let inst = rec.inst;
        let fits = |map: &SlotMap| {
            let needed = (4 * map.len()).div_ceil(3).next_power_of_two().max(16);
            assert!(map.len() <= map.capacity() && map.capacity() <= needed);
        };
        let mut slot_of = std::collections::HashMap::new();
        for n in 0..inst.num_nodes() as u32 {
            for slot in 0..rec.child_slots(NodeId(n)) as u32 {
                slot_of.insert(inst.slot_id(NodeId(n), slot), (NodeId(n), slot));
            }
        }
        let mut positions: Vec<u32> = Vec::new();
        for (&d, &b) in &rec.branch_index {
            let (node, slot) = slot_of[&d];
            let choices: Vec<NodeId> = inst.choices(node, slot).map(|(c, _)| c).collect();
            let stream = &rec.branch[b as usize];
            let ranked = stream
                .sorted
                .iter()
                .chain(stream.frontier.iter().map(|r| &r.0));
            for sol in ranked {
                assert!(choices.contains(&sol.child), "stream {b} under slot {d}");
            }
            positions.push(b);
        }
        positions.sort_unstable();
        assert_eq!(positions, (0..rec.branch.len() as u32).collect::<Vec<_>>());
        fits(&rec.branch_index);

        let mut positions: Vec<u32> = Vec::new();
        for (&n, &m) in &rec.multi_index {
            let slots = rec.child_slots(NodeId(n));
            assert!(slots >= 2, "node {n} has {slots} child slots");
            for sol in &rec.multi[m as usize].sorted {
                assert_eq!(sol.ranks.len(), slots);
            }
            positions.push(m);
        }
        positions.sort_unstable();
        assert_eq!(positions, (0..rec.multi.len() as u32).collect::<Vec<_>>());
        fits(&rec.multi_index);
    }

    #[test]
    fn the_maps_index_exactly_the_streams_built() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        // A centre with two leaf branches and a two-stage branch: multi
        // streams at the centre, branch streams at every level.
        for seed in 0..16u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut b = TdpBuilder::<TropicalMin>::new();
            let center = b.add_stage_under_root("center", true);
            let left = b.add_stage("left", center, true);
            let right = b.add_stage("right", center, true);
            let deep = b.add_stage("deep", right, true);
            let mut layer = |b: &mut TdpBuilder<TropicalMin>, stage: StageId, n: usize| {
                (0..n)
                    .map(|_| b.add_state(stage.index(), (rng.gen_range(0..20) as f64).into()))
                    .collect::<Vec<_>>()
            };
            let cs = layer(&mut b, center, 6);
            let ls = layer(&mut b, left, 5);
            let rs = layer(&mut b, right, 5);
            let ds = layer(&mut b, deep, 4);
            for (i, &c) in cs.iter().enumerate() {
                b.connect_root(c);
                for (j, &l) in ls.iter().enumerate() {
                    if (i + j) % 3 != 0 {
                        b.connect(c, l);
                    }
                }
                for (j, &r) in rs.iter().enumerate() {
                    if (i * j) % 4 != 1 {
                        b.connect(c, r);
                    }
                }
            }
            for (i, &r) in rs.iter().enumerate() {
                for &d in &ds[i % 2..] {
                    b.connect(r, d);
                }
            }
            let inst = b.build();
            let mut rec = Recursive::new(&inst);
            assert_maps_index_the_streams(&rec);
            while rec.by_ref().take(7).count() == 7 {
                assert_maps_index_the_streams(&rec);
            }
            assert_maps_index_the_streams(&rec);
            assert_eq!(rec.next_rank as u128, inst.count_solutions());
        }
    }

    #[test]
    fn suffix_sharing_across_parents() {
        // Two stage-1 states lead to the same stage-2 state: after full
        // enumeration the shared suffix stream must have been materialised
        // only once (2 sorted entries at the shared node's branch, not 4).
        let mut b = TdpBuilder::<TropicalMin>::serial(3);
        let a1 = b.add_state(1, 1.0.into());
        let a2 = b.add_state(1, 2.0.into());
        let shared = b.add_state(2, 5.0.into());
        let c1 = b.add_state(3, 7.0.into());
        let c2 = b.add_state(3, 9.0.into());
        b.connect_root(a1);
        b.connect_root(a2);
        b.connect(a1, shared);
        b.connect(a2, shared);
        b.connect(shared, c1);
        b.connect(shared, c2);
        let inst = b.build();
        let mut rec = Recursive::new(&inst);
        let all: Vec<_> = rec.by_ref().collect();
        assert_eq!(all.len(), 4);
        // Branch stream of `shared` holds its two suffixes exactly once.
        let b = rec.branch_index[&inst.slot_id(shared, 0)];
        assert_eq!(rec.branch[b as usize].sorted.len(), 2);
    }
}
