//! The anyK-part family of ranked-enumeration algorithms (Algorithm 1, §4.1).
//!
//! anyK-part follows the Lawler/Hoffman–Pavley "repeated partitioning"
//! paradigm: a candidate describes the best solution of a *subspace* —
//! solutions that share a fixed prefix of states (in serial stage order) and
//! deviate at one stage to a specific non-optimal choice, completing the rest
//! of the stages optimally. A priority queue `Cand` holds one candidate per
//! explored subspace; popping the minimum yields the next ranked solution and
//! spawns the candidates of the newly created subspaces.
//!
//! ## Candidate weights on trees without an inverse
//!
//! A candidate's priority is the weight of the best solution of its subspace:
//!
//! ```text
//!   prefixWeight(1..j−1) ⊗ w(s) ⊗ π₁(s) ⊗ (pending-branch completions at j)
//! ```
//!
//! where the deviation picks state `s` at serial position `j`. The last
//! factor covers branches that hang off the prefix but lie outside `s`'s
//! subtree (they are still completed optimally); for serial (path) problems
//! it is empty. This formulation needs no `⊗`-inverse (§6.2) and costs
//! `O(ℓ)` per candidate, which is the paper's no-inverse bound.
//!
//! ## Hot-loop layout
//!
//! The expansion loop allocates nothing but its output. At a [forced
//! position](TdpInstance::is_forced) — every parent row holds at most one
//! decision, as every tuple's link into its value node does — it reads the
//! row's one entry from the instance's CSR: no structure, no index entry,
//! no sibling scan (a one-choice set has no siblings, so nothing else
//! changes). Elsewhere a successor structure is found through a small hash
//! map from the instance's [slot id](TdpInstance::slot_id) to its position
//! in a dense pool (one multiply and about one probe; see `slot_map`),
//! choices inside a structure are addressed by dense index (see
//! `successor`), and the sibling scratch buffer is reused across
//! expansions. Prefixes are shared through an append-only arena that never
//! stores the last position (no candidate's prefix reaches it). The popped
//! candidate's heap slot goes to its first successor. The only per-result
//! allocation is the output [`Solution`]'s own state vector.
//!
//! ## What an enumerator costs
//!
//! Opening, paging and dropping an enumerator cost what the enumeration
//! *touched*, not what the instance *contains*: the pool holds only the
//! choice sets visited so far at positions that are not forced (a forced
//! position holds no structure), the MEM(k) figures are counters bumped
//! when a structure is built (so [`AnyKPart::memory_stats`] is `O(1)`), and
//! the one choice set every enumerator touches — the root's, e.g. all of
//! `R1` — is ordered once per instance and borrowed, never copied, by every
//! kind (`successor::RootCache`); `Lazy` ranks the shared heap through a
//! private frontier of `O(drained)` positions. The index holds at most about
//! two entries per structure built, so it too is `O(touched)`. On a join
//! plan the forced positions are the links from a tuple into its value
//! node: after 1 000 answers on anykbench's path-4 plan, 1 598 of the
//! 2 915 choice sets a session touched are forced, and it holds 1 317
//! structures.
//!
//! At depth the kinds differ in what the candidate queue holds. `Take2`
//! leaves every prefix's heap frontier there: a pop pushes up to two heap
//! children, so the queue grows by about one candidate per answer. `Eager`
//! and `Lazy` share one rank order per choice set across all prefixes and
//! push at most the next rank, so the queue holds about one candidate per
//! live prefix. On the worst-case 6-cycle at k = 10⁶ (anykbench's
//! `deep_cycle6`), the decomposition trees together queue 1 044 145
//! candidates under `Take2` and 34 088 under `Lazy`.

pub(crate) mod successor;

pub use successor::SuccessorKind;
use successor::{Held, SuccState};

use crate::dioid::Dioid;
use crate::slot_map::{self, SlotMap};
use crate::solution::Solution;
use crate::tdp::{NodeId, TdpInstance};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "empty prefix" in the prefix arena.
const NO_PREFIX: u32 = u32::MAX;

/// A MEM(k) snapshot of one [`AnyKPart`] enumerator — the quantities behind
/// the paper's memory study (§7): how much state the algorithm holds after
/// emitting `emitted` results. Obtain via [`AnyKPart::memory_stats`];
/// aggregate across the instances of a UT-DP union with
/// [`MemoryStats::absorb`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Results emitted when the snapshot was taken (the `k` of MEM(k)).
    pub emitted: usize,
    /// Candidates currently in the priority queue.
    pub candidates: usize,
    /// Entries in the shared-prefix arena (each is one state reference).
    /// They are the entries on the queued candidates' prefix chains, at
    /// most (ℓ − 1) × `candidates`, plus any orphaned when a choice set
    /// runs dry: a prefix whose last queued candidate had no successor to
    /// leave behind. The last serial position is never stored, so the
    /// arena follows the frontier, not the number of results emitted.
    pub prefix_arena_entries: usize,
    /// Entries the successor-structure index holds before it grows (its
    /// `capacity()`): between `structures_allocated` and about twice it, as
    /// the map doubles when full. It follows the choice sets the
    /// enumeration touched, not the instance's number of (state, branch)
    /// pairs. An entry is a `(u32, u32)` pair, twice the bytes of a slot of
    /// a dense `u32` table, and the map allocates `8/7` as many buckets as
    /// entries, with one control byte each.
    pub structure_table_slots: usize,
    /// Successor structures materialised so far: one per choice set the
    /// enumeration visited (lazy initialisation), except at a forced serial
    /// position ([`TdpInstance::is_forced`]), where the one choice is read
    /// from the instance and no structure is built.
    pub structures_allocated: usize,
    /// Total choices held across all materialised successor structures; the
    /// choice followed at a forced position is in none. A root structure
    /// borrowed from the instance's shared cache counts like one the
    /// enumerator built: MEM(k) is a logical figure, the same for the first
    /// cursor on a plan and the thousandth.
    pub structure_choices: usize,
}

impl MemoryStats {
    /// The snapshot collapsed to one scalar "resident units" figure —
    /// candidates + arena entries + allocated index entries + materialised
    /// choices, each of which is one smallish heap value. Every term follows
    /// what the enumeration touched, so a session on a large plan that
    /// pages a short prefix is charged for that prefix. This is the unit
    /// a serving layer's MEM(k)-derived memory budget accounts in: relative
    /// growth is what matters for admission, not exact bytes.
    pub fn resident_units(&self) -> u64 {
        (self.candidates
            + self.prefix_arena_entries
            + self.structure_table_slots
            + self.structure_choices) as u64
    }

    /// Accumulate another snapshot into this one (summing every field), for
    /// aggregating across the trees of a union plan.
    pub fn absorb(&mut self, other: &MemoryStats) {
        self.emitted += other.emitted;
        self.candidates += other.candidates;
        self.prefix_arena_entries += other.prefix_arena_entries;
        self.structure_table_slots += other.structure_table_slots;
        self.structures_allocated += other.structures_allocated;
        self.structure_choices += other.structure_choices;
    }
}

/// One entry of the shared-prefix arena. Prefixes are immutable linked lists
/// so that candidates reference them in `O(1)` instead of copying `O(ℓ)`
/// states (§4.3.2).
#[derive(Debug, Clone)]
struct PrefixEntry<V> {
    parent: u32,
    node: NodeId,
    /// `⊗`-aggregate of the prefix's state weights up to and including `node`.
    weight: V,
}

/// A Lawler candidate: the best solution of one subspace.
#[derive(Debug, Clone)]
struct Candidate<V> {
    /// Weight of the best solution in the subspace (the priority).
    total: V,
    /// Arena index of the prefix covering serial positions `0..r−1`
    /// (`NO_PREFIX` for the empty prefix).
    prefix: u32,
    /// Serial position of the deviation.
    r: u32,
    /// The deviated-to state at position `r`.
    last: NodeId,
    /// Index of `last` within the successor structure of its choice set
    /// (resolves `Succ` queries by array arithmetic, without a lookup).
    last_idx: u32,
}

impl<V: Ord> PartialEq for Candidate<V> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl<V: Ord> Eq for Candidate<V> {}
impl<V: Ord> PartialOrd for Candidate<V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<V: Ord> Ord for Candidate<V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.total
            .cmp(&other.total)
            .then_with(|| self.r.cmp(&other.r))
            .then_with(|| self.last.cmp(&other.last))
            .then_with(|| self.prefix.cmp(&other.prefix))
    }
}

/// Queue `c`. While `top_free` is set, the heap's top is the candidate being
/// expanded, already copied out: `c` overwrites it in place, which costs
/// one sift-down where a pop and a push cost two sifts. `Candidate`'s order
/// is total (no two queued candidates share `(r, last, prefix)`), so the pop
/// sequence does not depend on the heap's layout.
#[inline]
fn enqueue<V: Ord>(
    heap: &mut BinaryHeap<Reverse<Candidate<V>>>,
    c: Candidate<V>,
    top_free: &mut bool,
) {
    if std::mem::take(top_free) {
        *heap.peek_mut().expect("the expanded top is queued") = Reverse(c);
    } else {
        heap.push(Reverse(c));
    }
}

/// Ranked enumeration over a T-DP instance with the anyK-part strategy.
///
/// Construct with [`AnyKPart::new`] and consume as an [`Iterator`] of
/// [`Solution`]s in non-decreasing weight order. The choice of
/// [`SuccessorKind`] selects the `Eager` / `Lazy` / `All` / `Take2` variant.
#[derive(Debug)]
pub struct AnyKPart<'a, D: Dioid> {
    inst: &'a TdpInstance<D>,
    kind: SuccessorKind,
    /// Slot id → position of its structure in `pool`, for the choice sets
    /// touched so far at positions that are not forced; an absent slot id is
    /// a structure not built yet.
    /// Structures are built on first access (§7: lazy initialisation keeps
    /// TT(k) small for small k), and the map grows with them.
    slot_index: SlotMap,
    /// The structures built so far, in creation order.
    pool: Vec<Held<'a, D>>,
    /// `Σ len()` over `pool`. Every structure's `len()` is fixed at
    /// construction, so this is bumped once per structure and never revised.
    structure_choices: usize,
    cand: BinaryHeap<Reverse<Candidate<D::V>>>,
    arena: Vec<PrefixEntry<D::V>>,
    /// Reused scratch for sibling choice indices during expansion.
    succ_buf: Vec<u32>,
    started: bool,
    finished: bool,
    /// Emitted count (k so far), exposed for instrumentation.
    emitted: usize,
}

impl<'a, D: Dioid> AnyKPart<'a, D> {
    /// Create an enumerator over `inst` using the given successor structure.
    pub fn new(inst: &'a TdpInstance<D>, kind: SuccessorKind) -> Self {
        let ell = inst.solution_len();
        AnyKPart {
            inst,
            kind,
            slot_index: slot_map::new(),
            pool: Vec::new(),
            structure_choices: 0,
            // An expansion queues O(ℓ) new candidates and appends ≤ ℓ − 1
            // arena entries per result; pre-size for a handful of results so
            // short top-k runs never reallocate.
            cand: BinaryHeap::with_capacity(4 * ell + 16),
            arena: Vec::with_capacity(8 * ell + 16),
            succ_buf: Vec::new(),
            started: false,
            finished: false,
            emitted: 0,
        }
    }

    /// Number of solutions emitted so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Current size of the candidate priority queue (for the MEM(k) study).
    pub fn candidate_count(&self) -> usize {
        self.cand.len()
    }

    /// A MEM(k) snapshot of the enumerator's data-structure footprint after
    /// `emitted()` results: candidate queue, shared-prefix arena, and the
    /// successor structures (how many choice sets were materialised and how
    /// many choices they hold in total). `O(1)`: every field is a length or
    /// a counter the enumerator keeps as it goes.
    pub fn memory_stats(&self) -> MemoryStats {
        MemoryStats {
            emitted: self.emitted,
            candidates: self.cand.len(),
            prefix_arena_entries: self.arena.len(),
            structure_table_slots: self.slot_index.capacity(),
            structures_allocated: self.pool.len(),
            structure_choices: self.structure_choices,
        }
    }

    /// [`Self::memory_stats`] recomputed from the structures themselves, and
    /// a check that the index and the pool describe the same set.
    #[cfg(test)]
    fn recount(&self) -> MemoryStats {
        let mut indexed: Vec<u32> = self.slot_index.values().copied().collect();
        indexed.sort_unstable();
        let every_pool_entry_once: Vec<u32> = (0..self.pool.len() as u32).collect();
        assert_eq!(indexed, every_pool_entry_once);
        MemoryStats {
            emitted: self.emitted,
            candidates: self.cand.len(),
            prefix_arena_entries: self.arena.len(),
            structure_table_slots: self.slot_index.capacity(),
            structures_allocated: indexed.len(),
            structure_choices: self.pool.iter().map(Held::len).sum(),
        }
    }

    /// Arena entries reachable from the candidate queue: the union of the
    /// queued candidates' prefix chains. Each chain is walked up to the
    /// first entry another chain already marked, so the walk is
    /// `O(arena + candidates)`.
    #[cfg(test)]
    fn live_prefix_entries(&self) -> usize {
        let mut marked = vec![false; self.arena.len()];
        let mut live = 0;
        for Reverse(c) in self.cand.iter() {
            let mut idx = c.prefix;
            while idx != NO_PREFIX && !marked[idx as usize] {
                marked[idx as usize] = true;
                live += 1;
                idx = self.arena[idx as usize].parent;
            }
        }
        live
    }

    /// Length of the prefix chain that ends at arena entry `idx`.
    #[cfg(test)]
    fn chain_len(&self, mut idx: u32) -> usize {
        let mut len = 0;
        while idx != NO_PREFIX {
            len += 1;
            idx = self.arena[idx as usize].parent;
        }
        len
    }

    /// Pool position of the successor structure for the choice set
    /// `(state, slot)`, which is created on first access.
    #[inline]
    fn structure(&mut self, node: NodeId, slot: u32) -> usize {
        let d = self.inst.slot_id(node, slot);
        match self.slot_index.get(&d) {
            Some(&p) => p as usize,
            None => self.build_structure(node, slot, d),
        }
    }

    /// Build (or, for the root's choice sets, borrow from the instance's
    /// cache) the structure of slot id `d` and enter it in the pool.
    #[cold]
    fn build_structure(&mut self, node: NodeId, slot: u32, d: u32) -> usize {
        let (inst, kind) = (self.inst, self.kind);
        let choices = || {
            let mut set = Vec::with_capacity(inst.successors(node, slot).len());
            set.extend(inst.choices(node, slot));
            set
        };
        let held = if node == NodeId::ROOT {
            inst.root_cache.held(kind, slot, choices)
        } else {
            Held::Own(SuccState::new(kind, choices()))
        };
        self.structure_choices += held.len();
        // At most one structure per slot id, and slot ids fit `u32`.
        self.slot_index.insert(d, self.pool.len() as u32);
        self.pool.push(held);
        self.pool.len() - 1
    }

    /// The best choice of `tail`, the parent state of serial position `pos`,
    /// at that position, and its index in the choice set's structure. At a
    /// forced position the row holds one decision, which a live `tail`'s
    /// choice set must contain: it is read from the CSR, and no structure is
    /// built (a one-choice structure's top has index 0 for every kind).
    #[inline]
    fn top_choice(&mut self, pos: usize, tail: NodeId) -> (NodeId, u32) {
        let slot = self.slot_of(pos);
        if self.inst.is_forced(pos) {
            return (self.inst.successors(tail, slot)[0], 0);
        }
        let p = self.structure(tail, slot);
        let st = &self.pool[p];
        let idx = st.top();
        (st.choice(idx).0, idx)
    }

    /// Parent state of serial position `pos`, given the solution states
    /// chosen so far (`states[0..pos]` filled).
    fn parent_state(&self, states: &[NodeId], pos: usize) -> NodeId {
        match self.inst.parent_pos(pos) {
            None => NodeId::ROOT,
            Some(p) => states[p],
        }
    }

    /// Slot (within the parent stage) of the stage at serial position `pos`.
    fn slot_of(&self, pos: usize) -> u32 {
        let sid = self.inst.serial_order()[pos];
        self.inst.stage(sid).slot_in_parent
    }

    /// `⊗`-aggregate of the optimal completions of the branches that are
    /// pending at a deviation at position `pos`, given the prefix states.
    fn pending_completion(&self, states: &[NodeId], pos: usize) -> D::V {
        let mut acc = D::one();
        for &(prefix_pos, slot) in self.inst.pending_branches(pos) {
            let owner = match prefix_pos {
                None => NodeId::ROOT,
                Some(p) => states[p],
            };
            acc = D::times(&acc, self.inst.branch_opt(owner, slot));
        }
        acc
    }

    fn initialise(&mut self) {
        self.started = true;
        if self.inst.solution_len() == 0 || !self.inst.has_solution() {
            // Degenerate instances: a zero-length problem has exactly one
            // (empty) solution of weight 1̄; an unsatisfiable one has none.
            if self.inst.solution_len() == 0 && self.inst.has_solution() {
                // handled in next(): emit a single empty solution.
            } else {
                self.finished = true;
            }
            return;
        }
        let (top, top_idx) = self.top_choice(0, NodeId::ROOT);
        let total = self.inst.optimum().clone();
        self.cand.push(Reverse(Candidate {
            total,
            prefix: NO_PREFIX,
            r: 0,
            last: top,
            last_idx: top_idx,
        }));
    }

    /// Emit the solution of `cand`, the candidate at the top of the queue,
    /// and queue the candidates of the subspaces it splits off. `cand` is a
    /// copy of the top: the top stays queued until the first new candidate
    /// overwrites it, or is popped at the end if there is none.
    fn expand(&mut self, cand: Candidate<D::V>) -> Solution<D> {
        let ell = self.inst.solution_len();
        let r = cand.r as usize;

        // Reconstruct the prefix states (serial positions 0..r) directly into
        // the output vector; it is handed to the Solution at the end, so this
        // is the expansion's only allocation.
        let mut states: Vec<NodeId> = Vec::with_capacity(ell);
        let mut idx = cand.prefix;
        while idx != NO_PREFIX {
            let entry = &self.arena[idx as usize];
            states.push(entry.node);
            idx = entry.parent;
        }
        states.reverse();
        debug_assert_eq!(states.len(), r);

        let mut prefix_weight = if cand.prefix == NO_PREFIX {
            D::one()
        } else {
            self.arena[cand.prefix as usize].weight.clone()
        };
        let mut prefix_idx = cand.prefix;
        let mut current = cand.last;
        let mut current_idx = cand.last_idx;
        let mut succ_buf = std::mem::take(&mut self.succ_buf);
        // `cand` is still the heap's top; the first successor takes its slot.
        let mut top_free = true;

        for pos in r..ell {
            // 1. Generate the new candidates of the subspaces created by
            //    deviating away from `current` at this position. A forced
            //    position offers no other choice.
            if !self.inst.is_forced(pos) {
                let tail = self.parent_state(&states, pos);
                succ_buf.clear();
                let p = self.structure(tail, self.slot_of(pos));
                self.pool[p].successors(current_idx, &mut succ_buf);
                if !succ_buf.is_empty() {
                    let pending = self.pending_completion(&states, pos);
                    let st = &self.pool[p];
                    for &sibling_idx in &succ_buf {
                        let (s, value) = st.choice(sibling_idx);
                        let total = D::times(&D::times(&prefix_weight, value), &pending);
                        let sibling = Candidate {
                            total,
                            prefix: prefix_idx,
                            r: pos as u32,
                            last: *s,
                            last_idx: sibling_idx,
                        };
                        enqueue(&mut self.cand, sibling, &mut top_free);
                    }
                }
            }

            // 2. Append `current` to the prefix. The last position gets no
            //    arena entry: a candidate's prefix covers the positions
            //    before its deviation, so no candidate can name an entry of
            //    length ℓ, and storing one would cost an entry per answer
            //    that nothing reads. Leaving it out shifts later indices
            //    down but keeps the stored entries in the order they were
            //    appended, so `Candidate::cmp`'s tie-break on `prefix` ranks
            //    any two candidates as before and ties break the same way.
            states.push(current);
            if pos + 1 == ell {
                break;
            }
            prefix_weight = D::times(&prefix_weight, self.inst.weight(current));
            self.arena.push(PrefixEntry {
                parent: prefix_idx,
                node: current,
                weight: prefix_weight.clone(),
            });
            prefix_idx = (self.arena.len() - 1) as u32;

            // 3. Follow the optimal choice into the next position.
            let tail_next = self.parent_state(&states, pos + 1);
            (current, current_idx) = self.top_choice(pos + 1, tail_next);
        }

        if top_free {
            self.cand.pop();
        }
        self.succ_buf = succ_buf;
        Solution::new(cand.total, states)
    }
}

impl<D: Dioid> Iterator for AnyKPart<'_, D> {
    type Item = Solution<D>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        if !self.started {
            self.initialise();
            if self.inst.solution_len() == 0 && self.inst.has_solution() {
                self.finished = true;
                self.emitted += 1;
                return Some(Solution::new(D::one(), Vec::new()));
            }
            if self.finished {
                return None;
            }
        }
        match self.cand.peek() {
            None => {
                self.finished = true;
                None
            }
            Some(Reverse(top)) => {
                let sol = self.expand(top.clone());
                self.emitted += 1;
                Some(sol)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dioid::{OrderedF64, TropicalMin};
    use crate::tdp::{StageId, TdpBuilder};
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    const KINDS: [SuccessorKind; 4] = [
        SuccessorKind::Eager,
        SuccessorKind::Lazy,
        SuccessorKind::All,
        SuccessorKind::Take2,
    ];

    /// The stage trees the property tests run over: paths, stars, deeper
    /// trees and roots with several choice sets.
    fn shape(shape: usize) -> &'static [usize] {
        match shape {
            0 => &[0, 1, 2, 3],    // path
            1 => &[0, 1, 1, 1],    // star
            2 => &[0, 1, 1, 2, 3], // tree
            3 => &[0, 0, 1, 2],    // root with two choice sets
            _ => &[0, 0, 0],       // root with three, nothing below
        }
    }

    /// A random instance over the stage tree `parents` (`parents[i]` is the
    /// parent of stage `i + 1`; `0` is the root stage, so a `0` beyond the
    /// first entry gives the root state a second choice set), with state
    /// weights drawn from `0..weights`.
    fn random_instance(parents: &[usize], seed: u64, weights: u32) -> TdpInstance<TropicalMin> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = TdpBuilder::<TropicalMin>::new();
        let mut stages = vec![StageId::ROOT];
        for (i, &parent) in parents.iter().enumerate() {
            let stage = if parent == 0 {
                b.add_stage_under_root(&format!("s{}", i + 1), true)
            } else {
                b.add_stage(&format!("s{}", i + 1), stages[parent], true)
            };
            stages.push(stage);
        }
        let mut states: Vec<Vec<NodeId>> = vec![Vec::new()];
        for (&parent, &stage) in parents.iter().zip(&stages[1..]) {
            let ids: Vec<NodeId> = (0..rng.gen_range(1usize..6))
                .map(|_| b.add_state(stage.index(), (rng.gen_range(0..weights) as f64).into()))
                .collect();
            for &child in &ids {
                if parent == 0 {
                    b.connect_root(child);
                } else {
                    for &owner in &states[parent] {
                        if rng.gen_bool(0.7) {
                            b.connect(owner, child);
                        }
                    }
                }
            }
            states.push(ids);
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The counters behind the O(1) `memory_stats()` never drift from a
        /// recount over the structures, page after page, for every kind and
        /// every shape.
        #[test]
        fn counted_memory_stats_equal_a_recount_after_every_page(
            shape_id in 0usize..5,
            seed in any::<u64>(),
            page in 1usize..8,
        ) {
            let inst = random_instance(shape(shape_id), seed, 50);
            for kind in KINDS {
                let mut it = AnyKPart::new(&inst, kind);
                prop_assert_eq!(it.memory_stats(), it.recount(), "{:?} at open", kind);
                loop {
                    let got = it.by_ref().take(page).count();
                    prop_assert_eq!(it.memory_stats(), it.recount(), "{:?}", kind);
                    if got < page {
                        break;
                    }
                }
                prop_assert_eq!(it.emitted() as u128, inst.count_solutions());
            }
        }

        /// A prefix names the positions before a deviation, so no arena
        /// entry's chain covers all ℓ positions: the last one is never
        /// stored.
        #[test]
        fn no_prefix_chain_reaches_the_last_position(
            shape_id in 0usize..5,
            seed in any::<u64>(),
            page in 1usize..8,
        ) {
            let inst = random_instance(shape(shape_id), seed, 50);
            let ell = inst.solution_len();
            for kind in KINDS {
                let mut it = AnyKPart::new(&inst, kind);
                loop {
                    let got = it.by_ref().take(page).count();
                    for idx in 0..it.arena.len() as u32 {
                        let len = it.chain_len(idx);
                        prop_assert!(len < ell, "{:?}: a chain of {} over ℓ = {}", kind, len, ell);
                    }
                    if got < page {
                        break;
                    }
                }
            }
        }

        /// Lazy ranks every choice set, the borrowed root included, exactly
        /// as Eager sorts it, so under heavy ties the two emit the same
        /// solutions in the same order and hold the same MEM(k) after every
        /// page.
        #[test]
        fn lazy_emits_eagers_stream_under_ties(
            shape_id in 0usize..5,
            seed in any::<u64>(),
            page in 1usize..8,
        ) {
            let inst = random_instance(shape(shape_id), seed, 5);
            let mut lazy = AnyKPart::new(&inst, SuccessorKind::Lazy);
            let mut eager = AnyKPart::new(&inst, SuccessorKind::Eager);
            loop {
                let a: Vec<_> = lazy.by_ref().take(page).map(|s| (s.weight, s.states)).collect();
                let b: Vec<_> = eager.by_ref().take(page).map(|s| (s.weight, s.states)).collect();
                prop_assert_eq!(&a, &b);
                prop_assert_eq!(lazy.memory_stats(), eager.memory_stats());
                if a.len() < page {
                    break;
                }
            }
        }
    }

    #[test]
    fn every_kind_borrows_the_root_and_lazy_reads_take2s_heap() {
        let inst = cartesian_3();
        let root = |it: &AnyKPart<'_, TropicalMin>| {
            it.pool[it.slot_index[&inst.slot_id(NodeId::ROOT, 0)] as usize]
                .borrowed()
                .expect("root structures are borrowed")
        };
        for kind in KINDS {
            let mut first = AnyKPart::new(&inst, kind);
            let mut second = AnyKPart::new(&inst, kind);
            first.next();
            second.next();
            assert_eq!(root(&first), root(&second), "{kind:?}");
            assert_eq!(first.memory_stats(), second.memory_stats(), "{kind:?}");
        }
        let mut lazy = AnyKPart::new(&inst, SuccessorKind::Lazy);
        let mut take2 = AnyKPart::new(&inst, SuccessorKind::Take2);
        lazy.next();
        take2.next();
        assert_eq!(root(&lazy), root(&take2));
    }

    /// Why Take2's queue grows at depth and Lazy's does not. `p` prefixes
    /// share one last-stage choice set of `m` choices (through one value
    /// state, as the join encoding shares a key's children). Take2 keeps a
    /// heap frontier per prefix in the candidate queue — about one
    /// candidate per answer — while Lazy ranks the shared set once and
    /// keeps one candidate per prefix it touched, plus at most one per
    /// stage.
    #[test]
    fn take2_queues_a_frontier_per_prefix_and_lazy_one_candidate() {
        let (p, m, k) = (32usize, 1023usize, 2000usize);
        let mut b = TdpBuilder::<TropicalMin>::serial(3);
        // Ascending weights in id order: the heapified set is already
        // sorted, so every popped heap position has both children.
        let prefixes: Vec<_> = (0..p).map(|i| b.add_state(1, (i as f64).into())).collect();
        let shared = b.add_state(2, 0.0.into());
        let last: Vec<_> = (0..m).map(|j| b.add_state(3, (j as f64).into())).collect();
        for &s in &prefixes {
            b.connect_root(s);
            b.connect(s, shared);
        }
        for &s in &last {
            b.connect(shared, s);
        }
        let inst = b.build();
        let ell = inst.solution_len();

        let mut take2 = AnyKPart::new(&inst, SuccessorKind::Take2);
        assert_eq!(take2.by_ref().take(k).count(), k);
        let queued = take2.memory_stats().candidates;
        assert!(queued >= k / 2, "Take2 queued {queued} after {k} answers");

        let mut lazy = AnyKPart::new(&inst, SuccessorKind::Lazy);
        let touched: std::collections::HashSet<NodeId> =
            lazy.by_ref().take(k).map(|s| s.states[0]).collect();
        let queued = lazy.memory_stats().candidates;
        assert!(
            queued <= touched.len() + ell,
            "Lazy queued {queued} with {} prefixes touched",
            touched.len()
        );
    }

    /// The arena holds only what the queue reaches. Over a serial instance
    /// whose choice sets each offer at least two choices, an expansion's
    /// new entries are all named by the siblings it queues one position
    /// further on, and the popped candidate's prefix stays on the chain of
    /// the entry it starts. Only a last-position choice set running dry
    /// could orphan a prefix, and with more last-stage choices than
    /// answers pulled none does.
    #[test]
    fn the_prefix_arena_holds_only_what_queued_candidates_reach() {
        let (outer, last) = (8usize, 1024usize);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut weight = || (rng.gen_range(0..100u32) as f64).into();
        let mut b = TdpBuilder::<TropicalMin>::serial(3);
        let s1: Vec<_> = (0..outer).map(|_| b.add_state(1, weight())).collect();
        let s2: Vec<_> = (0..outer).map(|_| b.add_state(2, weight())).collect();
        let s3: Vec<_> = (0..last).map(|_| b.add_state(3, weight())).collect();
        for &a in &s1 {
            b.connect_root(a);
            for &c in &s2 {
                b.connect(a, c);
            }
        }
        for &a in &s2 {
            for &c in &s3 {
                b.connect(a, c);
            }
        }
        let inst = b.build();
        for kind in KINDS {
            let mut it = AnyKPart::new(&inst, kind);
            for k in [10, 100, 1000] {
                let pulled = k - it.emitted();
                assert_eq!(it.by_ref().take(pulled).count(), pulled);
                let stats = it.memory_stats();
                assert_eq!(
                    stats.prefix_arena_entries,
                    it.live_prefix_entries(),
                    "{kind:?} at k = {k}"
                );
                assert!(stats.prefix_arena_entries <= 2 * stats.candidates);
            }
        }
    }

    /// Example 6/8/9 of the paper: the 3-relation Cartesian product.
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

    fn run(kind: SuccessorKind, inst: &TdpInstance<TropicalMin>) -> Vec<OrderedF64> {
        AnyKPart::new(inst, kind).map(|s| s.weight).collect()
    }

    #[test]
    fn enumerates_cartesian_product_in_order_with_all_variants() {
        let inst = cartesian_3();
        // Brute-force expected weights.
        let mut expected = Vec::new();
        for a in [1.0, 2.0, 3.0] {
            for b in [10.0, 20.0, 30.0] {
                for c in [100.0, 200.0, 300.0] {
                    expected.push(OrderedF64::from(a + b + c));
                }
            }
        }
        expected.sort();
        for kind in [
            SuccessorKind::Eager,
            SuccessorKind::Lazy,
            SuccessorKind::All,
            SuccessorKind::Take2,
        ] {
            let got = run(kind, &inst);
            assert_eq!(got, expected, "variant {kind:?}");
        }
    }

    #[test]
    fn example_9_first_two_solutions() {
        let inst = cartesian_3();
        let sols: Vec<_> = AnyKPart::new(&inst, SuccessorKind::Eager).take(2).collect();
        assert_eq!(sols[0].weight, OrderedF64::from(111.0));
        assert_eq!(sols[1].weight, OrderedF64::from(112.0));
        // The second solution deviates at the first stage ("2" instead of "1").
        assert_eq!(*inst.weight(sols[1].states[0]), OrderedF64::from(2.0));
    }

    #[test]
    fn tree_instance_is_enumerated_completely() {
        // A star: center with two leaf branches; 2×2 combinations per center.
        let mut b = TdpBuilder::<TropicalMin>::new();
        let center = b.add_stage_under_root("center", true);
        let left = b.add_stage("left", center, true);
        let right = b.add_stage("right", center, true);
        let c1 = b.add_state(center.index(), 1.0.into());
        let c2 = b.add_state(center.index(), 2.0.into());
        let l1 = b.add_state(left.index(), 10.0.into());
        let l2 = b.add_state(left.index(), 20.0.into());
        let r1 = b.add_state(right.index(), 100.0.into());
        let r2 = b.add_state(right.index(), 200.0.into());
        for &c in &[c1, c2] {
            b.connect_root(c);
            for &l in &[l1, l2] {
                b.connect(c, l);
            }
            for &r in &[r1, r2] {
                b.connect(c, r);
            }
        }
        let inst = b.build();
        let mut expected = Vec::new();
        for c in [1.0, 2.0] {
            for l in [10.0, 20.0] {
                for r in [100.0, 200.0] {
                    expected.push(OrderedF64::from(c + l + r));
                }
            }
        }
        expected.sort();
        for kind in [
            SuccessorKind::Eager,
            SuccessorKind::Lazy,
            SuccessorKind::All,
            SuccessorKind::Take2,
        ] {
            assert_eq!(run(kind, &inst), expected, "variant {kind:?}");
        }
    }

    #[test]
    fn empty_instance_yields_nothing() {
        let inst = TdpBuilder::<TropicalMin>::serial(2).build();
        assert_eq!(run(SuccessorKind::Take2, &inst).len(), 0);
    }

    #[test]
    fn weights_match_recomputation_from_states() {
        let inst = cartesian_3();
        for sol in AnyKPart::new(&inst, SuccessorKind::Take2) {
            assert_eq!(sol.weight, sol.recompute_weight(&inst));
        }
    }
}
