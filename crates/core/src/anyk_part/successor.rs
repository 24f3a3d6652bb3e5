//! Successor structures for the anyK-part family (§4.1.3).
//!
//! Algorithm 1 is parameterised by how the choice set `Choices₁(s)` of a
//! state is organised and how `Succ(s, y)` — "which choices may follow `y`" —
//! is answered. The four instantiations studied in the paper are implemented
//! here:
//!
//! * [`SuccessorKind::Eager`]: choice sets are fully sorted (lazily, on first
//!   access); the successor of a choice is the next one in sort order.
//! * [`SuccessorKind::Lazy`]: choice sets are heapified once and drained into
//!   rank order one pop at a time, as far as the enumeration asks (Chang et
//!   al.); asymptotically cheaper pre-processing than `Eager`.
//! * [`SuccessorKind::All`]: no pre-processing at all; when the best choice
//!   is expanded, *all* other choices become candidates at once (Yang et al.).
//! * [`SuccessorKind::Take2`]: the paper's new structure — the choice set is
//!   heapified once (linear time) and the "successors" of a choice are its
//!   two children in the heap's tree order. The heap is never popped; it only
//!   serves as a partial order that is compatible with the weight order.
//!
//! ## Index-based addressing
//!
//! Choices are addressed by their **dense index** within the structure
//! (rank for `Eager`/`Lazy`, position in the original choice array for
//! `All`, position in the array-embedded heap for `Take2`). The enumerator
//! carries the index of the choice it followed alongside the chosen state,
//! so `Succ` resolves successors by pure array arithmetic — no
//! `NodeId → position` hash lookup anywhere in the expansion hot loop.
//!
//! ## Nothing shared is copied
//!
//! The root's choice sets are ordered once per instance ([`RootCache`]) and
//! every enumerator borrows them. `Lazy` reads the same heapified array as
//! `Take2` and drains it through a private frontier ([`RootDrain`]), so a
//! cursor holds `O(drained)` state of its own. A private `Lazy` set drains
//! in place: an incremental heapsort over the choices the enumerator
//! collected, with no second allocation.

use crate::dioid::Dioid;
use crate::tdp::NodeId;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::OnceLock;

/// Which successor structure an [`crate::AnyKPart`] enumerator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuccessorKind {
    /// Fully sort every choice set on first access.
    Eager,
    /// Heapify every choice set and drain it into rank order on demand.
    Lazy,
    /// Return every non-optimal choice as a successor of the optimal one.
    All,
    /// Heapify once; successors of a choice are its two heap children.
    Take2,
}

/// A single choice: a successor state together with the value
/// `w(s') ⊗ π₁(s')` of the best solution using it.
pub(crate) type Choice<V> = (NodeId, V);

/// The per-(state, slot) successor structure. Created lazily by the
/// enumerator the first time a choice set is touched, and stored in the
/// enumerator's pool (see [`Held`]). [`SuccState::len`] is fixed at
/// construction: `Lazy` only reorders its choices as it drains them.
#[derive(Debug)]
pub(crate) enum SuccState<D: Dioid> {
    Eager(EagerChoices<D::V>),
    Lazy(LazyChoices<D::V>),
    All(AllChoices<D::V>),
    Take2(Take2Choices<D::V>),
}

impl<D: Dioid> SuccState<D> {
    /// Build the structure for a choice set. `choices` must be non-empty and
    /// contain only unpruned successors.
    pub(crate) fn new(kind: SuccessorKind, choices: Vec<Choice<D::V>>) -> Self {
        debug_assert!(!choices.is_empty());
        match kind {
            SuccessorKind::Eager => SuccState::Eager(EagerChoices::new(choices)),
            SuccessorKind::Lazy => SuccState::Lazy(LazyChoices::new(choices)),
            SuccessorKind::All => SuccState::All(AllChoices::new(choices)),
            SuccessorKind::Take2 => SuccState::Take2(Take2Choices::new(choices)),
        }
    }

    /// The index of the best choice (the one followed by optimal expansion).
    fn top(&self) -> u32 {
        match self {
            SuccState::Eager(_) | SuccState::Lazy(_) | SuccState::Take2(_) => 0,
            SuccState::All(s) => s.top_idx as u32,
        }
    }

    /// The `(state, value)` of the choice at `idx`. Only indices previously
    /// handed out by [`Self::top`] or [`Self::successors`] are valid.
    #[inline]
    pub(crate) fn choice(&self, idx: u32) -> &Choice<D::V> {
        match self {
            SuccState::Eager(s) => &s.sorted[idx as usize],
            SuccState::Lazy(s) => s.choice(idx),
            SuccState::All(s) => &s.choices[idx as usize],
            SuccState::Take2(s) => &s.heap[idx as usize],
        }
    }

    /// Number of choices in the set — the per-structure term of the MEM(k)
    /// accounting.
    fn len(&self) -> usize {
        match self {
            SuccState::Eager(s) => s.sorted.len(),
            SuccState::Lazy(s) => s.choices.len(),
            SuccState::All(s) => s.choices.len(),
            SuccState::Take2(s) => s.heap.len(),
        }
    }

    /// Append to `out` the indices of the successors of the choice at `idx`.
    ///
    /// The contract (sufficient for the correctness of Algorithm 1) is that
    /// the true next-best choice after `idx` is either appended here or was
    /// already produced as a successor of an earlier choice of this set under
    /// the same prefix.
    pub(crate) fn successors(&mut self, idx: u32, out: &mut Vec<u32>) {
        match self {
            SuccState::Lazy(s) => s.successors(idx, out),
            _ => self.successors_shared(idx, out),
        }
    }

    /// [`Self::successors`] through a shared reference, for the kinds that
    /// never mutate. A private `Lazy` set is the only one that drains.
    fn successors_shared(&self, idx: u32, out: &mut Vec<u32>) {
        match self {
            SuccState::Eager(s) => s.successors(idx, out),
            SuccState::All(s) => s.successors(idx, out),
            SuccState::Take2(s) => s.successors(idx, out),
            SuccState::Lazy(_) => unreachable!("Lazy drains in place and is never shared"),
        }
    }
}

/// A successor structure as one enumerator holds it: built by and private to
/// that enumerator, borrowed from the instance's [`RootCache`], or — for
/// `Lazy` over a root set — the cached heap read through a private drain.
#[derive(Debug)]
pub(crate) enum Held<'a, D: Dioid> {
    Own(SuccState<D>),
    Shared(&'a SuccState<D>),
    Drained(RootDrain<'a, D::V>),
}

impl<D: Dioid> Held<'_, D> {
    /// See [`SuccState::top`].
    #[inline]
    pub(crate) fn top(&self) -> u32 {
        match self {
            Held::Own(s) => s.top(),
            Held::Shared(s) => s.top(),
            Held::Drained(_) => 0,
        }
    }

    /// See [`SuccState::choice`].
    #[inline]
    pub(crate) fn choice(&self, idx: u32) -> &Choice<D::V> {
        match self {
            Held::Own(s) => s.choice(idx),
            Held::Shared(s) => s.choice(idx),
            Held::Drained(d) => d.choice(idx),
        }
    }

    /// See [`SuccState::len`]. A drained root counts its whole set, like a
    /// structure the enumerator built: MEM(k) is a logical figure.
    pub(crate) fn len(&self) -> usize {
        match self {
            Held::Own(s) => s.len(),
            Held::Shared(s) => s.len(),
            Held::Drained(d) => d.heap.len(),
        }
    }

    /// See [`SuccState::successors`].
    #[inline]
    pub(crate) fn successors(&mut self, idx: u32, out: &mut Vec<u32>) {
        match self {
            Held::Own(s) => s.successors(idx, out),
            Held::Shared(s) => s.successors_shared(idx, out),
            Held::Drained(d) => d.successors(idx, out),
        }
    }

    /// The shared array this structure reads, if it borrows one.
    #[cfg(test)]
    pub(crate) fn borrowed(&self) -> Option<*const Choice<D::V>> {
        match self {
            Held::Own(_) => None,
            Held::Shared(SuccState::Eager(s)) => Some(s.sorted.as_ptr()),
            Held::Shared(SuccState::All(s)) => Some(s.choices.as_ptr()),
            Held::Shared(SuccState::Take2(s)) => Some(s.heap.as_ptr()),
            Held::Shared(SuccState::Lazy(_)) => unreachable!("Lazy is never shared"),
            Held::Drained(d) => Some(d.heap.as_ptr()),
        }
    }
}

/// The successor structures of the root state's choice sets, built once per
/// instance instead of once per enumerator.
///
/// The choice set of `(NodeId::ROOT, slot)` is every state of a top-level
/// stage — all of `R1` on a path query — and its structure is a pure function
/// of (instance, [`SuccessorKind`]); ordering it is the one-time linear work
/// the paper charges to preprocessing (§4.1.3), not to each enumeration. The
/// first enumerator that needs a cell fills it; kinds nobody uses cost
/// nothing. Every enumerator borrows its cell, none copies it: `Eager`,
/// `All` and `Take2` read theirs as is, and `Lazy` drains `Take2`'s heap
/// through a [`RootDrain`] of its own.
///
/// A cache describes one generation of the instance: `Clone` yields an
/// *empty* cache and [`apply_patch`](crate::tdp::apply_patch) empties it, so
/// an edited copy never inherits the original's root order.
#[derive(Debug)]
pub(crate) struct RootCache<D: Dioid> {
    /// Indexed by root slot, then by [`RootCache::cell`].
    cells: Vec<[OnceLock<SuccState<D>>; 3]>,
}

impl<D: Dioid> RootCache<D> {
    /// An empty cache for a root state with `root_slots` child stages.
    pub(crate) fn new(root_slots: usize) -> Self {
        RootCache {
            cells: (0..root_slots).map(|_| Default::default()).collect(),
        }
    }

    /// Drop every cached structure.
    pub(crate) fn clear(&mut self) {
        *self = Self::new(self.cells.len());
    }

    /// The cell `kind` reads, and the structure that fills it: `Lazy` and
    /// `Take2` share one heap.
    fn cell(kind: SuccessorKind) -> (usize, SuccessorKind) {
        match kind {
            SuccessorKind::Eager => (0, SuccessorKind::Eager),
            SuccessorKind::All => (1, SuccessorKind::All),
            SuccessorKind::Take2 | SuccessorKind::Lazy => (2, SuccessorKind::Take2),
        }
    }

    /// Root slot `slot` as an enumerator of `kind` holds it. The cell is
    /// built from `choices` by whichever caller gets there first (racing
    /// callers wait for it).
    pub(crate) fn held(
        &self,
        kind: SuccessorKind,
        slot: u32,
        choices: impl FnOnce() -> Vec<Choice<D::V>>,
    ) -> Held<'_, D> {
        let (cell, built) = Self::cell(kind);
        let shared =
            self.cells[slot as usize][cell].get_or_init(|| SuccState::new(built, choices()));
        match shared {
            SuccState::Take2(t) if kind == SuccessorKind::Lazy => {
                Held::Drained(RootDrain::new(&t.heap))
            }
            _ => Held::Shared(shared),
        }
    }
}

impl<D: Dioid> Clone for RootCache<D> {
    fn clone(&self) -> Self {
        Self::new(self.cells.len())
    }
}

/// The order of choices within a choice set: by value, ties by node id.
/// Compares in place — a choice set is ordered once per structure, and on a
/// root choice set that is every tuple of a relation.
#[inline]
fn by_rank<V: Ord>(a: &Choice<V>, b: &Choice<V>) -> Ordering {
    a.1.cmp(&b.1).then(a.0.cmp(&b.0))
}

// ---------------------------------------------------------------------------
// Eager
// ---------------------------------------------------------------------------

/// Fully sorted choice list; a choice's index is its rank, so its successor
/// is simply the next index.
#[derive(Debug)]
pub(crate) struct EagerChoices<V> {
    sorted: Vec<Choice<V>>,
}

impl<V: Ord + Clone> EagerChoices<V> {
    fn new(mut choices: Vec<Choice<V>>) -> Self {
        choices.sort_by(by_rank);
        EagerChoices { sorted: choices }
    }

    fn successors(&self, idx: u32, out: &mut Vec<u32>) {
        if (idx as usize + 1) < self.sorted.len() {
            out.push(idx + 1);
        }
    }
}

// ---------------------------------------------------------------------------
// Lazy
// ---------------------------------------------------------------------------

/// A private choice set drained in place by incremental heapsort:
/// `choices[..heap_len]` is a min-heap of the choices not yet ranked, and
/// each pop swaps the minimum to the end of the heap, so rank `r` sits at
/// `len − 1 − r` and stays there. Indices are ranks. Following §4.1.3, the
/// top two choices are ranked eagerly because almost every successor request
/// asks for the second-best choice.
#[derive(Debug)]
pub(crate) struct LazyChoices<V> {
    choices: Vec<Choice<V>>,
    heap_len: usize,
}

impl<V: Ord + Clone> LazyChoices<V> {
    fn new(mut choices: Vec<Choice<V>>) -> Self {
        heapify_min(&mut choices);
        let heap_len = choices.len();
        let mut lazy = LazyChoices { choices, heap_len };
        lazy.pop();
        lazy.pop();
        lazy
    }

    #[inline]
    fn choice(&self, rank: u32) -> &Choice<V> {
        &self.choices[self.choices.len() - 1 - rank as usize]
    }

    /// Rank the minimum of the heap.
    fn pop(&mut self) {
        if self.heap_len == 0 {
            return;
        }
        self.heap_len -= 1;
        self.choices.swap(0, self.heap_len);
        sift_down(&mut self.choices[..self.heap_len], 0);
    }

    fn successors(&mut self, idx: u32, out: &mut Vec<u32>) {
        // Indices are only handed out for ranked choices, so at most one pop
        // is needed to expose the next rank.
        let next = idx as usize + 1;
        while self.choices.len() - self.heap_len <= next && self.heap_len > 0 {
            self.pop();
        }
        if next < self.choices.len() {
            out.push(next as u32);
        }
    }
}

/// `Lazy` over a root choice set: the instance's shared `Take2` heap, ranked
/// by a private frontier. The frontier holds the heap positions whose parent
/// is ranked and which are not ranked themselves, keyed by `(value, node id)`;
/// its minimum is the next rank, since every unranked choice lies below one
/// of them. The cursor owns only the frontier and the ranked positions —
/// `O(drained)` — and produces the same rank order as draining a private copy
/// would.
#[derive(Debug)]
pub(crate) struct RootDrain<'a, V> {
    heap: &'a [Choice<V>],
    frontier: BinaryHeap<Reverse<(V, NodeId, u32)>>,
    /// Heap positions in rank order: rank `r` is `heap[ranked[r]]`.
    ranked: Vec<u32>,
}

impl<'a, V: Ord + Clone> RootDrain<'a, V> {
    fn new(heap: &'a [Choice<V>]) -> Self {
        let mut drain = RootDrain {
            heap,
            frontier: BinaryHeap::new(),
            ranked: Vec::new(),
        };
        drain.enter(0);
        // The top two, as for a private set (§4.1.3).
        drain.pop();
        drain.pop();
        drain
    }

    #[inline]
    fn choice(&self, rank: u32) -> &Choice<V> {
        &self.heap[self.ranked[rank as usize] as usize]
    }

    /// Put heap position `pos`, if it exists, on the frontier.
    fn enter(&mut self, pos: u32) {
        if let Some((node, value)) = self.heap.get(pos as usize) {
            self.frontier.push(Reverse((value.clone(), *node, pos)));
        }
    }

    /// Rank the frontier's minimum, and let its heap children replace it.
    fn pop(&mut self) {
        if let Some(Reverse((_, _, top))) = self.frontier.pop() {
            self.ranked.push(top);
            self.enter(2 * top + 1);
            self.enter(2 * top + 2);
        }
    }

    fn successors(&mut self, idx: u32, out: &mut Vec<u32>) {
        let next = idx as usize + 1;
        while self.ranked.len() <= next && !self.frontier.is_empty() {
            self.pop();
        }
        if next < self.ranked.len() {
            out.push(next as u32);
        }
    }
}

// ---------------------------------------------------------------------------
// All
// ---------------------------------------------------------------------------

/// No pre-processing: only the best choice is identified. When it is
/// expanded, every other choice is returned as a potential successor; all
/// other choices have an empty successor set (their true successors were
/// inserted together with them).
#[derive(Debug)]
pub(crate) struct AllChoices<V> {
    choices: Vec<Choice<V>>,
    top_idx: usize,
}

impl<V: Ord + Clone> AllChoices<V> {
    fn new(choices: Vec<Choice<V>>) -> Self {
        let top_idx = choices
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| by_rank(a, b))
            .map(|(i, _)| i)
            .expect("non-empty choice set");
        AllChoices { choices, top_idx }
    }

    fn successors(&self, idx: u32, out: &mut Vec<u32>) {
        if idx as usize == self.top_idx {
            out.extend((0..self.choices.len() as u32).filter(|&i| i != idx));
        }
    }
}

// ---------------------------------------------------------------------------
// Take2
// ---------------------------------------------------------------------------

/// The choice set stored as an array-embedded binary min-heap (built once in
/// linear time). The heap is never popped: `Succ(s, y)` returns the (at most
/// two) children of `y` in the heap tree, whose values are ≥ `y`'s value, so
/// inserting them the moment `y` is expanded never violates rank order, and
/// every choice is produced exactly once — by its unique heap parent.
#[derive(Debug)]
pub(crate) struct Take2Choices<V> {
    heap: Vec<Choice<V>>,
}

impl<V: Ord + Clone> Take2Choices<V> {
    fn new(mut choices: Vec<Choice<V>>) -> Self {
        heapify_min(&mut choices);
        Take2Choices { heap: choices }
    }

    fn successors(&self, idx: u32, out: &mut Vec<u32>) {
        let len = self.heap.len() as u32;
        let left = 2 * idx + 1;
        if left < len {
            out.push(left);
        }
        if left + 1 < len {
            out.push(left + 1);
        }
    }
}

/// Floyd's linear-time bottom-up heap construction for an array-embedded
/// binary min-heap ordered by `(value, node id)`.
fn heapify_min<V: Ord>(v: &mut [Choice<V>]) {
    for start in (0..v.len() / 2).rev() {
        sift_down(v, start);
    }
}

/// Sink `v[i]` to its place below the smaller of its children.
fn sift_down<V: Ord>(v: &mut [Choice<V>], mut i: usize) {
    let n = v.len();
    loop {
        let l = 2 * i + 1;
        if l >= n {
            return;
        }
        let r = l + 1;
        let child = if r < n && by_rank(&v[r], &v[l]).is_lt() {
            r
        } else {
            l
        };
        if !by_rank(&v[child], &v[i]).is_lt() {
            return;
        }
        v.swap(i, child);
        i = child;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dioid::{OrderedF64, TropicalMin};
    use std::collections::HashMap;

    fn choices(vals: &[f64]) -> Vec<Choice<OrderedF64>> {
        vals.iter()
            .enumerate()
            .map(|(i, &v)| (NodeId(i as u32 + 1), OrderedF64::from(v)))
            .collect()
    }

    fn node_at(s: &SuccState<TropicalMin>, idx: u32) -> NodeId {
        s.choice(idx).0
    }

    #[test]
    fn eager_returns_true_successor() {
        let mut s = SuccState::<TropicalMin>::new(SuccessorKind::Eager, choices(&[5.0, 1.0, 3.0]));
        let top = s.top();
        assert_eq!(node_at(&s, top), NodeId(2));
        let mut out = Vec::new();
        s.successors(top, &mut out);
        assert_eq!(
            out.iter().map(|&i| node_at(&s, i)).collect::<Vec<_>>(),
            vec![NodeId(3)]
        );
        let second = out[0];
        out.clear();
        s.successors(second, &mut out);
        assert_eq!(
            out.iter().map(|&i| node_at(&s, i)).collect::<Vec<_>>(),
            vec![NodeId(1)]
        );
        let third = out[0];
        out.clear();
        s.successors(third, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn lazy_drains_incrementally_and_matches_eager() {
        let vals = [8.0, 2.0, 9.0, 4.0, 6.0];
        let mut lazy = SuccState::<TropicalMin>::new(SuccessorKind::Lazy, choices(&vals));
        let mut eager = SuccState::<TropicalMin>::new(SuccessorKind::Eager, choices(&vals));
        assert_eq!(node_at(&lazy, lazy.top()), node_at(&eager, eager.top()));
        let mut cur = lazy.top();
        // Walk the entire chain of true successors through both structures:
        // both address by rank, so the indices coincide.
        for _ in 0..vals.len() {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            lazy.successors(cur, &mut a);
            eager.successors(cur, &mut b);
            assert_eq!(a, b);
            let nodes_a: Vec<_> = a.iter().map(|&i| node_at(&lazy, i)).collect();
            let nodes_b: Vec<_> = b.iter().map(|&i| node_at(&eager, i)).collect();
            assert_eq!(nodes_a, nodes_b);
            match a.first() {
                Some(&n) => cur = n,
                None => break,
            }
        }
    }

    /// Both Lazy drains — in place over a private set, and through a
    /// frontier over a borrowed heap — rank a tie-heavy set exactly as Eager
    /// sorts it, and leave the borrowed heap untouched.
    #[test]
    fn both_lazy_drains_rank_like_eager() {
        for n in [1usize, 2, 3, 10, 31, 32, 257] {
            let vals: Vec<f64> = (0..n).map(|i| ((i * 7919 + 13) % 5) as f64).collect();
            let eager = SuccState::<TropicalMin>::new(SuccessorKind::Eager, choices(&vals));
            let mut private = SuccState::<TropicalMin>::new(SuccessorKind::Lazy, choices(&vals));
            let SuccState::Take2(shared) =
                SuccState::<TropicalMin>::new(SuccessorKind::Take2, choices(&vals))
            else {
                unreachable!()
            };
            let before = shared.heap.clone();
            let mut drain = RootDrain::new(&shared.heap);
            let mut rank = 0;
            loop {
                assert_eq!(private.choice(rank), eager.choice(rank), "n = {n}");
                assert_eq!(drain.choice(rank), eager.choice(rank), "n = {n}");
                let (mut a, mut b) = (Vec::new(), Vec::new());
                private.successors(rank, &mut a);
                drain.successors(rank, &mut b);
                assert_eq!(a, b);
                match a.first() {
                    Some(&next) => rank = next,
                    None => break,
                }
            }
            assert_eq!(rank as usize + 1, n);
            assert!(drain.frontier.is_empty());
            assert_eq!(shared.heap, before);
        }
    }

    #[test]
    fn all_returns_everything_for_top_and_nothing_otherwise() {
        let mut s = SuccState::<TropicalMin>::new(SuccessorKind::All, choices(&[5.0, 1.0, 3.0]));
        let mut out = Vec::new();
        let top = s.top();
        s.successors(top, &mut out);
        let mut nodes: Vec<_> = out.iter().map(|&i| node_at(&s, i)).collect();
        nodes.sort();
        assert_eq!(nodes, vec![NodeId(1), NodeId(3)]);
        let non_top = out[0];
        out.clear();
        s.successors(non_top, &mut out);
        assert!(out.is_empty());
    }

    /// The pre-refactor ordering code, which cloned a `(value, node)` key per
    /// comparison: the in-place comparator must reproduce its heap layout and
    /// sort order element for element, or streams would change.
    #[test]
    fn in_place_ordering_reproduces_the_keyed_reference() {
        fn key(c: &Choice<OrderedF64>) -> (OrderedF64, NodeId) {
            (c.1, c.0)
        }
        fn reference_heapify(v: &mut [Choice<OrderedF64>]) {
            let n = v.len();
            for start in (0..n / 2).rev() {
                let mut i = start;
                loop {
                    let (l, r) = (2 * i + 1, 2 * i + 2);
                    let mut smallest = i;
                    if l < n && key(&v[l]) < key(&v[smallest]) {
                        smallest = l;
                    }
                    if r < n && key(&v[r]) < key(&v[smallest]) {
                        smallest = r;
                    }
                    if smallest == i {
                        break;
                    }
                    v.swap(i, smallest);
                    i = smallest;
                }
            }
        }
        // A multiplicative walk mod 8: many duplicate values, so the node-id
        // tie-break decides most comparisons.
        for n in [0usize, 1, 2, 3, 10, 31, 32, 257] {
            let vals: Vec<f64> = (0..n).map(|i| ((i * 7919 + 13) % 8) as f64).collect();
            let mut heap = choices(&vals);
            let mut expected = heap.clone();
            heapify_min(&mut heap);
            reference_heapify(&mut expected);
            assert_eq!(heap, expected, "heap layout, n = {n}");
            if n == 0 {
                continue;
            }
            let mut sorted = choices(&vals);
            sorted.sort_by_key(key);
            let SuccState::Eager(eager) =
                SuccState::<TropicalMin>::new(SuccessorKind::Eager, choices(&vals))
            else {
                unreachable!()
            };
            assert_eq!(eager.sorted, sorted, "sort order, n = {n}");
            let all = SuccState::<TropicalMin>::new(SuccessorKind::All, choices(&vals));
            assert_eq!(all.choice(all.top()), &sorted[0], "best choice, n = {n}");
        }
    }

    #[test]
    fn take2_heap_children_cover_all_choices_exactly_once() {
        let vals = [7.0, 3.0, 9.0, 1.0, 5.0, 2.0, 8.0];
        let mut s = SuccState::<TropicalMin>::new(SuccessorKind::Take2, choices(&vals));
        // BFS from the top: every choice must be reached exactly once.
        let mut seen = vec![s.top()];
        let mut frontier = vec![s.top()];
        while let Some(cur) = frontier.pop() {
            let mut out = Vec::new();
            s.successors(cur, &mut out);
            for i in out {
                assert!(!seen.contains(&i), "duplicate successor index {i}");
                seen.push(i);
                frontier.push(i);
            }
        }
        assert_eq!(seen.len(), vals.len());
    }

    #[test]
    fn take2_children_are_never_lighter_than_parent() {
        let vals = [7.0, 3.0, 9.0, 1.0, 5.0, 2.0, 8.0, 4.0, 6.0];
        let cs = choices(&vals);
        let lookup: HashMap<NodeId, OrderedF64> = cs.iter().cloned().collect();
        let mut s = SuccState::<TropicalMin>::new(SuccessorKind::Take2, cs);
        let mut frontier = vec![s.top()];
        while let Some(cur) = frontier.pop() {
            let mut out = Vec::new();
            s.successors(cur, &mut out);
            for i in out {
                assert!(lookup[&node_at(&s, i)] >= lookup[&node_at(&s, cur)]);
                frontier.push(i);
            }
        }
    }
}
