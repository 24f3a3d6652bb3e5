//! # anyk-core
//!
//! Ranked enumeration ("any-k") over tree-based dynamic programming problems,
//! following *"Optimal Algorithms for Ranked Enumeration of Answers to Full
//! Conjunctive Queries"* (Tziavelis et al., VLDB 2020).
//!
//! The crate is independent of any relational machinery: it operates on
//! abstract **T-DP instances** — multi-stage DAGs whose stages are organised
//! in a rooted tree and whose solutions are one state per stage (§3, §5.1 of
//! the paper). Serial DP (path queries) is the special case of a tree that is
//! a single chain.
//!
//! ## Contents
//!
//! * [`dioid`] — selective dioids, the algebraic structures that define the
//!   ranking function (§2.2, §6.4): tropical min-plus / max-plus, Boolean,
//!   max-times ("bag"), lexicographic, and a tie-breaking product dioid.
//! * [`tdp`] — the T-DP instance model, a builder, and the standard DP
//!   bottom-up phase (variable elimination on the dioid, §3).
//! * [`anyk_part`] — the anyK-part family (Algorithm 1): `Eager`, `Lazy`,
//!   `All` and the paper's new `Take2` successor structures (§4.1).
//! * [`anyk_rec`] — the anyK-rec algorithm `Recursive` (REA, Algorithm 2),
//!   generalised to trees via ranked Cartesian products of branch streams
//!   (§4.2, §5.1).
//! * [`batch`] — the `Batch` baseline: enumerate everything, then sort (§4.3).
//! * [`union`] — UT-DP: ranked enumeration over a union of T-DP instances
//!   with consecutive-duplicate elimination (§5.2, §6.3).
//! * [`metrics`] — lightweight instrumentation used by the experiment harness.
//!
//! ## Quick example
//!
//! ```
//! use anyk_core::dioid::TropicalMin;
//! use anyk_core::tdp::TdpBuilder;
//! use anyk_core::{AnyKAlgorithm, ranked_enumerate};
//!
//! // Cartesian product R1 x R2 x R3 from Example 6 of the paper:
//! // three serial stages with weights 1..3, 10..30, 100..300.
//! let mut b = TdpBuilder::<TropicalMin>::serial(3);
//! let s1: Vec<_> = [1.0, 2.0, 3.0].iter().map(|&w| b.add_state(1, w.into())).collect();
//! let s2: Vec<_> = [10.0, 20.0, 30.0].iter().map(|&w| b.add_state(2, w.into())).collect();
//! let s3: Vec<_> = [100.0, 200.0, 300.0].iter().map(|&w| b.add_state(3, w.into())).collect();
//! for &a in &s1 { b.connect_root(a); }
//! for &a in &s1 { for &b_ in &s2 { b.connect(a, b_); } }
//! for &a in &s2 { for &b_ in &s3 { b.connect(a, b_); } }
//! for &a in &s3 { b.connect_terminal(a); }
//! let instance = b.build();
//!
//! let results: Vec<_> = ranked_enumerate(&instance, AnyKAlgorithm::Take2).take(3).collect();
//! assert_eq!(results[0].weight, 111.0.into());
//! assert_eq!(results[1].weight, 112.0.into());
//! assert_eq!(results[2].weight, 113.0.into());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod anyk_part;
pub mod anyk_rec;
pub mod batch;
pub mod dioid;
pub mod faults;
pub mod metrics;
mod slot_map;
pub mod solution;
pub mod tdp;
pub mod union;

pub use anyk_part::{AnyKPart, MemoryStats, SuccessorKind};
pub use anyk_rec::Recursive;
pub use batch::Batch;
pub use dioid::{Dioid, OrderedF64, TropicalMin};
pub use solution::Solution;
pub use tdp::{NodeId, StageId, TdpBuilder, TdpInstance};
pub use union::UnionEnumerator;

/// The ranked-enumeration strategies implemented by this crate (§4, §7).
///
/// All strategies produce the same output — every T-DP solution exactly once,
/// in non-decreasing weight order — but they differ in pre-processing cost,
/// delay, and total time as analysed in Fig. 5 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnyKAlgorithm {
    /// anyK-part with fully pre-sorted choice sets (`Eager`, §4.1.3).
    Eager,
    /// anyK-part with incrementally sorted choice heaps (`Lazy`, Chang et al.).
    Lazy,
    /// anyK-part that returns all sibling choices as successors (`All`, Yang et al.).
    All,
    /// anyK-part with binary-heap partial order and two successors (`Take2`, this paper).
    Take2,
    /// anyK-rec / Recursive Enumeration Algorithm (REA).
    Recursive,
    /// Batch: materialise every solution, then sort.
    Batch,
}

impl AnyKAlgorithm {
    /// All algorithm variants, in the order used by the experiment plots.
    pub const ALL: [AnyKAlgorithm; 6] = [
        AnyKAlgorithm::Recursive,
        AnyKAlgorithm::Take2,
        AnyKAlgorithm::Lazy,
        AnyKAlgorithm::Eager,
        AnyKAlgorithm::All,
        AnyKAlgorithm::Batch,
    ];

    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            AnyKAlgorithm::Eager => "Eager",
            AnyKAlgorithm::Lazy => "Lazy",
            AnyKAlgorithm::All => "All",
            AnyKAlgorithm::Take2 => "Take2",
            AnyKAlgorithm::Recursive => "Recursive",
            AnyKAlgorithm::Batch => "Batch",
        }
    }
}

impl std::fmt::Display for AnyKAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A ranked stream of T-DP solutions that can also report the live MEM(k)
/// footprint of its data structures.
///
/// Every enumerator in this crate implements it; the provided `live_mem`
/// default returns `None` for algorithms whose memory is not organised in
/// the candidate-queue / prefix-arena / successor-structure shape the
/// paper's MEM(k) study measures (`Recursive`, `Batch`).
pub trait SolutionStream<D: Dioid>: Iterator<Item = Solution<D>> + Send {
    /// A MEM(k) snapshot of the enumerator's current data structures, or
    /// `None` when the algorithm does not track one. `O(1)` for a single
    /// enumerator (lengths and counters it keeps as it goes), and one such
    /// read per source for a union — cheap enough to call after every page,
    /// or every answer.
    fn live_mem(&self) -> Option<MemoryStats> {
        None
    }
}

/// A boxed ranked-enumeration iterator over a T-DP instance.
///
/// The box is [`Send`]: every enumerator in this crate is plain data (heaps,
/// arenas, stream buffers) borrowing a `Sync` instance, so a partially
/// consumed iterator can be *suspended* — parked in a session table, moved
/// to another thread — and *resumed* later, continuing the exact same
/// ranked stream. Suspension is free: the candidate queue, shared-prefix
/// arena, and successor/stream structures simply stay alive inside the
/// iterator value between `next()` calls; no state is rebuilt on resume and
/// nothing is allocated per suspension point. Being a [`SolutionStream`],
/// the box also reports live MEM(k) where the algorithm tracks it.
pub type RankedIter<'a, D> = Box<dyn SolutionStream<D> + 'a>;

impl<D: Dioid> SolutionStream<D> for AnyKPart<'_, D> {
    fn live_mem(&self) -> Option<MemoryStats> {
        Some(self.memory_stats())
    }
}

impl<D: Dioid> SolutionStream<D> for Recursive<'_, D> {}

impl<D: Dioid> SolutionStream<D> for Batch<'_, D> {}

/// Run ranked enumeration over `instance` with the chosen algorithm.
///
/// Returns an iterator producing every solution exactly once in
/// non-decreasing weight order. The iterator borrows the instance.
pub fn ranked_enumerate<D: Dioid>(
    instance: &TdpInstance<D>,
    algorithm: AnyKAlgorithm,
) -> RankedIter<'_, D> {
    match algorithm {
        AnyKAlgorithm::Eager => Box::new(AnyKPart::new(instance, SuccessorKind::Eager)),
        AnyKAlgorithm::Lazy => Box::new(AnyKPart::new(instance, SuccessorKind::Lazy)),
        AnyKAlgorithm::All => Box::new(AnyKPart::new(instance, SuccessorKind::All)),
        AnyKAlgorithm::Take2 => Box::new(AnyKPart::new(instance, SuccessorKind::Take2)),
        AnyKAlgorithm::Recursive => Box::new(Recursive::new(instance)),
        AnyKAlgorithm::Batch => Box::new(Batch::new(instance)),
    }
}
