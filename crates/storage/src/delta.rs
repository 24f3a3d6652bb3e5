//! Tuple-level deltas: batched inserts/deletes applied copy-on-write.
//!
//! A [`DeltaBatch`] describes a set of per-relation edits — tuple inserts
//! and tuple deletes (addressed by [`TupleId`]) — that
//! [`Database::apply_delta`](crate::Database::apply_delta) turns into a
//! **new** database snapshot: untouched relations are `Arc`-shared with the
//! source, touched relations are rebuilt once (survivors in their original
//! order, inserts appended), and the snapshot's generation is bumped so
//! generation-keyed caches can tell the two apart. The source database is
//! never mutated — live readers of the old snapshot keep streaming from it.
//!
//! ## Tuple-id remapping
//!
//! Deleting tuples compacts the survivors: a surviving tuple's new id is its
//! old id minus the number of deleted ids below it ([`TidRemap`] computes
//! the mapping). Engines that cache tuple ids (e.g. as T-DP payloads) must
//! remap them when they carry a plan across a delta; from-scratch consumers
//! simply see a densely-numbered relation, exactly as if it had been loaded
//! that way.

use crate::tuple::{Tuple, TupleId};

/// Edits to one relation: tuples to delete (by id, in the *pre-delta* id
/// space) and tuples to append.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RelationDelta {
    /// The relation's name (must exist in the target database).
    pub relation: String,
    /// Tuple ids to remove, in the source relation's id space. Order is
    /// irrelevant; duplicates are ignored.
    pub deletes: Vec<TupleId>,
    /// Tuples to append after the deletes (ids assigned past the survivors).
    pub inserts: Vec<Tuple>,
}

impl RelationDelta {
    /// An empty delta for `relation`.
    pub fn new(relation: impl Into<String>) -> Self {
        RelationDelta {
            relation: relation.into(),
            deletes: Vec::new(),
            inserts: Vec::new(),
        }
    }

    /// The deletes sorted ascending with duplicates dropped — the canonical
    /// form the apply path works in.
    pub fn sorted_deletes(&self) -> Vec<TupleId> {
        let mut d = self.deletes.clone();
        d.sort_unstable();
        d.dedup();
        d
    }

    /// True if the delta edits nothing.
    pub fn is_empty(&self) -> bool {
        self.deletes.is_empty() && self.inserts.is_empty()
    }
}

/// A batch of per-relation edits applied atomically as one new snapshot
/// generation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaBatch {
    /// The per-relation edits. At most one entry per relation name is
    /// expected; later entries for the same name would see the ids already
    /// shifted by earlier ones, so builders should merge instead.
    pub relations: Vec<RelationDelta>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        DeltaBatch::default()
    }

    /// The (possibly fresh) entry for `relation`.
    fn entry(&mut self, relation: &str) -> &mut RelationDelta {
        if let Some(pos) = self.relations.iter().position(|d| d.relation == relation) {
            return &mut self.relations[pos];
        }
        self.relations.push(RelationDelta::new(relation));
        self.relations.last_mut().expect("just pushed")
    }

    /// Queue an insert of `tuple` into `relation` (builder-style).
    pub fn insert(mut self, relation: &str, tuple: Tuple) -> Self {
        self.entry(relation).inserts.push(tuple);
        self
    }

    /// Queue a delete of tuple `tid` (pre-delta id space) from `relation`.
    pub fn delete(mut self, relation: &str, tid: TupleId) -> Self {
        self.entry(relation).deletes.push(tid);
        self
    }

    /// True if the batch edits nothing.
    pub fn is_empty(&self) -> bool {
        self.relations.iter().all(RelationDelta::is_empty)
    }

    /// Whether the batch touches relation `name`.
    pub fn touches(&self, name: &str) -> bool {
        self.relations
            .iter()
            .any(|d| d.relation == name && !d.is_empty())
    }

    /// The delta for relation `name`, if the batch carries one.
    pub fn for_relation(&self, name: &str) -> Option<&RelationDelta> {
        self.relations.iter().find(|d| d.relation == name)
    }

    /// Total number of queued edits (inserts + deletes) across all relations.
    pub fn edit_count(&self) -> usize {
        self.relations
            .iter()
            .map(|d| d.deletes.len() + d.inserts.len())
            .sum()
    }
}

/// Why a [`DeltaBatch`] could not be applied. Validation runs before any
/// work, so a failed apply leaves no partial snapshot behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The batch names a relation the database does not have.
    UnknownRelation(String),
    /// An inserted tuple's arity does not match its relation.
    ArityMismatch {
        /// The relation whose delta carried the bad tuple.
        relation: String,
        /// The relation's arity.
        expected: usize,
        /// The inserted tuple's arity.
        got: usize,
    },
    /// An inserted tuple's weight is `±∞` or NaN. Weights must be finite:
    /// an infinite weight is a ranking's `0̄` or past it, so where it sat in
    /// the join tree would decide whether its answers exist.
    NonFiniteWeight {
        /// The relation whose delta carried the bad tuple.
        relation: String,
        /// The tuple's position among that delta's inserts.
        insert: usize,
    },
    /// A delete id is past the end of its relation.
    DeleteOutOfRange {
        /// The relation whose delta carried the bad id.
        relation: String,
        /// The out-of-range tuple id.
        tid: TupleId,
        /// The relation's length.
        len: usize,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::UnknownRelation(name) => {
                write!(f, "delta names unknown relation `{name}`")
            }
            DeltaError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "delta insert into `{relation}` has arity {got}, relation has {expected}"
            ),
            DeltaError::NonFiniteWeight { relation, insert } => write!(
                f,
                "delta insert {insert} into `{relation}` has a non-finite weight"
            ),
            DeltaError::DeleteOutOfRange { relation, tid, len } => write!(
                f,
                "delta deletes tuple {tid} of `{relation}`, which has only {len} tuples"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// The old-id → new-id mapping induced by a sorted, deduped delete list:
/// survivors shift down by the number of deleted ids below them.
#[derive(Debug, Clone)]
pub struct TidRemap {
    /// Sorted, deduped deleted ids.
    deleted: Vec<TupleId>,
}

impl TidRemap {
    /// Build the remap for `sorted_deletes` (as produced by
    /// [`RelationDelta::sorted_deletes`]).
    pub fn new(sorted_deletes: Vec<TupleId>) -> Self {
        debug_assert!(sorted_deletes.windows(2).all(|w| w[0] < w[1]));
        TidRemap {
            deleted: sorted_deletes,
        }
    }

    /// The new id of pre-delta tuple `old`, or `None` if it was deleted.
    pub fn map(&self, old: TupleId) -> Option<TupleId> {
        match self.deleted.binary_search(&old) {
            Ok(_) => None,
            Err(below) => Some(old - below),
        }
    }

    /// Number of deleted ids.
    pub fn deleted_count(&self) -> usize {
        self.deleted.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_builder_merges_per_relation() {
        let batch = DeltaBatch::new()
            .insert("R", Tuple::new(vec![1, 2], 0.5))
            .delete("R", 3)
            .insert("S", Tuple::new(vec![9], 1.0))
            .delete("R", 3)
            .delete("R", 1);
        assert_eq!(batch.relations.len(), 2);
        assert!(batch.touches("R"));
        assert!(batch.touches("S"));
        assert!(!batch.touches("T"));
        assert_eq!(batch.edit_count(), 5);
        let r = batch.for_relation("R").unwrap();
        assert_eq!(r.sorted_deletes(), vec![1, 3], "sorted and deduped");
        assert_eq!(r.inserts.len(), 1);
    }

    #[test]
    fn remap_shifts_past_deletes() {
        let remap = TidRemap::new(vec![1, 4, 5]);
        assert_eq!(remap.map(0), Some(0));
        assert_eq!(remap.map(1), None);
        assert_eq!(remap.map(2), Some(1));
        assert_eq!(remap.map(3), Some(2));
        assert_eq!(remap.map(4), None);
        assert_eq!(remap.map(5), None);
        assert_eq!(remap.map(6), Some(3));
        assert_eq!(remap.deleted_count(), 3);
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(DeltaBatch::new().is_empty());
        let batch = DeltaBatch::new().delete("R", 0);
        assert!(!batch.is_empty());
    }
}
