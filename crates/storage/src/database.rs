//! Databases: catalogs of named relations, with a shared index cache.
//!
//! ## Index cache
//!
//! Several engine passes build the same [`HashIndex`] independently: the
//! equi-join compilation indexes each parent relation by its join key, the
//! naive-SQL baseline indexes every atom's relation by its bound columns, and
//! the cycle decomposition indexes the same oriented partition once per heavy
//! tree. [`Database::index`] memoises indexes per **(relation slot, key
//! columns)** in a sharded, `RwLock`-guarded, LRU-bounded cache (see
//! [`crate::index_cache`]), handing out cheap [`Arc`] clones; repeated
//! requests for the same key pay one hash-map probe under a read lock
//! instead of an `O(n)` rebuild, and concurrent readers — e.g. many query
//! sessions preprocessing over one shared snapshot — never block each other.
//!
//! The cache is bounded: a long-lived service over ad-hoc queries evicts its
//! least-recently-used indexes instead of growing without limit
//! ([`Database::set_index_cache_capacity`], `ANYK_INDEX_CACHE_CAP`), with
//! hit/miss/eviction counters exposed via [`Database::index_cache_stats`].
//!
//! The cache is invalidated when [`Database::add`] **replaces** a relation:
//! every cached index of the replaced slot is dropped, so a stale index is
//! never served (indexes are immutable snapshots of the relation they were
//! built from). Cloning a database clones the cache too — the `Arc`ed indexes
//! themselves are shared, which is sound because they are immutable and the
//! cloned relations are bit-identical.
//!
//! ## Snapshots: generations and sealing
//!
//! A database that a query service hands out as a read snapshot must never
//! mutate under its readers. Two mechanisms enforce and track this:
//!
//! * **Sealing** ([`Database::seal`]) — a sealed database rejects
//!   [`Database::add`] / [`Database::add_shared`] with a panic. Serving code
//!   seals every snapshot it publishes; the only way forward from a sealed
//!   snapshot is a *new* database via [`Database::apply_delta`] (or an
//!   unsealed [`Clone`]).
//! * **Generations** ([`Database::generation`]) — a monotone id stamped into
//!   every index-cache key, so two snapshots that reuse the same relation
//!   *slot* across a rotation can never serve each other's indexes, even if
//!   cache state leaks across via clones.
//!
//! [`Database::apply_delta`] is the copy-on-write ingestion path: it builds a
//! new database with the batch's edits applied (untouched relations
//! `Arc`-shared, touched relations rebuilt once), bumps the generation, and
//! re-keys surviving cache entries so untouched-slot indexes stay warm.

use crate::delta::{DeltaBatch, DeltaError};
use crate::index::HashIndex;
use crate::index_cache::{default_index_cache_capacity, IndexCache, IndexCacheStats};
use crate::relation::Relation;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// An in-memory database: an ordered catalog of relations addressed by name.
///
/// Relations are stored behind `Arc`s: cloning a database, or registering
/// one database's relation in another (see [`Database::add_shared`]),
/// shares the columnar data instead of copying it. The sharing is
/// sound because stored relations are immutable — mutation happens on an
/// owned [`Relation`] before [`Database::add`] hands it over.
#[derive(Debug)]
pub struct Database {
    relations: Vec<Arc<Relation>>,
    by_name: HashMap<String, usize>,
    /// Memoised hash indexes per (generation, relation slot, key columns).
    index_cache: IndexCache,
    /// Monotone snapshot id; bumped by [`Database::apply_delta`] and stamped
    /// into every index-cache key.
    generation: u64,
    /// Once set, structural mutation ([`Database::add`]/
    /// [`Database::add_shared`]) panics. `&self` so a served `Arc<Database>`
    /// can be sealed in place.
    sealed: AtomicBool,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            relations: Vec::new(),
            by_name: HashMap::new(),
            index_cache: IndexCache::new(default_index_cache_capacity()),
            generation: 0,
            sealed: AtomicBool::new(false),
        }
    }
}

impl Clone for Database {
    /// Clones are **unsealed**: a clone is a fresh private copy (relations
    /// `Arc`-shared, cache warm but independent), so the original's
    /// served-snapshot protection does not transfer. The generation carries
    /// over — the clone still describes the same data version.
    fn clone(&self) -> Self {
        Database {
            relations: self.relations.clone(),
            by_name: self.by_name.clone(),
            index_cache: self.index_cache.clone(),
            generation: self.generation,
            sealed: AtomicBool::new(false),
        }
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Add a relation. If a relation with the same name exists it is
    /// replaced (and its slot reused), mirroring `CREATE OR REPLACE TABLE`.
    /// Replacing drops every cached index of the old relation.
    ///
    /// # Panics
    /// Panics if the database is [sealed](Database::seal) — a served
    /// snapshot must not mutate under live readers; ingest through
    /// [`Database::apply_delta`] instead.
    pub fn add(&mut self, relation: Relation) {
        self.add_shared(Arc::new(relation));
    }

    /// Add an already-shared relation without copying its data (as
    /// [`Database::apply_delta`] installs each patched relation). Same replace semantics (and same sealed-snapshot panic) as
    /// [`Database::add`].
    pub fn add_shared(&mut self, relation: Arc<Relation>) {
        assert!(
            !self.is_sealed(),
            "cannot mutate a sealed database snapshot (relation `{}`): \
             served snapshots are immutable — ingest a DeltaBatch via \
             `Database::apply_delta` to produce a new generation instead",
            relation.name()
        );
        match self.by_name.get(relation.name()) {
            Some(&idx) => {
                self.relations[idx] = relation;
                self.index_cache.invalidate_slot(idx);
            }
            None => {
                self.by_name
                    .insert(relation.name().to_string(), self.relations.len());
                self.relations.push(relation);
            }
        }
    }

    /// Seal the database: any further [`Database::add`] /
    /// [`Database::add_shared`] panics. Takes `&self` so serving code can
    /// seal a snapshot already shared behind an `Arc`. Sealing is
    /// irreversible for this instance; [`Clone`] yields an unsealed copy.
    pub fn seal(&self) {
        self.sealed.store(true, Ordering::Release);
    }

    /// Whether this database has been [sealed](Database::seal).
    pub fn is_sealed(&self) -> bool {
        self.sealed.load(Ordering::Acquire)
    }

    /// This snapshot's generation id (see the module docs). Fresh databases
    /// start at 0; [`Database::apply_delta`] bumps it by one,
    /// [`Database::set_generation`] sets it outright (rotation to an
    /// unrelated snapshot).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Stamp this database with generation `generation`, re-keying any
    /// already-cached indexes so they stay warm under the new id. Used when
    /// rotating a freshly built database into a serving slot whose
    /// generation counter has moved past the default 0.
    pub fn set_generation(&mut self, generation: u64) {
        let old = self.generation;
        self.generation = generation;
        self.index_cache.rekey_generation(old, generation);
    }

    /// Copy-on-write delta ingestion: a **new** database with `batch`
    /// applied. The receiver (typically a sealed, served snapshot) is not
    /// touched. In the result:
    ///
    /// * untouched relations are `Arc`-shared with the source;
    /// * each touched relation is rebuilt once via
    ///   [`Relation::apply_delta`] (survivors keep their order, inserts
    ///   appended — see [`crate::delta`] for the tuple-id remapping rule);
    /// * the generation is the source's plus one;
    /// * index-cache entries for untouched slots stay warm (re-keyed to the
    ///   new generation); entries for touched slots are dropped.
    ///
    /// The whole batch is validated up front, so `Err` means nothing was
    /// built. The result is unsealed — the caller seals it when serving it.
    pub fn apply_delta(&self, batch: &DeltaBatch) -> Result<Database, DeltaError> {
        for delta in &batch.relations {
            let rel = self
                .get(&delta.relation)
                .ok_or_else(|| DeltaError::UnknownRelation(delta.relation.clone()))?;
            for (insert, tuple) in delta.inserts.iter().enumerate() {
                if tuple.values().len() != rel.arity() {
                    return Err(DeltaError::ArityMismatch {
                        relation: delta.relation.clone(),
                        expected: rel.arity(),
                        got: tuple.values().len(),
                    });
                }
                if !tuple.weight().is_finite() {
                    return Err(DeltaError::NonFiniteWeight {
                        relation: delta.relation.clone(),
                        insert,
                    });
                }
            }
            if let Some(&tid) = delta.deletes.iter().max() {
                if tid >= rel.len() {
                    return Err(DeltaError::DeleteOutOfRange {
                        relation: delta.relation.clone(),
                        tid,
                        len: rel.len(),
                    });
                }
            }
        }
        let mut next = self.clone(); // unsealed, relations shared, cache warm
        for delta in &batch.relations {
            if delta.is_empty() {
                continue;
            }
            let rel = self.expect(&delta.relation);
            let patched = rel.apply_delta(&delta.sorted_deletes(), &delta.inserts);
            // add_shared drops the touched slot's cache entries (all
            // generations of it — invalidate_slot is generation-blind).
            next.add_shared(Arc::new(patched));
        }
        next.generation = self.generation + 1;
        // Untouched-slot entries survive under the new generation id.
        next.index_cache
            .rekey_generation(self.generation, next.generation);
        Ok(next)
    }

    /// Look up a relation by name.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.by_name.get(name).map(|&i| self.relations[i].as_ref())
    }

    /// Look up a relation by name as a shareable handle (see
    /// [`Database::add_shared`]).
    pub fn get_shared(&self, name: &str) -> Option<Arc<Relation>> {
        self.by_name
            .get(name)
            .map(|&i| Arc::clone(&self.relations[i]))
    }

    /// Look up a relation by name, panicking with a clear message if absent.
    pub fn expect(&self, name: &str) -> &Relation {
        self.get(name)
            .unwrap_or_else(|| panic!("relation `{name}` not found in database"))
    }

    /// The hash index of `name` over `key_columns`, built on first request
    /// and memoised for subsequent ones. The returned [`Arc`] stays valid
    /// even if the relation is later replaced or the cache entry is evicted
    /// (it describes the snapshot it was built from); the *cache* entry,
    /// however, is dropped on replace, so a fresh request after a replace
    /// always sees the new data. Requests from many threads over a shared
    /// database proceed concurrently (hits take only a shard read lock).
    ///
    /// # Panics
    /// Panics if the relation does not exist or a key column is out of range.
    pub fn index(&self, name: &str, key_columns: &[usize]) -> Arc<HashIndex> {
        let slot = *self
            .by_name
            .get(name)
            .unwrap_or_else(|| panic!("relation `{name}` not found in database"));
        self.index_cache
            .get_or_build((self.generation, slot, key_columns.to_vec()), || {
                HashIndex::build(&self.relations[slot], key_columns)
            })
    }

    /// Number of indexes currently memoised (diagnostics / tests).
    pub fn cached_indexes(&self) -> usize {
        self.index_cache.len()
    }

    /// Hit/miss/eviction counters and occupancy of the index cache.
    pub fn index_cache_stats(&self) -> IndexCacheStats {
        self.index_cache.stats()
    }

    /// The hard bound on the number of cached indexes.
    pub fn index_cache_capacity(&self) -> usize {
        self.index_cache.capacity()
    }

    /// Re-bound the index cache to `capacity` entries (clamped to ≥ 1),
    /// keeping the most recently used entries. Typically called once while
    /// the database is still exclusively owned, before sharing it behind an
    /// `Arc` with a query service.
    pub fn set_index_cache_capacity(&mut self, capacity: usize) {
        self.index_cache.set_capacity(capacity);
    }

    /// The dictionary of column `col` of relation `name`, if that column is
    /// dictionary-encoded. Replacing the relation via [`Database::add`]
    /// swaps in the replacement's schema, so a handle obtained *before* the
    /// replace keeps describing the old snapshot while new requests see the
    /// new dictionary.
    ///
    /// # Panics
    /// Panics if the relation does not exist or `col` is out of range.
    pub fn dictionary(&self, name: &str, col: usize) -> Option<Arc<crate::Dictionary>> {
        self.expect(name).dictionary(col).cloned()
    }

    /// Decode `value` through the dictionary of column `col` of relation
    /// `name`: the original string for a known id of a text column, `None`
    /// for raw-id columns or unknown ids.
    ///
    /// # Panics
    /// Panics if the relation does not exist or `col` is out of range.
    pub fn decode(&self, name: &str, col: usize, value: crate::Value) -> Option<String> {
        self.expect(name)
            .dictionary(col)
            .and_then(|d| d.decode(value))
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True if the database has no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Iterate over all relations in insertion order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.iter().map(|r| r.as_ref())
    }

    /// The maximum relation cardinality `n` (the paper's input-size
    /// parameter), or 0 for an empty database.
    pub fn max_cardinality(&self) -> usize {
        self.relations().map(Relation::len).max().unwrap_or(0)
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations().map(Relation::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    #[test]
    fn add_get_and_replace() {
        let mut db = Database::new();
        let mut r = Relation::new("R", 1);
        r.push(Tuple::unweighted(vec![1]));
        db.add(r);
        assert_eq!(db.len(), 1);
        assert_eq!(db.expect("R").len(), 1);

        let mut r2 = Relation::new("R", 1);
        r2.push(Tuple::unweighted(vec![1]));
        r2.push(Tuple::unweighted(vec![2]));
        db.add(r2);
        assert_eq!(db.len(), 1, "replacement keeps a single slot");
        assert_eq!(db.expect("R").len(), 2);
        assert!(db.get("S").is_none());
    }

    #[test]
    fn cardinality_statistics() {
        let mut db = Database::new();
        for (name, n) in [("A", 3), ("B", 7)] {
            let mut r = Relation::new(name, 1);
            for i in 0..n {
                r.push(Tuple::unweighted(vec![i]));
            }
            db.add(r);
        }
        assert_eq!(db.max_cardinality(), 7);
        assert_eq!(db.total_tuples(), 10);
    }

    #[test]
    #[should_panic(expected = "not found")]
    fn expect_missing_panics() {
        Database::new().expect("nope");
    }

    #[test]
    fn index_is_cached_and_shared() {
        let mut db = Database::new();
        let mut r = Relation::new("R", 2);
        r.push_edge(1, 10, 0.0);
        r.push_edge(1, 20, 0.0);
        db.add(r);
        let a = db.index("R", &[0]);
        let b = db.index("R", &[0]);
        assert!(Arc::ptr_eq(&a, &b), "second request hits the cache");
        assert_eq!(db.cached_indexes(), 1);
        let c = db.index("R", &[1]);
        assert!(
            !Arc::ptr_eq(&a, &c),
            "different key columns, different index"
        );
        assert_eq!(db.cached_indexes(), 2);
    }

    #[test]
    fn replacing_a_relation_invalidates_its_cached_indexes() {
        let mut db = Database::new();
        let mut r = Relation::new("R", 2);
        r.push_edge(1, 10, 0.0);
        db.add(r);
        let mut s = Relation::new("S", 2);
        s.push_edge(7, 70, 0.0);
        db.add(s);
        let old = db.index("R", &[0]);
        db.index("S", &[0]);
        assert_eq!(old.lookup1(1), &[0]);
        assert_eq!(db.cached_indexes(), 2);

        // Replace R with different contents: the stale entry must never be
        // served again, while S's cache entry survives.
        let mut r2 = Relation::new("R", 2);
        r2.push_edge(2, 20, 0.0);
        r2.push_edge(2, 30, 0.0);
        db.add(r2);
        assert_eq!(db.cached_indexes(), 1, "only S's index survives");
        let fresh = db.index("R", &[0]);
        assert!(!Arc::ptr_eq(&old, &fresh));
        assert!(fresh.lookup1(1).is_empty(), "stale key is gone");
        assert_eq!(fresh.lookup1(2), &[0, 1], "new data is indexed");
        // The old Arc still describes its snapshot (no use-after-free).
        assert_eq!(old.lookup1(1), &[0]);
    }

    #[test]
    fn replacing_a_dictionary_backed_relation_drops_index_and_stale_dictionary() {
        use crate::Schema;

        let mut db = Database::new();
        let mut r = Relation::with_schema("R", Schema::text_shared(2));
        r.push_text_edge("alice", "bob", 0.0); // alice=0, bob=1
        db.add(r);
        let old_index = db.index("R", &[0]);
        let old_dict = db.dictionary("R", 0).expect("text column");
        assert_eq!(db.decode("R", 0, 0).as_deref(), Some("alice"));
        assert_eq!(db.cached_indexes(), 1);

        // Replace R with a relation built over a *fresh* dictionary in which
        // the same ids mean different strings: both the cached index and the
        // old dictionary must stop being served.
        let mut r2 = Relation::with_schema("R", Schema::text_shared(2));
        r2.push_text_edge("carol", "dave", 0.0); // carol=0, dave=1
        r2.push_text_edge("carol", "erin", 0.0);
        db.add(r2);
        assert_eq!(db.cached_indexes(), 0, "stale index entry is dropped");
        let fresh_index = db.index("R", &[0]);
        assert!(!Arc::ptr_eq(&old_index, &fresh_index));
        assert_eq!(fresh_index.lookup1(0), &[0, 1], "new encoding is indexed");
        let fresh_dict = db.dictionary("R", 0).expect("text column");
        assert!(
            !Arc::ptr_eq(&old_dict, &fresh_dict),
            "stale dictionary gone"
        );
        assert_eq!(db.decode("R", 0, 0).as_deref(), Some("carol"));
        // The old handles still describe their snapshot (no use-after-free).
        assert_eq!(old_dict.decode(0).as_deref(), Some("alice"));
        assert_eq!(old_index.lookup1(0), &[0]);
    }

    #[test]
    fn eviction_never_serves_a_stale_index_after_replace() {
        // Regression: with an LRU bound small enough to churn entries, a
        // replace followed by arbitrary evictions must still always serve
        // indexes of the *current* relation contents.
        let mut db = Database::new();
        db.set_index_cache_capacity(2);
        let mut r = Relation::new("R", 2);
        r.push_edge(1, 10, 0.0);
        db.add(r);
        let mut s = Relation::new("S", 2);
        s.push_edge(7, 70, 0.0);
        db.add(s);

        let old = db.index("R", &[0]);
        assert_eq!(old.lookup1(1), &[0]);

        // Replace R, then thrash the cache well past its capacity.
        let mut r2 = Relation::new("R", 2);
        r2.push_edge(2, 20, 0.0);
        db.add(r2);
        for _ in 0..4 {
            db.index("S", &[0]);
            db.index("S", &[1]);
            db.index("R", &[1]);
        }
        assert!(db.cached_indexes() <= 2, "LRU bound holds");
        assert!(db.index_cache_stats().evictions > 0, "cache churned");

        // However the churn shuffled entries, R's index reflects the
        // replacement, never the pre-replace snapshot.
        let fresh = db.index("R", &[0]);
        assert!(fresh.lookup1(1).is_empty(), "stale key is gone");
        assert_eq!(fresh.lookup1(2), &[0], "new data is indexed");
        // The pre-replace handle still describes its own snapshot.
        assert_eq!(old.lookup1(1), &[0]);
    }

    #[test]
    fn cache_counters_track_hits_misses_and_capacity() {
        let mut db = Database::new();
        db.set_index_cache_capacity(8);
        let mut r = Relation::new("R", 2);
        r.push_edge(1, 10, 0.0);
        db.add(r);
        assert_eq!(db.index_cache_capacity(), 8);
        let before = db.index_cache_stats();
        db.index("R", &[0]); // miss
        db.index("R", &[0]); // hit
        db.index("R", &[1]); // miss
        let after = db.index_cache_stats();
        assert_eq!(after.misses - before.misses, 2);
        assert_eq!(after.hits - before.hits, 1);
        assert_eq!(after.entries, 2);
        assert_eq!(after.capacity, 8);
        assert!(after.hit_ratio() > 0.0);
    }

    #[test]
    #[should_panic(expected = "sealed")]
    fn sealed_database_rejects_mutation() {
        // Regression for the mutate-while-serving hole: before sealing,
        // replacing a relation on a served snapshot silently invalidated
        // cached indexes under live readers. Now it is a typed panic.
        let mut db = Database::new();
        let mut r = Relation::new("R", 1);
        r.push(Tuple::unweighted(vec![1]));
        db.add(r);
        db.seal();
        let mut r2 = Relation::new("R", 1);
        r2.push(Tuple::unweighted(vec![2]));
        db.add(r2); // must panic, not replace
    }

    #[test]
    fn seal_works_through_a_shared_handle_and_clones_are_unsealed() {
        let mut db = Database::new();
        db.add(Relation::new("R", 1));
        let shared = Arc::new(db);
        shared.seal(); // &self sealing, as a query service does at over()
        assert!(shared.is_sealed());
        let copy = shared.as_ref().clone();
        assert!(!copy.is_sealed(), "clones start unsealed");
    }

    #[test]
    fn apply_delta_builds_a_new_generation_without_touching_the_source() {
        let mut db = Database::new();
        let mut r = Relation::new("R", 2);
        r.push(Tuple::new(vec![1, 10], 1.0));
        r.push(Tuple::new(vec![2, 20], 2.0));
        r.push(Tuple::new(vec![3, 30], 3.0));
        db.add(r);
        let mut s = Relation::new("S", 1);
        s.push(Tuple::new(vec![9], 9.0));
        db.add(s);
        db.seal();

        let batch = crate::delta::DeltaBatch::new()
            .delete("R", 1)
            .insert("R", Tuple::new(vec![4, 40], 4.0));
        let next = db.apply_delta(&batch).expect("valid batch");

        // Source untouched, sealed, generation 0.
        assert_eq!(db.generation(), 0);
        assert_eq!(db.expect("R").len(), 3);
        // New snapshot: generation bumped, unsealed, survivors compacted.
        assert_eq!(next.generation(), 1);
        assert!(!next.is_sealed());
        let r = next.expect("R");
        assert_eq!(r.len(), 3);
        assert_eq!(r.tuple(0).values_vec(), vec![1, 10]);
        assert_eq!(r.tuple(1).values_vec(), vec![3, 30], "shifted past delete");
        assert_eq!(r.tuple(2).values_vec(), vec![4, 40], "insert appended");
        // Untouched relation is shared, not copied.
        assert!(Arc::ptr_eq(
            &db.get_shared("S").unwrap(),
            &next.get_shared("S").unwrap()
        ));
    }

    #[test]
    fn apply_delta_validates_before_building() {
        let mut db = Database::new();
        let mut r = Relation::new("R", 2);
        r.push(Tuple::new(vec![1, 10], 1.0));
        db.add(r);

        let unknown = crate::delta::DeltaBatch::new().delete("Q", 0);
        assert!(matches!(
            db.apply_delta(&unknown),
            Err(DeltaError::UnknownRelation(name)) if name == "Q"
        ));
        let bad_arity = crate::delta::DeltaBatch::new().insert("R", Tuple::new(vec![1], 0.0));
        assert!(matches!(
            db.apply_delta(&bad_arity),
            Err(DeltaError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            })
        ));
        let oob = crate::delta::DeltaBatch::new().delete("R", 5);
        assert!(matches!(
            db.apply_delta(&oob),
            Err(DeltaError::DeleteOutOfRange { tid: 5, len: 1, .. })
        ));
    }

    #[test]
    fn apply_delta_refuses_a_non_finite_weight() {
        let mut db = Database::new();
        let mut r = Relation::new("R", 2);
        r.push(Tuple::new(vec![1, 10], 1.0));
        db.add(r);
        for weight in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let batch = crate::delta::DeltaBatch::new()
                .insert("R", Tuple::new(vec![2, 20], 2.0))
                .insert("R", Tuple::new(vec![3, 30], weight));
            assert_eq!(
                db.apply_delta(&batch).err(),
                Some(DeltaError::NonFiniteWeight {
                    relation: "R".into(),
                    insert: 1,
                }),
                "{weight}"
            );
        }
        assert_eq!(db.expect("R").len(), 1);
    }

    #[test]
    fn apply_delta_keeps_untouched_slot_indexes_warm_and_drops_touched() {
        let mut db = Database::new();
        let mut r = Relation::new("R", 2);
        r.push_edge(1, 10, 0.0);
        db.add(r);
        let mut s = Relation::new("S", 2);
        s.push_edge(7, 70, 0.0);
        db.add(s);
        let r_index = db.index("R", &[0]);
        let s_index = db.index("S", &[0]);
        assert_eq!(db.cached_indexes(), 2);

        let batch = crate::delta::DeltaBatch::new().insert("R", Tuple::new(vec![2, 20], 0.0));
        let next = db.apply_delta(&batch).expect("valid batch");

        // Touched slot (R) dropped; untouched slot (S) carried warm across
        // the generation bump — same Arc, no rebuild.
        assert_eq!(next.cached_indexes(), 1);
        let s_again = next.index("S", &[0]);
        assert!(Arc::ptr_eq(&s_index, &s_again), "S stayed warm");
        let r_fresh = next.index("R", &[0]);
        assert!(!Arc::ptr_eq(&r_index, &r_fresh), "R was rebuilt");
        assert_eq!(r_fresh.lookup1(1), &[0]);
        assert_eq!(r_fresh.lookup1(2), &[1]);
        // The source database's own cache still serves its generation.
        assert!(Arc::ptr_eq(&db.index("R", &[0]), &r_index));
    }

    #[test]
    fn generation_keys_prevent_stale_index_reuse_across_rotation() {
        // Regression for slot reuse across rotations: slot indices restart
        // from 0 in a rebuilt database, so without the generation in the
        // cache key a warm clone of the old cache could serve generation-0
        // indexes for generation-1 data.
        let mut db = Database::new();
        let mut r = Relation::new("R", 2);
        r.push_edge(1, 10, 0.0);
        db.add(r);
        let old_index = db.index("R", &[0]);
        assert_eq!(old_index.lookup1(1), &[0]);

        // Rotate: same slot layout, different contents, warm cache clone.
        let mut rotated = db.clone();
        let mut r2 = Relation::new("R", 2);
        r2.push_edge(2, 20, 0.0);
        rotated.add(r2); // invalidates the touched slot...
        rotated.set_generation(db.generation() + 1); // ...and re-keys the rest

        let fresh = rotated.index("R", &[0]);
        assert!(!Arc::ptr_eq(&old_index, &fresh), "not the stale index");
        assert!(fresh.lookup1(1).is_empty());
        assert_eq!(fresh.lookup1(2), &[0]);
        // And the original still serves its own generation unharmed.
        assert!(Arc::ptr_eq(&db.index("R", &[0]), &old_index));
    }

    #[test]
    fn clone_keeps_cache_warm_and_consistent() {
        let mut db = Database::new();
        let mut r = Relation::new("R", 2);
        r.push_edge(5, 50, 0.0);
        db.add(r);
        db.index("R", &[0]);
        let cloned = db.clone();
        assert_eq!(cloned.cached_indexes(), 1);
        assert_eq!(cloned.index("R", &[0]).lookup1(5), &[0]);
    }
}
