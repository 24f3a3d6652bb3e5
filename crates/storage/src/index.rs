//! Hash indexes for constant-time equi-join lookups.
//!
//! The cost model of §2.3 assumes "a data structure that can be built in
//! linear time to support tuple lookups in constant time". [`HashIndex`]
//! groups the tuple ids of a relation by the values of a chosen key (one or
//! more columns).
//!
//! ## Layout and allocation-free probing
//!
//! The index is fully flat (CSR-style), in line with the cache-conscious
//! layout used by the T-DP core:
//!
//! * `table` — an open-addressing (linear-probing) table of group ids,
//!   power-of-two sized;
//! * `group_keys` — all distinct keys, flattened: group `g`'s key occupies
//!   `group_keys[g·k .. (g+1)·k]` where `k` is the key arity;
//! * `group_offsets` / `group_tids` — the tuple ids of each group,
//!   contiguous, in relation insertion order;
//! * `tuple_groups` — the group id of **every indexed row**, kept from the
//!   build pass. Consumers that walk the indexed rows themselves (the
//!   engine's value-node loop) read their group with a single array access —
//!   no re-hashing of rows that the build already hashed.
//!
//! An index covers every row of its relation, or only a list of them
//! ([`HashIndex::build_rows`], the engine's index over a selected parent):
//! one builder serves both, and the listed rows keep their tuple ids.
//!
//! Construction reads the relation **column-wise**: the key columns are
//! borrowed once as contiguous slices and each per-tuple hash gathers from
//! them directly, so the build is a sequential scan per key column. Every
//! probe path hashes the key columns directly from borrowed data — a
//! caller-provided key slice ([`HashIndex::lookup`]), a row of another
//! relation addressed by tuple id ([`HashIndex::group_of_row_in`]), an
//! intermediate row slice ([`HashIndex::lookup_cols`]), or a single value for
//! single-column keys ([`HashIndex::lookup1`], the fast path used by the
//! engine's equi-join compilation). No probe allocates.

use crate::relation::Relation;
use crate::tuple::{TupleId, Value};

/// Marker for an empty open-addressing bucket.
const EMPTY: u32 = u32::MAX;

/// Multiplier of the FxHash/wyhash family; one multiply per key column gives
/// a well-mixed 64-bit hash for the integer join keys used here.
const HASH_K: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn mix(h: u64, v: Value) -> u64 {
    (h ^ v).wrapping_mul(HASH_K).rotate_left(23)
}

#[inline]
fn finish(h: u64) -> u64 {
    let h = h ^ (h >> 31);
    h.wrapping_mul(HASH_K)
}

/// Hash a single-column key.
#[inline]
fn hash1(v: Value) -> u64 {
    finish(mix(!0, v))
}

/// Hash a multi-column key given by an iterator over its values.
#[inline]
fn hash_key(values: impl Iterator<Item = Value>) -> u64 {
    let mut h = !0u64;
    for v in values {
        h = mix(h, v);
    }
    finish(h)
}

/// A hash index over one or more columns of a relation.
#[derive(Debug, Clone)]
pub struct HashIndex {
    key_columns: Vec<usize>,
    /// Open-addressing table of group ids (`EMPTY` = free bucket).
    table: Vec<u32>,
    /// `table.len() - 1`; the table is power-of-two sized.
    mask: usize,
    /// Flattened distinct keys, `key_columns.len()` values per group.
    group_keys: Vec<Value>,
    /// CSR offsets into `group_tids`, one entry per group plus a sentinel.
    group_offsets: Vec<u32>,
    /// Tuple ids, grouped by key, in relation insertion order.
    group_tids: Vec<TupleId>,
    /// The group id of every indexed row, by position in the row list (the
    /// tuple id itself for an index over every row; build-pass output).
    tuple_groups: Vec<u32>,
    /// Cached maximum group size.
    max_bucket: usize,
}

impl HashIndex {
    /// Build an index over `key_columns` of every row of `relation`, in a
    /// single pass of sequential column scans.
    ///
    /// # Panics
    /// Panics if any key column is out of range for the relation's arity.
    pub fn build(relation: &Relation, key_columns: &[usize]) -> Self {
        Self::build_rows(relation, key_columns, None)
    }

    /// Build an index over `key_columns` of the listed rows of `relation`
    /// only: `rows` holds ascending tuple ids, and `None` lists every row.
    /// Groups, lookups and probes then see just those rows, under their
    /// tuple ids in `relation`; [`HashIndex::group_of_tuple`] is addressed by
    /// position in the list.
    ///
    /// # Panics
    /// Panics if any key column is out of range for the relation's arity.
    pub fn build_rows(
        relation: &Relation,
        key_columns: &[usize],
        rows: Option<&[TupleId]>,
    ) -> Self {
        // Chaos-testing hook; a no-op unless a fault plan is armed.
        anyk_core::faults::checkpoint("storage.index_build");
        let _span = anyk_obs::phase::span(anyk_obs::Phase::IndexBuild);
        for &c in key_columns {
            assert!(
                c < relation.arity(),
                "key column {c} out of range for relation {} (arity {})",
                relation.name(),
                relation.arity()
            );
        }
        let k = key_columns.len();
        let n = rows.map_or(relation.len(), <[TupleId]>::len);
        // Group ids and CSR offsets are u32; groups ≤ tuples, so bounding the
        // tuple count keeps every narrowing cast below exact.
        assert!(
            n < u32::MAX as usize,
            "relation {} exceeds u32 index space ({n} tuples)",
            relation.name()
        );
        let capacity = (n * 2).next_power_of_two().max(4);
        let mut index = HashIndex {
            key_columns: key_columns.to_vec(),
            table: vec![EMPTY; capacity],
            mask: capacity - 1,
            group_keys: Vec::new(),
            group_offsets: Vec::new(),
            group_tids: Vec::with_capacity(n),
            tuple_groups: Vec::with_capacity(n),
            max_bucket: 0,
        };

        // Pass 1: assign a group id to every listed row, discovering
        // distinct keys; count group sizes. The columnar layout lets the key
        // be hashed straight out of the borrowed column slices.
        let mut group_sizes: Vec<u32> = Vec::new();
        if k == 1 {
            // Single-column fast path: one scan of the key column.
            let col = relation.column(key_columns[0]);
            match rows {
                None => index.group_values(col.iter().copied(), &mut group_sizes),
                Some(rows) => index.group_values(rows.iter().map(|&t| col[t]), &mut group_sizes),
            }
        } else {
            let cols: Vec<&[Value]> = key_columns.iter().map(|&c| relation.column(c)).collect();
            match rows {
                None => index.group_rows(&cols, 0..n, &mut group_sizes),
                Some(rows) => index.group_rows(&cols, rows.iter().copied(), &mut group_sizes),
            }
        }

        // Pass 2: prefix-sum the sizes and scatter tuple ids; scattering in
        // list order keeps each group in relation insertion order.
        let num_groups = group_sizes.len();
        index.group_offsets = Vec::with_capacity(num_groups + 1);
        let mut acc = 0u32;
        for &size in &group_sizes {
            index.group_offsets.push(acc);
            acc += size;
            index.max_bucket = index.max_bucket.max(size as usize);
        }
        index.group_offsets.push(acc);
        index.group_tids.resize(acc as usize, 0);
        let mut cursor: Vec<u32> = index.group_offsets[..num_groups].to_vec();
        for (i, &g) in index.tuple_groups.iter().enumerate() {
            index.group_tids[cursor[g as usize] as usize] = rows.map_or(i, |rows| rows[i]);
            cursor[g as usize] += 1;
        }
        index
    }

    /// Pass 1 of a single-column build: the group of each key value, in
    /// list order.
    fn group_values(&mut self, values: impl Iterator<Item = Value>, group_sizes: &mut Vec<u32>) {
        for v in values {
            let mut bucket = hash1(v) as usize & self.mask;
            let g = loop {
                match self.table[bucket] {
                    EMPTY => {
                        let g = group_sizes.len() as u32;
                        self.table[bucket] = g;
                        self.group_keys.push(v);
                        group_sizes.push(0);
                        break g;
                    }
                    g => {
                        if self.group_keys[g as usize] == v {
                            break g;
                        }
                        bucket = (bucket + 1) & self.mask;
                    }
                }
            };
            group_sizes[g as usize] += 1;
            self.tuple_groups.push(g);
        }
    }

    /// Pass 1 of a multi-column build: the group of each listed row's key,
    /// gathered from the key columns `cols`.
    fn group_rows(
        &mut self,
        cols: &[&[Value]],
        tids: impl Iterator<Item = TupleId>,
        group_sizes: &mut Vec<u32>,
    ) {
        let k = cols.len();
        for tid in tids {
            let hash = hash_key(cols.iter().map(|col| col[tid]));
            let mut bucket = hash as usize & self.mask;
            let g = loop {
                match self.table[bucket] {
                    EMPTY => {
                        let g = group_sizes.len() as u32;
                        self.table[bucket] = g;
                        self.group_keys.extend(cols.iter().map(|col| col[tid]));
                        group_sizes.push(0);
                        break g;
                    }
                    g => {
                        let key = &self.group_keys[g as usize * k..(g as usize + 1) * k];
                        if cols.iter().zip(key).all(|(col, &kv)| col[tid] == kv) {
                            break g;
                        }
                        bucket = (bucket + 1) & self.mask;
                    }
                }
            };
            group_sizes[g as usize] += 1;
            self.tuple_groups.push(g);
        }
    }

    /// The columns this index is keyed on.
    pub fn key_columns(&self) -> &[usize] {
        &self.key_columns
    }

    /// Number of distinct keys (groups).
    pub fn num_groups(&self) -> usize {
        self.group_offsets.len().saturating_sub(1)
    }

    /// The group id of the `i`-th indexed row — tuple `i` of the relation
    /// for an index over every row, the list's `i`-th entry for one from
    /// [`HashIndex::build_rows`]. A single array read, no hashing: the fast
    /// path for consumers that walk the indexed rows in order (the engine's
    /// value-node loop).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn group_of_tuple(&self, i: usize) -> usize {
        self.tuple_groups[i] as usize
    }

    /// Probe the table with a precomputed hash; `matches` checks a candidate
    /// group id against the probed key.
    #[inline]
    fn probe(&self, hash: u64, matches: impl Fn(usize) -> bool) -> Option<usize> {
        let mut bucket = hash as usize & self.mask;
        loop {
            match self.table[bucket] {
                EMPTY => return None,
                g => {
                    if matches(g as usize) {
                        return Some(g as usize);
                    }
                    bucket = (bucket + 1) & self.mask;
                }
            }
        }
    }

    /// The group whose key equals `key`, if any. Allocation-free.
    pub fn group_of(&self, key: &[Value]) -> Option<usize> {
        debug_assert_eq!(key.len(), self.key_columns.len());
        let k = key.len();
        self.probe(hash_key(key.iter().copied()), |g| {
            &self.group_keys[g * k..(g + 1) * k] == key
        })
    }

    /// The group matching the key columns `cols` of the full row `row`
    /// (allocation-free: the key is never materialised). `cols` must have the
    /// index's key arity but may name different columns — this is the
    /// equi-join probe, where the child side's key positions differ from the
    /// indexed parent side's.
    pub fn group_of_cols(&self, row: &[Value], cols: &[usize]) -> Option<usize> {
        debug_assert_eq!(cols.len(), self.key_columns.len());
        let k = cols.len();
        self.probe(hash_key(cols.iter().map(|&c| row[c])), |g| {
            self.group_keys[g * k..(g + 1) * k]
                .iter()
                .zip(cols)
                .all(|(&kv, &c)| kv == row[c])
        })
    }

    /// The group matching columns `cols` of row `tid` of `relation` — the
    /// columnar analogue of [`HashIndex::group_of_cols`], gathering the key
    /// from `relation`'s column slices without materialising the row.
    pub fn group_of_row_in(
        &self,
        relation: &Relation,
        tid: TupleId,
        cols: &[usize],
    ) -> Option<usize> {
        debug_assert_eq!(cols.len(), self.key_columns.len());
        let k = cols.len();
        self.probe(
            hash_key(cols.iter().map(|&c| relation.column(c)[tid])),
            |g| {
                self.group_keys[g * k..(g + 1) * k]
                    .iter()
                    .zip(cols)
                    .all(|(&kv, &c)| kv == relation.column(c)[tid])
            },
        )
    }

    /// The group matching the index's own key columns of the full row `row`.
    pub fn group_of_row(&self, row: &[Value]) -> Option<usize> {
        self.group_of_cols(row, &self.key_columns)
    }

    /// Single-column fast path: the group whose one-column key equals `v`.
    ///
    /// # Panics
    /// Debug-asserts that the index is keyed on exactly one column.
    #[inline]
    pub fn group_of1(&self, v: Value) -> Option<usize> {
        debug_assert_eq!(self.key_columns.len(), 1);
        self.probe(hash1(v), |g| self.group_keys[g] == v)
    }

    /// The key and tuple ids of group `g`.
    pub fn group(&self, g: usize) -> (&[Value], &[TupleId]) {
        let k = self.key_columns.len();
        (
            &self.group_keys[g * k..(g + 1) * k],
            &self.group_tids[self.group_offsets[g] as usize..self.group_offsets[g + 1] as usize],
        )
    }

    /// The tuple ids of group `g`.
    #[inline]
    pub fn group_tuples(&self, g: usize) -> &[TupleId] {
        &self.group_tids[self.group_offsets[g] as usize..self.group_offsets[g + 1] as usize]
    }

    /// Tuple ids whose key equals `key` (empty slice if none).
    pub fn lookup(&self, key: &[Value]) -> &[TupleId] {
        match self.group_of(key) {
            Some(g) => self.group_tuples(g),
            None => &[],
        }
    }

    /// Tuple ids matching the key columns `cols` of the full row `row`.
    pub fn lookup_cols(&self, row: &[Value], cols: &[usize]) -> &[TupleId] {
        match self.group_of_cols(row, cols) {
            Some(g) => self.group_tuples(g),
            None => &[],
        }
    }

    /// Tuple ids whose key (the index's own key columns) matches `row`.
    pub fn lookup_row(&self, row: &[Value]) -> &[TupleId] {
        match self.group_of_row(row) {
            Some(g) => self.group_tuples(g),
            None => &[],
        }
    }

    /// Single-column fast path of [`HashIndex::lookup`].
    #[inline]
    pub fn lookup1(&self, v: Value) -> &[TupleId] {
        match self.group_of1(v) {
            Some(g) => self.group_tuples(g),
            None => &[],
        }
    }

    /// Whether any tuple has the given key.
    pub fn contains(&self, key: &[Value]) -> bool {
        self.group_of(key).is_some()
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.num_groups()
    }

    /// Iterate over `(key, tuple ids)` groups.
    pub fn groups(&self) -> impl Iterator<Item = (&[Value], &[TupleId])> {
        (0..self.num_groups()).map(|g| self.group(g))
    }

    /// The largest bucket size — the maximum "degree" of a key value, used by
    /// the heavy/light threshold analysis of §5.3.1.
    pub fn max_bucket(&self) -> usize {
        self.max_bucket
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    fn sample() -> Relation {
        let mut r = Relation::new("E", 2);
        r.push(Tuple::new(vec![1, 10], 0.0));
        r.push(Tuple::new(vec![1, 20], 0.0));
        r.push(Tuple::new(vec![2, 10], 0.0));
        r
    }

    #[test]
    fn single_column_lookup() {
        let r = sample();
        let idx = HashIndex::build(&r, &[0]);
        assert_eq!(idx.lookup(&[1]), &[0, 1]);
        assert_eq!(idx.lookup(&[2]), &[2]);
        assert!(idx.lookup(&[3]).is_empty());
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.max_bucket(), 2);
        // The single-column fast path agrees.
        assert_eq!(idx.lookup1(1), &[0, 1]);
        assert_eq!(idx.lookup1(2), &[2]);
        assert!(idx.lookup1(7).is_empty());
    }

    #[test]
    fn multi_column_lookup() {
        let r = sample();
        let idx = HashIndex::build(&r, &[0, 1]);
        assert_eq!(idx.lookup(&[1, 20]), &[1]);
        assert!(idx.contains(&[2, 10]));
        assert!(!idx.contains(&[2, 20]));
        assert_eq!(idx.distinct_keys(), 3);
    }

    #[test]
    fn row_and_column_probes_agree_with_key_probes() {
        let r = sample();
        let idx = HashIndex::build(&r, &[1]);
        // lookup_row extracts the index's key columns from a full row.
        assert_eq!(idx.lookup_row(&[9, 10]), idx.lookup(&[10]));
        // lookup_cols probes via caller-chosen columns of the row.
        assert_eq!(idx.lookup_cols(&[20, 99], &[0]), idx.lookup(&[20]));
        assert!(idx.lookup_cols(&[99, 0], &[0]).is_empty());
    }

    #[test]
    fn tuple_groups_match_probes() {
        let r = sample();
        for key in [&[0usize][..], &[1], &[0, 1]] {
            let idx = HashIndex::build(&r, key);
            for (tid, t) in r.iter() {
                let key_vals: Vec<Value> = key.iter().map(|&c| t.value(c)).collect();
                assert_eq!(
                    idx.group_of_tuple(tid),
                    idx.group_of(&key_vals).expect("indexed tuple has a group"),
                    "key {key:?} tuple {tid}"
                );
                assert_eq!(
                    idx.group_of_row_in(&r, tid, key),
                    Some(idx.group_of_tuple(tid))
                );
            }
        }
    }

    #[test]
    fn groups_cover_every_tuple_in_insertion_order() {
        let r = sample();
        let idx = HashIndex::build(&r, &[0]);
        let mut seen: Vec<TupleId> = Vec::new();
        for (key, tids) in idx.groups() {
            assert_eq!(key.len(), 1);
            assert!(tids.windows(2).all(|w| w[0] < w[1]), "insertion order");
            seen.extend_from_slice(tids);
        }
        seen.sort();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn empty_key_groups_everything_together() {
        let r = sample();
        let idx = HashIndex::build(&r, &[]);
        assert_eq!(idx.num_groups(), 1);
        assert_eq!(idx.lookup(&[]), &[0, 1, 2]);
    }

    #[test]
    fn empty_relation_has_no_groups() {
        let r = Relation::new("E", 2);
        let idx = HashIndex::build(&r, &[0]);
        assert_eq!(idx.num_groups(), 0);
        assert!(idx.lookup(&[1]).is_empty());
    }

    #[test]
    fn collisions_are_resolved_by_key_comparison() {
        // Enough keys to force open-addressing collisions in a small table.
        let mut r = Relation::new("big", 1);
        for v in 0..1000u64 {
            r.push(Tuple::new(vec![v * 7919], 0.0));
        }
        let idx = HashIndex::build(&r, &[0]);
        assert_eq!(idx.distinct_keys(), 1000);
        for v in 0..1000u64 {
            assert_eq!(idx.lookup1(v * 7919), &[v as usize]);
            assert!(idx.lookup1(v * 7919 + 1).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_column_panics() {
        HashIndex::build(&sample(), &[5]);
    }
}
