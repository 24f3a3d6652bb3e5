//! UT-DP: ranked enumeration over a **union** of T-DP problems (§5.2).
//!
//! A cyclic query is decomposed into a union of trees; each tree is compiled
//! into its own T-DP instance and enumerated independently. The union
//! enumerator merges the per-tree ranked streams through one top-level
//! priority queue — exactly the paper's `Union` structure. The simple-cycle
//! decomposition is disjoint (§5.3.1), so every answer comes from exactly
//! one tree and the merge keeps every item it is given.
//!
//! The enumerator is generic over `(key, item)` pairs: `key` is the ranking
//! weight and `item` whatever the caller needs to build the answer.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Heap entry: ordered by key, then by source index for determinism.
struct Entry<K, T> {
    key: K,
    source: usize,
    item: T,
}

impl<K: Ord, T> PartialEq for Entry<K, T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.source == other.source
    }
}
impl<K: Ord, T> Eq for Entry<K, T> {}
impl<K: Ord, T> PartialOrd for Entry<K, T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, T> Ord for Entry<K, T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .cmp(&other.key)
            .then_with(|| self.source.cmp(&other.source))
    }
}

/// Merges several ranked streams into one ranked stream.
///
/// Each source must itself yield `(key, item)` pairs in non-decreasing `key`
/// order; the merged stream is then globally non-decreasing.
pub struct UnionEnumerator<K, T, I>
where
    K: Ord,
    I: Iterator<Item = (K, T)>,
{
    sources: Vec<I>,
    heap: BinaryHeap<Reverse<Entry<K, T>>>,
    started: bool,
}

impl<K, T, I> UnionEnumerator<K, T, I>
where
    K: Ord,
    I: Iterator<Item = (K, T)>,
{
    /// Merge `sources`, which must be disjoint (such as the simple-cycle
    /// decomposition of §5.3.1): every item is kept.
    pub fn new(sources: Vec<I>) -> Self {
        UnionEnumerator {
            sources,
            heap: BinaryHeap::new(),
            started: false,
        }
    }

    /// The underlying source streams (exhausted sources stay in place), so
    /// a caller that built the union from stat-reporting sources can
    /// aggregate their live state — e.g. summing MEM(k) across the trees of
    /// a cycle decomposition mid-enumeration.
    pub fn sources(&self) -> &[I] {
        &self.sources
    }

    fn pull(&mut self, source: usize) {
        if let Some((key, item)) = self.sources[source].next() {
            self.heap.push(Reverse(Entry { key, source, item }));
        }
    }

    fn start(&mut self) {
        self.started = true;
        for i in 0..self.sources.len() {
            self.pull(i);
        }
    }
}

impl<K, T, I> Iterator for UnionEnumerator<K, T, I>
where
    K: Ord,
    I: Iterator<Item = (K, T)>,
{
    type Item = (K, T);

    fn next(&mut self) -> Option<Self::Item> {
        if !self.started {
            self.start();
        }
        let Reverse(entry) = self.heap.pop()?;
        self.pull(entry.source);
        Some((entry.key, entry.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_two_sorted_streams() {
        let a = vec![(1, "a1"), (4, "a4"), (6, "a6")];
        let b = vec![(2, "b2"), (3, "b3"), (7, "b7")];
        let merged: Vec<i32> = UnionEnumerator::new(vec![a.into_iter(), b.into_iter()])
            .map(|(k, _)| k)
            .collect();
        assert_eq!(merged, vec![1, 2, 3, 4, 6, 7]);
    }

    #[test]
    fn without_dedup_duplicates_are_kept() {
        let a = vec![(1, "x")];
        let b = vec![(1, "x")];
        let merged: Vec<&str> = UnionEnumerator::new(vec![a.into_iter(), b.into_iter()])
            .map(|(_, t)| t)
            .collect();
        assert_eq!(merged, vec!["x", "x"]);
    }

    #[test]
    fn empty_sources_are_fine() {
        let sources: Vec<std::vec::IntoIter<(i32, &str)>> =
            vec![Vec::new().into_iter(), vec![(3, "only")].into_iter()];
        let merged: Vec<&str> = UnionEnumerator::new(sources).map(|(_, t)| t).collect();
        assert_eq!(merged, vec!["only"]);
    }

    #[test]
    fn ordering_is_stable_across_many_sources() {
        let sources: Vec<std::vec::IntoIter<(i32, usize)>> = (0..5)
            .map(|i| {
                (0..10)
                    .map(|k| (k * 5 + i, i as usize))
                    .collect::<Vec<_>>()
                    .into_iter()
            })
            .collect();
        let merged: Vec<i32> = UnionEnumerator::new(sources).map(|(k, _)| k).collect();
        let mut expected = merged.clone();
        expected.sort();
        assert_eq!(merged, expected);
        assert_eq!(merged.len(), 50);
    }
}
