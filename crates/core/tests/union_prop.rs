//! Property tests for the UT-DP union merge (§5.2): partitioning a ranked
//! stream across sources and merging it back through [`UnionEnumerator`] is
//! the identity, no matter how the items are split — including duplicate
//! keys (tied weights) and empty sources. This is the algebra the cycle
//! decomposition's union of tree plans (`anyk_engine::RankedQuery`) stands on.

use anyk_core::UnionEnumerator;
use proptest::prelude::*;

/// One ranked item: a coarse weight (small range so ties are common) and an
/// identity payload. The merge key is `(weight, id)`, a total order under
/// which bit-identity is well-defined even with tied weights.
type Item = (u16, u32);

fn merged_via_union(items: &[Item], assignment: &[usize], sources: usize) -> Vec<Item> {
    let mut parts: Vec<Vec<Item>> = vec![Vec::new(); sources];
    for (item, &source) in items.iter().zip(assignment) {
        parts[source % sources].push(*item);
    }
    // Each source stream must itself be ranked, like a tree plan's stream.
    for p in &mut parts {
        p.sort();
    }
    let streams: Vec<_> = parts
        .into_iter()
        .map(|p| p.into_iter().map(|it| (it, it)))
        .collect();
    UnionEnumerator::new(streams).map(|(_, it)| it).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Merging any random partition of a ranked stream reproduces the
    /// single-source stream exactly.
    #[test]
    fn any_partition_merges_back_to_the_single_source_stream(
        items in proptest::collection::vec((0u16..8, 0u32..1000), 0..60),
        assignment in proptest::collection::vec(0usize..7, 60),
        sources in 1usize..7,
    ) {
        let mut single = items.clone();
        single.sort();
        let merged = merged_via_union(&items, &assignment[..items.len()], sources);
        prop_assert_eq!(merged, single);
    }

    /// Degenerate partitions behave too: everything on one source of many
    /// (every other source empty) and one item per source.
    #[test]
    fn empty_and_singleton_sources_are_harmless(
        items in proptest::collection::vec((0u16..4, 0u32..100), 0..20),
        sources in 2usize..9,
    ) {
        let mut single = items.clone();
        single.sort();
        let all_on_one = vec![sources - 1; items.len()];
        prop_assert_eq!(merged_via_union(&items, &all_on_one, sources), single.clone());
        let spread: Vec<usize> = (0..items.len()).collect();
        prop_assert_eq!(merged_via_union(&items, &spread, sources), single);
    }
}
