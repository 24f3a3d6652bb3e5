//! A cursor's successor-structure index costs what the cursor touched. Over
//! path instances whose key space grows 64×, the index an enumerator
//! allocates after k answers stays within the size that the structures it
//! built need (the smallest power of two at a ¾ load, 16 at least), for
//! every anyK-part kind.

use anyk_core::dioid::TropicalMin;
use anyk_core::tdp::{NodeId, TdpBuilder, TdpInstance};
use anyk_core::{AnyKPart, SuccessorKind};
use rand::{rngs::SmallRng, Rng, SeedableRng};

const KINDS: [SuccessorKind; 4] = [
    SuccessorKind::Eager,
    SuccessorKind::Lazy,
    SuccessorKind::All,
    SuccessorKind::Take2,
];

/// A 4-stage path with `n` states per stage; each state continues to three
/// states of the next stage.
fn path(n: usize, seed: u64) -> TdpInstance<TropicalMin> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = TdpBuilder::<TropicalMin>::serial(4);
    let ids: Vec<Vec<NodeId>> = (1..=4)
        .map(|stage| {
            (0..n)
                .map(|_| b.add_state(stage, (rng.gen_range(0..1_000u32) as f64).into()))
                .collect()
        })
        .collect();
    for &s in &ids[0] {
        b.connect_root(s);
    }
    for w in ids.windows(2) {
        for (j, &a) in w[0].iter().enumerate() {
            for t in 0..3 {
                b.connect(a, w[1][(j * 7 + t * 131) % n]);
            }
        }
    }
    b.build()
}

/// The index size a ¾ load of `structures` entries needs: the bound the
/// index must stay within.
fn needed(structures: usize) -> usize {
    (4 * structures).div_ceil(3).next_power_of_two().max(16)
}

#[test]
fn the_index_is_sized_by_the_structures_touched() {
    let k = 200;
    let sizes = [2_000usize, 8_000, 32_000, 128_000];
    let mut key_space = Vec::new();
    let mut slots: Vec<Vec<usize>> = vec![Vec::new(); KINDS.len()];
    for &n in &sizes {
        let inst = path(n, n as u64);
        key_space.push(inst.num_slot_ids());
        for (i, kind) in KINDS.into_iter().enumerate() {
            let mut it = AnyKPart::new(&inst, kind);
            assert_eq!(it.by_ref().take(k).count(), k, "{kind:?}, n = {n}");
            let m = it.memory_stats();
            assert!(
                m.structure_table_slots <= needed(m.structures_allocated),
                "{kind:?}, n = {n}: {} index entries for {} structures",
                m.structure_table_slots,
                m.structures_allocated
            );
            slots[i].push(m.structure_table_slots);
        }
    }
    assert!(
        key_space[3] >= 60 * key_space[0],
        "the key space grows with n: {key_space:?}"
    );
    for (kind, per_n) in KINDS.iter().zip(&slots) {
        // Touched structures depend on the answers, not on n: at most one
        // doubling of slack between the smallest and the largest instance.
        assert!(
            per_n[3] <= 2 * per_n[0],
            "{kind:?}: index entries {per_n:?} over key spaces {key_space:?}"
        );
        assert!(
            per_n[3] * 64 <= key_space[3],
            "{kind:?}: index entries {per_n:?} over key spaces {key_space:?}"
        );
    }
}
