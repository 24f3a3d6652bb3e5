//! Enumerators over one instance share the root's successor structures
//! (built once, by whichever enumerator gets there first). Sharing must be
//! invisible: the N-th stream over an instance is the first one again, bit
//! for bit, whichever algorithm built the cache and however many threads
//! raced to.

use anyk_core::dioid::TropicalMin;
use anyk_core::tdp::{NodeId, TdpBuilder, TdpInstance};
use anyk_core::{ranked_enumerate, AnyKAlgorithm};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::Barrier;

/// A 3-stage path with a wide first stage (the root's choice set) and
/// plenty of weight ties.
fn wide_path(seed: u64) -> TdpInstance<TropicalMin> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = TdpBuilder::<TropicalMin>::serial(3);
    let sizes = [300usize, 12, 12];
    let mut ids: Vec<Vec<NodeId>> = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        ids.push(
            (0..n)
                .map(|_| b.add_state(i + 1, (rng.gen_range(0..40u32) as f64).into()))
                .collect(),
        );
    }
    for &s in &ids[0] {
        b.connect_root(s);
    }
    for i in 0..2 {
        for &a in &ids[i] {
            for &c in &ids[i + 1] {
                if rng.gen_bool(0.3) {
                    b.connect(a, c);
                }
            }
        }
    }
    b.build()
}

/// The first `k` answers as (weight bits, states).
fn stream(
    inst: &TdpInstance<TropicalMin>,
    alg: AnyKAlgorithm,
    k: usize,
) -> Vec<(u64, Vec<NodeId>)> {
    ranked_enumerate(inst, alg)
        .take(k)
        .map(|s| (s.weight.get().to_bits(), s.states))
        .collect()
}

#[test]
fn the_nth_cursor_streams_what_the_first_did() {
    for alg in AnyKAlgorithm::ALL {
        // A fresh instance per algorithm, so its first cursor fills the cache.
        let inst = wide_path(7);
        let first = stream(&inst, alg, 2_000);
        assert!(first.len() > 500, "{alg}: enough answers to mean something");
        for n in 2..=4 {
            assert_eq!(stream(&inst, alg, 2_000), first, "{alg}: cursor {n}");
        }
        // A cursor suspended mid-stream while others open and finish.
        let mut suspended = ranked_enumerate(&inst, alg);
        let mut got: Vec<_> = suspended
            .by_ref()
            .take(100)
            .map(|s| (s.weight.get().to_bits(), s.states))
            .collect();
        assert_eq!(
            stream(&inst, alg, 2_000),
            first,
            "{alg}: beside a suspended one"
        );
        got.extend(
            suspended
                .take(1_900)
                .map(|s| (s.weight.get().to_bits(), s.states)),
        );
        assert_eq!(got, first, "{alg}: the suspended cursor itself");
    }
}

#[test]
fn cursors_racing_to_fill_the_cache_all_stream_the_same() {
    for alg in AnyKAlgorithm::ALL {
        let expected = stream(&wide_path(19), alg, 1_000);
        // A second, identical instance whose cache is still empty.
        let inst = wide_path(19);
        let barrier = Barrier::new(8);
        let streams: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        stream(&inst, alg, 1_000)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("enumeration thread"))
                .collect()
        });
        for (t, got) in streams.iter().enumerate() {
            assert_eq!(got, &expected, "{alg}: thread {t}");
        }
    }
}
