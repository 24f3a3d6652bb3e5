//! Property tests over randomly generated T-DP instances: every any-k
//! algorithm enumerates exactly the same solutions as the `Batch` baseline,
//! in non-decreasing weight order, and the optimum agrees with the DP
//! bottom-up phase and with brute force.

use anyk_core::dioid::{Dioid, OrderedF64, TropicalMin};
use anyk_core::tdp::{top1_solution, NodeId, StageId, TdpBuilder, TdpInstance};
use anyk_core::{ranked_enumerate, AnyKAlgorithm, AnyKPart, Recursive, Solution, SuccessorKind};
use proptest::prelude::*;

/// Description of a random serial instance: per-stage state weights and an
/// adjacency bitmap between consecutive stages.
#[derive(Debug, Clone)]
struct SerialSpec {
    stage_weights: Vec<Vec<u16>>,
    /// edges[i][a][b] — connect state a of stage i to state b of stage i+1.
    edges: Vec<Vec<Vec<bool>>>,
}

fn serial_spec(max_stages: usize, max_states: usize) -> impl Strategy<Value = SerialSpec> {
    (2..=max_stages, 1..=max_states).prop_flat_map(move |(stages, states)| {
        let weights =
            proptest::collection::vec(proptest::collection::vec(0u16..1000, 1..=states), stages);
        weights.prop_flat_map(move |stage_weights| {
            let sizes: Vec<usize> = stage_weights.iter().map(Vec::len).collect();
            let mut edge_strategies = Vec::new();
            for i in 0..sizes.len() - 1 {
                edge_strategies.push(proptest::collection::vec(
                    proptest::collection::vec(any::<bool>(), sizes[i + 1]),
                    sizes[i],
                ));
            }
            (Just(stage_weights), edge_strategies).prop_map(|(stage_weights, edges)| SerialSpec {
                stage_weights,
                edges,
            })
        })
    })
}

fn build_serial(spec: &SerialSpec) -> TdpInstance<TropicalMin> {
    let stages = spec.stage_weights.len();
    let mut b = TdpBuilder::<TropicalMin>::serial(stages);
    let mut ids: Vec<Vec<NodeId>> = Vec::new();
    for (i, ws) in spec.stage_weights.iter().enumerate() {
        ids.push(
            ws.iter()
                .map(|&w| b.add_state(i + 1, OrderedF64::from(w as f64)))
                .collect(),
        );
    }
    for &s in &ids[0] {
        b.connect_root(s);
    }
    for (i, matrix) in spec.edges.iter().enumerate() {
        for (a, row) in matrix.iter().enumerate() {
            for (c, &connected) in row.iter().enumerate() {
                if connected {
                    b.connect(ids[i][a], ids[i + 1][c]);
                }
            }
        }
    }
    b.build()
}

/// Brute-force all solutions by DFS over the raw spec.
fn brute_force(spec: &SerialSpec) -> Vec<f64> {
    let stages = spec.stage_weights.len();
    let mut out = Vec::new();
    let mut stack: Vec<(usize, usize, f64)> = (0..spec.stage_weights[0].len())
        .map(|s| (0usize, s, spec.stage_weights[0][s] as f64))
        .collect();
    while let Some((stage, state, weight)) = stack.pop() {
        if stage + 1 == stages {
            out.push(weight);
            continue;
        }
        for (next, &connected) in spec.edges[stage][state].iter().enumerate() {
            if connected {
                stack.push((
                    stage + 1,
                    next,
                    weight + spec.stage_weights[stage + 1][next] as f64,
                ));
            }
        }
    }
    out.sort_by(f64::total_cmp);
    out
}

fn weights(sols: &[Solution<TropicalMin>]) -> Vec<f64> {
    sols.iter().map(|s| s.weight.get()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_algorithms_agree_with_brute_force_on_serial_instances(
        spec in serial_spec(5, 5)
    ) {
        let inst = build_serial(&spec);
        let expected = brute_force(&spec);
        prop_assert_eq!(inst.count_solutions() as usize, expected.len());
        for alg in AnyKAlgorithm::ALL {
            let sols: Vec<Solution<TropicalMin>> = ranked_enumerate(&inst, alg).collect();
            let got = weights(&sols);
            prop_assert_eq!(got.len(), expected.len(), "cardinality, {}", alg);
            for (g, e) in got.iter().zip(&expected) {
                prop_assert!((g - e).abs() < 1e-9, "{}: {} vs {}", alg, g, e);
            }
            // Witnesses are unique.
            let mut states: Vec<Vec<NodeId>> = sols.iter().map(|s| s.states.clone()).collect();
            states.sort();
            states.dedup();
            prop_assert_eq!(states.len(), sols.len(), "duplicate witnesses from {}", alg);
        }
        // Top-1 agrees with the plain DP reconstruction.
        if let Some((_, w)) = top1_solution(&inst) {
            prop_assert!((w.get() - expected[0]).abs() < 1e-9);
        } else {
            prop_assert!(expected.is_empty());
        }
    }

    #[test]
    fn all_algorithms_agree_on_random_tree_instances(
        // A random two-level tree: a root stage with `branches` child stages,
        // random states everywhere, random edges root-stage -> each child.
        root_weights in proptest::collection::vec(0u16..100, 1..4),
        branch_specs in proptest::collection::vec(
            (proptest::collection::vec(0u16..100, 1..4), proptest::collection::vec(any::<bool>(), 1..16)),
            1..4
        )
    ) {
        let mut b = TdpBuilder::<TropicalMin>::new();
        let root_stage = b.add_stage_under_root("root", true);
        // Every stage before the first state: slot ids are fixed per stage.
        let leaf_stages: Vec<StageId> = (0..branch_specs.len())
            .map(|i| b.add_stage(&format!("leaf{i}"), root_stage, true))
            .collect();
        let roots: Vec<NodeId> = root_weights
            .iter()
            .map(|&w| b.add_state(root_stage.index(), OrderedF64::from(w as f64)))
            .collect();
        for &r in &roots {
            b.connect_root(r);
        }
        for (i, (leaf_weights, adjacency)) in branch_specs.iter().enumerate() {
            let stage = leaf_stages[i];
            let leaves: Vec<NodeId> = leaf_weights
                .iter()
                .map(|&w| b.add_state(stage.index(), OrderedF64::from(w as f64)))
                .collect();
            for (j, &r) in roots.iter().enumerate() {
                for (k, &l) in leaves.iter().enumerate() {
                    if adjacency[(j * leaves.len() + k) % adjacency.len()] {
                        b.connect(r, l);
                    }
                }
            }
        }
        let inst = b.build();
        let reference = weights(&ranked_enumerate(&inst, AnyKAlgorithm::Batch).collect::<Vec<_>>());
        prop_assert_eq!(inst.count_solutions() as usize, reference.len());
        for alg in AnyKAlgorithm::ALL {
            let got = weights(&ranked_enumerate(&inst, alg).collect::<Vec<_>>());
            prop_assert_eq!(got.len(), reference.len(), "cardinality, {}", alg);
            for (g, e) in got.iter().zip(&reference) {
                prop_assert!((g - e).abs() < 1e-9, "{}: {} vs {}", alg, g, e);
            }
            // Ranked order.
            for w in got.windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-9);
            }
        }
    }
}

/// Build a random star-shaped instance: one center stage under the root with
/// `branch_specs.len()` leaf branches hanging off it.
fn build_star(
    center_weights: &[u16],
    branch_specs: &[(Vec<u16>, Vec<bool>)],
) -> TdpInstance<TropicalMin> {
    let mut b = TdpBuilder::<TropicalMin>::new();
    let center_stage = b.add_stage_under_root("center", true);
    // Every stage before the first state: slot ids are fixed per stage.
    let leaf_stages: Vec<StageId> = (0..branch_specs.len())
        .map(|i| b.add_stage(&format!("leaf{i}"), center_stage, true))
        .collect();
    let centers: Vec<NodeId> = center_weights
        .iter()
        .map(|&w| b.add_state(center_stage.index(), OrderedF64::from(w as f64)))
        .collect();
    for &c in &centers {
        b.connect_root(c);
    }
    for (i, (leaf_weights, adjacency)) in branch_specs.iter().enumerate() {
        let stage = leaf_stages[i];
        let leaves: Vec<NodeId> = leaf_weights
            .iter()
            .map(|&w| b.add_state(stage.index(), OrderedF64::from(w as f64)))
            .collect();
        for (j, &c) in centers.iter().enumerate() {
            for (k, &l) in leaves.iter().enumerate() {
                if adjacency[(j * leaves.len() + k) % adjacency.len()] {
                    b.connect(c, l);
                }
            }
        }
    }
    b.build()
}

/// Per-variant weight sequences from the `anyk_part` family plus `anyk_rec`,
/// asserted identical (same multiset, same order) and non-decreasing.
fn assert_variants_agree(inst: &TdpInstance<TropicalMin>, label: &str) {
    let reference: Vec<OrderedF64> = Recursive::new(inst).map(|s| s.weight).collect();
    for w in reference.windows(2) {
        assert!(w[0] <= w[1], "{label}: Recursive not sorted");
    }
    for kind in [
        SuccessorKind::Eager,
        SuccessorKind::Lazy,
        SuccessorKind::All,
        SuccessorKind::Take2,
    ] {
        let got: Vec<OrderedF64> = AnyKPart::new(inst, kind).map(|s| s.weight).collect();
        assert_eq!(got, reference, "{label}: {kind:?} disagrees with Recursive");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite check for the CSR layout: all four `SuccessorKind` variants
    /// and `anyk_rec` emit identical non-decreasing weight sequences on
    /// randomized **star** instances (multi-branch trees — pending-branch
    /// completions in play) and on the chain shape of **cycle-6 workloads**
    /// (the simple-cycle decomposition of §5.3.1 compiles an ℓ-cycle into
    /// path-shaped trees of ℓ stages).
    #[test]
    fn successor_variants_and_rec_agree_on_star_and_cycle_shapes(
        center_weights in proptest::collection::vec(0u16..200, 1..4),
        branch_specs in proptest::collection::vec(
            (proptest::collection::vec(0u16..200, 1..4), proptest::collection::vec(any::<bool>(), 1..16)),
            2..4
        ),
        chain in serial_spec(6, 3)
    ) {
        let star = build_star(&center_weights, &branch_specs);
        assert_variants_agree(&star, "star");
        let cycle_chain = build_serial(&chain);
        assert_variants_agree(&cycle_chain, "cycle-chain");
    }

    /// The flat CSR accessors agree with a hand-built nested-vec oracle on
    /// random serial instances: successor lists are exactly the adjacency
    /// rows, choice sets are those rows restricted to states that can still
    /// complete a solution, `subtree_opt = 0̄` exactly for the pruned
    /// states, and `branch_opt` (keyed by dense slot id) equals the minimum
    /// value of the choice set.
    #[test]
    fn csr_accessors_agree_with_nested_vec_oracle(spec in serial_spec(5, 5)) {
        let stages = spec.stage_weights.len();
        let sizes: Vec<usize> = spec.stage_weights.iter().map(Vec::len).collect();

        // Oracle pruning for TropicalMin: a state is alive iff some suffix
        // path reaches the last stage (backwards reachability).
        let mut alive: Vec<Vec<bool>> = sizes.iter().map(|&n| vec![false; n]).collect();
        alive[stages - 1] = vec![true; sizes[stages - 1]];
        for i in (0..stages - 1).rev() {
            for a in 0..sizes[i] {
                alive[i][a] = spec.edges[i][a]
                    .iter()
                    .enumerate()
                    .any(|(b, &connected)| connected && alive[i + 1][b]);
            }
        }

        let inst = build_serial(&spec);
        // Recover the NodeIds per stage in insertion order (states were added
        // stage-major in build_serial, after the root node 0).
        let mut next_id = 1u32;
        let ids: Vec<Vec<NodeId>> = sizes
            .iter()
            .map(|&n| (0..n).map(|_| { let id = NodeId(next_id); next_id += 1; id }).collect())
            .collect();

        // Hand-built nested-vec oracle of the adjacency and the choice sets.
        for i in 0..stages {
            for a in 0..sizes[i] {
                let nid = ids[i][a];
                prop_assert_eq!(
                    *inst.subtree_opt(nid) != TropicalMin::zero(),
                    alive[i][a],
                    "aliveness of stage {} state {}", i, a
                );
                if i + 1 == stages {
                    continue;
                }
                let row: Vec<usize> = spec.edges[i][a]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &connected)| connected)
                    .map(|(b, _)| b)
                    .collect();
                let successors: Vec<NodeId> = row.iter().map(|&b| ids[i + 1][b]).collect();
                prop_assert_eq!(
                    inst.successors(nid, 0),
                    successors.as_slice(),
                    "successors of stage {} state {}", i, a
                );
                // A pruned state has no live successor, so its choice set is
                // empty too.
                let live: Vec<NodeId> = row
                    .iter()
                    .filter(|&&b| alive[i + 1][b])
                    .map(|&b| ids[i + 1][b])
                    .collect();
                let choices: Vec<NodeId> = inst.choices(nid, 0).map(|(t, _)| t).collect();
                prop_assert_eq!(choices, live, "choices of stage {} state {}", i, a);
                // branch_opt (slot-id keyed) is the min choice value.
                let expected_branch = inst
                    .choices(nid, 0)
                    .map(|(_, v)| v)
                    .min()
                    .unwrap_or_else(TropicalMin::zero);
                prop_assert_eq!(
                    inst.branch_opt(nid, 0).clone(),
                    expected_branch,
                    "branch_opt of stage {} state {}", i, a
                );
            }
        }
        // Root successors: every first-stage state; its choices: the alive
        // ones.
        prop_assert_eq!(inst.successors(NodeId::ROOT, 0), ids[0].as_slice());
        let root_oracle: Vec<NodeId> = (0..sizes[0]).filter(|&a| alive[0][a]).map(|a| ids[0][a]).collect();
        let root_choices: Vec<NodeId> = inst.choices(NodeId::ROOT, 0).map(|(t, _)| t).collect();
        prop_assert_eq!(root_choices, root_oracle);
        // Dense slot ids: exactly one per non-leaf state (incl. root), in order.
        let non_leaf_states = 1 + sizes[..stages - 1].iter().sum::<usize>();
        prop_assert_eq!(inst.num_slot_ids(), non_leaf_states);
    }
}

#[test]
fn take_k_is_a_prefix_of_the_full_enumeration() {
    // Deterministic check that early termination (the any-k use case) yields
    // exactly the prefix of the full ranked output.
    let mut b = TdpBuilder::<TropicalMin>::serial(3);
    let mut prev: Vec<NodeId> = Vec::new();
    for stage in 1..=3usize {
        let ids: Vec<NodeId> = (0..6)
            .map(|i| b.add_state(stage, OrderedF64::from(((i * 7 + stage * 3) % 11) as f64)))
            .collect();
        if stage == 1 {
            for &s in &ids {
                b.connect_root(s);
            }
        } else {
            for (i, &p) in prev.iter().enumerate() {
                for (j, &c) in ids.iter().enumerate() {
                    if (i + j) % 2 == 0 {
                        b.connect(p, c);
                    }
                }
            }
        }
        prev = ids;
    }
    let inst = b.build();
    let full: Vec<f64> = ranked_enumerate(&inst, AnyKAlgorithm::Take2)
        .map(|s| s.weight.get())
        .collect();
    for k in [1usize, 5, 20] {
        let prefix: Vec<f64> = ranked_enumerate(&inst, AnyKAlgorithm::Take2)
            .take(k)
            .map(|s| s.weight.get())
            .collect();
        assert_eq!(prefix, full[..k.min(full.len())].to_vec());
    }
}
