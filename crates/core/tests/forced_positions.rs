//! Forced serial positions. A position is forced when every row of its
//! parent stage into it holds at most one decision, as the equi-join
//! encoding makes every link from a tuple into its value node. anyK-part
//! follows such a position by reading the row's one entry and builds no
//! successor structure for it. That must change no stream, ties included,
//! and it is what `structures_allocated` counts.
//!
//! The instances are random serial, star and tree instances built with
//! `connect`, in which some stages receive exactly one decision per parent
//! state, under weights drawn from `0..3` so that most answers tie.

use anyk_core::dioid::TropicalMin;
use anyk_core::tdp::{apply_patch, NodeId, StageId, TdpBuilder, TdpInstance, TdpPatch};
use anyk_core::{AnyKPart, Batch, SuccessorKind};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::collections::BTreeSet;

const KINDS: [SuccessorKind; 4] = [
    SuccessorKind::Eager,
    SuccessorKind::Lazy,
    SuccessorKind::All,
    SuccessorKind::Take2,
];

/// Random instances per shape.
const SEEDS: u64 = 200;

/// Stage trees as `parents[i]`, the parent of stage `i + 1` (`0` is the
/// root stage), each with the stages that receive exactly one decision per
/// parent state.
const SHAPES: [(&str, &[usize], &[bool]); 3] = [
    (
        "serial",
        &[0, 1, 2, 3, 4],
        &[false, true, false, true, false],
    ),
    ("star", &[0, 1, 1, 1], &[false, true, false, true]),
    (
        "tree",
        &[0, 1, 1, 2, 3, 2],
        &[false, true, false, false, true, true],
    ),
];

/// An instance as the calls that build it: states `(stage, weight)` in id
/// order (the `i`-th is `NodeId(i + 1)`), and decisions in `connect` order.
#[derive(Debug, Clone)]
struct Spec {
    parents: Vec<usize>,
    states: Vec<(usize, u32)>,
    edges: Vec<(NodeId, NodeId)>,
}

impl Spec {
    /// Stage `i` gets 1 to 5 states. A stage under the root is connected to
    /// `s₀` in full; a `forced` stage gets exactly one decision from every
    /// parent state, any other stage each decision with probability 0.6.
    fn random(parents: &[usize], forced: &[bool], seed: u64) -> Spec {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut states = Vec::new();
        let mut of_stage: Vec<Vec<NodeId>> = vec![vec![NodeId::ROOT]];
        for stage in 1..=parents.len() {
            let ids = (0..rng.gen_range(1..6usize))
                .map(|_| {
                    states.push((stage, rng.gen_range(0..3u32)));
                    NodeId(states.len() as u32)
                })
                .collect();
            of_stage.push(ids);
        }
        let mut edges = Vec::new();
        for (i, &parent) in parents.iter().enumerate() {
            let children = &of_stage[i + 1];
            for &p in &of_stage[parent] {
                if parent == 0 {
                    edges.extend(children.iter().map(|&c| (p, c)));
                } else if forced[i] {
                    edges.push((p, children[rng.gen_range(0..children.len())]));
                } else {
                    edges.extend(
                        children
                            .iter()
                            .filter(|_| rng.gen_bool(0.6))
                            .map(|&c| (p, c)),
                    );
                }
            }
        }
        Spec {
            parents: parents.to_vec(),
            states,
            edges,
        }
    }

    fn build(&self, retain: bool) -> TdpInstance<TropicalMin> {
        let mut b = TdpBuilder::<TropicalMin>::new();
        let mut stages = vec![StageId::ROOT];
        for (i, &parent) in self.parents.iter().enumerate() {
            stages.push(b.add_stage(&format!("s{}", i + 1), stages[parent], true));
        }
        b.retain_topology(retain);
        for &(stage, weight) in &self.states {
            b.add_state(stage, f64::from(weight).into());
        }
        for &(p, c) in &self.edges {
            b.connect(p, c);
        }
        b.build()
    }

    /// Whether the stage at serial position `pos` of `inst` receives at
    /// most one decision per parent state, counted from the spec.
    fn forced(&self, inst: &TdpInstance<TropicalMin>, pos: usize) -> bool {
        let stage = inst.serial_order()[pos];
        let mut per_parent = std::collections::HashMap::new();
        for &(p, c) in &self.edges {
            if inst.node(c).stage == stage {
                *per_parent.entry(p).or_insert(0) += 1;
            }
        }
        per_parent.values().all(|&n| n <= 1)
    }
}

/// A full stream as `(weight bits, states)`.
fn stream(inst: &TdpInstance<TropicalMin>, kind: SuccessorKind) -> Vec<(u64, Vec<NodeId>)> {
    AnyKPart::new(inst, kind)
        .map(|s| (s.weight.get().to_bits(), s.states))
        .collect()
}

fn batch(inst: &TdpInstance<TropicalMin>) -> Vec<(u64, Vec<NodeId>)> {
    Batch::new(inst)
        .map(|s| (s.weight.get().to_bits(), s.states))
        .collect()
}

/// Every spec of every shape for seeds `0..seeds`.
fn specs(seeds: u64) -> impl Iterator<Item = (String, Spec)> {
    SHAPES
        .into_iter()
        .flat_map(move |(shape, parents, forced)| {
            (0..seeds).map(move |seed| {
                (
                    format!("{shape}, seed {seed}"),
                    Spec::random(parents, forced, seed),
                )
            })
        })
}

#[test]
fn the_forced_flags_follow_the_rows() {
    let mut forced_seen = 0;
    for (label, spec) in specs(SEEDS) {
        let inst = spec.build(false);
        for pos in 0..inst.solution_len() {
            assert_eq!(
                inst.is_forced(pos),
                spec.forced(&inst, pos),
                "{label}, position {pos}"
            );
            forced_seen += usize::from(inst.is_forced(pos));
        }
    }
    assert!(
        forced_seen >= 3 * SEEDS as usize * 2,
        "{forced_seen} forced positions"
    );
}

/// `Batch` breaks ties by the states, anyK-part by where an answer's
/// subspace deviates, so within one weight the two orders differ by design:
/// the weights must agree bit for bit in order, and the states within each
/// weight as a set.
#[test]
fn every_kind_streams_batchs_answers_under_ties() {
    for (label, spec) in specs(SEEDS) {
        let inst = spec.build(false);
        let expected = batch(&inst);
        for kind in KINDS {
            let mut got = stream(&inst, kind);
            assert_eq!(
                got.iter().map(|a| a.0).collect::<Vec<_>>(),
                expected.iter().map(|a| a.0).collect::<Vec<_>>(),
                "{label}, {kind:?}: weights"
            );
            got.sort();
            assert_eq!(got, expected, "{label}, {kind:?}: answers");
        }
    }
}

/// The same instance with two more decisions, into a pruned state, in one
/// row of every forced position whose stage has child stages: the choice
/// sets are equal, but no position is forced. Its stream, ties and order
/// included, is what the instance streamed when every position built a
/// structure.
fn unforced_twin(spec: &Spec, inst: &TdpInstance<TropicalMin>) -> Spec {
    let mut twin = spec.clone();
    for pos in 0..inst.solution_len() {
        let stage = inst.serial_order()[pos];
        if !inst.is_forced(pos) || inst.stage(stage).children.is_empty() {
            continue;
        }
        // A state with no decision into its child stages is pruned.
        twin.states.push((stage.index(), 0));
        let dead = NodeId(twin.states.len() as u32);
        // Two decisions into it give a row two entries, however many it had.
        let parent_stage = inst.stage(stage).parent.expect("a non-root stage");
        let parent = inst.stage(parent_stage).nodes[0];
        twin.edges.extend([(parent, dead), (parent, dead)]);
    }
    twin
}

#[test]
fn following_a_forced_position_changes_no_stream() {
    let mut unforced = 0;
    for (label, spec) in specs(SEEDS) {
        let inst = spec.build(false);
        let twin = unforced_twin(&spec, &inst).build(false);
        for pos in 0..inst.solution_len() {
            let stage = inst.serial_order()[pos];
            if inst.is_forced(pos) && !inst.stage(stage).children.is_empty() {
                assert!(!twin.is_forced(pos), "{label}, position {pos}");
                unforced += 1;
            }
        }
        for kind in KINDS {
            assert_eq!(
                stream(&inst, kind),
                stream(&twin, kind),
                "{label}, {kind:?}"
            );
        }
    }
    assert!(
        unforced >= 3 * SEEDS as usize,
        "{unforced} positions unforced"
    );
}

#[test]
fn structures_are_built_only_for_the_non_forced_choice_sets_touched() {
    for (label, spec) in specs(SEEDS) {
        let inst = spec.build(false);
        for kind in KINDS {
            let mut it = AnyKPart::new(&inst, kind);
            let mut touched: BTreeSet<(NodeId, usize)> = BTreeSet::new();
            for sol in it.by_ref() {
                for pos in (0..inst.solution_len()).filter(|&pos| !inst.is_forced(pos)) {
                    let parent = inst.parent_pos(pos).map_or(NodeId::ROOT, |p| sol.states[p]);
                    touched.insert((parent, pos));
                }
            }
            let choices: usize = touched
                .iter()
                .map(|&(parent, pos)| {
                    let slot = inst.stage(inst.serial_order()[pos]).slot_in_parent;
                    inst.choices(parent, slot).count()
                })
                .sum();
            let m = it.memory_stats();
            assert_eq!(m.structures_allocated, touched.len(), "{label}, {kind:?}");
            assert_eq!(m.structure_choices, choices, "{label}, {kind:?}");
        }
    }
}

/// `s₀ → a₁, a₂ → {b₁, b₂} → c`: stage 2 is forced while each `a` has one
/// decision into it.
fn three_stages(extra: Option<(usize, usize)>) -> TdpInstance<TropicalMin> {
    let mut b = TdpBuilder::<TropicalMin>::serial(3);
    let a = [b.add_state(1, 1.0.into()), b.add_state(1, 2.0.into())];
    let m = [b.add_state(2, 3.0.into()), b.add_state(2, 4.0.into())];
    let dead = b.add_state(2, 0.0.into());
    let c = b.add_state(3, 5.0.into());
    for i in 0..2 {
        b.connect_root(a[i]);
        b.connect(a[i], m[i]);
        b.connect(m[i], c);
    }
    match extra {
        Some((i, 2)) => b.connect(a[i], dead),
        Some((i, j)) => b.connect(a[i], m[j]),
        None => {}
    }
    b.build()
}

#[test]
fn one_parent_row_with_a_second_decision_unforces_the_stage() {
    let inst = three_stages(None);
    assert_eq!(
        (0..3).map(|p| inst.is_forced(p)).collect::<Vec<_>>(),
        [false, true, true]
    );
    // A second live decision in one row, and a second decision into a
    // pruned state: either unforces stage 2 and leaves the others alone.
    for extra in [(1, 0), (0, 2)] {
        let inst = three_stages(Some(extra));
        assert_eq!(
            (0..3).map(|p| inst.is_forced(p)).collect::<Vec<_>>(),
            [false, false, true],
            "{extra:?}"
        );
    }
}

#[test]
fn a_patch_moves_the_forced_flag_and_streams_like_a_rebuild() {
    let mut flipped = 0;
    for (label, spec) in specs(32) {
        let mut inst = spec.build(true);
        let Some((pos, (parent, child))) = (0..inst.solution_len())
            .filter(|&pos| inst.is_forced(pos))
            .find_map(|pos| {
                let stage = inst.serial_order()[pos];
                let edge = spec.edges.iter().find(|e| inst.node(e.1).stage == stage);
                edge.map(|&e| (pos, e))
            })
        else {
            continue;
        };
        let stage = inst.serial_order()[pos];

        // A second decision from `parent` into a new copy of `child`, which
        // continues where `child` does.
        let mut patch = TdpPatch::new();
        let copy = patch.add_node(&inst, stage, 1.0.into(), 0);
        let mut grown = spec.clone();
        grown.states.push((stage.index(), 1));
        let slot_of = |c: NodeId| inst.stage(inst.node(c).stage).slot_in_parent;
        let onward = spec.edges.iter().filter(|e| e.0 == child);
        for (p, slot, c) in std::iter::once((parent, slot_of(child), copy))
            .chain(onward.map(|&(_, c)| (copy, slot_of(c), c)))
        {
            patch.add_edges.push((p, slot, c));
            grown.edges.push((p, c));
        }
        apply_patch(&mut inst, &patch).unwrap();
        let rebuilt = grown.build(true);
        assert!(!inst.is_forced(pos), "{label}: unforced by the patch");
        assert_eq!(inst.is_forced(pos), rebuilt.is_forced(pos), "{label}");
        for kind in KINDS {
            assert_eq!(
                stream(&inst, kind),
                stream(&rebuilt, kind),
                "{label}, {kind:?}"
            );
        }

        // Deleting the copy again forces the position again.
        let mut patch = TdpPatch::new();
        patch.kill_nodes.push(copy);
        apply_patch(&mut inst, &patch).unwrap();
        assert!(inst.is_forced(pos), "{label}: forced again");
        let original = spec.build(false);
        for kind in KINDS {
            assert_eq!(
                stream(&inst, kind),
                stream(&original, kind),
                "{label}, {kind:?}"
            );
        }
        flipped += 1;
    }
    assert!(flipped >= 3 * 16, "{flipped} patched instances");
}
