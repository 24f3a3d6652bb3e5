//! The `Batch` baseline: materialise every solution, then sort (§4.3, §7).
//!
//! At the T-DP level this corresponds to running the Yannakakis-style
//! bottom-up reduction (already part of [`TdpInstance`] construction),
//! enumerating the full unranked result by backtracking over the pruned
//! instance, and finally sorting by weight. Its time-to-first is therefore
//! `Ω(|out| log |out|)` — the quantity the any-k algorithms beat.

use crate::dioid::Dioid;
use crate::solution::Solution;
use crate::tdp::{NodeId, TdpInstance};

/// Ranked enumeration by full materialisation and sorting.
///
/// The full result is produced lazily on the first call to `next()`, so
/// constructing a `Batch` is free; iterating it pays the entire cost up
/// front, like a blocking sort operator would.
#[derive(Debug)]
pub struct Batch<'a, D: Dioid> {
    inst: &'a TdpInstance<D>,
    sorted: Option<std::vec::IntoIter<Solution<D>>>,
}

impl<'a, D: Dioid> Batch<'a, D> {
    /// Create a batch enumerator over `inst`.
    pub fn new(inst: &'a TdpInstance<D>) -> Self {
        Batch { inst, sorted: None }
    }

    /// Enumerate the full (unranked) result by backtracking over the pruned
    /// instance. Exposed for the experiment harness ("Batch (No sort)" in the
    /// paper's plots) and for output-equality tests.
    pub fn enumerate_unranked(inst: &TdpInstance<D>) -> Vec<Solution<D>> {
        let ell = inst.solution_len();
        let mut out = Vec::new();
        if !inst.has_solution() {
            return out;
        }
        if ell == 0 {
            out.push(Solution::new(D::one(), Vec::new()));
            return out;
        }
        // Iterative backtracking over serial positions. `choice_idx[pos]` is
        // the index of the next successor to try at `pos`.
        let mut states: Vec<NodeId> = Vec::with_capacity(ell);
        let mut weights: Vec<D::V> = Vec::with_capacity(ell);
        let mut choice_idx: Vec<usize> = vec![0; ell];
        let mut pos = 0usize;
        loop {
            let parent_state = match inst.parent_pos(pos) {
                None => NodeId::ROOT,
                Some(p) => states[p],
            };
            let sid = inst.serial_order()[pos];
            let slot = inst.stage(sid).slot_in_parent;
            let succs = inst.successors(parent_state, slot);
            // Advance the per-position cursor past pruned states, which stay
            // in the successor lists.
            let zero = D::zero();
            let mut idx = choice_idx[pos];
            while succs
                .get(idx)
                .is_some_and(|t| *inst.subtree_opt(*t) == zero)
            {
                idx += 1;
            }
            let found = succs.get(idx).copied();
            choice_idx[pos] = idx + 1;
            match found {
                Some(next_state) => {
                    let w_prev = weights.last().cloned().unwrap_or_else(D::one);
                    weights.push(D::times(&w_prev, inst.weight(next_state)));
                    states.push(next_state);
                    if pos + 1 == ell {
                        out.push(Solution::new(weights[ell - 1].clone(), states.clone()));
                        // Stay at the last position; try its next successor.
                        states.pop();
                        weights.pop();
                    } else {
                        pos += 1;
                        choice_idx[pos] = 0;
                    }
                }
                None => {
                    // Exhausted this position: backtrack.
                    if pos == 0 {
                        break;
                    }
                    pos -= 1;
                    states.pop();
                    weights.pop();
                }
            }
        }
        out
    }

    fn materialise(&mut self) {
        let mut all = Self::enumerate_unranked(self.inst);
        all.sort_by(|a, b| {
            a.weight
                .cmp(&b.weight)
                .then_with(|| a.states.cmp(&b.states))
        });
        self.sorted = Some(all.into_iter());
    }
}

impl<D: Dioid> Iterator for Batch<'_, D> {
    type Item = Solution<D>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.sorted.is_none() {
            self.materialise();
        }
        self.sorted.as_mut().unwrap().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dioid::{OrderedF64, TropicalMin};
    use crate::tdp::TdpBuilder;

    #[test]
    fn batch_produces_sorted_full_output() {
        let mut b = TdpBuilder::<TropicalMin>::serial(2);
        let a1 = b.add_state(1, 3.0.into());
        let a2 = b.add_state(1, 1.0.into());
        let c1 = b.add_state(2, 10.0.into());
        let c2 = b.add_state(2, 5.0.into());
        for &a in &[a1, a2] {
            b.connect_root(a);
            for &c in &[c1, c2] {
                b.connect(a, c);
            }
        }
        let inst = b.build();
        let weights: Vec<OrderedF64> = Batch::new(&inst).map(|s| s.weight).collect();
        assert_eq!(
            weights,
            vec![
                OrderedF64::from(6.0),
                OrderedF64::from(8.0),
                OrderedF64::from(11.0),
                OrderedF64::from(13.0)
            ]
        );
    }

    #[test]
    fn unranked_enumeration_skips_pruned_branches() {
        let mut b = TdpBuilder::<TropicalMin>::serial(3);
        let a = b.add_state(1, 1.0.into());
        let live = b.add_state(2, 2.0.into());
        let dead = b.add_state(2, 0.1.into());
        let z = b.add_state(3, 4.0.into());
        b.connect_root(a);
        b.connect(a, live);
        b.connect(a, dead);
        b.connect(live, z);
        let inst = b.build();
        let all = Batch::enumerate_unranked(&inst);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].weight, OrderedF64::from(7.0));
    }

    #[test]
    fn batch_on_tree_instance() {
        let mut b = TdpBuilder::<TropicalMin>::new();
        let center = b.add_stage_under_root("c", true);
        let left = b.add_stage("l", center, true);
        let right = b.add_stage("r", center, true);
        let c = b.add_state(center.index(), 0.0.into());
        let l1 = b.add_state(left.index(), 1.0.into());
        let l2 = b.add_state(left.index(), 2.0.into());
        let r1 = b.add_state(right.index(), 10.0.into());
        b.connect_root(c);
        b.connect(c, l1);
        b.connect(c, l2);
        b.connect(c, r1);
        let inst = b.build();
        let weights: Vec<OrderedF64> = Batch::new(&inst).map(|s| s.weight).collect();
        assert_eq!(
            weights,
            vec![OrderedF64::from(11.0), OrderedF64::from(12.0)]
        );
    }

    #[test]
    fn empty_instance_yields_nothing() {
        let inst = TdpBuilder::<TropicalMin>::serial(2).build();
        assert_eq!(Batch::new(&inst).count(), 0);
    }
}
