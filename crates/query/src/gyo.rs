//! The GYO reduction: alpha-acyclicity testing and join-tree construction
//! (§2.1).
//!
//! The reduction repeatedly removes an *ear*: an atom all of whose variables
//! are either exclusive to it or contained in some other atom (its
//! *witness*). A query is alpha-acyclic iff every atom can be removed this
//! way; recording the witness of every removed ear yields a **join tree**,
//! which the engine serialises into T-DP stages (§5.1).

use crate::atom::Atom;
use std::collections::BTreeSet;

/// A rooted join tree over the atoms of an acyclic query.
///
/// Nodes are atom indices (positions in the query's atom list). Queries whose
/// hypergraph has several connected components (cross products) get the extra
/// components attached directly under the root — a valid join tree in which
/// those edges simply have an empty join key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinTree {
    root: usize,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
}

impl JoinTree {
    fn from_parents(root: usize, parent: Vec<Option<usize>>) -> Self {
        let mut children = vec![Vec::new(); parent.len()];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[*p].push(i);
            }
        }
        JoinTree {
            root,
            parent,
            children,
        }
    }

    /// The root atom index.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Number of atoms in the tree.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if the tree has no atoms (never the case for a valid query).
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The parent of atom `i` (`None` for the root).
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.parent[i]
    }

    /// The children of atom `i`.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// Atoms in parents-first (pre-order DFS) order starting at the root.
    pub fn traversal_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.parent.len());
        let mut stack = vec![self.root];
        while let Some(i) = stack.pop() {
            order.push(i);
            for &c in self.children[i].iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    /// The same tree re-rooted at `new_root` (parent pointers along the path
    /// from the old root are reversed); re-rooting at the current root
    /// returns an equal tree. The engine's compile calls it to root a plan
    /// over a selection at its atom with the fewest rows.
    pub fn rerooted(&self, new_root: usize) -> JoinTree {
        assert!(new_root < self.parent.len(), "unknown atom index");
        let mut parent = self.parent.clone();
        // Reverse the chain new_root -> ... -> old root.
        let mut prev: Option<usize> = None;
        let mut cur = Some(new_root);
        while let Some(c) = cur {
            let next = parent[c];
            parent[c] = prev;
            prev = Some(c);
            cur = next;
        }
        JoinTree::from_parents(new_root, parent)
    }

    /// Validate the running-intersection property against the atoms this tree
    /// was built for: for every variable, the atoms containing it must form a
    /// connected subtree. Primarily a testing aid.
    pub fn satisfies_running_intersection(&self, atoms: &[Atom]) -> bool {
        let mut vars: Vec<&String> = Vec::new();
        for a in atoms {
            for v in &a.variables {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        for v in vars {
            let holders: Vec<usize> = atoms
                .iter()
                .enumerate()
                .filter(|(_, a)| a.binds(v))
                .map(|(i, _)| i)
                .collect();
            if holders.len() <= 1 {
                continue;
            }
            // Walk up from every holder; the variable must stay present until
            // reaching the subtree-root of the holders.
            // Simple connectivity check: count holders reachable from the
            // "highest" holder through holder-only edges.
            let mut connected = vec![false; atoms.len()];
            // Find a holder whose parent is not a holder (subtree top).
            let top = holders
                .iter()
                .copied()
                .find(|&h| match self.parent(h) {
                    None => true,
                    Some(p) => !holders.contains(&p),
                })
                .unwrap_or(holders[0]);
            let mut stack = vec![top];
            connected[top] = true;
            while let Some(i) = stack.pop() {
                for &c in self.children(i) {
                    if holders.contains(&c) && !connected[c] {
                        connected[c] = true;
                        stack.push(c);
                    }
                }
            }
            if holders.iter().any(|&h| !connected[h]) {
                return false;
            }
        }
        true
    }
}

/// Run the GYO reduction on raw hyperedges. Returns the ear-removal sequence
/// `(edge index, witness index)` if the hypergraph is alpha-acyclic, `None`
/// otherwise.
pub fn gyo_reduce_edges(edges: Vec<BTreeSet<String>>) -> Option<Vec<(usize, Option<usize>)>> {
    let n = edges.len();
    let mut alive = vec![true; n];
    let mut removal = Vec::with_capacity(n);
    let mut remaining = n;
    while remaining > 0 {
        let mut progressed = false;
        'search: for e in 0..n {
            if !alive[e] {
                continue;
            }
            // Variables of e shared with some other alive edge.
            let shared: BTreeSet<&String> = edges[e]
                .iter()
                .filter(|v| (0..n).any(|o| o != e && alive[o] && edges[o].contains(v.as_str())))
                .collect();
            if shared.is_empty() {
                alive[e] = false;
                remaining -= 1;
                removal.push((e, None));
                progressed = true;
                break 'search;
            }
            for w in 0..n {
                if w == e || !alive[w] {
                    continue;
                }
                if shared.iter().all(|v| edges[w].contains(v.as_str())) {
                    alive[e] = false;
                    remaining -= 1;
                    removal.push((e, Some(w)));
                    progressed = true;
                    break 'search;
                }
            }
        }
        if !progressed {
            return None;
        }
    }
    Some(removal)
}

/// Build a join tree for the atoms of an acyclic query; `None` if cyclic.
///
/// The root is the last component root the reduction removes. This is not
/// necessarily a plan's root: the engine's compile (`plan_root` in
/// `anyk_engine::compile`) keeps it for a plan over every row and reroots a
/// plan over a selection at its atom with the fewest rows.
pub fn join_tree(atoms: &[Atom]) -> Option<JoinTree> {
    let edges: Vec<BTreeSet<String>> = atoms
        .iter()
        .map(|a| a.variables.iter().cloned().collect())
        .collect();
    let removal = gyo_reduce_edges(edges)?;
    let mut parent: Vec<Option<usize>> = vec![None; atoms.len()];
    let mut component_roots = Vec::new();
    for (ear, witness) in removal {
        match witness {
            Some(w) => parent[ear] = Some(w),
            None => component_roots.push(ear),
        }
    }
    // The last component root removed becomes the global root; other
    // component roots (cross-product factors) hang directly under it.
    let root = *component_roots.last().expect("at least one root");
    for &r in &component_roots {
        if r != root {
            parent[r] = Some(root);
        }
    }
    Some(JoinTree::from_parents(root, parent))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::QueryBuilder;

    #[test]
    fn path_query_yields_a_chain() {
        let q = QueryBuilder::path(4).build();
        let t = join_tree(q.atoms()).unwrap();
        assert_eq!(t.len(), 4);
        assert!(t.satisfies_running_intersection(q.atoms()));
        // Exactly one root, every other node has a parent, chain shape.
        let roots = (0..4).filter(|&i| t.parent(i).is_none()).count();
        assert_eq!(roots, 1);
        for i in 0..4 {
            assert!(t.children(i).len() <= 1, "a path join tree is a chain");
        }
        assert_eq!(t.traversal_order().len(), 4);
    }

    #[test]
    fn star_query_join_tree_has_center_root() {
        let q = QueryBuilder::star(4).build();
        let t = join_tree(q.atoms()).unwrap();
        assert!(t.satisfies_running_intersection(q.atoms()));
        // The root covers the shared variable, and the tree has depth 1 or 2.
        let depth_one = t.children(t.root()).len();
        assert!(depth_one >= 1);
    }

    #[test]
    fn cycle_query_has_no_join_tree() {
        let q = QueryBuilder::cycle(4).build();
        assert!(join_tree(q.atoms()).is_none());
        let q6 = QueryBuilder::cycle(6).build();
        assert!(join_tree(q6.atoms()).is_none());
    }

    #[test]
    fn cross_product_components_are_attached_under_one_root() {
        let atoms = vec![
            Atom::new("R", &["x", "y"]),
            Atom::new("S", &["a", "b"]),
            Atom::new("T", &["b", "c"]),
        ];
        let t = join_tree(&atoms).unwrap();
        assert_eq!(t.len(), 3);
        let roots = (0..3).filter(|&i| t.parent(i).is_none()).count();
        assert_eq!(roots, 1, "cross products still yield a single rooted tree");
        assert!(t.satisfies_running_intersection(&atoms));
    }

    #[test]
    fn rerooting_preserves_edges_and_running_intersection() {
        let q = QueryBuilder::path(4).build();
        let t = join_tree(q.atoms()).unwrap();
        assert_eq!(t.rerooted(t.root()), t, "re-rooting at the root is a no-op");
        for new_root in 0..4 {
            let r = t.rerooted(new_root);
            assert_eq!(r.root(), new_root);
            assert!(r.satisfies_running_intersection(q.atoms()));
            assert_eq!(r.traversal_order().len(), 4);
            let roots = (0..4).filter(|&i| r.parent(i).is_none()).count();
            assert_eq!(roots, 1);
        }
    }

    #[test]
    fn acyclic_non_binary_query() {
        // Q :- R(x,y,z), S(z,w), T(w) — acyclic with witnesses chaining up.
        let atoms = vec![
            Atom::new("R", &["x", "y", "z"]),
            Atom::new("S", &["z", "w"]),
            Atom::new("T", &["w"]),
        ];
        let t = join_tree(&atoms).unwrap();
        assert!(t.satisfies_running_intersection(&atoms));
    }
}
