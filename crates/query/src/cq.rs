//! Conjunctive queries.

use crate::atom::Atom;
use crate::gyo;
use crate::hypergraph::Hypergraph;

/// A conjunctive query `Q(y) :− g₁(x₁), …, g_ℓ(x_ℓ)` (§2.1).
///
/// A query is **full** when its head contains every variable of the body
/// (the default); a non-full query projects onto `free` variables (§8.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    atoms: Vec<Atom>,
    /// `None` for a full query; otherwise the free (head) variables.
    free: Option<Vec<String>>,
}

impl ConjunctiveQuery {
    /// A full conjunctive query over the given atoms.
    pub fn full(atoms: Vec<Atom>) -> Self {
        assert!(
            !atoms.is_empty(),
            "a conjunctive query needs at least one atom"
        );
        ConjunctiveQuery { atoms, free: None }
    }

    /// A query with projection onto `free` variables.
    ///
    /// # Panics
    /// Panics if a free variable does not occur in any atom.
    pub fn with_projection(atoms: Vec<Atom>, free: Vec<String>) -> Self {
        for v in &free {
            assert!(
                atoms.iter().any(|a| a.binds(v)),
                "free variable {v} does not occur in the body"
            );
        }
        assert!(
            !atoms.is_empty(),
            "a conjunctive query needs at least one atom"
        );
        ConjunctiveQuery {
            atoms,
            free: Some(free),
        }
    }

    /// The body atoms, in order.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Number of atoms (the paper's ℓ).
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// All distinct variables of the body, in first-occurrence order.
    pub fn variables(&self) -> Vec<String> {
        crate::atom::distinct_variables(&self.atoms)
    }

    /// The head (output) variables: all variables for a full query, the
    /// declared free variables otherwise.
    pub fn head_variables(&self) -> Vec<String> {
        match &self.free {
            None => self.variables(),
            Some(f) => f.clone(),
        }
    }

    /// Whether the query is full (no projection).
    pub fn is_full(&self) -> bool {
        match &self.free {
            None => true,
            Some(f) => {
                let vars = self.variables();
                vars.iter().all(|v| f.contains(v)) && f.len() == vars.len()
            }
        }
    }

    /// The query hypergraph (variables as nodes, atoms as hyperedges).
    pub fn hypergraph(&self) -> Hypergraph {
        Hypergraph::from_atoms(&self.atoms)
    }

    /// Whether the query is alpha-acyclic (GYO reduction succeeds, §2.1).
    pub fn is_acyclic(&self) -> bool {
        gyo::join_tree(&self.atoms).is_some()
    }

    /// Whether the query has a self-join (two atoms over the same relation).
    pub fn has_self_join(&self) -> bool {
        for (i, a) in self.atoms.iter().enumerate() {
            for b in &self.atoms[i + 1..] {
                if a.relation == b.relation {
                    return true;
                }
            }
        }
        false
    }
}

impl std::fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let head = self.head_variables().join(", ");
        let body = self
            .atoms
            .iter()
            .map(Atom::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        write!(f, "Q({head}) :- {body}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::QueryBuilder;

    #[test]
    fn variables_in_first_occurrence_order() {
        let q = QueryBuilder::path(3).build();
        assert_eq!(q.variables(), vec!["x1", "x2", "x3", "x4"]);
        assert!(q.is_full());
        assert!(q.is_acyclic());
        assert!(!q.has_self_join());
    }

    #[test]
    fn cycles_are_detected_as_cyclic() {
        let q = QueryBuilder::cycle(4).build();
        assert!(!q.is_acyclic());
        assert!(q.is_full());
    }

    #[test]
    fn projection_head_variables() {
        let q = ConjunctiveQuery::with_projection(
            vec![Atom::new("R", &["x", "y"]), Atom::new("S", &["y", "z"])],
            vec!["x".to_string()],
        );
        assert_eq!(q.head_variables(), vec!["x"]);
        assert!(!q.is_full());
        assert_eq!(q.to_string(), "Q(x) :- R(x, y), S(y, z)");
    }

    #[test]
    #[should_panic(expected = "does not occur")]
    fn projection_onto_unknown_variable_panics() {
        ConjunctiveQuery::with_projection(vec![Atom::new("R", &["x"])], vec!["q".to_string()]);
    }

    #[test]
    fn self_join_detection() {
        let q = ConjunctiveQuery::full(vec![
            Atom::new("E", &["x", "y"]),
            Atom::new("E", &["y", "z"]),
        ]);
        assert!(q.has_self_join());
    }
}
