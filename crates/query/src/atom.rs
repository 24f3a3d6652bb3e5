//! Atoms of a conjunctive query.

use crate::error::QueryError;

/// An atom `g(x₁, …, x_a)`: a reference to a stored relation together with
/// the query variables bound to its columns.
///
/// Different atoms may reference the same physical relation (self-joins), and
/// the same variable may appear in several atoms (equi-join conditions) —
/// both exactly as in §2.1 of the paper. Repeated variables *within* one atom
/// (`R(x, x)`) are selections; as the paper notes (§2.1), the engine applies
/// them as a list of the passing rows built in a linear-time preprocessing step
/// before compilation, so they are fully supported through both the builder
/// and the textual ([`crate::QuerySpec`]) APIs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Name of the physical relation this atom scans.
    pub relation: String,
    /// Variable names, one per column of the relation.
    pub variables: Vec<String>,
}

impl Atom {
    /// Create an atom.
    pub fn new(relation: impl Into<String>, variables: &[&str]) -> Self {
        Atom {
            relation: relation.into(),
            variables: variables.iter().map(|v| v.to_string()).collect(),
        }
    }

    /// The atom's arity.
    pub fn arity(&self) -> usize {
        self.variables.len()
    }

    /// Whether the atom binds the given variable.
    pub fn binds(&self, variable: &str) -> bool {
        self.variables.iter().any(|v| v == variable)
    }

    /// Column positions of the given variables within this atom (in the
    /// order given; the *first* binding column for a repeated variable).
    /// Returns [`QueryError::UnboundVariable`] if a variable is not bound by
    /// the atom — arbitrary variable names can reach this through the textual
    /// query path, so the lookup is fallible rather than panicking.
    pub fn positions_of(&self, variables: &[String]) -> Result<Vec<usize>, QueryError> {
        variables
            .iter()
            .map(|v| {
                self.variables.iter().position(|x| x == v).ok_or_else(|| {
                    QueryError::UnboundVariable {
                        atom: self.relation.clone(),
                        variable: v.clone(),
                    }
                })
            })
            .collect()
    }

    /// The variables shared with another atom (in this atom's order).
    pub fn shared_variables(&self, other: &Atom) -> Vec<String> {
        self.variables
            .iter()
            .filter(|v| other.binds(v))
            .cloned()
            .collect()
    }
}

impl std::fmt::Display for Atom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({})", self.relation, self.variables.join(", "))
    }
}

/// All distinct variables of `atoms` in first-occurrence order (scanning
/// atoms left to right, positions in order) — the one definition of body
/// variable order shared by [`crate::ConjunctiveQuery::variables`] and
/// [`crate::QuerySpec::variables`], and therefore by head defaulting and
/// canonical alpha-renaming.
pub fn distinct_variables(atoms: &[Atom]) -> Vec<String> {
    let mut seen = Vec::new();
    for a in atoms {
        for v in &a.variables {
            if !seen.contains(v) {
                seen.push(v.clone());
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_bindings() {
        let a = Atom::new("R", &["x", "y"]);
        assert_eq!(a.arity(), 2);
        assert!(a.binds("x"));
        assert!(!a.binds("z"));
        assert_eq!(a.to_string(), "R(x, y)");
    }

    #[test]
    fn shared_variables_and_positions() {
        let a = Atom::new("R", &["x", "y", "z"]);
        let b = Atom::new("S", &["z", "x"]);
        assert_eq!(a.shared_variables(&b), vec!["x", "z"]);
        assert_eq!(
            a.positions_of(&["z".to_string(), "x".to_string()]).unwrap(),
            vec![2, 0]
        );
    }

    #[test]
    fn positions_of_unbound_variable_is_a_typed_error() {
        let err = Atom::new("R", &["x"])
            .positions_of(&["q".to_string()])
            .unwrap_err();
        assert_eq!(
            err,
            QueryError::UnboundVariable {
                atom: "R".into(),
                variable: "q".into(),
            }
        );
        assert!(err.to_string().contains("not bound"));
    }
}
