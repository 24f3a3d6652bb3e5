//! Engine errors.

use anyk_query::{ParseError, QueryError};
use std::fmt;

/// Errors raised when preparing a query for ranked enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// An atom references a relation that is not in the database.
    UnknownRelation(String),
    /// An atom's arity differs from the stored relation's arity.
    ArityMismatch {
        /// Relation name.
        relation: String,
        /// Arity declared by the atom.
        atom_arity: usize,
        /// Arity of the stored relation.
        relation_arity: usize,
    },
    /// The query is cyclic but not a simple cycle; only acyclic queries and
    /// simple ℓ-cycles (ℓ ≥ 4) are supported with optimality guarantees.
    /// Such queries can still be answered through [`crate::wcoj`] + sorting.
    UnsupportedCyclicQuery(String),
    /// The query or spec is structurally invalid (unbound variable, bad
    /// head, predicate on an unknown variable, empty body).
    Query(QueryError),
    /// A selection predicate's constant does not match the type of the
    /// column(s) binding its variable: a string constant against a raw-id
    /// column, or an integer constant against a dictionary-encoded text
    /// column.
    ConstantTypeMismatch {
        /// Relation whose column the constant was pushed down to.
        relation: String,
        /// Column index within the relation.
        column: usize,
        /// Display form of the offending constant.
        constant: String,
    },
    /// The textual query could not be parsed.
    Parse(ParseError),
    /// Delta maintenance ([`crate::PreparedQuery::refresh`]) was requested
    /// for a plan that cannot be patched in place: compiled without delta
    /// support (as every plan with selections is), or cycle-decomposed. The
    /// caller should recompile from scratch instead.
    RefreshUnsupported(String),
    /// A chaos-testing failpoint fired on the preparation path (see
    /// [`anyk_core::faults`]); never produced unless a fault plan is armed.
    Fault(anyk_core::faults::Injected),
    /// An internal invariant was violated. Reaching this is a bug in the
    /// engine, surfaced as a typed error instead of a panic so a serving
    /// layer can shed the one request rather than die.
    Internal(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownRelation(r) => write!(f, "relation `{r}` not found in database"),
            EngineError::ArityMismatch {
                relation,
                atom_arity,
                relation_arity,
            } => write!(
                f,
                "atom over `{relation}` has arity {atom_arity} but the relation has arity {relation_arity}"
            ),
            EngineError::UnsupportedCyclicQuery(q) => write!(
                f,
                "query `{q}` is cyclic but not a simple cycle; use the WCOJ batch fallback"
            ),
            EngineError::Query(e) => write!(f, "invalid query: {e}"),
            EngineError::ConstantTypeMismatch {
                relation,
                column,
                constant,
            } => write!(
                f,
                "constant {constant} does not match the type of column {column} of \
                 relation `{relation}` (string constants need a dictionary-encoded \
                 text column, integer constants a raw-id column)"
            ),
            EngineError::RefreshUnsupported(why) => {
                write!(f, "plan cannot be delta-maintained ({why}); recompile instead")
            }
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Fault(e) => write!(f, "{e}"),
            EngineError::Internal(what) => {
                write!(f, "internal engine invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Query(e) => Some(e),
            EngineError::Parse(e) => Some(e),
            EngineError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<anyk_core::faults::Injected> for EngineError {
    fn from(e: anyk_core::faults::Injected) -> Self {
        EngineError::Fault(e)
    }
}

impl From<QueryError> for EngineError {
    fn from(e: QueryError) -> Self {
        EngineError::Query(e)
    }
}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_informative() {
        let e = EngineError::UnknownRelation("R9".into());
        assert!(e.to_string().contains("R9"));
        let e = EngineError::ArityMismatch {
            relation: "R".into(),
            atom_arity: 2,
            relation_arity: 3,
        };
        assert!(e.to_string().contains("arity 2"));
        assert!(e.to_string().contains("arity 3"));
    }
}
