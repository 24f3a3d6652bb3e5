//! `QuerySpec` — the single, serializable description of an any-k request.
//!
//! A [`QuerySpec`] bundles everything a ranked-enumeration request consists
//! of — body atoms, free (head) variables, selection predicates, ranking
//! function, algorithm choice, and an optional result limit — as one plain
//! value that can be built programmatically, parsed from the textual query
//! language ([`crate::parse_query`]), printed back to text, canonicalized,
//! and used as a cache key. It is the "logical plan as serializable value"
//! seam between clients and the execution layers: a service accepts the
//! text form over a wire, keys its prepared-plan cache by
//! [`QuerySpec::plan_key`], and hands the spec to the engine for selection
//! pushdown and compilation.
//!
//! ## Selections
//!
//! The paper (§2.1) treats selections — constants and repeated variables in
//! an atom — as a linear-time preprocessing copy of the affected relation.
//! A spec expresses them two ways, which the engine's pushdown pass treats
//! identically:
//!
//! * an explicit predicate `y = 7` (or `name = "alice"` for a
//!   dictionary-encoded column), held in [`QuerySpec::predicates`];
//! * a repeated variable within one atom, `R(x, x)`, held in the atom
//!   itself.
//!
//! ## Canonical form
//!
//! [`QuerySpec::canonical`] renames variables to `v0, v1, …` in first
//! occurrence order (scanning atoms left to right), sorts and deduplicates
//! predicates, and fixes the head name to `Q`; [`QuerySpec::canonical_text`]
//! prints that form. Parsing and printing are mutually inverse on canonical
//! specs — `parse(print(s)) == canonical(s)` and printing is idempotent — so
//! alpha-equivalent queries (`R(x,y),S(y,z)` vs `R(a,b),S(b,c)`) share one
//! canonical text and therefore one plan-cache entry.

use crate::atom::Atom;
use crate::cq::ConjunctiveQuery;
use crate::error::QueryError;
use crate::ranking::RankingFunction;
use anyk_core::AnyKAlgorithm;
use std::collections::HashMap;
use std::fmt;

/// A constant in a selection predicate (or, in the text language, inline in
/// an atom position).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Constant {
    /// An integer constant, compared against raw-id columns.
    Int(u64),
    /// A string constant, resolved through the dictionary of the
    /// text-encoded column(s) binding the predicate's variable.
    Str(String),
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::Int(v) => write!(f, "{v}"),
            Constant::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        _ => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
        }
    }
}

/// An equality selection predicate `variable = constant` (§2.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Predicate {
    /// The constrained variable (must be bound by some atom).
    pub variable: String,
    /// The value the variable must equal.
    pub constant: Constant,
}

impl Predicate {
    /// Create a predicate `variable = constant`.
    pub fn new(variable: impl Into<String>, constant: Constant) -> Self {
        Predicate {
            variable: variable.into(),
            constant,
        }
    }

    /// Shorthand for an integer equality predicate.
    pub fn int(variable: impl Into<String>, value: u64) -> Self {
        Predicate::new(variable, Constant::Int(value))
    }

    /// Shorthand for a string equality predicate.
    pub fn text(variable: impl Into<String>, value: impl Into<String>) -> Self {
        Predicate::new(variable, Constant::Str(value.into()))
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.variable, self.constant)
    }
}

/// The canonical lowercase token of each any-k algorithm in the text
/// language's `via` clause.
pub fn algorithm_token(algorithm: AnyKAlgorithm) -> &'static str {
    match algorithm {
        AnyKAlgorithm::Eager => "eager",
        AnyKAlgorithm::Lazy => "lazy",
        AnyKAlgorithm::All => "all",
        AnyKAlgorithm::Take2 => "take2",
        AnyKAlgorithm::Recursive => "recursive",
        AnyKAlgorithm::Batch => "batch",
    }
}

/// Parse an algorithm token of the `via` clause (inverse of
/// [`algorithm_token`]).
pub fn algorithm_from_token(token: &str) -> Option<AnyKAlgorithm> {
    Some(match token {
        "eager" => AnyKAlgorithm::Eager,
        "lazy" => AnyKAlgorithm::Lazy,
        "all" => AnyKAlgorithm::All,
        "take2" => AnyKAlgorithm::Take2,
        "recursive" => AnyKAlgorithm::Recursive,
        "batch" => AnyKAlgorithm::Batch,
        _ => return None,
    })
}

/// One complete any-k request as data: atoms, head, selections, ranking,
/// algorithm, limit. See the [module docs](self) for the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    /// The body atoms, in written order (order is part of spec identity; the
    /// canonical form does not reorder atoms).
    pub atoms: Vec<Atom>,
    /// The head (output) variables, in output-column order. Every head
    /// variable must be bound by some atom; the head need not cover all body
    /// variables (projection follows the engine's all-weight bag semantics).
    pub free: Vec<String>,
    /// Equality selection predicates, pushed down to filtered relation
    /// copies by the engine before compilation.
    pub predicates: Vec<Predicate>,
    /// The ranking function.
    pub ranking: RankingFunction,
    /// The requested any-k algorithm, if the request pins one (execution
    /// attribute: not part of [`QuerySpec::plan_key`]).
    pub algorithm: Option<AnyKAlgorithm>,
    /// Stop after this many ranked answers (execution attribute: not part of
    /// [`QuerySpec::plan_key`]).
    pub limit: Option<usize>,
}

impl QuerySpec {
    /// A spec over `atoms` with head `free`, default ranking, no predicates,
    /// no algorithm pin, no limit.
    pub fn new(atoms: Vec<Atom>, free: Vec<String>) -> Self {
        QuerySpec {
            atoms,
            free,
            predicates: Vec::new(),
            ranking: RankingFunction::SumAscending,
            algorithm: None,
            limit: None,
        }
    }

    /// The spec describing an existing [`ConjunctiveQuery`] under `ranking`
    /// (no predicates — structural queries carry their selections as
    /// repeated variables only).
    pub fn from_query(query: &ConjunctiveQuery, ranking: RankingFunction) -> Self {
        QuerySpec {
            atoms: query.atoms().to_vec(),
            free: query.head_variables(),
            predicates: Vec::new(),
            ranking,
            algorithm: None,
            limit: None,
        }
    }

    /// Parse a spec from the textual query language; see [`crate::parse`]
    /// for the grammar.
    pub fn parse(text: &str) -> Result<Self, crate::parse::ParseError> {
        crate::parse::parse_query(text)
    }

    /// All distinct body variables in first-occurrence order (scanning atoms
    /// left to right, positions in order).
    pub fn variables(&self) -> Vec<String> {
        crate::atom::distinct_variables(&self.atoms)
    }

    /// Validate the spec's internal consistency: non-empty body, head
    /// variables bound and distinct, predicate variables bound.
    pub fn validate(&self) -> Result<(), QueryError> {
        if self.atoms.is_empty() {
            return Err(QueryError::EmptyBody);
        }
        for (i, v) in self.free.iter().enumerate() {
            if !self.atoms.iter().any(|a| a.binds(v)) {
                return Err(QueryError::UnknownHeadVariable {
                    variable: v.clone(),
                });
            }
            if self.free[..i].contains(v) {
                return Err(QueryError::DuplicateHeadVariable {
                    variable: v.clone(),
                });
            }
        }
        for p in &self.predicates {
            if !self.atoms.iter().any(|a| a.binds(&p.variable)) {
                return Err(QueryError::UnknownPredicateVariable {
                    variable: p.variable.clone(),
                });
            }
        }
        Ok(())
    }

    /// The spec's [`ConjunctiveQuery`] (atoms + head; predicates, ranking,
    /// algorithm and limit are carried separately). Full when the head
    /// covers every body variable in first-occurrence order, a projection
    /// otherwise.
    pub fn to_query(&self) -> Result<ConjunctiveQuery, QueryError> {
        self.validate()?;
        if self.free == self.variables() {
            Ok(ConjunctiveQuery::full(self.atoms.clone()))
        } else {
            Ok(ConjunctiveQuery::with_projection(
                self.atoms.clone(),
                self.free.clone(),
            ))
        }
    }

    /// The canonical form: variables renamed to `v0, v1, …` in
    /// first-occurrence order, predicates sorted and deduplicated, atoms and
    /// head order preserved (both are semantic). Idempotent; two
    /// alpha-equivalent specs have equal canonical forms.
    pub fn canonical(&self) -> QuerySpec {
        let vars = self.variables();
        let rename: HashMap<&str, String> = vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.as_str(), format!("v{i}")))
            .collect();
        let map = |v: &String| rename.get(v.as_str()).cloned().unwrap_or_else(|| v.clone());
        let atoms = self
            .atoms
            .iter()
            .map(|a| Atom {
                relation: a.relation.clone(),
                variables: a.variables.iter().map(map).collect(),
            })
            .collect();
        let free = self.free.iter().map(map).collect();
        let mut predicates: Vec<Predicate> = self
            .predicates
            .iter()
            .map(|p| Predicate {
                variable: map(&p.variable),
                constant: p.constant.clone(),
            })
            .collect();
        predicates.sort();
        predicates.dedup();
        QuerySpec {
            atoms,
            free,
            predicates,
            ranking: self.ranking,
            algorithm: self.algorithm,
            limit: self.limit,
        }
    }

    /// Render the spec as query-language text, exactly as stored (no
    /// renaming). `parse(to_text(s)) == s` for any valid spec.
    pub fn to_text(&self) -> String {
        let mut out = String::from("Q(");
        out.push_str(&self.free.join(", "));
        out.push_str(") :- ");
        let mut body: Vec<String> = self.atoms.iter().map(Atom::to_string).collect();
        body.extend(self.predicates.iter().map(Predicate::to_string));
        out.push_str(&body.join(", "));
        if let Some(clause) = self.ranking.spec_clause() {
            out.push_str(" rank by ");
            out.push_str(clause);
        }
        if let Some(algorithm) = self.algorithm {
            out.push_str(" via ");
            out.push_str(algorithm_token(algorithm));
        }
        if let Some(limit) = self.limit {
            out.push_str(&format!(" limit {limit}"));
        }
        out
    }

    /// The canonical text: `self.canonical().to_text()`. This is the
    /// pretty-printer whose output parsing inverts — for any valid spec `s`,
    /// `parse(s.canonical_text()) == s.canonical()`.
    pub fn canonical_text(&self) -> String {
        self.canonical().to_text()
    }

    /// The plan-cache key: the canonical text with the execution attributes
    /// (algorithm, limit) stripped. Two requests with this key in common can
    /// share one compiled, preprocessed plan — they differ at most in how
    /// the shared plan is enumerated.
    pub fn plan_key(&self) -> String {
        self.without_execution_attrs().canonical_text()
    }

    /// A copy with the execution attributes (algorithm, limit)
    /// cleared — the part of the request that determines the compiled plan.
    pub fn without_execution_attrs(&self) -> QuerySpec {
        QuerySpec {
            algorithm: None,
            limit: None,
            ..self.clone()
        }
    }
}

/// Displays the canonical text (the pretty-printer of the query language).
impl fmt::Display for QuerySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path2_spec() -> QuerySpec {
        QuerySpec::new(
            vec![Atom::new("R", &["x", "y"]), Atom::new("S", &["y", "z"])],
            vec!["x".into(), "y".into(), "z".into()],
        )
    }

    #[test]
    fn canonical_renames_in_first_occurrence_order() {
        let s = QuerySpec::new(
            vec![Atom::new("R", &["b", "a"]), Atom::new("S", &["a", "c"])],
            vec!["b".into(), "c".into()],
        );
        let c = s.canonical();
        assert_eq!(c.atoms[0].variables, vec!["v0", "v1"]);
        assert_eq!(c.atoms[1].variables, vec!["v1", "v2"]);
        assert_eq!(c.free, vec!["v0", "v2"]);
        assert_eq!(c.canonical(), c, "idempotent");
    }

    #[test]
    fn alpha_equivalent_specs_share_plan_keys() {
        let a = path2_spec();
        let mut b = QuerySpec::new(
            vec![Atom::new("R", &["p", "q"]), Atom::new("S", &["q", "r"])],
            vec!["p".into(), "q".into(), "r".into()],
        );
        b.limit = Some(10);
        b.algorithm = Some(AnyKAlgorithm::Lazy);
        assert_eq!(a.plan_key(), b.plan_key(), "limit/algorithm are stripped");
        assert_ne!(a.canonical_text(), b.canonical_text());
    }

    #[test]
    fn printer_renders_every_clause() {
        let mut s = path2_spec();
        s.predicates.push(Predicate::int("y", 7));
        s.ranking = RankingFunction::SumDescending;
        s.algorithm = Some(AnyKAlgorithm::Take2);
        s.limit = Some(1000);
        assert_eq!(
            s.to_text(),
            "Q(x, y, z) :- R(x, y), S(y, z), y = 7 rank by sum desc via take2 limit 1000"
        );
    }

    #[test]
    fn string_constants_are_quoted_and_escaped() {
        let p = Predicate::text("x", "a\"b\\c");
        assert_eq!(p.to_string(), "x = \"a\\\"b\\\\c\"");
    }

    #[test]
    fn validation_catches_bad_heads_and_predicates() {
        let mut s = path2_spec();
        s.free.push("nope".into());
        assert!(matches!(
            s.validate(),
            Err(QueryError::UnknownHeadVariable { .. })
        ));
        let mut s = path2_spec();
        s.free.push("x".into());
        assert!(matches!(
            s.validate(),
            Err(QueryError::DuplicateHeadVariable { .. })
        ));
        let mut s = path2_spec();
        s.predicates.push(Predicate::int("nope", 1));
        assert!(matches!(
            s.validate(),
            Err(QueryError::UnknownPredicateVariable { .. })
        ));
        assert!(matches!(
            QuerySpec::new(vec![], vec![]).validate(),
            Err(QueryError::EmptyBody)
        ));
    }

    #[test]
    fn to_query_builds_full_or_projected() {
        let full = path2_spec().to_query().unwrap();
        assert!(full.is_full());
        let mut s = path2_spec();
        s.free = vec!["x".into(), "z".into()];
        let projected = s.to_query().unwrap();
        assert!(!projected.is_full());
        assert_eq!(projected.head_variables(), vec!["x", "z"]);
    }

    #[test]
    fn from_query_round_trips_atoms_and_head() {
        let q = path2_spec().to_query().unwrap();
        let s = QuerySpec::from_query(&q, RankingFunction::BottleneckAscending);
        assert_eq!(s.atoms, path2_spec().atoms);
        assert_eq!(s.free, vec!["x", "y", "z"]);
        assert_eq!(s.ranking, RankingFunction::BottleneckAscending);
    }

    #[test]
    fn algorithm_tokens_round_trip() {
        for a in AnyKAlgorithm::ALL {
            assert_eq!(algorithm_from_token(algorithm_token(a)), Some(a));
        }
        assert_eq!(algorithm_from_token("quantum"), None);
    }
}
