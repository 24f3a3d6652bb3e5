//! # anyk-query
//!
//! Conjunctive-query representation, structural analysis, and the textual
//! request language:
//!
//! * [`Atom`] / [`ConjunctiveQuery`] — full (and non-full) CQs in the
//!   Datalog-style notation of §2.1;
//! * [`QuerySpec`] — one complete any-k request as a serializable value:
//!   atoms, head, selection predicates (`x = const`, repeated variables in
//!   an atom), [`RankingFunction`], algorithm choice, and limit — with a
//!   canonical form ([`QuerySpec::canonical_text`]) under which
//!   alpha-equivalent requests coincide, and a plan-cache key
//!   ([`QuerySpec::plan_key`]);
//! * [`parse`] / [`parse_query`] — a hand-rolled recursive-descent parser
//!   for the textual query language
//!   (`Q(x, z) :- R(x, y), S(y, z), y = 7 rank by sum limit 1000`), every
//!   failure a typed [`ParseError`];
//! * [`hypergraph::Hypergraph`] — the query hypergraph (variables as nodes,
//!   atoms as hyperedges);
//! * [`JoinTree`] and the GYO reduction ([`gyo`]) — alpha-acyclicity testing
//!   and join-tree construction in `O(|Q|)` data-independent time;
//! * [`QueryBuilder`] — convenience constructors for the path, star and
//!   cycle queries used throughout the paper's evaluation (§7, Appendix B).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod atom;
mod builders;
mod cq;
mod error;
pub mod gyo;
pub mod hypergraph;
pub mod parse;
mod ranking;
pub mod spec;

pub use atom::Atom;
pub use builders::QueryBuilder;
pub use cq::ConjunctiveQuery;
pub use error::QueryError;
pub use gyo::JoinTree;
pub use parse::{parse_query, ParseError};
pub use ranking::RankingFunction;
pub use spec::{Constant, Predicate, QuerySpec};
