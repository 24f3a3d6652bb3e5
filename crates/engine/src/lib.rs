//! # anyk-engine
//!
//! Compiles full conjunctive queries over weighted relations into (unions of)
//! T-DP problems and runs the any-k ranked-enumeration algorithms of
//! [`anyk_core`] over them.
//!
//! * [`compile`] — acyclic CQ + join tree → T-DP instance with the `O(ℓn)`
//!   equi-join "value node" encoding of Fig. 3;
//! * [`cycle`] — the simple-cycle decomposition of §5.3.1 (heavy/light
//!   partitioning into ℓ + 1 trees), turning an ℓ-cycle query into a UT-DP
//!   problem with `TTF = O(n^{2−2/ℓ})`;
//! * [`RankedQuery`] — the user-facing API: ranked enumeration of any full
//!   CQ (acyclic or simple-cycle) under a [`RankingFunction`], with a
//!   [`QuerySpec`](anyk_query::QuerySpec) / text entry point
//!   ([`RankedQuery::from_spec`], [`RankedQuery::from_text`]);
//! * `select` (internal) — selection pushdown: predicates
//!   (`y = 7`, `name = "alice"`) and repeated variables within an atom
//!   (`R(x, x)`) become lists of the passing rows, built in one linear pass
//!   before compilation, exactly the preprocessing reduction of §2.1;
//! * [`PreparedQuery`] / [`AnswerCursor`] — the service-facing split of the
//!   same machinery: an owning, `Send + Sync` compiled plan shared behind an
//!   `Arc`, plus per-session resumable cursors that pull ranked answers in
//!   pages bit-identical to the one-shot stream ([`prepared`]);
//! * `refresh` (internal) — delta maintenance: a plan compiled with delta
//!   support ([`PreparedQuery::prepare_delta`]) is patched under a
//!   [`DeltaBatch`](anyk_storage::DeltaBatch) ([`PreparedQuery::refresh`])
//!   instead of recompiled, re-sweeping only the dirty cone of the
//!   bottom-up phase;
//! * baselines used by the paper's evaluation: [`yannakakis`] (Batch),
//!   [`naive_sql`] (a generic hash-join + sort engine standing in for the
//!   PostgreSQL comparison of Fig. 14), [`wcoj`] (a Generic-Join–style
//!   worst-case optimal join, §9.1.1 / Fig. 17), and [`rankjoin`]
//!   (an HRJN-style middleware top-k operator, §9.1.3);
//! * [`AnswerDecoder`] — maps answers over dictionary-encoded relations back
//!   to their original strings (the engine itself only ever sees dense ids).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod answer;
pub mod compile;
pub mod cycle;
mod error;
pub mod naive_sql;
pub mod prepared;
mod ranked;
pub mod rankjoin;
mod refresh;
mod select;
pub mod wcoj;
pub mod yannakakis;

pub use answer::{Answer, AnswerDecoder, DecodedValue};
pub use compile::Compiled;
pub use error::EngineError;
pub use prepared::{AnswerCursor, CancellationToken, Page, PreparedQuery};
pub use ranked::{AnswerStream, RankedQuery};
// Re-exported from `anyk-query`, where request descriptions (`QuerySpec`)
// live; existing `anyk_engine::RankingFunction` imports keep working.
pub use anyk_query::RankingFunction;
