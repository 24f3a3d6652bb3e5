//! # anyk-storage
//!
//! In-memory weighted relational storage substrate for the any-k engine.
//!
//! The paper's algorithms operate over full conjunctive queries on relations
//! whose tuples carry real-valued weights (§2.1–§2.3). This crate provides
//! exactly that substrate:
//!
//! * [`Tuple`] — an owned, fixed-arity row of `u64` attribute values plus a
//!   weight (the construction/value currency);
//! * [`Relation`] — a named bag of equal-arity tuples in **column-major**
//!   layout (one flat vector per attribute plus a weight column), with the
//!   borrowed row view [`RowRef`];
//! * [`dictionary`] — the text layer: per-column string [`Dictionary`]s and
//!   the [`Schema`] column-type descriptor, so string-keyed relations encode
//!   to dense ids on push and decode on read while everything below the
//!   columns stays integer-only;
//! * [`Database`] — a catalog of relations addressed by name, memoising
//!   [`HashIndex`]es per (generation, relation slot, key columns) in a
//!   sharded, LRU-bounded [`index_cache`] (readers concurrent, bound
//!   configurable, counters exposed) and invalidating entries when a
//!   relation is replaced; snapshots can be **sealed** against mutation and
//!   advanced copy-on-write via [`delta`] batches
//!   ([`Database::apply_delta`]), which bump a monotone generation id;
//! * [`HashIndex`] — the linear-time-buildable, constant-time-lookup join
//!   index assumed by the cost model of §2.3, built by sequential column
//!   scans, and [`KeyMap`], a flat map from keys to ids;
//! * [`stats`] — per-column degree statistics (used by the heavy/light
//!   partitioning of §5.3.1 and the dataset summaries of Fig. 9).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod database;
pub mod delta;
pub mod dictionary;
mod index;
pub mod index_cache;
mod key_map;
mod relation;
pub mod stats;
mod tuple;

pub use database::Database;
pub use delta::{DeltaBatch, DeltaError, RelationDelta, TidRemap};
pub use dictionary::{ColumnType, Dictionary, Field, Schema};
pub use index::HashIndex;
pub use index_cache::{IndexCacheStats, DEFAULT_INDEX_CACHE_CAPACITY};
pub use key_map::KeyMap;
pub use relation::{Relation, RowRef};
pub use tuple::{Tuple, TupleId, Value};
