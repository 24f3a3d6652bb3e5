//! Relations: named collections of equal-arity weighted tuples.
//!
//! ## Column-major storage
//!
//! A relation stores its tuples **columnar**: one flat `Vec<Value>` per
//! attribute plus one flat `Vec<f64>` weight column. The preprocessing phase
//! of the engine — index construction, the value-node loop of the equi-join
//! compilation, semi-join filters, degree statistics — reads whole columns,
//! so the column-major layout turns every one of those loops into a
//! sequential scan over contiguous memory instead of a pointer chase through
//! one heap allocation per row.
//!
//! Rows are addressed by their [`TupleId`] (insertion index) through the
//! borrowed view [`RowRef`], which is two words (relation pointer + row id)
//! and resolves each attribute access as a single column indexing operation.
//! The owned row type [`Tuple`] remains the construction/value currency:
//! [`Relation::push`] decomposes a `Tuple` into the columns, and
//! [`Relation::push_row`] appends straight from a borrowed slice without
//! allocating.
//!
//! ## String dictionaries
//!
//! Every relation carries a [`Schema`] describing each column as either raw
//! `u64` ids ([`ColumnType::Id`], the default) or dictionary-encoded text
//! ([`ColumnType::Text`]). Text columns store dense ids in the very same flat
//! `Vec<Value>` as integer columns — the engine, the indexes, and the any-k
//! core never see a string. Encoding happens at the storage boundary on push
//! ([`Relation::push_fields`], [`Relation::push_text_edge`]) and decoding on
//! read ([`RowRef::decoded`], [`RowRef::display_value`]); see
//! [`crate::dictionary`] for the sharing rules that keep joined text columns
//! encoding through one dictionary.

use crate::dictionary::{ColumnType, Field, Schema};
use crate::tuple::{Tuple, TupleId, Value};

/// A named relation with a fixed arity, stored column-major. Tuples are kept
/// in insertion order and addressed by their [`TupleId`] (their index), which
/// the engine uses as the payload carried through T-DP states.
#[derive(Debug, Clone)]
pub struct Relation {
    name: String,
    arity: usize,
    /// Per-column type descriptor (raw ids vs dictionary-encoded text).
    schema: Schema,
    /// One flat value vector per attribute; `columns[c][t]` is attribute `c`
    /// of tuple `t`. All columns have the same length.
    columns: Vec<Vec<Value>>,
    /// The weight column, same length as every attribute column.
    weights: Vec<f64>,
}

/// A borrowed, copyable view of one row of a [`Relation`].
///
/// Attribute access is a single indexing operation into the backing column;
/// no row is ever materialised. `RowRef` is the type handed out by
/// [`Relation::iter`], [`Relation::tuples`] and [`Relation::tuple`], and the
/// type accepted by the engine's weight functions and filters.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    rel: &'a Relation,
    id: TupleId,
}

impl<'a> RowRef<'a> {
    /// The row's [`TupleId`] within its relation.
    pub fn id(self) -> TupleId {
        self.id
    }

    /// The number of attributes.
    pub fn arity(self) -> usize {
        self.rel.arity
    }

    /// The value of attribute `col`.
    ///
    /// # Panics
    /// Panics if `col >= arity()`.
    #[inline]
    pub fn value(self, col: usize) -> Value {
        self.rel.columns[col][self.id]
    }

    /// The row's weight.
    #[inline]
    pub fn weight(self) -> f64 {
        self.rel.weights[self.id]
    }

    /// Iterate over the row's attribute values in column order.
    pub fn values(self) -> impl Iterator<Item = Value> + 'a {
        let id = self.id;
        self.rel.columns.iter().map(move |c| c[id])
    }

    /// The attribute values gathered into an owned vector.
    pub fn values_vec(self) -> Vec<Value> {
        self.values().collect()
    }

    /// An owned [`Tuple`] copy of the row.
    pub fn to_tuple(self) -> Tuple {
        Tuple::new(self.values_vec(), self.weight())
    }

    /// Decode attribute `col` through its column dictionary: the original
    /// string for a text column, `None` for a raw-id column (or for an id the
    /// dictionary never issued, which indicates corrupted data).
    ///
    /// # Panics
    /// Panics if `col >= arity()`.
    pub fn decoded(self, col: usize) -> Option<String> {
        self.rel
            .schema
            .dictionary(col)
            .and_then(|d| d.decode(self.value(col)))
    }

    /// Attribute `col` rendered for display: the decoded string for a text
    /// column, the numeric value otherwise.
    ///
    /// # Panics
    /// Panics if `col >= arity()`.
    pub fn display_value(self, col: usize) -> String {
        self.decoded(col)
            .unwrap_or_else(|| self.value(col).to_string())
    }
}

impl std::fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowRef")
            .field("id", &self.id)
            .field("values", &self.values_vec())
            .field("weight", &self.weight())
            .finish()
    }
}

impl Relation {
    /// Create an empty relation with the given name and arity, with the
    /// all-[`ColumnType::Id`] schema (plain `u64` columns).
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        Relation::with_schema(name, Schema::ids(arity))
    }

    /// Create an empty relation with an explicit [`Schema`] (arity is the
    /// schema's arity). Text columns encode through the schema's
    /// dictionaries; build several relations from clones of one schema to
    /// keep their encodings join-compatible.
    pub fn with_schema(name: impl Into<String>, schema: Schema) -> Self {
        Relation::with_schema_capacity(name, schema, 0)
    }

    /// Like [`Relation::with_schema`], with row capacity pre-reserved in
    /// every column.
    pub fn with_schema_capacity(name: impl Into<String>, schema: Schema, rows: usize) -> Self {
        let arity = schema.arity();
        Relation {
            name: name.into(),
            arity,
            schema,
            columns: vec![Vec::with_capacity(rows); arity],
            weights: Vec::with_capacity(rows),
        }
    }

    /// Create an empty relation with row capacity pre-reserved in every
    /// column (avoids re-allocation when the cardinality is known up front).
    pub fn with_capacity(name: impl Into<String>, arity: usize, rows: usize) -> Self {
        Relation::with_schema_capacity(name, Schema::ids(arity), rows)
    }

    /// Create a relation directly from a list of tuples.
    ///
    /// # Panics
    /// Panics if any tuple's arity differs from `arity`.
    pub fn from_tuples(name: impl Into<String>, arity: usize, tuples: Vec<Tuple>) -> Self {
        let mut r = Relation::with_capacity(name, arity, tuples.len());
        for t in tuples {
            r.push(t);
        }
        r
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relation's arity (number of attributes).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The relation's column-type descriptor.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The dictionary of column `col`, if it is a text column.
    ///
    /// # Panics
    /// Panics if `col >= arity()`.
    pub fn dictionary(&self, col: usize) -> Option<&std::sync::Arc<crate::Dictionary>> {
        self.schema.dictionary(col)
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The full column of attribute `col` — the contiguous scan path used by
    /// index construction and degree statistics.
    ///
    /// # Panics
    /// Panics if `col >= arity()`.
    #[inline]
    pub fn column(&self, col: usize) -> &[Value] {
        &self.columns[col]
    }

    /// The full weight column.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Append a row from a borrowed value slice (allocation-free).
    ///
    /// This is the raw-id path: values land in the columns verbatim. For a
    /// text column the caller must supply ids previously issued by that
    /// column's dictionary (e.g. when replicating an already-encoded
    /// relation); use [`Relation::push_fields`] to encode strings on push.
    ///
    /// # Panics
    /// Panics if `values.len()` does not match the relation's arity, or if
    /// `weight` is `±∞` or NaN: weights must be finite, since an infinite
    /// weight is a ranking's `0̄` (or past it) and would make an answer's
    /// existence depend on where its tuple sits in the join tree.
    pub fn push_row(&mut self, values: &[Value], weight: f64) -> TupleId {
        assert_eq!(
            values.len(),
            self.arity,
            "tuple arity {} does not match relation {} arity {}",
            values.len(),
            self.name,
            self.arity
        );
        self.assert_finite(weight);
        for (col, &v) in self.columns.iter_mut().zip(values) {
            col.push(v);
        }
        self.weights.push(weight);
        self.weights.len() - 1
    }

    /// Panic unless `weight` is finite (see [`Relation::push_row`]).
    fn assert_finite(&self, weight: f64) {
        assert!(
            weight.is_finite(),
            "tuple weight {weight} of relation {} is not finite",
            self.name
        );
    }

    /// Append a tuple.
    ///
    /// # Panics
    /// Panics if the tuple's arity does not match the relation's, or if its
    /// weight is not finite.
    pub fn push(&mut self, tuple: Tuple) -> TupleId {
        self.push_row(tuple.values(), tuple.weight())
    }

    /// Convenience: append a binary edge tuple `(from, to)` with a weight.
    ///
    /// # Panics
    /// Panics unless the relation is binary, or if `weight` is not finite.
    pub fn push_edge(&mut self, from: Value, to: Value, weight: f64) -> TupleId {
        assert_eq!(self.arity, 2, "push_edge requires a binary relation");
        self.push_row(&[from, to], weight)
    }

    /// Append a row of mixed string/integer [`Field`]s, encoding through the
    /// schema. Per field × column type:
    ///
    /// * [`Field::Int`] in an [`ColumnType::Id`] column — stored verbatim;
    /// * [`Field::Str`] in a [`ColumnType::Text`] column — interned in the
    ///   column's dictionary, its dense id stored;
    /// * [`Field::Int`] in a text column — treated as an already-encoded id
    ///   and stored verbatim (the replication path);
    /// * [`Field::Str`] in an id column — parsed as `u64` (the loader path).
    ///
    /// # Panics
    /// Panics on an arity mismatch, on a weight that is not finite (see
    /// [`Relation::push_row`]), or if a string field in an id column is not
    /// a valid `u64`.
    pub fn push_fields(&mut self, fields: &[Field<'_>], weight: f64) -> TupleId {
        assert_eq!(
            fields.len(),
            self.arity,
            "row arity {} does not match relation {} arity {}",
            fields.len(),
            self.name,
            self.arity
        );
        // Before any string is interned in a dictionary.
        self.assert_finite(weight);
        // Resolve every field before touching any column, so a parse panic
        // cannot leave the columns ragged (all columns must stay the same
        // length even if the caller recovers from the panic).
        let values: Vec<Value> = fields
            .iter()
            .enumerate()
            .map(|(col, field)| match (self.schema.column(col), field) {
                (_, Field::Int(v)) => *v,
                (ColumnType::Text(dict), Field::Str(s)) => dict.encode(s),
                (ColumnType::Id, Field::Str(s)) => s.parse().unwrap_or_else(|_| {
                    panic!(
                        "column {col} of relation {} holds raw ids but got \
                         non-numeric string {s:?}",
                        self.name
                    )
                }),
            })
            .collect();
        self.push_row(&values, weight)
    }

    /// Convenience: append a string-keyed edge `(from, to)` with a weight,
    /// encoding both endpoints through the schema.
    ///
    /// # Panics
    /// Panics unless the relation is binary (see [`Relation::push_fields`]
    /// for the per-column encoding rules).
    pub fn push_text_edge(&mut self, from: &str, to: &str, weight: f64) -> TupleId {
        assert_eq!(self.arity, 2, "push_text_edge requires a binary relation");
        self.push_fields(&[Field::Str(from), Field::Str(to)], weight)
    }

    /// A borrowed view of the tuple with the given id.
    ///
    /// # Panics
    /// Panics if `id >= len()` (on first attribute/weight access for
    /// zero-arity relations).
    #[inline]
    pub fn tuple(&self, id: TupleId) -> RowRef<'_> {
        debug_assert!(id < self.len(), "tuple id {id} out of range");
        RowRef { rel: self, id }
    }

    /// Iterate over `(id, row)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, RowRef<'_>)> {
        (0..self.len()).map(move |id| (id, RowRef { rel: self, id }))
    }

    /// Iterate over rows only.
    pub fn tuples(&self) -> impl Iterator<Item = RowRef<'_>> {
        (0..self.len()).map(move |id| RowRef { rel: self, id })
    }

    /// A copy of this relation containing only rows satisfying `pred`,
    /// under a new name. Used for the heavy/light partitioning of §5.3.1.
    /// The schema (and thus any column dictionaries) is shared with the
    /// original, so the partition stays decode- and join-compatible.
    pub fn filter(
        &self,
        name: impl Into<String>,
        mut pred: impl FnMut(RowRef<'_>) -> bool,
    ) -> Relation {
        let mut out = Relation::with_schema(name, self.schema.clone());
        for id in 0..self.len() {
            if pred(RowRef { rel: self, id }) {
                for (dst, src) in out.columns.iter_mut().zip(&self.columns) {
                    dst.push(src[id]);
                }
                out.weights.push(self.weights[id]);
            }
        }
        out
    }

    /// A copy of this relation with the tuples in `deletes` removed and
    /// `inserts` appended, under the same name. Survivors keep their
    /// relative order, so a surviving tuple's new id is its old id minus
    /// the number of deleted ids below it; inserts take the ids past the
    /// survivors. The schema (and thus any column dictionaries) is shared
    /// with the original.
    ///
    /// `deletes` must be sorted ascending, deduplicated, and in bounds
    /// (callers go through [`Database::apply_delta`](crate::Database::apply_delta),
    /// which validates; see [`crate::delta::RelationDelta::sorted_deletes`]).
    ///
    /// # Panics
    /// Panics if an inserted tuple's arity does not match the relation's.
    pub fn apply_delta(&self, deletes: &[TupleId], inserts: &[Tuple]) -> Relation {
        debug_assert!(deletes.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(deletes.last().is_none_or(|&d| d < self.len()));
        let survivors = self.len() - deletes.len();
        let mut out = Relation::with_schema_capacity(
            self.name.clone(),
            self.schema.clone(),
            survivors + inserts.len(),
        );
        let mut next_delete = deletes.iter().peekable();
        for id in 0..self.len() {
            if next_delete.peek() == Some(&&id) {
                next_delete.next();
                continue;
            }
            for (dst, src) in out.columns.iter_mut().zip(&self.columns) {
                dst.push(src[id]);
            }
            out.weights.push(self.weights[id]);
        }
        for tuple in inserts {
            out.push(tuple.clone());
        }
        out
    }

    /// Total weight of all tuples (handy for sanity checks in tests).
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_row_refuses_a_non_finite_weight() {
        let mut r = Relation::new("R", 2);
        r.push_row(&[1, 2], 0.5);
        for weight in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let pushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                r.push_row(&[3, 4], weight);
            }));
            let msg = pushed.expect_err("a non-finite weight panics");
            assert!(
                msg.downcast_ref::<String>()
                    .is_some_and(|m| m.contains("is not finite")),
                "{weight}"
            );
        }
        assert_eq!(r.len(), 1);
        assert_eq!(r.column(0), &[1]);
    }

    #[test]
    fn push_and_lookup() {
        let mut r = Relation::new("R", 2);
        let id = r.push(Tuple::new(vec![1, 2], 0.5));
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuple(id).values_vec(), vec![1, 2]);
        assert_eq!(r.tuple(id).value(1), 2);
        assert_eq!(r.tuple(id).weight(), 0.5);
        assert!(!r.is_empty());
        assert_eq!(r.name(), "R");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new("R", 2);
        r.push(Tuple::new(vec![1, 2, 3], 0.0));
    }

    #[test]
    fn filter_creates_partition() {
        let mut r = Relation::new("R", 2);
        for i in 0..10 {
            r.push_edge(i, i + 1, i as f64);
        }
        let heavy = r.filter("R_heavy", |t| t.value(0) >= 5);
        assert_eq!(heavy.len(), 5);
        assert_eq!(heavy.name(), "R_heavy");
        assert_eq!(r.len(), 10, "original is untouched");
    }

    #[test]
    fn edge_helper_requires_binary() {
        let mut r = Relation::new("E", 2);
        r.push_edge(1, 2, 3.0);
        assert_eq!(r.total_weight(), 3.0);
    }

    #[test]
    fn columns_are_contiguous_per_attribute() {
        let mut r = Relation::new("R", 3);
        r.push_row(&[1, 10, 100], 0.1);
        r.push_row(&[2, 20, 200], 0.2);
        r.push_row(&[3, 30, 300], 0.3);
        assert_eq!(r.column(0), &[1, 2, 3]);
        assert_eq!(r.column(1), &[10, 20, 30]);
        assert_eq!(r.column(2), &[100, 200, 300]);
        assert_eq!(r.weights(), &[0.1, 0.2, 0.3]);
    }

    #[test]
    fn text_columns_encode_on_push_and_decode_on_read() {
        let mut r = Relation::with_schema("FOLLOWS", Schema::text_shared(2));
        r.push_text_edge("alice", "bob", 1.0);
        r.push_text_edge("bob", "alice", 2.0);
        r.push_text_edge("alice", "carol", 3.0);
        // The columns hold dense ids: "alice"=0, "bob"=1, "carol"=2 (shared
        // dictionary, first-encounter order across both columns).
        assert_eq!(r.column(0), &[0, 1, 0]);
        assert_eq!(r.column(1), &[1, 0, 2]);
        assert_eq!(r.tuple(0).decoded(0).as_deref(), Some("alice"));
        assert_eq!(r.tuple(2).decoded(1).as_deref(), Some("carol"));
        assert_eq!(r.tuple(1).display_value(0), "bob");
        assert_eq!(r.dictionary(0).unwrap().len(), 3);
    }

    #[test]
    fn mixed_schema_encodes_per_column() {
        let schema = Schema::new(vec![ColumnType::text(), ColumnType::Id]);
        let mut r = Relation::with_schema("VISITS", schema);
        r.push_fields(&[Field::Str("alice"), Field::Int(42)], 1.0);
        // Loader path: a numeric string in an id column is parsed.
        r.push_fields(&[Field::Str("bob"), Field::Str("7")], 2.0);
        assert_eq!(r.column(0), &[0, 1]);
        assert_eq!(r.column(1), &[42, 7]);
        assert_eq!(r.tuple(0).decoded(0).as_deref(), Some("alice"));
        assert_eq!(r.tuple(0).decoded(1), None, "id column has no dictionary");
        assert_eq!(r.tuple(1).display_value(1), "7");
    }

    #[test]
    #[should_panic(expected = "non-numeric")]
    fn non_numeric_string_in_id_column_panics() {
        let mut r = Relation::new("R", 1);
        r.push_fields(&[Field::Str("alice")], 0.0);
    }

    #[test]
    fn failed_push_fields_leaves_columns_aligned() {
        let mut r = Relation::new("R", 2);
        r.push_edge(1, 2, 0.5);
        // Column 0's field is resolvable, column 1's panics: the row must be
        // rejected atomically, never half-pushed.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.push_fields(&[Field::Int(7), Field::Str("alice")], 0.0);
        }));
        assert!(outcome.is_err());
        assert_eq!(r.len(), 1);
        assert_eq!(r.column(0), &[1]);
        assert_eq!(r.column(1), &[2]);
    }

    #[test]
    fn filter_shares_the_dictionary() {
        let mut r = Relation::with_schema("F", Schema::text_shared(2));
        r.push_text_edge("alice", "bob", 1.0);
        r.push_text_edge("bob", "carol", 5.0);
        let heavy = r.filter("F_heavy", |t| t.weight() > 2.0);
        assert_eq!(heavy.len(), 1);
        assert_eq!(heavy.tuple(0).decoded(0).as_deref(), Some("bob"));
        assert!(std::sync::Arc::ptr_eq(
            r.dictionary(0).unwrap(),
            heavy.dictionary(0).unwrap()
        ));
    }

    #[test]
    fn row_ref_round_trips_through_tuple() {
        let mut r = Relation::new("R", 2);
        r.push_row(&[7, 9], 1.5);
        let t = r.tuple(0).to_tuple();
        assert_eq!(t.values(), &[7, 9]);
        assert_eq!(t.weight(), 1.5);
        assert_eq!(r.tuple(0).values().collect::<Vec<_>>(), vec![7, 9]);
    }
}
