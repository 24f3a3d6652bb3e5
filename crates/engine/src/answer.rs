//! Query answers, and decoding them back to original strings.
//!
//! Ranked enumeration runs entirely over dense `u64` ids; when the input
//! relations are dictionary-encoded (see `anyk_storage::dictionary`), an
//! [`AnswerDecoder`] maps each head-variable position back to the dictionary
//! of a column that binds it, so every [`Answer`] — from any-k, the naive-SQL
//! baseline, or a projection — renders its original strings.

use anyk_query::ConjunctiveQuery;
use anyk_storage::{Database, Dictionary, TupleId, Value};
use std::sync::Arc;

/// Head values an [`Answer`] holds inline, without a heap allocation.
const INLINE_VALUES: usize = 8;
/// Witness entries an [`Answer`] holds inline, without a heap allocation.
const INLINE_WITNESS: usize = 8;

/// One ranked answer of a conjunctive query.
///
/// An answer is an assignment of the query's head variables to values, its
/// weight under the chosen [`crate::RankingFunction`], and (where available)
/// the witness — the input tuples that joined to produce it (§2.1).
///
/// Up to eight head values and eight witness entries are stored inside the
/// answer itself (216 bytes in all); a longer run moves to the heap. So
/// building, cloning and dropping the answer of a query with at most eight
/// atoms and eight head variables allocates nothing. The storage is
/// invisible to callers: equality and `Debug` see the slices.
#[derive(Clone)]
pub struct Answer {
    weight: f64,
    values: InlineVec<Value, INLINE_VALUES>,
    witness: InlineVec<(usize, TupleId), INLINE_WITNESS>,
}

impl Answer {
    /// Create an answer. `values` must be aligned with the query's head
    /// variables; `witness` holds `(atom index, tuple id)` pairs and may be
    /// empty when the answer was produced through a decomposition whose
    /// derived relations do not correspond to single input tuples.
    pub fn new(weight: f64, values: Vec<Value>, witness: Vec<(usize, TupleId)>) -> Self {
        Self::from_iters(weight, values.into_iter(), witness.into_iter())
    }

    /// Create an answer by draining two exact-length iterators, without
    /// building an intermediate `Vec` when both fit inline.
    pub fn from_iters(
        weight: f64,
        values: impl ExactSizeIterator<Item = Value>,
        witness: impl ExactSizeIterator<Item = (usize, TupleId)>,
    ) -> Self {
        Answer {
            weight,
            values: InlineVec::from_exact(values),
            witness: InlineVec::from_exact(witness),
        }
    }

    /// The answer's weight under the query's ranking function.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The head-variable values, aligned with
    /// [`anyk_query::ConjunctiveQuery::head_variables`].
    pub fn values(&self) -> &[Value] {
        self.values.as_slice()
    }

    /// The value bound to head variable position `idx`.
    pub fn value(&self, idx: usize) -> Value {
        self.values()[idx]
    }

    /// The witness: one `(atom index, tuple id)` pair per atom, ascending by
    /// atom index whatever atom roots the plan's join tree, naming the input
    /// tuple of the plan's database that the atom matched — with or without
    /// selections, which never renumber tuples. Empty on a cycle-decomposed
    /// plan, whose bag tuples are not input tuples.
    pub fn witness(&self) -> &[(usize, TupleId)] {
        self.witness.as_slice()
    }
}

impl PartialEq for Answer {
    fn eq(&self, other: &Self) -> bool {
        self.weight == other.weight
            && self.values() == other.values()
            && self.witness() == other.witness()
    }
}

impl std::fmt::Debug for Answer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Answer")
            .field("weight", &self.weight)
            .field("values", &self.values())
            .field("witness", &self.witness())
            .finish()
    }
}

/// Up to `N` elements in place, more on the heap.
#[derive(Clone)]
enum InlineVec<T, const N: usize> {
    Inline { len: u8, buf: [T; N] },
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    fn from_exact(items: impl ExactSizeIterator<Item = T>) -> Self {
        if items.len() > N {
            return InlineVec::Heap(items.collect());
        }
        let mut buf = [T::default(); N];
        let mut len = 0u8;
        for (slot, item) in buf.iter_mut().zip(items) {
            *slot = item;
            len += 1;
        }
        InlineVec::Inline { len, buf }
    }

    fn as_slice(&self) -> &[T] {
        match self {
            InlineVec::Inline { len, buf } => &buf[..*len as usize],
            InlineVec::Heap(items) => items,
        }
    }
}

/// One decoded head-variable value: the original string for a
/// dictionary-encoded column, the raw id otherwise.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum DecodedValue {
    /// A raw-id column's value (or an id the dictionary could not decode).
    Int(Value),
    /// A text column's value, decoded back to its original string.
    Text(String),
}

impl std::fmt::Display for DecodedValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodedValue::Int(v) => write!(f, "{v}"),
            DecodedValue::Text(s) => f.write_str(s),
        }
    }
}

/// Decodes [`Answer`] values back to original strings for a specific query.
///
/// Built once per query: for each head variable, the decoder records the
/// dictionary of the first body column that binds it (all columns binding one
/// variable must share a dictionary anyway for the equi-join to be
/// meaningful — see `anyk_storage::dictionary`). The decoder owns `Arc`
/// handles, so it keeps decoding consistently even if a relation is later
/// replaced in the database: it describes the snapshot it was built from.
#[derive(Debug, Clone, Default)]
pub struct AnswerDecoder {
    /// One entry per head-variable position: the dictionary to decode
    /// through, or `None` for raw-id columns.
    dictionaries: Vec<Option<Arc<Dictionary>>>,
}

impl AnswerDecoder {
    /// Build a decoder for `query`'s head variables over `db`.
    ///
    /// # Panics
    /// Panics if an atom references a relation absent from `db` (the same
    /// contract as preparing the query itself).
    pub fn for_query(db: &Database, query: &ConjunctiveQuery) -> Self {
        let dictionaries = query
            .head_variables()
            .iter()
            .map(|var| {
                query.atoms().iter().find_map(|atom| {
                    let pos = atom.variables.iter().position(|v| v == var)?;
                    db.expect(&atom.relation).dictionary(pos).cloned()
                })
            })
            .collect();
        AnswerDecoder { dictionaries }
    }

    /// Number of head-variable positions this decoder covers.
    pub fn arity(&self) -> usize {
        self.dictionaries.len()
    }

    /// Decode the value at head position `pos`.
    ///
    /// # Panics
    /// Panics if `pos >= arity()`.
    pub fn decode_value(&self, pos: usize, value: Value) -> DecodedValue {
        match &self.dictionaries[pos] {
            Some(dict) => match dict.decode(value) {
                Some(s) => DecodedValue::Text(s),
                // An id the dictionary never issued: surface the raw id
                // rather than panicking mid-render.
                None => DecodedValue::Int(value),
            },
            None => DecodedValue::Int(value),
        }
    }

    /// Decode every head value of `answer`.
    ///
    /// # Panics
    /// Panics if the answer's arity differs from the decoder's.
    pub fn decode(&self, answer: &Answer) -> Vec<DecodedValue> {
        assert_eq!(
            answer.values().len(),
            self.dictionaries.len(),
            "answer arity does not match the decoder's query"
        );
        answer
            .values()
            .iter()
            .enumerate()
            .map(|(pos, &v)| self.decode_value(pos, v))
            .collect()
    }

    /// Decode every head value of `answer` straight to display strings
    /// (moves decoded strings out rather than copying them a second time).
    pub fn render(&self, answer: &Answer) -> Vec<String> {
        self.decode(answer)
            .into_iter()
            .map(|v| match v {
                DecodedValue::Int(n) => n.to_string(),
                DecodedValue::Text(s) => s,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let a = Answer::new(4.5, vec![1, 2, 3], vec![(0, 7), (1, 9)]);
        assert_eq!(a.weight(), 4.5);
        assert_eq!(a.values(), &[1, 2, 3]);
        assert_eq!(a.value(2), 3);
        assert_eq!(a.witness(), &[(0, 7), (1, 9)]);
    }

    #[test]
    fn inline_and_heap_storage_are_invisible() {
        assert_eq!(
            INLINE_VALUES, INLINE_WITNESS,
            "the arities below probe both"
        );
        #[cfg(target_pointer_width = "64")]
        assert_eq!(std::mem::size_of::<Answer>(), 216, "as the type doc says");
        for n in [0, INLINE_VALUES, INLINE_VALUES + 1, 64] {
            let values: Vec<Value> = (0..n as u64).map(|v| v * 3).collect();
            let witness: Vec<(usize, TupleId)> = (0..n).map(|i| (i, i + 100)).collect();
            let a = Answer::new(1.5, values.clone(), witness.clone());
            assert_eq!(matches!(a.values, InlineVec::Heap(_)), n > INLINE_VALUES);
            assert_eq!(matches!(a.witness, InlineVec::Heap(_)), n > INLINE_WITNESS);

            assert_eq!(a.weight(), 1.5);
            assert_eq!(a.values(), &values[..]);
            assert_eq!(a.witness(), &witness[..]);
            if n > 0 {
                assert_eq!(a.value(n - 1), values[n - 1]);
            }
            let b = Answer::from_iters(1.5, values.iter().copied(), witness.iter().copied());
            assert_eq!(a, b, "arity {n}");
            assert_eq!(a.clone(), a);
            assert_ne!(a, Answer::new(2.5, values.clone(), witness.clone()));

            // The same content forced onto the heap compares equal.
            let heap = Answer {
                weight: 1.5,
                values: InlineVec::Heap(values.clone()),
                witness: InlineVec::Heap(witness.clone()),
            };
            assert_eq!(heap, a, "arity {n}");
            assert_eq!(a, heap, "arity {n}");

            // `Debug` reads exactly as the derived `Vec`-backed form did.
            assert_eq!(
                format!("{a:?}"),
                format!("Answer {{ weight: 1.5, values: {values:?}, witness: {witness:?} }}")
            );
        }
    }

    #[test]
    fn decoder_maps_head_positions_to_column_dictionaries() {
        use anyk_query::QueryBuilder;
        use anyk_storage::{ColumnType, Relation, Schema};

        // R1(x1: text, x2: id), R2(x2: id, x3: text).
        let mut db = Database::new();
        let mut r1 =
            Relation::with_schema("R1", Schema::new(vec![ColumnType::text(), ColumnType::Id]));
        r1.push_fields(&[anyk_storage::Field::Str("alice"), 42u64.into()], 1.0);
        let mut r2 =
            Relation::with_schema("R2", Schema::new(vec![ColumnType::Id, ColumnType::text()]));
        r2.push_fields(&[42u64.into(), anyk_storage::Field::Str("rust")], 2.0);
        db.add(r1);
        db.add(r2);

        let query = QueryBuilder::path(2).build();
        let decoder = AnswerDecoder::for_query(&db, &query);
        assert_eq!(decoder.arity(), 3);

        let answer = Answer::new(3.0, vec![0, 42, 0], Vec::new());
        assert_eq!(
            decoder.decode(&answer),
            vec![
                DecodedValue::Text("alice".into()),
                DecodedValue::Int(42),
                DecodedValue::Text("rust".into()),
            ]
        );
        assert_eq!(decoder.render(&answer), vec!["alice", "42", "rust"]);
        // An id the dictionary never issued falls back to the raw id.
        assert_eq!(decoder.decode_value(0, 999), DecodedValue::Int(999));
    }
}
