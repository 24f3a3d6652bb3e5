//! Selection pushdown: the linear-time preprocessing pass of §2.1.
//!
//! The paper reduces selections — equality with a constant (`y = 7`,
//! `name = "alice"`) and repeated variables within one atom (`R(x, x)`) —
//! to one linear pass over the affected relation *before* compilation. This
//! module implements that pass for [`QuerySpec`](anyk_query::QuerySpec)
//! requests and for structural queries whose atoms repeat a variable:
//!
//! * every atom's constraints are gathered (constants pushed down from the
//!   spec's predicates to each column binding the variable, plus
//!   column-equality constraints for repeated variables);
//! * each constrained atom gets a **row list**: the ascending tuple ids of
//!   its relation's rows that satisfy them. Nothing is copied, so a plan
//!   compiled over a [`Selection`] reads the caller's database, and its
//!   answers' witnesses name the caller's tuples;
//! * the query itself is left as written — including repeats, which the
//!   equi-join compilation handles correctly once the listed rows satisfy
//!   the column equalities.
//!
//! String constants resolve through the dictionary of the column they are
//! pushed to; a string the dictionary never interned simply selects no row
//! (no answer can match), while a constant of the wrong type for its column
//! is a typed [`EngineError::ConstantTypeMismatch`].

use crate::compile::validate;
use crate::error::EngineError;
use anyk_query::{ConjunctiveQuery, Constant, Predicate};
use anyk_storage::{Database, Relation, TupleId, Value};

/// The rows each atom of a query ranges over after selection pushdown.
#[derive(Debug, Default)]
pub(crate) struct Selection {
    /// Per atom: `None` for every row of its relation, or the ascending ids
    /// of the rows that pass. Empty when no atom is constrained.
    rows: Vec<Option<Vec<TupleId>>>,
}

impl Selection {
    /// The row list of atom `atom`, or `None` when it ranges over every row.
    pub(crate) fn rows(&self, atom: usize) -> Option<&[TupleId]> {
        self.rows.get(atom)?.as_deref()
    }

    /// Whether no atom is constrained.
    pub(crate) fn is_trivial(&self) -> bool {
        self.rows.iter().all(Option::is_none)
    }

    /// The tuple ids atom `atom` ranges over in `relation`, ascending: the
    /// `i`-th item is the atom's `i`-th row.
    pub(crate) fn tuple_ids(
        &self,
        atom: usize,
        relation: &Relation,
    ) -> impl ExactSizeIterator<Item = TupleId> + '_ {
        let rows = self.rows(atom);
        (0..rows.map_or(relation.len(), <[TupleId]>::len)).map(move |i| rows.map_or(i, |r| r[i]))
    }
}

/// Per-atom selection constraints in column terms.
#[derive(Debug, Default)]
struct AtomSelection {
    /// `column = value` requirements (already dictionary-encoded).
    consts: Vec<(usize, Value)>,
    /// `column a = column b` requirements from repeated variables.
    eqs: Vec<(usize, usize)>,
    /// A predicate constant could not be encoded (e.g. a string the
    /// dictionary never interned): no row can match.
    unsatisfiable: bool,
}

impl AtomSelection {
    fn is_trivial(&self) -> bool {
        self.consts.is_empty() && self.eqs.is_empty() && !self.unsatisfiable
    }

    /// The ascending ids of `relation`'s rows that pass: one scan of the
    /// first constant's column (of every row when there is none), with the
    /// other constraints tested only on the rows it keeps.
    fn rows(&self, relation: &Relation) -> Vec<TupleId> {
        if self.unsatisfiable {
            return Vec::new();
        }
        let consts: Vec<(&[Value], Value)> = self
            .consts
            .iter()
            .map(|&(col, v)| (relation.column(col), v))
            .collect();
        let eqs: Vec<(&[Value], &[Value])> = self
            .eqs
            .iter()
            .map(|&(a, b)| (relation.column(a), relation.column(b)))
            .collect();
        let rest = |tid: TupleId| {
            consts.iter().skip(1).all(|&(col, v)| col[tid] == v)
                && eqs.iter().all(|&(a, b)| a[tid] == b[tid])
        };
        match consts.first() {
            Some(&(col, v)) => col
                .iter()
                .enumerate()
                .filter(|&(tid, &x)| x == v && rest(tid))
                .map(|(tid, _)| tid)
                .collect(),
            None => (0..relation.len()).filter(|&tid| rest(tid)).collect(),
        }
    }
}

/// Encode `constant` for column `col` of `relation`: through the column's
/// dictionary for text columns (`Ok(None)` when the string was never
/// interned — an unsatisfiable selection, not an error), verbatim for
/// integer constants on raw-id columns.
fn encode_constant(
    relation: &Relation,
    col: usize,
    constant: &Constant,
) -> Result<Option<Value>, EngineError> {
    let mismatch = || EngineError::ConstantTypeMismatch {
        relation: relation.name().to_string(),
        column: col,
        constant: constant.to_string(),
    };
    match (constant, relation.dictionary(col)) {
        (Constant::Int(v), None) => Ok(Some(*v)),
        (Constant::Str(s), Some(dict)) => Ok(dict.lookup(s)),
        _ => Err(mismatch()),
    }
}

/// The rows of `query`'s atoms that satisfy `predicates` and the atoms'
/// repeated variables. Returns the trivial [`Selection`] — no row list at
/// all — when there is nothing to select.
pub(crate) fn select(
    db: &Database,
    query: &ConjunctiveQuery,
    predicates: &[Predicate],
) -> Result<Selection, EngineError> {
    validate(db, query)?;
    for p in predicates {
        if !query.atoms().iter().any(|a| a.binds(&p.variable)) {
            return Err(EngineError::Query(
                anyk_query::QueryError::UnknownPredicateVariable {
                    variable: p.variable.clone(),
                },
            ));
        }
    }

    let atoms = query.atoms();
    let mut selections = Vec::with_capacity(atoms.len());
    for atom in atoms {
        let relation = db.expect(&atom.relation);
        let mut sel = AtomSelection::default();
        for (col, var) in atom.variables.iter().enumerate() {
            // Repeated variable: this column must equal the variable's first
            // binding column.
            if let Some(first) = atom.variables[..col].iter().position(|v| v == var) {
                sel.eqs.push((first, col));
            }
            for p in predicates.iter().filter(|p| p.variable == *var) {
                match encode_constant(relation, col, &p.constant)? {
                    Some(v) => sel.consts.push((col, v)),
                    None => sel.unsatisfiable = true,
                }
            }
        }
        selections.push(sel);
    }
    if selections.iter().all(AtomSelection::is_trivial) {
        return Ok(Selection::default());
    }

    // One linear pass per constrained atom — the paper's bound. Two atoms
    // over the same relation may carry different selections, so the lists
    // are per atom.
    let rows = atoms
        .iter()
        .zip(&selections)
        .map(|(atom, sel)| (!sel.is_trivial()).then(|| sel.rows(db.expect(&atom.relation))))
        .collect();
    Ok(Selection { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_query::{QueryBuilder, QuerySpec, RankingFunction};
    use anyk_storage::Schema;

    fn db() -> Database {
        let mut db = Database::new();
        let mut r = Relation::new("R", 2);
        r.push_edge(1, 1, 1.0);
        r.push_edge(1, 2, 2.0);
        r.push_edge(2, 2, 3.0);
        let mut s = Relation::new("S", 2);
        s.push_edge(1, 5, 1.0);
        s.push_edge(2, 6, 2.0);
        db.add(r);
        db.add(s);
        db
    }

    #[test]
    fn trivial_queries_are_left_alone() {
        let db = db();
        let q = QueryBuilder::new()
            .atom("R", &["x", "y"])
            .atom("S", &["y", "z"])
            .build();
        let sel = select(&db, &q, &[]).unwrap();
        assert!(sel.is_trivial());
        assert_eq!(sel.rows(0), None);
        assert_eq!(sel.tuple_ids(1, db.expect("S")).collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn repeated_variables_filter_to_the_diagonal() {
        let db = db();
        let q = QueryBuilder::new().atom("R", &["x", "x"]).build();
        let sel = select(&db, &q, &[]).unwrap();
        assert_eq!(sel.rows(0), Some(&[0, 2][..]), "only (1,1) and (2,2) pass");
        assert_eq!(sel.tuple_ids(0, db.expect("R")).collect::<Vec<_>>(), [0, 2]);
    }

    #[test]
    fn constants_push_down_to_every_binding_column() {
        let db = db();
        let q = QueryBuilder::new()
            .atom("R", &["x", "y"])
            .atom("S", &["y", "z"])
            .build();
        let sel = select(&db, &q, &[Predicate::int("y", 2)]).unwrap();
        // Both atoms bind y, so both get row lists of base tuple ids.
        assert_eq!(sel.rows(0), Some(&[1, 2][..]), "(1,2) and (2,2)");
        assert_eq!(sel.rows(1), Some(&[1][..]), "(2,6)");
    }

    #[test]
    fn unknown_dictionary_strings_filter_everything() {
        let mut db = Database::new();
        let mut f = Relation::with_schema("F", Schema::text_shared(2));
        f.push_text_edge("carol", "dave", 2.0);
        f.push_text_edge("alice", "bob", 1.0);
        db.add(f);
        let q = QueryBuilder::new().atom("F", &["a", "b"]).build();
        let sel = select(&db, &q, &[Predicate::text("a", "nobody")]).unwrap();
        assert_eq!(sel.rows(0), Some(&[][..]));
        // A known string keeps the matching row, under its own tuple id.
        let sel = select(&db, &q, &[Predicate::text("a", "alice")]).unwrap();
        assert_eq!(sel.rows(0), Some(&[1][..]));
        assert_eq!(db.expect("F").tuple(1).decoded(1).as_deref(), Some("bob"));
    }

    #[test]
    fn type_mismatches_are_typed_errors() {
        let mut db = db();
        let mut f = Relation::with_schema("F", Schema::text_shared(2));
        f.push_text_edge("alice", "bob", 1.0);
        db.add(f);
        let q = QueryBuilder::new().atom("F", &["a", "b"]).build();
        assert!(matches!(
            select(&db, &q, &[Predicate::int("a", 3)]),
            Err(EngineError::ConstantTypeMismatch { .. })
        ));
        let q = QueryBuilder::new().atom("R", &["x", "y"]).build();
        assert!(matches!(
            select(&db, &q, &[Predicate::text("x", "alice")]),
            Err(EngineError::ConstantTypeMismatch { .. })
        ));
    }

    #[test]
    fn unknown_predicate_variables_are_typed_errors() {
        let db = db();
        let q = QueryBuilder::new().atom("R", &["x", "y"]).build();
        assert!(matches!(
            select(&db, &q, &[Predicate::int("nope", 1)]),
            Err(EngineError::Query(_))
        ));
    }

    #[test]
    fn conflicting_constants_select_nothing() {
        let db = db();
        let q = QueryBuilder::new().atom("R", &["x", "y"]).build();
        let sel = select(&db, &q, &[Predicate::int("x", 1), Predicate::int("x", 2)]).unwrap();
        assert_eq!(sel.rows(0), Some(&[][..]));
    }

    #[test]
    fn filtered_witnesses_name_input_tuples() {
        // `x = 3` keeps R's third row alone: the witness must name R's
        // tuple 2, its id in the caller's database.
        let mut db = Database::new();
        let mut r = Relation::new("R", 2);
        let mut s = Relation::new("S", 2);
        for (i, x) in [1, 2, 3].into_iter().enumerate() {
            r.push_edge(x, 10 * x, i as f64);
            s.push_edge(10 * x, 100 * x, i as f64);
        }
        db.add(r);
        db.add(s);
        let spec = QuerySpec::parse("Q(x, y, z) :- R(x, y), S(y, z), x = 3").unwrap();
        let oracle = crate::naive_sql::join_and_sort_spec(&db, &spec).unwrap();
        assert_eq!(oracle.len(), 1);
        assert_eq!(oracle[0].witness(), [(0, 2), (1, 2)]);

        let db = std::sync::Arc::new(db);
        let ranked = crate::RankedQuery::from_spec(&db, &spec).unwrap();
        let prepared = crate::PreparedQuery::from_spec(std::sync::Arc::clone(&db), &spec).unwrap();
        for algorithm in anyk_core::AnyKAlgorithm::ALL {
            for answers in [
                ranked.enumerate(algorithm).collect::<Vec<_>>(),
                prepared.enumerate(algorithm).collect(),
            ] {
                assert_eq!(answers.len(), 1, "{algorithm}");
                assert_eq!(answers[0].values(), &[3, 30, 300]);
                assert_eq!(answers[0].witness(), [(0, 2), (1, 2)], "{algorithm}");
            }
        }
    }

    #[test]
    fn a_selected_parent_joins_on_a_two_column_key() {
        // P(a, b, c) is the join tree's root and C(a, b, d)'s parent on the
        // key (a, b); `c = 1` lists P's rows 1, 3 and 4, so the compile
        // indexes only those and probes them with C's two key columns.
        let mut db = Database::new();
        let mut p = Relation::new("P", 3);
        let mut c = Relation::new("C", 3);
        for (i, row) in [[1, 2, 0], [1, 2, 1], [2, 3, 0], [2, 3, 1], [4, 4, 1]]
            .iter()
            .enumerate()
        {
            p.push_row(row, i as f64);
        }
        for (i, row) in [[2, 3, 7], [1, 2, 8], [4, 5, 9], [1, 2, 6]]
            .iter()
            .enumerate()
        {
            c.push_row(row, 10.0 * i as f64);
        }
        db.add(p);
        db.add(c);
        let q = QueryBuilder::new()
            .atom("C", &["a", "b", "d"])
            .atom("P", &["a", "b", "c"])
            .build();
        assert_eq!(anyk_query::gyo::join_tree(q.atoms()).unwrap().root(), 1);
        let preds = [Predicate::int("c", 1)];
        assert_eq!(
            select(&db, &q, &preds).unwrap().rows(1),
            Some(&[1, 3, 4][..])
        );

        let mut spec = QuerySpec::from_query(&q, RankingFunction::SumAscending);
        spec.predicates = preds.to_vec();
        let oracle = crate::naive_sql::join_and_sort_spec(&db, &spec).unwrap();
        let witnesses = |answers: &[crate::Answer]| -> Vec<Vec<(usize, TupleId)>> {
            answers.iter().map(|a| a.witness().to_vec()).collect()
        };
        let expected = [
            vec![(0, 0), (1, 3)],
            vec![(0, 1), (1, 1)],
            vec![(0, 3), (1, 1)],
        ];
        assert_eq!(witnesses(&oracle), expected);
        let plan = crate::RankedQuery::from_spec(&db, &spec).unwrap();
        for algorithm in anyk_core::AnyKAlgorithm::ALL {
            let got: Vec<_> = plan.enumerate(algorithm).collect();
            assert_eq!(witnesses(&got), expected, "{algorithm}");
        }
    }
}
