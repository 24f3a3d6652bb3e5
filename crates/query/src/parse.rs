//! Hand-rolled recursive-descent parser for the textual query language.
//!
//! One line of text describes one complete any-k request:
//!
//! ```text
//! Q(x, z) :- R(x, y), S(y, z), y = 7 rank by sum limit 1000
//! ```
//!
//! # Grammar
//!
//! ```text
//! query     := head ":-" body { clause }
//! head      := ident "(" [ var { "," var } ] ")"
//! body      := item { "," item }
//! item      := atom | predicate
//! atom      := ident "(" term { "," term } ")"
//! term      := var | constant
//! predicate := var "=" constant | constant "=" var
//! constant  := nat | string
//! clause    := "rank" "by" ranking | "via" algorithm | "limit" nat
//! ranking   := "sum" [ "asc" | "desc" ] | "bottleneck" [ "asc" ]
//! algorithm := "eager" | "lazy" | "all" | "take2" | "recursive" | "batch"
//! var       := ident
//! ident     := [A-Za-z_] [A-Za-z0-9_]*
//! nat       := [0-9]+
//! string    := '"' { char | '\"' | '\\' } '"'
//! ```
//!
//! Notes:
//!
//! * The head name (`Q`) is arbitrary and not retained; the canonical
//!   printer always writes `Q`.
//! * Whitespace separates tokens and is otherwise ignored. Keywords
//!   (`rank`, `by`, `via`, `limit`, ranking and algorithm names) are
//!   contextual: a relation or variable may reuse them.
//! * A constant **inside an atom** (`R(x, 7)`, `Follows(u, "alice")`) is
//!   sugar for a fresh variable plus an equality predicate; the parser
//!   desugars it, so `R(x, 7)` and `R(x, y), y = 7` produce the same
//!   canonical form and share a plan-cache entry.
//! * Trailing clauses may appear in any order, each at most once; the
//!   canonical printer emits `rank by … via … limit …` and omits defaults
//!   (`rank by sum`, no algorithm pin, no limit).
//! * Every failure is a typed [`ParseError`] carrying the byte offset of
//!   the offending token — arbitrary input never panics.

use crate::atom::Atom;
use crate::error::QueryError;
use crate::ranking::RankingFunction;
use crate::spec::{algorithm_from_token, Constant, Predicate, QuerySpec};
use std::fmt;

/// A syntax or validation failure while parsing query text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where the problem was detected.
    pub offset: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl ParseError {
    fn new(offset: usize, message: impl Into<String>) -> Self {
        ParseError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<QueryError> for ParseError {
    fn from(e: QueryError) -> Self {
        ParseError::new(0, e.to_string())
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(u64),
    Str(String),
    LParen,
    RParen,
    Comma,
    Eq,
    Turnstile,
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Int(v) => format!("integer `{v}`"),
            Tok::Str(s) => format!("string {s:?}"),
            Tok::LParen => "`(`".into(),
            Tok::RParen => "`)`".into(),
            Tok::Comma => "`,`".into(),
            Tok::Eq => "`=`".into(),
            Tok::Turnstile => "`:-`".into(),
        }
    }
}

fn lex(text: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let bytes = text.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '(' => {
                toks.push((Tok::LParen, i));
                i += 1;
            }
            ')' => {
                toks.push((Tok::RParen, i));
                i += 1;
            }
            ',' => {
                toks.push((Tok::Comma, i));
                i += 1;
            }
            '=' => {
                toks.push((Tok::Eq, i));
                i += 1;
            }
            ':' => {
                if bytes.get(i + 1) == Some(&b'-') {
                    toks.push((Tok::Turnstile, i));
                    i += 2;
                } else {
                    return Err(ParseError::new(i, "expected `:-`"));
                }
            }
            '"' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(ParseError::new(start, "unterminated string literal"));
                        }
                        Some(b'"') => {
                            i += 1;
                            break;
                        }
                        Some(b'\\') => match bytes.get(i + 1) {
                            Some(b'"') => {
                                s.push('"');
                                i += 2;
                            }
                            Some(b'\\') => {
                                s.push('\\');
                                i += 2;
                            }
                            _ => {
                                return Err(ParseError::new(
                                    i,
                                    "unknown escape in string literal (only \\\" and \\\\)",
                                ));
                            }
                        },
                        Some(_) => {
                            // Consume one full UTF-8 scalar, not one byte.
                            let rest = &text[i..];
                            let ch = rest.chars().next().expect("non-empty remainder");
                            s.push(ch);
                            i += ch.len_utf8();
                        }
                    }
                }
                toks.push((Tok::Str(s), start));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let lit = &text[start..i];
                let v: u64 = lit.parse().map_err(|_| {
                    ParseError::new(start, format!("integer literal `{lit}` is out of range"))
                })?;
                toks.push((Tok::Int(v), start));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                toks.push((Tok::Ident(text[start..i].to_string()), start));
            }
            other => {
                return Err(ParseError::new(
                    i,
                    format!("unexpected character `{other}`"),
                ));
            }
        }
    }
    Ok(toks)
}

struct Parser<'a> {
    toks: &'a [(Tok, usize)],
    pos: usize,
    end: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.toks.get(self.pos).map_or(self.end, |&(_, o)| o)
    }

    fn next(&mut self, expected: &str) -> Result<&'a Tok, ParseError> {
        match self.toks.get(self.pos) {
            Some((t, _)) => {
                self.pos += 1;
                Ok(t)
            }
            None => Err(ParseError::new(
                self.end,
                format!("expected {expected}, found end of input"),
            )),
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<(), ParseError> {
        let offset = self.offset();
        let got = self.next(&tok.describe())?;
        if *got == tok {
            Ok(())
        } else {
            Err(ParseError::new(
                offset,
                format!("expected {}, found {}", tok.describe(), got.describe()),
            ))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        let offset = self.offset();
        match self.next(what)? {
            Tok::Ident(s) => Ok(s.clone()),
            other => Err(ParseError::new(
                offset,
                format!("expected {what}, found {}", other.describe()),
            )),
        }
    }

    fn eat_ident(&mut self, word: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == word) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn constant(&mut self) -> Result<Constant, ParseError> {
        let offset = self.offset();
        match self.next("a constant")? {
            Tok::Int(v) => Ok(Constant::Int(*v)),
            Tok::Str(s) => Ok(Constant::Str(s.clone())),
            other => Err(ParseError::new(
                offset,
                format!("expected a constant, found {}", other.describe()),
            )),
        }
    }
}

/// One parsed atom term before constants are desugared. Constants carry
/// their source offset so desugared predicates keep a real position.
enum Term {
    Var(String),
    Const(Constant, usize),
}

/// Parse one request in the textual query language into a validated
/// [`QuerySpec`]. See the [module docs](self) for the grammar.
pub fn parse_query(text: &str) -> Result<QuerySpec, ParseError> {
    let toks = lex(text)?;
    let mut p = Parser {
        toks: &toks,
        pos: 0,
        end: text.len(),
    };

    // Head: ident "(" [var {"," var}] ")". The head name is not retained.
    // Offsets ride along with every head and predicate variable so the
    // post-parse validation below can point at the offending token.
    p.ident("the head name")?;
    p.expect(Tok::LParen)?;
    let mut free = Vec::new();
    let mut head_offsets = Vec::new();
    if p.peek() != Some(&Tok::RParen) {
        loop {
            head_offsets.push(p.offset());
            free.push(p.ident("a head variable")?);
            if p.peek() == Some(&Tok::Comma) {
                p.pos += 1;
            } else {
                break;
            }
        }
    }
    p.expect(Tok::RParen)?;
    p.expect(Tok::Turnstile)?;

    // Body: atoms and predicates separated by commas.
    let body_offset = p.offset();
    let mut raw_atoms: Vec<(String, Vec<Term>)> = Vec::new();
    let mut predicates: Vec<Predicate> = Vec::new();
    let mut predicate_offsets: Vec<usize> = Vec::new();
    loop {
        match (p.peek(), p.peek2()) {
            // ident "(" … ")" — an atom.
            (Some(Tok::Ident(_)), Some(Tok::LParen)) => {
                let relation = p.ident("a relation name")?;
                p.expect(Tok::LParen)?;
                let mut terms = Vec::new();
                if p.peek() != Some(&Tok::RParen) {
                    loop {
                        let offset = p.offset();
                        let term = match p.next("a variable or constant")? {
                            Tok::Ident(v) => Term::Var(v.clone()),
                            Tok::Int(v) => Term::Const(Constant::Int(*v), offset),
                            Tok::Str(s) => Term::Const(Constant::Str(s.clone()), offset),
                            other => {
                                return Err(ParseError::new(
                                    offset,
                                    format!(
                                        "expected a variable or constant, found {}",
                                        other.describe()
                                    ),
                                ));
                            }
                        };
                        terms.push(term);
                        if p.peek() == Some(&Tok::Comma) {
                            p.pos += 1;
                        } else {
                            break;
                        }
                    }
                }
                p.expect(Tok::RParen)?;
                raw_atoms.push((relation, terms));
            }
            // var "=" constant — a predicate.
            (Some(Tok::Ident(_)), Some(Tok::Eq)) => {
                predicate_offsets.push(p.offset());
                let variable = p.ident("a variable")?;
                p.expect(Tok::Eq)?;
                let constant = p.constant()?;
                predicates.push(Predicate { variable, constant });
            }
            // constant "=" var — a flipped predicate.
            (Some(Tok::Int(_)) | Some(Tok::Str(_)), _) => {
                let constant = p.constant()?;
                p.expect(Tok::Eq)?;
                predicate_offsets.push(p.offset());
                let variable = p.ident("a variable")?;
                predicates.push(Predicate { variable, constant });
            }
            _ => {
                return Err(ParseError::new(
                    p.offset(),
                    "expected an atom `R(…)` or a predicate `x = c`",
                ));
            }
        }
        if p.peek() == Some(&Tok::Comma) {
            p.pos += 1;
        } else {
            break;
        }
    }

    // Trailing clauses, any order, each at most once.
    let mut ranking: Option<RankingFunction> = None;
    let mut algorithm = None;
    let mut limit = None;
    loop {
        let offset = p.offset();
        if p.eat_ident("rank") {
            if ranking.is_some() {
                return Err(ParseError::new(offset, "duplicate `rank by` clause"));
            }
            if !p.eat_ident("by") {
                return Err(ParseError::new(p.offset(), "expected `by` after `rank`"));
            }
            let which = p.offset();
            let name = p.ident("a ranking (`sum` or `bottleneck`)")?;
            ranking = Some(match name.as_str() {
                "sum" => {
                    if p.eat_ident("desc") {
                        RankingFunction::SumDescending
                    } else {
                        p.eat_ident("asc");
                        RankingFunction::SumAscending
                    }
                }
                "bottleneck" => {
                    if p.eat_ident("desc") {
                        return Err(ParseError::new(
                            which,
                            "descending bottleneck ranking is not supported",
                        ));
                    }
                    p.eat_ident("asc");
                    RankingFunction::BottleneckAscending
                }
                other => {
                    return Err(ParseError::new(
                        which,
                        format!("unknown ranking `{other}` (expected `sum` or `bottleneck`)"),
                    ));
                }
            });
        } else if p.eat_ident("via") {
            if algorithm.is_some() {
                return Err(ParseError::new(offset, "duplicate `via` clause"));
            }
            let which = p.offset();
            let name = p.ident("an algorithm name")?;
            algorithm = Some(algorithm_from_token(&name).ok_or_else(|| {
                ParseError::new(
                    which,
                    format!(
                        "unknown algorithm `{name}` (expected eager, lazy, all, \
                         take2, recursive, or batch)"
                    ),
                )
            })?);
        } else if p.eat_ident("limit") {
            if limit.is_some() {
                return Err(ParseError::new(offset, "duplicate `limit` clause"));
            }
            let which = p.offset();
            match p.next("a limit")? {
                Tok::Int(v) => limit = Some(*v as usize),
                other => {
                    return Err(ParseError::new(
                        which,
                        format!("expected a limit count, found {}", other.describe()),
                    ));
                }
            }
        } else {
            break;
        }
    }
    if p.pos < toks.len() {
        return Err(ParseError::new(
            p.offset(),
            format!(
                "unexpected {} after the end of the query",
                toks[p.pos].0.describe()
            ),
        ));
    }

    // Desugar inline constants into fresh variables plus predicates, so
    // `R(x, 7)` and `R(x, y), y = 7` canonicalize identically.
    let mut used: std::collections::HashSet<String> = free.iter().cloned().collect();
    for (_, terms) in &raw_atoms {
        for t in terms {
            if let Term::Var(v) = t {
                used.insert(v.clone());
            }
        }
    }
    let mut fresh_counter = 0usize;
    let mut fresh = move |used: &mut std::collections::HashSet<String>| loop {
        let name = format!("_c{fresh_counter}");
        fresh_counter += 1;
        if used.insert(name.clone()) {
            return name;
        }
    };
    let atoms: Vec<Atom> = raw_atoms
        .into_iter()
        .map(|(relation, terms)| Atom {
            relation,
            variables: terms
                .into_iter()
                .map(|t| match t {
                    Term::Var(v) => v,
                    Term::Const(c, offset) => {
                        let v = fresh(&mut used);
                        predicates.push(Predicate {
                            variable: v.clone(),
                            constant: c,
                        });
                        predicate_offsets.push(offset);
                        v
                    }
                })
                .collect(),
        })
        .collect();

    let spec = QuerySpec {
        atoms,
        free,
        predicates,
        ranking: ranking.unwrap_or_default(),
        algorithm,
        limit,
    };

    // The same checks as `QuerySpec::validate`, but each failure points at
    // the offending token rather than byte 0.
    if spec.atoms.is_empty() {
        return Err(ParseError::new(
            body_offset,
            QueryError::EmptyBody.to_string(),
        ));
    }
    for (i, (v, &offset)) in spec.free.iter().zip(&head_offsets).enumerate() {
        if !spec.atoms.iter().any(|a| a.binds(v)) {
            return Err(ParseError::new(
                offset,
                QueryError::UnknownHeadVariable {
                    variable: v.clone(),
                }
                .to_string(),
            ));
        }
        if spec.free[..i].contains(v) {
            return Err(ParseError::new(
                offset,
                QueryError::DuplicateHeadVariable {
                    variable: v.clone(),
                }
                .to_string(),
            ));
        }
    }
    for (p, &offset) in spec.predicates.iter().zip(&predicate_offsets) {
        if !spec.atoms.iter().any(|a| a.binds(&p.variable)) {
            return Err(ParseError::new(
                offset,
                QueryError::UnknownPredicateVariable {
                    variable: p.variable.clone(),
                }
                .to_string(),
            ));
        }
    }
    debug_assert!(spec.validate().is_ok(), "inline checks mirror validate()");
    Ok(spec)
}

impl std::str::FromStr for QuerySpec {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_query(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_core::AnyKAlgorithm;

    #[test]
    fn parses_the_issue_example() {
        let s = parse_query("Q(x, z) :- R(x, y), S(y, z), y = 7 rank by sum limit 1000").unwrap();
        assert_eq!(s.atoms.len(), 2);
        assert_eq!(s.free, vec!["x", "z"]);
        assert_eq!(s.predicates, vec![Predicate::int("y", 7)]);
        assert_eq!(s.ranking, RankingFunction::SumAscending);
        assert_eq!(s.limit, Some(1000));
        assert_eq!(s.algorithm, None);
    }

    #[test]
    fn inline_constants_desugar_like_explicit_predicates() {
        let sugar = parse_query("Q(x) :- R(x, 7)").unwrap();
        let explicit = parse_query("Q(x) :- R(x, y), y = 7").unwrap();
        assert_eq!(sugar.canonical_text(), explicit.canonical_text());
        let s = parse_query("Q(u) :- Follows(u, \"alice\")").unwrap();
        assert_eq!(s.predicates, vec![Predicate::text("_c0", "alice")],);
    }

    #[test]
    fn fresh_variables_avoid_user_names() {
        let s = parse_query("Q(_c0) :- R(_c0, 7)").unwrap();
        assert_eq!(s.atoms[0].variables[0], "_c0");
        assert_ne!(s.atoms[0].variables[1], "_c0");
        assert!(s.atoms[0].variables[1].starts_with("_c"));
    }

    #[test]
    fn clauses_parse_in_any_order() {
        let a = parse_query("Q(x) :- R(x, y) rank by sum desc via lazy limit 5").unwrap();
        let b = parse_query("Q(x) :- R(x, y) limit 5 via lazy rank by sum desc").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.ranking, RankingFunction::SumDescending);
        assert_eq!(a.algorithm, Some(AnyKAlgorithm::Lazy));
        assert_eq!(a.limit, Some(5));
    }

    #[test]
    fn a_shards_clause_is_a_parse_error_at_its_token() {
        let text = "Q(x) :- R(x, y) via lazy shards 4";
        let err = parse_query(text).unwrap_err();
        assert_eq!(err.offset, text.find("shards").unwrap());
        assert!(err.message.contains("after the end of the query"));
    }

    #[test]
    fn flipped_predicates_and_repeated_variables() {
        let s = parse_query("Q(x, y) :- R(x, x), S(x, y), 3 = y").unwrap();
        assert_eq!(s.atoms[0].variables, vec!["x", "x"]);
        assert_eq!(s.predicates, vec![Predicate::int("y", 3)]);
    }

    #[test]
    fn rankings_parse_with_optional_direction() {
        assert_eq!(
            parse_query("Q(x) :- R(x, y) rank by sum asc")
                .unwrap()
                .ranking,
            RankingFunction::SumAscending
        );
        assert_eq!(
            parse_query("Q(x) :- R(x, y) rank by bottleneck")
                .unwrap()
                .ranking,
            RankingFunction::BottleneckAscending
        );
        let err = parse_query("Q(x) :- R(x, y) rank by bottleneck desc").unwrap_err();
        assert!(err.message.contains("not supported"));
    }

    #[test]
    fn syntax_errors_carry_offsets() {
        let err = parse_query("Q(x) :- R(x, y) rank by lexicographic").unwrap_err();
        assert!(err.message.contains("lexicographic"));
        assert_eq!(err.offset, 24);
        let err = parse_query("Q(x)").unwrap_err();
        assert!(err.to_string().contains("end of input"));
        assert!(parse_query("").is_err());
        assert!(parse_query("Q(x) : R(x, y)").is_err());
        assert!(parse_query("Q(x) :- R(x, y) extra").is_err());
        assert!(parse_query("Q(x) :- R(x, \"oops)").is_err());
    }

    #[test]
    fn validation_errors_point_at_the_offending_token() {
        let err = parse_query("Q(zz) :- R(x, y)").unwrap_err();
        assert!(err.message.contains("zz"));
        assert_eq!(err.offset, 2, "points at `zz`");
        let err = parse_query("Q(x) :- R(x, y), q = 3").unwrap_err();
        assert!(err.message.contains("`q`"));
        assert_eq!(err.offset, 17, "points at `q`");
        let err = parse_query("Q(x) :- R(x, y), 3 = q").unwrap_err();
        assert_eq!(err.offset, 21, "flipped predicate points at `q`");
        let err = parse_query("Q(x, y, x) :- R(x, y)").unwrap_err();
        assert!(err.message.contains("more than once"));
        assert_eq!(err.offset, 8, "points at the second `x`");
        let err = parse_query("Q(x) :- x = 3").unwrap_err();
        assert!(err.message.contains("at least one atom"));
        assert_eq!(err.offset, 8, "points at the body");
    }

    #[test]
    fn keywords_are_contextual() {
        // A relation named `rank` and a variable named `limit` are legal.
        let s = parse_query("Q(limit) :- rank(limit, via) limit 2").unwrap();
        assert_eq!(s.atoms[0].relation, "rank");
        assert_eq!(s.free, vec!["limit"]);
        assert_eq!(s.limit, Some(2));
    }

    #[test]
    fn strings_support_escapes_and_unicode() {
        let s = parse_query("Q(x) :- R(x, \"a\\\"b\\\\cé\")").unwrap();
        assert_eq!(
            s.predicates[0].constant,
            Constant::Str("a\"b\\cé".to_string())
        );
    }
}
