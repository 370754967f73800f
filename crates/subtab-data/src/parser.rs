//! Hand-written lexer + recursive-descent parser for the SQL-ish query
//! text form.
//!
//! Grammar (EBNF, keywords case-insensitive):
//!
//! ```text
//! query      := [ "SELECT" ( "*" | [ ident { "," ident } ] ) ]
//!               [ [ "WHERE" ] expr ]          (* WHERE required after SELECT *)
//!               [ "ORDER" "BY" sortkey { "," sortkey } ]
//!               [ "LIMIT" integer ] ;
//! sortkey    := ident [ "ASC" | "DESC" ] ;
//! expr       := conj { "OR" conj } ;
//! conj       := unary { "AND" unary } ;
//! unary      := "NOT" unary | primary ;
//! primary    := "(" expr ")" | "TRUE" | "FALSE" | predicate ;
//! predicate  := ident ( compare | in | between | nulltest ) ;
//! compare    := ( "=" | "!=" | "<>" | "<" | "<=" | ">" | ">=" ) literal ;
//! in         := [ "NOT" ] "IN" "(" [ literal { "," literal } ] ")" ;
//! between    := [ "NOT" ] "BETWEEN" number "AND" number ;
//! nulltest   := "IS" [ "NOT" ] "NULL" ;
//! literal    := number | string | "TRUE" | "FALSE" | "NULL" ;
//! ident      := plain identifier | '"' double-quoted ("" escapes) '"' ;
//! string     := "'" single-quoted ('' escapes) "'" ;
//! ```
//!
//! `BETWEEN` keeps the engine's half-open `[low, high)` semantics, and its
//! `AND` belongs to the predicate, not the boolean connective. Parse
//! failures are typed [`DataError::QueryParse`] errors carrying the byte
//! position of the offending token.
//!
//! Nesting — every `(` and every prefix `NOT` — is capped at
//! [`MAX_NESTING_DEPTH`] levels. The parser recurses once per level, and so
//! do the later walks over the tree, so without the cap a few hundred KiB
//! of `(((…` could overflow the stack of whichever thread parses it and
//! abort the process.

use crate::error::DataError;
use crate::expr::{fmt_ident, QueryExpr};
use crate::query::{CompareOp, Predicate, Query, SortOrder, SortSpec};
use crate::value::Value;
use crate::Result;
use std::fmt;

/// Deepest nesting of parentheses and prefix `NOT`s a query may have; the
/// `(` or `NOT` that opens one level more is a [`DataError::QueryParse`]
/// at its byte position.
pub const MAX_NESTING_DEPTH: usize = 64;

/// The reserved words of the text form; a column spelled like one must be
/// double-quoted.
const KEYWORDS: &[(&str, Kw)] = &[
    ("SELECT", Kw::Select),
    ("WHERE", Kw::Where),
    ("ORDER", Kw::Order),
    ("BY", Kw::By),
    ("ASC", Kw::Asc),
    ("DESC", Kw::Desc),
    ("LIMIT", Kw::Limit),
    ("AND", Kw::And),
    ("OR", Kw::Or),
    ("NOT", Kw::Not),
    ("IN", Kw::In),
    ("BETWEEN", Kw::Between),
    ("IS", Kw::Is),
    ("NULL", Kw::Null),
    ("TRUE", Kw::True),
    ("FALSE", Kw::False),
];

/// Whether `word` is reserved (case-insensitive) and must be quoted to be
/// used as a column name.
pub(crate) fn is_reserved_word(word: &str) -> bool {
    KEYWORDS.iter().any(|(k, _)| word.eq_ignore_ascii_case(k))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kw {
    Select,
    Where,
    Order,
    By,
    Asc,
    Desc,
    Limit,
    And,
    Or,
    Not,
    In,
    Between,
    Is,
    Null,
    True,
    False,
}

impl Kw {
    fn name(self) -> &'static str {
        KEYWORDS
            .iter()
            .find(|(_, k)| *k == self)
            .map(|(n, _)| *n)
            .expect("every keyword is in the table")
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Int(i64),
    Float(f64),
    Kw(Kw),
    Op(CompareOp),
    LParen,
    RParen,
    Comma,
    Star,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Str(_) => write!(f, "string literal"),
            Tok::Int(i) => write!(f, "number `{i}`"),
            Tok::Float(x) => write!(f, "number `{x}`"),
            Tok::Kw(k) => write!(f, "`{}`", k.name()),
            Tok::Op(op) => {
                let s = match op {
                    CompareOp::Eq => "=",
                    CompareOp::Ne => "!=",
                    CompareOp::Lt => "<",
                    CompareOp::Le => "<=",
                    CompareOp::Gt => ">",
                    CompareOp::Ge => ">=",
                };
                write!(f, "`{s}`")
            }
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Star => write!(f, "`*`"),
        }
    }
}

fn parse_err(position: usize, message: impl Into<String>) -> DataError {
    DataError::QueryParse {
        position,
        message: message.into(),
    }
}

/// Tokenises `input` into `(byte position, token)` pairs.
fn lex(input: &str) -> Result<Vec<(usize, Tok)>> {
    let chars: Vec<(usize, char)> = input.char_indices().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        let (pos, c) = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '(' => {
                toks.push((pos, Tok::LParen));
                i += 1;
            }
            ')' => {
                toks.push((pos, Tok::RParen));
                i += 1;
            }
            ',' => {
                toks.push((pos, Tok::Comma));
                i += 1;
            }
            '*' => {
                toks.push((pos, Tok::Star));
                i += 1;
            }
            '=' => {
                toks.push((pos, Tok::Op(CompareOp::Eq)));
                i += 1;
            }
            '!' => {
                if chars.get(i + 1).is_some_and(|&(_, c)| c == '=') {
                    toks.push((pos, Tok::Op(CompareOp::Ne)));
                    i += 2;
                } else {
                    return Err(parse_err(pos, "unknown operator `!` (did you mean `!=`?)"));
                }
            }
            '<' => match chars.get(i + 1).map(|&(_, c)| c) {
                Some('=') => {
                    toks.push((pos, Tok::Op(CompareOp::Le)));
                    i += 2;
                }
                Some('>') => {
                    toks.push((pos, Tok::Op(CompareOp::Ne)));
                    i += 2;
                }
                _ => {
                    toks.push((pos, Tok::Op(CompareOp::Lt)));
                    i += 1;
                }
            },
            '>' => {
                if chars.get(i + 1).is_some_and(|&(_, c)| c == '=') {
                    toks.push((pos, Tok::Op(CompareOp::Ge)));
                    i += 2;
                } else {
                    toks.push((pos, Tok::Op(CompareOp::Gt)));
                    i += 1;
                }
            }
            '\'' | '"' => {
                let quote = c;
                let mut out = String::new();
                let mut j = i + 1;
                let mut closed = false;
                while j < chars.len() {
                    let (_, cj) = chars[j];
                    if cj == quote {
                        // A doubled quote is an escaped quote character.
                        if chars.get(j + 1).is_some_and(|&(_, n)| n == quote) {
                            out.push(quote);
                            j += 2;
                        } else {
                            closed = true;
                            j += 1;
                            break;
                        }
                    } else {
                        out.push(cj);
                        j += 1;
                    }
                }
                if !closed {
                    let what = if quote == '\'' {
                        "unterminated string literal"
                    } else {
                        "unterminated quoted identifier"
                    };
                    return Err(parse_err(pos, what));
                }
                toks.push((
                    pos,
                    if quote == '\'' {
                        Tok::Str(out)
                    } else {
                        Tok::Ident(out)
                    },
                ));
                i = j;
            }
            c if c.is_ascii_digit() || c == '-' => {
                if c == '-'
                    && !chars
                        .get(i + 1)
                        .is_some_and(|&(_, n)| n.is_ascii_digit() || n == '.')
                {
                    return Err(parse_err(pos, "unexpected character `-`"));
                }
                i += 1; // sign or first digit
                while i < chars.len() && chars[i].1.is_ascii_digit() {
                    i += 1;
                }
                if i < chars.len() && chars[i].1 == '.' {
                    i += 1;
                    while i < chars.len() && chars[i].1.is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < chars.len() && matches!(chars[i].1, 'e' | 'E') {
                    i += 1;
                    if i < chars.len() && matches!(chars[i].1, '+' | '-') {
                        i += 1;
                    }
                    while i < chars.len() && chars[i].1.is_ascii_digit() {
                        i += 1;
                    }
                }
                let end = chars.get(i).map_or(input.len(), |&(p, _)| p);
                let text = &input[pos..end];
                let tok = if text.contains(['.', 'e', 'E']) {
                    Tok::Float(
                        text.parse::<f64>()
                            .map_err(|_| parse_err(pos, format!("bad numeric literal `{text}`")))?,
                    )
                } else {
                    match text.parse::<i64>() {
                        Ok(v) => Tok::Int(v),
                        // Magnitudes beyond i64 degrade to float.
                        Err(_) => Tok::Float(text.parse::<f64>().map_err(|_| {
                            parse_err(pos, format!("bad numeric literal `{text}`"))
                        })?),
                    }
                };
                toks.push((pos, tok));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i + 1;
                while j < chars.len() && (chars[j].1.is_ascii_alphanumeric() || chars[j].1 == '_') {
                    j += 1;
                }
                let end = chars.get(j).map_or(input.len(), |&(p, _)| p);
                let word = &input[pos..end];
                let tok = match KEYWORDS.iter().find(|(k, _)| word.eq_ignore_ascii_case(k)) {
                    Some(&(_, kw)) => Tok::Kw(kw),
                    None => Tok::Ident(word.to_string()),
                };
                toks.push((pos, tok));
                i = j;
            }
            other => return Err(parse_err(pos, format!("unexpected character `{other}`"))),
        }
    }
    Ok(toks)
}

struct Parser {
    toks: Vec<(usize, Tok)>,
    i: usize,
    /// Byte length of the input; the position reported at end-of-input.
    eof: usize,
    /// Open `(` and `NOT` levels around the current token.
    depth: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Self> {
        Ok(Parser {
            toks: lex(input)?,
            i: 0,
            eof: input.len(),
            depth: 0,
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.i).map(|(_, t)| t)
    }

    fn pos(&self) -> usize {
        self.toks.get(self.i).map_or(self.eof, |&(p, _)| p)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.i).map(|(_, t)| t.clone());
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        if self.peek() == Some(&Tok::Kw(kw)) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: Kw) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("`{}`", kw.name())))
        }
    }

    fn unexpected(&self, wanted: &str) -> DataError {
        let found = match self.peek() {
            Some(t) => format!("{t}"),
            None => "end of input".to_string(),
        };
        parse_err(self.pos(), format!("expected {wanted}, found {found}"))
    }

    fn expect_ident(&mut self, what: &str) -> Result<String> {
        match self.peek() {
            Some(Tok::Ident(_)) => match self.bump() {
                Some(Tok::Ident(s)) => Ok(s),
                _ => unreachable!("peeked an identifier"),
            },
            _ => Err(self.unexpected(what)),
        }
    }

    /// `expr := conj { OR conj }`
    fn parse_or(&mut self) -> Result<QueryExpr> {
        let first = self.parse_and()?;
        if self.peek() != Some(&Tok::Kw(Kw::Or)) {
            return Ok(first);
        }
        let mut children = vec![first];
        while self.eat_kw(Kw::Or) {
            children.push(self.parse_and()?);
        }
        Ok(QueryExpr::Or(children))
    }

    /// `conj := unary { AND unary }`
    fn parse_and(&mut self) -> Result<QueryExpr> {
        let first = self.parse_unary()?;
        if self.peek() != Some(&Tok::Kw(Kw::And)) {
            return Ok(first);
        }
        let mut children = vec![first];
        while self.eat_kw(Kw::And) {
            children.push(self.parse_unary()?);
        }
        Ok(QueryExpr::And(children))
    }

    /// Consumes the current token — a `(` or a `NOT` — as one more nesting
    /// level, or fails at its position past [`MAX_NESTING_DEPTH`].
    fn descend(&mut self) -> Result<()> {
        if self.depth == MAX_NESTING_DEPTH {
            return Err(parse_err(
                self.pos(),
                format!("query nests deeper than {MAX_NESTING_DEPTH} levels of `(` and `NOT`"),
            ));
        }
        self.depth += 1;
        self.i += 1;
        Ok(())
    }

    /// `unary := NOT unary | primary`
    fn parse_unary(&mut self) -> Result<QueryExpr> {
        if self.peek() == Some(&Tok::Kw(Kw::Not)) {
            self.descend()?;
            let inner = self.parse_unary()?;
            self.depth -= 1;
            Ok(inner.negated())
        } else {
            self.parse_primary()
        }
    }

    /// `primary := '(' expr ')' | TRUE | FALSE | predicate`
    fn parse_primary(&mut self) -> Result<QueryExpr> {
        if self.peek() == Some(&Tok::LParen) {
            self.descend()?;
            let inner = self.parse_or()?;
            if !self.eat(&Tok::RParen) {
                return Err(self.unexpected("`)`"));
            }
            self.depth -= 1;
            return Ok(inner);
        }
        if self.eat_kw(Kw::True) {
            return Ok(QueryExpr::And(Vec::new()));
        }
        if self.eat_kw(Kw::False) {
            return Ok(QueryExpr::Or(Vec::new()));
        }
        let column = self.expect_ident("a predicate")?;
        self.parse_predicate_rest(column)
    }

    /// Everything after a predicate's column name.
    fn parse_predicate_rest(&mut self, column: String) -> Result<QueryExpr> {
        match self.peek() {
            Some(Tok::Op(_)) => {
                let Some(Tok::Op(op)) = self.bump() else {
                    unreachable!("peeked an operator");
                };
                let value = self.expect_literal()?;
                Ok(QueryExpr::Leaf(Predicate::Compare { column, op, value }))
            }
            Some(Tok::Kw(Kw::Is)) => {
                self.i += 1;
                let negated = self.eat_kw(Kw::Not);
                self.expect_kw(Kw::Null)?;
                Ok(QueryExpr::Leaf(if negated {
                    Predicate::NotNull { column }
                } else {
                    Predicate::IsNull { column }
                }))
            }
            Some(Tok::Kw(Kw::In)) => {
                self.i += 1;
                Ok(QueryExpr::Leaf(self.parse_in_tail(column)?))
            }
            Some(Tok::Kw(Kw::Between)) => {
                self.i += 1;
                Ok(QueryExpr::Leaf(self.parse_between_tail(column)?))
            }
            Some(Tok::Kw(Kw::Not)) => {
                // `col NOT IN (...)` / `col NOT BETWEEN a AND b`.
                self.i += 1;
                if self.eat_kw(Kw::In) {
                    Ok(QueryExpr::Leaf(self.parse_in_tail(column)?).negated())
                } else if self.eat_kw(Kw::Between) {
                    Ok(QueryExpr::Leaf(self.parse_between_tail(column)?).negated())
                } else {
                    Err(self.unexpected("`IN` or `BETWEEN` after `NOT`"))
                }
            }
            _ => Err(self.unexpected("a comparison operator, `IN`, `BETWEEN` or `IS`")),
        }
    }

    /// The `( literal, ... )` tail of an `IN` predicate (empty list allowed,
    /// so every printable expression round-trips).
    fn parse_in_tail(&mut self, column: String) -> Result<Predicate> {
        if !self.eat(&Tok::LParen) {
            return Err(self.unexpected("`(` after `IN`"));
        }
        let mut values = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                values.push(self.expect_literal()?);
                if self.eat(&Tok::Comma) {
                    continue;
                }
                if self.eat(&Tok::RParen) {
                    break;
                }
                return Err(self.unexpected("`,` or `)` in IN list"));
            }
        }
        Ok(Predicate::InSet { column, values })
    }

    /// The `low AND high` tail of a `BETWEEN` predicate.
    fn parse_between_tail(&mut self, column: String) -> Result<Predicate> {
        let low = self.expect_number("a numeric BETWEEN bound")?;
        self.expect_kw(Kw::And)?;
        let high = self.expect_number("a numeric BETWEEN bound")?;
        Ok(Predicate::Between { column, low, high })
    }

    fn expect_literal(&mut self) -> Result<Value> {
        match self.peek() {
            Some(Tok::Int(_) | Tok::Float(_) | Tok::Str(_))
            | Some(Tok::Kw(Kw::True | Kw::False | Kw::Null)) => Ok(match self.bump() {
                Some(Tok::Int(i)) => Value::Int(i),
                Some(Tok::Float(x)) => Value::Float(x),
                Some(Tok::Str(s)) => Value::Str(s),
                Some(Tok::Kw(Kw::True)) => Value::Bool(true),
                Some(Tok::Kw(Kw::False)) => Value::Bool(false),
                Some(Tok::Kw(Kw::Null)) => Value::Null,
                _ => unreachable!("peeked a literal"),
            }),
            _ => Err(self.unexpected("a literal")),
        }
    }

    fn expect_number(&mut self, what: &str) -> Result<f64> {
        match self.peek() {
            Some(&Tok::Int(i)) => {
                self.i += 1;
                Ok(i as f64)
            }
            Some(&Tok::Float(x)) => {
                self.i += 1;
                Ok(x)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    fn expect_limit(&mut self) -> Result<usize> {
        match self.peek() {
            Some(&Tok::Int(i)) if i >= 0 => {
                self.i += 1;
                Ok(i as usize)
            }
            _ => Err(self.unexpected("a non-negative integer LIMIT")),
        }
    }

    fn expect_end(&self) -> Result<()> {
        match self.peek() {
            None => Ok(()),
            Some(t) => Err(parse_err(
                self.pos(),
                format!("unexpected trailing {t} after the query"),
            )),
        }
    }

    /// Whether the next token can start an expression.
    fn at_expr_start(&self) -> bool {
        matches!(
            self.peek(),
            Some(Tok::Ident(_) | Tok::LParen | Tok::Kw(Kw::Not | Kw::True | Kw::False))
        )
    }

    fn parse_query(&mut self) -> Result<Query> {
        let mut q = Query::new();
        let had_select = self.eat_kw(Kw::Select);
        if had_select && !self.eat(&Tok::Star) {
            // `SELECT *` keeps projection = None; a (possibly empty) column
            // list sets it.
            let mut cols = Vec::new();
            if matches!(self.peek(), Some(Tok::Ident(_))) {
                loop {
                    cols.push(self.expect_ident("a projection column")?);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
            }
            q.projection = Some(cols);
        }
        if self.eat_kw(Kw::Where) {
            q.expr = self.parse_or()?;
        } else if !had_select && self.at_expr_start() {
            // Without a SELECT clause the WHERE keyword is optional:
            // `age > 30 LIMIT 5` is a complete query.
            q.expr = self.parse_or()?;
        }
        if self.eat_kw(Kw::Order) {
            self.expect_kw(Kw::By)?;
            loop {
                let column = self.expect_ident("a sort column")?;
                let order = if self.eat_kw(Kw::Desc) {
                    SortOrder::Descending
                } else {
                    self.eat_kw(Kw::Asc);
                    SortOrder::Ascending
                };
                q.sort.push(SortSpec { column, order });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw(Kw::Limit) {
            q.limit = Some(self.expect_limit()?);
        }
        self.expect_end()?;
        Ok(q)
    }
}

impl QueryExpr {
    /// Parses the boolean-expression text form (the `expr` production of
    /// the grammar documented on [`Query::parse`]). Fails with a
    /// positioned [`DataError::QueryParse`] on malformed input.
    pub fn parse(input: &str) -> Result<QueryExpr> {
        let mut p = Parser::new(input)?;
        let expr = p.parse_or()?;
        p.expect_end()?;
        Ok(expr)
    }
}

impl std::str::FromStr for QueryExpr {
    type Err = DataError;

    fn from_str(s: &str) -> Result<Self> {
        QueryExpr::parse(s)
    }
}

impl Query {
    /// Parses the full query text form: optional `SELECT` projection,
    /// optional (`WHERE`-introduced or bare) boolean expression, `ORDER BY`
    /// and `LIMIT` clauses. The empty string parses to the match-all
    /// [`Query::new`]. Group-by has no text form.
    ///
    /// ```
    /// use subtab_data::Query;
    /// let q = Query::parse(
    ///     "age > 30 AND (city = 'NYC' OR NOT risk IN ('high', 'unknown')) LIMIT 20",
    /// )
    /// .unwrap();
    /// assert_eq!(q.limit, Some(20));
    /// ```
    pub fn parse(input: &str) -> Result<Query> {
        Parser::new(input)?.parse_query()
    }
}

impl std::str::FromStr for Query {
    type Err = DataError;

    fn from_str(s: &str) -> Result<Self> {
        Query::parse(s)
    }
}

impl fmt::Display for Query {
    /// Prints the query in the text form [`Query::parse`] accepts.
    /// Reparsing yields a selection-equivalent query (identical
    /// [`Query::selection_key`]); the group-by clause has no text form and
    /// is omitted. The match-all [`Query::new`] prints as the empty string.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        if let Some(proj) = &self.projection {
            write!(f, "SELECT")?;
            for (i, c) in proj.iter().enumerate() {
                write!(f, "{}", if i == 0 { " " } else { ", " })?;
                fmt_ident(c, f)?;
            }
            sep = " ";
        }
        if !self.expr.is_match_all() {
            // After a SELECT clause the WHERE keyword is mandatory (it
            // separates projection columns from the expression).
            write!(f, "{sep}")?;
            if self.projection.is_some() {
                write!(f, "WHERE ")?;
            }
            write!(f, "{}", self.expr)?;
            sep = " ";
        }
        if !self.sort.is_empty() {
            write!(f, "{sep}ORDER BY")?;
            for (i, s) in self.sort.iter().enumerate() {
                write!(f, "{}", if i == 0 { " " } else { ", " })?;
                fmt_ident(&s.column, f)?;
                write!(
                    f,
                    " {}",
                    match s.order {
                        SortOrder::Ascending => "ASC",
                        SortOrder::Descending => "DESC",
                    }
                )?;
            }
            sep = " ";
        }
        if let Some(n) = self.limit {
            write!(f, "{sep}LIMIT {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr(s: &str) -> QueryExpr {
        QueryExpr::parse(s).unwrap()
    }

    #[test]
    fn parses_the_flagship_nested_query() {
        let q =
            Query::parse("age > 30 AND (city = 'NYC' OR NOT risk IN ('high','unknown')) LIMIT 20")
                .unwrap();
        assert_eq!(q.limit, Some(20));
        let QueryExpr::And(children) = &q.expr else {
            panic!("top level is AND, got {:?}", q.expr);
        };
        assert_eq!(children.len(), 2);
        assert_eq!(
            children[0],
            QueryExpr::Leaf(Predicate::gt("age", Value::Int(30)))
        );
        let QueryExpr::Or(inner) = &children[1] else {
            panic!("parenthesised OR");
        };
        assert_eq!(inner.len(), 2);
        assert!(matches!(&inner[1], QueryExpr::Not(_)));
    }

    #[test]
    fn precedence_is_or_under_and_under_not() {
        // a AND b OR c = (a AND b) OR c
        let e = expr("x = 1 AND y = 2 OR z = 3");
        assert!(matches!(&e, QueryExpr::Or(v) if v.len() == 2));
        // NOT binds tighter than AND.
        let e = expr("NOT x = 1 AND y = 2");
        let QueryExpr::And(v) = &e else {
            panic!("AND on top");
        };
        assert!(matches!(&v[0], QueryExpr::Not(_)));
        // Parens override.
        let e = expr("x = 1 AND (y = 2 OR z = 3)");
        let QueryExpr::And(v) = &e else {
            panic!("AND on top");
        };
        assert!(matches!(&v[1], QueryExpr::Or(_)));
        // NOT NOT nests without parens.
        let e = expr("NOT NOT x = 1");
        assert!(matches!(&e, QueryExpr::Not(inner) if matches!(**inner, QueryExpr::Not(_))));
    }

    #[test]
    fn predicate_forms_parse() {
        assert_eq!(
            expr("x != 'a'"),
            QueryExpr::Leaf(Predicate::ne("x", Value::from("a")))
        );
        assert_eq!(expr("x <> 'a'"), expr("x != 'a'"), "<> is an alias of !=");
        assert_eq!(
            expr("x BETWEEN 1 AND 2.5"),
            QueryExpr::Leaf(Predicate::between("x", 1.0, 2.5))
        );
        assert_eq!(
            expr("x NOT BETWEEN 1 AND 2"),
            QueryExpr::Leaf(Predicate::between("x", 1.0, 2.0)).negated()
        );
        assert_eq!(
            expr("x IN (1, 'two', TRUE, NULL)"),
            QueryExpr::Leaf(Predicate::in_set(
                "x",
                vec![
                    Value::Int(1),
                    Value::from("two"),
                    Value::Bool(true),
                    Value::Null
                ]
            ))
        );
        assert_eq!(
            expr("x NOT IN (1)"),
            QueryExpr::Leaf(Predicate::in_set("x", vec![Value::Int(1)])).negated()
        );
        assert_eq!(
            expr("x IN ()"),
            QueryExpr::Leaf(Predicate::in_set("x", vec![]))
        );
        assert_eq!(expr("x IS NULL"), QueryExpr::Leaf(Predicate::is_null("x")));
        assert_eq!(
            expr("x IS NOT NULL"),
            QueryExpr::Leaf(Predicate::not_null("x"))
        );
        assert_eq!(expr("TRUE"), QueryExpr::And(vec![]));
        assert_eq!(expr("FALSE"), QueryExpr::Or(vec![]));
    }

    #[test]
    fn keywords_are_case_insensitive_and_quotable() {
        assert_eq!(
            Query::parse("select a, b where x = 1 order by a desc limit 3").unwrap(),
            Query::parse("SELECT a, b WHERE x = 1 ORDER BY a DESC LIMIT 3").unwrap()
        );
        // A column named like a keyword must be double-quoted.
        assert_eq!(
            expr("\"select\" = 1"),
            QueryExpr::Leaf(Predicate::eq("select", Value::Int(1)))
        );
        assert_eq!(
            expr("\"two words\" IS NULL"),
            QueryExpr::Leaf(Predicate::is_null("two words"))
        );
        // Doubled quotes escape inside both string and identifier quoting.
        assert_eq!(
            expr("\"a\"\"b\" = 'it''s'"),
            QueryExpr::Leaf(Predicate::eq("a\"b", Value::from("it's")))
        );
    }

    #[test]
    fn numeric_literals_parse_by_shape() {
        assert_eq!(
            expr("x = 3"),
            QueryExpr::Leaf(Predicate::eq("x", Value::Int(3)))
        );
        assert_eq!(
            expr("x = -3.5"),
            QueryExpr::Leaf(Predicate::eq("x", Value::Float(-3.5)))
        );
        assert_eq!(
            expr("x = 1e3"),
            QueryExpr::Leaf(Predicate::eq("x", Value::Float(1000.0)))
        );
        // i64 overflow degrades to float.
        assert_eq!(
            expr("x = 99999999999999999999"),
            QueryExpr::Leaf(Predicate::eq("x", Value::Float(1e20)))
        );
    }

    #[test]
    fn query_clauses_parse() {
        let q = Query::parse("SELECT * WHERE x = 1").unwrap();
        assert_eq!(q.projection, None);
        let q = Query::parse("SELECT a, b").unwrap();
        assert_eq!(q.projection, Some(vec!["a".to_string(), "b".to_string()]));
        assert!(q.expr.is_match_all());
        let q = Query::parse("ORDER BY a, b DESC LIMIT 0").unwrap();
        assert_eq!(q.sort.len(), 2);
        assert_eq!(q.sort[0].order, SortOrder::Ascending);
        assert_eq!(q.sort[1].order, SortOrder::Descending);
        assert_eq!(q.limit, Some(0));
        assert_eq!(Query::parse("").unwrap(), Query::new());
        assert_eq!(Query::parse("  \t ").unwrap(), Query::new());
        // FromStr works too.
        let q: Query = "x = 1".parse().unwrap();
        assert_eq!(q.expr, expr("x = 1"));
    }

    fn parse_error(input: &str) -> (usize, String) {
        match Query::parse(input) {
            Err(DataError::QueryParse { position, message }) => (position, message),
            other => panic!("expected a parse error for {input:?}, got {other:?}"),
        }
    }

    #[test]
    fn unbalanced_parens_are_positioned_errors() {
        let (pos, msg) = parse_error("(x = 1 AND y = 2");
        assert_eq!(pos, 16, "error at end of input");
        assert!(msg.contains("`)`"), "{msg}");
        let (pos, msg) = parse_error("x = 1)");
        assert_eq!(pos, 5);
        assert!(msg.contains("trailing"), "{msg}");
        let (_, msg) = parse_error("x IN (1, 2");
        assert!(msg.contains("`,` or `)`"), "{msg}");
    }

    /// `levels` opening tokens around `a = 1`, closed where needed.
    fn nested(open: &str, close: &str, levels: usize) -> String {
        format!("{}a = 1{}", open.repeat(levels), close.repeat(levels))
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        let parens = QueryExpr::parse(&nested("(", ")", MAX_NESTING_DEPTH)).unwrap();
        assert_eq!(parens, expr("a = 1"));
        let nots = QueryExpr::parse(&nested("NOT ", "", MAX_NESTING_DEPTH)).unwrap();
        let chain = |levels| (0..levels).fold(expr("a = 1"), |e, _| e.negated());
        assert_eq!(nots, chain(MAX_NESTING_DEPTH));
        let half = MAX_NESTING_DEPTH / 2;
        let mixed = format!("{}a = 1{}", "NOT (".repeat(half), ")".repeat(half));
        assert_eq!(QueryExpr::parse(&mixed).unwrap(), chain(half));
        // Depth is nesting, not count: siblings do not add up.
        let wide = vec!["((a = 1))"; 4 * MAX_NESTING_DEPTH].join(" AND ");
        assert!(QueryExpr::parse(&wide).is_ok());
        let deepest = nested("(", ")", MAX_NESTING_DEPTH);
        let q = Query::parse(&format!("SELECT a WHERE {deepest}")).unwrap();
        assert_eq!(q.expr, expr("a = 1"));
    }

    #[test]
    fn nesting_one_past_the_limit_is_a_positioned_error() {
        let (pos, msg) = parse_error(&nested("(", ")", MAX_NESTING_DEPTH + 1));
        assert_eq!(pos, MAX_NESTING_DEPTH, "the first `(` past the limit");
        assert!(
            msg.contains(&format!("than {MAX_NESTING_DEPTH} levels")),
            "{msg}"
        );
        let (pos, msg) = parse_error(&nested("NOT ", "", MAX_NESTING_DEPTH + 1));
        assert_eq!(pos, 4 * MAX_NESTING_DEPTH);
        assert!(msg.contains("nests deeper"), "{msg}");
        // A closed group releases its level.
        let deepest = nested("(", ")", MAX_NESTING_DEPTH);
        let ok = format!("{deepest} AND {deepest}");
        assert!(QueryExpr::parse(&ok).is_ok());
    }

    /// 100 000 levels used to recurse until the thread's stack overflowed,
    /// which aborts the whole process. Now the parse fails at the limit, on
    /// a thread with a small stack.
    #[test]
    fn hostile_nesting_fails_within_a_small_stack() {
        let handle = std::thread::Builder::new()
            .stack_size(512 << 10)
            .spawn(|| {
                let parens = nested("(", ")", 100_000);
                let nots = nested("NOT ", "", 100_000);
                let mixed = format!("{}a = 1{}", "NOT (".repeat(50_000), ")".repeat(50_000));
                [parens, nots, mixed].map(|text| {
                    let full = Query::parse(&format!("SELECT * WHERE {text}"));
                    (QueryExpr::parse(&text), full)
                })
            })
            .unwrap();
        for (expr_result, query_result) in handle.join().unwrap() {
            for err in [expr_result.unwrap_err(), query_result.unwrap_err()] {
                assert!(
                    matches!(&err, DataError::QueryParse { message, .. } if message.contains("nests deeper")),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn unknown_operators_are_errors() {
        let (pos, msg) = parse_error("x ! 1");
        assert_eq!(pos, 2);
        assert!(msg.contains("unknown operator"), "{msg}");
        let (_, msg) = parse_error("x # 1");
        assert!(msg.contains("unexpected character"), "{msg}");
        let (_, msg) = parse_error("x == 1");
        assert!(msg.contains("expected a literal"), "{msg}");
    }

    #[test]
    fn bad_literals_are_errors() {
        let (_, msg) = parse_error("x = 'oops");
        assert!(msg.contains("unterminated string"), "{msg}");
        let (_, msg) = parse_error("x = 1.2.3");
        assert!(msg.contains("unexpected character `.`"), "{msg}");
        let (_, msg) = parse_error("x BETWEEN 'a' AND 2");
        assert!(msg.contains("numeric BETWEEN bound"), "{msg}");
        let (_, msg) = parse_error("x = 1 LIMIT -2");
        assert!(msg.contains("non-negative integer"), "{msg}");
        let (_, msg) = parse_error("x =");
        assert!(msg.contains("end of input"), "{msg}");
    }

    #[test]
    fn parsed_text_matches_builder_queries() {
        // The text form and the builder produce selection-equivalent
        // queries (identical cache keys).
        let text = Query::parse("city = 'NYC' AND age >= 21").unwrap();
        let built = Query::new()
            .filter(Predicate::eq("city", Value::from("NYC")))
            .filter(Predicate::Compare {
                column: "age".into(),
                op: CompareOp::Ge,
                value: Value::Int(21),
            });
        assert_eq!(text.selection_key(), built.selection_key());
    }

    #[test]
    fn display_round_trips_queries() {
        for text in [
            "age > 30 AND (city = 'NYC' OR NOT risk IN ('high', 'unknown')) LIMIT 20",
            "SELECT a, b WHERE x = 1 ORDER BY a ASC LIMIT 7",
            "SELECT \"order\" WHERE \"order\" != 'x'",
            "x IS NOT NULL OR y BETWEEN 0 AND 1",
            "NOT (a = 1 AND b = 2)",
            "",
        ] {
            let q = Query::parse(text).unwrap();
            let printed = q.to_string();
            let reparsed = Query::parse(&printed).unwrap();
            assert_eq!(
                q.selection_key(),
                reparsed.selection_key(),
                "{text:?} -> {printed:?}"
            );
            assert_eq!(q, reparsed, "structural round-trip of {printed:?}");
        }
    }
}
