//! The recursive-descent MayQL parser.
//!
//! Grammar (EBNF; keywords are case-insensitive and contextual):
//!
//! ```text
//! statement := "LET" ident "=" query | "EXPLAIN" [ "ANALYZE" ] query | query ;
//! query     := term { "UNION" term } ;
//! term      := select | repair | "(" query ")" ;
//! select    := "SELECT" [ quantifier ] sel_list
//!              "FROM" from_item { "," from_item } [ "WHERE" expr ] ;
//! quantifier:= "POSSIBLE" | "CERTAIN" | "CONF" [ "(" number "," number ")" ] ;
//! sel_list  := "*" | sel_item { "," sel_item } ;
//! sel_item  := ident [ "AS" ident ] ;
//! from_item := ident | "(" query ")" | "(" from_item ")" | repair ;
//! repair    := "REPAIR" "KEY" ident { "," ident } "IN" from_item
//!              [ "WEIGHT" "BY" ident ] ;
//! expr      := and_expr { "OR" and_expr } ;
//! and_expr  := not_expr { "AND" not_expr } ;
//! not_expr  := "NOT" not_expr | atom ;
//! atom      := "(" expr ")" | scalar cmp scalar | "TRUE" | "FALSE" ;
//! cmp       := "=" | "<>" | "!=" | "<" | "<=" | ">" | ">=" ;
//! scalar    := ident | literal ;
//! literal   := int | float | string | "TRUE" | "FALSE" | "NULL" | "-" number ;
//! ```
//!
//! `POSSIBLE`/`CERTAIN`/`CONF` are recognized as quantifiers only when
//! followed by `*` or a non-reserved identifier, so a column named `conf`
//! (which the engine's `conf` operator itself produces) remains selectable.
//! `CONF (` commits to the approximate form `CONF(eps, delta)` — a select
//! list can never continue `SELECT conf (`, so the parenthesis is
//! unambiguous and arity/argument mistakes get dedicated diagnostics.

use maybms_algebra::CmpOp;
use maybms_core::Value;

use crate::ast::{
    Expr, FromItem, Ident, Quantifier, Query, Repair, Scalar, SelectItem, SelectList, SelectQuery,
    Statement,
};
use crate::lexer::{lex, Token, TokenKind};
use crate::span::{Span, SqlError};

/// Keywords that can never be used as relation or column names (the
/// quantifiers and literal keywords are contextual and stay usable).
const RESERVED: &[&str] = &[
    "SELECT", "FROM", "WHERE", "AS", "AND", "OR", "NOT", "UNION", "REPAIR", "KEY", "IN", "WEIGHT",
    "BY", "LET",
];

/// How many levels a query may nest: a `(`, `NOT`, `REPAIR KEY … IN`, and each
/// `UNION` or `FROM` item after the first is one. It bounds every later pass's
/// recursion: 64 is half the depth that overflows a 2 MiB debug thread.
pub const MAX_NESTING: usize = 64;

/// Parse one query; the whole input (up to an optional trailing `;`) must be
/// consumed.
pub fn parse_query(src: &str) -> Result<Query, SqlError> {
    let mut p = Parser::new(src)?;
    let q = p.query()?;
    p.eat(&TokenKind::Semi);
    p.expect_eof()?;
    Ok(q)
}

/// Parse one statement (a query or a `LET`); the whole input (up to an
/// optional trailing `;`) must be consumed.
pub fn parse_statement(src: &str) -> Result<Statement, SqlError> {
    let mut p = Parser::new(src)?;
    let s = p.statement()?;
    p.eat(&TokenKind::Semi);
    p.expect_eof()?;
    Ok(s)
}

struct Parser<'a> {
    src: &'a str,
    tokens: Vec<Token>,
    pos: usize,
    /// Levels open here, and the deepest level reached (see [`Parser::reach`]).
    depth: usize,
    peak: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Parser<'a>, SqlError> {
        Ok(Parser {
            src,
            tokens: lex(src)?,
            pos: 0,
            depth: 0,
            peak: 0,
        })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek_at(&self, offset: usize) -> &Token {
        let i = (self.pos + offset).min(self.tokens.len() - 1);
        &self.tokens[i]
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn at_eof(&self) -> bool {
        self.peek().kind == TokenKind::Eof
    }

    fn expect_eof(&self) -> Result<(), SqlError> {
        if self.at_eof() {
            Ok(())
        } else {
            let t = self.peek();
            Err(SqlError::new(
                t.span,
                format!("expected end of input, found {}", t.kind),
            ))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if &self.peek().kind == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Span, SqlError> {
        if &self.peek().kind == kind {
            Ok(self.advance().span)
        } else {
            let t = self.peek();
            Err(SqlError::new(
                t.span,
                format!("expected {kind}, found {}", t.kind),
            ))
        }
    }

    /// Does the token at `offset` spell the (case-insensitive) keyword?
    fn is_kw_at(&self, offset: usize, kw: &str) -> bool {
        matches!(&self.peek_at(offset).kind, TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn is_kw(&self, kw: &str) -> bool {
        self.is_kw_at(0, kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<Span, SqlError> {
        if self.is_kw(kw) {
            Ok(self.advance().span)
        } else {
            let t = self.peek();
            Err(SqlError::new(
                t.span,
                format!("expected {kw}, found {}", t.kind),
            ))
        }
    }

    /// Parse `f` one level deeper (an error ends the parse: only success closes it).
    fn nested<T>(&mut self, f: fn(&mut Self) -> Result<T, SqlError>) -> Result<T, SqlError> {
        self.depth += 1;
        self.reach(self.depth)?;
        let t = f(self)?;
        self.depth -= 1;
        Ok(t)
    }

    /// Note that the tree reaches `level`, or fail at the token just consumed.
    /// A `UNION` or join reaches `peak + 1`: it goes above the chain parsed
    /// since `peak` was reset to `depth`.
    fn reach(&mut self, level: usize) -> Result<(), SqlError> {
        if level > MAX_NESTING {
            let msg = format!("query nests deeper than {MAX_NESTING} levels");
            return Err(SqlError::new(self.prev_span(), msg));
        }
        self.peak = self.peak.max(level);
        Ok(())
    }

    /// A non-reserved identifier.
    fn ident(&mut self) -> Result<Ident, SqlError> {
        match &self.peek().kind {
            TokenKind::Ident(s) if !is_reserved(s) => {
                let name = s.clone();
                let span = self.advance().span;
                Ok(Ident { name, span })
            }
            TokenKind::Ident(s) => Err(SqlError::new(
                self.peek().span,
                format!("expected an identifier, found reserved keyword `{s}`"),
            )),
            other => Err(SqlError::new(
                self.peek().span,
                format!("expected an identifier, found {other}"),
            )),
        }
    }

    fn statement(&mut self) -> Result<Statement, SqlError> {
        if self.is_kw("LET") {
            let start = self.advance().span;
            let name = self.ident()?;
            self.expect(&TokenKind::Eq)?;
            let query = self.query()?;
            let span = start.join(query.span());
            Ok(Statement::Let { name, query, span })
        } else if self.is_kw("EXPLAIN") {
            // Contextual: a query can only start with SELECT, REPAIR, or
            // `(`, never a bare identifier, so `EXPLAIN` here is
            // unambiguous and the word stays usable as a name elsewhere.
            // The same argument covers the optional `ANALYZE` that follows.
            let start = self.advance().span;
            let analyze = self.eat_kw("ANALYZE");
            let query = self.query()?;
            let span = start.join(query.span());
            Ok(Statement::Explain {
                query,
                analyze,
                span,
            })
        } else {
            Ok(Statement::Query(self.query()?))
        }
    }

    fn query(&mut self) -> Result<Query, SqlError> {
        let outer = std::mem::replace(&mut self.peak, self.depth);
        let mut q = self.term()?;
        while self.eat_kw("UNION") {
            self.reach(self.peak + 1)?;
            let right = self.nested(Self::term)?;
            q = Query::Union {
                left: Box::new(q),
                right: Box::new(right),
            };
        }
        self.peak = self.peak.max(outer);
        Ok(q)
    }

    fn term(&mut self) -> Result<Query, SqlError> {
        if self.is_kw("REPAIR") {
            return Ok(Query::Repair(self.repair()?));
        }
        if self.eat(&TokenKind::LParen) {
            let q = self.nested(Self::query)?;
            self.expect(&TokenKind::RParen)?;
            return Ok(q);
        }
        Ok(Query::Select(self.select()?))
    }

    fn select(&mut self) -> Result<SelectQuery, SqlError> {
        let start = self.expect_kw("SELECT")?;
        let quantifier = self.quantifier()?;
        let items = if let TokenKind::Star = self.peek().kind {
            SelectList::Star(self.advance().span)
        } else {
            let mut items = vec![self.select_item()?];
            while self.eat(&TokenKind::Comma) {
                items.push(self.select_item()?);
            }
            SelectList::Items(items)
        };
        self.expect_kw("FROM")?;
        let outer = std::mem::replace(&mut self.peak, self.depth);
        let mut from = vec![self.parse_from_item()?];
        while self.eat(&TokenKind::Comma) {
            self.reach(self.peak + 1)?;
            from.push(self.nested(Self::parse_from_item)?);
        }
        self.peak = self.peak.max(outer);
        let filter = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(SelectQuery {
            quantifier,
            items,
            from,
            filter,
            span: start.join(self.prev_span()),
        })
    }

    /// A quantifier keyword is recognized only when the *next* token could
    /// start a select list (`*` or a non-reserved identifier); otherwise the
    /// word is an ordinary column name. Exception: `CONF (` always commits
    /// to the approximate form `CONF(eps, delta)` — no valid select list can
    /// follow a bare `conf` with a parenthesis.
    fn quantifier(&mut self) -> Result<Option<(Quantifier, Span)>, SqlError> {
        if self.is_kw("CONF") && self.peek_at(1).kind == TokenKind::LParen {
            let kw = self.advance().span; // CONF
            self.advance(); // (
            let (eps, eps_span) = self.conf_param("eps")?;
            if self.peek().kind == TokenKind::RParen {
                return Err(SqlError::new(
                    self.peek().span,
                    "CONF takes two arguments: CONF(eps, delta)",
                ));
            }
            self.expect(&TokenKind::Comma)?;
            let (delta, delta_span) = self.conf_param("delta")?;
            if self.peek().kind == TokenKind::Comma {
                return Err(SqlError::new(
                    self.peek().span,
                    "CONF takes two arguments: CONF(eps, delta)",
                ));
            }
            let close = self.expect(&TokenKind::RParen)?;
            return Ok(Some((
                Quantifier::ConfApprox {
                    eps,
                    delta,
                    eps_span,
                    delta_span,
                },
                kw.join(close),
            )));
        }
        let q = if self.is_kw("POSSIBLE") {
            Quantifier::Possible
        } else if self.is_kw("CERTAIN") {
            Quantifier::Certain
        } else if self.is_kw("CONF") {
            Quantifier::Conf
        } else {
            return Ok(None);
        };
        let next_starts_list = match &self.peek_at(1).kind {
            TokenKind::Star => true,
            TokenKind::Ident(s) => !is_reserved(s),
            _ => false,
        };
        if !next_starts_list {
            return Ok(None);
        }
        Ok(Some((q, self.advance().span)))
    }

    /// One numeric `CONF(…)` argument (int or float literal).
    fn conf_param(&mut self, what: &str) -> Result<(f64, Span), SqlError> {
        match self.peek().kind.clone() {
            TokenKind::Float(v) => Ok((v, self.advance().span)),
            TokenKind::Int(v) => Ok((v as f64, self.advance().span)),
            ref other => Err(SqlError::new(
                self.peek().span,
                format!("expected a numeric literal for CONF {what}, found {other}"),
            )),
        }
    }

    fn select_item(&mut self) -> Result<SelectItem, SqlError> {
        let column = self.ident()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem { column, alias })
    }

    fn parse_from_item(&mut self) -> Result<FromItem, SqlError> {
        if self.is_kw("REPAIR") {
            return Ok(FromItem::Repair(self.repair()?));
        }
        if let TokenKind::LParen = self.peek().kind {
            // Disambiguate `(query)` from a parenthesized from-item like
            // `(r)` or `((r))`: skip nested `(`s and check whether the
            // first real token can start a query (only SELECT and REPAIR
            // can — queries never start with a bare identifier).
            let mut off = 1;
            while matches!(self.peek_at(off).kind, TokenKind::LParen) {
                off += 1;
            }
            if !self.is_kw_at(off, "SELECT") && !self.is_kw_at(off, "REPAIR") {
                self.advance(); // the `(`
                let item = self.nested(Self::parse_from_item)?;
                self.expect(&TokenKind::RParen)?;
                return Ok(item);
            }
            let l = self.advance().span;
            let query = self.nested(Self::query)?;
            let r = self.expect(&TokenKind::RParen)?;
            return Ok(FromItem::Subquery {
                query: Box::new(query),
                span: l.join(r),
            });
        }
        Ok(FromItem::Relation(self.ident()?))
    }

    fn repair(&mut self) -> Result<Repair, SqlError> {
        let start = self.expect_kw("REPAIR")?;
        self.expect_kw("KEY")?;
        let mut key = vec![self.ident()?];
        while self.eat(&TokenKind::Comma) {
            key.push(self.ident()?);
        }
        self.expect_kw("IN")?;
        let input = Box::new(self.nested(Self::parse_from_item)?);
        let weight = if self.eat_kw("WEIGHT") {
            self.expect_kw("BY")?;
            Some(self.ident()?)
        } else {
            None
        };
        Ok(Repair {
            key,
            input,
            weight,
            span: start.join(self.prev_span()),
        })
    }

    fn expr(&mut self) -> Result<Expr, SqlError> {
        let mut es = vec![self.and_expr()?];
        while self.eat_kw("OR") {
            es.push(self.and_expr()?);
        }
        Ok(if es.len() == 1 {
            es.pop().expect("one element")
        } else {
            Expr::Or(es)
        })
    }

    fn and_expr(&mut self) -> Result<Expr, SqlError> {
        let mut es = vec![self.not_expr()?];
        while self.eat_kw("AND") {
            es.push(self.not_expr()?);
        }
        Ok(if es.len() == 1 {
            es.pop().expect("one element")
        } else {
            Expr::And(es)
        })
    }

    fn not_expr(&mut self) -> Result<Expr, SqlError> {
        if self.eat_kw("NOT") {
            Ok(Expr::Not(Box::new(self.nested(Self::not_expr)?)))
        } else {
            self.atom()
        }
    }

    fn atom(&mut self) -> Result<Expr, SqlError> {
        if self.eat(&TokenKind::LParen) {
            let e = self.nested(Self::expr)?;
            self.expect(&TokenKind::RParen)?;
            return Ok(e);
        }
        let lhs = self.scalar()?;
        let op = match self.peek().kind {
            TokenKind::Eq => Some(CmpOp::Eq),
            TokenKind::Ne => Some(CmpOp::Ne),
            TokenKind::Lt => Some(CmpOp::Lt),
            TokenKind::Le => Some(CmpOp::Le),
            TokenKind::Gt => Some(CmpOp::Gt),
            TokenKind::Ge => Some(CmpOp::Ge),
            _ => None,
        };
        match op {
            Some(op) => {
                self.advance();
                let rhs = self.scalar()?;
                let span = lhs.span().join(rhs.span());
                Ok(Expr::Compare { op, lhs, rhs, span })
            }
            None => match lhs {
                // A bare boolean literal is a valid atom (`WHERE TRUE`).
                Scalar::Literal {
                    value: Value::Bool(value),
                    span,
                } => Ok(Expr::Bool { value, span }),
                _ => {
                    let t = self.peek();
                    Err(SqlError::new(
                        t.span,
                        format!("expected a comparison operator, found {}", t.kind),
                    ))
                }
            },
        }
    }

    fn scalar(&mut self) -> Result<Scalar, SqlError> {
        match self.peek().kind.clone() {
            TokenKind::Minus => {
                let minus = self.advance().span;
                match self.peek().kind.clone() {
                    TokenKind::Int(v) => {
                        let span = minus.join(self.advance().span);
                        let value = self.int(0i64.checked_sub_unsigned(v), span)?;
                        Ok(Scalar::Literal { value, span })
                    }
                    TokenKind::Float(v) => {
                        let span = minus.join(self.advance().span);
                        Ok(Scalar::Literal {
                            value: Value::float(-v),
                            span,
                        })
                    }
                    ref other => Err(SqlError::new(
                        self.peek().span,
                        format!("expected a numeric literal after `-`, found {other}"),
                    )),
                }
            }
            TokenKind::Int(v) => {
                let span = self.advance().span;
                let value = self.int(i64::try_from(v).ok(), span)?;
                Ok(Scalar::Literal { value, span })
            }
            TokenKind::Float(v) => Ok(Scalar::Literal {
                value: Value::float(v),
                span: self.advance().span,
            }),
            TokenKind::Str(s) => Ok(Scalar::Literal {
                value: Value::Str(s),
                span: self.advance().span,
            }),
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("TRUE") => Ok(Scalar::Literal {
                value: Value::Bool(true),
                span: self.advance().span,
            }),
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("FALSE") => Ok(Scalar::Literal {
                value: Value::Bool(false),
                span: self.advance().span,
            }),
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("NULL") => Ok(Scalar::Literal {
                value: Value::Null,
                span: self.advance().span,
            }),
            TokenKind::Ident(_) => Ok(Scalar::Column(self.ident()?)),
            ref other => Err(SqlError::new(
                self.peek().span,
                format!("expected a column or literal, found {other}"),
            )),
        }
    }

    /// The integer literal at `span`, if its signed value fits `i64`.
    fn int(&self, value: Option<i64>, span: Span) -> Result<Value, SqlError> {
        let text = &self.src[span.start..span.end];
        let e = || SqlError::new(span, format!("integer literal `{text}` out of range"));
        value.map(Value::Int).ok_or_else(e)
    }
}

fn is_reserved(name: &str) -> bool {
    RESERVED.iter().any(|kw| name.eq_ignore_ascii_case(kw))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_census_select() {
        let q = parse_query("SELECT POSSIBLE ssn FROM census WHERE name = 'Smith'").unwrap();
        let Query::Select(s) = q else {
            panic!("expected a select")
        };
        assert_eq!(s.quantifier.map(|(q, _)| q), Some(Quantifier::Possible));
        let SelectList::Items(items) = s.items else {
            panic!("expected explicit items")
        };
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].column.name, "ssn");
        assert_eq!(s.from.len(), 1);
        assert!(s.filter.is_some());
    }

    #[test]
    fn conf_is_contextual() {
        // `conf` before FROM is a column, not a quantifier.
        let q = parse_query("SELECT conf FROM r").unwrap();
        let Query::Select(s) = q else {
            panic!("expected a select")
        };
        assert!(s.quantifier.is_none());
        let SelectList::Items(items) = s.items else {
            panic!("expected explicit items")
        };
        assert_eq!(items[0].column.name, "conf");
    }

    #[test]
    fn parses_approximate_conf() {
        let q = parse_query("SELECT CONF(0.05, 0.01) * FROM r").unwrap();
        let Query::Select(s) = q else {
            panic!("expected a select")
        };
        let Some((Quantifier::ConfApprox { eps, delta, .. }, span)) = s.quantifier else {
            panic!("expected an approximate conf quantifier")
        };
        assert_eq!((eps, delta), (0.05, 0.01));
        // The quantifier span covers `CONF(0.05, 0.01)`.
        assert_eq!(span, Span::new(7, 23));
        // Integer literals are accepted (range checking is lowering's job).
        assert!(parse_query("SELECT conf(1, 0.5) a FROM r").is_ok());
    }

    #[test]
    fn approximate_conf_reports_argument_mistakes() {
        let e = parse_query("SELECT CONF(abc, 0.1) * FROM r").unwrap_err();
        assert_eq!(
            e.message,
            "expected a numeric literal for CONF eps, found `abc`"
        );
        assert_eq!(e.span, Span::new(12, 15));
        let e = parse_query("SELECT CONF(0.1) * FROM r").unwrap_err();
        assert_eq!(e.message, "CONF takes two arguments: CONF(eps, delta)");
        let e = parse_query("SELECT CONF(0.1, 0.2, 0.3) * FROM r").unwrap_err();
        assert_eq!(e.message, "CONF takes two arguments: CONF(eps, delta)");
        let e = parse_query("SELECT CONF(0.1, x) * FROM r").unwrap_err();
        assert_eq!(
            e.message,
            "expected a numeric literal for CONF delta, found `x`"
        );
    }

    #[test]
    fn parses_repair_key_in_from() {
        let q = parse_query("SELECT * FROM REPAIR KEY a, b IN r WEIGHT BY w, s").unwrap();
        let Query::Select(sel) = q else {
            panic!("expected a select")
        };
        assert_eq!(sel.from.len(), 2);
        let FromItem::Repair(rep) = &sel.from[0] else {
            panic!("expected repair")
        };
        assert_eq!(rep.key.len(), 2);
        assert_eq!(rep.weight.as_ref().map(|w| w.name.as_str()), Some("w"));
        assert!(matches!(&sel.from[1], FromItem::Relation(id) if id.name == "s"));
    }

    #[test]
    fn union_is_left_associative() {
        let q = parse_query("SELECT * FROM a UNION SELECT * FROM b UNION SELECT * FROM c").unwrap();
        let Query::Union { left, .. } = q else {
            panic!("expected a union")
        };
        assert!(matches!(*left, Query::Union { .. }));
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse_query("select * from r where a = 1 and b <> 2").is_ok());
    }

    #[test]
    fn parses_let_statements() {
        let s = parse_statement("LET census = REPAIR KEY name IN censusform WEIGHT BY w;").unwrap();
        let Statement::Let { name, query, .. } = s else {
            panic!("expected a let")
        };
        assert_eq!(name.name, "census");
        assert!(matches!(query, Query::Repair(_)));
    }

    #[test]
    fn parses_parenthesized_queries_at_top_level() {
        // Parentheses group a right-nested union against the default left
        // associativity.
        let q =
            parse_query("(SELECT * FROM a) UNION (SELECT * FROM b UNION SELECT * FROM c)").unwrap();
        let Query::Union { left, right } = q else {
            panic!("expected a union")
        };
        assert!(matches!(*left, Query::Select(_)));
        assert!(matches!(*right, Query::Union { .. }));
        // A whole statement may be a parenthesized query.
        let s = parse_statement("((SELECT * FROM r));").unwrap();
        assert!(matches!(s, Statement::Query(Query::Select(_))));
    }

    #[test]
    fn parses_parenthesized_from_items() {
        let q = parse_query("SELECT * FROM (r), ((s)), (SELECT a FROM t)").unwrap();
        let Query::Select(sel) = q else {
            panic!("expected a select")
        };
        assert!(matches!(&sel.from[0], FromItem::Relation(id) if id.name == "r"));
        assert!(matches!(&sel.from[1], FromItem::Relation(id) if id.name == "s"));
        assert!(matches!(&sel.from[2], FromItem::Subquery { .. }));
        // A parenthesized union subquery still parses as one from-item.
        let q = parse_query("SELECT * FROM ((SELECT a FROM t) UNION (SELECT a FROM u))").unwrap();
        let Query::Select(sel) = q else {
            panic!("expected a select")
        };
        assert!(matches!(&sel.from[0], FromItem::Subquery { query, .. }
            if matches!(&**query, Query::Union { .. })));
    }

    #[test]
    fn parses_explain_analyze_statements() {
        let s = parse_statement("EXPLAIN ANALYZE SELECT a FROM r;").unwrap();
        assert!(matches!(s, Statement::Explain { analyze: true, .. }));
        let s = parse_statement("explain analyze REPAIR KEY a IN r;").unwrap();
        assert!(matches!(s, Statement::Explain { analyze: true, .. }));
        // `analyze` is contextual too: without EXPLAIN it is an ordinary
        // identifier, and `EXPLAIN SELECT analyze FROM r` still parses.
        let q = parse_query("SELECT analyze FROM r").unwrap();
        let Query::Select(sel) = q else {
            panic!("expected a select")
        };
        let SelectList::Items(items) = sel.items else {
            panic!("expected explicit items")
        };
        assert_eq!(items[0].column.name, "analyze");
        let s = parse_statement("EXPLAIN SELECT analyze FROM r;").unwrap();
        assert!(matches!(s, Statement::Explain { analyze: false, .. }));
    }

    #[test]
    fn parses_explain_statements() {
        let s = parse_statement("EXPLAIN SELECT a FROM r;").unwrap();
        assert!(matches!(s, Statement::Explain { analyze: false, .. }));
        let s = parse_statement("explain REPAIR KEY a IN r;").unwrap();
        let Statement::Explain { query, .. } = s else {
            panic!("expected an explain")
        };
        assert!(matches!(query, Query::Repair(_)));
        // `explain` stays usable as an ordinary identifier.
        let q = parse_query("SELECT explain FROM r").unwrap();
        let Query::Select(sel) = q else {
            panic!("expected a select")
        };
        let SelectList::Items(items) = sel.items else {
            panic!("expected explicit items")
        };
        assert_eq!(items[0].column.name, "explain");
    }

    /// A `UNION` or `FROM` chain puts its node above the operands already
    /// parsed, so their height counts: 32 parentheses under 32 unions reach
    /// the cap, under 33 they pass it, though no more than 33 levels are
    /// ever open at once.
    #[test]
    fn chains_count_the_height_of_their_first_operand() {
        let deep = format!("{}SELECT * FROM r{}", "(".repeat(32), ")".repeat(32));
        let union = |k: usize| format!("{deep}{}", " UNION SELECT * FROM r".repeat(k));
        assert!(parse_query(&union(32)).is_ok());
        let src = union(33);
        let e = parse_query(&src).unwrap_err();
        assert_eq!(e.message, "query nests deeper than 64 levels");
        let last = src.rfind("UNION").unwrap();
        assert_eq!(e.span, Span::new(last, last + 5));

        let from = |k: usize| format!("SELECT * FROM ({deep}){}", ", r".repeat(k));
        assert!(parse_query(&from(31)).is_ok());
        let src = from(32);
        let e = parse_query(&src).unwrap_err();
        assert_eq!(e.message, "query nests deeper than 64 levels");
        assert_eq!(e.span, Span::new(src.len() - 3, src.len() - 2));
    }

    #[test]
    fn reports_missing_from() {
        let e = parse_query("SELECT a b FROM r").unwrap_err();
        assert_eq!(e.message, "expected FROM, found `b`");
        assert_eq!(e.span, Span::new(9, 10));
    }
}
