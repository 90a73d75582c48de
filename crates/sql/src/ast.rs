//! The typed MayQL abstract syntax tree. Every name-carrying node keeps the
//! [`Span`] it was parsed from, so semantic analysis can anchor its errors.

use maybms_algebra::CmpOp;
use maybms_core::Value;

use crate::span::Span;

/// An identifier with its source span.
#[derive(Clone, Debug, PartialEq)]
pub struct Ident {
    /// The name as written (identifiers are case-sensitive).
    pub name: String,
    /// Where it was written.
    pub span: Span,
}

/// A full query: `UNION` chains of select terms, `REPAIR KEY` expressions,
/// or parenthesized combinations thereof.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// A `SELECT … FROM … [WHERE …]` block.
    Select(SelectQuery),
    /// `left UNION right` (left-associative).
    Union {
        /// Left term.
        left: Box<Query>,
        /// Right term.
        right: Box<Query>,
    },
    /// A bare `REPAIR KEY … IN … [WEIGHT BY …]` expression.
    Repair(Repair),
}

impl Query {
    /// The source span covered by the query.
    pub fn span(&self) -> Span {
        match self {
            Query::Select(s) => s.span,
            Query::Union { left, right } => left.span().join(right.span()),
            Query::Repair(r) => r.span,
        }
    }
}

/// The paper's uncertainty quantifiers, written directly after `SELECT`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Quantifier {
    /// Tuples occurring in at least one world.
    Possible,
    /// Tuples occurring in every world.
    Certain,
    /// Exact tuple confidence, appended as a `conf` column.
    Conf,
    /// `CONF(eps, delta)` — (ε, δ)-approximate tuple confidence. The
    /// argument spans let lowering anchor range errors at the offending
    /// literal.
    ConfApprox {
        /// Absolute error bound ε.
        eps: f64,
        /// Failure probability δ.
        delta: f64,
        /// Span of the ε argument.
        eps_span: Span,
        /// Span of the δ argument.
        delta_span: Span,
    },
}

/// One `SELECT` block.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectQuery {
    /// Optional uncertainty quantifier (with the keyword's span).
    pub quantifier: Option<(Quantifier, Span)>,
    /// The select list.
    pub items: SelectList,
    /// Comma-separated from-items, natural-joined left to right.
    pub from: Vec<FromItem>,
    /// The `WHERE` predicate, if any.
    pub filter: Option<Expr>,
    /// Span of the whole block.
    pub span: Span,
}

/// The select list: `*` or explicit columns.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectList {
    /// `*` — keep all columns of the joined from-items.
    Star(Span),
    /// Explicit columns, optionally renamed via `AS`.
    Items(Vec<SelectItem>),
}

/// One item of an explicit select list: `column [AS alias]`.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectItem {
    /// The source column.
    pub column: Ident,
    /// The output name, when renamed.
    pub alias: Option<Ident>,
}

impl SelectItem {
    /// Span of the item (column plus alias).
    pub fn span(&self) -> Span {
        match &self.alias {
            Some(a) => self.column.span.join(a.span),
            None => self.column.span,
        }
    }
}

/// One entry of the `FROM` list.
#[derive(Clone, Debug, PartialEq)]
pub enum FromItem {
    /// A named base relation.
    Relation(Ident),
    /// A parenthesized subquery.
    Subquery {
        /// The inner query.
        query: Box<Query>,
        /// Span including the parentheses.
        span: Span,
    },
    /// An inline `REPAIR KEY` expression.
    Repair(Repair),
}

impl FromItem {
    /// The source span covered by the item.
    pub fn span(&self) -> Span {
        match self {
            FromItem::Relation(id) => id.span,
            FromItem::Subquery { span, .. } => *span,
            FromItem::Repair(r) => r.span,
        }
    }
}

/// `REPAIR KEY k₁, …, kₙ IN input [WEIGHT BY w]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Repair {
    /// The key columns.
    pub key: Vec<Ident>,
    /// The relation being repaired.
    pub input: Box<FromItem>,
    /// Optional numeric weight column.
    pub weight: Option<Ident>,
    /// Span of the whole expression.
    pub span: Span,
}

/// A boolean predicate expression (the `WHERE` clause).
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// `lhs op rhs`.
    Compare {
        /// Comparison operator.
        op: CmpOp,
        /// Left operand.
        lhs: Scalar,
        /// Right operand.
        rhs: Scalar,
        /// Span of the whole comparison.
        span: Span,
    },
    /// Conjunction (two or more conjuncts).
    And(Vec<Expr>),
    /// Disjunction (two or more disjuncts).
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// A bare `TRUE` / `FALSE`.
    Bool {
        /// The literal truth value.
        value: bool,
        /// Where it was written.
        span: Span,
    },
}

impl Expr {
    /// The source span covered by the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Compare { span, .. } | Expr::Bool { span, .. } => *span,
            Expr::And(es) | Expr::Or(es) => es
                .first()
                .map(|f| {
                    es.iter()
                        .skip(1)
                        .fold(f.span(), |acc, e| acc.join(e.span()))
                })
                .unwrap_or(Span::new(0, 0)),
            Expr::Not(e) => e.span(),
        }
    }
}

/// One side of a comparison.
#[derive(Clone, Debug, PartialEq)]
pub enum Scalar {
    /// A column reference.
    Column(Ident),
    /// A constant.
    Literal {
        /// The constant value.
        value: Value,
        /// Where it was written.
        span: Span,
    },
}

impl Scalar {
    /// The source span covered by the operand.
    pub fn span(&self) -> Span {
        match self {
            Scalar::Column(id) => id.span,
            Scalar::Literal { span, .. } => *span,
        }
    }
}

/// A top-level statement: a query, or a `LET name = query` materialization
/// (evaluate the query once and register the result as a new relation,
/// with the components its repairs minted — the textual analogue of
/// `WorldSet::commit`, and the way repaired relations are shared across
/// later queries without re-minting components).
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// Evaluate and show a query.
    Query(Query),
    /// Materialize a query's result under a new relation name.
    Let {
        /// The relation name to bind.
        name: Ident,
        /// The query to evaluate.
        query: Query,
        /// Span of the whole statement, from the `LET` keyword on.
        span: Span,
    },
    /// `EXPLAIN query` — show the lowered and the optimized plan instead of
    /// evaluating. With `ANALYZE`, the query *is* executed (with tracing
    /// on) and the optimized plan is annotated with per-node observations.
    Explain {
        /// The query to explain.
        query: Query,
        /// Whether `ANALYZE` followed `EXPLAIN`: execute and annotate.
        analyze: bool,
        /// Span of the whole statement, from the `EXPLAIN` keyword on.
        span: Span,
    },
}

impl Statement {
    /// The source span covered by the statement, so scripts can echo the
    /// original text.
    pub fn span(&self) -> Span {
        match self {
            Statement::Query(q) => q.span(),
            Statement::Let { span, .. } | Statement::Explain { span, .. } => *span,
        }
    }
}
