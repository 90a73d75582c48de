//! Selection predicates over tuples and columnar batches.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

use maybms_core::columnar::{ColView, StrPool};
use maybms_core::{MayError, Schema, Tuple, Value};

/// A comparison operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// MayQL spelling of the operator (`=`, `<>`, `<`, `<=`, `>`, `>=`).
impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

impl CmpOp {
    fn test(self, l: &Value, r: &Value) -> bool {
        match self {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
        }
    }

    /// Whether the comparison holds for operands whose three-way ordering is
    /// `ord` — the columnar counterpart of [`CmpOp::test`] ([`Value`]'s `Eq`
    /// and `Ord` agree, so one `Ordering` decides every operator).
    fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// One side of a comparison: a column reference or a literal.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Operand {
    /// The value of the named column of the current tuple.
    Column(String),
    /// A constant.
    Literal(Value),
}

/// Shorthand for a column operand.
pub fn col(name: impl Into<String>) -> Operand {
    Operand::Column(name.into())
}

/// Shorthand for a literal operand.
pub fn lit(v: impl Into<Value>) -> Operand {
    Operand::Literal(v.into())
}

/// Format a literal value in MayQL syntax so the printed form lexes back to
/// the same [`Value`]: strings are single-quoted with `''` escaping, floats
/// keep a decimal point or exponent (`1.0`, not `1`), and `NULL`/`TRUE`/
/// `FALSE` use the keyword spelling.
pub fn fmt_literal(v: &Value, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match v {
        Value::Null => f.write_str("NULL"),
        Value::Bool(true) => f.write_str("TRUE"),
        Value::Bool(false) => f.write_str("FALSE"),
        Value::Int(i) => write!(f, "{i}"),
        // `{:?}` always keeps a `.0` or exponent, unlike `{}`.
        Value::Float(x) => write!(f, "{:?}", x.get()),
        Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
    }
}

/// MayQL syntax: a bare column name or a literal (see [`fmt_literal`]).
impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Column(n) => f.write_str(n),
            Operand::Literal(v) => fmt_literal(v, f),
        }
    }
}

/// A boolean selection predicate. Comparisons use the total order on
/// [`Value`]; mixed-type comparisons follow the `Value` variant order rather
/// than erroring, which keeps selection total on heterogeneous data. The
/// derived order is the planner's canonical order of conjuncts.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Predicate {
    /// Always true.
    True,
    /// A comparison between two operands.
    Compare {
        /// The comparison operator.
        op: CmpOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation (of the *predicate*; the algebra itself stays positive).
    Not(Box<Predicate>),
}

impl Predicate {
    /// A comparison predicate.
    pub fn cmp(op: CmpOp, lhs: Operand, rhs: Operand) -> Predicate {
        Predicate::Compare { op, lhs, rhs }
    }

    /// `lhs = rhs`.
    pub fn eq(lhs: Operand, rhs: Operand) -> Predicate {
        Predicate::cmp(CmpOp::Eq, lhs, rhs)
    }

    /// `lhs < rhs`.
    pub fn lt(lhs: Operand, rhs: Operand) -> Predicate {
        Predicate::cmp(CmpOp::Lt, lhs, rhs)
    }

    /// True when the predicate is a single comparison, `TRUE`, or otherwise
    /// needs no parentheses when nested under `AND`/`OR`/`NOT`.
    fn is_atom(&self) -> bool {
        matches!(self, Predicate::True | Predicate::Compare { .. })
    }

    fn fmt_child(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_atom() {
            write!(f, "{self}")
        } else {
            write!(f, "({self})")
        }
    }

    /// Collect the names of every column the predicate reads into `out`.
    /// The optimizer uses this to decide which side of a join (or which
    /// operator boundary) a predicate may cross.
    pub fn columns(&self, out: &mut BTreeSet<String>) {
        let operand = |op: &Operand, out: &mut BTreeSet<String>| {
            if let Operand::Column(n) = op {
                out.insert(n.clone());
            }
        };
        match self {
            Predicate::True => {}
            Predicate::Compare { lhs, rhs, .. } => {
                operand(lhs, out);
                operand(rhs, out);
            }
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.columns(out);
                }
            }
            Predicate::Not(p) => p.columns(out),
        }
    }

    /// Resolve column names against a schema once, for repeated evaluation.
    pub fn bind(&self, schema: &Schema) -> Result<BoundPredicate, MayError> {
        Ok(match self {
            Predicate::True => BoundPredicate::True,
            Predicate::Compare { op, lhs, rhs } => BoundPredicate::Compare {
                op: *op,
                lhs: BoundOperand::bind(lhs, schema)?,
                rhs: BoundOperand::bind(rhs, schema)?,
            },
            Predicate::And(ps) => BoundPredicate::And(
                ps.iter()
                    .map(|p| p.bind(schema))
                    .collect::<Result<_, _>>()?,
            ),
            Predicate::Or(ps) => BoundPredicate::Or(
                ps.iter()
                    .map(|p| p.bind(schema))
                    .collect::<Result<_, _>>()?,
            ),
            Predicate::Not(p) => BoundPredicate::Not(Box::new(p.bind(schema)?)),
        })
    }
}

/// MayQL syntax, parenthesizing composite children so the printed form
/// parses back to the same predicate tree: `a = 3 AND NOT (b < c)`.
impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => f.write_str("TRUE"),
            Predicate::Compare { op, lhs, rhs } => write!(f, "{lhs} {op} {rhs}"),
            Predicate::And(ps) if ps.is_empty() => f.write_str("TRUE"),
            Predicate::And(ps) => {
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" AND ")?;
                    }
                    p.fmt_child(f)?;
                }
                Ok(())
            }
            // An empty disjunction is vacuously *false* (`.any()` on no
            // disjuncts), unlike the empty conjunction above.
            Predicate::Or(ps) if ps.is_empty() => f.write_str("NOT TRUE"),
            Predicate::Or(ps) => {
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" OR ")?;
                    }
                    p.fmt_child(f)?;
                }
                Ok(())
            }
            Predicate::Not(p) => {
                f.write_str("NOT ")?;
                p.fmt_child(f)
            }
        }
    }
}

/// An operand with column names resolved to indices.
#[derive(Clone, Debug)]
pub enum BoundOperand {
    /// Value at a column index.
    Index(usize),
    /// A constant.
    Literal(Value),
}

impl BoundOperand {
    fn bind(op: &Operand, schema: &Schema) -> Result<Self, MayError> {
        Ok(match op {
            Operand::Column(n) => BoundOperand::Index(schema.col_index(n)?),
            Operand::Literal(v) => BoundOperand::Literal(v.clone()),
        })
    }

    fn value<'a>(&'a self, t: &'a Tuple) -> &'a Value {
        match self {
            BoundOperand::Index(i) => t.get(*i),
            BoundOperand::Literal(v) => v,
        }
    }
}

/// A predicate bound to a schema; cheap to evaluate per tuple.
#[derive(Clone, Debug)]
pub enum BoundPredicate {
    /// Always true.
    True,
    /// A bound comparison.
    Compare {
        /// The comparison operator.
        op: CmpOp,
        /// Left operand.
        lhs: BoundOperand,
        /// Right operand.
        rhs: BoundOperand,
    },
    /// Conjunction.
    And(Vec<BoundPredicate>),
    /// Disjunction.
    Or(Vec<BoundPredicate>),
    /// Negation.
    Not(Box<BoundPredicate>),
}

impl BoundPredicate {
    /// Evaluate against one tuple.
    pub fn matches(&self, t: &Tuple) -> bool {
        match self {
            BoundPredicate::True => true,
            BoundPredicate::Compare { op, lhs, rhs } => op.test(lhs.value(t), rhs.value(t)),
            BoundPredicate::And(ps) => ps.iter().all(|p| p.matches(t)),
            BoundPredicate::Or(ps) => ps.iter().any(|p| p.matches(t)),
            BoundPredicate::Not(p) => !p.matches(t),
        }
    }

    /// Evaluate against row `row` of a columnar batch (`cols` in schema
    /// order, each a rowid-indirected view, so a column may be read through
    /// a deferred join gather instead of dense storage) — no tuple is
    /// materialized; each comparison reads two cells in place. Semantically
    /// identical to [`BoundPredicate::matches`] on the row's tuple: cell
    /// comparisons implement the same total [`Value`] order, including the
    /// variant-rank ordering of mixed-type operands.
    pub fn matches_views(&self, cols: &[ColView<'_>], row: usize, strings: &StrPool) -> bool {
        match self {
            BoundPredicate::True => true,
            BoundPredicate::Compare { op, lhs, rhs } => {
                let ord = match (lhs, rhs) {
                    (BoundOperand::Index(i), BoundOperand::Index(j)) => {
                        cols[*i].cmp_cells(row, &cols[*j], row, strings)
                    }
                    (BoundOperand::Index(i), BoundOperand::Literal(v)) => {
                        cols[*i].cmp_cell_value(row, v, strings)
                    }
                    (BoundOperand::Literal(v), BoundOperand::Index(j)) => {
                        cols[*j].cmp_cell_value(row, v, strings).reverse()
                    }
                    (BoundOperand::Literal(a), BoundOperand::Literal(b)) => a.cmp(b),
                };
                op.holds(ord)
            }
            BoundPredicate::And(ps) => ps.iter().all(|p| p.matches_views(cols, row, strings)),
            BoundPredicate::Or(ps) => ps.iter().any(|p| p.matches_views(cols, row, strings)),
            BoundPredicate::Not(p) => !p.matches_views(cols, row, strings),
        }
    }

    /// Narrow `rows` — virtual row ids of a columnar batch, in order — to
    /// the rows that satisfy the predicate, keeping their order: the
    /// row-list form of [`BoundPredicate::matches_views`], with the same
    /// semantics. A conjunction narrows the list one conjunct at a time,
    /// and a `column op literal` comparison on a non-string column is one
    /// typed loop ([`ColView::retain_cmp`]); `OR`, `NOT`, column against
    /// column and string order stay row-wise on `matches_views`.
    pub fn retain_views(&self, cols: &[ColView<'_>], rows: &mut Vec<u32>, strings: &StrPool) {
        let swept = match self {
            BoundPredicate::True => true,
            BoundPredicate::And(ps) => {
                for p in ps {
                    p.retain_views(cols, rows, strings);
                }
                true
            }
            BoundPredicate::Compare {
                op,
                lhs: BoundOperand::Index(i),
                rhs: BoundOperand::Literal(v),
            } => cols[*i].retain_cmp(rows, v, |ord| op.holds(ord)),
            BoundPredicate::Compare {
                op,
                lhs: BoundOperand::Literal(v),
                rhs: BoundOperand::Index(j),
            } => cols[*j].retain_cmp(rows, v, |ord| op.holds(ord.reverse())),
            _ => false,
        };
        if !swept {
            rows.retain(|&r| self.matches_views(cols, r as usize, strings));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_core::ValueType;

    #[test]
    fn bound_predicates_evaluate() {
        let schema = Schema::of(&[("a", ValueType::Int), ("b", ValueType::Int)]).unwrap();
        let p = Predicate::And(vec![
            Predicate::lt(col("a"), col("b")),
            Predicate::Not(Box::new(Predicate::eq(col("a"), lit(0)))),
        ]);
        let bound = p.bind(&schema).unwrap();
        assert!(bound.matches(&Tuple::new(vec![1.into(), 2.into()])));
        assert!(!bound.matches(&Tuple::new(vec![0.into(), 2.into()])));
        assert!(!bound.matches(&Tuple::new(vec![3.into(), 2.into()])));
    }
}
