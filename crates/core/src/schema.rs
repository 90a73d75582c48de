//! Relation schemas and the shared natural-join planning logic.

use crate::error::MayError;
use crate::rel::Tuple;
use crate::value::{Value, ValueType};

/// A named, typed column.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Column {
    /// Column name, unique within a schema.
    pub name: String,
    /// Column type; `Null` values are accepted in any column.
    pub ty: ValueType,
}

impl Column {
    /// Create a column.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered list of uniquely named columns.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema, rejecting duplicate column names.
    pub fn new(columns: Vec<Column>) -> Result<Self, MayError> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|o| o.name == c.name) {
                return Err(MayError::UnknownColumn(format!(
                    "duplicate column {}",
                    c.name
                )));
            }
        }
        Ok(Schema { columns })
    }

    /// Shorthand for building a schema from `(name, type)` pairs.
    pub fn of(cols: &[(&str, ValueType)]) -> Result<Self, MayError> {
        Schema::new(cols.iter().map(|(n, t)| Column::new(*n, *t)).collect())
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of the named column.
    pub fn col_index(&self, name: &str) -> Result<usize, MayError> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| MayError::UnknownColumn(name.to_string()))
    }

    /// One-line rendering of the schema, e.g. `(a int, b str)` — used by
    /// error messages so mismatches name the schemas involved, not just
    /// their lengths.
    pub fn describe(&self) -> String {
        let cols: Vec<String> = self
            .columns
            .iter()
            .map(|c| format!("{} {}", c.name, c.ty))
            .collect();
        format!("({})", cols.join(", "))
    }

    /// Check a tuple against this schema (arity and types; `Null` matches any
    /// column type). Errors name the offending attribute and the schema.
    pub fn check(&self, tuple: &Tuple) -> Result<(), MayError> {
        if tuple.arity() != self.arity() {
            let detail = if tuple.arity() < self.arity() {
                format!(
                    "; no value for column `{}`",
                    self.columns[tuple.arity()].name
                )
            } else {
                format!(
                    "; {} extra value(s) past the last column",
                    tuple.arity() - self.arity()
                )
            };
            return Err(MayError::TupleMismatch(format!(
                "tuple {tuple} has arity {} but schema {} has arity {}{detail}",
                tuple.arity(),
                self.describe(),
                self.arity()
            )));
        }
        for (v, c) in tuple.values().iter().zip(&self.columns) {
            if !matches!(v, Value::Null) && v.type_of() != c.ty {
                return Err(MayError::TupleMismatch(format!(
                    "column `{}` of schema {} expects {}, got {} in tuple {tuple}",
                    c.name,
                    self.describe(),
                    c.ty,
                    v.type_of()
                )));
            }
        }
        Ok(())
    }

    /// Resolve a projection: returns the output schema and the source column
    /// indices, in output order.
    pub fn project(&self, names: &[String]) -> Result<(Schema, Vec<usize>), MayError> {
        let mut cols = Vec::with_capacity(names.len());
        let mut idx = Vec::with_capacity(names.len());
        for n in names {
            let i = self.col_index(n)?;
            cols.push(self.columns[i].clone());
            idx.push(i);
        }
        Ok((Schema::new(cols)?, idx))
    }

    /// Apply `(old, new)` column renamings, keeping order and types.
    pub fn rename(&self, renames: &[(String, String)]) -> Result<Schema, MayError> {
        let mut cols = self.columns.clone();
        for (old, new) in renames {
            let i = self.col_index(old)?;
            cols[i].name = new.clone();
        }
        Schema::new(cols)
    }

    /// Check that another schema is union-compatible (same names and types in
    /// the same order). Errors pinpoint the first offending attribute and
    /// show both full schemas.
    pub fn union_compatible(&self, other: &Schema) -> Result<(), MayError> {
        if self == other {
            return Ok(());
        }
        let both = format!("left {}, right {}", self.describe(), other.describe());
        for (i, (l, r)) in self.columns.iter().zip(&other.columns).enumerate() {
            if l.name != r.name {
                return Err(MayError::SchemaMismatch(format!(
                    "column {} is named `{}` on the left but `{}` on the right; {both}",
                    i + 1,
                    l.name,
                    r.name
                )));
            }
            if l.ty != r.ty {
                return Err(MayError::SchemaMismatch(format!(
                    "column `{}` is {} on the left but {} on the right; {both}",
                    l.name, l.ty, r.ty
                )));
            }
        }
        // Same prefix, different arity.
        Err(MayError::SchemaMismatch(format!(
            "left has {} column(s) but right has {}; {both}",
            self.arity(),
            other.arity()
        )))
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Plan a natural join with `right`: shared columns are matched by name,
    /// the output keeps all left columns followed by the non-shared right
    /// columns. Shared columns must agree on type.
    pub fn natural_join(&self, right: &Schema) -> Result<JoinPlan, MayError> {
        let mut shared = Vec::new();
        for (li, lc) in self.columns.iter().enumerate() {
            if let Ok(ri) = right.col_index(&lc.name) {
                if right.columns[ri].ty != lc.ty {
                    return Err(MayError::SchemaMismatch(format!(
                        "join column {} has type {} on the left but {} on the right",
                        lc.name, lc.ty, right.columns[ri].ty
                    )));
                }
                shared.push((li, ri));
            }
        }
        let right_keep: Vec<usize> = (0..right.arity())
            .filter(|ri| !shared.iter().any(|(_, r)| r == ri))
            .collect();
        let mut cols = self.columns.clone();
        cols.extend(right_keep.iter().map(|&ri| right.columns[ri].clone()));
        Ok(JoinPlan {
            shared,
            right_keep,
            schema: Schema::new(cols)?,
        })
    }
}

/// Precomputed structure of a natural join between two schemas.
#[derive(Clone, Debug)]
pub struct JoinPlan {
    /// Pairs of `(left index, right index)` of columns shared by name.
    pub shared: Vec<(usize, usize)>,
    /// Right-side column indices that are not shared and appear in the output.
    pub right_keep: Vec<usize>,
    /// The output schema: left columns, then kept right columns.
    pub schema: Schema,
}

impl JoinPlan {
    /// The join key of a left tuple (values of the shared columns).
    pub fn left_key(&self, t: &Tuple) -> Vec<Value> {
        self.shared
            .iter()
            .map(|&(l, _)| t.values()[l].clone())
            .collect()
    }

    /// The join key of a right tuple.
    pub fn right_key(&self, t: &Tuple) -> Vec<Value> {
        self.shared
            .iter()
            .map(|&(_, r)| t.values()[r].clone())
            .collect()
    }

    /// Combine a matching pair of tuples into an output tuple. Allocates the
    /// output at its exact final arity (one allocation per row, not an
    /// allocate-then-grow).
    pub fn combine(&self, l: &Tuple, r: &Tuple) -> Tuple {
        let mut vs = Vec::with_capacity(l.arity() + self.right_keep.len());
        vs.extend_from_slice(l.values());
        vs.extend(self.right_keep.iter().map(|&ri| r.values()[ri].clone()));
        Tuple::new(vs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_duplicate_columns() {
        assert!(Schema::of(&[("a", ValueType::Int), ("a", ValueType::Int)]).is_err());
    }

    #[test]
    fn mismatch_errors_name_attribute_and_schemas() {
        let s = Schema::of(&[("a", ValueType::Int), ("b", ValueType::Str)]).unwrap();
        let short = Tuple::new(vec![1.into()]);
        let err = s.check(&short).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("(a int, b str)"), "{msg}");
        assert!(msg.contains("no value for column `b`"), "{msg}");

        let wrong_ty = Tuple::new(vec![1.into(), 2.into()]);
        let msg = s.check(&wrong_ty).unwrap_err().to_string();
        assert!(msg.contains("column `b`"), "{msg}");
        assert!(msg.contains("expects str, got int"), "{msg}");

        let other = Schema::of(&[("a", ValueType::Int), ("b", ValueType::Int)]).unwrap();
        let msg = s.union_compatible(&other).unwrap_err().to_string();
        assert!(
            msg.contains("column `b` is str on the left but int on the right"),
            "{msg}"
        );
        assert!(
            msg.contains("left (a int, b str), right (a int, b int)"),
            "{msg}"
        );

        let renamed = Schema::of(&[("a", ValueType::Int), ("c", ValueType::Str)]).unwrap();
        let msg = s.union_compatible(&renamed).unwrap_err().to_string();
        assert!(
            msg.contains("column 2 is named `b` on the left but `c` on the right"),
            "{msg}"
        );

        let wider = Schema::of(&[
            ("a", ValueType::Int),
            ("b", ValueType::Str),
            ("c", ValueType::Int),
        ])
        .unwrap();
        let msg = s.union_compatible(&wider).unwrap_err().to_string();
        assert!(
            msg.contains("left has 2 column(s) but right has 3"),
            "{msg}"
        );
    }

    #[test]
    fn natural_join_plan_shares_by_name() {
        let l = Schema::of(&[("a", ValueType::Int), ("b", ValueType::Int)]).unwrap();
        let r = Schema::of(&[("b", ValueType::Int), ("c", ValueType::Int)]).unwrap();
        let jp = l.natural_join(&r).unwrap();
        assert_eq!(jp.shared, vec![(1, 0)]);
        assert_eq!(jp.schema.names(), vec!["a", "b", "c"]);
        let t = jp.combine(
            &Tuple::new(vec![1.into(), 2.into()]),
            &Tuple::new(vec![2.into(), 3.into()]),
        );
        assert_eq!(t, Tuple::new(vec![1.into(), 2.into(), 3.into()]));
    }
}
