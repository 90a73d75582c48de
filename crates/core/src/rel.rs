//! Tuples and plain (single-world) relations with set semantics.

use std::collections::BTreeSet;
use std::fmt;

use crate::error::MayError;
use crate::schema::Schema;
use crate::value::Value;

/// An ordered list of values; one row of a relation.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Vec<Value>);

impl Tuple {
    /// Create a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple(values)
    }

    /// The values in order.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The value at a column index.
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// Project onto the given column indices, in that order.
    pub fn project(&self, idx: &[usize]) -> Tuple {
        Tuple(idx.iter().map(|&i| self.0[i].clone()).collect())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl<const N: usize> From<[Value; N]> for Tuple {
    fn from(vs: [Value; N]) -> Self {
        Tuple(vs.into())
    }
}

/// A plain relation: a schema plus a *set* of tuples. This is what a
/// u-relation instantiates to in one particular world, and the data type the
/// naive per-world oracle computes on.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Relation {
    schema: Schema,
    tuples: BTreeSet<Tuple>,
}

impl Relation {
    /// An empty relation over the given schema.
    pub fn new(schema: Schema) -> Self {
        Relation {
            schema,
            tuples: BTreeSet::new(),
        }
    }

    /// Build a relation from rows, checking each against the schema.
    pub fn from_rows(schema: Schema, rows: Vec<Tuple>) -> Result<Self, MayError> {
        let mut r = Relation::new(schema);
        for t in rows {
            r.insert(t)?;
        }
        Ok(r)
    }

    /// Insert a tuple (set semantics: duplicates are absorbed).
    pub fn insert(&mut self, t: Tuple) -> Result<(), MayError> {
        self.schema.check(&t)?;
        self.tuples.insert(t);
        Ok(())
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The tuples, in canonical order.
    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains(t)
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema.names().join(" | "))?;
        for t in &self.tuples {
            writeln!(f, "{t}")?;
        }
        Ok(())
    }
}
