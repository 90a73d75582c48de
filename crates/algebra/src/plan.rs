//! The logical plan IR for the positive relational algebra.

use std::collections::BTreeSet;
use std::fmt;

use crate::predicate::Predicate;
use crate::uncertain::UOp;

/// A logical query plan over the relations of a
/// [`maybms_core::world::WorldSet`].
///
/// The variants are exactly the paper's algebra: the positive relational
/// algebra, plus [`Plan::Uncertain`] for its four uncertainty operators
/// (`repair-key`, `possible`, `certain`, `conf`). The set is closed; every
/// input is a boxed subtree of its own, so no node is shared.
#[derive(Clone, Debug)]
pub enum Plan {
    /// Read a named base relation.
    Scan(String),
    /// Keep tuples satisfying a predicate.
    Select {
        /// Input plan.
        input: Box<Plan>,
        /// Selection predicate.
        predicate: Predicate,
    },
    /// Project onto named columns (set semantics).
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Output column names, in order.
        columns: Vec<String>,
    },
    /// Natural join on all columns shared by name.
    NaturalJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Set union of union-compatible inputs.
    Union {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Rename columns via `(old, new)` pairs.
    Rename {
        /// Input plan.
        input: Box<Plan>,
        /// `(old, new)` name pairs.
        renames: Vec<(String, String)>,
    },
    /// An uncertainty operator (see [`UOp`]).
    Uncertain {
        /// The operator and its parameters.
        op: UOp,
        /// Input plan.
        input: Box<Plan>,
    },
}

impl Plan {
    /// Scan a base relation.
    pub fn scan(name: impl Into<String>) -> Plan {
        Plan::Scan(name.into())
    }

    /// Apply a selection.
    pub fn select(self, predicate: Predicate) -> Plan {
        Plan::Select {
            input: Box::new(self),
            predicate,
        }
    }

    /// Apply a projection. Accepts any iterable of name-like items, so call
    /// sites can pass `["a", "b"]`, a `Vec<String>`, or an iterator without
    /// building a `&[&str]` temporary.
    pub fn project<I, S>(self, columns: I) -> Plan
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Plan::Project {
            input: Box::new(self),
            columns: columns.into_iter().map(Into::into).collect(),
        }
    }

    /// Natural-join with another plan.
    pub fn join(self, right: Plan) -> Plan {
        Plan::NaturalJoin {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Union with another plan.
    pub fn union(self, right: Plan) -> Plan {
        Plan::Union {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Rename columns via `(old, new)` pairs; accepts any iterable of
    /// name-like pairs (same rationale as [`Plan::project`]).
    pub fn rename<I, A, B>(self, renames: I) -> Plan
    where
        I: IntoIterator<Item = (A, B)>,
        A: Into<String>,
        B: Into<String>,
    {
        Plan::Rename {
            input: Box::new(self),
            renames: renames
                .into_iter()
                .map(|(o, n)| (o.into(), n.into()))
                .collect(),
        }
    }

    /// Whether the plan's result provably never contains two equal
    /// `(tuple, descriptor)` rows. Derived structurally: the executor
    /// deduplicates after projection, join, and union; selection and
    /// renaming preserve distinctness; a base scan is unknown (u-relations
    /// may hold duplicates), so `false`; every uncertainty operator emits
    /// one row per distinct tuple (`repair-key` one per distinct input
    /// tuple). Both the optimizer (identity-projection elision) and the
    /// executor (dedup elision) consult this.
    pub fn is_distinct(&self) -> bool {
        match self {
            Plan::Scan(_) => false,
            Plan::Select { input, .. } | Plan::Rename { input, .. } => input.is_distinct(),
            Plan::Project { .. }
            | Plan::NaturalJoin { .. }
            | Plan::Union { .. }
            | Plan::Uncertain { .. } => true,
        }
    }

    /// Whether the plan's result is provably a *certain* relation (every
    /// row carries the trivial descriptor, i.e. occurs in every world).
    /// Positive relational algebra preserves certainty — a join of trivial
    /// descriptors conjoins to the trivial descriptor — and the
    /// world-collapsing operators (`possible`/`certain`/`conf`) produce
    /// certain output by construction; a base scan is unknown.
    pub fn is_certain(&self) -> bool {
        match self {
            Plan::Scan(_) => false,
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Rename { input, .. } => input.is_certain(),
            Plan::NaturalJoin { left, right } | Plan::Union { left, right } => {
                left.is_certain() && right.is_certain()
            }
            Plan::Uncertain { op, .. } => op.certain_output(),
        }
    }

    /// The one-line label of this node in the rendered plan tree —
    /// `scan[name]`, `select[pred]`, … — exactly the text `Display` prints
    /// for the node (children excluded). The tracer uses the same labels
    /// for its spans so `EXPLAIN` and `EXPLAIN ANALYZE` trees line up.
    pub fn node_label(&self) -> String {
        match self {
            Plan::Scan(name) => format!("scan[{name}]"),
            Plan::Select { predicate, .. } => format!("select[{predicate}]"),
            Plan::Project { columns, .. } => format!("project[{}]", columns.join(", ")),
            Plan::NaturalJoin { .. } => "natural-join".to_owned(),
            Plan::Union { .. } => "union".to_owned(),
            Plan::Rename { renames, .. } => {
                let pairs: Vec<String> =
                    renames.iter().map(|(o, n)| format!("{o} -> {n}")).collect();
                format!("rename[{}]", pairs.join(", "))
            }
            Plan::Uncertain { op, .. } => op.label(),
        }
    }

    /// Direct children of this node.
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan(_) => Vec::new(),
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Rename { input, .. }
            | Plan::Uncertain { input, .. } => vec![input],
            Plan::NaturalJoin { left, right } | Plan::Union { left, right } => {
                vec![left, right]
            }
        }
    }

    /// The names of the relations this plan scans, each once, in name
    /// order — the order a run imports them in.
    pub fn scans(&self) -> BTreeSet<&str> {
        match self {
            Plan::Scan(name) => BTreeSet::from([name.as_str()]),
            _ => self.children().into_iter().flat_map(Plan::scans).collect(),
        }
    }

    /// Total number of operator nodes in the tree. A traced run produces
    /// exactly one span per node (node ids are execution pre-order indices),
    /// which the trace tests assert.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    fn fmt_tree(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        for _ in 0..depth {
            f.write_str("  ")?;
        }
        writeln!(f, "{}", self.node_label())?;
        for child in self.children() {
            child.fmt_tree(f, depth + 1)?;
        }
        Ok(())
    }
}

/// An indented operator tree, independent of `Debug` formatting: one
/// operator per line with its parameters ([`Plan::node_label`]), children
/// indented below it.
impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_tree(f, 0)
    }
}
