//! Error type shared by all MayBMS layers.

use std::fmt;

/// Errors raised by the representation, algebra, and query-language layers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MayError {
    /// Two schemas that must agree (e.g. for `union`) do not.
    SchemaMismatch(String),
    /// A column name was not found in a schema, or is duplicated.
    UnknownColumn(String),
    /// A relation name was not found in the world set.
    UnknownRelation(String),
    /// An operator required a certain (descriptor-free) input.
    NotCertain(String),
    /// A `repair-key` weight was missing, non-numeric, or non-positive.
    InvalidWeight(String),
    /// A component was constructed with no alternatives or invalid weights.
    InvalidComponent(String),
    /// A world-set descriptor references an unknown component or an
    /// out-of-range alternative.
    InvalidDescriptor(String),
    /// A tuple did not match its schema (arity or types).
    TupleMismatch(String),
    /// World enumeration would exceed the caller-provided limit.
    TooManyWorlds {
        /// Number of worlds the component set induces.
        count: u128,
        /// The enumeration limit that was exceeded.
        limit: u128,
    },
    /// The exact solve of one connected descriptor group (`conf`, `certain`)
    /// passed its step ceiling.
    TooManySteps {
        /// Descriptors in the group.
        descriptors: usize,
        /// Elimination transitions reached when the solve gave up.
        steps: u64,
        /// The ceiling that was passed.
        limit: u64,
    },
    /// One sampled descriptor group (`conf(eps, delta)`) would need more
    /// draws than the sampler's ceiling allows.
    TooManyDraws {
        /// Descriptors in the group.
        descriptors: usize,
        /// Draws the requested (ε, δ) asks of the group.
        draws: u64,
        /// The ceiling that was passed.
        limit: u64,
    },
    /// `conf(eps, delta)` was given an ε or a δ outside `(0, 1)`.
    InvalidApprox(String),
    /// The operation is not supported by this evaluator.
    Unsupported(String),
}

impl fmt::Display for MayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MayError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            MayError::UnknownColumn(c) => write!(f, "unknown or duplicate column: {c}"),
            MayError::UnknownRelation(r) => write!(f, "unknown relation: {r}"),
            MayError::NotCertain(m) => write!(f, "input must be certain: {m}"),
            MayError::InvalidWeight(m) => write!(f, "invalid repair weight: {m}"),
            MayError::InvalidComponent(m) => write!(f, "invalid component: {m}"),
            MayError::InvalidDescriptor(m) => write!(f, "invalid descriptor: {m}"),
            MayError::TupleMismatch(m) => write!(f, "tuple does not match schema: {m}"),
            MayError::TooManyWorlds { count, limit } => {
                write!(
                    f,
                    "world set has {count} worlds, enumeration limit is {limit}"
                )
            }
            MayError::TooManySteps {
                descriptors,
                steps,
                limit,
            } => {
                write!(
                    f,
                    "exact solve of a {descriptors}-descriptor group reached {steps} steps, \
                     the limit is {limit}; CONF(eps, delta) estimates such groups instead"
                )
            }
            MayError::TooManyDraws {
                descriptors,
                draws,
                limit,
            } => {
                write!(
                    f,
                    "sampling a {descriptors}-descriptor group to the requested (eps, delta) \
                     takes {draws} draws, the limit is {limit}; ask for a larger eps"
                )
            }
            MayError::InvalidApprox(m) => write!(f, "invalid CONF(eps, delta): {m}"),
            MayError::Unsupported(m) => write!(f, "unsupported operation: {m}"),
        }
    }
}

impl std::error::Error for MayError {}
