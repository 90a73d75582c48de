//! Naive single-world plan evaluation, used inside each enumerated world by
//! the differential tests.

use std::collections::BTreeMap;

use maybms_core::naive as ops;
use maybms_core::{MayError, Relation};

use crate::plan::Plan;

/// Evaluate a plan against one fully instantiated world with the textbook
/// single-world algebra from `maybms_core::naive`.
///
/// Uncertainty operators are rejected: constructs like `possible` or `conf`
/// have *world-set* semantics and cannot be computed inside a single world —
/// their oracles aggregate over the enumeration instead (see
/// `maybms-testkit`).
pub fn eval(plan: &Plan, db: &BTreeMap<String, Relation>) -> Result<Relation, MayError> {
    match plan {
        Plan::Scan(name) => db
            .get(name)
            .cloned()
            .ok_or_else(|| MayError::UnknownRelation(name.clone())),
        Plan::Select { input, predicate } => {
            let r = eval(input, db)?;
            let bound = predicate.bind(r.schema())?;
            Ok(ops::select(&r, |t| bound.matches(t)))
        }
        Plan::Project { input, columns } => ops::project(&eval(input, db)?, columns),
        Plan::NaturalJoin { left, right } => ops::natural_join(&eval(left, db)?, &eval(right, db)?),
        Plan::Union { left, right } => ops::union(&eval(left, db)?, &eval(right, db)?),
        Plan::Rename { input, renames } => ops::rename(&eval(input, db)?, renames),
        Plan::Uncertain { op, .. } => Err(MayError::Unsupported(format!(
            "operator {} has world-set semantics and cannot run inside a single world",
            op.name()
        ))),
    }
}
