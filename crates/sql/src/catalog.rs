//! The catalog: a world set's relations, held apart from the world set.
//!
//! The planner reads relations through [`maybms_algebra::Relations`], which
//! the world set's relation map implements itself, so [`crate::Session`]
//! plans against its world set and keeps no catalog. A [`Catalog`] is for a
//! client that keeps the relations it plans against beside a world set it
//! runs on: handles that share each relation's body, so it carries no copy
//! of anything. Schemas are the relations'; statistics are each relation's
//! own memo ([`maybms_core::URelation::stats`]), collected the first time
//! the planner or the plan cache reads them.

use std::collections::BTreeMap;
use std::sync::Arc;

use maybms_algebra::Relations;
use maybms_core::{RelationStats, Schema, URelation, WorldSet};

/// The relations of a world set, taken with [`Catalog::from_world_set`],
/// which copies handles and collects nothing, and re-taken whenever a
/// relation changes (e.g. after a `LET`).
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    relations: BTreeMap<String, URelation>,
}

impl Catalog {
    /// The relations of a world set, sharing their bodies.
    pub fn from_world_set(ws: &WorldSet) -> Catalog {
        Catalog {
            relations: ws.relations.clone(),
        }
    }
}

/// The planner reads a catalog as it reads the world set's relations.
impl Relations for Catalog {
    fn schema(&self, name: &str) -> Option<&Schema> {
        self.relations.schema(name)
    }
    fn stats(&self, name: &str) -> Option<&Arc<RelationStats>> {
        self.relations.stats(name)
    }
}
