//! The catalog: the relations MayQL names resolve against.
//!
//! A catalog is the world set's relations themselves — handles that share
//! each relation's body — so it carries no copy of anything. Schemas are the
//! relations'; statistics are each relation's own memo
//! ([`maybms_core::URelation::stats`]), collected the first time the
//! planner or the plan cache reads them.

use std::collections::BTreeMap;
use std::sync::Arc;

use maybms_algebra::{SchemaProvider, StatsProvider};
use maybms_core::{RelationStats, Schema, URelation, WorldSet};

/// A name → relation map the front end plans against: semantic analysis
/// resolves relation references by schema and the cost-based optimizer
/// phase reads statistics ([`RelationStats`]). Derived from a [`WorldSet`]
/// with [`Catalog::from_world_set`], which copies handles and collects
/// nothing, and re-derived whenever a relation changes (e.g. after a
/// `LET`).
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    relations: BTreeMap<String, URelation>,
}

/// Catalogs are equal when they name the same relations with equal
/// schemas and statistics — everything the planner reads.
impl PartialEq for Catalog {
    fn eq(&self, other: &Catalog) -> bool {
        self.relations.len() == other.relations.len()
            && self
                .relations
                .iter()
                .zip(&other.relations)
                .all(|((a, r), (b, s))| {
                    a == b && r.schema() == s.schema() && same_stats(r.stats(), s.stats())
                })
    }
}

/// Equal statistics: the same shared copy, or equal values.
pub(crate) fn same_stats(a: &Arc<RelationStats>, b: &Arc<RelationStats>) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

impl Catalog {
    /// The relations of a world set, sharing their bodies.
    pub fn from_world_set(ws: &WorldSet) -> Catalog {
        Catalog {
            relations: ws.relations.clone(),
        }
    }

    /// The named relation, if there is one.
    pub fn relation(&self, name: &str) -> Option<&URelation> {
        self.relations.get(name)
    }

    /// The schema of the named relation, if there is one.
    pub fn schema(&self, name: &str) -> Option<&Schema> {
        self.relations.base_schema(name)
    }
}

/// The catalog is a [`SchemaProvider`], so the logical optimizer (and plan
/// schema inference) runs against it.
impl SchemaProvider for Catalog {
    fn base_schema(&self, name: &str) -> Option<&Schema> {
        self.relations.base_schema(name)
    }
}

/// The catalog is also a [`StatsProvider`]: each relation serves its own
/// statistics, and a catalog whose relations are all empty has none.
impl StatsProvider for Catalog {
    fn relation_stats(&self, name: &str) -> Option<&RelationStats> {
        self.relations.relation_stats(name)
    }
    fn has_stats(&self) -> bool {
        self.relations.has_stats()
    }
}
