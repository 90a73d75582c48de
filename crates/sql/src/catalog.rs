//! The catalog: relation schemas (and statistics) that MayQL names resolve
//! against.

use std::collections::BTreeMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

use maybms_algebra::{SchemaProvider, StatsProvider};
use maybms_core::{collect_stats, FxBuildHasher, RelationStats, Schema, WorldSet};

/// A name → [`Schema`] map, optionally carrying per-relation statistics
/// ([`RelationStats`]) for the cost-based optimizer phase. Semantic analysis
/// resolves relation references against it; it is typically derived from a
/// [`WorldSet`] with [`Catalog::from_world_set`] — which collects statistics
/// in the same pass — and refreshed whenever a relation is added (e.g. after
/// a REPL `LET`).
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    schemas: BTreeMap<String, Schema>,
    stats: BTreeMap<String, RelationStats>,
    /// [`Catalog::fingerprint`], computed on first use and reset by every
    /// mutation. Derived state: not part of equality.
    fingerprint: OnceLock<u64>,
}

/// Catalogs are equal when their schemas and statistics are — whether or
/// not either has computed its fingerprint yet.
impl PartialEq for Catalog {
    fn eq(&self, other: &Catalog) -> bool {
        self.schemas == other.schemas && self.stats == other.stats
    }
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register (or replace) a relation schema. Schema-only registration
    /// carries no statistics: the relation plans with defaults until
    /// [`Catalog::insert_stats`] (or a catalog refresh) supplies them.
    pub fn insert(&mut self, name: impl Into<String>, schema: Schema) {
        let name = name.into();
        self.stats.remove(&name);
        self.schemas.insert(name, schema);
        self.fingerprint.take();
    }

    /// Register (or replace) a relation's statistics.
    pub fn insert_stats(&mut self, name: impl Into<String>, stats: RelationStats) {
        self.stats.insert(name.into(), stats);
        self.fingerprint.take();
    }

    /// The schemas *and statistics* of every relation in a world set, in
    /// one pass per relation.
    pub fn from_world_set(ws: &WorldSet) -> Catalog {
        Catalog {
            schemas: ws
                .relations
                .iter()
                .map(|(n, r)| (n.clone(), r.schema().clone()))
                .collect(),
            stats: ws
                .relations
                .iter()
                .map(|(n, r)| (n.clone(), collect_stats(r, &ws.components)))
                .collect(),
            fingerprint: OnceLock::new(),
        }
    }

    /// The schema of the named relation, if registered.
    pub fn schema(&self, name: &str) -> Option<&Schema> {
        self.schemas.get(name)
    }

    /// The statistics of the named relation, if collected.
    pub fn stats(&self, name: &str) -> Option<&RelationStats> {
        self.stats.get(name)
    }

    /// The registered relation names, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.schemas.keys().map(String::as_str)
    }

    /// A fingerprint of everything the planner sees: relation names,
    /// schemas, and collected statistics. The plan cache keys entries on it,
    /// so any catalog refresh that could change a compiled plan (a new
    /// relation, a schema change, statistics drift after a `LET`) misses the
    /// cache instead of serving a stale plan. `BTreeMap` iteration makes the
    /// hash order deterministic. The fields are hashed as they are (floats
    /// by their bits), and the value is memoized until the next
    /// [`Catalog::insert`] / [`Catalog::insert_stats`] — every `LET` builds
    /// a new catalog, so the first lookup after it pays for this once.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = FxBuildHasher::default().build_hasher();
            for (name, schema) in &self.schemas {
                name.hash(&mut h);
                schema.hash(&mut h);
                let stats = self.stats.get(name);
                stats.is_some().hash(&mut h);
                if let Some(stats) = stats {
                    stats.rows.hash(&mut h);
                    stats.nontrivial_frac.to_bits().hash(&mut h);
                    stats.mean_alternatives.to_bits().hash(&mut h);
                    for (column, c) in &stats.columns {
                        column.hash(&mut h);
                        c.distinct.to_bits().hash(&mut h);
                        c.min_max.hash(&mut h);
                    }
                }
            }
            h.finish()
        })
    }
}

/// The catalog is a [`SchemaProvider`], so the logical optimizer (and plan
/// schema inference) can run against it without materialized relations.
impl SchemaProvider for Catalog {
    fn base_schema(&self, name: &str) -> Option<&Schema> {
        self.schema(name)
    }
}

/// The catalog is also a [`StatsProvider`]: the cost-based phase plans
/// against the statistics collected at catalog-refresh time.
impl StatsProvider for Catalog {
    fn relation_stats(&self, name: &str) -> Option<&RelationStats> {
        self.stats.get(name)
    }
    fn has_stats(&self) -> bool {
        !self.stats.is_empty()
    }
}
