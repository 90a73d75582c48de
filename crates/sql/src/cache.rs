//! An LRU cache of optimized plans, keyed on what each plan was compiled
//! from.
//!
//! Compiling a MayQL statement — parse, semantic analysis, the logical
//! rewrite sweeps, cost-based join reordering — costs far more than a
//! lookup, and interactive sessions re-issue the same statements (often
//! verbatim, or differing only in whitespace). [`PlanCache`] memoizes the
//! *optimized* plan keyed on three things, any of which invalidates the
//! entry by missing instead of matching:
//!
//! * the **normalized query text** ([`normalize_query`]: whitespace and
//!   `--` comments collapsed outside string literals — no case folding, so
//!   identifier case is respected);
//! * **each relation the plan scans**, with its schema and its statistics
//!   (they drive the cost-based phase);
//! * whether the catalog has statistics at all
//!   ([`maybms_algebra::StatsProvider::has_stats`]: whether the cost-based
//!   phase runs).
//!
//! Those are everything the optimizer reads: compilation takes no setting
//! ([`maybms_algebra::ExecCfg`] is execution-only). So a `LET` of a relation
//! a plan does not scan keeps the plan, and so does a relation re-created
//! with equal contents. Schemas and statistics compare by value, with a
//! pointer comparison first: a relation's statistics are one shared copy
//! ([`maybms_core::URelation::stats`]), which an entry shares too. An entry
//! holds no relation, so a cached plan never keeps a replaced relation's
//! rows alive.
//!
//! An entry is the plan and its key. Cardinality estimates are not stored:
//! no optimizer call reads them back, and `EXPLAIN [ANALYZE]`
//! ([`mod@crate::explain`]) estimates the plan it renders when it renders it.

use std::sync::Arc;

use maybms_algebra::{Plan, StatsProvider};
use maybms_core::{RelationStats, Schema};

use crate::catalog::{same_stats, Catalog};

/// Default number of cached plans (evicting least-recently-used beyond it).
pub const DEFAULT_PLAN_CACHE_CAP: usize = 64;

/// Normalize query text for cache keying: collapse every run of whitespace
/// and `--` comments outside single-quoted string literals to one space and
/// trim the ends. Case is preserved — keywords are case-insensitive in MayQL,
/// but folding would also fold identifiers and string contents, trading
/// correctness for a few extra hits.
pub fn normalize_query(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_str = false;
    let mut pending_space = false;
    let mut chars = text.chars().peekable();
    while let Some(ch) = chars.next() {
        if in_str {
            out.push(ch);
            if ch == '\'' {
                in_str = false;
            }
            continue;
        }
        // A comment runs to the end of its line, as in the lexer; an
        // apostrophe inside one opens no literal.
        if ch == '-' && chars.peek() == Some(&'-') {
            chars.find(|&c| c == '\n');
            pending_space = true;
            continue;
        }
        if ch.is_whitespace() {
            pending_space = true;
            continue;
        }
        if pending_space && !out.is_empty() {
            out.push(' ');
        }
        pending_space = false;
        out.push(ch);
        if ch == '\'' {
            in_str = true;
        }
    }
    out
}

/// One relation a cached plan scans, as the optimizer read it.
struct Read {
    name: String,
    schema: Schema,
    stats: Arc<RelationStats>,
}

/// One cached compilation and what it was compiled from.
struct Entry {
    /// The normalized query text.
    text: String,
    reads: Vec<Read>,
    has_stats: bool,
    plan: Plan,
    /// LRU clock value of the last touch.
    last_used: u64,
}

impl Entry {
    /// Whether `catalog` shows the entry's plan what it was compiled
    /// against.
    fn compiled_against(&self, catalog: &Catalog) -> bool {
        self.has_stats == catalog.has_stats()
            && self.reads.iter().all(|read| {
                catalog.relation(&read.name).is_some_and(|rel| {
                    rel.schema() == &read.schema && same_stats(rel.stats(), &read.stats)
                })
            })
    }
}

/// The names of the relations `plan` scans, each once.
fn scans(plan: &Plan, names: &mut Vec<String>) {
    match plan {
        Plan::Scan(name) if !names.contains(name) => names.push(name.clone()),
        plan => plan.children().into_iter().for_each(|c| scans(c, names)),
    }
}

/// A cache hit: the plan, cloned — a plan is a small tree of boxed
/// operator nodes that names its relations and holds none of their data.
#[derive(Clone, Debug)]
pub struct CachedPlan {
    /// The optimized plan.
    pub plan: Plan,
}

/// The LRU plan cache. See the module docs for the keying discipline.
pub struct PlanCache {
    entries: Vec<Entry>,
    cap: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_PLAN_CACHE_CAP)
    }
}

impl PlanCache {
    /// A cache holding at most `cap` plans (minimum one).
    pub fn new(cap: usize) -> PlanCache {
        PlanCache {
            entries: Vec::new(),
            cap: cap.max(1),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Look up a compilation of `text` against `catalog`. A hit refreshes
    /// the entry's LRU position.
    pub fn lookup(&mut self, catalog: &Catalog, text: &str) -> Option<CachedPlan> {
        let text = normalize_query(text);
        self.tick += 1;
        let tick = self.tick;
        let hit = self
            .entries
            .iter_mut()
            .find(|e| e.text == text && e.compiled_against(catalog));
        match hit {
            Some(e) => {
                self.hits += 1;
                e.last_used = tick;
                Some(CachedPlan {
                    plan: e.plan.clone(),
                })
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Store a fresh compilation of `text` against `catalog`, evicting the
    /// least-recently-used entry when the cache is full. An existing entry
    /// for the same key is replaced; a plan that scans a relation the
    /// catalog lacks was not compiled against it and is not stored.
    /// `_estimates` is ignored — estimates are not cached — and stays only
    /// because `perfbench`'s adapter names this signature.
    pub fn insert(
        &mut self,
        catalog: &Catalog,
        text: &str,
        plan: Plan,
        _estimates: Option<Vec<f64>>,
    ) {
        let mut names = Vec::new();
        scans(&plan, &mut names);
        let reads = names.into_iter().map(|name| {
            let rel = catalog.relation(&name)?;
            let (schema, stats) = (rel.schema().clone(), Arc::clone(rel.stats()));
            Some(Read {
                name,
                schema,
                stats,
            })
        });
        let Some(reads) = reads.collect() else {
            return;
        };
        let text = normalize_query(text);
        self.tick += 1;
        self.entries
            .retain(|e| !(e.text == text && e.compiled_against(catalog)));
        if self.entries.len() >= self.cap {
            if let Some(lru) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            {
                self.entries.swap_remove(lru);
            }
        }
        self.entries.push(Entry {
            text,
            reads,
            has_stats: catalog.has_stats(),
            plan,
            last_used: self.tick,
        });
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use maybms_core::{Tuple, URelation, Value, ValueType, WorldSet, WsDescriptor};

    use super::*;

    /// `r(a, b)` holding `(i, i)` for each `i` in `rows`.
    fn relation(rows: std::ops::Range<i64>) -> URelation {
        let schema = Schema::of(&[("a", ValueType::Int), ("b", ValueType::Int)]).unwrap();
        let mut r = URelation::new(schema);
        for i in rows {
            r.push(
                Tuple::new(vec![Value::Int(i), Value::Int(i)]),
                WsDescriptor::tautology(),
            )
            .unwrap();
        }
        r
    }

    fn catalog_of(relations: Vec<(&str, URelation)>) -> Catalog {
        let mut ws = WorldSet::new();
        for (name, r) in relations {
            ws.insert(name, r).unwrap();
        }
        Catalog::from_world_set(&ws)
    }

    fn catalog() -> Catalog {
        catalog_of(vec![("r", relation(0..10))])
    }

    #[test]
    fn normalization_collapses_whitespace_outside_strings() {
        assert_eq!(
            normalize_query("  SELECT  a\n FROM\tr  "),
            "SELECT a FROM r"
        );
        // Whitespace inside string literals is content, not formatting.
        assert_eq!(
            normalize_query("SELECT a FROM r WHERE b = 'two  words'"),
            "SELECT a FROM r WHERE b = 'two  words'"
        );
        // Case is preserved.
        assert_eq!(normalize_query("select A from R"), "select A from R");
        // A comment is formatting; an apostrophe inside one opens no literal,
        // so the literal after it keeps its whitespace.
        assert_eq!(
            normalize_query("SELECT a FROM r -- it's a comment\nWHERE b = 'x  y' -- end"),
            "SELECT a FROM r WHERE b = 'x  y'"
        );
        assert_eq!(normalize_query("a - -b"), "a - -b");
    }

    #[test]
    fn hits_require_equal_text_and_what_the_plan_read() {
        let cat = catalog();
        let mut cache = PlanCache::new(4);
        assert!(cache.lookup(&cat, "SELECT a FROM r").is_none());
        cache.insert(&cat, "SELECT a FROM r", Plan::scan("r"), None);
        // Whitespace variants share an entry.
        assert!(cache.lookup(&cat, "SELECT  a  FROM  r").is_some());
        // A relation the plan does not scan is no part of its key.
        let other = catalog_of(vec![("r", relation(0..10)), ("s", relation(0..3))]);
        assert!(cache.lookup(&other, "SELECT a FROM r").is_some());
        // The scanned relation with other contents, and without any: misses.
        let changed = catalog_of(vec![("r", relation(0..11))]);
        assert!(cache.lookup(&changed, "SELECT a FROM r").is_none());
        assert!(cache
            .lookup(&Catalog::default(), "SELECT a FROM r")
            .is_none());
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn the_key_is_schema_and_statistics_by_value() {
        let cat = catalog();
        let mut cache = PlanCache::new(4);
        cache.insert(&cat, "q", Plan::scan("r"), None);
        // Built afresh with equal contents: its own statistics, equal ones.
        let rebuilt = catalog();
        let (old, new) = (cat.relation("r").unwrap(), rebuilt.relation("r").unwrap());
        assert!(!Arc::ptr_eq(old.stats(), new.stats()));
        assert!(cache.lookup(&rebuilt, "q").is_some());
        // The same rows under other column names.
        let schema = Schema::of(&[("a", ValueType::Int), ("c", ValueType::Int)]).unwrap();
        let mut renamed = URelation::new(schema);
        for (t, d) in relation(0..10).rows() {
            renamed.push(t.clone(), d.clone()).unwrap();
        }
        assert!(cache
            .lookup(&catalog_of(vec![("r", renamed)]), "q")
            .is_none());
        // An empty `r`: no statistics to plan by, another key.
        let empty = catalog_of(vec![("r", relation(0..0))]);
        assert!(!empty.has_stats());
        assert!(cache.lookup(&empty, "q").is_none());
        cache.insert(&empty, "q", Plan::scan("r"), None);
        assert!(cache.lookup(&empty, "q").is_some());
        assert!(cache.lookup(&cat, "q").is_some());
        assert_eq!(cache.len(), 2);
        // A plan over a relation the catalog lacks is not stored.
        cache.insert(&cat, "q2", Plan::scan("nowhere"), None);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used_beyond_capacity() {
        let cat = catalog();
        let mut cache = PlanCache::new(2);
        cache.insert(&cat, "q1", Plan::scan("r"), None);
        cache.insert(&cat, "q2", Plan::scan("r"), None);
        // Touch q1 so q2 becomes the LRU entry.
        assert!(cache.lookup(&cat, "q1").is_some());
        cache.insert(&cat, "q3", Plan::scan("r"), None);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&cat, "q1").is_some());
        assert!(cache.lookup(&cat, "q2").is_none());
        assert!(cache.lookup(&cat, "q3").is_some());
    }
}
