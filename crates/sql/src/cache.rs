//! A catalog-keyed LRU cache of optimized plans.
//!
//! Compiling a MayQL statement — parse, semantic analysis, logical rewrite
//! fixpoint, cost-based join reordering — costs far more than a hash
//! lookup, and interactive sessions re-issue the same statements (often
//! verbatim, or differing only in whitespace). [`PlanCache`] memoizes the
//! *optimized* plan keyed on two things, either of which invalidates the
//! entry by missing instead of matching:
//!
//! * the **normalized query text** ([`normalize_query`]: whitespace and
//!   `--` comments collapsed outside string literals — no case folding, so
//!   identifier case is respected);
//! * the **catalog fingerprint** ([`crate::Catalog::fingerprint`]) — names,
//!   schemas, and statistics, because statistics drive the cost-based
//!   phase. The catalog memoizes it, so a lookup hashes the query text and
//!   compares two integers.
//!
//! Those two are everything the optimizer reads: compilation takes no
//! setting ([`maybms_algebra::ExecCfg`] is execution-only).
//!
//! Entries also carry the plan's pre-order cardinality estimates, and the
//! cache accepts *observed* per-node row counts back (from the session's
//! `EXPLAIN ANALYZE`): the next hit on that entry serves estimates scaled by
//! the observed q-error, **once** — a one-shot correction, cleared on use, so
//! a genuinely changed workload re-grades itself instead of compounding stale
//! factors.

use maybms_algebra::Plan;

use crate::catalog::Catalog;

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

/// The full cache key: normalized text plus the catalog fingerprint.
#[derive(Clone, Debug, PartialEq, Eq)]
struct CacheKey {
    text: String,
    catalog: u64,
}

impl CacheKey {
    fn new(catalog: &Catalog, text: &str) -> CacheKey {
        CacheKey {
            text: normalize_query(text),
            catalog: catalog.fingerprint(),
        }
    }
}

/// One cached compilation.
struct Entry {
    key: CacheKey,
    plan: Plan,
    /// Pre-order cardinality estimates of `plan` (when the catalog had
    /// statistics at compile time).
    estimates: Option<Vec<f64>>,
    /// One-shot per-node correction factors (`observed / estimated`) from
    /// the latest `note_observed`; consumed by the next hit.
    corrections: Option<Vec<f64>>,
    /// LRU clock value of the last touch.
    last_used: u64,
}

/// A cache hit: the plan (cloned — plans are cheap trees of `Arc`'d
/// extension operators) plus its estimates, with any pending one-shot
/// q-error correction already applied.
#[derive(Clone, Debug)]
pub struct CachedPlan {
    /// The optimized plan.
    pub plan: Plan,
    /// Pre-order estimates, corrected by the latest observation when one
    /// was pending.
    pub estimates: Option<Vec<f64>>,
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
    /// the entry's LRU position and consumes any pending one-shot estimate
    /// correction.
    pub fn lookup(&mut self, catalog: &Catalog, text: &str) -> Option<CachedPlan> {
        let key = CacheKey::new(catalog, text);
        self.tick += 1;
        let tick = self.tick;
        match self.entries.iter_mut().find(|e| e.key == key) {
            Some(e) => {
                self.hits += 1;
                e.last_used = tick;
                let estimates = match (e.estimates.clone(), e.corrections.take()) {
                    (Some(ests), Some(corr)) if ests.len() == corr.len() => {
                        Some(ests.iter().zip(&corr).map(|(&e, &c)| e * c).collect())
                    }
                    (ests, _) => ests,
                };
                Some(CachedPlan {
                    plan: e.plan.clone(),
                    estimates,
                })
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Store a fresh compilation, evicting the least-recently-used entry
    /// when the cache is full. An existing entry for the same key is
    /// replaced (its correction state reset).
    pub fn insert(
        &mut self,
        catalog: &Catalog,
        text: &str,
        plan: Plan,
        estimates: Option<Vec<f64>>,
    ) {
        let key = CacheKey::new(catalog, text);
        self.tick += 1;
        self.entries.retain(|e| e.key != key);
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
            key,
            plan,
            estimates,
            corrections: None,
            last_used: self.tick,
        });
    }

    /// Feed observed per-node row counts (plan pre-order, as
    /// `(estimate, observed)` pairs — the shape `ExplainAnalyze::node_observations`
    /// produces) back into the entry for `text`: the next hit serves
    /// estimates scaled by `observed / estimated`, once. No-op when the
    /// entry is gone or the shape does not match its estimate vector.
    pub(crate) fn note_observed(&mut self, catalog: &Catalog, text: &str, observed: &[(f64, u64)]) {
        let key = CacheKey::new(catalog, text);
        let Some(e) = self.entries.iter_mut().find(|e| e.key == key) else {
            return;
        };
        let Some(ests) = &e.estimates else {
            return;
        };
        if ests.len() != observed.len() || observed.is_empty() {
            return;
        }
        e.corrections = Some(
            observed
                .iter()
                .map(|&(est, actual)| (actual as f64).max(1.0) / est.max(1.0))
                .collect(),
        );
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
    use maybms_core::{Schema, ValueType};

    use super::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.insert(
            "r",
            Schema::of(&[("a", ValueType::Int), ("b", ValueType::Int)]).unwrap(),
        );
        c
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
    fn hits_require_equal_text_and_catalog() {
        let cat = catalog();
        let mut cache = PlanCache::new(4);
        assert!(cache.lookup(&cat, "SELECT a FROM r").is_none());
        cache.insert(&cat, "SELECT a FROM r", Plan::scan("r"), None);
        // Whitespace variants share an entry.
        assert!(cache.lookup(&cat, "SELECT  a  FROM  r").is_some());
        // A changed catalog misses.
        let mut other = catalog();
        other.insert("s", Schema::of(&[("c", ValueType::Int)]).unwrap());
        assert!(cache.lookup(&other, "SELECT a FROM r").is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn catalog_changes_after_a_fingerprint_was_taken_miss() {
        use maybms_core::RelationStats;
        let stats = |rows: u64| RelationStats {
            rows,
            ..RelationStats::empty()
        };
        let mut cat = catalog();
        cat.insert_stats("r", stats(10));
        let mut cache = PlanCache::new(4);
        cache.insert(&cat, "q", Plan::scan("r"), None);
        let before = cat.fingerprint();
        // The memoized fingerprint must not outlive a statistics change …
        cat.insert_stats("r", stats(11));
        assert_ne!(cat.fingerprint(), before);
        assert!(cache.lookup(&cat, "q").is_none());
        // … nor a new relation.
        cache.insert(&cat, "q", Plan::scan("r"), None);
        let before = cat.fingerprint();
        cat.insert("s", Schema::of(&[("c", ValueType::Int)]).unwrap());
        assert_ne!(cat.fingerprint(), before);
        assert!(cache.lookup(&cat, "q").is_none());
        // The key is content: an equal catalog built afresh (its memo still
        // unfilled) compares equal and hits the entry of the filled one.
        cache.insert(&cat, "q", Plan::scan("r"), None);
        let mut rebuilt = catalog();
        rebuilt.insert_stats("r", stats(11));
        rebuilt.insert("s", Schema::of(&[("c", ValueType::Int)]).unwrap());
        assert_eq!(rebuilt, cat);
        assert!(cache.lookup(&rebuilt, "q").is_some());
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

    #[test]
    fn observed_rows_correct_the_next_estimates_once() {
        let cat = catalog();
        let mut cache = PlanCache::new(4);
        cache.insert(&cat, "q", Plan::scan("r"), Some(vec![10.0, 100.0]));
        // Observed 20 and 50 rows: factors 2.0 and 0.5.
        cache.note_observed(&cat, "q", &[(10.0, 20), (100.0, 50)]);
        let hit = cache.lookup(&cat, "q").expect("cached");
        assert_eq!(hit.estimates, Some(vec![20.0, 50.0]));
        // One-shot: the correction is consumed.
        let hit = cache.lookup(&cat, "q").expect("cached");
        assert_eq!(hit.estimates, Some(vec![10.0, 100.0]));
    }
}
