//! An LRU cache of optimized plans, keyed on what each plan was compiled
//! from.
//!
//! Compiling a MayQL statement — parse, semantic analysis, the logical
//! rewrite sweeps, cost-based join reordering — costs far more than a
//! lookup, and interactive sessions re-issue the same statements (often
//! verbatim, or differing only in layout and keyword case). [`PlanCache`]
//! memoizes the *optimized* plan keyed on two things, either of which
//! invalidates the entry by missing instead of matching:
//!
//! * the **query's tokens**, as [`lex`] reads them: whitespace and `--`
//!   comments are gone, each token is spelled as written (identifiers and
//!   string contents keep their case; a number keeps its spelling, so `1`
//!   and `1.0` differ), and the reserved keywords are upper-cased. A
//!   reserved word can never be a name, so its case changes no plan;
//!   contextual words (`CONF`, `POSSIBLE`, …) can be and keep theirs. The
//!   tokens are joined by single spaces, so the key lexes back to the
//!   query's tokens: two queries share a key only when their tokens differ
//!   in nothing but the case of reserved words;
//! * **each relation the plan scans**, with its schema and its statistics
//!   (they drive the cost-based phase), as [`Relations`] serves them.
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

use maybms_algebra::{Plan, Relations};
use maybms_core::{RelationStats, Schema};

use crate::lexer::{lex, TokenKind};
use crate::parser::is_reserved;

/// The number of plans a [`PlanCache`] holds (evicting the
/// least-recently-used beyond it).
pub const DEFAULT_PLAN_CACHE_CAP: usize = 64;

/// The key text of `text` (see the module docs); `None` when it does not
/// lex.
fn key(text: &str) -> Option<String> {
    let mut key = String::with_capacity(text.len());
    for token in lex(text).ok()? {
        if token.kind == TokenKind::Eof {
            break;
        }
        if !key.is_empty() {
            key.push(' ');
        }
        let start = key.len();
        key.push_str(&text[token.span.start..token.span.end]);
        if matches!(&token.kind, TokenKind::Ident(word) if is_reserved(word)) {
            key[start..].make_ascii_uppercase();
        }
    }
    Some(key)
}

/// One relation a cached plan scans, as the optimizer read it.
struct Read {
    name: String,
    schema: Schema,
    stats: Arc<RelationStats>,
}

/// One cached compilation and what it was compiled from.
struct Entry {
    /// The query's [`key`].
    text: String,
    reads: Vec<Read>,
    plan: Plan,
    /// LRU clock value of the last touch.
    last_used: u64,
}

impl Entry {
    /// Whether `relations` show the entry's plan what it was compiled
    /// against. Statistics are one shared copy per relation, so a pointer
    /// comparison settles most reads before the value comparison.
    fn compiled_against(&self, relations: &dyn Relations) -> bool {
        self.reads.iter().all(|read| {
            relations.schema(&read.name) == Some(&read.schema)
                && relations
                    .stats(&read.name)
                    .is_some_and(|s| Arc::ptr_eq(s, &read.stats) || s == &read.stats)
        })
    }
}

/// A cache hit: the plan, cloned — a plan is a small tree of boxed
/// operator nodes that names its relations and holds none of their data.
#[derive(Clone, Debug)]
pub struct CachedPlan {
    /// The optimized plan.
    pub plan: Plan,
}

/// The LRU plan cache, holding at most [`DEFAULT_PLAN_CACHE_CAP`] plans.
/// See the module docs for the keying discipline.
#[derive(Default)]
pub struct PlanCache {
    entries: Vec<Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// Look up a compilation of `text` against `relations`. A hit
    /// refreshes the entry's LRU position; text that does not lex misses.
    pub fn lookup(&mut self, relations: &dyn Relations, text: &str) -> Option<CachedPlan> {
        let text = key(text);
        self.tick += 1;
        let tick = self.tick;
        let hit = self
            .entries
            .iter_mut()
            .find(|e| text.as_ref() == Some(&e.text) && e.compiled_against(relations));
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

    /// Store a fresh compilation of `text` against `relations`, evicting
    /// the least-recently-used entry when the cache is full. An existing
    /// entry for the same key is replaced; a plan that scans a relation
    /// `relations` lack was not compiled against them and is not stored,
    /// nor is text that does not lex (it has no key). `_estimates` is
    /// ignored — estimates are not cached — and stays only because
    /// `perfbench`'s adapter names this signature.
    pub fn insert(
        &mut self,
        relations: &dyn Relations,
        text: &str,
        plan: Plan,
        _estimates: Option<Vec<f64>>,
    ) {
        let reads = plan.scans().into_iter().map(|name| {
            let schema = relations.schema(name)?.clone();
            let stats = Arc::clone(relations.stats(name)?);
            Some(Read {
                name: name.to_owned(),
                schema,
                stats,
            })
        });
        let (Some(reads), Some(text)) = (reads.collect(), key(text)) else {
            return;
        };
        self.tick += 1;
        self.entries
            .retain(|e| !(e.text == text && e.compiled_against(relations)));
        if self.entries.len() >= DEFAULT_PLAN_CACHE_CAP {
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
    use crate::catalog::Catalog;

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
        let key = |text| key(text).expect("the text lexes");
        assert_eq!(key("  SELECT  a\n FROM\tr  "), "SELECT a FROM r");
        // Whitespace inside string literals is content, not formatting.
        assert_eq!(
            key("SELECT a FROM r WHERE b='two  words'"),
            "SELECT a FROM r WHERE b = 'two  words'"
        );
        // A comment is formatting; an apostrophe inside one opens no literal,
        // so the literal after it keeps its whitespace.
        assert_eq!(
            key("SELECT a FROM r -- it's a comment\nWHERE b = 'x  y' -- end"),
            "SELECT a FROM r WHERE b = 'x  y'"
        );
        assert_eq!(key("a - -b"), "a - - b");
        assert_eq!(key("a --b"), "a");
    }

    /// Comments and runs of whitespace do not split an entry, and neither
    /// does the case of a reserved keyword; text that does not lex has no
    /// entry.
    #[test]
    fn layout_and_reserved_keyword_case_share_an_entry() {
        let cat = catalog();
        let mut cache = PlanCache::default();
        let text = "SELECT a FROM r WHERE b = 1 AND a = 'x' OR NOT a = 'y'";
        cache.insert(&cat, text, Plan::scan("r"), None);
        for variant in [
            "select a from r where b = 1 and a = 'x' or not a = 'y'",
            "Select a\n  From r -- the only relation\n\twHeRe b=1 And a='x' oR nOT a='y'",
        ] {
            assert!(cache.lookup(&cat, variant).is_some(), "{variant}");
        }
        assert!(cache
            .lookup(&cat, "SELECT a FROM r WHERE b = 'open")
            .is_none());
        cache.insert(&cat, "SELECT 'open", Plan::scan("r"), None);
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
    }

    /// Identifier case, string contents (inner whitespace, case, `''`
    /// escapes) and a number's kind each keep entries apart, and so does
    /// the case of a contextual keyword, which can be a name.
    #[test]
    fn names_strings_escapes_and_number_kinds_keep_entries_apart() {
        let cat = catalog();
        for (a, b) in [
            ("SELECT a FROM r", "SELECT A FROM r"),
            ("SELECT a FROM r", "SELECT a FROM R"),
            ("SELECT CONF a FROM r", "SELECT conf a FROM r"),
            (
                "SELECT a FROM r WHERE b = 'x'",
                "SELECT a FROM r WHERE b = 'X'",
            ),
            (
                "SELECT a FROM r WHERE b = 'x y'",
                "SELECT a FROM r WHERE b = 'x  y'",
            ),
            (
                "SELECT a FROM r WHERE b = 'it''s'",
                "SELECT a FROM r WHERE b = 'its'",
            ),
            (
                "SELECT a FROM r WHERE b = 'a'' ''b'",
                "SELECT a FROM r WHERE b = 'a' 'b'",
            ),
            (
                "SELECT a FROM r WHERE b = 1",
                "SELECT a FROM r WHERE b = 1.0",
            ),
            (
                "SELECT a FROM r WHERE b = 1",
                "SELECT a FROM r WHERE b = 1e0",
            ),
        ] {
            let mut cache = PlanCache::default();
            cache.insert(&cat, a, Plan::scan("r"), None);
            assert!(cache.lookup(&cat, b).is_none(), "{a} / {b}");
            assert!(cache.lookup(&cat, a).is_some(), "{a}");
        }
    }

    #[test]
    fn hits_require_equal_text_and_what_the_plan_read() {
        let cat = catalog();
        let mut cache = PlanCache::default();
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
        let mut cache = PlanCache::default();
        cache.insert(&cat, "q", Plan::scan("r"), None);
        // Built afresh with equal contents: its own statistics, equal ones.
        let rebuilt = catalog();
        assert!(!Arc::ptr_eq(
            cat.stats("r").unwrap(),
            rebuilt.stats("r").unwrap()
        ));
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
        // An empty `r`: other statistics (no rows), another key.
        let empty = catalog_of(vec![("r", relation(0..0))]);
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
        let mut cache = PlanCache::default();
        for i in 0..DEFAULT_PLAN_CACHE_CAP {
            cache.insert(&cat, &format!("q{i}"), Plan::scan("r"), None);
        }
        // Touch q0 so q1 becomes the LRU entry.
        assert!(cache.lookup(&cat, "q0").is_some());
        let last = format!("q{DEFAULT_PLAN_CACHE_CAP}");
        cache.insert(&cat, &last, Plan::scan("r"), None);
        assert_eq!(cache.len(), DEFAULT_PLAN_CACHE_CAP);
        assert!(cache.lookup(&cat, "q0").is_some());
        assert!(cache.lookup(&cat, "q1").is_none());
        assert!(cache.lookup(&cat, &last).is_some());
    }
}
