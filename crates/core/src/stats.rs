//! Per-relation statistics for cost-based planning.
//!
//! One pass over a u-relation's columns produces a [`RelationStats`]:
//! the row count, per-column distinct-count estimates (a KMV sketch — the k
//! minimum hash values — plus exact min/max), and the descriptor density
//! (the fraction of rows whose descriptor is non-trivial). That is exactly
//! what the cost model in `maybms-algebra` reads, and all of it is a
//! function of the cells alone, so it lives beside them: a relation holds
//! its statistics once per version of its contents
//! ([`URelation::stats`]), collected on the first read and shared by every
//! clone. Nothing else keeps a copy — the optimizer reads the statistics
//! through `maybms_algebra::Relations`, which the world set's relation map
//! implements, and the plan cache keeps the shared handle of
//! what each plan read. `maybms-core` itself attaches no planning semantics
//! to the numbers.
//!
//! ## KMV accuracy
//!
//! With `k` = [`KMV_K`] minima kept, the classical KMV estimator
//! `D ≈ (k − 1) / R_k` (where `R_k` is the k-th smallest hash scaled to
//! `[0, 1]`) is unbiased with relative standard error `≈ 1/√(k − 2)` —
//! about 6% at `k = 256`. Below `k` distinct hashes the sketch *is* the
//! exact distinct set, so small domains are counted exactly.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use crate::columnar::{ColumnData, ColumnVec, StrPool};
use crate::fxhash::{FxHashSet, FxHasher};
use crate::rng::mix64;
use crate::urel::URelation;
use crate::value::Value;

/// Minima kept per KMV sketch (relative standard error ≈ 1/√(k − 2) ≈ 6%).
pub const KMV_K: usize = 256;

/// A k-minimum-values distinct-count sketch over 64-bit hashes.
///
/// Inserts are O(log k) against a bounded max-heap; duplicates of a kept
/// hash are ignored via a membership set, so repeated values never skew the
/// estimate. `FxHasher` output is finalized with SplitMix64 ([`mix64`]) —
/// KMV needs uniformly distributed hashes and Fx alone is too regular on
/// sequential integers.
#[derive(Clone, Debug, Default)]
pub struct KmvSketch {
    /// Max-heap of the `KMV_K` smallest hashes seen (root = current k-th min).
    heap: std::collections::BinaryHeap<u64>,
    /// Membership of `heap`, so duplicate hashes are inserted once.
    members: FxHashSet<u64>,
}

impl KmvSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        KmvSketch::default()
    }

    /// Observe one value.
    pub fn observe(&mut self, v: &Value) {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        self.observe_hash(mix64(h.finish()));
    }

    fn observe_hash(&mut self, h: u64) {
        if self.members.contains(&h) {
            return;
        }
        if self.heap.len() < KMV_K {
            self.heap.push(h);
            self.members.insert(h);
        } else if h < *self.heap.peek().expect("heap holds KMV_K entries") {
            let evicted = self.heap.pop().expect("heap holds KMV_K entries");
            self.members.remove(&evicted);
            self.heap.push(h);
            self.members.insert(h);
        }
    }

    /// The distinct-count estimate: exact below `KMV_K` distinct hashes,
    /// `(k − 1)/R_k` at capacity.
    pub fn estimate(&self) -> f64 {
        if self.heap.len() < KMV_K {
            return self.heap.len() as f64;
        }
        let kth = *self.heap.peek().expect("heap holds KMV_K entries");
        let r = (kth as f64 + 1.0) / 2f64.powi(64);
        (KMV_K as f64 - 1.0) / r
    }
}

/// One column's statistics: estimated distinct count and exact min/max.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnStats {
    /// Estimated number of distinct values (exact for small domains).
    pub distinct: f64,
    /// Smallest and largest value seen (`None` for an empty relation).
    pub min_max: Option<(Value, Value)>,
}

/// One relation's statistics, collected in a single pass over its columns.
#[derive(Clone, Debug, PartialEq)]
pub struct RelationStats {
    /// Number of stored rows (duplicates included).
    pub rows: u64,
    /// Per-column stats, keyed by column name.
    pub columns: BTreeMap<String, ColumnStats>,
    /// Fraction of rows carrying a non-trivial (non-tautology) descriptor.
    pub nontrivial_frac: f64,
}

impl RelationStats {
    /// Read the statistics off a relation's columns — what
    /// [`URelation::stats`] keeps.
    pub(crate) fn of(u: &URelation) -> RelationStats {
        let rel = u.columns();
        let rows = rel.len() as u64;
        let nontrivial = rel.descs().iter().filter(|d| !d.is_tautology()).count();
        RelationStats {
            rows,
            columns: rel
                .schema()
                .names()
                .into_iter()
                .zip(rel.columns())
                .map(|(name, col)| (name.to_string(), column_stats(col, u.strings())))
                .collect(),
            nontrivial_frac: if rows == 0 {
                0.0
            } else {
                nontrivial as f64 / rows as f64
            },
        }
    }
}

/// Hand every non-`NULL` cell of a column to `f`; whether it has `NULL`s.
fn for_each_valid<T: Copy>(col: &ColumnVec, cells: &[T], mut f: impl FnMut(T)) -> bool {
    let mut nulls = false;
    for (i, &cell) in cells.iter().enumerate() {
        if col.is_null(i) {
            nulls = true;
        } else {
            f(cell);
        }
    }
    nulls
}

/// One column's sketch estimate and extremes, in a typed loop over its
/// cells. `NULL`s and dictionary strings are observed once each however many
/// cells hold them: a KMV sketch is a set of hashes and the extremes are
/// extremes of the set of values, so neither can tell.
fn column_stats(col: &ColumnVec, strings: &StrPool) -> ColumnStats {
    let mut sketch = KmvSketch::new();
    // Over the non-`NULL` cells.
    let mut range: Option<(Value, Value)> = None;
    let mut observe = |v: Value| {
        sketch.observe(&v);
        match &mut range {
            None => range = Some((v.clone(), v)),
            Some((lo, _)) if v < *lo => *lo = v,
            Some((_, hi)) if v > *hi => *hi = v,
            Some(_) => {}
        }
    };
    let nulls = match col.data() {
        ColumnData::Null(n) => *n > 0,
        ColumnData::Bool(cells) => for_each_valid(col, cells, |b| observe(Value::Bool(b))),
        ColumnData::Int(cells) => for_each_valid(col, cells, |x| observe(Value::Int(x))),
        ColumnData::Float(cells) => for_each_valid(col, cells, |x| observe(Value::float(x))),
        ColumnData::Str(codes) => {
            // The dictionary is the relation's, not the column's: find the
            // strings this column uses, then visit each once.
            let mut used = vec![false; strings.len()];
            let nulls = for_each_valid(col, codes, |code| used[code as usize] = true);
            for code in (0..strings.len() as u32).filter(|&c| used[c as usize]) {
                observe(Value::str(strings.get(code)));
            }
            nulls
        }
    };
    if nulls {
        sketch.observe(&Value::Null);
    }
    // `NULL` orders before every other value.
    let min_max = match (nulls, range) {
        (false, range) => range,
        (true, None) => Some((Value::Null, Value::Null)),
        (true, Some((_, hi))) => Some((Value::Null, hi)),
    };
    ColumnStats {
        distinct: sketch.estimate(),
        min_max,
    }
}

/// An owned copy of one u-relation's statistics ([`URelation::stats`]),
/// for a caller that compares or keeps them by value. The engine borrows
/// the shared ones instead.
pub fn collect(rel: &URelation) -> RelationStats {
    RelationStats::clone(rel.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Component;
    use crate::descriptor::WsDescriptor;
    use crate::rel::Tuple;
    use crate::schema::Schema;
    use crate::value::ValueType;
    use crate::world::WorldSet;

    #[test]
    fn small_domains_are_exact() {
        let mut sk = KmvSketch::new();
        for i in 0..100 {
            sk.observe(&Value::Int(i % 17));
        }
        assert_eq!(sk.estimate(), 17.0);
    }

    #[test]
    fn large_domains_estimate_within_kmv_error() {
        let mut sk = KmvSketch::new();
        for i in 0..50_000 {
            sk.observe(&Value::Int(i));
        }
        let est = sk.estimate();
        let rel_err = (est - 50_000.0).abs() / 50_000.0;
        // 1/√(k−2) ≈ 6.3% standard error; 4σ gives a deterministic bound
        // with huge margin (the hash stream is fixed, so this cannot flake).
        assert!(rel_err < 0.25, "estimate {est} off by {rel_err}");
    }

    #[test]
    fn collect_summarizes_columns_and_descriptors() {
        let mut ws = WorldSet::new();
        let c = ws.components.add(Component::uniform(4).expect("4 > 0"));
        let schema = Schema::of(&[("a", ValueType::Int), ("b", ValueType::Str)]).unwrap();
        let mut rel = URelation::new(schema);
        for i in 0..10 {
            let desc = if i % 2 == 0 {
                WsDescriptor::tautology()
            } else {
                WsDescriptor::single(c, (i % 4) as u16)
            };
            rel.push(
                Tuple::new(vec![Value::Int(i % 3), Value::str(format!("s{}", i % 5))]),
                desc,
            )
            .unwrap();
        }
        let stats = collect(&rel);
        assert_eq!(stats.rows, 10);
        assert_eq!(stats.columns["a"].distinct, 3.0);
        assert_eq!(stats.columns["b"].distinct, 5.0);
        assert_eq!(
            stats.columns["a"].min_max,
            Some((Value::Int(0), Value::Int(2)))
        );
        assert!((stats.nontrivial_frac - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_relation_has_empty_stats() {
        let schema = Schema::of(&[("a", ValueType::Int)]).unwrap();
        let rel = URelation::new(schema);
        let stats = collect(&rel);
        assert_eq!(stats.rows, 0);
        assert_eq!(stats.columns["a"].distinct, 0.0);
        assert_eq!(stats.columns["a"].min_max, None);
    }
}
