//! Cardinality estimation behind the cost-based optimizer phase (see
//! [`crate::optimize::optimize_with_stats`]) and `EXPLAIN`'s `est_rows=`.
//!
//! Estimates are classical System-R style, computed bottom-up over a
//! [`Plan`] from the per-relation statistics its [`Relations`] serve
//! ([`maybms_core::RelationStats`]: each relation's own, collected the
//! first time the planner reads it; an empty relation's read 0 rows):
//!
//! * **selections** — independence-assumption selectivities: `c = lit` is
//!   `1/ndv(c)`, column-column equality `1/max(ndv)`, ranges interpolate
//!   against the column's min/max when numeric (else ⅓), conjunctions
//!   multiply, disjunctions combine as `1 − Π(1 − sᵢ)`;
//! * **joins** — distinct-count ratios: `|L ⋈ R| = |L|·|R| / Π_c max(ndv)`
//!   over the shared columns `c` (no shared column means a cross product);
//! * **quantifiers** — output bounds: the world-collapsing operators
//!   (`possible`, `certain`, `conf`) emit at most one row per distinct
//!   tuple, and `repair-key` keeps every row ([`crate::UOp::estimate_rows`]).
//!
//! The join order is chosen on estimates alone: `join_step_cost` charges
//! one pairwise hash join its probe side, its build side double (hash-table
//! construction, so the planner prefers small build sides) and its output.
//! The optimizer estimates each select-project-join block's leaves once
//! and scores every candidate join shape of the block from those.
//!
//! Everything here is estimation-only: nothing in this module rewrites
//! plans, and a missing statistic degrades to a default, never an error.

use std::collections::BTreeMap;

use crate::optimize::Relations;
use crate::plan::Plan;
use crate::predicate::{CmpOp, Operand, Predicate};

/// Assumed cardinality of a base relation without statistics.
const DEFAULT_SCAN_ROWS: f64 = 1_000.0;
/// Assumed descriptor density without statistics.
const DEFAULT_DENSITY: f64 = 0.5;
/// Selectivity of a range predicate that cannot be interpolated.
const RANGE_SELECTIVITY: f64 = 1.0 / 3.0;
/// Cardinalities are clamped here so chained cross products stay finite.
const MAX_ROWS: f64 = 1e18;

/// A plan node's estimated output: row count, per-column distinct counts,
/// numeric column ranges, and descriptor density. Columns absent from
/// `ndv` (e.g. the appended `conf` column) are assumed all-distinct.
#[derive(Clone, Debug)]
pub struct CardEst {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated distinct values per column, keyed by column name.
    pub ndv: BTreeMap<String, f64>,
    /// Numeric `(min, max)` per column, where known.
    pub ranges: BTreeMap<String, (f64, f64)>,
    /// Estimated fraction of rows with a non-trivial descriptor.
    pub nontrivial_frac: f64,
}

impl CardEst {
    /// Distinct-count estimate for one column, clamped to the row count;
    /// unknown columns count as all-distinct.
    pub fn ndv_of(&self, col: &str) -> f64 {
        self.ndv
            .get(col)
            .copied()
            .unwrap_or(self.rows)
            .clamp(1.0, self.rows.max(1.0))
    }

    /// Estimated number of distinct *tuples*: the row count capped by the
    /// product of per-column distinct counts.
    pub fn distinct_tuples(&self) -> f64 {
        let mut d = 1.0f64;
        for col in self.ndv.keys() {
            d = (d * self.ndv_of(col)).min(MAX_ROWS);
        }
        if self.ndv.is_empty() {
            self.rows
        } else {
            d.min(self.rows)
        }
    }
}

/// The estimated cost of one pairwise hash join step: probe the left,
/// build on the right (doubled — table construction), materialize the
/// output.
pub(crate) fn join_step_cost(left_rows: f64, right_rows: f64, out_rows: f64) -> f64 {
    left_rows + 2.0 * right_rows + out_rows
}

/// Estimate of a natural join over `leaves`: `Π rows / Π_c
/// max(ndv_c)^(k_c − 1)` over columns `c` shared by `k_c` leaves.
/// *Order-invariant* — the same inputs estimate identically in either
/// order. The reorder phase calls it on pairs: every join node, in the
/// current shape and in the greedy search alike, is estimated from its two
/// children.
pub(crate) fn join_set_est(leaves: &[&CardEst]) -> CardEst {
    let mut rows = 1.0f64;
    let mut by_col: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new(); // (ndv, rows)
    let mut ranges: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    let mut trivial = 1.0f64;
    for l in leaves {
        rows = (rows * l.rows.max(0.0)).min(MAX_ROWS);
        trivial *= 1.0 - l.nontrivial_frac.clamp(0.0, 1.0);
        for col in l.ndv.keys() {
            by_col
                .entry(col.as_str())
                .or_default()
                .push((l.ndv_of(col), l.rows));
        }
        for (col, &(lo, hi)) in &l.ranges {
            ranges
                .entry(col.clone())
                .and_modify(|(a, b)| {
                    // Shared columns survive the join only inside the
                    // overlap of both sides' ranges.
                    *a = a.max(lo);
                    *b = b.min(hi);
                })
                .or_insert((lo, hi));
        }
    }
    for ndvs in by_col.values() {
        if ndvs.len() > 1 {
            let max_ndv = ndvs.iter().map(|&(d, _)| d).fold(1.0f64, f64::max);
            for _ in 1..ndvs.len() {
                rows /= max_ndv.max(1.0);
            }
        }
    }
    let rows = rows.clamp(0.0, MAX_ROWS);
    let ndv = by_col
        .into_iter()
        .map(|(col, ndvs)| {
            let min_ndv = ndvs.iter().map(|&(d, _)| d).fold(MAX_ROWS, f64::min);
            (col.to_string(), min_ndv.min(rows.max(1.0)))
        })
        .collect();
    CardEst {
        rows,
        ndv,
        ranges,
        nontrivial_frac: 1.0 - trivial,
    }
}

/// Estimate a plan bottom-up, returning the root's [`CardEst`].
/// Infallible: unknown relations or statistics degrade to defaults.
pub fn estimate(plan: &Plan, relations: &dyn Relations) -> CardEst {
    estimate_into(plan, relations, &mut Vec::new())
}

/// Estimated output rows for every node of `plan`, in pre-order (node
/// before children, children left to right) — the order both the plan
/// pretty-printer and the tracer's node spans use. `EXPLAIN` and `EXPLAIN
/// ANALYZE` call it for the plan they render (`est_rows=`); nothing else in
/// the engine does.
pub fn estimate_preorder(plan: &Plan, relations: &dyn Relations) -> Vec<f64> {
    let mut rows = Vec::with_capacity(plan.node_count());
    estimate_into(plan, relations, &mut rows);
    rows
}

/// [`estimate`], one bottom-up walk that also records each node's rows in
/// `out`, in pre-order.
fn estimate_into(plan: &Plan, relations: &dyn Relations, out: &mut Vec<f64>) -> CardEst {
    let slot = out.len();
    out.push(0.0);
    let mut child = |input: &Plan| estimate_into(input, relations, out);
    let est = match plan {
        Plan::Scan(name) => scan_est(name, relations),
        Plan::Select { input, predicate } => {
            let in_est = child(input);
            let sel = selectivity(predicate, &in_est).clamp(0.0, 1.0);
            let rows = in_est.rows * sel;
            let ndv = in_est
                .ndv
                .iter()
                .map(|(c, &d)| (c.clone(), d.min(rows.max(1.0))))
                .collect();
            CardEst {
                rows,
                ndv,
                ranges: in_est.ranges,
                nontrivial_frac: in_est.nontrivial_frac,
            }
        }
        Plan::Project { input, columns } => {
            let in_est = child(input);
            let kept = CardEst {
                rows: in_est.rows,
                ndv: columns
                    .iter()
                    .map(|c| (c.clone(), in_est.ndv_of(c)))
                    .collect(),
                ranges: columns
                    .iter()
                    .filter_map(|c| in_est.ranges.get(c).map(|r| (c.clone(), *r)))
                    .collect(),
                nontrivial_frac: in_est.nontrivial_frac,
            };
            // Certain duplicates collapse to one row per distinct tuple;
            // uncertain duplicates can carry distinct descriptors and
            // survive the (tuple, descriptor) dedup.
            let d = kept.distinct_tuples();
            let f = in_est.nontrivial_frac.clamp(0.0, 1.0);
            let rows = (d + (in_est.rows - d).max(0.0) * f).min(in_est.rows);
            CardEst { rows, ..kept }
        }
        Plan::Rename { input, renames } => {
            let in_est = child(input);
            let renamed = |name: &str| -> String {
                renames
                    .iter()
                    .find(|(old, _)| old == name)
                    .map(|(_, new)| new.clone())
                    .unwrap_or_else(|| name.to_string())
            };
            CardEst {
                rows: in_est.rows,
                ndv: in_est.ndv.iter().map(|(c, &d)| (renamed(c), d)).collect(),
                ranges: in_est
                    .ranges
                    .iter()
                    .map(|(c, &r)| (renamed(c), r))
                    .collect(),
                nontrivial_frac: in_est.nontrivial_frac,
            }
        }
        Plan::NaturalJoin { left, right } => {
            let l = child(left);
            let r = child(right);
            join_set_est(&[&l, &r])
        }
        Plan::Union { left, right } => {
            let l = child(left);
            let r = child(right);
            let rows = (l.rows + r.rows).min(MAX_ROWS);
            let mut ndv = l.ndv.clone();
            for (c, &d) in &r.ndv {
                let e = ndv.entry(c.clone()).or_insert(0.0);
                *e = (*e + d).min(rows.max(1.0));
            }
            let mut ranges = l.ranges.clone();
            for (c, &(lo, hi)) in &r.ranges {
                ranges
                    .entry(c.clone())
                    .and_modify(|(a, b)| {
                        *a = a.min(lo);
                        *b = b.max(hi);
                    })
                    .or_insert((lo, hi));
            }
            let total = (l.rows + r.rows).max(1.0);
            CardEst {
                rows,
                ndv,
                ranges,
                nontrivial_frac: (l.rows * l.nontrivial_frac + r.rows * r.nontrivial_frac) / total,
            }
        }
        Plan::Uncertain { op, input } => {
            let in_est = child(input);
            let rows = op
                .estimate_rows(in_est.rows, in_est.distinct_tuples())
                .clamp(0.0, MAX_ROWS);
            CardEst {
                rows,
                ndv: in_est
                    .ndv
                    .iter()
                    .map(|(c, &d)| (c.clone(), d.min(rows.max(1.0))))
                    .collect(),
                ranges: in_est.ranges,
                nontrivial_frac: if op.certain_output() {
                    0.0
                } else {
                    in_est.nontrivial_frac
                },
            }
        }
    };
    out[slot] = est.rows;
    est
}

fn scan_est(name: &str, relations: &dyn Relations) -> CardEst {
    if let Some(rs) = relations.stats(name) {
        let rows = rs.rows as f64;
        return CardEst {
            rows,
            ndv: rs
                .columns
                .iter()
                .map(|(c, cs)| {
                    (
                        c.clone(),
                        cs.distinct.max(if rows > 0.0 { 1.0 } else { 0.0 }),
                    )
                })
                .collect(),
            ranges: rs
                .columns
                .iter()
                .filter_map(|(c, cs)| {
                    let (lo, hi) = cs.min_max.as_ref()?;
                    Some((c.clone(), (lo.as_f64()?, hi.as_f64()?)))
                })
                .collect(),
            nontrivial_frac: rs.nontrivial_frac,
        };
    }
    // No statistics: default cardinality, all columns distinct.
    let ndv = relations
        .schema(name)
        .map(|s| {
            s.names()
                .into_iter()
                .map(|n| (n.to_string(), DEFAULT_SCAN_ROWS))
                .collect()
        })
        .unwrap_or_default();
    CardEst {
        rows: DEFAULT_SCAN_ROWS,
        ndv,
        ranges: BTreeMap::new(),
        nontrivial_frac: DEFAULT_DENSITY,
    }
}

/// Independence-assumption selectivity of a predicate against an input
/// estimate.
fn selectivity(pred: &Predicate, est: &CardEst) -> f64 {
    match pred {
        Predicate::True => 1.0,
        Predicate::Compare { op, lhs, rhs } => compare_selectivity(*op, lhs, rhs, est),
        Predicate::And(ps) => ps.iter().map(|p| selectivity(p, est)).product(),
        Predicate::Or(ps) => {
            1.0 - ps
                .iter()
                .map(|p| 1.0 - selectivity(p, est))
                .product::<f64>()
        }
        Predicate::Not(p) => 1.0 - selectivity(p, est),
    }
}

fn compare_selectivity(op: CmpOp, lhs: &Operand, rhs: &Operand, est: &CardEst) -> f64 {
    let eq = |sel_eq: f64| match op {
        CmpOp::Eq => sel_eq,
        CmpOp::Ne => 1.0 - sel_eq,
        _ => RANGE_SELECTIVITY,
    };
    match (lhs, rhs) {
        (Operand::Column(c), Operand::Literal(v)) | (Operand::Literal(v), Operand::Column(c)) => {
            match op {
                CmpOp::Eq | CmpOp::Ne => eq(1.0 / est.ndv_of(c).max(1.0)),
                CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                    // Interpolate against the column range when numeric;
                    // orient so `fraction` is always P(column < literal).
                    let flipped = matches!(lhs, Operand::Literal(_));
                    match (est.ranges.get(c.as_str()), v.as_f64()) {
                        (Some(&(lo, hi)), Some(x)) if hi > lo => {
                            let below = ((x - lo) / (hi - lo)).clamp(0.0, 1.0);
                            let wants_below = matches!(op, CmpOp::Lt | CmpOp::Le) != flipped;
                            if wants_below {
                                below
                            } else {
                                1.0 - below
                            }
                        }
                        _ => RANGE_SELECTIVITY,
                    }
                }
            }
        }
        (Operand::Column(a), Operand::Column(b)) => {
            eq(1.0 / est.ndv_of(a).max(est.ndv_of(b)).max(1.0))
        }
        (Operand::Literal(_), Operand::Literal(_)) => eq(0.5),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use maybms_core::stats::{ColumnStats, RelationStats};
    use maybms_core::{Schema, Value, ValueType};

    use super::*;
    use crate::predicate::{col, lit};

    type ColSpec<'a> = (&'a str, f64, Option<(i64, i64)>);

    fn rel_stats(rows: u64, cols: &[ColSpec]) -> RelationStats {
        RelationStats {
            rows,
            columns: cols
                .iter()
                .map(|(name, ndv, mm)| {
                    (
                        name.to_string(),
                        ColumnStats {
                            distinct: *ndv,
                            min_max: mm.map(|(lo, hi)| (Value::Int(lo), Value::Int(hi))),
                        },
                    )
                })
                .collect(),
            nontrivial_frac: 0.0,
        }
    }

    /// `r1` and `r2`, each with hand-made statistics (the fixture's
    /// [`Relations`] impl is in `optimize`'s tests).
    fn fixture() -> BTreeMap<String, (Schema, Arc<RelationStats>)> {
        let mut rels = BTreeMap::new();
        rels.insert(
            "r1".to_string(),
            (
                Schema::of(&[("a", ValueType::Int), ("b", ValueType::Int)]).unwrap(),
                Arc::new(rel_stats(
                    10_000,
                    &[
                        ("a", 10_000.0, Some((0, 9_999))),
                        ("b", 100.0, Some((0, 99))),
                    ],
                )),
            ),
        );
        rels.insert(
            "r2".to_string(),
            (
                Schema::of(&[("b", ValueType::Int), ("c", ValueType::Int)]).unwrap(),
                Arc::new(rel_stats(
                    1_000,
                    &[("b", 100.0, Some((0, 99))), ("c", 1_000.0, Some((0, 999)))],
                )),
            ),
        );
        rels
    }

    #[test]
    fn equality_selectivity_uses_distinct_counts() {
        let rels = fixture();
        let plan = Plan::scan("r1").select(Predicate::eq(col("b"), lit(7i64)));
        let est = estimate(&plan, &rels);
        assert!((est.rows - 100.0).abs() < 1e-6, "rows = {}", est.rows);
    }

    #[test]
    fn range_selectivity_interpolates() {
        let rels = fixture();
        let plan = Plan::scan("r1").select(Predicate::lt(col("a"), lit(1_000i64)));
        let est = estimate(&plan, &rels);
        assert!(
            (est.rows - 1_000.0).abs() < 5.0,
            "expected ~10% of rows, got {}",
            est.rows
        );
    }

    #[test]
    fn join_rows_follow_distinct_count_ratio() {
        let rels = fixture();
        let plan = Plan::scan("r1").join(Plan::scan("r2"));
        let est = estimate(&plan, &rels);
        // 10⁴ · 10³ / max(100, 100) = 10⁵
        assert!((est.rows - 100_000.0).abs() < 1e-6, "rows = {}", est.rows);
    }

    #[test]
    fn join_set_estimate_is_order_invariant() {
        let rels = fixture();
        let a = estimate(&Plan::scan("r1"), &rels);
        let b = estimate(&Plan::scan("r2"), &rels);
        let ab = join_set_est(&[&a, &b]);
        let ba = join_set_est(&[&b, &a]);
        assert_eq!(ab.rows, ba.rows);
        assert_eq!(ab.ndv, ba.ndv);
    }

    #[test]
    fn stats_less_scans_fall_back_to_defaults() {
        let schemas: BTreeMap<String, Schema> = fixture()
            .into_iter()
            .map(|(name, (schema, _))| (name, schema))
            .collect();
        let est = estimate(&Plan::scan("r1"), &schemas);
        assert_eq!(est.rows, DEFAULT_SCAN_ROWS);
        assert!(est.ndv.contains_key("a"));
    }

    #[test]
    fn certain_is_priced_at_its_distinct_tuples() {
        // Every row of `r` carries a non-trivial descriptor, as over a
        // repair; its keys can still be certain (a repaired key's
        // alternatives cover every world), so `certain` is bounded by the
        // distinct keys, not by the trivial slice.
        let mut stats = rel_stats(10_000, &[("k", 100.0, None), ("v", 10_000.0, None)]);
        stats.nontrivial_frac = 1.0;
        let schema = Schema::of(&[("k", ValueType::Int), ("v", ValueType::Int)]).unwrap();
        let rels = BTreeMap::from([("r".to_string(), (schema, Arc::new(stats)))]);
        let est = estimate(&crate::certain(Plan::scan("r").project(["k"])), &rels);
        assert_eq!(est.rows, 100.0);
    }

    #[test]
    fn preorder_estimates_cover_every_node() {
        let rels = fixture();
        let plan = Plan::scan("r1")
            .join(Plan::scan("r2"))
            .select(Predicate::eq(col("c"), lit(1i64)))
            .project(["a"]);
        let ests = estimate_preorder(&plan, &rels);
        assert_eq!(ests.len(), plan.node_count());
        // Pre-order: project, select, join, scan r1, scan r2.
        assert_eq!(ests[3], 10_000.0);
        assert_eq!(ests[4], 1_000.0);
    }
}
