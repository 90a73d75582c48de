//! The logical plan optimizer: an algebraic rewrite layer between lowering
//! and execution.
//!
//! The paper's claim is that queries over incomplete information compile to
//! ordinary relational plans over u-relations, and selections and
//! projections rewrite exactly as in a classical optimizer: they read and
//! drop tuple cells, never descriptors. [`optimize`] rewrites [`Plan`]s in
//! two sweeps, each run once: selections sink, then projections prune. It
//! keeps the rules that change a benchmark plan, each justified by an
//! algebraic equivalence on world-set decompositions:
//!
//! | rule | equivalence | why it is sound on WSDs |
//! |------|-------------|--------------------------|
//! | selection into a join input | `σ_p(R ⋈ S) = σ_p(R) ⋈ S` for `cols(p) ⊆ R`, per conjunct | selection reads tuple cells only and never touches descriptors |
//! | projection collapse | `π_a(π_b(R)) = π_a(R)` for `a ⊆ b` | both sides deduplicate under the outer projection |
//! | projection pruning | `π_a(R ⋈ S) = π_a(π_{a∪keys}(R) ⋈ π_{a∪keys}(S))` | rows collapsed early are exact `(tuple, descriptor)` duplicates in the projected space, which the enclosing projection collapses anyway |
//!
//! Rules fire only when a derived plan property proves them sound; the
//! properties ([`Plan::schema_with`], [`Plan::is_certain`]) are computed
//! structurally against a
//! [`SchemaProvider`], so every layer that owns schemas (the executor's
//! relation map, the MayQL catalog) can drive the optimizer.
//!
//! Uncertainty operators ([`Plan::Uncertain`]) are barriers: no selection
//! or projection crosses one, and only their input is rewritten. A
//! `repair-key` input must stay a normalized certain relation, so it is
//! only replaced by a rewrite that keeps it provably certain.
//!
//! **No rewrite duplicates a subtree.** Every rule moves, wraps or drops
//! nodes, and the join reorder rebuilds a tree over the same leaves, each
//! once. So every node of the optimized plan, `repair-key`s included,
//! evaluates exactly as often as in the lowered plan, and each minted
//! component stays where the query put it.

use std::collections::{BTreeMap, BTreeSet};

use maybms_core::{MayError, RelationStats, Schema, URelation};

use crate::cost::{join_set_est, join_step_cost, CardEst, StatsProvider};
use crate::plan::Plan;
use crate::predicate::Predicate;
use crate::uncertain::UOp;

/// A source of base-relation schemas, the only context the optimizer (and
/// plan schema inference) needs. Implemented for the executor's relation
/// map, for a plain name → schema map, and — in `maybms-sql` — for the
/// MayQL catalog.
pub trait SchemaProvider {
    /// The schema of the named base relation, if known.
    fn base_schema(&self, name: &str) -> Option<&Schema>;
}

impl SchemaProvider for BTreeMap<String, Schema> {
    fn base_schema(&self, name: &str) -> Option<&Schema> {
        self.get(name)
    }
}

impl SchemaProvider for BTreeMap<String, URelation> {
    fn base_schema(&self, name: &str) -> Option<&Schema> {
        self.get(name).map(|r| r.schema())
    }
}

/// The relations serve their own statistics, collected on first read. A
/// map whose relations are all empty has none to plan by: it plans
/// rule-only.
impl StatsProvider for BTreeMap<String, URelation> {
    fn relation_stats(&self, name: &str) -> Option<&RelationStats> {
        self.get(name).map(|r| &**r.stats())
    }
    fn has_stats(&self) -> bool {
        self.values().any(|r| !r.is_empty())
    }
}

impl Plan {
    /// Infer the plan's output schema against a [`SchemaProvider`] (the
    /// executor's relation map, a name → schema map, the MayQL catalog).
    pub fn schema_with(&self, schemas: &dyn SchemaProvider) -> Result<Schema, MayError> {
        match self {
            Plan::Scan(name) => schemas
                .base_schema(name)
                .cloned()
                .ok_or_else(|| MayError::UnknownRelation(name.clone())),
            Plan::Select { input, predicate } => {
                let s = input.schema_with(schemas)?;
                // Bind to surface unknown-column errors at planning time.
                predicate.bind(&s)?;
                Ok(s)
            }
            Plan::Project { input, columns } => Ok(input.schema_with(schemas)?.project(columns)?.0),
            Plan::NaturalJoin { left, right } => Ok(left
                .schema_with(schemas)?
                .natural_join(&right.schema_with(schemas)?)?
                .schema),
            Plan::Union { left, right } => {
                let l = left.schema_with(schemas)?;
                l.union_compatible(&right.schema_with(schemas)?)?;
                Ok(l)
            }
            Plan::Rename { input, renames } => Ok(input.schema_with(schemas)?.rename(renames)?),
            Plan::Uncertain { op, input } => op.output_schema(&input.schema_with(schemas)?),
        }
    }
}

/// Optimize a plan by the rules alone: one selection-pushdown sweep, then
/// one projection-pruning sweep. Each sweep finishes its rule in one walk
/// (a selection sinks as far as it goes, a narrowing merges into the
/// projection it meets), so a second round of both finds nothing: the
/// result is its own optimization. It evaluates to the same u-relation as
/// the input (up to row order) on every world set whose base relations
/// match the provider's schemas; the differential test suite checks exactly
/// that on randomized plans and world sets.
pub fn optimize(plan: &Plan, schemas: &dyn SchemaProvider) -> Result<Plan, MayError> {
    Sweep { schemas }.rules(plan.clone())
}

/// An uncertainty operator over its rewritten input `swept`. A
/// `repair-key` input must stay a normalized certain relation:
/// `certain_input` is the original input when it was provably certain
/// ([`certain_input`]), and it stays if the rewrite lost that.
fn rebuild(op: UOp, certain_input: Option<Box<Plan>>, swept: Plan) -> Plan {
    match certain_input {
        Some(input) if !swept.is_certain() => Plan::Uncertain { op, input },
        _ => op.over(swept),
    }
}

/// The input [`rebuild`] falls back to: a `repair-key`'s provably certain
/// input.
fn certain_input(op: &UOp, input: &Plan) -> Option<Box<Plan>> {
    (matches!(op, UOp::RepairKey { .. }) && input.is_certain()).then(|| Box::new(input.clone()))
}

/// The optimizer's sweeps over one provider's schemas: the rules
/// ([`Sweep::pushdown`], [`Sweep::prune`]) and the cost-based join reorder
/// ([`Sweep::reorder`]).
struct Sweep<'a> {
    schemas: &'a dyn SchemaProvider,
}

/// Flatten a predicate's top-level conjunction into conjuncts.
fn conjuncts(p: Predicate, out: &mut Vec<Predicate>) {
    match p {
        Predicate::And(ps) => {
            for q in ps {
                conjuncts(q, out);
            }
        }
        other => out.push(other),
    }
}

/// Rebuild a conjunction from conjuncts (`None` when empty).
fn and_of(mut ps: Vec<Predicate>) -> Option<Predicate> {
    match ps.len() {
        0 => None,
        1 => ps.pop(),
        _ => Some(Predicate::And(ps)),
    }
}

impl Sweep<'_> {
    /// The rules: pushdown, then pruning.
    fn rules(&self, plan: Plan) -> Result<Plan, MayError> {
        let pushed = self.pushdown(plan)?;
        self.prune(pushed, None)
    }

    /// The pushdown sweep: selections sink into join inputs and nested
    /// projections collapse.
    fn pushdown(&self, plan: Plan) -> Result<Plan, MayError> {
        match plan {
            Plan::Scan(_) => Ok(plan),
            Plan::Select { input, predicate } => {
                let input = self.pushdown(*input)?;
                self.push_select(input, predicate)
            }
            Plan::Project { mut input, columns } => {
                let mut inner = self.pushdown(*input)?;
                // π_a(π_b(X)) → π_a(X): `a ⊆ b` by typing, and both sides
                // deduplicate under the outer projection.
                while let Plan::Project { input: i2, .. } = inner {
                    inner = *i2; // already swept
                }
                *input = inner;
                Ok(Plan::Project { input, columns })
            }
            Plan::Rename { mut input, renames } => {
                *input = self.pushdown(*input)?;
                Ok(Plan::Rename { input, renames })
            }
            Plan::NaturalJoin { left, right } => {
                Ok(self.pushdown(*left)?.join(self.pushdown(*right)?))
            }
            Plan::Union { left, right } => Ok(self.pushdown(*left)?.union(self.pushdown(*right)?)),
            Plan::Uncertain { op, input } => {
                let certain = certain_input(&op, &input);
                Ok(rebuild(op, certain, self.pushdown(*input)?))
            }
        }
    }

    /// Push one selection into the join directly below it: each conjunct
    /// sinks into the side that has all of its columns; conjuncts spanning
    /// both sides, and selections over anything but a join, stay where they
    /// are. `input` has already been swept by [`Sweep::pushdown`].
    fn push_select(&self, input: Plan, pred: Predicate) -> Result<Plan, MayError> {
        let Plan::NaturalJoin { left, right } = input else {
            return Ok(input.select(pred));
        };
        let ls = left.schema_with(self.schemas)?;
        let rs = right.schema_with(self.schemas)?;
        let mut parts = Vec::new();
        conjuncts(pred, &mut parts);
        let (mut to_l, mut to_r, mut keep) = (Vec::new(), Vec::new(), Vec::new());
        for c in parts {
            let mut cols = BTreeSet::new();
            c.columns(&mut cols);
            if cols.iter().all(|n| ls.col_index(n).is_ok()) {
                to_l.push(c);
            } else if cols.iter().all(|n| rs.col_index(n).is_ok()) {
                to_r.push(c);
            } else {
                keep.push(c);
            }
        }
        let l = match and_of(to_l) {
            Some(p) => self.push_select(*left, p)?,
            None => *left,
        };
        let r = match and_of(to_r) {
            Some(p) => self.push_select(*right, p)?,
            None => *right,
        };
        let joined = l.join(r);
        Ok(match and_of(keep) {
            Some(p) => joined.select(p),
            None => joined,
        })
    }

    /// The projection pruning sweep (top-down): `required` is the set of
    /// columns some enclosing projection will keep — `None` means all.
    /// Requirements flow through selections (plus their predicate columns),
    /// renames (mapped back) and unions, and at a join each input is
    /// narrowed to its required columns plus the join keys, so the join
    /// materializes (gathers) only columns a consumer needs. Narrowing is
    /// sound because every `required` set originates at a projection, whose
    /// set semantics collapse exactly the rows the early narrowing collapses.
    fn prune(&self, plan: Plan, required: Option<&BTreeSet<String>>) -> Result<Plan, MayError> {
        match plan {
            Plan::Scan(_) => Ok(plan),
            Plan::Select {
                mut input,
                predicate,
            } => {
                let req2 = required.map(|r| {
                    let mut s = r.clone();
                    predicate.columns(&mut s);
                    s
                });
                *input = self.prune(*input, req2.as_ref())?;
                Ok(Plan::Select { input, predicate })
            }
            Plan::Project { mut input, columns } => {
                let req2: BTreeSet<String> = columns.iter().cloned().collect();
                *input = self.prune(*input, Some(&req2))?;
                Ok(Plan::Project { input, columns })
            }
            Plan::Rename { mut input, renames } => {
                *input = match required {
                    None => self.prune(*input, None)?,
                    Some(req) => {
                        // The rename node itself is metadata-only, so every
                        // pair is kept and every pair's *source* column is
                        // required below — dropping a pair (or its source)
                        // could leave the source column alive under its old
                        // name and collide with another pair's target (a
                        // swap like `a → b, b → a` pruned to one pair would
                        // rename onto a still-existing column). Surviving
                        // requirements map back through the renaming.
                        let mut req2: BTreeSet<String> = req
                            .iter()
                            .map(|n| match renames.iter().find(|(_, new)| new == n) {
                                Some((old, _)) => old.clone(),
                                None => n.clone(),
                            })
                            .collect();
                        for (old, _) in &renames {
                            req2.insert(old.clone());
                        }
                        self.prune(*input, Some(&req2))?
                    }
                };
                Ok(Plan::Rename { input, renames })
            }
            Plan::NaturalJoin { left, right } => {
                let Some(req) = required else {
                    return Ok(self.prune(*left, None)?.join(self.prune(*right, None)?));
                };
                let ls = left.schema_with(self.schemas)?;
                let rs = right.schema_with(self.schemas)?;
                let shared: BTreeSet<&str> = ls
                    .names()
                    .into_iter()
                    .filter(|n| rs.col_index(n).is_ok())
                    .collect();
                let side_req = |s: &Schema| -> BTreeSet<String> {
                    s.names()
                        .into_iter()
                        .filter(|n| req.contains(*n) || shared.contains(n))
                        .map(str::to_string)
                        .collect()
                };
                let (lreq, rreq) = (side_req(&ls), side_req(&rs));
                Ok(self.narrow(*left, &lreq)?.join(self.narrow(*right, &rreq)?))
            }
            Plan::Union { left, right } => match required {
                // Both sides narrow to the same required subset (their
                // schemas are union-compatible), keeping the union
                // union-compatible.
                Some(req) => Ok(self.narrow(*left, req)?.union(self.narrow(*right, req)?)),
                None => Ok(self.prune(*left, None)?.union(self.prune(*right, None)?)),
            },
            // A barrier: the operator consumes its whole input, so the
            // requirement restarts at `None`.
            Plan::Uncertain { op, input } => {
                let certain = certain_input(&op, &input);
                Ok(rebuild(op, certain, self.prune(*input, None)?))
            }
        }
    }

    /// Prune a join or union input to the `required` columns and narrow it
    /// to them: wrap it in a projection onto `required` (in schema order)
    /// when that drops at least one column, never down to zero columns. A
    /// projection input is narrowed in place before it is pruned —
    /// `π_a(π_b(X)) = π_a(X)` — so what lies below it is pruned to the
    /// narrowed columns, and no projection is wrapped in a second one.
    fn narrow(&self, plan: Plan, required: &BTreeSet<String>) -> Result<Plan, MayError> {
        let plan = match plan {
            Plan::Project { input, columns } if columns.iter().any(|c| required.contains(c)) => {
                input.project(columns.into_iter().filter(|c| required.contains(c)))
            }
            other => other,
        };
        let plan = self.prune(plan, Some(required))?;
        let schema = plan.schema_with(self.schemas)?;
        let keep: Vec<String> = schema
            .names()
            .into_iter()
            .filter(|n| required.contains(*n))
            .map(str::to_string)
            .collect();
        if keep.len() == schema.arity() || keep.is_empty() {
            return Ok(plan);
        }
        Ok(plan.project(keep))
    }
}

/// A reorder must beat the current shape's estimated cost by at least this
/// factor to fire. This is the near-tie policy: a shape within 5 % of what
/// the search proposes stays, so estimate-equivalent shapes never trade
/// places, and re-planning a join tree the search already ordered — which
/// proposes the same shape again, or one within the margin — leaves it
/// alone.
const COST_IMPROVEMENT: f64 = 0.95;

/// Optimize a plan by the rules *and* the statistics-driven join reorder,
/// in a fixed sequence of sweeps, each run once:
///
/// 1. pushdown and 2. pruning — exactly [`optimize`];
/// 3. when the provider has statistics, one greedy cheapest-pair search per
///    maximal join tree, which replaces the tree when it beats the current
///    shape by a 5 % margin (the near-tie policy);
/// 4. when a reorder fired, pushdown and pruning once more, over the
///    reordered plan: the projection that restores a reordered tree's
///    column order merges into an enclosing one, and the new shape's join
///    inputs narrow to what is consumed above them.
///
/// Re-planning the result leaves it unchanged on the differential suite's
/// join chains (which assert it) and on every statement of the `perfbench`
/// workloads and the plan corpus. It is not a fixpoint by construction:
/// where step 4 narrows a reordered tree into smaller ones, or the greedy
/// search breaks a tie differently over the reordered leaves, a second call
/// can still find a cheaper order (about 2 in 1 000 randomly generated
/// plans). With a stats-less provider this is exactly [`optimize`].
///
/// Like the rules, every rewrite is meaning-preserving: the result
/// evaluates to the same u-relation as the input (up to row order) on every
/// world set matching the provider's schemas, whatever the statistics say —
/// estimates only ever pick among equivalent shapes.
pub fn optimize_with_stats(
    plan: &Plan,
    schemas: &dyn SchemaProvider,
    stats: &dyn StatsProvider,
) -> Result<Plan, MayError> {
    let planned = optimize(plan, schemas)?;
    if !stats.has_stats() {
        return Ok(planned);
    }
    let sweep = Sweep { schemas };
    match sweep.reorder(&planned, stats)? {
        Some(reordered) => sweep.rules(reordered),
        None => Ok(planned),
    }
}

/// The shape of a join tree over flattened leaves: the current plan's and
/// the search's candidates alike, so both are estimated with the same
/// pairwise composition (otherwise the comparison would be apples to
/// oranges).
enum JoinShape {
    /// A non-join leaf, by index into the flattened leaf list.
    Leaf(usize),
    /// An inner join node.
    Node(Box<JoinShape>, Box<JoinShape>),
}

/// Tear a maximal join tree into its non-join leaves (left to right),
/// returning the original shape over leaf indices.
fn flatten_join<'p>(plan: &'p Plan, leaves: &mut Vec<&'p Plan>) -> JoinShape {
    match plan {
        Plan::NaturalJoin { left, right } => {
            let l = flatten_join(left, leaves);
            let r = flatten_join(right, leaves);
            JoinShape::Node(Box::new(l), Box::new(r))
        }
        other => {
            leaves.push(other);
            JoinShape::Leaf(leaves.len() - 1)
        }
    }
}

/// The estimate and join-step cost of a join shape, each node estimated
/// from its two children exactly as [`greedy_best`] estimates a merge
/// (leaf subtree costs are common to every shape and cancel).
fn shape_cost(shape: &JoinShape, ests: &[CardEst]) -> (CardEst, f64) {
    match shape {
        JoinShape::Leaf(i) => (ests[*i].clone(), 0.0),
        JoinShape::Node(l, r) => {
            let (el, cl) = shape_cost(l, ests);
            let (er, cr) = shape_cost(r, ests);
            let out = join_set_est(&[&el, &er]);
            let step = join_step_cost(el.rows, er.rows, out.rows);
            (out, cl + cr + step)
        }
    }
}

/// Build the plan of a join shape over its leaves.
fn rebuild_shape(shape: &JoinShape, leaves: &[&Plan]) -> Plan {
    match shape {
        JoinShape::Leaf(i) => leaves[*i].clone(),
        JoinShape::Node(l, r) => rebuild_shape(l, leaves).join(rebuild_shape(r, leaves)),
    }
}

/// The join-order search over leaves estimated as `ests`: repeatedly merge
/// the pair of partial trees with the cheapest join step (both orientations
/// — the cost model is asymmetric, the right side is the hash build side).
/// Returns the chosen shape's join-step cost and the shape.
fn greedy_best(ests: &[CardEst]) -> (f64, JoinShape) {
    let mut parts: Vec<(f64, JoinShape, CardEst)> = ests
        .iter()
        .enumerate()
        .map(|(i, e)| (0.0, JoinShape::Leaf(i), e.clone()))
        .collect();
    while parts.len() > 1 {
        let mut pick = (0usize, 1usize, f64::INFINITY);
        for i in 0..parts.len() {
            for j in 0..parts.len() {
                if i == j {
                    continue;
                }
                let out = join_set_est(&[&parts[i].2, &parts[j].2]).rows;
                let step = join_step_cost(parts[i].2.rows, parts[j].2.rows, out);
                let cost = parts[i].0 + parts[j].0 + step;
                if cost < pick.2 {
                    pick = (i, j, cost);
                }
            }
        }
        let (i, j, cost) = pick;
        let (hi, lo) = (i.max(j), i.min(j));
        let (_, sj, ej) = parts.swap_remove(hi);
        let (_, si, ei) = parts.swap_remove(lo);
        // `swap_remove(hi)` first keeps `lo`'s index valid; reassemble
        // in (i = probe, j = build) orientation.
        let (sl, sr, el, er) = if hi == j {
            (si, sj, ei, ej)
        } else {
            (sj, si, ej, ei)
        };
        let joined_est = join_set_est(&[&el, &er]);
        parts.push((
            cost,
            JoinShape::Node(Box::new(sl), Box::new(sr)),
            joined_est,
        ));
    }
    let (cost, shape, _) = parts.pop().expect("one tree remains");
    (cost, shape)
}

impl Sweep<'_> {
    /// The cost-based sweep (bottom-up): every maximal join tree is
    /// reordered by [`Sweep::reorder_join`]. Its rewrites are chosen by
    /// estimate comparison, not proved-sound rule matching — the soundness
    /// argument is that every candidate is a join tree over the same leaf
    /// set, and the estimates only *select*. `None` when no tree was
    /// reordered, so an unchanged subtree is never rebuilt.
    fn reorder(&self, plan: &Plan, stats: &dyn StatsProvider) -> Result<Option<Plan>, MayError> {
        Ok(match plan {
            Plan::Scan(_) => None,
            Plan::Select { input, predicate } => self
                .reorder(input, stats)?
                .map(|i| i.select(predicate.clone())),
            Plan::Project { input, columns } => self
                .reorder(input, stats)?
                .map(|i| i.project(columns.clone())),
            Plan::Rename { input, renames } => self
                .reorder(input, stats)?
                .map(|i| i.rename(renames.clone())),
            Plan::Union { left, right } => {
                match (self.reorder(left, stats)?, self.reorder(right, stats)?) {
                    (None, None) => None,
                    (l, r) => Some(
                        l.unwrap_or_else(|| (**left).clone())
                            .union(r.unwrap_or_else(|| (**right).clone())),
                    ),
                }
            }
            Plan::NaturalJoin { .. } => self.reorder_join(plan, stats)?,
            Plan::Uncertain { op, input } => self
                .reorder(input, stats)?
                .map(|swept| rebuild(op.clone(), certain_input(op, input), swept)),
        })
    }

    /// Reorder a maximal join tree, its leaves first. [`greedy_best`]
    /// proposes a shape, and the current shape is scored with the same
    /// pairwise estimates ([`shape_cost`]); the rewrite fires only when the
    /// proposal beats it by the [`COST_IMPROVEMENT`] margin. The original
    /// output column order is restored with a projection when the new
    /// shape's schema permutes it (sound: join output is duplicate-free,
    /// and a full-width projection of a duplicate-free input drops
    /// nothing).
    fn reorder_join(
        &self,
        plan: &Plan,
        stats: &dyn StatsProvider,
    ) -> Result<Option<Plan>, MayError> {
        let mut leaves = Vec::new();
        let shape = flatten_join(plan, &mut leaves);
        let swept = leaves
            .iter()
            .map(|l| self.reorder(l, stats))
            .collect::<Result<Vec<_>, _>>()?;
        let leaves: Vec<&Plan> = leaves
            .into_iter()
            .zip(&swept)
            .map(|(l, s)| s.as_ref().unwrap_or(l))
            .collect();
        let ests: Vec<CardEst> = leaves
            .iter()
            .map(|l| crate::cost::estimate(l, self.schemas, stats))
            .collect();
        let (_, current_cost) = shape_cost(&shape, &ests);
        let (best_cost, best_shape) = greedy_best(&ests);
        if best_cost < current_cost * COST_IMPROVEMENT {
            let names = |p: &Plan| -> Result<Vec<String>, MayError> {
                let schema = p.schema_with(self.schemas)?;
                Ok(schema.names().into_iter().map(str::to_string).collect())
            };
            let best = rebuild_shape(&best_shape, &leaves);
            let orig_names = names(plan)?;
            return Ok(Some(if names(&best)? == orig_names {
                best
            } else {
                best.project(orig_names)
            }));
        }
        let changed = swept.iter().any(Option::is_some);
        Ok(changed.then(|| rebuild_shape(&shape, &leaves)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{col, lit};
    use maybms_core::ValueType;

    fn schemas() -> BTreeMap<String, Schema> {
        let mut m = BTreeMap::new();
        m.insert(
            "r1".to_string(),
            Schema::of(&[("a", ValueType::Int), ("b", ValueType::Int)]).unwrap(),
        );
        m.insert(
            "r2".to_string(),
            Schema::of(&[("b", ValueType::Int), ("c", ValueType::Int)]).unwrap(),
        );
        m.insert(
            "r3".to_string(),
            Schema::of(&[("c", ValueType::Int), ("d", ValueType::Int)]).unwrap(),
        );
        m
    }

    fn opt(plan: Plan) -> String {
        optimize(&plan, &schemas()).expect("optimizes").to_string()
    }

    /// Statistics making `r1` large (10⁴ rows), `r2` medium (10³), `r3`
    /// tiny (10), with join keys `b` (ndv 100) and `c` (ndv 10³ in r2,
    /// 10 in r3).
    fn stats() -> BTreeMap<String, maybms_core::RelationStats> {
        use maybms_core::stats::{ColumnStats, RelationStats};
        let rel = |rows: u64, cols: &[(&str, f64)]| RelationStats {
            rows,
            columns: cols
                .iter()
                .map(|&(name, ndv)| {
                    (
                        name.to_string(),
                        ColumnStats {
                            distinct: ndv,
                            min_max: None,
                        },
                    )
                })
                .collect(),
            nontrivial_frac: 0.0,
        };
        let mut m = BTreeMap::new();
        m.insert(
            "r1".to_string(),
            rel(10_000, &[("a", 10_000.0), ("b", 100.0)]),
        );
        m.insert(
            "r2".to_string(),
            rel(1_000, &[("b", 100.0), ("c", 1_000.0)]),
        );
        m.insert("r3".to_string(), rel(10, &[("c", 10.0), ("d", 10.0)]));
        m
    }

    fn opt_cost(plan: &Plan) -> Plan {
        optimize_with_stats(plan, &schemas(), &stats()).expect("optimizes")
    }

    #[test]
    fn cost_phase_reorders_a_pathological_join_chain() {
        // Text order joins the two big relations first (10⁵ intermediate);
        // the cost phase joins r2 ⋈ r3 first (10 rows) and probes r1 into
        // it. The new shape's schema is already a–b–c–d, so no restoring
        // projection is needed.
        let plan = Plan::scan("r1")
            .join(Plan::scan("r2"))
            .join(Plan::scan("r3"));
        let best = opt_cost(&plan);
        assert_eq!(
            best.to_string(),
            "natural-join\n  scan[r1]\n  natural-join\n    scan[r2]\n    scan[r3]\n"
        );
    }

    #[test]
    fn reorder_restores_the_original_column_order() {
        // Swapping a 2-leaf join puts the small relation on the build
        // (right) side; the output column order changes, so the cost phase
        // wraps the result in a projection onto the original schema.
        let plan = Plan::scan("r2").join(Plan::scan("r1"));
        let best = opt_cost(&plan);
        assert_eq!(
            best.to_string(),
            "project[b, c, a]\n  natural-join\n    scan[r1]\n    scan[r2]\n"
        );
        let sch = best.schema_with(&schemas()).expect("schema");
        assert_eq!(sch.names(), vec!["b", "c", "a"]);
    }

    #[test]
    fn restoring_projections_merge_into_the_projection_above() {
        // Both joins reorder, and each new shape permutes its columns: the
        // inner one's restoring projection merges into the narrowing
        // `project[d, b]` above it, the outer one's into `project[a, d]`,
        // and the re-narrowed shape has no projection directly over a
        // projection.
        let plan = Plan::scan("r3")
            .join(Plan::scan("r2"))
            .join(Plan::scan("r1"))
            .project(["a", "d"]);
        assert_eq!(
            opt_cost(&plan).to_string(),
            "project[a, d]\n  natural-join\n    scan[r1]\n    project[d, b]\n      natural-join\n        scan[r2]\n        scan[r3]\n"
        );
    }

    #[test]
    fn cost_optimization_is_idempotent() {
        for plan in [
            Plan::scan("r1")
                .join(Plan::scan("r2"))
                .join(Plan::scan("r3")),
            Plan::scan("r3")
                .join(Plan::scan("r2"))
                .join(Plan::scan("r1")),
            Plan::scan("r2").join(Plan::scan("r1")),
            Plan::scan("r1")
                .join(Plan::scan("r2"))
                .join(Plan::scan("r3"))
                .project(["a", "d"]),
        ] {
            let once = opt_cost(&plan);
            let twice = opt_cost(&once);
            assert_eq!(once.to_string(), twice.to_string());
        }
    }

    #[test]
    fn without_stats_the_cost_phase_is_a_no_op() {
        let empty: BTreeMap<String, maybms_core::RelationStats> = BTreeMap::new();
        let plan = Plan::scan("r2").join(Plan::scan("r1"));
        let with = optimize_with_stats(&plan, &schemas(), &empty).expect("optimizes");
        assert_eq!(with.to_string(), opt(plan));
    }

    #[test]
    fn near_tie_shapes_are_left_alone() {
        // r2 ⋈ r3 is already the cheap order; the margin keeps the shape.
        let plan = Plan::scan("r2").join(Plan::scan("r3"));
        let best = opt_cost(&plan);
        assert_eq!(best.to_string(), "natural-join\n  scan[r2]\n  scan[r3]\n");
    }

    #[test]
    fn selection_sinks_below_a_join() {
        let plan = Plan::scan("r1")
            .join(Plan::scan("r2"))
            .select(Predicate::lt(col("a"), lit(3)));
        assert_eq!(
            opt(plan),
            "natural-join\n  select[a < 3]\n    scan[r1]\n  scan[r2]\n"
        );
    }

    #[test]
    fn conjuncts_split_across_join_sides() {
        let pred = Predicate::And(vec![
            Predicate::lt(col("a"), lit(3)),
            Predicate::eq(col("c"), lit(1)),
            Predicate::lt(col("a"), col("c")), // spans both sides: stays
        ]);
        let plan = Plan::scan("r1").join(Plan::scan("r2")).select(pred);
        assert_eq!(
            opt(plan),
            "select[a < c]\n  natural-join\n    select[a < 3]\n      scan[r1]\n    select[c = 1]\n      scan[r2]\n"
        );
    }

    #[test]
    fn projections_prune_join_gathers() {
        // Only `a` is consumed above the join, so each side narrows to its
        // required columns plus the join key `b`.
        let plan = Plan::scan("r1").join(Plan::scan("r2")).project(["a"]);
        assert_eq!(
            opt(plan),
            "project[a]\n  natural-join\n    scan[r1]\n    project[b]\n      scan[r2]\n"
        );
    }

    #[test]
    fn nested_projections_collapse() {
        let plan = Plan::scan("r1").project(["a", "b"]).project(["a"]);
        assert_eq!(opt(plan), "project[a]\n  scan[r1]\n");
    }

    #[test]
    fn optimizer_preserves_the_output_schema() {
        let provider = schemas();
        let plan = Plan::scan("r1")
            .join(Plan::scan("r2"))
            .join(Plan::scan("r3"))
            .select(Predicate::lt(col("a"), lit(3)))
            .project(["a", "d"]);
        let optimized = optimize(&plan, &provider).unwrap();
        assert_eq!(
            plan.schema_with(&provider).unwrap(),
            optimized.schema_with(&provider).unwrap()
        );
    }

    #[test]
    fn optimization_is_idempotent() {
        let provider = schemas();
        let plan = Plan::scan("r1")
            .join(Plan::scan("r2"))
            .select(Predicate::lt(col("a"), lit(3)))
            .project(["a", "c"]);
        let once = optimize(&plan, &provider).unwrap();
        let twice = optimize(&once, &provider).unwrap();
        assert_eq!(once.to_string(), twice.to_string());
    }
}
