//! The logical plan optimizer: an algebraic rewrite layer between lowering
//! and execution.
//!
//! The paper's claim is that queries over incomplete information compile to
//! ordinary relational plans over u-relations, and selections and
//! projections rewrite exactly as in a classical optimizer: they read and
//! drop tuple cells, never descriptors. [`optimize`] runs a small fixpoint
//! rewriter over [`Plan`]s. It keeps the rules that change a benchmark plan,
//! each justified by an algebraic equivalence on world-set decompositions:
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
//! Extension operators are barriers: no selection or projection crosses
//! one, and only their inputs are rewritten, through
//! [`with_inputs`][ExtOperator::with_inputs].
//!
//! **Sharing discipline.** Within one plan, a *shared* extension subtree
//! (the same `Arc`, e.g. a `repair-key` used on both sides of a join) must
//! stay shared: the executor evaluates shared subtrees once so both
//! occurrences see the same minted components. Every extension rewrite is
//! a pure input rewrite, memoized by `Arc` identity, so every occurrence of
//! a shared node maps to one rewritten node. Operators that declare
//! [`ExtProps::requires_normalized_input`] additionally get a guard: their
//! inputs are only replaced by rewrites that preserve provable certainty.
//!
//! [`ExtProps::requires_normalized_input`]: crate::ext::ExtProps::requires_normalized_input

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use maybms_core::{FxHashMap, MayError, Schema, URelation};

use crate::cost::{join_set_est, join_step_cost, CardEst, StatsProvider};
use crate::ext::ExtOperator;
use crate::plan::Plan;
use crate::predicate::Predicate;

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

impl Plan {
    /// Infer the plan's output schema against a [`SchemaProvider`] —
    /// the provider-generic form of [`crate::eval::infer_schema`].
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
            Plan::Ext(op) => {
                let inputs = op
                    .inputs()
                    .into_iter()
                    .map(|p| p.schema_with(schemas))
                    .collect::<Result<Vec<_>, _>>()?;
                op.output_schema(&inputs)
            }
        }
    }
}

/// Upper bound on rewrite passes; real plans converge in two or three, the
/// cap only guards against a pathological rule interaction cycling forever.
const MAX_PASSES: usize = 8;

/// Optimize a plan: run selection pushdown and the projection pruner to
/// fixpoint. The result evaluates to the same u-relation as the input (up
/// to row order) on every world set whose base relations match the
/// provider's schemas; the differential test suite checks exactly that on
/// randomized plans and world sets.
pub fn optimize(plan: &Plan, schemas: &dyn SchemaProvider) -> Result<Plan, MayError> {
    let mut p = plan.clone();
    for _ in 0..MAX_PASSES {
        let mut pass = Pass::new(schemas);
        p = pass.pushdown(p)?;
        p = pass.prune(p, None)?;
        if pass.rewrites == 0 {
            break;
        }
    }
    Ok(p)
}

/// The memo key of an extension node: its `Arc` identity.
fn memo_key(op: &Arc<dyn ExtOperator>) -> usize {
    Arc::as_ptr(op) as *const () as usize
}

/// Rebuild an extension operator over its swept `inputs`. The operator is
/// kept as it was, and `rewrites` rolled back to `before`, when the sweep
/// changed nothing below it, or when it requires normalized input and a
/// rewritten input lost its provable certainty.
fn rebuild(
    op: &Arc<dyn ExtOperator>,
    inputs: Vec<Plan>,
    rewrites: &mut usize,
    before: usize,
) -> Plan {
    let preserved = || {
        !op.props().requires_normalized_input
            || op
                .inputs()
                .iter()
                .zip(&inputs)
                .all(|(orig, new)| !orig.is_certain() || new.is_certain())
    };
    if *rewrites > before && preserved() {
        return op.with_inputs(inputs);
    }
    *rewrites = before;
    Plan::Ext(Arc::clone(op))
}

/// One rewrite pass: a pushdown sweep followed by a projection pruning
/// sweep, with per-pass memoization of extension-node rewrites.
struct Pass<'a> {
    schemas: &'a dyn SchemaProvider,
    /// Rules fired this pass (drives the fixpoint loop).
    rewrites: usize,
    /// Pushdown results for extension nodes, by `Arc` identity — a shared
    /// subtree rewrites to one shared result.
    push_memo: FxHashMap<usize, Plan>,
    /// Pruning results for extension nodes, by `Arc` identity.
    prune_memo: FxHashMap<usize, Plan>,
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

impl<'a> Pass<'a> {
    fn new(schemas: &'a dyn SchemaProvider) -> Self {
        Pass {
            schemas,
            rewrites: 0,
            push_memo: FxHashMap::default(),
            prune_memo: FxHashMap::default(),
        }
    }

    /// The pushdown sweep: selections sink into join inputs and nested
    /// projections collapse.
    fn pushdown(&mut self, plan: Plan) -> Result<Plan, MayError> {
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
                    self.rewrites += 1;
                    inner = *i2; // already swept as part of this pass
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
            Plan::Ext(op) => self.push_ext(op),
        }
    }

    /// Push one selection into the join directly below it: each conjunct
    /// sinks into the side that has all of its columns; conjuncts spanning
    /// both sides, and selections over anything but a join, stay where they
    /// are. `input` has already been swept by [`Pass::pushdown`].
    fn push_select(&mut self, input: Plan, pred: Predicate) -> Result<Plan, MayError> {
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
        if !to_l.is_empty() || !to_r.is_empty() {
            self.rewrites += 1;
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

    /// Sweep an extension node's inputs, memoized by `Arc` identity so
    /// shared subtrees stay shared.
    fn push_ext(&mut self, op: Arc<dyn ExtOperator>) -> Result<Plan, MayError> {
        let key = memo_key(&op);
        if let Some(done) = self.push_memo.get(&key) {
            return Ok(done.clone());
        }
        let before = self.rewrites;
        let swept = op
            .inputs()
            .into_iter()
            .cloned()
            .map(|p| self.pushdown(p))
            .collect::<Result<Vec<_>, _>>()?;
        let node = rebuild(&op, swept, &mut self.rewrites, before);
        self.push_memo.insert(key, node.clone());
        Ok(node)
    }

    /// The projection pruning sweep (top-down): `required` is the set of
    /// columns some enclosing projection will keep — `None` means all.
    /// Requirements flow through selections (plus their predicate columns),
    /// renames (mapped back) and unions, and at a join each input is
    /// narrowed to its required columns plus the join keys, so the join
    /// materializes (gathers) only columns a consumer needs. Narrowing is
    /// sound because every `required` set originates at a projection, whose
    /// set semantics collapse exactly the rows the early narrowing collapses.
    fn prune(&mut self, plan: Plan, required: Option<&BTreeSet<String>>) -> Result<Plan, MayError> {
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
                    let l = self.prune(*left, None)?;
                    let r = self.prune(*right, None)?;
                    return Ok(l.join(r));
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
                let l = self.prune(*left, Some(&lreq))?;
                let l = self.narrow(l, &lreq)?;
                let r = self.prune(*right, Some(&rreq))?;
                let r = self.narrow(r, &rreq)?;
                Ok(l.join(r))
            }
            Plan::Union { left, right } => {
                let l = self.prune(*left, required)?;
                let r = self.prune(*right, required)?;
                match required {
                    // Both sides narrow to the same required subset (their
                    // schemas are union-compatible), keeping the union
                    // union-compatible.
                    Some(req) => Ok(self.narrow(l, req)?.union(self.narrow(r, req)?)),
                    None => Ok(l.union(r)),
                }
            }
            Plan::Ext(op) => self.prune_ext(op),
        }
    }

    /// Prune below an extension node. The operator is a barrier, so its
    /// full input is a consumer: the requirement restarts at `None`,
    /// memoized by `Arc` identity.
    fn prune_ext(&mut self, op: Arc<dyn ExtOperator>) -> Result<Plan, MayError> {
        let key = memo_key(&op);
        if let Some(done) = self.prune_memo.get(&key) {
            return Ok(done.clone());
        }
        let before = self.rewrites;
        let pruned = op
            .inputs()
            .into_iter()
            .cloned()
            .map(|p| self.prune(p, None))
            .collect::<Result<Vec<_>, _>>()?;
        let node = rebuild(&op, pruned, &mut self.rewrites, before);
        self.prune_memo.insert(key, node.clone());
        Ok(node)
    }

    /// Wrap `plan` in a projection onto `required` (in schema order) when
    /// that drops at least one column; otherwise return it unchanged. Never
    /// narrows to zero columns.
    fn narrow(&mut self, plan: Plan, required: &BTreeSet<String>) -> Result<Plan, MayError> {
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
        // Idempotence: a projection that already implements the narrowing
        // must not be wrapped again.
        if let Plan::Project { columns, .. } = &plan {
            if *columns == keep {
                return Ok(plan);
            }
        }
        self.rewrites += 1;
        Ok(plan.project(keep))
    }
}

/// A cost-based rewrite must beat the current shape's estimated cost by at
/// least this factor to fire. The strict margin is what makes
/// [`optimize_with_stats`] converge: every accepted rewrite decreases the
/// estimated cost by ≥5%, so the rules↔cost loop cannot oscillate between
/// estimate-equivalent shapes, and a plan the cost phase already chose
/// re-estimates as no worse and is left alone.
const COST_IMPROVEMENT: f64 = 0.95;

/// Optimize a plan with the rule fixpoint *and* the statistics-driven
/// cost-based phase, which reorders join trees by a greedy cheapest-pair
/// search.
///
/// The two phases interleave to a fixpoint: cost rewrites (e.g. the
/// schema-restoring projection a reorder inserts) re-feed the rules, whose
/// output re-feeds the cost phase, until a whole round changes nothing.
/// That exit condition makes the function **idempotent** — running it on
/// its own output returns the output unchanged — which the differential
/// suite asserts. With a stats-less provider this is exactly [`optimize`].
///
/// Like the rule phase, every rewrite is meaning-preserving: the result
/// evaluates to the same u-relation as the input (up to row order) on every
/// world set matching the provider's schemas, whatever the statistics say —
/// estimates only ever pick among equivalent shapes.
pub fn optimize_with_stats(
    plan: &Plan,
    schemas: &dyn SchemaProvider,
    stats: &dyn StatsProvider,
) -> Result<Plan, MayError> {
    let mut p = optimize(plan, schemas)?;
    if !stats.has_stats() {
        return Ok(p);
    }
    let mut prev = p.to_string();
    for _ in 0..MAX_PASSES {
        let mut pass = CostPass {
            schemas,
            stats,
            rewrites: 0,
            memo: FxHashMap::default(),
        };
        let c = pass.rewrite(p.clone())?;
        if pass.rewrites == 0 {
            return Ok(p);
        }
        let r = optimize(&c, schemas)?;
        let cur = r.to_string();
        p = r;
        if cur == prev {
            return Ok(p);
        }
        prev = cur;
    }
    Ok(p)
}

/// The shape of a join tree over flattened leaves, kept so the current
/// plan's cost can be estimated with the same pairwise composition the
/// search uses (otherwise the comparison would be apples to oranges).
enum JoinShape {
    /// A non-join leaf, by index into the flattened leaf list.
    Leaf(usize),
    /// An inner join node.
    Node(Box<JoinShape>, Box<JoinShape>),
}

/// Tear a maximal join tree into its non-join leaves (left to right),
/// returning the original shape over leaf indices.
fn flatten_join(plan: Plan, leaves: &mut Vec<Plan>) -> JoinShape {
    match plan {
        Plan::NaturalJoin { left, right } => {
            let l = flatten_join(*left, leaves);
            let r = flatten_join(*right, leaves);
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

/// Rebuild the plan of a join shape over its leaves.
fn rebuild_shape(shape: &JoinShape, leaves: &[Plan]) -> Plan {
    match shape {
        JoinShape::Leaf(i) => leaves[*i].clone(),
        JoinShape::Node(l, r) => rebuild_shape(l, leaves).join(rebuild_shape(r, leaves)),
    }
}

/// The join-order search: repeatedly merge the pair of partial trees with
/// the cheapest join step (both orientations — the cost model is
/// asymmetric, the right side is the hash build side). Returns the chosen
/// tree and its join-step cost.
fn greedy_best(leaves: &[Plan], ests: &[CardEst]) -> (f64, Plan) {
    let mut parts: Vec<(f64, Plan, CardEst)> = leaves
        .iter()
        .zip(ests)
        .map(|(l, e)| (0.0, l.clone(), e.clone()))
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
        let (_, pj, ej) = parts.swap_remove(hi);
        let (_, pi, ei) = parts.swap_remove(lo);
        // `swap_remove(hi)` first keeps `lo`'s index valid; reassemble
        // in (i = probe, j = build) orientation.
        let (pl, pr, el, er) = if hi == j {
            (pi, pj, ei, ej)
        } else {
            (pj, pi, ej, ei)
        };
        let joined_est = join_set_est(&[&el, &er]);
        parts.push((cost, pl.join(pr), joined_est));
    }
    let (cost, plan, _) = parts.pop().expect("one tree remains");
    (cost, plan)
}

/// One cost-based sweep (bottom-up). Separate from [`Pass`] because its
/// rewrites are chosen by estimate comparison, not proved-sound rule
/// matching — the soundness argument here is that every candidate is a
/// join tree over the same leaf set, and the estimates only *select*.
struct CostPass<'a> {
    schemas: &'a dyn SchemaProvider,
    stats: &'a dyn StatsProvider,
    /// Cost-based rewrites fired this sweep (drives the outer fixpoint).
    rewrites: usize,
    /// Rewrites of extension nodes by `Arc` identity, so shared subtrees
    /// stay shared (see the module docs' sharing discipline).
    memo: FxHashMap<usize, Plan>,
}

impl<'a> CostPass<'a> {
    fn rewrite(&mut self, plan: Plan) -> Result<Plan, MayError> {
        match plan {
            Plan::Scan(_) => Ok(plan),
            Plan::Select {
                mut input,
                predicate,
            } => {
                *input = self.rewrite(*input)?;
                Ok(Plan::Select { input, predicate })
            }
            Plan::Project { mut input, columns } => {
                *input = self.rewrite(*input)?;
                Ok(Plan::Project { input, columns })
            }
            Plan::Rename { mut input, renames } => {
                *input = self.rewrite(*input)?;
                Ok(Plan::Rename { input, renames })
            }
            Plan::Union {
                mut left,
                mut right,
            } => {
                *left = self.rewrite(*left)?;
                *right = self.rewrite(*right)?;
                Ok(Plan::Union { left, right })
            }
            Plan::NaturalJoin { .. } => self.reorder_join(plan),
            Plan::Ext(op) => self.rewrite_ext(op),
        }
    }

    /// Reorder a maximal join tree. [`greedy_best`] proposes a shape, and
    /// the current shape is scored with the same pairwise estimates
    /// ([`shape_cost`]); the rewrite fires only when the proposal beats it
    /// by the [`COST_IMPROVEMENT`] margin. The original output column order
    /// is restored with a projection when the new shape's schema permutes
    /// it (sound: join output is duplicate-free, and a full-width
    /// projection of a duplicate-free input drops nothing).
    fn reorder_join(&mut self, plan: Plan) -> Result<Plan, MayError> {
        let orig_names: Vec<String> = plan
            .schema_with(self.schemas)?
            .names()
            .into_iter()
            .map(str::to_string)
            .collect();
        let mut leaves = Vec::new();
        let shape = flatten_join(plan, &mut leaves);
        let leaves = leaves
            .into_iter()
            .map(|l| self.rewrite(l))
            .collect::<Result<Vec<_>, _>>()?;
        let ests: Vec<CardEst> = leaves
            .iter()
            .map(|l| crate::cost::plan_cost(l, self.schemas, self.stats).0)
            .collect();
        let (_, current_cost) = shape_cost(&shape, &ests);
        let (best_cost, best_plan) = greedy_best(&leaves, &ests);
        if best_cost < current_cost * COST_IMPROVEMENT {
            let best_names: Vec<String> = best_plan
                .schema_with(self.schemas)?
                .names()
                .into_iter()
                .map(str::to_string)
                .collect();
            self.rewrites += 1;
            if best_names == orig_names {
                Ok(best_plan)
            } else {
                Ok(best_plan.project(orig_names))
            }
        } else {
            Ok(rebuild_shape(&shape, &leaves))
        }
    }

    /// Sweep an extension node's inputs, memoized by `Arc` identity.
    fn rewrite_ext(&mut self, op: Arc<dyn ExtOperator>) -> Result<Plan, MayError> {
        let key = memo_key(&op);
        if let Some(done) = self.memo.get(&key) {
            return Ok(done.clone());
        }
        let before = self.rewrites;
        let rewritten = op
            .inputs()
            .into_iter()
            .cloned()
            .map(|p| self.rewrite(p))
            .collect::<Result<Vec<_>, _>>()?;
        let node = rebuild(&op, rewritten, &mut self.rewrites, before);
        self.memo.insert(key, node.clone());
        Ok(node)
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
