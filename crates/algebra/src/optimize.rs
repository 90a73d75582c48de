//! The optimizer: plans each select-project-join block of a lowered plan
//! once, between lowering and execution.
//!
//! The paper's claim is that queries over incomplete information compile to
//! ordinary relational plans over u-relations: selections and projections
//! read and drop tuple cells, never descriptors. Between the uncertainty
//! operators a plan is a select-project-join block — a conjunctive query —
//! and [`optimize_with_stats`] plans each one as a System R planner would.
//! Each placement is justified by an equivalence on world-set
//! decompositions:
//!
//! | placement | equivalence | why it is sound on WSDs |
//! |-----------|-------------|--------------------------|
//! | a conjunct on each leaf that has its columns, else at the lowest join that covers them | `σ_p(R ⋈ S) = σ_p(R) ⋈ S` for `cols(p) ⊆ R`, and `= σ_p(R) ⋈ σ_p(S)` for `cols(p) ⊆ R ∩ S` | selection reads tuple cells only and never touches descriptors; a shared column is equal on both sides of every joined row |
//! | projections looked through | `π_a(π_b(X)) = π_a(X)`, and `π_b(R) ⋈ S` read as `R ⋈ S` under the block's output projection when no column `π_b` drops occurs outside `R` | both sides deduplicate under the outer projection, and the dropped columns join nothing |
//! | leaves and joins narrowed | `π_a(R ⋈ S) = π_a(π_{a∪keys}(R) ⋈ π_{a∪keys}(S))` | rows collapsed early are exact `(tuple, descriptor)` duplicates in the projected space, which the enclosing projection collapses anyway |
//! | joins ordered | any join tree over the block's leaves, under a projection onto the written column order | natural join commutes and associates, and a full-width projection of a join's duplicate-free output drops nothing |
//!
//! Uncertainty operators ([`Plan::Uncertain`]) are barriers: nothing
//! crosses one, and only their input is planned; a `repair-key` input stays
//! provably certain ([`Plan::is_certain`]).
//!
//! **No rewrite duplicates a subtree.** A block is rebuilt over its own
//! leaves, each once (only selections repeat, on leaves sharing their
//! columns), so every node, `repair-key`s included, evaluates exactly as
//! often as in the lowered plan and each minted component stays put.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use maybms_core::{MayError, RelationStats, Schema, URelation};

use crate::cost::{join_set_est, join_step_cost, CardEst};
use crate::plan::Plan;
use crate::predicate::Predicate;
use crate::uncertain::UOp;

/// The relations a plan names, as the planner reads them: each one's
/// schema and its shared statistics, by name. This is all the optimizer,
/// the estimator and plan schema inference read. Implemented for the world
/// set's relation map, where each relation serves its own statistics
/// ([`URelation::stats`], collected on first read), and — in `maybms-sql` —
/// for the catalog over it.
pub trait Relations {
    /// The schema of the named relation, if there is one.
    fn schema(&self, name: &str) -> Option<&Schema>;

    /// The statistics of the named relation, if there is one.
    fn stats(&self, name: &str) -> Option<&Arc<RelationStats>>;
}

impl Relations for BTreeMap<String, URelation> {
    fn schema(&self, name: &str) -> Option<&Schema> {
        self.get(name).map(URelation::schema)
    }
    fn stats(&self, name: &str) -> Option<&Arc<RelationStats>> {
        self.get(name).map(URelation::stats)
    }
}

impl Plan {
    /// Infer the plan's output schema against the [`Relations`] it names
    /// (the world set's relation map, the MayQL catalog).
    pub fn schema_with(&self, relations: &dyn Relations) -> Result<Schema, MayError> {
        match self {
            Plan::Scan(name) => relations
                .schema(name)
                .cloned()
                .ok_or_else(|| MayError::UnknownRelation(name.clone())),
            Plan::Select { input, predicate } => {
                let s = input.schema_with(relations)?;
                // Bind to surface unknown-column errors at planning time.
                predicate.bind(&s)?;
                Ok(s)
            }
            Plan::Project { input, columns } => {
                Ok(input.schema_with(relations)?.project(columns)?.0)
            }
            Plan::NaturalJoin { left, right } => Ok(left
                .schema_with(relations)?
                .natural_join(&right.schema_with(relations)?)?
                .schema),
            Plan::Union { left, right } => {
                let l = left.schema_with(relations)?;
                l.union_compatible(&right.schema_with(relations)?)?;
                Ok(l)
            }
            Plan::Rename { input, renames } => Ok(input.schema_with(relations)?.rename(renames)?),
            Plan::Uncertain { op, input } => op.output_schema(&input.schema_with(relations)?),
        }
    }
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

/// A reorder must beat the current shape's estimated cost by at least this
/// factor to fire. This is the near-tie policy: a shape within 5 % of what
/// the search proposes stays, so estimate-equivalent shapes never trade
/// places, and re-planning a join tree the search already ordered — which
/// proposes the same shape again, or one within the margin — leaves it
/// alone.
const COST_IMPROVEMENT: f64 = 0.95;

/// Optimize a plan: plan each select-project-join block — the joins,
/// selections and projections between uncertainty operators, unions and
/// renames — once, in four steps: **extract** its leaves, conjuncts and
/// written join shape; **estimate and narrow** each leaf to the columns
/// read above it; **order** the joins — the written shape stays unless the
/// greedy search or the commuted written shape beats it by a 5 % margin;
/// **place** each other conjunct at the lowest join that covers it while
/// building. A leaf's inputs are blocks of their own. Planning the result
/// again gives it back, and over empty relations (every estimate 0) the
/// written join order stays. The result evaluates to the same u-relation as
/// the input (up to row order) on every world set matching the relations'
/// schemas, whatever the statistics say.
pub fn optimize_with_stats(plan: &Plan, relations: &dyn Relations) -> Result<Plan, MayError> {
    Planner { relations }.leaf(plan.clone(), None)
}

/// A set of column names.
type Cols = BTreeSet<String>;

/// A plan's output column names, in schema order.
fn names_of(plan: &Plan, relations: &dyn Relations) -> Result<Vec<String>, MayError> {
    let schema = plan.schema_with(relations)?;
    Ok(schema.names().into_iter().map(str::to_string).collect())
}

/// `plan` under a selection of the conjunction of `ps`, or `plan` itself
/// when `ps` is empty.
fn select_all(plan: Plan, mut ps: Vec<Predicate>) -> Plan {
    match ps.len() {
        0 => plan,
        1 => plan.select(ps.pop().expect("one conjunct")),
        _ => plan.select(Predicate::And(ps)),
    }
}

/// A plan and its output column names.
type Named = (Plan, Vec<String>);

/// Project a plan onto its columns that `keep` accepts: the ones in
/// `first` in that order, then the rest in schema order. The plan stays as
/// it is when that would drop nothing or everything.
fn trim((plan, names): Named, keep: impl Fn(&String) -> bool, first: &[String]) -> Named {
    let firsts = first.iter().filter(|c| names.contains(c));
    let rest = names.iter().filter(|c| !first.contains(c));
    let kept: Vec<String> = firsts.chain(rest).filter(|c| keep(c)).cloned().collect();
    if kept.len() == names.len() || kept.is_empty() {
        return (plan, names);
    }
    (plan.project(kept.clone()), kept)
}

/// The optimizer over one set of relations.
struct Planner<'a> {
    relations: &'a dyn Relations,
}

/// Step 1's result: a block's leaves, conjuncts, whether it was written
/// with a projection above its joins, and [`Planner::deep_counts`].
#[derive(Default)]
struct Block {
    leaves: Vec<Plan>,
    conjuncts: Vec<Predicate>,
    projected: bool,
    all: Counts,
}

impl Planner<'_> {
    /// Plan a block leaf, or a whole plan. `required` is the set of its
    /// columns something above it reads — `None` means all. A union passes
    /// it to both inputs, a rename maps it back to its input's names, and a
    /// block narrows its output to it; an uncertainty operator consumes its
    /// whole input, so the requirement restarts at `None` below it.
    fn leaf(&self, plan: Plan, required: Option<&Cols>) -> Result<Plan, MayError> {
        Ok(match plan {
            Plan::Scan(_) => plan,
            Plan::Select { .. } | Plan::Project { .. } | Plan::NaturalJoin { .. } => {
                self.block(plan, required)?
            }
            Plan::Union { left, right } => {
                // Both inputs narrow alike, keeping the union union-compatible.
                let side = |p: Plan| -> Result<Plan, MayError> {
                    let p = self.leaf(p, required)?;
                    let Some(req) = required else { return Ok(p) };
                    let names = names_of(&p, self.relations)?;
                    Ok(trim((p, names), |c| req.contains(c), &[]).0)
                };
                side(*left)?.union(side(*right)?)
            }
            Plan::Rename { input, renames } => {
                // Every pair's *source* column stays required below, so no
                // pair is dropped: a swap like `a → b, b → a` pruned to one
                // pair would rename onto a still-existing column.
                let required = required.map(|req| {
                    let back = |n: &String| match renames.iter().find(|(_, new)| new == n) {
                        Some((old, _)) => old.clone(),
                        None => n.clone(),
                    };
                    let sources = renames.iter().map(|(old, _)| old.clone());
                    req.iter().map(back).chain(sources).collect::<Cols>()
                });
                self.leaf(*input, required.as_ref())?.rename(renames)
            }
            Plan::Uncertain { op, input } => {
                // A `repair-key` input must stay a normalized certain
                // relation: a provably certain one stays as written when
                // its plan loses that.
                let certain = matches!(op, UOp::RepairKey { .. }) && input.is_certain();
                let written = certain.then(|| input.clone());
                let planned = self.leaf(*input, None)?;
                match written {
                    Some(input) if !planned.is_certain() => Plan::Uncertain { op, input },
                    _ => op.over(planned),
                }
            }
        })
    }

    /// Plan one select-project-join block (see [`optimize_with_stats`]).
    /// Its output is the block's columns, narrowed to `required` when some
    /// of them are required.
    fn block(&self, plan: Plan, required: Option<&Cols>) -> Result<Plan, MayError> {
        let mut out = names_of(&plan, self.relations)?;
        if let Some(req) = required {
            let kept: Vec<String> = out.iter().filter(|c| req.contains(*c)).cloned().collect();
            if !kept.is_empty() {
                out = kept;
            }
        }
        let mut blk = Block::default();
        self.deep_counts(&plan, &mut blk.all)?;
        let written = self.extract(plan, false, &mut blk)?;
        // A conjunct goes on every leaf that has its columns: keep one of
        // each, in one order, so the plan re-extracts to the same conjuncts.
        blk.conjuncts.sort();
        blk.conjuncts.dedup();

        let mut cover = Vec::with_capacity(blk.leaves.len());
        let mut deep = Vec::with_capacity(blk.leaves.len());
        for leaf in &blk.leaves {
            cover.push(Cols::from_iter(names_of(leaf, self.relations)?));
            deep.push(self.deep_columns(leaf)?);
        }
        let (mut on_leaves, mut rest) = (vec![Vec::new(); cover.len()], Vec::new());
        for c in blk.conjuncts {
            let mut cols = Cols::new();
            c.columns(&mut cols);
            let mut covered = false;
            for (mine, leaf_cols) in on_leaves.iter_mut().zip(&cover) {
                if cols.is_subset(leaf_cols) {
                    mine.push(c.clone());
                    covered = true;
                }
            }
            if !covered {
                rest.push((Some(c), cols));
            }
        }
        let mut built = Built {
            out,
            leaves: Vec::with_capacity(cover.len()),
            deep,
            rest,
        };
        for (i, (leaf, mine)) in blk.leaves.into_iter().zip(on_leaves).enumerate() {
            let read = |c: &String| built.reads(c, &[i]);
            let mut req: Cols = cover[i].iter().filter(|c| read(c)).cloned().collect();
            for c in &mine {
                c.columns(&mut req);
            }
            let planned = select_all(self.leaf(leaf, Some(&req))?, mine);
            let names = names_of(&planned, self.relations)?;
            let planned = trim((planned, names), read, &built.out);
            built.leaves.push(Some(planned));
        }
        let shape = order(written, &built.leaves, self.relations);
        let (plan, names, _) = built.build(&shape, true);
        // The output in its written order: a full-width projection of a
        // join's duplicate-free output drops nothing. A block written with
        // a projection above its joins keeps one — it deduplicates, and it
        // marks the block's edge when the plan is planned again.
        let projected = blk.projected && !matches!(plan, Plan::Project { .. });
        Ok(if names == built.out && !projected {
            plan
        } else {
            plan.project(built.out)
        })
    }

    /// Step 1: walk the block from `plan` down (`inner` below a join),
    /// collecting its leaves and conjuncts; returns the written join shape.
    /// A projection above the joins only narrows the output. One below a
    /// join is looked through only when no column it drops occurs in a leaf
    /// outside it; otherwise it is a leaf, as looking through it would turn
    /// the dropped column into a join key.
    fn extract(&self, plan: Plan, inner: bool, blk: &mut Block) -> Result<JoinShape, MayError> {
        Ok(match plan {
            Plan::Select { input, predicate } => {
                conjuncts(predicate, &mut blk.conjuncts);
                self.extract(*input, inner, blk)?
            }
            Plan::Project { input, .. } if !inner => {
                blk.projected = true;
                self.extract(*input, false, blk)?
            }
            Plan::Project { input, columns } if self.drops_own(&input, &columns, &blk.all)? => {
                self.extract(*input, true, blk)?
            }
            Plan::NaturalJoin { left, right } => JoinShape::Node(
                Box::new(self.extract(*left, true, blk)?),
                Box::new(self.extract(*right, true, blk)?),
            ),
            leaf => {
                blk.leaves.push(leaf);
                JoinShape::Leaf(blk.leaves.len() - 1)
            }
        })
    }

    /// Whether every column of `input` that a projection onto `kept` drops
    /// occurs in no leaf of the block outside `input`.
    fn drops_own(&self, input: &Plan, kept: &[String], all: &Counts) -> Result<bool, MayError> {
        let mut inside = Counts::new();
        self.deep_counts(input, &mut inside)?;
        Ok(inside.iter().all(|(c, n)| kept.contains(c) || all[c] == *n))
    }

    /// For each column, how many leaves below `plan` — selections,
    /// projections and joins looked through — have it among their
    /// [`Planner::deep_columns`].
    fn deep_counts(&self, plan: &Plan, counts: &mut Counts) -> Result<(), MayError> {
        match plan {
            Plan::Select { input, .. } | Plan::Project { input, .. } => {
                self.deep_counts(input, counts)
            }
            Plan::NaturalJoin { left, right } => {
                self.deep_counts(left, counts)?;
                self.deep_counts(right, counts)
            }
            leaf => {
                for c in self.deep_columns(leaf)? {
                    *counts.entry(c).or_default() += 1;
                }
                Ok(())
            }
        }
    }

    /// Every column of `plan` and of what its projections drop, looking
    /// through all but uncertainty operators — which planning leaves alone,
    /// so a plan and its optimized form have the same deep columns.
    fn deep_columns(&self, plan: &Plan) -> Result<Cols, MayError> {
        Ok(match plan {
            Plan::Select { input, .. } | Plan::Project { input, .. } => self.deep_columns(input)?,
            Plan::NaturalJoin { left, right } | Plan::Union { left, right } => {
                let mut cols = self.deep_columns(left)?;
                cols.extend(self.deep_columns(right)?);
                cols
            }
            Plan::Rename { input, renames } => (self.deep_columns(input)?.into_iter())
                .map(|n| match renames.iter().find(|(old, _)| *old == n) {
                    Some((_, new)) => new.clone(),
                    None => n,
                })
                .collect(),
            Plan::Scan(_) | Plan::Uncertain { .. } => {
                names_of(plan, self.relations)?.into_iter().collect()
            }
        })
    }
}

/// How many leaves have each column.
type Counts = BTreeMap<String, usize>;

/// Step 3: the shape to build over the planned leaves. The search sees the
/// leaves in one order however they are written (leaf order breaks its
/// exact ties), so a block planned again gets the same proposal.
fn order(written: JoinShape, leaves: &[Option<Named>], relations: &dyn Relations) -> JoinShape {
    if leaves.len() < 2 {
        return written;
    }
    let ests: Vec<CardEst> = (leaves.iter().flatten())
        .map(|(leaf, _)| crate::cost::estimate(leaf, relations))
        .collect();
    let (_, current, turned, turned_cost) = commuted(&written, &ests);
    let mut by_est: Vec<usize> = (0..ests.len()).collect();
    // Any total order on estimates does: their names, then their numbers.
    by_est.sort_by_cached_key(|&i| {
        let e = &ests[i];
        let ranges = e.ranges.values().flat_map(|&(lo, hi)| [lo, hi]);
        let numbers = [e.rows, e.nontrivial_frac]
            .into_iter()
            .chain(e.ndv.values().copied());
        let names: Vec<&String> = e.ndv.keys().chain(e.ranges.keys()).collect();
        (
            names,
            numbers.chain(ranges).map(f64::to_bits).collect::<Vec<_>>(),
        )
    });
    let sorted: Vec<CardEst> = by_est.iter().map(|&i| ests[i].clone()).collect();
    let (mut best, searched) = greedy_best(&sorted);
    let mut proposed = searched.relabel(&by_est);
    if turned_cost <= best {
        (best, proposed) = (turned_cost, turned);
    }
    if best < current * COST_IMPROVEMENT {
        proposed
    } else {
        written
    }
}

/// Steps 2 and 4: a block while its leaves are planned and its shape built.
struct Built {
    /// The block's output columns, in order.
    out: Vec<String>,
    /// Each planned leaf and its columns, until it is built in.
    leaves: Vec<Option<Named>>,
    /// Each leaf's [`Planner::deep_columns`].
    deep: Vec<Cols>,
    /// Each conjunct no leaf covers and its columns, until a join places it.
    rest: Vec<(Option<Predicate>, Cols)>,
}

impl Built {
    /// Whether something above a subtree over the leaves `inside` reads
    /// column `c`: the block's output, a conjunct not yet placed, or a leaf
    /// outside it.
    fn reads(&self, c: &String, inside: &[usize]) -> bool {
        let outside = |(j, cols): (usize, &Cols)| !inside.contains(&j) && cols.contains(c);
        self.out.contains(c)
            || (self.rest.iter()).any(|(p, cols)| p.is_some() && cols.contains(c))
            || self.deep.iter().enumerate().any(outside)
    }

    /// Step 4: build `shape` over the planned leaves. Each join takes the
    /// conjuncts its inputs now cover, and each but the top is narrowed
    /// like a leaf. Returns the plan, its columns and its leaves.
    fn build(&mut self, shape: &JoinShape, top: bool) -> (Plan, Vec<String>, Vec<usize>) {
        let (l, r) = match shape {
            JoinShape::Leaf(i) => {
                let (plan, names) = self.leaves[*i].take().expect("each leaf is built once");
                return (plan, names, vec![*i]);
            }
            JoinShape::Node(l, r) => (l, r),
        };
        let (lp, mut names, mut inside) = self.build(l, false);
        let (rp, rnames, rinside) = self.build(r, false);
        inside.extend(rinside);
        for c in rnames {
            if !names.contains(&c) {
                names.push(c);
            }
        }
        let mut here = Vec::new();
        for (c, cols) in &mut self.rest {
            if c.is_some() && cols.iter().all(|n| names.contains(n)) {
                here.extend(c.take());
            }
        }
        let plan = select_all(lp.join(rp), here);
        if top {
            return (plan, names, inside);
        }
        let (plan, names) = trim((plan, names), |c| self.reads(c, &inside), &self.out);
        (plan, names, inside)
    }
}

/// The shape of a join tree over a block's leaves: the written one and the
/// search's candidates alike, so both are estimated with the same pairwise
/// composition (otherwise the comparison would be apples to oranges).
enum JoinShape {
    /// A leaf, by index into the block's leaf list.
    Leaf(usize),
    /// An inner join node.
    Node(Box<JoinShape>, Box<JoinShape>),
}

impl JoinShape {
    /// The same shape with leaf `i` renamed `order[i]`.
    fn relabel(self, order: &[usize]) -> JoinShape {
        match self {
            JoinShape::Leaf(i) => JoinShape::Leaf(order[i]),
            JoinShape::Node(l, r) => {
                JoinShape::Node(Box::new(l.relabel(order)), Box::new(r.relabel(order)))
            }
        }
    }
}

/// A join shape's estimate and join-step cost, each node estimated from its
/// two children exactly as [`greedy_best`] estimates a merge (leaf costs
/// are common to every shape and cancel) — and the shape with each join's
/// inputs swapped where that makes its step cheaper, with its cost. The
/// search merges the cheapest pair first, so on a chain whose one filtered
/// leaf keeps every partial join small it goes bushy; commuting the written
/// chain keeps the small side building all the way up.
fn commuted(shape: &JoinShape, ests: &[CardEst]) -> (CardEst, f64, JoinShape, f64) {
    match shape {
        JoinShape::Leaf(i) => (ests[*i].clone(), 0.0, JoinShape::Leaf(*i), 0.0),
        JoinShape::Node(l, r) => {
            let (el, cl, sl, tl) = commuted(l, ests);
            let (er, cr, sr, tr) = commuted(r, ests);
            let out = join_set_est(&[&el, &er]);
            let step = join_step_cost(el.rows, er.rows, out.rows);
            let swapped = join_step_cost(er.rows, el.rows, out.rows);
            let (sl, sr) = if swapped < step { (sr, sl) } else { (sl, sr) };
            let turned = JoinShape::Node(Box::new(sl), Box::new(sr));
            (out, cl + cr + step, turned, tl + tr + step.min(swapped))
        }
    }
}

/// The join-order search over leaves estimated as `ests`: repeatedly merge
/// the pair of partial trees with the cheapest join step (both orientations
/// — the cost model is asymmetric, the right side is the hash build side).
/// An exact cost tie goes to the smaller build side (the smaller hash
/// table), then to the smaller estimated output, so leaf order decides only
/// between candidates whose estimates are identical. Returns the chosen
/// shape's join-step cost and the shape.
fn greedy_best(ests: &[CardEst]) -> (f64, JoinShape) {
    let mut parts: Vec<(f64, JoinShape, CardEst)> = ests
        .iter()
        .enumerate()
        .map(|(i, e)| (0.0, JoinShape::Leaf(i), e.clone()))
        .collect();
    while parts.len() > 1 {
        // (cost, build rows, output rows), compared in that order.
        let mut pick = (0usize, 1usize, [f64::INFINITY; 3]);
        for i in 0..parts.len() {
            for j in 0..parts.len() {
                if i == j {
                    continue;
                }
                let out = join_set_est(&[&parts[i].2, &parts[j].2]).rows;
                let step = join_step_cost(parts[i].2.rows, parts[j].2.rows, out);
                let rank = [parts[i].0 + parts[j].0 + step, parts[j].2.rows, out];
                if rank < pick.2 {
                    pick = (i, j, rank);
                }
            }
        }
        let (i, j, [cost, ..]) = pick;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{col, lit};
    use maybms_core::ValueType;

    /// Schemas alone, for fixtures: no relation has statistics, so every
    /// scan estimates the defaults.
    impl Relations for BTreeMap<String, Schema> {
        fn schema(&self, name: &str) -> Option<&Schema> {
            self.get(name)
        }
        fn stats(&self, _: &str) -> Option<&Arc<RelationStats>> {
            None
        }
    }

    /// Hand-made statistics beside each schema, for the fixtures here and
    /// in `cost`.
    impl Relations for BTreeMap<String, (Schema, Arc<RelationStats>)> {
        fn schema(&self, name: &str) -> Option<&Schema> {
            self.get(name).map(|(schema, _)| schema)
        }
        fn stats(&self, name: &str) -> Option<&Arc<RelationStats>> {
            self.get(name).map(|(_, stats)| stats)
        }
    }

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

    /// The fixture relations, empty: every estimate is 0, so the written
    /// join order stays and a test sees placement and narrowing alone.
    fn empty() -> BTreeMap<String, URelation> {
        schemas()
            .into_iter()
            .map(|(name, schema)| (name, URelation::new(schema)))
            .collect()
    }

    fn opt(plan: Plan) -> String {
        optimize_with_stats(&plan, &empty())
            .expect("optimizes")
            .to_string()
    }

    /// Statistics making `r1` large (10⁴ rows), `r2` medium (10³), `r3`
    /// tiny (10), with join keys `b` (ndv 100) and `c` (ndv 10³ in r2,
    /// 10 in r3).
    fn stats() -> BTreeMap<String, (Schema, Arc<RelationStats>)> {
        use maybms_core::stats::ColumnStats;
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
        let mut stats = BTreeMap::new();
        stats.insert("r1", rel(10_000, &[("a", 10_000.0), ("b", 100.0)]));
        stats.insert("r2", rel(1_000, &[("b", 100.0), ("c", 1_000.0)]));
        stats.insert("r3", rel(10, &[("c", 10.0), ("d", 10.0)]));
        schemas()
            .into_iter()
            .map(|(name, schema)| {
                let rs = Arc::new(stats.remove(name.as_str()).expect("a fixture relation"));
                (name, (schema, rs))
            })
            .collect()
    }

    fn opt_cost(plan: &Plan) -> Plan {
        optimize_with_stats(plan, &stats()).expect("optimizes")
    }

    #[test]
    fn cost_phase_reorders_a_pathological_join_chain() {
        // Text order joins the two big relations first (10⁵ intermediate);
        // the planner joins r2 ⋈ r3 first (10 rows) and probes r1 into it.
        // The new shape's schema is already a–b–c–d, so no projection
        // restores the column order.
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
        // (right) side; the output column order changes, so the planner
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
    fn a_reordered_block_is_narrowed_once() {
        // The block is planned whole: the new shape's inner join narrows to
        // the output column `d` and the join key `b` (output columns
        // first), and the block's projection is the only one above it.
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

    /// The scans of a plan, left to right.
    fn scans(plan: &Plan, out: &mut Vec<String>) {
        match plan {
            Plan::Scan(name) => out.push(name.clone()),
            other => other.children().into_iter().for_each(|c| scans(c, out)),
        }
    }

    /// Over empty relations every estimate is 0, so every shape costs the
    /// same and the written join order is kept.
    #[test]
    fn over_empty_relations_the_written_join_order_is_kept() {
        for plan in [
            Plan::scan("r1")
                .join(Plan::scan("r2"))
                .join(Plan::scan("r3")),
            Plan::scan("r3")
                .join(Plan::scan("r2"))
                .join(Plan::scan("r1")),
            Plan::scan("r2").join(Plan::scan("r1")),
            Plan::scan("r3")
                .join(Plan::scan("r2"))
                .join(Plan::scan("r1"))
                .project(["a", "d"]),
        ] {
            let planned = optimize_with_stats(&plan, &empty()).expect("optimizes");
            let (mut written, mut kept) = (Vec::new(), Vec::new());
            scans(&plan, &mut written);
            scans(&planned, &mut kept);
            assert_eq!(kept, written, "{plan}");
        }
    }

    /// A 3-way chain with the statistics a generated world gave it:
    /// planning the plan again must keep it, not move the narrowed join
    /// `r1 ⋈ r0` to the other side of its join with `r2`.
    #[test]
    fn replanning_a_block_keeps_it() {
        use maybms_core::stats::ColumnStats;
        let rel = |rows: u64, frac: f64, cols: [(&str, f64); 2]| RelationStats {
            rows,
            columns: cols
                .iter()
                .map(|&(name, distinct)| {
                    let min_max = None;
                    (name.to_string(), ColumnStats { distinct, min_max })
                })
                .collect(),
            nontrivial_frac: frac,
        };
        let stats = [
            ("r0", rel(37, 8.0 / 37.0, [("c0", 8.0), ("c1", 8.0)])),
            ("r1", rel(24, 7.0 / 24.0, [("c1", 8.0), ("c2", 7.0)])),
            ("r2", rel(33, 9.0 / 33.0, [("c2", 8.0), ("c3", 8.0)])),
        ];
        let relations: BTreeMap<String, (Schema, Arc<RelationStats>)> = stats
            .into_iter()
            .map(|(name, rs)| {
                let cols: Vec<(&str, ValueType)> = rs
                    .columns
                    .keys()
                    .map(|c| (c.as_str(), ValueType::Int))
                    .collect();
                let schema = Schema::of(&cols).expect("distinct columns");
                (name.to_string(), (schema, Arc::new(rs)))
            })
            .collect();
        let plan = Plan::scan("r1")
            .join(Plan::scan("r2"))
            .join(Plan::scan("r0"))
            .project(["c2", "c3"]);
        let once = optimize_with_stats(&plan, &relations).expect("optimizes");
        let twice = optimize_with_stats(&once, &relations).expect("optimizes");
        assert_eq!(twice.to_string(), once.to_string());
    }

    #[test]
    fn near_tie_shapes_are_left_alone() {
        // r2 ⋈ r3 is already the cheap order; the margin keeps the shape.
        let plan = Plan::scan("r2").join(Plan::scan("r3"));
        let best = opt_cost(&plan);
        assert_eq!(best.to_string(), "natural-join\n  scan[r2]\n  scan[r3]\n");
    }

    /// `a ⋈ b` and `a ⋈ c` (probe `a`) tie on cost at 700 — 400 + 2·100 +
    /// 100 against 400 + 2·50 + 200 — and every other pair costs more; the
    /// smaller build side wins in whatever order the leaves come.
    #[test]
    fn exact_cost_ties_do_not_depend_on_leaf_order() {
        let est = |rows: f64, ndv: &[(&str, f64)]| CardEst {
            rows,
            ndv: ndv.iter().map(|&(c, n)| (c.to_string(), n)).collect(),
            ranges: BTreeMap::new(),
            nontrivial_frac: 0.0,
        };
        let leaves = [
            ("a", est(400.0, &[("m", 400.0), ("k", 100.0)])),
            ("b", est(100.0, &[("m", 100.0)])),
            ("c", est(50.0, &[("k", 50.0)])),
        ];
        fn text(shape: &JoinShape, names: &[&str]) -> String {
            match shape {
                JoinShape::Leaf(i) => names[*i].to_string(),
                JoinShape::Node(l, r) => format!("({} {})", text(l, names), text(r, names)),
            }
        }
        for order in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let names: Vec<&str> = order.iter().map(|&i| leaves[i].0).collect();
            let ests: Vec<CardEst> = order.iter().map(|&i| leaves[i].1.clone()).collect();
            let (cost, shape) = greedy_best(&ests);
            assert_eq!(text(&shape, &names), "((a c) b)", "leaf order {names:?}");
            assert_eq!(cost, 700.0 + (200.0 + 2.0 * 100.0 + 100.0));
        }
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
        let optimized = optimize_with_stats(&plan, &provider).unwrap();
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
        let once = optimize_with_stats(&plan, &provider).unwrap();
        let twice = optimize_with_stats(&once, &provider).unwrap();
        assert_eq!(once.to_string(), twice.to_string());
    }
}
