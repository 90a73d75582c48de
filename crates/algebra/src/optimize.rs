//! The logical plan optimizer: an algebraic rewrite layer between lowering
//! and execution.
//!
//! The paper's central claim is that its uncertainty constructs form a
//! *compositional algebra*: `possible` and `certain` commute with the
//! positive relational algebra, and selections and projections rewrite
//! across operator boundaries exactly as in a classical optimizer. This
//! module exploits that: [`optimize`] runs a small fixpoint rewriter over
//! [`Plan`]s whose rules are justified one-for-one by algebraic
//! equivalences on world-set decompositions:
//!
//! | rule | equivalence | why it is sound on WSDs |
//! |------|-------------|--------------------------|
//! | selection pushdown | `σ_p(π(R)) = π(σ_p(R))`, `σ_p(ρ(R)) = ρ(σ_{p'}(R))`, `σ_p(R ∪ S) = σ_p(R) ∪ σ_p(S)`, `σ_p(R ⋈ S) = σ_p(R) ⋈ S` for `cols(p) ⊆ R` | selection reads tuple cells only and never touches descriptors |
//! | selection merge | `σ_p(σ_q(R)) = σ_{p∧q}(R)` | one sweep, and `∧` splits at the next join |
//! | projection collapse | `π_a(π_b(R)) = π_a(R)` for `a ⊆ b` | both sides deduplicate under the outer projection |
//! | projection pruning | `π_a(R ⋈ S) = π_a(π_{a∪keys}(R) ⋈ π_{a∪keys}(S))` | rows collapsed early are exact `(tuple, descriptor)` duplicates in the projected space, which the enclosing projection collapses anyway |
//! | quantifier commuting | `σ_p(possible(R)) = possible(σ_p(R))`, same for `certain` and `conf`; `π_c(possible(R)) = possible(π_c(R))` — π does **not** commute with `certain` | declared per operator via [`ExtOperator::props`]; world-collapsing then runs on the smallest intermediate |
//! | quantifier elision | `possible(R) = certain(R) = R` when `R` is provably certain and duplicate-free | every descriptor is trivial, so "some world" and "every world" both mean "the relation itself" |
//!
//! Rules fire only when a derived plan property proves them sound; the
//! properties ([`Plan::schema_with`], [`Plan::is_distinct`],
//! [`Plan::is_certain`]) are computed structurally against a
//! [`SchemaProvider`], so every layer that owns schemas (the executor's
//! relation map, the MayQL catalog) can drive the optimizer.
//!
//! Extension operators participate through two hooks on
//! [`ExtOperator`]: [`props`][ExtOperator::props] declares the algebraic
//! properties above, and [`with_inputs`][ExtOperator::with_inputs] rebuilds
//! the operator over rewritten inputs. Operators that implement neither are
//! opaque barriers — sound, just never rewritten across.
//!
//! **Sharing discipline.** Within one plan, a *shared* extension subtree
//! (the same `Arc`, e.g. a `repair-key` used on both sides of a join) must
//! stay shared: the executor evaluates shared subtrees once so both
//! occurrences see the same minted components. The rewriter therefore
//! memoizes pure input rewrites of extension nodes by `Arc` identity —
//! every occurrence of a shared node maps to one rewritten node. The
//! exception is *commuted* rewrites (a selection or projection crossing
//! into the operator), which are inherently per-occurrence: each occurrence
//! absorbs its own surrounding predicate, so a shared node may split into
//! distinct rebuilt nodes. That is exactly why declaring
//! [`commutes_with_select`]/[`commutes_with_project`] is restricted to
//! deterministic operators that mint nothing — splitting such a node
//! duplicates work at worst, never meaning. Operators that declare
//! [`ExtProps::requires_normalized_input`] additionally get a guard: their
//! inputs are only replaced by rewrites that preserve provable certainty.
//!
//! [`commutes_with_select`]: crate::ext::ExtProps::commutes_with_select
//! [`commutes_with_project`]: crate::ext::ExtProps::commutes_with_project
//!
//! [`ExtProps::requires_normalized_input`]: crate::ext::ExtProps::requires_normalized_input

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use maybms_core::{FxHashMap, MayError, Schema, URelation};

use crate::cost::StatsProvider;
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

/// Optimize a plan: run the pushdown/commuting rules and the projection
/// pruner to fixpoint. The result evaluates to the same u-relation as the
/// input (up to row order) on every world set whose base relations match
/// the provider's schemas; the differential test suite checks exactly that
/// on randomized plans and world sets.
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

/// One rewrite pass: a pushdown/commuting sweep followed by a projection
/// pruning sweep, with per-pass memoization of extension-node rewrites.
struct Pass<'a> {
    schemas: &'a dyn SchemaProvider,
    /// Rules fired this pass (drives the fixpoint loop).
    rewrites: usize,
    /// Pushdown results for extension nodes, by `Arc` identity — a shared
    /// subtree rewrites to one shared result.
    push_memo: FxHashMap<usize, Plan>,
    /// Pruning results for barrier extension nodes, by `Arc` identity.
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

    /// The pushdown/commuting sweep: selections sink toward scans (through
    /// projections, renames, unions, into join inputs, and across
    /// commuting extension operators), adjacent selections merge, nested
    /// projections collapse, and redundant operators (identity projections,
    /// quantifiers over certain duplicate-free inputs) are elided.
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
                // An identity projection over a provably duplicate-free
                // input neither reorders nor deduplicates anything.
                if inner.is_distinct() {
                    let schema = inner.schema_with(self.schemas)?;
                    if schema.names() == columns.iter().map(String::as_str).collect::<Vec<_>>() {
                        self.rewrites += 1;
                        return Ok(inner);
                    }
                }
                *input = inner;
                Ok(Plan::Project { input, columns })
            }
            Plan::Rename { mut input, renames } => {
                let inner = self.pushdown(*input)?;
                if renames.is_empty() {
                    self.rewrites += 1;
                    return Ok(inner);
                }
                *input = inner;
                Ok(Plan::Rename { input, renames })
            }
            Plan::NaturalJoin { left, right } => {
                Ok(self.pushdown(*left)?.join(self.pushdown(*right)?))
            }
            Plan::Union { left, right } => Ok(self.pushdown(*left)?.union(self.pushdown(*right)?)),
            Plan::Ext(op) => self.push_ext(op),
        }
    }

    /// Push one selection as deep as its column set allows. `input` has
    /// already been swept by [`Pass::pushdown`].
    fn push_select(&mut self, input: Plan, pred: Predicate) -> Result<Plan, MayError> {
        if matches!(pred, Predicate::True) {
            self.rewrites += 1;
            return Ok(input);
        }
        match input {
            // σ_p(σ_q(X)) → σ_{q∧p}(X): one sweep, and the conjunction
            // splits per side at the next join below.
            Plan::Select {
                input: i2,
                predicate: q,
            } => {
                self.rewrites += 1;
                self.push_select(*i2, Predicate::And(vec![q, pred]))
            }
            // σ_p(π_c(X)) → π_c(σ_p(X)): p only reads columns of c.
            Plan::Project { input: i2, columns } => {
                self.rewrites += 1;
                Ok(self.push_select(*i2, pred)?.project(columns))
            }
            // σ_p(ρ(X)) → ρ(σ_{p'}(X)) with p's columns mapped back
            // through the renaming (simultaneously, so swaps resolve).
            Plan::Rename { input: i2, renames } => {
                self.rewrites += 1;
                let back: FxHashMap<&str, &str> = renames
                    .iter()
                    .map(|(o, n)| (n.as_str(), o.as_str()))
                    .collect();
                let pred = pred
                    .map_columns(&|c| back.get(c).map_or_else(|| c.to_string(), |o| o.to_string()));
                Ok(self.push_select(*i2, pred)?.rename(renames))
            }
            // σ_p(X ∪ Y) → σ_p(X) ∪ σ_p(Y).
            Plan::Union { left, right } => {
                self.rewrites += 1;
                let l = self.push_select(*left, pred.clone())?;
                let r = self.push_select(*right, pred)?;
                Ok(l.union(r))
            }
            // σ_p(X ⋈ Y): each conjunct sinks into the side that has all
            // of its columns; conjuncts spanning both sides stay above.
            Plan::NaturalJoin { left, right } => {
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
                if to_l.is_empty() && to_r.is_empty() {
                    let joined = left.join(*right);
                    return Ok(match and_of(keep) {
                        Some(p) => joined.select(p),
                        None => joined,
                    });
                }
                self.rewrites += 1;
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
            // σ_p(op(X)) → op(σ_p(X)) when the operator declares the
            // commutation, applied per conjunct: conjuncts reading only
            // columns of op's *input* cross, conjuncts over produced
            // columns (e.g. `conf`) stay above.
            Plan::Ext(op) => {
                let mut pred = pred;
                let props = op.props();
                if props.commutes_with_select && op.inputs().len() == 1 {
                    let in_schema = op.inputs()[0].schema_with(self.schemas)?;
                    let mut parts = Vec::new();
                    conjuncts(pred, &mut parts);
                    let (mut cross, mut keep) = (Vec::new(), Vec::new());
                    for c in parts {
                        let mut cols = BTreeSet::new();
                        c.columns(&mut cols);
                        if cols.iter().all(|n| in_schema.col_index(n).is_ok()) {
                            cross.push(c);
                        } else {
                            keep.push(c);
                        }
                    }
                    if let Some(p) = and_of(cross.clone()) {
                        let before = self.rewrites;
                        let pushed = self.push_select(op.inputs()[0].clone(), p)?;
                        if let Some(rebuilt) = op.with_inputs(vec![pushed]) {
                            self.rewrites += 1;
                            return Ok(match and_of(keep) {
                                Some(q) => rebuilt.select(q),
                                None => rebuilt,
                            });
                        }
                        // No rebuild hook: roll back and keep σ above.
                        self.rewrites = before;
                    }
                    cross.extend(keep);
                    pred = and_of(cross).expect("conjuncts of a non-True predicate");
                }
                let before = self.rewrites;
                let node = self.push_ext(op)?;
                if self.rewrites > before {
                    // The node changed shape (e.g. a quantifier elided);
                    // the selection may sink further into the new shape.
                    self.push_select(node, pred)
                } else {
                    Ok(node.select(pred))
                }
            }
            other @ Plan::Scan(_) => Ok(other.select(pred)),
        }
    }

    /// Sweep an extension node: rewrite its inputs (memoized by `Arc`
    /// identity so shared subtrees stay shared) and elide the operator
    /// entirely when its properties prove it the identity.
    fn push_ext(&mut self, op: Arc<dyn ExtOperator>) -> Result<Plan, MayError> {
        let key = Arc::as_ptr(&op) as *const () as usize;
        if let Some(done) = self.push_memo.get(&key) {
            return Ok(done.clone());
        }
        let before = self.rewrites;
        let rewritten = op
            .inputs()
            .into_iter()
            .cloned()
            .map(|p| self.pushdown(p))
            .collect::<Result<Vec<_>, _>>()?;
        let node = if self.rewrites == before {
            Plan::Ext(Arc::clone(&op))
        } else {
            self.rebuild(&op, rewritten, before)
        };
        if let Plan::Ext(op2) = &node {
            let props = op2.props();
            if props.identity_on_certain && op2.inputs().len() == 1 {
                let input = op2.inputs()[0];
                if input.is_certain() && input.is_distinct() {
                    let out = input.clone();
                    self.rewrites += 1;
                    self.push_memo.insert(key, out.clone());
                    return Ok(out);
                }
            }
        }
        self.push_memo.insert(key, node.clone());
        Ok(node)
    }

    /// Rebuild an extension operator over rewritten inputs, refusing the
    /// rewrite (and rolling the rewrite count back to `before`) when the
    /// operator has no rebuild hook, or when it requires normalized input
    /// and a rewritten input lost its provable certainty.
    fn rebuild(&mut self, op: &Arc<dyn ExtOperator>, inputs: Vec<Plan>, before: usize) -> Plan {
        if op.props().requires_normalized_input {
            let preserved = op
                .inputs()
                .iter()
                .zip(&inputs)
                .all(|(orig, new)| !orig.is_certain() || new.is_certain());
            if !preserved {
                self.rewrites = before;
                return Plan::Ext(Arc::clone(op));
            }
        }
        match op.with_inputs(inputs) {
            Some(rebuilt) => rebuilt,
            None => {
                self.rewrites = before;
                Plan::Ext(Arc::clone(op))
            }
        }
    }

    /// The projection pruning sweep (top-down): `required` is the set of
    /// columns some enclosing projection will keep — `None` means all.
    /// Requirements flow through selections (plus their predicate columns),
    /// renames (mapped back), unions, and commuting extension operators,
    /// and at a join each input is narrowed to its required columns plus
    /// the join keys, so the join materializes (gathers) only columns a
    /// consumer needs. Narrowing is sound because every `required` set
    /// originates at a projection, whose set semantics collapse exactly the
    /// rows the early narrowing collapses.
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
                let cols = match required {
                    Some(req) => {
                        let kept: Vec<String> = columns
                            .iter()
                            .filter(|c| req.contains(*c))
                            .cloned()
                            .collect();
                        if kept.len() != columns.len() && !kept.is_empty() {
                            self.rewrites += 1;
                            kept
                        } else {
                            columns
                        }
                    }
                    None => columns,
                };
                let req2: BTreeSet<String> = cols.iter().cloned().collect();
                *input = self.prune(*input, Some(&req2))?;
                Ok(Plan::Project {
                    input,
                    columns: cols,
                })
            }
            Plan::Rename { input, renames } => {
                let input = match required {
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
                if renames.is_empty() {
                    self.rewrites += 1;
                    return Ok(input);
                }
                Ok(Plan::Rename {
                    input: Box::new(input),
                    renames,
                })
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
            Plan::Ext(op) => self.prune_ext(op, required),
        }
    }

    /// Prune across an extension node: commuting operators pass the
    /// requirement through to their input; barrier operators restart the
    /// requirement at `None` (their full input is a consumer), memoized by
    /// `Arc` identity.
    fn prune_ext(
        &mut self,
        op: Arc<dyn ExtOperator>,
        required: Option<&BTreeSet<String>>,
    ) -> Result<Plan, MayError> {
        let props = op.props();
        if props.commutes_with_project && op.inputs().len() == 1 {
            let before = self.rewrites;
            let pruned = self.prune(op.inputs()[0].clone(), required)?;
            if self.rewrites == before {
                return Ok(Plan::Ext(op));
            }
            return Ok(self.rebuild(&op, vec![pruned], before));
        }
        let key = Arc::as_ptr(&op) as *const () as usize;
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
        let node = if self.rewrites == before {
            Plan::Ext(Arc::clone(&op))
        } else {
            self.rebuild(&op, pruned, before)
        };
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
/// re-estimates as optimal and is left alone.
const COST_IMPROVEMENT: f64 = 0.95;

/// Dynamic programming over join subsets is exact up to this many leaves
/// (3ⁿ ≈ 6.5k subproblems at 8); larger join trees fall back to a greedy
/// cheapest-pair heuristic.
const DP_MAX_LEAVES: usize = 8;

/// Optimize a plan with the rule fixpoint *and* the statistics-driven
/// cost-based phase: join-tree reordering (exact DP up to
/// `DP_MAX_LEAVES` (8) relations, greedy beyond) and distribution of
/// union-distributing quantifiers ([`ExtProps::distributes_over_union`])
/// over unions.
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
///
/// [`ExtProps::distributes_over_union`]: crate::ext::ExtProps::distributes_over_union
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
/// plan's cost can be estimated with the same per-subset formula the DP
/// uses (otherwise the comparison would be apples to oranges).
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

/// One cost-based sweep (bottom-up). Separate from [`Pass`] because its
/// rewrites are chosen by estimate comparison, not proved-sound rule
/// matching — the soundness argument here is that every candidate is an
/// algebraic equivalence (join trees over the same leaf set, quantifier
/// distribution declared by the operator) and the estimates only *select*.
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
    fn est(&self, plan: &Plan) -> (crate::cost::CardEst, f64) {
        crate::cost::plan_cost(plan, self.schemas, self.stats)
    }

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

    /// Reorder a maximal join tree. The candidate search scores every shape
    /// with the *set-canonical* estimate ([`crate::cost::join_set_est`]) —
    /// the same leaf subset always estimates the same cardinality, whatever
    /// the order — so the DP's principle of optimality holds, and a shape
    /// the search already chose re-scores as optimal on later sweeps
    /// (stability). A rewrite fires only when the best shape beats the
    /// current one by the [`COST_IMPROVEMENT`] margin; the original output
    /// column order is restored with a projection when the new shape's
    /// schema permutes it (sound: join output is duplicate-free, and a
    /// full-width projection of a duplicate-free input drops nothing).
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
        let ests: Vec<crate::cost::CardEst> = leaves.iter().map(|l| self.est(l).0).collect();
        let n = leaves.len();

        // Cardinality of every leaf subset, via the order-invariant
        // formula; index = bitmask over leaves (n ≤ DP_MAX_LEAVES), or
        // computed on demand for the greedy path.
        let set_rows = |mask: usize| -> f64 {
            let subset: Vec<&crate::cost::CardEst> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| &ests[i])
                .collect();
            crate::cost::join_set_est(&subset).rows
        };

        // Join-step cost of the current shape under the same estimates
        // (leaf subtree costs are common to every shape and cancel).
        fn shape_cost(shape: &JoinShape, set_rows: &dyn Fn(usize) -> f64) -> (usize, f64) {
            match shape {
                JoinShape::Leaf(i) => (1 << i, 0.0),
                JoinShape::Node(l, r) => {
                    let (ml, cl) = shape_cost(l, set_rows);
                    let (mr, cr) = shape_cost(r, set_rows);
                    let mask = ml | mr;
                    let step =
                        crate::cost::join_step_cost(set_rows(ml), set_rows(mr), set_rows(mask));
                    (mask, cl + cr + step)
                }
            }
        }
        let (full_mask, current_cost) = shape_cost(&shape, &set_rows);

        let (best_cost, best_plan) = if n <= DP_MAX_LEAVES {
            self.dp_best(&leaves, &set_rows, full_mask)
        } else {
            self.greedy_best(&leaves, &ests)
        };

        fn rebuild_shape(shape: &JoinShape, leaves: &[Plan]) -> Plan {
            match shape {
                JoinShape::Leaf(i) => leaves[*i].clone(),
                JoinShape::Node(l, r) => rebuild_shape(l, leaves).join(rebuild_shape(r, leaves)),
            }
        }

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

    /// Exact bushy DP over leaf subsets: `best[mask]` is the cheapest join
    /// tree over that subset; every split into two non-empty halves is
    /// tried in both orientations (the cost model is asymmetric — the right
    /// side is the hash build side).
    fn dp_best(
        &self,
        leaves: &[Plan],
        set_rows: &dyn Fn(usize) -> f64,
        full_mask: usize,
    ) -> (f64, Plan) {
        let n = leaves.len();
        let mut best: Vec<Option<(f64, Plan)>> = vec![None; 1 << n];
        for (i, leaf) in leaves.iter().enumerate() {
            best[1 << i] = Some((0.0, leaf.clone()));
        }
        for mask in 1usize..(1 << n) {
            if mask.count_ones() < 2 {
                continue;
            }
            let rows_out = set_rows(mask);
            let mut acc: Option<(f64, Plan)> = None;
            // Enumerate ordered splits (sub = left/probe, rest = right/
            // build); `(sub - 1) & mask` walks every proper submask.
            let mut sub = (mask - 1) & mask;
            while sub != 0 {
                let rest = mask ^ sub;
                if let (Some((cl, pl)), Some((cr, pr))) = (&best[sub], &best[rest]) {
                    let step = crate::cost::join_step_cost(set_rows(sub), set_rows(rest), rows_out);
                    let cost = cl + cr + step;
                    if acc.as_ref().map_or(true, |(c, _)| cost < *c) {
                        acc = Some((cost, pl.clone().join(pr.clone())));
                    }
                }
                sub = (sub - 1) & mask;
            }
            best[mask] = acc;
        }
        best[full_mask]
            .clone()
            .expect("every leaf subset has a join tree")
    }

    /// Greedy fallback beyond [`DP_MAX_LEAVES`]: repeatedly merge the pair
    /// of partial trees with the cheapest join step (both orientations).
    fn greedy_best(&self, leaves: &[Plan], ests: &[crate::cost::CardEst]) -> (f64, Plan) {
        let mut parts: Vec<(f64, Plan, crate::cost::CardEst)> = leaves
            .iter()
            .zip(ests)
            .map(|(l, e)| (0.0, l.clone(), e.clone()))
            .collect();
        while parts.len() > 1 {
            let mut pick = (0usize, 1usize, f64::INFINITY, 0.0f64);
            for i in 0..parts.len() {
                for j in 0..parts.len() {
                    if i == j {
                        continue;
                    }
                    let out = crate::cost::join_set_est(&[&parts[i].2, &parts[j].2]).rows;
                    let step = crate::cost::join_step_cost(parts[i].2.rows, parts[j].2.rows, out);
                    let cost = parts[i].0 + parts[j].0 + step;
                    if cost < pick.2 {
                        pick = (i, j, cost, out);
                    }
                }
            }
            let (i, j, cost, _) = pick;
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
            let joined_est = crate::cost::join_set_est(&[&el, &er]);
            parts.push((cost, pl.join(pr), joined_est));
        }
        let (cost, plan, _) = parts.pop().expect("one tree remains");
        (cost, plan)
    }

    /// Sweep an extension node: rewrite its inputs (memoized by `Arc`
    /// identity), then try the cost-gated rewrite the operator declares —
    /// distribution over a union input.
    fn rewrite_ext(&mut self, op: Arc<dyn ExtOperator>) -> Result<Plan, MayError> {
        let key = Arc::as_ptr(&op) as *const () as usize;
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
        let node = if self.rewrites == before {
            Plan::Ext(Arc::clone(&op))
        } else {
            self.rebuild_guarded(&op, rewritten, before)
        };
        let node = self.distribute(node);
        self.memo.insert(key, node.clone());
        Ok(node)
    }

    /// [`Pass::rebuild`]'s guard, replayed for the cost phase: refuse input
    /// replacement when the operator has no rebuild hook or requires
    /// normalized input and a rewritten input lost provable certainty.
    fn rebuild_guarded(
        &mut self,
        op: &Arc<dyn ExtOperator>,
        inputs: Vec<Plan>,
        before: usize,
    ) -> Plan {
        if op.props().requires_normalized_input {
            let preserved = op
                .inputs()
                .iter()
                .zip(&inputs)
                .all(|(orig, new)| !orig.is_certain() || new.is_certain());
            if !preserved {
                self.rewrites = before;
                return Plan::Ext(Arc::clone(op));
            }
        }
        match op.with_inputs(inputs) {
            Some(rebuilt) => rebuilt,
            None => {
                self.rewrites = before;
                Plan::Ext(Arc::clone(op))
            }
        }
    }

    /// Apply the operator-declared, estimate-gated rewrite to an extension
    /// node: `op(A ∪ B) → op(A) ∪ op(B)` when the operator distributes over
    /// union and the split estimates ≥5% cheaper (each side elided outright
    /// when provably certain and duplicate-free).
    fn distribute(&mut self, node: Plan) -> Plan {
        let Plan::Ext(op) = node else {
            return node;
        };
        let props = op.props();
        if props.distributes_over_union && op.inputs().len() == 1 {
            if let Plan::Union { left, right } = op.inputs()[0] {
                let side = |input: &Plan| -> Option<Plan> {
                    if props.identity_on_certain && input.is_certain() && input.is_distinct() {
                        return Some(input.clone());
                    }
                    op.with_inputs(vec![input.clone()])
                };
                if let (Some(l), Some(r)) = (side(left), side(right)) {
                    let candidate = l.union(r);
                    let current = Plan::Ext(Arc::clone(&op));
                    let (_, cand_cost) = self.est(&candidate);
                    let (_, cur_cost) = self.est(&current);
                    if cand_cost < cur_cost * COST_IMPROVEMENT {
                        self.rewrites += 1;
                        return candidate;
                    }
                }
            }
        }
        Plan::Ext(op)
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
            mean_alternatives: 0.0,
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
    fn selection_crosses_projection_rename_and_union() {
        let plan = Plan::scan("r1")
            .rename([("a", "x")])
            .union(Plan::scan("r1").rename([("a", "x")]))
            .project(["x"])
            .select(Predicate::eq(col("x"), lit(7)));
        // The selection sinks below rename (mapped back to `a`) and union;
        // the projection narrows each union side, leaving the top-level
        // projection an identity over a distinct input — elided.
        assert_eq!(
            opt(plan),
            "union\n  project[x]\n    rename[a -> x]\n      select[a = 7]\n        scan[r1]\n  project[x]\n    rename[a -> x]\n      select[a = 7]\n        scan[r1]\n"
        );
    }

    #[test]
    fn adjacent_selections_merge() {
        let plan = Plan::scan("r1")
            .select(Predicate::lt(col("a"), lit(3)))
            .select(Predicate::lt(col("b"), lit(5)));
        assert_eq!(opt(plan), "select[a < 3 AND b < 5]\n  scan[r1]\n");
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
    fn nested_projections_collapse_and_identity_projection_elides() {
        let plan = Plan::scan("r1").project(["a", "b"]).project(["a"]);
        assert_eq!(opt(plan), "project[a]\n  scan[r1]\n");
        // π over a distinct input keeping all columns in order is elided.
        let plan = Plan::scan("r1").project(["b", "a"]).project(["b", "a"]);
        assert_eq!(opt(plan), "project[b, a]\n  scan[r1]\n");
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
