//! The uncertainty operators: the paper's constructs over the positive
//! algebra, as one closed set.
//!
//! * `repair-key` *introduces* uncertainty: all maximal repairs of a key
//!   constraint become alternative worlds, optionally weighted by a column
//!   (`repair key A in R weight by w`). Each key group becomes one fresh
//!   independent component.
//! * `possible` — tuples occurring in *at least one* world (a certain
//!   relation).
//! * `certain` — tuples occurring in *every* world, decided exactly by the
//!   kernel's elimination walk over only the components a tuple's
//!   descriptors mention.
//! * `conf` — tuple confidence: the probability of the disjunction of the
//!   tuple's descriptors, appended as a `conf` float column. Exact, or
//!   (ε, δ)-approximate with an [`ApproxConf`]: connected groups whose exact
//!   cost bound is under the node's cutover keep the exact path, larger ones
//!   are estimated by deterministic, content-keyed sampling.
//!
//! Each is a [`UOp`] over one input plan ([`Plan::Uncertain`]), and this
//! module answers for all of them what the optimizer, the cost model and the
//! executor ask: label, output schema, certainty of the output, a row
//! estimate, and evaluation itself. Each operator is its input plus one
//! grouping step — bringing the rows of each distinct tuple together — and
//! the step is core's [`canonical_order`], the same sort `normalize` runs,
//! so the operators keep no row order of their own. `tuple_runs` is their
//! one path to it: `possible`, `certain` and `conf` hand it the columns in
//! schema order, `repair-key` its key columns first, which brings each
//! key's rows together in the same sort.
//!
//! Past the sort, `possible` is a gather of each run's first row and lives
//! here beside `tuple_runs`. `certain` and `conf` ask the solver kernel the
//! same question of each run — is the disjunction valid, how probable is
//! it — and are one stage in `confidence.rs`, the engine's one fan-out,
//! which hands each run whole to the kernel (`maybms_core::dnf`);
//! `repair-key` mints components in `repair.rs`. New constructs become new
//! variants here.

use std::borrow::Borrow;

use maybms_core::columnar::{canonical_order, ColumnVec, ColumnarURelation};
use maybms_core::dnf::{ApproxConf, EXACT_STEP_CEILING};
use maybms_core::{DescId, MayError, Schema};

use crate::confidence;
use crate::eval::EvalCtx;
use crate::plan::Plan;
use crate::repair;

/// An uncertainty operator (see the module docs).
#[derive(Clone, Debug)]
pub enum UOp {
    /// `repair key <key> in R [weight by <weight>]`. The input must be a
    /// certain relation; the optimizer only rewrites it into plans that
    /// stay provably certain.
    RepairKey {
        /// Key columns.
        key: Vec<String>,
        /// Numeric column weighting the alternatives of a key group
        /// (uniform when absent).
        weight: Option<String>,
    },
    /// `possible R`.
    Possible,
    /// `certain R`.
    Certain,
    /// `conf R`: exact when `None`, (ε, δ)-approximate otherwise.
    Conf(Option<ApproxConf>),
}

/// Build a `repair-key` plan node. `weight`, when given, names a numeric
/// column whose values weight the alternatives within each key group.
pub fn repair_key(input: Plan, key: &[&str], weight: Option<&str>) -> Plan {
    let op = UOp::RepairKey {
        key: key.iter().map(|k| k.to_string()).collect(),
        weight: weight.map(str::to_string),
    };
    op.over(input)
}

/// Build a `possible` plan node.
pub fn possible(input: Plan) -> Plan {
    UOp::Possible.over(input)
}

/// Build a `certain` plan node.
pub fn certain(input: Plan) -> Plan {
    UOp::Certain.over(input)
}

/// Build an exact `conf` plan node.
pub fn conf(input: Plan) -> Plan {
    UOp::Conf(None).over(input)
}

/// Build an (ε, δ)-approximate `conf` plan node with the default seed and
/// cutover (what `SELECT CONF(eps, delta) …` lowers to).
pub fn conf_approx(input: Plan, eps: f64, delta: f64) -> Plan {
    conf_approx_with(input, ApproxConf::new(eps, delta))
}

/// Build an (ε, δ)-approximate `conf` plan node with explicit seed and
/// cutover control.
pub fn conf_approx_with(input: Plan, approx: ApproxConf) -> Plan {
    UOp::Conf(Some(approx)).over(input)
}

impl UOp {
    /// This operator over `input`.
    pub fn over(self, input: Plan) -> Plan {
        Plan::Uncertain {
            op: self,
            input: Box::new(input),
        }
    }

    /// The operator's name, for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            UOp::RepairKey { .. } => "repair-key",
            UOp::Possible => "possible",
            UOp::Certain => "certain",
            UOp::Conf(_) => "conf",
        }
    }

    /// The plan-tree line of this node, parameters included — what
    /// `EXPLAIN` prints and what trace spans are labelled with.
    pub fn label(&self) -> String {
        match self {
            UOp::RepairKey {
                key,
                weight: Some(w),
            } => format!("repair-key[key={}; weight={w}]", key.join(", ")),
            UOp::RepairKey { key, weight: None } => format!("repair-key[key={}]", key.join(", ")),
            UOp::Conf(Some(a)) => format!("conf(eps={}, delta={})", a.eps, a.delta),
            _ => self.name().to_string(),
        }
    }

    /// The output schema over an input of schema `input`. `repair-key`'s
    /// key and weight columns must exist; `conf` appends its column, which
    /// must not exist yet.
    pub fn output_schema(&self, input: &Schema) -> Result<Schema, MayError> {
        match self {
            UOp::RepairKey { key, weight } => {
                for k in key.iter().chain(weight) {
                    input.col_index(k)?;
                }
                Ok(input.clone())
            }
            UOp::Possible | UOp::Certain => Ok(input.clone()),
            UOp::Conf(_) => confidence::with_conf_column(input),
        }
    }

    /// Whether every output row carries the trivial descriptor: the three
    /// world-collapsing operators produce certain relations, `repair-key`
    /// an uncertain one. (All four emit duplicate-free rows.)
    pub fn certain_output(&self) -> bool {
        !matches!(self, UOp::RepairKey { .. })
    }

    /// Estimated output rows, given the input's estimated rows and distinct
    /// tuples. `repair-key` is row-preserving (its input is already
    /// duplicate-free); `possible` and `conf` emit one row per distinct
    /// tuple, and `certain` is priced at the same bound: a tuple is certain
    /// when its descriptors together cover every world, which non-trivial
    /// descriptors do as often as not (each key of a repair, for one).
    pub fn estimate_rows(&self, input_rows: f64, input_distinct: f64) -> f64 {
        match self {
            UOp::RepairKey { .. } => input_rows,
            UOp::Possible | UOp::Certain | UOp::Conf(_) => input_distinct,
        }
    }

    /// Evaluate over the already-evaluated input. Descriptors and string
    /// cells of `input` and of the result resolve against `ctx.pool` and
    /// `ctx.strings`; handles minted by joins are not canonical, so content
    /// comparisons go through `pool.same_descriptor` / term access. The
    /// result's row order is deterministic for equal inputs, because
    /// component minting follows it.
    ///
    /// `conf` and `certain` are one stage (`confidence::kernel_stage`),
    /// which fans out over `maybms_core::parallel::run_tasks` when
    /// [`ParCfg::workers_for`](maybms_core::ParCfg::workers_for) allows; its
    /// tasks are pure functions of frozen inputs (they *read* the pools),
    /// results combine in task order, and only the calling thread mints —
    /// so the output is byte-identical for every thread count.
    pub(crate) fn eval(
        &self,
        ctx: &mut EvalCtx<'_>,
        input: ColumnarURelation,
    ) -> Result<ColumnarURelation, MayError> {
        match self {
            UOp::RepairKey { key, weight } => {
                repair::repair_key(ctx, &input, key, weight.as_deref())
            }
            UOp::Possible => Ok(possible_tuples(ctx, &input)),
            UOp::Certain | UOp::Conf(_) => {
                confidence::kernel_stage(ctx, self, &input, EXACT_STEP_CEILING)
            }
        }
    }
}

/// The row ids of `r` in [`canonical_order`] over `cols` — `r`'s columns,
/// in schema order or another — and each tuple's run in them, timed as the
/// operator's `canonical-sort` phase (`perfbench`'s ledger keys on that
/// label). The order is total on content, so no output depends on how the
/// input rows were arranged — and `conf` feeds each tuple's descriptors to
/// the solver in a pinned order (floating point is not associative).
pub(crate) fn tuple_runs<C: Borrow<ColumnVec>>(
    cols: &[C],
    r: &ColumnarURelation,
    ctx: &mut EvalCtx<'_>,
) -> (Vec<u32>, Vec<(u32, u32)>) {
    ctx.phase("canonical-sort", |ctx, items| {
        *items = r.len() as u64;
        canonical_order(
            cols,
            r.descs(),
            &ctx.pool,
            &ctx.strings,
            &mut ctx.stats.sort,
        )
    })
}

/// `possible r`: the tuples of `r` that occur in at least one world, as a
/// certain relation. Descriptors are consistent by construction (conjoin
/// rejects contradictions), so every annotated tuple is possible: the result
/// is the distinct tuples in canonical order, all certain — a sort of row
/// ids plus a column-wise gather of each run's first row, no per-row tuples
/// and no kernel.
fn possible_tuples(ctx: &mut EvalCtx<'_>, r: &ColumnarURelation) -> ColumnarURelation {
    let (perm, runs) = tuple_runs(r.columns(), r, ctx);
    ctx.phase("dedup-gather", |_, items| {
        let firsts: Vec<u32> = runs
            .iter()
            .map(|&(start, _)| perm[start as usize])
            .collect();
        *items = firsts.len() as u64;
        let descs = vec![DescId::TAUTOLOGY; firsts.len()];
        r.gather_with_descs(&firsts, descs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, run_with, ExecCfg};
    use maybms_core::{
        Component, ComponentId, SortStats, Tuple, URelation, Value, ValueType, WorldSet,
        WsDescriptor,
    };

    /// The canonical-sort counters of one run of `plan` over a copy of `ws`.
    fn sort_stats(ws: &WorldSet, plan: &Plan) -> SortStats {
        let (_, _, stats, _) =
            run_with(&mut ws.clone(), plan, &ExecCfg::default(), false).expect("the plan runs");
        stats.sort
    }

    /// A repair's output holds one-term descriptors (⊤ for a key of one
    /// row), and so does its join with a certain relation, whose `CONF`
    /// sorts long runs of them, each with a ⊤ in it: ordering any of them
    /// compares no term lists. Descriptors that share a first term and run
    /// past it are compared.
    #[test]
    fn one_term_descriptors_sort_without_comparisons() {
        let int = |x: i64| Value::Int(x);
        let schema = |cols: &[&str]| {
            let typed: Vec<(&str, ValueType)> = cols.iter().map(|&c| (c, ValueType::Int)).collect();
            Schema::of(&typed).expect("distinct columns")
        };
        let mut ws = WorldSet::new();
        let mut form = URelation::new(schema(&["k", "v", "w"]));
        let mut homes = URelation::new(schema(&["v", "city"]));
        for k in 0..300 {
            for i in 0..k % 4 + 1 {
                let row = Tuple::new(vec![int(k), int((k * 7 + i * 13) % 97), int(1 + i)]);
                form.push(row, WsDescriptor::tautology()).expect("schema");
            }
        }
        for v in 0..97 {
            let row = Tuple::new(vec![int(v), int(v % 3)]);
            homes.push(row, WsDescriptor::tautology()).expect("schema");
        }
        ws.insert("form", form).expect("certain");
        ws.insert("homes", homes).expect("certain");
        let repair = repair_key(Plan::scan("form"), &["k"], Some("w"));
        let census = run(&mut ws, &repair).expect("repair runs");
        ws.insert("census", census).expect("repair answer");
        let scan = || Plan::scan("census");
        for plan in [
            repair,
            possible(scan().project(["v"])),
            certain(scan().project(["k"])),
            conf(scan().project(["k", "v"])),
            conf(scan().join(Plan::scan("homes")).project(["city"])),
        ] {
            let stats = sort_stats(&ws, &plan);
            assert_eq!(stats.tie_cmps, 0, "{plan}");
        }
        let joined = conf(scan().join(Plan::scan("homes")).project(["city"]));
        assert!(sort_stats(&ws, &joined).radix_passes > 0);

        let c: Vec<ComponentId> = (0..3)
            .map(|_| {
                ws.components
                    .add(Component::uniform(2).expect("two alternatives"))
            })
            .collect();
        // One tuple whose two-term descriptor shares no first term, one
        // whose two-term descriptors share theirs.
        let groups = [
            (
                "apart",
                [vec![(c[0], 0)], vec![(c[1], 0), (c[2], 1)], vec![(c[0], 0)]],
            ),
            (
                "shared",
                [
                    vec![(c[0], 0), (c[2], 1)],
                    vec![(c[0], 0)],
                    vec![(c[0], 0), (c[1], 0)],
                ],
            ),
        ];
        for (name, descs) in groups {
            let mut rel = URelation::new(schema(&["a"]));
            for terms in descs {
                let d = WsDescriptor::from_terms(terms).expect("consistent");
                rel.push(Tuple::new(vec![int(1)]), d).expect("schema");
            }
            ws.insert(name, rel)
                .expect("descriptors over known components");
        }
        assert_eq!(sort_stats(&ws, &possible(Plan::scan("apart"))).tie_cmps, 0);
        assert!(sort_stats(&ws, &possible(Plan::scan("shared"))).tie_cmps > 0);
    }
}
