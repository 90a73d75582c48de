//! The uncertainty operators: the paper's constructs over the positive
//! algebra, as one closed set.
//!
//! * `repair-key` *introduces* uncertainty: all maximal repairs of a key
//!   constraint become alternative worlds, optionally weighted by a column
//!   (`repair key A in R weight by w`). Each key group becomes one fresh
//!   independent component.
//! * `possible` — tuples occurring in *at least one* world (a certain
//!   relation).
//! * `certain` — tuples occurring in *every* world, decided exactly by
//!   enumerating only the components a tuple's descriptors mention.
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
//! key's rows together in the same sort. New constructs become new variants
//! here.

use std::borrow::Borrow;

use maybms_core::columnar::{canonical_order, ColumnVec, ColumnarURelation};
use maybms_core::{MayError, Schema};

use crate::confidence::{self, ApproxConf};
use crate::eval::EvalCtx;
use crate::plan::Plan;
use crate::{extract, repair};

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

    /// Estimated output rows, given the input's estimated rows, distinct
    /// tuples, and fraction of rows with non-trivial descriptors.
    /// `repair-key` is row-preserving (its input is already duplicate-free);
    /// `certain` keeps the certain slice of the distinct tuples; `possible`
    /// and `conf` emit one row per distinct tuple.
    pub fn estimate_rows(&self, input_rows: f64, input_distinct: f64, nontrivial_frac: f64) -> f64 {
        match self {
            UOp::RepairKey { .. } => input_rows,
            UOp::Certain => (input_distinct * (1.0 - nontrivial_frac.clamp(0.0, 1.0))).max(1.0),
            UOp::Possible | UOp::Conf(_) => input_distinct,
        }
    }

    /// Evaluate over the already-evaluated input. Descriptors and string
    /// cells of `input` and of the result resolve against `ctx.pool` and
    /// `ctx.strings`; handles minted by joins are not canonical, so content
    /// comparisons go through `pool.same_descriptor` / term access. The
    /// result's row order is deterministic for equal inputs, because
    /// component minting follows it.
    ///
    /// `conf` and `certain` fan out over `maybms_core::parallel::run_tasks`
    /// when [`ParCfg::workers_for`](maybms_core::ParCfg::workers_for) allows;
    /// their tasks are pure functions of frozen inputs (they *read* the
    /// pools), results combine in task order, and only the calling thread
    /// mints — so the output is byte-identical for every thread count.
    pub(crate) fn eval(
        &self,
        ctx: &mut EvalCtx<'_>,
        input: ColumnarURelation,
    ) -> Result<ColumnarURelation, MayError> {
        match self {
            UOp::RepairKey { key, weight } => {
                repair::repair_key(ctx, &input, key, weight.as_deref())
            }
            UOp::Possible => Ok(extract::possible(ctx, &input)),
            UOp::Certain => extract::certain(ctx, &input),
            UOp::Conf(approx) => confidence::conf(ctx, &input, *approx),
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
        canonical_order(cols, r.descs(), &ctx.pool, &ctx.strings)
    })
}
