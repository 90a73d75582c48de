//! # maybms-ql — the uncertainty query constructs
//!
//! The paper's query-language constructs for incomplete information,
//! implemented as [`maybms_algebra::ExtOperator`] plan operators:
//!
//! * [`repair_key`] — *introduces* uncertainty: all maximal repairs of a key
//!   constraint become alternative worlds, optionally weighted by a column
//!   (`repair key A in R weight by w`). Each key group becomes one fresh
//!   independent component.
//! * [`possible`] — tuples occurring in *at least one* world (a certain
//!   relation).
//! * [`certain`] — tuples occurring in *every* world, decided exactly by
//!   enumerating only the components a tuple's descriptors mention.
//! * [`conf`] — exact tuple confidence: the probability of the disjunction
//!   of the tuple's descriptors, appended as a `conf` float column. Exact
//!   confidence computation is #P-hard in general; this implementation is
//!   exponential only in the largest connected descriptor group of each
//!   tuple and is the ground truth the sampling solver is measured against.
//! * [`conf_approx`] — (ε, δ)-approximate tuple confidence
//!   (`SELECT CONF(eps, delta) …`): connected groups whose exact cost bound
//!   is under the node's cutover threshold ([`ApproxConf::exact_limit`],
//!   default [`DEFAULT_CONF_EXACT_LIMIT`]) keep the exact factorized
//!   path; larger groups are estimated by deterministic, content-keyed
//!   Monte Carlo or Karp–Luby sampling with Hoeffding-derived draw counts.
//!
//! All five compose freely with the positive relational algebra of
//! `maybms-algebra`: they are ordinary plan nodes. Each is that plan plus
//! one grouping step — bringing the rows of each distinct tuple together —
//! and the step is core's [`canonical_order`], the same sort `normalize`
//! runs, so the operators keep no row order of their own.

mod confidence;
mod extract;
mod repair;

use maybms_algebra::EvalCtx;
use maybms_core::columnar::{canonical_order, ColumnarURelation};

pub use confidence::{
    conf, conf_approx, conf_approx_with, ApproxConf, Conf, CONF_COLUMN, DEFAULT_CONF_EXACT_LIMIT,
    DEFAULT_CONF_SEED,
};
pub use extract::{certain, possible, Certain, Possible};
pub use repair::{repair_key, RepairKey};

/// The row ids of `r` in canonical `(tuple, descriptor)` order and each
/// tuple's run in them, timed as the operator's `canonical-sort` phase
/// (`perfbench`'s ledger keys on that label). The order is total on
/// content, so no output depends on how the input rows were arranged — and
/// `conf` feeds each tuple's descriptors to the solver in a pinned order
/// (floating point is not associative).
fn tuple_runs(r: &ColumnarURelation, ctx: &mut EvalCtx<'_>) -> (Vec<u32>, Vec<(u32, u32)>) {
    let started = ctx.tracer.now();
    let order = canonical_order(r.columns(), r.descs(), &ctx.pool, &ctx.strings);
    ctx.tracer.event("canonical-sort", started, r.len() as u64);
    order
}
