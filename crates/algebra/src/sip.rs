//! Sideways information passing (SIP): Bloom-filter semi-join pruning.
//!
//! When a natural join's build (right) side is small, the executor builds a
//! [`BlockedBloom`] over the build side's join-key cells and pushes it down
//! into the probe (left) subtree as a *pre-filter*: probe rows whose key
//! cells cannot match any build row are pruned before they flow up through
//! the probe pipeline at all. The filter is under-approximating — false
//! positives only keep rows the join itself would drop — so results are
//! byte-identical with SIP on or off.
//!
//! This module holds the plan-level machinery shared by the executor and
//! `EXPLAIN`:
//!
//! * `plan_mints` — the *mint guard*. SIP evaluates the build side before
//!   the probe side; component minting order is the only observable effect
//!   of evaluation order, so the swap is allowed unless **both** sides mint.
//! * `sip_target` — where in the probe subtree the filter applies. The
//!   descent pushes through `select` (row filter commutes), `project`
//!   (set-semantics dedup classes agree on key cells, so pruning is
//!   class-closed), `rename` (key names remapped), and into whichever join
//!   child carries all key columns; it stops at scans, unions, and
//!   uncertainty operators and applies to that node's output.
//! * [`sip_decisions`] — the plan-time rendering for `EXPLAIN`, driven by
//!   the cost model's cardinality estimates, which `EXPLAIN` computes and
//!   passes in (the runtime gate uses the *actual* build-side row count,
//!   which is strictly better information).

use maybms_core::bloom::BlockedBloom;
use maybms_core::Schema;

use crate::optimize::SchemaProvider;
use crate::plan::Plan;

/// Largest build-side row count a SIP filter is built over. Beyond this the
/// filter itself starts costing real memory/build time while the join it
/// guards is big anyway — the classic semi-join-reduction cutoff shape.
pub(crate) const SIP_MAX_BUILD: usize = 65_536;

/// Probe bits per key (at ~16 bits/key this puts the false-positive rate
/// around 1–2%, cheap enough that pruning wins whenever selectivity does).
pub(crate) const SIP_K: u32 = 3;

/// A Bloom filter registered against one probe-subtree node: the filter
/// plus the key column indices (into that node's output schema, in build
/// hash order).
pub(crate) struct SipFilter {
    /// The filter, over FxHash'd key-cell tuples of the build side.
    pub bloom: BlockedBloom,
    /// Key columns of the target node's output schema, in the exact order
    /// the build side hashed them.
    pub key_cols: Vec<usize>,
}

/// Per-run SIP counters, surfaced through
/// [`ExecStats`](crate::eval::ExecStats) and `EXPLAIN ANALYZE`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SipStats {
    /// Bloom filters built and registered.
    pub filters_built: u64,
    /// Probe rows tested against a filter.
    pub probe_rows_tested: u64,
    /// Probe rows pruned (definitively absent from the build side).
    pub probe_rows_pruned: u64,
}

/// Whether evaluating `plan` may mint new components into the world set.
/// Minting order is the only order-observable effect of evaluation, so this
/// is the executor's guard for evaluating a join's build side first.
pub(crate) fn plan_mints(plan: &Plan) -> bool {
    match plan {
        Plan::Scan(_) => false,
        Plan::Select { input, .. } | Plan::Project { input, .. } | Plan::Rename { input, .. } => {
            plan_mints(input)
        }
        Plan::NaturalJoin { left, right } | Plan::Union { left, right } => {
            plan_mints(left) || plan_mints(right)
        }
        Plan::Uncertain { op, input } => op.mints_components() || plan_mints(input),
    }
}

/// The join-key column names shared by two schemas, in left-schema column
/// order — the order both the filter build and every probe hash use.
pub(crate) fn shared_key_names(left: &Schema, right: &Schema) -> Vec<String> {
    left.columns()
        .iter()
        .filter(|c| right.col_index(&c.name).is_ok())
        .map(|c| c.name.clone())
        .collect()
}

/// Descend the probe subtree to the node a SIP filter over `keys` applies
/// to, remapping key names across renames. Returns the target node and the
/// key names *in that node's schema*, preserving order. `None` aborts SIP
/// for this join (schema inference failed mid-descent).
pub(crate) fn sip_target<'p>(
    plan: &'p Plan,
    keys: Vec<String>,
    schemas: &dyn SchemaProvider,
) -> Option<(&'p Plan, Vec<String>)> {
    match plan {
        // A select only drops rows; pruning more rows first commutes.
        Plan::Select { input, .. } => sip_target(input, keys, schemas),
        // A project keeps the key columns (they are in its output) and its
        // set-semantics dedup is class-closed under key-determined pruning:
        // duplicate rows agree on every cell, hence on the keys.
        Plan::Project { input, .. } => sip_target(input, keys, schemas),
        Plan::Rename { input, renames } => {
            let keys = keys
                .into_iter()
                .map(|k| {
                    renames
                        .iter()
                        .find(|(_, new)| *new == k)
                        .map(|(old, _)| old.clone())
                        .unwrap_or(k)
                })
                .collect();
            sip_target(input, keys, schemas)
        }
        // Push into whichever child carries every key column: a join output
        // row inherits its key cells from that child's matched row, so
        // pruning the child prunes exactly the doomed output rows.
        Plan::NaturalJoin { left, right } => {
            let contains_all = |p: &Plan| match p.schema_with(schemas) {
                Ok(s) => Some(keys.iter().all(|k| s.col_index(k).is_ok())),
                Err(_) => None,
            };
            match (contains_all(left), contains_all(right)) {
                (Some(true), _) => sip_target(left, keys, schemas),
                (Some(_), Some(true)) => sip_target(right, keys, schemas),
                (Some(false), Some(false)) => Some((plan, keys)),
                // Schema inference failed — don't risk a misplaced filter.
                _ => None,
            }
        }
        // Barriers: apply the filter to this node's output.
        Plan::Scan(_) | Plan::Union { .. } | Plan::Uncertain { .. } => Some((plan, keys)),
    }
}

/// The plan-time SIP decisions for `EXPLAIN`: one string per plan node in
/// pre-order (the printed line order), empty for nodes without a decision.
/// `ests` are the nodes' estimated output rows in the same order
/// ([`crate::estimate_preorder`]). A natural-join line gets
/// `sip=bloom(col, …)` when its build side is estimated at or below the
/// build cutoff, the sides share key columns, and the mint guard allows
/// build-first evaluation.
pub fn sip_decisions(plan: &Plan, ests: &[f64], schemas: &dyn SchemaProvider) -> Vec<String> {
    let mut out = vec![String::new(); plan.node_count()];
    annotate(plan, 0, ests, schemas, &mut out);
    out
}

/// The order plan nodes are *executed* in, as plan pre-order indices: under
/// SIP the executor evaluates a join's build (right) side before its probe
/// side whenever the mint guard allows, so a traced run's node spans appear
/// in this order rather than plan pre-order. `out[i]` is the plan pre-order
/// index of the `i`-th executed node — consumers (e.g. `EXPLAIN ANALYZE`)
/// use it to align execution spans with pre-order plan annotations.
pub fn exec_order(plan: &Plan, sip: bool) -> Vec<usize> {
    fn walk(plan: &Plan, pre: usize, sip: bool, out: &mut Vec<usize>) -> usize {
        out.push(pre);
        if let Plan::NaturalJoin { left, right } = plan {
            let left_count = left.node_count();
            let right_count = right.node_count();
            let swap = sip && !(plan_mints(left) && plan_mints(right));
            if swap {
                walk(right, pre + 1 + left_count, sip, out);
                walk(left, pre + 1, sip, out);
            } else {
                walk(left, pre + 1, sip, out);
                walk(right, pre + 1 + left_count, sip, out);
            }
            return 1 + left_count + right_count;
        }
        let mut count = 1;
        for child in plan.children() {
            count += walk(child, pre + count, sip, out);
        }
        count
    }
    let mut out = Vec::with_capacity(plan.node_count());
    walk(plan, 0, sip, &mut out);
    out
}

/// Recursive worker for [`sip_decisions`]: annotates the subtree rooted at
/// pre-order index `my` and returns the subtree's node count.
fn annotate(
    plan: &Plan,
    my: usize,
    ests: &[f64],
    schemas: &dyn SchemaProvider,
    out: &mut [String],
) -> usize {
    if let Plan::NaturalJoin { left, right } = plan {
        let left_count = annotate(left, my + 1, ests, schemas, out);
        let right_idx = my + 1 + left_count;
        let right_count = annotate(right, right_idx, ests, schemas, out);
        let small_build = ests
            .get(right_idx)
            .is_some_and(|&e| e <= SIP_MAX_BUILD as f64);
        if small_build && !(plan_mints(left) && plan_mints(right)) {
            if let (Ok(ls), Ok(rs)) = (left.schema_with(schemas), right.schema_with(schemas)) {
                let keys = shared_key_names(&ls, &rs);
                if !keys.is_empty() && sip_target(left, keys.clone(), schemas).is_some() {
                    out[my] = format!("sip=bloom({})", keys.join(", "));
                }
            }
        }
        return 1 + left_count + right_count;
    }
    let mut count = 1;
    for child in plan.children() {
        count += annotate(child, my + count, ests, schemas, out);
    }
    count
}
