//! `repair-key`: turn key violations into alternative worlds.
//!
//! This is where incomplete data enters the engine, and it pays only for
//! what is new. Each alternative's descriptor names a component minted by
//! this run, so no descriptor already in the run's pool can equal it: it is
//! sealed without an intern lookup
//! ([`maybms_core::DescriptorPool::fresh_single`]) and the run counts no
//! intern call for it. The answer is the input's distinct tuples, grouped
//! by key. The grouping is the one sort every uncertainty operator runs,
//! core's `canonical_order`, handed the key columns first and the others in
//! schema order; the operator sorts nothing of its own. When the key
//! columns lead the schema that is canonical order itself, so the stored
//! result is already in normal form and `normalize` keeps it as it is.

use maybms_core::columnar::{ColumnVec, ColumnarURelation};
use maybms_core::{Component, DescId, MayError};

use crate::eval::EvalCtx;
use crate::uncertain::tuple_runs;

/// `repair key <key> in r [weight by <weight>]`.
///
/// `r` must be a *certain* relation. Its tuples are grouped by the key
/// columns; every way of picking exactly one tuple per group is one maximal
/// repair of the key constraint, and the operator makes each repair a
/// possible world. Each group with more than one tuple becomes a fresh
/// independent component whose alternatives are the group members, with
/// probabilities proportional to the weight column (uniform when absent).
///
/// Grouping and alternative numbering are deterministic (tuples are sorted
/// by key, then by the other columns), so equal inputs always produce
/// identical decompositions.
pub(crate) fn repair_key(
    ctx: &mut EvalCtx<'_>,
    r: &ColumnarURelation,
    key: &[String],
    weight: Option<&str>,
) -> Result<ColumnarURelation, MayError> {
    if !r.is_certain() {
        return Err(MayError::NotCertain(
            "repair-key expects a certain relation; apply possible/certain first".into(),
        ));
    }
    let key_idx: Vec<usize> = key
        .iter()
        .map(|k| r.schema().col_index(k))
        .collect::<Result<_, _>>()?;
    let weight_idx = weight.map(|w| r.schema().col_index(w)).transpose()?;

    // Deterministic grouping on row ids: the distinct tuples in canonical
    // order over the key columns first, then the others in schema order. So
    // groups appear in ascending key order, and within a group the members
    // in ascending full-tuple order: alternative numbering is identical
    // across runs over equal inputs, and since components are minted in
    // group order, so are the minted `ComponentId`s.
    let others = (0..r.columns().len()).filter(|i| !key_idx.contains(i));
    let cols: Vec<&ColumnVec> = key_idx
        .iter()
        .copied()
        .chain(others)
        .map(|i| r.column(i))
        .collect();
    let (sorted, runs) = tuple_runs(&cols, r, ctx);
    let perm: Vec<u32> = runs
        .iter()
        .map(|&(start, _)| sorted[start as usize])
        .collect();
    let key_eq = |i: u32, j: u32| {
        cols[..key_idx.len()]
            .iter()
            .all(|c| c.eq_cells(i as usize, c, j as usize))
    };

    let descs = ctx.phase("mint-components", |ctx, groups_minted| {
        let mut descs: Vec<DescId> = Vec::with_capacity(perm.len());
        let mut weights: Vec<f64> = Vec::new();
        let mut start = 0;
        while start < perm.len() {
            let mut end = start + 1;
            while end < perm.len() && key_eq(perm[start], perm[end]) {
                end += 1;
            }
            let group = &perm[start..end];
            if group.len() == 1 {
                // A unique key value needs no repair: the tuple is certain.
                descs.push(DescId::TAUTOLOGY);
                start = end;
                continue;
            }
            weights.clear();
            match weight_idx {
                None => weights.resize(group.len(), 1.0),
                Some(wi) => {
                    for &row in group {
                        let w = r.column(wi).cell_f64(row as usize).ok_or_else(|| {
                            MayError::InvalidWeight(format!(
                                "non-numeric weight {} in tuple {}",
                                r.column(wi).value(row as usize, &ctx.strings),
                                r.tuple_at(row as usize, &ctx.strings)
                            ))
                        })?;
                        weights.push(w);
                    }
                }
            }
            // Propagate as-is: InvalidComponent already distinguishes bad
            // weights from e.g. a key group exceeding the alternative limit.
            let component = Component::from_weights(&weights)?;
            let cid = ctx.components.add(component);
            *groups_minted += 1;
            // Minted a moment ago: no lookup (see the module docs).
            for alt in 0..group.len() {
                descs.push(ctx.pool.fresh_single(cid, alt as u16));
            }
            start = end;
        }
        Ok::<_, MayError>(descs)
    })?;
    // Output tuples are exactly the distinct input rows, gathered
    // column-wise in group order.
    Ok(r.gather_with_descs(&perm, descs))
}
