//! `repair-key`: turn key violations into alternative worlds.
//!
//! This is where incomplete data enters the engine, and it pays only for
//! what is new. Each alternative's descriptor names a component minted by
//! this run, so no descriptor already in the run's pool can equal it: it is
//! sealed without an intern lookup
//! ([`maybms_core::DescriptorPool::fresh_single`]) and the run counts no
//! intern call for it. The answer is the input's distinct tuples, grouped
//! by key; when the key columns lead the schema that is canonical order, so
//! the stored result is already in normal form and `normalize` keeps it as
//! it is.

use std::sync::Arc;

use maybms_algebra::{EvalCtx, ExtOperator, ExtProps, Plan};
use maybms_core::columnar::ColumnarURelation;
use maybms_core::{Component, DescId, MayError, Schema};

use crate::tuple_runs;

/// The `repair key A₁..Aₖ in R [weight by W]` operator.
///
/// The input must be a *certain* relation. Its tuples are grouped by the key
/// columns; every way of picking exactly one tuple per group is one maximal
/// repair of the key constraint, and the operator makes each repair a
/// possible world. Each group with more than one tuple becomes a fresh
/// independent component whose alternatives are the group members, with
/// probabilities proportional to the weight column (uniform when absent).
///
/// Grouping and alternative numbering are deterministic (tuples are sorted),
/// so equal inputs always produce identical decompositions.
#[derive(Debug)]
pub struct RepairKey {
    input: Plan,
    key: Vec<String>,
    weight: Option<String>,
}

/// Build a `repair-key` plan node. `weight`, when given, names a numeric
/// column whose values weight the alternatives within each key group.
pub fn repair_key(input: Plan, key: &[&str], weight: Option<&str>) -> Plan {
    Plan::Ext(Arc::new(RepairKey {
        input,
        key: key.iter().map(|k| k.to_string()).collect(),
        weight: weight.map(|w| w.to_string()),
    }))
}

impl ExtOperator for RepairKey {
    fn name(&self) -> &'static str {
        "repair-key"
    }

    fn describe(&self) -> String {
        match &self.weight {
            Some(w) => format!("repair-key[key={}; weight={w}]", self.key.join(", ")),
            None => format!("repair-key[key={}]", self.key.join(", ")),
        }
    }

    fn props(&self) -> ExtProps {
        ExtProps {
            // Only the input is optimized, and only by rewrites that keep
            // it provably certain.
            requires_normalized_input: true,
            distinct_output: true,
            certain_output: false,
        }
    }

    fn estimate_rows(&self, input_rows: f64, _input_distinct: f64, _nontrivial_frac: f64) -> f64 {
        // Row-preserving: every input tuple survives as one alternative of
        // its key group (the normalized input is already duplicate-free).
        input_rows
    }

    fn with_inputs(&self, mut inputs: Vec<Plan>) -> Plan {
        let key: Vec<&str> = self.key.iter().map(String::as_str).collect();
        repair_key(inputs.remove(0), &key, self.weight.as_deref())
    }

    fn inputs(&self) -> Vec<&Plan> {
        vec![&self.input]
    }

    fn output_schema(&self, inputs: &[Schema]) -> Result<Schema, MayError> {
        let schema = &inputs[0];
        for k in &self.key {
            schema.col_index(k)?;
        }
        if let Some(w) = &self.weight {
            schema.col_index(w)?;
        }
        Ok(schema.clone())
    }

    fn eval(
        &self,
        ctx: &mut EvalCtx<'_>,
        inputs: Vec<ColumnarURelation>,
    ) -> Result<ColumnarURelation, MayError> {
        let r = &inputs[0];
        if !r.is_certain() {
            return Err(MayError::NotCertain(
                "repair-key expects a certain relation; apply possible/certain first".into(),
            ));
        }
        let key_idx: Vec<usize> = self
            .key
            .iter()
            .map(|k| r.schema().col_index(k))
            .collect::<Result<_, _>>()?;
        let weight_idx = self
            .weight
            .as_ref()
            .map(|w| r.schema().col_index(w))
            .transpose()?;

        // Deterministic grouping on row ids: distinct tuples in canonical
        // order, then a *stable* re-sort by the key columns — groups appear
        // in ascending key order, and within a group the members keep their
        // ascending full-tuple order, so alternative numbering is identical
        // across runs over equal inputs; components are minted in group
        // order, so the minted `ComponentId`s are too.
        let (sorted, runs) = tuple_runs(r, ctx);
        let mut perm: Vec<u32> = runs
            .iter()
            .map(|&(start, _)| sorted[start as usize])
            .collect();
        let key_sort_started = ctx.tracer.now();
        let strings = &ctx.strings;
        let by_key = |&i: &u32, &j: &u32| {
            key_idx
                .iter()
                .map(|&k| {
                    r.column(k)
                        .cmp_cells(i as usize, r.column(k), j as usize, strings)
                })
                .find(|o| *o != std::cmp::Ordering::Equal)
                .unwrap_or(std::cmp::Ordering::Equal)
        };
        perm.sort_by(by_key);
        ctx.tracer
            .event("key-sort", key_sort_started, perm.len() as u64);
        let key_eq = |i: u32, j: u32| {
            key_idx
                .iter()
                .all(|&k| r.column(k).eq_cells(i as usize, r.column(k), j as usize))
        };

        let mint_started = ctx.tracer.now();
        let mut groups_minted = 0u64;
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
            groups_minted += 1;
            // Minted a moment ago: no lookup (see the module docs).
            for alt in 0..group.len() {
                descs.push(ctx.pool.fresh_single(cid, alt as u16));
            }
            start = end;
        }
        ctx.tracer
            .event("mint-components", mint_started, groups_minted);
        // Output tuples are exactly the distinct input rows, gathered
        // column-wise in group order.
        Ok(r.gather_with_descs(&perm, descs))
    }
}
