//! `possible` and `certain`: extracting answers from the world set.

use std::sync::Arc;

use maybms_algebra::{EvalCtx, ExtOperator, ExtProps, Plan};
use maybms_core::columnar::ColumnarURelation;
use maybms_core::dnf::{DnfKernel, EXACT_STEP_CEILING};
use maybms_core::parallel::{chunk_ranges, run_tasks};
use maybms_core::{DescId, MayError, Schema};

use crate::tuple_runs;

/// The plan properties shared by `possible` and `certain`: both emit
/// distinct certain rows.
const EXTRACT_PROPS: ExtProps = ExtProps {
    requires_normalized_input: false,
    distinct_output: true,
    certain_output: true,
};

/// The `possible R` operator: the tuples of `R` that occur in at least one
/// world. The result is a certain relation.
#[derive(Debug)]
pub struct Possible {
    input: Plan,
}

/// Build a `possible` plan node.
pub fn possible(input: Plan) -> Plan {
    Plan::Ext(Arc::new(Possible { input }))
}

impl ExtOperator for Possible {
    fn name(&self) -> &'static str {
        "possible"
    }

    fn unparse_mayql(&self, inputs: &[String]) -> Option<String> {
        Some(format!("SELECT POSSIBLE * FROM {}", inputs[0]))
    }

    fn mints_components(&self) -> bool {
        false // pure: reads descriptors, never creates components
    }

    fn props(&self) -> ExtProps {
        EXTRACT_PROPS
    }

    fn with_inputs(&self, mut inputs: Vec<Plan>) -> Option<Plan> {
        Some(possible(inputs.remove(0)))
    }

    fn inputs(&self) -> Vec<&Plan> {
        vec![&self.input]
    }

    fn output_schema(&self, inputs: &[Schema]) -> Result<Schema, MayError> {
        Ok(inputs[0].clone())
    }

    fn eval(
        &self,
        ctx: &mut EvalCtx<'_>,
        inputs: Vec<ColumnarURelation>,
    ) -> Result<ColumnarURelation, MayError> {
        let r = &inputs[0];
        // Descriptors are consistent by construction (conjoin rejects
        // contradictions), so every annotated tuple is possible: the result
        // is the distinct tuples in canonical order, all certain. A sort of
        // row ids plus a column-wise gather of each run's first row — no
        // per-row tuples.
        let (perm, runs) = tuple_runs(r, ctx);
        let started = ctx.tracer.now();
        let firsts: Vec<u32> = runs
            .iter()
            .map(|&(start, _)| perm[start as usize])
            .collect();
        let descs = vec![DescId::TAUTOLOGY; firsts.len()];
        let out = r.gather_with_descs(&firsts, descs);
        ctx.tracer
            .event("dedup-gather", started, firsts.len() as u64);
        Ok(out)
    }
}

/// The `certain R` operator: the tuples of `R` that occur in *every* world.
/// The result is a certain relation.
#[derive(Debug)]
pub struct Certain {
    input: Plan,
}

/// Build a `certain` plan node.
pub fn certain(input: Plan) -> Plan {
    Plan::Ext(Arc::new(Certain { input }))
}

impl ExtOperator for Certain {
    fn name(&self) -> &'static str {
        "certain"
    }

    fn unparse_mayql(&self, inputs: &[String]) -> Option<String> {
        Some(format!("SELECT CERTAIN * FROM {}", inputs[0]))
    }

    fn mints_components(&self) -> bool {
        false // pure: consults component coverage, never creates components
    }

    fn props(&self) -> ExtProps {
        EXTRACT_PROPS
    }

    fn estimate_rows(&self, _input_rows: f64, input_distinct: f64, nontrivial_frac: f64) -> f64 {
        // Only tuples whose descriptors cover every world survive. The
        // certain slice of the input is the natural proxy: distinct tuples
        // scaled by the fraction of trivially-described rows.
        (input_distinct * (1.0 - nontrivial_frac.clamp(0.0, 1.0))).max(1.0)
    }

    fn with_inputs(&self, mut inputs: Vec<Plan>) -> Option<Plan> {
        Some(certain(inputs.remove(0)))
    }

    fn inputs(&self) -> Vec<&Plan> {
        vec![&self.input]
    }

    fn output_schema(&self, inputs: &[Schema]) -> Result<Schema, MayError> {
        Ok(inputs[0].clone())
    }

    fn eval(
        &self,
        ctx: &mut EvalCtx<'_>,
        inputs: Vec<ColumnarURelation>,
    ) -> Result<ColumnarURelation, MayError> {
        let r = &inputs[0];
        let (perm, bounds) = tuple_runs(r, ctx);
        let check_started = ctx.tracer.now();
        // A tuple is certain iff the disjunction of its descriptors covers
        // all worlds: some connected descriptor group must cover every
        // assignment of its own components, which the solver kernel decides
        // by the same elimination walk `conf` uses, stopping at the first
        // uncovered assignment. Each run's term lists go to it straight
        // from the pool. Runs are independent, so the coverage checks
        // parallelize over morsels of runs; concatenating in task order
        // keeps the output order (and the first error) sequential.
        let workers = ctx.par.workers_for(perm.len());
        let pool = &ctx.pool;
        let components = &*ctx.components;
        let check_runs = |range: std::ops::Range<usize>| {
            let mut kept: Vec<u32> = Vec::new();
            let mut kernel = DnfKernel::new();
            for &(start, end) in &bounds[range] {
                let run = &perm[start as usize..end as usize];
                let terms = run.iter().map(|&i| pool.terms(r.descs()[i as usize]));
                if kernel.covers_all(components, terms, EXACT_STEP_CEILING)? {
                    kept.push(run[0]);
                }
            }
            Ok(kept)
        };
        let kept: Vec<u32> = if workers <= 1 {
            check_runs(0..bounds.len())?
        } else {
            let morsels = chunk_ranges(bounds.len(), workers * 4);
            ctx.par_stats.note_stage(workers, morsels.len());
            run_tasks(workers, morsels.len(), |t| check_runs(morsels[t].clone()))
                .into_iter()
                .collect::<Result<Vec<_>, MayError>>()?
                .concat()
        };
        ctx.tracer
            .event("coverage-check", check_started, bounds.len() as u64);
        let descs = vec![DescId::TAUTOLOGY; kept.len()];
        Ok(r.gather_with_descs(&kept, descs))
    }
}
