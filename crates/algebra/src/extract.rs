//! `possible` and `certain`: extracting answers from the world set.

use maybms_core::columnar::ColumnarURelation;
use maybms_core::dnf::{DnfKernel, EXACT_STEP_CEILING};
use maybms_core::parallel::run_tasks;
use maybms_core::{DescId, MayError};

use crate::eval::EvalCtx;
use crate::uncertain::tuple_runs;

/// `possible r`: the tuples of `r` that occur in at least one world, as a
/// certain relation.
pub(crate) fn possible(ctx: &mut EvalCtx<'_>, r: &ColumnarURelation) -> ColumnarURelation {
    // Descriptors are consistent by construction (conjoin rejects
    // contradictions), so every annotated tuple is possible: the result
    // is the distinct tuples in canonical order, all certain. A sort of
    // row ids plus a column-wise gather of each run's first row — no
    // per-row tuples.
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

/// `certain r`: the tuples of `r` that occur in *every* world, as a certain
/// relation.
pub(crate) fn certain(
    ctx: &mut EvalCtx<'_>,
    r: &ColumnarURelation,
) -> Result<ColumnarURelation, MayError> {
    let (perm, bounds) = tuple_runs(r.columns(), r, ctx);
    // A tuple is certain iff the disjunction of its descriptors covers
    // all worlds: some connected descriptor group must cover every
    // assignment of its own components, which the solver kernel decides
    // by the same elimination walk `conf` uses, stopping at the first
    // uncovered assignment. Each run's term lists go to it straight
    // from the pool. Runs are independent, so the coverage checks
    // parallelize over morsels of runs; concatenating in task order
    // keeps the output order (and the first error) sequential.
    let kept = ctx
        .phase("coverage-check", |ctx, items| {
            *items = bounds.len() as u64;
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
            run_tasks(&mut ctx.par_stats, workers, bounds.len(), check_runs)
                .into_iter()
                .collect::<Result<Vec<_>, MayError>>()
        })?
        .concat();
    let descs = vec![DescId::TAUTOLOGY; kept.len()];
    Ok(r.gather_with_descs(&kept, descs))
}
