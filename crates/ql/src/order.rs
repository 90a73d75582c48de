//! Canonical row ordering shared by the columnar ql operators.
//!
//! `possible`, `certain`, `conf`, and `repair-key` all start the same way:
//! sort a row-id permutation into the canonical tuple order (the order the
//! row-oriented `grouped()` used to iterate in) so each distinct tuple's
//! rows form one contiguous run. Keeping the comparator in one place means
//! a change to the canonical order (e.g. a prefix-key fast path) cannot
//! silently desynchronize the operators' output orders.
//!
//! The order is *total on content*: ties on the tuple fall through to the
//! descriptor's term list. Rows that still compare equal are exact
//! `(tuple, descriptor)` duplicates, so every operator's output is
//! independent of how the (unstable) sort arranges them — and the order in
//! which `conf` feeds descriptors into the probability computation is
//! pinned (floating point is not associative; a content-total order keeps
//! the result bit-identical however the runs are later split over workers).

use maybms_algebra::EvalCtx;
use maybms_core::columnar::ColumnarURelation;

/// Row ids of `r` sorted into canonical `(tuple, descriptor)` order. Takes
/// the whole evaluation context: the sort reads the pools and records a
/// `canonical-sort` trace phase under the calling operator's span.
pub(crate) fn sorted_row_ids(r: &ColumnarURelation, ctx: &mut EvalCtx<'_>) -> Vec<u32> {
    let started = ctx.tracer.now();
    let mut perm: Vec<u32> = (0..r.len() as u32).collect();
    let descs = r.descs();
    let pool = &ctx.pool;
    let strings = &ctx.strings;
    let cmp = |&i: &u32, &j: &u32| {
        r.cmp_rows(i as usize, j as usize, strings)
            .then_with(|| pool.cmp_terms(descs[i as usize], descs[j as usize]))
    };
    perm.sort_unstable_by(cmp);
    ctx.tracer
        .event("canonical-sort", started, perm.len() as u64);
    perm
}

/// The end of the run of rows carrying the same tuple as `perm[start]`.
pub(crate) fn run_end(r: &ColumnarURelation, perm: &[u32], start: usize) -> usize {
    let mut end = start + 1;
    while end < perm.len() && r.rows_eq(perm[start] as usize, perm[end] as usize) {
        end += 1;
    }
    end
}

/// The tuple-run boundaries of a canonical permutation, as `(start, end)`
/// index pairs into `perm`. The scan is sequential (it is a single linear
/// pass); operators parallelize over the returned runs, which are
/// independent per distinct tuple.
pub(crate) fn run_bounds(r: &ColumnarURelation, perm: &[u32]) -> Vec<(u32, u32)> {
    let mut bounds = Vec::new();
    let mut start = 0;
    while start < perm.len() {
        let end = run_end(r, perm, start);
        bounds.push((start as u32, end as u32));
        start = end;
    }
    bounds
}
