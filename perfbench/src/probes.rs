//! Direct micro-probes of the primitives the traces blame, on the workload's
//! own data: row ↔ column conversion, descriptor interning and conjunction,
//! string interning, one `prob_of_dnf` group, and a whole-world normalize.
//! Each is the median of a few repetitions over at most [`SAMPLE`] items.

use std::hint::black_box;
use std::time::Instant;

use crate::engine::{
    ColumnarURelation, DescId, DescriptorPool, ParCfg, StrPool, URelation, Value, WorldSet,
    WsDescriptor,
};
use crate::run::median;

/// Items a probe touches at most.
const SAMPLE: usize = 20_000;
/// Repetitions per probe.
const REPS: usize = 5;

/// Nanoseconds `f` takes.
fn timed(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_nanos() as f64
}

/// Median over [`REPS`] calls of the nanoseconds each reports (so a call can
/// keep its own set-up out of the measurement).
fn median_of(f: impl FnMut() -> f64) -> f64 {
    median(&std::iter::repeat_with(f).take(REPS).collect::<Vec<f64>>())
}

fn median_ns(mut f: impl FnMut()) -> f64 {
    median_of(|| timed(&mut f))
}

fn per_item(total_ns: f64, items: usize) -> f64 {
    if items == 0 {
        0.0
    } else {
        total_ns / items as f64
    }
}

/// The first `SAMPLE` rows of `rel`, as a relation of their own.
fn head(rel: &URelation) -> URelation {
    let mut out = URelation::new(rel.schema().clone());
    for (t, d) in rel.rows().iter().take(SAMPLE) {
        out.push_unchecked(t.clone(), d.clone());
    }
    out
}

/// Run every probe; returns `(metric, value, unit)` rows.
pub fn run(ws: &WorldSet) -> Vec<(&'static str, f64, &'static str)> {
    let largest = ws.relations.values().max_by_key(|r| r.len());
    let uncertain = ws
        .relations
        .values()
        .filter(|r| !r.is_certain())
        .max_by_key(|r| r.len());

    let (mut from_rows, mut to_rows) = (0.0, 0.0);
    if let Some(rel) = largest.map(head) {
        from_rows = per_item(
            median_ns(|| {
                let (mut pool, mut strings) = (DescriptorPool::new(), StrPool::new());
                black_box(ColumnarURelation::from_urelation(
                    black_box(&rel),
                    &mut pool,
                    &mut strings,
                ));
            }),
            rel.len(),
        );
        let (mut pool, mut strings) = (DescriptorPool::new(), StrPool::new());
        let columnar = ColumnarURelation::from_urelation(&rel, &mut pool, &mut strings);
        to_rows = per_item(
            median_ns(|| {
                black_box(black_box(&columnar).to_urelation(&pool, &strings));
            }),
            rel.len(),
        );
    }

    let strs: Vec<&str> = ws
        .relations
        .values()
        .flat_map(|r| r.rows())
        .flat_map(|(t, _)| t.values())
        .filter_map(|v| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
        .take(SAMPLE)
        .collect();
    let str_intern = per_item(
        median_ns(|| {
            let mut pool = StrPool::new();
            for s in &strs {
                black_box(pool.intern(s));
            }
        }),
        strs.len(),
    );

    let descs: Vec<&WsDescriptor> = uncertain
        .into_iter()
        .flat_map(|r| r.rows())
        .map(|(_, d)| d)
        .take(SAMPLE)
        .collect();
    let intern = per_item(
        median_ns(|| {
            let mut pool = DescriptorPool::new();
            for d in &descs {
                black_box(pool.intern(d));
            }
        }),
        descs.len(),
    );
    let mut interned = DescriptorPool::new();
    let ids: Vec<DescId> = descs.iter().map(|d| interned.intern(d)).collect();
    let conjoin = per_item(
        median_of(|| {
            let mut pool = interned.clone();
            timed(|| {
                for pair in ids.windows(2) {
                    black_box(pool.conjoin(pair[0], pair[1]));
                }
            })
        }),
        ids.len().saturating_sub(1),
    );

    // One tuple's descriptor group, as exact `conf` hands it to the solver:
    // the first tuple of the first uncertain relation (`chain10` in the
    // `conf_*` workloads — the welds meant for sampling would take minutes).
    let group: Vec<&WsDescriptor> = ws
        .relations
        .values()
        .find(|r| !r.is_certain())
        .and_then(|r| r.grouped().into_values().next())
        .unwrap_or_default();
    let dnf_solve = median_ns(|| {
        black_box(ws.components.prob_of_dnf(black_box(&group)));
    }) / 1e3;

    let normalize = median_of(|| {
        let mut copy = ws.clone();
        timed(|| copy.normalize_with(&ParCfg::with_threads(1)))
    }) / 1e6;

    vec![
        ("core.columnar.from_rows_ns_per_row", from_rows, "ns"),
        ("core.columnar.to_rows_ns_per_row", to_rows, "ns"),
        ("core.columnar.str_intern_ns", str_intern, "ns"),
        ("core.intern.intern_ns", intern, "ns"),
        ("core.intern.conjoin_ns", conjoin, "ns"),
        ("core.component.dnf_solve_us", dnf_solve, "us"),
        ("core.normalize.probe_ms", normalize, "ms"),
    ]
}
