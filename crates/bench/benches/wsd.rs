//! Timings for WSD normalization, a 3-way natural join, `repair-key`,
//! exact and (ε, δ)-approximate `conf`, the end-to-end MayQL pipeline
//! (parse + analyze/lower + execute), and the logical optimizer
//! (`join3_filtered`, timed raw and optimized), printed as one JSON object
//! per line (see crate docs for why this is not criterion).
//!
//! Each workload is timed as the minimum of [`RUNS`] repetitions on a fresh
//! copy of the generated world set, which keeps single-core timing noise
//! out of the committed baseline. The copy is rebuilt from the rows by push
//! (`maybms_testkit::rebuilt_by_push`), so it shares no relation body with
//! the source — none of its rows or statistics memos; scans read its columns
//! as they read any stored relation's. The `_warm` twins (`join3_warm`,
//! `join3_columnar_warm`, `mayql_e2e_warm`) run on plain clones, which share
//! the source's bodies and memos — what a long-lived session pays per
//! statement.
//! `MAYBMS_BENCH_QUICK=1` selects the small sizes only (the CI regression
//! gate runs in that mode; see `src/bin/bench_check.rs`). `MAYBMS_BENCH_TRACE=<dir>` additionally
//! re-executes each plan-driven workload once with span tracing on and
//! dumps a Chrome trace-event JSON per workload into `<dir>` — the timed
//! runs themselves always execute with tracing disabled.

use std::time::Instant;

use maybms_algebra::{col, lit, optimize_with_stats, run, run_with, ExecCfg, Plan, Predicate};
use maybms_bench::{
    conf_chain_workload, conf_dense_workload, conf_disjoint_workload, join3_skewed_workload,
    join_columnar_workload, join_workload, normalization_workload, repair_workload,
};
use maybms_core::rng::Rng;
use maybms_core::{ColumnarURelation, DescriptorPool, ParCfg, StrPool, WorldSet};
use maybms_ql::{conf, conf_approx, repair_key};
use maybms_sql::{compile, Catalog};
use maybms_testkit::rebuilt_by_push;

/// Repetitions per workload; the minimum is reported.
const RUNS: usize = 3;

fn emit(bench: &str, n: usize, rows_out: usize, millis: f64) {
    // Throughput is derived, but emitting it keeps the JSONL self-contained
    // for downstream dashboards; `bench_check` cross-validates it against
    // `rows_out`/`millis` so the two can never drift apart silently. It is
    // computed from `millis` *as printed* (3 decimals) so the recomputation
    // on the consumer side reproduces it exactly.
    let printed = (millis * 1e3).round() / 1e3;
    let rows_per_sec = if printed > 0.0 {
        rows_out as f64 / printed * 1e3
    } else {
        0.0
    };
    println!(
        "{{\"bench\":\"{bench}\",\"n\":{n},\"rows_out\":{rows_out},\"millis\":{millis:.3},\
         \"rows_per_sec\":{rows_per_sec:.1}}}"
    );
}

/// Time `f` on a fresh copy of `ws` rebuilt by push per run; report the
/// fastest run.
fn bench_min(ws: &WorldSet, f: impl FnMut(&mut WorldSet) -> usize) -> (usize, f64) {
    bench_min_runs(ws, RUNS, f)
}

/// [`bench_min`] on clones, which share the source's relation bodies.
fn bench_min_warm(ws: &WorldSet, f: impl FnMut(&mut WorldSet) -> usize) -> (usize, f64) {
    timed(RUNS, || ws.clone(), f)
}

/// [`bench_min`] with an explicit repetition count — the deterministic
/// ~minute-scale approximate-`conf` rows at 10⁶ time a single run.
fn bench_min_runs(
    ws: &WorldSet,
    runs: usize,
    f: impl FnMut(&mut WorldSet) -> usize,
) -> (usize, f64) {
    timed(runs, || rebuilt_by_push(ws), f)
}

/// The fastest of `runs` runs of `f`, each on its own untimed `fresh()` copy.
fn timed(
    runs: usize,
    fresh: impl Fn() -> WorldSet,
    mut f: impl FnMut(&mut WorldSet) -> usize,
) -> (usize, f64) {
    let mut best = f64::INFINITY;
    let mut rows = 0;
    for _ in 0..runs {
        let mut ws = fresh();
        let start = Instant::now();
        rows = f(&mut ws);
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (rows, best)
}

/// With `MAYBMS_BENCH_TRACE=<dir>` set, execute `plan` once more on a
/// fresh clone with tracing enabled and write the span tree as Chrome
/// trace-event JSON to `<dir>/<bench>_<n>.json` (loadable in
/// `chrome://tracing` or Perfetto). A separate untimed run, so tracing
/// never contaminates the reported numbers.
fn dump_trace(ws: &WorldSet, plan: &Plan, bench: &str, n: usize) {
    let Ok(dir) = std::env::var("MAYBMS_BENCH_TRACE") else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    let mut ws = ws.clone();
    let (_, _, _, trace) =
        run_with(&mut ws, plan, &ExecCfg::default(), true).expect("bench workload is well-typed");
    let trace = trace.expect("tracing was requested");
    let path = std::path::Path::new(&dir).join(format!("{bench}_{n}.json"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace.to_json()));
    if let Err(e) = written {
        eprintln!("warning: cannot write trace {}: {e}", path.display());
    }
}

fn main() {
    // `cargo bench` passes flags like `--bench`; this harness ignores them.
    let quick = std::env::var("MAYBMS_BENCH_QUICK").is_ok();
    let sizes: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    // `conf` sizes count *tuples*; each tuple gets its own component groups.
    let conf_sizes: &[usize] = if quick { &[1_000] } else { &[1_000, 10_000] };
    // Normalization additionally runs at 10⁶ — in quick mode too, so the CI
    // regression gate covers the columnar path at the scale where the
    // columnar sort and the memoized stripping actually carry the load.
    let norm_sizes: &[usize] = if quick {
        &[1_000, 10_000, 1_000_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    };

    for &n in norm_sizes {
        let ws = normalization_workload(&mut Rng::new(0xBE7C), n);
        let (rows, ms) = bench_min(&ws, |ws| {
            ws.normalize();
            ws.relations["r"].len()
        });
        emit("normalize", n, rows, ms);
    }

    for &n in sizes {
        let ws = join_workload(&mut Rng::new(0x10A0), n);
        let plan = Plan::scan("r1")
            .join(Plan::scan("r2"))
            .join(Plan::scan("r3"));
        let join = |ws: &mut WorldSet| run(ws, &plan).expect("join workload is well-typed").len();
        let (rows, ms) = bench_min(&ws, join);
        emit("join3", n, rows, ms);
        dump_trace(&ws, &plan, "join3", n);
        let (rows, ms) = bench_min_warm(&ws, join);
        emit("join3_warm", n, rows, ms);
    }

    // The columnar-specific join shape: a selection sweep on `r1` feeding a
    // string-keyed hop (`b`) and an int-keyed hop (`c`) — dictionary-coded
    // string equality and the row-map machinery under load.
    for &n in sizes {
        let ws = join_columnar_workload(&mut Rng::new(0xC01A), n);
        let plan = Plan::scan("r1")
            .select(Predicate::lt(col("a"), lit((n / 2) as i64)))
            .join(Plan::scan("r2"))
            .join(Plan::scan("r3"));
        let join = |ws: &mut WorldSet| run(ws, &plan).expect("join workload is well-typed").len();
        let (rows, ms) = bench_min(&ws, join);
        emit("join3_columnar", n, rows, ms);
        dump_trace(&ws, &plan, "join3_columnar", n);
        let (rows, ms) = bench_min_warm(&ws, join);
        emit("join3_columnar_warm", n, rows, ms);

        // The layer under the pair above: making the three relations
        // available to a run, by converting their rows (what every scan did
        // before relations were stored as columns; the rows are built
        // untimed) against importing their columns into the run's pools.
        let with_rows = || {
            let copy = rebuilt_by_push(&ws);
            for rel in copy.relations.values() {
                rel.rows();
            }
            copy
        };
        let (rows, ms) = timed(RUNS, with_rows, |ws| {
            let (mut pool, mut strings) = (DescriptorPool::new(), StrPool::new());
            ws.relations
                .values()
                .map(|rel| {
                    let c = ColumnarURelation::from_urelation(rel, &mut pool, &mut strings);
                    std::hint::black_box(c).len()
                })
                .sum()
        });
        emit("from_urelation", n, rows, ms);
        let (rows, ms) = bench_min_warm(&ws, |ws| {
            let (mut pool, mut strings) = (DescriptorPool::new(), StrPool::new());
            ws.relations
                .values()
                .map(|rel| std::hint::black_box(rel.scan(&mut pool, &mut strings)).len())
                .sum()
        });
        emit("image_scan", n, rows, ms);
    }

    // The same 3-way join driven through the MayQL front-end: parse,
    // analyze/lower, then execute, per run. The delta against `join3` is
    // the full front-end overhead (it should be noise: parsing is linear
    // in the query text, execution dominates).
    for &n in sizes {
        let ws = join_workload(&mut Rng::new(0x10A0), n);
        let text = "SELECT * FROM r1, r2, r3";
        let catalog = Catalog::from_world_set(&ws);
        let e2e = |ws: &mut WorldSet| {
            let plan = compile(&catalog, text).expect("bench query is valid MayQL");
            run(ws, &plan).expect("bench query is well-typed").len()
        };
        let (rows, ms) = bench_min(&ws, e2e);
        emit("mayql_e2e", n, rows, ms);
        let (rows, ms) = bench_min_warm(&ws, e2e);
        emit("mayql_e2e_warm", n, rows, ms);
    }

    // A selective predicate (10% of `r1`) written *above* the 3-way join —
    // the optimizer's bread and butter. `join3_filtered_raw` executes the
    // plan as written; `join3_filtered` runs it through the planner first,
    // which places the filter on `r1`'s scan so both join hops probe,
    // gather, and dedup a tenth of the rows.
    for &n in sizes {
        let ws = join_workload(&mut Rng::new(0x10A0), n);
        let plan = Plan::scan("r1")
            .join(Plan::scan("r2"))
            .join(Plan::scan("r3"))
            .select(Predicate::lt(col("a"), lit((n / 10) as i64)));
        let (rows, ms) = bench_min(&ws, |ws| {
            run(ws, &plan).expect("join workload is well-typed").len()
        });
        emit("join3_filtered_raw", n, rows, ms);
        let optimized = optimize_with_stats(&plan, &ws.relations).expect("plan optimizes");
        let (rows_opt, ms) = bench_min(&ws, |ws| {
            run(ws, &optimized)
                .expect("optimized plan is well-typed")
                .len()
        });
        assert_eq!(rows, rows_opt, "optimization changed the result size");
        emit("join3_filtered", n, rows_opt, ms);
        dump_trace(&ws, &optimized, "join3_filtered", n);
    }

    // The cost-based phase's headline case: the textual join order
    // `(r1 ⋈ r2) ⋈ r3` materializes a ~n²/2000-row zipf-keyed blowup
    // before the selective `c` hop shrinks it; with catalog statistics the
    // reorder starts from `r2 ⋈ r3` (~n/100 rows) instead. There is no
    // filter to place and nothing to narrow — the asymmetry lives entirely
    // in the data — so `join3_skewed_raw` times the text order as written
    // and `join3_skewed` the optimized plan, asserting identical output as
    // always. That the planner reorders at all is the CI bench smoke for
    // the join order; at 10⁵ rows the reorder must also win outright.
    for &n in sizes {
        let ws = join3_skewed_workload(&mut Rng::new(0x5E3D), n);
        let plan = Plan::scan("r1")
            .join(Plan::scan("r2"))
            .join(Plan::scan("r3"));
        let (rows, ms_raw) = bench_min(&ws, |ws| {
            run(ws, &plan).expect("join workload is well-typed").len()
        });
        emit("join3_skewed_raw", n, rows, ms_raw);
        let optimized = optimize_with_stats(&plan, &ws.relations).expect("plan optimizes");
        assert_ne!(
            plan.to_string(),
            optimized.to_string(),
            "the planner should reorder the skewed join"
        );
        let (rows_opt, ms_opt) = bench_min(&ws, |ws| {
            run(ws, &optimized)
                .expect("optimized plan is well-typed")
                .len()
        });
        assert_eq!(rows, rows_opt, "cost optimization changed the result size");
        // Late-materialized joins no longer pay to copy the ~n²/2000-row
        // intermediate the text order produces, so at n = 10⁴ the two
        // orders race within noise of each other. The reorder win is
        // structural again at 10⁵ (tens of ms apart), so the speedup
        // assert — a full-bench gate only, quick mode stops at 10⁴ —
        // moved up a decade rather than flap on scheduler jitter.
        if n >= 100_000 {
            assert!(
                ms_opt < ms_raw,
                "cost-optimized join3_skewed ({ms_opt:.3} ms) should beat text order ({ms_raw:.3} ms) at n={n}"
            );
        }
        emit("join3_skewed", n, rows_opt, ms_opt);
        dump_trace(&ws, &optimized, "join3_skewed", n);
    }

    // A selective filter on the *last* relation of the chain: the rules
    // push it into `r3`'s scan, but only the cost phase knows the filtered
    // side is now tiny and reorders the join so it participates first.
    for &n in sizes {
        let ws = join_workload(&mut Rng::new(0x10A0), n);
        let plan = Plan::scan("r1")
            .join(Plan::scan("r2"))
            .join(Plan::scan("r3"))
            .select(Predicate::lt(col("d"), lit((n / 10) as i64)));
        let (rows, ms) = bench_min(&ws, |ws| {
            run(ws, &plan).expect("join workload is well-typed").len()
        });
        emit("selective_right_raw", n, rows, ms);
        let optimized = optimize_with_stats(&plan, &ws.relations).expect("plan optimizes");
        let (rows_opt, ms) = bench_min(&ws, |ws| {
            run(ws, &optimized)
                .expect("optimized plan is well-typed")
                .len()
        });
        assert_eq!(rows, rows_opt, "cost optimization changed the result size");
        emit("selective_right", n, rows_opt, ms);
        dump_trace(&ws, &optimized, "selective_right", n);
    }

    for &n in sizes {
        let ws = repair_workload(&mut Rng::new(0x4E9A), n);
        let plan = repair_key(Plan::scan("r"), &["k"], Some("w"));
        let (rows, ms) = bench_min(&ws, |ws| {
            run(ws, &plan).expect("repair workload is well-typed").len()
        });
        emit("repair_key", n, rows, ms);
        dump_trace(&ws, &plan, "repair_key", n);
    }

    // Two disjoint 10-component groups (4 alternatives each) per tuple:
    // factorized `conf` solves two 10-component groups instead of
    // enumerating 4^20 cross-group assignments per tuple.
    for &n in conf_sizes {
        let ws = conf_disjoint_workload(&mut Rng::new(0xC0FF), n, 2, 10, 4);
        let plan = conf(Plan::scan("r"));
        let (rows, ms) = bench_min(&ws, |ws| {
            run(ws, &plan).expect("conf workload is well-typed").len()
        });
        emit("conf_disjoint", n, rows, ms);
        dump_trace(&ws, &plan, "conf_disjoint", n);
    }

    // One connected 11-component chain per tuple: the case factorization
    // cannot split, carried by the per-group elimination alone (which never
    // holds more than a few states on a chain).
    for &n in conf_sizes {
        let ws = conf_chain_workload(&mut Rng::new(0xC4A1), n, 10, 2);
        let plan = conf(Plan::scan("r"));
        let (rows, ms) = bench_min(&ws, |ws| {
            run(ws, &plan).expect("conf workload is well-typed").len()
        });
        emit("conf_chain", n, rows, ms);
        dump_trace(&ws, &plan, "conf_chain", n);
    }

    // `conf(0.1, 0.05)` on both sides of its cost cutover. `conf_chain`
    // here doubles the chain to 20 links: 2²⁰ descriptor subsets, but the
    // elimination's frontier along a chain is one open descriptor wide, so
    // the group prices 82 — under the default cutover of 4096 — and is
    // solved exactly, with zero error. `conf_dense` is a 26-component /
    // 30-descriptor connected tangle whose random third terms keep a dozen
    // descriptors open at once: it prices far over the cutover and every
    // group is sampled, 185 draws each. The sampler is deterministic
    // (content-keyed counter streams), so the 10⁶ rows time a single run.
    let dense_shape = |rng: &mut Rng, n: usize| conf_dense_workload(rng, n, 26, 30, 2);
    let approx_chain_sizes: &[usize] = if quick { &[] } else { &[100_000, 1_000_000] };
    let approx_dense_sizes: &[usize] = if quick {
        &[1_000]
    } else {
        &[1_000, 100_000, 1_000_000]
    };
    let approx_runs = |n: usize| if n >= 1_000_000 { 1 } else { RUNS };

    for &n in approx_chain_sizes {
        let ws = conf_chain_workload(&mut Rng::new(0xC4A1), n, 20, 2);
        let plan = conf_approx(Plan::scan("r"), 0.1, 0.05);
        let (rows, ms) = bench_min_runs(&ws, approx_runs(n), |ws| {
            run(ws, &plan).expect("conf workload is well-typed").len()
        });
        emit("conf_chain", n, rows, ms);
    }

    for &n in approx_dense_sizes {
        let ws = dense_shape(&mut Rng::new(0xDE45), n);
        let plan = conf_approx(Plan::scan("r"), 0.1, 0.05);
        let (rows, ms) = bench_min_runs(&ws, approx_runs(n), |ws| {
            run(ws, &plan).expect("conf workload is well-typed").len()
        });
        emit("conf_dense", n, rows, ms);
    }

    // The three heaviest workloads at 10⁶ rows (10⁷ ride behind
    // `MAYBMS_BENCH_HUGE=1`), pinned to one thread as the `_t1` in their
    // names says — though none holds a `conf` or `certain`, the only
    // operators that read the budget. This phase runs in quick mode too;
    // the committed baseline carries per-row `"tol"` overrides because a
    // second-long run on shared cores varies more than the small rows do.
    let par_sizes: &[usize] = if std::env::var("MAYBMS_BENCH_HUGE").is_ok() {
        &[1_000_000, 10_000_000]
    } else {
        &[1_000_000]
    };
    let one_thread = ExecCfg {
        par: ParCfg::with_threads(1),
    };

    for &n in par_sizes {
        let ws = normalization_workload(&mut Rng::new(0xBE7C), n);
        let (rows, ms) = bench_min(&ws, |ws| {
            ws.normalize();
            ws.relations["r"].len()
        });
        emit("normalize_t1", n, rows, ms);
    }

    for &n in par_sizes {
        let ws = join_workload(&mut Rng::new(0x10A0), n);
        let plan = Plan::scan("r1")
            .join(Plan::scan("r2"))
            .join(Plan::scan("r3"));
        let (rows, ms) = bench_min(&ws, |ws| {
            run_with(ws, &plan, &one_thread, false)
                .expect("join workload is well-typed")
                .0
                .len()
        });
        emit("join3_t1", n, rows, ms);
    }

    for &n in par_sizes {
        let ws = repair_workload(&mut Rng::new(0x4E9A), n);
        let plan = repair_key(Plan::scan("r"), &["k"], Some("w"));
        let (rows, ms) = bench_min(&ws, |ws| {
            run_with(ws, &plan, &one_thread, false)
                .expect("repair workload is well-typed")
                .0
                .len()
        });
        emit("repair_key_t1", n, rows, ms);
    }
}
