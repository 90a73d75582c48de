//! Differential tests for sideways information passing and late
//! materialization.
//!
//! The executor's contract for SIP is *byte-identical output*: a Bloom
//! filter is under-approximating (false positives only keep rows the join
//! drops anyway), so flipping [`ExecCfg::sip`] or the thread count must
//! never change a u-relation or the post-run world set (component minting
//! parity included). Late materialization has no switch — rowid-indirection
//! gathers are simply how joins emit columns — so its reference is the
//! enumerate-all-worlds oracle. These tests are both:
//!
//! * **generated join plans** — 120 randomized plans, each rooted at a
//!   natural join over generated subtrees mixing selections, projections,
//!   renames, unions, and the uncertainty operators, run under every
//!   `{sip} × {threads 1, 4}` combination and compared byte-for-byte
//!   against the SIP-off single-threaded baseline; for the pure-RA plans
//!   (two thirds of them) the baseline, instantiated in each world, must
//!   also equal the naive single-world evaluation in that world, so
//!   stacked-join `LazyCol` composition is checked against an independent
//!   reference on join-over-join shapes;
//! * **selective join chain** — a deterministic 5-way chain with a
//!   1%-selective tail (the shape SIP exists for: the filter cascades
//!   down the chain), large enough that filters actually build and prune,
//!   checked the same way plus an explicit prune-counter assertion.
//!
//! A failing case prints its seed for exact replay.

use maybms_algebra::{naive, run_with, ExecCfg, Plan};
use maybms_core::rng::Rng;
use maybms_core::{
    MayError, ParCfg, Schema, Tuple, URelation, Value, ValueType, WorldSet, WsDescriptor,
};
use maybms_testkit::{
    gen_plan, gen_typed_world_set, gen_uncertain_plan, gen_world_set, GenConfig, WORLD_LIMIT,
};

/// Per the issue's acceptance bar.
const JOIN_PLAN_CASES: usize = 120;

/// `min_rows = 1` disables the morsel threshold so the parallel code paths
/// fire even on tiny generated inputs.
fn par(threads: usize) -> ParCfg {
    ParCfg {
        threads,
        min_rows: 1,
    }
}

/// Every `{sip} × {threads}` combination under test.
fn all_cfgs() -> Vec<ExecCfg> {
    let mut cfgs = Vec::new();
    for &sip in &[false, true] {
        for &threads in &[1, 4] {
            cfgs.push(ExecCfg {
                par: par(threads),
                sip,
            });
        }
    }
    cfgs
}

fn run_cfg(ws: &mut WorldSet, plan: &Plan, cfg: &ExecCfg) -> Result<URelation, MayError> {
    run_with(ws, plan, cfg, false).map(|(result, _, _)| result)
}

/// Run `plan` under every configuration and demand byte-identical results
/// and post-run world sets against the SIP-off single-threaded baseline
/// (or identical error messages, when the generated plan is ill-typed).
/// Returns the baseline's outcome.
fn run_all(ws: &WorldSet, plan: &Plan, seed: u64) -> Result<URelation, MayError> {
    let baseline_cfg = ExecCfg {
        par: par(1),
        sip: false,
    };
    let mut ws_base = ws.clone();
    let baseline = run_cfg(&mut ws_base, plan, &baseline_cfg);
    for cfg in all_cfgs() {
        let mut ws_var = ws.clone();
        let got = run_cfg(&mut ws_var, plan, &cfg);
        let label = format!("seed {seed}: sip={} threads={}", cfg.sip, cfg.par.threads);
        match (&baseline, &got) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "{label}: results differ from baseline\nplan:\n{plan}");
                assert_eq!(
                    ws_base, ws_var,
                    "{label}: post-run world sets differ (component minting)\nplan:\n{plan}"
                );
            }
            (Err(e1), Err(e2)) => assert_eq!(
                e1.to_string(),
                e2.to_string(),
                "{label}: errors differ from baseline\nplan:\n{plan}"
            ),
            _ => panic!(
                "{label}: baseline and variant disagree on success\n\
                 baseline: {baseline:?}\nvariant: {got:?}\nplan:\n{plan}"
            ),
        }
    }
    baseline
}

/// The independent reference for a pure-RA plan: the WSD-level result,
/// instantiated in each world, equals the naive algebra run in that world.
fn assert_matches_world_oracle(ws: &WorldSet, plan: &Plan, result: &URelation, seed: u64) {
    for (pick, db, _prob) in ws.enumerate(WORLD_LIMIT).expect("small world set") {
        let expected = naive::eval(plan, &db)
            .unwrap_or_else(|e| panic!("seed {seed}: naive eval failed: {e}\nplan:\n{plan}"));
        assert_eq!(
            result.instantiate(&pick),
            expected,
            "seed {seed}: world {pick:?} disagrees with the oracle\nplan:\n{plan}"
        );
    }
}

/// 120 generated plans, each rooted at a natural join (the operator SIP
/// instruments), with generated subtrees on both sides — uncertainty
/// operators included, so the mint guard and the filter-descent barriers
/// (unions, uncertainty operators) all get exercised.
#[test]
fn generated_join_plans_agree_across_sip_and_with_the_world_oracle() {
    let cfg = GenConfig::default();
    for case in 0..JOIN_PLAN_CASES {
        let seed = 0x0051_0000 + case as u64;
        let mut rng = Rng::new(seed);
        let ws = gen_world_set(&mut rng, &cfg);
        // A join root over generated subtrees; every third case joins an
        // uncertainty-wrapped left side so repair-key minting sits inside
        // a join input (the mint-guard path).
        let left = if case % 3 == 0 {
            gen_uncertain_plan(&mut rng, &ws, 1)
        } else {
            gen_plan(&mut rng, &ws, 2)
        };
        let right = gen_plan(&mut rng, &ws, 2);
        let plan = left.join(right);
        let baseline = run_all(&ws, &plan, seed);
        if case % 3 != 0 {
            let result = baseline.expect("generated pure-RA plans are well-typed");
            assert_matches_world_oracle(&ws, &plan, &result, seed);
        }
    }
}

/// The same over relations with string, float, boolean and `NULL` cells
/// ([`gen_typed_world_set`]): joins, dedup and SIP filters on a float key
/// meet `-0.0` beside `0.0` and `NaN`, which hash and compare by their bits.
/// Relations reach the pool's full width, so the float column `d` is often
/// a join key. A join root whose sides name `z` with two types is
/// ill-typed; then only the configurations are compared (they must fail
/// alike).
#[test]
fn typed_join_plans_agree_across_sip_and_with_the_world_oracle() {
    let cfg = GenConfig {
        max_arity: 5,
        max_rows: 8,
        ..GenConfig::default()
    };
    for case in 0..JOIN_PLAN_CASES {
        let seed = 0x0051_7000 + case as u64;
        let mut rng = Rng::new(seed);
        let ws = gen_typed_world_set(&mut rng, &cfg);
        let left = if case % 3 == 0 {
            gen_uncertain_plan(&mut rng, &ws, 1)
        } else {
            gen_plan(&mut rng, &ws, 2)
        };
        let right = gen_plan(&mut rng, &ws, 2);
        let plan = left.join(right);
        match run_all(&ws, &plan, seed) {
            Ok(result) if case % 3 != 0 => assert_matches_world_oracle(&ws, &plan, &result, seed),
            _ => {}
        }
    }
}

/// The SIP showcase shape: a 5-way chain `r1 ⋈ r2 ⋈ r3 ⋈ r4 ⋈ r5` where
/// the last relation keeps only 1% of the key space, so the Bloom filter
/// built from `r5` prunes `r4`'s scan, the already-pruned `r4` seeds the
/// next filter into `r3`, and so on down the chain. Big enough (4 × 4096
/// probe rows) that morsel parallelism engages under the default
/// threshold, small enough for a test.
#[test]
fn selective_join_chain_agrees_and_prunes() {
    let n = 4096u32;
    let mut ws = WorldSet::new();
    let cols = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")];
    for (i, &(k1, k2)) in cols.iter().enumerate() {
        let schema =
            Schema::of(&[(k1, ValueType::Int), (k2, ValueType::Int)]).expect("distinct columns");
        let mut rel = URelation::new(schema);
        // r5 keeps one key in a hundred; r1–r4 cover the full key space.
        let rows = if i == 4 { n / 100 } else { n };
        for r in 0..rows {
            let key = if i == 4 { r * 100 } else { r };
            rel.push(
                Tuple::new(vec![Value::Int(key as i64), Value::Int(key as i64)]),
                WsDescriptor::tautology(),
            )
            .expect("tuple matches schema");
        }
        ws.insert(format!("r{}", i + 1), rel)
            .expect("certain relation is valid");
    }
    let plan = Plan::scan("r1")
        .join(Plan::scan("r2"))
        .join(Plan::scan("r3"))
        .join(Plan::scan("r4"))
        .join(Plan::scan("r5"));
    run_all(&ws, &plan, 0x0051_1000).expect("chain evaluates");

    // And the filters actually fired: with SIP on, the 1%-selective tail
    // must have pruned the overwhelming majority of probe rows.
    let cfg = ExecCfg {
        par: par(2),
        sip: true,
    };
    let (result, stats, _) =
        run_with(&mut ws.clone(), &plan, &cfg, false).expect("chain evaluates");
    assert_eq!(
        result.len(),
        (n / 100) as usize,
        "one row per surviving key"
    );
    assert!(
        stats.sip.filters_built >= 4,
        "expected a filter per join in the chain, built {}",
        stats.sip.filters_built
    );
    assert!(
        stats.sip.probe_rows_pruned > stats.sip.probe_rows_tested / 2,
        "expected the selective tail to prune most probe rows ({} of {} pruned)",
        stats.sip.probe_rows_pruned,
        stats.sip.probe_rows_tested
    );
}
