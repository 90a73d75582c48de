//! Differential tests for joins and late materialization.
//!
//! The thread count trades time, not answers: it must never change a
//! u-relation or the post-run world set (component minting included).
//! Late materialization has no switch — rowid-indirection gathers are
//! simply how joins emit columns — so its reference is the
//! enumerate-all-worlds oracle. These tests are both:
//!
//! * **generated join plans** — 120 randomized plans, each rooted at a
//!   natural join over generated subtrees mixing selections, projections,
//!   renames, unions, and the uncertainty operators, run at threads 1 and 4
//!   and compared byte-for-byte; for the pure-RA plans (two thirds of
//!   them) the single-threaded result, instantiated in each world, must
//!   also equal the naive single-world evaluation in that world, so
//!   stacked-join `LazyCol` composition is checked against an independent
//!   reference on join-over-join shapes;
//! * **selective join chain** — a deterministic 5-way chain with a
//!   1%-selective tail, large enough that morsel parallelism engages,
//!   checked the same way.
//!
//! A failing case prints its seed for exact replay.

use maybms_algebra::{naive, run_with, ExecCfg, Plan};
use maybms_core::rng::Rng;
use maybms_core::{
    MayError, ParCfg, Relation, Schema, Tuple, URelation, Value, ValueType, WorldSet, WsDescriptor,
};
use maybms_testkit::{
    gen_plan, gen_typed_world_set, gen_uncertain_plan, gen_world_set, GenConfig, WORLD_LIMIT,
};

/// Generated join plans per test.
const JOIN_PLAN_CASES: usize = 120;

/// `min_rows = 1` disables the morsel threshold so the parallel code paths
/// fire even on tiny generated inputs.
fn par(threads: usize) -> ParCfg {
    ParCfg {
        threads,
        min_rows: 1,
    }
}

fn run_cfg(ws: &mut WorldSet, plan: &Plan, threads: usize) -> Result<URelation, MayError> {
    let cfg = ExecCfg { par: par(threads) };
    let (result, minted, _, _) = run_with(ws, plan, &cfg, false)?;
    ws.components.extend(minted);
    Ok(result)
}

/// Run `plan` at threads 1 and 4 and demand byte-identical results and
/// post-run world sets (or identical error messages, when the generated
/// plan is ill-typed). Returns the single-threaded outcome.
fn run_all(ws: &WorldSet, plan: &Plan, seed: u64) -> Result<URelation, MayError> {
    let mut ws_one = ws.clone();
    let one = run_cfg(&mut ws_one, plan, 1);
    let mut ws_four = ws.clone();
    let four = run_cfg(&mut ws_four, plan, 4);
    match (&one, &four) {
        (Ok(a), Ok(b)) => {
            assert_eq!(
                a, b,
                "seed {seed}: results differ across threads\nplan:\n{plan}"
            );
            assert_eq!(
                ws_one, ws_four,
                "seed {seed}: post-run world sets differ (component minting)\nplan:\n{plan}"
            );
        }
        (Err(e1), Err(e2)) => assert_eq!(
            e1.to_string(),
            e2.to_string(),
            "seed {seed}: errors differ across threads\nplan:\n{plan}"
        ),
        _ => panic!(
            "seed {seed}: threads 1 and 4 disagree on success\n\
             threads=1: {one:?}\nthreads=4: {four:?}\nplan:\n{plan}"
        ),
    }
    one
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

/// 120 generated plans, each rooted at a natural join, with generated
/// subtrees on both sides — uncertainty operators included, so `repair-key`
/// mints components inside a join input.
#[test]
fn generated_join_plans_agree_across_threads_and_with_the_world_oracle() {
    let cfg = GenConfig::default();
    for case in 0..JOIN_PLAN_CASES {
        let seed = 0x0051_0000 + case as u64;
        let mut rng = Rng::new(seed);
        let ws = gen_world_set(&mut rng, &cfg);
        // A join root over generated subtrees; every third case joins an
        // uncertainty-wrapped left side so repair-key minting sits inside
        // a join input.
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
/// ([`gen_typed_world_set`]): joins and dedup on a float key meet `-0.0`
/// beside `0.0` and `NaN`, which hash and compare by their bits. Relations
/// reach the pool's full width, so the float column `d` is often a join
/// key. A join root whose sides name `z` with two types is ill-typed; then
/// only the thread counts are compared (they must fail alike).
#[test]
fn typed_join_plans_agree_across_threads_and_with_the_world_oracle() {
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

/// A 5-way chain `r1 ⋈ r2 ⋈ r3 ⋈ r4 ⋈ r5` where the last relation keeps
/// only 1% of the key space: every hop carries the full key space until
/// the tail drops 99% of it. Big enough (4 × 4096 rows) that morsel
/// parallelism engages under the default threshold, small enough for a
/// test. The relations are certain, so there is one world, and its answer
/// is known without the naive algebra (whose nested-loop joins would take
/// seconds here): every surviving key, in all six columns.
#[test]
fn selective_join_chain_agrees_across_threads_and_with_the_world_oracle() {
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
    let result = run_all(&ws, &plan, 0x0051_1000).expect("chain evaluates");
    let names = ["a", "b", "c", "d", "e", "f"];
    let schema = Schema::of(&names.map(|c| (c, ValueType::Int))).expect("distinct columns");
    let keys = (0..n / 100).map(|r| r * 100);
    let expected = Relation::from_rows(
        schema,
        keys.map(|k| Tuple::new(vec![Value::Int(k as i64); 6]))
            .collect(),
    )
    .expect("tuples match schema");
    let worlds = ws.enumerate(WORLD_LIMIT).expect("one world");
    assert_eq!(worlds.len(), 1, "a certain world set has one world");
    for (pick, _, _) in worlds {
        assert_eq!(result.instantiate(&pick), expected);
    }
}
