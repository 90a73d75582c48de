//! Differential tests for the logical plan optimizer.
//!
//! Three directions, all on randomized world sets:
//!
//! * **optimized vs. unoptimized plans** — random plans interleaving the
//!   positive relational algebra with the uncertainty constructs (RA both
//!   above and below `possible`/`certain`/`conf`/`repair-key`) execute to
//!   the same u-relation before and after
//!   [`maybms_algebra::optimize_with_stats`], with the output schema
//!   preserved and optimization idempotent.
//! * **optimized MayQL by default** — `compile` (which optimizes) and
//!   `compile_unoptimized` agree on every generated query string, and
//!   re-planning the compiled plan gives it back, so the planner's default
//!   path is safe.
//! * **rewrites actually fire** — across the generated corpus the
//!   optimizer changes a healthy fraction of plans; a silent no-op
//!   optimizer would pass the equivalence checks vacuously.
//!
//! Comparisons sort-and-dedup results, because the rewrites preserve the
//! *set* a u-relation denotes, not its row order. Component minting stays
//! deterministic across the rewrite (repair-key inputs are never reordered
//! in a way its internal canonical sort doesn't absorb), so descriptors
//! are compared exactly, not merely isomorphically. A failing case prints
//! its seed and both plan trees for exact replay.

use maybms_algebra::{optimize_with_stats, run, Plan};
use maybms_core::rng::Rng;
use maybms_core::{URelation, WorldSet};
use maybms_sql::{compile, compile_unoptimized, Catalog};
use maybms_testkit::{gen_query, gen_uncertain_plan, gen_world_set, GenConfig};

/// ≥ 150 generated plans, per the optimizer issue's acceptance bar.
const PLAN_CASES: usize = 160;
/// Generated MayQL strings for the compile-path comparison.
const QUERY_CASES: usize = 120;

fn execute(ws: &WorldSet, plan: &Plan, context: &str) -> URelation {
    let mut ws = ws.clone();
    let mut result = run(&mut ws, plan).unwrap_or_else(|e| panic!("{context}: {e}"));
    result.dedup();
    result
}

#[test]
fn optimized_plans_execute_identically() {
    let cfg = GenConfig::default();
    let mut rewritten = 0;
    for case in 0..PLAN_CASES {
        let seed = 0x0071_0000 + case as u64;
        let mut rng = Rng::new(seed);
        let ws = gen_world_set(&mut rng, &cfg);
        let plan = gen_uncertain_plan(&mut rng, &ws, 2);
        let optimized = optimize_with_stats(&plan, &ws.relations)
            .unwrap_or_else(|e| panic!("seed {seed}: optimize failed: {e}\nplan:\n{plan}"));

        // The optimizer must never change what a plan *means* statically…
        assert_eq!(
            plan.schema_with(&ws.relations)
                .expect("generated plans are well-typed"),
            optimized
                .schema_with(&ws.relations)
                .unwrap_or_else(|e| panic!("seed {seed}: optimized plan is ill-typed: {e}")),
            "seed {seed}: output schema changed\nplan:\n{plan}\noptimized:\n{optimized}"
        );

        // …nor what it evaluates to.
        let a = execute(&ws, &plan, &format!("seed {seed}, original"));
        let b = execute(&ws, &optimized, &format!("seed {seed}, optimized"));
        assert_eq!(
            a, b,
            "seed {seed}: execution differs\nplan:\n{plan}\noptimized:\n{optimized}"
        );

        // Optimization is idempotent: a second pass finds nothing.
        let twice =
            optimize_with_stats(&optimized, &ws.relations).expect("re-optimization succeeds");
        assert_eq!(
            optimized.to_string(),
            twice.to_string(),
            "seed {seed}: optimization is not idempotent"
        );

        if plan.to_string() != optimized.to_string() {
            rewritten += 1;
        }
    }
    // The corpus is built to trigger rewrites; if almost nothing fires the
    // optimizer has silently stopped doing work. (84 of the 160 are: the
    // corpus often projects onto every column, which narrows nothing.)
    assert!(
        rewritten >= PLAN_CASES / 6,
        "only {rewritten}/{PLAN_CASES} generated plans were rewritten"
    );
}

/// Regression: `certain` must not commute with projection. Two rows that
/// differ only in a projected-away column, under descriptors that jointly
/// cover all worlds, make the projected tuple certain even though neither
/// full tuple is — so `π_k(certain(π_{k,v}(R)))` is `{}` while
/// `π_k(certain(π_k(R)))` would be `{(1)}`. The optimizer once pruned the
/// inner projection below CERTAIN and flipped the answer.
#[test]
fn certain_is_a_projection_barrier() {
    use maybms_core::{Component, Schema, Tuple, ValueType, WsDescriptor};

    let mut ws = WorldSet::new();
    let c = ws.components.add(Component::uniform(2).expect("2 > 0"));
    let schema = Schema::of(&[("k", ValueType::Int), ("v", ValueType::Int)]).unwrap();
    let mut rel = URelation::new(schema);
    rel.push(
        Tuple::new(vec![1.into(), 10.into()]),
        WsDescriptor::single(c, 0),
    )
    .unwrap();
    rel.push(
        Tuple::new(vec![1.into(), 20.into()]),
        WsDescriptor::single(c, 1),
    )
    .unwrap();
    ws.insert("r", rel).unwrap();

    let plan = maybms_ql::certain(Plan::scan("r").project(["k", "v"])).project(["k"]);
    let optimized = optimize_with_stats(&plan, &ws.relations).unwrap();
    let a = execute(&ws, &plan, "certain barrier, original");
    let b = execute(&ws, &optimized, "certain barrier, optimized");
    assert_eq!(a, b, "optimized:\n{optimized}");
    assert!(a.is_empty(), "no full tuple is certain here");
}

/// Regression: projection pruning above a *swapping* rename must keep both
/// pairs and both source columns — dropping the not-required pair once
/// rewrote `rename[a → b, b → a]` into a plan whose single rename collided
/// with a still-existing column (`duplicate column`).
#[test]
fn swap_renames_survive_projection_pruning() {
    use maybms_core::{Relation, Schema, Tuple, ValueType};

    let schema = Schema::of(&[("a", ValueType::Int), ("b", ValueType::Int)]).unwrap();
    let rel = Relation::from_rows(
        schema,
        vec![
            Tuple::new(vec![1.into(), 2.into()]),
            Tuple::new(vec![3.into(), 4.into()]),
        ],
    )
    .unwrap();
    let mut ws = WorldSet::new();
    ws.insert("r", URelation::from_certain(&rel)).unwrap();

    let plan = Plan::scan("r")
        .rename([("a", "b"), ("b", "a")])
        .project(["a"]);
    let optimized = optimize_with_stats(&plan, &ws.relations).unwrap();
    optimized
        .schema_with(&ws.relations)
        .unwrap_or_else(|e| panic!("optimized plan is ill-typed: {e}\n{optimized}"));
    let a = execute(&ws, &plan, "swap rename, original");
    let b = execute(&ws, &optimized, "swap rename, optimized");
    assert_eq!(a, b, "optimized:\n{optimized}");
}

/// A chain-joinable world: `k` relations `r0(c0, c1) … r{k-1}(c{k-1}, ck)`
/// with deliberately skewed sizes (so the cost phase has reorderings worth
/// choosing) and a mix of certain and single-component-uncertain rows.
fn chain_world(rng: &mut Rng, k: usize) -> WorldSet {
    use maybms_core::{Component, Schema, Tuple, Value, ValueType, WsDescriptor};

    let mut ws = WorldSet::new();
    for i in 0..k {
        let schema = Schema::of(&[
            (format!("c{i}").as_str(), ValueType::Int),
            (format!("c{}", i + 1).as_str(), ValueType::Int),
        ])
        .expect("distinct columns");
        let mut rel = URelation::new(schema);
        // Sizes alternate between tiny and biggish so join order matters.
        let rows = if rng.chance(0.5) {
            rng.range(2, 6)
        } else {
            rng.range(20, 50)
        };
        let dom = rng.range(3, 9);
        for _ in 0..rows {
            let desc = if rng.chance(0.3) {
                let c = ws.components.add(Component::uniform(2).expect("2 > 0"));
                WsDescriptor::single(c, rng.below(2) as u16)
            } else {
                WsDescriptor::tautology()
            };
            rel.push(
                Tuple::new(vec![
                    Value::Int(rng.below(dom) as i64),
                    Value::Int(rng.below(dom) as i64),
                ]),
                desc,
            )
            .expect("tuple matches schema");
        }
        ws.insert(format!("r{i}"), rel).expect("fresh name");
    }
    ws
}

/// The join order on reorder-eligible 4–6-relation join chains with
/// quantifiers interleaved: optimized ≡ raw execution (compared after
/// dedup — reordering may permute rows, never the set), schemas preserved,
/// `optimize_with_stats` idempotent, and the planner actually reorders a
/// healthy fraction of the corpus.
#[test]
fn cost_optimized_plans_execute_identically() {
    let mut reordered = 0;
    let mut cases = 0;
    for case in 0..60u64 {
        let seed = 0x0071_2000 + case;
        let mut rng = Rng::new(seed);
        let k = rng.range(4, 7);
        let ws = chain_world(&mut rng, k);

        // A scrambled left-deep join over all k relations, with `possible`
        // or `certain` wrapped around random prefixes (conf's appended
        // column would join on `conf` above it, so it stays at the top).
        let mut order: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mut plan = Plan::scan(format!("r{}", order[0]));
        for &i in &order[1..] {
            plan = plan.join(Plan::scan(format!("r{i}")));
            if rng.chance(0.25) {
                plan = if rng.chance(0.5) {
                    maybms_ql::possible(plan)
                } else {
                    maybms_ql::certain(plan)
                };
            }
        }
        if rng.chance(0.3) {
            plan = maybms_ql::conf(plan);
        }

        let cost = optimize_with_stats(&plan, &ws.relations)
            .unwrap_or_else(|e| panic!("seed {seed}: cost phase failed: {e}\nplan:\n{plan}"));

        let schema = plan
            .schema_with(&ws.relations)
            .expect("generated plans are well-typed");
        assert_eq!(
            schema,
            cost.schema_with(&ws.relations)
                .unwrap_or_else(|e| panic!("seed {seed}: cost plan is ill-typed: {e}\n{cost}")),
            "seed {seed}: output schema changed\nplan:\n{plan}\ncost:\n{cost}"
        );

        let a = execute(&ws, &plan, &format!("seed {seed}, raw"));
        let c = execute(&ws, &cost, &format!("seed {seed}, cost-optimized"));
        assert_eq!(
            a, c,
            "seed {seed}: cost-optimized differs from raw\nplan:\n{plan}\ncost:\n{cost}"
        );

        let twice = optimize_with_stats(&cost, &ws.relations).expect("re-optimization succeeds");
        assert_eq!(
            cost.to_string(),
            twice.to_string(),
            "seed {seed}: cost optimization is not idempotent\nplan:\n{plan}"
        );

        cases += 1;
        if scans(&cost) != scans(&plan) {
            reordered += 1;
        }
    }
    // Skewed sizes and scrambled orders are built to give the join order
    // work; if it never leaves the written leaf order it has silently
    // stopped reordering.
    assert!(
        reordered >= cases / 4,
        "only {reordered}/{cases} chains were reordered"
    );
}

/// The relations a plan scans, left to right.
fn scans(plan: &Plan) -> Vec<String> {
    match plan {
        Plan::Scan(name) => vec![name.clone()],
        other => other.children().into_iter().flat_map(scans).collect(),
    }
}

/// Regression: a join of more than 64 relations once broke planning. The
/// join-order search indexed leaf subsets by `1 << leaf`, which overflows
/// at the 65th leaf: a panic in a debug build, a reorder scored on wrapped
/// masks in release. A 65-relation chain must plan with its schema kept and
/// re-plan to itself. It is planned only, never executed.
#[test]
fn joins_of_more_than_64_relations_plan() {
    let seed = 0x0071_3000;
    let mut rng = Rng::new(seed);
    let ws = chain_world(&mut rng, 65);
    let plan = (1..65).fold(Plan::scan("r0"), |p, i| p.join(Plan::scan(format!("r{i}"))));

    let cost = optimize_with_stats(&plan, &ws.relations)
        .unwrap_or_else(|e| panic!("seed {seed}: cost phase failed: {e}"));
    assert_eq!(
        plan.schema_with(&ws.relations)
            .expect("the chain is well-typed"),
        cost.schema_with(&ws.relations)
            .unwrap_or_else(|e| panic!("seed {seed}: cost plan is ill-typed: {e}\n{cost}")),
        "seed {seed}: output schema changed"
    );
    let twice = optimize_with_stats(&cost, &ws.relations).expect("re-optimization succeeds");
    assert_eq!(
        cost.to_string(),
        twice.to_string(),
        "seed {seed}: cost optimization is not idempotent"
    );
}

#[test]
fn default_compile_path_matches_unoptimized_compile() {
    let cfg = GenConfig::default();
    for case in 0..QUERY_CASES {
        let seed = 0x0071_1000 + case as u64;
        let mut rng = Rng::new(seed);
        let ws = gen_world_set(&mut rng, &cfg);
        let (text, _) = gen_query(&mut rng, &ws, 2);
        let catalog = Catalog::from_world_set(&ws);

        let optimized = compile(&catalog, &text)
            .unwrap_or_else(|e| panic!("seed {seed}: {text}\n{}", e.render(&text)));
        let raw = compile_unoptimized(&catalog, &text)
            .unwrap_or_else(|e| panic!("seed {seed}: {text}\n{}", e.render(&text)));
        let a = execute(&ws, &optimized, &format!("seed {seed}, optimized: {text}"));
        let b = execute(&ws, &raw, &format!("seed {seed}, raw: {text}"));
        assert_eq!(a, b, "seed {seed}: execution differs for: {text}");

        let twice = optimize_with_stats(&optimized, &catalog).expect("re-optimization succeeds");
        assert_eq!(
            optimized.to_string(),
            twice.to_string(),
            "seed {seed}: optimization is not idempotent for: {text}"
        );
    }
}
