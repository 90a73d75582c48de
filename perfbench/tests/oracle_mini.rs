//! The same generators and statements at enumerable size (≤ 2¹⁶ worlds),
//! held to `maybms-testkit`'s enumerate-all-worlds oracles — so the digests
//! the benchmark compares at scale are known to mean the right thing, and so
//! is the DP it holds `CONF` to.

use std::collections::{BTreeMap, BTreeSet};

use maybms_algebra::naive;
use maybms_core::Relation;
use maybms_sql::ast::Quantifier;
use maybms_sql::{lower, parse_statement, Catalog, Query, Statement};
use maybms_testkit::{certain_oracle, conf_oracle, per_world_results, possible_oracle};
use perfbench::check::conf_reference;
use perfbench::engine::{
    Action, Compile, Output, Plan, Session, Tuple, URelation, Value, WorldSet,
};
use perfbench::spans::Spans;
use perfbench::workloads::{build, Shape, Sizes, EPS, NAMES};

/// Sizes at which every statement's inputs have at most 2¹⁶ worlds.
const MINI: Sizes = Sizes {
    join_n: 12,
    conf_t: 1,
    exact_links: Shape {
        uniform: 3,
        lo: 2,
        hi: 3,
    },
    disj_comps: Shape {
        uniform: 2,
        lo: 2,
        hi: 2,
    },
    sampled_links: Shape {
        uniform: 3,
        lo: 2,
        hi: 3,
    },
    dense_comps: Shape {
        uniform: 4,
        lo: 3,
        hi: 4,
    },
    repair_n: 12,
    small_rows: 30,
};

const WORLD_LIMIT: u128 = 1 << 16;

fn scans(plan: &Plan, names: &mut BTreeSet<String>) {
    if let Plan::Scan(name) = plan {
        names.insert(name.clone());
    }
    for child in plan.children() {
        scans(child, names);
    }
}

/// The part of `ws` a plan reads. When `ws` as a whole has too many worlds,
/// keep only the scanned relations and let `normalize` garbage-collect the
/// components nothing references any more (it preserves the distribution
/// over instances, which is all the quantifier oracles look at).
fn readable(ws: &WorldSet, plan: &Plan) -> WorldSet {
    if ws
        .components
        .world_count()
        .is_some_and(|n| n <= WORLD_LIMIT)
    {
        return ws.clone();
    }
    let mut names = BTreeSet::new();
    scans(plan, &mut names);
    let mut sub = WorldSet {
        components: ws.components.clone(),
        relations: ws
            .relations
            .iter()
            .filter(|(n, _)| names.contains(*n))
            .map(|(n, r)| (n.clone(), r.clone()))
            .collect(),
    };
    sub.normalize();
    assert!(
        sub.components
            .world_count()
            .is_some_and(|n| n <= WORLD_LIMIT),
        "inputs of a mini statement must be enumerable"
    );
    sub
}

fn as_relation(u: &URelation) -> Relation {
    assert!(u.is_certain(), "a quantified result is certain");
    Relation::from_rows(
        u.schema().clone(),
        u.rows().iter().map(|(t, _)| t.clone()).collect(),
    )
    .expect("rows match their own schema")
}

/// Split a query into its quantifier and the positive query under it.
fn unquantified(query: &Query) -> (Option<Quantifier>, Query) {
    match query {
        Query::Select(s) if s.quantifier.is_some() => {
            let mut inner = s.clone();
            let quantifier = inner.quantifier.take().map(|(q, _)| q);
            (quantifier, Query::Select(inner))
        }
        other => (None, other.clone()),
    }
}

/// Hold one MayQL result to the oracles. `before` is the world set the
/// statement read.
fn check_query(ctx: &str, before: &WorldSet, query: &Query, result: &URelation) {
    let (quantifier, inner) = unquantified(query);
    let catalog = Catalog::from_world_set(before);
    let (plan, schema) = lower(&catalog, &inner).unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
    let sub = readable(before, &plan);
    match quantifier {
        None => {
            // An uncertain result must instantiate, world by world, to what
            // the textbook algebra computes in that world.
            assert_eq!(
                sub, *before,
                "{ctx}: unquantified statements read enumerable worlds"
            );
            for (pick, db, _) in before.enumerate(WORLD_LIMIT).expect("enumerable") {
                let expected = naive::eval(&plan, &db).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert_eq!(result.instantiate(&pick), expected, "{ctx}: world {pick:?}");
            }
        }
        Some(q) => {
            let worlds = per_world_results(&sub, &plan).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            match q {
                Quantifier::Possible => {
                    assert_eq!(
                        as_relation(result),
                        possible_oracle(&worlds, schema),
                        "{ctx}"
                    );
                }
                Quantifier::Certain => {
                    assert_eq!(
                        as_relation(result),
                        certain_oracle(&worlds, schema),
                        "{ctx}"
                    );
                }
                Quantifier::Conf | Quantifier::ConfApprox { .. } => {
                    let tolerance = if q == Quantifier::Conf { 1e-9 } else { EPS };
                    let oracle = conf_oracle(&worlds);
                    assert_eq!(result.len(), oracle.len(), "{ctx}: tuple count");
                    for (t, _) in result.rows() {
                        let n = t.arity() - 1;
                        let key = Tuple::new(t.values()[..n].to_vec());
                        let Value::Float(conf) = t.get(n) else {
                            panic!("{ctx}: conf column holds {:?}", t.get(n));
                        };
                        let expected = oracle
                            .get(&key)
                            .unwrap_or_else(|| panic!("{ctx}: {key:?} is not possible"));
                        assert!(
                            (conf.get() - expected).abs() <= tolerance,
                            "{ctx}: conf({key:?}) = {conf}, oracle {expected}"
                        );
                    }
                }
            }
        }
    }
}

/// `conf(k, v)` of a weighted key repair is `w / Σ w` over the key's group.
fn check_repair_weights(ctx: &str, ws: &WorldSet, conf_kv: &URelation) {
    let int = |v: &Value| match v {
        Value::Int(i) => *i,
        other => panic!("{ctx}: expected an int, got {other:?}"),
    };
    let mut weight: BTreeMap<(i64, i64), f64> = BTreeMap::new();
    let mut total: BTreeMap<i64, f64> = BTreeMap::new();
    for (t, _) in ws.relations["form"].rows() {
        let (k, v, w) = (int(t.get(0)), int(t.get(1)), int(t.get(2)) as f64);
        weight.insert((k, v), w);
        *total.entry(k).or_insert(0.0) += w;
    }
    assert_eq!(conf_kv.len(), weight.len(), "{ctx}: one row per form row");
    for (t, _) in conf_kv.rows() {
        let (k, v) = (int(t.get(0)), int(t.get(1)));
        let Value::Float(conf) = t.get(2) else {
            panic!("{ctx}: conf column holds {:?}", t.get(2));
        };
        let expected = weight[&(k, v)] / total[&k];
        assert!(
            (conf.get() - expected).abs() <= 1e-9,
            "{ctx}: conf({k}, {v}) = {conf}, weights say {expected}"
        );
    }
}

fn check_workload(name: &str, seed: u64) {
    let workload = build(name, seed, &MINI).expect("known workload");
    let ws = workload.data.load().expect("generated data loads");
    let mut session = Session::start(ws, 1, Compile::Optimized);
    let mut spans = Spans::disabled();
    for (i, stmt) in workload.round.iter().enumerate() {
        let ctx = format!("{name} seed {seed} statement {i} ({})", stmt.id);
        let before = session.ws.clone();
        let output = session
            .execute(&stmt.action, &mut spans)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let Action::Sql(text) = &stmt.action else {
            // Normalize: the distribution over instances is untouched.
            let a = before
                .instance_distribution(WORLD_LIMIT)
                .expect("enumerable");
            let b = session
                .ws
                .instance_distribution(WORLD_LIMIT)
                .expect("enumerable");
            assert_eq!(a.len(), b.len(), "{ctx}: instance count");
            for ((da, pa), (db, pb)) in a.iter().zip(&b) {
                assert_eq!(da, db, "{ctx}: instances");
                assert!((pa - pb).abs() <= 1e-9, "{ctx}: {pa} vs {pb}");
            }
            continue;
        };
        let query = match parse_statement(text).unwrap_or_else(|e| panic!("{ctx}: {e:?}")) {
            Statement::Query(q) | Statement::Let { query: q, .. } => q,
            Statement::Explain { .. } => panic!("{ctx}: EXPLAIN in a round"),
        };
        if matches!(query, Query::Repair(_)) {
            // A repair mints components, so it has no per-world oracle over
            // the world set it read; `conf_kv` pins its distribution below.
            continue;
        }
        let result = match &output {
            Output::Rows(rel) => rel,
            Output::Stored(stored) => &session.ws.relations[stored],
            Output::World => panic!("{ctx}: MayQL does not normalize"),
        };
        check_query(&ctx, &before, &query, result);
        if stmt.id == "conf_kv" {
            check_repair_weights(&ctx, &before, result);
        }
    }
}

#[test]
fn every_workload_agrees_with_the_world_enumeration_oracles() {
    for name in NAMES {
        for seed in 1..=4 {
            check_workload(name, seed);
        }
    }
}

/// The benchmark's own DP against brute-force enumeration, on the shapes it
/// is used on.
#[test]
fn the_closed_form_dp_agrees_with_enumeration() {
    for name in ["conf_uniform", "conf_varied"] {
        for seed in 1..=8 {
            let ws = build(name, seed, &MINI)
                .expect("known workload")
                .data
                .load()
                .expect("generated data loads");
            for rel in ["chain10", "disj", "chain20", "dense"] {
                let plan = Plan::scan(rel);
                let worlds = per_world_results(&readable(&ws, &plan), &plan).expect("enumerable");
                let oracle = conf_oracle(&worlds);
                let dp = conf_reference(&ws, rel).expect("int ids");
                assert_eq!(dp.len(), oracle.len(), "{name} seed {seed} {rel}");
                for (id, p) in dp {
                    let expected = oracle[&Tuple::new(vec![Value::Int(id)])];
                    assert!(
                        (p - expected).abs() <= 1e-12,
                        "{name} seed {seed} {rel}: dp({id}) = {p}, enumeration {expected}"
                    );
                }
            }
        }
    }
}
