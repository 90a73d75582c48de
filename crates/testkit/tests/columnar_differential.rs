//! Differential tests for the columnar execution core: the row↔columnar
//! conversion must round-trip exactly over every value type, the columnar
//! executor must agree with the enumerate-all-worlds oracle on random plans
//! and uncertainty constructs, and the columnar normalization path must
//! produce byte-identical rows to the row-oriented reference rewrite.

use std::collections::BTreeMap;

use maybms_algebra::{naive, run};
use maybms_core::columnar::{ColumnarURelation, StrPool};
use maybms_core::normalize::normalize_relation;
use maybms_core::rng::Rng;
use maybms_core::{DescriptorPool, Tuple, URelation, Value};
use maybms_ql::{certain, conf, possible};
use maybms_testkit::oracle::normalize_rows;
use maybms_testkit::{
    as_an_answer, assert_image_as_built, certain_oracle, conf_oracle, gen_mixed_relation, gen_plan,
    gen_world_set, per_world_results, possible_oracle, GenConfig, WORLD_LIMIT,
};

const CASES: u64 = 120;
const EPS: f64 = 1e-9;

/// Row → columnar → row must reproduce the relation exactly — tuples, row
/// order, descriptors, nulls, and float bit patterns included — and the
/// coarse sort key must never contradict the full cell order.
#[test]
fn row_columnar_roundtrip_is_exact() {
    for case in 0..200u64 {
        let mut rng = Rng::new(0xC01_0000 ^ case);
        let ws = gen_world_set(&mut rng, &GenConfig::default());
        let rel = gen_mixed_relation(&mut rng, &ws);

        let mut pool = DescriptorPool::new();
        let mut strings = StrPool::new();
        let col = ColumnarURelation::from_urelation(&rel, &mut pool, &mut strings);
        assert_eq!(col.len(), rel.len(), "case {case}: row count drifted");
        assert_eq!(
            col.to_urelation(&pool, &strings),
            rel,
            "case {case}: round-trip diverged\n{rel}"
        );

        // Cell accessors must mirror the tuple values and their total order.
        for i in 0..rel.len() {
            let (ti, _) = &rel.rows()[i];
            assert_eq!(col.tuple_at(i, &strings), *ti, "case {case}: row {i}");
            for j in 0..rel.len() {
                let (tj, _) = &rel.rows()[j];
                assert_eq!(
                    col.cmp_rows(i, j, &strings),
                    ti.cmp(tj),
                    "case {case}: cmp_rows({i},{j})"
                );
                for (k, c) in col.columns().iter().enumerate() {
                    // The sort prefix is a *coarse* order: strictly smaller
                    // prefix must mean strictly smaller cell.
                    let (pi, pj) = (c.sort_prefix(i, &strings), c.sort_prefix(j, &strings));
                    if pi < pj {
                        assert_eq!(
                            ti.get(k).cmp(tj.get(k)),
                            std::cmp::Ordering::Less,
                            "case {case}: sort_prefix contradicts cell order at ({i},{j},{k})"
                        );
                    }
                }
            }
        }
    }
}

/// The columnar executor, instantiated in each world, must equal the naive
/// single-world algebra run inside that world — the central soundness
/// property, re-checked against the selection-vector operators.
#[test]
fn columnar_executor_matches_world_oracle() {
    let cfg = GenConfig::default();
    for case in 0..CASES {
        let mut rng = Rng::new(0xC01_A5E ^ case);
        let ws = gen_world_set(&mut rng, &cfg);
        let plan = gen_plan(&mut rng, &ws, 3);

        let mut ws_eval = ws.clone();
        let result = run(&mut ws_eval, &plan)
            .unwrap_or_else(|e| panic!("case {case}: eval failed: {e}\nplan: {plan:?}"));

        for (pick, db, _prob) in ws.enumerate(WORLD_LIMIT).expect("small world set") {
            let expected = naive::eval(&plan, &db)
                .unwrap_or_else(|e| panic!("case {case}: naive eval failed: {e}"));
            let actual = result.instantiate(&pick);
            assert_eq!(
                actual, expected,
                "case {case}: world {pick:?} disagrees\nplan: {plan:?}\nwsd result:\n{result}"
            );
        }
    }
}

/// `possible` / `certain` / `conf` on the columnar ABI must agree with
/// world-enumeration aggregation, over random inner plans.
#[test]
fn columnar_uncertainty_ops_match_oracles() {
    let cfg = GenConfig::default();
    for case in 0..CASES {
        let mut rng = Rng::new(0xC01_0DD ^ case);
        let ws = gen_world_set(&mut rng, &cfg);
        let inner = gen_plan(&mut rng, &ws, 2);
        let worlds = per_world_results(&ws, &inner).expect("oracle evaluates");
        let schema = worlds.first().expect("≥ 1 world").0.schema().clone();

        match case % 3 {
            0 => {
                let mut ws_eval = ws.clone();
                let got = run(&mut ws_eval, &possible(inner.clone())).expect("possible runs");
                assert!(got.is_certain());
                assert_eq!(
                    as_relation(&got),
                    possible_oracle(&worlds, schema),
                    "case {case}: possible disagrees\nplan: {inner:?}"
                );
            }
            1 => {
                let mut ws_eval = ws.clone();
                let got = run(&mut ws_eval, &certain(inner.clone())).expect("certain runs");
                assert!(got.is_certain());
                assert_eq!(
                    as_relation(&got),
                    certain_oracle(&worlds, schema),
                    "case {case}: certain disagrees\nplan: {inner:?}"
                );
            }
            _ => {
                let mut ws_eval = ws.clone();
                let got = run(&mut ws_eval, &conf(inner.clone())).expect("conf runs");
                let expected = conf_oracle(&worlds);
                let got = conf_as_map(&got);
                assert_eq!(
                    got.keys().collect::<Vec<_>>(),
                    expected.keys().collect::<Vec<_>>(),
                    "case {case}: conf support disagrees\nplan: {inner:?}"
                );
                for (t, p) in &expected {
                    assert!(
                        (got[t] - p).abs() < EPS,
                        "case {case}: conf({t}) = {} but oracle says {p}\nplan: {inner:?}",
                        got[t]
                    );
                }
            }
        }
    }
}

/// The columnar normalization pipeline must emit byte-identical rows to the
/// row-oriented reference rewrite — including on mixed-type relations with
/// strings, floats, and nulls — and emit them as an image: the one a
/// conversion of those rows builds, field for field. Each relation goes in
/// twice, built from rows and born as a run's answer out of busy pools.
#[test]
fn columnar_normalize_matches_reference() {
    let cfg = GenConfig::default();
    for case in 0..150u64 {
        let mut rng = Rng::new(0xC01_4E04 ^ case);
        let ws = gen_world_set(&mut rng, &cfg);
        let mixed = gen_mixed_relation(&mut rng, &ws);
        let relations = ws
            .relations
            .values()
            .chain(std::iter::once(&mixed))
            .flat_map(|rel| [rel.clone(), as_an_answer(rel)])
            .collect::<Vec<URelation>>();

        for rel in relations {
            // Normalized before anyone reads the answer's rows.
            let mut got = rel.clone();
            normalize_relation(&mut got, &ws.components);
            let expected = normalize_rows(rel.rows().to_vec(), &ws.components);
            let at = format!("case {case}: normalized\n{rel}");
            assert!(got.is_empty() || got.has_image(), "{at}: no image");
            assert_eq!(
                got.rows(),
                expected.as_slice(),
                "case {case}: columnar normalize diverged from reference on\n{rel}"
            );
            assert_image_as_built(&got, &at);
        }
    }
}

/// Flatten a certain u-relation into a plain relation (asserts certainty).
fn as_relation(u: &URelation) -> maybms_core::Relation {
    let mut out = maybms_core::Relation::new(u.schema().clone());
    for (t, d) in u.rows() {
        assert!(d.is_tautology(), "expected a certain relation");
        out.insert(t.clone()).expect("schema-checked rows");
    }
    out
}

/// Read a `conf` result into a tuple → probability map (last column is the
/// confidence).
fn conf_as_map(u: &URelation) -> BTreeMap<Tuple, f64> {
    let conf_idx = u.schema().arity() - 1;
    u.rows()
        .iter()
        .map(|(t, _)| {
            let p = match t.get(conf_idx) {
                Value::Float(f) => f.get(),
                other => panic!("conf column holds {other:?}"),
            };
            (t.project(&(0..conf_idx).collect::<Vec<_>>()), p)
        })
        .collect()
}
