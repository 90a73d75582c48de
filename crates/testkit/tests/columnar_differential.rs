//! Differential tests for the columnar execution core: the row↔columnar
//! conversion must round-trip exactly over every value type, the columnar
//! executor must agree with the enumerate-all-worlds oracle on random plans
//! and uncertainty constructs, and the columnar normalization path must
//! produce byte-identical rows to the row-oriented reference rewrite.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use maybms_algebra::{naive, run};
use maybms_core::columnar::{canonical_order, ColumnarURelation, StrPool};
use maybms_core::normalize::normalize_relation;
use maybms_core::rng::Rng;
use maybms_core::{ComponentId, DescriptorPool, Tuple, URelation, Value, WorldSet, WsDescriptor};
use maybms_ql::{certain, conf, possible};
use maybms_testkit::oracle::normalize_rows;
use maybms_testkit::{
    as_an_answer, assert_image_as_built, certain_oracle, conf_oracle, gen_descriptor,
    gen_mixed_relation, gen_plan, gen_world_set, per_world_results, possible_oracle, GenConfig,
    WORLD_LIMIT,
};

const CASES: u64 = 120;
const EPS: f64 = 1e-9;

/// Row → columnar → row must reproduce the relation exactly — tuples, row
/// order, descriptors, nulls, and float bit patterns included; the sort keys
/// must never contradict the full cell order; and the canonical order must
/// be the rows' `(Tuple, WsDescriptor)` order, ties by row id.
#[test]
fn row_columnar_roundtrip_is_exact() {
    for case in 0..200u64 {
        let mut rng = Rng::new(0xC01_0000 ^ case);
        let ws = gen_world_set(&mut rng, &GenConfig::default());
        let mut rel = gen_mixed_relation(&mut rng, &ws);
        // Odd cases grow to 65–200 rows, enough for long runs of equal keys
        // and several radix digits; every fourth case arrives already in
        // canonical order.
        if case % 2 == 1 && !rel.is_empty() {
            let n = rng.range(65, 200);
            rel = grown(&mut rng, &ws, &rel, n);
        }
        if case % 4 == 3 {
            let mut rows = rel.rows().to_vec();
            rows.sort();
            rel = URelation::from_rows_unchecked(rel.schema().clone(), rows);
        }

        let mut pool = DescriptorPool::new();
        let mut strings = StrPool::new();
        // Codes out of string order: these strings are coded first.
        for s in ["s4", "shared8-s3", "s1"] {
            strings.intern(s);
        }
        let col = ColumnarURelation::from_urelation(&rel, &mut pool, &mut strings);
        assert_eq!(col.len(), rel.len(), "case {case}: row count drifted");
        assert_eq!(
            col.to_urelation(&pool, &strings),
            rel,
            "case {case}: round-trip diverged\n{rel}"
        );

        // Cell accessors must mirror the tuple values and their total order.
        let keys: Vec<(Vec<u64>, bool)> = col
            .columns()
            .iter()
            .map(|c| c.sort_keys(&strings))
            .collect();
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
                for (k, (keys, exact)) in keys.iter().enumerate() {
                    // A strictly smaller key must mean a strictly smaller
                    // cell; on an exact column, equal keys equal cells.
                    let cells = ti.get(k).cmp(tj.get(k));
                    if keys[i] < keys[j] {
                        assert_eq!(
                            cells,
                            Ordering::Less,
                            "case {case}: sort key contradicts cell order at ({i},{j},{k})"
                        );
                    }
                    if *exact && keys[i] == keys[j] {
                        assert_eq!(
                            cells,
                            Ordering::Equal,
                            "case {case}: exact sort key ties unequal cells at ({i},{j},{k})"
                        );
                    }
                }
            }
        }

        let (perm, runs) = canonical_order(col.columns(), col.descs(), &pool, &strings);
        let row = |i: u32| &rel.rows()[i as usize];
        let mut expected: Vec<u32> = (0..rel.len() as u32).collect();
        expected.sort_by(|&i, &j| row(i).cmp(row(j)));
        assert_eq!(perm, expected, "case {case}: canonical order\n{rel}");
        let mut expected_runs = Vec::new();
        for k in 1..=perm.len() {
            let start = expected_runs.last().map_or(0, |&(_, end)| end);
            if k == perm.len() || row(perm[k]).0 != row(perm[start as usize]).0 {
                expected_runs.push((start, k as u32));
            }
        }
        assert_eq!(runs, expected_runs, "case {case}: tuple runs\n{rel}");
    }
}

/// `n` rows drawn from `rel`'s, each with its strings behind a shared 8-byte
/// prefix and a fresh descriptor — half of them two terms sharing the first.
fn grown(rng: &mut Rng, ws: &WorldSet, rel: &URelation, n: usize) -> URelation {
    let mut out = URelation::new(rel.schema().clone());
    let comps = ws.components.len();
    for _ in 0..n {
        let (t, _) = rng.pick(rel.rows());
        let t = Tuple::new(
            t.values()
                .iter()
                .map(|v| match v {
                    Value::Str(s) => Value::str(format!("shared8-{s}")),
                    v => v.clone(),
                })
                .collect(),
        );
        let d = if comps > 1 && rng.chance(0.5) {
            let second = ComponentId(rng.range(1, comps - 1) as u32);
            WsDescriptor::from_terms(vec![(ComponentId(0), 0), (second, rng.below(2) as u16)])
                .expect("distinct components cannot conflict")
        } else {
            gen_descriptor(rng, ws)
        };
        out.push(t, d).expect("drawn tuples match the schema");
    }
    out
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
