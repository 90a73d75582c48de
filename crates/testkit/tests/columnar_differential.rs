//! Differential tests for the columnar execution core: the row↔columnar
//! conversion must round-trip exactly over every value type, the columnar
//! executor must agree with the enumerate-all-worlds oracle on random plans
//! and uncertainty constructs, the columnar normalization path must
//! produce byte-identical rows to the row-oriented reference rewrite, and
//! the column-at-a-time sweeps (key hashing, `column op literal` filters)
//! must equal their per-row references. Pushing rows into a relation is the
//! conversion: the same per-row step, the same cells and dictionaries.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::hash::{BuildHasher, Hash, Hasher};

use maybms_algebra::predicate::BoundPredicate;
use maybms_algebra::{col, lit, naive, run, CmpOp, Operand, Predicate};
use maybms_core::columnar::{
    canonical_order, ColView, ColumnData, ColumnVec, ColumnarURelation, SortStats, StrPool,
};
use maybms_core::normalize::normalize_relation;
use maybms_core::rng::Rng;
use maybms_core::{
    ComponentId, ComponentSet, DescId, DescriptorPool, FxBuildHasher, Schema, Tuple, URelation,
    Value, ValueType, WorldSet, WsDescriptor,
};
use maybms_ql::{certain, conf, possible};
use maybms_testkit::oracle::normalize_rows;
use maybms_testkit::{
    as_an_answer, assert_image_as_built, assert_same_columns, assert_same_image, certain_oracle,
    conf_oracle, gen_descriptor, gen_mixed_relation, gen_plan, gen_typed_world_set, gen_world_set,
    per_world_results, possible_oracle, pushed, GenConfig, WORLD_LIMIT,
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
            rel = URelation::new(rel.schema().clone());
            for (t, d) in rows {
                rel.push_unchecked(t, d);
            }
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

        // Cell accessors must mirror the tuple values, and the canonical
        // order their total order: a row's tuple ranks among the distinct
        // tuples as the tuple does among the values.
        let (perm, runs) = canonical_order(
            col.columns(),
            col.descs(),
            &pool,
            &strings,
            &mut SortStats::default(),
        );
        let mut tuple_rank = vec![0; col.len()];
        for (r, &(start, end)) in runs.iter().enumerate() {
            for &i in &perm[start as usize..end as usize] {
                tuple_rank[i as usize] = r;
            }
        }
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
                    tuple_rank[i].cmp(&tuple_rank[j]),
                    ti.cmp(tj),
                    "case {case}: canonical order of rows {i},{j}"
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

        let (perm, runs) = canonical_order(
            col.columns(),
            col.descs(),
            &pool,
            &strings,
            &mut SortStats::default(),
        );
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

/// Long key ties through `canonical_order`'s integer paths: 300–420 rows
/// over four distinct tuples, whose descriptors mix ⊤, one-term lists and
/// multi-term lists that share first terms, and hold equal descriptors
/// under distinct handles (conjunction results). The string column's pool
/// holds unused and out-of-order codes, and `NULL` cells; any two integer
/// cells differ in bits 0–1, 8–9 and 16–17, three radix digits apart. Odd
/// cases add a nullable integer column whose coarse keys tie 2 with 3, and
/// two tuples that differ only there, so that key ties hold several tuples.
/// As in the round trip above, the order must be the rows' `(Tuple,
/// WsDescriptor)` order, ties by row id, runs included.
#[test]
fn canonical_order_over_long_key_ties() {
    const WIDE: [i64; 4] = [
        -(1 << 40),
        0x1_0101 - (1 << 40),
        0x2_0202 - (1 << 40),
        0x3_0303 - (1 << 40),
    ];
    for case in 0..60u64 {
        let mut rng = Rng::new(0xC01_71E5 ^ case);
        let mut strings = StrPool::new();
        for s in ["zeta", "unused-1", "beta", "alpha", "unused-0"] {
            strings.intern(s);
        }
        let mut pool = DescriptorPool::new();
        let mut single = |c: u32, a: u16| pool.intern(&WsDescriptor::single(ComponentId(c), a));
        let mut palette = vec![DescId::TAUTOLOGY, single(0, 1), single(1, 0), single(2, 2)];
        let base = single(0, 0);
        let others = [single(1, 0), single(1, 1), single(3, 0), single(2, 2)];
        palette.push(base);
        for other in others {
            // Each conjunction is sealed under a handle of its own.
            for _ in 0..2 {
                palette.push(pool.conjoin(base, other).expect("consistent"));
            }
        }
        let pair = pool.conjoin(base, others[0]).expect("consistent");
        palette.push(pool.conjoin(pair, others[2]).expect("consistent"));

        let nullable = case % 2 == 1;
        let mut schema = vec![("s", ValueType::Str), ("x", ValueType::Int)];
        if nullable {
            schema.push(("y", ValueType::Int));
        }
        let schema = Schema::of(&schema).expect("distinct columns");
        let mut tuples: Vec<Vec<Value>> = (0..4)
            .map(|t| {
                let s = match rng.below(4) {
                    0 => Value::Null,
                    k => Value::str(["zeta", "alpha", "beta"][k - 1]),
                };
                let mut cells = vec![s, Value::Int(WIDE[t])];
                if nullable {
                    cells.push(
                        rng.pick(&[Value::Null, Value::Int(2), Value::Int(3)])
                            .clone(),
                    );
                }
                cells
            })
            .collect();
        if nullable {
            let shared = tuples[0][..2].to_vec();
            tuples[1][..2].clone_from_slice(&shared);
            (tuples[0][2], tuples[1][2]) = (Value::Int(2), Value::Int(3));
        }
        let mut cols: Vec<ColumnVec> = schema
            .columns()
            .iter()
            .map(|c| ColumnVec::new(c.ty))
            .collect();
        let mut descs = Vec::new();
        for _ in 0..rng.range(300, 421) {
            for (col, v) in cols.iter_mut().zip(rng.pick(&tuples)) {
                col.push(v, &mut strings);
            }
            descs.push(*rng.pick(&palette));
        }
        let col = ColumnarURelation::from_parts(schema, cols, descs);

        let mut stats = SortStats::default();
        let (perm, runs) = canonical_order(col.columns(), col.descs(), &pool, &strings, &mut stats);
        let rows: Vec<(Tuple, WsDescriptor)> = (0..col.len())
            .map(|i| {
                (
                    col.tuple_at(i, &strings),
                    pool.to_descriptor(col.descs()[i]),
                )
            })
            .collect();
        let mut expected: Vec<u32> = (0..col.len() as u32).collect();
        expected.sort_by(|&i, &j| rows[i as usize].cmp(&rows[j as usize]));
        assert_eq!(perm, expected, "case {case}: canonical order");
        let mut expected_runs = Vec::new();
        for k in 1..=perm.len() {
            let start = expected_runs.last().map_or(0, |&(_, end)| end);
            if k == perm.len() || rows[perm[k] as usize].0 != rows[perm[start as usize] as usize].0
            {
                expected_runs.push((start, k as u32));
            }
        }
        assert_eq!(runs, expected_runs, "case {case}: tuple runs");
        assert!(
            stats.radix_passes > 0,
            "case {case}: the keys were radix-sorted"
        );
        assert!(
            stats.tie_cmps > 0,
            "case {case}: key ties compared contents"
        );
    }
}

/// The per-cell FxHash fold the executor hashed join keys, dedup rows and
/// SIP keys with before the column sweeps: each cell written into one
/// hasher — `NULL` as a `0u8`, a float by its bits, anything else through
/// its `Hash` impl. `ColView::hash_into` must reproduce it bit for bit.
fn reference_hash(views: &[ColView<'_>], row: usize) -> u64 {
    let mut h = FxBuildHasher::default().build_hasher();
    for v in views {
        let (c, p) = (v.col(), v.phys(row));
        if c.is_null(p) {
            h.write_u8(0);
            continue;
        }
        match c.data() {
            ColumnData::Null(_) => h.write_u8(0),
            ColumnData::Bool(x) => x[p].hash(&mut h),
            ColumnData::Int(x) => x[p].hash(&mut h),
            ColumnData::Float(x) => x[p].to_bits().hash(&mut h),
            ColumnData::Str(x) => x[p].hash(&mut h),
        }
    }
    h.finish()
}

/// Literals of every variant, `NaN`, both zeros and `NULL` among them.
fn sweep_literals() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Bool(false),
        Value::Bool(true),
        Value::Int(-1),
        Value::Int(0),
        Value::Int(2),
        Value::float(-0.0),
        Value::float(0.0),
        Value::float(0.5),
        Value::float(-1.5),
        Value::float(f64::NAN),
        Value::str("s1"),
    ]
}

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// The column sweeps equal their per-row references over every storage
/// variant — `NULL`s, `NaN`, `-0.0` and `0.0` included — read dense,
/// through a row-id map, and with a selection on top of either (folded
/// into the view's map): `ColView::hash_into` equals the old per-cell
/// FxHash fold for single- and multi-column keys, and
/// `BoundPredicate::retain_views` keeps exactly the rows `matches_views`
/// accepts, for all six operators, the literal on either side, literals of
/// every variant, and conjunctions of swept and row-wise leaves.
#[test]
fn column_sweeps_match_per_row_references() {
    let literals = sweep_literals();
    for case in 0..CASES {
        let mut rng = Rng::new(0xC01_5EE9 ^ case);
        let ws = gen_world_set(&mut rng, &GenConfig::default());
        let mut rel = gen_mixed_relation(&mut rng, &ws);
        if case % 2 == 1 && !rel.is_empty() {
            let n = rng.range(20, 80);
            rel = grown(&mut rng, &ws, &rel, n);
        }
        let (mut pool, mut strings) = (DescriptorPool::new(), StrPool::new());
        let c = ColumnarURelation::from_urelation(&rel, &mut pool, &mut strings);
        let n = c.len();
        let arity = c.columns().len();
        // A row-id map drawing rows with repeats, as a join's does.
        let ids: Vec<u32> = match n {
            0 => Vec::new(),
            _ => (0..rng.range(1, 2 * n))
                .map(|_| rng.below(n) as u32)
                .collect(),
        };
        for (map, len) in [(None, n), (Some(&ids), ids.len())] {
            // A selection on top, folded into the view's map as the
            // executor's `Batch::restrict` folds it.
            let sel: Vec<u32> = (0..len as u32).filter(|_| rng.chance(0.6)).collect();
            let selected: Vec<u32> = match map {
                None => sel.clone(),
                Some(ids) => sel.iter().map(|&i| ids[i as usize]).collect(),
            };
            for (map, len) in [(map, len), (Some(&selected), sel.len())] {
                let views: Vec<ColView<'_>> = c
                    .columns()
                    .iter()
                    .map(|col| ColView::with_ids(col, map.map(Vec::as_slice)))
                    .collect();
                let views = &views;
                let live: Vec<u32> = (0..len as u32).collect();
                let at = format!("case {case}: {len} rows, row map {map:?}\n{rel}");

                // Hashing: each single column, then a random multi-column key.
                let mut keys: Vec<Vec<usize>> = (0..arity).map(|k| vec![k]).collect();
                keys.push((0..rng.range(2, 4)).map(|_| rng.below(arity)).collect());
                for key in &keys {
                    let mut got = vec![0u64; len];
                    for &k in key {
                        views[k].hash_into(&mut got);
                    }
                    let key_views: Vec<ColView<'_>> = key.iter().map(|&k| views[k]).collect();
                    let want: Vec<u64> = live
                        .iter()
                        .map(|&r| reference_hash(&key_views, r as usize))
                        .collect();
                    assert_eq!(got, want, "{at}: key {key:?}");
                }

                // σ: every operator against every literal, on either side.
                let schema = c.schema();
                let sweep = |pred: &Predicate| {
                    let bound: BoundPredicate = pred.bind(schema).expect("columns exist");
                    let mut got = live.clone();
                    bound.retain_views(views, &mut got, &strings);
                    let want: Vec<u32> = live
                        .iter()
                        .copied()
                        .filter(|&r| bound.matches_views(views, r as usize, &strings))
                        .collect();
                    assert_eq!(got, want, "{at}: {pred}");
                };
                let names: Vec<String> = schema.names().iter().map(|s| s.to_string()).collect();
                let mut leaves = Vec::new();
                for name in &names {
                    for v in &literals {
                        for op in OPS {
                            let leaf = Predicate::cmp(op, col(name.as_str()), lit(v.clone()));
                            sweep(&leaf);
                            sweep(&Predicate::cmp(op, lit(v.clone()), col(name.as_str())));
                            leaves.push(leaf);
                        }
                    }
                }
                // Conjunctions mixing swept leaves with row-wise ones
                // (column against column, `OR`, `NOT`).
                for _ in 0..8 {
                    let mut conjuncts: Vec<Predicate> = (0..rng.range(1, 3))
                        .map(|_| rng.pick(&leaves).clone())
                        .collect();
                    let (a, b) = (rng.pick(&names).clone(), rng.pick(&names).clone());
                    let op = *rng.pick(&OPS);
                    conjuncts.push(Predicate::cmp(op, Operand::Column(a), Operand::Column(b)));
                    conjuncts.push(Predicate::Not(Box::new(rng.pick(&leaves).clone())));
                    conjuncts.push(Predicate::Or(vec![
                        rng.pick(&leaves).clone(),
                        rng.pick(&leaves).clone(),
                    ]));
                    sweep(&Predicate::And(conjuncts));
                }
            }
        }
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
/// property, re-checked against the row-map operators.
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

/// A relation built by `push` is `from_urelation` of the same rows into
/// fresh pools, field for field: the same cells (`NULL`, `NaN` and `-0.0`
/// among them), the same descriptor ids, the same two dictionaries entry for
/// entry. So is a run's answer over the same rows once a world set stores
/// it.
#[test]
fn pushing_is_the_conversion() {
    let cfg = GenConfig {
        max_arity: 4,
        ..GenConfig::default()
    };
    for case in 0..CASES {
        let mut rng = Rng::new(0x9054_C0DE ^ case);
        let ws = gen_typed_world_set(&mut rng, &cfg);
        for (name, rel) in &ws.relations {
            let at = format!("case {case}: {name}");
            assert_converts(&pushed(rel), &ws.components, &at);
            assert_converts(rel, &ws.components, &at);
        }
    }
}

/// `rel` is what converting its rows into fresh pools gives; a run's answer
/// over the same rows reads as `rel` does, and a world set stores it as
/// `rel`, field for field. `components` are those `rel`'s descriptors name.
fn assert_converts(rel: &URelation, components: &ComponentSet, at: &str) {
    let (mut pool, mut strings) = (DescriptorPool::new(), StrPool::new());
    let converted = ColumnarURelation::from_urelation(rel, &mut pool, &mut strings);
    assert_eq!(
        format!("{:?}", rel.columns()),
        format!("{converted:?}"),
        "{at}"
    );
    assert_same_columns(rel, (&converted, &pool, &strings), at);
    let answer = as_an_answer(rel);
    assert_eq!(answer.rows(), rel.rows(), "{at}");
    assert_eq!(answer.to_string(), rel.to_string(), "{at}");
    let mut ws = WorldSet {
        components: components.clone(),
        ..WorldSet::new()
    };
    ws.insert("r", as_an_answer(rel)).unwrap();
    assert_same_image(&ws.relations["r"], rel, at);
}

/// The dictionary edges: the empty string, strings that are prefixes of one
/// another, one string in two columns, an all-`NULL` string column and an
/// all-⊤ descriptor column.
#[test]
fn dictionary_edges_push_convert_and_scan_exactly() {
    let schema = Schema::of(&[
        ("s", ValueType::Str),
        ("t", ValueType::Str),
        ("n", ValueType::Str),
    ])
    .unwrap();
    let mut rel = URelation::new(schema);
    let cells = [("ab", ""), ("", "abc"), ("a", "ab"), ("abc", "a"), ("", "")];
    for (s, t) in cells {
        let tuple = Tuple::new(vec![Value::str(s), Value::str(t), Value::Null]);
        rel.push(tuple, WsDescriptor::tautology()).unwrap();
    }
    assert_converts(&rel, &ComponentSet::new(), "edges");
    // In first-occurrence order by row, each string once for both columns.
    let strings = rel.strings();
    let entries: Vec<&str> = (0..strings.len() as u32).map(|c| strings.get(c)).collect();
    assert_eq!(entries, ["ab", "", "abc", "a"]);
    // Nothing but the tautology, and a certain relation.
    assert_eq!(rel.descriptors().len(), 1);
    assert!(rel.is_certain());
    let n = rel.columns().column(2);
    assert!((0..rel.len()).all(|i| n.is_null(i)));
    // Scanned into pools that hold a prefix and the empty string under
    // other codes, every cell reads back as pushed.
    let (mut pool, mut run_strings) = (DescriptorPool::new(), StrPool::new());
    for s in ["abcd", "a", ""] {
        run_strings.intern(s);
    }
    let scan = rel.scan(&mut pool, &mut run_strings);
    for (i, (t, _)) in rel.rows().iter().enumerate() {
        for (c, col) in scan.columns().iter().enumerate() {
            assert_eq!(&col.value(i, &run_strings), t.get(c), "cell ({i}, {c})");
        }
    }
    assert_eq!(run_strings.len(), 5, "`ab` and `abc` appended");
    assert_eq!(pool.stats().intern_calls, 0);
}

/// The columnar normalization pipeline must emit byte-identical rows to the
/// row-oriented reference rewrite — including on mixed-type relations with
/// strings, floats, and nulls — as what pushing those rows makes, field for
/// field. Each relation goes in twice, pushed and as a run's answer out of
/// busy pools.
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
