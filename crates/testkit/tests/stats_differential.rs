//! `collect_stats` ≡ a walk over the rows.
//!
//! Statistics are read off a relation's columnar image — typed column loops,
//! one sketch observation per distinct dictionary string — and memoised
//! inside that image. The oracle
//! ([`stats_by_rows`]) is the row walk they replaced: one observation per
//! cell, nothing kept. The two must agree in **every field, the `f64`s by
//! `==`**, or a plan's `est_rows=` moves.
//!
//! `image_differential` holds every relation its 210 walks store to this
//! after every statement. Here are the values a random walk does not draw —
//! NaN, −0.0, `NULL`s in every column type, a `null`-typed column, one string
//! under two `Str` columns, domains past the sketch's exact range — over
//! certain and uncertain relations, born from rows and born from a run; the
//! memo's one way to go stale (the rows change); normalization, which
//! renumbers the components; and the empty relation.

use maybms_algebra::{run, Plan};
use maybms_core::rng::Rng;
use maybms_core::{
    collect_stats, Component, ComponentId, ComponentSet, Schema, Tuple, URelation, Value,
    ValueType, WorldSet, WsDescriptor,
};
use maybms_testkit::oracle::stats_by_rows;

/// Both ways a relation comes to be — its rows pushed, and the answer of a
/// run that scans it (born with its image, rows never built until the oracle
/// asks) — must collect what the oracle walks.
fn assert_collects_like_a_row_walk(rel: &URelation, comps: &ComponentSet, at: &str) {
    let want = stats_by_rows(rel);
    assert_eq!(collect_stats(rel), want, "{at}: from rows");
    // A second call is served by the memo.
    assert_eq!(collect_stats(rel), want, "{at}: memoised");
    let mut ws = WorldSet {
        components: comps.clone(),
        ..WorldSet::default()
    };
    ws.insert("r", rel.clone()).expect("valid descriptors");
    let answer = run(&mut ws, &Plan::scan("r")).expect("a scan runs");
    assert_eq!(collect_stats(&answer), want, "{at}: from a run");
    assert_eq!(&answer, rel, "{at}");
}

fn components(alternatives: &[usize]) -> ComponentSet {
    let mut comps = ComponentSet::new();
    for &n in alternatives {
        comps.add(Component::uniform(n).expect("at least one alternative"));
    }
    comps
}

/// Every column type, each with `NULL`s, plus the value-domain edges.
fn edge_relation(uncertain: bool) -> URelation {
    let schema = Schema::of(&[
        ("i", ValueType::Int),
        ("f", ValueType::Float),
        ("s", ValueType::Str),
        ("t", ValueType::Str),
        ("b", ValueType::Bool),
        ("z", ValueType::Null),
    ])
    .unwrap();
    let nan_payload = f64::from_bits(f64::NAN.to_bits() ^ 1);
    let rows: Vec<[Value; 5]> = vec![
        [
            7.into(),
            Value::float(0.0),
            "m".into(),
            "b".into(),
            true.into(),
        ],
        [
            Value::Null,
            Value::float(-0.0),
            "b".into(),
            "m".into(),
            Value::Null,
        ],
        [
            i64::MIN.into(),
            Value::float(f64::NAN),
            Value::Null,
            "m".into(),
            false.into(),
        ],
        [
            i64::MAX.into(),
            Value::float(nan_payload),
            "".into(),
            Value::Null,
            false.into(),
        ],
        [7.into(), Value::Null, "m".into(), "zz".into(), true.into()],
        [
            (-1).into(),
            Value::float(f64::NEG_INFINITY),
            "ü".into(),
            "".into(),
            true.into(),
        ],
        [
            0.into(),
            Value::float(-f64::NAN),
            "m".into(),
            "b".into(),
            Value::Null,
        ],
    ];
    let mut rel = URelation::new(schema);
    for (n, row) in rows.into_iter().enumerate() {
        let desc = match n % 3 {
            _ if !uncertain => WsDescriptor::tautology(),
            0 => WsDescriptor::tautology(),
            1 => WsDescriptor::single(ComponentId(2), 1),
            _ => WsDescriptor::from_terms(vec![(ComponentId(0), 0), (ComponentId(2), 2)]).unwrap(),
        };
        let mut values = row.to_vec();
        values.push(Value::Null);
        rel.push(Tuple::new(values), desc).unwrap();
    }
    rel
}

#[test]
fn value_domain_edges_collect_like_a_row_walk() {
    let comps = components(&[2, 5, 3]);
    for uncertain in [false, true] {
        let rel = edge_relation(uncertain);
        let at = format!("uncertain = {uncertain}");
        assert_collects_like_a_row_walk(&rel, &comps, &at);
        let stats = collect_stats(&rel);
        // One string under two columns counts in both; `NULL` is a value.
        assert_eq!(stats.columns["s"].distinct, 5.0, "{at}");
        assert_eq!(stats.columns["t"].distinct, 5.0, "{at}");
        assert_eq!(stats.columns["z"].distinct, 1.0, "{at}");
        assert_eq!(
            stats.columns["z"].min_max,
            Some((Value::Null, Value::Null)),
            "{at}"
        );
        let last_nan = Value::float(f64::from_bits(f64::NAN.to_bits() ^ 1));
        assert_eq!(
            stats.columns["f"].min_max,
            Some((Value::Null, last_nan)),
            "{at}: NULL < -NaN < -inf < -0.0 < 0.0 < NaN < NaN with a payload bit"
        );
    }
    // All-`NULL` typed columns, and no rows at all.
    let schema = Schema::of(&[("s", ValueType::Str), ("i", ValueType::Int)]).unwrap();
    let mut nulls = URelation::new(schema.clone());
    for _ in 0..3 {
        nulls
            .push(
                Tuple::new(vec![Value::Null, Value::Null]),
                WsDescriptor::single(ComponentId(1), 4),
            )
            .unwrap();
    }
    assert_collects_like_a_row_walk(&nulls, &comps, "all NULL");
    assert_collects_like_a_row_walk(&URelation::new(schema), &comps, "empty");
}

/// Past 256 distinct values a sketch stops counting and starts estimating:
/// the estimate is a function of the *set* of hashes, so one observation per
/// distinct string gives the very same float as one per cell.
#[test]
fn estimated_domains_collect_like_a_row_walk() {
    let comps = components(&[4; 40]);
    let schema = Schema::of(&[
        ("i", ValueType::Int),
        ("s", ValueType::Str),
        ("t", ValueType::Str),
        ("f", ValueType::Float),
    ])
    .unwrap();
    for seed in 0..6u64 {
        let mut rng = Rng::new(0x57A7 ^ (seed << 20));
        let mut rel = URelation::new(schema.clone());
        for _ in 0..3_000 {
            let null = |rng: &mut Rng, v: Value| if rng.chance(0.05) { Value::Null } else { v };
            let i = Value::Int(rng.below(2_000) as i64 - 1_000);
            let s = Value::str(format!("k{}", rng.below(900)));
            // Shares `s`'s strings, and has few enough to count exactly.
            let t = Value::str(format!("k{}", rng.below(200)));
            let f = Value::float(rng.below(700) as f64 / 7.0 - 50.0);
            let desc = match rng.below(3) {
                0 => WsDescriptor::tautology(),
                _ => WsDescriptor::single(ComponentId(rng.below(40) as u32), rng.below(4) as u16),
            };
            let values = vec![null(&mut rng, i), null(&mut rng, s), t, null(&mut rng, f)];
            rel.push(Tuple::new(values), desc).unwrap();
        }
        assert_collects_like_a_row_walk(&rel, &comps, &format!("seed {seed}"));
        let stats = collect_stats(&rel);
        assert_eq!(stats.columns["t"].distinct, 200.0, "seed {seed}");
        assert!(
            stats.columns["s"].distinct > 256.0,
            "seed {seed}: estimated"
        );
    }
}

/// The memo holds nothing that depends on the component set, and does not
/// survive the rows it was collected from.
#[test]
fn neither_new_rows_nor_new_components_are_served_a_stale_memo() {
    let comps = components(&[2, 5, 3]);
    let mut rel = edge_relation(true);
    let before = collect_stats(&rel);
    // Each public way to write rows; `normalize` (which replaces the
    // relation with a new image) after them.
    let extra = rel.rows()[0].0.clone();
    rel.push(extra.clone(), WsDescriptor::single(ComponentId(1), 3))
        .unwrap();
    assert_eq!(collect_stats(&rel), stats_by_rows(&rel));
    assert_ne!(collect_stats(&rel), before);
    rel.push_unchecked(extra, WsDescriptor::single(ComponentId(1), 3));
    assert_eq!(collect_stats(&rel), stats_by_rows(&rel));
    assert_eq!(collect_stats(&rel).rows, 9);
    rel.dedup();
    assert_eq!(collect_stats(&rel), stats_by_rows(&rel));
    assert_eq!(collect_stats(&rel).rows, 8);
    let mut ws = WorldSet {
        components: comps,
        ..WorldSet::default()
    };
    ws.insert("r", rel).unwrap();
    assert_eq!(collect_stats(&ws.relations["r"]).rows, 8);
    // The pushed row's tuple is also the first row's, which holds in every
    // world: normalization absorbs it.
    ws.normalize();
    let rel = &ws.relations["r"];
    assert_eq!(collect_stats(rel), stats_by_rows(rel));
    assert_eq!(collect_stats(rel).rows, 7);
}
