//! Golden tests pinning how MayQL compares values (ARCHITECTURE, "Value
//! semantics"): `NULL` is a value equal to itself — a join and `= NULL`
//! match it, and it sorts first — and floats compare by their total order,
//! so `-0.0` and `0.0` are two keys and `NaN` equals `NaN`.
//!
//! MayQL has no statement that writes a cell, so the relations are loaded
//! into a [`Session`]'s world set; every value a query can spell (`NULL`,
//! `-0.0`, `0.0`) is spelled in the MayQL text, and `NaN`, which it cannot,
//! sits in the loaded data only.

use maybms_core::{Relation, Schema, Tuple, URelation, Value, ValueType, WorldSet};
use maybms_sql::{Outcome, Session};

/// A certain relation of `rows` over `cols`.
fn certain(cols: &[(&str, ValueType)], rows: Vec<Vec<Value>>) -> URelation {
    let schema = Schema::of(cols).expect("distinct columns");
    let rel = Relation::from_rows(schema, rows.into_iter().map(Tuple::new).collect())
        .expect("rows match schema");
    URelation::from_certain(&rel)
}

/// `keys(k, a)` and `names(k, b)` share the key `k`, `NULL` in two rows of
/// `keys` and one of `names`. `fl(x, a)` and `fr(x, b)` share the float key
/// `x`: `0.0`, `-0.0` and `NaN` once each. `rk(x, a)` holds two rows under
/// `0.0` and two under `-0.0`.
fn world() -> WorldSet {
    let (int, float, str) = (ValueType::Int, ValueType::Float, ValueType::Str);
    let mut ws = WorldSet::new();
    let keys = certain(
        &[("k", int), ("a", str)],
        vec![
            vec![Value::Null, Value::str("n1")],
            vec![Value::Int(1), Value::str("one")],
            vec![Value::Int(2), Value::str("two")],
            vec![Value::Null, Value::str("n2")],
        ],
    );
    let names = certain(
        &[("k", int), ("b", str)],
        vec![
            vec![Value::Null, Value::str("null-b")],
            vec![Value::Int(1), Value::str("one-b")],
            vec![Value::Int(3), Value::str("three-b")],
        ],
    );
    let floats = |col: &str, base: i64| {
        certain(
            &[("x", float), (col, int)],
            [0.0, -0.0, f64::NAN]
                .iter()
                .zip(1..)
                .map(|(&x, i)| vec![Value::float(x), Value::Int(base * i)])
                .collect(),
        )
    };
    let rk = certain(
        &[("x", float), ("a", int)],
        [(0.0, 1), (0.0, 2), (-0.0, 3), (-0.0, 4)]
            .iter()
            .map(|&(x, a)| vec![Value::float(x), Value::Int(a)])
            .collect(),
    );
    for (name, rel) in [
        ("keys", keys),
        ("names", names),
        ("fl", floats("a", 1)),
        ("fr", floats("b", 10)),
        ("rk", rk),
    ] {
        ws.insert(name, rel).expect("certain relation is valid");
    }
    ws
}

/// Run `query` and render its rows.
fn rows(session: &mut Session, query: &str) -> String {
    match session.execute(query).expect("query runs").outcome {
        Outcome::Rows(r) => r.to_string(),
        other => panic!("expected rows, got {other:?}"),
    }
}

#[test]
fn null_is_a_value_equal_to_itself() {
    let mut session = Session::new(world());
    // A join matches NULL keys like any other value: both NULL rows of
    // `keys` meet the NULL row of `names`.
    assert_eq!(
        rows(&mut session, "SELECT POSSIBLE a, b FROM keys, names;"),
        "a | b | ws-descriptor\n\
         (n1, null-b) | ⊤\n\
         (n2, null-b) | ⊤\n\
         (one, one-b) | ⊤\n"
    );
    // `= NULL` is true on NULL, not unknown.
    assert_eq!(
        rows(&mut session, "SELECT POSSIBLE a FROM keys WHERE k = NULL;"),
        "a | ws-descriptor\n(n1) | ⊤\n(n2) | ⊤\n"
    );
    // And NULL sorts before every other value.
    assert_eq!(
        rows(&mut session, "SELECT POSSIBLE k FROM keys;"),
        "k | ws-descriptor\n(NULL) | ⊤\n(1) | ⊤\n(2) | ⊤\n"
    );
}

#[test]
fn floats_compare_by_total_order() {
    let mut session = Session::new(world());
    // Each float key meets only its own bits: `-0.0` is not `0.0`, and
    // `NaN` meets `NaN`.
    assert_eq!(
        rows(&mut session, "SELECT POSSIBLE a, b FROM fl, fr;"),
        "a | b | ws-descriptor\n(1, 10) | ⊤\n(2, 20) | ⊤\n(3, 30) | ⊤\n"
    );
    assert_eq!(
        rows(&mut session, "SELECT POSSIBLE a FROM fl WHERE x = -0.0;"),
        "a | ws-descriptor\n(2) | ⊤\n"
    );
    assert_eq!(
        rows(&mut session, "SELECT POSSIBLE a FROM fl WHERE x = 0.0;"),
        "a | ws-descriptor\n(1) | ⊤\n"
    );
    // The total order: `-0.0` before `0.0`, and a positive `NaN` last.
    assert_eq!(
        rows(&mut session, "SELECT POSSIBLE x FROM fl;"),
        "x | ws-descriptor\n(-0) | ⊤\n(0) | ⊤\n(NaN) | ⊤\n"
    );
}

/// `0.0` and `-0.0` are two `REPAIR KEY` groups: two components of two
/// alternatives each, so every row has confidence ½ (one group of four would
/// give ¼).
#[test]
fn signed_zeros_are_two_repair_key_groups() {
    let mut session = Session::new(world());
    session
        .execute("LET r = REPAIR KEY x IN rk;")
        .expect("repair runs");
    assert_eq!(session.world().components.len(), 2);
    assert_eq!(
        rows(&mut session, "SELECT CONF a FROM r;"),
        "a | conf | ws-descriptor\n(1, 0.5) | ⊤\n(2, 0.5) | ⊤\n(3, 0.5) | ⊤\n(4, 0.5) | ⊤\n"
    );
}
