//! What a scan takes from a stored relation and what a run interns, read off
//! each run's `ExecStats` and off the relations themselves.

use maybms_algebra::{run_with, ExecCfg, ExecStats, Plan};
use maybms_core::{
    DescriptorPool, Relation, Schema, StrPool, Tuple, URelation, Value, ValueType, WorldSet,
    WsDescriptor,
};
use maybms_sql::{Executed, Outcome, Session};

/// Intern calls and imported dictionary entries of one run.
fn interning(stats: &ExecStats) -> [u64; 2] {
    [stats.pool.intern_calls, stats.pool.imported]
}

/// The answer of a query statement and its run's interning.
fn answer(executed: Executed) -> (URelation, [u64; 2]) {
    let interned = interning(&executed.stats.expect("a query runs a plan"));
    let Outcome::Rows(rows) = executed.outcome else {
        panic!("a query answers with rows");
    };
    (rows, interned)
}

/// A scan into fresh pools borrows every column of the relation's body.
fn scan_borrows(rel: &URelation) -> bool {
    let (mut pool, mut strings) = (DescriptorPool::new(), StrPool::new());
    let scan = rel.scan(&mut pool, &mut strings);
    let cols = scan.columns().iter().zip(rel.columns().columns());
    cols.into_iter().all(|(s, c)| std::ptr::eq(&**s, c))
        && std::ptr::eq(scan.descs(), rel.columns().descs())
}

#[test]
fn the_first_scan_builds_the_image_and_the_second_reuses_it() {
    let schema = Schema::of(&[("a", ValueType::Int), ("s", ValueType::Str)]).unwrap();
    let rows = (0..3)
        .map(|a| Tuple::new(vec![Value::Int(a), Value::str(format!("s{a}"))]))
        .collect();
    let mut ws = WorldSet::new();
    ws.insert(
        "r",
        URelation::from_certain(&Relation::from_rows(schema, rows).unwrap()),
    )
    .unwrap();
    // A write in place appends to the columns; a scan still borrows them.
    let r = ws.relations.get_mut("r").unwrap();
    let row = Tuple::new(vec![Value::Int(3), Value::str("s3")]);
    r.push(row, WsDescriptor::tautology()).unwrap();
    assert!(scan_borrows(r));
    let scan = Plan::scan("r");
    let cfg = ExecCfg::default();
    // A read-only run appends the dictionaries and interns nothing: the
    // tautology is every pool's entry 0, so a certain relation imports none.
    for _ in 0..2 {
        let (answer, stats, _) = run_with(&mut ws, &scan, &cfg, false).unwrap();
        assert_eq!(interning(&stats), [0, 0]);
        assert_eq!(stats.strings, 4);
        assert!(scan_borrows(&answer));
    }
    // Reading rows builds them once.
    let (first, _, _) = run_with(&mut ws, &scan, &cfg, false).unwrap();
    assert_eq!((first.len(), first.is_certain()), (4, true));
    assert_eq!(first.to_string().lines().count(), 5);
    assert_eq!(first.rows().len(), 4);
    assert!(std::ptr::eq(first.rows(), first.rows()));

    // A `LET` result is scanned like a loaded relation.
    let mut session = Session::new(ws);
    let (filtered, interned) = answer(session.execute("SELECT a FROM r WHERE a > 0").unwrap());
    assert_eq!(interned, [0, 0]);
    assert!(scan_borrows(&filtered));
    let stored = session
        .execute("LET r = SELECT a FROM r WHERE a > 0")
        .unwrap();
    assert_eq!(interning(&stored.stats.unwrap()), [0, 0]);
    assert!(scan_borrows(&session.world().relations["r"]));
    let (reread, interned) = answer(session.execute("SELECT a FROM r").unwrap());
    assert_eq!(interned, [0, 0]);
    assert_eq!(reread.len(), 3);

    // So is a normalized one.
    session.normalize();
    let world = session.world();
    assert!(world.relations.values().any(|r| !r.is_empty()));
    for (name, rel) in &world.relations {
        assert!(scan_borrows(rel), "{name} after normalize");
    }
    let (normalized, interned) = answer(session.execute("SELECT a FROM r").unwrap());
    assert_eq!(interned, [0, 0]);
    assert!(scan_borrows(&normalized));
}

/// `REPAIR KEY` over a certain relation seals each alternative's descriptor
/// without an intern lookup: its components are minted by the run, so no
/// pool entry can equal one. The run reports no intern call, and the stored
/// result — already in normal form — is kept by `normalize` as it is.
#[test]
fn repair_key_mints_without_a_lookup() {
    let schema = Schema::of(&[("k", ValueType::Int), ("v", ValueType::Int)]).unwrap();
    let rows = [(1, 10), (1, 11), (2, 20), (3, 30), (3, 31), (3, 32)]
        .map(|(k, v)| Tuple::new(vec![Value::Int(k), Value::Int(v)]));
    let mut ws = WorldSet::new();
    ws.insert(
        "form",
        URelation::from_certain(&Relation::from_rows(schema, rows.to_vec()).unwrap()),
    )
    .unwrap();
    let mut session = Session::new(ws);
    let stored = session.execute("LET x = REPAIR KEY k IN form").unwrap();
    let pool = stored.stats.expect("a LET runs a plan").pool;
    assert_eq!((pool.intern_calls, pool.intern_hits), (0, 0));
    let x = &session.world().relations["x"];
    assert_eq!((x.len(), session.world().components.len()), (6, 2));
    // Its columns live in its body: the same address is the same body.
    let body: *const _ = x.columns();
    session.normalize();
    let x = &session.world().relations["x"];
    assert!(std::ptr::eq(x.columns(), body));
    // Scanned again, the five minted descriptors (key 2's row is certain)
    // are imported, not interned.
    let (_, interned) = answer(session.execute("SELECT * FROM x").unwrap());
    assert_eq!(interned, [0, 5]);
}
