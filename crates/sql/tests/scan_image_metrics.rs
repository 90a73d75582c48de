//! What a scan found and who still reads rows, read off each run's
//! `ExecStats` (cold and warm scans) and off the relations themselves
//! (`has_image` / `has_rows`).

use maybms_algebra::{run_with, ExecCfg, ExecStats, Plan};
use maybms_core::{Relation, Schema, Tuple, URelation, Value, ValueType, WorldSet, WsDescriptor};
use maybms_sql::{Executed, Outcome, Session};

/// Cold and warm scans of one run.
fn scans(stats: &ExecStats) -> [u64; 2] {
    [stats.cold_scans, stats.warm_scans]
}

/// The answer of a query statement and its run's scans.
fn answer(executed: Executed) -> (URelation, [u64; 2]) {
    let scanned = scans(&executed.stats.expect("a query runs a plan"));
    let Outcome::Rows(rows) = executed.outcome else {
        panic!("a query answers with rows");
    };
    (rows, scanned)
}

/// Born with its image, and no row built since.
fn image_only(rel: &URelation) -> bool {
    rel.has_image() && !rel.has_rows()
}

#[test]
fn the_first_scan_builds_the_image_and_the_second_reuses_it() {
    let schema = Schema::of(&[("a", ValueType::Int)]).unwrap();
    let rows = (0..3).map(|a| Tuple::new(vec![Value::Int(a)])).collect();
    let mut ws = WorldSet::new();
    ws.insert(
        "r",
        URelation::from_certain(&Relation::from_rows(schema, rows).unwrap()),
    )
    .unwrap();
    // `insert` read the image (it validates the distinct descriptors): that
    // built it, and is no scan.
    assert!(ws.relations["r"].has_image());
    // A write in place leaves rows without an image: the next scan is cold.
    let r = ws.relations.get_mut("r").unwrap();
    r.push(Tuple::new(vec![Value::Int(3)]), WsDescriptor::tautology())
        .unwrap();
    assert!(!r.has_image());
    let scan = Plan::scan("r");
    let cfg = ExecCfg::default();
    let (first, stats, _) = run_with(&mut ws, &scan, &cfg, false).unwrap();
    assert_eq!(scans(&stats), [1, 0]);
    assert!(image_only(&first), "a run's answer is born with its image");
    let (second, stats, _) = run_with(&mut ws, &scan, &cfg, false).unwrap();
    assert_eq!(scans(&stats), [0, 1]);
    assert!(image_only(&second));
    // Counting or printing an answer builds no rows; reading them does,
    // once.
    assert_eq!((first.len(), first.is_certain()), (4, true));
    assert_eq!(first.to_string().lines().count(), 5);
    assert!(image_only(&first));
    assert_eq!(first.rows().len(), 4);
    assert!(first.has_rows() && first.has_image());
    assert!(std::ptr::eq(first.rows(), first.rows()));

    // A session collects statistics off every image at start-up and after a
    // `LET`, so its scans are warm — of a `LET` result too, which is stored
    // as the image it was born with and never converted.
    let mut session = Session::new(ws);
    let (filtered, scanned) = answer(session.execute("SELECT a FROM r WHERE a > 0").unwrap());
    assert_eq!(scanned, [0, 1]);
    assert!(image_only(&filtered));
    let stored = session
        .execute("LET r = SELECT a FROM r WHERE a > 0")
        .unwrap();
    assert_eq!(scans(&stored.stats.unwrap()), [0, 1]);
    assert!(image_only(&session.world().relations["r"]));
    let (reread, scanned) = answer(session.execute("SELECT a FROM r").unwrap());
    assert_eq!(scanned, [0, 1]);
    assert!(image_only(&reread));
    assert_eq!(reread.len(), 3);
    assert!(image_only(&reread));

    // Normalization reads every image and makes a new one per non-empty
    // relation, builds no rows, and the catalog refresh and the next scan
    // both find the new image.
    session.normalize();
    let world = session.world();
    assert!(world.relations.values().any(|r| !r.is_empty()));
    for (name, rel) in &world.relations {
        assert!(rel.is_empty() || image_only(rel), "{name} after normalize");
    }
    let (normalized, scanned) = answer(session.execute("SELECT a FROM r").unwrap());
    assert_eq!(scanned, [0, 1]);
    assert!(image_only(&normalized));
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
    let image = std::sync::Arc::clone(x.image());
    session.normalize();
    let x = &session.world().relations["x"];
    assert!(std::sync::Arc::ptr_eq(x.image(), &image));
    assert!(image_only(x));
}
