//! The `\metrics` counters that say what a scan found and who still reads
//! rows. Alone in its own test binary: the registry is process-wide, and
//! exact deltas need a process nobody else scans in.

use maybms_algebra::{run, Plan};
use maybms_core::{
    metrics, Relation, Schema, Tuple, URelation, Value, ValueType, WorldSet, WsDescriptor,
};
use maybms_sql::{Outcome, Session};

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
    let registry = metrics();
    // Scans cold, scans warm, images seeded by a run, row builds.
    let counts = || {
        [
            registry.scan_images_built_total.get(),
            registry.scan_images_reused_total.get(),
            registry.images_seeded_total.get(),
            registry.rows_materialized_total.get(),
        ]
    };
    // `insert` read the image (it validates the distinct descriptors): that
    // built it, and is no scan.
    assert!(ws.relations["r"].has_image());
    assert_eq!(counts(), [0, 0, 0, 0]);
    // A write in place leaves rows without an image: the next scan is cold.
    let r = ws.relations.get_mut("r").unwrap();
    r.push(Tuple::new(vec![Value::Int(3)]), WsDescriptor::tautology())
        .unwrap();
    assert!(!r.has_image());
    let scan = Plan::scan("r");
    let first = run(&mut ws, &scan).unwrap();
    assert_eq!(counts(), [1, 0, 1, 0]);
    run(&mut ws, &scan).unwrap();
    assert_eq!(counts(), [1, 1, 2, 0]);
    // An answer is born with its image; counting or printing it builds no
    // rows, reading them does, once.
    assert_eq!((first.len(), first.is_certain()), (4, true));
    assert_eq!(first.to_string().lines().count(), 5);
    assert_eq!(counts(), [1, 1, 2, 0]);
    assert_eq!(first.rows().len(), 4);
    assert_eq!(first.rows().len(), 4);
    assert_eq!(counts(), [1, 1, 2, 1]);

    // A session collects statistics off every image at start-up and after a
    // `LET`, so its scans are warm — of a `LET` result too, which is stored
    // as the image it was born with and never converted.
    let mut session = Session::new(ws);
    session.execute("SELECT a FROM r WHERE a > 0").unwrap();
    assert_eq!(counts(), [1, 2, 3, 1]);
    session
        .execute("LET r = SELECT a FROM r WHERE a > 0")
        .unwrap();
    let Outcome::Rows(stored) = session.execute("SELECT a FROM r").unwrap().outcome else {
        panic!("a query answers with rows");
    };
    assert_eq!(counts(), [1, 4, 5, 1]);
    assert_eq!(stored.len(), 3);
    assert_eq!(counts(), [1, 4, 5, 1]);

    // Normalization reads every image and seeds a new one per non-empty
    // relation, builds no rows, and the catalog refresh and the next scan
    // both find the new image.
    let non_empty = session
        .world()
        .relations
        .values()
        .filter(|r| !r.is_empty())
        .count() as u64;
    session.normalize();
    assert_eq!(counts(), [1, 4, 5 + non_empty, 1]);
    session.execute("SELECT a FROM r").unwrap();
    assert_eq!(counts(), [1, 5, 6 + non_empty, 1]);
}
