//! The `\metrics` counters that say whether a scan was cold. Alone in its
//! own test binary: the registry is process-wide, and exact deltas need a
//! process nobody else scans in.

use maybms_core::{metrics, Relation, Schema, Tuple, URelation, Value, ValueType, WorldSet};
use maybms_sql::Session;

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
    let mut session = Session::new(ws);
    let registry = metrics();
    let (built, reused) = (
        registry.scan_images_built_total.get(),
        registry.scan_images_reused_total.get(),
    );
    session.execute("SELECT a FROM r WHERE a > 0").unwrap();
    assert_eq!(registry.scan_images_built_total.get() - built, 1);
    assert_eq!(registry.scan_images_reused_total.get() - reused, 0);
    session.execute("SELECT a FROM r WHERE a < 2").unwrap();
    assert_eq!(registry.scan_images_built_total.get() - built, 1);
    assert_eq!(registry.scan_images_reused_total.get() - reused, 1);
    // A LET re-binding the name stores new rows: the next scan is cold again.
    session
        .execute("LET r = SELECT a FROM r WHERE a > 0")
        .unwrap();
    session.execute("SELECT a FROM r").unwrap();
    assert_eq!(registry.scan_images_built_total.get() - built, 2);
}
