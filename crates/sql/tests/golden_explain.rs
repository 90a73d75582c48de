//! Golden tests pinning the `EXPLAIN` rendering for the census queries.
//!
//! These strings are exactly what the REPL prints for `EXPLAIN <query>;`
//! (both share [`maybms_sql::explain`]), so a rewrite-rule change that
//! shifts plan shapes must update these expectations consciously.

use maybms_core::{
    Component, ComponentId, Schema, Tuple, URelation, Value, ValueType, WorldSet, WsDescriptor,
};
use maybms_sql::{explain, parse_query, Catalog};

/// The REPL's preloaded world: the raw census readings, the repaired
/// `census` relation a `LET` materializes, and the certain `homes` lookup —
/// schemas only, every relation empty. Empty relations have statistics too
/// (0 rows), so every optimized-plan line carries `(est_rows=0)`; every
/// join shape then costs 0, no reorder fires, and the plans are the rules'.
fn census_catalog() -> Catalog {
    census_world(
        URelation::new(census_schema()),
        URelation::new(homes_schema()),
    )
}

fn census_schema() -> Schema {
    Schema::of(&[
        ("name", ValueType::Str),
        ("ssn", ValueType::Int),
        ("w", ValueType::Int),
    ])
    .expect("distinct columns")
}

fn homes_schema() -> Schema {
    Schema::of(&[("ssn", ValueType::Int), ("city", ValueType::Str)]).expect("distinct columns")
}

/// The three relations over `census` and `homes`, with an empty
/// `censusform`.
fn census_world(census: URelation, homes: URelation) -> Catalog {
    let mut ws = WorldSet::new();
    ws.components
        .add(Component::uniform(2).expect("two alternatives"));
    ws.insert("censusform", URelation::new(census_schema()))
        .expect("no descriptors");
    ws.insert("census", census).expect("valid descriptors");
    ws.insert("homes", homes).expect("certain");
    Catalog::from_world_set(&ws)
}

fn explain_text(query: &str) -> String {
    let catalog = census_catalog();
    let parsed = parse_query(query).expect("query parses");
    explain(&catalog, &parsed)
        .expect("query analyzes")
        .to_string()
}

/// The selective predicate sinks below the join into the `census` side,
/// and projection pruning narrows the join to the columns consumed above
/// (the join key `ssn` plus the projected `city`).
#[test]
fn explain_pushes_selection_below_the_join() {
    let text = explain_text("SELECT POSSIBLE city FROM census, homes WHERE name = 'Smith'");
    let expected = "\
lowered plan:
  possible
    project[city]
      select[name = 'Smith']
        natural-join
          scan[census]
          scan[homes]
optimized plan:
  possible  (est_rows=0)
    project[city]  (est_rows=0)
      natural-join  (est_rows=0)
        project[ssn]  (est_rows=0)
          select[name = 'Smith']  (est_rows=0)
            scan[census]  (est_rows=0)
        scan[homes]  (est_rows=0)
";
    assert_eq!(text, expected);
}

/// Every uncertainty operator is a rewrite barrier, and for `repair-key` no
/// other choice is sound: a selection below it would change the key groups
/// and the repair weights. The filter stays put and the plan survives
/// optimization unchanged.
#[test]
fn explain_leaves_repair_key_alone() {
    let text = explain_text(
        "SELECT ssn FROM (REPAIR KEY name IN censusform WEIGHT BY w) WHERE name = 'Smith'",
    );
    let expected = "\
lowered plan:
  project[ssn]
    select[name = 'Smith']
      repair-key[key=name; weight=w]
        scan[censusform]
optimized plan:
  project[ssn]  (est_rows=0)
    select[name = 'Smith']  (est_rows=0)
      repair-key[key=name; weight=w]  (est_rows=0)
        scan[censusform]  (est_rows=0)
";
    assert_eq!(text, expected);
}

/// Approximate confidence renders its (ε, δ) parameters in the plan tree.
/// Like every uncertainty operator it is a barrier, so the optimized plan is
/// the lowered one.
#[test]
fn explain_shows_approx_conf_parameters() {
    let text =
        explain_text("SELECT ssn FROM (SELECT CONF(0.05, 0.01) * FROM census) WHERE ssn = 1");
    let expected = "\
lowered plan:
  project[ssn]
    select[ssn = 1]
      conf(eps=0.05, delta=0.01)
        scan[census]
optimized plan:
  project[ssn]  (est_rows=0)
    select[ssn = 1]  (est_rows=0)
      conf(eps=0.05, delta=0.01)  (est_rows=0)
        scan[census]  (est_rows=0)
";
    assert_eq!(text, expected);
}

/// With rows in the relations, `EXPLAIN` renders the cost model's
/// `est_rows=` on every optimized-plan node, and the cost phase moves the
/// selective census side to the hash build (right) side of the join.
#[test]
fn explain_shows_estimates_and_reorders_with_stats() {
    // 1 000 readings, each in some worlds only: 200 names, 1 000 ssns and
    // 10 weights.
    let mut census = URelation::new(census_schema());
    for i in 0..1_000 {
        let values = vec![
            Value::str(format!("n{}", i % 200)),
            Value::Int(i),
            Value::Int(i % 10),
        ];
        let desc = WsDescriptor::single(ComponentId(0), (i % 2) as u16);
        census
            .push(Tuple::new(values), desc)
            .expect("schema-correct");
    }
    // 50 certain homes: 50 ssns in 20 cities.
    let mut homes = URelation::new(homes_schema());
    for i in 0..50 {
        let values = vec![Value::Int(i), Value::str(format!("c{}", i % 20))];
        homes
            .push(Tuple::new(values), WsDescriptor::tautology())
            .expect("schema-correct");
    }
    let catalog = census_world(census, homes);
    let parsed = parse_query("SELECT POSSIBLE city FROM census, homes WHERE name = 'Smith'")
        .expect("query parses");
    let text = explain(&catalog, &parsed)
        .expect("query analyzes")
        .to_string();
    let expected = "\
lowered plan:
  possible
    project[city]
      select[name = 'Smith']
        natural-join
          scan[census]
          scan[homes]
optimized plan:
  possible  (est_rows=5)
    project[city]  (est_rows=5)
      natural-join  (est_rows=5)
        scan[homes]  (est_rows=50)
        project[ssn]  (est_rows=5)
          select[name = 'Smith']  (est_rows=5)
            scan[census]  (est_rows=1000)
";
    assert_eq!(text, expected);
}
