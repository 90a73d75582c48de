//! Golden tests pinning the `EXPLAIN` rendering for the census queries.
//!
//! These strings are exactly what the REPL prints for `EXPLAIN <query>;`
//! (both share [`maybms_sql::explain`]), so a rewrite-rule change that
//! shifts plan shapes must update these expectations consciously.

use std::collections::BTreeMap;

use maybms_algebra::ExecCfg;
use maybms_core::stats::{ColumnStats, RelationStats};
use maybms_core::{Schema, ValueType};
use maybms_sql::{explain, parse_query, Catalog};

/// The REPL's preloaded world: the raw census readings, the repaired
/// `census` relation a `LET` materializes, and the certain `homes` lookup.
fn census_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    let census = Schema::of(&[
        ("name", ValueType::Str),
        ("ssn", ValueType::Int),
        ("w", ValueType::Int),
    ])
    .expect("distinct columns");
    catalog.insert("censusform", census.clone());
    catalog.insert("census", census);
    catalog.insert(
        "homes",
        Schema::of(&[("ssn", ValueType::Int), ("city", ValueType::Str)]).expect("distinct columns"),
    );
    catalog
}

fn explain_text(query: &str) -> String {
    let catalog = census_catalog();
    let parsed = parse_query(query).expect("query parses");
    explain(&catalog, &parsed, &ExecCfg::default())
        .expect("query analyzes")
        .to_string()
}

/// The selective predicate sinks below the join into the `census` side,
/// and projection pruning narrows the join to the columns consumed above
/// (the join key `ssn` plus the projected `city`). The join line carries
/// the plan-time SIP decision: without statistics the build side defaults
/// under the cutoff, so a Bloom filter over `ssn` will be pushed sideways
/// into the probe subtree.
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
  possible
    project[city]
      natural-join  (sip=bloom(ssn))
        project[ssn]
          select[name = 'Smith']
            scan[census]
        scan[homes]
";
    assert_eq!(text, expected);
}

/// Every extension operator is a rewrite barrier, and for `repair-key` no
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
  project[ssn]
    select[name = 'Smith']
      repair-key[key=name; weight=w]
        scan[censusform]
";
    assert_eq!(text, expected);
}

/// Approximate confidence renders its (ε, δ) parameters in the plan tree.
/// Like every extension operator it is a barrier, so the optimized plan is
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
  project[ssn]
    select[ssn = 1]
      conf(eps=0.05, delta=0.01)
        scan[census]
";
    assert_eq!(text, expected);
}

/// With statistics registered, `EXPLAIN` renders the cost model's
/// `est_rows=` on every optimized-plan node, and the cost phase moves the
/// selective census side to the hash build (right) side of the join — whose
/// estimated 5 rows are under the SIP cutoff, so the join also renders its
/// `sip=bloom(ssn)` decision.
#[test]
fn explain_shows_estimates_and_reorders_with_stats() {
    let mut catalog = census_catalog();
    let rel = |rows: u64, nontrivial: f64, cols: &[(&str, f64)]| RelationStats {
        rows,
        columns: cols
            .iter()
            .map(|&(name, ndv)| {
                (
                    name.to_string(),
                    ColumnStats {
                        distinct: ndv,
                        min_max: None,
                    },
                )
            })
            .collect::<BTreeMap<_, _>>(),
        nontrivial_frac: nontrivial,
        mean_alternatives: if nontrivial > 0.0 { 2.0 } else { 0.0 },
    };
    catalog.insert_stats(
        "census",
        rel(
            1_000,
            1.0,
            &[("name", 200.0), ("ssn", 1_000.0), ("w", 10.0)],
        ),
    );
    catalog.insert_stats("homes", rel(50, 0.0, &[("ssn", 50.0), ("city", 20.0)]));
    let parsed = parse_query("SELECT POSSIBLE city FROM census, homes WHERE name = 'Smith'")
        .expect("query parses");
    let text = explain(&catalog, &parsed, &ExecCfg::default())
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
      natural-join  (est_rows=5 sip=bloom(ssn))
        scan[homes]  (est_rows=50)
        project[ssn]  (est_rows=5)
          select[name = 'Smith']  (est_rows=5)
            scan[census]  (est_rows=1000)
";
    assert_eq!(text, expected);
}
