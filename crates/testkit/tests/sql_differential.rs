//! Differential tests for the MayQL front-end, on randomized world sets.
//!
//! `gen_query` emits a random MayQL string together with the plan it must
//! lower to, built independently of the parser; the parsed plan must print
//! the same `Display` tree as the hand-built one (the form `EXPLAIN`
//! prints), and both must execute to the same u-relation. Execution
//! comparison runs each plan on its own clone of the world set: uncertainty
//! operators mint components deterministically, so equivalent plans produce
//! identical descriptors, not merely isomorphic ones. A failing case prints
//! its seed (and query text) for exact replay.

use maybms_algebra::{naive, run};
use maybms_core::rng::Rng;
use maybms_core::{MayError, URelation, WorldSet};
use maybms_sql::{compile_unoptimized, Catalog};
use maybms_testkit::{gen_query, gen_typed_world_set, gen_world_set, GenConfig, WORLD_LIMIT};

/// Randomized cases per test (at least 100).
const CASES: usize = 120;

fn execute_raw(ws: &WorldSet, plan: &maybms_algebra::Plan, context: &str) -> URelation {
    run(&mut ws.clone(), plan).unwrap_or_else(|e| panic!("{context}: {e}"))
}

fn execute(ws: &WorldSet, plan: &maybms_algebra::Plan, context: &str) -> URelation {
    let mut result = execute_raw(ws, plan, context);
    // Sort-and-dedup so the comparison is order-insensitive (evaluation is
    // deterministic, but equivalence shouldn't depend on that).
    result.dedup();
    result
}

#[test]
fn parsed_text_matches_hand_built_plan() {
    parsed_text_cases(0x5A11_0000, gen_world_set, &GenConfig::default());
}

/// The same over relations with string, float, boolean and `NULL` cells
/// ([`gen_typed_world_set`]), whose `WHERE` clauses also set float and
/// string columns against literals on either side. A plan without
/// uncertainty constructs must moreover agree, world by world, with the
/// naive single-world evaluation. Relations reach the pool's full width, so
/// the float column `d` is often a join key.
#[test]
fn parsed_text_matches_hand_built_plan_on_typed_relations() {
    let cfg = GenConfig {
        max_arity: 5,
        max_rows: 8,
        ..GenConfig::default()
    };
    parsed_text_cases(0x5A11_7000, gen_typed_world_set, &cfg);
}

fn parsed_text_cases(seed0: u64, gen_ws: fn(&mut Rng, &GenConfig) -> WorldSet, cfg: &GenConfig) {
    for case in 0..CASES {
        let seed = seed0 + case as u64;
        let mut rng = Rng::new(seed);
        let ws = gen_ws(&mut rng, cfg);
        let (text, hand_built) = gen_query(&mut rng, &ws, 3);
        let catalog = Catalog::from_world_set(&ws);

        let parsed = compile_unoptimized(&catalog, &text)
            .unwrap_or_else(|e| panic!("seed {seed}: {text}\n{}", e.render(&text)));
        assert_eq!(
            parsed.to_string(),
            hand_built.to_string(),
            "seed {seed}: parsed plan diverges from hand-built plan for: {text}"
        );

        let a = execute(&ws, &parsed, &format!("seed {seed}, parsed: {text}"));
        let b = execute(
            &ws,
            &hand_built,
            &format!("seed {seed}, hand-built: {text}"),
        );
        assert_eq!(a, b, "seed {seed}: execution differs for: {text}");

        let result = execute_raw(&ws, &parsed, &format!("seed {seed}: {text}"));
        for (pick, db, _) in ws.enumerate(WORLD_LIMIT).expect("small world set") {
            match naive::eval(&parsed, &db) {
                Ok(expected) => assert_eq!(
                    result.instantiate(&pick),
                    expected,
                    "seed {seed}: world {pick:?} disagrees with the oracle for: {text}"
                ),
                // `POSSIBLE`, `CONF`, `REPAIR KEY`: no single-world meaning.
                Err(MayError::Unsupported(_)) => break,
                Err(e) => panic!("seed {seed}: naive eval failed: {e}\n{text}"),
            }
        }
    }
}

/// The census repair with WEIGHT BY, text vs. hand-built, on deterministic
/// data (random generators avoid weights because generated values include
/// zero, which is not a valid weight).
#[test]
fn weighted_repair_text_matches_hand_built() {
    use maybms_algebra::Plan;
    use maybms_core::{Relation, Schema, Tuple, Value, ValueType};
    use maybms_ql::repair_key;

    let schema = Schema::of(&[
        ("name", ValueType::Str),
        ("ssn", ValueType::Int),
        ("w", ValueType::Int),
    ])
    .expect("distinct columns");
    let rows = [
        ("Smith", 185i64, 3i64),
        ("Smith", 785, 1),
        ("Brown", 185, 1),
        ("Brown", 186, 1),
    ];
    let rel = Relation::from_rows(
        schema,
        rows.iter()
            .map(|&(n, s, w)| Tuple::new(vec![Value::str(n), s.into(), w.into()]))
            .collect(),
    )
    .expect("rows match schema");
    let mut ws = WorldSet::new();
    ws.insert("censusform", URelation::from_certain(&rel))
        .expect("certain relation is valid");
    let catalog = Catalog::from_world_set(&ws);

    let text = "repair key name in censusform weight by w";
    let parsed = compile_unoptimized(&catalog, text).expect("repair parses");
    let hand = repair_key(Plan::scan("censusform"), &["name"], Some("w"));
    assert_eq!(parsed.to_string(), hand.to_string());
    assert_eq!(execute(&ws, &parsed, text), execute(&ws, &hand, text));
}
