//! Differential tests for the uncertainty constructs: `repair-key`,
//! `possible`, `certain`, and `conf` are compared against brute-force
//! aggregation over the enumerated worlds.

use std::collections::BTreeMap;

use maybms_algebra::{run, Plan, UOp};
use maybms_core::rng::Rng;
use maybms_core::{Relation, Schema, Tuple, URelation, Value, ValueType, WorldSet};
use maybms_ql::{certain, conf, possible, repair_key};
use maybms_sql::{Outcome, Session};
use maybms_testkit::{
    certain_oracle, certain_twin, conf_oracle, gen_plan, gen_query, gen_typed_world_set,
    gen_world_set, per_world_results, possible_oracle, GenConfig, WORLD_LIMIT,
};

const CASES: u64 = 150;
const EPS: f64 = 1e-9;

/// possible/certain/conf over a random inner RA plan must agree with
/// union/intersection/probability-mass aggregation over the worlds.
#[test]
fn extraction_operators_match_world_aggregation() {
    extraction_cases(0x905_51B1E, gen_world_set);
}

/// The same over relations with string, float, boolean and `NULL` cells
/// ([`gen_typed_world_set`]): the inner plans join, dedup and filter on
/// float keys holding `-0.0`, `0.0` and `NaN`.
#[test]
fn extraction_operators_match_world_aggregation_on_typed_relations() {
    extraction_cases(0x905_7A9ED, gen_typed_world_set);
}

fn extraction_cases(seed: u64, gen_ws: fn(&mut Rng, &GenConfig) -> WorldSet) {
    let cfg = GenConfig::default();
    for case in 0..CASES {
        let mut rng = Rng::new(seed ^ case);
        let ws = gen_ws(&mut rng, &cfg);
        let inner = gen_plan(&mut rng, &ws, 2);
        let worlds = per_world_results(&ws, &inner).expect("oracle evaluates");
        let schema = worlds
            .first()
            .expect("at least one world")
            .0
            .schema()
            .clone();

        let mut ws_eval = ws.clone();
        let got_possible = run(&mut ws_eval, &possible(inner.clone())).expect("possible runs");
        assert!(got_possible.is_certain());
        assert_eq!(
            as_relation(&got_possible),
            possible_oracle(&worlds, schema.clone()),
            "case {case}: possible disagrees\nplan: {inner:?}"
        );

        let mut ws_eval = ws.clone();
        let got_certain = run(&mut ws_eval, &certain(inner.clone())).expect("certain runs");
        assert!(got_certain.is_certain());
        assert_eq!(
            as_relation(&got_certain),
            certain_oracle(&worlds, schema),
            "case {case}: certain disagrees\nplan: {inner:?}"
        );

        let mut ws_eval = ws.clone();
        let got_conf = run(&mut ws_eval, &conf(inner.clone())).expect("conf runs");
        let expected = conf_oracle(&worlds);
        let got = conf_as_map(&got_conf);
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

/// repair-key on a random certain relation must induce exactly the
/// distribution over maximal key repairs.
#[test]
fn repair_key_induces_the_repair_distribution() {
    repair_cases(0x4E9A_114B, ValueType::Int);
}

/// The same on a float key holding `0.0`, `-0.0`, `NaN` and `0.5`: the key
/// groups are those of the tuple order, in which `-0.0` and `0.0` differ and
/// `NaN` equals itself.
#[test]
fn repair_key_induces_the_repair_distribution_on_float_keys() {
    repair_cases(0x4E9A_F10A, ValueType::Float);
}

fn repair_cases(seed: u64, key: ValueType) {
    for case in 0..CASES {
        let mut rng = Rng::new(seed ^ case);
        let (ws, key_cols, weighted) = gen_certain_db(&mut rng, key);
        let key_refs: Vec<&str> = key_cols.iter().map(String::as_str).collect();
        let plan = repair_key(
            Plan::scan("r"),
            &key_refs,
            if weighted { Some("w") } else { None },
        );

        let mut ws_eval = ws.clone();
        let repaired = run(&mut ws_eval, &plan).expect("repair-key runs");

        // Distribution over repaired instances, from the WSD result.
        let mut got: BTreeMap<Relation, f64> = BTreeMap::new();
        for pick in ws_eval.components.enumerate(WORLD_LIMIT).expect("small") {
            let p = ws_eval.components.prob_of_pick(&pick);
            *got.entry(repaired.instantiate(&pick)).or_insert(0.0) += p;
        }

        let expected = repair_oracle(&ws.relations["r"], &key_cols, weighted);
        assert_eq!(
            got.keys().collect::<Vec<_>>(),
            expected.keys().collect::<Vec<_>>(),
            "case {case}: repair support disagrees"
        );
        for (db, p) in &expected {
            assert!(
                (got[db] - p).abs() < EPS,
                "case {case}: repair prob {} vs oracle {p} for\n{db}",
                got[db]
            );
        }
    }
}

/// Within one repaired key group, the repair alternatives are exclusive and
/// exhaustive, so their confidences must sum to exactly 1.
#[test]
fn conf_sums_to_one_per_repaired_key_group() {
    let schema = Schema::of(&[
        ("k", ValueType::Int),
        ("v", ValueType::Int),
        ("w", ValueType::Int),
    ])
    .expect("distinct columns");
    let rows = vec![
        Tuple::new(vec![1.into(), 10.into(), 1.into()]),
        Tuple::new(vec![1.into(), 11.into(), 2.into()]),
        Tuple::new(vec![1.into(), 12.into(), 5.into()]),
        Tuple::new(vec![2.into(), 20.into(), 3.into()]),
        Tuple::new(vec![2.into(), 21.into(), 1.into()]),
        Tuple::new(vec![3.into(), 30.into(), 7.into()]),
    ];
    let rel = Relation::from_rows(schema, rows).expect("rows match schema");
    let mut ws = WorldSet::new();
    ws.insert("r", URelation::from_certain(&rel))
        .expect("certain relation is valid");

    let plan = conf(repair_key(Plan::scan("r"), &["k"], Some("w")));
    let result = run(&mut ws, &plan).expect("conf over repair-key runs");

    let mut per_group: BTreeMap<Value, f64> = BTreeMap::new();
    for (t, _) in result.rows() {
        let p = t.get(3).as_f64().expect("conf column is a float");
        *per_group.entry(t.get(0).clone()).or_insert(0.0) += p;
    }
    assert_eq!(per_group.len(), 3);
    for (k, total) in per_group {
        assert!(
            (total - 1.0).abs() < EPS,
            "group {k}: confidences sum to {total}, not 1"
        );
    }
    // Weighted alternatives: conf(k=1, v=10) must be 1/8.
    let t10 = result
        .rows()
        .iter()
        .find(|(t, _)| t.get(1) == &Value::Int(10))
        .expect("tuple present");
    assert!((t10.0.get(3).as_f64().expect("float") - 1.0 / 8.0).abs() < EPS);
}

/// In MayQL every `REPAIR KEY` is a repair of its own, and a repair is
/// shared by storing it with `LET`. Over r = {(1, 10), (1, 11)}:
///
/// * two `REPAIR KEY k IN r` items in one `FROM` mint two components, and a
///   tuple of their natural join needs both repairs to pick it: 0.25;
/// * a `LET` relation scanned twice carries one component, so its
///   self-join is the relation itself: 0.5.
///
/// Both answers must equal the oracle's: the join evaluated in every world
/// of a world set that stores the repairs.
#[test]
fn repair_key_items_are_independent_and_let_relations_share() {
    let schema =
        Schema::of(&[("k", ValueType::Int), ("v", ValueType::Int)]).expect("distinct columns");
    let rows = vec![
        Tuple::new(vec![1.into(), 10.into()]),
        Tuple::new(vec![1.into(), 11.into()]),
    ];
    let rel = Relation::from_rows(schema, rows).expect("rows match schema");
    let mut ws = WorldSet::new();
    ws.insert("r", URelation::from_certain(&rel))
        .expect("certain relation is valid");

    // Two repairs in one FROM; the oracle stores them as `a` and `b`.
    let mut session = Session::new(ws.clone());
    let got = conf_of(
        &mut session,
        "SELECT CONF * FROM REPAIR KEY k IN r, REPAIR KEY k IN r",
    );
    assert_eq!(session.world().components.len(), 2);
    let mut stored = Session::new(ws.clone());
    execute(&mut stored, "LET a = REPAIR KEY k IN r");
    execute(&mut stored, "LET b = REPAIR KEY k IN r");
    let worlds = per_world_results(stored.world(), &Plan::scan("a").join(Plan::scan("b")))
        .expect("oracle evaluates");
    assert_conf_matches(&got, &conf_oracle(&worlds), 0.25);

    // One repair, stored and scanned twice.
    let mut session = Session::new(ws);
    execute(&mut session, "LET rr = REPAIR KEY k IN r");
    let got = conf_of(&mut session, "SELECT CONF * FROM rr, rr");
    assert_eq!(session.world().components.len(), 1);
    let worlds = per_world_results(session.world(), &Plan::scan("rr").join(Plan::scan("rr")))
        .expect("oracle evaluates");
    assert_conf_matches(&got, &conf_oracle(&worlds), 0.5);
}

/// `repair-key` refuses uncertain inputs.
#[test]
fn repair_key_rejects_uncertain_input() {
    let mut ws = WorldSet::new();
    let c = ws
        .components
        .add(maybms_core::Component::uniform(2).expect("2 alternatives"));
    let schema = Schema::of(&[("a", ValueType::Int)]).expect("distinct columns");
    let mut u = URelation::new(schema);
    u.push(
        Tuple::new(vec![1.into()]),
        maybms_core::WsDescriptor::single(c, 0),
    )
    .expect("tuple matches schema");
    ws.insert("r0", u).expect("descriptor is valid");

    let res = run(&mut ws, &repair_key(Plan::scan("r0"), &["a"], None));
    assert!(
        matches!(res, Err(maybms_core::MayError::NotCertain(_))),
        "{res:?}"
    );
}

// ---- helpers ----

fn execute(session: &mut Session, src: &str) -> Outcome {
    match session.execute(src) {
        Ok(executed) => executed.outcome,
        Err(e) => panic!("{}", e.render(src)),
    }
}

/// Run a `SELECT CONF` query and return its confidences by tuple.
fn conf_of(session: &mut Session, src: &str) -> BTreeMap<Tuple, f64> {
    let Outcome::Rows(result) = execute(session, src) else {
        panic!("{src}: not a query result");
    };
    conf_as_map(&result)
}

/// `got` holds the oracle's tuples, each with the oracle's confidence,
/// which is `expected`.
fn assert_conf_matches(got: &BTreeMap<Tuple, f64>, want: &BTreeMap<Tuple, f64>, expected: f64) {
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>()
    );
    for (t, p) in got {
        assert!(
            (p - want[t]).abs() < EPS,
            "conf({t}) = {p}, oracle {}",
            want[t]
        );
        assert!(
            (p - expected).abs() < EPS,
            "conf({t}) = {p}, expected {expected}"
        );
    }
}

fn as_relation(u: &URelation) -> Relation {
    let mut r = Relation::new(u.schema().clone());
    for (t, _) in u.rows() {
        r.insert(t.clone()).expect("schema-checked");
    }
    r
}

fn conf_as_map(u: &URelation) -> BTreeMap<Tuple, f64> {
    let conf_idx = u.schema().arity() - 1;
    u.rows()
        .iter()
        .map(|(t, _)| {
            let data: Vec<Value> = t.values()[..conf_idx].to_vec();
            (
                Tuple::new(data),
                t.get(conf_idx).as_f64().expect("conf column is a float"),
            )
        })
        .collect()
}

/// A random certain relation r(k, v, w) with small key groups, keys of type
/// `key`, plus whether to exercise the weighted variant.
fn gen_certain_db(rng: &mut Rng, key: ValueType) -> (WorldSet, Vec<String>, bool) {
    let schema = Schema::of(&[("k", key), ("v", ValueType::Int), ("w", ValueType::Int)])
        .expect("distinct columns");
    let mut rel = Relation::new(schema);
    for _ in 0..rng.range(1, 7) {
        let k = match key {
            ValueType::Float => Value::float(*rng.pick(&[0.0, -0.0, f64::NAN, 0.5])),
            _ => Value::Int(rng.below(3) as i64),
        };
        rel.insert(Tuple::new(vec![
            k,
            Value::Int(rng.below(4) as i64),
            Value::Int(rng.range(1, 5) as i64),
        ]))
        .expect("rows match schema");
    }
    let mut ws = WorldSet::new();
    ws.insert("r", URelation::from_certain(&rel))
        .expect("certain relation is valid");
    (ws, vec!["k".to_string()], rng.chance(0.5))
}

/// Brute-force distribution over maximal key repairs of a certain relation.
fn repair_oracle(
    input: &URelation,
    key_cols: &[String],
    weighted: bool,
) -> BTreeMap<Relation, f64> {
    let schema = input.schema().clone();
    let key_idx: Vec<usize> = key_cols
        .iter()
        .map(|k| schema.col_index(k).expect("key column exists"))
        .collect();
    let w_idx = schema.col_index("w").expect("weight column exists");

    let mut tuples: Vec<&Tuple> = input.rows().iter().map(|(t, _)| t).collect();
    tuples.sort_unstable();
    tuples.dedup();
    let mut groups: BTreeMap<Vec<Value>, Vec<&Tuple>> = BTreeMap::new();
    for t in tuples {
        groups
            .entry(t.project(&key_idx).values().to_vec())
            .or_default()
            .push(t);
    }

    // Cross product of one choice per group.
    let groups: Vec<&Vec<&Tuple>> = groups.values().collect();
    let mut out: BTreeMap<Relation, f64> = BTreeMap::new();
    let mut choice = vec![0usize; groups.len()];
    loop {
        let mut rel = Relation::new(schema.clone());
        let mut prob = 1.0;
        for (gi, g) in groups.iter().enumerate() {
            let t = g[choice[gi]];
            rel.insert(t.clone()).expect("schema-checked");
            let weight = |t: &Tuple| {
                if weighted {
                    t.get(w_idx).as_f64().expect("int weight")
                } else {
                    1.0
                }
            };
            let total: f64 = g.iter().map(|t| weight(t)).sum();
            prob *= weight(t) / total;
        }
        *out.entry(rel).or_insert(0.0) += prob;

        let mut i = groups.len();
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            choice[i] += 1;
            if choice[i] < groups[i].len() {
                break;
            }
            choice[i] = 0;
        }
    }
}

/// Whether `plan` is positive: no `repair-key`, `conf` or `certain` — the
/// monotone queries.
fn positive(plan: &Plan) -> bool {
    let own = !matches!(plan, Plan::Uncertain { op, .. } if !matches!(op, UOp::Possible));
    own && plan.children().into_iter().all(positive)
}

/// The containment law of the certain twin: a positive query's possible
/// answers over a world set lie within its answer over the world set's
/// certain twin, which holds every tuple of every world. Over generated
/// MayQL queries, on plain and on typed relations.
#[test]
fn possible_answers_lie_within_the_certain_twin_s() {
    let cfg = GenConfig::default();
    let mut checked = 0;
    for case in 0..CASES {
        let gen_ws = [gen_world_set, gen_typed_world_set][(case % 2) as usize];
        let mut rng = Rng::new(0x7_A1A ^ case);
        let ws = gen_ws(&mut rng, &cfg);
        let (query, plan) = gen_query(&mut rng, &ws, 2);
        if !positive(&plan) {
            continue;
        }
        let twin = certain_twin(&ws);
        let rows = |ws: WorldSet, src: String| match Session::new(ws).execute(&src) {
            Ok(executed) => match executed.outcome {
                Outcome::Rows(rel) => rel,
                other => panic!("case {case}: {other:?}"),
            },
            Err(e) => panic!("case {case}: {src}: {e}"),
        };
        let possible = rows(ws, format!("SELECT POSSIBLE * FROM ({query})"));
        let over_twin = rows(twin, query.clone());
        assert!(over_twin.is_certain(), "case {case}: {query}");
        let twin_tuples: std::collections::BTreeSet<&Tuple> =
            over_twin.rows().iter().map(|(t, _)| t).collect();
        for (t, _) in possible.rows() {
            assert!(
                twin_tuples.contains(t),
                "case {case}: {query}\n{t:?} is possible but not in the twin's answer"
            );
        }
        checked += 1;
    }
    assert!(
        checked >= CASES as usize / 3,
        "only {checked} positive queries"
    );
}
