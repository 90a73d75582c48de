//! The paper's running example: ambiguous census forms, driven end-to-end
//! through the MayQL front-end.
//!
//! Two census forms were scanned with uncertain social-security numbers:
//! Smith's SSN reads as 185 or 785, Brown's as 185 or 186. Each *reading* of
//! each form becomes a row of a certain relation, then `REPAIR KEY name`
//! turns the readings into alternative worlds. The example then asks the
//! paper's signature questions — which answers are possible, which are
//! certain, and with what confidence — each written as MayQL text, lowered
//! by `maybms-sql`, and checked against the hand-built plan the example
//! used before the front-end existed.
//!
//! Run with `cargo run --example census`.

use maybms::algebra::{col, lit, run, Plan, Predicate};
use maybms::core::{Relation, Schema, Tuple, URelation, Value, ValueType, WorldSet};
use maybms::ql::{certain, conf, possible, repair_key};
use maybms::sql::{compile, compile_unoptimized, explain, parse_query, Catalog};

/// Compile MayQL text, assert it *lowers* to exactly the given hand-built
/// plan (compared by their `Display` trees, the form `EXPLAIN` prints), and
/// return the **optimized** plan — the one the planner hands the executor
/// by default.
fn compile_checked(catalog: &Catalog, text: &str, hand_built: &Plan) -> Plan {
    let lowered =
        compile_unoptimized(catalog, text).unwrap_or_else(|e| panic!("{}", e.render(text)));
    assert_eq!(
        lowered.to_string(),
        hand_built.to_string(),
        "MayQL lowering diverged from the hand-built plan for: {text}"
    );
    compile(catalog, text).unwrap_or_else(|e| panic!("{}", e.render(text)))
}

fn main() {
    // censusform(name, ssn, w): one row per plausible reading of a form,
    // weighted by how likely the OCR considers the reading.
    let schema = Schema::of(&[
        ("name", ValueType::Str),
        ("ssn", ValueType::Int),
        ("w", ValueType::Int),
    ])
    .expect("distinct columns");
    let readings = [
        ("Smith", 185, 3), // the scanner favours 185 for Smith
        ("Smith", 785, 1),
        ("Brown", 185, 1),
        ("Brown", 186, 1),
    ];
    let rel = Relation::from_rows(
        schema,
        readings
            .iter()
            .map(|&(n, s, w)| Tuple::new(vec![Value::str(n), s.into(), Value::Int(w)]))
            .collect(),
    )
    .expect("rows match schema");

    let mut ws = WorldSet::new();
    ws.insert("censusform", URelation::from_certain(&rel))
        .expect("certain relation is valid");
    let catalog = Catalog::from_world_set(&ws);

    // REPAIR KEY name IN censusform WEIGHT BY w — one world per way of
    // choosing a single reading per person. Materialize the result once so
    // every query below shares the same two components (re-evaluating the
    // repair plan would mint fresh, independent components each time).
    let repair_text = "REPAIR KEY name IN censusform WEIGHT BY w";
    let repair_plan = compile_checked(
        &catalog,
        repair_text,
        &repair_key(Plan::scan("censusform"), &["name"], Some("w")),
    );
    let u = run(&mut ws, &repair_plan).expect("repair-key evaluates");
    println!("== {repair_text} (4 worlds) ==");
    print!("{u}");
    ws.insert("census", u)
        .expect("repair-key descriptors are valid");
    let catalog = Catalog::from_world_set(&ws);

    // Q1: what are Smith's possible SSNs?
    let q1 = "SELECT POSSIBLE ssn FROM census WHERE name = 'Smith'";
    let smiths = Plan::scan("census")
        .select(Predicate::eq(col("name"), lit("Smith")))
        .project(["ssn"]);
    let plan = compile_checked(&catalog, q1, &possible(smiths.clone()));
    let poss = run(&mut ws, &plan).expect("possible evaluates");
    println!("\n== {q1} ==");
    print!("{poss}");

    // Q2: is any of them certain? (No: both readings survive.)
    let q2 = "SELECT CERTAIN ssn FROM census WHERE name = 'Smith'";
    let plan = compile_checked(&catalog, q2, &certain(smiths));
    let cert = run(&mut ws, &plan).expect("certain evaluates");
    println!("\n== {q2} ==");
    print!("{cert}");

    // Q3: tuple confidences for every (name, ssn) claim.
    let q3 = "SELECT CONF name, ssn FROM census";
    let plan = compile_checked(
        &catalog,
        q3,
        &conf(Plan::scan("census").project(["name", "ssn"])),
    );
    let all = run(&mut ws, &plan).expect("conf evaluates");
    println!("\n== {q3} ==");
    print!("{all}");

    // Q4: could two different people share an SSN? Self-join the repaired
    // relation on ssn under two name roles and keep distinct ordered pairs.
    let q4 = "SELECT CONF n1, n2, ssn \
              FROM (SELECT name AS n1, ssn FROM census), \
                   (SELECT name AS n2, ssn FROM census) \
              WHERE n1 < n2";
    let left = Plan::scan("census")
        .project(["name", "ssn"])
        .rename([("name", "n1")]);
    let right = Plan::scan("census")
        .project(["name", "ssn"])
        .rename([("name", "n2")]);
    let clash = conf(
        left.join(right)
            .select(Predicate::lt(col("n1"), col("n2")))
            .project(["n1", "n2", "ssn"]),
    );
    let plan = compile_checked(&catalog, q4, &clash);
    let clash_conf = run(&mut ws, &plan).expect("conf evaluates");
    println!("\n== {q4} ==");
    print!("{clash_conf}");

    // What the optimizer does when a filter sits above a POSSIBLE
    // subquery: nothing. Every uncertainty operator is a rewrite barrier,
    // so the selection stays above `possible` and only `possible`'s input
    // is optimized.
    let q5 = "SELECT ssn FROM (SELECT POSSIBLE name, ssn FROM census) WHERE name = 'Smith'";
    let parsed = parse_query(q5).expect("q5 parses");
    let ex = explain(&catalog, &parsed).expect("q5 analyzes");
    println!("\n== EXPLAIN {q5} ==");
    print!("{ex}");

    // The repaired census introduced two components (one per person); after
    // the queries the world set still decomposes into those independent
    // choices.
    println!("\ncomponents in the world set: {}", ws.components.len());
}
