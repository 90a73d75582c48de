//! Cold ≡ warm: a relation's memoised columnar image never changes an answer.
//!
//! Every stored relation keeps the columnar image its first scan built
//! (`URelation::image`), shares it with its clones, and drops it when its
//! rows change. Each seed walks one long-lived [`Session`] — whose relations
//! therefore carry whatever images earlier steps left behind — through a
//! random interleaving of everything that builds, shares or drops one:
//!
//! * queries: joins, self-joins that scan one name twice, unions,
//!   `POSSIBLE` / `CERTAIN` / `CONF`, `REPAIR KEY`;
//! * `LET` onto fresh names and onto names already bound (scanned or not);
//! * `Session::normalize`, which reads every image and replaces every row;
//! * clone-then-mutate: the world set is cloned (sharing the images), one
//!   relation of the clone is written through a public `&mut` method, and the
//!   walk continues on the clone — after checking the original still answers
//!   as before.
//!
//! After every step the warm session must agree **byte for byte** with a cold
//! one started on [`without_images`] of the world set as it stood before the
//! step — same rows in the same order, same `{:?}`, same world set afterwards.
//! Relations hold strings, floats, booleans and `NULL`s beside ints
//! ([`gen_typed_world_set`]), and the walks run at 1, 2 and 4 threads with the
//! morsel threshold off.
//!
//! A failing case prints its seed, step and statement for exact replay.

use maybms_algebra::{run, ExecCfg, Plan};
use maybms_core::rng::Rng;
use maybms_core::{
    ComponentId, ParCfg, Schema, Tuple, URelation, Value, ValueType, WorldSet, WsDescriptor,
};
use maybms_sql::{Outcome, Session, SessionError};
use maybms_testkit::{gen_query, gen_typed_world_set, without_images, GenConfig};

const SEEDS: u64 = 210;
const STEPS: usize = 14;
/// A `LET` whose result is larger than this runs as a plain query instead,
/// so stored relations (and the joins over them) stay small.
const MAX_STORED_ROWS: usize = 24;

fn session(ws: WorldSet, threads: usize) -> Session {
    let mut session = Session::new(ws);
    session.exec = ExecCfg {
        par: ParCfg {
            threads,
            min_rows: 1,
        },
        sip: true,
    };
    session
}

/// A random query over the session's relations; a third of them scan one
/// name on both sides of a join or a union.
fn new_query(rng: &mut Rng, session: &Session) -> String {
    let names: Vec<&String> = session.world().relations.keys().collect();
    let name = *rng.pick(&names);
    match rng.below(6) {
        0 => format!("SELECT * FROM {name}, (SELECT POSSIBLE * FROM {name})"),
        1 => format!("SELECT * FROM {name} UNION (SELECT * FROM {name}, {name})"),
        _ => {
            let depth = rng.below(3);
            gen_query(rng, session.world(), depth).0
        }
    }
}

/// The rows a statement produced, or its error; `Stored` carries none.
fn rows(result: Result<maybms_sql::Executed, SessionError>) -> Result<Option<URelation>, String> {
    match result {
        Ok(executed) => match executed.outcome {
            Outcome::Rows(rel) => Ok(Some(rel)),
            Outcome::Stored { .. } => Ok(None),
            other => panic!("the walk issues no EXPLAIN: {other:?}"),
        },
        Err(e) => Err(e.to_string()),
    }
}

/// Byte-identical: equal, and printing the same.
fn assert_identical<T: PartialEq + std::fmt::Debug>(warm: &T, cold: &T, at: &str) {
    assert_eq!(warm, cold, "{at}");
    assert_eq!(format!("{warm:?}"), format!("{cold:?}"), "{at}");
}

/// Run `stmt` on the warm session and on a cold one started from the warm
/// world set's rows alone; both must produce the same thing and leave the
/// same world set.
fn step(warm: &mut Session, stmt: &str, at: &str) {
    let mut cold = session(without_images(warm.world()), warm.exec.par.threads);
    let (got, want) = (rows(warm.execute(stmt)), rows(cold.execute(stmt)));
    assert_identical(&got, &want, at);
    assert_identical(warm.world(), cold.world(), at);
}

#[test]
fn a_warm_world_set_answers_like_one_rebuilt_from_its_rows() {
    let cfg = GenConfig {
        max_arity: 4,
        ..GenConfig::default()
    };
    for seed in 0..SEEDS {
        let threads = [1, 2, 4][(seed % 3) as usize];
        let mut rng = Rng::new(0x1A6E_D1FF ^ (seed << 16));
        let mut warm = session(gen_typed_world_set(&mut rng, &cfg), threads);
        let mut lets = 0;
        for step_no in 0..STEPS {
            let query = new_query(&mut rng, &warm);
            let at = format!("seed {seed} step {step_no} ({threads} threads)\n{query}");
            match rng.below(10) {
                0 => {
                    let mut cold = without_images(warm.world());
                    warm.normalize();
                    cold.normalize_with(&warm.exec.par);
                    assert_identical(warm.world(), &cold, &format!("{at}\nnormalize"));
                }
                1..=3 => {
                    let name = if rng.chance(0.4) {
                        lets += 1;
                        format!("t{lets}")
                    } else {
                        let names: Vec<&String> = warm.world().relations.keys().collect();
                        (*rng.pick(&names)).clone()
                    };
                    // Size the result on a throw-away copy first (the probe
                    // itself warms nothing the walk keeps).
                    let probe = rows(session(without_images(warm.world()), 1).execute(&query));
                    let small = matches!(&probe, Ok(Some(r)) if r.len() <= MAX_STORED_ROWS);
                    let stmt = if small {
                        format!("LET {name} = {query}")
                    } else {
                        query.clone()
                    };
                    step(&mut warm, &stmt, &at);
                }
                4 => {
                    // Clone, write one relation of the clone, carry on with
                    // the clone; the original must not notice.
                    let mut clone = warm.world().clone();
                    let names: Vec<String> = clone.relations.keys().cloned().collect();
                    let rel = clone
                        .relations
                        .get_mut(rng.pick(&names))
                        .expect("picked from the keys");
                    if rng.chance(0.5) && !rel.is_empty() {
                        let (t, d) = rng.pick(rel.rows()).clone();
                        rel.push(t, d).expect("a row of the relation fits it");
                    } else {
                        rel.dedup();
                    }
                    step(
                        &mut warm,
                        &query,
                        &format!("{at}\noriginal after the write"),
                    );
                    warm = session(clone, threads);
                    step(&mut warm, &query, &format!("{at}\nwritten clone"));
                }
                _ => step(&mut warm, &query, &at),
            }
        }
    }
}

/// `NULL` as a join and dedup key, through string columns whose `NULL` cells
/// sit on a dictionary code that means something else (or nothing): `NULL`
/// joins `NULL`, and `NULL` rows collapse under set semantics like any value
/// (one row of ROADMAP 5e's table, pinned on a warm and on a cold scan).
#[test]
fn null_string_keys_join_and_dedup_like_any_value() {
    let cell = |s: Option<&str>| s.map_or(Value::Null, Value::str);
    let rel = |cols: [&str; 2], rows: &[(Option<&str>, i64, WsDescriptor)]| {
        let schema = Schema::of(&[(cols[0], ValueType::Str), (cols[1], ValueType::Int)]).unwrap();
        let mut u = URelation::new(schema);
        for (k, n, d) in rows {
            u.push(Tuple::new(vec![cell(*k), Value::Int(*n)]), d.clone())
                .unwrap();
        }
        u
    };
    let (top, c0) = (
        WsDescriptor::tautology(),
        WsDescriptor::single(ComponentId(0), 0),
    );
    let mut ws = WorldSet::new();
    ws.components
        .add(maybms_core::Component::uniform(2).unwrap());
    let left = [
        (None, 1, top.clone()),
        (Some("x"), 2, c0.clone()),
        (None, 3, c0.clone()),
    ];
    ws.insert("l", rel(["k", "a"], &left)).unwrap();
    let right = [(Some("x"), 10, top.clone()), (None, 20, top.clone())];
    ws.insert("r", rel(["k", "b"], &right)).unwrap();
    // All-`NULL` key column: its relation has no string dictionary at all.
    let nulls = [(None, 30, top.clone()), (None, 40, c0.clone())];
    ws.insert("n", rel(["k", "c"], &nulls)).unwrap();

    let row = |k: Option<&str>, rest: &[i64], d: &WsDescriptor| {
        let mut values = vec![cell(k)];
        values.extend(rest.iter().map(|&n| Value::Int(n)));
        (Tuple::new(values), d.clone())
    };
    let join = Plan::scan("l").join(Plan::scan("r"));
    let join_rows = vec![
        row(None, &[1, 20], &top),
        row(Some("x"), &[2, 10], &c0),
        row(None, &[3, 20], &c0),
    ];
    let null_join = Plan::scan("l").join(Plan::scan("n"));
    let null_join_rows = vec![
        row(None, &[1, 40], &c0),
        row(None, &[1, 30], &top),
        row(None, &[3, 40], &c0),
        row(None, &[3, 30], &c0),
    ];
    let dedup = Plan::scan("l").project(["k"]);
    let dedup_rows = vec![
        row(None, &[], &top),
        row(Some("x"), &[], &c0),
        row(None, &[], &c0),
    ];
    for (plan, want) in [
        (join, join_rows),
        (null_join, null_join_rows),
        (dedup, dedup_rows),
    ] {
        // Twice on one world set: the first run scans cold, the second warm.
        for pass in ["cold", "warm"] {
            let got = run(&mut ws, &plan).unwrap();
            assert_eq!(got.rows(), want.as_slice(), "{pass}: {plan}");
        }
    }
}
