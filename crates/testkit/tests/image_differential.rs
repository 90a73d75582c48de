//! Stored ≡ pushed: how a relation came to be never changes an answer.
//!
//! A stored relation is columns over dictionaries of its own, whether it was
//! pushed row by row, is a run's answer, or was normalized, renumbered or
//! written since; clones share it, with its rows and statistics memos. Each
//! seed walks one long-lived [`Session`] — whose relations therefore are
//! whatever earlier steps left behind — through a random interleaving of
//! everything that makes, shares or writes one:
//!
//! * queries: joins, self-joins that scan one name twice, unions,
//!   `POSSIBLE` / `CERTAIN` / `CONF`, `REPAIR KEY`;
//! * `LET` onto fresh names and onto names already bound (scanned or not);
//! * `Session::normalize`, which reads every relation and makes a new one per
//!   relation not in normal form;
//! * clone-then-mutate: the world set is cloned (sharing every body), one
//!   relation of the clone is written through a public `&mut` method, and the
//!   walk continues on the clone — after checking the original still answers
//!   as before.
//!
//! After every step the session must agree **byte for byte** with one
//! started on [`rebuilt_by_push`] of the world set as it stood before the
//! step — every relation rebuilt from `rows()` by `push` — same rows in the
//! same order, same `{:?}`, same world set afterwards. And every stored
//! relation must be *stored as if pushed*: a `LET` result keeps the columns
//! its run re-coded, so they must be what pushing its rows makes — same
//! cells, same string codes and descriptor ids, same two dictionaries — and
//! the statistics read off them must be those of a walk over the rows
//! ([`maybms_testkit::oracle::stats_by_rows`]), every field, floats by `==`.
//! Relations hold strings, floats, booleans and `NULL`s beside ints
//! ([`gen_typed_world_set`]), and the walks run at 1, 2 and 4 threads with the
//! morsel threshold off.
//!
//! A failing case prints its seed, step and statement for exact replay.

use maybms_algebra::{run, ExecCfg, Plan};
use maybms_core::rng::Rng;
use maybms_core::{
    collect_stats, ComponentId, ParCfg, Schema, Tuple, URelation, Value, ValueType, WorldSet,
    WsDescriptor,
};
use maybms_sql::{Outcome, Session, SessionError};
use maybms_testkit::oracle::stats_by_rows;
use maybms_testkit::{
    assert_same_image, gen_query, gen_typed_world_set, pushed, rebuilt_by_push, GenConfig,
};

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

/// Every relation of the world set is stored as if pushed: its columns —
/// re-coded by the run that answered a `LET`, normalized, or pushed — are
/// what pushing its rows makes, and its statistics are the row walk's.
fn assert_stored_as_built(ws: &WorldSet, at: &str) {
    for (name, rel) in &ws.relations {
        let at = format!("{at}\nrelation {name}");
        let rebuilt = pushed(rel);
        assert_same_image(rel, &rebuilt, &at);
        let stats = collect_stats(rel);
        assert_eq!(stats, stats_by_rows(rel), "{at}");
        assert_eq!(stats, collect_stats(&rebuilt), "{at}");
    }
}

/// Run `stmt` on the walk's session and on one started from its world set
/// rebuilt by push; both must produce the same thing and leave the same
/// world set, stored as if pushed.
fn step(warm: &mut Session, stmt: &str, at: &str) {
    let mut cold = session(rebuilt_by_push(warm.world()), warm.exec.par.threads);
    let (got, want) = (rows(warm.execute(stmt)), rows(cold.execute(stmt)));
    assert_identical(&got, &want, at);
    assert_identical(warm.world(), cold.world(), at);
    assert_stored_as_built(warm.world(), at);
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
                    let mut cold = rebuilt_by_push(warm.world());
                    warm.normalize();
                    cold.normalize();
                    assert_identical(warm.world(), &cold, &format!("{at}\nnormalize"));
                    assert_stored_as_built(warm.world(), &format!("{at}\nnormalize"));
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
                    // itself fills no memo the walk keeps).
                    let probe = rows(session(rebuilt_by_push(warm.world()), 1).execute(&query));
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
                    if !rel.is_empty() {
                        let (t, d) = rng.pick(rel.rows()).clone();
                        rel.push(t, d).expect("a row of the relation fits it");
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

/// The answers a random walk stores rarely or never, each stored by a `LET`
/// and held to the same two checks as the walk's. The walks' relations have
/// one `Str` column; here two share a dictionary, and meet their strings in a
/// different order by row than by column.
#[test]
fn a_let_result_is_stored_as_the_image_a_conversion_of_its_rows_builds() {
    let cell = |s: Option<&str>| s.map_or(Value::Null, Value::str);
    let mut ws = WorldSet::new();
    for _ in 0..2 {
        ws.components
            .add(maybms_core::Component::uniform(2).unwrap());
    }
    let on = |c: u32, a: u16| WsDescriptor::single(ComponentId(c), a);
    let both = WsDescriptor::from_terms(vec![(ComponentId(0), 1), (ComponentId(1), 0)]).unwrap();
    let schema = |cols: &[(&str, ValueType)]| Schema::of(cols).unwrap();
    let (str_ty, int_ty) = (ValueType::Str, ValueType::Int);
    let mut l = URelation::new(schema(&[("k", str_ty), ("v", str_ty), ("a", int_ty)]));
    for (k, v, a, d) in [
        (Some("x"), Some("y"), 1, on(0, 0)),
        (Some("z"), Some("x"), 2, on(0, 0)),
        (None, Some("z"), 3, both.clone()),
        (Some("y"), None, 4, WsDescriptor::tautology()),
        (Some("x"), Some("y"), 5, on(0, 1)),
    ] {
        l.push(Tuple::new(vec![cell(k), cell(v), Value::Int(a)]), d)
            .unwrap();
    }
    ws.insert("l", l).unwrap();
    let mut r = URelation::new(schema(&[("k", str_ty), ("b", int_ty)]));
    for (k, b, d) in [
        (Some("x"), 10, on(1, 1)),
        (Some("x"), 11, on(1, 1)),
        (Some("z"), 12, WsDescriptor::tautology()),
        (None, 13, on(1, 0)),
    ] {
        r.push(Tuple::new(vec![cell(k), Value::Int(b)]), d).unwrap();
    }
    ws.insert("r", r).unwrap();
    let mut n = URelation::new(schema(&[("k", str_ty), ("c", int_ty)]));
    for (c, d) in [(30, WsDescriptor::tautology()), (40, on(0, 0))] {
        n.push(Tuple::new(vec![Value::Null, Value::Int(c)]), d)
            .unwrap();
    }
    ws.insert("n", n).unwrap();

    let mut warm = session(ws, 1);
    for (stmt, rows) in [
        // A string-keyed join: `c0=0 ∧ c1=1` and `c0=1 ∧ c1=1` are conjoined
        // twice each, under four run handles; the stored dictionary holds
        // each once.
        ("LET j = SELECT * FROM l, r", 6),
        // `LET` of `LET`, twice: a seeded image scanned, joined, seeded again.
        ("LET jj = SELECT * FROM j, (SELECT k, c FROM n)", 1),
        (
            "LET u = SELECT k, v FROM j UNION SELECT v AS k, k AS v FROM l",
            9,
        ),
        ("LET top = SELECT POSSIBLE k, v FROM u", 7),
        ("LET none = SELECT * FROM u WHERE k = 'nobody'", 0),
        ("LET nulls = SELECT k FROM n", 2),
        ("LET j = SELECT * FROM top, nulls", 4),
    ] {
        step(&mut warm, stmt, stmt);
        let name = stmt.split_whitespace().nth(1).unwrap();
        assert!(warm.world().relations.contains_key(name), "{stmt} failed");
        assert_eq!(warm.world().relations[name].len(), rows, "{stmt}");
    }
    let stored = &warm.world().relations;
    assert_eq!(stored["u"].descriptors().len(), 6, "⊤ and five more");
    assert_eq!(stored["top"].descriptors().len(), 1, "all-⊤");
    assert!(stored["nulls"].strings().is_empty(), "all-NULL");
}

/// `NULL` as a join and dedup key, through string columns whose `NULL` cells
/// sit on a dictionary code that means something else (or nothing): `NULL`
/// joins `NULL`, and `NULL` rows collapse under set semantics like any value
/// (one row of ROADMAP 5e's table, pinned on a first and a second run).
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
        // Twice on one world set: the first run fills the statistics and
        // rows memos nothing reads, the second finds them filled.
        for pass in ["first", "second"] {
            let got = run(&mut ws, &plan).unwrap();
            assert_eq!(got.rows(), want.as_slice(), "{pass}: {plan}");
        }
    }
}
