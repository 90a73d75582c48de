//! The byte-identity corpus: MayQL scripts shaped like the five benchmark
//! workloads, run through [`Session`] over seeded generated world sets, with
//! everything a change to the planner or the executor could silently move
//! written down and compared byte for byte against `plan_corpus.expected`.
//!
//! Per statement the corpus records the `EXPLAIN` text (the lowered plan,
//! the optimized plan and its estimates), the result rows as `{:?}` — row
//! order, `conf` floats to the bit and minted component ids included — and,
//! after each `LET` and each normalize, the whole world set as `{:?}`. At
//! the end of each script it records the plan cache's hits and misses.
//! Every script runs at one thread and at two (with the morsel threshold at
//! one row, so the kernel stage really splits in both modes); the two must
//! print the same.
//!
//! A change that moves any of it on purpose re-blesses the file:
//!
//! ```text
//! cargo test -p maybms-testkit --test plan_corpus -- --ignored bless
//! ```
//!
//! and says in its description which lines moved and why.

use std::fmt::Write as _;

use maybms_algebra::ExecCfg;
use maybms_core::rng::Rng;
use maybms_core::{
    Component, ComponentId, ParCfg, Schema, Tuple, URelation, Value, ValueType, WorldSet,
    WsDescriptor,
};
use maybms_sql::{Outcome, Session};
use maybms_testkit::{gen_descriptor, gen_query, gen_typed_world_set, GenConfig};

const EXPECTED: &str = include_str!("plan_corpus.expected");

/// One step of a script: a MayQL statement, or a normalize of the world set
/// (which has no MayQL form).
enum Step {
    Sql(String),
    Normalize,
}

struct Script {
    name: &'static str,
    world: WorldSet,
    steps: Vec<Step>,
}

fn sql(text: impl Into<String>) -> Step {
    Step::Sql(text.into())
}

/// `n` uniform components of `alts` alternatives each.
fn components(ws: &mut WorldSet, n: usize, alts: usize) -> Vec<ComponentId> {
    (0..n)
        .map(|_| {
            ws.components
                .add(Component::uniform(alts).expect("alternatives > 0"))
        })
        .collect()
}

/// A single-term descriptor on one of `comps`, or `⊤` when `comps` is empty.
fn one_of(rng: &mut Rng, comps: &[ComponentId]) -> WsDescriptor {
    if comps.is_empty() {
        return WsDescriptor::tautology();
    }
    WsDescriptor::single(*rng.pick(comps), rng.below(2) as u16)
}

/// Add relation `name` with `cols` and the given rows.
fn relation(
    ws: &mut WorldSet,
    name: &str,
    cols: &[(&str, ValueType)],
    rows: Vec<(Tuple, WsDescriptor)>,
) {
    let mut rel = URelation::new(Schema::of(cols).expect("distinct columns"));
    for (t, d) in rows {
        rel.push(t, d).expect("row matches the schema");
    }
    ws.insert(name, rel).expect("valid descriptors");
}

fn int(v: usize) -> Value {
    Value::Int(v as i64)
}

/// `join_mix` in miniature: three uncertain int chains, a string-keyed
/// chain, a five-way certain chain with a small tail and a skewed triple.
fn join_mix(rng: &mut Rng) -> Script {
    use ValueType::{Int, Str};
    let n = 40;
    let mut ws = WorldSet::new();
    let a = components(&mut ws, 4, 2);
    for (name, c0, c1) in [("a1", "a", "b"), ("a2", "b", "c"), ("a3", "c", "d")] {
        let rows = (0..n)
            .map(|_| {
                let t = Tuple::new(vec![int(rng.below(n)), int(rng.below(n))]);
                (t, one_of(rng, &a))
            })
            .collect();
        relation(&mut ws, name, &[(c0, Int), (c1, Int)], rows);
    }
    let s = components(&mut ws, 4, 2);
    for (name, cols) in [
        ("s1", [("a", Int), ("b", Str)]),
        ("s2", [("b", Str), ("c", Int)]),
        ("s3", [("c", Int), ("d", Str)]),
    ] {
        let rows = (0..n)
            .map(|_| {
                let mut cell = |ty| match ty {
                    Int => int(rng.below(n)),
                    _ => Value::str(format!("k{}", rng.below(n))),
                };
                let t = Tuple::new(vec![cell(cols[0].1), cell(cols[1].1)]);
                (t, one_of(rng, &s))
            })
            .collect();
        relation(&mut ws, name, &cols, rows);
    }
    for (i, (c0, c1)) in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")]
        .into_iter()
        .enumerate()
    {
        let (count, stride) = if i == 4 { (4, 10) } else { (n, 1) };
        let rows = (0..count)
            .map(|r| {
                let k = int(r * stride);
                (Tuple::new(vec![k.clone(), k]), WsDescriptor::tautology())
            })
            .collect();
        relation(
            &mut ws,
            &format!("f{}", i + 1),
            &[(c0, Int), (c1, Int)],
            rows,
        );
    }
    let z = components(&mut ws, 3, 2);
    for (name, c0, c1, rows) in [
        ("z1", "a", "b", n),
        ("z2", "b", "c", n),
        ("z3", "c", "d", 3),
    ] {
        let rows = (0..rows)
            .map(|r| {
                // `b` keys are skewed towards 0; `z3` matches a few `c`s.
                let skewed = (rng.below(4) * rng.below(4)).min(n - 1);
                let t = match name {
                    "z1" => Tuple::new(vec![int(rng.below(n)), int(skewed)]),
                    "z2" => Tuple::new(vec![int(skewed), int(2 * r)]),
                    _ => Tuple::new(vec![int(2 * r), int(rng.below(n))]),
                };
                (t, one_of(rng, &z))
            })
            .collect();
        relation(&mut ws, name, &[(c0, Int), (c1, Int)], rows);
    }
    let steps = vec![
        sql("SELECT * FROM a1, a2, a3"),
        sql(format!("SELECT * FROM s1, s2, s3 WHERE a < {}", n / 2)),
        sql("SELECT * FROM f1, f2, f3, f4, f5"),
        sql("SELECT * FROM z1, z2, z3"),
        sql(format!(
            "SELECT POSSIBLE a, b, c FROM a1, a2 WHERE a < {}",
            n / 4
        )),
        sql(format!(
            "SELECT a, b FROM a1 WHERE a < {q} UNION SELECT b AS a, c AS b FROM a2 WHERE c < {q}",
            q = n / 4
        )),
        sql("SELECT a, d FROM a3, a2, a1"),
        sql("SELECT CERTAIN b FROM f1, f2 WHERE a < 10"),
        sql("SELECT * FROM a1, a2, a3"),
    ];
    Script {
        name: "join_mix",
        world: ws,
        steps,
    }
}

/// `conf_*` in miniature: tuples carrying several descriptors over shared
/// components, asked for exact and sampled confidence.
fn conf(rng: &mut Rng) -> Script {
    let mut ws = WorldSet::new();
    let weights: Vec<f64> = (0..3).map(|_| 0.2 + rng.unit_f64()).collect();
    for _ in 0..6 {
        ws.components
            .add(Component::from_weights(&weights).expect("weights are positive"));
    }
    for name in ["chain", "dense"] {
        let mut rows = Vec::new();
        for id in 0..8 {
            for _ in 0..rng.range(1, 4) {
                rows.push((Tuple::new(vec![int(id)]), gen_descriptor(rng, &ws)));
            }
        }
        relation(&mut ws, name, &[("id", ValueType::Int)], rows);
    }
    let steps = vec![
        sql("SELECT CONF id FROM chain"),
        sql("SELECT CONF(0.1, 0.05) id FROM dense"),
        sql("SELECT CONF id FROM chain, dense"),
        sql("SELECT POSSIBLE id FROM dense WHERE id < 4"),
        sql("SELECT CONF id FROM chain"),
    ];
    Script {
        name: "conf",
        world: ws,
        steps,
    }
}

/// `repair_pipeline` in miniature, two rounds: repair, query the repair,
/// join it to a certain lookup, normalize.
fn repair_pipeline(rng: &mut Rng) -> Script {
    use ValueType::{Int, Str};
    let n = 32;
    let keys = n / 4;
    let mut ws = WorldSet::new();
    let rows = (0..n)
        .map(|i| {
            let t = Tuple::new(vec![int(rng.below(keys)), int(i), int(rng.range(1, 5))]);
            (t, WsDescriptor::tautology())
        })
        .collect();
    relation(&mut ws, "form", &[("k", Int), ("v", Int), ("w", Int)], rows);
    let rows = (0..keys)
        .map(|k| {
            let t = Tuple::new(vec![int(k), Value::str(format!("city{}", rng.below(4)))]);
            (t, WsDescriptor::tautology())
        })
        .collect();
    relation(&mut ws, "homes", &[("k", Int), ("city", Str)], rows);
    let mut steps = Vec::new();
    for _ in 0..2 {
        steps.extend([
            sql("LET census = REPAIR KEY k IN form WEIGHT BY w"),
            sql("SELECT POSSIBLE v FROM census WHERE w > 2"),
            sql("SELECT CERTAIN k FROM census"),
            sql("SELECT CONF k, v FROM census"),
            sql(format!(
                "SELECT CONF city FROM census, homes WHERE v < {}",
                n / 2
            )),
            Step::Normalize,
        ]);
    }
    Script {
        name: "repair_pipeline",
        world: ws,
        steps,
    }
}

/// `small_stmts` in miniature: twelve chain-joinable relations
/// `r{i}(x{i}, x{i+1})`, even ones uncertain; point lookups, eight- and
/// ten-way joins under projections, small `CONF` / `POSSIBLE` statements,
/// and `LET`s, with hot texts re-issued so the plan cache hits.
fn small_stmts(rng: &mut Rng) -> Script {
    let rows = 12;
    let relations = 12;
    let mut ws = WorldSet::new();
    let comps = components(&mut ws, 3, 2);
    for i in 0..relations {
        let body = (0..rows)
            .map(|x| {
                let d = if i % 2 == 0 {
                    one_of(rng, &comps)
                } else {
                    WsDescriptor::tautology()
                };
                (Tuple::new(vec![int(x), int(rng.below(rows))]), d)
            })
            .collect();
        let (c0, c1) = (format!("x{i}"), format!("x{}", i + 1));
        relation(
            &mut ws,
            &format!("r{i}"),
            &[(c0.as_str(), ValueType::Int), (c1.as_str(), ValueType::Int)],
            body,
        );
    }
    let chain = |from: usize, len: usize| -> String {
        (from..from + len)
            .map(|i| format!("r{i}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut hot = Vec::new();
    for _ in 0..4 {
        let i = rng.below(relations);
        hot.push(format!(
            "SELECT * FROM r{i} WHERE x{i} = {}",
            rng.below(rows)
        ));
    }
    for _ in 0..3 {
        let from = rng.below(relations - 8 + 1);
        hot.push(format!(
            "SELECT x{from}, x{} FROM {} WHERE x{from} < {}",
            from + 8,
            chain(from, 8),
            rows / 4 + rng.below(rows / 2),
        ));
    }
    let mut steps: Vec<Step> = hot.iter().map(sql).collect();
    steps.extend(hot.iter().map(|t| sql(t.replace(' ', "  "))));
    for _ in 0..2 {
        let from = rng.below(relations - 10 + 1);
        steps.push(sql(format!(
            "SELECT POSSIBLE x{from}, x{} FROM {}",
            from + 10,
            chain(from, 10)
        )));
    }
    for j in 0..4 {
        let i = 2 * j;
        let bound = rng.below(rows);
        steps.push(sql(if j % 2 == 0 {
            format!("SELECT CONF x{} FROM r{i} WHERE x{i} >= {bound}", i + 1)
        } else {
            format!("SELECT POSSIBLE x{} FROM r{i} WHERE x{i} < {bound}", i + 1)
        }));
    }
    for j in 0..4 {
        let i = 3 * j;
        steps.push(sql(format!(
            "LET t{j} = SELECT * FROM r{i} WHERE x{i} < {}",
            rows / 2 + j
        )));
    }
    steps.extend(hot.iter().map(sql));
    Script {
        name: "small_stmts",
        world: ws,
        steps,
    }
}

/// Skewed chains `k{i}(c{i}, c{i+1})` whose sizes alternate between tiny
/// and biggish, so the cost phase reorders, under projections (restoring
/// projections merge into them), spanning selections, subqueries and
/// quantifiers.
fn skewed_chains(rng: &mut Rng) -> Script {
    let mut ws = WorldSet::new();
    let comps = components(&mut ws, 3, 2);
    for i in 0..6 {
        let rows = if i % 2 == 0 {
            rng.range(2, 5)
        } else {
            rng.range(20, 30)
        };
        let dom = rng.range(4, 8);
        let body = (0..rows)
            .map(|_| {
                let t = Tuple::new(vec![int(rng.below(dom)), int(rng.below(dom))]);
                let d = if rng.chance(0.3) {
                    one_of(rng, &comps)
                } else {
                    WsDescriptor::tautology()
                };
                (t, d)
            })
            .collect();
        let (c0, c1) = (format!("c{i}"), format!("c{}", i + 1));
        relation(
            &mut ws,
            &format!("k{i}"),
            &[(c0.as_str(), ValueType::Int), (c1.as_str(), ValueType::Int)],
            body,
        );
    }
    let steps = vec![
        sql("SELECT * FROM k1, k2, k3"),
        sql("SELECT c0, c3 FROM k2, k1, k0"),
        sql("SELECT c1 FROM k3, k2, k1 WHERE c1 < 3"),
        sql("SELECT * FROM k3, k1, k2, k0 WHERE c0 < c4"),
        sql("SELECT c0, c5 FROM k0, k1, k2, k3, k4"),
        sql("SELECT POSSIBLE c2, c4 FROM k4, k3, k2"),
        sql("SELECT CERTAIN c1 FROM k1, k0"),
        sql("SELECT CONF c2 FROM k1, k2"),
        sql("SELECT c0, c4 FROM (SELECT c0, c1, c2 FROM k0, k1), k3, k2"),
        sql("SELECT c2 FROM k2 UNION SELECT c3 AS c2 FROM k3, k2"),
        sql("LET j = SELECT c1, c3 FROM k1, k2"),
        sql("SELECT * FROM j, k3, k0"),
        sql("SELECT c0, c3 FROM k2, k1, k0"),
    ];
    Script {
        name: "skewed_chains",
        world: ws,
        steps,
    }
}

/// Generated queries (selections, projections, joins, unions, renames,
/// subqueries, repairs and quantifiers, nested) over a generated typed
/// world set, each also stored by a `LET` every fourth statement.
fn generated(rng: &mut Rng) -> Script {
    let ws = gen_typed_world_set(rng, &GenConfig::default());
    let mut steps = Vec::new();
    for i in 0..16 {
        let (text, _) = gen_query(rng, &ws, 2);
        steps.push(sql(if i % 4 == 3 {
            format!("LET g{i} = {text}")
        } else {
            text
        }));
    }
    Script {
        name: "generated",
        world: ws,
        steps,
    }
}

/// A script generator.
type Build = fn(&mut Rng) -> Script;

/// The corpus: each script at a fixed seed.
fn scripts() -> Vec<(u64, Script)> {
    let builders: [(u64, Build); 8] = [
        (1, join_mix),
        (2, conf),
        (3, repair_pipeline),
        (4, small_stmts),
        (5, skewed_chains),
        (6, skewed_chains),
        (7, generated),
        (8, generated),
    ];
    builders
        .into_iter()
        .map(|(seed, build)| (seed, build(&mut Rng::new(0x0C02_0000 + seed))))
        .collect()
}

/// The text of `query` as `EXPLAIN` prints it, on the session's catalog.
fn explain(session: &mut Session, query: &str) -> String {
    match session.execute(&format!("EXPLAIN {query}")) {
        Ok(ex) => match ex.outcome {
            Outcome::Explain(ex) => ex.to_string(),
            other => panic!("EXPLAIN produced {other:?}"),
        },
        Err(e) => format!("error: {e}\n"),
    }
}

/// Run one script at `threads` threads and write down what it did.
fn run(seed: u64, script: &Script, threads: usize) -> String {
    let mut session = Session::new(script.world.clone());
    session.exec = ExecCfg {
        par: ParCfg {
            threads,
            min_rows: 1,
        },
    };
    let mut out = String::new();
    writeln!(out, "=== {} (seed {seed})", script.name).unwrap();
    for step in &script.steps {
        let text = match step {
            Step::Sql(text) => text,
            Step::Normalize => {
                session.normalize();
                writeln!(out, "--- normalize\nworld: {:?}", session.world()).unwrap();
                continue;
            }
        };
        writeln!(out, "--- {text}").unwrap();
        let query = match text.split_once(" = ") {
            Some((head, query)) if head.starts_with("LET ") => query,
            _ => text.as_str(),
        };
        out.push_str(&explain(&mut session, query));
        match session.execute(text) {
            Ok(ex) => match ex.outcome {
                Outcome::Rows(rel) => writeln!(out, "rows: {rel:?}").unwrap(),
                Outcome::Stored { name, rows } => writeln!(
                    out,
                    "stored {name} ({rows} rows)\nworld: {:?}",
                    session.world()
                )
                .unwrap(),
                other => panic!("{text}: unexpected outcome {other:?}"),
            },
            Err(e) => writeln!(out, "error: {e}").unwrap(),
        }
    }
    let cache = session.plan_cache();
    writeln!(
        out,
        "plan cache: {} hits, {} misses",
        cache.hits(),
        cache.misses()
    )
    .unwrap();
    out
}

/// The whole corpus, checking on the way that two threads print exactly
/// what one does.
fn corpus() -> String {
    let mut out = String::new();
    for (seed, script) in scripts() {
        let one = run(seed, &script, 1);
        let two = run(seed, &script, 2);
        assert!(
            one == two,
            "{} (seed {seed}): two threads differ from one",
            script.name
        );
        out.push_str(&one);
    }
    out
}

#[test]
fn corpus_is_byte_identical() {
    let got = corpus();
    if got == EXPECTED {
        return;
    }
    let (g, e): (Vec<_>, Vec<_>) = (got.lines().collect(), EXPECTED.lines().collect());
    let at = g
        .iter()
        .zip(&e)
        .position(|(a, b)| a != b)
        .unwrap_or(g.len().min(e.len()));
    let context =
        |lines: &[&str]| lines[at.saturating_sub(3)..(at + 3).min(lines.len())].join("\n");
    panic!(
        "the corpus moved at line {} (re-bless only for an intended change):\n\
         --- expected\n{}\n--- got\n{}",
        at + 1,
        context(&e),
        context(&g)
    );
}

/// Rewrite `plan_corpus.expected` from the current engine.
#[test]
#[ignore = "writes the expected file; run by hand for an intended change"]
fn bless() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/plan_corpus.expected");
    std::fs::write(path, corpus()).expect("the expected file is writable");
}
