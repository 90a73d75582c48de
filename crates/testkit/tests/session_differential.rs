//! Stale-state property test through the engine's one door.
//!
//! A [`Session`] keeps a world set and a plan cache keyed on query text plus
//! the schema and statistics of each relation a plan scans. Each seed drives
//! one session through a random interleaving of everything that can make the
//! one stale against the other:
//!
//! * `LET` under fresh names and under names already bound (a base relation,
//!   an earlier `LET`) — new schemas and new statistics for the plans that
//!   scan the name, none for the plans that do not;
//! * queries (`POSSIBLE` / `CERTAIN` / `CONF` among them) repeated verbatim,
//!   re-spaced, re-cased and trailed by a comment — cache hits, and distinct
//!   keys for one plan;
//! * `EXPLAIN ANALYZE`, which compiles through the cache and runs on the
//!   session's world set, and `EXPLAIN`, which compiles without it;
//! * `Session::normalize`, which rewrites descriptors and drops components.
//!
//! After every statement the session must agree with a **cold engine**:
//! `compile` with no cache and `run`, on a clone of the world set as it
//! stood before the statement. Results and the world set afterwards are
//! compared. Only a `LET` grows the world set: the cold engine's clone takes
//! a `LET`'s components and relation, and every read (a query, `EXPLAIN`,
//! `EXPLAIN ANALYZE`, a `LET` too large to store and run as a query) must
//! leave the session's world set exactly as it was before the statement,
//! whatever its `REPAIR KEY`s minted. The long seeds run enough distinct
//! query texts to fill the 64-entry cache and evict from it.
//!
//! A failing case prints its seed and the statement for exact replay.

use maybms_algebra::run;
use maybms_core::rng::Rng;
use maybms_core::WorldSet;
use maybms_sql::{
    analyze, compile, parse_query, Catalog, Outcome, Session, SessionError, DEFAULT_PLAN_CACHE_CAP,
};
use maybms_testkit::{gen_query, gen_world_set, GenConfig};

/// Seeded interleavings; every `LONG_EVERY`-th one is long enough to
/// straddle the plan cache's capacity.
const SEEDS: u64 = 240;
const LONG_EVERY: u64 = 60;
const SHORT_STEPS: usize = 24;
const LONG_STEPS: usize = 220;
/// A `LET` whose result is larger than this runs as a plain query instead,
/// so stored relations (and the joins over them) stay small.
const MAX_STORED_ROWS: usize = 24;

/// Keywords the generator emits that can never be identifiers here (`conf`
/// is also a column name, and identifier case is significant).
const KEYWORDS: [&str; 10] = [
    "select", "from", "where", "union", "possible", "certain", "repair", "key", "in", "as",
];

/// The same query under a different spelling: whitespace runs re-drawn,
/// keyword case flipped, a comment (with an apostrophe) appended. Generated
/// queries hold no string literals, so every space is formatting.
fn respell(rng: &mut Rng, text: &str) -> String {
    let recase = rng.chance(0.3);
    let mut out = String::new();
    for (i, word) in text.split(' ').enumerate() {
        if i > 0 {
            const GAPS: [&str; 6] = [" ", " ", "  ", "\n", "\t ", " \n  "];
            let gap: &&str = rng.pick(&GAPS);
            out.push_str(gap);
        }
        let bare = word.trim_matches(|c| c == '(' || c == ')');
        if recase && KEYWORDS.contains(&bare.to_lowercase().as_str()) && rng.chance(0.5) {
            let flipped = if bare.chars().any(char::is_lowercase) {
                bare.to_uppercase()
            } else {
                bare.to_lowercase()
            };
            out.push_str(&word.replace(bare, &flipped));
        } else {
            out.push_str(word);
        }
    }
    if rng.chance(0.2) {
        out.push_str(" -- it's the same query\n");
    }
    out
}

/// A fresh random query over the session's current relations, sometimes
/// wrapped in a quantifier so all three occur often.
fn new_query(rng: &mut Rng, session: &Session) -> String {
    let depth = rng.below(3);
    let (text, _) = gen_query(rng, session.world(), depth);
    let quantifier = match rng.below(6) {
        0 => "POSSIBLE",
        1 => "CERTAIN",
        2 => {
            let parsed = parse_query(&text).expect("generated text parses");
            let schema =
                analyze(&session.world().relations, &parsed).expect("generated text is valid");
            if schema.col_index("conf").is_ok() {
                return text;
            }
            "CONF"
        }
        _ => return text,
    };
    format!("SELECT {quantifier} * FROM ({text})")
}

/// What a cold engine makes of `query` on `ws`: compiled against a catalog
/// of `ws`'s relations, no cache. `run` commits the components the query's
/// `REPAIR KEY`s minted to `ws`, as a session's `LET` does; a read runs the
/// cold engine on a scratch clone.
fn cold(ws: &mut WorldSet, query: &str) -> Result<maybms_core::URelation, SessionError> {
    let plan = compile(&Catalog::from_world_set(ws), query)?;
    Ok(run(ws, &plan)?)
}

/// Front-end errors compare by message (the cold engine sees the bare query,
/// the session the whole statement, so spans are offset); runtime errors
/// compare whole.
fn same_error(got: &SessionError, want: &SessionError) -> bool {
    match (got, want) {
        (SessionError::Sql(g), SessionError::Sql(w)) => g.message == w.message,
        _ => got == want,
    }
}

#[test]
fn a_session_never_disagrees_with_a_cold_engine() {
    let mut straddled = 0;
    for seed in 0..SEEDS {
        let long = seed % LONG_EVERY == 0;
        let mut rng = Rng::new(0x5E55_10D1 ^ (seed << 12));
        let mut session = Session::new(gen_world_set(&mut rng, &GenConfig::default()));
        let mut pool: Vec<String> = vec![new_query(&mut rng, &session)];
        let mut lets = 0;
        // Plans the cache took in — at least: the misses of the statements that
        // succeeded (each compiled its query and inserted the plan).
        let mut inserted = 0;

        for step in 0..if long { LONG_STEPS } else { SHORT_STEPS } {
            let before = session.world().clone();
            let mut expected = before.clone();
            let misses_before = session.plan_cache().misses();
            // Long seeds mostly mint new texts, to fill and overflow the cache.
            if rng.chance(if long { 0.5 } else { 0.25 }) {
                pool.push(new_query(&mut rng, &session));
            }
            // Mostly a recent text, so repeats land between catalog changes.
            let recent = pool.len() - 1 - rng.below(pool.len().min(5));
            let mut query = if rng.chance(0.7) {
                pool[recent].clone()
            } else {
                rng.pick(&pool).clone()
            };
            if rng.chance(0.5) {
                query = respell(&mut rng, &query);
            }
            let at = |what: &str| format!("seed {seed} step {step}: {what}\n{query}");
            let mut failed = false;
            // Whether the statement must leave the world set as it found it:
            // a read (a query, an explain, a `LET` too large to store) or a
            // `LET` that fails.
            let mut read = true;

            match rng.below(10) {
                0 => {
                    session.normalize();
                    expected.normalize();
                    read = false;
                }
                1 | 2 => {
                    let name = match rng.below(3) {
                        0 => {
                            lets += 1;
                            format!("t{lets}")
                        }
                        // Re-bind a name some cached plan already scans.
                        _ => {
                            let names: Vec<&String> = expected.relations.keys().collect();
                            (*rng.pick(&names)).clone()
                        }
                    };
                    let mut stored = expected.clone();
                    let cold_result = cold(&mut stored, &query);
                    let store = cold_result
                        .as_ref()
                        .is_ok_and(|r| r.len() <= MAX_STORED_ROWS);
                    let stmt = if store {
                        format!("LET {name} = {query};")
                    } else {
                        query.clone()
                    };
                    match (session.execute(&stmt), cold_result) {
                        (Ok(got), Ok(want)) if store => {
                            assert!(
                                matches!(got.outcome, Outcome::Stored { name: ref n, rows }
                                    if *n == name && rows == want.len()),
                                "{}",
                                at("LET outcome")
                            );
                            expected = stored;
                            expected.insert(name, want).expect("result is valid");
                            read = false;
                        }
                        (Ok(got), Ok(want)) => {
                            let Outcome::Rows(got) = got.outcome else {
                                panic!("{}", at("expected rows"));
                            };
                            assert_eq!(got, want, "{}", at("oversized LET run as a query"));
                        }
                        (Err(got), Err(want)) => {
                            assert!(same_error(&got, &want), "{}: {got} vs {want}", at("error"));
                            failed = true;
                        }
                        (got, want) => panic!("{}: {got:?} vs {want:?}", at("one side failed")),
                    }
                }
                3 | 4 => {
                    let analyze = rng.chance(0.6);
                    let stmt = format!("EXPLAIN {}{query}", if analyze { "ANALYZE " } else { "" });
                    // Explaining changes nothing: `expected` stays as it is
                    // and the cold run happens on a scratch copy.
                    let cold_plan = compile(&Catalog::from_world_set(&expected), &query);
                    let cold_result = cold(&mut expected.clone(), &query);
                    match session.execute(&stmt) {
                        Ok(got) => {
                            let plan = cold_plan.expect("the session compiled it");
                            match got.outcome {
                                Outcome::Explain(ex) => {
                                    assert_eq!(ex.optimized.to_string(), plan.to_string())
                                }
                                Outcome::Analyze(ex) => {
                                    assert_eq!(ex.optimized.to_string(), plan.to_string());
                                    assert_eq!(
                                        ex.stats.output_rows,
                                        cold_result.expect("the session ran it").len(),
                                        "{}",
                                        at("analyzed row count")
                                    );
                                }
                                other => panic!("{}: {other:?}", at("expected an explain")),
                            }
                        }
                        // `EXPLAIN` never runs; `EXPLAIN ANALYZE` anchors a
                        // runtime error to the query, so both are front-end
                        // errors here.
                        Err(SessionError::Sql(got)) => {
                            failed = true;
                            match (cold_plan, cold_result) {
                                (Err(want), _) => assert_eq!(got.message, want.message),
                                (Ok(_), Err(want)) if analyze => assert_eq!(
                                    got.message,
                                    format!("execution failed: {want}"),
                                    "{}",
                                    at("runtime error under EXPLAIN ANALYZE")
                                ),
                                _ => panic!("{}: {}", at("only the session failed"), got.message),
                            }
                        }
                        Err(other) => panic!("{}: {other}", at("unanchored explain error")),
                    }
                }
                _ => match (session.execute(&query), cold(&mut expected.clone(), &query)) {
                    (Ok(got), Ok(want)) => {
                        let Outcome::Rows(got) = got.outcome else {
                            panic!("{}", at("expected rows"));
                        };
                        assert_eq!(got, want, "{}", at("query result"));
                    }
                    (Err(got), Err(want)) => {
                        assert!(same_error(&got, &want), "{}: {got} vs {want}", at("error"));
                        failed = true;
                    }
                    (got, want) => panic!("{}: {got:?} vs {want:?}", at("one side failed")),
                },
            }

            if !failed {
                inserted += session.plan_cache().misses() - misses_before;
            }
            assert_eq!(session.world(), &expected, "{}", at("world set"));
            if read {
                assert_eq!(
                    session.world(),
                    &before,
                    "{}",
                    at("a read changed the world set")
                );
            }
        }

        // Entries leave the cache only by eviction, so taking in more than
        // it holds means it filled up and evicted.
        let cache = session.plan_cache();
        assert!(cache.len() <= DEFAULT_PLAN_CACHE_CAP);
        if inserted > DEFAULT_PLAN_CACHE_CAP as u64 {
            assert_eq!(cache.len(), DEFAULT_PLAN_CACHE_CAP, "seed {seed}");
            straddled += 1;
        }
        assert!(
            !long || cache.hits() > 0,
            "seed {seed}: a long run never hit the cache"
        );
    }
    assert!(
        straddled >= 1,
        "no interleaving filled the plan cache and evicted from it"
    );
}
