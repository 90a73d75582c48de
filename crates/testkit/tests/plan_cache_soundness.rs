//! The plan cache serves only plans a fresh compile would pick.
//!
//! `gen_query` texts over randomized world sets go through one
//! [`PlanCache`], each issued as written, with every keyword lower-cased,
//! re-spaced across lines and comments, trailed by a comment, and with
//! every literal changed (a query that shares all other tokens and must
//! not be served the original's plan). Every hit
//! must print the same plan (the form `EXPLAIN` shows) as
//! `optimize_plan(lower(parse(text)))` against the catalog at hand; every
//! miss stores that fresh plan. The cache outlives each world set, so texts
//! of later cases also probe entries compiled against earlier catalogs. A
//! failing case prints its seed and text for exact replay.

use maybms_core::rng::Rng;
use maybms_core::WorldSet;
use maybms_sql::lexer::{lex, TokenKind};
use maybms_sql::{lower, optimize_plan, parse_query, Catalog, PlanCache};
use maybms_testkit::{gen_query, gen_typed_world_set, gen_world_set, GenConfig};

/// Randomized world sets per generator (at least 100).
const CASES: usize = 120;

/// Queries per world set, sharing its catalog.
const QUERIES: usize = 4;

/// What goes between two tokens of a re-spaced text.
const GAPS: [&str; 5] = [" ", "  ", "\n\t", " -- it's a comment\n", "\n-- (x 'y\n  "];

/// `text` rebuilt from its tokens: each identifier through `word`, each
/// literal through `literal`, and each gap drawn from [`GAPS`].
fn respelled(
    text: &str,
    rng: &mut Rng,
    word: fn(&str) -> String,
    literal: fn(&str) -> String,
) -> String {
    let mut out = String::new();
    for token in lex(text).expect("a generated text lexes") {
        let spelled = &text[token.span.start..token.span.end];
        match token.kind {
            TokenKind::Eof => break,
            TokenKind::Ident(_) => out.push_str(&word(spelled)),
            TokenKind::Int(_) | TokenKind::Float(_) | TokenKind::Str(_) => {
                out.push_str(&literal(spelled))
            }
            _ => out.push_str(spelled),
        }
        out.push_str(GAPS[rng.below(GAPS.len())]);
    }
    out
}

/// A literal of the same kind with another value: a number with a digit
/// appended, a string with the case of its letters swapped (or, without
/// letters, one more character).
fn other_literal(spelled: &str) -> String {
    let Some(contents) = spelled.strip_prefix('\'') else {
        return format!("{spelled}1");
    };
    let swapped: String = contents
        .chars()
        .map(|c| match c.is_ascii_lowercase() {
            true => c.to_ascii_uppercase(),
            false => c.to_ascii_lowercase(),
        })
        .collect();
    if swapped == contents {
        format!("'x{contents}")
    } else {
        format!("'{swapped}")
    }
}

/// Run five spellings of each case's queries through `cache`.
fn cases(
    cache: &mut PlanCache,
    seed0: u64,
    gen_ws: fn(&mut Rng, &GenConfig) -> WorldSet,
    cfg: &GenConfig,
) {
    for case in 0..CASES {
        let seed = seed0 + case as u64;
        let mut rng = Rng::new(seed);
        let ws = gen_ws(&mut rng, cfg);
        let catalog = Catalog::from_world_set(&ws);
        for q in 0..QUERIES {
            let (text, _) = gen_query(&mut rng, &ws, 3);
            let same = str::to_string;
            let lowered = respelled(&text, &mut rng, str::to_ascii_lowercase, same);
            let respaced = respelled(&text, &mut rng, same, same);
            let trailed = format!("{text} -- it's the end");
            let other = respelled(&text, &mut rng, same, other_literal);
            let spellings = [&text, &lowered, &respaced, &trailed, &other];
            for (i, variant) in spellings.into_iter().enumerate() {
                let at = format!("seed {seed:#x}, query {q}, spelling {i}: {variant}");
                let query = parse_query(variant).unwrap_or_else(|e| panic!("{at}: {e}"));
                let (plan, _) = lower(&catalog, &query).unwrap_or_else(|e| panic!("{at}: {e}"));
                let fresh = optimize_plan(&catalog, &plan, query.span())
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                let hits = cache.hits();
                match cache.lookup(&catalog, variant) {
                    Some(hit) => assert_eq!(hit.plan.to_string(), fresh.to_string(), "{at}"),
                    None => cache.insert(&catalog, variant, fresh, None),
                }
                // The tokens of the text as written, just looked up or
                // stored against this catalog: always a hit.
                if i == 2 || i == 3 {
                    assert_eq!(cache.hits(), hits + 1, "{at}: expected a hit");
                }
            }
        }
    }
}

#[test]
fn every_hit_is_the_plan_a_fresh_compile_picks() {
    let mut cache = PlanCache::default();
    cases(
        &mut cache,
        0xCAC4_0000,
        gen_world_set,
        &GenConfig::default(),
    );
    // Relations with string, float, boolean and `NULL` cells, so literals of
    // every kind reach the key.
    let typed = GenConfig {
        max_arity: 5,
        ..GenConfig::default()
    };
    cases(&mut cache, 0xCAC4_7000, gen_typed_world_set, &typed);
    // Re-spaced and commented spellings hit by construction; lower-cased
    // keywords add more.
    assert!(
        cache.hits() > (2 * 2 * CASES * QUERIES) as u64,
        "hits {} misses {}",
        cache.hits(),
        cache.misses()
    );
}
