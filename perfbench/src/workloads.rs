//! The five workloads: what is generated, which statements make up a round,
//! and what each statement's result is checked against. The "why" of each
//! workload is recorded in `BENCHMARK.json` and the README.

use crate::engine::Action;
use crate::gen::{self, GenData, Rng, Template, Weights};

/// The workload names, in report order.
pub const NAMES: [&str; 5] = [
    "join_mix",
    "conf_uniform",
    "conf_varied",
    "repair_pipeline",
    "small_stmts",
];

/// Every statement id / class a `stmt.<id>.p50_ms` metric is reported for.
pub const STMT_IDS: [&str; 23] = [
    "j3_int",
    "j3_str",
    "j5_sip",
    "j3_skew",
    "poss_push",
    "union_sel",
    "conf_chain10",
    "conf_disj",
    "aconf_chain20",
    "aconf_dense",
    "let_repair",
    "poss_v",
    "cert_k",
    "conf_kv",
    "join_conf",
    "normalize_ws",
    "hot_point",
    "hot_join8",
    "cold_point",
    "cold_join8",
    "join10_greedy",
    "small_conf",
    "let_small",
];

/// ε of the sampled `CONF(ε, δ)` statements.
pub const EPS: f64 = 0.1;
/// δ of the sampled `CONF(ε, δ)` statements.
pub const DELTA: f64 = 0.05;

/// A size that is one value in `conf_uniform` and a range in `conf_varied`.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// The value every `conf_uniform` tuple uses.
    pub uniform: usize,
    /// Smallest `conf_varied` value.
    pub lo: usize,
    /// Largest `conf_varied` value.
    pub hi: usize,
}

/// Input sizes. [`Sizes::FULL`] is what `BENCHMARK.json` measures; the
/// others exist so the same generators and statements run under the smoke
/// test and the enumerate-all-worlds oracle.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Rows per `join_mix` relation.
    pub join_n: usize,
    /// Tuples per `conf_*` relation.
    pub conf_t: usize,
    /// Links of the exactly solved chain.
    pub exact_links: Shape,
    /// Components per disjoint window group.
    pub disj_comps: Shape,
    /// Links of the sampled chain.
    pub sampled_links: Shape,
    /// Components of the dense weld (it carries four more descriptors).
    pub dense_comps: Shape,
    /// Rows of `repair_pipeline`'s `form`.
    pub repair_n: usize,
    /// Rows per `small_stmts` relation.
    pub small_rows: usize,
}

impl Sizes {
    /// The measured sizes, calibrated on the reference host so that a round
    /// takes 50–115 ms (see the README).
    pub const FULL: Sizes = Sizes {
        join_n: 50_000,
        conf_t: 400,
        exact_links: Shape {
            uniform: 10,
            lo: 4,
            hi: 12,
        },
        disj_comps: Shape {
            uniform: 10,
            lo: 6,
            hi: 10,
        },
        sampled_links: Shape {
            uniform: 20,
            lo: 16,
            hi: 24,
        },
        dense_comps: Shape {
            uniform: 26,
            lo: 20,
            hi: 28,
        },
        repair_n: 50_000,
        small_rows: 200,
    };

    /// Tiny sizes for `--smoke`.
    pub const SMOKE: Sizes = Sizes {
        join_n: 600,
        conf_t: 12,
        repair_n: 600,
        small_rows: 24,
        ..Sizes::FULL
    };
}

/// What a statement's reference result must satisfy, beyond every round's
/// digest equalling the reference digest.
#[derive(Clone, Debug, PartialEq)]
pub enum Check {
    /// The digest comparison only.
    Digest,
    /// Exact `CONF` over `rel(id)`: within 1e-9 of the closed-form DP.
    ExactConf(&'static str),
    /// `CONF(EPS, DELTA)` over `rel(id)`: within ε of the DP for ≥ 1 − δ of
    /// the tuples.
    SampledConf(&'static str),
    /// `CONF` over a repaired relation: per-key confidences sum to 1.
    KeyMass,
}

/// One statement of a round.
#[derive(Clone, Debug)]
pub struct Stmt {
    /// Statement id or class (one of [`STMT_IDS`]).
    pub id: &'static str,
    /// What to execute.
    pub action: Action,
    /// What its result is held to.
    pub check: Check,
}

fn sql(id: &'static str, text: impl Into<String>) -> Stmt {
    Stmt {
        id,
        action: Action::Sql(text.into()),
        check: Check::Digest,
    }
}

/// A generated workload.
pub struct Workload {
    /// One of [`NAMES`].
    pub name: &'static str,
    /// The generated input.
    pub data: GenData,
    /// The fixed script executed over and over.
    pub round: Vec<Stmt>,
    /// Whether each round starts on a fresh copy of the loaded world set
    /// (the rounds of a writing workload would otherwise pile up components).
    pub fresh_world_per_round: bool,
    /// The input size, for the report.
    pub size: String,
}

/// Generate workload `name` from `seed`.
pub fn build(name: &str, seed: u64, sizes: &Sizes) -> Result<Workload, String> {
    let mut rng = Rng::new(seed ^ 0x6D61_7962_6D73);
    match name {
        "join_mix" => Ok(join_mix(&mut rng, sizes.join_n)),
        "conf_uniform" => Ok(conf(&mut rng, sizes, true)),
        "conf_varied" => Ok(conf(&mut rng, sizes, false)),
        "repair_pipeline" => Ok(repair_pipeline(&mut rng, sizes.repair_n)),
        "small_stmts" => Ok(small_stmts(&mut rng, sizes.small_rows)),
        other => Err(format!(
            "unknown workload `{other}`; expected one of {}",
            NAMES.join(", ")
        )),
    }
}

fn join_mix(rng: &mut Rng, n: usize) -> Workload {
    let round = vec![
        sql("j3_int", "SELECT * FROM a1, a2, a3"),
        sql(
            "j3_str",
            format!("SELECT * FROM s1, s2, s3 WHERE a < {}", n / 2),
        ),
        sql("j5_sip", "SELECT * FROM f1, f2, f3, f4, f5"),
        sql("j3_skew", "SELECT * FROM z1, z2, z3"),
        sql(
            "poss_push",
            format!("SELECT POSSIBLE a, b, c FROM a1, a2 WHERE a < {}", n / 10),
        ),
        sql(
            "union_sel",
            format!(
                "SELECT a, b FROM a1 WHERE a < {q} UNION SELECT b AS a, c AS b FROM a2 WHERE c < {q}",
                q = n / 4
            ),
        ),
    ];
    Workload {
        name: "join_mix",
        data: gen::join_mix(rng, n),
        round,
        fresh_world_per_round: false,
        size: format!("n={n} rows per relation, 14 relations"),
    }
}

/// Seed of the templates `conf_uniform` replicates. A constant: the one
/// shape every tuple shares decides the whole round's cost, so it must not
/// change with the workload seed (which relabels it per tuple instead).
const UNIFORM_TEMPLATE_SEED: u64 = 0x7E3D_1A7E;

fn conf(rng: &mut Rng, sizes: &Sizes, uniform: bool) -> Workload {
    let t = sizes.conf_t;
    let mut data = GenData::default();
    let (name, weights) = if uniform {
        ("conf_uniform", Weights::Equal)
    } else {
        ("conf_varied", Weights::Random)
    };
    // Per relation: the per-tuple size (one value, or every value of the
    // range equally often) and the template drawn at that size.
    type Draw = fn(&mut Rng, usize, bool) -> Template;
    let relations: [(&str, Shape, Draw); 4] = [
        ("chain10", sizes.exact_links, |r, links, uniform| {
            Template::chain(r, links, if uniform { (2, 2) } else { (2, 4) })
        }),
        ("disj", sizes.disj_comps, |r, comps, uniform| {
            if uniform {
                Template::windows(r, 2, comps, (4, 4))
            } else {
                let groups = r.range(1, 3);
                Template::windows(r, groups, comps, (2, 4))
            }
        }),
        ("chain20", sizes.sampled_links, |r, links, uniform| {
            Template::chain(r, links, if uniform { (2, 2) } else { (2, 4) })
        }),
        ("dense", sizes.dense_comps, |r, comps, uniform| {
            Template::dense(r, comps, comps + 4, if uniform { (2, 2) } else { (2, 4) })
        }),
    ];
    for (rel, shape, draw) in relations {
        if uniform {
            let fixed = draw(&mut Rng::new(UNIFORM_TEMPLATE_SEED), shape.uniform, true);
            data.conf_relation(rng, rel, t, weights, |_, _| fixed.clone());
        } else {
            let sizes_per_tuple = rng.stratified(shape.lo, shape.hi, t);
            data.conf_relation(rng, rel, t, weights, |r, i| {
                draw(r, sizes_per_tuple[i], false)
            });
        }
    }
    let stmt = |id, text: String, check| Stmt {
        id,
        action: Action::Sql(text),
        check,
    };
    let round = vec![
        stmt(
            "conf_chain10",
            "SELECT CONF id FROM chain10".to_owned(),
            Check::ExactConf("chain10"),
        ),
        stmt(
            "conf_disj",
            "SELECT CONF id FROM disj".to_owned(),
            Check::ExactConf("disj"),
        ),
        stmt(
            "aconf_chain20",
            format!("SELECT CONF({EPS}, {DELTA}) id FROM chain20"),
            Check::SampledConf("chain20"),
        ),
        stmt(
            "aconf_dense",
            format!("SELECT CONF({EPS}, {DELTA}) id FROM dense"),
            Check::SampledConf("dense"),
        ),
    ];
    Workload {
        name,
        data,
        round,
        fresh_world_per_round: false,
        size: format!("T={t} tuples per relation, 4 relations"),
    }
}

fn repair_pipeline(rng: &mut Rng, n: usize) -> Workload {
    let mut round = vec![
        sql(
            "let_repair",
            "LET census = REPAIR KEY k IN form WEIGHT BY w",
        ),
        sql("poss_v", "SELECT POSSIBLE v FROM census WHERE w > 2"),
        sql("cert_k", "SELECT CERTAIN k FROM census"),
        Stmt {
            check: Check::KeyMass,
            ..sql("conf_kv", "SELECT CONF k, v FROM census")
        },
        sql(
            "join_conf",
            format!("SELECT CONF city FROM census, homes WHERE v < {}", n / 2),
        ),
    ];
    round.push(Stmt {
        id: "normalize_ws",
        action: Action::Normalize,
        check: Check::Digest,
    });
    Workload {
        name: "repair_pipeline",
        data: gen::repair_pipeline(rng, n),
        round,
        fresh_world_per_round: true,
        size: format!("n={n} form rows, {} keys", (n / 4).max(1)),
    }
}

/// Relations of `small_stmts`.
pub const SMALL_RELATIONS: usize = 12;

/// `small_stmts`: 128 hot + 96 cold + 16 `LET` statements per round.
///
/// The 32 hot texts are issued four times each — as written, re-spaced
/// (same plan-cache entry), with lower-case keywords (a second entry: the
/// cache does not fold case) and that re-spaced — so the hot set fills the
/// 64-entry cache exactly; the 96 cold texts then flood it, so every cold
/// statement and the first spelling of every hot one miss on every round.
/// The `LET`s come last: each changes the catalog fingerprint the cache is
/// keyed on, and they rewrite the same 16 relations with the same content
/// every round, so the fingerprint at the start of a round repeats.
fn small_stmts(rng: &mut Rng, rows: usize) -> Workload {
    let chain = |from: usize, len: usize| -> String {
        (from..from + len)
            .map(|i| format!("r{i}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let point = |rng: &mut Rng, class: &'static str| {
        let i = rng.below(SMALL_RELATIONS);
        sql(
            class,
            format!("SELECT * FROM r{i} WHERE x{i} = {}", rng.below(rows)),
        )
    };
    let join8 = |rng: &mut Rng, class: &'static str| {
        let from = rng.below(SMALL_RELATIONS - 8 + 1);
        sql(
            class,
            format!(
                "SELECT x{from}, x{} FROM {} WHERE x{from} < {}",
                from + 8,
                chain(from, 8),
                rows / 4 + rng.below(rows / 2),
            ),
        )
    };
    let mut hot: Vec<Stmt> = (0..24).map(|_| point(rng, "hot_point")).collect();
    hot.extend((0..8).map(|_| join8(rng, "hot_join8")));
    let respell = |s: &Stmt, lower: bool, spaced: bool| {
        let Action::Sql(text) = &s.action else {
            unreachable!("hot statements are MayQL")
        };
        let mut text = text.clone();
        if lower {
            for kw in ["SELECT", "FROM", "WHERE"] {
                text = text.replace(kw, &kw.to_lowercase());
            }
        }
        if spaced {
            text = text.replace(' ', " \n  ");
        }
        sql(s.id, text)
    };
    let mut round: Vec<Stmt> = Vec::new();
    for (lower, spaced) in [(false, false), (false, true), (true, false), (true, true)] {
        round.extend(hot.iter().map(|s| respell(s, lower, spaced)));
    }
    round.extend((0..56).map(|_| point(rng, "cold_point")));
    round.extend((0..16).map(|_| join8(rng, "cold_join8")));
    for _ in 0..8 {
        let from = rng.below(SMALL_RELATIONS - 10 + 1);
        round.push(sql(
            "join10_greedy",
            format!(
                "SELECT POSSIBLE x{from}, x{} FROM {}",
                from + 10,
                chain(from, 10)
            ),
        ));
    }
    for j in 0..16 {
        // Even relations are uncertain; `x{i+1}` repeats, so tuples carry
        // several descriptors.
        let i = 2 * (j % (SMALL_RELATIONS / 2));
        let bound = rng.below(rows);
        let text = if j % 2 == 0 {
            format!("SELECT CONF x{} FROM r{i} WHERE x{i} >= {bound}", i + 1)
        } else {
            format!("SELECT POSSIBLE x{} FROM r{i} WHERE x{i} < {bound}", i + 1)
        };
        round.push(sql("small_conf", text));
    }
    for j in 0..16 {
        let i = j % SMALL_RELATIONS;
        round.push(sql(
            "let_small",
            format!(
                "LET t{j} = SELECT * FROM r{i} WHERE x{i} < {}",
                rows / 2 + j
            ),
        ));
    }
    Workload {
        name: "small_stmts",
        data: gen::small_stmts(rng, SMALL_RELATIONS, rows),
        round,
        fresh_world_per_round: false,
        size: format!("{SMALL_RELATIONS} relations of {rows} rows, 240 statements per round"),
    }
}
