//! Differential tests for `conf(eps, delta)` — the (ε, δ)-approximate
//! confidence solver — against the exact solver and brute-force world
//! enumeration:
//!
//! * **sampled vs exact** — with the cutover forced to 0 (every group
//!   sampled), estimates stay within ε of the exact confidences across
//!   chain, disjoint, and dense bridging descriptor shapes, over ≥ 50
//!   seeds per shape;
//! * **thread-count parity** — forced-sampling runs at `threads = 1` and
//!   `threads = 4` (morsel threshold 1) are byte-identical, because the
//!   sampling streams are keyed on descriptor-group content rather than
//!   any execution index;
//! * **cutover boundary** — with the limit at a group's exact cost, the
//!   exact path runs and results are bit-identical to exact `conf` (and
//!   match the enumeration oracle); one below, the group samples and the
//!   estimate still lands within ε of the oracle;
//! * **seed reproducibility** — equal seeds give bit-identical estimates,
//!   and the executor's confidence counters account for every group;
//! * **the guarantee, measured** — over 300 sampling seeds per estimator
//!   regime the empirical miss rate stays ≤ δ, with one estimate per
//!   regime pinned to the sampler's lane layout.
//!
//! A failing case prints its seed for exact replay.

use std::collections::BTreeMap;

use maybms_algebra::{run, run_with, ExecCfg, Plan};
use maybms_core::rng::Rng;
use maybms_core::{
    Component, ParCfg, Schema, Tuple, URelation, Value, ValueType, WorldSet, WsDescriptor,
};
use maybms_ql::{conf, conf_approx_with, ApproxConf};
use maybms_testkit::oracle::{connected_groups, group_exact_cost};
use maybms_testkit::{conf_oracle, per_world_results};

/// Seeds per shape; the issue's acceptance bar is ≥ 50.
const SEEDS: u64 = 60;
/// Absolute error bound under test.
const EPS: f64 = 0.05;
/// Per-tuple failure probability. The suite runs a few hundred estimates,
/// so with Hoeffding's (conservative) draw counts a fixed-seed failure
/// would be a genuine bug, not noise — and seeds are fixed, so a passing
/// suite stays passing.
const DELTA: f64 = 1e-3;

/// `ApproxConf` with the cutover forced to 0: every group samples.
fn forced(seed: u64) -> ApproxConf {
    ApproxConf {
        eps: EPS,
        delta: DELTA,
        seed,
        exact_limit: 0,
    }
}

fn exec(threads: usize) -> ExecCfg {
    ExecCfg {
        par: ParCfg {
            threads,
            min_rows: 1,
        },
    }
}

/// Descriptor shapes the solver factorizes differently: one long connected
/// chain (single big group), independent singletons (many unit groups),
/// and a dense pile of two-term bridges (few mid-sized groups).
#[derive(Clone, Copy, Debug)]
enum Shape {
    Chain,
    Disjoint,
    Dense,
}

const SHAPES: [Shape; 3] = [Shape::Chain, Shape::Disjoint, Shape::Dense];

/// A world set with one relation `r(a)` whose tuples carry descriptors of
/// the given shape. Component weights are randomized so no estimate is
/// saved by symmetry; every tuple appears under several descriptors so
/// `conf` solves a genuine disjunction.
fn shaped_world(rng: &mut Rng, shape: Shape) -> WorldSet {
    let mut ws = WorldSet::new();
    let comp = |rng: &mut Rng| {
        let w0 = rng.range(1, 9) as f64;
        let w1 = rng.range(1, 9) as f64;
        Component::from_weights(&[w0, w1]).expect("positive weights")
    };
    let schema = Schema::of(&[("a", ValueType::Int)]).expect("one column");
    let mut rel = URelation::new(schema);
    match shape {
        Shape::Chain => {
            // c0 — c1 — … — c_len: two-term links, one connected group.
            let len = rng.range(4, 9);
            let ids: Vec<_> = (0..=len).map(|_| ws.components.add(comp(rng))).collect();
            for i in 0..len {
                let d = WsDescriptor::single(ids[i], 0)
                    .conjoin(&WsDescriptor::single(ids[i + 1], 0))
                    .expect("distinct components");
                rel.push(Tuple::new(vec![Value::Int(0)]), d)
                    .expect("tuple matches schema");
            }
        }
        Shape::Disjoint => {
            // Independent singletons: every descriptor is its own group.
            for _ in 0..rng.range(2, 4) {
                let c = ws.components.add(comp(rng));
                rel.push(
                    Tuple::new(vec![Value::Int(0)]),
                    WsDescriptor::single(c, rng.below(2) as u16),
                )
                .expect("tuple matches schema");
            }
        }
        Shape::Dense => {
            // Random two-term bridges over a small component pool: groups
            // merge and split with the draw, covering mixed shapes.
            let ids: Vec<_> = (0..rng.range(4, 7))
                .map(|_| ws.components.add(comp(rng)))
                .collect();
            for _ in 0..rng.range(3, 7) {
                let i = rng.below(ids.len());
                let mut j = rng.below(ids.len());
                if j == i {
                    j = (j + 1) % ids.len();
                }
                let d = WsDescriptor::single(ids[i], rng.below(2) as u16)
                    .conjoin(&WsDescriptor::single(ids[j], rng.below(2) as u16))
                    .expect("distinct components");
                rel.push(Tuple::new(vec![Value::Int(0)]), d)
                    .expect("tuple matches schema");
            }
        }
    }
    // A second tuple with a fresh singleton keeps the per-tuple error
    // budgets independent (each tuple splits ε over its own groups only).
    let extra = ws.components.add(comp(rng));
    rel.push(
        Tuple::new(vec![Value::Int(1)]),
        WsDescriptor::single(extra, 0),
    )
    .expect("tuple matches schema");
    ws.insert("r", rel).expect("descriptors are valid");
    ws
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

/// Forced sampling lands within ε of the exact solver on every shape, for
/// 60 seeds per shape — the issue's sampled-vs-exact differential.
#[test]
fn sampling_matches_exact_within_eps_across_shapes() {
    for shape in SHAPES {
        for seed in 0..SEEDS {
            let mut rng = Rng::new(0xA990_C0DE ^ (seed << 8) ^ shape as u64);
            let ws = shaped_world(&mut rng, shape);

            let exact = run(&mut ws.clone(), &conf(Plan::scan("r"))).expect("exact conf runs");
            let approx = run(
                &mut ws.clone(),
                &conf_approx_with(Plan::scan("r"), forced(seed)),
            )
            .expect("approx conf runs");

            let exact = conf_as_map(&exact);
            let approx = conf_as_map(&approx);
            assert_eq!(
                exact.keys().collect::<Vec<_>>(),
                approx.keys().collect::<Vec<_>>(),
                "{shape:?} seed {seed}: support disagrees"
            );
            for (t, p) in &exact {
                assert!(
                    (approx[t] - p).abs() <= EPS,
                    "{shape:?} seed {seed}: |{} - {p}| > {EPS} for {t}",
                    approx[t]
                );
            }
        }
    }
}

/// Forced-sampling runs are byte-identical across thread counts: the
/// sampling streams are functions of descriptor-group content, not of any
/// morsel or worker index.
#[test]
fn sampling_is_bit_identical_across_thread_counts() {
    for shape in SHAPES {
        for seed in 0..SEEDS {
            let mut rng = Rng::new(0x7EAD_5AFE ^ (seed << 8) ^ shape as u64);
            let ws = shaped_world(&mut rng, shape);
            let plan = conf_approx_with(Plan::scan("r"), forced(seed));

            let (r1, _, _, _) =
                run_with(&mut ws.clone(), &plan, &exec(1), false).expect("threads=1 runs");
            let (r4, _, _, _) =
                run_with(&mut ws.clone(), &plan, &exec(4), false).expect("threads=4 runs");
            assert_eq!(
                r1, r4,
                "{shape:?} seed {seed}: results differ across thread counts"
            );
        }
    }
}

/// The cutover boundary is exact: with the limit *at* the most expensive
/// group's cost bound, every group stays on the exact path and the result
/// is bit-identical to exact `conf` (which matches the enumeration
/// oracle); one below, that group samples — and still lands within ε of
/// the oracle, with the executor's counters recording the switch.
#[test]
fn cutover_boundary_is_bitwise_exact_then_samples() {
    for (i, shape) in SHAPES.iter().enumerate() {
        for seed in 0..20u64 {
            let mut rng = Rng::new(0xB0_DA57 ^ (seed << 8) ^ i as u64);
            let ws = shaped_world(&mut rng, *shape);

            // Cost bound of the most expensive connected group of any
            // distinct tuple's descriptor set.
            let rel = &ws.relations["r"];
            let mut by_tuple: BTreeMap<Tuple, Vec<WsDescriptor>> = BTreeMap::new();
            for (t, d) in rel.rows() {
                by_tuple.entry(t.clone()).or_default().push(d.clone());
            }
            let max_cost = by_tuple
                .values()
                .flat_map(|descs| {
                    let refs: Vec<&WsDescriptor> = descs.iter().collect();
                    connected_groups(&refs)
                        .iter()
                        .map(|g| group_exact_cost(&ws.components, g))
                        .collect::<Vec<_>>()
                })
                .max()
                .expect("at least one group") as u64;

            let oracle = {
                let worlds = per_world_results(&ws, &Plan::scan("r")).expect("oracle evaluates");
                conf_oracle(&worlds)
            };
            let exact = run(&mut ws.clone(), &conf(Plan::scan("r"))).expect("exact conf runs");

            // Limit == cost: every group is exact, bitwise equal to `conf`.
            let at = ApproxConf {
                exact_limit: max_cost,
                ..forced(seed)
            };
            let (r_at, _, stats_at, _) = run_with(
                &mut ws.clone(),
                &conf_approx_with(Plan::scan("r"), at),
                &exec(1),
                false,
            )
            .expect("boundary run");
            assert_eq!(
                r_at, exact,
                "{shape:?} seed {seed}: limit == cost must stay exact"
            );
            assert_eq!(stats_at.conf.sampled_groups, 0);
            assert_eq!(stats_at.conf.samples_drawn, 0);
            for (t, p) in conf_as_map(&r_at) {
                assert!(
                    (oracle[&t] - p).abs() < 1e-9,
                    "{shape:?} seed {seed}: exact path off the oracle at {t}"
                );
            }

            // Limit == cost − 1: the expensive group samples.
            let below = ApproxConf {
                exact_limit: max_cost - 1,
                ..forced(seed)
            };
            let (r_below, _, stats_below, _) = run_with(
                &mut ws.clone(),
                &conf_approx_with(Plan::scan("r"), below),
                &exec(1),
                false,
            )
            .expect("below-boundary run");
            assert!(
                stats_below.conf.sampled_groups >= 1,
                "{shape:?} seed {seed}: limit below cost must sample"
            );
            assert!(stats_below.conf.samples_drawn > 0);
            for (t, p) in conf_as_map(&r_below) {
                assert!(
                    (oracle[&t] - p).abs() <= EPS,
                    "{shape:?} seed {seed}: |{p} - {}| > {EPS} at {t}",
                    oracle[&t]
                );
            }
        }
    }
}

/// Equal seeds reproduce estimates bit for bit; the confidence counters
/// account for every connected group, exact plus sampled.
#[test]
fn seeds_reproduce_and_stats_account_for_groups() {
    for seed in 0..20u64 {
        let mut rng = Rng::new(0x5EED_CA5E ^ seed);
        let ws = shaped_world(&mut rng, Shape::Dense);
        let plan = conf_approx_with(Plan::scan("r"), forced(seed));

        let (a, _, stats, _) =
            run_with(&mut ws.clone(), &plan, &exec(1), false).expect("first run");
        let b = run(&mut ws.clone(), &plan).expect("second run");
        assert_eq!(a, b, "seed {seed}: same seed must reproduce exactly");

        // Forced cutover: every group sampled, none exact, and the group
        // count matches an independent recount over the stored rows.
        let rel = &ws.relations["r"];
        let mut by_tuple: BTreeMap<Tuple, Vec<WsDescriptor>> = BTreeMap::new();
        for (t, d) in rel.rows() {
            by_tuple.entry(t.clone()).or_default().push(d.clone());
        }
        let groups: u64 = by_tuple
            .values()
            .map(|descs| {
                let refs: Vec<&WsDescriptor> = descs.iter().collect();
                connected_groups(&refs).len() as u64
            })
            .sum();
        assert_eq!(stats.conf.exact_groups, 0, "seed {seed}");
        assert_eq!(stats.conf.sampled_groups, groups, "seed {seed}");
        assert!(stats.conf.largest_group >= 1);
    }
}

/// A tuple mixing one cheap and one expensive group under a mid-range
/// limit takes both paths in a single solve: the cheap group exact, the
/// expensive one sampled — and the combined estimate still lands within ε
/// (exact groups spend none of the error budget).
#[test]
fn mixed_exact_and_sampled_groups_within_one_tuple() {
    for seed in 0..20u64 {
        let mut rng = Rng::new(0x111D_C0DE ^ seed);
        let mut ws = WorldSet::new();
        let comp = |rng: &mut Rng, alts: usize| {
            let ws: Vec<f64> = (0..alts).map(|_| rng.range(1, 9) as f64).collect();
            Component::from_weights(&ws).expect("positive weights")
        };
        // Cheap group: one singleton (cost 2). Expensive group: a chain of
        // 8 links over 9 three-way components — cost min(2⁸, 3⁹) = 256.
        let cheap = ws.components.add(comp(&mut rng, 2));
        let ids: Vec<_> = (0..9)
            .map(|_| ws.components.add(comp(&mut rng, 3)))
            .collect();
        let schema = Schema::of(&[("a", ValueType::Int)]).expect("one column");
        let mut rel = URelation::new(schema);
        rel.push(
            Tuple::new(vec![Value::Int(0)]),
            WsDescriptor::single(cheap, 0),
        )
        .expect("tuple matches schema");
        for i in 0..8 {
            let d = WsDescriptor::single(ids[i], 0)
                .conjoin(&WsDescriptor::single(ids[i + 1], 0))
                .expect("distinct components");
            rel.push(Tuple::new(vec![Value::Int(0)]), d)
                .expect("tuple matches schema");
        }
        ws.insert("r", rel).expect("descriptors are valid");

        let exact = run(&mut ws.clone(), &conf(Plan::scan("r"))).expect("exact conf runs");
        let approx = ApproxConf {
            eps: EPS,
            delta: DELTA,
            seed,
            exact_limit: 16, // 2 ≤ 16 < 256
        };
        let (got, _, stats, _) = run_with(
            &mut ws.clone(),
            &conf_approx_with(Plan::scan("r"), approx),
            &exec(1),
            false,
        )
        .expect("mixed run");
        assert_eq!(stats.conf.exact_groups, 1, "seed {seed}");
        assert_eq!(stats.conf.sampled_groups, 1, "seed {seed}");
        let exact = conf_as_map(&exact);
        for (t, p) in conf_as_map(&got) {
            assert!(
                (exact[&t] - p).abs() <= EPS,
                "seed {seed}: |{p} - {}| > {EPS}",
                exact[&t]
            );
        }
    }
}

/// Sampling seeds per regime for the statistical check.
const STAT_SEEDS: u64 = 300;
/// A loose δ (and, per regime, an ε that keeps an estimate at a few hundred
/// draws) so that a miss is not vanishingly rare and the empirical rate
/// means something.
const STAT_DELTA: f64 = 0.1;

/// A world with one relation `r(a)` of four tuples, each carrying one
/// connected chain of `links` descriptors `cᵢ=0 ∧ cᵢ₊₁=0` over its own
/// `alts`-way components (weights 1 : 2 : 2 : …), plus — when `singleton` —
/// one independent single-term descriptor.
fn chain_world(links: usize, alts: usize, singleton: bool) -> WorldSet {
    let mut ws = WorldSet::new();
    let mut weights = vec![2.0; alts];
    weights[0] = 1.0;
    let schema = Schema::of(&[("a", ValueType::Int)]).expect("one column");
    let mut rel = URelation::new(schema);
    for t in 0..4 {
        let tuple = || Tuple::new(vec![Value::Int(t)]);
        let mut comp = || {
            ws.components
                .add(Component::from_weights(&weights).expect("positive weights"))
        };
        let ids: Vec<_> = (0..=links).map(|_| comp()).collect();
        if singleton {
            rel.push(tuple(), WsDescriptor::single(comp(), 0))
                .expect("tuple matches schema");
        }
        for i in 0..links {
            let d = WsDescriptor::single(ids[i], 0)
                .conjoin(&WsDescriptor::single(ids[i + 1], 0))
                .expect("distinct components");
            rel.push(tuple(), d).expect("tuple matches schema");
        }
    }
    ws.insert("r", rel).expect("descriptors are valid");
    ws
}

/// The (ε, δ) guarantee, measured: over 300 sampling seeds per regime, the
/// share of estimates farther than ε from the exact confidence stays ≤ δ —
/// for plain Monte Carlo (`U ≥ 1`), for Karp–Luby (`U < 1`), and for tuples
/// that mix an exactly solved group with a sampled one. Every run is
/// bit-identical at one and four threads, and one estimate per regime is
/// pinned to the lane layout: draw `ℓ` is bit `ℓ mod 64` of word `ℓ / 64`,
/// and a block of ≤ 8 words reads the group's content-keyed stream front to
/// back — under Karp–Luby one word per lane's pick first, then slot by slot
/// (ascending component id), branch by branch (ascending alternative), word
/// by word, the words `bernoulli64` needs to settle that branch's 64 lanes.
/// These digits move only when that order, the digit comparison, the stream
/// key or the Hoeffding count (150 and 225 draws here) changes — which must
/// be deliberate.
#[test]
fn empirical_miss_rate_stays_under_delta_in_every_regime() {
    // (name, world, ε, cutover, the seed-0 estimate of tuple 0)
    let regimes = [
        // P(dᵢ) = (1/3)² and twelve links: U = 4/3, 150 Monte Carlo draws.
        ("monte-carlo", chain_world(12, 2, false), 0.1, 0, 0.72),
        // P(dᵢ) = (1/7)² and twelve links: U = 12/49, 225 Karp–Luby draws.
        (
            "karp-luby",
            chain_world(12, 4, false),
            0.02,
            0,
            0.1970068027210884,
        ),
        // The singleton prices 2 and stays exact; the chain prices 50.
        (
            "mixed",
            chain_world(12, 2, true),
            0.1,
            2,
            0.8133333333333332,
        ),
    ];
    for (name, ws, eps, limit, pinned) in regimes {
        let exact = conf_as_map(&run(&mut ws.clone(), &conf(Plan::scan("r"))).expect("exact"));
        let (mut misses, mut estimates) = (0u64, 0u64);
        for seed in 0..STAT_SEEDS {
            let plan = conf_approx_with(
                Plan::scan("r"),
                ApproxConf {
                    eps,
                    delta: STAT_DELTA,
                    seed,
                    exact_limit: limit,
                },
            );
            let (r1, _, stats, _) =
                run_with(&mut ws.clone(), &plan, &exec(1), false).expect("threads=1 runs");
            let (r4, _, _, _) =
                run_with(&mut ws.clone(), &plan, &exec(4), false).expect("threads=4 runs");
            assert_eq!(r1, r4, "{name} seed {seed}: thread counts disagree");
            assert_eq!(stats.conf.sampled_groups, 4, "{name} seed {seed}");
            assert_eq!(stats.conf.exact_groups, 4 * (limit > 0) as u64, "{name}");
            let got = conf_as_map(&r1);
            if seed == 0 {
                let first = got[&Tuple::new(vec![Value::Int(0)])];
                assert_eq!(first, pinned, "{name}: pinned estimate moved");
            }
            for (t, p) in &exact {
                estimates += 1;
                misses += u64::from((got[t] - p).abs() > eps);
            }
        }
        let rate = misses as f64 / estimates as f64;
        assert!(
            rate <= STAT_DELTA,
            "{name}: {misses} of {estimates} estimates missed by more than {eps}"
        );
        println!("{name}: {misses} of {estimates} estimates outside ±{eps}");
    }
}
