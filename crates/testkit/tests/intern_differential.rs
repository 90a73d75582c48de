//! Differential tests for the interned execution core and the factorized
//! `conf` algorithm:
//!
//! 1. The interned-pool executor (descriptor handles, zero-copy operators,
//!    hash-and-verify join/dedup) must agree with the enumerate-all-worlds
//!    oracle on randomized plans — per world *and* on the aggregated
//!    `conf` semantics.
//! 2. `ComponentSet::prob_of_dnf` (connected-component factorization with
//!    per-group variable elimination) must agree with the testkit's
//!    `prob_of_dnf_enumerate` (unfactorized brute force) on adversarial
//!    shared-variable DNFs — also when solved under a step ceiling — and
//!    `covers_all_worlds` must agree with brute-force coverage.
//! 3. `DescriptorPool` round-trips descriptors and mirrors
//!    `WsDescriptor::conjoin` exactly, including the non-canonical handles
//!    minted by pool conjunction.

use maybms_algebra::{naive, run};
use maybms_core::dnf::{DnfKernel, Loaded};
use maybms_core::rng::Rng;
use maybms_core::{Component, ComponentSet, DescriptorPool, WorldSet, WsDescriptor};
use maybms_ql::conf;
use maybms_testkit::oracle::{covers_all_worlds, prob_of_dnf_enumerate};
use maybms_testkit::{
    conf_oracle, gen_descriptor, gen_plan, gen_world_set, per_world_results, GenConfig, WORLD_LIMIT,
};

const EPS: f64 = 1e-9;

/// Deeper plans than the base differential suite: more joins means more
/// pool conjunctions, more non-canonical handles, and more hash-dedup.
#[test]
fn interned_executor_matches_per_world_oracle_on_deep_plans() {
    let cfg = GenConfig {
        max_components: 5,
        relations: 3,
        max_rows: 8,
        max_arity: 3,
        domain: 3,
    };
    for case in 0..200u64 {
        let mut rng = Rng::new(0x147E_24ED ^ case);
        let ws = gen_world_set(&mut rng, &cfg);
        let plan = gen_plan(&mut rng, &ws, 4);

        let mut ws_eval = ws.clone();
        let result = run(&mut ws_eval, &plan)
            .unwrap_or_else(|e| panic!("case {case}: eval failed: {e}\nplan: {plan:?}"));

        for (pick, db, _prob) in ws.enumerate(WORLD_LIMIT).expect("small world set") {
            let expected = naive::eval(&plan, &db)
                .unwrap_or_else(|e| panic!("case {case}: naive eval failed: {e}"));
            assert_eq!(
                result.instantiate(&pick),
                expected,
                "case {case}: world {pick:?} disagrees\nplan: {plan:?}\nwsd result:\n{result}"
            );
        }
    }
}

/// `conf` over random plans: the factorized exact confidence of every
/// result tuple must equal the probability mass aggregated over all worlds.
#[test]
fn factorized_conf_matches_world_aggregation() {
    let cfg = GenConfig::default();
    for case in 0..100u64 {
        let mut rng = Rng::new(0xFAC7_0012 ^ case);
        let ws = gen_world_set(&mut rng, &cfg);
        let plan = gen_plan(&mut rng, &ws, 2);
        let worlds = per_world_results(&ws, &plan).expect("oracle evaluates");
        let expected = conf_oracle(&worlds);

        let mut ws_eval = ws.clone();
        let got = run(&mut ws_eval, &conf(plan.clone())).expect("conf runs");
        let conf_idx = got.schema().arity() - 1;
        assert_eq!(got.len(), expected.len(), "case {case}: support size");
        for (t, _) in got.rows() {
            let data = maybms_core::Tuple::new(t.values()[..conf_idx].to_vec());
            let p = t.get(conf_idx).as_f64().expect("conf column is a float");
            let want = expected[&data];
            assert!(
                (p - want).abs() < EPS,
                "case {case}: conf({data}) = {p}, oracle {want}\nplan: {plan:?}"
            );
        }
    }
}

/// Random components with several alternatives each.
fn gen_components(rng: &mut Rng, n: usize) -> ComponentSet {
    let mut cs = ComponentSet::new();
    for _ in 0..n {
        let alts = rng.range(2, 4);
        let weights: Vec<f64> = (0..alts).map(|_| rng.unit_f64()).collect();
        cs.add(Component::from_weights(&weights).expect("positive weights"));
    }
    cs
}

/// Factorized DNF probability and coverage versus the brute-force
/// enumerator, on DNFs engineered to stress the connected-component
/// partition: variable chains that bridge would-be groups, duplicated
/// descriptors, subsumed descriptors, and fully disjoint blocks.
#[test]
fn dnf_factorization_matches_brute_force() {
    for case in 0..400u64 {
        let mut rng = Rng::new(0xD9F_CA5E ^ case);
        let n = rng.range(1, 7);
        let cs = gen_components(&mut rng, n);
        let mut ws = WorldSet::new();
        ws.components = cs.clone();

        let mut descs: Vec<WsDescriptor> = Vec::new();
        for _ in 0..rng.range(1, 6) {
            descs.push(gen_descriptor(&mut rng, &ws));
        }
        // Adversarial garnish: duplicate one descriptor, and add a chain
        // descriptor linking two random components (bridging groups).
        if rng.chance(0.5) {
            let d = descs[rng.below(descs.len())].clone();
            descs.push(d);
        }
        if n >= 2 && rng.chance(0.7) {
            let a = rng.below(n);
            let mut b = rng.below(n);
            while b == a {
                b = rng.below(n);
            }
            let bridge = WsDescriptor::from_terms(vec![
                (
                    maybms_core::ComponentId(a as u32),
                    rng.below(cs.get(maybms_core::ComponentId(a as u32)).alternatives() as usize)
                        as u16,
                ),
                (
                    maybms_core::ComponentId(b as u32),
                    rng.below(cs.get(maybms_core::ComponentId(b as u32)).alternatives() as usize)
                        as u16,
                ),
            ])
            .expect("distinct components");
            descs.push(bridge);
        }

        let fast = cs.prob_of_dnf(&descs);
        let brute = prob_of_dnf_enumerate(&cs, &descs);
        assert!(
            (fast - brute).abs() < EPS,
            "case {case}: factorized {fast} vs brute {brute}\ndescs: {descs:?}"
        );

        // Coverage must agree with per-world satisfaction.
        let covered_brute = cs
            .enumerate(WORLD_LIMIT)
            .expect("small component set")
            .iter()
            .all(|w| descs.iter().any(|d| d.satisfied_by(w)));
        assert_eq!(
            covers_all_worlds(&cs, &descs),
            covered_brute,
            "case {case}: coverage disagrees\ndescs: {descs:?}"
        );
    }
}

/// Hand-picked shapes where the factorization boundary is exact: two
/// disjoint blocks, probability `1 − (1 − p₁)(1 − p₂)`.
#[test]
fn disjoint_blocks_multiply() {
    let mut cs = ComponentSet::new();
    let c: Vec<_> = (0..4)
        .map(|_| cs.add(Component::from_weights(&[1.0, 3.0]).expect("positive")))
        .collect();
    // Block A: chain over c0,c1. Block B: chain over c2,c3.
    let descs = vec![
        WsDescriptor::from_terms(vec![(c[0], 0), (c[1], 1)]).expect("distinct"),
        WsDescriptor::from_terms(vec![(c[1], 0)]).expect("distinct"),
        WsDescriptor::from_terms(vec![(c[2], 1), (c[3], 0)]).expect("distinct"),
    ];
    let pa = prob_of_dnf_enumerate(&cs, &descs[..2]);
    let pb = prob_of_dnf_enumerate(&cs, &descs[2..]);
    let expected = 1.0 - (1.0 - pa) * (1.0 - pb);
    assert!((cs.prob_of_dnf(&descs) - expected).abs() < EPS);
    assert!((prob_of_dnf_enumerate(&cs, &descs) - expected).abs() < EPS);
}

/// A wide-frontier group solved under a step ceiling that it fits: sixteen
/// coins, links among the first eight, and each of them paired with the coin
/// eight positions on, so eight descriptors stay open across the middle. (The
/// kernel's own unit test pins that ceilings below the group's work stop it.)
#[test]
fn a_solve_under_a_sufficient_ceiling_matches_brute_force() {
    let mut cs = ComponentSet::new();
    let c: Vec<_> = (0..16)
        .map(|_| cs.add(Component::uniform(2).expect("positive")))
        .collect();
    let pair = |a: usize, b: usize, alt: u16| {
        WsDescriptor::from_terms(vec![(c[a], alt), (c[b], alt)]).expect("distinct")
    };
    let mut descs: Vec<WsDescriptor> = (0..7).map(|i| pair(i, i + 1, 1)).collect();
    descs.extend((0..8).map(|i| pair(i, i + 8, 0)));
    let mut kernel = DnfKernel::new();
    assert_eq!(
        kernel.load(descs.iter().map(WsDescriptor::terms)),
        Loaded::Groups(1)
    );
    let p = kernel.prob(&cs, 0, 1 << 14).expect("fits the ceiling");
    assert!(
        (p - prob_of_dnf_enumerate(&cs, &descs)).abs() < 1e-15,
        "{p}"
    );
}

/// Pool round-trip and conjunction against the owned-descriptor semantics,
/// including subsumption shortcuts and conflict detection.
#[test]
fn pool_conjoin_mirrors_descriptor_conjoin() {
    for case in 0..300u64 {
        let mut rng = Rng::new(0x900_1C0 ^ case);
        let n = rng.range(1, 5);
        let cs = gen_components(&mut rng, n);
        let mut ws = WorldSet::new();
        ws.components = cs;

        let mut pool = DescriptorPool::new();
        let a = gen_descriptor(&mut rng, &ws);
        let b = gen_descriptor(&mut rng, &ws);
        let (ia, ib) = (pool.intern(&a), pool.intern(&b));
        assert_eq!(pool.to_descriptor(ia), a, "round-trip a");
        assert_eq!(pool.to_descriptor(ib), b, "round-trip b");
        assert_eq!(pool.intern(&a), ia, "canonical handle");

        match (a.conjoin(&b), pool.conjoin(ia, ib)) {
            (Some(d), Some(id)) => {
                assert_eq!(
                    pool.to_descriptor(id),
                    d,
                    "case {case}: pool conjunction of {a} and {b}"
                );
                // Conjunction may mint a non-canonical handle; it must still
                // compare equal to the canonical one by content.
                let canon = pool.intern(&d);
                assert!(pool.same_descriptor(id, canon));
            }
            (None, None) => {}
            (d, id) => panic!("case {case}: conjoin disagrees: {d:?} vs {id:?} for {a} ∧ {b}"),
        }
    }
}
