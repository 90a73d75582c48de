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
//! 3. The two tuple shapes the kernel answers without laying the tuple out
//!    (one descriptor; single-term descriptors on one component) must give
//!    what the laid-out path gives, bit for bit and counter for counter, and
//!    what enumeration gives; and a group of any shape must answer the same
//!    inside a tuple of independent groups as loaded alone.
//! 4. `DescriptorPool` round-trips descriptors and mirrors
//!    `WsDescriptor::conjoin` exactly, including the non-canonical handles
//!    minted by pool conjunction.

use maybms_algebra::{naive, run, run_with, ExecCfg, Plan};
use maybms_core::dnf::{DnfKernel, Loaded};
use maybms_core::rng::Rng;
use maybms_core::{
    Component, ComponentId, ComponentSet, ConfStats, DescriptorPool, Schema, Tuple, URelation,
    Value, ValueType, WorldSet, WsDescriptor,
};
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

fn shuffle<T>(rng: &mut Rng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i + 1));
    }
}

/// A trivial tuple: one descriptor of 1–6 terms, or 2–9 single-term
/// descriptors on one component (repeats allowed, sometimes every
/// alternative, ascending or shuffled), over components of 1–5 alternatives
/// with random weights.
fn gen_trivial_run(rng: &mut Rng, lone: bool) -> (ComponentSet, Vec<WsDescriptor>) {
    let mut cs = ComponentSet::new();
    let ids: Vec<ComponentId> = (0..6)
        .map(|_| {
            let weights: Vec<f64> = (0..rng.range(1, 5)).map(|_| rng.unit_f64()).collect();
            cs.add(Component::from_weights(&weights).expect("positive"))
        })
        .collect();
    let alt = |rng: &mut Rng, c: ComponentId| rng.below(cs.get(c).alternatives().into()) as u16;
    if lone {
        let mut picked = ids.clone();
        shuffle(rng, &mut picked);
        picked.truncate(rng.range(1, 6));
        picked.sort_unstable();
        let terms = picked.iter().map(|&c| (c, alt(rng, c))).collect();
        let d = WsDescriptor::from_terms(terms).expect("distinct components");
        return (cs, vec![d]);
    }
    let c = *rng.pick(&ids);
    let mut alts: Vec<u16> = (0..rng.range(2, 9)).map(|_| alt(rng, c)).collect();
    if rng.chance(0.3) {
        alts.extend(0..cs.get(c).alternatives());
    }
    if rng.chance(0.5) {
        alts.sort_unstable();
    } else {
        shuffle(rng, &mut alts);
    }
    let descs = alts.iter().map(|&a| WsDescriptor::single(c, a)).collect();
    (cs, descs)
}

/// Each trivial shape is answered before `DnfKernel::load` lays the tuple
/// out. Against the laid-out path it replaces (forced here by asking for the
/// group's descriptors first): `conf` bit-equal, the same coverage verdict,
/// cost bound, group size and solver steps. Against enumeration: within
/// 1e-13, and coverage of every world. Through the `conf` operator (which
/// hands the kernel each run in canonical order): the same float and the
/// same `ConfStats`.
#[test]
fn trivial_runs_match_the_laid_out_path_and_enumeration() {
    for case in 0..600u64 {
        let mut rng = Rng::new(0x0781_91A1 ^ case);
        let (cs, descs) = gen_trivial_run(&mut rng, case % 2 == 0);
        let terms = || descs.iter().map(WsDescriptor::terms);
        let at = format!("case {case}: {descs:?}");

        let mut fast = DnfKernel::new();
        assert_eq!(fast.load(terms()), Loaded::Groups(1), "{at}");
        let fast_cost = fast.exact_cost(&cs, 0);
        let fast_p = fast.prob(&cs, 0, u64::MAX).expect("no ceiling");
        let fast_covers = fast.covers(&cs, 0, u64::MAX).expect("no ceiling");

        let mut laid = DnfKernel::new();
        assert_eq!(laid.load(terms()), Loaded::Groups(1), "{at}");
        assert_eq!(laid.group_descs(0).count(), descs.len(), "{at}");
        let laid_p = laid.prob(&cs, 0, u64::MAX).expect("no ceiling");
        assert_eq!(fast_p.to_bits(), laid_p.to_bits(), "{at}: prob");
        assert_eq!(fast.steps(), laid.steps(), "{at}: steps");
        assert_eq!(fast.group_len(0), laid.group_len(0), "{at}: group size");
        assert_eq!(fast_cost, laid.exact_cost(&cs, 0), "{at}: cost bound");
        assert_eq!(
            fast_covers,
            laid.covers(&cs, 0, u64::MAX).expect("no ceiling"),
            "{at}: coverage"
        );

        let conf_p = 1.0 - (1.0 - fast_p);
        assert_eq!(cs.prob_of_dnf(&descs).to_bits(), conf_p.to_bits(), "{at}");
        let oracle = prob_of_dnf_enumerate(&cs, &descs);
        assert!(
            (conf_p - oracle).abs() < 1e-13,
            "{at}: {conf_p} vs {oracle}"
        );
        let every_world = cs
            .enumerate(WORLD_LIMIT)
            .expect("small component set")
            .iter()
            .all(|w| descs.iter().any(|d| d.satisfied_by(w)));
        assert_eq!(fast_covers, every_world, "{at}: coverage by enumeration");
        assert_eq!(covers_all_worlds(&cs, &descs), every_world, "{at}");

        let mut ws = WorldSet::new();
        ws.components = cs.clone();
        let mut rel = URelation::new(Schema::of(&[("k", ValueType::Int)]).expect("one column"));
        for d in &descs {
            rel.push(Tuple::new(vec![Value::Int(0)]), d.clone())
                .expect("row matches schema");
        }
        ws.insert("r", rel).expect("descriptors are valid");
        let (out, _, stats, _) =
            run_with(&mut ws, &conf(Plan::scan("r")), &ExecCfg::default(), false)
                .expect("conf runs");
        let [(tuple, _)] = out.rows() else {
            panic!("{at}: one distinct tuple, got {out}");
        };
        let got = tuple.values()[1].as_f64().expect("conf is a float");
        assert_eq!(got.to_bits(), conf_p.to_bits(), "{at}: operator");
        let laid_stats = ConfStats {
            exact_groups: 1,
            largest_group: laid.group_len(0) as u64,
            exact_steps: laid.steps(),
            ..ConfStats::default()
        };
        assert_eq!(stats.conf, laid_stats, "{at}: counters");
    }
}

/// A tuple of 2–4 independent groups over components of 1–5 alternatives,
/// each group on four components of its own (ids shuffled among the groups)
/// and of one of three shapes: one descriptor of 1–3 terms; 2–7 single-term
/// descriptors on one component (repeats allowed, sometimes every
/// alternative, ascending or shuffled); or a chain over 2–4 components plus
/// 1–2 more descriptors on them. The groups' descriptors are interleaved,
/// each group's kept in its order. Returns the number of groups too.
fn gen_mixed_tuple(rng: &mut Rng) -> (ComponentSet, Vec<WsDescriptor>, usize) {
    let groups = rng.range(2, 4);
    let mut cs = ComponentSet::new();
    let mut ids: Vec<ComponentId> = (0..4 * groups)
        .map(|_| {
            let weights: Vec<f64> = (0..rng.range(1, 5)).map(|_| rng.unit_f64()).collect();
            cs.add(Component::from_weights(&weights).expect("positive"))
        })
        .collect();
    shuffle(rng, &mut ids);
    let alt = |rng: &mut Rng, c: ComponentId| rng.below(cs.get(c).alternatives().into()) as u16;
    let desc = |rng: &mut Rng, on: &[ComponentId]| {
        let terms = on.iter().map(|&c| (c, alt(rng, c))).collect();
        WsDescriptor::from_terms(terms).expect("distinct components")
    };
    let mut lists = Vec::with_capacity(groups);
    for own in ids.chunks_exact(4) {
        let mut own = own.to_vec();
        lists.push(match rng.below(3) {
            0 => {
                let terms = rng.range(1, 3);
                vec![desc(rng, &own[..terms])]
            }
            1 => {
                let c = own[0];
                let mut alts: Vec<u16> = (0..rng.range(2, 7)).map(|_| alt(rng, c)).collect();
                if rng.chance(0.3) {
                    alts.extend(0..cs.get(c).alternatives());
                }
                if rng.chance(0.5) {
                    alts.sort_unstable();
                } else {
                    shuffle(rng, &mut alts);
                }
                alts.iter().map(|&a| WsDescriptor::single(c, a)).collect()
            }
            _ => {
                own.truncate(rng.range(2, 4));
                let mut list: Vec<WsDescriptor> =
                    own.windows(2).map(|link| desc(rng, link)).collect();
                for _ in 0..rng.range(1, 2) {
                    shuffle(rng, &mut own);
                    let terms = rng.range(1, own.len());
                    list.push(desc(rng, &own[..terms]));
                }
                shuffle(rng, &mut list);
                list
            }
        });
    }
    // Deal the descriptors out from the fronts of randomly chosen lists.
    let (total, mut fronts) = (lists.iter().map(Vec::len).sum(), vec![0; groups]);
    let mut descs = Vec::with_capacity(total);
    while descs.len() < total {
        let l = rng.below(groups);
        if let Some(d) = lists[l].get(fronts[l]) {
            descs.push(d.clone());
            fronts[l] += 1;
        }
    }
    (cs, descs, groups)
}

/// A group answers the same wherever it sits: inside a tuple of mixed
/// shapes (never trivial, so laid out) as loaded alone (trivial when it is
/// one descriptor or ascending single terms on one component). `prob`
/// bit-equal, the same steps, coverage verdict, cost bound and size.
#[test]
fn a_group_answers_the_same_wherever_it_sits() {
    for case in 0..600u64 {
        let mut rng = Rng::new(0x6A0F_5175 ^ case);
        let (cs, descs, groups) = gen_mixed_tuple(&mut rng);
        let at = format!("case {case}: {descs:?}");
        let mut tuple = DnfKernel::new();
        let loaded = tuple.load(descs.iter().map(WsDescriptor::terms));
        assert_eq!(loaded, Loaded::Groups(groups), "{at}");
        for g in 0..groups {
            let at = format!("{at}, group {g}");
            let mine: Vec<usize> = tuple.group_descs(g).collect();
            let mut alone = DnfKernel::new();
            let loaded = alone.load(mine.iter().map(|&d| descs[d].terms()));
            assert_eq!(loaded, Loaded::Groups(1), "{at}");
            assert_eq!(tuple.group_len(g), alone.group_len(0), "{at}: size");
            let cost = tuple.exact_cost(&cs, g);
            assert_eq!(cost, alone.exact_cost(&cs, 0), "{at}: cost bound");
            let before = tuple.steps();
            let p = tuple.prob(&cs, g, u64::MAX).expect("no ceiling");
            let q = alone.prob(&cs, 0, u64::MAX).expect("no ceiling");
            assert_eq!(p.to_bits(), q.to_bits(), "{at}: prob");
            assert_eq!(tuple.steps() - before, alone.steps(), "{at}: steps");
            assert_eq!(
                tuple.covers(&cs, g, u64::MAX).expect("no ceiling"),
                alone.covers(&cs, 0, u64::MAX).expect("no ceiling"),
                "{at}: coverage"
            );
        }
    }
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
