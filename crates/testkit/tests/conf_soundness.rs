//! Floating-point soundness of exact `conf`: the solver against an
//! integer-exact oracle.
//!
//! Every component is `Component::uniform`, so each assignment of a group's
//! components has the same probability and the exact confidence is a ratio
//! of two integers: the number of assignments that satisfy some descriptor
//! (counted in `u128` by plain enumeration, no floats) over the number of
//! assignments. `ComponentSet::prob_of_dnf` must land within 1e-13 of that
//! ratio and inside `[0, 1]`.
//!
//! The shapes are the ones where a float solver can go wrong: 8–14
//! descriptors in one connected group (an alternating inclusion–exclusion
//! sum over them cancels up to 2¹⁴ terms), alternative counts of 3, 5 and 7
//! (probabilities with no finite binary expansion), component ids scrambled
//! against the group's structure (the elimination frontier is wide), and
//! more than 64 descriptors on one component (bitsets of several words).
//!
//! A failing case prints its seed for exact replay; each shape's worst error
//! is printed with `--nocapture`.

use maybms_algebra::{run, Plan};
use maybms_core::rng::Rng;
use maybms_core::{
    Component, ComponentId, ComponentSet, Schema, Tuple, URelation, Value, ValueType, WorldSet,
    WsDescriptor,
};
use maybms_ql::conf;
use maybms_testkit::oracle::{covers_all_worlds, prob_of_dnf_enumerate};

/// Cases per shape.
const CASES: u64 = 120;
/// The oracle enumerates every assignment; keep that affordable.
const MAX_ASSIGNMENTS: u128 = 50_000;
/// Allowed distance from the integer-exact ratio.
const TOLERANCE: f64 = 1e-13;

#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Two-term links between neighbouring positions.
    Chain,
    /// Windows of two or three neighbouring positions, overlapping.
    Windows,
    /// Three-term descriptors over random positions: a dense weld.
    Weld,
    /// 65–90 descriptors that all mention one many-valued component.
    WideKey,
}

const SHAPES: [Shape; 4] = [Shape::Chain, Shape::Windows, Shape::Weld, Shape::WideKey];

/// `positions` uniform components whose ids are a random permutation of the
/// positions, with alternative counts drawn from `alts` until the assignment
/// count fits the oracle.
fn scrambled_components(
    rng: &mut Rng,
    positions: usize,
    alts: &[usize],
) -> (ComponentSet, Vec<ComponentId>) {
    let counts = loop {
        let counts: Vec<usize> = (0..positions).map(|_| *rng.pick(alts)).collect();
        if counts.iter().map(|&n| n as u128).product::<u128>() <= MAX_ASSIGNMENTS {
            break counts;
        }
    };
    let mut cs = ComponentSet::new();
    let mut ids: Vec<ComponentId> = counts
        .iter()
        .map(|&n| cs.add(Component::uniform(n).expect("n > 0")))
        .collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i + 1));
    }
    (cs, ids)
}

fn term(rng: &mut Rng, cs: &ComponentSet, c: ComponentId) -> (ComponentId, u16) {
    (c, rng.below(cs.get(c).alternatives() as usize) as u16)
}

fn gen_group(rng: &mut Rng, shape: Shape) -> (ComponentSet, Vec<WsDescriptor>) {
    let descriptor = |terms| WsDescriptor::from_terms(terms).expect("distinct components");
    match shape {
        Shape::Chain => {
            let links = rng.range(8, 14);
            let (cs, ids) = scrambled_components(rng, links + 1, &[2, 2, 3]);
            let descs = (0..links)
                .map(|i| descriptor(vec![term(rng, &cs, ids[i]), term(rng, &cs, ids[i + 1])]))
                .collect();
            (cs, descs)
        }
        Shape::Windows => {
            // Each window starts at or one past the previous one's start, so
            // neighbours share one or two positions.
            let windows: Vec<(usize, usize)> = (0..rng.range(8, 14))
                .scan(0, |start, _| {
                    *start += rng.below(2);
                    Some((*start, rng.range(2, 3)))
                })
                .collect();
            let positions = windows.iter().map(|&(s, w)| s + w).max().expect("≥ 8");
            let (cs, ids) = scrambled_components(rng, positions, &[2, 2, 3]);
            let descs = windows
                .iter()
                .map(|&(s, w)| descriptor((s..s + w).map(|p| term(rng, &cs, ids[p])).collect()))
                .collect();
            (cs, descs)
        }
        Shape::Weld => {
            let positions = rng.range(6, 9);
            let (cs, ids) = scrambled_components(rng, positions, &[2, 3, 5, 7]);
            let descs = (0..rng.range(8, 14))
                .map(|_| {
                    let mut picked: Vec<usize> = Vec::new();
                    while picked.len() < 3 {
                        let p = rng.below(positions);
                        if !picked.contains(&p) {
                            picked.push(p);
                        }
                    }
                    descriptor(picked.iter().map(|&p| term(rng, &cs, ids[p])).collect())
                })
                .collect();
            (cs, descs)
        }
        Shape::WideKey => {
            // One key of 70–97 alternatives plus three small components;
            // every descriptor mentions the key, most one small one too.
            let key_alts = rng.range(70, 97);
            let mut alts = [key_alts, 3, 5, 7];
            alts.rotate_left(rng.below(4)); // the key is not always the first slot
            let mut cs = ComponentSet::new();
            let ids: Vec<ComponentId> = alts
                .iter()
                .map(|&n| cs.add(Component::uniform(n).expect("n > 0")))
                .collect();
            let key = ids[alts.iter().position(|&n| n == key_alts).expect("in alts")];
            let descs = (0..rng.range(65, 90))
                .map(|_| {
                    let mut terms = vec![term(rng, &cs, key)];
                    if rng.chance(0.8) {
                        let other = loop {
                            let c = *rng.pick(&ids);
                            if c != key {
                                break c;
                            }
                        };
                        terms.push(term(rng, &cs, other));
                    }
                    descriptor(terms)
                })
                .collect();
            (cs, descs)
        }
    }
}

/// `(satisfying assignments, all assignments)` over every component of `cs`.
fn count_satisfying(cs: &ComponentSet, descs: &[WsDescriptor]) -> (u128, u128) {
    let alts: Vec<u16> = cs.iter().map(|(_, c)| c.alternatives()).collect();
    let mut choice = vec![0u16; alts.len()];
    let (mut satisfying, mut total) = (0u128, 0u128);
    loop {
        total += 1;
        let holds = |d: &WsDescriptor| d.terms().iter().all(|&(c, a)| choice[c.0 as usize] == a);
        satisfying += u128::from(descs.iter().any(holds));
        let mut i = alts.len();
        loop {
            if i == 0 {
                return (satisfying, total);
            }
            i -= 1;
            choice[i] += 1;
            if choice[i] < alts[i] {
                break;
            }
            choice[i] = 0;
        }
    }
}

#[test]
fn exact_conf_is_within_1e13_of_the_integer_ratio() {
    for (s, shape) in SHAPES.iter().enumerate() {
        let mut worst: f64 = 0.0;
        for case in 0..CASES {
            let mut rng = Rng::new(0x50_0D_F1_0A ^ (case << 8) ^ s as u64);
            let (cs, descs) = gen_group(&mut rng, *shape);
            let (satisfying, total) = count_satisfying(&cs, &descs);
            let oracle = satisfying as f64 / total as f64;

            let got = cs.prob_of_dnf(&descs);
            assert!(
                (0.0..=1.0).contains(&got),
                "{shape:?} case {case}: {got} is not a probability"
            );
            let err = (got - oracle).abs();
            assert!(
                err <= TOLERANCE,
                "{shape:?} case {case}: |{got} - {satisfying}/{total}| = {err:e}"
            );
            worst = worst.max(err);

            // The same walk without probabilities: certain iff every
            // assignment satisfies.
            assert_eq!(
                covers_all_worlds(&cs, &descs),
                satisfying == total,
                "{shape:?} case {case}: coverage"
            );
        }
        println!("{shape:?}: worst |prob_of_dnf - oracle| over {CASES} cases = {worst:e}");
    }
}

/// The exact `conf` operator end to end on one tuple whose twelve descriptors
/// chain thirteen coins (`cᵢ=0 ∧ cᵢ₊₁=0`), against the brute-force oracle.
/// (`maybms-ql`'s own unit test pins that this solve fits a 1000-step
/// ceiling and that a 10-step one stops it.)
#[test]
fn exact_conf_of_a_chain_matches_brute_force() {
    let mut ws = WorldSet::new();
    let ids: Vec<ComponentId> = (0..=12)
        .map(|_| ws.components.add(Component::uniform(2).expect("n > 0")))
        .collect();
    let descs: Vec<WsDescriptor> = (0..12)
        .map(|i| WsDescriptor::from_terms(vec![(ids[i], 0), (ids[i + 1], 0)]).expect("distinct"))
        .collect();
    let mut rel = URelation::new(Schema::of(&[("k", ValueType::Int)]).expect("one column"));
    for d in &descs {
        rel.push(Tuple::new(vec![Value::Int(0)]), d.clone())
            .expect("row matches schema");
    }
    ws.insert("r", rel).expect("descriptors are valid");
    let out = run(&mut ws, &conf(Plan::scan("r"))).expect("conf runs");
    let [(tuple, _)] = out.rows() else {
        panic!("one distinct tuple, got {out}");
    };
    let got = tuple.values()[1].as_f64().expect("conf is a float");
    let oracle = prob_of_dnf_enumerate(&ws.components, &descs);
    assert!((got - oracle).abs() < 1e-12, "|{got} - {oracle}|");
}
