//! Differential test of the bit-sliced sampler
//! (`maybms_core::dnf::GroupSampler`, sixty-four draws to a word) against the
//! one-draw-at-a-time reference it replaced
//! (`maybms_testkit::oracle::{monte_carlo_scalar, karp_luby_scalar}`) and the
//! exact kernel.
//!
//! The two samplers read their streams differently, so they cannot agree
//! draw for draw; what must agree is the distribution. Over [`SEEDS`] seeds
//! the mean of each sampler's estimate has to land within four standard
//! errors of the exact probability — for both estimators, on shapes the
//! benchmark's welds do not have: groups wider than one word of descriptors,
//! components with unmentioned alternatives (the lanes no branch takes),
//! one-alternative components, non-uniform three- and four-way weights,
//! `U < 1` with overlapping descriptors and `U ≥ 1` — and at draw counts on
//! every side of a word boundary, the surplus lanes of the last word masked.

use maybms_core::dnf::{DnfKernel, Loaded};
use maybms_core::rng::{CounterRng, Rng};
use maybms_core::{Component, ComponentId, ComponentSet, WsDescriptor};
use maybms_testkit::oracle::{descriptor_prob, karp_luby_scalar, monte_carlo_scalar};

const SEEDS: u64 = 200;
/// One draw, one short of a word, a word, one past it, and more than a
/// block (8 words).
const DRAWS: [u64; 5] = [1, 63, 64, 65, 600];

fn desc(terms: &[(u32, u16)]) -> WsDescriptor {
    WsDescriptor::from_terms(terms.iter().map(|&(c, a)| (ComponentId(c), a)).collect())
        .expect("distinct components")
}

fn components<W: AsRef<[f64]>>(weights: &[W]) -> ComponentSet {
    let mut cs = ComponentSet::new();
    for w in weights {
        cs.add(Component::from_weights(w.as_ref()).expect("positive weights"));
    }
    cs
}

/// Named single-group shapes.
fn shapes() -> Vec<(&'static str, ComponentSet, Vec<WsDescriptor>)> {
    let mut shapes = Vec::new();

    // `karp_luby_discounts_overlapping_descriptors`' shape: c0=0 and
    // c0=0 ∧ c1=0 over 8-way components, U = 9/64, P = 1/8.
    shapes.push((
        "overlap-rare",
        components(&[[1.0; 8]; 2]),
        vec![desc(&[(0, 0)]), desc(&[(0, 0), (1, 0)])],
    ));

    // A 100-way key, every alternative mentioned, the upper thirty tied to
    // a coin: 100 disjoint descriptors (two words of them), U = P = 0.85.
    shapes.push((
        "wide-disjoint",
        components(&[vec![1.0; 100], vec![1.0; 2]]),
        (0..100u16)
            .map(|a| {
                if a < 70 {
                    desc(&[(0, a)])
                } else {
                    desc(&[(0, a), (1, 0)])
                }
            })
            .collect(),
    ));

    // Eighty random two-term descriptors over eight non-uniform four-way
    // components: wider than a word, heavily overlapping, U = 5 ≥ 1.
    let mut rng = Rng::new(0x5A3B_1E55);
    let weights: Vec<Vec<f64>> = (0..8)
        .map(|_| (0..4).map(|_| rng.range(1, 9) as f64).collect())
        .collect();
    shapes.push((
        "wide-overlap",
        components(&weights),
        (0..80)
            .map(|i| {
                let a = i % 8;
                let b = (a + 1 + rng.below(7)) % 8;
                desc(&[
                    (a.min(b) as u32, rng.below(4) as u16),
                    (a.max(b) as u32, rng.below(4) as u16),
                ])
            })
            .collect(),
    ));

    // Five-way components of which only alternatives 0 and 2 are ever
    // mentioned: most lanes fall to no branch at all.
    shapes.push((
        "rest-branch",
        components(&[
            [3.0, 1.0, 2.0, 1.0, 1.0],
            [1.0, 4.0, 2.0, 2.0, 1.0],
            [2.0, 2.0, 1.0, 1.0, 3.0],
        ]),
        vec![
            desc(&[(0, 0), (1, 2)]),
            desc(&[(1, 0), (2, 2)]),
            desc(&[(0, 2), (2, 0)]),
            desc(&[(0, 0), (1, 0), (2, 0)]),
        ],
    ));

    // One-alternative components (probability 1, conditional 1 on the first
    // branch) among three- and four-way non-uniform ones.
    shapes.push((
        "one-alternative",
        components(&[
            vec![1.0],
            vec![1.0, 2.0, 3.0],
            vec![1.0],
            vec![4.0, 3.0, 2.0, 1.0],
        ]),
        vec![
            desc(&[(0, 0), (1, 1)]),
            desc(&[(1, 2), (2, 0)]),
            desc(&[(2, 0), (3, 0)]),
            desc(&[(1, 0), (3, 3)]),
        ],
    ));

    // A chain over three-way components, every alternative of the middle
    // ones mentioned: U = 6 · (1/3 · 1/3 …) with non-uniform weights ≥ 1.
    shapes.push((
        "heavy-chain",
        components(&[[5.0, 1.0, 1.0]; 5]),
        vec![
            desc(&[(0, 0), (1, 0)]),
            desc(&[(1, 0), (2, 0)]),
            desc(&[(1, 1), (2, 1)]),
            desc(&[(2, 0), (3, 0)]),
            desc(&[(2, 2), (3, 1)]),
            desc(&[(3, 0), (4, 0)]),
            desc(&[(3, 2), (4, 2)]),
        ],
    ));
    shapes
}

#[test]
fn lanes_scalar_draws_and_the_exact_kernel_agree_in_the_mean() {
    let mut saw = (false, false, false); // U < 1, U ≥ 1, more than 64 descriptors
    for (name, cs, descs) in shapes() {
        let refs: Vec<&WsDescriptor> = descs.iter().collect();
        let mut kernel = DnfKernel::new();
        assert_eq!(
            kernel.load(descs.iter().map(WsDescriptor::terms)),
            Loaded::Groups(1),
            "{name}: one connected group"
        );
        let exact = kernel.prob(&cs, 0, u64::MAX).expect("no ceiling");
        let key = kernel.stream_key(0);
        let total: f64 = refs.iter().map(|d| descriptor_prob(&cs, d)).sum();
        assert!((kernel.sampler(&cs, 0).total_weight() - total).abs() < 1e-12);
        saw.0 |= total < 1.0;
        saw.1 |= total >= 1.0;
        saw.2 |= descs.len() > 64;
        let disjoint = name == "wide-disjoint";

        for draws in DRAWS {
            // Hits summed over the seeds: [lanes, scalar] × [MC, KL].
            let mut hits = [[0u64; 2]; 2];
            for seed in 0..SEEDS {
                let rng = CounterRng::new(seed, key);
                let mut sampler = kernel.sampler(&cs, 0);
                hits[0][0] += sampler.monte_carlo(&rng, draws);
                let kl = sampler.karp_luby(&rng, draws);
                if disjoint {
                    assert_eq!(kl, draws, "{name}: every Karp–Luby lane hits");
                }
                hits[0][1] += kl;
                hits[1][0] += monte_carlo_scalar(&cs, &refs, &rng, draws);
                hits[1][1] += karp_luby_scalar(&cs, &refs, &rng, draws);
            }
            let samples = (draws * SEEDS) as f64;
            for (who, by) in ["lanes", "scalar"].iter().zip(hits) {
                // Monte Carlo: indicator of mean P. Karp–Luby: U · [hit],
                // the hit of probability P/U.
                for (what, width, hits) in [("mc", 1.0, by[0]), ("kl", total, by[1])] {
                    let mean = width * hits as f64 / samples;
                    let se = (exact * (width - exact) / samples).max(0.0).sqrt();
                    assert!(
                        (mean - exact).abs() <= 4.0 * se + 1e-12,
                        "{name} {who} {what} at {draws} draws: mean {mean}, exact {exact}, se {se}"
                    );
                }
            }
        }
    }
    assert_eq!(saw, (true, true, true), "the shapes cover both regimes");
}

/// The draw count is exact at every block and word boundary: a sampler asked
/// for `n` draws of a certain event counts `n` hits, never a surplus lane.
#[test]
fn surplus_lanes_of_the_last_word_are_not_counted() {
    // c0=0 ∨ c0=1 over a coin, linked through c1 so it is one group.
    let cs = components(&[[1.0; 2]; 2]);
    let descs = [
        desc(&[(0, 0)]),
        desc(&[(0, 1), (1, 0)]),
        desc(&[(0, 1), (1, 1)]),
    ];
    let mut kernel = DnfKernel::new();
    assert_eq!(
        kernel.load(descs.iter().map(WsDescriptor::terms)),
        Loaded::Groups(1)
    );
    let rng = CounterRng::new(0, kernel.stream_key(0));
    for draws in [1, 2, 63, 64, 65, 511, 512, 513, 1024, 1500] {
        let mut sampler = kernel.sampler(&cs, 0);
        assert_eq!(sampler.monte_carlo(&rng, draws), draws);
        assert_eq!(sampler.karp_luby(&rng, draws), draws);
    }
}
