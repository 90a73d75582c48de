//! # maybms-bench — perf-trajectory baseline
//!
//! Std-only benchmark data generators. The build environment has no registry
//! access, so instead of `criterion` the bench target (`benches/wsd.rs`,
//! `harness = false`) times operations with `std::time::Instant` and emits
//! one JSON object per line, giving future PRs a machine-readable perf
//! baseline. Run with `cargo bench` (set `MAYBMS_BENCH_QUICK=1` for a smoke
//! run).

use maybms_core::rng::Rng;
use maybms_core::{
    Component, ComponentId, Schema, Tuple, URelation, Value, ValueType, WorldSet, WsDescriptor,
};

/// Build a world set with one relation `r` of `n` rows engineered to
/// exercise normalization: duplicate rows, absorbable descriptor pairs, and
/// full-coverage groups that merge.
pub fn normalization_workload(rng: &mut Rng, n: usize) -> WorldSet {
    let mut ws = WorldSet::new();
    let n_comps = (n / 10).max(1);
    let mut comp_ids = Vec::with_capacity(n_comps);
    for _ in 0..n_comps {
        comp_ids.push(ws.components.add(Component::uniform(2).expect("2 > 0")));
    }
    let schema = Schema::of(&[("a", ValueType::Int), ("b", ValueType::Int)]).expect("distinct");
    let mut rel = URelation::new(schema);
    for i in 0..n {
        let t = Tuple::new(vec![Value::Int((i / 4) as i64), Value::Int((i % 7) as i64)]);
        let c = comp_ids[rng.below(comp_ids.len())];
        match i % 4 {
            // A full-coverage pair: (t, c=0) and (t, c=1) merge to (t, ⊤).
            0 => {
                rel.push(t.clone(), WsDescriptor::single(c, 0))
                    .expect("schema ok");
                rel.push(t, WsDescriptor::single(c, 1)).expect("schema ok");
            }
            // An absorbable pair: ⊤ absorbs c=0.
            1 => {
                rel.push(t.clone(), WsDescriptor::tautology())
                    .expect("schema ok");
                rel.push(t, WsDescriptor::single(c, 0)).expect("schema ok");
            }
            // Exact duplicates.
            2 => {
                let d = WsDescriptor::single(c, 0);
                rel.push(t.clone(), d.clone()).expect("schema ok");
                rel.push(t, d).expect("schema ok");
            }
            // Plain uncertain rows.
            _ => {
                rel.push(t, WsDescriptor::single(c, rng.below(2) as u16))
                    .expect("schema ok");
            }
        }
    }
    ws.insert("r", rel)
        .expect("descriptors reference fresh components");
    ws
}

/// Build a world set exercising exact `conf` with *disjoint* descriptor
/// groups: one relation `r(id)` of `tuples` rows, where every tuple carries
/// a DNF of 1–6-term descriptors drawn from `groups_per_tuple` mutually
/// disjoint groups of `comps_per_group` fresh components (each with
/// `alternatives` alternatives).
///
/// Within a group the descriptors are overlapping sliding windows over the
/// group's components, so each group is one *connected* block of
/// `comps_per_group` variables. Across groups no component is shared. A
/// factorized `conf` therefore pays per-group cost only (an elimination
/// whose frontier is one window wide), while an unfactorized evaluator
/// would enumerate
/// `alternatives^(groups_per_tuple · comps_per_group)` assignments per tuple
/// — with the default bench shape (2 groups × 10 components × 4
/// alternatives) that is `4^20` versus two `4^10`-bounded solves.
pub fn conf_disjoint_workload(
    rng: &mut Rng,
    tuples: usize,
    groups_per_tuple: usize,
    comps_per_group: usize,
    alternatives: usize,
) -> WorldSet {
    let mut ws = WorldSet::new();
    let schema = Schema::of(&[("id", ValueType::Int)]).expect("single column");
    let mut rel = URelation::new(schema);
    for i in 0..tuples {
        let t = Tuple::new(vec![Value::Int(i as i64)]);
        for _ in 0..groups_per_tuple {
            let comps: Vec<ComponentId> = (0..comps_per_group)
                .map(|_| {
                    ws.components
                        .add(Component::uniform(alternatives).expect("alternatives > 0"))
                })
                .collect();
            // Overlapping windows: each shares its first component with the
            // previous window, keeping the group connected and every
            // descriptor within the 1–6-term band.
            let width = rng.range(2.min(comps_per_group), 3.min(comps_per_group));
            let mut start = 0;
            loop {
                let end = (start + width).min(comps_per_group);
                let terms: Vec<(ComponentId, u16)> = comps[start..end]
                    .iter()
                    .map(|&c| (c, rng.below(alternatives) as u16))
                    .collect();
                rel.push(
                    t.clone(),
                    WsDescriptor::from_terms(terms).expect("distinct components"),
                )
                .expect("schema ok");
                if end == comps_per_group {
                    break;
                }
                start = end - 1;
            }
        }
    }
    ws.insert("r", rel)
        .expect("descriptors reference fresh components");
    ws
}

/// Build a world set exercising exact `conf` on one *connected* descriptor
/// group per tuple: a chain of `chain_len + 1` components per tuple, with a
/// 2-term descriptor per adjacent pair (`{cᵢ, cᵢ₊₁}`). Every descriptor
/// shares a variable with the next, so the whole chain is a single
/// connected group — the case where factorization cannot split anything
/// and the per-group exact solve carries the load alone. Eliminating the
/// components in id order keeps one descriptor open at a time, so the cost
/// is linear in the chain's length.
pub fn conf_chain_workload(
    rng: &mut Rng,
    tuples: usize,
    chain_len: usize,
    alternatives: usize,
) -> WorldSet {
    let mut ws = WorldSet::new();
    let schema = Schema::of(&[("id", ValueType::Int)]).expect("single column");
    let mut rel = URelation::new(schema);
    for i in 0..tuples {
        let t = Tuple::new(vec![Value::Int(i as i64)]);
        let comps: Vec<ComponentId> = (0..chain_len + 1)
            .map(|_| {
                ws.components
                    .add(Component::uniform(alternatives).expect("alternatives > 0"))
            })
            .collect();
        for pair in comps.windows(2) {
            let terms = vec![
                (pair[0], rng.below(alternatives) as u16),
                (pair[1], rng.below(alternatives) as u16),
            ];
            rel.push(
                t.clone(),
                WsDescriptor::from_terms(terms).expect("distinct components"),
            )
            .expect("schema ok");
        }
    }
    ws.insert("r", rel)
        .expect("descriptors reference fresh components");
    ws
}

/// Build a world set exercising the *sampling* path of `conf(eps, delta)`:
/// one dense connected descriptor group per tuple, priced far over the
/// default exact/sampling cutover.
///
/// Each tuple gets `comps_per_tuple` fresh components (`alternatives`
/// alternatives each) and `descs_per_tuple` three-term descriptors. The
/// first two terms of descriptor `i` cover the adjacent component pair
/// `(i mod (comps−1), i mod (comps−1) + 1)` — walking every pair once
/// `descs ≥ comps − 1`, which welds the whole tuple into a single
/// connected group — and the third term lands on a random other
/// component, thickening the group beyond a plain chain: those third terms
/// keep a dozen or more descriptors open across the middle of the component
/// order, so the elimination's frontier is wide. With the bench shape (26
/// binary components, 30 descriptors) the exact cost bound
/// (`DnfKernel::exact_cost`) comes to 10⁵–10⁷ per tuple and the
/// exact solve itself to 10⁴–10⁵ transitions, while the sampler pays a few
/// hundred short draws.
pub fn conf_dense_workload(
    rng: &mut Rng,
    tuples: usize,
    comps_per_tuple: usize,
    descs_per_tuple: usize,
    alternatives: usize,
) -> WorldSet {
    assert!(comps_per_tuple >= 3, "need room for three distinct terms");
    let mut ws = WorldSet::new();
    let schema = Schema::of(&[("id", ValueType::Int)]).expect("single column");
    let mut rel = URelation::new(schema);
    for i in 0..tuples {
        let t = Tuple::new(vec![Value::Int(i as i64)]);
        let comps: Vec<ComponentId> = (0..comps_per_tuple)
            .map(|_| {
                ws.components
                    .add(Component::uniform(alternatives).expect("alternatives > 0"))
            })
            .collect();
        for d in 0..descs_per_tuple {
            let a = d % (comps_per_tuple - 1);
            let third = loop {
                let j = rng.below(comps_per_tuple);
                if j != a && j != a + 1 {
                    break j;
                }
            };
            let terms: Vec<(ComponentId, u16)> = [a, a + 1, third]
                .iter()
                .map(|&j| (comps[j], rng.below(alternatives) as u16))
                .collect();
            rel.push(
                t.clone(),
                WsDescriptor::from_terms(terms).expect("distinct components"),
            )
            .expect("schema ok");
        }
    }
    ws.insert("r", rel)
        .expect("descriptors reference fresh components");
    ws
}

/// Build a certain relation `r(k, v, w)` of `n` rows whose key column `k`
/// collides in groups of ~4, with a positive integer weight column `w` —
/// the `repair-key ... weight by w` workload (grouping, per-group component
/// minting, weighted alternatives).
pub fn repair_workload(rng: &mut Rng, n: usize) -> WorldSet {
    let mut ws = WorldSet::new();
    let schema = Schema::of(&[
        ("k", ValueType::Int),
        ("v", ValueType::Int),
        ("w", ValueType::Int),
    ])
    .expect("distinct columns");
    let mut rel = URelation::new(schema);
    let key_domain = (n / 4).max(1);
    for i in 0..n {
        rel.push(
            Tuple::new(vec![
                Value::Int(rng.below(key_domain) as i64),
                Value::Int(i as i64),
                Value::Int(rng.range(1, 5) as i64),
            ]),
            WsDescriptor::tautology(),
        )
        .expect("schema ok");
    }
    ws.insert("r", rel).expect("certain relation is valid");
    ws
}

/// Build a world set exercising the columnar executor's string dictionary
/// and selection sweep: three chained relations `r1(a, b)`, `r2(b, c)`,
/// `r3(c, d)` of `n` uncertain rows each, where the `b` and `d` columns are
/// *strings* (drawn from a domain of `n` distinct values, so one join hop
/// matches on dictionary codes) and `a`/`c` are ints. The intended plan
/// filters `r1` on `a` before joining, so the workload covers: predicate
/// sweep → row map, string-keyed hash join, int-keyed hash join, and a
/// dedup through row maps — the paths `join3` (all-int, no filter)
/// leaves cold.
pub fn join_columnar_workload(rng: &mut Rng, n: usize) -> WorldSet {
    let mut ws = WorldSet::new();
    let n_comps = (n / 10).max(1);
    let mut comp_ids = Vec::with_capacity(n_comps);
    for _ in 0..n_comps {
        comp_ids.push(ws.components.add(Component::uniform(2).expect("2 > 0")));
    }
    let specs: [(&str, [(&str, ValueType); 2]); 3] = [
        ("r1", [("a", ValueType::Int), ("b", ValueType::Str)]),
        ("r2", [("b", ValueType::Str), ("c", ValueType::Int)]),
        ("r3", [("c", ValueType::Int), ("d", ValueType::Str)]),
    ];
    for (name, cols) in specs {
        let schema = Schema::of(&cols).expect("distinct");
        let mut rel = URelation::new(schema);
        for _ in 0..n {
            let mk = |rng: &mut Rng, ty: ValueType| match ty {
                ValueType::Int => Value::Int(rng.below(n) as i64),
                _ => Value::str(format!("k{}", rng.below(n))),
            };
            let t = Tuple::new(vec![mk(rng, cols[0].1), mk(rng, cols[1].1)]);
            let c = comp_ids[rng.below(comp_ids.len())];
            rel.push(t, WsDescriptor::single(c, rng.below(2) as u16))
                .expect("schema ok");
        }
        ws.insert(name, rel)
            .expect("descriptors reference fresh components");
    }
    ws
}

/// Build a world set whose *textual* join order is pathological: three
/// chained relations `r1(a, b)`, `r2(b, c)`, `r3(c, d)` where the `b`
/// domain is small (2000 keys, zipf-skewed in `r1`) and the `c` domain is
/// huge (`10n` keys, with `r3` only `n/10` rows). Joining in text order
/// `(r1 ⋈ r2) ⋈ r3` materializes the ~`n²/2000`-row `b` hop first; the
/// cost-based order `(r2 ⋈ r3) ⋈ r1` starts from the selective `c` hop
/// (~`n/100` rows) and never builds the blowup. Catalog statistics see
/// exactly this asymmetry through the per-column distinct counts.
pub fn join3_skewed_workload(rng: &mut Rng, n: usize) -> WorldSet {
    const B_KEYS: usize = 2000;
    let mut ws = WorldSet::new();
    let n_comps = (n / 10).max(1);
    let mut comp_ids = Vec::with_capacity(n_comps);
    for _ in 0..n_comps {
        comp_ids.push(ws.components.add(Component::uniform(2).expect("2 > 0")));
    }
    let c_domain = 10 * n;
    // Log-uniform ranks approximate a zipf(1) key distribution: most of
    // `r1` lands on a handful of hot `b` keys, but all 2000 stay possible.
    fn zipf(rng: &mut Rng) -> usize {
        ((B_KEYS as f64).powf(rng.unit_f64()) as usize).min(B_KEYS - 1)
    }
    fn push_rows(
        ws: &mut WorldSet,
        rng: &mut Rng,
        comp_ids: &[ComponentId],
        name: &str,
        cols: [&str; 2],
        rows: usize,
        mk: &mut dyn FnMut(&mut Rng) -> (i64, i64),
    ) {
        let schema = Schema::of(
            &cols
                .iter()
                .map(|c| (*c, ValueType::Int))
                .collect::<Vec<_>>(),
        )
        .expect("distinct");
        let mut rel = URelation::new(schema);
        for _ in 0..rows {
            let (x, y) = mk(rng);
            let t = Tuple::new(vec![Value::Int(x), Value::Int(y)]);
            let c = comp_ids[rng.below(comp_ids.len())];
            rel.push(t, WsDescriptor::single(c, rng.below(2) as u16))
                .expect("schema ok");
        }
        ws.insert(name, rel)
            .expect("descriptors reference fresh components");
    }
    push_rows(&mut ws, rng, &comp_ids, "r1", ["a", "b"], n, &mut |rng| {
        (rng.below(n) as i64, zipf(rng) as i64)
    });
    push_rows(&mut ws, rng, &comp_ids, "r2", ["b", "c"], n, &mut |rng| {
        (rng.below(B_KEYS) as i64, rng.below(c_domain) as i64)
    });
    push_rows(
        &mut ws,
        rng,
        &comp_ids,
        "r3",
        ["c", "d"],
        (n / 10).max(1),
        &mut |rng| (rng.below(c_domain) as i64, rng.below(n) as i64),
    );
    ws
}

/// Build a world set with three chained relations `r1(a,b)`, `r2(b,c)`,
/// `r3(c,d)` of `n` uncertain rows each, with join keys drawn from a domain
/// of size `n` so a 3-way natural join stays roughly linear in output size.
pub fn join_workload(rng: &mut Rng, n: usize) -> WorldSet {
    let mut ws = WorldSet::new();
    let n_comps = (n / 10).max(1);
    let mut comp_ids = Vec::with_capacity(n_comps);
    for _ in 0..n_comps {
        comp_ids.push(ws.components.add(Component::uniform(2).expect("2 > 0")));
    }
    let specs = [("r1", ["a", "b"]), ("r2", ["b", "c"]), ("r3", ["c", "d"])];
    for (name, cols) in specs {
        let schema = Schema::of(
            &cols
                .iter()
                .map(|c| (*c, ValueType::Int))
                .collect::<Vec<_>>(),
        )
        .expect("distinct");
        let mut rel = URelation::new(schema);
        for _ in 0..n {
            let t = Tuple::new(vec![
                Value::Int(rng.below(n) as i64),
                Value::Int(rng.below(n) as i64),
            ]);
            let c = comp_ids[rng.below(comp_ids.len())];
            rel.push(t, WsDescriptor::single(c, rng.below(2) as u16))
                .expect("schema ok");
        }
        ws.insert(name, rel)
            .expect("descriptors reference fresh components");
    }
    ws
}
