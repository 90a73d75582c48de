//! Reference implementations with no production caller: the slow, obviously
//! correct (or differently derived) twins that the differential suites
//! compare the engine against. They lived in `maybms-core` until the engine
//! stopped calling them; what they check has not changed.
//!
//! * [`prob_of_dnf_enumerate`] — exact `conf` by brute-force enumeration of
//!   every assignment of every relevant component, against the factorized
//!   [`ComponentSet::prob_of_dnf`];
//! * [`normalize_rows`] — row-at-a-time normalization of one relation,
//!   against the columnar `maybms_core::normalize::normalize_relation`;
//! * [`stats_by_rows`] — a relation's statistics by one walk over its rows,
//!   against `maybms_core::collect_stats`, which reads the columnar image
//!   and memoises;
//! * [`monte_carlo_scalar`], [`karp_luby_scalar`] — sampling one draw at a
//!   time, one inverse-CDF pick per component, against the bit-sliced
//!   `maybms_core::dnf::GroupSampler`;
//! * [`covers_all_worlds`], [`group_exact_cost`], [`connected_groups`] —
//!   one-call forms of the [`DnfKernel`] coverage check, cutover price and
//!   group partition, as the suites address them.

use std::borrow::Borrow;
use std::collections::BTreeSet;

use maybms_core::dnf::{DnfKernel, Loaded};
use maybms_core::rng::CounterRng;
use maybms_core::{
    ColumnStats, Component, ComponentId, ComponentSet, KmvSketch, RelationStats, Tuple, URelation,
    Value, WsDescriptor,
};

/// [`RelationStats`] for one u-relation in a single pass over its rows, one
/// sketch observation per cell — how `maybms_core::collect_stats` worked
/// until it moved onto the columnar image, kept as the oracle it must agree
/// with in every field, the `f64`s bit for bit.
pub fn stats_by_rows(rel: &URelation) -> RelationStats {
    let names = rel.schema().names();
    let mut sketches: Vec<KmvSketch> = names.iter().map(|_| KmvSketch::new()).collect();
    let mut min_max: Vec<Option<(Value, Value)>> = vec![None; names.len()];
    let mut nontrivial = 0u64;
    for (tuple, desc) in rel.rows() {
        for (i, v) in tuple.values().iter().enumerate() {
            sketches[i].observe(v);
            match &mut min_max[i] {
                None => min_max[i] = Some((v.clone(), v.clone())),
                Some((lo, hi)) => {
                    if v < lo {
                        *lo = v.clone();
                    }
                    if v > hi {
                        *hi = v.clone();
                    }
                }
            }
        }
        if !desc.is_tautology() {
            nontrivial += 1;
        }
    }
    let rows = rel.len() as u64;
    RelationStats {
        rows,
        columns: names
            .into_iter()
            .zip(sketches.iter().zip(min_max))
            .map(|(name, (sk, mm))| {
                (
                    name.to_string(),
                    ColumnStats {
                        distinct: sk.estimate(),
                        min_max: mm,
                    },
                )
            })
            .collect(),
        nontrivial_frac: if rows == 0 {
            0.0
        } else {
            nontrivial as f64 / rows as f64
        },
    }
}

/// Exact probability of a disjunction of descriptors by brute-force
/// enumeration of every assignment of every relevant component — the
/// original unfactorized algorithm, kept as the oracle that the
/// factorized [`ComponentSet::prob_of_dnf`] is tested against.
/// Exponential in the total number of relevant components.
pub fn prob_of_dnf_enumerate<D: Borrow<WsDescriptor>>(cs: &ComponentSet, descs: &[D]) -> f64 {
    if descs.iter().any(|d| d.borrow().is_tautology()) {
        return 1.0;
    }
    let refs: Vec<&WsDescriptor> = descs.iter().map(Borrow::borrow).collect();
    let mut total = 0.0;
    for_each_relevant_assignment(cs, &refs, |assignment, prob| {
        if refs.iter().any(|d| assignment_satisfies(assignment, d)) {
            total += prob;
        }
    });
    total
}

/// Whether the disjunction of `descs` covers *all* worlds — i.e. a tuple
/// with these descriptors is certain. Purely possibilistic: probabilities
/// are ignored, every combination of alternatives counts. Factorized
/// like [`ComponentSet::prob_of_dnf`] (see [`DnfKernel::covers_all`]);
/// each group check stops at the first uncovered assignment, so the
/// common "not certain" case is cheap.
pub fn covers_all_worlds<D: Borrow<WsDescriptor>>(cs: &ComponentSet, descs: &[D]) -> bool {
    DnfKernel::new()
        .covers_all(cs, descs.iter().map(|d| d.borrow().terms()), u64::MAX)
        .expect("no step ceiling was set")
}

/// Cost bound for solving one connected group *exactly*
/// ([`DnfKernel::exact_cost`]):
/// `min(2^descriptors, Π alternative counts, Σ_s b_s · 2^{o_s})`,
/// saturating, the last term being the elimination's own transition
/// bound along the id order. The sampling confidence solver compares
/// this bound against its cutover threshold: groups under the threshold
/// keep the exact path, groups over it are estimated. A descriptor set
/// that is not connected prices as the sum over its groups.
pub fn group_exact_cost(cs: &ComponentSet, group: &[&WsDescriptor]) -> u128 {
    let mut kernel = DnfKernel::new();
    match kernel.load(group.iter().map(|d| d.terms())) {
        Loaded::Empty | Loaded::Tautology => 1,
        Loaded::Groups(groups) => (0..groups)
            .map(|g| kernel.exact_cost(cs, g))
            .fold(0, u128::saturating_add),
    }
}

/// The components `descs` mention, ascending: the *slots* of a draw.
fn relevant_components(descs: &[&WsDescriptor]) -> Vec<ComponentId> {
    let distinct: BTreeSet<ComponentId> = descs
        .iter()
        .flat_map(|d| d.terms().iter().map(|&(c, _)| c))
        .collect();
    distinct.into_iter().collect()
}

/// The alternative a uniform draw `u ∈ (0, 1]` selects: the first whose
/// running probability sum reaches `u` (the last one when rounding left the
/// total a hair under `u`).
fn pick_alternative(comp: &Component, u: f64) -> u16 {
    let mut sum = 0.0;
    for a in 0..comp.alternatives() - 1 {
        sum += comp.prob(a);
        if u <= sum {
            return a;
        }
    }
    comp.alternatives() - 1
}

/// Reference Monte Carlo over one descriptor group, a draw at a time: draw
/// `j` assigns every relevant component (slot `s` from stream position
/// `j·n + s`, `n` slots) and hits iff the assignment satisfies some
/// descriptor. Returns the hits. An independent sampler of the distribution
/// `GroupSampler::monte_carlo` samples — the two read the stream differently,
/// so they agree in distribution, not draw for draw.
pub fn monte_carlo_scalar(
    cs: &ComponentSet,
    descs: &[&WsDescriptor],
    rng: &CounterRng,
    draws: u64,
) -> u64 {
    let slots = relevant_components(descs);
    let n = slots.len() as u64;
    let mut hits = 0;
    for j in 0..draws {
        let world: Vec<(ComponentId, u16)> = (0..n)
            .map(|s| {
                let c = slots[s as usize];
                (c, pick_alternative(cs.get(c), rng.unit_at(j * n + s)))
            })
            .collect();
        hits += u64::from(descs.iter().any(|d| assignment_satisfies(&world, d)));
    }
    hits
}

/// Reference Karp–Luby over one descriptor group, a draw at a time: draw `j`
/// picks descriptor `i` with probability `P(dᵢ)/U` (stream position
/// `j·(n + 1)`), fixes `i`'s components to `i`'s alternatives, samples the
/// others (slot `s` from position `j·(n + 1) + 1 + s`) and hits iff no
/// earlier descriptor is satisfied too. Returns the hits; `U · hits / draws`
/// estimates the group's probability.
pub fn karp_luby_scalar(
    cs: &ComponentSet,
    descs: &[&WsDescriptor],
    rng: &CounterRng,
    draws: u64,
) -> u64 {
    let slots = relevant_components(descs);
    let n = slots.len() as u64;
    let weights: Vec<f64> = descs.iter().map(|d| descriptor_prob(cs, d)).collect();
    let total: f64 = weights.iter().sum();
    let mut hits = 0;
    for j in 0..draws {
        let base = j * (n + 1);
        let mut x = rng.unit_at(base) * total;
        let mut i = 0;
        while i + 1 < weights.len() && x > weights[i] {
            x -= weights[i];
            i += 1;
        }
        let own = descs[i].terms();
        let world: Vec<(ComponentId, u16)> = (0..n)
            .map(|s| {
                let c = slots[s as usize];
                match own.binary_search_by_key(&c, |&(id, _)| id) {
                    Ok(t) => own[t],
                    Err(_) => (c, pick_alternative(cs.get(c), rng.unit_at(base + 1 + s))),
                }
            })
            .collect();
        hits += u64::from(!descs[..i].iter().any(|d| assignment_satisfies(&world, d)));
    }
    hits
}

/// `P(d)`: the product of its assignments' probabilities.
pub fn descriptor_prob(cs: &ComponentSet, d: &WsDescriptor) -> f64 {
    d.terms().iter().map(|&(c, a)| cs.get(c).prob(a)).product()
}

/// Drive `f` over every combination of alternatives of the components
/// mentioned in `descs`, with the combination's probability. Only the
/// [`prob_of_dnf_enumerate`] oracle enumerates.
fn for_each_relevant_assignment(
    cs: &ComponentSet,
    descs: &[&WsDescriptor],
    mut f: impl FnMut(&[(ComponentId, u16)], f64),
) {
    let vars = relevant_components(descs);
    if vars.is_empty() {
        f(&[], 1.0);
        return;
    }
    let mut assignment: Vec<(ComponentId, u16)> = vars.iter().map(|&c| (c, 0)).collect();
    loop {
        let prob: f64 = assignment.iter().map(|&(c, a)| cs.get(c).prob(a)).product();
        f(&assignment, prob);
        let mut i = vars.len();
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            assignment[i].1 += 1;
            if assignment[i].1 < cs.get(vars[i]).alternatives() {
                break;
            }
            assignment[i].1 = 0;
        }
    }
}

/// Whether a (sorted) partial assignment satisfies a descriptor. Every
/// component of `d` is guaranteed to occur in `assignment` by construction.
fn assignment_satisfies(assignment: &[(ComponentId, u16)], d: &WsDescriptor) -> bool {
    d.terms().iter().all(|&(c, a)| {
        assignment
            .binary_search_by_key(&c, |&(id, _)| id)
            .map(|i| assignment[i].1 == a)
            .unwrap_or(false)
    })
}

/// Partition descriptors into connected groups: two descriptors share a
/// group iff they are linked by a chain of shared components. Groups are
/// returned in first-occurrence order of their earliest descriptor, and
/// each group lists its descriptors in input order — the partition and the
/// order the confidence solver works in ([`DnfKernel::load`]), so both the
/// float combination order and any content hashing downstream are
/// deterministic across processes and thread counts. Tautologies, which
/// mention no component, each form a group of their own.
pub fn connected_groups<'d>(descs: &[&'d WsDescriptor]) -> Vec<Vec<&'d WsDescriptor>> {
    let (tautologies, rest): (Vec<&WsDescriptor>, Vec<&WsDescriptor>) =
        descs.iter().partition(|d| d.is_tautology());
    let mut kernel = DnfKernel::new();
    let mut groups: Vec<Vec<&WsDescriptor>> = match kernel.load(rest.iter().map(|d| d.terms())) {
        Loaded::Groups(n) => (0..n)
            .map(|g| kernel.group_descs(g).map(|i| rest[i]).collect())
            .collect(),
        Loaded::Empty | Loaded::Tautology => Vec::new(),
    };
    groups.extend(tautologies.into_iter().map(|d| vec![d]));
    groups
}

/// Normalize one relation's rows against a component set.
///
/// The rewrites (dedup, absorption, coverage merging) only ever relate rows
/// carrying the *same* tuple, so after one global sort each tuple group can
/// be simplified to its own local fixpoint independently — the relation is
/// never re-sorted or rebuilt per iteration, and tuples are moved (cloned
/// only when a tuple keeps several descriptors), which is what keeps
/// normalization linearithmic-plus-local-work on large relations.
pub fn normalize_rows(
    rows: Vec<(Tuple, WsDescriptor)>,
    components: &ComponentSet,
) -> Vec<(Tuple, WsDescriptor)> {
    let mut rows: Vec<(Tuple, WsDescriptor)> = rows
        .into_iter()
        .map(|(t, d)| (t, strip_trivial(d, components)))
        .collect();
    rows.sort_unstable();
    rows.dedup();

    let mut out: Vec<(Tuple, WsDescriptor)> = Vec::with_capacity(rows.len());
    let mut it = rows.into_iter().peekable();
    while let Some((tuple, first_desc)) = it.next() {
        let mut descs = vec![first_desc];
        while it.peek().is_some_and(|(t, _)| *t == tuple) {
            descs.push(it.next().expect("peeked").1);
        }
        if descs.len() > 1 {
            // Local fixpoint: each pass re-sorts and dedups only this
            // tuple's descriptors before trying the rewrites again.
            loop {
                descs.sort_unstable();
                descs.dedup();
                if !simplify_disjunction(&mut descs, components) {
                    break;
                }
            }
        }
        // Emit in canonical (tuple, descriptor) order; the tuple is moved
        // into the group's last row and cloned only for the rows before it.
        let last = descs.len() - 1;
        let mut ds = descs.into_iter();
        for _ in 0..last {
            out.push((tuple.clone(), ds.next().expect("before last")));
        }
        out.push((tuple, ds.next().expect("last descriptor")));
    }
    out
}

/// Remove assignments to components with a single alternative.
fn strip_trivial(d: WsDescriptor, components: &ComponentSet) -> WsDescriptor {
    if d.terms()
        .iter()
        .all(|&(c, _)| components.get(c).alternatives() > 1)
    {
        return d;
    }
    let terms: Vec<_> = d
        .terms()
        .iter()
        .copied()
        .filter(|&(c, _)| components.get(c).alternatives() > 1)
        .collect();
    WsDescriptor::from_terms(terms).expect("filtering terms cannot introduce conflicts")
}

/// Apply absorption and coverage merging to the descriptors of one tuple.
/// Returns true when anything changed.
fn simplify_disjunction(descs: &mut Vec<WsDescriptor>, components: &ComponentSet) -> bool {
    let mut changed = false;

    // Absorption: drop any descriptor that another (strictly more general)
    // descriptor subsumes.
    let mut keep = vec![true; descs.len()];
    for a in 0..descs.len() {
        if !keep[a] {
            continue;
        }
        for b in 0..descs.len() {
            if a != b && keep[b] && descs[a].is_subset_of(&descs[b]) && descs[a] != descs[b] {
                keep[b] = false;
                changed = true;
            }
        }
    }
    if changed {
        let mut it = keep.iter();
        descs.retain(|_| *it.next().expect("keep mask matches descs length"));
    }

    // Coverage merging: if `base ∧ c=a` is present for every alternative `a`
    // of some component `c`, replace those rows with `base`.
    'restart: loop {
        for idx in 0..descs.len() {
            let d = descs[idx].clone();
            for &(c, _) in d.terms() {
                let base = d.without(c);
                let n = components.get(c).alternatives();
                let variant = |a: u16| {
                    base.conjoin(&WsDescriptor::single(c, a))
                        .expect("base has no assignment for c")
                };
                if (0..n).all(|a| descs.contains(&variant(a))) {
                    descs.retain(|x| !(0..n).any(|a| *x == variant(a)));
                    descs.push(base);
                    changed = true;
                    continue 'restart;
                }
            }
        }
        break;
    }
    changed
}

#[cfg(test)]
mod tests {
    use maybms_core::Component;

    use super::*;

    #[test]
    fn coverage_detects_certain_tuples() {
        let mut cs = ComponentSet::new();
        let c0 = cs.add(Component::uniform(2).unwrap());
        let both = vec![WsDescriptor::single(c0, 0), WsDescriptor::single(c0, 1)];
        assert!(covers_all_worlds(&cs, &both));
        assert!(!covers_all_worlds(&cs, &both[..1]));
    }

    #[test]
    fn group_exact_cost_takes_the_cheaper_method() {
        let mut cs = ComponentSet::new();
        let c0 = cs.add(Component::uniform(2).unwrap());
        let c1 = cs.add(Component::uniform(3).unwrap());
        let d0 = WsDescriptor::single(c0, 0);
        let d1 = WsDescriptor::single(c1, 1);
        // One descriptor over one binary component: min(2¹, 2, 2·2⁰) = 2.
        assert_eq!(group_exact_cost(&cs, &[&d0]), 2);
        // Two unconnected descriptors price as their groups' sum.
        assert_eq!(group_exact_cost(&cs, &[&d0, &d1]), 4);

        // A 20-link chain over ternary components: 2²⁰ subsets, 3²¹
        // assignments, but eliminating in id order holds one open descriptor
        // at a time: first slot 2·2⁰, then twenty times 2·2¹.
        let ids: Vec<ComponentId> = (0..21)
            .map(|_| cs.add(Component::uniform(3).unwrap()))
            .collect();
        let chain: Vec<WsDescriptor> = (0..20)
            .map(|i| {
                WsDescriptor::single(ids[i], 0)
                    .conjoin(&WsDescriptor::single(ids[i + 1], 0))
                    .unwrap()
            })
            .collect();
        let refs: Vec<&WsDescriptor> = chain.iter().collect();
        assert_eq!(group_exact_cost(&cs, &refs), 2 + 20 * 4);
        // A short chain is still cheapest by subsets: 2³ < 2 + 3·4.
        assert_eq!(group_exact_cost(&cs, &refs[..3]), 8);
        // A star: all twenty descriptors start at the hub and stay open, so
        // the width term is as large as the subset count, 2²⁰.
        let star: Vec<WsDescriptor> = (1..21)
            .map(|i| {
                WsDescriptor::single(ids[0], (i % 3) as u16)
                    .conjoin(&WsDescriptor::single(ids[i], 1))
                    .unwrap()
            })
            .collect();
        let refs: Vec<&WsDescriptor> = star.iter().collect();
        assert_eq!(group_exact_cost(&cs, &refs), 1 << 20);
    }
}
