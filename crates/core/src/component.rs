//! Components: the independent factors of a world-set decomposition.

use std::borrow::Borrow;
use std::collections::BTreeSet;

use crate::descriptor::{ComponentId, WsDescriptor};
use crate::dnf::{DnfKernel, Loaded};
use crate::error::MayError;

/// One independent component of a world-set decomposition: a finite
/// probability distribution over `alternatives()` local worlds.
///
/// In the paper's component tables, each component is a small relation whose
/// rows (local worlds) assign values to a set of tuple fields and carry a
/// probability. Here the value assignments live in the u-relations (tuples
/// annotated with descriptors referencing the component), and the component
/// itself keeps only the probability vector — the two views are equivalent
/// and this one keeps the algebra simple. See `ARCHITECTURE.md`.
#[derive(Clone, Debug, PartialEq)]
pub struct Component {
    probs: Vec<f64>,
}

impl Component {
    /// Build a component from positive weights; probabilities are the
    /// normalized weights.
    pub fn from_weights(weights: &[f64]) -> Result<Self, MayError> {
        if weights.is_empty() {
            return Err(MayError::InvalidComponent("no alternatives".into()));
        }
        if weights.len() > u16::MAX as usize {
            return Err(MayError::InvalidComponent(format!(
                "{} alternatives exceeds the u16 descriptor limit",
                weights.len()
            )));
        }
        let mut sum = 0.0;
        for &w in weights {
            if !w.is_finite() || w <= 0.0 {
                return Err(MayError::InvalidComponent(format!(
                    "weight {w} is not positive"
                )));
            }
            sum += w;
        }
        Ok(Component {
            probs: weights.iter().map(|w| w / sum).collect(),
        })
    }

    /// A uniform distribution over `n` alternatives.
    pub fn uniform(n: usize) -> Result<Self, MayError> {
        Component::from_weights(&vec![1.0; n])
    }

    /// Number of alternatives (local worlds).
    pub fn alternatives(&self) -> u16 {
        self.probs.len() as u16
    }

    /// Probability of one alternative.
    pub fn prob(&self, alternative: u16) -> f64 {
        self.probs[alternative as usize]
    }
}

/// The set of all components of an uncertain database. The represented world
/// set is the product of the components' local worlds: one world per
/// combination of alternatives.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ComponentSet {
    comps: Vec<Component>,
}

/// One fully decomposed world: a choice of alternative for every component.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorldPick {
    choices: Vec<u16>,
}

impl WorldPick {
    /// The alternative chosen for a component.
    pub fn choice(&self, c: ComponentId) -> u16 {
        self.choices[c.0 as usize]
    }
}

impl ComponentSet {
    /// An empty component set (exactly one world).
    pub fn new() -> Self {
        ComponentSet::default()
    }

    /// Register a component and return its id.
    pub fn add(&mut self, c: Component) -> ComponentId {
        let id = ComponentId(self.comps.len() as u32);
        self.comps.push(c);
        id
    }

    /// The component with the given id.
    pub fn get(&self, id: ComponentId) -> &Component {
        &self.comps[id.0 as usize]
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.comps.len()
    }

    /// True when there are no components (a single certain world).
    pub fn is_empty(&self) -> bool {
        self.comps.is_empty()
    }

    /// Iterate over `(id, component)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ComponentId, &Component)> {
        self.comps
            .iter()
            .enumerate()
            .map(|(i, c)| (ComponentId(i as u32), c))
    }

    /// Total number of represented worlds (the product of alternative
    /// counts), or `None` if the product overflows `u128`.
    pub fn world_count(&self) -> Option<u128> {
        let mut n: u128 = 1;
        for c in &self.comps {
            n = n.checked_mul(c.alternatives() as u128)?;
        }
        Some(n)
    }

    /// Enumerate every world as a [`WorldPick`], in lexicographic order.
    /// This is exponential by design — it is the naive oracle the compact
    /// evaluators are tested against. `limit` guards against blow-up.
    pub fn enumerate(&self, limit: u128) -> Result<Vec<WorldPick>, MayError> {
        let count = self.world_count().ok_or_else(|| {
            MayError::Unsupported("world count overflows u128; enumeration is impossible".into())
        })?;
        if count > limit {
            return Err(MayError::TooManyWorlds { count, limit });
        }
        let mut out = Vec::with_capacity(count as usize);
        let mut choices = vec![0u16; self.comps.len()];
        loop {
            out.push(WorldPick {
                choices: choices.clone(),
            });
            // Advance the odometer; the last component varies fastest.
            let mut i = self.comps.len();
            loop {
                if i == 0 {
                    return Ok(out);
                }
                i -= 1;
                choices[i] += 1;
                if choices[i] < self.comps[i].alternatives() {
                    break;
                }
                choices[i] = 0;
            }
        }
    }

    /// Probability of one world (product of its independent choices).
    pub fn prob_of_pick(&self, pick: &WorldPick) -> f64 {
        self.comps
            .iter()
            .zip(&pick.choices)
            .map(|(c, &a)| c.prob(a))
            .product()
    }

    /// Check that a descriptor only references components of this set, with
    /// in-range alternatives. This is the invariant every stored u-relation
    /// must satisfy (enforced by `WorldSet::insert`); evaluation preserves
    /// it because conjunction never invents terms.
    pub fn validate_descriptor(&self, d: &WsDescriptor) -> Result<(), MayError> {
        for &(c, a) in d.terms() {
            if c.0 as usize >= self.comps.len() {
                return Err(MayError::InvalidDescriptor(format!(
                    "{c} does not exist (only {} components)",
                    self.comps.len()
                )));
            }
            if a >= self.get(c).alternatives() {
                return Err(MayError::InvalidDescriptor(format!(
                    "{c}={a} is out of range ({c} has {} alternatives)",
                    self.get(c).alternatives()
                )));
            }
        }
        Ok(())
    }

    /// Probability of the world set denoted by a single descriptor: the
    /// product of the probabilities of its assignments (components are
    /// independent).
    pub fn prob_of_descriptor(&self, d: &WsDescriptor) -> f64 {
        d.terms()
            .iter()
            .map(|&(c, a)| self.get(c).prob(a))
            .product()
    }

    /// Exact probability of a disjunction of descriptors, *factorized*.
    ///
    /// The descriptors are partitioned into connected groups over shared
    /// components (two descriptors are connected when they mention a common
    /// component). Groups touch disjoint component sets, so by independence
    ///
    /// ```text
    /// P(d₁ ∨ … ∨ dₙ) = 1 − Π over groups g of (1 − P(g))
    /// ```
    ///
    /// and each group is solved exactly by the variable elimination of
    /// [`crate::dnf`], whose cost is exponential only in the group's
    /// *frontier width* — never in the total number of relevant components,
    /// and on chain- and tree-like groups not in the group's size either.
    /// Exact `conf` remains #P-hard in general;
    /// [`ComponentSet::prob_of_dnf_enumerate`] keeps the unfactorized brute
    /// force as the differential-testing oracle. This is a convenience over
    /// a throw-away [`DnfKernel`]; the `conf` operator keeps one per worker.
    pub fn prob_of_dnf<D: Borrow<WsDescriptor>>(&self, descs: &[D]) -> f64 {
        let mut kernel = DnfKernel::new();
        match kernel.load(descs.iter().map(|d| d.borrow().terms())) {
            Loaded::Empty => 0.0,
            Loaded::Tautology => 1.0,
            Loaded::Groups(groups) => {
                let mut prob_none = 1.0;
                for g in 0..groups {
                    prob_none *= 1.0 - kernel.prob(self, g, u64::MAX).expect(NO_CEILING);
                    if prob_none == 0.0 {
                        break;
                    }
                }
                1.0 - prob_none
            }
        }
    }

    /// Exact probability of a disjunction of descriptors by brute-force
    /// enumeration of every assignment of every relevant component — the
    /// original unfactorized algorithm, kept as the oracle that the
    /// factorized [`ComponentSet::prob_of_dnf`] is tested against.
    /// Exponential in the total number of relevant components.
    pub fn prob_of_dnf_enumerate<D: Borrow<WsDescriptor>>(&self, descs: &[D]) -> f64 {
        if descs.iter().any(|d| d.borrow().is_tautology()) {
            return 1.0;
        }
        let refs: Vec<&WsDescriptor> = descs.iter().map(Borrow::borrow).collect();
        let mut total = 0.0;
        self.for_each_relevant_assignment(&refs, |assignment, prob| {
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
    pub fn covers_all_worlds<D: Borrow<WsDescriptor>>(&self, descs: &[D]) -> bool {
        DnfKernel::new()
            .covers_all(self, descs.iter().map(|d| d.borrow().terms()), u64::MAX)
            .expect(NO_CEILING)
    }

    /// Cost bound for solving one connected group *exactly*
    /// ([`DnfKernel::exact_cost`]):
    /// `min(2^descriptors, Π alternative counts, Σ_s b_s · 2^{o_s})`,
    /// saturating, the last term being the elimination's own transition
    /// bound along the id order. The sampling confidence solver compares
    /// this bound against its cutover threshold: groups under the threshold
    /// keep the exact path, groups over it are estimated. A descriptor set
    /// that is not connected prices as the sum over its groups.
    pub fn group_exact_cost(&self, group: &[&WsDescriptor]) -> u128 {
        let mut kernel = DnfKernel::new();
        match kernel.load(group.iter().map(|d| d.terms())) {
            Loaded::Empty | Loaded::Tautology => 1,
            Loaded::Groups(groups) => (0..groups)
                .map(|g| kernel.exact_cost(self, g))
                .fold(0, u128::saturating_add),
        }
    }

    /// Drive `f` over every combination of alternatives of the components
    /// mentioned in `descs`, with the combination's probability. Only the
    /// [`ComponentSet::prob_of_dnf_enumerate`] oracle enumerates.
    fn for_each_relevant_assignment(
        &self,
        descs: &[&WsDescriptor],
        mut f: impl FnMut(&[(ComponentId, u16)], f64),
    ) {
        let vars: Vec<ComponentId> = descs
            .iter()
            .flat_map(|d| d.terms().iter().map(|&(c, _)| c))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        if vars.is_empty() {
            f(&[], 1.0);
            return;
        }
        let mut assignment: Vec<(ComponentId, u16)> = vars.iter().map(|&c| (c, 0)).collect();
        loop {
            let prob: f64 = assignment
                .iter()
                .map(|&(c, a)| self.get(c).prob(a))
                .product();
            f(&assignment, prob);
            let mut i = vars.len();
            loop {
                if i == 0 {
                    return;
                }
                i -= 1;
                assignment[i].1 += 1;
                if assignment[i].1 < self.get(vars[i]).alternatives() {
                    break;
                }
                assignment[i].1 = 0;
            }
        }
    }
}

/// Why the infallible wrappers may unwrap a kernel result.
const NO_CEILING: &str = "no step ceiling was set";

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

/// Counters of one confidence-solver run (exact or sampling), surfaced
/// through `ExecStats` and the REPL's `\stats` meta-command. Defined here —
/// next to the group partition both solver paths share — so the executor
/// crate can carry the counters without depending on `maybms-ql`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConfStats {
    /// Connected descriptor groups solved by the exact factorized path.
    pub exact_groups: u64,
    /// Connected descriptor groups solved by sampling.
    pub sampled_groups: u64,
    /// Total Monte Carlo / Karp–Luby draws across all sampled groups.
    pub samples_drawn: u64,
    /// Largest connected group seen, in descriptors.
    pub largest_group: u64,
    /// Work done on the exact path ([`DnfKernel::steps`]: elimination
    /// transitions, plus the terms or alternatives of the groups solved
    /// without one) — the exact side's counterpart of `samples_drawn`.
    pub exact_steps: u64,
}

impl ConfStats {
    /// Fold another run's counters into this one.
    pub fn absorb(&mut self, other: &ConfStats) {
        self.exact_groups += other.exact_groups;
        self.sampled_groups += other.sampled_groups;
        self.samples_drawn += other.samples_drawn;
        self.largest_group = self.largest_group.max(other.largest_group);
        self.exact_steps += other.exact_steps;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_probabilities_sum_to_one() {
        let mut cs = ComponentSet::new();
        cs.add(Component::from_weights(&[1.0, 3.0]).unwrap());
        cs.add(Component::uniform(3).unwrap());
        let worlds = cs.enumerate(1_000).unwrap();
        assert_eq!(worlds.len(), 6);
        let total: f64 = worlds.iter().map(|w| cs.prob_of_pick(w)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dnf_probability_matches_enumeration() {
        let mut cs = ComponentSet::new();
        let c0 = cs.add(Component::from_weights(&[1.0, 1.0]).unwrap());
        let c1 = cs.add(Component::from_weights(&[1.0, 2.0, 1.0]).unwrap());
        let descs = vec![
            WsDescriptor::single(c0, 0),
            WsDescriptor::single(c0, 1)
                .conjoin(&WsDescriptor::single(c1, 2))
                .unwrap(),
        ];
        let by_enum: f64 = cs
            .enumerate(1_000)
            .unwrap()
            .iter()
            .filter(|w| descs.iter().any(|d| d.satisfied_by(w)))
            .map(|w| cs.prob_of_pick(w))
            .sum();
        assert!((cs.prob_of_dnf(&descs) - by_enum).abs() < 1e-12);
    }

    #[test]
    fn coverage_detects_certain_tuples() {
        let mut cs = ComponentSet::new();
        let c0 = cs.add(Component::uniform(2).unwrap());
        let both = vec![WsDescriptor::single(c0, 0), WsDescriptor::single(c0, 1)];
        assert!(cs.covers_all_worlds(&both));
        assert!(!cs.covers_all_worlds(&both[..1]));
    }

    #[test]
    fn group_exact_cost_takes_the_cheaper_method() {
        let mut cs = ComponentSet::new();
        let c0 = cs.add(Component::uniform(2).unwrap());
        let c1 = cs.add(Component::uniform(3).unwrap());
        let d0 = WsDescriptor::single(c0, 0);
        let d1 = WsDescriptor::single(c1, 1);
        // One descriptor over one binary component: min(2¹, 2, 2·2⁰) = 2.
        assert_eq!(cs.group_exact_cost(&[&d0]), 2);
        // Two unconnected descriptors price as their groups' sum.
        assert_eq!(cs.group_exact_cost(&[&d0, &d1]), 4);

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
        assert_eq!(cs.group_exact_cost(&refs), 2 + 20 * 4);
        // A short chain is still cheapest by subsets: 2³ < 2 + 3·4.
        assert_eq!(cs.group_exact_cost(&refs[..3]), 8);
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
        assert_eq!(cs.group_exact_cost(&refs), 1 << 20);
    }

    #[test]
    fn rejects_bad_weights() {
        assert!(Component::from_weights(&[]).is_err());
        assert!(Component::from_weights(&[1.0, 0.0]).is_err());
        assert!(Component::from_weights(&[1.0, f64::NAN]).is_err());
    }
}
