//! Components: the independent factors of a world-set decomposition.

use std::borrow::Borrow;

use crate::descriptor::{ComponentId, WsDescriptor};
use crate::dnf::DnfKernel;
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

    /// Move every component from id `at` on out of the set, in id order —
    /// the ones a run minted (see `maybms_algebra::run_with`).
    pub fn split_off(&mut self, at: usize) -> Vec<Component> {
        self.comps.split_off(at)
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

    /// Check that a descriptor's term list only references components of
    /// this set followed by `minted` (ids from [`len`](Self::len) on), with
    /// in-range alternatives. This is the invariant every stored u-relation
    /// must satisfy (enforced by `WorldSet::commit`); evaluation preserves
    /// it because conjunction never invents terms.
    pub fn validate_terms(
        &self,
        minted: &[Component],
        terms: &[(ComponentId, u16)],
    ) -> Result<(), MayError> {
        let base = self.comps.len();
        for &(c, a) in terms {
            let i = c.0 as usize;
            let Some(comp) = self.comps.get(i).or_else(|| minted.get(i - base)) else {
                return Err(MayError::InvalidDescriptor(format!(
                    "{c} does not exist (only {} components)",
                    base + minted.len()
                )));
            };
            if a >= comp.alternatives() {
                return Err(MayError::InvalidDescriptor(format!(
                    "{c}={a} is out of range ({c} has {} alternatives)",
                    comp.alternatives()
                )));
            }
        }
        Ok(())
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
    /// Exact `conf` remains #P-hard in general; `maybms-testkit` keeps the
    /// unfactorized brute force as the differential-testing oracle. This is
    /// one [`DnfKernel::prob_all`] call on a throw-away kernel, with no
    /// approximation and no step ceiling — the call exact `conf` makes per
    /// tuple, so the two agree bit for bit.
    pub fn prob_of_dnf<D: Borrow<WsDescriptor>>(&self, descs: &[D]) -> f64 {
        let terms = descs.iter().map(|d| d.borrow().terms());
        DnfKernel::new()
            .prob_all(self, terms, None, u64::MAX, &mut ConfStats::default())
            .expect("no step ceiling was set")
    }
}

/// Appends components in order: the first gets id [`len`](ComponentSet::len).
impl Extend<Component> for ComponentSet {
    fn extend<I: IntoIterator<Item = Component>>(&mut self, minted: I) {
        self.comps.extend(minted);
    }
}

/// Counters of one confidence-solver run (exact or sampling), surfaced
/// through `ExecStats` and the REPL's `\stats` meta-command.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConfStats {
    /// Connected descriptor groups solved by the exact factorized path.
    pub exact_groups: u64,
    /// Connected descriptor groups solved by sampling.
    pub sampled_groups: u64,
    /// Sampled groups estimated by Karp–Luby (`U < 1`); the other sampled
    /// groups took plain Monte Carlo.
    pub karp_luby_groups: u64,
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
        self.karp_luby_groups += other.karp_luby_groups;
        self.samples_drawn += other.samples_drawn;
        self.largest_group = self.largest_group.max(other.largest_group);
        self.exact_steps += other.exact_steps;
    }
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
    fn rejects_bad_weights() {
        assert!(Component::from_weights(&[]).is_err());
        assert!(Component::from_weights(&[1.0, 0.0]).is_err());
        assert!(Component::from_weights(&[1.0, f64::NAN]).is_err());
    }
}
