//! World-set descriptors: conjunctions of component assignments.

use std::fmt;

use crate::component::WorldPick;

/// Identifier of a component (an independent finite random variable) in a
/// [`crate::component::ComponentSet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub u32);

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A world-set descriptor: a conjunction of assignments `c = alternative`,
/// one per distinct component, kept sorted by component id.
///
/// A descriptor denotes the set of worlds in which every listed component
/// takes the listed alternative. The empty descriptor is the tautology
/// (all worlds). Descriptors over *distinct* components are independent,
/// which is what makes exact confidence computation on them tractable per
/// tuple (it only needs to enumerate the components that actually occur in
/// the tuple's descriptors).
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WsDescriptor {
    terms: Vec<(ComponentId, u16)>,
}

impl WsDescriptor {
    /// The descriptor holding in every world.
    pub fn tautology() -> Self {
        WsDescriptor::default()
    }

    /// A descriptor with the single assignment `component = alternative`.
    pub fn single(component: ComponentId, alternative: u16) -> Self {
        WsDescriptor {
            terms: vec![(component, alternative)],
        }
    }

    /// Build a descriptor from assignments. Returns `None` if the same
    /// component is assigned two different alternatives (the empty world set).
    pub fn from_terms(mut terms: Vec<(ComponentId, u16)>) -> Option<Self> {
        terms.sort_unstable();
        terms.dedup();
        for w in terms.windows(2) {
            if w[0].0 == w[1].0 {
                return None;
            }
        }
        Some(WsDescriptor { terms })
    }

    /// Build a descriptor from terms already sorted by strictly increasing
    /// component id (the interner stores term lists in exactly this form).
    pub(crate) fn from_sorted_terms_unchecked(terms: Vec<(ComponentId, u16)>) -> Self {
        debug_assert!(
            terms.windows(2).all(|w| w[0].0 < w[1].0),
            "terms must be strictly sorted by component id"
        );
        WsDescriptor { terms }
    }

    /// True for the empty (all-worlds) descriptor.
    pub fn is_tautology(&self) -> bool {
        self.terms.is_empty()
    }

    /// The assignments, sorted by component id.
    pub fn terms(&self) -> &[(ComponentId, u16)] {
        &self.terms
    }

    /// The alternative this descriptor assigns to `c`, if any.
    pub fn get(&self, c: ComponentId) -> Option<u16> {
        self.terms
            .binary_search_by_key(&c, |&(id, _)| id)
            .ok()
            .map(|i| self.terms[i].1)
    }

    /// Conjoin two descriptors: a merge of the two term lists by component
    /// id. Returns `None` when they are inconsistent (assign different
    /// alternatives to the same component), i.e. the conjunction denotes no
    /// worlds.
    pub fn conjoin(&self, other: &WsDescriptor) -> Option<WsDescriptor> {
        let (a, b) = (&self.terms, &other.terms);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    if a[i].1 != b[j].1 {
                        return None;
                    }
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        Some(WsDescriptor { terms: out })
    }

    /// Whether the descriptor holds in the world selected by `pick`.
    pub fn satisfied_by(&self, pick: &WorldPick) -> bool {
        self.terms.iter().all(|&(c, alt)| pick.choice(c) == alt)
    }

    /// This descriptor with any assignment to `c` removed (a superset of
    /// worlds).
    pub fn without(&self, c: ComponentId) -> WsDescriptor {
        WsDescriptor {
            terms: self
                .terms
                .iter()
                .copied()
                .filter(|&(id, _)| id != c)
                .collect(),
        }
    }

    /// True when every assignment of `self` also occurs in `other`. In that
    /// case `other` denotes a subset of the worlds of `self`, so in a
    /// disjunction of descriptors `other` is absorbed by `self`.
    pub fn is_subset_of(&self, other: &WsDescriptor) -> bool {
        self.terms
            .iter()
            .all(|t| other.terms.binary_search(t).is_ok())
    }
}

impl fmt::Display for WsDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_tautology() {
            return f.write_str("⊤");
        }
        for (i, (c, alt)) in self.terms.iter().enumerate() {
            if i > 0 {
                f.write_str(" ∧ ")?;
            }
            write!(f, "{c}={alt}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjoin_merges_and_detects_conflicts() {
        let a = WsDescriptor::single(ComponentId(0), 1);
        let b = WsDescriptor::single(ComponentId(1), 0);
        let ab = a.conjoin(&b).unwrap();
        assert_eq!(ab.terms(), &[(ComponentId(0), 1), (ComponentId(1), 0)]);
        assert_eq!(ab.conjoin(&a), Some(ab.clone()));
        let conflict = WsDescriptor::single(ComponentId(0), 2);
        assert_eq!(a.conjoin(&conflict), None);
    }

    #[test]
    fn subset_and_without() {
        let a = WsDescriptor::single(ComponentId(0), 1);
        let ab = a.conjoin(&WsDescriptor::single(ComponentId(1), 0)).unwrap();
        assert!(a.is_subset_of(&ab));
        assert!(!ab.is_subset_of(&a));
        assert_eq!(ab.without(ComponentId(1)), a);
    }

    #[test]
    fn from_terms_rejects_conflicts() {
        assert!(WsDescriptor::from_terms(vec![(ComponentId(0), 1), (ComponentId(0), 2)]).is_none());
        let d = WsDescriptor::from_terms(vec![(ComponentId(1), 0), (ComponentId(0), 1)]).unwrap();
        assert_eq!(d.terms()[0].0, ComponentId(0));
    }
}
