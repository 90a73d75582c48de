//! The uncertain database: a component set plus named u-relations, with
//! exhaustive world enumeration (the differential-testing oracle).

use std::collections::BTreeMap;

use crate::component::{Component, ComponentSet, WorldPick};
use crate::error::MayError;
use crate::normalize;
use crate::rel::Relation;
use crate::urel::URelation;

/// One fully instantiated database: a plain relation per name.
pub type Db = BTreeMap<String, Relation>;

/// A world-set decomposition of an uncertain database: independent
/// [`ComponentSet`] choices plus named [`URelation`]s whose descriptors
/// reference those components.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorldSet {
    /// The independent components (the product decomposition of the worlds).
    pub components: ComponentSet,
    /// The uncertain relations, by name.
    pub relations: BTreeMap<String, URelation>,
}

impl WorldSet {
    /// An empty world set: no components (one world), no relations.
    pub fn new() -> Self {
        WorldSet::default()
    }

    /// [`commit`](Self::commit) a relation no run minted components for.
    pub fn insert(&mut self, name: impl Into<String>, rel: URelation) -> Result<(), MayError> {
        self.commit(name, rel, Vec::new())
    }

    /// Insert or replace a relation together with the components the run
    /// that produced it minted (`minted[i]` gets id `components.len() + i`,
    /// the ids its descriptors already use). The descriptors are validated
    /// against the current components followed by `minted` before anything
    /// changes (unknown components or out-of-range alternatives are rejected
    /// here rather than panicking during later enumeration or confidence
    /// computation), so a rejected relation leaves the world set as it was.
    /// A run's answer is first re-coded over dictionaries of its own (a
    /// pushed relation has them already). Each *distinct* descriptor is then
    /// checked once, off the relation's descriptor dictionary — which is in
    /// order of first occurrence, so the term reported is the first
    /// offending row's. The stored relation keeps no intern index: nothing
    /// looks a value up in it.
    pub fn commit(
        &mut self,
        name: impl Into<String>,
        mut rel: URelation,
        minted: Vec<Component>,
    ) -> Result<(), MayError> {
        rel.own_dictionaries();
        self.components
            .validate_terms(&minted, rel.descriptors().all_terms())?;
        rel.drop_indexes();
        self.components.extend(minted);
        self.relations.insert(name.into(), rel);
        Ok(())
    }

    /// The relation with the given name.
    pub fn relation(&self, name: &str) -> Result<&URelation, MayError> {
        self.relations
            .get(name)
            .ok_or_else(|| MayError::UnknownRelation(name.to_string()))
    }

    /// Enumerate every possible world together with its probability.
    ///
    /// This fully expands the decomposition and is exponential in the number
    /// of components; it exists as the *naive oracle* that the compact
    /// WSD-level evaluators are property-tested against, and for tiny
    /// databases. `limit` bounds the number of worlds.
    pub fn enumerate(&self, limit: u128) -> Result<Vec<(WorldPick, Db, f64)>, MayError> {
        let picks = self.components.enumerate(limit)?;
        let mut out = Vec::with_capacity(picks.len());
        for pick in picks {
            let db: Db = self
                .relations
                .iter()
                .map(|(n, r)| (n.clone(), r.instantiate(&pick)))
                .collect();
            let p = self.components.prob_of_pick(&pick);
            out.push((pick, db, p));
        }
        Ok(out)
    }

    /// Aggregate the enumeration into a distribution over database
    /// *instances*: distinct worlds with identical relation contents are
    /// merged and their probabilities summed. This is the semantics that
    /// [`WorldSet::normalize`] preserves exactly.
    pub fn instance_distribution(&self, limit: u128) -> Result<Vec<(Db, f64)>, MayError> {
        let mut agg: BTreeMap<Db, f64> = BTreeMap::new();
        for (_, db, p) in self.enumerate(limit)? {
            *agg.entry(db).or_insert(0.0) += p;
        }
        Ok(agg.into_iter().collect())
    }

    /// Normalize the decomposition in place: simplify and absorb
    /// descriptors, merge rows that together cover all alternatives of a
    /// component, and garbage-collect components no relation references.
    /// See [`crate::normalize`] for the exact rewrites and the invariant.
    pub fn normalize(&mut self) {
        normalize::normalize(self);
    }

    /// [`normalize`](Self::normalize); no stage of it reads the thread
    /// budget. Kept because the frozen `perfbench` adapter calls it.
    pub fn normalize_with(&mut self, _par: &crate::parallel::ParCfg) {
        self.normalize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::ColumnarURelation;
    use crate::descriptor::{ComponentId, WsDescriptor};
    use crate::error::MayError;
    use crate::rel::Tuple;
    use crate::schema::Schema;
    use crate::value::ValueType;

    fn one_col_rel(desc: WsDescriptor) -> URelation {
        let schema = Schema::of(&[("a", ValueType::Int)]).unwrap();
        let mut u = URelation::new(schema);
        u.push(Tuple::new(vec![1.into()]), desc).unwrap();
        u
    }

    #[test]
    fn insert_rejects_unknown_component() {
        let mut ws = WorldSet::new();
        let err = ws.insert("r", one_col_rel(WsDescriptor::single(ComponentId(0), 0)));
        assert!(
            matches!(err, Err(MayError::InvalidDescriptor(_))),
            "{err:?}"
        );
    }

    /// A commit validates against the components followed by the minted
    /// ones, and one it rejects changes nothing.
    #[test]
    fn commit_takes_the_minted_components_or_nothing() {
        let mut ws = WorldSet::new();
        ws.components.add(Component::uniform(2).unwrap());
        let minted = vec![Component::uniform(3).unwrap()];
        let before = ws.clone();
        for bad in [
            WsDescriptor::single(ComponentId(1), 3),
            WsDescriptor::single(ComponentId(2), 0),
        ] {
            let err = ws.commit("r", one_col_rel(bad), minted.clone());
            assert!(
                matches!(err, Err(MayError::InvalidDescriptor(_))),
                "{err:?}"
            );
            assert_eq!(ws, before);
        }
        let good = one_col_rel(WsDescriptor::single(ComponentId(1), 2));
        ws.commit("r", good, minted.clone()).unwrap();
        assert_eq!(ws.components.len(), 2);
        assert_eq!(ws.components.get(ComponentId(1)), &minted[0]);
    }

    #[test]
    fn insert_rejects_out_of_range_alternative() {
        let mut ws = WorldSet::new();
        let c = ws.components.add(Component::uniform(2).unwrap());
        let err = ws.insert("r", one_col_rel(WsDescriptor::single(c, 2)));
        assert!(
            matches!(err, Err(MayError::InvalidDescriptor(_))),
            "{err:?}"
        );
        ws.insert("ok", one_col_rel(WsDescriptor::single(c, 1)))
            .unwrap();
        // Of several offending rows the first is named, however the relation
        // came to be: pushed, or as a run's answer.
        let mut rel = one_col_rel(WsDescriptor::single(c, 1));
        for bad in [WsDescriptor::single(c, 7), WsDescriptor::single(c, 2)] {
            rel.push(Tuple::new(vec![2.into()]), bad).unwrap();
        }
        let (mut pool, mut strings) = Default::default();
        let columns = ColumnarURelation::from_urelation(&rel, &mut pool, &mut strings);
        let answer = URelation::from_run(columns, pool, strings);
        for rel in [rel, answer] {
            let err = ws.insert("r", rel).unwrap_err();
            let message = "invalid descriptor: c0=7 is out of range (c0 has 2 alternatives)";
            assert_eq!(err.to_string(), message);
        }
    }
}
