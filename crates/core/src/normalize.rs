//! Normalization of world-set decompositions.
//!
//! The rewrites below preserve the *instance distribution* of the world set
//! ([`WorldSet::instance_distribution`]): the induced probability
//! distribution over database contents is exactly the same before and after,
//! even though the raw number of worlds may shrink (dropping an unreferenced
//! component merges worlds that were indistinguishable anyway).
//!
//! Per relation, to a fixpoint:
//!
//! 1. **Trivial-assignment stripping** — assignments to single-alternative
//!    components always hold and are removed from descriptors.
//! 2. **Duplicate elimination** — identical `(tuple, descriptor)` rows are
//!    merged (set semantics).
//! 3. **Absorption** — if one of a tuple's descriptors is a subset (as a set
//!    of assignments) of another, the larger one denotes a subset of the
//!    smaller one's worlds and is dropped.
//! 4. **Coverage merging** — if a tuple carries `D ∧ c=a` for *every*
//!    alternative `a` of component `c`, those rows merge into the single row
//!    `D`: the tuple's presence no longer depends on `c`. This is how
//!    components that an operation has made irrelevant become independent of
//!    the relation again.
//!
//! Finally, components referenced by no relation are **garbage collected**
//! and the remaining components are renumbered densely.
//!
//! Normalization reads each relation's columns and writes new ones: it never
//! builds a relation's rows. Every rewrite above is a rewrite of the
//! descriptor column alone — the value cells of each output row are those of
//! some input row — so the output is a gather of the input's columns with a
//! new descriptor column, re-coded over dictionaries of its own by
//! [`URelation::recoded`].
//!
//! A relation already in normal form — each output row is the input row at
//! the same position, under the same descriptor — is **kept**: the same
//! body, its memoised statistics and its rows, if built. That is
//! byte-identical to rebuilding it, because a relation's dictionaries are
//! already distinct and in order of first occurrence, so `recoded` of the
//! identity gather would reproduce it field for field. (A run's answer put
//! straight into a world set is re-coded first; it is kept as that.)
//!
//! Garbage collection then renumbers component ids in the relations'
//! descriptor dictionaries (`URelation::renumber_components`): in place in
//! the relations normalization just made, and in a copy of a kept one, so no
//! body another holder can reach ever changes.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::columnar::{canonical_order, SortStats};
use crate::component::ComponentSet;
use crate::descriptor::ComponentId;
use crate::fxhash::FxHashMap;
use crate::intern::{DescId, DescriptorPool};
use crate::urel::URelation;
use crate::world::WorldSet;

/// Normalize a world set in place. See the module docs for the rewrites.
///
/// Each relation goes through the *columnar* pipeline
/// ([`normalize_relation`]); `maybms-testkit` keeps the row-oriented
/// `normalize_rows` as the reference implementation the columnar path is
/// differentially tested against. Returns the work of the relations'
/// canonical sorts, summed.
pub fn normalize(ws: &mut WorldSet) -> SortStats {
    let mut sort = SortStats::default();
    for rel in ws.relations.values_mut() {
        sort.absorb(&normalize_relation(rel, &ws.components));
    }
    gc_components(&mut ws.components, &mut ws.relations);
    sort
}

/// Columnar normalization of one relation, in place: the relation becomes
/// what `normalized` makes of it, or stays as it is when it is already in
/// normal form (an empty one always is). A run's answer is re-coded over
/// dictionaries of its own first: the steps below compare canonical handles
/// and garbage collection reads the dictionary's entries as the relation's.
/// Equivalent to the testkit's `normalize_rows` on the same rows. Returns
/// the work of its canonical sort.
pub fn normalize_relation(rel: &mut URelation, components: &ComponentSet) -> SortStats {
    rel.own_dictionaries();
    let mut sort = SortStats::default();
    if let Some(normal) = normalized(rel, components, &mut sort) {
        *rel = normal;
    }
    sort
}

/// `rel` normalized, or `None` when `rel` is already in normal form.
/// Engineered for large relations:
///
/// 1. the relation's descriptor dictionary ([`URelation::descriptors`]) is
///    appended to a fresh [`DescriptorPool`], so its handles read the same
///    there and stay canonical; the value columns are read where they lie;
/// 2. trivial-assignment stripping is checked once over the dictionary's
///    terms, and only when some term needs it is it **memoized per distinct
///    descriptor handle** instead of re-filtering term vectors per row;
/// 3. [`canonical_order`] — the one the query operators group by — orders
///    the row ids on integer keys and groups them into tuple runs; no cell
///    is moved or materialized;
/// 4. the per-tuple-group fixpoint (dedup, absorption, coverage merging)
///    runs on canonical [`DescId`]s, so descriptor equality inside a group is
///    an integer compare;
/// 5. the output is two columns — each output row's source row and its
///    descriptor — in the same canonical order the reference path produces.
///    When they are the input's rows in input order under the input's
///    handles the relation is normal already; otherwise they are gathered
///    and re-coded over fresh dictionaries.
///
/// The canonical sort counts its work into `sort`.
fn normalized(
    rel: &URelation,
    components: &ComponentSet,
    sort: &mut SortStats,
) -> Option<URelation> {
    if rel.is_empty() {
        return None;
    }
    let (col, strings) = (rel.columns(), rel.strings());
    let mut pool = DescriptorPool::new();
    let orig_ids = pool.import(rel.descriptors(), col.descs());
    let trivial = |c: ComponentId| components.get(c).alternatives() == 1;

    // Every dictionary entry is some row's, so when no term names a
    // single-alternative component no row has anything to strip. Otherwise
    // the stripping is memoized: handles are canonical, so each distinct
    // descriptor is stripped (and re-interned) exactly once.
    let descs: Cow<'_, [DescId]> = if !rel
        .descriptors()
        .all_terms()
        .iter()
        .any(|&(c, _)| trivial(c))
    {
        Cow::Borrowed(&orig_ids)
    } else {
        let mut strip_memo: FxHashMap<DescId, DescId> = FxHashMap::default();
        let mut strip_buf: Vec<(ComponentId, u16)> = Vec::new();
        let stripped = orig_ids.iter().map(|&d| {
            *strip_memo.entry(d).or_insert_with(|| {
                if !pool.terms(d).iter().any(|&(c, _)| trivial(c)) {
                    return d;
                }
                strip_buf.clear();
                strip_buf.extend(pool.terms(d).iter().copied().filter(|&(c, _)| !trivial(c)));
                pool.intern_terms(&strip_buf)
            })
        });
        Cow::Owned(stripped.collect())
    };

    // Per tuple group — a run of equal tuples in the canonical order — the
    // group's first row stands for its tuple, once per descriptor that
    // survives. A group of one keeps its stripped descriptor; a larger one
    // goes to a local fixpoint, exactly as in the reference `normalize_rows`
    // but on canonical handles (its first round drops exact duplicates).
    let (perm, runs) = canonical_order(col.columns(), &descs, &pool, strings, sort);
    let mut reps: Vec<u32> = Vec::with_capacity(runs.len());
    let mut out: Vec<DescId> = Vec::with_capacity(runs.len());
    for (start, end) in runs {
        let group = &perm[start as usize..end as usize];
        let rep = group[0];
        if group.len() == 1 {
            reps.push(rep);
            out.push(descs[rep as usize]);
        } else {
            // Canonical handles in canonical order: equal descriptors lie
            // together under one handle. Only a rewrite unsorts them.
            let mut ids: Vec<DescId> = group.iter().map(|&i| descs[i as usize]).collect();
            ids.dedup();
            while simplify_disjunction_ids(&mut ids, &mut pool, components) {
                ids.sort_unstable_by(|&a, &b| pool.cmp_terms(a, b));
                ids.dedup();
            }
            reps.extend(std::iter::repeat(rep).take(ids.len()));
            out.extend(ids);
        }
    }
    if reps.iter().copied().eq(0..col.len() as u32) && out[..] == orig_ids[..] {
        return None;
    }
    let gathered = col.gather_with_descs(&reps, out);
    Some(URelation::recoded(gathered, &pool, strings))
}

/// Absorption and coverage merging on canonical descriptor handles. All ids
/// must be interned (canonical in `pool`), so id equality is descriptor
/// equality. Returns true when anything changed.
fn simplify_disjunction_ids(
    ids: &mut Vec<DescId>,
    pool: &mut DescriptorPool,
    components: &ComponentSet,
) -> bool {
    let mut changed = false;

    // Absorption: drop any descriptor that a strictly more general one
    // subsumes.
    let mut keep = vec![true; ids.len()];
    for a in 0..ids.len() {
        if !keep[a] {
            continue;
        }
        for b in 0..ids.len() {
            if a != b && keep[b] && ids[a] != ids[b] && pool.is_subset(ids[a], ids[b]) {
                keep[b] = false;
                changed = true;
            }
        }
    }
    if changed {
        let mut it = keep.iter();
        ids.retain(|_| *it.next().expect("keep mask matches ids length"));
    }

    // Coverage merging: if `base ∧ c=a` is present for every alternative `a`
    // of some component `c`, those ids merge into `base`. Variants are
    // detected by direct term-slice comparison (same terms as `d` with the
    // `c`-assignment swapped) — no descriptor is constructed or interned
    // until a merge actually fires.
    'restart: loop {
        for idx in 0..ids.len() {
            let d = ids[idx];
            for ti in 0..pool.terms(d).len() {
                let c = pool.terms(d)[ti].0;
                let is_variant = |pool: &DescriptorPool, x: DescId, a: u16| {
                    let (tx, td) = (pool.terms(x), pool.terms(d));
                    tx.len() == td.len()
                        && tx.iter().zip(td).enumerate().all(|(k, (&xt, &dt))| {
                            if k == ti {
                                xt == (c, a)
                            } else {
                                xt == dt
                            }
                        })
                };
                let n = components.get(c).alternatives();
                if (0..n).all(|a| ids.iter().any(|&x| is_variant(pool, x, a))) {
                    ids.retain(|&x| !(0..n).any(|a| is_variant(pool, x, a)));
                    ids.push(pool.without(d, c));
                    changed = true;
                    continue 'restart;
                }
            }
        }
        break;
    }
    changed
}

/// Drop components no relation references and renumber the rest densely,
/// in ascending order. Reference detection is one pass over each relation's
/// distinct descriptors, not its rows; renumbering maps the dictionaries of
/// the relations that mention a component whose id changes
/// ([`URelation::renumber_components`]): in place in a relation
/// normalization just made, which nobody else holds, and in a copy of a kept
/// one. A dense renumbering is monotone and injective, so every term list
/// stays sorted, distinct descriptors stay distinct and first-occurrence
/// order holds: each relation is still what pushing its renumbered rows
/// makes.
fn gc_components(components: &mut ComponentSet, relations: &mut BTreeMap<String, URelation>) {
    let total = components.len();
    let mut used = vec![false; total];
    for rel in relations.values().filter(|r| !r.is_empty()) {
        for &(c, _) in rel.descriptors().all_terms() {
            used[c.0 as usize] = true;
        }
    }
    if used.iter().all(|&u| u) {
        return;
    }
    let mut remap = vec![u32::MAX; total];
    let mut kept = ComponentSet::new();
    for (old, _) in used.iter().enumerate().filter(|&(_, &u)| u) {
        remap[old] = kept.add(components.get(ComponentId(old as u32)).clone()).0;
    }
    for rel in relations.values_mut().filter(|r| !r.is_empty()) {
        let terms = rel.descriptors().all_terms();
        if terms.iter().any(|&(c, _)| remap[c.0 as usize] != c.0) {
            rel.renumber_components(&remap);
        }
    }
    *components = kept;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Component;
    use crate::descriptor::WsDescriptor;
    use crate::rel::Tuple;
    use crate::schema::Schema;
    use crate::value::{Value, ValueType};

    #[test]
    fn normalizing_reports_its_canonical_sort() {
        let mut components = ComponentSet::new();
        components.add(Component::uniform(2).unwrap());
        let mut rel = URelation::new(Schema::of(&[("a", ValueType::Int)]).unwrap());
        for (a, alt) in [(3, 0), (1, 1), (2, 0)] {
            let d = WsDescriptor::single(ComponentId(0), alt);
            rel.push(Tuple::new(vec![Value::Int(a)]), d).unwrap();
        }
        assert!(normalize_relation(&mut rel, &components).radix_passes > 0);
        // The result is in canonical order: its keys already ascend.
        assert_eq!(normalize_relation(&mut rel, &components).radix_passes, 0);
    }
}
