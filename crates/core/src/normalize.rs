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

use std::cmp::Ordering;
use std::sync::Arc;

use crate::columnar::StrPool;
use crate::component::ComponentSet;
use crate::descriptor::{ComponentId, WsDescriptor};
use crate::fxhash::FxHashMap;
use crate::intern::{DescId, DescriptorPool};
use crate::rel::Tuple;
use crate::urel::URelation;
use crate::world::WorldSet;

/// Normalize a world set in place. See the module docs for the rewrites.
///
/// Each relation goes through the *columnar* pipeline
/// ([`normalize_relation`]); `maybms-testkit` keeps the row-oriented
/// `normalize_rows` as the reference implementation the columnar path is
/// differentially tested against.
pub fn normalize(ws: &mut WorldSet) {
    let components = ws.components.clone();
    for rel in ws.relations.values_mut() {
        normalize_relation(rel, &components);
    }
    gc_components(ws);
}

/// Columnar normalization of one relation, in place. Equivalent to the
/// testkit's `normalize_rows` on the same rows, but engineered for large
/// relations:
///
/// 1. the relation's columnar image ([`URelation::image`]) is imported into
///    a run-local [`DescriptorPool`] — into empty pools, so every column is
///    read where it lies;
/// 2. trivial-assignment stripping is **memoized per distinct descriptor
///    handle** instead of re-filtering term vectors per row;
/// 3. the canonical sort orders a `u32` permutation vector with column-wise
///    typed comparisons — rows are never moved, and no `(Tuple, WsDescriptor)`
///    pairs are shuffled through memory;
/// 4. the per-tuple-group fixpoint (dedup, absorption, coverage merging)
///    runs on canonical [`DescId`]s, so descriptor equality inside a group is
///    an integer compare;
/// 5. the surviving rows are emitted in one pass, in the same canonical
///    `(tuple, descriptor)` order the reference path produces — *moving* the
///    original tuples (and, where a row survived unchanged, its original
///    descriptor) instead of re-materializing them from the columns.
pub fn normalize_relation(rel: &mut URelation, components: &ComponentSet) {
    if rel.is_empty() {
        return;
    }
    let registry = crate::obs::metrics();
    registry.normalize_runs_total.inc();
    registry.normalize_rows_total.add(rel.len() as u64);
    let mut pool = DescriptorPool::new();
    let mut strings = StrPool::new();
    // Held by its own handle: taking the rows below drops the relation's.
    let image = Arc::clone(rel.image());
    let col = image.scan(&mut pool, &mut strings);
    let orig_ids: Vec<DescId> = col.descs().to_vec();
    let n = col.len();
    // The original rows, each taken at most once during the emit pass below
    // (the columns hold independent copies of the values).
    let mut rows: Vec<Option<(Tuple, WsDescriptor)>> =
        rel.take_rows().into_iter().map(Some).collect();

    // Memoized trivial-assignment stripping: handles are canonical, so each
    // distinct descriptor is stripped (and re-interned) exactly once.
    let mut strip_memo: FxHashMap<DescId, DescId> = FxHashMap::default();
    let mut strip_buf: Vec<(ComponentId, u16)> = Vec::new();
    let descs: Vec<DescId> = orig_ids
        .iter()
        .map(|&d| {
            if let Some(&s) = strip_memo.get(&d) {
                return s;
            }
            let stripped = if pool
                .terms(d)
                .iter()
                .all(|&(c, _)| components.get(c).alternatives() > 1)
            {
                d
            } else {
                strip_buf.clear();
                strip_buf.extend(
                    pool.terms(d)
                        .iter()
                        .copied()
                        .filter(|&(c, _)| components.get(c).alternatives() > 1),
                );
                pool.intern_terms(&strip_buf)
            };
            strip_memo.insert(d, stripped);
            stripped
        })
        .collect();

    // Canonical (tuple, descriptor) order on a permutation vector. Each row
    // is paired with the first column's order-preserving prefix key, so the
    // bulk of the comparisons is one integer compare on data that travels
    // with the permutation entry; ties fall back to the full column-wise
    // comparison.
    let mut keyed: Vec<(u64, u32)> = match col.columns().first() {
        Some(first) => (0..n)
            .map(|i| (first.sort_prefix(i, &strings), i as u32))
            .collect(),
        // Zero-arity relation: every tuple is ().
        None => (0..n).map(|i| (0, i as u32)).collect(),
    };
    let by_canonical = |&(ka, i): &(u64, u32), &(kb, j): &(u64, u32)| {
        ka.cmp(&kb).then_with(|| {
            col.cmp_rows(i as usize, j as usize, &strings)
                .then_with(|| pool.cmp_terms(descs[i as usize], descs[j as usize]))
        })
    };
    keyed.sort_unstable_by(by_canonical);
    let mut perm: Vec<u32> = keyed.into_iter().map(|(_, i)| i).collect();
    perm.dedup_by(|&mut i, &mut j| {
        descs[i as usize] == descs[j as usize] && col.rows_eq(i as usize, j as usize)
    });

    // Tuple-group boundaries over the canonical permutation.
    let mut groups: Vec<(usize, usize)> = Vec::new();
    {
        let mut start = 0;
        while start < perm.len() {
            let mut end = start + 1;
            while end < perm.len() && col.rows_eq(perm[start] as usize, perm[end] as usize) {
                end += 1;
            }
            groups.push((start, end));
            start = end;
        }
    }

    // Per-tuple-group local fixpoint, exactly as in the reference
    // `normalize_rows` but on canonical handles. Only groups with more than
    // one descriptor need it.
    let multi: Vec<usize> = groups
        .iter()
        .enumerate()
        .filter(|&(_, &(s, e))| e - s > 1)
        .map(|(g, _)| g)
        .collect();
    let mut resolved: Vec<Vec<DescId>> = Vec::with_capacity(multi.len());
    for &g in &multi {
        let (s, e) = groups[g];
        let mut ids: Vec<DescId> = perm[s..e].iter().map(|&i| descs[i as usize]).collect();
        loop {
            ids.sort_unstable_by(|&a, &b| pool.cmp_terms(a, b));
            ids.dedup();
            if !simplify_disjunction_ids(&mut ids, &mut pool, components) {
                break;
            }
        }
        resolved.push(ids);
    }

    let mut out: Vec<(Tuple, WsDescriptor)> = Vec::with_capacity(perm.len());
    let mut mi = 0;
    for (g, &(start, end)) in groups.iter().enumerate() {
        let single;
        let ids: &[DescId] = if mi < multi.len() && multi[mi] == g {
            mi += 1;
            &resolved[mi - 1]
        } else {
            // Singleton group: its one stripped descriptor survives as-is.
            single = [descs[perm[start] as usize]];
            &single
        };
        // Move the representative row out; its tuple is the group's tuple.
        let (tuple, rep_desc) = rows[perm[start] as usize]
            .take()
            .expect("each source row is taken at most once");
        let mut rep_desc = Some(rep_desc);
        // Emit the group's descriptors in canonical order, reusing an
        // original descriptor whenever a surviving id belongs to a source
        // row whose descriptor was not rewritten by stripping. Group rows
        // and surviving ids are both sorted by term list, so one forward
        // pointer finds each reusable row.
        let mut p = start;
        let last = ids.len() - 1;
        for (k, &id) in ids.iter().enumerate() {
            while p < end && pool.cmp_terms(descs[perm[p] as usize], id) == Ordering::Less {
                p += 1;
            }
            let mut reused = None;
            if p < end && descs[perm[p] as usize] == id {
                let row = perm[p] as usize;
                p += 1;
                if orig_ids[row] == id {
                    reused = if row == perm[start] as usize {
                        rep_desc.take()
                    } else {
                        rows[row].take().map(|(_, d)| d)
                    };
                }
            }
            let desc = reused.unwrap_or_else(|| pool.to_descriptor(id));
            if k == last {
                out.push((tuple, desc));
                break;
            }
            out.push((tuple.clone(), desc));
        }
    }
    rel.set_rows(out);
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

/// Drop components no relation references and renumber the rest densely.
/// Reference detection is a linear sweep over a dense mark vector (one flag
/// per component) — no ordered-set construction on the hot path.
fn gc_components(ws: &mut WorldSet) {
    let total = ws.components.len();
    let mut used = vec![false; total];
    let mut used_count = 0;
    for rel in ws.relations.values() {
        for (_, d) in rel.rows() {
            for &(c, _) in d.terms() {
                let slot = &mut used[c.0 as usize];
                if !*slot {
                    *slot = true;
                    used_count += 1;
                }
            }
        }
    }
    if used_count == total {
        return;
    }
    // Dense renumbering in ascending component order.
    let mut remap_table = vec![u32::MAX; total];
    let mut new_set = ComponentSet::new();
    for (old, &is_used) in used.iter().enumerate() {
        if is_used {
            let new = new_set.add(ws.components.get(ComponentId(old as u32)).clone());
            remap_table[old] = new.0;
        }
    }
    let remap = |c: ComponentId| ComponentId(remap_table[c.0 as usize]);
    for rel in ws.relations.values_mut() {
        let rows = rel
            .take_rows()
            .into_iter()
            .map(|(t, d)| {
                let terms: Vec<_> = d.terms().iter().map(|&(c, a)| (remap(c), a)).collect();
                (
                    t,
                    WsDescriptor::from_terms(terms).expect("renumbering keeps consistency"),
                )
            })
            .collect();
        rel.set_rows(rows);
    }
    ws.components = new_set;
}
