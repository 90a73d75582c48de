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
//! Normalization reads each relation's columnar image and writes a new one:
//! it never builds a relation's rows. Every rewrite above is a rewrite of the
//! descriptor column alone — the value cells of each output row are those of
//! some input row — so the output is a gather of the input's columns with a
//! new descriptor column, re-coded into an image of its own by
//! [`ColumnarImage::from_run`]. Garbage collection then renumbers component
//! ids in those new images' descriptor dictionaries, before any other holder
//! can see them.

use crate::columnar::canonical_order;
use crate::component::ComponentSet;
use crate::descriptor::ComponentId;
use crate::fxhash::FxHashMap;
use crate::image::ColumnarImage;
use crate::intern::{DescId, DescriptorPool};
use crate::urel::URelation;
use crate::world::WorldSet;

/// Normalize a world set in place. See the module docs for the rewrites.
///
/// Each relation goes through the *columnar* pipeline
/// ([`normalize_relation`]); `maybms-testkit` keeps the row-oriented
/// `normalize_rows` as the reference implementation the columnar path is
/// differentially tested against.
pub fn normalize(ws: &mut WorldSet) {
    let mut images: Vec<Option<ColumnarImage>> = ws
        .relations
        .values()
        .map(|rel| normalize_image(rel, &ws.components))
        .collect();
    gc_components(&mut ws.components, &mut images);
    for (rel, image) in ws.relations.values_mut().zip(images) {
        if let Some(image) = image {
            *rel = URelation::from_image(image);
        }
    }
}

/// Columnar normalization of one relation, in place: the relation becomes
/// the image `normalize_image` makes of it (an empty one stays as it is).
/// Equivalent to the testkit's `normalize_rows` on the same rows.
pub fn normalize_relation(rel: &mut URelation, components: &ComponentSet) {
    if let Some(image) = normalize_image(rel, components) {
        *rel = URelation::from_image(image);
    }
}

/// The image of `rel` normalized, or `None` when `rel` is empty. Engineered
/// for large relations:
///
/// 1. the relation's descriptor dictionary ([`URelation::image`]) is
///    appended to a fresh [`DescriptorPool`], so its handles read the same
///    there and stay canonical; the value columns are read where they lie;
/// 2. trivial-assignment stripping is **memoized per distinct descriptor
///    handle** instead of re-filtering term vectors per row;
/// 3. [`canonical_order`] — the one the query operators group by — orders
///    the row ids on integer keys and groups them into tuple runs; no cell
///    is moved or materialized;
/// 4. the per-tuple-group fixpoint (dedup, absorption, coverage merging)
///    runs on canonical [`DescId`]s, so descriptor equality inside a group is
///    an integer compare;
/// 5. the output is two columns — each output row's source row and its
///    descriptor — in the same canonical order the reference path produces,
///    gathered and re-coded into a fresh image.
fn normalize_image(rel: &URelation, components: &ComponentSet) -> Option<ColumnarImage> {
    if rel.is_empty() {
        return None;
    }
    let registry = crate::obs::metrics();
    registry.normalize_runs_total.inc();
    registry.normalize_rows_total.add(rel.len() as u64);
    let image = rel.image();
    let (col, strings) = (image.columns(), image.strings());
    let mut pool = DescriptorPool::new();
    let orig_ids = pool.import(image.descriptors(), col.descs());

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

    // Per tuple group — a run of equal tuples in the canonical order — the
    // group's first row stands for its tuple, once per descriptor that
    // survives. A group of one keeps its stripped descriptor; a larger one
    // goes to a local fixpoint, exactly as in the reference `normalize_rows`
    // but on canonical handles (its first round drops exact duplicates).
    let (perm, runs) = canonical_order(col.columns(), &descs, &pool, strings);
    let mut reps: Vec<u32> = Vec::with_capacity(runs.len());
    let mut out: Vec<DescId> = Vec::with_capacity(runs.len());
    for (start, end) in runs {
        let group = &perm[start as usize..end as usize];
        let rep = group[0];
        if group.len() == 1 {
            reps.push(rep);
            out.push(descs[rep as usize]);
        } else {
            let mut ids: Vec<DescId> = group.iter().map(|&i| descs[i as usize]).collect();
            loop {
                ids.sort_unstable_by(|&a, &b| pool.cmp_terms(a, b));
                ids.dedup();
                if !simplify_disjunction_ids(&mut ids, &mut pool, components) {
                    break;
                }
            }
            reps.extend(std::iter::repeat(rep).take(ids.len()));
            out.extend(ids);
        }
    }
    let gathered = col.gather_with_descs(&reps, out);
    Some(ColumnarImage::from_run(gathered, &pool, strings))
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

/// Drop components no image references and renumber the rest densely, in
/// ascending order. The images are normalization's own, not yet wrapped in
/// a relation, so nobody else holds them. Reference detection is one pass
/// over each image's distinct descriptors, not its rows; renumbering maps
/// their dictionaries in place. A dense renumbering is monotone and
/// injective, so every term list stays sorted, distinct descriptors stay
/// distinct and first-occurrence order holds: each image is still the one a
/// conversion of its renumbered rows builds.
fn gc_components(components: &mut ComponentSet, images: &mut [Option<ColumnarImage>]) {
    let total = components.len();
    let mut used = vec![false; total];
    for image in images.iter().flatten() {
        for &(c, _) in image.descriptors().all_terms() {
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
    for image in images.iter_mut().flatten() {
        image.renumber_components(&remap);
    }
    *components = kept;
}
