//! Descriptor interning: map each [`WsDescriptor`] to a dense `u32` handle
//! so the hot executor paths (conjoin, dedup, hash join) key on integers
//! instead of re-allocating sorted term vectors.
//!
//! A [`DescriptorPool`] is a flat arena: every entry's term list lies in one
//! vector, one after the other, and a table of running ends says where each
//! stops. Entry 0 is the tautology. Nothing is allocated per entry: a stored
//! relation's descriptor dictionary — itself a pool, filled by interning as
//! rows are pushed — enters a run as two array copies
//! (`DescriptorPool::import`: append, not intern) and a conjunction is
//! merged into the arena's tail, then kept or truncated
//! ([`DescriptorPool::conjoin`]).
//!
//! Equal handles always denote equal descriptors. The converse holds only
//! among handles that came through [`DescriptorPool::intern`] /
//! [`DescriptorPool::intern_terms`], [`DescriptorPool::fresh_single`] or
//! one import into a fresh pool (normalization's private pool). A
//! descriptor over a component minted after every other entry (what
//! `repair-key` makes) can equal no entry, so `fresh_single` seals it
//! without a lookup and [`PoolStats::intern_calls`] does not count it; it is
//! canonical all the same, because the index — built before or after — holds
//! it. Conjunction results and further imported dictionaries are appended
//! without a lookup, so an equal descriptor may sit under another handle.
//! Consumers compare descriptors with [`DescriptorPool::same_descriptor`],
//! [`DescriptorPool::cmp_terms`] or the term lists — never raw handles. The
//! hash index interning needs is built on the first intern call, over
//! whatever the arena holds by then; a run that only scans, joins and
//! deduplicates never builds one.
//!
//! A pool has exactly one owner. Parallel stages read it through `&self`
//! (term lists, [`DescriptorPool::cmp_terms`],
//! [`DescriptorPool::same_descriptor`]); every handle is minted by the
//! owning thread, so pool traffic is a function of the plan and the data,
//! never of the thread count.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::hash::Hasher as _;
use std::ops::Range;

use crate::descriptor::{ComponentId, WsDescriptor};

/// A handle to a [`WsDescriptor`] in a [`DescriptorPool`].
///
/// Handles are only meaningful relative to the pool that issued them. Within
/// one pool `a == b` implies equal descriptors; the converse holds only for
/// canonical handles (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DescId(u32);

impl DescId {
    /// The handle of the tautology (the all-worlds descriptor). Every pool
    /// holds the tautology at slot 0 from construction.
    pub const TAUTOLOGY: DescId = DescId(0);

    /// True for the tautology handle.
    pub fn is_tautology(self) -> bool {
        self.0 == 0
    }

    /// The dense pool slot of this handle.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The range of a flat arena that entry `i` of its running-end table `ends`
/// covers: it starts where entry `i - 1` ends.
#[inline]
pub(crate) fn span(ends: &[u32], i: usize) -> Range<usize> {
    let start = if i == 0 { 0 } else { ends[i - 1] as usize };
    start..ends[i] as usize
}

/// Fold a finished FxHash down for a table that masks the *low* bits for the
/// bucket index: FxHash's last step is a multiply, whose low bits depend only
/// on the low bytes of the input, so short common-prefix keys ("k123"…)
/// would otherwise collapse into a handful of probe chains.
#[inline]
pub(crate) fn fold_hash(h: u64) -> u64 {
    h ^ (h >> 32)
}

/// The hash index of an arena — the pools' dictionaries, the confidence
/// kernel's elimination frontier: an open-addressing table of entry numbers
/// (`u32::MAX` = empty, linear probing, at most 7/8 full). It holds neither
/// keys nor hashes — the arena's owner supplies both — and starts out empty:
/// [`Slots::reserve_one`] builds it when something is first looked up.
#[derive(Clone, Debug, Default)]
pub(crate) struct Slots(Vec<u32>);

impl Slots {
    /// Empty the table, keeping its allocation, at a size that
    /// [`Slots::reserve_one`] will not have to rebuild before the arena
    /// holds `entries` entries.
    pub(crate) fn reset(&mut self, entries: usize) {
        self.0.clear();
        self.0.resize(Slots::table_len(entries), u32::MAX);
    }

    /// The table length that keeps `len` entries and one more under 7/8.
    fn table_len(len: usize) -> usize {
        ((len + 1) * 2).next_power_of_two().max(16)
    }

    /// Whether the table exists: something has been looked up since the
    /// arena was made or the index last dropped.
    pub(crate) fn is_built(&self) -> bool {
        !self.0.is_empty()
    }

    /// Make room to place one entry beside the `len` the arena holds. When
    /// the table is too small for that — it always is before the first call —
    /// it is rebuilt over all `len` entries, in entry order, so of two equal
    /// entries the lookup finds the earlier.
    #[inline]
    pub(crate) fn reserve_one(&mut self, len: usize, hash_of: impl Fn(usize) -> u64) {
        if (len + 1) * 8 <= self.0.len() * 7 {
            return;
        }
        self.0.clear();
        self.0.resize(Slots::table_len(len), u32::MAX);
        for e in 0..u32::try_from(len).expect("entry numbers fit in u32") {
            let free = self.find(hash_of(e as usize), |_| false).unwrap_err();
            self.0[free] = e;
        }
    }

    /// Walk `h`'s probe sequence: `Ok` the first entry `is_match` accepts, or
    /// `Err` the free slot the walk ended at, for [`Slots::fill`].
    #[inline]
    pub(crate) fn find(&self, h: u64, is_match: impl Fn(usize) -> bool) -> Result<u32, usize> {
        let mask = self.0.len() - 1;
        let mut i = (h as usize) & mask;
        loop {
            match self.0[i] {
                u32::MAX => return Err(i),
                e if is_match(e as usize) => return Ok(e),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Put `entry` into the free slot a [`Slots::find`] since the last
    /// [`Slots::reserve_one`] ended at.
    #[inline]
    pub(crate) fn fill(&mut self, free: usize, entry: u32) {
        self.0[free] = entry;
    }
}

#[inline]
fn terms_hash(terms: &[(ComponentId, u16)]) -> u64 {
    let mut h = crate::fxhash::FxHasher::default();
    for &(c, a) in terms {
        h.write_u64(u64::from(c.0) << 16 | u64::from(a));
    }
    fold_hash(h.finish())
}

/// Occupancy and hit statistics of a [`DescriptorPool`], exposed for
/// observability (the REPL's `\stats` meta-command) and for validating that
/// executor changes keep the interning behavior intact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Calls to [`DescriptorPool::intern`] / [`DescriptorPool::intern_terms`]
    /// (tautology fast path included; [`DescriptorPool::fresh_single`] is no
    /// lookup and not counted).
    pub intern_calls: u64,
    /// Intern calls answered from the index (or the tautology fast path)
    /// without minting a new entry.
    pub intern_hits: u64,
    /// Dictionary entries appended by [`crate::URelation::scan`]
    /// — what the run's scans brought in without an intern call.
    pub imported: u64,
    /// Calls to [`DescriptorPool::conjoin`].
    pub conjoin_calls: u64,
    /// Conjoin calls resolved without minting an entry: tautology unit,
    /// equal handles, or one side subsuming the other.
    pub conjoin_shortcuts: u64,
    /// Conjoin calls whose inputs were inconsistent (empty world set).
    pub conjoin_inconsistent: u64,
}

/// A flat arena of world-set descriptors with a lazily built intern index.
/// See the module docs.
#[derive(Clone, Debug)]
pub struct DescriptorPool {
    /// Every entry's term list, concatenated in handle order.
    terms: Vec<(ComponentId, u16)>,
    /// `ends[i]` is where entry `i` ends in `terms`. Entry 0 is the
    /// tautology: it ends at 0, and it is the only empty entry.
    ends: Vec<u32>,
    /// The intern index; see [`Slots`].
    slots: Slots,
    /// Running usage counters; see [`PoolStats`].
    stats: PoolStats,
}

impl Default for DescriptorPool {
    fn default() -> Self {
        DescriptorPool::new()
    }
}

impl DescriptorPool {
    /// A fresh pool holding the tautology as [`DescId::TAUTOLOGY`].
    pub fn new() -> Self {
        DescriptorPool {
            terms: Vec::new(),
            ends: vec![0],
            slots: Slots::default(),
            stats: PoolStats::default(),
        }
    }

    /// Number of entries (≥ 1: the tautology).
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Always false: the tautology is always present.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// A snapshot of the pool's usage counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Forget the hash index (the next intern call would rebuild it) — what
    /// [`crate::WorldSet::insert`] does to a stored relation's dictionaries.
    pub(crate) fn drop_index(&mut self) {
        self.slots = Slots::default();
    }

    /// Intern a descriptor, returning its canonical handle.
    pub fn intern(&mut self, d: &WsDescriptor) -> DescId {
        self.intern_terms(d.terms())
    }

    /// Intern a sorted, conflict-free term list (the caller guarantees the
    /// [`WsDescriptor`] invariants: strictly increasing component ids).
    pub fn intern_terms(&mut self, terms: &[(ComponentId, u16)]) -> DescId {
        debug_assert!(
            terms.windows(2).all(|w| w[0].0 < w[1].0),
            "intern_terms requires strictly sorted component ids"
        );
        let tail = self.terms.len();
        self.terms.extend_from_slice(terms);
        self.intern_tail(tail)
    }

    /// Intern the term list lying unsealed at the arena's tail, from `tail`
    /// on: the handle of an equal indexed entry (the tail is dropped), or the
    /// tail sealed as a new, indexed entry.
    fn intern_tail(&mut self, tail: usize) -> DescId {
        self.stats.intern_calls += 1;
        if tail == self.terms.len() {
            self.stats.intern_hits += 1;
            return DescId::TAUTOLOGY;
        }
        let (sealed, new) = self.terms.split_at(tail);
        let ends = &self.ends;
        self.slots
            .reserve_one(ends.len(), |e| terms_hash(&sealed[span(ends, e)]));
        match self
            .slots
            .find(terms_hash(new), |e| &sealed[span(ends, e)] == new)
        {
            Ok(e) => {
                self.stats.intern_hits += 1;
                self.terms.truncate(tail);
                DescId(e)
            }
            Err(free) => {
                let id = self.seal();
                self.slots.fill(free, id.0);
                id
            }
        }
    }

    /// Close the entry whose terms were just appended to the arena.
    fn seal(&mut self) -> DescId {
        let id = u32::try_from(self.ends.len()).expect("descriptor arena fits in u32");
        self.ends
            .push(u32::try_from(self.terms.len()).expect("descriptor arena fits in u32"));
        DescId(id)
    }

    /// Intern the single assignment `component = alternative`.
    pub fn single(&mut self, component: ComponentId, alternative: u16) -> DescId {
        self.intern_terms(&[(component, alternative)])
    }

    /// The canonical handle of `component = alternative` for a component no
    /// entry mentions but the other alternatives this method sealed — one
    /// minted after everything the pool holds, so no entry can equal the
    /// descriptor: it is sealed without a lookup, and no intern call is
    /// counted. It is placed in the intern index if one was built, and any
    /// index built later covers it, so [`DescriptorPool::single`] on the
    /// same term returns this handle.
    pub fn fresh_single(&mut self, component: ComponentId, alternative: u16) -> DescId {
        let term = [(component, alternative)];
        let free = self.slots.is_built().then(|| {
            let (sealed, ends) = (&self.terms, &self.ends);
            self.slots
                .reserve_one(ends.len(), |e| terms_hash(&sealed[span(ends, e)]));
            self.slots.find(terms_hash(&term), |_| false).unwrap_err()
        });
        self.terms.extend_from_slice(&term);
        let id = self.seal();
        if let Some(free) = free {
            self.slots.fill(free, id.0);
        }
        id
    }

    /// Append every entry of `other` — a stored relation's dictionary — after
    /// this pool's own, without looking any of them up: two copies, no
    /// hashing. Returns `descs`, a column of `other`'s handles, as this pool's
    /// handles: each but the tautology moved up by the entries that were here
    /// before, or the column itself when that is none (a fresh pool) or
    /// `other` holds nothing but the tautology.
    pub(crate) fn import<'a>(
        &mut self,
        other: &DescriptorPool,
        descs: &'a [DescId],
    ) -> Cow<'a, [DescId]> {
        let base = u32::try_from(self.len() - 1).expect("descriptor arena fits in u32");
        let shift = u32::try_from(self.terms.len()).expect("descriptor arena fits in u32");
        self.terms.extend_from_slice(&other.terms);
        // Checked once for the whole batch: it is the last shifted end.
        let end = u32::try_from(self.terms.len()).expect("descriptor arena fits in u32");
        self.ends.extend(other.ends[1..].iter().map(|e| e + shift));
        debug_assert_eq!(self.ends.last(), Some(&end));
        self.stats.imported += other.len() as u64 - 1;
        if base == 0 || other.len() == 1 {
            return Cow::Borrowed(descs);
        }
        let rebased = |d: &DescId| DescId(d.0 + if d.0 == 0 { 0 } else { base });
        Cow::Owned(descs.iter().map(rebased).collect())
    }

    /// The inverse of [`DescriptorPool::import`]: a fresh dictionary of just
    /// the descriptors the column `descs` of this pool's handles uses, and
    /// the column as that dictionary's handles. Each distinct handle is
    /// interned once, in order of first occurrence, so handles that denote
    /// one descriptor here collapse — the dictionary and the column are what
    /// interning the rows' descriptors one by one into a fresh pool gives.
    /// The intern calls are the new dictionary's, not this pool's, and its
    /// index is dropped again: nothing looks a value up in a stored relation.
    pub(crate) fn localize(&self, descs: &[DescId]) -> (DescriptorPool, Vec<DescId>) {
        let mut local = DescriptorPool::new();
        // Sized once for the most entries there can be, so no intern call
        // rebuilds the index.
        local.slots.reset(descs.len().min(self.len()));
        let mut seen = vec![u32::MAX; self.len()];
        seen[0] = 0;
        let column = descs
            .iter()
            .map(|d| {
                let slot = &mut seen[d.index()];
                if *slot == u32::MAX {
                    *slot = local.intern_terms(self.terms(*d)).0;
                }
                DescId(*slot)
            })
            .collect();
        local.drop_index();
        (local, column)
    }

    /// Every entry's term list, one after the other in handle order.
    pub(crate) fn all_terms(&self) -> &[(ComponentId, u16)] {
        &self.terms
    }

    /// Send every component id through `remap` (old id → new id), in place.
    /// The map must be increasing on the ids the pool mentions, so each term
    /// list stays sorted and distinct entries stay distinct; the hash index,
    /// which keys on the old ids, is dropped.
    pub(crate) fn renumber_components(&mut self, remap: &[u32]) {
        for (c, _) in &mut self.terms {
            *c = ComponentId(remap[c.0 as usize]);
        }
        self.drop_index();
    }

    /// The term list of a descriptor, sorted by component id.
    pub fn terms(&self, id: DescId) -> &[(ComponentId, u16)] {
        &self.terms[span(&self.ends, id.index())]
    }

    /// Reconstruct the owned [`WsDescriptor`] for a handle.
    pub fn to_descriptor(&self, id: DescId) -> WsDescriptor {
        WsDescriptor::from_sorted_terms_unchecked(self.terms(id).to_vec())
    }

    /// Whether two handles denote the same descriptor: equal handles do, and
    /// so may distinct ones (conjunction results, imported dictionaries),
    /// which this resolves with a term-list comparison.
    pub fn same_descriptor(&self, a: DescId, b: DescId) -> bool {
        a == b || self.terms(a) == self.terms(b)
    }

    /// Canonical descriptor order on handles (by term list, the same order
    /// `WsDescriptor: Ord` uses) — so interned rows can be sorted into
    /// exactly the canonical order of their un-interned counterparts.
    pub fn cmp_terms(&self, a: DescId, b: DescId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        self.terms(a).cmp(self.terms(b))
    }

    /// Conjoin two descriptors. Returns `None` when they assign different
    /// alternatives to the same component (the empty world set).
    ///
    /// The two sorted term lists are merged straight into the arena's tail.
    /// An inconsistent merge is truncated away; so is one no longer than an
    /// input — that input subsumes the other and its handle is returned.
    /// Anything else is sealed as a new entry *without* consulting the intern
    /// index: in join-heavy workloads conjunction results are almost always
    /// brand-new, so hash-consing each one costs a lookup-plus-insert per
    /// output row for nearly no sharing. The price is that an equal
    /// descriptor may exist under another handle — see the module docs.
    pub fn conjoin(&mut self, a: DescId, b: DescId) -> Option<DescId> {
        self.stats.conjoin_calls += 1;
        if a == b || b.is_tautology() {
            self.stats.conjoin_shortcuts += 1;
            return Some(a);
        }
        if a.is_tautology() {
            self.stats.conjoin_shortcuts += 1;
            return Some(b);
        }
        let (ra, rb) = (span(&self.ends, a.index()), span(&self.ends, b.index()));
        let tail = self.terms.len();
        self.terms.reserve(ra.len() + rb.len());
        let (mut i, mut j) = (ra.start, rb.start);
        while i < ra.end && j < rb.end {
            let (x, y) = (self.terms[i], self.terms[j]);
            if x.0 == y.0 && x.1 != y.1 {
                self.terms.truncate(tail);
                self.stats.conjoin_inconsistent += 1;
                return None;
            }
            self.terms.push(if x.0 <= y.0 { x } else { y });
            i += usize::from(x.0 <= y.0);
            j += usize::from(y.0 <= x.0);
        }
        self.terms.extend_from_within(i..ra.end);
        self.terms.extend_from_within(j..rb.end);
        // merged ⊇ a and equal length ⟹ merged == a (b ⊆ a); likewise for b.
        let merged = self.terms.len() - tail;
        if merged == ra.len() || merged == rb.len() {
            self.terms.truncate(tail);
            self.stats.conjoin_shortcuts += 1;
            return Some(if merged == ra.len() { a } else { b });
        }
        Some(self.seal())
    }

    /// True when every assignment of `a` also occurs in `b` — i.e. `b`
    /// denotes a subset of `a`'s worlds (`a` absorbs `b` in a disjunction).
    pub fn is_subset(&self, a: DescId, b: DescId) -> bool {
        let (ta, tb) = (self.terms(a), self.terms(b));
        ta.iter().all(|t| tb.binary_search(t).is_ok())
    }

    /// The canonical handle of `id` with any assignment to `c` removed.
    /// Goes through the intern index, so the result compares by handle.
    pub fn without(&mut self, id: DescId, c: ComponentId) -> DescId {
        let tail = self.terms.len();
        for k in span(&self.ends, id.index()) {
            let t = self.terms[k];
            if t.0 != c {
                self.terms.push(t);
            }
        }
        self.intern_tail(tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_canonicalizes() {
        let mut pool = DescriptorPool::new();
        let d = WsDescriptor::single(ComponentId(3), 1);
        let a = pool.intern(&d);
        let b = pool.intern(&d.clone());
        assert_eq!(a, b);
        assert_ne!(a, DescId::TAUTOLOGY);
        assert_eq!(pool.to_descriptor(a), d);
        assert_eq!(pool.intern(&WsDescriptor::tautology()), DescId::TAUTOLOGY);
    }

    #[test]
    fn conjoin_matches_descriptor_conjoin() {
        let mut pool = DescriptorPool::new();
        let d1 = WsDescriptor::single(ComponentId(0), 1);
        let d2 = WsDescriptor::single(ComponentId(1), 0);
        let (a, b) = (pool.intern(&d1), pool.intern(&d2));
        let ab = pool.conjoin(a, b).expect("distinct components");
        assert_eq!(pool.to_descriptor(ab), d1.conjoin(&d2).expect("consistent"));
        // Conflicting assignment to the same component denotes no worlds.
        let conflict = pool.intern(&WsDescriptor::single(ComponentId(0), 2));
        assert_eq!(pool.conjoin(a, conflict), None);
        // Tautology is the unit.
        assert_eq!(pool.conjoin(a, DescId::TAUTOLOGY), Some(a));
        assert_eq!(pool.conjoin(DescId::TAUTOLOGY, b), Some(b));
    }

    #[test]
    fn long_descriptors_round_trip() {
        let mut pool = DescriptorPool::new();
        let terms: Vec<_> = (0..5).map(|i| (ComponentId(i), (i % 2) as u16)).collect();
        let d = WsDescriptor::from_terms(terms.clone()).expect("distinct components");
        let id = pool.intern(&d);
        assert_eq!(pool.terms(id), terms.as_slice());
        assert_eq!(pool.intern(&d), id);
        assert_eq!(pool.to_descriptor(id), d);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn the_index_is_built_late_and_covers_what_came_before_it() {
        let mut dict = DescriptorPool::new();
        let ids: Vec<DescId> = (0..40).map(|i| dict.single(ComponentId(i), 1)).collect();
        // Into a fresh pool the handles read the same, and the first intern
        // call finds every imported entry.
        let mut fresh = DescriptorPool::new();
        assert!(matches!(
            fresh.import(&dict, &ids),
            std::borrow::Cow::Borrowed(_)
        ));
        assert_eq!(fresh.stats().imported, 40);
        assert_eq!(fresh.stats().intern_calls, 0);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(fresh.single(ComponentId(i as u32), 1), id);
        }
        assert_eq!(fresh.len(), 41);
        // Into a busy pool they move up by what was there; the tautology
        // does not. An import after the index exists appends all the same.
        let mut busy = DescriptorPool::new();
        let own = busy.single(ComponentId(3), 1);
        let column = [ids[3], DescId::TAUTOLOGY, ids[0]];
        let moved = busy.import(&dict, &column);
        assert_eq!(busy.len(), 42);
        assert_eq!(moved[1], DescId::TAUTOLOGY);
        assert_eq!(busy.terms(moved[2]), dict.terms(ids[0]));
        assert_ne!(moved[0], own);
        assert!(busy.same_descriptor(moved[0], own));
        // Interning finds the earlier of two equal entries.
        assert_eq!(busy.single(ComponentId(3), 1), own);
    }

    #[test]
    fn a_fresh_component_s_handles_are_canonical_without_a_lookup() {
        // Without an index yet, and with one built (and rebuilt by growth)
        // before the fresh entries arrive.
        for index_first in [false, true] {
            let mut pool = DescriptorPool::new();
            let old: Vec<DescId> = (0..10).map(|i| pool.single(ComponentId(i), 1)).collect();
            if !index_first {
                pool.drop_index();
            }
            let calls = pool.stats();
            let fresh: Vec<DescId> = (0..20)
                .map(|alt| pool.fresh_single(ComponentId(10), alt))
                .collect();
            assert_eq!(pool.stats(), calls, "no intern call is counted");
            for (alt, &id) in fresh.iter().enumerate() {
                assert_eq!(pool.terms(id), [(ComponentId(10), alt as u16)]);
                assert_eq!(pool.single(ComponentId(10), alt as u16), id);
            }
            for (i, &id) in old.iter().enumerate() {
                assert_eq!(pool.single(ComponentId(i as u32), 1), id);
            }
            assert_eq!(pool.len(), 31, "every lookup hit");
        }
    }

    #[test]
    fn a_dropped_conjunction_leaves_no_trace_in_the_arena() {
        let mut pool = DescriptorPool::new();
        let a = pool.single(ComponentId(0), 1);
        let b = pool.single(ComponentId(1), 0);
        let ab = pool.conjoin(a, b).expect("consistent");
        let conflict = pool.single(ComponentId(1), 2);
        let (len, arena) = (pool.len(), pool.terms.len());
        assert_eq!(pool.conjoin(ab, conflict), None);
        assert_eq!(pool.conjoin(ab, a), Some(ab));
        assert_eq!(pool.conjoin(b, ab), Some(ab));
        assert_eq!((pool.len(), pool.terms.len()), (len, arena));
        assert_eq!(pool.stats().conjoin_inconsistent, 1);
        assert_eq!(pool.stats().conjoin_shortcuts, 2);
    }

    #[test]
    fn cmp_terms_matches_descriptor_order() {
        let mut pool = DescriptorPool::new();
        let d1 = WsDescriptor::single(ComponentId(0), 1);
        let d2 = WsDescriptor::from_terms(vec![(ComponentId(0), 1), (ComponentId(2), 0)])
            .expect("distinct components");
        let (a, b) = (pool.intern(&d1), pool.intern(&d2));
        assert_eq!(pool.cmp_terms(a, b), d1.cmp(&d2));
        assert_eq!(pool.cmp_terms(b, a), d2.cmp(&d1));
        assert_eq!(pool.cmp_terms(a, a), Ordering::Equal);
    }
}
