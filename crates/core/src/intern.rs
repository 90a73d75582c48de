//! Descriptor interning: map each distinct [`WsDescriptor`] to a dense
//! `u32` handle so the hot executor paths (conjoin, dedup, hash join)
//! key on integers instead of re-allocating sorted term vectors.
//!
//! A [`DescriptorPool`] canonicalizes descriptors: equal descriptors always
//! receive the same [`DescId`], so handle equality *is* descriptor equality.
//! The dominant 0-, 1-, and 2-term descriptors (tautologies, base-table
//! annotations, and binary-join conjunctions) are stored inline without any
//! heap allocation; longer descriptors spill to a boxed slice. Conjunction
//! of two interned descriptors merges their sorted term lists through a
//! reusable scratch buffer, so a consistent conjoin of small descriptors
//! performs no allocation at all unless it mints a brand-new pool entry
//! with more than [`INLINE_TERMS`] terms.
//!
//! A pool has exactly one owner. Parallel stages read it through `&self`
//! (term lists, [`DescriptorPool::cmp_terms`],
//! [`DescriptorPool::same_descriptor`]); every handle is minted by the
//! owning thread, so pool traffic is a function of the plan and the data,
//! never of the thread count.

use std::cmp::Ordering;

use crate::descriptor::{merge_sorted_terms, ComponentId, WsDescriptor};
use crate::fxhash::FxHashMap;

/// Maximum number of terms stored inline in a pool entry.
pub const INLINE_TERMS: usize = 2;

/// A handle to an interned [`WsDescriptor`] in a [`DescriptorPool`].
///
/// Handles are only meaningful relative to the pool that issued them.
/// Within one pool, `a == b` iff the underlying descriptors are equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DescId(u32);

impl DescId {
    /// The handle of the tautology (the all-worlds descriptor). Every pool
    /// interns the tautology at slot 0 on construction.
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

/// Compact storage for one interned descriptor. Construction is canonical:
/// term lists of length ≤ [`INLINE_TERMS`] are always `Inline` (padded with
/// a fixed sentinel), longer ones always `Spilled` — so the derived
/// `Eq`/`Hash` agree with logical term-list equality.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Stored {
    /// Up to [`INLINE_TERMS`] terms, no heap allocation.
    Inline {
        len: u8,
        terms: [(ComponentId, u16); INLINE_TERMS],
    },
    /// More than [`INLINE_TERMS`] terms.
    Spilled(Box<[(ComponentId, u16)]>),
}

const PAD: (ComponentId, u16) = (ComponentId(0), 0);

impl Stored {
    fn from_terms(terms: &[(ComponentId, u16)]) -> Stored {
        if terms.len() <= INLINE_TERMS {
            let mut inline = [PAD; INLINE_TERMS];
            inline[..terms.len()].copy_from_slice(terms);
            Stored::Inline {
                len: terms.len() as u8,
                terms: inline,
            }
        } else {
            Stored::Spilled(terms.to_vec().into_boxed_slice())
        }
    }

    fn terms(&self) -> &[(ComponentId, u16)] {
        match self {
            Stored::Inline { len, terms } => &terms[..*len as usize],
            Stored::Spilled(b) => b,
        }
    }
}

/// Occupancy and hit statistics of a [`DescriptorPool`], exposed for
/// observability (the REPL's `\stats` meta-command) and for validating that
/// executor changes keep the interning behavior intact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Calls to [`DescriptorPool::intern`] / [`DescriptorPool::intern_terms`]
    /// (tautology fast path included).
    pub intern_calls: u64,
    /// Intern calls answered from the index (or the tautology fast path)
    /// without minting a new entry.
    pub intern_hits: u64,
    /// Calls to [`DescriptorPool::conjoin`].
    pub conjoin_calls: u64,
    /// Conjoin calls resolved without minting an entry: tautology unit,
    /// equal handles, or one side subsuming the other.
    pub conjoin_shortcuts: u64,
    /// Conjoin calls whose inputs were inconsistent (empty world set).
    pub conjoin_inconsistent: u64,
}

/// An interner for world-set descriptors. See the module docs.
#[derive(Clone, Debug)]
pub struct DescriptorPool {
    entries: Vec<Stored>,
    index: FxHashMap<Stored, DescId>,
    /// Scratch buffer for conjunction, reused across calls.
    scratch: Vec<(ComponentId, u16)>,
    /// Running usage counters; see [`PoolStats`].
    stats: PoolStats,
    /// Number of entries stored as [`Stored::Spilled`].
    spilled: usize,
}

impl Default for DescriptorPool {
    fn default() -> Self {
        DescriptorPool::new()
    }
}

impl DescriptorPool {
    /// A fresh pool with the tautology pre-interned as [`DescId::TAUTOLOGY`].
    pub fn new() -> Self {
        let taut = Stored::from_terms(&[]);
        let mut index = FxHashMap::default();
        index.insert(taut.clone(), DescId::TAUTOLOGY);
        DescriptorPool {
            entries: vec![taut],
            index,
            scratch: Vec::new(),
            stats: PoolStats::default(),
            spilled: 0,
        }
    }

    /// Number of distinct interned descriptors (≥ 1: the tautology).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always false: the tautology is pre-interned.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// A snapshot of the pool's usage counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Number of entries that spilled to the heap (more than
    /// [`INLINE_TERMS`] terms). Maintained as a counter, so stats snapshots
    /// never sweep the pool.
    pub fn spilled(&self) -> usize {
        self.spilled
    }

    /// Intern a descriptor, returning its stable handle.
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
        self.stats.intern_calls += 1;
        if terms.is_empty() {
            self.stats.intern_hits += 1;
            return DescId::TAUTOLOGY;
        }
        let stored = Stored::from_terms(terms);
        if let Some(&id) = self.index.get(&stored) {
            self.stats.intern_hits += 1;
            return id;
        }
        let id = DescId(self.entries.len() as u32);
        self.spilled += matches!(stored, Stored::Spilled(_)) as usize;
        self.entries.push(stored.clone());
        self.index.insert(stored, id);
        id
    }

    /// Intern the single assignment `component = alternative`.
    pub fn single(&mut self, component: ComponentId, alternative: u16) -> DescId {
        self.intern_terms(&[(component, alternative)])
    }

    /// The term list of an interned descriptor, sorted by component id.
    pub fn terms(&self, id: DescId) -> &[(ComponentId, u16)] {
        self.entries[id.index()].terms()
    }

    /// The term list of every entry, in handle order (the tautology's empty
    /// list first) — the pool's whole content without its index, which is
    /// what a [`crate::image::ColumnarImage`] keeps of the pool it was built
    /// into.
    pub(crate) fn term_lists(&self) -> impl Iterator<Item = &[(ComponentId, u16)]> {
        self.entries.iter().map(Stored::terms)
    }

    /// Reconstruct the owned [`WsDescriptor`] for a handle.
    pub fn to_descriptor(&self, id: DescId) -> WsDescriptor {
        WsDescriptor::from_sorted_terms_unchecked(self.terms(id).to_vec())
    }

    /// Whether two handles denote the same descriptor. Handles minted by
    /// [`DescriptorPool::intern`] are canonical (equal descriptors share one
    /// handle), so `a == b` suffices for them; handles minted by
    /// [`DescriptorPool::conjoin`] may be fresh duplicates, which this
    /// resolves with a term-list comparison.
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

    /// Conjoin two interned descriptors. Returns `None` when they assign
    /// different alternatives to the same component (the empty world set).
    ///
    /// Merges through the pool's scratch buffer: no allocation unless the
    /// result is a descriptor with more than [`INLINE_TERMS`] terms. When one
    /// input subsumes the other, that input's handle is returned directly.
    /// Otherwise the result is *appended* to the pool without consulting the
    /// intern index: in join-heavy workloads conjunction results are almost
    /// always brand-new, so hash-consing each one costs a lookup-plus-insert
    /// per output row for nearly no sharing. The price is that an equal
    /// descriptor may exist under another handle — consumers that
    /// deduplicate must compare with [`DescriptorPool::same_descriptor`]
    /// (or hash/compare term lists), not raw handles.
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
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let merged = merge_sorted_terms(self.terms(a), self.terms(b), &mut scratch);
        let result = if !merged {
            self.stats.conjoin_inconsistent += 1;
            None
        } else if scratch.len() == self.terms(a).len() {
            // merged ⊇ a and equal length ⟹ merged == a (b ⊆ a).
            self.stats.conjoin_shortcuts += 1;
            Some(a)
        } else if scratch.len() == self.terms(b).len() {
            self.stats.conjoin_shortcuts += 1;
            Some(b)
        } else {
            let id = DescId(self.entries.len() as u32);
            let stored = Stored::from_terms(&scratch);
            self.spilled += matches!(stored, Stored::Spilled(_)) as usize;
            self.entries.push(stored);
            Some(id)
        };
        self.scratch = scratch;
        result
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
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend(self.terms(id).iter().copied().filter(|&(cc, _)| cc != c));
        let out = self.intern_terms(&scratch);
        self.scratch = scratch;
        out
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
    fn spills_beyond_inline_capacity() {
        let mut pool = DescriptorPool::new();
        let terms: Vec<_> = (0..5).map(|i| (ComponentId(i), (i % 2) as u16)).collect();
        let d = WsDescriptor::from_terms(terms.clone()).expect("distinct components");
        let id = pool.intern(&d);
        assert_eq!(pool.terms(id), terms.as_slice());
        assert_eq!(pool.intern(&d), id);
        assert_eq!(pool.to_descriptor(id), d);
        assert_eq!(pool.spilled(), 1);
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
