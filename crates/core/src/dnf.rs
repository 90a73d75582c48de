//! The compiled descriptor-group kernel: everything that answers a tuple's
//! condition for exact `conf`, `conf(eps, delta)` and `certain`.
//!
//! A tuple's condition is a disjunction of world-set descriptors, i.e. a DNF
//! over independent finite-domain variables (the components). [`DnfKernel`]
//! answers it whole: [`DnfKernel::prob_all`] how probable it is — exactly,
//! or within ε with probability ≥ 1 − δ under an [`ApproxConf`] — and
//! [`DnfKernel::covers_all`] whether it holds in every world. Both lay the
//! disjunction out in reusable flat buffers and ask three questions about
//! each *connected group* of it (descriptors linked by shared components;
//! groups are mutually independent, so `P = 1 − Π(1 − P(g))`):
//!
//! * [`DnfKernel::prob`] — the exact probability that some descriptor of the
//!   group holds, by forward variable elimination;
//! * [`DnfKernel::covers`] — whether the group holds in every world, by the
//!   same walk without probabilities;
//! * [`DnfKernel::sampler`] — Monte Carlo / Karp–Luby draws, sixty-four to
//!   a machine word, over the same by-slot term lists, for groups
//!   [`DnfKernel::exact_cost`] prices above the cutover
//!   ([`ApproxConf::exact_limit`]), with the draw count derived from the
//!   group's error budget by a Hoeffding bound and refused past
//!   [`SAMPLE_DRAW_CEILING`].
//!
//! **Layout.** The tuple's distinct components, ascending by id, are its
//! *slots*; a union-find over slots yields the groups (in first-occurrence
//! order of their earliest descriptor, each listing its descriptors in input
//! order). Two shapes of group have a closed form, answered in one place
//! for `prob`, `covers` and `exact_cost` alike: *one descriptor* (its
//! probability is the product of its terms') and *one slot* (a repaired
//! key: the sum of its distinct alternatives). A tuple that is one group of
//! either shape, its single-term descriptors in ascending alternative
//! order, is *trivial*: [`DnfKernel::load`] recognises it from the terms it
//! has just copied and does not lay it out until something other than
//! those three or `group_len` asks about it. Compiling a group of `k`
//! descriptors numbers them `0..k` and builds bitsets of `⌈k/64⌉` words:
//! per slot and per *branch* — one branch per alternative some descriptor
//! mentions, plus one "rest" branch standing for all unmentioned
//! alternatives at once — the descriptors that choice does not falsify
//! (*compat*), and per slot the descriptors that mention it (*touch*) and
//! those whose last slot it is (*close*).
//!
//! **Elimination.** A state is the set of descriptors not yet falsified,
//! carrying the probability mass of the partial assignments that lead to it.
//! Slot by slot, every state that touches the slot is split over the slot's
//! branches: the child is `state ∧ compat`; if a surviving descriptor closes
//! here it is satisfied and the mass is a hit, if none survives the mass is
//! dropped, otherwise the child joins the next frontier, where equal states
//! merge. Only non-negative products are ever added, so there is no
//! cancellation, and the number of states before slot `s` is at most
//! `2^{o_s}` with `o_s` the descriptors *open* there (a term before `s` and
//! one at or after it) — the frontier width of the id order, not the group
//! size, is what the cost is exponential in. A chain never holds more than
//! a handful of states whatever its length.
//!
//! **Determinism.** Frontier order, merge order and hit order are functions
//! of the group's content alone (states are kept in first-generation order),
//! so results are bit-identical for every thread count and every plan that
//! feeds the same descriptors in canonical order. Sampling reads a
//! content-keyed [`CounterRng`] stream front to back, in an order the group's
//! content fixes.

use std::ops::Range;

use crate::component::{Component, ComponentSet, ConfStats};
use crate::descriptor::ComponentId;
use crate::error::MayError;
use crate::intern::Slots;
use crate::rng::{mix64, CounterRng};

/// Ceiling on elimination transitions per group that the `conf` and
/// `certain` operators pass to [`DnfKernel::prob_all`] /
/// [`DnfKernel::covers_all`]: beyond it they return
/// [`MayError::TooManySteps`] instead of running (and allocating frontier
/// states) without bound. 2²⁴ transitions are a few hundred milliseconds
/// and at most ≈ 400 MB of frontier.
pub const EXACT_STEP_CEILING: u64 = 1 << 24;

/// Ceiling on the draws one sampled group may ask for, the sampling side's
/// counterpart of [`EXACT_STEP_CEILING`]: [`DnfKernel::prob_all`] knows
/// the count before the first draw (Hoeffding's, from ε, δ and the
/// group's weight) and returns [`MayError::TooManyDraws`] past this instead
/// of starting a loop that `ε = 10⁻⁹` would keep busy for years. 2²⁶ draws
/// of a 26-slot, 30-descriptor weld take 0.17 s by Monte Carlo and ≈ 1 s by
/// Karp–Luby, and allow ε down to ≈ 1.7·10⁻⁴ at δ = 0.05.
pub const SAMPLE_DRAW_CEILING: u64 = 1 << 26;

/// Default exact/sampling cutover threshold ([`ApproxConf::exact_limit`]).
/// Sampling a group costs on the order of a few hundred draws for typical
/// (ε, δ) (e.g. ε = 0.05, δ = 0.05 needs 738), each draw touching every
/// group component — so groups whose exact bound is under a few thousand
/// operations are cheaper to solve exactly, and exact means zero error.
pub const DEFAULT_CONF_EXACT_LIMIT: u64 = 4096;

/// Default sampling seed for `conf(eps, delta)` nodes built from SQL (which
/// has no seed syntax). Tests vary the seed through
/// `maybms_algebra::conf_approx_with`.
pub const DEFAULT_CONF_SEED: u64 = 0x5EED_C0FF_EE00_0007;

/// Parameters of an (ε, δ)-approximate confidence computation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApproxConf {
    /// Absolute error bound: `|estimate − exact| ≤ eps` with probability
    /// ≥ `1 − delta`, per output tuple. Must lie in `(0, 1)`.
    pub eps: f64,
    /// Failure probability of the guarantee. Must lie in `(0, 1)`.
    pub delta: f64,
    /// Sampling seed. Equal seeds give bit-identical results.
    pub seed: u64,
    /// Exact/sampling cutover: connected groups whose exact cost bound is
    /// ≤ this threshold are solved exactly (zero error); larger groups are
    /// sampled. `0` forces sampling for every group. Plain exact `CONF`
    /// has no such field and never samples.
    pub exact_limit: u64,
}

impl ApproxConf {
    /// Approximation parameters with the default seed and cutover
    /// ([`DEFAULT_CONF_EXACT_LIMIT`]).
    pub fn new(eps: f64, delta: f64) -> ApproxConf {
        ApproxConf {
            eps,
            delta,
            seed: DEFAULT_CONF_SEED,
            exact_limit: DEFAULT_CONF_EXACT_LIMIT,
        }
    }

    /// ε and δ must pass [`check_unit_interval`]. The MayQL planner checks
    /// the literals it lowers with it; this is the check for nodes built
    /// through `maybms_algebra::conf_approx_with`, where a NaN ε would
    /// otherwise draw once and return a number with no guarantee behind it.
    pub fn validate(&self) -> Result<(), MayError> {
        check_unit_interval("eps", self.eps)
            .and_then(|()| check_unit_interval("delta", self.delta))
            .map_err(MayError::InvalidApprox)
    }
}

/// The check on a sampling parameter `what` (`eps` or `delta`): `v` must be
/// a probability strictly inside `(0, 1)` — 0 would demand an exact answer
/// from a sampler, 1 makes the guarantee vacuous. The error is the message;
/// a value whose plain form runs long (`1e308` has 309 digits) is echoed in
/// exponent form.
pub fn check_unit_interval(what: &str, v: f64) -> Result<(), String> {
    if v > 0.0 && v < 1.0 {
        return Ok(());
    }
    let got = v.to_string();
    let got = if got.len() > 20 {
        format!("{v:e}")
    } else {
        got
    };
    Err(format!("{what} must be in (0, 1), got {got}"))
}

type Term = (ComponentId, u16);

/// A group of a shape answered in closed form, without an elimination.
enum Closed<'c> {
    /// One descriptor, owning `terms[range]`.
    Lone(Range<usize>),
    /// Descriptors on one slot: its component, the number of distinct
    /// alternatives they name and the mass of those, summed in ascending
    /// order and clamped at 1 (masses of disjoint assignment sets sum to at
    /// most 1 up to rounding).
    OneSlot {
        comp: &'c Component,
        named: u64,
        mass: f64,
    },
}

/// What [`DnfKernel::load`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loaded {
    /// No descriptors: the empty disjunction, false in every world.
    Empty,
    /// Some descriptor is the tautology: true in every world.
    Tautology,
    /// This many connected groups, addressed `0..n` until the next load.
    Groups(usize),
}

/// Reusable buffers holding one tuple's disjunction and, at any time, the
/// compiled form of one of its groups. Keep one per worker: after warm-up,
/// loading and solving allocate nothing. See the module docs.
#[derive(Debug, Default)]
pub struct DnfKernel {
    // The loaded tuple.
    /// The descriptors' terms, concatenated.
    terms: Vec<Term>,
    /// Descriptor `d` owns terms `desc_off[d]..desc_off[d + 1]`.
    desc_off: Vec<u32>,
    /// Whether the tuple is trivial and not laid out.
    trivial: bool,

    // Its layout.
    /// Per term: its slot.
    term_slot: Vec<u32>,
    /// Slot → component id (distinct, ascending).
    slots: Vec<u32>,
    /// Union-find parent per slot.
    parent: Vec<u32>,
    /// Group per slot (per root while labelling).
    slot_group: Vec<u32>,
    /// A slot's position among its group's slots.
    slot_local: Vec<u32>,
    /// A descriptor's position (its bit) among its group's descriptors.
    desc_local: Vec<u32>,
    /// Group `g` owns `group_descs[group_desc_off[g]..group_desc_off[g + 1]]`.
    group_desc_off: Vec<u32>,
    group_descs: Vec<u32>,
    /// Group `g` owns `group_slots[group_slot_off[g]..group_slot_off[g + 1]]`.
    group_slot_off: Vec<u32>,
    group_slots: Vec<u32>,

    // Terms by slot, built on demand (pricing and compiling need them).
    by_slot_ready: bool,
    /// Slot `s` owns `slot_terms[slot_term_off[s]..slot_term_off[s + 1]]`,
    /// sorted by `(alternative, descriptor bit)`.
    slot_term_off: Vec<u32>,
    slot_terms: Vec<u32>,
    /// Per term: its descriptor's bit.
    term_desc: Vec<u32>,
    /// Pricing scratch: open-descriptor count deltas per group slot.
    open: Vec<i32>,

    // The compiled group.
    compiled: Option<usize>,
    /// All of the group's descriptors; its length is the words per bitset.
    full: Vec<u64>,
    touch: Vec<u64>,
    close: Vec<u64>,
    /// Group slot `j` owns branches `br_off[j]..br_off[j + 1]`: its
    /// mentioned alternatives ascending, then the rest branch if any.
    br_off: Vec<u32>,
    br_mask: Vec<u64>,
    br_prob: Vec<f64>,

    // Elimination frontiers and the index that merges equal states.
    cur: Frontier,
    next: Frontier,
    index: Slots,

    /// Per group of the tuple [`DnfKernel::prob_all`] solves: whether it is
    /// sampled.
    sampled: Vec<bool>,

    // Sampling scratch, one block of draws at a time.
    /// Running sum of the sampled group's `P(dᵢ)`; the last entry is `U`.
    weights: Vec<f64>,
    /// Per descriptor, the lanes whose assignment has not falsified it.
    sat: Vec<u64>,
    /// Per descriptor, the lanes in which Karp–Luby picked it.
    picked: Vec<u64>,

    steps: u64,
}

/// States (bitsets of `words` words each, flat) with their masses.
#[derive(Debug, Default)]
struct Frontier {
    words: Vec<u64>,
    mass: Vec<f64>,
}

impl Frontier {
    fn clear(&mut self) {
        self.words.clear();
        self.mass.clear();
    }
}

/// Stable counting sort of `0..items` by `key`: bucket `b` owns
/// `order[off[b]..off[b + 1]]`, ascending.
fn bucket_by(
    items: usize,
    buckets: usize,
    key: impl Fn(usize) -> usize,
    off: &mut Vec<u32>,
    order: &mut Vec<u32>,
) {
    off.clear();
    off.resize(buckets + 1, 0);
    for i in 0..items {
        off[key(i) + 1] += 1;
    }
    for b in 0..buckets {
        off[b + 1] += off[b];
    }
    order.clear();
    order.resize(items, 0);
    // `off[b]` doubles as bucket b's write cursor, then is shifted back.
    for i in 0..items {
        let b = key(i);
        order[off[b] as usize] = i as u32;
        off[b] += 1;
    }
    for b in (1..=buckets).rev() {
        off[b] = off[b - 1];
    }
    off[0] = 0;
}

/// `rank[i]` = item `i`'s position inside its bucket of a [`bucket_by`]
/// result.
fn rank_in_buckets(off: &[u32], order: &[u32], rank: &mut Vec<u32>) {
    rank.clear();
    rank.resize(order.len(), 0);
    for bucket in off.windows(2) {
        for (r, &i) in order[bucket[0] as usize..bucket[1] as usize]
            .iter()
            .enumerate()
        {
            rank[i as usize] = r as u32;
        }
    }
}

fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize]; // path halving
        x = parent[x as usize];
    }
    x
}

#[inline]
fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

#[inline]
fn hash_words(words: &[u64]) -> u64 {
    words.iter().fold(0, |h, &w| mix64(h ^ w))
}

/// `P(d)` of one descriptor's `terms`: the product of their probabilities,
/// in term (component id) order.
fn lone_prob(components: &ComponentSet, terms: &[Term]) -> f64 {
    terms
        .iter()
        .map(|&(c, a)| components.get(c).prob(a))
        .product()
}

/// Whether one descriptor's `terms` hold in every world: only if they
/// cannot disagree with any, i.e. each names a one-alternative component.
fn lone_covers(components: &ComponentSet, terms: &[Term]) -> bool {
    terms
        .iter()
        .all(|&(c, _)| components.get(c).alternatives() == 1)
}

/// The distinct values of an ascending sequence.
fn distinct(ascending: impl Iterator<Item = u16>) -> impl Iterator<Item = u16> {
    let mut last = None;
    ascending.filter(move |&a| last.replace(a) != Some(a))
}

/// [`Closed::OneSlot`] of `comp`, from the distinct alternatives named
/// (`named`, ascending).
fn one_slot(comp: &Component, named: impl Iterator<Item = u16>) -> Closed<'_> {
    let (mut mass, mut count) = (0.0, 0);
    for a in named {
        mass += comp.prob(a);
        count += 1;
    }
    Closed::OneSlot {
        comp,
        named: count,
        mass: mass.min(1.0),
    }
}

/// "No entry" in the group labels.
const EMPTY: u32 = u32::MAX;

impl DnfKernel {
    /// A kernel with empty buffers.
    pub fn new() -> DnfKernel {
        DnfKernel::default()
    }

    /// Exact work since construction: elimination transitions, plus one per
    /// term of a one-descriptor group and per alternative of a one-slot
    /// group (the two shapes solved without an elimination).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Load one tuple's disjunction: each item is a descriptor's term list,
    /// sorted by strictly increasing component id (what
    /// [`crate::DescriptorPool::terms`] and [`crate::WsDescriptor::terms`]
    /// return). Replaces whatever was loaded before. A trivial tuple (see
    /// the module docs) is one group and is not laid out until something
    /// other than `prob`, `covers`, `exact_cost` or `group_len` asks about
    /// it.
    pub fn load<'t>(&mut self, descs: impl IntoIterator<Item = &'t [Term]>) -> Loaded {
        self.by_slot_ready = false;
        self.compiled = None;
        self.trivial = false;
        self.terms.clear();
        self.desc_off.clear();
        self.desc_off.push(0);
        for terms in descs {
            if terms.is_empty() {
                return Loaded::Tautology;
            }
            // Term by term: lists this short copy faster than by `memcpy`.
            for &t in terms {
                self.terms.push(t);
            }
            self.desc_off.push(self.terms.len() as u32);
        }
        let k = self.desc_off.len() - 1;
        if k == 0 {
            return Loaded::Empty;
        }
        // One descriptor, or single terms on one component, ascending.
        self.trivial = k == 1
            || self.terms.len() == k
                && self
                    .terms
                    .windows(2)
                    .all(|w| w[0].0 == w[1].0 && w[0].1 <= w[1].1);
        Loaded::Groups(if self.trivial { 1 } else { self.lay_out() })
    }

    /// Lay a trivial tuple out, if it is not yet.
    fn ensure_layout(&mut self) {
        if std::mem::take(&mut self.trivial) {
            self.lay_out();
        }
    }

    /// Slots, groups and each descriptor's and slot's place in its group;
    /// returns the number of groups.
    fn lay_out(&mut self) -> usize {
        let k = self.desc_off.len() - 1;
        self.slots.clear();
        self.slots.extend(self.terms.iter().map(|&(c, _)| c.0));
        if k > 1 {
            self.slots.sort_unstable();
            self.slots.dedup();
        }
        let n = self.slots.len();
        // Express terms over slots and link each descriptor's slots.
        self.term_slot.clear();
        self.parent.clear();
        self.parent.extend(0..n as u32);
        for d in 0..k {
            let mut lo = 0;
            for t in self.desc_off[d] as usize..self.desc_off[d + 1] as usize {
                let c = self.terms[t].0 .0;
                let s = lo + self.slots[lo..].partition_point(|&x| x < c);
                self.term_slot.push(s as u32);
                if lo > 0 {
                    let (a, b) = (
                        find(&mut self.parent, s as u32),
                        find(&mut self.parent, lo as u32 - 1),
                    );
                    self.parent[a as usize] = b;
                }
                lo = s + 1;
            }
        }
        // Number the groups in first-occurrence order of their descriptors.
        self.slot_group.clear();
        self.slot_group.resize(n, EMPTY);
        let mut groups = 0;
        for d in 0..k {
            let root = find(&mut self.parent, self.term_slot[self.desc_off[d] as usize]);
            if self.slot_group[root as usize] == EMPTY {
                self.slot_group[root as usize] = groups;
                groups += 1;
            }
        }
        for s in 0..n as u32 {
            let root = find(&mut self.parent, s);
            self.slot_group[s as usize] = self.slot_group[root as usize];
        }
        let groups = groups as usize;
        let DnfKernel {
            slot_group,
            term_slot,
            desc_off,
            ..
        } = self;
        bucket_by(
            k,
            groups,
            |d| slot_group[term_slot[desc_off[d] as usize] as usize] as usize,
            &mut self.group_desc_off,
            &mut self.group_descs,
        );
        rank_in_buckets(
            &self.group_desc_off,
            &self.group_descs,
            &mut self.desc_local,
        );
        bucket_by(
            n,
            groups,
            |s| slot_group[s] as usize,
            &mut self.group_slot_off,
            &mut self.group_slots,
        );
        rank_in_buckets(
            &self.group_slot_off,
            &self.group_slots,
            &mut self.slot_local,
        );
        groups
    }

    /// Number of descriptors in group `g`.
    #[inline]
    pub fn group_len(&self, g: usize) -> usize {
        if self.trivial {
            debug_assert_eq!(g, 0, "a trivial tuple is one group");
            return self.desc_off.len() - 1;
        }
        (self.group_desc_off[g + 1] - self.group_desc_off[g]) as usize
    }

    /// The descriptors of group `g`, as indices into the loaded sequence, in
    /// input order.
    pub fn group_descs(&mut self, g: usize) -> impl Iterator<Item = usize> + '_ {
        self.ensure_layout();
        self.descs_of(g).iter().map(|&d| d as usize)
    }

    fn desc_range(&self, g: usize) -> Range<usize> {
        self.group_desc_off[g] as usize..self.group_desc_off[g + 1] as usize
    }

    fn descs_of(&self, g: usize) -> &[u32] {
        &self.group_descs[self.desc_range(g)]
    }

    fn slots_of(&self, g: usize) -> &[u32] {
        &self.group_slots[self.group_slot_off[g] as usize..self.group_slot_off[g + 1] as usize]
    }

    fn terms_of(&self, d: u32) -> Range<usize> {
        self.desc_off[d as usize] as usize..self.desc_off[d as usize + 1] as usize
    }

    fn component_of(&self, slot: u32) -> ComponentId {
        ComponentId(self.slots[slot as usize])
    }

    /// Group `g` in closed form, if it has one descriptor or one slot —
    /// read from a trivial tuple's copied terms, or from the layout.
    fn closed<'c>(&mut self, components: &'c ComponentSet, g: usize) -> Option<Closed<'c>> {
        if self.trivial {
            return Some(if self.desc_off.len() == 2 {
                Closed::Lone(0..self.terms.len())
            } else {
                let comp = components.get(self.terms[0].0);
                one_slot(comp, distinct(self.terms.iter().map(|&(_, a)| a)))
            });
        }
        if let &[d] = self.descs_of(g) {
            return Some(Closed::Lone(self.terms_of(d)));
        }
        let &[s] = self.slots_of(g) else {
            return None;
        };
        // One slot: the descriptors name alternatives of one component (with
        // up to 2¹⁶ of them, which as bitsets would be quadratic).
        self.ensure_by_slot();
        let comp = components.get(self.component_of(s));
        Some(one_slot(comp, self.mentioned(s)))
    }

    /// Stream key for group `g`'s sampling draws: a hash of the group's
    /// descriptor *content* (component ids and alternatives, in the group's
    /// order). Keying on content rather than on any run or morsel index is
    /// what makes sampling invariant under thread count and under optimizer
    /// rewrites that drop unrelated tuples.
    pub fn stream_key(&mut self, g: usize) -> u64 {
        self.ensure_layout();
        let mut h = 0;
        for &d in self.descs_of(g) {
            for &(c, a) in &self.terms[self.terms_of(d)] {
                h = mix64(h ^ u64::from(c.0));
                h = mix64(h ^ u64::from(a));
            }
            // Separate descriptors so e.g. [(c0, c1)] and [(c0), (c1)] differ.
            h = mix64(h ^ 0xD15C_0DE5);
        }
        h
    }

    /// Bucket the terms by slot, each slot's terms sorted by
    /// `(alternative, descriptor bit)`.
    fn ensure_by_slot(&mut self) {
        if self.by_slot_ready {
            return;
        }
        self.ensure_layout();
        self.by_slot_ready = true;
        let terms = self.term_slot.len();
        self.term_desc.clear();
        self.term_desc.resize(terms, 0);
        for d in 0..self.desc_local.len() {
            for t in self.terms_of(d as u32) {
                self.term_desc[t] = self.desc_local[d];
            }
        }
        let term_slot = &self.term_slot;
        bucket_by(
            terms,
            self.slots.len(),
            |t| term_slot[t] as usize,
            &mut self.slot_term_off,
            &mut self.slot_terms,
        );
        let (terms, desc) = (&self.terms, &self.term_desc);
        for s in 0..self.slots.len() {
            let run = self.slot_term_off[s] as usize..self.slot_term_off[s + 1] as usize;
            if run.len() > 1 {
                self.slot_terms[run]
                    .sort_unstable_by_key(|&t| (terms[t as usize].1, desc[t as usize]));
            }
        }
    }

    /// The distinct alternatives of `slot` the descriptors mention, ascending
    /// (needs [`Self::ensure_by_slot`]).
    fn mentioned(&self, slot: u32) -> impl Iterator<Item = u16> + '_ {
        let s = slot as usize;
        let terms =
            &self.slot_terms[self.slot_term_off[s] as usize..self.slot_term_off[s + 1] as usize];
        distinct(terms.iter().map(|&t| self.terms[t as usize].1))
    }

    /// Cost bound for solving group `g` exactly:
    /// `min(2ᵏ, Π alternatives, Σ_s b_s · 2^{o_s})`, saturating. The third
    /// term bounds the elimination's own transitions: before slot `s` there
    /// are at most `2^{o_s}` states (`o_s` = descriptors with a term before
    /// `s` and one at or after it) and each splits over
    /// `b_s = min(alternatives, mentioned + 1)` branches; the first two bound
    /// the state count by the subsets of descriptors and by the assignments.
    /// Every group prices ≥ 1.
    ///
    /// A closed-form group prices without pricing its slots. A lone
    /// descriptor is open past its first slot only, so the bound is
    /// `min(2, Π alternatives)`: 1 if it covers every world, else 2. A
    /// one-slot group has nothing open at its slot, so with `m` distinct
    /// alternatives named the bound is `min(alternatives, m + 1)`
    /// (`m + 1 ≤ 2ᵏ`).
    pub fn exact_cost(&mut self, components: &ComponentSet, g: usize) -> u128 {
        match self.closed(components, g) {
            Some(Closed::Lone(terms)) => {
                return 2 - u128::from(lone_covers(components, &self.terms[terms]));
            }
            Some(Closed::OneSlot { comp, named, .. }) => {
                return u128::from(comp.alternatives()).min(u128::from(named) + 1);
            }
            None => {}
        }
        self.ensure_by_slot();
        let k = self.group_len(g);
        let subsets = if k < 128 { 1u128 << k } else { u128::MAX };
        let n = self.slots_of(g).len();
        self.open.clear();
        self.open.resize(n + 1, 0);
        for i in self.desc_range(g) {
            let terms = self.terms_of(self.group_descs[i]);
            let first = self.slot_local[self.term_slot[terms.start] as usize] as usize;
            let last = self.slot_local[self.term_slot[terms.end - 1] as usize] as usize;
            self.open[first + 1] += 1;
            self.open[last + 1] -= 1;
        }
        let (mut assignments, mut width, mut open) = (1u128, 0u128, 0i32);
        for (j, &s) in self.slots_of(g).iter().enumerate() {
            open += self.open[j];
            let alts = u128::from(components.get(self.component_of(s)).alternatives());
            assignments = assignments.saturating_mul(alts);
            let branches = alts.min(self.mentioned(s).count() as u128 + 1);
            let states = if open < 120 { 1u128 << open } else { u128::MAX };
            width = width.saturating_add(branches.saturating_mul(states));
        }
        subsets.min(assignments).min(width)
    }

    /// Build group `g`'s bitsets and branch tables (a no-op when `g` is the
    /// group compiled last).
    fn compile(&mut self, components: &ComponentSet, g: usize) {
        if self.compiled == Some(g) {
            return;
        }
        self.ensure_by_slot();
        self.compiled = Some(g);
        let k = self.group_len(g);
        let w = k.div_ceil(64);
        let n = self.slots_of(g).len();
        self.full.clear();
        self.full.resize(w, u64::MAX);
        if k % 64 != 0 {
            self.full[w - 1] = (1u64 << (k % 64)) - 1;
        }
        self.touch.clear();
        self.touch.resize(n * w, 0);
        self.close.clear();
        self.close.resize(n * w, 0);
        self.br_off.clear();
        self.br_mask.clear();
        self.br_prob.clear();
        for j in 0..n {
            let s = self.slots_of(g)[j];
            let comp = components.get(self.component_of(s));
            let first = self.br_prob.len();
            self.br_off.push(first as u32);
            let mut mass = 0.0;
            let runs = self.slot_term_off[s as usize] as usize
                ..self.slot_term_off[s as usize + 1] as usize;
            let mut start = runs.start;
            while start < runs.end {
                let alt = self.terms[self.slot_terms[start] as usize].1;
                let b = self.br_prob.len();
                mass += comp.prob(alt);
                self.br_prob.push(comp.prob(alt));
                self.br_mask.resize((b + 1) * w, 0);
                while start < runs.end && self.terms[self.slot_terms[start] as usize].1 == alt {
                    let t = self.slot_terms[start] as usize;
                    let bit = self.term_desc[t] as usize;
                    self.br_mask[b * w + bit / 64] |= 1 << (bit % 64);
                    self.touch[j * w + bit / 64] |= 1 << (bit % 64);
                    start += 1;
                }
            }
            let mentioned = self.br_prob.len() - first;
            if mentioned < usize::from(comp.alternatives()) {
                // The rest branch: every unmentioned alternative at once.
                self.br_prob.push((1.0 - mass).max(0.0));
                self.br_mask.resize(self.br_prob.len() * w, 0);
            }
            // A choice never falsifies a descriptor that skips the slot.
            for b in first..self.br_prob.len() {
                for i in 0..w {
                    self.br_mask[b * w + i] |= self.full[i] & !self.touch[j * w + i];
                }
            }
        }
        self.br_off.push(self.br_prob.len() as u32);
        for (bit, i) in self.desc_range(g).enumerate() {
            let last = self.term_slot[self.terms_of(self.group_descs[i]).end - 1];
            let j = self.slot_local[last as usize] as usize;
            self.close[j * w + bit / 64] |= 1 << (bit % 64);
        }
    }

    /// Exact probability that some descriptor of group `g` holds. Errors
    /// with [`MayError::TooManySteps`] once the elimination passes `ceiling`
    /// transitions (pass `u64::MAX` for no ceiling). A group of one
    /// descriptor takes one step per term, a group of one slot one per
    /// alternative named.
    #[inline]
    pub fn prob(
        &mut self,
        components: &ComponentSet,
        g: usize,
        ceiling: u64,
    ) -> Result<f64, MayError> {
        let (p, steps) = match self.closed(components, g) {
            Some(Closed::Lone(terms)) => {
                let steps = terms.len() as u64;
                (lone_prob(components, &self.terms[terms]), steps)
            }
            Some(Closed::OneSlot { named, mass, .. }) => (mass, named),
            None => {
                self.compile(components, g);
                // The masses of disjoint assignment sets sum to at most 1 up
                // to rounding; clamp so `1 − p` never goes negative
                // downstream.
                return self
                    .eliminate::<false>(g, ceiling)
                    .map(|(hit, _)| hit.min(1.0));
            }
        };
        self.steps += steps;
        Ok(p)
    }

    /// Whether group `g` holds in *every* world — every combination of
    /// alternatives counts, probabilities are ignored. Stops at the first
    /// uncovered assignment; errors like [`DnfKernel::prob`].
    #[inline]
    pub fn covers(
        &mut self,
        components: &ComponentSet,
        g: usize,
        ceiling: u64,
    ) -> Result<bool, MayError> {
        match self.closed(components, g) {
            Some(Closed::Lone(terms)) => Ok(lone_covers(components, &self.terms[terms])),
            // Once the distinct alternatives named are all of them.
            Some(Closed::OneSlot { comp, named, .. }) => {
                Ok(named == u64::from(comp.alternatives()))
            }
            None => {
                self.compile(components, g);
                self.eliminate::<true>(g, ceiling)
                    .map(|(_, covered)| covered)
            }
        }
    }

    /// Load `descs` and decide whether their disjunction holds in every
    /// world: it does iff it contains the tautology or *some single group*
    /// covers every assignment of its own components (if every group has a
    /// falsifying partial assignment, their union falsifies the whole
    /// disjunction).
    pub fn covers_all<'t>(
        &mut self,
        components: &ComponentSet,
        descs: impl IntoIterator<Item = &'t [Term]>,
        ceiling: u64,
    ) -> Result<bool, MayError> {
        match self.load(descs) {
            Loaded::Empty => Ok(false),
            Loaded::Tautology => Ok(true),
            Loaded::Groups(n) => {
                for g in 0..n {
                    if self.covers(components, g, ceiling)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }

    /// Load `descs` and return the probability of their disjunction,
    /// counting the groups, draws and steps into `stats`.
    ///
    /// The groups are independent, so `P = 1 − Π(1 − P(g))`, combined in
    /// group order with an early exit at certainty. Exact (`approx` is
    /// `None`), every group is solved by [`DnfKernel::prob`] under
    /// `ceiling`. Under `CONF(ε, δ)` a group [`DnfKernel::exact_cost`]
    /// prices above the cutover is estimated instead, and the tuple's error
    /// budget is split evenly across its sampled groups: `1 − Π(1 − p_g)`
    /// moves by at most the sum of the per-group errors (each partial
    /// derivative has magnitude ≤ 1), and a union bound covers δ — exact
    /// groups contribute zero error, so they are excluded from the split.
    /// Each group's draws come from a stream keyed on its content
    /// ([`DnfKernel::stream_key`]), so an estimate depends neither on the
    /// thread count nor on which other tuples are present.
    pub fn prob_all<'t>(
        &mut self,
        components: &ComponentSet,
        descs: impl IntoIterator<Item = &'t [Term]>,
        approx: Option<&ApproxConf>,
        ceiling: u64,
        stats: &mut ConfStats,
    ) -> Result<f64, MayError> {
        let groups = match self.load(descs) {
            Loaded::Empty => return Ok(0.0),
            Loaded::Tautology => return Ok(1.0),
            Loaded::Groups(n) => n,
        };
        let before = self.steps;
        self.sampled.clear();
        if let Some(a) = approx {
            let limit = u128::from(a.exact_limit);
            for g in 0..groups {
                let sampled = self.exact_cost(components, g) > limit;
                self.sampled.push(sampled);
            }
        }
        let budget_ways = self.sampled.iter().filter(|&&s| s).count().max(1) as f64;
        let mut prob_none = 1.0;
        for g in 0..groups {
            stats.largest_group = stats.largest_group.max(self.group_len(g) as u64);
            let p = match approx {
                Some(a) if self.sampled[g] => {
                    let rng = CounterRng::new(a.seed, self.stream_key(g));
                    estimate(
                        &mut self.sampler(components, g),
                        a.eps / budget_ways,
                        a.delta / budget_ways,
                        &rng,
                        stats,
                    )?
                }
                _ => {
                    stats.exact_groups += 1;
                    self.prob(components, g, ceiling)?
                }
            };
            prob_none *= 1.0 - p;
            if prob_none == 0.0 {
                break;
            }
        }
        stats.exact_steps += self.steps - before;
        Ok(1.0 - prob_none)
    }

    /// Forward variable elimination over group `g`, which must be compiled.
    /// Returns the hit mass and, under `COVER` (which ignores masses and
    /// stops at the first state with nothing alive), whether every
    /// assignment was covered.
    fn eliminate<const COVER: bool>(
        &mut self,
        g: usize,
        ceiling: u64,
    ) -> Result<(f64, bool), MayError> {
        debug_assert_eq!(self.compiled, Some(g));
        let w = self.full.len();
        let slots = self.br_off.len() - 1;
        let descriptors = self.group_len(g);
        let DnfKernel {
            cur,
            next,
            index,
            touch,
            close,
            br_off,
            br_mask,
            br_prob,
            full,
            steps: total_steps,
            ..
        } = self;
        cur.clear();
        cur.words.extend_from_slice(full);
        cur.mass.push(1.0);
        let (mut hit, before) = (0.0, *total_steps);
        for j in 0..slots {
            let (touch, close) = (&touch[j * w..(j + 1) * w], &close[j * w..(j + 1) * w]);
            let branches = br_off[j] as usize..br_off[j + 1] as usize;
            next.clear();
            index.reset(cur.mass.len());
            for (state, &mass) in cur.words.chunks_exact(w).zip(&cur.mass) {
                if !intersects(state, touch) {
                    // No live descriptor mentions the slot: every branch
                    // leaves the state as it is, and their masses sum to 1.
                    next.words.extend_from_slice(state);
                    next.merge_last(index, w, mass);
                    continue;
                }
                *total_steps += branches.len() as u64;
                if *total_steps - before > ceiling {
                    return Err(MayError::TooManySteps {
                        descriptors,
                        steps: *total_steps - before,
                        limit: ceiling,
                    });
                }
                for b in branches.clone() {
                    let (mut any, mut closing) = (0, 0);
                    for ((&x, &compat), &cl) in
                        state.iter().zip(&br_mask[b * w..(b + 1) * w]).zip(close)
                    {
                        let child = x & compat;
                        next.words.push(child);
                        any |= child;
                        closing |= child & cl;
                    }
                    if closing != 0 {
                        // A descriptor never falsified ends here: satisfied.
                        next.words.truncate(next.words.len() - w);
                        hit += mass * br_prob[b];
                    } else if any == 0 {
                        if COVER {
                            return Ok((hit, false));
                        }
                        next.words.truncate(next.words.len() - w);
                    } else {
                        next.merge_last(index, w, mass * br_prob[b]);
                    }
                }
            }
            std::mem::swap(cur, next);
        }
        // Past its last slot every descriptor is satisfied or falsified.
        debug_assert!(cur.mass.is_empty());
        Ok((hit, true))
    }

    /// A sampling view of group `g`. It reads the by-slot term lists and the
    /// components' probabilities; the exact path's bitsets are not built.
    pub fn sampler<'k>(&'k mut self, components: &'k ComponentSet, g: usize) -> GroupSampler<'k> {
        self.ensure_by_slot();
        // Running sums of P(dᵢ), the product of its terms' probabilities.
        self.weights.clear();
        let mut total = 0.0;
        for i in self.desc_range(g) {
            total += lone_prob(components, &self.terms[self.terms_of(self.group_descs[i])]);
            self.weights.push(total);
        }
        GroupSampler {
            kernel: self,
            components,
            g,
        }
    }
}

impl Frontier {
    /// The state just pushed onto `words` (its last `w` words) joins the
    /// frontier with `mass`: merged into an equal state if `index` knows
    /// one, appended otherwise. `index` holds the frontier's states.
    #[inline]
    fn merge_last(&mut self, index: &mut Slots, w: usize, mass: f64) {
        let at = self.mass.len();
        let (seen, state) = self.words.split_at(at * w);
        let state_of = |i: usize| &seen[i * w..(i + 1) * w];
        index.reserve_one(at, |i| hash_words(state_of(i)));
        match index.find(hash_words(state), |i| state_of(i) == state) {
            Ok(i) => {
                self.mass[i as usize] += mass;
                self.words.truncate(at * w);
            }
            Err(free) => {
                index.fill(free, at as u32);
                self.mass.push(mass);
            }
        }
    }
}

/// Most words a sampler works on at a time: its scratch is this many words
/// per descriptor at most, whatever ε asks for.
const BLOCK_WORDS: usize = 8;

/// Bit-sliced sampling of one group. Draw `ℓ` is *lane* `ℓ mod 64` — one bit
/// — of word `ℓ / 64`, and a *block* of up to eight words (512 draws) is
/// sampled at once: slot by slot, each branch some descriptor mentions gets
/// the mask of lanes that drew it (sequential conditional Bernoullis,
/// `p_b / (1 − Σ earlier)`, by [`CounterRng::bernoulli64`]; lanes no mentioned
/// branch takes drew an unmentioned alternative), and every term ANDs its
/// branch's mask into its descriptor's lanes. A descriptor's surviving lanes
/// are the draws that satisfy it. Every slot is sampled in every lane, so a
/// lane is an independent sample of the group's full assignment, and the
/// stream is read front to back in an order only the group's content and the
/// draw count decide.
#[derive(Debug)]
pub struct GroupSampler<'k> {
    kernel: &'k mut DnfKernel,
    components: &'k ComponentSet,
    g: usize,
}

impl GroupSampler<'_> {
    /// Number of descriptors in the group.
    pub fn descriptors(&self) -> usize {
        self.kernel.weights.len()
    }

    /// `U = Σ P(dᵢ)` over the group's descriptors, the Karp–Luby normalizer.
    pub fn total_weight(&self) -> f64 {
        *self
            .kernel
            .weights
            .last()
            .expect("a group has a descriptor")
    }

    /// Plain Monte Carlo: how many of `draws` independent assignments
    /// satisfy some descriptor.
    pub fn monte_carlo(&mut self, rng: &CounterRng, draws: u64) -> u64 {
        self.sample(rng, draws, false)
    }

    /// Karp–Luby: each lane picks descriptor `i` with probability `P(dᵢ)/U`,
    /// its slots are clamped to `i`'s own alternatives and the others
    /// sampled, and the lane is a hit iff no earlier-indexed descriptor is
    /// satisfied as well — so `U · hits / draws` estimates the group's
    /// probability from samples in `[0, U]`.
    pub fn karp_luby(&mut self, rng: &CounterRng, draws: u64) -> u64 {
        self.sample(rng, draws, true)
    }

    fn sample(&mut self, rng: &CounterRng, draws: u64, karp_luby: bool) -> u64 {
        let (k, total) = (self.descriptors(), self.total_weight());
        let kn = &mut *self.kernel;
        let (mut pos, mut hits, mut left) = (0, 0, draws);
        while left > 0 {
            let lanes = left.min(64 * BLOCK_WORDS as u64) as usize;
            left -= lanes as u64;
            let w = lanes.div_ceil(64);
            let row = |d: u32| d as usize * w..(d as usize + 1) * w;
            // The last word's lanes past the draw count never draw a branch:
            // they satisfy nothing, pick nothing and count for nothing.
            let mut valid = [u64::MAX; BLOCK_WORDS];
            if lanes % 64 != 0 {
                valid[w - 1] = (1 << (lanes % 64)) - 1;
            }
            kn.sat.clear();
            kn.sat.resize(k * w, u64::MAX);
            if karp_luby {
                kn.picked.clear();
                kn.picked.resize(k * w, 0);
                for lane in 0..lanes {
                    let x = rng.unit_at(pos) * total;
                    pos += 1;
                    // The first descriptor whose running sum reaches `x`
                    // (the last when rounding left `U` a hair under it).
                    let i = kn.weights.partition_point(|&c| c < x).min(k - 1);
                    kn.picked[i * w + lane / 64] |= 1 << (lane % 64);
                }
            }
            for &s in &kn.group_slots
                [kn.group_slot_off[self.g] as usize..kn.group_slot_off[self.g + 1] as usize]
            {
                let s = s as usize;
                let comp = self.components.get(ComponentId(kn.slots[s]));
                let terms =
                    &kn.slot_terms[kn.slot_term_off[s] as usize..kn.slot_term_off[s + 1] as usize];
                // Lanes whose picked descriptor fixes this slot.
                let mut clamped = [0; BLOCK_WORDS];
                if karp_luby {
                    for &t in terms {
                        or_into(&mut clamped, &kn.picked[row(kn.term_desc[t as usize])]);
                    }
                }
                // Lanes no earlier branch drew, the branches so far and
                // their mass.
                let mut free = valid;
                let (mut mentioned, mut taken) = (0, 0.0);
                let mut rest = terms;
                while let Some(&first) = rest.first() {
                    let alt = kn.terms[first as usize].1;
                    let same = |&&t: &&u32| kn.terms[t as usize].1 == alt;
                    let (branch, after) = rest.split_at(rest.iter().take_while(same).count());
                    rest = after;
                    mentioned += 1;
                    let p = comp.prob(alt);
                    // The last of a slot's alternatives takes what is left.
                    let cond = if mentioned == comp.alternatives() {
                        1.0
                    } else {
                        p / (1.0 - taken)
                    };
                    taken += p;
                    let mut lane = [0; BLOCK_WORDS];
                    for i in 0..w {
                        let drew = rng.bernoulli64(&mut pos, cond) & free[i];
                        free[i] &= !drew;
                        lane[i] = drew & !clamped[i];
                    }
                    if karp_luby {
                        for &t in branch {
                            or_into(&mut lane, &kn.picked[row(kn.term_desc[t as usize])]);
                        }
                    }
                    for &t in branch {
                        for (x, &l) in kn.sat[row(kn.term_desc[t as usize])].iter_mut().zip(&lane) {
                            *x &= l;
                        }
                    }
                }
            }
            // Monte Carlo counts the lanes some descriptor holds in;
            // Karp–Luby those whose pick has no satisfied predecessor.
            let (mut seen, mut alone) = ([0; BLOCK_WORDS], [0; BLOCK_WORDS]);
            for d in 0..k as u32 {
                if karp_luby {
                    for ((a, &s), &p) in alone.iter_mut().zip(&seen).zip(&kn.picked[row(d)]) {
                        *a |= p & !s;
                    }
                }
                or_into(&mut seen, &kn.sat[row(d)]);
            }
            let hit = if karp_luby { alone } else { seen };
            hits += hit.iter().map(|x| u64::from(x.count_ones())).sum::<u64>();
        }
        hits
    }
}

/// Hoeffding draw count: the mean of `n` i.i.d. variables bounded in
/// `[0, width]` is within `eps` of its expectation with probability
/// ≥ `1 − delta` once `n ≥ width² · ln(2/δ) / (2ε²)`.
pub fn hoeffding_draws(eps: f64, delta: f64, width: f64) -> u64 {
    let n = width * width * (2.0 / delta).ln() / (2.0 * eps * eps);
    n.ceil().max(1.0) as u64
}

/// Estimate one group's `P(∨ dᵢ)` to within `eps` with probability
/// ≥ `1 − delta`, counting the group, its estimator and its draws into
/// `stats` — or refuse, before the first draw, a count past
/// [`SAMPLE_DRAW_CEILING`].
///
/// Two estimators, both unbiased, chosen by cost: when `U = Σ P(dᵢ) ≥ 1`,
/// plain Monte Carlo over group assignments (indicator in `[0, 1]`, so
/// `ln(2/δ)/(2ε²)` draws). When `U < 1` — long disjunctions of rare
/// descriptors, where naive draws are almost all misses — the Karp–Luby
/// estimator, whose samples lie in `[0, U]` and have mean `P(∨ dᵢ)`, so
/// Hoeffding needs only `U²` times the Monte Carlo count — strictly fewer
/// draws whenever `U < 1`.
fn estimate(
    sampler: &mut GroupSampler<'_>,
    eps: f64,
    delta: f64,
    rng: &CounterRng,
    stats: &mut ConfStats,
) -> Result<f64, MayError> {
    let total_weight = sampler.total_weight();
    let karp_luby = total_weight < 1.0;
    let width = if karp_luby { total_weight } else { 1.0 };
    let draws = hoeffding_draws(eps, delta, width);
    if draws > SAMPLE_DRAW_CEILING {
        return Err(MayError::TooManyDraws {
            descriptors: sampler.descriptors(),
            draws,
            limit: SAMPLE_DRAW_CEILING,
        });
    }
    stats.sampled_groups += 1;
    stats.karp_luby_groups += u64::from(karp_luby);
    stats.samples_drawn += draws;
    let hits = if karp_luby {
        sampler.karp_luby(rng, draws)
    } else {
        sampler.monte_carlo(rng, draws)
    };
    Ok((width * hits as f64 / draws as f64).min(1.0))
}

/// `into[i] |= from[i]` over `from`'s length.
#[inline]
fn or_into(into: &mut [u64; BLOCK_WORDS], from: &[u64]) {
    for (x, &y) in into.iter_mut().zip(from) {
        *x |= y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::WsDescriptor;

    fn load(kernel: &mut DnfKernel, descs: &[WsDescriptor]) -> Loaded {
        kernel.load(descs.iter().map(WsDescriptor::terms))
    }

    fn desc(terms: &[(u32, u16)]) -> WsDescriptor {
        WsDescriptor::from_terms(terms.iter().map(|&(c, a)| (ComponentId(c), a)).collect())
            .expect("distinct components")
    }

    fn uniform_set(alts: &[usize]) -> ComponentSet {
        let mut cs = ComponentSet::new();
        for &n in alts {
            cs.add(Component::uniform(n).unwrap());
        }
        cs
    }

    #[test]
    fn groups_come_in_first_occurrence_order() {
        let descs = [
            desc(&[(5, 0)]),
            desc(&[(1, 0), (2, 1)]),
            desc(&[(5, 1), (7, 0)]),
            desc(&[(2, 0), (3, 0)]),
            desc(&[(9, 0)]),
        ];
        let mut kernel = DnfKernel::new();
        assert_eq!(load(&mut kernel, &descs), Loaded::Groups(3));
        let groups: Vec<Vec<usize>> = (0..3).map(|g| kernel.group_descs(g).collect()).collect();
        assert_eq!(groups, [vec![0, 2], vec![1, 3], vec![4]]);
        // Keys hash content, so equal groups in different tuples share one.
        let mut other = DnfKernel::new();
        load(&mut other, &descs[1..4]);
        assert_eq!(other.stream_key(0), kernel.stream_key(1));
        assert_ne!(kernel.stream_key(0), kernel.stream_key(1));

        assert_eq!(load(&mut kernel, &[]), Loaded::Empty);
        let with_tautology = [desc(&[(1, 0)]), WsDescriptor::tautology()];
        assert_eq!(load(&mut kernel, &with_tautology), Loaded::Tautology);
    }

    #[test]
    fn a_long_chain_stays_within_its_width_price() {
        // 40 links over ternary components: 2⁴⁰ subsets, 3⁴¹ assignments —
        // and fewer than 200 transitions, as priced.
        let cs = uniform_set(&[3; 41]);
        let descs: Vec<WsDescriptor> = (0..40).map(|i| desc(&[(i, 0), (i + 1, 0)])).collect();
        let mut kernel = DnfKernel::new();
        assert_eq!(load(&mut kernel, &descs), Loaded::Groups(1));
        let cost = kernel.exact_cost(&cs, 0);
        assert_eq!(cost, 2 + 40 * 4);
        let p = kernel.prob(&cs, 0, u64::MAX).unwrap();
        assert!(
            u128::from(kernel.steps()) <= cost,
            "{} steps",
            kernel.steps()
        );
        // P(no two neighbours both 0) by the two-state recurrence.
        let (mut zero, mut other) = (1.0 / 3.0, 2.0 / 3.0);
        for _ in 0..40 {
            (zero, other) = (other / 3.0, (zero + other) * 2.0 / 3.0);
        }
        assert!((p - (1.0 - zero - other)).abs() < 1e-14, "{p}");
        assert!(!kernel.covers(&cs, 0, u64::MAX).unwrap());
    }

    #[test]
    fn groups_wider_than_a_word_solve_cover_and_sample() {
        // A 100-way key, every alternative mentioned: alternatives below 70
        // alone, the rest tied to a coin — 100 descriptors, two words.
        let cs = uniform_set(&[100, 2]);
        let mut descs: Vec<WsDescriptor> = (0..100u16)
            .map(|a| {
                if a < 70 {
                    desc(&[(0, a)])
                } else {
                    desc(&[(0, a), (1, 0)])
                }
            })
            .collect();
        let mut kernel = DnfKernel::new();
        assert_eq!(load(&mut kernel, &descs), Loaded::Groups(1));
        let p = kernel.prob(&cs, 0, u64::MAX).unwrap();
        assert!((p - 0.85).abs() < 1e-13, "{p}");
        assert!(!kernel.covers(&cs, 0, u64::MAX).unwrap());

        let rng = CounterRng::new(3, kernel.stream_key(0));
        let mut sampler = kernel.sampler(&cs, 0);
        assert!((sampler.total_weight() - 0.85).abs() < 1e-13);
        let draws = 20_000;
        let kl = 0.85 * sampler.karp_luby(&rng, draws) as f64 / draws as f64;
        assert_eq!(kl, 0.85, "disjoint descriptors: every Karp–Luby draw hits");
        let mc = sampler.monte_carlo(&rng, draws) as f64 / draws as f64;
        assert!((mc - 0.85).abs() < 0.01, "{mc}");

        // Tie the other side of the coin too: now every world is covered.
        descs.extend((70..100u16).map(|a| desc(&[(0, a), (1, 1)])));
        assert_eq!(load(&mut kernel, &descs), Loaded::Groups(1));
        assert!(kernel.covers(&cs, 0, u64::MAX).unwrap());
        assert_eq!(kernel.prob(&cs, 0, u64::MAX).unwrap(), 1.0);
    }

    #[test]
    fn a_one_slot_group_sums_its_distinct_alternatives() {
        // What `SELECT CONF k` sees of a repaired key: single-term
        // descriptors on one component, here with a duplicate.
        let mut cs = ComponentSet::new();
        cs.add(Component::from_weights(&[1.0, 2.0, 3.0, 4.0]).unwrap());
        let mut descs = vec![desc(&[(0, 3)]), desc(&[(0, 1)]), desc(&[(0, 3)])];
        let mut kernel = DnfKernel::new();
        assert_eq!(load(&mut kernel, &descs), Loaded::Groups(1));
        assert_eq!(kernel.exact_cost(&cs, 0), 3); // two named alternatives + the rest
        assert!((kernel.prob(&cs, 0, 1).unwrap() - 0.6).abs() < 1e-15);
        assert!(!kernel.covers(&cs, 0, 1).unwrap());
        descs.extend([desc(&[(0, 0)]), desc(&[(0, 2)])]);
        load(&mut kernel, &descs);
        assert_eq!(kernel.prob(&cs, 0, 1).unwrap(), 1.0);
        assert!(kernel.covers(&cs, 0, 1).unwrap());
    }

    #[test]
    fn karp_luby_discounts_overlapping_descriptors() {
        // c0=0 and c0=0 ∧ c1=0 over 8-way components: U = 1/8 + 1/64, the
        // union is 1/8 — draws that pick the second descriptor never count.
        let cs = uniform_set(&[8, 8]);
        let descs = [desc(&[(0, 0)]), desc(&[(0, 0), (1, 0)])];
        let mut kernel = DnfKernel::new();
        load(&mut kernel, &descs);
        let rng = CounterRng::new(1, kernel.stream_key(0));
        let mut sampler = kernel.sampler(&cs, 0);
        let total = sampler.total_weight();
        assert_eq!(total, 9.0 / 64.0);
        let draws = 50_000;
        let estimate = total * sampler.karp_luby(&rng, draws) as f64 / draws as f64;
        assert!((estimate - 0.125).abs() < 0.002, "{estimate}");
    }

    #[test]
    fn the_ceiling_stops_both_walks() {
        // Sixteen coins: links among the first eight, and each of them
        // paired with the coin eight positions on — eight descriptors stay
        // open across the middle, so the frontier holds hundreds of states.
        let cs = uniform_set(&[2; 16]);
        let mut descs: Vec<WsDescriptor> = (0..7).map(|i| desc(&[(i, 1), (i + 1, 1)])).collect();
        descs.extend((0..8).map(|i| desc(&[(i, 0), (i + 8, 0)])));
        let mut kernel = DnfKernel::new();
        assert_eq!(load(&mut kernel, &descs), Loaded::Groups(1));
        assert!(kernel.exact_cost(&cs, 0) > 1000);
        let too_many = |err: MayError| {
            matches!(err, MayError::TooManySteps { descriptors: 15, steps, limit: 100 }
                if steps > 100)
        };
        assert!(too_many(kernel.prob(&cs, 0, 100).unwrap_err()));
        assert!(too_many(kernel.covers(&cs, 0, 100).unwrap_err()));
        // (`intern_differential` compares the value under this ceiling with
        // the brute-force oracle.)
        assert!(kernel.prob(&cs, 0, 1 << 14).is_ok());
        assert!(!kernel.covers(&cs, 0, 1 << 14).unwrap());
    }
}
