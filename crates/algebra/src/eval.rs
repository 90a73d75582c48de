//! The WSD-level executor: evaluates plans on u-relations without expanding
//! worlds.
//!
//! # The columnar, selection-vector execution core
//!
//! Operators do not shuttle row-oriented [`URelation`]s (which would
//! deep-clone every tuple and every descriptor term vector at every step),
//! nor per-row `(Cow<Tuple>, DescId)` pairs as earlier revisions did.
//! Instead they evaluate on `Batch`es over the columnar form of
//! `maybms-core`: one typed [`ColumnVec`] per attribute plus a dense
//! [`DescId`] column, with an optional **selection vector** of row ids on
//! top. Strings are dictionary codes into a run-global
//! [`StrPool`] and descriptors are handles into a run-global
//! [`DescriptorPool`] — both owned by the [`EvalCtx`] — so string equality
//! anywhere in the executor is an integer compare, and descriptor equality
//! one integer compare or a short slice compare
//! ([`DescriptorPool::same_descriptor`]). Concretely:
//!
//! * **Scan** borrows the relation's columns as imported into the run's
//!   pools (see *Stored relations* below) — no per-operator copies, and no
//!   per-run conversion of rows.
//! * **Select** narrows the selection vector a conjunct at a time
//!   ([`crate::predicate::BoundPredicate::retain_views`]): a `column op
//!   literal` conjunct on a non-string column is one typed loop
//!   ([`ColView::retain_cmp`]), anything else is evaluated per row, cells
//!   read in place. No row or column is materialized.
//! * **Project** and **Rename** are column-pointer shuffles: projection
//!   moves column references into the output order (set semantics enforced
//!   by a selection-vector dedup), renaming swaps the schema.
//! * **NaturalJoin** hashes both sides' key columns up front — one
//!   [`ColView::hash_into`] sweep per key column, no key tuples — builds a
//!   flat `ChainedIndex` over the right side's hashes, probes with the left
//!   ones, verifies candidates column-wise, conjoins descriptors
//!   through the pool, and emits **late-materialized** output columns: each
//!   output column is the input column plus a shared rowid indirection
//!   (`LazyCol`), so the join moves no cell data at all.
//! * **Union** concatenates column-wise (a dense `memcpy`-style extend when
//!   no selection or indirection is pending) and dedups via a fresh
//!   selection vector.
//! * **Dedup** (after project/join/union) hashes every live row a column
//!   at a time — reading through the rowid views — plus its descriptor's
//!   terms, then keeps first occurrences through a `ChainedIndex` and emits
//!   their selection vector; it never rebuilds columns.
//!
//! # Stored relations
//!
//! A stored [`URelation`] is typed columns over relation-local string and
//! descriptor dictionaries ([`URelation::columns`]), whether it was pushed
//! row by row or is a run's answer; its rows are built only if someone reads
//! them. A run converts no rows: before the plan starts, [`run_with`]
//! imports every scanned name into the run's pools ([`URelation::scan`]) —
//! by *appending* the relation's dictionaries, which have the pools' own
//! flat layout, never by interning: two array copies and one add per row
//! for the descriptors; for the strings a wholesale copy into an empty pool,
//! else one probe per *distinct* string by its stored hash and one table
//! lookup per row of each string column. That is all a scan copies.
//! `Int`/`Float`/`Bool`/`Null` columns are borrowed from the relation, and
//! so are the coded columns of the first relation of a run and the
//! descriptor column of a certain relation. Two relations carrying the same
//! descriptor get two handles for it, so handles are compared with
//! [`DescriptorPool::same_descriptor`] — as conjunction results always had
//! to be. The pools stay per-run.
//!
//! The way out mirrors the way in. When the plan is done, [`run_with`]
//! re-codes the answer's columns over dictionaries of their own
//! ([`URelation::from_run`]: one intern call per distinct descriptor handle
//! of the answer, into the answer's fresh pool — never the run's; strings
//! copied by code, none hashed). The answer is field for field what pushing
//! its rows would make, so the next statement's scan, `normalize` and the
//! statistics cannot tell a `LET` result from a loaded relation — and no
//! `Tuple` or `WsDescriptor` is allocated unless the caller reads
//! [`URelation::rows`].
//!
//! # Late materialization
//!
//! A join output column is a `LazyCol`: the input column plus an optional
//! `Arc`'d rowid vector (virtual row `i` lives at physical row `ids[i]`).
//! Stacked joins *compose* indirections (memoized per distinct input
//! vector) instead of gathering, so a k-way join chain performs **one**
//! gather per source column — fused with the pending selection vector at
//! the next pipeline breaker (`Batch::into_dense_parts`: union inputs,
//! extension-operator inputs, the final emit) — instead of k. All sweeps
//! (predicates, row hashing, join keys) read through [`ColView`]s, which
//! fold the indirection into each cell access (a typed sweep dispatches on
//! it once per column). This is how joins work — there is
//! no eager per-join gather path beside it.
//!
//! # Sideways information passing (SIP)
//!
//! When a join's build (right) side turns out small (its *actual* row
//! count, known at runtime, is at most the [`crate::sip`] cutoff) and the
//! mint guard allows evaluating it first, the join builds a
//! [`BlockedBloom`] over the build side's key hashes (the join's own,
//! [`ColView::hash_into`] a key column at a time) and registers it
//! against a node of the probe subtree (chosen by `sip_target` in [`crate::sip`]);
//! when that node's batch is produced, rows whose key cells cannot match
//! any build row are pruned before they flow any further. False positives
//! only keep rows the join itself drops, and pruning is class-closed under
//! set-semantics dedup, so results are byte-identical with
//! [`ExecCfg::sip`] on or off. Filters cascade: a pruned build side seeds
//! the next filter down a join chain.
//!
//! Schemas are validated once per operator when the output schema is
//! derived. Extension operators (`repair-key`, `conf`, …) speak the
//! columnar ABI too: [`crate::ext::ExtOperator::eval`] receives and returns
//! [`ColumnarURelation`]s whose descriptors/strings live in the context's
//! pools. Nothing is converted to rows: the final result leaves [`run`] as
//! a [`URelation`] of columns.
//!
//! # Configuration
//!
//! Everything a run can be told is one plain value, [`ExecCfg`] (thread
//! budget, morsel threshold, SIP on/off), passed to [`run_with`]. Nothing in
//! this crate reads the process environment.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use maybms_core::bloom::BlockedBloom;
use maybms_core::columnar::{ColView, ColumnVec, ColumnarURelation, StrPool};
use maybms_core::fxhash::fx_step;
use maybms_core::obs::{ObsCounters, QueryTrace, SpanId, Tracer};
use maybms_core::{
    ComponentSet, ConfStats, DescId, DescriptorPool, FxHashMap, MayError, ParCfg, ParStats,
    PoolStats, Scan, Schema, URelation, WorldSet,
};

use crate::plan::Plan;
use crate::sip::{plan_mints, shared_key_names, sip_target, SipFilter, SipStats, SIP_K};

/// The executor's run configuration: the thread budget plus the one
/// execution switch. A plain value the caller holds and passes to
/// [`run_with`]; every combination produces byte-identical results — the
/// fields trade time, not answers (the `sip_differential` and
/// `parallel_differential` suites are the oracle).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecCfg {
    /// Worker-thread budget (see [`ParCfg`]).
    pub par: ParCfg,
    /// Sideways information passing: push Bloom filters from selective join
    /// build sides into probe subtrees. On by default; `false` is the
    /// differential baseline and the bench's disabled-path row.
    pub sip: bool,
}

impl Default for ExecCfg {
    /// The machine's parallelism ([`ParCfg::default`]) with SIP on.
    fn default() -> ExecCfg {
        ExecCfg {
            par: ParCfg::default(),
            sip: true,
        }
    }
}

/// Evaluation context handed to operators: the base relations (read-only),
/// the component set (mutable, so extension operators like `repair-key` can
/// mint new components), and the run's interning pools.
pub struct EvalCtx<'a> {
    /// The base u-relations, by name.
    pub relations: &'a BTreeMap<String, URelation>,
    /// The components of the world set.
    pub components: &'a mut ComponentSet,
    /// The run's descriptor interner. Every [`DescId`] flowing through the
    /// executor — including those inside extension-operator inputs and
    /// results — resolves against this pool.
    pub pool: DescriptorPool,
    /// The run's string dictionary. Every string cell of every columnar
    /// relation in the run is a code into this pool.
    pub strings: StrPool,
    /// The run's parallelism configuration. The built-in operators never
    /// read it; the two extension operators that fan out (`conf`,
    /// `certain`) consult [`ParCfg::workers_for`] first, and results are
    /// deterministic for every thread count.
    pub par: ParCfg,
    /// Parallelism counters accumulated across the run's stages.
    pub par_stats: ParStats,
    /// Confidence-solver counters accumulated across the run's `conf`
    /// evaluations (exact and sampled groups, steps, draws, largest group).
    pub conf_stats: ConfStats,
    /// The run's span recorder. Disabled (every call a cheap no-op) except
    /// when [`run_with`] is asked to trace; extension operators may record
    /// sub-phase events through it ([`Tracer::now`] / [`Tracer::event`]).
    pub tracer: Tracer,
    /// Whether sideways information passing is enabled for this run.
    pub sip: bool,
    /// Memoized results of extension operators, keyed by `Arc` identity.
    /// A shared (cloned) `repair-key` subtree must evaluate *once* per run:
    /// re-running it would mint fresh components for each occurrence and
    /// silently decorrelate what the plan author shares deliberately.
    ext_cache: FxHashMap<usize, ColumnarURelation>,
    /// Dedup sweeps skipped because a plan property proved them redundant
    /// (surfaced through [`ExecStats::dedups_elided`]).
    dedups_elided: usize,
    /// SIP filters pending application, keyed by target plan-node address
    /// (plan children are boxed, so node addresses are stable and unique
    /// for the duration of a run). Several joins may target the same node.
    sip_filters: FxHashMap<usize, Vec<SipFilter>>,
    /// SIP counters accumulated across the run.
    sip_stats: SipStats,
}

impl<'a> EvalCtx<'a> {
    /// Build a fresh context (with an empty extension-operator memo and
    /// fresh interning pools) for one run under `cfg`.
    pub fn with_exec(
        relations: &'a BTreeMap<String, URelation>,
        components: &'a mut ComponentSet,
        cfg: ExecCfg,
    ) -> Self {
        EvalCtx {
            relations,
            components,
            pool: DescriptorPool::new(),
            strings: StrPool::new(),
            par: cfg.par,
            par_stats: ParStats::default(),
            conf_stats: ConfStats::default(),
            tracer: Tracer::disabled(),
            sip: cfg.sip,
            ext_cache: FxHashMap::default(),
            dedups_elided: 0,
            sip_filters: FxHashMap::default(),
            sip_stats: SipStats::default(),
        }
    }

    /// Snapshot the counters the tracer attributes to spans. Only called on
    /// the enabled path (span enter/exit), never per row.
    fn counters_now(&self) -> ObsCounters {
        let pool = self.pool.stats();
        ObsCounters {
            morsels: self.par_stats.morsels,
            intern_calls: pool.intern_calls,
            intern_hits: pool.intern_hits,
            imported: pool.imported,
            conjoin_calls: pool.conjoin_calls,
            exact_groups: self.conf_stats.exact_groups,
            sampled_groups: self.conf_stats.sampled_groups,
            karp_luby_groups: self.conf_stats.karp_luby_groups,
            exact_steps: self.conf_stats.exact_steps,
            samples_drawn: self.conf_stats.samples_drawn,
            busy_nanos: self.par_stats.busy_nanos,
        }
    }

    fn span_enter(&mut self, label: String) -> SpanId {
        let snap = self.counters_now();
        self.tracer.enter(label, snap)
    }

    fn span_exit(&mut self, id: SpanId, rows_out: u64) {
        let snap = self.counters_now();
        self.tracer.exit(id, rows_out, snap);
    }
}

/// Observability snapshot of one executor run, surfaced by
/// [`run_with`] (and the REPL's `\stats` meta-command). The descriptor
/// counters validate that representation changes keep pool traffic intact
/// — e.g. a scan that went back to interning would show up as
/// `pool.intern_calls` on a read-only run, where it is 0. A client sums runs
/// with [`ExecStats::absorb`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecStats {
    /// Wall-clock time of the whole run, in nanoseconds.
    pub wall_nanos: u64,
    /// Entries in the run's descriptor pool (occupancy, ≥ 1; an upper
    /// bound on the distinct descriptors — imports and conjunctions append
    /// without looking up).
    pub descriptors: usize,
    /// Intern/conjoin counters of the descriptor pool.
    pub pool: PoolStats,
    /// Distinct strings in the run's dictionary.
    pub strings: usize,
    /// Rows in the final result.
    pub output_rows: usize,
    /// Deduplication sweeps skipped because a derived plan property
    /// (distinctness, descriptor-triviality) proved them redundant.
    pub dedups_elided: usize,
    /// The run's worker-thread budget ([`ParCfg::threads`]).
    pub threads: usize,
    /// Parallelism counters: workers actually used, morsels dispatched.
    pub par: ParStats,
    /// Confidence-solver counters: groups solved exactly vs. by sampling,
    /// exact steps and draws spent, largest connected group seen.
    pub conf: ConfStats,
    /// Sideways-information-passing counters: filters built, probe rows
    /// tested and pruned.
    pub sip: SipStats,
}

impl ExecStats {
    /// Fold another run's counters into this one: counts and times add up,
    /// the budget and the peaks keep their maximum.
    pub fn absorb(&mut self, other: &ExecStats) {
        self.wall_nanos += other.wall_nanos;
        self.descriptors += other.descriptors;
        self.pool.intern_calls += other.pool.intern_calls;
        self.pool.intern_hits += other.pool.intern_hits;
        self.pool.imported += other.pool.imported;
        self.pool.conjoin_calls += other.pool.conjoin_calls;
        self.pool.conjoin_shortcuts += other.pool.conjoin_shortcuts;
        self.pool.conjoin_inconsistent += other.pool.conjoin_inconsistent;
        self.strings += other.strings;
        self.output_rows += other.output_rows;
        self.dedups_elided += other.dedups_elided;
        self.threads = self.threads.max(other.threads);
        self.par.absorb(&other.par);
        self.conf.absorb(&other.conf);
        self.sip.filters_built += other.sip.filters_built;
        self.sip.probe_rows_tested += other.sip.probe_rows_tested;
        self.sip.probe_rows_pruned += other.sip.probe_rows_pruned;
    }
}

/// A flat chained-bucket hash index over row slots: `heads[bucket]` points
/// at the most recent slot in the bucket and `next[slot]` chains to the
/// previous one (both offset by one, `0` meaning "end"). Unlike a
/// `HashMap<Key, Vec<u32>>` it allocates exactly two `u32` arrays for any
/// number of rows — no per-bucket vectors, no key materialization — which is
/// what keeps the join build and hash-dedup allocation-free per row.
struct ChainedIndex {
    mask: u64,
    heads: Vec<u32>,
    next: Vec<u32>,
}

impl ChainedIndex {
    /// An index able to hold `rows` entries with a load factor ≤ ½.
    fn with_capacity(rows: usize) -> ChainedIndex {
        let buckets = (rows * 2).next_power_of_two().max(1);
        ChainedIndex {
            mask: (buckets - 1) as u64,
            heads: vec![0; buckets],
            next: vec![0; rows],
        }
    }

    /// Insert slot `i` under `hash`. `i` must be below the build capacity and
    /// inserted at most once.
    #[inline]
    fn insert(&mut self, hash: u64, i: usize) {
        let b = (hash & self.mask) as usize;
        self.next[i] = self.heads[b];
        self.heads[b] = i as u32 + 1;
    }

    /// Iterate the slots stored under `hash` (most recent first).
    #[inline]
    fn probe(&self, hash: u64) -> ChainIter<'_> {
        ChainIter {
            next: &self.next,
            cur: self.heads[(hash & self.mask) as usize],
        }
    }
}

/// Iterator over one bucket chain of a [`ChainedIndex`].
struct ChainIter<'a> {
    next: &'a [u32],
    cur: u32,
}

impl Iterator for ChainIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.cur == 0 {
            return None;
        }
        let i = (self.cur - 1) as usize;
        self.cur = self.next[i];
        Some(i)
    }
}

/// Iterator over a batch's live row ids: a dense range, or the selection
/// vector when one is pending.
enum RowIds<'s> {
    Dense(std::ops::Range<u32>),
    Sel(std::slice::Iter<'s, u32>),
}

impl Iterator for RowIds<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            RowIds::Dense(r) => r.next(),
            RowIds::Sel(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            RowIds::Dense(r) => r.size_hint(),
            RowIds::Sel(it) => it.size_hint(),
        }
    }
}

/// One output column of a batch: the stored column plus an optional shared
/// rowid indirection — *virtual* row `i` lives at *physical* row `ids[i]`.
/// A join emits its output columns as the input columns plus the match-list
/// indirection (composing with any indirection already present, memoized
/// per distinct input vector) instead of gathering; the single fused gather
/// happens at the next pipeline breaker ([`Batch::into_dense_parts`]).
/// The id vectors are `Arc`'d because every left (resp. right-kept) column
/// of a join shares one vector.
struct LazyCol<'s> {
    /// The stored cells. Dense columns have one cell per virtual row;
    /// indirected columns are addressed through `ids`.
    col: Cow<'s, ColumnVec>,
    /// The virtual→physical rowid map, `None` when the column is dense.
    /// When present, `ids.len()` equals the batch's virtual row count.
    ids: Option<Arc<Vec<u32>>>,
}

impl<'s> LazyCol<'s> {
    /// A column with no indirection.
    fn dense(col: Cow<'s, ColumnVec>) -> LazyCol<'s> {
        LazyCol { col, ids: None }
    }

    /// A cell-addressable view folding the indirection (the read handle
    /// every sweep goes through).
    #[inline]
    fn view(&self) -> ColView<'_> {
        ColView::with_ids(&self.col, self.ids.as_deref().map(Vec::as_slice))
    }
}

/// The executor's unit of data flow: columnar storage (borrowed from the
/// run's scans until an operator materializes new columns),
/// per-column rowid indirections deferred by joins, plus an optional
/// selection vector restricting which virtual rows are live.
struct Batch<'s> {
    schema: Cow<'s, Schema>,
    cols: Vec<LazyCol<'s>>,
    /// Descriptor handles, always dense over the *virtual* rows (joins
    /// materialize conjoined descriptors eagerly — they are single `u32`
    /// handles, not cell data, so deferring them buys nothing).
    descs: Cow<'s, [DescId]>,
    /// Live virtual row ids, in output order. `None` means all rows
    /// `0..descs.len()`.
    sel: Option<Vec<u32>>,
}

impl<'s> Batch<'s> {
    /// Borrow a scanned base relation (the Scan fast path).
    fn from_ref(rel: &'s Scan<'_>) -> Batch<'s> {
        Batch {
            schema: Cow::Borrowed(rel.schema()),
            cols: rel
                .columns()
                .iter()
                .map(|c| LazyCol::dense(Cow::Borrowed(&**c)))
                .collect(),
            descs: Cow::Borrowed(rel.descs()),
            sel: None,
        }
    }

    /// Take ownership of an extension operator's (or cached) result.
    fn from_owned(rel: ColumnarURelation) -> Batch<'s> {
        let (schema, cols, descs) = rel.into_parts();
        Batch {
            schema: Cow::Owned(schema),
            cols: cols
                .into_iter()
                .map(|c| LazyCol::dense(Cow::Owned(c)))
                .collect(),
            descs: Cow::Owned(descs),
            sel: None,
        }
    }

    /// Number of live rows.
    fn len(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.descs.len(),
        }
    }

    /// The live virtual row ids, in output order.
    fn row_ids(&self) -> RowIds<'_> {
        match &self.sel {
            Some(s) => RowIds::Sel(s.iter()),
            None => RowIds::Dense(0..self.descs.len() as u32),
        }
    }

    /// Fold the key cells `key` of every live row into one hash per live
    /// row, in [`Batch::row_ids`] order — a [`ColView::hash_into`] sweep per
    /// key column. Equal keys hash equally (on either side of a join: both
    /// sides' columns encode into the run's pools).
    fn key_hashes(&self, key: impl IntoIterator<Item = usize>) -> Vec<u64> {
        let mut hashes = vec![0; self.len()];
        for c in key {
            self.cols[c]
                .view()
                .hash_into(self.sel.as_deref(), &mut hashes);
        }
        hashes
    }

    /// Whether two rows carry equal cells and equal descriptors.
    #[inline]
    fn rows_eq(&self, a: u32, b: u32, pool: &DescriptorPool) -> bool {
        pool.same_descriptor(self.descs[a as usize], self.descs[b as usize])
            && self.cols.iter().all(|c| {
                let v = c.view();
                v.eq_cells(a as usize, &v, b as usize)
            })
    }

    /// Drop duplicate `(tuple, descriptor)` rows, keeping first occurrences
    /// in order — by *shrinking the selection vector*, never touching the
    /// columns. Every row's hash comes first, a column at a time; then a
    /// hash-and-verify pass over a [`ChainedIndex`]: candidates that collide
    /// on the row hash are verified cell-wise plus
    /// [`DescriptorPool::same_descriptor`].
    fn dedup(&mut self, pool: &DescriptorPool) {
        let n = self.len();
        if n < 2 {
            return;
        }
        // Each row's cells, then its descriptor's terms (the descriptor's
        // *content*, not its handle — handles minted by `conjoin` are not
        // canonical), two words a term.
        let mut hashes = self.key_hashes(0..self.cols.len());
        for (h, i) in hashes.iter_mut().zip(self.row_ids()) {
            for &(c, a) in pool.terms(self.descs[i as usize]) {
                *h = fx_step(fx_step(*h, c.0 as u64), a as u64);
            }
        }
        // The index holds positions among the live rows, so a candidate's
        // hash is compared before its cells.
        let live = self.sel.as_deref();
        let row = |j: usize| live.map_or(j as u32, |s| s[j]);
        let mut index = ChainedIndex::with_capacity(n);
        let mut kept: Vec<u32> = Vec::with_capacity(n);
        for (j, &h) in hashes.iter().enumerate() {
            let i = row(j);
            let dup = index
                .probe(h)
                .any(|k| hashes[k] == h && self.rows_eq(row(k), i, pool));
            if !dup {
                index.insert(h, j);
                kept.push(i);
            }
        }
        self.sel = Some(kept);
    }

    /// Apply the selection vector *and* every pending rowid indirection in
    /// one fused pass, yielding dense owned columns and descriptors — the
    /// pipeline breaker where deferred join gathers finally happen, once
    /// per column. When nothing is pending, borrowed columns are cloned (a
    /// contiguous `memcpy` per column) and owned ones move. Columns sharing
    /// an id vector share the composed `sel ∘ ids` index (memoized by `Arc`
    /// address).
    fn into_dense_parts(self) -> (Cow<'s, Schema>, Vec<ColumnVec>, Vec<DescId>) {
        let Batch {
            schema,
            cols,
            descs,
            sel,
        } = self;
        if sel.is_none() && cols.iter().all(|c| c.ids.is_none()) {
            return (
                schema,
                cols.into_iter().map(|c| c.col.into_owned()).collect(),
                descs.into_owned(),
            );
        }
        let out_descs: Vec<DescId> = match &sel {
            Some(s) => s.iter().map(|&i| descs[i as usize]).collect(),
            None => descs.into_owned(),
        };
        let mut fused: FxHashMap<usize, Vec<u32>> = FxHashMap::default();
        let out_cols = cols
            .into_iter()
            .map(|c| {
                let LazyCol { col, ids } = c;
                match (&sel, ids) {
                    (None, None) => col.into_owned(),
                    (Some(s), None) => col.gather(s),
                    (None, Some(ids)) => col.gather(&ids),
                    (Some(s), Some(ids)) => {
                        let idx = fused
                            .entry(Arc::as_ptr(&ids) as usize)
                            .or_insert_with(|| s.iter().map(|&i| ids[i as usize]).collect());
                        col.gather(idx)
                    }
                }
            })
            .collect();
        (schema, out_cols, out_descs)
    }

    /// Materialize as a standalone columnar relation (descriptors and string
    /// codes stay relative to the run's pools).
    fn into_columnar(self) -> ColumnarURelation {
        let (schema, cols, descs) = self.into_dense_parts();
        ColumnarURelation::from_parts(schema.into_owned(), cols, descs)
    }
}

/// Evaluate a plan against a world set. New components created by extension
/// operators are added to `ws.components`; the base relations are untouched.
///
/// Within one `run`, a *shared* extension subtree (the same `Arc`, e.g. a
/// cloned `repair-key` plan used on both sides of a join) is evaluated once
/// and its result reused, so both occurrences refer to the same components.
/// Two structurally equal but separately constructed subtrees remain
/// independent repairs — sharing is by `Arc` identity, which is what plan
/// `clone()` preserves.
pub fn run(ws: &mut WorldSet, plan: &Plan) -> Result<URelation, MayError> {
    run_with(ws, plan, &ExecCfg::default(), false).map(|(result, _, _)| result)
}

/// [`run`] under an explicit configuration — the general entry point:
/// returns the result, the run's [`ExecStats`], and, when `traced`, its
/// [`QueryTrace`] — a span per evaluated plan node (plus operator
/// sub-phases), each annotated with wall time, rows, and the counters the
/// node incurred; the trace is what `EXPLAIN ANALYZE` renders and what
/// [`QueryTrace::to_json`] exports for Perfetto. The result is
/// byte-identical for every `cfg` and with tracing on or off (the tracer
/// only *observes*); the differential suites drive this entry to pin that.
pub fn run_with(
    ws: &mut WorldSet,
    plan: &Plan,
    cfg: &ExecCfg,
    traced: bool,
) -> Result<(URelation, ExecStats, Option<QueryTrace>), MayError> {
    let started = std::time::Instant::now();
    let WorldSet {
        components,
        relations,
    } = ws;
    let mut ctx = EvalCtx::with_exec(relations, components, *cfg);
    if traced {
        ctx.tracer = Tracer::enabled();
    }
    // Import every scanned base relation into the run's pools once,
    // up front. The scans live outside the context so batches can borrow
    // them while operators keep mutable access to the pools.
    let convert_started = ctx.tracer.now();
    let mut names = BTreeSet::new();
    collect_scans(plan, &mut names);
    let mut scans: BTreeMap<&str, Scan<'_>> = BTreeMap::new();
    let mut converted_rows = 0u64;
    for name in names {
        let rel = relations
            .get(name)
            .ok_or_else(|| MayError::UnknownRelation(name.to_string()))?;
        converted_rows += rel.len() as u64;
        scans.insert(name, rel.scan(&mut ctx.pool, &mut ctx.strings));
    }
    let imported = ObsCounters {
        imported: ctx.pool.stats().imported,
        ..ObsCounters::default()
    };
    ctx.tracer
        .event_with("scan-convert", convert_started, converted_rows, imported);
    let batch = eval_batch(plan, &scans, &mut ctx)?;
    // The answer leaves as columns, over dictionaries of its own. Rows are
    // built if and when someone reads them.
    let result = URelation::from_run(batch.into_columnar(), &ctx.pool, &ctx.strings);
    let stats = ExecStats {
        wall_nanos: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        descriptors: ctx.pool.len(),
        pool: ctx.pool.stats(),
        strings: ctx.strings.len(),
        output_rows: result.len(),
        dedups_elided: ctx.dedups_elided,
        threads: ctx.par.threads,
        par: ctx.par_stats,
        conf: ctx.conf_stats,
        sip: ctx.sip_stats,
    };
    let trace = traced.then(|| {
        let threads = ctx.par.threads;
        std::mem::take(&mut ctx.tracer).finish(threads)
    });
    Ok((result, stats, trace))
}

/// [`run_with`] for the frozen `perfbench/src/engine.rs` adapter: a thread
/// budget, SIP on, result only. The next `benchmark` PR moves the adapter to
/// [`run_with`] and deletes this.
pub fn run_with_opts(ws: &mut WorldSet, plan: &Plan, par: &ParCfg) -> Result<URelation, MayError> {
    let cfg = ExecCfg {
        par: *par,
        sip: true,
    };
    run_with(ws, plan, &cfg, false).map(|(result, _, _)| result)
}

/// Traced [`run_with`] for the frozen `perfbench/src/engine.rs` adapter. The
/// next `benchmark` PR moves the adapter to [`run_with`] and deletes this.
pub fn run_traced(
    ws: &mut WorldSet,
    plan: &Plan,
    par: &ParCfg,
) -> Result<(URelation, ExecStats, QueryTrace), MayError> {
    let cfg = ExecCfg {
        par: *par,
        sip: true,
    };
    run_with(ws, plan, &cfg, true)
        .map(|(result, stats, trace)| (result, stats, trace.expect("tracing was requested")))
}

/// Collect the names of every base relation a plan (including extension
/// subtrees) scans.
fn collect_scans<'p>(plan: &'p Plan, names: &mut BTreeSet<&'p str>) {
    match plan {
        Plan::Scan(name) => {
            names.insert(name);
        }
        Plan::Select { input, .. } | Plan::Project { input, .. } | Plan::Rename { input, .. } => {
            collect_scans(input, names)
        }
        Plan::NaturalJoin { left, right } | Plan::Union { left, right } => {
            collect_scans(left, names);
            collect_scans(right, names);
        }
        Plan::Ext(op) => {
            for input in op.inputs() {
                collect_scans(input, names);
            }
        }
    }
}

/// Build a Bloom filter over `build`'s key cells and register it against
/// the right node of the `probe` subtree, if this join qualifies for SIP:
/// the build side's *actual* row count is within the cutoff, the sides
/// share key columns, and the target descent succeeds. Called by the join
/// arm after evaluating the build side, before evaluating the probe side.
fn maybe_register_sip(probe: &Plan, build: &Batch<'_>, ctx: &mut EvalCtx<'_>) {
    if build.len() > crate::sip::SIP_MAX_BUILD {
        return;
    }
    let Ok(probe_schema) = probe.schema_with(ctx.relations) else {
        return;
    };
    let keys = shared_key_names(&probe_schema, &build.schema);
    if keys.is_empty() {
        return;
    }
    let Some((target, target_keys)) = sip_target(probe, keys.clone(), ctx.relations) else {
        return;
    };
    let Ok(target_schema) = target.schema_with(ctx.relations) else {
        return;
    };
    let mut key_cols = Vec::with_capacity(target_keys.len());
    for k in &target_keys {
        match target_schema.col_index(k) {
            Ok(i) => key_cols.push(i),
            Err(_) => return,
        }
    }
    // Hash every live build row's key cells — in `keys` order, the same
    // order `apply_sip` hashes the probe cells — into the filter.
    let mut build_cols = Vec::with_capacity(keys.len());
    for k in &keys {
        match build.schema.col_index(k) {
            Ok(i) => build_cols.push(i),
            Err(_) => return,
        }
    }
    let mut bloom = BlockedBloom::with_capacity(build.len().max(1), SIP_K);
    for h in build.key_hashes(build_cols) {
        bloom.insert(h);
    }
    ctx.sip_filters
        .entry(target as *const Plan as usize)
        .or_default()
        .push(SipFilter { bloom, key_cols });
    ctx.sip_stats.filters_built += 1;
}

/// Apply any SIP filters registered against this plan node to its freshly
/// produced batch: probe rows whose key-cell hash the filter rules out are
/// dropped from the selection vector. Sequential by design — the key
/// columns are hashed a column at a time, then each hash is tested, and
/// survivor order must match the unfiltered order exactly.
fn apply_sip(plan: &Plan, b: &mut Batch<'_>, ctx: &mut EvalCtx<'_>) {
    if ctx.sip_filters.is_empty() {
        return;
    }
    let key = plan as *const Plan as usize;
    let Some(filters) = ctx.sip_filters.remove(&key) else {
        return;
    };
    for f in &filters {
        let hashes = b.key_hashes(f.key_cols.iter().copied());
        let kept: Vec<u32> = b
            .row_ids()
            .zip(hashes)
            .filter_map(|(i, h)| f.bloom.may_contain(h).then_some(i))
            .collect();
        let tested = b.len() as u64;
        ctx.sip_stats.probe_rows_tested += tested;
        ctx.sip_stats.probe_rows_pruned += tested - kept.len() as u64;
        b.sel = Some(kept);
    }
}

/// Span-wrapping entry for each plan node: the untraced path is a single
/// branch on the tracer's enabled bool before delegating to
/// [`eval_batch_inner`] — this is the whole per-node cost of having the
/// tracer compiled in. The traced path opens a span labelled exactly like
/// the `EXPLAIN` tree line (a memoized extension subtree is labelled
/// `… (cached)` so the span tree reflects what actually executed) and
/// charges the node the counter delta across its evaluation. Either path
/// applies pending SIP filters to the node's output before it flows up (so
/// a traced span's `rows_out` reflects the pruning).
fn eval_batch<'s>(
    plan: &Plan,
    scans: &'s BTreeMap<&str, Scan<'_>>,
    ctx: &mut EvalCtx<'_>,
) -> Result<Batch<'s>, MayError> {
    if !ctx.tracer.is_enabled() {
        let mut b = eval_batch_inner(plan, scans, ctx)?;
        apply_sip(plan, &mut b, ctx);
        return Ok(b);
    }
    let mut label = plan.node_label();
    if let Plan::Ext(op) = plan {
        let key = Arc::as_ptr(op) as *const () as usize;
        if ctx.ext_cache.contains_key(&key) {
            label.push_str(" (cached)");
        }
    }
    let span = ctx.span_enter(label);
    let mut result = eval_batch_inner(plan, scans, ctx);
    if let Ok(b) = result.as_mut() {
        apply_sip(plan, b, ctx);
    }
    let rows_out = result.as_ref().map(Batch::len).unwrap_or(0);
    ctx.span_exit(span, rows_out as u64);
    result
}

/// The batch evaluator proper. Returned batches may borrow columns from
/// `scans` (lifetime `'s`), never from `ctx` itself — `ctx` stays freely
/// borrowable for the next operator. See the module docs for why each
/// operator is sound on the compact representation.
fn eval_batch_inner<'s>(
    plan: &Plan,
    scans: &'s BTreeMap<&str, Scan<'_>>,
    ctx: &mut EvalCtx<'_>,
) -> Result<Batch<'s>, MayError> {
    match plan {
        Plan::Scan(name) => {
            let rel = scans
                .get(name.as_str())
                .ok_or_else(|| MayError::UnknownRelation(name.clone()))?;
            Ok(Batch::from_ref(rel))
        }
        Plan::Select { input, predicate } => {
            let mut b = eval_batch(input, scans, ctx)?;
            // Bound once per relation; the sweep below narrows the live rows
            // a conjunct at a time, reading cells in place through the rowid
            // views.
            let bound = predicate.bind(&b.schema)?;
            let mut sel = b
                .sel
                .take()
                .unwrap_or_else(|| (0..b.descs.len() as u32).collect());
            let views: Vec<ColView<'_>> = b.cols.iter().map(LazyCol::view).collect();
            bound.retain_views(&views, &mut sel, &ctx.strings);
            b.sel = Some(sel);
            Ok(b)
        }
        Plan::Project { input, columns } => {
            let b = eval_batch(input, scans, ctx)?;
            let (schema, idx) = b.schema.project(columns)?;
            // Dedup elision: a projection that keeps every input column is
            // a permutation, so a provably duplicate-free input stays
            // duplicate-free — the set-semantics sweep would be a no-op.
            let permutation = idx.len() == b.schema.arity();
            // A pure column-pointer shuffle: each output column *moves* the
            // input's reference (projection indices are unique, so every
            // source column is taken at most once — no data is copied).
            let mut taken: Vec<Option<LazyCol<'s>>> = b.cols.into_iter().map(Some).collect();
            let cols = idx
                .iter()
                .map(|&i| taken[i].take().expect("projection indices are unique"))
                .collect();
            let mut out = Batch {
                schema: Cow::Owned(schema),
                cols,
                descs: b.descs,
                sel: b.sel,
            };
            if permutation && input.is_distinct() {
                ctx.dedups_elided += 1;
            } else {
                out.dedup(&ctx.pool);
            }
            Ok(out)
        }
        Plan::NaturalJoin { left, right } => {
            // SIP: when the mint guard allows reordering, evaluate the
            // build (right) side first and — if it turns out selective —
            // push a Bloom filter over its key cells into the probe
            // subtree before the probe side runs at all.
            let sip_ok = ctx.sip && !(plan_mints(left) && plan_mints(right));
            let (l, r) = if sip_ok {
                let r = eval_batch(right, scans, ctx)?;
                maybe_register_sip(left, &r, ctx);
                let l = eval_batch(left, scans, ctx)?;
                (l, r)
            } else {
                let l = eval_batch(left, scans, ctx)?;
                let r = eval_batch(right, scans, ctx)?;
                (l, r)
            };
            let jp = l.schema.natural_join(&r.schema)?;
            let l_views: Vec<ColView<'_>> = l.cols.iter().map(LazyCol::view).collect();
            let r_views: Vec<ColView<'_>> = r.cols.iter().map(LazyCol::view).collect();
            // Build on the right side: bucket each live right row by the
            // hash of its key cells, both sides' keys hashed up front a
            // column at a time (no key vector is ever materialized).
            let r_rows: Vec<u32> = r.row_ids().collect();
            let r_hashes = r.key_hashes(jp.shared.iter().map(|&(_, rc)| rc));
            let l_hashes = l.key_hashes(jp.shared.iter().map(|&(lc, _)| lc));
            let mut built = ChainedIndex::with_capacity(r_rows.len());
            for (slot, &h) in r_hashes.iter().enumerate() {
                built.insert(h, slot);
            }
            // Probe with the left key hashes; verify candidates column-wise
            // (after their kept hashes agree). Matches are collected as
            // (left row, right row, descriptor); the output columns are the
            // input columns plus these match lists as rowid indirections.
            // Sequential by design: the probe mints descriptors, and only
            // the calling thread touches the pool.
            let mut l_idx: Vec<u32> = Vec::new();
            let mut r_idx: Vec<u32> = Vec::new();
            let mut descs: Vec<DescId> = Vec::new();
            for (li, h) in l.row_ids().zip(l_hashes) {
                for slot in built.probe(h) {
                    let ri = r_rows[slot];
                    let keys_match = r_hashes[slot] == h
                        && jp.shared.iter().all(|&(lc, rc)| {
                            l_views[lc].eq_cells(li as usize, &r_views[rc], ri as usize)
                        });
                    if !keys_match {
                        continue; // hash collision, not an equi-match
                    }
                    // A joined tuple exists only in worlds where both
                    // inputs exist: the conjunction of the descriptors.
                    // Inconsistent descriptors denote no worlds — drop.
                    if let Some(d) = ctx.pool.conjoin(l.descs[li as usize], r.descs[ri as usize]) {
                        l_idx.push(li);
                        r_idx.push(ri);
                        descs.push(d);
                    }
                }
            }
            drop(l_views);
            drop(r_views);
            // Late materialization: the output columns are the input
            // columns plus the match lists as shared rowid indirections. An
            // indirection already present composes — once per distinct
            // input vector, not per column.
            let mut cols: Vec<LazyCol<'s>> = Vec::with_capacity(jp.schema.arity());
            let l_ids = Arc::new(l_idx);
            let r_ids = Arc::new(r_idx);
            let mut memo: FxHashMap<(usize, usize), Arc<Vec<u32>>> = FxHashMap::default();
            let mut compose = |old: &Option<Arc<Vec<u32>>>, new: &Arc<Vec<u32>>| match old {
                None => Arc::clone(new),
                Some(o) => Arc::clone(
                    memo.entry((Arc::as_ptr(o) as usize, Arc::as_ptr(new) as usize))
                        .or_insert_with(|| Arc::new(new.iter().map(|&i| o[i as usize]).collect())),
                ),
            };
            for c in l.cols {
                let ids = Some(compose(&c.ids, &l_ids));
                cols.push(LazyCol { col: c.col, ids });
            }
            let mut r_taken: Vec<Option<LazyCol<'s>>> = r.cols.into_iter().map(Some).collect();
            for &rc in &jp.right_keep {
                let c = r_taken[rc].take().expect("right_keep indices are unique");
                let ids = Some(compose(&c.ids, &r_ids));
                cols.push(LazyCol { col: c.col, ids });
            }
            let mut out = Batch {
                schema: Cow::Owned(jp.schema),
                cols,
                descs: Cow::Owned(descs),
                sel: None,
            };
            // Dedup elision: joining certain, duplicate-free inputs cannot
            // produce duplicates — distinct row pairs differ in some kept
            // column (a shared-column difference would have failed the key
            // match), and all descriptors conjoin to the trivial one. With
            // uncertain inputs the sweep stays: distinct descriptors can
            // *conjoin* to equal descriptors (absorption), duplicating rows.
            if left.is_certain() && left.is_distinct() && right.is_certain() && right.is_distinct()
            {
                ctx.dedups_elided += 1;
            } else {
                out.dedup(&ctx.pool);
            }
            Ok(out)
        }
        Plan::Union { left, right } => {
            let l = eval_batch(left, scans, ctx)?;
            let r = eval_batch(right, scans, ctx)?;
            l.schema.union_compatible(&r.schema)?;
            // Concatenate column-wise: densify the left side (moves owned
            // columns, memcpys borrowed ones, fuses pending gathers), then
            // append the right side's live rows per column — folding any
            // right-side indirection into the extend index (memoized per
            // distinct id vector).
            let (schema, mut cols, mut descs) = l.into_dense_parts();
            let mut fused: FxHashMap<usize, Vec<u32>> = FxHashMap::default();
            for (c, rc) in cols.iter_mut().zip(&r.cols) {
                match (&r.sel, &rc.ids) {
                    (None, None) => c.extend_all(&rc.col),
                    (Some(sel), None) => c.extend_gather(&rc.col, sel),
                    (sel, Some(ids)) => {
                        let idx =
                            fused
                                .entry(Arc::as_ptr(ids) as usize)
                                .or_insert_with(|| match sel {
                                    Some(s) => s.iter().map(|&i| ids[i as usize]).collect(),
                                    None => ids.as_ref().clone(),
                                });
                        c.extend_gather(&rc.col, idx);
                    }
                }
            }
            match &r.sel {
                Some(sel) => descs.extend(sel.iter().map(|&i| r.descs[i as usize])),
                None => descs.extend_from_slice(&r.descs),
            }
            let mut out = Batch {
                schema,
                cols: cols
                    .into_iter()
                    .map(|c| LazyCol::dense(Cow::Owned(c)))
                    .collect(),
                descs: Cow::Owned(descs),
                sel: None,
            };
            out.dedup(&ctx.pool);
            Ok(out)
        }
        Plan::Rename { input, renames } => {
            let mut b = eval_batch(input, scans, ctx)?;
            // Only the schema changes; columns and selection move through.
            b.schema = Cow::Owned(b.schema.rename(renames)?);
            Ok(b)
        }
        Plan::Ext(op) => {
            let key = Arc::as_ptr(op) as *const () as usize;
            if let Some(cached) = ctx.ext_cache.get(&key) {
                return Ok(Batch::from_owned(cached.clone()));
            }
            let mut inputs = Vec::new();
            for p in op.inputs() {
                inputs.push(eval_batch(p, scans, ctx)?.into_columnar());
            }
            let result = op.eval(ctx, inputs)?;
            ctx.ext_cache.insert(key, result.clone());
            Ok(Batch::from_owned(result))
        }
    }
}

/// Infer the output schema of a plan without evaluating it. This is the
/// relation-map convenience form of [`Plan::schema_with`], which accepts
/// any [`crate::optimize::SchemaProvider`].
pub fn infer_schema(
    plan: &Plan,
    relations: &BTreeMap<String, URelation>,
) -> Result<Schema, MayError> {
    plan.schema_with(relations)
}
