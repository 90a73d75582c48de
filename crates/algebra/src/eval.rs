//! The WSD-level executor: evaluates plans on u-relations without expanding
//! worlds.
//!
//! # The columnar execution core: one row map per column
//!
//! Operators do not shuttle row-oriented [`URelation`]s (which would
//! deep-clone every tuple and every descriptor term vector at every step),
//! nor per-row `(Cow<Tuple>, DescId)` pairs as earlier revisions did.
//! Instead they evaluate on `Batch`es over the columnar form of
//! `maybms-core`: one typed [`ColumnVec`] per attribute, each with an
//! optional **row map** (virtual row `i` reads physical row `ids[i]`), plus
//! a dense [`DescId`] column — the batch's rows. Strings are dictionary
//! codes into a run-global [`StrPool`] and descriptors are handles into a
//! run-global [`DescriptorPool`] — both owned by the run's evaluation
//! context — so string equality anywhere in the executor is an integer
//! compare, and descriptor equality one integer compare or a short slice
//! compare ([`DescriptorPool::same_descriptor`]). Every operator that drops
//! or repeats rows keeps them through `Batch::restrict`, which gathers the
//! descriptor column and composes each column's map. Concretely:
//!
//! * **Scan** borrows the relation's columns as imported into the run's
//!   pools (see *Stored relations* below) — no per-operator copies, and no
//!   per-run conversion of rows.
//! * **Select** narrows a row list a conjunct at a time
//!   ([`crate::predicate::BoundPredicate::retain_views`]): a `column op
//!   literal` conjunct on a non-string column is one typed loop
//!   ([`ColView::retain_cmp`]), anything else is evaluated per row, cells
//!   read in place. The batch restricts to the survivors; no cell is
//!   copied.
//! * **Project** and **Rename** are column-pointer shuffles: projection
//!   moves column references into the output order (set semantics enforced
//!   by a dedup), renaming swaps the schema.
//! * **NaturalJoin** hashes both sides' key columns up front — one
//!   [`ColView::hash_into`] sweep per key column, no key tuples — builds a
//!   flat `ChainedIndex` over the right side's hashes, probes with the left
//!   ones, verifies candidates column-wise, conjoins descriptors
//!   through the pool, and emits **late-materialized** output columns: each
//!   side's columns are restricted to its match list, so the join moves no
//!   cell data at all.
//! * **Union** concatenates column-wise (a dense `memcpy`-style extend for
//!   a column without a map, a gather-extend through it otherwise) and
//!   dedups.
//! * **Dedup** (after project/join/union) hashes every row a column at a
//!   time — reading through the row maps — plus its descriptor's terms,
//!   then keeps first occurrences through a `ChainedIndex` and restricts
//!   the batch to them; it never rebuilds columns.
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
//! The way out takes nothing back. When the plan is done, [`run_with`]
//! moves the run's two pools into the answer beside its output columns
//! ([`URelation::from_run`]): nothing is copied, interned or re-coded, and
//! [`ExecStats`] reads its pool counters off the pools the answer now holds.
//! A `SELECT` answer is read and dropped in that form — its rows, `{}` and
//! statistics read either kind of dictionary. Only a world set that stores
//! it re-codes it over dictionaries of its own (`WorldSet::insert`, or
//! `normalize` for an answer put into `ws.relations` directly): field for
//! field what pushing its rows would make, so the next statement's scan,
//! `normalize` and the statistics cannot tell a `LET` result from a loaded
//! relation — and no `Tuple` or `WsDescriptor` is allocated unless the
//! caller reads [`URelation::rows`]. A run leaves the world set as it found
//! it: [`run_with`] moves the components its repairs minted out again and
//! hands them back beside the answer, or drops them with the error.
//!
//! # Late materialization
//!
//! A column's row map is an `Arc`'d `u32` vector shared by every column
//! restricted by the same row list. Restricting a mapped column *composes*
//! maps (memoized per distinct map) instead of gathering, so a k-way join
//! chain — or a σ or dedup over a join — performs **one** gather per
//! source column, at the next pipeline breaker (`Batch::into_dense_parts`:
//! union inputs, uncertainty-operator inputs, the final emit), instead of
//! k. All sweeps (predicates, row hashing, join keys) read through
//! [`ColView`]s, which fold the map into each cell access (a typed sweep
//! dispatches on it once per column). This is how every row-keeping
//! operator works — there is no eager gather path beside it.
//!
//! Schemas are validated once per operator when the output schema is
//! derived. The uncertainty operators (`repair-key`, `possible`, `certain`,
//! `conf`; [`crate::UOp`]) are columnar too: each receives its input as one
//! dense [`ColumnarURelation`] whose descriptors/strings live in the run's
//! pools and returns one, which the plan above reads like any batch. Every
//! plan node evaluates exactly once per run — the optimizer never
//! duplicates a subtree, so each `REPAIR KEY` of a query mints its own
//! components. Nothing is converted to rows: the final result leaves
//! [`run`] as a [`URelation`] of columns.
//!
//! # Configuration
//!
//! Everything a run can be told is one plain value, [`ExecCfg`] (thread
//! budget, morsel threshold), passed to [`run_with`]. Nothing in
//! this crate reads the process environment.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use maybms_core::columnar::{ColView, ColumnVec, ColumnarURelation, StrPool};
use maybms_core::fxhash::fx_step;
use maybms_core::obs::{ObsCounters, QueryTrace, SpanId, SpanKind, Tracer};
use maybms_core::{
    Component, ComponentSet, ConfStats, DescId, DescriptorPool, FxHashMap, MayError, ParCfg,
    ParStats, PoolStats, Scan, Schema, URelation, WorldSet,
};

use crate::plan::Plan;

/// The executor's run configuration: the thread budget. A plain value the
/// caller holds and passes to [`run_with`]; every budget produces
/// byte-identical results — it trades time, not answers (the
/// `parallel_differential` and `join_differential` suites are the oracle).
/// The default is the machine's parallelism ([`ParCfg::default`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecCfg {
    /// Worker-thread budget (see [`ParCfg`]).
    pub par: ParCfg,
}

/// Evaluation context handed to operators: the component set (mutable, so
/// `repair-key` can mint new components) and the run's interning pools.
pub(crate) struct EvalCtx<'a> {
    /// The components of the world set.
    pub(crate) components: &'a mut ComponentSet,
    /// The run's descriptor interner. Every [`DescId`] flowing through the
    /// executor — including those inside uncertainty-operator inputs and
    /// results — resolves against this pool.
    pub(crate) pool: DescriptorPool,
    /// The run's string dictionary. Every string cell of every columnar
    /// relation in the run is a code into this pool.
    pub(crate) strings: StrPool,
    /// The run's parallelism configuration. Only the two operators that fan
    /// out (`conf`, `certain`) read it, through [`ParCfg::workers_for`], and
    /// results are deterministic for every thread count.
    pub(crate) par: ParCfg,
    /// Parallelism counters accumulated across the run's stages.
    pub(crate) par_stats: ParStats,
    /// Confidence-solver counters accumulated across the run's `conf`
    /// evaluations (exact and sampled groups, steps, draws, largest group).
    pub(crate) conf_stats: ConfStats,
    /// The run's span recorder. Disabled (every call a cheap no-op) except
    /// when [`run_with`] is asked to trace. Plan nodes and their phases are
    /// spans of it alike; the operators open phases through
    /// [`EvalCtx::phase`].
    pub(crate) tracer: Tracer,
    /// Dedup sweeps skipped because a plan property proved them redundant
    /// (surfaced through [`ExecStats::dedups_elided`]).
    dedups_elided: usize,
}

impl<'a> EvalCtx<'a> {
    /// Build a fresh context (with fresh interning pools) for one run under
    /// `cfg`.
    fn with_exec(components: &'a mut ComponentSet, cfg: ExecCfg) -> Self {
        EvalCtx {
            components,
            pool: DescriptorPool::new(),
            strings: StrPool::new(),
            par: cfg.par,
            par_stats: ParStats::default(),
            conf_stats: ConfStats::default(),
            tracer: Tracer::disabled(),
            dedups_elided: 0,
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

    /// Open a span under the open one. With tracing off this reads no
    /// clock, takes no snapshot and builds no label.
    fn span_enter(&mut self, kind: SpanKind, label: impl Into<String>) -> SpanId {
        if !self.tracer.is_enabled() {
            return SpanId::NONE;
        }
        let snap = self.counters_now();
        self.tracer.enter(kind, label.into(), snap)
    }

    /// Close a span [`EvalCtx::span_enter`] opened.
    fn span_exit(&mut self, id: SpanId, rows_out: u64) {
        if id == SpanId::NONE {
            return;
        }
        let snap = self.counters_now();
        self.tracer.exit(id, rows_out, snap);
    }

    /// Run `f` as the phase `label` of the open plan node: one
    /// [`SpanKind::Phase`] span around it, charged with the counters it
    /// moves, whose items `f` counts into its second argument. The span
    /// closes on every path out of `f`, an error too.
    pub(crate) fn phase<T>(&mut self, label: &str, f: impl FnOnce(&mut Self, &mut u64) -> T) -> T {
        let span = self.span_enter(SpanKind::Phase, label);
        let mut items = 0;
        let out = f(self, &mut items);
        self.span_exit(span, items);
        out
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
    /// Never written (the executor passes no information sideways); the
    /// frozen `perfbench` adapter reads it.
    pub sip: SipStats,
}

/// The counters of the sideways information passing the executor no longer
/// does. Never written; kept because the frozen `perfbench` adapter reads
/// [`ExecStats::sip`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SipStats {
    /// Always 0.
    pub filters_built: u64,
    /// Always 0.
    pub probe_rows_tested: u64,
    /// Always 0.
    pub probe_rows_pruned: u64,
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

/// One output column of a batch: the stored column plus an optional shared
/// row map — *virtual* row `i` lives at *physical* row `ids[i]`. Every
/// operator that keeps a subset or a multiset of rows (σ, dedup, ⋈) gives
/// the columns a map through [`Batch::restrict`] instead of gathering; the
/// one gather per column happens at the next pipeline breaker
/// ([`Batch::into_dense_parts`]). The maps are `Arc`'d because every column
/// restricted by one row list shares one map.
struct LazyCol<'s> {
    /// The stored cells. Dense columns have one cell per virtual row;
    /// mapped columns are addressed through `ids`.
    col: Cow<'s, ColumnVec>,
    /// The virtual→physical row map, `None` when the column is dense.
    /// When present, `ids.len()` equals the batch's row count.
    ids: Option<Arc<Vec<u32>>>,
}

impl<'s> LazyCol<'s> {
    /// A column with no row map.
    fn dense(col: Cow<'s, ColumnVec>) -> LazyCol<'s> {
        LazyCol { col, ids: None }
    }

    /// A cell-addressable view folding the row map (the read handle every
    /// sweep goes through).
    #[inline]
    fn view(&self) -> ColView<'_> {
        ColView::with_ids(&self.col, self.ids.as_deref().map(Vec::as_slice))
    }
}

/// Keep the virtual rows `rows` (in output order) of every column in
/// `cols`: a dense column takes `rows` as its map, a mapped one `rows`
/// composed with the map it had — built once per distinct map (memoized by
/// `Arc` address), so columns that shared a map share the composition. The
/// keys are the maps the columns hold on entry, all alive at once, so no two
/// distinct maps share an address.
fn restrict_cols(cols: &mut [LazyCol<'_>], rows: Vec<u32>) {
    let rows = Arc::new(rows);
    let mut composed: FxHashMap<usize, Arc<Vec<u32>>> = FxHashMap::default();
    for c in cols {
        let ids = match &c.ids {
            None => Arc::clone(&rows),
            Some(old) => Arc::clone(
                composed
                    .entry(Arc::as_ptr(old) as usize)
                    .or_insert_with(|| Arc::new(rows.iter().map(|&i| old[i as usize]).collect())),
            ),
        };
        c.ids = Some(ids);
    }
}

/// The executor's unit of data flow: columnar storage (borrowed from the
/// run's scans until an operator materializes new columns), each column
/// with an optional row map deferred by σ, dedup or a join. The batch's
/// rows are its descriptor column.
struct Batch<'s> {
    schema: Cow<'s, Schema>,
    cols: Vec<LazyCol<'s>>,
    /// Descriptor handles, one per row, always dense (an operator that
    /// keeps rows gathers them — they are single `u32` handles, not cell
    /// data, so deferring them buys nothing).
    descs: Cow<'s, [DescId]>,
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
        }
    }

    /// Take ownership of an uncertainty operator's result.
    fn from_owned(rel: ColumnarURelation) -> Batch<'s> {
        let (schema, cols, descs) = rel.into_parts();
        Batch {
            schema: Cow::Owned(schema),
            cols: cols
                .into_iter()
                .map(|c| LazyCol::dense(Cow::Owned(c)))
                .collect(),
            descs: Cow::Owned(descs),
        }
    }

    /// Number of rows.
    fn len(&self) -> usize {
        self.descs.len()
    }

    /// Keep the rows `rows` (row ids, in output order, repeats allowed):
    /// gather the descriptor column and restrict every column's row map
    /// ([`restrict_cols`]). The one way an operator drops or repeats rows.
    fn restrict(&mut self, rows: Vec<u32>) {
        self.descs = Cow::Owned(rows.iter().map(|&i| self.descs[i as usize]).collect());
        restrict_cols(&mut self.cols, rows);
    }

    /// Fold the key cells `key` of every row into one hash per row — a
    /// [`ColView::hash_into`] sweep per key column. Equal keys hash equally
    /// (on either side of a join: both sides' columns encode into the run's
    /// pools).
    fn key_hashes(&self, key: impl IntoIterator<Item = usize>) -> Vec<u64> {
        let mut hashes = vec![0; self.len()];
        for c in key {
            self.cols[c].view().hash_into(&mut hashes);
        }
        hashes
    }

    /// Whether two rows carry equal cells and equal descriptors.
    #[inline]
    fn rows_eq(&self, a: usize, b: usize, pool: &DescriptorPool) -> bool {
        pool.same_descriptor(self.descs[a], self.descs[b])
            && self.cols.iter().all(|c| {
                let v = c.view();
                v.eq_cells(a, &v, b)
            })
    }

    /// Drop duplicate `(tuple, descriptor)` rows, keeping first occurrences
    /// in order — by restricting to the kept rows, never touching the
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
        for (h, &d) in hashes.iter_mut().zip(self.descs.iter()) {
            for &(c, a) in pool.terms(d) {
                *h = fx_step(fx_step(*h, c.0 as u64), a as u64);
            }
        }
        let mut index = ChainedIndex::with_capacity(n);
        let mut kept: Vec<u32> = Vec::with_capacity(n);
        for (i, &h) in hashes.iter().enumerate() {
            let dup = index
                .probe(h)
                .any(|k| hashes[k] == h && self.rows_eq(k, i, pool));
            if !dup {
                index.insert(h, i);
                kept.push(i as u32);
            }
        }
        if kept.len() < n {
            self.restrict(kept);
        }
    }

    /// Apply every pending row map, yielding dense owned columns and
    /// descriptors — the pipeline breaker where deferred gathers finally
    /// happen, one per mapped column. Dense borrowed columns are cloned (a
    /// contiguous `memcpy` per column) and owned ones move.
    fn into_dense_parts(self) -> (Cow<'s, Schema>, Vec<ColumnVec>, Vec<DescId>) {
        let cols = self
            .cols
            .into_iter()
            .map(|c| match c.ids {
                None => c.col.into_owned(),
                Some(ids) => c.col.gather(&ids),
            })
            .collect();
        (self.schema, cols, self.descs.into_owned())
    }

    /// Materialize as a standalone columnar relation (descriptors and string
    /// codes stay relative to the run's pools).
    fn into_columnar(self) -> ColumnarURelation {
        let (schema, cols, descs) = self.into_dense_parts();
        ColumnarURelation::from_parts(schema.into_owned(), cols, descs)
    }
}

/// Evaluate a plan against a world set and commit what it minted: the
/// components its `repair-key` nodes created are appended to
/// `ws.components`, so the answer's descriptors can be read against `ws` and
/// the answer stored with `ws.insert`. The base relations are untouched.
///
/// Every node evaluates once, so two `repair-key` nodes are two independent
/// repairs even when they are equal. To repair once and use the result
/// twice, store it (`ws.insert`) and scan it twice — the components then
/// belong to the stored relation.
pub fn run(ws: &mut WorldSet, plan: &Plan) -> Result<URelation, MayError> {
    run_committed(ws, plan, &ExecCfg::default(), false).map(|(result, _, _)| result)
}

/// [`run`] under an explicit configuration — the general entry point:
/// returns the result, the components the run minted, the run's
/// [`ExecStats`], and, when `traced`, its [`QueryTrace`] — a span per
/// evaluated plan node (plus operator sub-phases), each annotated with wall
/// time, rows, and the counters the node incurred; the trace is what
/// `EXPLAIN ANALYZE` renders and what [`QueryTrace::to_json`] exports for
/// Perfetto. The result is byte-identical for every `cfg` and with tracing
/// on or off (the tracer only *observes*); the differential suites drive
/// this entry to pin that.
///
/// A run leaves `ws` as it found it: the components its `repair-key` nodes
/// mint (ids from the starting `ws.components.len()` up) are moved out of
/// `ws.components` before it returns. On success they come back beside the
/// answer, whose descriptors name them; the caller commits them with it
/// (`WorldSet::commit`, a MayQL `LET`) or drops them (a read). On failure
/// they drop with the error, so there is nothing to roll back.
pub fn run_with(
    ws: &mut WorldSet,
    plan: &Plan,
    cfg: &ExecCfg,
    traced: bool,
) -> Result<(URelation, Vec<Component>, ExecStats, Option<QueryTrace>), MayError> {
    let started = std::time::Instant::now();
    let WorldSet {
        components,
        relations,
    } = ws;
    let minted_from = components.len();
    let mut ctx = EvalCtx::with_exec(components, *cfg);
    if traced {
        ctx.tracer = Tracer::enabled();
    }
    // Import every scanned base relation into the run's pools once,
    // up front. The scans live outside the context so batches can borrow
    // them while operators keep mutable access to the pools.
    let relations = &*relations;
    let scans = ctx.phase("scan-convert", |ctx, converted_rows| {
        let mut scans: BTreeMap<&str, Scan<'_>> = BTreeMap::new();
        for name in plan.scans() {
            let rel = relations
                .get(name)
                .ok_or_else(|| MayError::UnknownRelation(name.to_string()))?;
            *converted_rows += rel.len() as u64;
            scans.insert(name, rel.scan(&mut ctx.pool, &mut ctx.strings));
        }
        Ok::<_, MayError>(scans)
    })?;
    // The world set leaves the run as it came in: what the repairs minted
    // goes with the answer, or with the error.
    let batch = eval_batch(plan, &scans, &mut ctx);
    let minted = ctx.components.split_off(minted_from);
    let batch = batch?;
    // The answer leaves as columns, over the run's pools. Rows are built if
    // and when someone reads them.
    let (pool, strings) = (
        std::mem::take(&mut ctx.pool),
        std::mem::take(&mut ctx.strings),
    );
    let result = URelation::from_run(batch.into_columnar(), pool, strings);
    let stats = ExecStats {
        wall_nanos: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        descriptors: result.descriptors().len(),
        pool: result.descriptors().stats(),
        strings: result.strings().len(),
        output_rows: result.len(),
        dedups_elided: ctx.dedups_elided,
        threads: ctx.par.threads,
        par: ctx.par_stats,
        conf: ctx.conf_stats,
        sip: SipStats::default(),
    };
    let trace = traced.then(|| {
        let threads = ctx.par.threads;
        std::mem::take(&mut ctx.tracer).finish(threads)
    });
    Ok((result, minted, stats, trace))
}

/// [`run_with`], with the minted components appended to `ws.components` —
/// the contract of the result-only entry points, whose callers store or read
/// the answer against `ws`.
fn run_committed(
    ws: &mut WorldSet,
    plan: &Plan,
    cfg: &ExecCfg,
    traced: bool,
) -> Result<(URelation, ExecStats, Option<QueryTrace>), MayError> {
    let (result, minted, stats, trace) = run_with(ws, plan, cfg, traced)?;
    ws.components.extend(minted);
    Ok((result, stats, trace))
}

/// [`run_with`] for the frozen `perfbench/src/engine.rs` adapter: a thread
/// budget, result only, minted components committed as [`run`] does. The
/// next `benchmark` PR moves the adapter to [`run_with`] and deletes this.
pub fn run_with_opts(ws: &mut WorldSet, plan: &Plan, par: &ParCfg) -> Result<URelation, MayError> {
    let cfg = ExecCfg { par: *par };
    run_committed(ws, plan, &cfg, false).map(|(result, _, _)| result)
}

/// Traced [`run_with`] for the frozen `perfbench/src/engine.rs` adapter,
/// minted components committed as [`run`] does. The next `benchmark` PR
/// moves the adapter to [`run_with`] and deletes this.
pub fn run_traced(
    ws: &mut WorldSet,
    plan: &Plan,
    par: &ParCfg,
) -> Result<(URelation, ExecStats, QueryTrace), MayError> {
    let cfg = ExecCfg { par: *par };
    run_committed(ws, plan, &cfg, true)
        .map(|(result, stats, trace)| (result, stats, trace.expect("tracing was requested")))
}

/// Span-wrapping entry for each plan node: the untraced path is a single
/// branch on the tracer's enabled bool before delegating to
/// [`eval_batch_inner`] — this is the whole per-node cost of having the
/// tracer compiled in. The traced path opens a span labelled exactly like
/// the `EXPLAIN` tree line and charges the node the counter delta across
/// its evaluation. Children evaluate in plan order (a join's left side
/// before its right), so a trace's node spans open in plan pre-order.
fn eval_batch<'s>(
    plan: &Plan,
    scans: &'s BTreeMap<&str, Scan<'_>>,
    ctx: &mut EvalCtx<'_>,
) -> Result<Batch<'s>, MayError> {
    if !ctx.tracer.is_enabled() {
        return eval_batch_inner(plan, scans, ctx);
    }
    let span = ctx.span_enter(SpanKind::Node, plan.node_label());
    let result = eval_batch_inner(plan, scans, ctx);
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
            // Bound once per relation; the sweep below narrows a row list a
            // conjunct at a time, reading cells in place through the row
            // maps, and the batch keeps the survivors.
            let bound = predicate.bind(&b.schema)?;
            let mut rows: Vec<u32> = (0..b.len() as u32).collect();
            let views: Vec<ColView<'_>> = b.cols.iter().map(LazyCol::view).collect();
            bound.retain_views(&views, &mut rows, &ctx.strings);
            drop(views);
            if rows.len() < b.len() {
                b.restrict(rows);
            }
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
            };
            if permutation && input.is_distinct() {
                ctx.dedups_elided += 1;
            } else {
                out.dedup(&ctx.pool);
            }
            Ok(out)
        }
        Plan::NaturalJoin { left, right } => {
            let l = eval_batch(left, scans, ctx)?;
            let r = eval_batch(right, scans, ctx)?;
            let jp = l.schema.natural_join(&r.schema)?;
            let l_views: Vec<ColView<'_>> = l.cols.iter().map(LazyCol::view).collect();
            let r_views: Vec<ColView<'_>> = r.cols.iter().map(LazyCol::view).collect();
            // Build on the right side: bucket each right row by the hash of
            // its key cells, both sides' keys hashed up front a column at a
            // time (no key vector is ever materialized).
            let r_hashes = r.key_hashes(jp.shared.iter().map(|&(_, rc)| rc));
            let l_hashes = l.key_hashes(jp.shared.iter().map(|&(lc, _)| lc));
            let mut built = ChainedIndex::with_capacity(r.len());
            for (ri, &h) in r_hashes.iter().enumerate() {
                built.insert(h, ri);
            }
            // Probe with the left key hashes; verify candidates column-wise
            // (after their kept hashes agree). Matches are collected as
            // (left row, right row, descriptor); each side's columns then
            // keep their match list.
            // Sequential by design: the probe mints descriptors, and only
            // the calling thread touches the pool.
            let mut l_idx: Vec<u32> = Vec::new();
            let mut r_idx: Vec<u32> = Vec::new();
            let mut descs: Vec<DescId> = Vec::new();
            for (li, &h) in l_hashes.iter().enumerate() {
                for ri in built.probe(h) {
                    let keys_match = r_hashes[ri] == h
                        && jp
                            .shared
                            .iter()
                            .all(|&(lc, rc)| l_views[lc].eq_cells(li, &r_views[rc], ri));
                    if !keys_match {
                        continue; // hash collision, not an equi-match
                    }
                    // A joined tuple exists only in worlds where both
                    // inputs exist: the conjunction of the descriptors.
                    // Inconsistent descriptors denote no worlds — drop.
                    if let Some(d) = ctx.pool.conjoin(l.descs[li], r.descs[ri]) {
                        l_idx.push(li as u32);
                        r_idx.push(ri as u32);
                        descs.push(d);
                    }
                }
            }
            drop(l_views);
            drop(r_views);
            // Late materialization: each side's columns keep their match
            // list as a row map, so the join moves no cell data.
            let mut cols = l.cols;
            restrict_cols(&mut cols, l_idx);
            let mut r_taken: Vec<Option<LazyCol<'s>>> = r.cols.into_iter().map(Some).collect();
            let mut r_cols: Vec<LazyCol<'s>> = jp
                .right_keep
                .iter()
                .map(|&rc| r_taken[rc].take().expect("right_keep indices are unique"))
                .collect();
            restrict_cols(&mut r_cols, r_idx);
            cols.append(&mut r_cols);
            let mut out = Batch {
                schema: Cow::Owned(jp.schema),
                cols,
                descs: Cow::Owned(descs),
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
            // columns, memcpys borrowed ones, applies pending row maps), then
            // append the right side's rows per column through its row map.
            let (schema, mut cols, mut descs) = l.into_dense_parts();
            for (c, rc) in cols.iter_mut().zip(&r.cols) {
                match &rc.ids {
                    None => c.extend_all(&rc.col),
                    Some(ids) => c.extend_gather(&rc.col, ids),
                }
            }
            descs.extend_from_slice(&r.descs);
            let mut out = Batch {
                schema,
                cols: cols
                    .into_iter()
                    .map(|c| LazyCol::dense(Cow::Owned(c)))
                    .collect(),
                descs: Cow::Owned(descs),
            };
            out.dedup(&ctx.pool);
            Ok(out)
        }
        Plan::Rename { input, renames } => {
            let mut b = eval_batch(input, scans, ctx)?;
            // Only the schema changes; columns and row maps move through.
            b.schema = Cow::Owned(b.schema.rename(renames)?);
            Ok(b)
        }
        Plan::Uncertain { op, input } => {
            let input = eval_batch(input, scans, ctx)?.into_columnar();
            Ok(Batch::from_owned(op.eval(ctx, input)?))
        }
    }
}
