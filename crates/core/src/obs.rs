//! Observability: per-query trace spans and a process-wide metrics registry.
//!
//! Two complementary instruments live here, both dependency-free:
//!
//! * [`Tracer`] — a per-run recorder producing a [`QueryTrace`]: a tree of
//!   spans, one per plan node (plus leaf *phase* spans for interesting
//!   sub-steps such as canonical sorts or the confidence solve). Each span
//!   records wall time, output rows, and a delta of the run's counters
//!   ([`ObsCounters`]) between span enter and exit, so pool traffic, morsel
//!   fan-out, and conf-solver work are *attributed to the node that incurred
//!   them* instead of being pooled run-wide. Traces render as an annotated
//!   plan tree (`EXPLAIN ANALYZE`) and export as Chrome trace-event JSON
//!   ([`QueryTrace::to_json`]) loadable in `chrome://tracing` or Perfetto.
//! * [`Metrics`] — a process-wide registry of monotonic counters and
//!   log-linear histograms on plain `AtomicU64`s, reachable from anywhere
//!   via [`metrics`]. Every executor run publishes its `ExecStats` into it,
//!   making the per-run struct a *view* over the durable registry — the
//!   substrate a future server's `/metrics` endpoint will render.
//!
//! The tracer is built to be cheap when disabled: every instrumentation
//! site first checks [`Tracer::is_enabled`] (one branch on a bool) and only
//! then materializes labels or counter snapshots. A disabled run performs a
//! handful of such branches per plan node — noise next to evaluating even a
//! single morsel.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counter snapshots
// ---------------------------------------------------------------------------

/// A point-in-time snapshot of the run-scoped (and one global) counters the
/// tracer attributes to spans. Spans store the *delta* between the enter and
/// exit snapshots, so each node is charged only for what happened inside it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsCounters {
    /// Morsels (parallel tasks) dispatched.
    pub morsels: u64,
    /// Descriptor-pool intern calls.
    pub intern_calls: u64,
    /// Descriptor-pool intern calls answered from the pool (hits).
    pub intern_hits: u64,
    /// Descriptor dictionary entries the scans appended to the pool.
    pub imported: u64,
    /// Descriptor conjunction (`conjoin`) calls.
    pub conjoin_calls: u64,
    /// Confidence groups solved by the exact factorized path.
    pub exact_groups: u64,
    /// Confidence groups estimated by sampling.
    pub sampled_groups: u64,
    /// Sampled confidence groups that took the Karp–Luby estimator (the
    /// rest took plain Monte Carlo).
    pub karp_luby_groups: u64,
    /// Elimination steps spent on exactly solved confidence groups.
    pub exact_steps: u64,
    /// Monte Carlo / Karp–Luby draws performed.
    pub samples_drawn: u64,
    /// Worker busy nanoseconds (from the global registry — see
    /// [`Metrics::par_busy_nanos`]); drives the occupancy annotation.
    pub busy_nanos: u64,
}

impl ObsCounters {
    /// The per-field difference `self - earlier`, saturating at zero.
    /// (`busy_nanos` reads a *global* counter, so concurrent runs can make
    /// an individual window non-monotonic; saturation keeps deltas sane.)
    #[must_use]
    pub fn since(&self, earlier: &ObsCounters) -> ObsCounters {
        ObsCounters {
            morsels: self.morsels.saturating_sub(earlier.morsels),
            intern_calls: self.intern_calls.saturating_sub(earlier.intern_calls),
            intern_hits: self.intern_hits.saturating_sub(earlier.intern_hits),
            imported: self.imported.saturating_sub(earlier.imported),
            conjoin_calls: self.conjoin_calls.saturating_sub(earlier.conjoin_calls),
            exact_groups: self.exact_groups.saturating_sub(earlier.exact_groups),
            sampled_groups: self.sampled_groups.saturating_sub(earlier.sampled_groups),
            karp_luby_groups: self
                .karp_luby_groups
                .saturating_sub(earlier.karp_luby_groups),
            exact_steps: self.exact_steps.saturating_sub(earlier.exact_steps),
            samples_drawn: self.samples_drawn.saturating_sub(earlier.samples_drawn),
            busy_nanos: self.busy_nanos.saturating_sub(earlier.busy_nanos),
        }
    }

    fn add(&mut self, other: &ObsCounters) {
        self.morsels += other.morsels;
        self.intern_calls += other.intern_calls;
        self.intern_hits += other.intern_hits;
        self.imported += other.imported;
        self.conjoin_calls += other.conjoin_calls;
        self.exact_groups += other.exact_groups;
        self.sampled_groups += other.sampled_groups;
        self.karp_luby_groups += other.karp_luby_groups;
        self.exact_steps += other.exact_steps;
        self.samples_drawn += other.samples_drawn;
        self.busy_nanos += other.busy_nanos;
    }
}

// ---------------------------------------------------------------------------
// Tracer and spans
// ---------------------------------------------------------------------------

/// What a span describes: a plan node, or a sub-phase inside one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// One operator of the executed plan tree.
    Node,
    /// A leaf phase inside an operator (e.g. `sort`, `solve`); its
    /// `rows_out` counts phase items, not relation rows.
    Phase,
}

/// One recorded span of a [`QueryTrace`].
#[derive(Clone, Debug)]
pub struct Span {
    /// Operator label (matches the `EXPLAIN` plan-tree line) or phase name.
    pub label: String,
    /// Index of the enclosing span within [`QueryTrace::spans`], if any.
    pub parent: Option<u32>,
    /// Nesting depth (roots are 0); equals the chain length to the root.
    pub depth: u32,
    /// Node vs phase — phases render indented with a `·` marker.
    pub kind: SpanKind,
    /// Start offset from the trace origin, in nanoseconds.
    pub start_nanos: u64,
    /// Inclusive wall-clock duration, in nanoseconds.
    pub dur_nanos: u64,
    /// Rows produced (for [`SpanKind::Node`]) or items processed (for
    /// [`SpanKind::Phase`]).
    pub rows_out: u64,
    /// Inclusive counter delta between span enter and exit.
    pub counters: ObsCounters,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
/// The sentinel [`SpanId::NONE`] makes the whole enter/exit pair a no-op,
/// which is how disabled tracing stays branch-cheap at call sites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The no-op handle a disabled tracer hands out.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// Records a tree of spans for one executor run. Construct with
/// [`Tracer::disabled`] (the default inside `EvalCtx`) or
/// [`Tracer::enabled`]; consume with [`Tracer::finish`].
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans: (span index, counter snapshot at enter).
    stack: Vec<(u32, ObsCounters)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A tracer that records nothing; every method is a cheap no-op.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording tracer whose clock starts now.
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded. Instrumentation sites branch on
    /// this before building labels or counter snapshots.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span as a child of the currently open span (or as a root).
    /// Returns [`SpanId::NONE`] when disabled.
    pub fn enter(&mut self, label: String, snap: ObsCounters) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().map(|&(p, _)| p);
        self.spans.push(Span {
            label,
            parent,
            depth: self.stack.len() as u32,
            kind: SpanKind::Node,
            start_nanos: nanos_u64(self.origin.elapsed()),
            dur_nanos: 0,
            rows_out: 0,
            counters: ObsCounters::default(),
        });
        self.stack.push((id, snap));
        SpanId(id)
    }

    /// Close the span `id`, recording its duration, output rows, and the
    /// counter delta since [`Tracer::enter`]. No-op for [`SpanId::NONE`].
    pub fn exit(&mut self, id: SpanId, rows_out: u64, snap: ObsCounters) {
        if id == SpanId::NONE {
            return;
        }
        let (top, entered) = self.stack.pop().expect("exit without a matching enter");
        debug_assert_eq!(top, id.0, "spans must exit in LIFO order");
        let span = &mut self.spans[top as usize];
        span.dur_nanos = nanos_u64(self.origin.elapsed()).saturating_sub(span.start_nanos);
        span.rows_out = rows_out;
        span.counters = snap.since(&entered);
    }

    /// A timestamp for a later [`Tracer::event`] call — `None` when
    /// disabled, so the phase being timed pays nothing.
    #[inline]
    pub fn now(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Record a completed leaf phase (e.g. a sort that just finished) under
    /// the currently open span. `started` comes from [`Tracer::now`]; when
    /// it is `None` the call is a no-op.
    pub fn event(&mut self, label: &str, started: Option<Instant>, items: u64) {
        self.event_with(label, started, items, ObsCounters::default());
    }

    /// [`Tracer::event`] for a phase that also reports counters of its own
    /// (the nonzero ones render after `items=`).
    pub fn event_with(
        &mut self,
        label: &str,
        started: Option<Instant>,
        items: u64,
        counters: ObsCounters,
    ) {
        let Some(started) = started else { return };
        if !self.enabled {
            return;
        }
        let start_nanos = nanos_u64(started.duration_since(self.origin));
        self.spans.push(Span {
            label: label.to_owned(),
            parent: self.stack.last().map(|&(p, _)| p),
            depth: self.stack.len() as u32,
            kind: SpanKind::Phase,
            start_nanos,
            dur_nanos: nanos_u64(started.elapsed()),
            rows_out: items,
            counters,
        });
    }

    /// Finish recording and produce the trace. `threads` is the worker
    /// budget of the run (drives the occupancy annotation).
    pub fn finish(self, threads: usize) -> QueryTrace {
        debug_assert!(self.stack.is_empty(), "all spans must be closed");
        QueryTrace {
            total_nanos: nanos_u64(self.origin.elapsed()),
            threads: threads.max(1),
            spans: self.spans,
        }
    }
}

fn nanos_u64(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// QueryTrace: rendering and export
// ---------------------------------------------------------------------------

/// The finished trace of one executor run: spans in execution pre-order
/// (a span's index is its stable node id; parents precede children).
#[derive(Clone, Debug)]
pub struct QueryTrace {
    /// All spans, in the order they were entered.
    pub spans: Vec<Span>,
    /// Wall time from tracer construction to [`Tracer::finish`].
    pub total_nanos: u64,
    /// Worker budget of the traced run (≥ 1).
    pub threads: usize,
}

impl QueryTrace {
    /// The number of [`SpanKind::Node`] spans (one per evaluated plan node).
    pub fn node_span_count(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| s.kind == SpanKind::Node)
            .count()
    }

    /// The root *plan node* span, if one was recorded. Root-level phase
    /// events (like the up-front `scan-convert`) are skipped: they are
    /// siblings of the plan root, not its operators.
    pub fn root(&self) -> Option<&Span> {
        self.spans
            .iter()
            .find(|s| s.parent.is_none() && s.kind == SpanKind::Node)
    }

    /// Counters of span `i` *exclusive* of its direct children — what the
    /// node itself incurred. (Children's inclusive counters are subtracted,
    /// saturating: the global busy counter can race across windows.)
    pub fn exclusive(&self, i: usize) -> ObsCounters {
        let mut child_sum = ObsCounters::default();
        let me = i as u32;
        for s in &self.spans {
            if s.parent == Some(me) {
                child_sum.add(&s.counters);
            }
        }
        self.spans[i].counters.since(&child_sum)
    }

    /// Rows flowing *into* span `i`: the sum of its direct node-children's
    /// output rows. `None` for leaves (scans, cached subtrees).
    pub fn rows_in(&self, i: usize) -> Option<u64> {
        let me = i as u32;
        let mut any = false;
        let mut sum = 0;
        for s in &self.spans {
            if s.parent == Some(me) && s.kind == SpanKind::Node {
                any = true;
                sum += s.rows_out;
            }
        }
        any.then_some(sum)
    }

    /// Render the annotated plan tree — the body of `EXPLAIN ANALYZE`.
    ///
    /// Each node line carries `time=` (inclusive wall time), `rows=` /
    /// `in=`, and its nonzero *exclusive* counters; phase lines are marked
    /// `·` and report `items=`. Occupancy (`occ=`) appears only on nodes
    /// that dispatched morsels themselves.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            for _ in 0..s.depth {
                out.push_str("  ");
            }
            match s.kind {
                SpanKind::Phase => {
                    out.push_str("· ");
                    out.push_str(&s.label);
                    let mut ann = format!("time={} items={}", fmt_ms(s.dur_nanos), s.rows_out);
                    push_nonzero(&mut ann, "imported", s.counters.imported);
                    out.push_str(&format!("  ({ann})"));
                }
                SpanKind::Node => {
                    out.push_str(&s.label);
                    let excl = self.exclusive(i);
                    let mut ann = format!("time={} rows={}", fmt_ms(s.dur_nanos), s.rows_out);
                    if let Some(rows_in) = self.rows_in(i) {
                        ann.push_str(&format!(" in={rows_in}"));
                    }
                    push_nonzero(&mut ann, "morsels", excl.morsels);
                    push_nonzero(&mut ann, "interns", excl.intern_calls);
                    push_nonzero(&mut ann, "intern_hits", excl.intern_hits);
                    push_nonzero(&mut ann, "conjoins", excl.conjoin_calls);
                    push_nonzero(&mut ann, "exact_groups", excl.exact_groups);
                    push_nonzero(&mut ann, "sampled_groups", excl.sampled_groups);
                    push_nonzero(&mut ann, "karp_luby", excl.karp_luby_groups);
                    push_nonzero(&mut ann, "exact_steps", excl.exact_steps);
                    push_nonzero(&mut ann, "draws", excl.samples_drawn);
                    if excl.morsels > 0 && s.dur_nanos > 0 {
                        let denom = s.dur_nanos.saturating_mul(self.threads as u64);
                        let occ = 100.0 * excl.busy_nanos as f64 / denom as f64;
                        ann.push_str(&format!(" occ={occ:.0}%"));
                    }
                    out.push_str(&format!("  ({ann})"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Serialize as Chrome trace-event JSON (the `traceEvents` array of
    /// complete `"X"` events, microsecond timestamps). The output loads
    /// directly in `chrome://tracing` and Perfetto; span containment is
    /// expressed through timestamp nesting on one thread lane.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let cat = match s.kind {
                SpanKind::Node => "plan",
                SpanKind::Phase => "phase",
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{",
                json_escape(&s.label),
                cat,
                s.start_nanos as f64 / 1e3,
                s.dur_nanos as f64 / 1e3,
            ));
            out.push_str(&format!("\"node\":{i},\"rows_out\":{}", s.rows_out));
            if let Some(p) = s.parent {
                out.push_str(&format!(",\"parent\":{p}"));
            }
            let c = &s.counters;
            for (key, v) in [
                ("morsels", c.morsels),
                ("intern_calls", c.intern_calls),
                ("intern_hits", c.intern_hits),
                ("imported", c.imported),
                ("conjoin_calls", c.conjoin_calls),
                ("exact_groups", c.exact_groups),
                ("sampled_groups", c.sampled_groups),
                ("karp_luby_groups", c.karp_luby_groups),
                ("exact_steps", c.exact_steps),
                ("samples_drawn", c.samples_drawn),
                ("busy_nanos", c.busy_nanos),
            ] {
                if v != 0 {
                    out.push_str(&format!(",\"{key}\":{v}"));
                }
            }
            out.push_str("}}");
        }
        out.push_str(&format!(
            "],\"otherData\":{{\"total_nanos\":{},\"threads\":{}}}}}",
            self.total_nanos, self.threads
        ));
        out
    }
}

fn fmt_ms(nanos: u64) -> String {
    format!("{:.3}ms", nanos as f64 / 1e6)
}

fn push_nonzero(ann: &mut String, key: &str, v: u64) {
    if v != 0 {
        ann.push_str(&format!(" {key}={v}"));
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (`const`, so registries can be `static`).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Linear buckets below `2^LINEAR_BITS`; above that, each power-of-two
/// octave splits into `1 << SUB_BITS` sub-buckets (HdrHistogram-style
/// log-linear layout). Relative bucket width is ≤ 25% everywhere.
const LINEAR_BITS: u32 = 2;
const SUB_BITS: u32 = 2;
const SUBS: usize = 1 << SUB_BITS; // 4 sub-buckets per octave
const BUCKETS: usize = SUBS + (64 - LINEAR_BITS as usize) * SUBS; // 252

/// A lock-free log-linear histogram of `u64` samples (no deps: fixed
/// `AtomicU64` buckets). Records exact `count`/`sum` and bucketed
/// quantiles with ≤ 25% relative error.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn bucket_index(v: u64) -> usize {
        if v < (1 << LINEAR_BITS) {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros(); // >= LINEAR_BITS
        let sub = ((v >> (octave - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        SUBS + (octave - LINEAR_BITS) as usize * SUBS + sub
    }

    /// The smallest value mapping to bucket `idx` (used as the reported
    /// quantile value — a ≤ 25% underestimate by construction).
    fn bucket_floor(idx: usize) -> u64 {
        if idx < SUBS {
            return idx as u64;
        }
        let octave = LINEAR_BITS + ((idx - SUBS) / SUBS) as u32;
        let sub = ((idx - SUBS) % SUBS) as u64;
        (1u64 << octave) + sub * (1u64 << (octave - SUB_BITS))
    }

    /// Record one sample.
    pub fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Approximate `q`-quantile (0 ≤ q ≤ 1): the floor of the first bucket
    /// whose cumulative count reaches `q · count`. Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Self::bucket_floor(idx);
            }
        }
        Self::bucket_floor(BUCKETS - 1)
    }
}

/// The process-wide metrics registry. Obtain the global instance with
/// [`metrics`]; all fields are lock-free and safe to touch from worker
/// threads. Counter names follow prometheus conventions so a future server
/// can expose [`Metrics::render`] at `/metrics` unchanged.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Executor runs completed.
    pub queries_total: Counter,
    /// Rows produced by completed runs.
    pub query_rows_total: Counter,
    /// Wall time per run, nanoseconds.
    pub query_wall_nanos: Histogram,
    /// Output rows per run.
    pub query_rows: Histogram,
    /// Parallel tasks (morsels) executed by the worker pool.
    pub par_tasks_total: Counter,
    /// Nanoseconds workers spent busy inside [`crate::parallel::run_tasks`]
    /// fan-outs (only counted when a stage actually went parallel).
    pub par_busy_nanos: Counter,
    /// Descriptor-pool intern calls across all runs.
    pub pool_intern_calls_total: Counter,
    /// Descriptor-pool intern hits across all runs.
    pub pool_intern_hits_total: Counter,
    /// Descriptor conjoin calls across all runs.
    pub pool_conjoin_calls_total: Counter,
    /// Confidence groups solved exactly.
    pub conf_exact_groups_total: Counter,
    /// Confidence groups estimated by sampling.
    pub conf_sampled_groups_total: Counter,
    /// Sampled confidence groups that took the Karp–Luby estimator.
    pub conf_karp_luby_groups_total: Counter,
    /// Elimination steps spent on exactly solved confidence groups.
    pub conf_exact_steps_total: Counter,
    /// Sampling draws performed by the confidence solver.
    pub conf_samples_drawn_total: Counter,
    /// Normalization passes run.
    pub normalize_runs_total: Counter,
    /// Rows entering normalization passes.
    pub normalize_rows_total: Counter,
    /// Cardinality-estimation error per analyzed plan node, as the q-error
    /// `max(est/actual, actual/est)` scaled by 1000 (so the histogram's
    /// integer buckets resolve sub-10% mis-estimates; 1000 = perfect).
    /// Fed by `EXPLAIN ANALYZE`, which is where estimates meet actuals.
    pub plan_q_error_milli: Histogram,
    /// Bloom filters built for sideways information passing.
    pub sip_filters_built_total: Counter,
    /// Probe-side rows tested against a pushed-down SIP Bloom filter.
    pub sip_rows_tested_total: Counter,
    /// Probe-side rows pruned by a SIP Bloom filter before reaching a join.
    pub sip_rows_pruned_total: Counter,
    /// Scans of a run that found the relation without a columnar image and
    /// converted its rows — the cold ones. Counted where a run scans, so
    /// normalization, statistics and `WorldSet::insert` reading an image are
    /// not scans.
    pub scan_images_built_total: Counter,
    /// Scans of a run served by an image already there.
    pub scan_images_reused_total: Counter,
    /// Relations born with their image — a run's answer — rather than
    /// converted from rows.
    pub images_seeded_total: Counter,
    /// Times a relation that held only its image had to build rows because
    /// someone read them: who still reads rows, as a number.
    pub rows_materialized_total: Counter,
}

impl Metrics {
    /// Render the registry in prometheus-flavoured text: `name value` lines
    /// for counters; `_count`/`_sum` plus `quantile`-labelled lines for
    /// histograms.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let counters: [(&str, &Counter); 20] = [
            ("maybms_queries_total", &self.queries_total),
            ("maybms_query_rows_total", &self.query_rows_total),
            ("maybms_par_tasks_total", &self.par_tasks_total),
            ("maybms_par_busy_nanos", &self.par_busy_nanos),
            (
                "maybms_pool_intern_calls_total",
                &self.pool_intern_calls_total,
            ),
            (
                "maybms_pool_intern_hits_total",
                &self.pool_intern_hits_total,
            ),
            (
                "maybms_pool_conjoin_calls_total",
                &self.pool_conjoin_calls_total,
            ),
            (
                "maybms_conf_exact_groups_total",
                &self.conf_exact_groups_total,
            ),
            (
                "maybms_conf_sampled_groups_total",
                &self.conf_sampled_groups_total,
            ),
            (
                "maybms_conf_karp_luby_groups_total",
                &self.conf_karp_luby_groups_total,
            ),
            (
                "maybms_conf_exact_steps_total",
                &self.conf_exact_steps_total,
            ),
            (
                "maybms_conf_samples_drawn_total",
                &self.conf_samples_drawn_total,
            ),
            ("maybms_normalize_runs_total", &self.normalize_runs_total),
            (
                "maybms_sip_filters_built_total",
                &self.sip_filters_built_total,
            ),
            ("maybms_sip_rows_tested_total", &self.sip_rows_tested_total),
            ("maybms_sip_rows_pruned_total", &self.sip_rows_pruned_total),
            (
                "maybms_scan_images_built_total",
                &self.scan_images_built_total,
            ),
            (
                "maybms_scan_images_reused_total",
                &self.scan_images_reused_total,
            ),
            ("maybms_images_seeded_total", &self.images_seeded_total),
            (
                "maybms_rows_materialized_total",
                &self.rows_materialized_total,
            ),
        ];
        for (name, c) in counters {
            out.push_str(&format!("{name} {}\n", c.get()));
        }
        out.push_str(&format!(
            "maybms_normalize_rows_total {}\n",
            self.normalize_rows_total.get()
        ));
        let histograms: [(&str, &Histogram); 3] = [
            ("maybms_query_wall_nanos", &self.query_wall_nanos),
            ("maybms_query_rows", &self.query_rows),
            ("maybms_plan_q_error_milli", &self.plan_q_error_milli),
        ];
        for (name, h) in histograms {
            out.push_str(&format!("{name}_count {}\n", h.count()));
            out.push_str(&format!("{name}_sum {}\n", h.sum()));
            for q in [0.5, 0.9, 0.99] {
                out.push_str(&format!("{name}{{quantile=\"{q}\"}} {}\n", h.quantile(q)));
            }
        }
        out
    }
}

static METRICS: OnceLock<Metrics> = OnceLock::new();

/// The process-wide [`Metrics`] registry (created on first use).
pub fn metrics() -> &'static Metrics {
    METRICS.get_or_init(Metrics::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        c.add(0);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn histogram_buckets_are_monotone_and_cover_u64() {
        // Bucket index must be non-decreasing in the value and the floor of
        // each bucket must map back into it.
        let mut values: Vec<u64> = (0..64)
            .flat_map(|shift| [0u64, 1, 3].map(|off| (1u64 << shift).saturating_add(off)))
            .collect();
        values.extend(0..16u64);
        values.sort_unstable();
        let mut prev = 0;
        for v in values {
            let idx = Histogram::bucket_index(v);
            assert!(idx >= prev, "monotone at {v}");
            prev = idx;
            assert!(idx < BUCKETS);
            let floor = Histogram::bucket_floor(idx);
            assert_eq!(Histogram::bucket_index(floor), idx, "floor of {v}");
            assert!(floor <= v, "floor {floor} exceeds {v}");
        }
    }

    #[test]
    fn histogram_quantiles_have_bounded_relative_error() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        for (q, exact) in [(0.5, 500u64), (0.9, 900), (0.99, 990)] {
            let got = h.quantile(q);
            let err = (got as f64 - exact as f64).abs() / exact as f64;
            assert!(err <= 0.25, "q={q}: got {got}, exact {exact}");
        }
    }

    #[test]
    fn spans_nest_and_attribute_counter_deltas() {
        let mut t = Tracer::enabled();
        let root = t.enter(
            "join".into(),
            ObsCounters {
                intern_calls: 10,
                ..ObsCounters::default()
            },
        );
        let child = t.enter(
            "scan".into(),
            ObsCounters {
                intern_calls: 10,
                ..ObsCounters::default()
            },
        );
        t.exit(
            child,
            3,
            ObsCounters {
                intern_calls: 12,
                ..ObsCounters::default()
            },
        );
        let started = t.now();
        t.event("probe", started, 7);
        t.exit(
            root,
            5,
            ObsCounters {
                intern_calls: 17,
                ..ObsCounters::default()
            },
        );
        let trace = t.finish(2);
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.node_span_count(), 2);
        let root_span = trace.root().expect("root exists");
        assert_eq!(root_span.label, "join");
        assert_eq!(root_span.rows_out, 5);
        assert_eq!(root_span.counters.intern_calls, 7); // 17 - 10 inclusive
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[1].depth, 1);
        assert_eq!(trace.spans[2].kind, SpanKind::Phase);
        assert_eq!(trace.spans[2].parent, Some(0));
        // Exclusive root counters subtract the child's two interns.
        assert_eq!(trace.exclusive(0).intern_calls, 5);
        assert_eq!(trace.rows_in(0), Some(3));
        assert_eq!(trace.rows_in(1), None);
        let tree = trace.render_tree();
        assert!(tree.contains("join  (time="));
        assert!(tree.contains("  scan  (time="));
        assert!(tree.contains("· probe"));
        assert!(tree.contains("items=7"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let id = t.enter("x".into(), ObsCounters::default());
        assert_eq!(id, SpanId::NONE);
        t.event("y", t.now(), 1);
        t.exit(id, 9, ObsCounters::default());
        assert!(t.finish(1).spans.is_empty());
    }

    /// Minimal recursive-descent JSON validity check — enough to catch
    /// escaping or bracket mistakes in the trace export without a JSON
    /// dependency.
    fn validate_json(s: &str) {
        fn skip_ws(b: &[u8], mut i: usize) -> usize {
            while i < b.len() && (b[i] as char).is_ascii_whitespace() {
                i += 1;
            }
            i
        }
        fn value(b: &[u8], i: usize) -> usize {
            let i = skip_ws(b, i);
            match b[i] {
                b'{' => {
                    let mut i = skip_ws(b, i + 1);
                    if b[i] == b'}' {
                        return i + 1;
                    }
                    loop {
                        i = string(b, skip_ws(b, i));
                        i = skip_ws(b, i);
                        assert_eq!(b[i], b':', "object colon at {i}");
                        i = value(b, i + 1);
                        i = skip_ws(b, i);
                        match b[i] {
                            b',' => i += 1,
                            b'}' => return i + 1,
                            c => panic!("bad object separator {:?} at {i}", c as char),
                        }
                    }
                }
                b'[' => {
                    let mut i = skip_ws(b, i + 1);
                    if b[i] == b']' {
                        return i + 1;
                    }
                    loop {
                        i = value(b, i);
                        i = skip_ws(b, i);
                        match b[i] {
                            b',' => i += 1,
                            b']' => return i + 1,
                            c => panic!("bad array separator {:?} at {i}", c as char),
                        }
                    }
                }
                b'"' => string(b, i),
                _ => {
                    let mut j = i;
                    while j < b.len()
                        && !matches!(b[j], b',' | b'}' | b']')
                        && !(b[j] as char).is_ascii_whitespace()
                    {
                        j += 1;
                    }
                    let tok = std::str::from_utf8(&b[i..j]).unwrap();
                    assert!(
                        tok == "true"
                            || tok == "false"
                            || tok == "null"
                            || tok.parse::<f64>().is_ok(),
                        "bad literal {tok:?}"
                    );
                    j
                }
            }
        }
        fn string(b: &[u8], i: usize) -> usize {
            assert_eq!(b[i], b'"', "string start at {i}");
            let mut i = i + 1;
            while b[i] != b'"' {
                if b[i] == b'\\' {
                    i += 1;
                }
                i += 1;
            }
            i + 1
        }
        let b = s.as_bytes();
        let end = value(b, 0);
        assert_eq!(skip_ws(b, end), b.len(), "trailing garbage");
    }

    #[test]
    fn trace_json_is_valid_chrome_trace_format() {
        let mut t = Tracer::enabled();
        let root = t.enter("select[name = 'O\"Brien\\']".into(), ObsCounters::default());
        let child = t.enter("scan[r]".into(), ObsCounters::default());
        t.exit(
            child,
            2,
            ObsCounters {
                morsels: 4,
                busy_nanos: 123,
                ..ObsCounters::default()
            },
        );
        t.exit(root, 1, ObsCounters::default());
        let json = t.finish(4).to_json();
        validate_json(&json);
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"morsels\":4"));
        assert!(json.contains("O\\\"Brien\\\\"));
    }

    #[test]
    fn registry_renders_every_series() {
        let m = Metrics::default();
        m.queries_total.inc();
        m.query_wall_nanos.observe(1_000_000);
        let text = m.render();
        assert!(text.contains("maybms_queries_total 1\n"));
        assert!(text.contains("maybms_query_wall_nanos_count 1\n"));
        assert!(text.contains("maybms_query_wall_nanos{quantile=\"0.5\"}"));
        assert!(text.contains("maybms_scan_images_built_total 0\n"));
        assert!(text.contains("maybms_scan_images_reused_total 0\n"));
        assert!(text.contains("maybms_images_seeded_total 0\n"));
        assert!(text.contains("maybms_rows_materialized_total 0\n"));
        assert!(text.contains("maybms_conf_karp_luby_groups_total 0\n"));
        // The global registry is reachable and monotonic.
        let before = metrics().queries_total.get();
        metrics().queries_total.inc();
        assert!(metrics().queries_total.get() > before);
    }
}
