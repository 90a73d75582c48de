//! Observability: per-query trace spans.
//!
//! One instrument lives here, dependency-free: [`Tracer`], a per-run
//! recorder producing a [`QueryTrace`] — a tree of spans, one per plan node
//! (plus leaf *phase* spans for interesting sub-steps such as canonical
//! sorts or the confidence solve). Nodes and phases are entered and exited
//! alike ([`Tracer::enter`] / [`Tracer::exit`]; the [`SpanKind`] tells them
//! apart). Each span records wall time, output rows (a phase's items), and
//! a delta of the run's counters ([`ObsCounters`]) between span enter and
//! exit, so pool traffic, morsel fan-out, worker busy time and conf-solver
//! work are *attributed to the node that incurred them* instead of being
//! pooled run-wide; a phase's delta says which of its node's work it did. Every counter belongs to the run, so a span
//! sees only its own run's work. Traces render as an annotated plan tree
//! (`EXPLAIN ANALYZE`) and export as Chrome trace-event JSON
//! ([`QueryTrace::to_json`]) loadable in `chrome://tracing` or Perfetto.
//! Run-wide totals are the executor's `ExecStats`.
//!
//! A run that is not traced has no tracer at all: the executor holds an
//! `Option<Tracer>`, and every instrumentation site branches on it once
//! before it reads the clock or builds a label or a counter snapshot — a
//! handful of branches per plan node, noise next to evaluating even a
//! single morsel.

use std::time::Instant;

// ---------------------------------------------------------------------------
// Counter snapshots
// ---------------------------------------------------------------------------

/// A point-in-time snapshot of the run's counters the tracer attributes to
/// spans. Spans store the *delta* between the enter and exit snapshots, so
/// each node is charged only for what happened inside it.
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
    /// Radix scatter passes of canonical sorts (`SortStats::radix_passes`).
    pub radix_passes: u64,
    /// Content comparisons canonical sorts made inside key ties
    /// (`SortStats::tie_cmps`).
    pub tie_cmps: u64,
    /// Nanoseconds the run's fan-out workers spent busy
    /// (`ParStats::busy_nanos`); drives the occupancy annotation.
    pub busy_nanos: u64,
}

impl ObsCounters {
    /// The per-field difference `self - earlier`. Every counter is the run's
    /// own and only grows, so `earlier` never exceeds `self`.
    #[must_use]
    pub fn since(&self, earlier: &ObsCounters) -> ObsCounters {
        ObsCounters {
            morsels: self.morsels - earlier.morsels,
            intern_calls: self.intern_calls - earlier.intern_calls,
            intern_hits: self.intern_hits - earlier.intern_hits,
            imported: self.imported - earlier.imported,
            conjoin_calls: self.conjoin_calls - earlier.conjoin_calls,
            exact_groups: self.exact_groups - earlier.exact_groups,
            sampled_groups: self.sampled_groups - earlier.sampled_groups,
            karp_luby_groups: self.karp_luby_groups - earlier.karp_luby_groups,
            exact_steps: self.exact_steps - earlier.exact_steps,
            samples_drawn: self.samples_drawn - earlier.samples_drawn,
            radix_passes: self.radix_passes - earlier.radix_passes,
            tie_cmps: self.tie_cmps - earlier.tie_cmps,
            busy_nanos: self.busy_nanos - earlier.busy_nanos,
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
        self.radix_passes += other.radix_passes;
        self.tie_cmps += other.tie_cmps;
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
/// A caller without a tracer hands out [`SpanId::NONE`] instead, and knows
/// by it that there is no span to close.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The handle of a span that was never opened: what an untraced run's
    /// instrumentation sites hold in place of a [`Tracer::enter`] result.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// Records a tree of spans for one traced executor run. Construct with
/// [`Tracer::start`]; consume with [`Tracer::finish`].
#[derive(Debug)]
pub struct Tracer {
    /// When the trace started.
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans: (span index, counter snapshot at enter).
    stack: Vec<(u32, ObsCounters)>,
}

impl Tracer {
    /// A recording tracer whose clock starts now.
    pub fn start() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Open a span of `kind` as a child of the currently open span (or as
    /// a root).
    pub fn enter(&mut self, kind: SpanKind, label: String, snap: ObsCounters) -> SpanId {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().map(|&(p, _)| p);
        self.spans.push(Span {
            label,
            parent,
            depth: self.stack.len() as u32,
            kind,
            start_nanos: nanos_u64(self.origin.elapsed()),
            dur_nanos: 0,
            rows_out: 0,
            counters: ObsCounters::default(),
        });
        self.stack.push((id, snap));
        SpanId(id)
    }

    /// Close the span `id`, recording its duration, output rows (a phase's
    /// items), and the counter delta since [`Tracer::enter`].
    pub fn exit(&mut self, id: SpanId, rows_out: u64, snap: ObsCounters) {
        let (top, entered) = self.stack.pop().expect("exit without a matching enter");
        debug_assert_eq!(top, id.0, "spans must exit in LIFO order");
        let span = &mut self.spans[top as usize];
        span.dur_nanos = nanos_u64(self.origin.elapsed()).saturating_sub(span.start_nanos);
        span.rows_out = rows_out;
        span.counters = snap.since(&entered);
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
    /// The root *plan node* span, if one was recorded. Root-level phases
    /// (like the up-front `scan-convert`) are skipped: they are
    /// siblings of the plan root, not its operators.
    pub fn root(&self) -> Option<&Span> {
        self.spans
            .iter()
            .find(|s| s.parent.is_none() && s.kind == SpanKind::Node)
    }

    /// Counters of span `i` *exclusive* of its direct child nodes — what the
    /// node itself incurred: its inclusive counters less its child nodes'.
    /// Its phases are part of its own work, so their counters stay in.
    pub fn exclusive(&self, i: usize) -> ObsCounters {
        let mut child_sum = ObsCounters::default();
        let me = i as u32;
        for s in &self.spans {
            if s.parent == Some(me) && s.kind == SpanKind::Node {
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
    /// that dispatched morsels themselves. `node_suffix` is asked, for each
    /// node by its pre-order index among the nodes (the plan's pre-order),
    /// for more annotations to end the node's line with.
    pub fn render_tree(&self, node_suffix: impl Fn(usize) -> Option<String>) -> String {
        let mut out = String::new();
        let mut node = 0;
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
                    if let Some(suffix) = node_suffix(node) {
                        ann.push(' ');
                        ann.push_str(&suffix);
                    }
                    node += 1;
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
                ("radix_passes", c.radix_passes),
                ("tie_cmps", c.tie_cmps),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn interns(intern_calls: u64) -> ObsCounters {
        ObsCounters {
            intern_calls,
            ..ObsCounters::default()
        }
    }

    #[test]
    fn spans_nest_and_attribute_counter_deltas() {
        let mut t = Tracer::start();
        let root = t.enter(SpanKind::Node, "join".into(), interns(10));
        let child = t.enter(SpanKind::Node, "scan".into(), interns(10));
        t.exit(child, 3, interns(12));
        let phase = t.enter(SpanKind::Phase, "probe".into(), interns(12));
        t.exit(phase, 7, interns(15));
        t.exit(root, 5, interns(17));
        let trace = t.finish(2);
        assert_eq!(trace.spans.len(), 3);
        let nodes = trace.spans.iter().filter(|s| s.kind == SpanKind::Node);
        assert_eq!(nodes.count(), 2);
        let root_span = trace.root().expect("root exists");
        assert_eq!(root_span.label, "join");
        assert_eq!(root_span.rows_out, 5);
        assert_eq!(root_span.counters.intern_calls, 7); // 17 - 10 inclusive
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[1].depth, 1);
        assert_eq!(trace.spans[2].kind, SpanKind::Phase);
        assert_eq!(trace.spans[2].parent, Some(0));
        assert_eq!(trace.spans[2].rows_out, 7);
        // A phase carries its own counter delta: 15 - 12.
        assert_eq!(trace.spans[2].counters.intern_calls, 3);
        // Exclusive root counters subtract the child node's two interns,
        // not the phase's three: the phase is the root's own work.
        assert_eq!(trace.exclusive(0).intern_calls, 5);
        assert_eq!(trace.rows_in(0), Some(3));
        assert_eq!(trace.rows_in(1), None);
        let tree = trace.render_tree(|_| None);
        assert!(tree.contains("join  (time="));
        assert!(tree.contains("  scan  (time="));
        assert!(tree.contains("· probe"));
        assert!(tree.contains("items=7"));
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
        let mut t = Tracer::start();
        let label = "select[name = 'O\"Brien\\']";
        let root = t.enter(SpanKind::Node, label.into(), ObsCounters::default());
        let child = t.enter(SpanKind::Node, "scan[r]".into(), ObsCounters::default());
        t.exit(
            child,
            2,
            ObsCounters {
                morsels: 4,
                busy_nanos: 123,
                ..ObsCounters::default()
            },
        );
        let phase = t.enter(SpanKind::Phase, "solve".into(), ObsCounters::default());
        t.exit(phase, 1, interns(6));
        t.exit(root, 1, interns(6));
        let json = t.finish(4).to_json();
        validate_json(&json);
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"morsels\":4"));
        // A phase exports its counters like a node.
        let solve = json.split("\"name\":\"solve\"").nth(1).unwrap();
        let solve = solve.split("}}").next().unwrap();
        assert!(solve.contains("\"cat\":\"phase\"") && solve.contains("\"intern_calls\":6"));
        assert!(json.contains("O\\\"Brien\\\\"));
    }
}
