//! The benchmark's own span recorder.
//!
//! `round → stmt → {sql.parse, sql.cache, sql.lower, sql.optimize,
//! sql.catalog, core.insert, core.normalize, algebra.run}` spans are recorded
//! here, in memory, around the calls into each layer's public functions; the
//! `QueryTrace` that `run_traced` returns is re-parented under `algebra.run`.
//! No engine file carries a span for the benchmark. Disabled, every call is
//! one branch and no clock is read, so the end-to-end pass pays nothing.

use std::fmt::Write as _;
use std::time::Instant;

use crate::engine::{QueryTrace, SpanKind};

/// Where a span came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// Recorded by the benchmark around a call into a layer.
    Bench,
    /// A plan-node span of the engine's `QueryTrace`.
    EngineNode,
    /// A leaf phase of the engine's `QueryTrace` (`solve`, `key-sort`, …).
    EnginePhase,
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Layer span name, statement id, or engine label.
    pub name: String,
    /// Nanoseconds from the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// The round the span belongs to: spans of one round share it.
    pub round: u32,
    /// Who recorded it.
    pub origin: Origin,
    /// Rows (node spans) or items (phases) the engine reported; 0 for the
    /// benchmark's own spans.
    pub items: u64,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Token of an open span ([`Spans::enter`] → [`Spans::exit`]).
#[derive(Clone, Copy, Debug)]
pub struct Open(u32);

const NONE: u32 = u32::MAX;

/// The recorder. See the module docs.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
    round: u32,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn disabled() -> Spans {
        Spans {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: 0,
        }
    }

    /// A recording recorder.
    pub fn enabled_now() -> Spans {
        Spans {
            enabled: true,
            ..Spans::disabled()
        }
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The round later spans belong to.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// All recorded spans, parents before children.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the currently open one.
    #[inline]
    pub fn enter(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(NONE);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            round: self.round,
            origin: Origin::Bench,
            items: 0,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Close a span opened by [`Spans::enter`].
    #[inline]
    pub fn exit(&mut self, open: Open) {
        if open.0 == NONE {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop().expect("exit without enter");
        assert_eq!(top, open.0, "spans close in LIFO order");
        self.spans[top as usize].end_ns = end_ns;
    }

    /// Re-parent an engine trace under the currently open span. The engine's
    /// clock starts when its run does, so `run_started` (taken just before
    /// the call) places the trace on this recorder's clock.
    pub fn graft(&mut self, trace: &QueryTrace, run_started: Instant) {
        if !self.enabled {
            return;
        }
        let base =
            u64::try_from(run_started.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX);
        let offset = self.spans.len() as u32;
        let host = self.stack.last().copied();
        for s in &trace.spans {
            let start_ns = base + s.start_nanos;
            self.spans.push(SpanRec {
                name: s.label.clone(),
                start_ns,
                end_ns: start_ns + s.dur_nanos,
                parent: s.parent.map(|p| p + offset).or(host),
                round: self.round,
                origin: match s.kind {
                    SpanKind::Node => Origin::EngineNode,
                    SpanKind::Phase => Origin::EnginePhase,
                },
                items: s.rows_out,
            });
        }
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children of one span never overlap at one thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(SpanRec::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, the round as its argument.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"round\":{},\"id\":{},\"parent\":{}}}}}",
                crate::json::quote(&s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.round,
                i,
                s.parent.map_or(-1, i64::from),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
