//! `EXPLAIN`: show a query's lowered and optimized plans side by side —
//! and `EXPLAIN ANALYZE`: execute with tracing on and annotate the
//! optimized plan with per-node observations.
//!
//! When the catalog carries relation statistics, both statements also show
//! the cost model's per-node cardinality estimates (`est_rows=`), and
//! `EXPLAIN ANALYZE` closes with a q-error summary comparing them against
//! the observed row counts — the planner grading its own homework.
//!
//! This module is where estimates are computed, and nothing stores them:
//! each statement estimates the plan it renders from the catalog it was
//! compiled against, so a repeated `EXPLAIN ANALYZE` renders the same
//! numbers and a plain `EXPLAIN` shows what the estimator says, whatever ran
//! before it.
//!
//! [`crate::Session`]'s `EXPLAIN [ANALYZE] <query>` statements and the
//! golden plan tests share this module, so what the tests pin is exactly
//! what users see.

use std::fmt;

use maybms_algebra::{
    estimate_preorder, exec_order, run_with, sip_decisions, ExecCfg, ExecStats, Plan, StatsProvider,
};
use maybms_core::{QueryTrace, Span, SpanKind, WorldSet};

use crate::ast::Query;
use crate::catalog::Catalog;
use crate::planner::{lower, optimize_plan};
use crate::span::SqlError;

/// The two plans `EXPLAIN` shows: the planner's minimal lowering and the
/// result of the logical optimizer (the plan the executor actually runs).
#[derive(Clone, Debug)]
pub struct Explain {
    /// The plan as lowered from the AST, before any rewrite.
    pub lowered: Plan,
    /// The plan after the algebraic rewrite passes.
    pub optimized: Plan,
    /// Estimated output rows per node of `optimized`, in pre-order (the
    /// plan tree's printed line order); `None` when the catalog has no
    /// statistics to estimate from.
    pub estimates: Option<Vec<f64>>,
    /// Plan-time sideways-information-passing decisions per node of
    /// `optimized`, in pre-order: `sip=bloom(keys, …)` on joins whose
    /// estimated build side qualifies, `""` elsewhere. Empty when the
    /// caller's [`ExecCfg::sip`] is off (the runtime gate additionally
    /// checks the *actual* build-side row count, so a rendered decision is
    /// the plan's intent, not a promise).
    pub sip: Vec<String>,
}

/// Analyze a parsed query and produce both plans, annotated for a run
/// under `cfg`.
pub fn explain(catalog: &Catalog, query: &Query, cfg: &ExecCfg) -> Result<Explain, SqlError> {
    let (lowered, _) = lower(catalog, query)?;
    let optimized = optimize_plan(catalog, &lowered, query.span())?;
    // The SIP decisions read the estimates even when the catalog has no
    // statistics (the defaults then stand in); only real ones are shown.
    let ests = estimate_preorder(&optimized, catalog, catalog);
    let sip = if cfg.sip {
        sip_decisions(&optimized, &ests, catalog)
    } else {
        Vec::new()
    };
    Ok(Explain {
        lowered,
        optimized,
        estimates: catalog.has_stats().then_some(ests),
        sip,
    })
}

/// The REPL rendering: both operator trees, indented under their headers;
/// the optimized tree's lines carry `est_rows=` when estimates exist.
impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tree = |f: &mut fmt::Formatter<'_>, plan: &Plan| -> fmt::Result {
            for line in plan.to_string().lines() {
                writeln!(f, "  {line}")?;
            }
            Ok(())
        };
        writeln!(f, "lowered plan:")?;
        tree(f, &self.lowered)?;
        writeln!(f, "optimized plan:")?;
        if self.estimates.is_none() && self.sip.iter().all(String::is_empty) {
            return tree(f, &self.optimized);
        }
        // One printed line per plan node, in the same pre-order the
        // estimator and the SIP decision walk; each line carries whichever
        // annotations exist.
        for (i, line) in self.optimized.to_string().lines().enumerate() {
            let mut ann: Vec<String> = Vec::new();
            if let Some(ests) = &self.estimates {
                ann.push(format!("est_rows={}", fmt_est(ests[i])));
            }
            if let Some(s) = self.sip.get(i).filter(|s| !s.is_empty()) {
                ann.push(s.clone());
            }
            if ann.is_empty() {
                writeln!(f, "  {line}")?;
            } else {
                writeln!(f, "  {line}  ({})", ann.join(" "))?;
            }
        }
        Ok(())
    }
}

/// The result of `EXPLAIN ANALYZE`: the optimized plan, the trace of one
/// traced execution of it, and the run's summary stats. The result
/// *relation* is intentionally not part of the rendering (like SQL
/// `EXPLAIN ANALYZE`, the statement reports how the query ran, not its
/// rows) but the trace is kept whole, so callers can also export it with
/// [`QueryTrace::to_json`].
#[derive(Clone, Debug)]
pub struct ExplainAnalyze {
    /// The plan the executor ran (after optimization).
    pub optimized: Plan,
    /// Per-node spans of the traced run.
    pub trace: QueryTrace,
    /// The run's flat summary counters.
    pub stats: ExecStats,
    /// Estimated output rows per node of `optimized`, in pre-order;
    /// `None` when the catalog has no statistics.
    pub estimates: Option<Vec<f64>>,
    /// Whether sideways information passing was enabled for the traced run.
    /// SIP evaluates join build sides before probe sides, so it changes the
    /// *order* node spans appear in the trace — estimate alignment has to
    /// replay that order ([`exec_order`]).
    pub sip_enabled: bool,
}

/// `EXPLAIN ANALYZE` of a plan compiled against `catalog`: execute
/// `optimized` on `ws` under `cfg` with tracing enabled and collect the
/// annotated plan, with the estimator's `est_rows=` for it read off
/// `catalog`. Side effects are real: a `REPAIR KEY` inside the query mints
/// components into `ws` exactly like a normal run, which is why the session
/// passes a scratch clone of its world set.
pub(crate) fn explain_analyze_plan(
    ws: &mut WorldSet,
    catalog: &Catalog,
    optimized: Plan,
    span: crate::Span,
    cfg: &ExecCfg,
) -> Result<ExplainAnalyze, SqlError> {
    let estimates = catalog
        .has_stats()
        .then(|| estimate_preorder(&optimized, catalog, catalog));
    let (_result, stats, trace) = run_with(ws, &optimized, cfg, true)
        .map_err(|e| SqlError::new(span, format!("execution failed: {e}")))?;
    Ok(ExplainAnalyze {
        optimized,
        trace: trace.expect("tracing was requested"),
        stats,
        estimates,
        sip_enabled: cfg.sip,
    })
}

/// The q-error of one estimate: `max(est/actual, actual/est)` with both
/// sides floored at one row, so empty outputs grade against 1 instead of
/// dividing by zero. 1.0 is a perfect estimate.
fn q_error(est: f64, actual: u64) -> f64 {
    let est = est.max(1.0);
    let actual = (actual as f64).max(1.0);
    (est / actual).max(actual / est)
}

/// `est_rows=` values print as integers: sub-row precision is estimation
/// noise, not information.
fn fmt_est(est: f64) -> String {
    format!("{:.0}", est.max(0.0))
}

impl ExplainAnalyze {
    /// Pair each node span with its estimate, in *execution* order (the
    /// order the rendered span tree prints). Under SIP, execution order
    /// differs from plan pre-order — [`exec_order`] maps between them.
    /// Empty when estimates are absent or the span tree does not match the
    /// plan tree node-for-node (a shared extension subtree executed once
    /// diverges — annotation then degrades to none rather than mislabeling
    /// nodes).
    fn node_estimates(&self) -> Vec<(f64, u64)> {
        let Some(ests) = &self.estimates else {
            return Vec::new();
        };
        let nodes: Vec<&Span> = self
            .trace
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Node)
            .collect();
        if nodes.len() != ests.len() {
            return Vec::new();
        }
        let order = exec_order(&self.optimized, self.sip_enabled);
        order
            .iter()
            .zip(nodes)
            .map(|(&pre, s)| (ests[pre], s.rows_out))
            .collect()
    }
}

/// The REPL rendering: the executed span tree (which mirrors the optimized
/// plan tree, plus `·`-marked operator sub-phases), each node annotated
/// with wall time, row counts, estimated rows (when the catalog has
/// statistics), and the counters it incurred, followed by a one-line
/// execution summary and — with estimates — a q-error summary.
impl fmt::Display for ExplainAnalyze {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let node_ests = self.node_estimates();
        let mut next = node_ests.iter();
        writeln!(f, "analyzed plan:")?;
        for line in self.trace.render_tree().lines() {
            // Node lines carry `rows=`; phase lines are `·`-marked and
            // estimate nothing.
            if !line.trim_start().starts_with('·') {
                if let Some((est, _)) = next.next() {
                    let annotated = line
                        .strip_suffix(')')
                        .map(|l| format!("{l} est_rows={})", fmt_est(*est)));
                    if let Some(a) = annotated {
                        writeln!(f, "  {a}")?;
                        continue;
                    }
                }
            }
            writeln!(f, "  {line}")?;
        }
        writeln!(
            f,
            "execution: total={:.3}ms rows={} threads={}",
            self.trace.total_nanos as f64 / 1e6,
            self.stats.output_rows,
            self.trace.threads
        )?;
        if self.stats.sip.filters_built > 0 {
            writeln!(
                f,
                "sip: filters={} tested={} pruned={}",
                self.stats.sip.filters_built,
                self.stats.sip.probe_rows_tested,
                self.stats.sip.probe_rows_pruned
            )?;
        }
        if !node_ests.is_empty() {
            let mut qs: Vec<f64> = node_ests.iter().map(|&(e, a)| q_error(e, a)).collect();
            qs.sort_by(|a, b| a.partial_cmp(b).expect("q-errors are finite"));
            let median = qs[qs.len() / 2];
            let max = qs[qs.len() - 1];
            writeln!(
                f,
                "estimation: nodes={} q_error median={median:.2} max={max:.2}",
                qs.len()
            )?;
        }
        Ok(())
    }
}
