//! `EXPLAIN`: show a query's lowered and optimized plans side by side —
//! and `EXPLAIN ANALYZE`: execute with tracing on and annotate the
//! optimized plan with per-node observations.
//!
//! Both statements also show the cost model's per-node cardinality
//! estimates (`est_rows=`; over empty relations they read 0), and `EXPLAIN
//! ANALYZE` closes with a q-error summary comparing them against the
//! observed row counts — the planner grading its own homework.
//!
//! This module is where estimates are computed, and nothing stores them:
//! each statement estimates the plan it renders from the relations it was
//! compiled against — `EXPLAIN ANALYZE` before it runs the plan — so a
//! repeated `EXPLAIN ANALYZE` renders the same numbers and a plain
//! `EXPLAIN` shows what the estimator says, whatever ran before it.
//!
//! [`crate::Session`]'s `EXPLAIN [ANALYZE] <query>` statements and the
//! golden plan tests share this module, so what the tests pin is exactly
//! what users see.

use std::fmt;

use maybms_algebra::{estimate_preorder, run_with, ExecCfg, ExecStats, Plan, Relations};
use maybms_core::{QueryTrace, SpanKind, WorldSet};

use crate::ast::Query;
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
    /// plan tree's printed line order).
    pub estimates: Vec<f64>,
}

/// Analyze a parsed query and produce both plans.
pub fn explain(relations: &dyn Relations, query: &Query) -> Result<Explain, SqlError> {
    let (lowered, _) = lower(relations, query)?;
    let optimized = optimize_plan(relations, &lowered, query.span())?;
    let estimates = estimate_preorder(&optimized, relations);
    Ok(Explain {
        lowered,
        optimized,
        estimates,
    })
}

/// The REPL rendering: both operator trees, indented under their headers;
/// the optimized tree's lines carry `est_rows=`.
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
        // One printed line per plan node, in the same pre-order the
        // estimator walks.
        for (line, est) in self.optimized.to_string().lines().zip(&self.estimates) {
            writeln!(f, "  {line}  (est_rows={})", fmt_est(*est))?;
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
    /// Estimated output rows per node of `optimized`, in pre-order.
    pub estimates: Vec<f64>,
}

/// `EXPLAIN ANALYZE` of a plan compiled against `ws`'s relations: estimate
/// `optimized` against them (`est_rows=`), then execute it on `ws` under
/// `cfg` with tracing enabled and collect the annotated plan. The run's
/// answer is dropped, and with it the components its `REPAIR KEY`s minted
/// (`run_with` hands them back instead of leaving them in `ws`), so `ws`
/// ends as it started, as after any read.
pub(crate) fn explain_analyze_plan(
    ws: &mut WorldSet,
    optimized: Plan,
    span: crate::Span,
    cfg: &ExecCfg,
) -> Result<ExplainAnalyze, SqlError> {
    let estimates = estimate_preorder(&optimized, &ws.relations);
    let (_result, _minted, stats, trace) = run_with(ws, &optimized, cfg, true)
        .map_err(|e| SqlError::new(span, format!("execution failed: {e}")))?;
    Ok(ExplainAnalyze {
        optimized,
        trace: trace.expect("tracing was requested"),
        stats,
        estimates,
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
    /// Pair each node span with its estimate. Every plan node opens
    /// exactly one span, and children evaluate in plan order, so node
    /// spans arrive in plan pre-order — the estimates' order, and the order
    /// the rendered span tree prints.
    fn node_estimates(&self) -> Vec<(f64, u64)> {
        let nodes = self.trace.spans.iter().filter(|s| s.kind == SpanKind::Node);
        self.estimates
            .iter()
            .zip(nodes)
            .map(|(&e, s)| (e, s.rows_out))
            .collect()
    }
}

/// The REPL rendering: the executed span tree (which mirrors the optimized
/// plan tree, plus `·`-marked operator sub-phases), each node annotated
/// with wall time, row counts, estimated rows and the counters it
/// incurred, followed by a one-line execution summary and a q-error
/// summary.
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
        if !node_ests.is_empty() {
            let mut qs: Vec<f64> = node_ests.iter().map(|&(e, a)| q_error(e, a)).collect();
            qs.sort_by(f64::total_cmp);
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
