//! The one file that touches the engine.
//!
//! Everything `perfbench` compiles against is named here, either in the
//! re-export lists below or inside [`Session`]; every other module imports
//! engine items from `crate::engine` only. `api_surface.json` lists the same
//! signatures, so a change that simplifies the engine (ROADMAP items 2 and 4)
//! knows exactly what it must keep or shim, and shims it here.
//!
//! [`Session`] is the benchmark's client: it drives the engine the way the
//! REPL's session does — `parse_statement`, then `PlanCache::lookup` (on a
//! miss `lower` and `optimize_plan`), then `run_with_opts` — with the catalog
//! rebuilt (`Catalog::from_world_set`) only after load and after each `LET`.

use std::time::Instant;

pub use maybms_algebra::{run_traced, run_with_opts, ExecStats, Plan};
pub use maybms_core::{
    ColumnarURelation, Component, ComponentId, ComponentSet, DescId, DescriptorPool, ParCfg,
    QueryTrace, Schema, SpanKind, StrPool, Tuple, URelation, Value, ValueType, WorldSet,
    WsDescriptor,
};
pub use maybms_sql::{
    compile_unoptimized, lower, optimize_plan, parse_statement, Catalog, PlanCache, Query,
    Statement,
};

use crate::spans::Spans;

/// The engine's environment knobs. The benchmark measures the defaults, so
/// [`pin_default_knobs`] clears every one of them before the first call into
/// the engine.
const KNOB_ENVS: [&str; 5] = [
    "MAYBMS_SIP",
    "MAYBMS_LATE_MAT",
    "MAYBMS_COST_OPT",
    "MAYBMS_CONF_EXACT_LIMIT",
    "MAYBMS_THREADS",
];

/// The knob values every run records next to its numbers.
pub const KNOBS: &str =
    "sip=on late_mat=on cost_opt=on conf_exact_limit=4096 plan_cache=64 threads=1";

/// Clear the engine's environment knobs so the run measures the defaults
/// whatever the caller's environment holds.
pub fn pin_default_knobs() {
    for key in KNOB_ENVS {
        std::env::remove_var(key);
    }
}

/// How a [`Session`] compiles a statement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Compile {
    /// The measured path: plan cache, then `lower` + `optimize_plan`.
    Optimized,
    /// The independent reference path: `compile_unoptimized`, no plan cache.
    Reference,
}

/// One statement of a round: MayQL text, or the `WorldSet::normalize_with`
/// call (which has no MayQL form).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// A MayQL statement (`SELECT …`, `LET x = …`).
    Sql(String),
    /// Normalize the session's world set in place.
    Normalize,
}

/// What a statement left behind for the checker.
#[derive(Debug)]
pub enum Output {
    /// A query's result.
    Rows(URelation),
    /// A `LET`: the result is now the named relation of the world set.
    Stored(String),
    /// A normalize: the world set itself changed.
    World,
}

/// A world set with the catalog collected from it.
pub struct Snapshot {
    ws: WorldSet,
    catalog: Catalog,
}

impl Snapshot {
    /// The world set.
    pub fn world(&self) -> &WorldSet {
        &self.ws
    }
}

/// The benchmark's client session: world set, catalog, plan cache.
pub struct Session {
    /// The session's world set.
    pub ws: WorldSet,
    catalog: Catalog,
    cache: PlanCache,
    par: ParCfg,
    mode: Compile,
    /// Executor statistics of every traced run since the last
    /// [`Session::take_exec_stats`].
    exec_stats: Vec<ExecStats>,
}

impl Session {
    /// Start a session on a loaded world set: collects the catalog
    /// statistics, which is the part of set-up a session always pays.
    pub fn start(ws: WorldSet, threads: usize, mode: Compile) -> Session {
        let catalog = Catalog::from_world_set(&ws);
        Session {
            ws,
            catalog,
            cache: PlanCache::default(),
            par: ParCfg::with_threads(threads),
            mode,
            exec_stats: Vec::new(),
        }
    }

    /// Copy the world set and its catalog.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            ws: self.ws.clone(),
            catalog: self.catalog.clone(),
        }
    }

    /// Put the session back on a copy of `snapshot`, as a workload whose
    /// rounds write does between rounds. The plan cache stays, as it would
    /// in a long-lived session.
    pub fn restore(&mut self, snapshot: &Snapshot) {
        self.ws = snapshot.ws.clone();
        self.catalog = snapshot.catalog.clone();
    }

    /// Change the worker-thread budget of later statements.
    pub fn set_threads(&mut self, threads: usize) {
        self.par = ParCfg::with_threads(threads);
    }

    /// Plan-cache `(hits, misses)` so far.
    pub fn cache_counts(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }

    /// The executor statistics recorded by traced runs since the last call.
    pub fn take_exec_stats(&mut self) -> Vec<ExecStats> {
        std::mem::take(&mut self.exec_stats)
    }

    /// Execute one statement. With `spans` enabled every call into a layer
    /// is wrapped in a span and the executor runs traced; disabled, the
    /// recorder costs one branch per call site.
    pub fn execute(&mut self, action: &Action, spans: &mut Spans) -> Result<Output, String> {
        match action {
            Action::Normalize => {
                let s = spans.enter("core.normalize");
                self.ws.normalize_with(&self.par);
                spans.exit(s);
                Ok(Output::World)
            }
            Action::Sql(text) => self.execute_sql(text, spans),
        }
    }

    fn execute_sql(&mut self, text: &str, spans: &mut Spans) -> Result<Output, String> {
        let s = spans.enter("sql.parse");
        let stmt = parse_statement(text);
        spans.exit(s);
        let stmt = stmt.map_err(|e| e.render(text))?;
        match &stmt {
            Statement::Query(query) => {
                let plan = self.compile(query, text, spans)?;
                self.run(&plan, spans).map(Output::Rows)
            }
            Statement::Let { name, query, .. } => {
                let plan = self.compile(query, text, spans)?;
                let result = self.run(&plan, spans)?;
                let s = spans.enter("core.insert");
                let inserted = self.ws.insert(name.name.clone(), result);
                spans.exit(s);
                inserted.map_err(|e| e.to_string())?;
                let s = spans.enter("sql.catalog");
                self.catalog = Catalog::from_world_set(&self.ws);
                spans.exit(s);
                Ok(Output::Stored(name.name.clone()))
            }
            Statement::Explain { .. } => Err("EXPLAIN is not a benchmark statement".to_owned()),
        }
    }

    /// Compile one query. The cache key is the query's source slice, as in
    /// the REPL, so `SELECT …` and `LET x = SELECT …` share an entry.
    fn compile(&mut self, query: &Query, src: &str, spans: &mut Spans) -> Result<Plan, String> {
        let span = query.span();
        let key = &src[span.start.min(src.len())..span.end.min(src.len())];
        if self.mode == Compile::Reference {
            return compile_unoptimized(&self.catalog, key).map_err(|e| e.render(key));
        }
        let s = spans.enter("sql.cache");
        let hit = self.cache.lookup(&self.catalog, key);
        spans.exit(s);
        if let Some(hit) = hit {
            return Ok(hit.plan);
        }
        let s = spans.enter("sql.lower");
        let lowered = lower(&self.catalog, query);
        spans.exit(s);
        let (plan, _) = lowered.map_err(|e| e.render(src))?;
        let s = spans.enter("sql.optimize");
        let optimized = optimize_plan(&self.catalog, &plan, span);
        spans.exit(s);
        let plan = optimized.map_err(|e| e.render(src))?;
        let s = spans.enter("sql.cache");
        self.cache.insert(&self.catalog, key, plan.clone(), None);
        spans.exit(s);
        Ok(plan)
    }

    fn run(&mut self, plan: &Plan, spans: &mut Spans) -> Result<URelation, String> {
        if !spans.enabled() {
            return run_with_opts(&mut self.ws, plan, &self.par).map_err(|e| e.to_string());
        }
        let s = spans.enter("algebra.run");
        let started = Instant::now();
        let outcome = run_traced(&mut self.ws, plan, &self.par);
        if let Ok((_, stats, trace)) = &outcome {
            spans.graft(trace, started);
            self.exec_stats.push(*stats);
        }
        spans.exit(s);
        outcome.map(|(rel, _, _)| rel).map_err(|e| e.to_string())
    }
}
