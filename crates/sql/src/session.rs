//! The engine's front door: a [`Session`] owns a world set and runs MayQL
//! statements against it.
//!
//! A client hands the session statement text and gets an [`Executed`] back;
//! it never assembles a catalog, a plan cache and an executor call itself.
//! The session keeps three things in step that callers used to keep in step
//! by convention: the [`WorldSet`], the [`Catalog`] collected from it
//! (schemas and statistics, rebuilt after every statement that changes a
//! relation), and the [`PlanCache`], whose keys include that catalog's
//! fingerprint. The world set is not mutably reachable from outside, so a
//! plan is never compiled or served against a stale catalog.
//!
//! The cache holds plans only. A query or `LET` compiles through it and
//! estimates nothing; `EXPLAIN` compiles afresh and leaves the cache alone;
//! `EXPLAIN ANALYZE` runs the plan a query would run (through the cache) and
//! estimates it where it renders it ([`mod@crate::explain`]).

use std::fmt;

use maybms_algebra::{run_with, ExecCfg, ExecStats, Plan};
use maybms_core::{MayError, QueryTrace, URelation, WorldSet};

use crate::ast::{Query, Statement};
use crate::cache::PlanCache;
use crate::catalog::Catalog;
use crate::explain::{explain, explain_analyze_plan, Explain, ExplainAnalyze};
use crate::parser::parse_statement;
use crate::planner::{lower, optimize_plan};
use crate::span::SqlError;

/// Why a statement failed.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionError {
    /// The front-end rejected it: a lexing, parsing or semantic error
    /// anchored to a span of the statement text.
    Sql(SqlError),
    /// It compiled and failed while running; runtime errors carry no span.
    Run(MayError),
}

impl SessionError {
    /// The diagnostic a user sees, against the statement's source text: a
    /// front-end error with its source line and caret underline
    /// ([`SqlError::render`]), a runtime error as one plain `error: …` line.
    pub fn render(&self, src: &str) -> String {
        match self {
            SessionError::Sql(e) => e.render(src),
            SessionError::Run(e) => format!("error: {e}\n"),
        }
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Sql(e) => e.fmt(f),
            SessionError::Run(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<SqlError> for SessionError {
    fn from(e: SqlError) -> SessionError {
        SessionError::Sql(e)
    }
}

impl From<MayError> for SessionError {
    fn from(e: MayError) -> SessionError {
        SessionError::Run(e)
    }
}

/// What one statement produced.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// A query's result.
    Rows(URelation),
    /// A `LET`: the result is now the relation `name` of the world set, so
    /// every later query that scans it shares its components.
    Stored {
        /// The relation's name.
        name: String,
        /// How many rows it holds.
        rows: usize,
    },
    /// `EXPLAIN`: the lowered and the optimized plan; nothing ran.
    Explain(Explain),
    /// `EXPLAIN ANALYZE`: the optimized plan annotated from one traced run.
    Analyze(ExplainAnalyze),
}

/// The result of [`Session::execute`].
#[derive(Clone, Debug)]
pub struct Executed {
    /// What the statement produced.
    pub outcome: Outcome,
    /// The executor's counters, for every statement that ran a plan
    /// (everything but `EXPLAIN`).
    pub stats: Option<ExecStats>,
    /// The span trace of a query or `LET` run while [`Session::trace`] was
    /// on. (`EXPLAIN ANALYZE` always traces; its trace is the
    /// [`ExplainAnalyze::trace`] it renders from.)
    pub trace: Option<QueryTrace>,
}

/// One client's engine: a world set, the catalog collected from it, and a
/// cache of the plans compiled against that catalog.
pub struct Session {
    ws: WorldSet,
    catalog: Catalog,
    plan_cache: PlanCache,
    /// What every statement runs under.
    pub exec: ExecCfg,
    /// Whether queries and `LET`s run with span tracing on.
    pub trace: bool,
}

impl Session {
    /// Start a session on a loaded world set (collects the catalog's
    /// statistics) with the default [`ExecCfg`] and tracing off.
    pub fn new(ws: WorldSet) -> Session {
        Session {
            catalog: Catalog::from_world_set(&ws),
            ws,
            plan_cache: PlanCache::default(),
            exec: ExecCfg::default(),
            trace: false,
        }
    }

    /// The session's world set.
    pub fn world(&self) -> &WorldSet {
        &self.ws
    }

    /// Schemas and statistics of [`Session::world`], as the planner sees
    /// them.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The session's plan cache (its hit, miss and entry counts).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Parse, compile and run one statement (an optional trailing `;` is
    /// allowed).
    ///
    /// Queries compile through the plan cache, keyed on the query's own
    /// source slice — so `SELECT …`, `LET x = SELECT …` and `EXPLAIN ANALYZE
    /// SELECT …` of one query text share an entry. `EXPLAIN ANALYZE` runs
    /// against a scratch copy of the world set (the components its repairs
    /// mint must not leak into the session). Plain `EXPLAIN` compiles
    /// without the cache: it shows the lowered plan too, which the cache
    /// does not keep.
    pub fn execute(&mut self, src: &str) -> Result<Executed, SessionError> {
        let (outcome, stats, trace) = match parse_statement(src)? {
            Statement::Query(query) => {
                let (result, stats, trace) = self.run_query(&query, src)?;
                (Outcome::Rows(result), Some(stats), trace)
            }
            Statement::Let { name, query, .. } => {
                let minted_from = self.ws.components.len();
                let (result, stats, trace) = self.run_query(&query, src)?;
                let (name, rows) = (name.name, result.len());
                if let Err(e) = self.ws.insert(name.clone(), result) {
                    self.ws.components.truncate(minted_from);
                    return Err(e.into());
                }
                self.catalog = Catalog::from_world_set(&self.ws);
                (Outcome::Stored { name, rows }, Some(stats), trace)
            }
            Statement::Explain {
                query,
                analyze: false,
                ..
            } => {
                let ex = explain(&self.catalog, &query)?;
                (Outcome::Explain(ex), None, None)
            }
            Statement::Explain {
                query,
                analyze: true,
                ..
            } => {
                let plan = self.compile_cached(&query, src)?;
                let mut scratch = self.ws.clone();
                let ex = explain_analyze_plan(
                    &mut scratch,
                    &self.catalog,
                    plan,
                    query.span(),
                    &self.exec,
                )?;
                let stats = ex.stats;
                (Outcome::Analyze(ex), Some(stats), None)
            }
        };
        Ok(Executed {
            outcome,
            stats,
            trace,
        })
    }

    /// Normalize the world set in place (`WorldSet::normalize`) — the one
    /// world-set operation without a MayQL form. Normalization rewrites
    /// descriptors and drops components, so the catalog's statistics are
    /// collected again.
    pub fn normalize(&mut self) {
        self.ws.normalize();
        self.catalog = Catalog::from_world_set(&self.ws);
    }

    /// The optimized plan of `query`, from the plan cache when it holds it.
    fn compile_cached(&mut self, query: &Query, src: &str) -> Result<Plan, SqlError> {
        let catalog = &self.catalog;
        let key = query_text(query, src);
        if let Some(hit) = self.plan_cache.lookup(catalog, key) {
            return Ok(hit.plan);
        }
        let (plan, _) = lower(catalog, query)?;
        let plan = optimize_plan(catalog, &plan, query.span())?;
        self.plan_cache.insert(catalog, key, plan.clone(), None);
        Ok(plan)
    }

    /// Compile `query` and run it on the session's world set.
    fn run_query(
        &mut self,
        query: &Query,
        src: &str,
    ) -> Result<(URelation, ExecStats, Option<QueryTrace>), SessionError> {
        let plan = self.compile_cached(query, src)?;
        Ok(run_with(&mut self.ws, &plan, &self.exec, self.trace)?)
    }
}

/// The query's exact source slice — the plan cache's key text (the cache
/// normalizes whitespace and comments itself).
fn query_text<'a>(query: &Query, src: &'a str) -> &'a str {
    let span = query.span();
    &src[span.start.min(src.len())..span.end.min(src.len())]
}

#[cfg(test)]
mod tests {
    use maybms_core::{Relation, Schema, Tuple, Value, ValueType};

    use super::*;

    fn session_over(rows: &[(i64, &str)]) -> Session {
        let schema = Schema::of(&[("a", ValueType::Int), ("b", ValueType::Str)]).unwrap();
        let rel = Relation::from_rows(
            schema,
            rows.iter()
                .map(|&(a, b)| Tuple::new(vec![Value::Int(a), Value::str(b)]))
                .collect(),
        )
        .unwrap();
        let mut ws = WorldSet::new();
        ws.insert("r", URelation::from_certain(&rel)).unwrap();
        Session::new(ws)
    }

    fn ints(executed: Executed) -> Vec<Value> {
        let Outcome::Rows(rel) = executed.outcome else {
            panic!("expected rows, got {:?}", executed.outcome);
        };
        rel.rows()
            .iter()
            .map(|(t, _)| t.values()[0].clone())
            .collect()
    }

    /// An apostrophe inside a `--` comment used to flip the cache key
    /// scanner into its in-string state, so the whitespace of the *next*
    /// literal was collapsed: the two statements below shared a key and the
    /// second was served the first one's plan — row 1 for a query whose
    /// answer is row 2.
    #[test]
    fn a_comment_apostrophe_does_not_merge_two_queries_cache_keys() {
        let mut session = session_over(&[(1, "x  y"), (2, "x y")]);
        let first = session
            .execute("SELECT a FROM r -- it's a comment\nWHERE b = 'x  y'")
            .unwrap();
        assert_eq!(ints(first), [Value::Int(1)]);
        let second = session
            .execute("SELECT a FROM r -- it's a comment\nWHERE b = 'x y'")
            .unwrap();
        assert_eq!(ints(second), [Value::Int(2)]);
        assert_eq!(session.plan_cache().hits(), 0);
    }

    #[test]
    fn a_let_refreshes_the_catalog_and_the_cache_keys_with_it() {
        let mut session = session_over(&[(1, "p"), (2, "q")]);
        assert_eq!(ints(session.execute("SELECT a FROM r").unwrap()).len(), 2);
        // Same name, new contents: the statistics change, so the cached plan
        // of `SELECT a FROM r` (compiled against the old ones) must miss.
        let stored = session
            .execute("LET r = SELECT a, b FROM r WHERE a = 2;")
            .unwrap();
        assert!(matches!(
            stored.outcome,
            Outcome::Stored { ref name, rows: 1 } if name == "r"
        ));
        assert_eq!(session.catalog(), &Catalog::from_world_set(session.world()));
        assert_eq!(
            ints(session.execute("SELECT a FROM r").unwrap()),
            [Value::Int(2)]
        );
        assert_eq!(session.plan_cache().hits(), 0);
        // Re-spaced, unchanged catalog: a hit.
        session.execute("SELECT  a\nFROM r").unwrap();
        assert_eq!(session.plan_cache().hits(), 1);
    }
}
