//! The engine's front door: a [`Session`] owns a world set and runs MayQL
//! statements against it.
//!
//! A client hands the session statement text and gets an [`Executed`] back;
//! it never assembles a plan cache and an executor call itself. The session
//! plans against its [`WorldSet`]'s relations themselves
//! ([`maybms_algebra::Relations`]), so there is no second view of them to
//! keep in step, and its [`PlanCache`] keys each entry on the schema and
//! statistics of each relation the entry's plan scans. The world set is
//! not mutably reachable from outside, so a plan is never compiled or
//! served against relations other than the ones it runs on.
//!
//! Only a `LET` changes the world set, as assignment is the one statement
//! of I-SQL that does: it commits its answer together with the components
//! its `REPAIR KEY`s minted ([`WorldSet::commit`]). A run hands the
//! components it minted back beside its answer
//! ([`maybms_algebra::run_with`]), so a read — a query or `EXPLAIN ANALYZE`
//! — drops them with its answer, and a failed statement with its error:
//! there is nothing to roll back.
//!
//! The cache holds plans only. A query or `LET` compiles through it and
//! estimates nothing; `EXPLAIN` compiles afresh and leaves the cache alone;
//! `EXPLAIN ANALYZE` runs the plan a query would run (through the cache) and
//! estimates it where it renders it ([`mod@crate::explain`]).

use std::fmt;

use maybms_algebra::{run_with, ExecCfg, ExecStats, Plan};
use maybms_core::{Component, MayError, QueryTrace, SortStats, URelation, WorldSet};

use crate::ast::{Query, Statement};
use crate::cache::PlanCache;
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
    /// A query's result. A `REPAIR KEY` in the query minted components for
    /// this answer alone; they were dropped with the statement, so a
    /// descriptor id at or past `world().components.len()` names one of
    /// them (ids are numbered from there in the order the run minted them).
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

/// One client's engine: a world set and a cache of the plans compiled
/// against its relations.
pub struct Session {
    ws: WorldSet,
    plan_cache: PlanCache,
    /// What every statement runs under.
    pub exec: ExecCfg,
    /// Whether queries and `LET`s run with span tracing on.
    pub trace: bool,
}

impl Session {
    /// Start a session on a loaded world set with the default [`ExecCfg`]
    /// and tracing off. Statistics are collected when a plan first reads
    /// them.
    pub fn new(ws: WorldSet) -> Session {
        Session {
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

    /// The session's plan cache (its hit, miss and entry counts).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Parse, compile and run one statement (an optional trailing `;` is
    /// allowed).
    ///
    /// Queries compile through the plan cache, keyed on the tokens of the
    /// query's own source slice — so `SELECT …`, `LET x = SELECT …` and
    /// `EXPLAIN ANALYZE SELECT …` of one query text share an entry.
    /// Only a `LET` changes the world set: it stores its answer and commits
    /// the components its repairs minted, in one [`WorldSet::commit`] that
    /// validates before it changes anything. A query and `EXPLAIN ANALYZE`
    /// run on the session's world set and leave it as they found it — the
    /// components their repairs minted leave with the answer — and so does
    /// a statement that fails. Plain `EXPLAIN` compiles without the cache: it
    /// shows the lowered plan too, which the cache does not keep.
    pub fn execute(&mut self, src: &str) -> Result<Executed, SessionError> {
        let (outcome, stats, trace) = match parse_statement(src)? {
            Statement::Query(query) => {
                let (result, _minted, stats, trace) = self.run_query(&query, src)?;
                (Outcome::Rows(result), Some(stats), trace)
            }
            Statement::Let { name, query, .. } => {
                let (result, minted, stats, trace) = self.run_query(&query, src)?;
                let (name, rows) = (name.name, result.len());
                self.ws.commit(name.clone(), result, minted)?;
                (Outcome::Stored { name, rows }, Some(stats), trace)
            }
            Statement::Explain {
                query,
                analyze: false,
                ..
            } => {
                let ex = explain(&self.ws.relations, &query)?;
                (Outcome::Explain(ex), None, None)
            }
            Statement::Explain {
                query,
                analyze: true,
                ..
            } => {
                let plan = self.compile_cached(&query, src)?;
                let ex = explain_analyze_plan(&mut self.ws, plan, query.span(), &self.exec)?;
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
    /// world-set operation without a MayQL form. Returns the work of its
    /// canonical sorts.
    pub fn normalize(&mut self) -> SortStats {
        self.ws.normalize()
    }

    /// The optimized plan of `query`, from the plan cache when it holds it.
    fn compile_cached(&mut self, query: &Query, src: &str) -> Result<Plan, SqlError> {
        let relations = &self.ws.relations;
        let key = query_text(query, src);
        if let Some(hit) = self.plan_cache.lookup(relations, key) {
            return Ok(hit.plan);
        }
        let (plan, _) = lower(relations, query)?;
        let plan = optimize_plan(relations, &plan, query.span())?;
        self.plan_cache.insert(relations, key, plan.clone(), None);
        Ok(plan)
    }

    /// Compile `query` and run it on the session's world set, which the run
    /// leaves as it found it: the components it minted come back beside the
    /// answer.
    fn run_query(
        &mut self,
        query: &Query,
        src: &str,
    ) -> Result<(URelation, Vec<Component>, ExecStats, Option<QueryTrace>), SessionError> {
        let plan = self.compile_cached(query, src)?;
        Ok(run_with(&mut self.ws, &plan, &self.exec, self.trace)?)
    }
}

/// The query's exact source slice — the text the plan cache keys on (it
/// drops whitespace and comments itself, by lexing).
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
        assert_eq!(
            ints(session.execute("SELECT a FROM r").unwrap()),
            [Value::Int(2)]
        );
        assert_eq!(session.plan_cache().hits(), 0);
        // Re-spaced, unchanged relations: a hit.
        session.execute("SELECT  a\nFROM r").unwrap();
        assert_eq!(session.plan_cache().hits(), 1);
    }

    /// A plan keys on the relations it scans: a `LET` of another relation
    /// leaves it cached.
    #[test]
    fn a_let_of_an_unrelated_relation_keeps_the_plan() {
        let mut session = session_over(&[(1, "p"), (2, "q")]);
        session.execute("SELECT a FROM r").unwrap();
        session
            .execute("LET s = SELECT a FROM r WHERE a = 2")
            .unwrap();
        assert_eq!(session.plan_cache().hits(), 0);
        assert_eq!(ints(session.execute("SELECT a FROM r").unwrap()).len(), 2);
        assert_eq!(session.plan_cache().hits(), 1);
    }

    /// A relation re-created with equal contents is a new body with new
    /// statistics of equal value: the plans over it still hit.
    #[test]
    fn a_relation_recreated_with_equal_contents_keeps_its_plans() {
        let mut session = session_over(&[(1, "p"), (2, "q")]);
        let stats = |s: &Session| s.world().relations["t"].stats().clone();
        session.execute("LET t = SELECT a, b FROM r").unwrap();
        session.execute("SELECT a FROM t WHERE a = 1").unwrap();
        let before = stats(&session);
        session.execute("LET t = SELECT a, b FROM r").unwrap();
        assert!(!std::sync::Arc::ptr_eq(&before, &stats(&session)));
        assert_eq!(session.plan_cache().hits(), 1);
        let got = session.execute("SELECT a FROM t WHERE a = 1").unwrap();
        assert_eq!(ints(got), [Value::Int(1)]);
        assert_eq!(session.plan_cache().hits(), 2);
    }

    /// Only a `LET` grows the world set. A read over `REPAIR KEY` mints
    /// components for its own answer, whose descriptors name them by ids
    /// past the world set's; they leave with the answer. So three runs of
    /// one `SELECT CONF` and an `EXPLAIN ANALYZE` of it leave no component
    /// behind, and the next `LET` numbers its components from 0.
    #[test]
    fn only_a_let_grows_the_world_set() {
        let mut session = session_over(&[(1, "p"), (1, "q"), (2, "p"), (2, "q"), (3, "r")]);
        let start = session.world().clone();
        let query = "SELECT CONF b FROM (REPAIR KEY a IN r)";
        for _ in 0..3 {
            session.execute(query).unwrap();
            assert_eq!(session.world(), &start);
        }
        session
            .execute(&format!("EXPLAIN ANALYZE {query}"))
            .unwrap();
        assert_eq!(session.world(), &start);
        assert_eq!(start.components.len(), 0);
        let component_ids = |rel: &URelation| {
            let mut ids: Vec<u32> = rel
                .rows()
                .iter()
                .flat_map(|(_, d)| d.terms())
                .map(|&(c, _)| c.0)
                .collect();
            ids.dedup();
            ids
        };
        let Outcome::Rows(read) = session.execute("REPAIR KEY a IN r").unwrap().outcome else {
            panic!("expected rows");
        };
        assert_eq!(component_ids(&read), [0, 1]);
        assert_eq!(session.world(), &start);
        session.execute("LET x = REPAIR KEY a IN r").unwrap();
        let world = session.world();
        assert_eq!(world.components.len(), 2);
        assert_eq!(component_ids(&world.relations["x"]), [0, 1]);
    }

    /// Same schema, same row count, other statistics: the plan misses.
    #[test]
    fn equal_schemas_with_other_statistics_miss() {
        let mut session = session_over(&[(1, "p"), (2, "q")]);
        session
            .execute("LET t = SELECT a, b FROM r WHERE a = 1")
            .unwrap();
        session.execute("SELECT a FROM t").unwrap();
        session
            .execute("LET t = SELECT a, b FROM r WHERE a = 2")
            .unwrap();
        assert_eq!(
            ints(session.execute("SELECT a FROM t").unwrap()),
            [Value::Int(2)]
        );
        assert_eq!(session.plan_cache().hits(), 0);
    }
}
