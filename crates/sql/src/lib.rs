//! # maybms-sql — the MayQL front-end
//!
//! A textual query language for the MayBMS reproduction: the paper's
//! SQL extension for incomplete information, covering the positive
//! relational algebra (`SELECT` projection with `AS` renaming, natural
//! joins over comma-separated `FROM` items, conjunctive/disjunctive
//! `WHERE` predicates, `UNION`) plus the uncertainty constructs —
//! `REPAIR KEY … IN … [WEIGHT BY …]` and the `POSSIBLE` / `CERTAIN` /
//! `CONF` quantifiers.
//!
//! The pipeline is classic and fully hand-written (the build environment is
//! offline, and a front-end this small doesn't need a parser generator):
//!
//! 1. **[`lexer`]** — source text to spanned tokens; keywords are
//!    case-insensitive and *contextual*, so names the engine itself produces
//!    (like the `conf` column) stay usable as identifiers.
//! 2. **[`parser`]** — recursive descent into the typed [`ast`] (the module
//!    docs give the full EBNF grammar).
//! 3. **[`planner`]** — semantic analysis against the relations a query
//!    names ([`maybms_algebra::Relations`]: a world set's relation map, or a
//!    [`Catalog`] over one) fused with lowering to the
//!    [`maybms_algebra::Plan`] IR;
//!    unresolved names, ill-typed comparisons, non-compatible unions, and
//!    non-numeric `WEIGHT BY` columns are rejected with [`SqlError`]s
//!    carrying the exact source [`Span`]. [`compile`] then runs the
//!    optimizer ([`maybms_algebra::optimize_with_stats`]) by default;
//!    [`compile_unoptimized`] exposes the raw lowering, and [`fn@explain`]
//!    (the `EXPLAIN <query>` statement) renders both plans. The path runs
//!    one way, text → plan: lowering is checked against hand-built plans
//!    by their `Display` trees, the form `EXPLAIN` prints.
//! 4. **[`session`]** — the engine's front door. A [`Session`] owns the
//!    world set and a [`PlanCache`], plans against the world set's
//!    relations, and [`Session::execute`] runs one statement (`SELECT …`,
//!    `LET x = …`, `EXPLAIN [ANALYZE] …`) end to end. It is the one way in:
//!    the world set cannot be changed behind the cache's back.
//!
//! ```
//! use maybms_core::{Relation, Schema, Tuple, URelation, Value, ValueType, WorldSet};
//! use maybms_sql::{Outcome, Session};
//!
//! let schema = Schema::of(&[("name", ValueType::Str), ("ssn", ValueType::Int)]).unwrap();
//! let rel = Relation::from_rows(
//!     schema,
//!     vec![
//!         Tuple::new(vec![Value::str("Smith"), Value::Int(185)]),
//!         Tuple::new(vec![Value::str("Smith"), Value::Int(785)]),
//!     ],
//! )
//! .unwrap();
//! let mut ws = WorldSet::new();
//! ws.insert("censusform", URelation::from_certain(&rel)).unwrap();
//!
//! let mut session = Session::new(ws);
//! session.execute("LET census = REPAIR KEY name IN censusform;").unwrap();
//! let src = "SELECT POSSIBLE ssn FROM census WHERE name = 'Smith'";
//! match session.execute(src) {
//!     Ok(executed) => {
//!         let Outcome::Rows(result) = executed.outcome else { unreachable!() };
//!         assert_eq!(result.len(), 2);
//!     }
//!     Err(e) => panic!("{}", e.render(src)),
//! }
//! assert_eq!(session.world().components.len(), 1);
//! ```
//!
//! One level down, [`compile`] against a world set's relations (or a
//! [`Catalog`]) gives the optimized plan and `maybms_algebra::run` executes
//! it.

pub mod ast;
pub mod cache;
pub mod catalog;
pub mod explain;
pub mod lexer;
pub mod parser;
pub mod planner;
pub mod session;
pub mod span;

pub use ast::{Query, Statement};
pub use cache::{CachedPlan, PlanCache, DEFAULT_PLAN_CACHE_CAP};
pub use catalog::Catalog;
pub use explain::{explain, Explain, ExplainAnalyze};
pub use parser::{parse_query, parse_statement};
pub use planner::{compile, compile_unoptimized, lower, optimize_plan};
pub use session::{Executed, Outcome, Session, SessionError};
pub use span::{Span, SqlError};

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use maybms_algebra::{col, lit, possible, repair_key, run, Plan, Predicate};
    use maybms_core::{Relation, Schema, Tuple, URelation, Value, ValueType, WorldSet};

    use super::*;

    fn census_world() -> WorldSet {
        let schema = Schema::of(&[
            ("name", ValueType::Str),
            ("ssn", ValueType::Int),
            ("w", ValueType::Int),
        ])
        .unwrap();
        let rows = [
            ("Smith", 185, 3),
            ("Smith", 785, 1),
            ("Brown", 185, 1),
            ("Brown", 186, 1),
        ];
        let rel = Relation::from_rows(
            schema,
            rows.iter()
                .map(|&(n, s, w)| Tuple::new(vec![Value::str(n), s.into(), Value::Int(w)]))
                .collect(),
        )
        .unwrap();
        let mut ws = WorldSet::new();
        ws.insert("censusform", URelation::from_certain(&rel))
            .unwrap();
        ws
    }

    #[test]
    fn lowers_the_paper_repair_query() {
        let ws = census_world();
        let catalog = Catalog::from_world_set(&ws);
        let parsed =
            compile_unoptimized(&catalog, "REPAIR KEY name IN censusform WEIGHT BY w").unwrap();
        let hand = repair_key(Plan::scan("censusform"), &["name"], Some("w"));
        assert_eq!(parsed.to_string(), hand.to_string());
        // Both evaluate to the same u-relation (components minted in the
        // same deterministic order on separate world-set clones).
        let a = run(&mut ws.clone(), &parsed).unwrap();
        let b = run(&mut ws.clone(), &hand).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn lowers_select_where_project_possible() {
        let ws = census_world();
        let catalog = Catalog::from_world_set(&ws);
        let parsed = compile_unoptimized(
            &catalog,
            "SELECT POSSIBLE ssn FROM censusform WHERE name = 'Smith'",
        )
        .unwrap();
        let hand = possible(
            Plan::scan("censusform")
                .select(Predicate::eq(col("name"), lit("Smith")))
                .project(["ssn"]),
        );
        assert_eq!(parsed.to_string(), hand.to_string());
    }

    #[test]
    fn conf_appends_a_float_column() {
        let ws = census_world();
        let catalog = Catalog::from_world_set(&ws);
        let q = parse_query("SELECT CONF name, ssn FROM censusform").unwrap();
        let (_, schema) = lower(&catalog, &q).unwrap();
        assert_eq!(schema.names(), vec!["name", "ssn", "conf"]);
        assert_eq!(schema.columns()[2].ty, ValueType::Float);
    }

    #[test]
    fn aliases_lower_to_project_then_rename() {
        let ws = census_world();
        let catalog = Catalog::from_world_set(&ws);
        let parsed =
            compile_unoptimized(&catalog, "SELECT name AS n1, ssn FROM censusform").unwrap();
        let hand = Plan::scan("censusform")
            .project(["name", "ssn"])
            .rename([("name", "n1")]);
        assert_eq!(parsed.to_string(), hand.to_string());
    }

    /// `compile` (the default path) optimizes: the census filter query
    /// comes back with the selection pushed to the scan and the projection
    /// pruned, and still evaluates to the same result as the raw lowering.
    #[test]
    fn compile_optimizes_by_default() {
        let ws = census_world();
        let catalog = Catalog::from_world_set(&ws);
        let text =
            "SELECT ssn FROM censusform, (SELECT name AS n2, ssn FROM censusform) WHERE w = 1";
        let optimized = compile(&catalog, text).unwrap();
        let raw = compile_unoptimized(&catalog, text).unwrap();
        assert_ne!(
            optimized.to_string(),
            raw.to_string(),
            "expected the optimizer to rewrite the plan"
        );
        let a = run(&mut ws.clone(), &optimized).unwrap();
        let b = run(&mut ws.clone(), &raw).unwrap();
        let rows = |u: &URelation| u.rows().iter().cloned().collect::<BTreeSet<_>>();
        assert_eq!(a.schema(), b.schema());
        assert_eq!(rows(&a), rows(&b));
    }

    /// The cost phase (this catalog has statistics) rewrites nothing inside
    /// a `CONF(eps, delta)` node, so the compiled plan prints as the plan
    /// the query lowered to.
    #[test]
    fn compiled_approx_conf_keeps_its_mayql_form() {
        let ws = census_world();
        let catalog = Catalog::from_world_set(&ws);
        let text = "SELECT CONF(0.1, 0.05) name FROM censusform";
        let compiled = compile(&catalog, text).unwrap();
        let lowered = compile_unoptimized(&catalog, text).unwrap();
        assert_eq!(compiled.to_string(), lowered.to_string());
    }

    #[test]
    fn union_requires_compatible_schemas() {
        let ws = census_world();
        let catalog = Catalog::from_world_set(&ws);
        let err = compile(
            &catalog,
            "SELECT name FROM censusform UNION SELECT ssn FROM censusform",
        )
        .unwrap_err();
        assert!(err.message.contains("union-compatible"), "{}", err.message);
    }
}
