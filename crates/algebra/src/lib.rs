//! # maybms-algebra — the query algebra layer
//!
//! A logical plan IR ([`plan::Plan`]) for the *positive relational algebra*
//! — selection, projection, natural join, union, renaming — together with an
//! executor ([`eval`]) that evaluates plans **directly on the world-set
//! decomposition** of `maybms-core`, without ever expanding the worlds.
//!
//! The key facts making that possible (Antova, Koch & Olteanu, VLDB 2007):
//! positive relational algebra commutes with possible-world instantiation
//! when tuples carry world-set descriptors. Selection and projection keep
//! descriptors untouched; a join combines two tuples only when their
//! descriptors are *consistent* (no component assigned two different
//! alternatives) and annotates the result with the conjunction; union
//! concatenates. The per-world instantiation of the result then equals the
//! per-world result of the plain algebra — a property the test suite checks
//! differentially against the enumerate-all-worlds oracle for randomized
//! databases and plans.
//!
//! The executor is **columnar and vectorized**: plans evaluate on batches of
//! typed column vectors with selection vectors on top (see [`eval`]'s module
//! docs for the operator contract), converting to the row-oriented
//! representation only at the boundary of [`eval::run`].
//!
//! The IR is open: [`ext::ExtOperator`] lets higher layers add operators with
//! access to the component set (the extension ABI is columnar too).
//! `maybms-ql` uses it for `repair-key`, `possible`, `certain`, and `conf`.
//!
//! Between lowering and execution sits the **logical optimizer**
//! ([`mod@optimize`]): a fixpoint rewriter that pushes selections into join
//! inputs, prunes projections down to the columns consumers need, and
//! collapses or elides projections that derived plan properties (schema,
//! distinctness) prove redundant. Extension operators are barriers whose
//! inputs are rewritten in place. On top of the rule fixpoint,
//! [`optimize::optimize_with_stats`] runs a **cost-based phase** that
//! reorders join trees (a greedy cheapest-pair search), driven by the
//! catalog statistics a [`cost::StatsProvider`] serves to the cardinality
//! estimator in [`cost`].
//!
//! [`naive`] evaluates the same plans with the textbook single-world
//! algebra, which is what the differential tests run inside each enumerated
//! world.

pub mod cost;
pub mod eval;
pub mod ext;
pub mod naive;
pub mod optimize;
pub mod plan;
pub mod predicate;
pub mod sip;

pub use cost::{estimate_preorder, plan_cost, CardEst, StatsProvider};
pub use eval::{
    infer_schema, run, run_traced, run_with, run_with_opts, EvalCtx, ExecCfg, ExecStats,
};
pub use ext::{ExtOperator, ExtProps};
pub use optimize::{optimize, optimize_with_stats, SchemaProvider};
pub use plan::Plan;
pub use predicate::{col, lit, CmpOp, Operand, Predicate};
pub use sip::{exec_order, sip_decisions, SipStats};
