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
//! typed column vectors, each read through an optional row map that σ,
//! dedup and joins restrict instead of copying cells (see [`eval`]'s module
//! docs for the operator contract); a run's answer leaves [`eval::run`] as
//! columns.
//!
//! The IR is closed: besides the positive algebra, [`Plan::Uncertain`]
//! carries the paper's four uncertainty operators ([`UOp`]: `repair-key`,
//! `possible`, `certain`, `conf`), which evaluate beside the executor with
//! access to the component set — that is how `repair-key` mints components
//! and `certain`/`conf` read their probabilities. [`repair_key`],
//! [`possible`], [`certain`], [`conf`], [`conf_approx`] and
//! [`conf_approx_with`] build them.
//!
//! Between lowering and execution sits the **optimizer**
//! ([`optimize::optimize_with_stats`]): it plans every select-project-join
//! block once — extracts its leaves and conjuncts, narrows each leaf to the
//! columns read above it, orders the joins (a greedy cheapest-pair search,
//! driven by the statistics each relation serves through [`Relations`] to
//! the cardinality estimator in [`cost`]) and places each conjunct at the
//! lowest join that covers it. Uncertainty operators, unions and renames
//! are the blocks' edges; their inputs are blocks of their own.
//!
//! [`naive`] evaluates the same plans with the textbook single-world
//! algebra, which is what the differential tests run inside each enumerated
//! world.

mod confidence;
pub mod cost;
pub mod eval;
mod extract;
pub mod naive;
pub mod optimize;
pub mod plan;
pub mod predicate;
mod repair;
pub mod uncertain;

pub use confidence::{
    check_unit_interval, ApproxConf, CONF_COLUMN, DEFAULT_CONF_EXACT_LIMIT, DEFAULT_CONF_SEED,
};
pub use cost::{estimate, estimate_preorder, CardEst};
pub use eval::{run, run_traced, run_with, run_with_opts, ExecCfg, ExecStats, SipStats};
pub use optimize::{optimize_with_stats, Relations};
pub use plan::Plan;
pub use predicate::{col, lit, CmpOp, Operand, Predicate};
pub use uncertain::{certain, conf, conf_approx, conf_approx_with, possible, repair_key, UOp};
