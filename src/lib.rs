//! # maybms — umbrella crate
//!
//! Re-exports the three layers of the MayBMS reproduction (Antova, Koch &
//! Olteanu, VLDB 2007) and hosts the runnable examples:
//!
//! * [`core`] (`maybms-core`) — world-set decompositions: values, schemas,
//!   tuples, components, world-set descriptors, u-relations, world
//!   enumeration, and normalization;
//! * [`algebra`] (`maybms-algebra`) — the logical plan IR and the executor
//!   for the positive relational algebra plus the paper's uncertainty
//!   operators (`repair-key`, `possible`, `certain`, `conf`), evaluated
//!   directly on the compact WSD representation;
//! * [`ql`] (`maybms-ql`) — the uncertainty constructs' constructors,
//!   re-exported by name;
//! * [`sql`] (`maybms-sql`) — the MayQL textual front-end: lexer, parser,
//!   catalog-based semantic analysis, lowering to plans, the MayQL
//!   pretty-printer, and [`sql::Session`], the one entry point that runs
//!   statements against a world set.
//!
//! Run the paper's census running example with
//! `cargo run --example census`, or drive the engine interactively with
//! `cargo run --example repl` (`-- --batch examples/census.mayql` for the
//! scripted version). See `ARCHITECTURE.md` for the data model and a worked
//! example.

pub use maybms_algebra as algebra;
pub use maybms_core as core;
pub use maybms_ql as ql;
pub use maybms_sql as sql;
