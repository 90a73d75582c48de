//! # maybms-core — the representation layer
//!
//! This crate implements the *world-set decomposition* (WSD) representation
//! of incomplete and probabilistic databases from Antova, Koch & Olteanu,
//! "Query language support for incomplete information in the MayBMS system"
//! (VLDB 2007), together with the supporting value/schema/tuple machinery.
//!
//! A finite set of possible worlds is not stored extensionally. Instead it is
//! *decomposed* into a product of independent **components**
//! ([`component::Component`]): each component is a finite probability
//! distribution over a small set of *alternatives* (its local worlds), and a
//! possible world of the whole database is obtained by independently picking
//! one alternative for every component. Tuples of an uncertain relation
//! ([`urel::URelation`]) are annotated with **world-set descriptors**
//! ([`descriptor::WsDescriptor`]) — conjunctions of component assignments —
//! that say in exactly which worlds the tuple appears. A u-relation is
//! stored as one table of typed columns plus its descriptor column, over
//! dictionaries of its own; a run takes it in by appending those
//! dictionaries to the run's pools ([`URelation::scan`]), and its rows are
//! built only for whoever reads them ([`URelation::rows`]).
//!
//! The crate also provides:
//!
//! * [`world::WorldSet`] — a complete uncertain database (component set plus
//!   named u-relations) with exhaustive **world enumeration**, which serves as
//!   the *naive oracle* that the algebra layer is differentially tested
//!   against;
//! * [`intern`] — the descriptor pool: a flat arena of term lists addressed
//!   by dense `u32` [`DescId`]s (no allocation per entry, the intern index
//!   built only when something is interned), so the executor conjoins,
//!   hashes, and deduplicates on integers instead of re-allocating sorted
//!   term vectors;
//! * [`columnar`] — the columnar execution form of a u-relation: one typed
//!   vector per attribute (strings dictionary-encoded through a [`StrPool`])
//!   plus the dense [`DescId`] column, with exact row↔columnar conversion;
//!   this is what a stored relation is, and what the vectorized executor in
//!   `maybms-algebra` and normalization operate on;
//! * [`dnf`] — the compiled descriptor-group kernel, the one solver behind
//!   exact `conf`, `conf(eps, delta)` and `certain`: variable elimination
//!   over alive-descriptor bitsets, the exact/sampling cutover price, and
//!   the sampling draws over the same layout;
//! * [`normalize`] — descriptor simplification, absorption, merging of rows
//!   that cover all alternatives of a component, and garbage collection of
//!   unreferenced components;
//! * [`naive`] — plain (single-world) implementations of the positive
//!   relational algebra used by the per-world oracle;
//! * [`stats`] — per-relation statistics (KMV distinct-count sketches,
//!   min/max, descriptor density), read off a relation's columns and
//!   memoised beside them, that the cost-based optimizer phase in
//!   `maybms-algebra` plans against;
//! * [`obs`] — observability: the per-query [`Tracer`]/[`QueryTrace`] span
//!   machinery behind `EXPLAIN ANALYZE` and Chrome-trace export, over
//!   counters that belong to the run;
//! * [`rng`] — tiny deterministic PRNGs: a sequential SplitMix64 so that
//!   property tests and benches need no external crates (the container has
//!   no registry access, so `proptest`/`criterion` are intentionally not
//!   used), and a splittable counter-based generator whose draws are pure
//!   functions of `(seed, stream, index)` — the determinism backbone of the
//!   sampling confidence solver.
//!
//! Layering: `maybms-core` knows nothing about query plans. The algebra IR,
//! its WSD-level executor and the paper's uncertainty constructs
//! (`repair-key`, `possible`, `certain`, `conf`) live in `maybms-algebra`.

pub mod columnar;
pub mod component;
pub mod descriptor;
pub mod dnf;
pub mod error;
pub mod fxhash;
pub mod intern;
pub mod naive;
pub mod normalize;
pub mod obs;
pub mod parallel;
pub mod rel;
pub mod rng;
pub mod schema;
pub mod stats;
pub mod urel;
pub mod value;
pub mod world;

pub use columnar::{ColView, ColumnData, ColumnVec, ColumnarURelation, SortStats, StrPool};
pub use component::{Component, ComponentSet, ConfStats, WorldPick};
pub use descriptor::{ComponentId, WsDescriptor};
pub use dnf::{DnfKernel, EXACT_STEP_CEILING};
pub use error::MayError;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use intern::{DescId, DescriptorPool, PoolStats};
pub use obs::{ObsCounters, QueryTrace, Span, SpanId, SpanKind, Tracer};
pub use parallel::{ParCfg, ParStats};
pub use rel::{Relation, Tuple};
pub use schema::{Column, Schema};
pub use stats::{collect as collect_stats, ColumnStats, KmvSketch, RelationStats};
pub use urel::{Scan, URelation};
pub use value::{Value, ValueType, F64};
pub use world::WorldSet;
