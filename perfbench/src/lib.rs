//! # perfbench — the repository's benchmark
//!
//! Five MayQL session workloads driven in-process through the engine's
//! public API, five end-to-end metrics per workload, and a per-layer ledger
//! from a separate traced pass. `BENCHMARK.json` at the repository root names
//! this package; the README has the workload "why" table, the metric → layer
//! → end-to-end map and the reference-host numbers.
//!
//! Module map: [`engine`] is the only file that touches the engine (the
//! pinned API surface and the client [`engine::Session`]); [`gen`] and
//! [`workloads`] make the inputs and the rounds; [`run`] is the closed loop
//! and its two passes; [`check`] holds results to an independent reference;
//! [`calib`] is the reference kernel the bounded timing is relative to;
//! [`spans`], [`layers`] and [`probes`] produce the per-layer numbers;
//! [`report`] prints, writes and compares them.

pub mod calib;
pub mod check;
pub mod engine;
pub mod gen;
pub mod json;
pub mod layers;
pub mod probes;
pub mod report;
pub mod run;
pub mod spans;
pub mod workloads;
