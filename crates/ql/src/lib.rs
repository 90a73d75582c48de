//! # maybms-ql — the uncertainty query constructs, by name
//!
//! The paper's query-language constructs for incomplete information —
//! `repair-key`, `possible`, `certain`, exact `conf` and (ε, δ)-approximate
//! `conf` — are plan operators of `maybms-algebra`
//! ([`maybms_algebra::UOp`], evaluated beside its executor). This crate
//! re-exports their constructors, [`ApproxConf`], [`CONF_COLUMN`] and the
//! `conf` defaults under the names callers have always used; it defines
//! nothing of its own.

pub use maybms_algebra::{
    certain, conf, conf_approx, conf_approx_with, possible, repair_key, ApproxConf, CONF_COLUMN,
    DEFAULT_CONF_EXACT_LIMIT, DEFAULT_CONF_SEED,
};
