//! # maybms-ql — the uncertainty query constructs
//!
//! The paper's query-language constructs for incomplete information,
//! implemented as [`maybms_algebra::ExtOperator`] plan operators:
//!
//! * [`repair_key`] — *introduces* uncertainty: all maximal repairs of a key
//!   constraint become alternative worlds, optionally weighted by a column
//!   (`repair key A in R weight by w`). Each key group becomes one fresh
//!   independent component.
//! * [`possible`] — tuples occurring in *at least one* world (a certain
//!   relation).
//! * [`certain`] — tuples occurring in *every* world, decided exactly by
//!   enumerating only the components a tuple's descriptors mention.
//! * [`conf`] — exact tuple confidence: the probability of the disjunction
//!   of the tuple's descriptors, appended as a `conf` float column. Exact
//!   confidence computation is #P-hard in general; this implementation is
//!   exponential only in the largest connected descriptor group of each
//!   tuple and is the ground truth the sampling solver is measured against.
//! * [`conf_approx`] — (ε, δ)-approximate tuple confidence
//!   (`SELECT CONF(eps, delta) …`): connected groups whose exact cost bound
//!   is under the node's cutover threshold ([`ApproxConf::exact_limit`],
//!   default [`DEFAULT_CONF_EXACT_LIMIT`]) keep the exact factorized
//!   path; larger groups are estimated by deterministic, content-keyed
//!   Monte Carlo or Karp–Luby sampling with Hoeffding-derived draw counts.
//!
//! All five compose freely with the positive relational algebra of
//! `maybms-algebra`: they are ordinary plan nodes.

mod confidence;
mod extract;
mod order;
mod repair;

pub use confidence::{
    conf, conf_approx, conf_approx_with, ApproxConf, Conf, CONF_COLUMN, DEFAULT_CONF_EXACT_LIMIT,
    DEFAULT_CONF_SEED,
};
pub use extract::{certain, possible, Certain, Possible};
pub use repair::{repair_key, RepairKey};
