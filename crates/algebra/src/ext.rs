//! The extension-operator interface that keeps the plan IR open.

use std::fmt;

use maybms_core::columnar::ColumnarURelation;
use maybms_core::{MayError, Schema};

use crate::eval::EvalCtx;
use crate::plan::Plan;

/// Plan properties of an extension operator. The optimizer
/// ([`mod@crate::optimize`]) treats every extension operator as a barrier
/// and rewrites only its inputs; these properties feed the derived plan
/// properties ([`Plan::is_distinct`], [`Plan::is_certain`]) its rules test,
/// the cost model, and the input-rewrite guard. Every operator declares
/// its own: claiming a property it lacks is unsound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExtProps {
    /// The operator's input must stay a normalized certain relation
    /// (duplicate-free, every descriptor trivial) — `repair-key`'s
    /// contract. The optimizer refuses any input rewrite that cannot be
    /// shown to preserve provable certainty.
    pub requires_normalized_input: bool,
    /// The output never contains two equal `(tuple, descriptor)` rows.
    pub distinct_output: bool,
    /// Every output row carries the trivial descriptor (the result is a
    /// certain relation).
    pub certain_output: bool,
}

/// An operator plugged into the plan IR from a higher layer.
///
/// Extension operators receive their already-evaluated inputs plus the
/// evaluation context, which gives mutable access to the component set —
/// that is what lets `repair-key` *introduce* new components (uncertainty)
/// and lets `certain`/`conf` consult component probabilities.
///
/// # The columnar ABI
///
/// Inputs and results are [`ColumnarURelation`]s: one typed column vector
/// per attribute plus the dense descriptor column. Their [`maybms_core::DescId`]
/// handles resolve against `ctx.pool` and their string cells against
/// `ctx.strings` — implementations intern through those pools when minting
/// descriptors or strings, and must not assume handles are canonical for
/// rows produced by joins (use `ctx.pool.same_descriptor` / term access for
/// content comparisons). Row order of the result is part of the operator's
/// contract: it must be deterministic for equal inputs, because component
/// minting (e.g. by `repair-key`) follows it.
pub trait ExtOperator: fmt::Debug + Send + Sync {
    /// Operator name, for diagnostics.
    fn name(&self) -> &'static str;

    /// One-line description including the operator's parameters, used by the
    /// plan tree printer (`Display` for [`Plan`]) — the form `EXPLAIN`
    /// prints and the one tests compare plans by; an operator has no other
    /// textual form. Defaults to [`name`].
    ///
    /// [`name`]: ExtOperator::name
    fn describe(&self) -> String {
        self.name().to_string()
    }

    /// The operator's plan properties (see [`ExtProps`]).
    fn props(&self) -> ExtProps;

    /// Rebuild this operator (same parameters) over new input plans, in
    /// [`inputs`] order — how the optimizer rewrites an operator's inputs.
    /// The result must evaluate exactly like the original on inputs that
    /// evaluate exactly like the originals.
    ///
    /// [`inputs`]: ExtOperator::inputs
    fn with_inputs(&self, inputs: Vec<Plan>) -> Plan;

    /// Plan-time cardinality hint for the cost-based phase: estimated output
    /// rows given the estimated input rows, the estimated number of distinct
    /// input tuples, and the estimated fraction of rows with non-trivial
    /// descriptors. The default follows [`ExtProps::distinct_output`]
    /// (world-collapsing operators emit one row per distinct tuple);
    /// operators with tighter bounds override — `certain` keeps only tuples
    /// whose descriptors cover all worlds, `repair-key` is row-preserving.
    fn estimate_rows(&self, input_rows: f64, input_distinct: f64, nontrivial_frac: f64) -> f64 {
        let _ = nontrivial_frac;
        if self.props().distinct_output {
            input_distinct
        } else {
            input_rows
        }
    }

    /// Whether evaluating this operator may mint new components into the
    /// world set. Component minting is the *only* order-observable side
    /// effect of evaluation (component ids are numbered in minting order),
    /// so the executor consults this before reordering sibling subtree
    /// evaluation — e.g. building a sideways-passed Bloom filter from the
    /// join's build side before evaluating the probe side. The default is
    /// conservatively `true`; pure operators (`possible`, `certain`,
    /// `conf`) override to `false`.
    fn mints_components(&self) -> bool {
        true
    }

    /// The operator's input plans, evaluated before [`ExtOperator::eval`] is
    /// called.
    fn inputs(&self) -> Vec<&Plan>;

    /// The output schema, given the input schemas (used for plan-level
    /// schema inference).
    fn output_schema(&self, inputs: &[Schema]) -> Result<Schema, MayError>;

    /// Evaluate on the columnar WSD representation (see the trait docs for
    /// the ABI).
    ///
    /// `ctx.par` carries the run's thread budget and `ctx.par_stats` the
    /// counters a fan-out reports into. `conf` and `certain` are the two
    /// operators that fan out (over `maybms_core::parallel::run_tasks`,
    /// gated on [`ParCfg::workers_for`](maybms_core::ParCfg::workers_for));
    /// CI refuses a third caller until it shows a two-thread win on the
    /// `perfbench` ledger. A parallel implementation must stay
    /// deterministic — byte-identical output for every thread count: tasks
    /// are pure functions of frozen inputs (they may *read* `ctx.pool` and
    /// `ctx.strings`), their results are combined in task order, and tasks
    /// do not mint descriptors or strings — the calling thread does, before
    /// or after the fan-out.
    fn eval(
        &self,
        ctx: &mut EvalCtx<'_>,
        inputs: Vec<ColumnarURelation>,
    ) -> Result<ColumnarURelation, MayError>;
}
