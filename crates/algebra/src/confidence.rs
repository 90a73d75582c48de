//! The kernel stage: `conf` and `certain`, the two operators that hand each
//! distinct tuple's condition — the disjunction of its world-set
//! descriptors — to the solver kernel. `conf` asks how probable it is
//! (exactly, or (ε, δ)-approximately from component probabilities),
//! `certain` whether it is valid: possible means satisfiable, certain means
//! valid. One stage sorts the input into tuple runs, walks them with one
//! `RunSolver` per task and is the engine's one fan-out
//! (`maybms_core::parallel::run_tasks`).

use std::ops::Range;

use maybms_core::columnar::{ColumnVec, ColumnarURelation};
use maybms_core::dnf::{DnfKernel, GroupSampler, Loaded, SAMPLE_DRAW_CEILING};
use maybms_core::parallel::run_tasks;
use maybms_core::rng::CounterRng;
use maybms_core::{
    Column, ComponentId, ComponentSet, ConfStats, DescId, MayError, Schema, ValueType,
};

use crate::eval::EvalCtx;
use crate::uncertain::{tuple_runs, UOp};

// `conf` computes P(t) = P(d₁ ∨ … ∨ dₙ) per distinct tuple. The
// disjunction factorizes into connected descriptor groups over shared
// components (`P = 1 − Π(1 − P_group)` by independence), and one compiled
// kernel (`maybms_core::dnf`) serves every group, on both paths:
//
// * Exact `conf` solves every group by forward variable elimination —
//   exponential only in the group's frontier width along the component-id
//   order, and given up with a typed error past `EXACT_STEP_CEILING`
//   transitions.
// * `conf(eps, delta)` compares each group's exact cost bound
//   (`DnfKernel::exact_cost`, which knows that width) against the node's
//   cutover (`ApproxConf::exact_limit`, a plain field — nothing ambient is
//   consulted): cheap groups keep the exact path (zero error), expensive
//   groups are estimated by Monte Carlo over group assignments or by a
//   Karp–Luby importance-sampled estimator — sixty-four draws to a machine
//   word over the same by-slot layout — with the draw count derived from the
//   per-group error budget via a Hoeffding bound and refused with a typed
//   error past `SAMPLE_DRAW_CEILING`. The result is within ε of the exact
//   confidence with probability ≥ 1 − δ, per output tuple.
//
// Sampling is deterministic: each group's draws come from a counter-based
// stream keyed on the *content* of the group's descriptors (component ids
// and alternatives), so the estimate for a tuple does not depend on thread
// count, morsel boundaries, or which other tuples are present — the same
// byte-stability contract the exact executor upholds: a selection that
// drops other tuples upstream leaves a surviving tuple's estimate alone.

/// Name of the appended confidence column.
pub const CONF_COLUMN: &str = "conf";

/// Default exact/sampling cutover threshold ([`ApproxConf::exact_limit`]).
/// Sampling a group costs on the order of a few hundred draws for typical
/// (ε, δ) (e.g. ε = 0.05, δ = 0.05 needs 738), each draw touching every
/// group component — so groups whose exact bound is under a few thousand
/// operations are cheaper to solve exactly, and exact means zero error.
pub const DEFAULT_CONF_EXACT_LIMIT: u64 = 4096;

/// Default sampling seed for `conf(eps, delta)` nodes built from SQL (which
/// has no seed syntax). Tests vary the seed through [`crate::conf_approx_with`].
pub const DEFAULT_CONF_SEED: u64 = 0x5EED_C0FF_EE00_0007;

/// Parameters of an (ε, δ)-approximate confidence computation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApproxConf {
    /// Absolute error bound: `|estimate − exact| ≤ eps` with probability
    /// ≥ `1 − delta`, per output tuple. Must lie in `(0, 1)`.
    pub eps: f64,
    /// Failure probability of the guarantee. Must lie in `(0, 1)`.
    pub delta: f64,
    /// Sampling seed. Equal seeds give bit-identical results.
    pub seed: u64,
    /// Exact/sampling cutover: connected groups whose exact cost bound is
    /// ≤ this threshold are solved exactly (zero error); larger groups are
    /// sampled. `0` forces sampling for every group. Plain exact `CONF`
    /// has no such field and never samples.
    pub exact_limit: u64,
}

impl ApproxConf {
    /// Approximation parameters with the default seed and cutover
    /// ([`DEFAULT_CONF_EXACT_LIMIT`]).
    pub fn new(eps: f64, delta: f64) -> ApproxConf {
        ApproxConf {
            eps,
            delta,
            seed: DEFAULT_CONF_SEED,
            exact_limit: DEFAULT_CONF_EXACT_LIMIT,
        }
    }

    /// ε and δ must pass [`check_unit_interval`]. The MayQL planner checks
    /// the literals it lowers with it; this is the check for nodes built
    /// through [`crate::conf_approx_with`], where a NaN ε would otherwise
    /// draw once and return a number with no guarantee behind it.
    fn validate(&self) -> Result<(), MayError> {
        check_unit_interval("eps", self.eps)
            .and_then(|()| check_unit_interval("delta", self.delta))
            .map_err(MayError::InvalidApprox)
    }
}

/// The check on a sampling parameter `what` (`eps` or `delta`): `v` must be
/// a probability strictly inside `(0, 1)` — 0 would demand an exact answer
/// from a sampler, 1 makes the guarantee vacuous. The error is the message;
/// a value whose plain form runs long (`1e308` has 309 digits) is echoed in
/// exponent form.
pub fn check_unit_interval(what: &str, v: f64) -> Result<(), String> {
    if v > 0.0 && v < 1.0 {
        return Ok(());
    }
    let got = v.to_string();
    let got = if got.len() > 20 {
        format!("{v:e}")
    } else {
        got
    };
    Err(format!("{what} must be in (0, 1), got {got}"))
}

/// The schema `conf` outputs over `input`: the input's columns plus
/// [`CONF_COLUMN`]. `Schema::new` rejects an input that already has one.
pub(crate) fn with_conf_column(input: &Schema) -> Result<Schema, MayError> {
    let mut cols = input.columns().to_vec();
    cols.push(Column::new(CONF_COLUMN, ValueType::Float));
    Schema::new(cols)
}

/// The kernel stage: `conf r` and `certain r` (`op`), which ask the same
/// question of each distinct tuple's condition — the disjunction of its
/// descriptors. `conf` appends how probable it is as a [`CONF_COLUMN`]
/// (exact when its [`ApproxConf`] is `None`); `certain` keeps the tuple when
/// it holds in every world. Both results are certain relations (they state
/// facts about the world set, not uncertain data). `ceiling` caps the
/// elimination steps of each exactly solved group; the executor passes
/// [`EXACT_STEP_CEILING`](maybms_core::dnf::EXACT_STEP_CEILING).
pub(crate) fn kernel_stage(
    ctx: &mut EvalCtx<'_>,
    op: &UOp,
    r: &ColumnarURelation,
    ceiling: u64,
) -> Result<ColumnarURelation, MayError> {
    // `perfbench`'s ledger keys on both phase labels.
    let (approx, phase) = match op {
        UOp::Conf(approx) => (*approx, "solve"),
        UOp::Certain => (None, "coverage-check"),
        UOp::RepairKey { .. } | UOp::Possible => {
            unreachable!("`{}` asks the kernel nothing", op.name())
        }
    };
    if let Some(approx) = &approx {
        approx.validate()?;
    }
    let schema = op.output_schema(r.schema())?;
    // Group the rows of each distinct tuple as one contiguous run of a
    // sorted id permutation; the value columns are gathered once at the
    // end and the `conf` column is built as a raw float vector.
    let (perm, bounds) = tuple_runs(r.columns(), r, ctx);
    // Each run's term lists go to the solver straight from the pool, no
    // descriptor is cloned. Each run is independent, the canonical order is
    // total on descriptor content, and sampling streams are pure functions
    // of group content — so the runs parallelize over morsels with
    // bit-exact results for every thread count.
    let (kept, confs) = ctx.phase(phase, |ctx, items| {
        *items = bounds.len() as u64;
        let workers = ctx.par.workers_for(perm.len());
        let pool = &ctx.pool;
        let components = &*ctx.components;
        // `conf` answers every run; `certain` keeps only the valid ones.
        let answers = |runs: usize| if let UOp::Conf(_) = op { runs } else { 0 };
        let walk = |range: Range<usize>| {
            let mut kept: Vec<u32> = Vec::with_capacity(answers(range.len()));
            let mut confs: Vec<f64> = Vec::with_capacity(answers(range.len()));
            let mut solver = RunSolver::new(components, approx, ceiling);
            for &(start, end) in &bounds[range] {
                let run = &perm[start as usize..end as usize];
                let terms = run.iter().map(|&i| pool.terms(r.descs()[i as usize]));
                let keep = match op {
                    UOp::Certain => solver.covers(terms)?,
                    _ => {
                        confs.push(solver.solve(terms)?);
                        true
                    }
                };
                if keep {
                    kept.push(run[0]);
                }
            }
            Ok((kept, confs, solver.stats()))
        };
        let parts = run_tasks(&mut ctx.par_stats, workers, bounds.len(), walk);
        let mut kept: Vec<u32> = Vec::with_capacity(answers(bounds.len()));
        let mut confs: Vec<f64> = Vec::with_capacity(answers(bounds.len()));
        // Task order: the first failing run's error wins, as it would
        // sequentially. `certain` reports no solver counters.
        for part in parts {
            let (k, c, stats) = part?;
            kept.extend_from_slice(&k);
            confs.extend_from_slice(&c);
            if let UOp::Conf(_) = op {
                ctx.conf_stats.absorb(&stats);
            }
        }
        Ok::<_, MayError>((kept, confs))
    })?;
    let mut cols: Vec<ColumnVec> = r.columns().iter().map(|c| c.gather(&kept)).collect();
    if let UOp::Conf(_) = op {
        cols.push(ColumnVec::from_floats(confs));
    }
    let descs = vec![DescId::TAUTOLOGY; kept.len()];
    Ok(ColumnarURelation::from_parts(schema, cols, descs))
}

/// One worker's solver: the kernel with its reusable buffers, the mode, and
/// the counters of the runs solved so far. The engine's one `DnfKernel` is
/// built here.
struct RunSolver<'a> {
    components: &'a ComponentSet,
    /// `None` for exact `conf`; the approximation parameters otherwise.
    mode: Option<ApproxConf>,
    /// Step ceiling per exactly solved group.
    ceiling: u64,
    kernel: DnfKernel,
    /// Per group of the current run: whether it is sampled.
    sampled: Vec<bool>,
    stats: ConfStats,
}

impl<'a> RunSolver<'a> {
    fn new(components: &'a ComponentSet, mode: Option<ApproxConf>, ceiling: u64) -> Self {
        RunSolver {
            components,
            mode,
            ceiling,
            kernel: DnfKernel::new(),
            sampled: Vec::new(),
            stats: ConfStats::default(),
        }
    }

    /// The counters of every run solved so far.
    fn stats(&self) -> ConfStats {
        ConfStats {
            exact_steps: self.kernel.steps(),
            ..self.stats
        }
    }

    /// Whether one distinct tuple's disjunction, given as its descriptors'
    /// term lists, holds in every world: it does iff it contains the
    /// tautology or some connected group covers every assignment of its own
    /// components, which the kernel decides by the elimination walk
    /// `RunSolver::solve` uses, stopping at the first uncovered
    /// assignment.
    fn covers<'t>(
        &mut self,
        descs: impl IntoIterator<Item = &'t [(ComponentId, u16)]>,
    ) -> Result<bool, MayError> {
        self.kernel.covers_all(self.components, descs, self.ceiling)
    }

    /// Solve one distinct tuple's disjunction, given as its descriptors'
    /// term lists in canonical run order.
    ///
    /// Groups combine in the kernel's order with an early exit at certainty,
    /// operation for operation what [`ComponentSet::prob_of_dnf`] does, so
    /// exact `conf` results are bit-identical to that wrapper. Under
    /// sampling, the tuple's error budget is split evenly across its sampled
    /// groups: `1 − Π(1 − p_g)` moves by at most the sum of the per-group
    /// errors (each partial derivative has magnitude ≤ 1), and a union bound
    /// covers δ — exact groups contribute zero error, so they are excluded
    /// from the split.
    fn solve<'t>(
        &mut self,
        descs: impl IntoIterator<Item = &'t [(ComponentId, u16)]>,
    ) -> Result<f64, MayError> {
        let groups = match self.kernel.load(descs) {
            Loaded::Empty => return Ok(0.0),
            Loaded::Tautology => return Ok(1.0),
            Loaded::Groups(n) => n,
        };
        self.sampled.clear();
        if let Some(a) = self.mode {
            let limit = u128::from(a.exact_limit);
            self.sampled
                .extend((0..groups).map(|g| self.kernel.exact_cost(self.components, g) > limit));
        }
        let budget_ways = self.sampled.iter().filter(|&&s| s).count().max(1) as f64;
        let mut prob_none = 1.0;
        for g in 0..groups {
            let len = self.kernel.group_len(g) as u64;
            self.stats.largest_group = self.stats.largest_group.max(len);
            let p = match self.mode {
                Some(a) if self.sampled[g] => {
                    let rng = CounterRng::new(a.seed, self.kernel.stream_key(g));
                    estimate(
                        &mut self.kernel.sampler(self.components, g),
                        a.eps / budget_ways,
                        a.delta / budget_ways,
                        &rng,
                        &mut self.stats,
                    )?
                }
                _ => {
                    self.stats.exact_groups += 1;
                    self.kernel.prob(self.components, g, self.ceiling)?
                }
            };
            prob_none *= 1.0 - p;
            if prob_none == 0.0 {
                break;
            }
        }
        Ok(1.0 - prob_none)
    }
}

/// Hoeffding draw count: the mean of `n` i.i.d. variables bounded in
/// `[0, width]` is within `eps` of its expectation with probability
/// ≥ `1 − delta` once `n ≥ width² · ln(2/δ) / (2ε²)`.
fn hoeffding_draws(eps: f64, delta: f64, width: f64) -> u64 {
    let n = width * width * (2.0 / delta).ln() / (2.0 * eps * eps);
    n.ceil().max(1.0) as u64
}

/// Estimate one group's `P(∨ dᵢ)` to within `eps` with probability
/// ≥ `1 − delta`, counting the group, its estimator and its draws into
/// `stats` — or refuse, before the first draw, a count past
/// [`SAMPLE_DRAW_CEILING`].
///
/// Two estimators, both unbiased, chosen by cost: when `U = Σ P(dᵢ) ≥ 1`,
/// plain Monte Carlo over group assignments (indicator in `[0, 1]`, so
/// `ln(2/δ)/(2ε²)` draws). When `U < 1` — long disjunctions of rare
/// descriptors, where naive draws are almost all misses — the Karp–Luby
/// estimator, whose samples lie in `[0, U]` and have mean `P(∨ dᵢ)`, so
/// Hoeffding needs only `U²` times the Monte Carlo count — strictly fewer
/// draws whenever `U < 1`.
fn estimate(
    sampler: &mut GroupSampler<'_>,
    eps: f64,
    delta: f64,
    rng: &CounterRng,
    stats: &mut ConfStats,
) -> Result<f64, MayError> {
    let total_weight = sampler.total_weight();
    let karp_luby = total_weight < 1.0;
    let width = if karp_luby { total_weight } else { 1.0 };
    let draws = hoeffding_draws(eps, delta, width);
    if draws > SAMPLE_DRAW_CEILING {
        return Err(MayError::TooManyDraws {
            descriptors: sampler.descriptors(),
            draws,
            limit: SAMPLE_DRAW_CEILING,
        });
    }
    stats.sampled_groups += 1;
    stats.karp_luby_groups += u64::from(karp_luby);
    stats.samples_drawn += draws;
    let hits = if karp_luby {
        sampler.karp_luby(rng, draws)
    } else {
        sampler.monte_carlo(rng, draws)
    };
    Ok((width * hits as f64 / draws as f64).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{conf, conf_approx_with, Plan};
    use maybms_core::dnf::EXACT_STEP_CEILING;
    use maybms_core::{Component, WsDescriptor};

    fn two_comp_set() -> (ComponentSet, ComponentId, ComponentId) {
        let mut cs = ComponentSet::new();
        let c0 = cs.add(Component::from_weights(&[1.0, 3.0]).unwrap());
        let c1 = cs.add(Component::uniform(3).unwrap());
        (cs, c0, c1)
    }

    /// A chain of `links` two-term descriptors `cᵢ=0 ∧ cᵢ₊₁=0` over
    /// `alts`-way uniform components: one connected group.
    fn chain(links: usize, alts: usize) -> (ComponentSet, Vec<WsDescriptor>) {
        let mut cs = ComponentSet::new();
        let ids: Vec<ComponentId> = (0..=links)
            .map(|_| cs.add(Component::uniform(alts).unwrap()))
            .collect();
        let descs = (0..links)
            .map(|i| {
                WsDescriptor::single(ids[i], 0)
                    .conjoin(&WsDescriptor::single(ids[i + 1], 0))
                    .unwrap()
            })
            .collect();
        (cs, descs)
    }

    /// Estimate the single group `descs` form, as `solve` would.
    fn estimate_group(
        cs: &ComponentSet,
        descs: &[WsDescriptor],
        eps: f64,
        delta: f64,
        seed: u64,
    ) -> (f64, u64) {
        let mut kernel = DnfKernel::new();
        assert_eq!(
            kernel.load(descs.iter().map(WsDescriptor::terms)),
            Loaded::Groups(1)
        );
        let rng = CounterRng::new(seed, kernel.stream_key(0));
        let mut stats = ConfStats::default();
        let est = estimate(&mut kernel.sampler(cs, 0), eps, delta, &rng, &mut stats)
            .expect("under the draw ceiling");
        (est, stats.samples_drawn)
    }

    fn solve(
        cs: &ComponentSet,
        descs: &[WsDescriptor],
        mode: Option<ApproxConf>,
        ceiling: u64,
    ) -> (Result<f64, MayError>, ConfStats) {
        let mut solver = RunSolver::new(cs, mode, ceiling);
        let got = solver.solve(descs.iter().map(WsDescriptor::terms));
        (got, solver.stats())
    }

    #[test]
    fn hoeffding_counts() {
        // ln(2/0.05) / (2 · 0.05²) = 3.6889 / 0.005 = 737.8 → 738.
        assert_eq!(hoeffding_draws(0.05, 0.05, 1.0), 738);
        // Width scales quadratically.
        assert_eq!(hoeffding_draws(0.05, 0.05, 0.5), 185);
        assert!(hoeffding_draws(0.5, 0.5, 1.0) >= 1);
    }

    #[test]
    fn both_estimators_land_within_eps() {
        let (cs, c0, c1) = two_comp_set();
        // Connected group (shares c0): U = 3/4 + 1/4 = 1, Monte Carlo.
        let descs = [
            WsDescriptor::single(c0, 1),
            WsDescriptor::single(c0, 1)
                .conjoin(&WsDescriptor::single(c1, 2))
                .unwrap(),
        ];
        let exact = cs.prob_of_dnf(&descs);
        for (eps, delta) in [(0.02, 0.01), (0.05, 0.05)] {
            for seed in 0..20u64 {
                let (est, draws) = estimate_group(&cs, &descs, eps, delta, seed);
                assert!(
                    (est - exact).abs() <= eps,
                    "seed {seed}: |{est} - {exact}| > {eps}"
                );
                assert_eq!(draws, hoeffding_draws(eps, delta, 1.0));
            }
        }
    }

    #[test]
    fn karp_luby_kicks_in_for_rare_disjunctions() {
        // A chain of rare two-term descriptors over 8-way components: each
        // descriptor has probability 1/64, so U = 3/64 ≪ 1 and the
        // Karp–Luby estimator (width U) needs far fewer draws than plain
        // Monte Carlo (width 1) at the same (ε, δ).
        let (cs, descs) = chain(3, 8);
        let exact = cs.prob_of_dnf(&descs);
        let (est, draws) = estimate_group(&cs, &descs, 0.01, 0.01, 11);
        assert!((est - exact).abs() <= 0.01, "|{est} - {exact}|");
        assert_eq!(draws, hoeffding_draws(0.01, 0.01, 3.0 / 64.0));
        assert!(draws < hoeffding_draws(0.01, 0.01, 1.0));
    }

    #[test]
    fn solve_run_exact_matches_prob_of_dnf() {
        let (cs, c0, c1) = two_comp_set();
        let descs = vec![
            WsDescriptor::single(c0, 0),
            WsDescriptor::single(c1, 2),
            WsDescriptor::single(c0, 1)
                .conjoin(&WsDescriptor::single(c1, 0))
                .unwrap(),
        ];
        let (got, stats) = solve(&cs, &descs, None, EXACT_STEP_CEILING);
        // Bit-identical: same kernel, same group order.
        assert_eq!(got.unwrap().to_bits(), cs.prob_of_dnf(&descs).to_bits());
        assert_eq!(stats.sampled_groups, 0);
        assert_eq!(stats.exact_groups, 1);
        assert!(stats.exact_steps > 0);
        // The two-term descriptor bridges c0 and c1: one group of three.
        assert_eq!(stats.largest_group, 3);
    }

    #[test]
    fn forced_sampling_stays_within_eps() {
        let (cs, c0, c1) = two_comp_set();
        let descs = vec![WsDescriptor::single(c0, 0), WsDescriptor::single(c1, 2)];
        let exact = cs.prob_of_dnf(&descs);
        let approx = ApproxConf {
            eps: 0.02,
            delta: 0.01,
            seed: 5,
            exact_limit: 0,
        };
        let (got, stats) = solve(&cs, &descs, Some(approx), EXACT_STEP_CEILING);
        let got = got.unwrap();
        assert!((got - exact).abs() <= 0.02, "|{got} - {exact}|");
        assert_eq!(stats.exact_groups, 0);
        assert_eq!(stats.sampled_groups, 2);
        // P = 1/4 and 1/3: both singletons weigh under 1.
        assert_eq!(stats.karp_luby_groups, 2);
        assert_eq!(stats.exact_steps, 0);
    }

    #[test]
    fn trivial_runs_keep_the_cutover() {
        // A lone descriptor prices 2, a one-component run of two named
        // alternatives (of 3) prices 3: the kernel answers both without a
        // layout, but only below the cutover — past it they are sampled.
        let (cs, c0, c1) = two_comp_set();
        let lone = [WsDescriptor::single(c0, 1)
            .conjoin(&WsDescriptor::single(c1, 2))
            .unwrap()];
        let key = [WsDescriptor::single(c1, 0), WsDescriptor::single(c1, 2)];
        let approx = ApproxConf {
            seed: 3,
            ..ApproxConf::new(0.05, 0.05)
        };
        for (descs, price) in [(&lone[..], 2), (&key[..], 3)] {
            let (got, stats) = solve(&cs, descs, Some(approx), EXACT_STEP_CEILING);
            assert_eq!(got.unwrap().to_bits(), cs.prob_of_dnf(descs).to_bits());
            assert_eq!((stats.exact_groups, stats.sampled_groups), (1, 0));
            assert_eq!(stats.samples_drawn, 0);
            for exact_limit in [0, price - 1] {
                let forced = ApproxConf {
                    exact_limit,
                    ..approx
                };
                let (got, stats) = solve(&cs, descs, Some(forced), EXACT_STEP_CEILING);
                let err = (got.unwrap() - cs.prob_of_dnf(descs)).abs();
                assert!(err <= 0.05, "{err}");
                assert_eq!((stats.exact_groups, stats.sampled_groups), (0, 1));
                assert!(stats.samples_drawn > 0);
                assert_eq!(stats.exact_steps, 0);
            }
        }
    }

    #[test]
    fn a_draw_count_past_the_ceiling_is_refused_before_the_first_draw() {
        // ln(2/0.5) / (2 · 10⁻¹⁸) ≈ 6.9·10¹⁷ Monte Carlo draws for the chain
        // (U = 12/4 ≥ 1); nothing is counted as sampled.
        let (cs, descs) = chain(12, 2);
        let approx = ApproxConf {
            eps: 1e-9,
            delta: 0.5,
            seed: 0,
            exact_limit: 0,
        };
        let (got, stats) = solve(&cs, &descs, Some(approx), EXACT_STEP_CEILING);
        assert_eq!(
            got,
            Err(MayError::TooManyDraws {
                descriptors: 12,
                draws: hoeffding_draws(1e-9, 0.5, 1.0),
                limit: SAMPLE_DRAW_CEILING,
            })
        );
        assert_eq!((stats.sampled_groups, stats.samples_drawn), (0, 0));
        // An ε whose square underflows asks for "infinitely many": still typed.
        let approx = ApproxConf {
            eps: 1e-200,
            ..approx
        };
        let (got, _) = solve(&cs, &descs, Some(approx), EXACT_STEP_CEILING);
        assert!(matches!(
            got,
            Err(MayError::TooManyDraws {
                draws: u64::MAX,
                ..
            })
        ));
    }

    #[test]
    fn eps_and_delta_outside_the_unit_interval_are_rejected_by_eval() {
        use maybms_core::{Tuple, URelation, Value, WorldSet};
        let mut ws = WorldSet::new();
        let c = ws.components.add(Component::uniform(2).unwrap());
        let mut rel = URelation::new(Schema::of(&[("a", ValueType::Int)]).unwrap());
        rel.push(Tuple::new(vec![Value::Int(0)]), WsDescriptor::single(c, 0))
            .unwrap();
        ws.insert("r", rel).unwrap();
        let run = |eps: f64, delta: f64| {
            let approx = ApproxConf {
                exact_limit: 0,
                ..ApproxConf::new(eps, delta)
            };
            crate::run(&mut ws.clone(), &conf_approx_with(Plan::scan("r"), approx))
        };
        assert!(run(0.1, 0.1).is_ok());
        for bad in [f64::NAN, 0.0, 1.0, -0.1, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                run(bad, 0.1),
                Err(MayError::InvalidApprox(format!(
                    "eps must be in (0, 1), got {bad}"
                ))),
            );
            assert_eq!(
                run(0.1, bad),
                Err(MayError::InvalidApprox(format!(
                    "delta must be in (0, 1), got {bad}"
                ))),
            );
        }
        // Not the 309 digits of its plain form.
        let huge = MayError::InvalidApprox("eps must be in (0, 1), got 1e308".into());
        assert_eq!(run(1e308, 0.1), Err(huge));
    }

    #[test]
    fn a_single_tuple_run_reports_no_fan_out() {
        use crate::{run_with, ExecCfg};
        use maybms_core::parallel::DEFAULT_MIN_ROWS;
        use maybms_core::{ParCfg, Tuple, URelation, Value, WorldSet};
        // Enough rows to pass the morsel threshold, but all of one tuple:
        // one run is one task, which `run_tasks` runs inline.
        let mut ws = WorldSet::new();
        let c = ws.components.add(Component::uniform(2).unwrap());
        let mut rel = URelation::new(Schema::of(&[("a", ValueType::Int)]).unwrap());
        for i in 0..DEFAULT_MIN_ROWS {
            let alt = (i % 2) as u16;
            rel.push(
                Tuple::new(vec![Value::Int(0)]),
                WsDescriptor::single(c, alt),
            )
            .unwrap();
        }
        ws.insert("r", rel).unwrap();
        let cfg = ExecCfg {
            par: ParCfg::with_threads(4),
        };
        for plan in [conf(Plan::scan("r")), crate::certain(Plan::scan("r"))] {
            let (out, _, stats, _) = run_with(&mut ws.clone(), &plan, &cfg, false).unwrap();
            assert_eq!(out.len(), 1);
            assert!(stats.par.workers_used <= 1, "{:?}", stats.par);
            assert_eq!(stats.par.morsels, 0);
        }
    }

    #[test]
    fn exact_solve_gives_up_at_the_step_ceiling() {
        // A 12-link chain takes a few dozen transitions; a ceiling of 10
        // stops it with the typed error, one of 1000 does not.
        let (cs, descs) = chain(12, 2);
        let (got, _) = solve(&cs, &descs, None, 10);
        match got {
            Err(MayError::TooManySteps {
                descriptors: 12,
                steps,
                limit: 10,
            }) => assert!(steps > 10),
            other => panic!("expected TooManySteps, got {other:?}"),
        }
        // (`conf_soundness` compares this chain's exact `conf` with the
        // brute-force oracle.)
        let (got, stats) = solve(&cs, &descs, None, 1000);
        assert!(got.is_ok());
        assert!(stats.exact_steps <= 1000);
    }

    #[test]
    fn the_first_failing_run_wins_in_both_modes_under_fan_out() {
        use crate::{run_with, ExecCfg};
        use maybms_core::{ParCfg, Tuple, URelation, Value, WorldSet};
        // A decision chain over `n` fresh two-way components: `c₀=0`,
        // `c₀=1 ∧ c₁=0`, …, and all of them 1 — one group that covers every
        // world, so the coverage walk meets the ceiling before it could
        // find an uncovered assignment.
        fn decision_chain(ws: &mut WorldSet, n: usize) -> Vec<WsDescriptor> {
            let ids: Vec<ComponentId> = (0..n)
                .map(|_| ws.components.add(Component::uniform(2).unwrap()))
                .collect();
            let prefix = |k: usize, last: u16| {
                let mut terms: Vec<_> = ids[..k].iter().map(|&c| (c, 1)).collect();
                terms.push((ids[k], last));
                WsDescriptor::from_terms(terms).unwrap()
            };
            let mut descs: Vec<_> = (0..n).map(|k| prefix(k, 0)).collect();
            descs.push(prefix(n - 1, 1));
            descs
        }
        const CEILING: u64 = 3;
        let mut ws = WorldSet::new();
        let lone = ws.components.add(Component::uniform(2).unwrap());
        let (early, late) = (decision_chain(&mut ws, 3), decision_chain(&mut ws, 4));
        // Alone, each failing run passes the ceiling with its own error, in
        // both modes; every other run is one descriptor, which needs no walk.
        let alone = |descs: &[WsDescriptor]| {
            let mut solver = RunSolver::new(&ws.components, None, CEILING);
            let covers = solver.covers(descs.iter().map(WsDescriptor::terms));
            let solve = solver.solve(descs.iter().map(WsDescriptor::terms));
            let err = covers.expect_err("past the ceiling");
            assert_eq!(solve, Err(err.clone()));
            err
        };
        let (first, second) = (alone(&early), alone(&late));
        assert_ne!(first, second);
        assert!(matches!(first, MayError::TooManySteps { .. }), "{first:?}");
        // 64 runs: at four threads, sixteen morsels of four, so runs 10 and
        // 50 land in morsels 2 and 12.
        let mut rel = URelation::new(Schema::of(&[("a", ValueType::Int)]).unwrap());
        for a in 0..64 {
            let descs = match a {
                10 => early.clone(),
                50 => late.clone(),
                _ => vec![WsDescriptor::single(lone, (a % 2) as u16)],
            };
            for d in descs {
                rel.push(Tuple::new(vec![Value::Int(a)]), d).unwrap();
            }
        }
        ws.insert("r", rel).unwrap();
        for threads in [1, 4] {
            let cfg = ExecCfg {
                par: ParCfg {
                    threads,
                    min_rows: 1,
                },
            };
            for op in [UOp::Certain, UOp::Conf(None)] {
                let mut components = ws.components.clone();
                let mut ctx = EvalCtx::with_exec(&mut components, cfg);
                let input = ColumnarURelation::from_urelation(
                    &ws.relations["r"],
                    &mut ctx.pool,
                    &mut ctx.strings,
                );
                let got = kernel_stage(&mut ctx, &op, &input, CEILING);
                assert_eq!(got.err(), Some(first.clone()), "{op:?} at {threads}");
                let morsels = if threads == 1 { 0 } else { 16 };
                assert_eq!(ctx.par_stats.morsels, morsels, "{op:?} at {threads}");
            }
            // Under the executor's ceiling both chains are certain, and
            // `certain` reports no solver counters.
            let plan = crate::certain(Plan::scan("r"));
            let (out, _, stats, _) = run_with(&mut ws.clone(), &plan, &cfg, false).unwrap();
            assert_eq!(out.len(), 2);
            assert_eq!(stats.conf, ConfStats::default(), "at {threads}");
        }
    }
}
