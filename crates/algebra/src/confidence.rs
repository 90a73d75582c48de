//! The kernel stage: `conf` and `certain`, the two operators that hand each
//! distinct tuple's condition — the disjunction of its world-set
//! descriptors — to the solver kernel. `conf` asks how probable it is
//! (exactly, or (ε, δ)-approximately from component probabilities),
//! `certain` whether it is valid: possible means satisfiable, certain means
//! valid. This is the relational operator: it validates, computes the
//! schema, sorts the input into tuple runs and is the engine's one fan-out
//! (`maybms_core::parallel::run_tasks`); each task walks its runs with one
//! `DnfKernel`, which answers a whole run (`prob_all` for `conf`,
//! `covers_all` for `certain`) — the group split, the exact solve, the
//! cutover and the sampling all live in `maybms_core::dnf`.

use std::ops::Range;

use maybms_core::columnar::{ColumnVec, ColumnarURelation};
use maybms_core::dnf::DnfKernel;
use maybms_core::parallel::run_tasks;
use maybms_core::{Column, ConfStats, DescId, MayError, Schema, ValueType};

use crate::eval::EvalCtx;
use crate::uncertain::{tuple_runs, UOp};

/// Name of the appended confidence column.
pub const CONF_COLUMN: &str = "conf";

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
/// (exact when its [`ApproxConf`](crate::ApproxConf) is `None`); `certain` keeps the tuple when
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
        UOp::Conf(approx) => (approx.as_ref(), "solve"),
        UOp::Certain => (None, "coverage-check"),
        UOp::RepairKey { .. } | UOp::Possible => {
            unreachable!("`{}` asks the kernel nothing", op.name())
        }
    };
    if let Some(approx) = approx {
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
            let mut kernel = DnfKernel::new();
            let mut stats = ConfStats::default();
            for &(start, end) in &bounds[range] {
                let run = &perm[start as usize..end as usize];
                let terms = run.iter().map(|&i| pool.terms(r.descs()[i as usize]));
                let keep = match op {
                    UOp::Certain => kernel.covers_all(components, terms, ceiling)?,
                    _ => {
                        confs
                            .push(kernel.prob_all(components, terms, approx, ceiling, &mut stats)?);
                        true
                    }
                };
                if keep {
                    kept.push(run[0]);
                }
            }
            Ok((kept, confs, stats))
        };
        let parts = run_tasks(&mut ctx.stats.par, workers, bounds.len(), walk);
        let mut kept: Vec<u32> = Vec::with_capacity(answers(bounds.len()));
        let mut confs: Vec<f64> = Vec::with_capacity(answers(bounds.len()));
        // Task order: the first failing run's error wins, as it would
        // sequentially. `covers_all` counts nothing, so `certain` reports
        // no solver counters.
        for part in parts {
            let (k, c, stats) = part?;
            kept.extend_from_slice(&k);
            confs.extend_from_slice(&c);
            ctx.stats.conf.absorb(&stats);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{conf, conf_approx_with, ApproxConf, Plan};
    use maybms_core::dnf::{hoeffding_draws, Loaded, EXACT_STEP_CEILING, SAMPLE_DRAW_CEILING};
    use maybms_core::{Component, ComponentId, ComponentSet, WsDescriptor};

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

    /// Estimate the single group `descs` form: `prob_all` with every group
    /// sampled.
    fn estimate_group(
        cs: &ComponentSet,
        descs: &[WsDescriptor],
        eps: f64,
        delta: f64,
        seed: u64,
    ) -> (f64, u64) {
        assert_eq!(
            DnfKernel::new().load(descs.iter().map(WsDescriptor::terms)),
            Loaded::Groups(1)
        );
        let approx = ApproxConf {
            eps,
            delta,
            seed,
            exact_limit: 0,
        };
        let (est, stats) = solve(cs, descs, Some(approx), EXACT_STEP_CEILING);
        (est.expect("under the draw ceiling"), stats.samples_drawn)
    }

    fn solve(
        cs: &ComponentSet,
        descs: &[WsDescriptor],
        mode: Option<ApproxConf>,
        ceiling: u64,
    ) -> (Result<f64, MayError>, ConfStats) {
        let mut stats = ConfStats::default();
        let got = DnfKernel::new().prob_all(
            cs,
            descs.iter().map(WsDescriptor::terms),
            mode.as_ref(),
            ceiling,
            &mut stats,
        );
        (got, stats)
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
            let terms = || descs.iter().map(WsDescriptor::terms);
            let mut kernel = DnfKernel::new();
            let covers = kernel.covers_all(&ws.components, terms(), CEILING);
            let mut stats = ConfStats::default();
            let solve = kernel.prob_all(&ws.components, terms(), None, CEILING, &mut stats);
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
                assert_eq!(ctx.stats.par.morsels, morsels, "{op:?} at {threads}");
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
