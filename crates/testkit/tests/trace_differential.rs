//! Differential tests for the observability layer: tracing must be a pure
//! observer. A traced run and an untraced run (`run_with`, `traced` on and
//! off) of the same plan on clones of the same world
//! set must produce byte-identical u-relations and identical post-run
//! world sets — at `threads = 1` and `threads = 4` with the morsel
//! threshold forced to 1 row, so span bookkeeping is exercised under
//! every parallel code path. The trace itself must be structurally sound:
//! one span per plan node (operators add `·` sub-phases), opened in plan
//! pre-order under its plan parent, a root whose `rows_out` is the result
//! cardinality, and counter
//! attribution that never loses mass (a child's inclusive counters never
//! exceed its parent's). Every counter a span reads is its own run's, so
//! runs on other threads leave a trace untouched.
//!
//! A failing case prints its seed for exact replay.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use maybms_algebra::{run_with, ExecCfg, Plan};
use maybms_core::obs::{ObsCounters, SpanKind};
use maybms_core::rng::Rng;
use maybms_core::{ParCfg, Schema, Tuple, URelation, Value, ValueType, WorldSet, WsDescriptor};
use maybms_ql::{conf, possible, repair_key};
use maybms_testkit::{gen_uncertain_plan, gen_world_set, GenConfig};

const CASES: u64 = 120;

/// Force every parallel code path even on tiny generated inputs.
fn exec(threads: usize) -> ExecCfg {
    ExecCfg {
        par: ParCfg {
            threads,
            min_rows: 1,
        },
    }
}

#[test]
fn traced_and_untraced_runs_are_byte_identical() {
    let cfg = GenConfig::default();
    for case in 0..CASES {
        let mut rng = Rng::new(0x7AACE ^ case);
        let ws = gen_world_set(&mut rng, &cfg);
        let plan = gen_uncertain_plan(&mut rng, &ws, 3);
        for threads in [1, 4] {
            let cfg = exec(threads);
            let mut ws_plain = ws.clone();
            let (plain, minted, _, no_trace) = run_with(&mut ws_plain, &plan, &cfg, false)
                .unwrap_or_else(|e| panic!("case {case}: untraced run failed: {e}"));
            ws_plain.components.extend(minted);
            assert!(no_trace.is_none(), "case {case}: untraced run has no trace");
            let mut ws_traced = ws.clone();
            let (traced, minted, _, trace) = run_with(&mut ws_traced, &plan, &cfg, true)
                .unwrap_or_else(|e| panic!("case {case}: traced run failed: {e}"));
            ws_traced.components.extend(minted);
            let trace = trace.expect("traced run returns its trace");
            assert_eq!(
                plain, traced,
                "case {case} (threads={threads}): tracing changed the result\nplan: {plan:?}"
            );
            assert_eq!(
                plain.to_string(),
                traced.to_string(),
                "case {case} (threads={threads}): rendered results differ"
            );
            assert_eq!(
                ws_plain, ws_traced,
                "case {case} (threads={threads}): tracing changed the world set"
            );
            assert_eq!(
                trace.threads, threads,
                "case {case}: trace records the thread budget"
            );
        }
    }
}

#[test]
fn traces_cover_every_plan_node_and_attribute_consistently() {
    let cfg = GenConfig::default();
    for case in 0..CASES {
        let mut rng = Rng::new(0x57A75 ^ case);
        let ws = gen_world_set(&mut rng, &cfg);
        let plan = gen_uncertain_plan(&mut rng, &ws, 3);
        let mut ws_eval = ws.clone();
        let (result, _, _, trace) = run_with(&mut ws_eval, &plan, &exec(2), true)
            .unwrap_or_else(|e| panic!("case {case}: traced run failed: {e}"));
        let trace = trace.expect("traced run returns its trace");

        // Every plan node evaluates exactly once, so it opens exactly one
        // span; children evaluate in plan order — a join's left side before
        // its right — so the node spans are the plan's nodes in pre-order,
        // each under its plan parent. `EXPLAIN ANALYZE` pairs the `i`-th
        // node span with the `i`-th pre-order estimate on the strength of
        // this.
        let mut expected = Vec::new();
        preorder(&plan, None, &mut expected);
        // Each node span's label and the node index of its parent span.
        let mut node_of_span = vec![None; trace.spans.len()];
        let mut got = Vec::new();
        for (i, span) in trace.spans.iter().enumerate() {
            if span.kind == SpanKind::Node {
                node_of_span[i] = Some(got.len());
                let parent = span.parent.and_then(|p| node_of_span[p as usize]);
                got.push((span.label.clone(), parent));
            }
        }
        assert_eq!(
            got, expected,
            "case {case}: node spans are not the plan in pre-order\nplan:\n{plan}"
        );

        let root = trace
            .root()
            .unwrap_or_else(|| panic!("case {case}: trace has no root span"));
        // The root span is the plan's root operator. (Its `rows_out`
        // counts executor batch rows, which the final u-relation
        // conversion may merge or split per ws-descriptor — so only a
        // non-empty result implies a non-empty root.)
        assert_eq!(
            root.label,
            plan.node_label(),
            "case {case}: root span is not the plan root"
        );
        if !result.is_empty() {
            assert!(
                root.rows_out > 0,
                "case {case}: non-empty result from a zero-row root span"
            );
        }

        for (i, span) in trace.spans.iter().enumerate() {
            // Wall-clock containment: a child runs inside its parent.
            if let Some(parent) = span.parent {
                let p = &trace.spans[parent as usize];
                assert!(
                    span.start_nanos >= p.start_nanos
                        && span.start_nanos + span.dur_nanos <= p.start_nanos + p.dur_nanos,
                    "case {case}: span {i} escapes its parent's interval"
                );
            }
            // The children's inclusive counters fit in their parent's, field
            // by field, summed exactly.
            let mut child_sum = [0u64; 13];
            for child in trace.spans.iter().filter(|c| c.parent == Some(i as u32)) {
                for (sum, v) in child_sum.iter_mut().zip(fields(&child.counters)) {
                    *sum += v;
                }
            }
            let own = fields(&span.counters);
            assert!(
                child_sum.iter().zip(own).all(|(&sum, v)| sum <= v),
                "case {case}: children of span {i} sum to {child_sum:?}, more than {own:?}"
            );
            // Counter attribution never goes negative: exclusive counters
            // are inclusive minus children, and the children's sums fit.
            if span.kind == SpanKind::Node {
                let ex = trace.exclusive(i);
                assert!(
                    ex.conjoin_calls <= span.counters.conjoin_calls
                        && ex.intern_calls <= span.counters.intern_calls
                        && ex.morsels <= span.counters.morsels,
                    "case {case}: exclusive counters of span {i} exceed inclusive"
                );
            }
        }
    }
}

/// The plan's nodes in pre-order: each node's label and the pre-order index
/// of its parent.
fn preorder(plan: &Plan, parent: Option<usize>, out: &mut Vec<(String, Option<usize>)>) {
    let me = out.len();
    out.push((plan.node_label(), parent));
    for child in plan.children() {
        preorder(child, Some(me), out);
    }
}

/// Every counter of a span, in declaration order.
fn fields(c: &ObsCounters) -> [u64; 13] {
    [
        c.morsels,
        c.intern_calls,
        c.intern_hits,
        c.imported,
        c.conjoin_calls,
        c.exact_groups,
        c.sampled_groups,
        c.karp_luby_groups,
        c.exact_steps,
        c.samples_drawn,
        c.radix_passes,
        c.tie_cmps,
        c.busy_nanos,
    ]
}

/// `CONF` over a repair of `rows` rows: 1 + `rows` / 4 tuple runs to solve,
/// so a two-thread budget fans the solve out.
fn conf_workload(rows: usize) -> (WorldSet, Plan) {
    let mut rng = Rng::new(0xB05E);
    let schema = Schema::of(&[
        ("a", ValueType::Int),
        ("b", ValueType::Int),
        ("w", ValueType::Int),
    ])
    .expect("distinct columns");
    let mut rel = URelation::new(schema);
    for i in 0..rows {
        let tuple = Tuple::new(vec![
            Value::Int((i / 4) as i64),
            Value::Int(rng.below(50) as i64),
            Value::Int(1 + rng.below(3) as i64),
        ]);
        rel.push(tuple, WsDescriptor::tautology())
            .expect("tuple matches schema");
    }
    let mut ws = WorldSet::new();
    ws.insert("big", rel).expect("certain relation is valid");
    let repaired = repair_key(possible(Plan::scan("big")), &["a"], Some("w"));
    (ws, conf(repaired.project(["b"])))
}

/// While another thread keeps fanning `CONF` solves out over two workers,
/// traced one-thread runs see none of those workers' busy time: not in any
/// span and not in their `ExecStats`.
#[test]
fn concurrent_fan_outs_do_not_leak_into_a_trace() {
    let (bg_ws, bg_plan) = conf_workload(400);
    let stop = AtomicBool::new(false);
    let fanned_out = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let background = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let (_, _, stats, _) = run_with(&mut bg_ws.clone(), &bg_plan, &exec(2), false)
                    .expect("background run succeeds");
                assert!(stats.par.busy_nanos > 0, "the background run fans out");
                fanned_out.fetch_add(1, Ordering::Relaxed);
            }
        });
        // Stops the background loop however this thread leaves the scope,
        // a failed assertion included (the scope joins it before reporting).
        let _stop = StopOnDrop(&stop);
        let (conf_ws, conf_plan) = conf_workload(400);
        let cfg = GenConfig::default();
        let mut case = 0u64;
        // At least 40 cases, and on until 20 background fan-outs ran
        // alongside them (or the background thread stopped on a failure,
        // which the scope then reports).
        let overlapped = fanned_out.load(Ordering::Relaxed) + 20;
        while case < 40
            || (fanned_out.load(Ordering::Relaxed) < overlapped && !background.is_finished())
        {
            let mut rng = Rng::new(0xC0C0 ^ case);
            let ws = gen_world_set(&mut rng, &cfg);
            let plan = gen_uncertain_plan(&mut rng, &ws, 3);
            for (ws, plan) in [(&ws, &plan), (&conf_ws, &conf_plan)] {
                let (_, _, stats, trace) = run_with(&mut ws.clone(), plan, &exec(1), true)
                    .unwrap_or_else(|e| panic!("case {case}: traced run failed: {e}"));
                assert_eq!(
                    stats.par.busy_nanos, 0,
                    "case {case}: a one-thread run counted busy workers"
                );
                let trace = trace.expect("traced run returns its trace");
                for (i, span) in trace.spans.iter().enumerate() {
                    assert_eq!(
                        span.counters.busy_nanos, 0,
                        "case {case}: span {i} ({}) counted another run's workers",
                        span.label
                    );
                }
            }
            case += 1;
        }
    });
}

/// Sets its flag when dropped.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}
