//! Differential tests for the observability layer: tracing must be a pure
//! observer. A traced run and an untraced run (`run_with`, `traced` on and
//! off) of the same plan on clones of the same world
//! set must produce byte-identical u-relations and identical post-run
//! world sets — at `threads = 1` and `threads = 4` with the morsel
//! threshold forced to 1 row, so span bookkeeping is exercised under
//! every parallel code path. The trace itself must be structurally sound:
//! one span per plan node (at least — operators add `·` sub-phases), a
//! root whose `rows_out` is the result cardinality, and counter
//! attribution that never loses mass (a child's inclusive counters never
//! exceed its parent's).
//!
//! A failing case prints its seed for exact replay.

use maybms_algebra::{run_with, ExecCfg};
use maybms_core::obs::SpanKind;
use maybms_core::rng::Rng;
use maybms_core::ParCfg;
use maybms_testkit::{gen_uncertain_plan, gen_world_set, GenConfig};

const CASES: u64 = 120;

/// Force every parallel code path even on tiny generated inputs.
fn exec(threads: usize) -> ExecCfg {
    ExecCfg {
        par: ParCfg {
            threads,
            min_rows: 1,
        },
        sip: true,
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
            let (plain, _, no_trace) = run_with(&mut ws_plain, &plan, &cfg, false)
                .unwrap_or_else(|e| panic!("case {case}: untraced run failed: {e}"));
            assert!(no_trace.is_none(), "case {case}: untraced run has no trace");
            let mut ws_traced = ws.clone();
            let (traced, _, trace) = run_with(&mut ws_traced, &plan, &cfg, true)
                .unwrap_or_else(|e| panic!("case {case}: traced run failed: {e}"));
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
        let (result, _, trace) = run_with(&mut ws_eval, &plan, &exec(2), true)
            .unwrap_or_else(|e| panic!("case {case}: traced run failed: {e}"));
        let trace = trace.expect("traced run returns its trace");

        // Shared Ext subtrees are evaluated once and cached, so the span
        // count can fall short of the static node count only by the size
        // of the skipped (cached) subtrees — but never below 1, and for
        // the generated plans (no sharing across clones with the same
        // Arc identity after gen) it must cover every node.
        let nodes = plan.node_count();
        let spans = trace.node_span_count();
        assert!(
            spans >= 1 && spans <= nodes,
            "case {case}: {spans} node spans for {nodes} plan nodes\nplan: {plan:?}"
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
            // Counter attribution never goes negative: exclusive counters
            // are inclusive minus children, saturating — but for a
            // single-query trace the children's sums must genuinely fit.
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
