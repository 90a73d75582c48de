//! The per-layer ledger: the traced pass's spans and executor counters folded
//! into one table of named metrics, each the median over the traced rounds of
//! that round's total.
//!
//! Layers are the repository's modules. A span's time goes to exactly one
//! *additive* metric — the benchmark's own spans by self time, the engine's
//! plan-node spans by time exclusive of their child nodes — so the additive
//! metrics of a round sum to the time its statements took, less whatever the
//! statement spans themselves kept (session glue). `bench.layers_sum_ratio`
//! is that sum over the statements' wall time. Phase spans (`solve`,
//! `key-sort`, …) are reported too, as breakdowns of the operator metric that
//! already contains them; they and the other non-additive metrics stay out of
//! the sum.

use std::collections::BTreeMap;

use crate::engine::ExecStats;
use crate::run::median;
use crate::spans::{Origin, SpanRec, Spans};

/// Metric name → (value, unit).
pub type Table = BTreeMap<String, (f64, &'static str)>;

/// Additive time metrics: every traced nanosecond of a statement lands in at
/// most one of them.
pub const ADDITIVE_MS: [&str; 19] = [
    "sql.parser.parse_ms",
    "sql.planner.lower_ms",
    "sql.planner.optimize_ms",
    "sql.cache.lookup_ms",
    "sql.catalog.build_ms",
    "algebra.eval.scan_ms",
    "algebra.eval.select_ms",
    "algebra.eval.project_ms",
    "algebra.eval.join_ms",
    "algebra.eval.union_ms",
    "algebra.eval.other_ms",
    "algebra.eval.residual_ms",
    "core.columnar.scan_convert_ms",
    "core.world.insert_ms",
    "core.normalize.normalize_ms",
    "ql.confidence.conf_ms",
    "ql.repair.repair_ms",
    "ql.extract.possible_ms",
    "ql.extract.certain_ms",
];

/// Time metrics that break down or restate an additive one.
pub const BREAKDOWN_MS: [&str; 8] = [
    "algebra.eval.run_ms",
    "ql.confidence.sort_ms",
    "ql.confidence.solve_ms",
    "ql.repair.key_sort_ms",
    "ql.repair.mint_ms",
    "ql.extract.dedup_gather_ms",
    "ql.extract.coverage_check_ms",
    "bench.check_ms",
];

/// Per-round statement time: the denominator of `bench.layers_sum_ratio`
/// (its public face is `bench.round_p50_ms`).
const STMT_MS: &str = "bench.stmt_ms";

/// `num ÷ den`, 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The additive metric a benchmark span's self time belongs to.
fn bench_metric(name: &str) -> Option<&'static str> {
    Some(match name {
        "sql.parse" => "sql.parser.parse_ms",
        "sql.cache" => "sql.cache.lookup_ms",
        "sql.lower" => "sql.planner.lower_ms",
        "sql.optimize" => "sql.planner.optimize_ms",
        "sql.catalog" => "sql.catalog.build_ms",
        "core.insert" => "core.world.insert_ms",
        "core.normalize" => "core.normalize.normalize_ms",
        // What `algebra.run` keeps after scan-convert and the plan root:
        // context set-up and the final columnar → row materialisation.
        "algebra.run" => "algebra.eval.residual_ms",
        _ => return None,
    })
}

/// The additive metric an engine plan-node label belongs to. Unknown labels
/// fall into `algebra.eval.other_ms`, never an error.
fn node_metric(label: &str) -> &'static str {
    let op = label.split(['[', '(', ' ']).next().unwrap_or("");
    match op {
        "scan" => "algebra.eval.scan_ms",
        "select" => "algebra.eval.select_ms",
        "project" | "rename" => "algebra.eval.project_ms",
        "natural-join" => "algebra.eval.join_ms",
        "union" => "algebra.eval.union_ms",
        "conf" => "ql.confidence.conf_ms",
        "repair-key" => "ql.repair.repair_ms",
        "possible" => "ql.extract.possible_ms",
        "certain" => "ql.extract.certain_ms",
        _ => "algebra.eval.other_ms",
    }
}

/// The breakdown metric of a phase under the operator `parent_metric`.
fn phase_metric(phase: &str, parent_metric: &str) -> Option<&'static str> {
    Some(match (phase, parent_metric) {
        ("canonical-sort", "ql.confidence.conf_ms") => "ql.confidence.sort_ms",
        ("solve", _) => "ql.confidence.solve_ms",
        ("key-sort", _) => "ql.repair.key_sort_ms",
        ("mint-components", _) => "ql.repair.mint_ms",
        ("dedup-gather", _) => "ql.extract.dedup_gather_ms",
        ("coverage-check", _) => "ql.extract.coverage_check_ms",
        _ => return None,
    })
}

/// Per-round totals of one metric.
#[derive(Default)]
struct PerRound(BTreeMap<&'static str, Vec<f64>>);

impl PerRound {
    fn add(&mut self, metric: &'static str, round: usize, rounds: usize, amount: f64) {
        self.0.entry(metric).or_insert_with(|| vec![0.0; rounds])[round] += amount;
    }

    fn median(&self, metric: &str) -> f64 {
        self.0.get(metric).map_or(0.0, |v| median(v))
    }
}

/// Fold the traced rounds into the ledger. `exec_stats[r]` holds the
/// executor statistics of round `r`'s runs.
pub fn table(spans: &Spans, exec_stats: &[Vec<ExecStats>]) -> Table {
    let all = spans.spans();
    let rounds = exec_stats.len().max(1);
    let self_ns = spans.self_ns();
    // Time exclusive of child *nodes* only: an operator keeps its phases.
    let mut node_excl: Vec<u64> = all.iter().map(SpanRec::dur_ns).collect();
    for s in all {
        if let (Origin::EngineNode, Some(p)) = (s.origin, s.parent) {
            node_excl[p as usize] = node_excl[p as usize].saturating_sub(s.dur_ns());
        }
    }

    let mut per = PerRound::default();
    let mut scan_rows = vec![0.0; rounds];
    let mut conf_tuples = vec![0.0; rounds];
    for (i, s) in all.iter().enumerate() {
        let r = s.round as usize;
        let mut add = |metric, ns: u64| per.add(metric, r, rounds, ns as f64 / 1e6);
        let parent = s.parent.map(|p| &all[p as usize]);
        match s.origin {
            Origin::Bench => {
                if let Some(metric) = bench_metric(&s.name) {
                    add(metric, self_ns[i]);
                }
                match s.name.as_str() {
                    "algebra.run" => add("algebra.eval.run_ms", s.dur_ns()),
                    "bench.check" => add("bench.check_ms", s.dur_ns()),
                    "round" => {}
                    // A statement span: the child of a round span.
                    _ if parent.is_some_and(|p| p.name == "round") => {
                        add(STMT_MS, s.dur_ns());
                    }
                    _ => {}
                }
            }
            Origin::EngineNode => {
                let metric = node_metric(&s.name);
                add(metric, node_excl[i]);
                if metric == "ql.confidence.conf_ms" {
                    conf_tuples[r] += s.items as f64;
                }
            }
            Origin::EnginePhase => {
                if s.name == "scan-convert" {
                    add("core.columnar.scan_convert_ms", s.dur_ns());
                    scan_rows[r] += s.items as f64;
                } else if let Some(metric) = parent
                    .filter(|p| p.origin == Origin::EngineNode)
                    .and_then(|p| phase_metric(&s.name, node_metric(&p.name)))
                {
                    add(metric, s.dur_ns());
                }
            }
        }
    }

    let mut out = Table::new();
    let mut put = |name: &str, value: f64, unit| {
        out.insert(name.to_owned(), (value, unit));
    };
    for metric in ADDITIVE_MS.iter().chain(&BREAKDOWN_MS) {
        put(metric, per.median(metric), "ms");
    }
    let ratios: Vec<f64> = (0..rounds)
        .filter_map(|r| {
            let of = |m: &str| per.0.get(m).map_or(0.0, |v| v[r]);
            let layers: f64 = ADDITIVE_MS.iter().map(|m| of(m)).sum();
            (of(STMT_MS) > 0.0).then(|| layers / of(STMT_MS))
        })
        .collect();
    put("bench.layers_sum_ratio", median(&ratios), "ratio");
    put(
        "core.columnar.scan_convert_rows",
        median(&scan_rows),
        "count",
    );
    put(
        "ql.confidence.us_per_tuple",
        ratio(
            per.median("ql.confidence.conf_ms") * 1e3,
            median(&conf_tuples),
        ),
        "us",
    );
    // Components a round mints: the items of its `mint-components` phases.
    let mut minted = vec![0.0; rounds];
    for s in all.iter().filter(|s| s.name == "mint-components") {
        minted[s.round as usize] += s.items as f64;
    }
    put("ql.repair.components_minted", median(&minted), "count");

    // Executor counters, summed per round: exact at one thread, so the
    // median over rounds is the value.
    type Counter<'a> = &'a dyn Fn(&ExecStats) -> u64;
    let sum = |f: Counter| -> f64 {
        let per_round: Vec<f64> = exec_stats
            .iter()
            .map(|round| round.iter().map(f).sum::<u64>() as f64)
            .collect();
        median(&per_round)
    };
    let counts: [(&str, Counter); 9] = [
        ("algebra.eval.dedups_elided", &|s| s.dedups_elided as u64),
        ("algebra.sip.filters_built", &|s| s.sip.filters_built),
        ("core.columnar.strings", &|s| s.strings as u64),
        ("core.intern.intern_calls", &|s| s.pool.intern_calls),
        ("core.intern.conjoin_calls", &|s| s.pool.conjoin_calls),
        ("core.intern.descriptors", &|s| s.descriptors as u64),
        ("ql.confidence.exact_groups", &|s| s.conf.exact_groups),
        ("ql.confidence.sampled_groups", &|s| s.conf.sampled_groups),
        ("ql.confidence.samples_drawn", &|s| s.conf.samples_drawn),
    ];
    for (name, f) in counts {
        put(name, sum(f), "count");
    }
    let largest = exec_stats.iter().flatten().map(|s| s.conf.largest_group);
    put(
        "ql.confidence.largest_group",
        largest.max().unwrap_or(0) as f64,
        "count",
    );
    let ratios: [(&str, Counter, Counter); 3] = [
        (
            "algebra.sip.pruned_ratio",
            &|s| s.sip.probe_rows_pruned,
            &|s| s.sip.probe_rows_tested,
        ),
        (
            "core.intern.intern_hit_ratio",
            &|s| s.pool.intern_hits,
            &|s| s.pool.intern_calls,
        ),
        (
            "core.intern.conjoin_shortcut_ratio",
            &|s| s.pool.conjoin_shortcuts,
            &|s| s.pool.conjoin_calls,
        ),
    ];
    for (name, num, den) in ratios {
        put(name, ratio(sum(num), sum(den)), "ratio");
    }
    out
}
