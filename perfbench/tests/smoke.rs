//! `--smoke`: every workload through both passes at tiny sizes, held to what
//! `BENCHMARK.json` declares, plus `benchmark compare` on the files written.

use std::path::{Path, PathBuf};

use perfbench::report::{compare, declarations, Declared, Report};
use perfbench::run::{end_to_end, traced, Opts};
use perfbench::workloads::NAMES;

fn bench_json() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn smoke(workload: &str, seed: u64) -> Opts {
    Opts {
        workload: workload.to_owned(),
        seed,
        seconds: 1.0,
        smoke: true,
    }
}

/// The report emits exactly the declared metrics, each with its unit.
fn assert_emits(report: &Report, declared: &[Declared]) {
    let pass = if report.traced {
        "traced"
    } else {
        "end-to-end"
    };
    let ctx = format!("{} ({pass})", report.workload);
    for d in declared {
        let m = report
            .metrics
            .iter()
            .find(|m| m.name == d.name)
            .unwrap_or_else(|| panic!("{ctx}: metric {} is declared but not emitted", d.name));
        assert_eq!(m.unit, d.unit, "{ctx}: unit of {}", d.name);
        assert!(m.value.is_finite(), "{ctx}: {} = {}", d.name, m.value);
    }
    for m in &report.metrics {
        assert!(
            declared.iter().any(|d| d.name == m.name),
            "{ctx}: metric {} is emitted but not declared",
            m.name
        );
    }
}

#[test]
fn every_workload_passes_both_passes_and_emits_what_is_declared() {
    let declared = declarations(&bench_json()).expect("BENCHMARK.json reads");
    assert_eq!(declared.workloads, NAMES, "workloads of BENCHMARK.json");
    assert!(declared.end_to_end.len() <= 16 && declared.per_layer.len() <= 128);
    for d in declared.end_to_end.iter().chain(&declared.per_layer) {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(
            !d.name.is_empty() && d.name.len() <= 64 && d.name.chars().all(ok),
            "metric name {:?}",
            d.name
        );
    }
    for d in &declared.end_to_end {
        assert!(
            d.bound.is_some_and(|b| b > 0.0 && b <= 0.25),
            "{} needs a bound in (0, 0.25]",
            d.name
        );
    }
    assert!(declared
        .end_to_end
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));

    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let (a, b) = (out.join("a"), out.join("b"));
    for name in NAMES {
        let first = end_to_end(&smoke(name, 1)).expect("end-to-end pass runs");
        assert!(first.correct, "{name}: {:?}", first.first_failure);
        assert_eq!(first.failed, 0, "{name}");
        assert!(first.attempted >= 1, "{name}");
        assert_emits(&first, &declared.end_to_end);
        for m in &first.metrics {
            assert!(
                m.value > 0.0,
                "{name}: end-to-end metric {} is never 0",
                m.name
            );
        }
        first
            .write_to(&a, "host")
            .expect("output directory is writable");
        end_to_end(&smoke(name, 1))
            .expect("end-to-end pass runs")
            .write_to(&b, "host")
            .expect("output directory is writable");

        let layers = traced(&smoke(name, 2)).expect("traced pass runs");
        assert!(layers.correct, "{name}: {:?}", layers.first_failure);
        assert_emits(&layers, &declared.per_layer);
        let ratio = layers
            .metrics
            .iter()
            .find(|m| m.name == "bench.layers_sum_ratio")
            .expect("declared above")
            .value;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "{name}: layers sum to {ratio} of the round"
        );
        layers
            .write_to(&a, "host")
            .expect("output directory is writable");
        assert!(a.join(format!("{name}.trace.json")).exists());
    }

    // Two runs of the same commit: every pairing gets a verdict, none is
    // `unresolved`. (Timings of 1 ms rounds are too noisy to demand `same`.)
    let (table, _) = compare(&a, &b, &declared);
    assert_eq!(
        table.lines().count(),
        1 + NAMES.len() * declared.end_to_end.len(),
        "{table}"
    );
    assert!(!table.contains("unresolved"), "{table}");
    // A missing directory is unresolved, not an error.
    let (table, worse) = compare(&a, &out.join("missing"), &declared);
    assert_eq!(worse, 0);
    assert_eq!(
        table.matches("unresolved").count(),
        NAMES.len() * declared.end_to_end.len()
    );
}
