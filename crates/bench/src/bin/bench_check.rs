//! Bench-regression gate: compare a fresh bench run against the committed
//! baseline and fail when any workload regressed beyond the tolerance.
//!
//! ```text
//! bench_check <baseline.json> <current.json>
//! ```
//!
//! Both files hold one JSON object per line as emitted by `benches/wsd.rs`
//! (`{"bench":..., "n":..., "rows_out":..., "millis":...}`). The baseline
//! may carry several rows per `(bench, n)` key — e.g. a historical
//! `"phase":"pre-intern"` row followed by the current one — and the *last*
//! row per key wins. Workloads present on only one side are reported but
//! never fail the gate (new benches need a first baseline).
//!
//! Environment:
//! * `MAYBMS_BENCH_TOLERANCE` — allowed regression in percent (default 25).
//! * `MAYBMS_BENCH_MIN_DELTA_MS` — absolute slack in milliseconds (default
//!   2.0): sub-tolerance *and* sub-slack differences never fail, so
//!   micro-benchmarks in the quick CI mode don't flap on scheduler noise.
//!
//! Current rows additionally carry `"rows_per_sec"`, the derived throughput
//! the bench emits for downstream dashboards; the gate cross-validates it
//! against `rows_out`/`millis` (within 1%) and fails when the current run
//! omits it or lets it drift — derived fields must never silently
//! contradict their inputs. Baseline rows predating the field are accepted.
//!
//! A baseline row may additionally carry `"tol":<percent>`, a per-workload
//! override of the global tolerance. The 10⁶-row `_t1` rows use it: a
//! second-long run on shared cores varies more from host to host than the
//! micro-benchmarks do.
//!
//! The JSON subset involved is flat and fully under our control, so the
//! parser below is a few string splits rather than a dependency (the build
//! environment has no registry access).

use std::collections::BTreeMap;
use std::process::ExitCode;

/// One bench row keyed by `(bench, n)`: `(rows_out, millis, tol)`, where
/// `tol` is the optional per-row tolerance-percent override (baseline only).
type Rows = BTreeMap<(String, u64), (u64, f64, Option<f64>)>;

/// Extract the value of `"key":` in a flat JSON object line, as a raw token.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find([',', '}'])
        .expect("flat JSON object lines end every field with , or }");
    Some(rest[..end].trim().trim_matches('"'))
}

/// Validate the derived `"rows_per_sec"` on one row: it must be present
/// and reproduce `rows_out / millis · 10³` (both fields as printed) to
/// within 1% — the bench derives it from the same two numbers, so any
/// larger drift means the emitter and its inputs disagree.
fn check_rows_per_sec(path: &str, line: &str, rows_out: u64, millis: f64) -> Result<(), String> {
    let rps: f64 = field(line, "rows_per_sec")
        .ok_or_else(|| format!("{path}: line missing \"rows_per_sec\": {line}"))?
        .parse()
        .map_err(|e| format!("{path}: bad \"rows_per_sec\" in {line}: {e}"))?;
    let expect = if millis > 0.0 {
        rows_out as f64 / millis * 1e3
    } else {
        0.0
    };
    if (rps - expect).abs() <= expect.abs() * 0.01 + 0.1 {
        Ok(())
    } else {
        Err(format!(
            "{path}: \"rows_per_sec\" {rps} contradicts rows_out/millis \
             (expected {expect:.1}): {line}"
        ))
    }
}

/// Parse a bench JSONL file; later rows overwrite earlier rows per key.
/// With `require_rps`, every row must carry a consistent `"rows_per_sec"`
/// (the current run; baseline rows may predate the field).
fn parse(path: &str, require_rps: bool) -> Result<Rows, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out = Rows::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with('{') {
            continue;
        }
        let bench = match field(line, "bench") {
            Some(b) => b.to_string(),
            None => continue,
        };
        let parse_num = |k: &str| -> Result<f64, String> {
            field(line, k)
                .ok_or_else(|| format!("{path}: line missing \"{k}\": {line}"))?
                .parse::<f64>()
                .map_err(|e| format!("{path}: bad \"{k}\" in {line}: {e}"))
        };
        let n = parse_num("n")? as u64;
        let rows_out = parse_num("rows_out")? as u64;
        let millis = parse_num("millis")?;
        if require_rps {
            check_rows_per_sec(path, line, rows_out, millis)?;
        }
        let tol = field(line, "tol").and_then(|t| t.parse::<f64>().ok());
        out.insert((bench, n), (rows_out, millis, tol));
    }
    Ok(out)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 3 {
        eprintln!("usage: bench_check <baseline.json> <current.json>");
        return ExitCode::from(2);
    }
    let (baseline, current) = match (parse(&args[1], false), parse(&args[2], true)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_check: {e}");
            return ExitCode::from(2);
        }
    };

    let tolerance = env_f64("MAYBMS_BENCH_TOLERANCE", 25.0) / 100.0;
    let min_delta_ms = env_f64("MAYBMS_BENCH_MIN_DELTA_MS", 2.0);
    let mut failed = false;

    println!(
        "{:<16} {:>9} {:>12} {:>12} {:>9}  verdict",
        "bench", "n", "base ms", "now ms", "delta"
    );
    for ((bench, n), &(rows_now, now_ms, _)) in &current {
        let key = (bench.clone(), *n);
        let Some(&(rows_base, base_ms, tol_override)) = baseline.get(&key) else {
            println!(
                "{bench:<16} {n:>9} {:>12} {now_ms:>12.3} {:>9}  new (no baseline)",
                "-", "-"
            );
            continue;
        };
        if rows_base != rows_now {
            // Output cardinality is part of the contract: a row-count drift
            // means the workload changed, not just its speed.
            println!(
                "{bench:<16} {n:>9} rows_out changed: baseline {rows_base} vs current {rows_now}  FAIL"
            );
            failed = true;
            continue;
        }
        let delta = now_ms - base_ms;
        let tol = tol_override.map_or(tolerance, |t| t / 100.0);
        let regressed = delta > base_ms * tol && delta > min_delta_ms;
        let pct = if base_ms > 0.0 {
            delta / base_ms * 100.0
        } else {
            0.0
        };
        println!(
            "{bench:<16} {n:>9} {base_ms:>12.3} {now_ms:>12.3} {pct:>8.1}%  {}",
            if regressed { "FAIL" } else { "ok" }
        );
        failed |= regressed;
    }
    for key in baseline.keys() {
        if !current.contains_key(key) {
            println!(
                "{:<16} {:>9} present in baseline only (skipped)",
                key.0, key.1
            );
        }
    }

    if failed {
        eprintln!(
            "bench_check: regression beyond {:.0}% (+{min_delta_ms}ms slack; \
             per-row \"tol\" overrides apply) detected",
            tolerance * 100.0
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_extracts_tokens() {
        let line = r#"{"bench":"join3","n":1000,"rows_out":1051,"millis":1.186}"#;
        assert_eq!(field(line, "bench"), Some("join3"));
        assert_eq!(field(line, "n"), Some("1000"));
        assert_eq!(field(line, "millis"), Some("1.186"));
        assert_eq!(field(line, "absent"), None);
    }

    #[test]
    fn rows_per_sec_must_be_present_and_consistent() {
        let good =
            r#"{"bench":"join3","n":1000,"rows_out":1051,"millis":1.186,"rows_per_sec":886172.0}"#;
        assert!(check_rows_per_sec("t", good, 1051, 1.186).is_ok());
        let missing = r#"{"bench":"join3","n":1000,"rows_out":1051,"millis":1.186}"#;
        assert!(check_rows_per_sec("t", missing, 1051, 1.186)
            .unwrap_err()
            .contains("missing \"rows_per_sec\""));
        let drifted =
            r#"{"bench":"join3","n":1000,"rows_out":1051,"millis":1.186,"rows_per_sec":12345.0}"#;
        assert!(check_rows_per_sec("t", drifted, 1051, 1.186)
            .unwrap_err()
            .contains("contradicts"));
        // Instantaneous rows print 0.000 ms with a zero throughput.
        let instant = r#"{"bench":"x","n":1,"rows_out":5,"millis":0.000,"rows_per_sec":0.0}"#;
        assert!(check_rows_per_sec("t", instant, 5, 0.0).is_ok());
    }

    #[test]
    fn tol_override_is_optional() {
        let with = r#"{"bench":"join3_t4","n":1000000,"rows_out":5,"millis":9.0,"tol":75}"#;
        let without = r#"{"bench":"join3","n":1000,"rows_out":5,"millis":9.0}"#;
        assert_eq!(
            field(with, "tol").and_then(|t| t.parse::<f64>().ok()),
            Some(75.0)
        );
        assert_eq!(field(without, "tol"), None);
    }
}
