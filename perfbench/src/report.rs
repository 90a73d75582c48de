//! What a run prints and writes, and `benchmark compare`.

use std::fmt::Write as _;
use std::path::Path;

use crate::engine::KNOBS;
use crate::json::{self, Json};

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// The outcome of one pass over one workload.
#[derive(Clone, Debug)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether this is the traced pass (per-layer metrics) or the
    /// end-to-end pass.
    pub traced: bool,
    /// No statement failed and at least one round was timed.
    pub correct: bool,
    /// Statements executed in measured rounds.
    pub attempted: u64,
    /// Statements that errored or whose result failed its check.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
    /// The measurements.
    pub metrics: Vec<Metric>,
    /// Lines for the human-readable header.
    pub notes: Vec<String>,
    /// The traced pass's spans as Chrome trace-event JSON.
    pub chrome_trace: Option<String>,
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_owned)
    })?
}

/// The host, toolchain, commit and knobs a number was measured under.
pub fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mem_mb = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("MemTotal:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb / 1024);
    let unknown = || "unknown".to_owned();
    format!(
        "host nproc={nproc} mem={mem_mb}MB os={} rustc=[{}] commit={} knobs=[{KNOBS}]",
        std::env::consts::OS,
        first_line_of("rustc", &["--version"]).unwrap_or_else(unknown),
        first_line_of("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
    )
}

impl Report {
    /// The result object the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, on one line.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}{}: {{\"value\": {value}, \"unit\": {}}}",
                if i > 0 { ", " } else { "" },
                json::quote(&m.name),
                json::quote(m.unit),
            );
        }
        out.push_str("}}");
        out
    }

    /// Everything a run prints: host and knobs, the notes, a metric table,
    /// and the result object as the last line.
    pub fn render(&self, host: &str) -> String {
        let mut out = format!("{host}\n");
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        if let Some(why) = &self.first_failure {
            let _ = writeln!(out, "FAILED {why}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
        }
        out.push_str(&self.result_line());
        out.push('\n');
        out
    }

    /// Write `<dir>/<workload>.json` (end-to-end pass) or
    /// `<dir>/<workload>.layers.json` + `<dir>/<workload>.trace.json`
    /// (traced pass).
    pub fn write_to(&self, dir: &Path, host: &str) -> Result<(), String> {
        let io = |e: std::io::Error| format!("{}: {e}", dir.display());
        std::fs::create_dir_all(dir).map_err(io)?;
        let body = format!(
            "{{\"workload\": {}, \"seed\": {}, \"host\": {}, \"result\": {}}}\n",
            json::quote(&self.workload),
            self.seed,
            json::quote(host),
            self.result_line(),
        );
        let suffix = if self.traced { "layers.json" } else { "json" };
        std::fs::write(dir.join(format!("{}.{suffix}", self.workload)), body).map_err(io)?;
        if let Some(trace) = &self.chrome_trace {
            std::fs::write(dir.join(format!("{}.trace.json", self.workload)), trace).map_err(io)?;
        }
        Ok(())
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Whether higher values are better.
    pub higher_is_better: bool,
    /// The share of the base by which it may worsen (`None` for per-layer
    /// metrics, which have no bound).
    pub bound: Option<f64>,
}

/// The `end_to_end` and `per_layer` metric lists and the workload names of a
/// `BENCHMARK.json`.
pub struct Declarations {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics, with bounds.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics.
    pub per_layer: Vec<Declared>,
}

/// Read the declarations of a `BENCHMARK.json`.
pub fn declarations(path: &Path) -> Result<Declarations, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<Vec<Declared>, String> {
        doc.get(key)
            .map(Json::items)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("{key}: a metric lacks `{f}`"))
                };
                Ok(Declared {
                    name: field("name")?.to_owned(),
                    unit: field("unit")?.to_owned(),
                    higher_is_better: field("better")? == "higher",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Declarations {
        workloads: doc
            .get("workloads")
            .map(Json::items)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
            .collect(),
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

fn read_value(dir: &Path, workload: &str, metric: &str) -> Result<f64, String> {
    let path = dir.join(format!("{workload}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .get("result")
        .and_then(|r| r.get("metrics"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{}: no metric `{metric}`", path.display()))
}

/// `benchmark compare <A> <B>`: per workload × end-to-end metric, the two
/// values, `B ÷ A` with its base, and a verdict against the metric's bound —
/// `same` (B no worse than A by more than the bound), `worse`, or
/// `unresolved` when either value is missing or not positive. Returns the
/// table and how many rows are `worse`.
pub fn compare(a: &Path, b: &Path, declared: &Declarations) -> (String, usize) {
    let mut out = format!(
        "{:<16} {:<14} {:>14} {:>14} {:>22}  {:>6}  verdict\n",
        "workload", "metric", "A", "B", "B/A (base A)", "bound"
    );
    let mut worse = 0;
    for workload in &declared.workloads {
        for m in &declared.end_to_end {
            let bound = m.bound.unwrap_or(0.0);
            let row = match (
                read_value(a, workload, &m.name),
                read_value(b, workload, &m.name),
            ) {
                (Ok(va), Ok(vb)) if va > 0.0 && vb > 0.0 => {
                    let ratio = vb / va;
                    let worsening = if m.higher_is_better {
                        1.0 - ratio
                    } else {
                        ratio - 1.0
                    };
                    let verdict = if worsening > bound {
                        worse += 1;
                        "worse"
                    } else {
                        "same"
                    };
                    format!(
                        "{va:>14.4} {vb:>14.4} {:>22}  {bound:>6.2}  {verdict}",
                        format!("{ratio:.4} of {va:.4} {}", m.unit)
                    )
                }
                (va, vb) => format!(
                    "{:>14} {:>14} {:>22}  {bound:>6.2}  unresolved",
                    va.map_or("-".to_owned(), |v| format!("{v:.4}")),
                    vb.map_or("-".to_owned(), |v| format!("{v:.4}")),
                    "-"
                ),
            };
            let _ = writeln!(out, "{workload:<16} {:<14} {row}", m.name);
        }
    }
    (out, worse)
}
