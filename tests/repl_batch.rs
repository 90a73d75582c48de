//! Batch-mode golden tests for the REPL's hard errors.
//!
//! A mistyped `\set` knob used to be a silent no-op: the script kept
//! running with whatever settings it *thought* it had changed. These tests
//! pin the hard error — batch mode must stop with a non-zero exit and name
//! the valid knobs — and the success path for the knobs the error message
//! promises; and they pin the two runtime errors a well-typed query can
//! still meet, the exact solver's step ceiling and the sampler's draw
//! ceiling.
//!
//! Each test drives the actual `repl` example binary through `cargo run`:
//! the subject is the example's own `\set` handling and exit status, which
//! `maybms::sql::Session` (the engine half, tested in-process in
//! `crates/sql`) does not have.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run `cargo run --example repl -- --batch <script>` on a temp script.
fn run_batch(name: &str, script: &str) -> Output {
    run_batch_with(name, script, &[])
}

/// [`run_batch`] with extra `cargo run` flags (e.g. `--release`).
fn run_batch_with(name: &str, script: &str, cargo_flags: &[&str]) -> Output {
    let path = std::env::temp_dir().join(format!("maybms-repl-batch-{name}.mayql"));
    std::fs::write(&path, script).expect("temp script is writable");
    let manifest: PathBuf = [env!("CARGO_MANIFEST_DIR"), "Cargo.toml"].iter().collect();
    let output = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(["run", "--quiet", "--example", "repl", "--manifest-path"])
        .arg(&manifest)
        .args(cargo_flags)
        .arg("--")
        .arg("--batch")
        .arg(&path)
        .output()
        .expect("cargo runs");
    std::fs::remove_file(&path).ok();
    output
}

#[test]
fn unknown_set_knob_is_a_hard_error_listing_valid_knobs() {
    let out = run_batch(
        "unknown-knob",
        "\\set nosuch on\nSELECT ssn FROM censusform;\n",
    );
    assert!(
        !out.status.success(),
        "batch run with an unknown knob must exit non-zero"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown knob `nosuch`"),
        "stderr names the bad knob: {stderr}"
    );
    for knob in ["threads", "sip"] {
        assert!(
            stderr.contains(knob),
            "stderr lists valid knob `{knob}`: {stderr}"
        );
    }
    // The statement after the bad `\set` must not have run.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("rows)"),
        "no query output after the failed \\set: {stdout}"
    );
}

/// A knob this REPL used to have is not a special case: setting it is the
/// same unknown-knob hard error, not a silent no-op.
#[test]
fn a_removed_knob_is_an_unknown_knob() {
    let out = run_batch(
        "removed-knob",
        "\\set plan_cache off\nSELECT ssn FROM censusform;\n",
    );
    assert!(!out.status.success(), "a removed knob must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown knob `plan_cache`")
            && stderr.ends_with("valid knobs: threads <N>, sip on|off\n"),
        "stderr names the knob and the valid ones: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("rows)"), "no query ran: {stdout}");
}

#[test]
fn malformed_set_value_is_a_hard_error() {
    let out = run_batch("bad-value", "\\set sip maybe\n");
    assert!(!out.status.success(), "invalid value must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("invalid value `maybe`"),
        "stderr names the bad value: {stderr}"
    );
}

#[test]
fn valid_knobs_round_trip_in_batch_mode() {
    let out = run_batch(
        "valid-knobs",
        "\\set sip off\n\\set threads 3\n\\set sip on\n\
         SELECT ssn FROM censusform;\n\\stats\n",
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "valid knobs succeed: {stderr}");
    for echo in [
        "sip = off",
        "threads = 3",
        "sip = on",
        // `\stats` reads the same session value `\set` wrote.
        "session settings: threads = 3, sip = on\n",
    ] {
        assert!(stdout.contains(echo), "stdout echoes `{echo}`: {stdout}");
    }
    // Set semantics: the four census readings hold three distinct ssns.
    assert!(stdout.contains("(3 rows)"), "the query ran: {stdout}");
}

/// Exact `CONF` is bounded work: a connected descriptor group whose
/// elimination frontier is too wide stops at the solver's step ceiling with
/// a typed runtime error (no span, so no caret diagnostic) instead of
/// running and allocating without bound — while `CONF(eps, delta)` prices
/// the same group over its cutover and estimates it, unless ε asks for more
/// draws than the sampler's own ceiling: `CONF(0.0001, 0.5)` wants
/// ⌈ln 4 / 2ε²⌉ = 69 314 719 of them, past 2²⁶, and is refused before the
/// first (as `CONF(1e-9, 0.5)`'s 6.9·10¹⁷ are).
///
/// The script welds 49 independent repairs of the census form: relation
/// `i` is joined with relations `i + 20` and `i + 21`, so twenty descriptors
/// stay open across the middle of the component order and the frontier
/// holds 2²⁰ states. Reaching the ceiling takes 2²⁴ transitions, hence the
/// release build.
#[test]
fn exact_conf_stops_at_the_step_ceiling_on_a_welded_group() {
    let mut script = String::new();
    for i in 1..=49 {
        script += &format!("LET r{i} = REPAIR KEY name IN censusform WEIGHT BY w;\n");
    }
    let welds: Vec<String> = (1..=28)
        .flat_map(|i| [(i, i + 20), (i, i + 21)])
        .map(|(i, j)| format!("SELECT name FROM r{i}, r{j} WHERE ssn = 185"))
        .collect();
    script += &format!("LET welded = {};\n", welds.join(" UNION "));
    let approx = format!("{script}SELECT CONF(0.1, 0.1) name FROM welded;\n\\stats\n");

    let out = run_batch_with(
        "draw-ceiling",
        &format!("{approx}SELECT CONF(0.0001, 0.5) name FROM welded;\n"),
        &["--release"],
    );
    assert!(!out.status.success(), "the ε = 0.0001 query must fail");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: sampling a 56-descriptor group to the requested (eps, delta) takes \
         69314719 draws, the limit is 67108864; ask for a larger eps\n"
    );

    let script = format!("{approx}SELECT CONF name FROM welded;\n");
    let out = run_batch_with("step-ceiling", &script, &["--release"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stdout.contains(
            "0 groups exact in 0 steps, 2 sampled in 300 draws (0 by Karp–Luby), \
             largest group 56 descriptors"
        ),
        "the approximate query sampled both tuples: {stdout}"
    );
    assert!(!out.status.success(), "the exact query must fail: {stdout}");
    assert_eq!(
        stderr,
        "error: exact solve of a 56-descriptor group reached 16777218 steps, \
         the limit is 16777216; CONF(eps, delta) estimates such groups instead\n"
    );
}
