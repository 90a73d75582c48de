//! The closed loop: one client, one process, one thread, executing a
//! workload's round over and over — and the two passes built on it.
//!
//! * [`end_to_end`] (`--trace 0`) times rounds with the span recorder off and
//!   reports the end-to-end metrics.
//! * [`traced`] (`--trace 1`) is a separate pass that is never mixed into the
//!   end-to-end numbers: untraced rounds, traced rounds, two-thread rounds and
//!   the micro-probes, folded into the per-layer table by [`crate::layers`].
//!
//! Both passes hold every round's results to the reference the independent
//! path (`compile_unoptimized`, no plan cache) produces.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::calib::Kernel;
use crate::check::{self, Digest};
use crate::engine::{Compile, ExecStats, Output, Session, Snapshot, URelation, WorldSet};
use crate::gen::GenData;
use crate::layers::{self, ratio};
use crate::probes;
use crate::report::{Metric, Report};
use crate::spans::Spans;
use crate::workloads::{self, Check, Sizes, Stmt, Workload, DELTA, EPS};

/// What one invocation measures.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name (one of [`workloads::NAMES`]).
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds the end-to-end pass measures after warm-up.
    pub seconds: f64,
    /// Tiny sizes and three rounds.
    pub smoke: bool,
}

impl Opts {
    fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        }
    }

    /// `full` normally, `smoke` under `--smoke`.
    fn pick(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quantile `q` of a sample by linear interpolation (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one executed round left behind.
struct RoundLog {
    /// Timed wall of each statement, in milliseconds.
    stmt_ms: Vec<f64>,
    /// Digest of each statement's result, `None` where it errored.
    digests: Vec<Option<Digest>>,
    /// The first error of the round.
    error: Option<String>,
}

impl RoundLog {
    fn wall_ms(&self) -> f64 {
        self.stmt_ms.iter().sum()
    }
}

/// The loaded workload: a session on it, plus what rounds restart from.
struct Loaded {
    session: Session,
    /// The world set and catalog as loaded, for workloads whose rounds write.
    pristine: Option<Snapshot>,
    /// Components that existed at load (ids below it are stable).
    base_components: u32,
}

impl Loaded {
    /// Execute one round. Each statement is timed on its own; restoring the
    /// world set and digesting results happen outside the timed windows.
    fn round(&mut self, stmts: &[Stmt], spans: &mut Spans) -> RoundLog {
        if let Some(p) = &self.pristine {
            self.session.restore(p);
        }
        let mut log = RoundLog {
            stmt_ms: Vec::with_capacity(stmts.len()),
            digests: Vec::with_capacity(stmts.len()),
            error: None,
        };
        let round_span = spans.enter("round");
        for stmt in stmts {
            let stmt_span = spans.enter(stmt.id);
            let started = Instant::now();
            let outcome = self.session.execute(&stmt.action, spans);
            log.stmt_ms.push(ms(started.elapsed()));
            spans.exit(stmt_span);
            let check_span = spans.enter("bench.check");
            log.digests.push(match outcome {
                Ok(output) => Some(self.digest(&output)),
                Err(e) => {
                    log.error.get_or_insert(format!("{}: {e}", stmt.id));
                    None
                }
            });
            spans.exit(check_span);
        }
        spans.exit(round_span);
        log
    }

    /// A copy of the world set rounds start from.
    fn starting_world(&self) -> WorldSet {
        match &self.pristine {
            Some(p) => p.world().clone(),
            None => self.session.ws.clone(),
        }
    }

    fn digest(&self, output: &Output) -> Digest {
        let ws = &self.session.ws;
        match output {
            Output::Rows(rel) => check::digest(rel, &ws.components, self.base_components),
            Output::Stored(name) => {
                check::digest(&ws.relations[name], &ws.components, self.base_components)
            }
            Output::World => check::digest_world(ws, self.base_components),
        }
    }
}

/// Load generated data and start a session on it; returns the seconds the
/// load (world-set build + catalog statistics) took.
fn load(workload: &Workload, data: GenData) -> Result<(Loaded, f64), String> {
    let started = Instant::now();
    let ws = data.load()?;
    let base_components = ws.components.len() as u32;
    let session = Session::start(ws, 1, Compile::Optimized);
    let load_s = started.elapsed().as_secs_f64();
    let pristine = workload.fresh_world_per_round.then(|| session.snapshot());
    Ok((
        Loaded {
            session,
            pristine,
            base_components,
        },
        load_s,
    ))
}

/// The reference: one round through the independent path, its digests, and
/// the verdict of each statement's own check on the reference result.
struct Reference {
    digests: Vec<Option<Digest>>,
    /// Per statement: why its reference result is wrong, if it is.
    verdicts: Vec<Option<String>>,
    /// Largest `|exact CONF − DP|` seen.
    max_abs_err: f64,
    /// Largest share of a sampled statement's tuples further than ε from the DP.
    approx_miss_ratio: f64,
    check_ms: f64,
}

fn reference(workload: &Workload, world: WorldSet) -> Reference {
    let started = Instant::now();
    let base_components = world.components.len() as u32;
    let session = Session::start(world, 1, Compile::Reference);
    let mut loaded = Loaded {
        pristine: None,
        session,
        base_components,
    };
    let mut out = Reference {
        digests: Vec::new(),
        verdicts: Vec::new(),
        max_abs_err: 0.0,
        approx_miss_ratio: 0.0,
        check_ms: 0.0,
    };
    let mut spans = Spans::disabled();
    for stmt in &workload.round {
        let outcome = loaded.session.execute(&stmt.action, &mut spans);
        let (digest, verdict) = match &outcome {
            Err(e) => (None, Some(format!("reference path failed: {e}"))),
            Ok(output) => {
                let verdict = match output {
                    Output::Rows(rel) => own_check(&stmt.check, rel, &loaded.session.ws, &mut out),
                    _ => Ok(()),
                };
                (Some(loaded.digest(output)), verdict.err())
            }
        };
        out.digests.push(digest);
        out.verdicts.push(verdict);
    }
    out.check_ms = ms(started.elapsed());
    out
}

fn own_check(
    check: &Check,
    result: &URelation,
    ws: &WorldSet,
    out: &mut Reference,
) -> Result<(), String> {
    match check {
        Check::Digest => Ok(()),
        Check::ExactConf(rel) | Check::SampledConf(rel) => {
            let errors = check::conf_abs_errors(result, &check::conf_reference(ws, rel)?)?;
            if matches!(check, Check::ExactConf(_)) {
                let worst = errors.iter().copied().fold(0.0, f64::max);
                out.max_abs_err = out.max_abs_err.max(worst);
                if worst > 1e-9 {
                    return Err(format!("exact CONF is {worst:e} off the DP"));
                }
                return Ok(());
            }
            let misses = errors.iter().filter(|&&e| e > EPS).count();
            let ratio = misses as f64 / errors.len().max(1) as f64;
            out.approx_miss_ratio = out.approx_miss_ratio.max(ratio);
            if ratio > DELTA {
                return Err(format!(
                    "{misses} of {} sampled CONF values are further than {EPS} from the DP",
                    errors.len()
                ));
            }
            Ok(())
        }
        Check::KeyMass => {
            let worst = check::key_mass_error(result)?;
            if worst > 1e-9 {
                return Err(format!("per-key confidences are {worst:e} off 1"));
            }
            Ok(())
        }
    }
}

/// Hold logged rounds to the reference: statements attempted, statements
/// failed, the first failure, and which rounds are clean.
struct Verdict {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    clean: Vec<bool>,
}

fn judge(workload: &Workload, rounds: &[&RoundLog], reference: &Reference) -> Verdict {
    let mut v = Verdict {
        attempted: 0,
        failed: 0,
        first_failure: None,
        clean: Vec::with_capacity(rounds.len()),
    };
    for (r, log) in rounds.iter().enumerate() {
        let mut clean = true;
        for (j, stmt) in workload.round.iter().enumerate() {
            v.attempted += 1;
            let problem = match (
                &log.digests[j],
                &reference.digests[j],
                &reference.verdicts[j],
            ) {
                (None, _, _) => log.error.clone().or(Some("statement failed".to_owned())),
                (_, _, Some(why)) => Some(why.clone()),
                (Some(got), Some(want), None) if got != want => Some(format!(
                    "digest {got:?} differs from the reference {want:?}"
                )),
                _ => None,
            };
            if let Some(why) = problem {
                v.failed += 1;
                clean = false;
                v.first_failure
                    .get_or_insert(format!("round {r}, {}: {why}", stmt.id));
            }
        }
        v.clean.push(clean);
    }
    v
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Mean of the fastest twentieth of a sample (at least one value; 0 when
/// empty). Interference only ever adds time, so the low tail is the cost of
/// the work itself.
fn floor(sample: &mut [f64]) -> f64 {
    sample.sort_by(f64::total_cmp);
    let fastest = &sample[..(sample.len() / 20).max(1).min(sample.len())];
    fastest.iter().sum::<f64>() / fastest.len().max(1) as f64
}

/// Round-time statistics over the clean rounds of a pass.
struct RoundStats {
    /// Clean rounds.
    n: usize,
    /// [`floor`] of the round times.
    floor_ms: f64,
    p50_ms: f64,
    p90_ms: f64,
    /// Statements completed ÷ seconds their rounds took (mean-based).
    stmts_per_s: f64,
}

impl RoundStats {
    fn of(workload: &Workload, rounds: &[&RoundLog], clean: &[bool]) -> RoundStats {
        let mut walls: Vec<f64> = rounds
            .iter()
            .zip(clean)
            .filter(|(_, &clean)| clean)
            .map(|(r, _)| r.wall_ms())
            .collect();
        let wall_s = walls.iter().sum::<f64>() / 1e3;
        RoundStats {
            n: walls.len(),
            floor_ms: floor(&mut walls),
            p50_ms: median(&walls),
            p90_ms: quantile(&walls, 0.9),
            stmts_per_s: if wall_s > 0.0 {
                (walls.len() * workload.round.len()) as f64 / wall_s
            } else {
                0.0
            },
        }
    }

    fn note(&self) -> String {
        format!(
            "{} clean rounds ({} beyond p90): floor {:.3} ms, p50 {:.3} ms, p90 {:.3} ms, \
             {:.1} statements/s",
            self.n,
            self.n / 10,
            self.floor_ms,
            self.p50_ms,
            self.p90_ms,
            self.stmts_per_s
        )
    }
}

/// Run rounds for `seconds` of wall time (three rounds under `--smoke`),
/// with one run of the reference kernel after every round. Returns the rounds
/// and the kernel's floor over them, in milliseconds.
fn rounds_for(
    loaded: &mut Loaded,
    stmts: &[Stmt],
    seconds: f64,
    smoke: bool,
) -> (Vec<RoundLog>, f64) {
    let started = Instant::now();
    let mut off = Spans::disabled();
    let mut kernel = Kernel::new();
    let (mut rounds, mut kernel_ms) = (Vec::new(), Vec::new());
    while if smoke {
        rounds.len() < 3
    } else {
        started.elapsed().as_secs_f64() < seconds
    } {
        rounds.push(loaded.round(stmts, &mut off));
        kernel_ms.push(kernel.run());
    }
    (rounds, floor(&mut kernel_ms))
}

/// The end-to-end pass. See the module docs.
pub fn end_to_end(opts: &Opts) -> Result<Report, String> {
    let gen_started = Instant::now();
    let mut workload = workloads::build(&opts.workload, opts.seed, &opts.sizes())?;
    let gen_s = gen_started.elapsed().as_secs_f64();
    let mut spans = Spans::disabled();

    // Set-up: what a session pays before its first warm statement — build
    // the world set, collect the catalog statistics, run one cold round —
    // over fresh loads: five of a large input, up to fifteen of a small one
    // (a 50 ms set-up needs many samples). The count follows from the
    // input size, not from timing, so the peak RSS repeats. Copying the
    // generated rows is not timed.
    let data = std::mem::take(&mut workload.data);
    let loads = opts.pick((600_000 / data.rows().max(1)).clamp(5, 15), 2);
    let mut setup_samples: Vec<f64> = Vec::with_capacity(loads);
    let mut loaded = None;
    for _ in 0..loads {
        // Free the previous load first, so two never count towards the peak.
        drop(loaded.take());
        let (mut l, load_s) = load(&workload, data.clone())?;
        let cold = l.round(&workload.round, &mut spans);
        if let Some(e) = cold.error {
            return Err(format!("cold round failed: {e}"));
        }
        setup_samples.push(load_s + cold.wall_ms() / 1e3);
        loaded = Some(l);
    }
    drop(data);
    let mut loaded = loaded.expect("at least one load");

    for _ in 0..opts.pick(3, 1) {
        loaded.round(&workload.round, &mut spans);
    }
    let measure_started = Instant::now();
    let (rounds, kernel_ms) = rounds_for(&mut loaded, &workload.round, opts.seconds, opts.smoke);
    let measured_s = measure_started.elapsed().as_secs_f64();
    // Read before the reference path runs: its unoptimized plans are not
    // what a session's memory looks like.
    let peak_rss = peak_rss_mb();

    let reference = reference(&workload, loaded.starting_world());
    let logs: Vec<&RoundLog> = rounds.iter().collect();
    let verdict = judge(&workload, &logs, &reference);
    let stats = RoundStats::of(&workload, &logs, &verdict.clean);

    let metrics = vec![
        Metric::new("round_floor_rel", ratio(stats.floor_ms, kernel_ms), "ratio"),
        // The lower quartile: interference only ever adds time, and the
        // loads sit close enough together for one burst to hit several.
        Metric::new("setup_s", quantile(&setup_samples, 0.25), "s"),
        Metric::new("peak_rss_mb", peak_rss, "MB"),
    ];
    let notes = vec![
        format!(
            "workload {} seed {} — {}",
            workload.name, opts.seed, workload.size
        ),
        format!(
            "{} rounds of {} statements in {measured_s:.1} s; generator {gen_s:.3} s, \
             {} set-ups, reference + checks {:.0} ms",
            rounds.len(),
            workload.round.len(),
            setup_samples.len(),
            reference.check_ms,
        ),
        format!("{}; reference kernel floor {kernel_ms:.3} ms", stats.note()),
    ];
    Ok(Report {
        workload: workload.name.to_owned(),
        seed: opts.seed,
        traced: false,
        correct: verdict.failed == 0 && stats.n > 0,
        attempted: verdict.attempted.max(1),
        failed: verdict.failed,
        first_failure: verdict.first_failure,
        metrics,
        notes,
        chrome_trace: None,
    })
}

/// Per-statement-id medians over rounds: the time a round spends in each id.
fn stmt_medians(workload: &Workload, rounds: &[RoundLog]) -> BTreeMap<&'static str, f64> {
    let mut per_id: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for log in rounds {
        let mut in_round: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (stmt, t) in workload.round.iter().zip(&log.stmt_ms) {
            *in_round.entry(stmt.id).or_insert(0.0) += t;
        }
        for (id, t) in in_round {
            per_id.entry(id).or_default().push(t);
        }
    }
    per_id.into_iter().map(|(id, v)| (id, median(&v))).collect()
}

/// The traced pass. See the module docs.
pub fn traced(opts: &Opts) -> Result<Report, String> {
    let gen_started = Instant::now();
    let mut workload = workloads::build(&opts.workload, opts.seed, &opts.sizes())?;
    let gen_s = gen_started.elapsed().as_secs_f64();
    let data = std::mem::take(&mut workload.data);
    let (mut loaded, _) = load(&workload, data)?;
    let mut off = Spans::disabled();
    let stmts = &workload.round;

    for _ in 0..opts.pick(2, 1) {
        loaded.round(stmts, &mut off);
    }
    // Tracer off, for half the run: the round-time distribution (median,
    // p90, mean-based throughput) and the base of the tracing overhead.
    let (untraced, kernel_ms) = rounds_for(&mut loaded, stmts, opts.seconds * 0.5, opts.smoke);

    let mut spans = Spans::enabled_now();
    let mut traced_rounds: Vec<RoundLog> = Vec::new();
    let mut exec_stats: Vec<Vec<ExecStats>> = Vec::new();
    let (hits0, misses0) = loaded.session.cache_counts();
    for r in 0..opts.pick(20, 3) {
        spans.set_round(r as u32);
        traced_rounds.push(loaded.round(stmts, &mut spans));
        exec_stats.push(loaded.session.take_exec_stats());
    }
    let (hits1, misses1) = loaded.session.cache_counts();

    // Two worker threads: the recorded answer to "does `_t2` beat `_t1`".
    // One- and two-thread rounds alternate, so the host's drift hits both.
    let (mut one_thread, mut two_threads) = (Vec::new(), Vec::new());
    for _ in 0..opts.pick(5, 2) {
        loaded.session.set_threads(1);
        one_thread.push(loaded.round(stmts, &mut off));
        loaded.session.set_threads(2);
        two_threads.push(loaded.round(stmts, &mut off));
    }
    let mut t2_spans = Spans::enabled_now();
    loaded.round(stmts, &mut t2_spans);
    let t2_stats = loaded.session.take_exec_stats();
    loaded.session.set_threads(1);

    let world = loaded.starting_world();
    let probe = probes::run(&world);
    let reference = reference(&workload, world);
    let all: Vec<&RoundLog> = untraced
        .iter()
        .chain(&traced_rounds)
        .chain(&one_thread)
        .chain(&two_threads)
        .collect();
    let verdict = judge(&workload, &all, &reference);
    let stats = RoundStats::of(&workload, &all[..untraced.len()], &verdict.clean);

    let walls = |logs: &[RoundLog]| logs.iter().map(RoundLog::wall_ms).collect::<Vec<f64>>();
    let fastest = |logs: &[RoundLog]| walls(logs).into_iter().fold(f64::INFINITY, f64::min);
    let (t1_ms, t2_ms) = (median(&walls(&one_thread)), median(&walls(&two_threads)));
    let mut table = layers::table(&spans, &exec_stats);
    let lookups = (hits1 - hits0) + (misses1 - misses0);
    let extra: [(&str, f64, &'static str); 15] = [
        (
            "sql.cache.hit_ratio",
            ratio((hits1 - hits0) as f64, lookups as f64),
            "ratio",
        ),
        ("core.parallel.t2_speedup", ratio(t1_ms, t2_ms), "ratio"),
        (
            "core.parallel.morsels",
            t2_stats.iter().map(|s| s.par.morsels as f64).sum(),
            "count",
        ),
        (
            "core.parallel.merge_ms",
            t2_stats
                .iter()
                .map(|s| s.par.merge_nanos as f64 / 1e6)
                .sum(),
            "ms",
        ),
        // Floor against floor: the medians carry the host's noise.
        (
            "core.obs.trace_overhead_ratio",
            ratio(fastest(&traced_rounds), fastest(&untraced)),
            "ratio",
        ),
        ("ql.confidence.max_abs_err", reference.max_abs_err, "ratio"),
        (
            "ql.confidence.approx_miss_ratio",
            reference.approx_miss_ratio,
            "ratio",
        ),
        ("bench.gen_s", gen_s, "s"),
        ("bench.rounds", stats.n as f64, "count"),
        ("bench.round_floor_ms", stats.floor_ms, "ms"),
        (
            "bench.round_floor_rel",
            ratio(stats.floor_ms, kernel_ms),
            "ratio",
        ),
        ("bench.kernel_floor_ms", kernel_ms, "ms"),
        ("bench.round_p50_ms", stats.p50_ms, "ms"),
        ("bench.round_p90_ms", stats.p90_ms, "ms"),
        ("bench.stmts_per_s", stats.stmts_per_s, "1/s"),
    ];
    for (name, value, unit) in extra.into_iter().chain(probe) {
        table.insert(name.to_owned(), (value, unit));
    }
    let by_id = stmt_medians(&workload, &traced_rounds);
    for id in workloads::STMT_IDS {
        let v = by_id.get(id).copied().unwrap_or(0.0);
        table.insert(format!("stmt.{id}.p50_ms"), (v, "ms"));
    }

    let notes = vec![
        format!(
            "workload {} seed {} — {}",
            workload.name, opts.seed, workload.size
        ),
        format!(
            "traced pass: {} untraced + {} traced + {} one-thread + {} two-thread rounds, \
             {} spans; round median {t1_ms:.3} ms at 1 thread, {t2_ms:.3} ms at 2; \
             reference + checks {:.0} ms",
            untraced.len(),
            traced_rounds.len(),
            one_thread.len(),
            two_threads.len(),
            spans.spans().len(),
            reference.check_ms,
        ),
        format!(
            "untraced: {}; reference kernel floor {kernel_ms:.3} ms",
            stats.note()
        ),
    ];
    Ok(Report {
        workload: workload.name.to_owned(),
        seed: opts.seed,
        traced: true,
        correct: verdict.failed == 0,
        attempted: verdict.attempted.max(1),
        failed: verdict.failed,
        first_failure: verdict.first_failure,
        metrics: table
            .into_iter()
            .map(|(name, (value, unit))| Metric::new(&name, value, unit))
            .collect(),
        notes,
        chrome_trace: Some(spans.to_chrome_json()),
    })
}
