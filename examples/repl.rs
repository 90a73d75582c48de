//! The MayQL REPL: type queries against a world set, see u-relations.
//!
//! ```text
//! cargo run --example repl                              # interactive
//! cargo run --example repl -- --batch examples/census.mayql
//! ```
//!
//! The session starts with the paper's `censusform` relation loaded (one row
//! per plausible reading of a scanned census form, weighted by OCR
//! confidence), so the census walkthrough works out of the box:
//!
//! ```text
//! mayql> LET census = REPAIR KEY name IN censusform WEIGHT BY w;
//! mayql> SELECT POSSIBLE ssn FROM census WHERE name = 'Smith';
//! ```
//!
//! Statements end with `;`. `LET name = <query>;` evaluates a query once and
//! registers the result as a new relation — the way to share one repair's
//! components across several later queries. `EXPLAIN <query>;` shows the
//! lowered and the optimized plan instead of evaluating (queries themselves
//! always run through the optimizer); `EXPLAIN ANALYZE <query>;` *executes*
//! the query with tracing on (against a scratch copy of the session world
//! set) and prints the optimized plan annotated per node with wall time,
//! rows, morsel fan-out, pool traffic, and confidence-solver counters.
//!
//! Meta commands: `\d` lists the relations, `\stats` shows the last query's
//! executor statistics (descriptor-pool occupancy and hit rates,
//! string-dictionary size, elided dedups, parallelism, confidence-solver
//! and SIP counters, plan-cache hit rate), `\timing` toggles per-statement
//! wall-clock reporting, `\trace on|off` toggles span tracing for
//! subsequent queries, `\trace last <file>` exports the last captured trace
//! as Chrome trace-event JSON (open it in `chrome://tracing` or Perfetto),
//! `\metrics` prints the process-wide metrics registry, `\set threads N`
//! changes the session's worker budget (initially the machine's
//! parallelism), `\set sip on|off` toggles Bloom-filter sideways information
//! passing (initially on), `\set plan_cache on|off` toggles the session's
//! LRU cache of optimized plans, `\q` quits, `\help` shows the cheat sheet.
//! The first two write the session's `ExecCfg`, the one value every
//! statement runs under. A `\set` with an unknown knob or a malformed value
//! is a hard error (it lists the valid knobs) — in batch mode it stops the
//! run with a non-zero exit instead of silently continuing with stale
//! settings.
//!
//! In `--batch` mode the file is processed line by line exactly like an
//! interactive session (`--` comments, `;` separators, `\`-meta commands —
//! including `\timing` and `\trace` — all work), each statement is echoed
//! and executed, and the first error stops the run with a non-zero exit —
//! which is how CI smoke-tests the front-end against
//! `examples/census.mayql` and the trace pipeline against
//! `examples/trace.mayql`.

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::time::Instant;

use maybms::algebra::{estimate_preorder, run_with, ExecCfg, ExecStats, StatsProvider};
use maybms::core::{
    metrics, QueryTrace, Relation, Schema, Tuple, URelation, Value, ValueType, WorldSet,
};
use maybms::sql::lexer::{lex, TokenKind};
use maybms::sql::{
    explain, explain_analyze, explain_analyze_plan, parse_statement, Catalog, PlanCache, Statement,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let mut session = Session::new(demo_world());
    match args.get(1).map(String::as_str) {
        Some("--batch") => {
            let Some(path) = args.get(2) else {
                eprintln!("usage: repl [--batch <script.mayql>]");
                return ExitCode::from(2);
            };
            session.batch(path)
        }
        Some(other) => {
            eprintln!("unknown option `{other}`; usage: repl [--batch <script.mayql>]");
            ExitCode::from(2)
        }
        None => session.interactive(),
    }
}

/// The paper's running example: one row per plausible reading of each
/// scanned census form, weighted by how likely the OCR considers it, plus
/// a small certain `homes(ssn, city)` relation so join queries (and their
/// `EXPLAIN` output) have something to join against out of the box.
fn demo_world() -> WorldSet {
    let schema = Schema::of(&[
        ("name", ValueType::Str),
        ("ssn", ValueType::Int),
        ("w", ValueType::Int),
    ])
    .expect("distinct columns");
    let readings = [
        ("Smith", 185, 3),
        ("Smith", 785, 1),
        ("Brown", 185, 1),
        ("Brown", 186, 1),
    ];
    let rel = Relation::from_rows(
        schema,
        readings
            .iter()
            .map(|&(n, s, w)| Tuple::new(vec![Value::str(n), s.into(), Value::Int(w)]))
            .collect(),
    )
    .expect("rows match schema");
    let mut ws = WorldSet::new();
    ws.insert("censusform", URelation::from_certain(&rel))
        .expect("certain relation is valid");

    let homes_schema =
        Schema::of(&[("ssn", ValueType::Int), ("city", ValueType::Str)]).expect("distinct columns");
    let homes = [(185, "Armonk"), (785, "Putnam"), (186, "Armonk")];
    let homes_rel = Relation::from_rows(
        homes_schema,
        homes
            .iter()
            .map(|&(s, c)| Tuple::new(vec![s.into(), Value::str(c)]))
            .collect(),
    )
    .expect("rows match schema");
    ws.insert("homes", URelation::from_certain(&homes_rel))
        .expect("certain relation is valid");
    ws
}

/// What a meta command asks the driving loop to do next.
enum MetaOutcome {
    Continue,
    Quit,
}

/// One REPL session: the world set, the catalog collected from it, plus
/// every knob and piece of last-query state the meta commands inspect.
/// Interactive and batch mode drive the same session type, so `\timing`,
/// `\trace`, `\stats`, … behave identically in both.
struct Session {
    ws: WorldSet,
    /// Schemas and statistics of `ws`, rebuilt after each successful `LET`
    /// (the only statement that changes a relation).
    catalog: Catalog,
    /// What every statement runs under (`\set threads`, `\set sip`).
    exec: ExecCfg,
    timing: bool,
    trace: bool,
    /// Whether compiled plans are served from / inserted into `plan_cache`
    /// (`\set plan_cache on|off`). The cache itself persists across
    /// toggles, so flipping the knob off and on keeps warm entries.
    plan_cache_on: bool,
    plan_cache: PlanCache,
    last_stats: Option<ExecStats>,
    last_trace: Option<QueryTrace>,
}

impl Session {
    fn new(ws: WorldSet) -> Session {
        Session {
            catalog: Catalog::from_world_set(&ws),
            ws,
            exec: ExecCfg::default(),
            timing: false,
            trace: false,
            plan_cache_on: true,
            plan_cache: PlanCache::default(),
            last_stats: None,
            last_trace: None,
        }
    }

    fn interactive(&mut self) -> ExitCode {
        println!("MayQL — type queries ending with `;`, \\help for help, \\q to quit.");
        println!(
            "Preloaded: censusform(name, ssn, w), homes(ssn, city) — the paper's running example."
        );
        let stdin = std::io::stdin();
        let mut buffer = String::new();
        loop {
            print!(
                "{}",
                if buffer.is_empty() {
                    "mayql> "
                } else {
                    "   ... "
                }
            );
            std::io::stdout().flush().expect("stdout is writable");
            let mut line = String::new();
            match stdin.lock().read_line(&mut line) {
                Ok(0) => return ExitCode::SUCCESS, // EOF
                Ok(_) => {}
                Err(e) => {
                    eprintln!("repl: {e}");
                    return ExitCode::FAILURE;
                }
            }
            let trimmed = line.trim();
            if buffer_blank(&buffer) && trimmed.starts_with('\\') {
                buffer.clear();
                match self.meta(trimmed) {
                    Ok(MetaOutcome::Quit) => return ExitCode::SUCCESS,
                    Ok(MetaOutcome::Continue) => {}
                    Err(msg) => eprint!("{msg}"),
                }
                continue;
            }
            buffer.push_str(&line);
            if !statement_complete(&buffer, trimmed) {
                continue;
            }
            let src = std::mem::take(&mut buffer);
            if let Err(msg) = self.run_statement(&src) {
                eprint!("{msg}");
            }
        }
    }

    /// Batch mode is the interactive loop without a prompt: the script is
    /// processed line by line, so meta commands (`\timing`, `\trace`, …)
    /// work exactly as they do at the keyboard. Each statement is echoed,
    /// and the first error stops the run with a non-zero exit.
    fn batch(&mut self, path: &str) -> ExitCode {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("repl: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let mut buffer = String::new();
        for line in src.lines() {
            let trimmed = line.trim();
            if buffer_blank(&buffer) && trimmed.starts_with('\\') {
                buffer.clear();
                println!("mayql> {trimmed}");
                match self.meta(trimmed) {
                    Ok(MetaOutcome::Quit) => return ExitCode::SUCCESS,
                    Ok(MetaOutcome::Continue) => {}
                    Err(msg) => {
                        eprint!("{msg}");
                        return ExitCode::FAILURE;
                    }
                }
                continue;
            }
            buffer.push_str(line);
            buffer.push('\n');
            if !statement_complete(&buffer, trimmed) {
                continue;
            }
            let stmt_src = std::mem::take(&mut buffer);
            println!("mayql> {};", statement_text(&stmt_src));
            if let Err(msg) = self.run_statement(&stmt_src) {
                eprint!("{msg}");
                return ExitCode::FAILURE;
            }
        }
        if !buffer.trim().is_empty() {
            eprintln!(
                "repl: unterminated statement at end of {path}: {}",
                statement_text(&buffer)
            );
            return ExitCode::FAILURE;
        }
        ExitCode::SUCCESS
    }

    /// Parse and execute one complete statement, honoring `\timing`.
    fn run_statement(&mut self, src: &str) -> Result<(), String> {
        match parse_statement(src) {
            Err(e) => Err(e.render(src)),
            Ok(stmt) => {
                let start = Instant::now();
                let outcome = self.execute(&stmt, src);
                if self.timing {
                    println!("Time: {:.3} ms", start.elapsed().as_secs_f64() * 1e3);
                }
                outcome
            }
        }
    }

    /// Compile and run one statement, printing its result. A `LET`
    /// registers the result as a relation instead, so its components are
    /// shared by every later query that scans it; an `EXPLAIN` prints the
    /// lowered and the optimized plan without evaluating, and `EXPLAIN
    /// ANALYZE` executes against a scratch copy of the world set (so its
    /// repairs don't mint session components) and prints the annotated
    /// plan. Queries run through the logical optimizer by default. `src` is
    /// the statement's source text, so semantic errors render with the same
    /// caret diagnostics as parse errors; runtime errors carry no span and
    /// print as a plain message.
    fn execute(&mut self, stmt: &Statement, src: &str) -> Result<(), String> {
        match stmt {
            Statement::Query(query) => {
                let (plan, _) = self.compile_cached(query, src)?;
                let result = self.run_plan(&plan)?;
                print!("{result}");
                println!("({} rows)", result.len());
                Ok(())
            }
            Statement::Let { name, query, .. } => {
                let (plan, _) = self.compile_cached(query, src)?;
                let result = self.run_plan(&plan)?;
                let rows = result.len();
                self.ws
                    .insert(name.name.clone(), result)
                    .map_err(|e| format!("error: {e}\n"))?;
                self.catalog = Catalog::from_world_set(&self.ws);
                println!("relation `{}` materialized ({rows} rows)", name.name);
                Ok(())
            }
            Statement::Explain {
                query,
                analyze: false,
                ..
            } => {
                let mut ex =
                    explain(&self.catalog, query, &self.exec).map_err(|e| e.render(src))?;
                // Route the estimates through the plan cache so a pending
                // one-shot q-error correction (from a previous EXPLAIN
                // ANALYZE of this query) shows up in the rendered
                // `est_rows=` — the planner's corrected beliefs, not its
                // original ones.
                if self.plan_cache_on {
                    let key = query_text(query, src);
                    match self.plan_cache.lookup(&self.catalog, key) {
                        Some(hit) => {
                            ex.optimized = hit.plan;
                            ex.estimates = hit.estimates;
                        }
                        None => self.plan_cache.insert(
                            &self.catalog,
                            key,
                            ex.optimized.clone(),
                            ex.estimates.clone(),
                        ),
                    }
                }
                print!("{ex}");
                Ok(())
            }
            Statement::Explain {
                query,
                analyze: true,
                ..
            } => {
                // Scratch copy: the analyzed run's side effects (repair-key
                // components, materialized pools) must not leak into the
                // session world set.
                let mut scratch = self.ws.clone();
                let ex = if self.plan_cache_on {
                    let (plan, ests) = self.compile_cached(query, src)?;
                    explain_analyze_plan(&mut scratch, plan, ests, query.span(), &self.exec)
                        .map_err(|e| e.render(src))?
                } else {
                    explain_analyze(&self.catalog, &mut scratch, query, &self.exec)
                        .map_err(|e| e.render(src))?
                };
                // Feed the observed per-node row counts back: the cached
                // entry's next estimates are scaled by the measured
                // q-error, once.
                if self.plan_cache_on {
                    let observed = ex.node_observations();
                    if !observed.is_empty() {
                        self.plan_cache.note_observed(
                            &self.catalog,
                            query_text(query, src),
                            &observed,
                        );
                    }
                }
                print!("{ex}");
                self.last_stats = Some(ex.stats);
                self.last_trace = Some(ex.trace);
                Ok(())
            }
        }
    }

    /// Compile one query to its optimized plan — through the session plan
    /// cache when it is on. The cache key is the query's source slice, so
    /// `SELECT …`, `LET x = SELECT …`, and `EXPLAIN [ANALYZE] SELECT …` of
    /// the same query text share one entry. Returns the plan and its
    /// pre-order cardinality estimates (corrected by the latest observed
    /// run when a one-shot q-error correction was pending).
    #[allow(clippy::type_complexity)]
    fn compile_cached(
        &mut self,
        query: &maybms::sql::Query,
        src: &str,
    ) -> Result<(maybms::algebra::Plan, Option<Vec<f64>>), String> {
        let catalog = &self.catalog;
        if self.plan_cache_on {
            if let Some(hit) = self.plan_cache.lookup(catalog, query_text(query, src)) {
                return Ok((hit.plan, hit.estimates));
            }
        }
        let (plan, _) = maybms::sql::lower(catalog, query).map_err(|e| e.render(src))?;
        let plan =
            maybms::sql::optimize_plan(catalog, &plan, query.span()).map_err(|e| e.render(src))?;
        let estimates = catalog
            .has_stats()
            .then(|| estimate_preorder(&plan, catalog, catalog));
        if self.plan_cache_on {
            self.plan_cache.insert(
                catalog,
                query_text(query, src),
                plan.clone(),
                estimates.clone(),
            );
        }
        Ok((plan, estimates))
    }

    /// Run a compiled plan, traced or not per the session's `\trace` flag,
    /// updating the last-query state either way.
    fn run_plan(&mut self, plan: &maybms::algebra::Plan) -> Result<URelation, String> {
        let (result, stats, trace) = run_with(&mut self.ws, plan, &self.exec, self.trace)
            .map_err(|e| format!("error: {e}\n"))?;
        self.last_stats = Some(stats);
        if let Some(trace) = trace {
            println!(
                "trace: {} spans captured (\\trace last <file> to export)",
                trace.spans.len()
            );
            self.last_trace = Some(trace);
        }
        Ok(result)
    }

    /// Handle one `\`-meta command (shared by interactive and batch mode).
    /// An `Err` is a hard error: interactive mode prints it and continues,
    /// batch mode stops with a non-zero exit (a script that mistypes a knob
    /// must not keep running on stale settings).
    fn meta(&mut self, cmd: &str) -> Result<MetaOutcome, String> {
        match cmd {
            "\\q" | "\\quit" => return Ok(MetaOutcome::Quit),
            "\\d" => self.describe(),
            "\\stats" => self.stats(),
            "\\metrics" => print!("{}", metrics().render()),
            "\\timing" => {
                self.timing = !self.timing;
                println!("Timing is {}.", if self.timing { "on" } else { "off" });
            }
            "\\help" | "\\h" => help(),
            cmd if cmd.starts_with("\\trace") => self.trace_cmd(cmd),
            cmd if cmd.starts_with("\\set") => self.set_cmd(cmd)?,
            other => println!("unknown command `{other}`; try \\help"),
        }
        Ok(MetaOutcome::Continue)
    }

    /// `\trace on|off` toggles span tracing for subsequent queries;
    /// `\trace last <file>` writes the last captured trace (from a traced
    /// query or an `EXPLAIN ANALYZE`) as Chrome trace-event JSON.
    fn trace_cmd(&mut self, cmd: &str) {
        let mut parts = cmd.split_whitespace().skip(1);
        match (parts.next(), parts.next()) {
            (Some("on"), None) => {
                self.trace = true;
                println!("Tracing is on.");
            }
            (Some("off"), None) => {
                self.trace = false;
                println!("Tracing is off.");
            }
            (Some("last"), Some(file)) => match &self.last_trace {
                None => println!(
                    "no trace captured yet; run a query with \\trace on or EXPLAIN ANALYZE"
                ),
                Some(trace) => match std::fs::write(file, trace.to_json()) {
                    Ok(()) => println!(
                        "trace written to {file} ({} spans; open in chrome://tracing or Perfetto)",
                        trace.spans.len()
                    ),
                    Err(e) => println!("cannot write {file}: {e}"),
                },
            },
            (None, None) => println!(
                "Tracing is {}; {} trace captured.",
                if self.trace { "on" } else { "off" },
                if self.last_trace.is_some() { "a" } else { "no" }
            ),
            _ => println!("usage: \\trace on|off  or  \\trace last <file>"),
        }
    }

    /// `\set <knob> <value>`. Unknown knobs and malformed values are hard
    /// errors listing the valid knobs — never a silent no-op.
    fn set_cmd(&mut self, cmd: &str) -> Result<(), String> {
        const VALID: &str = "valid knobs: threads <N>, sip on|off, plan_cache on|off";
        let mut parts = cmd.split_whitespace().skip(1);
        let knob = parts.next();
        let raw = parts.next();
        let number = raw.and_then(|v| v.parse::<usize>().ok());
        match (knob, raw, number) {
            (Some("threads"), Some(_), Some(n)) if n >= 1 => {
                self.exec.par.threads = n;
                println!("threads = {n}");
            }
            (Some("sip"), Some(v @ ("on" | "off")), _) => {
                self.exec.sip = v == "on";
                println!("sip = {v}");
            }
            (Some("plan_cache"), Some(v @ ("on" | "off")), _) => {
                self.plan_cache_on = v == "on";
                println!("plan_cache = {v}");
            }
            (Some(knob @ ("threads" | "sip" | "plan_cache")), raw, _) => {
                return Err(match raw {
                    Some(v) => format!("error: \\set {knob}: invalid value `{v}`; {VALID}\n"),
                    None => format!("error: \\set {knob}: missing value; {VALID}\n"),
                });
            }
            (Some(other), _, _) => {
                return Err(format!("error: \\set: unknown knob `{other}`; {VALID}\n"));
            }
            (None, _, _) => return Err(format!("error: usage: \\set <knob> <value>; {VALID}\n")),
        }
        Ok(())
    }

    /// Print the last query's executor statistics (the `\stats`
    /// meta-command): descriptor-pool occupancy with intern/conjoin hit
    /// rates, and the string dictionary size — the observability window
    /// into the columnar execution core. Before any query has run, the
    /// session's knobs are still reported so the state stays inspectable.
    fn stats(&self) {
        let Some(s) = &self.last_stats else {
            println!("no query executed yet");
            self.print_cache_and_settings();
            return;
        };
        let p = s.pool;
        println!("last query:");
        println!("  wall time:       {:.3} ms", s.wall_nanos as f64 / 1e6);
        println!(
            "  descriptor pool: {} distinct ({} spilled past inline capacity)",
            s.descriptors, s.descriptors_spilled
        );
        println!(
            "  interning:       {} hits / {} calls ({:.1}% shared)",
            p.intern_hits,
            p.intern_calls,
            if p.intern_calls == 0 {
                0.0
            } else {
                p.intern_hits as f64 / p.intern_calls as f64 * 100.0
            }
        );
        println!(
            "  conjunctions:    {} calls ({} shortcut, {} inconsistent)",
            p.conjoin_calls, p.conjoin_shortcuts, p.conjoin_inconsistent
        );
        println!("  string dict:     {} distinct strings", s.strings);
        println!(
            "  dedups elided:   {} (proven redundant by plan properties)",
            s.dedups_elided
        );
        println!(
            "  parallelism:     {} workers used of {} budgeted, {} morsels",
            s.par.workers_used.max(1),
            s.threads,
            s.par.morsels
        );
        let c = s.conf;
        if c.exact_groups + c.sampled_groups > 0 {
            println!(
                "  confidence:      {} groups exact in {} steps, {} sampled in {} draws (largest group {} descriptors)",
                c.exact_groups, c.exact_steps, c.sampled_groups, c.samples_drawn, c.largest_group
            );
        }
        let sip = s.sip;
        if sip.filters_built > 0 {
            println!(
                "  sip:             {} filters built, {} probe rows tested, {} pruned ({:.1}%)",
                sip.filters_built,
                sip.probe_rows_tested,
                sip.probe_rows_pruned,
                if sip.probe_rows_tested == 0 {
                    0.0
                } else {
                    sip.probe_rows_pruned as f64 / sip.probe_rows_tested as f64 * 100.0
                }
            );
        }
        println!("  output:          {} rows", s.output_rows);
        self.print_cache_and_settings();
    }

    /// The `\stats` footer: plan-cache counters plus every session knob —
    /// printed whether or not a query has run yet, so the session state is
    /// always inspectable.
    fn print_cache_and_settings(&self) {
        println!(
            "plan cache: {} hits, {} misses, {} entries",
            self.plan_cache.hits(),
            self.plan_cache.misses(),
            self.plan_cache.len()
        );
        let on_off = |b: bool| if b { "on" } else { "off" };
        println!(
            "session settings: threads = {}, sip = {}, plan_cache = {}",
            self.exec.par.threads,
            on_off(self.exec.sip),
            on_off(self.plan_cache_on)
        );
    }

    fn describe(&self) {
        for (name, rel) in &self.ws.relations {
            let cols: Vec<String> = rel
                .schema()
                .columns()
                .iter()
                .map(|c| format!("{} {}", c.name, c.ty))
                .collect();
            println!("{name}({}) — {} rows", cols.join(", "), rel.len());
        }
        println!("components in the world set: {}", self.ws.components.len());
    }
}

/// Whether the buffer holds no statement text yet — empty, whitespace, or
/// `--` comments only (the lexer skips comments, leaving just its EOF
/// token). A meta command arriving on a blank buffer runs immediately.
fn buffer_blank(buffer: &str) -> bool {
    match lex(buffer) {
        Ok(tokens) => tokens.len() <= 1,
        Err(_) => false,
    }
}

/// Whether the buffered text forms a complete statement. Statements run
/// once a `;` *token* arrives: the buffer is lexed, so trailing `--`
/// comments and `;` inside string literals or comments don't confuse the
/// boundary. A buffer the lexer rejects (e.g. an unterminated string) is
/// submitted once the raw line ends with `;`, letting the parser surface
/// the diagnostic.
fn statement_complete(buffer: &str, last_line: &str) -> bool {
    match lex(buffer) {
        Ok(tokens) => tokens.len() >= 2 && tokens[tokens.len() - 2].kind == TokenKind::Semi,
        Err(_) => last_line.trim().ends_with(';'),
    }
}

/// The query's exact source slice — the plan cache's key text (the cache
/// normalizes whitespace itself).
fn query_text<'a>(query: &maybms::sql::Query, src: &'a str) -> &'a str {
    let span = query.span();
    &src[span.start.min(src.len())..span.end.min(src.len())]
}

/// A statement's source collapsed to one echo line: comments dropped,
/// whitespace normalized, trailing `;` removed.
fn statement_text(src: &str) -> String {
    let without_comments: Vec<&str> = src
        .lines()
        .map(|l| l.find("--").map_or(l, |i| &l[..i]).trim())
        .filter(|l| !l.is_empty())
        .collect();
    without_comments
        .join(" ")
        .trim_end_matches(';')
        .trim()
        .to_string()
}

fn help() {
    println!(
        "statements (end with `;`):\n  \
         SELECT [POSSIBLE|CERTAIN|CONF[(eps, delta)]] cols|* FROM items [WHERE pred] [UNION ...];\n  \
         REPAIR KEY cols IN rel [WEIGHT BY col];\n  \
         LET name = <query>;        -- materialize a result as a relation\n  \
         EXPLAIN <query>;           -- show the lowered and optimized plans\n  \
         EXPLAIN ANALYZE <query>;   -- execute with tracing, annotate the plan per node\n\
         meta commands:\n  \
         \\d       list relations and schemas\n  \
         \\stats   executor statistics of the last query\n  \
         \\metrics the process-wide metrics registry (counters, histograms)\n  \
         \\timing  toggle wall-clock reporting per statement\n  \
         \\trace on|off      trace subsequent queries\n  \
         \\trace last <file> export the last trace as Chrome trace JSON\n  \
         \\set threads <N>  worker-thread budget for query execution\n  \
         \\set sip on|off  Bloom-filter sideways information passing\n  \
         \\set plan_cache on|off  session LRU cache of optimized plans\n  \
         \\help    this help\n  \
         \\q       quit"
    );
}
