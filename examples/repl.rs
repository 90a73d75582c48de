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
//! registers the result as a new relation, together with the components its
//! repairs minted — the only statement that grows the world set, and the
//! way to share one repair's components across several later queries. A
//! query's repairs mint components for its answer alone: its descriptors
//! may name components past the world set's, which the statement dropped.
//! `EXPLAIN <query>;` shows the lowered and the optimized plan instead of
//! evaluating (queries themselves always run through the optimizer);
//! `EXPLAIN ANALYZE <query>;` *executes* the query with tracing on (on the
//! session's world set, which it leaves as it found it, like any query) and
//! prints the optimized plan annotated per node with wall time, rows,
//! morsel fan-out, pool traffic, and confidence-solver counters.
//!
//! Meta commands: `\d` lists the relations, `\stats` shows the last query's
//! executor statistics (descriptor-pool occupancy and hit rates,
//! string-dictionary size, elided dedups, parallelism, confidence-solver
//! counters, plan-cache hit rate), `\timing`
//! toggles per-statement wall-clock reporting, `\trace on|off` toggles span
//! tracing for subsequent queries, `\trace last <file>` exports the last
//! captured trace as Chrome trace-event JSON (open it in `chrome://tracing`
//! or Perfetto), `\metrics` prints the session's totals (the same counters
//! summed over every run so far), `\set threads N`
//! changes the session's worker budget (initially the machine's
//! parallelism), `\q` quits, `\help` shows the cheat sheet. The knob writes
//! the session's `ExecCfg`, the one value every statement runs under. A
//! `\set` with an unknown knob or a malformed value is a hard error
//! (it lists the valid knobs) — in batch mode it stops the run with a
//! non-zero exit instead of silently continuing with stale settings.
//!
//! The engine is `maybms::sql::Session`; this file is the I/O around it.
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

use maybms::algebra::ExecStats;
use maybms::core::{QueryTrace, Relation, Schema, Tuple, URelation, Value, ValueType, WorldSet};
use maybms::sql::lexer::{lex, TokenKind};
use maybms::sql::{Executed, Outcome, Session};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let mut session = Repl::new(demo_world());
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

/// One REPL session: the engine plus the last-query state the meta commands
/// inspect. Interactive and batch mode drive the same type, so `\timing`,
/// `\trace`, `\stats`, … behave identically in both.
struct Repl {
    /// Runs every statement; `\set` writes its `exec`, `\trace` its `trace`.
    engine: Session,
    timing: bool,
    last_stats: Option<ExecStats>,
    last_trace: Option<QueryTrace>,
    /// Every run's stats folded together, and how many runs that is — what
    /// `\metrics` prints.
    totals: ExecStats,
    runs: u64,
}

impl Repl {
    fn new(ws: WorldSet) -> Repl {
        Repl {
            engine: Session::new(ws),
            timing: false,
            last_stats: None,
            last_trace: None,
            totals: ExecStats::default(),
            runs: 0,
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

    /// Execute one complete statement, print what it produced and — under
    /// `\timing` — how long the engine took. Errors come back rendered
    /// against `src`: front-end errors with a caret diagnostic, runtime
    /// errors (which carry no span) as a plain message.
    fn run_statement(&mut self, src: &str) -> Result<(), String> {
        let start = Instant::now();
        let executed = self.engine.execute(src);
        let elapsed = start.elapsed();
        let shown = executed
            .map(|executed| self.show(executed))
            .map_err(|e| e.render(src));
        if self.timing {
            println!("Time: {:.3} ms", elapsed.as_secs_f64() * 1e3);
        }
        shown
    }

    /// Print what a statement produced and keep what `\stats` and `\trace
    /// last` report.
    fn show(&mut self, executed: Executed) {
        if let Some(stats) = &executed.stats {
            self.totals.absorb(stats);
            self.runs += 1;
            self.last_stats = Some(*stats);
        }
        if let Some(trace) = executed.trace {
            println!(
                "trace: {} spans captured (\\trace last <file> to export)",
                trace.spans.len()
            );
            self.last_trace = Some(trace);
        }
        match executed.outcome {
            Outcome::Rows(result) => println!("{result}({} rows)", result.len()),
            Outcome::Stored { name, rows } => {
                println!("relation `{name}` materialized ({rows} rows)");
            }
            Outcome::Explain(ex) => print!("{ex}"),
            Outcome::Analyze(ex) => {
                print!("{ex}");
                self.last_trace = Some(ex.trace);
            }
        }
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
            "\\metrics" => print_stats(
                &format!("session totals ({} runs):", self.runs),
                &self.totals,
            ),
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
                self.engine.trace = true;
                println!("Tracing is on.");
            }
            (Some("off"), None) => {
                self.engine.trace = false;
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
                if self.engine.trace { "on" } else { "off" },
                if self.last_trace.is_some() { "a" } else { "no" }
            ),
            _ => println!("usage: \\trace on|off  or  \\trace last <file>"),
        }
    }

    /// `\set <knob> <value>`. Unknown knobs and malformed values are hard
    /// errors listing the valid knobs — never a silent no-op.
    fn set_cmd(&mut self, cmd: &str) -> Result<(), String> {
        const VALID: &str = "valid knobs: threads <N>";
        let mut parts = cmd.split_whitespace().skip(1);
        let knob = parts.next();
        let raw = parts.next();
        let number = raw.and_then(|v| v.parse::<usize>().ok());
        match (knob, raw, number) {
            (Some("threads"), Some(_), Some(n)) if n >= 1 => {
                self.engine.exec.par.threads = n;
                println!("threads = {n}");
            }
            (Some(knob @ "threads"), raw, _) => {
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
    /// meta-command). Before any query has run, the session's knobs are
    /// still reported so the state stays inspectable.
    fn stats(&self) {
        match &self.last_stats {
            Some(s) => print_stats("last query:", s),
            None => println!("no query executed yet"),
        }
        self.print_cache_and_settings();
    }

    /// The `\stats` footer: plan-cache counters plus every session knob —
    /// printed whether or not a query has run yet, so the session state is
    /// always inspectable.
    fn print_cache_and_settings(&self) {
        let cache = self.engine.plan_cache();
        println!(
            "plan cache: {} hits, {} misses, {} entries",
            cache.hits(),
            cache.misses(),
            cache.len()
        );
        println!(
            "session settings: threads = {}",
            self.engine.exec.par.threads
        );
    }

    fn describe(&self) {
        let ws = self.engine.world();
        for (name, rel) in &ws.relations {
            let cols: Vec<String> = rel
                .schema()
                .columns()
                .iter()
                .map(|c| format!("{} {}", c.name, c.ty))
                .collect();
            println!("{name}({}) — {} rows", cols.join(", "), rel.len());
        }
        println!("components in the world set: {}", ws.components.len());
    }
}

/// Print executor statistics under `header` — one run's for `\stats`, the
/// session's totals for `\metrics`: descriptor-pool occupancy with
/// intern/conjoin hit rates, the string dictionary size, parallelism,
/// confidence-solver counters, and what the scans found.
fn print_stats(header: &str, s: &ExecStats) {
    let p = s.pool;
    println!("{header}");
    println!("  wall time:       {:.3} ms", s.wall_nanos as f64 / 1e6);
    println!("  descriptor pool: {} entries", s.descriptors);
    println!(
        "  interning:       {} imported by scans, {} hits / {} calls ({:.1}% shared)",
        p.imported,
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
            "  confidence:      {} groups exact in {} steps, {} sampled in {} draws ({} by Karp–Luby), largest group {} descriptors",
            c.exact_groups, c.exact_steps, c.sampled_groups, c.samples_drawn, c.karp_luby_groups, c.largest_group
        );
    }
    println!("  output:          {} rows", s.output_rows);
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

/// A statement's source as one echo line, rebuilt from its tokens without
/// its final `;`: a gap between two tokens that holds a comment or a line
/// break prints as one space, any other gap as written. Source the lexer
/// rejects (it is about to fail with a diagnostic) prints its words
/// separated by single spaces.
fn statement_text(src: &str) -> String {
    let Ok(tokens) = lex(src) else {
        let words: Vec<&str> = src.split_whitespace().collect();
        return words.join(" ").trim_end_matches(';').trim_end().to_string();
    };
    // The `;` that ended the statement is the echo's own; the lexer's last
    // token is its end of input.
    let mut end = tokens.len() - 1;
    if end > 0 && tokens[end - 1].kind == TokenKind::Semi {
        end -= 1;
    }
    let mut echo = String::new();
    for (i, token) in tokens[..end].iter().enumerate() {
        if i > 0 {
            let gap = &src[tokens[i - 1].span.end..token.span.start];
            echo.push_str(if gap.contains("--") || gap.contains('\n') {
                " "
            } else {
                gap
            });
        }
        echo.push_str(&src[token.span.start..token.span.end]);
    }
    echo
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
         \\metrics the same statistics summed over the session's runs\n  \
         \\timing  toggle wall-clock reporting per statement\n  \
         \\trace on|off      trace subsequent queries\n  \
         \\trace last <file> export the last trace as Chrome trace JSON\n  \
         \\set threads <N>  worker-thread budget for query execution\n  \
         \\help    this help\n  \
         \\q       quit"
    );
}
