//! `benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! [--out DIR] [--smoke]` and `benchmark compare <A> <B> [--bench-json FILE]`.
//!
//! The last line of standard output of a single-workload run is the result
//! object the driver reads. `--workload all` runs each workload in a child
//! process of its own, one after the other, so every workload's peak RSS is
//! its own.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::{compare, declarations, host_line};
use perfbench::run::{end_to_end, traced, Opts};
use perfbench::{engine, workloads};

const USAGE: &str = "usage: benchmark --workload <name|all> [--seed N] [--seconds S] \
[--trace 0|1] [--out DIR] [--smoke]\n       benchmark compare <A> <B> [--bench-json FILE]";

struct Cli {
    opts: Opts,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: Opts {
            workload: String::new(),
            seed: 1,
            seconds: 20.0,
            smoke: false,
        },
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.opts.workload = value()?.clone(),
            "--seed" => cli.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--smoke" => cli.opts.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.opts.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    if !(cli.opts.seconds > 0.0 && cli.opts.seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".to_owned());
    }
    Ok(cli)
}

/// Run every workload in its own child process with the same flags.
fn run_all(args: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for name in workloads::NAMES {
        let child_args: Vec<String> = args
            .iter()
            .map(|a| {
                if a == "all" {
                    name.to_owned()
                } else {
                    a.clone()
                }
            })
            .collect();
        let status = std::process::Command::new(&exe)
            .args(&child_args)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        if !status.success() {
            return Err(format!("workload {name} failed ({status})"));
        }
    }
    Ok(())
}

fn run_one(cli: &Cli) -> Result<bool, String> {
    engine::pin_default_knobs();
    let report = if cli.trace {
        traced(&cli.opts)?
    } else {
        end_to_end(&cli.opts)?
    };
    let host = host_line();
    if let Some(dir) = &cli.out {
        report.write_to(dir, &host)?;
    }
    print!("{}", report.render(&host));
    Ok(report.correct)
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let (mut dirs, mut bench_json) = (Vec::new(), PathBuf::from("BENCHMARK.json"));
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bench-json" {
            bench_json = PathBuf::from(it.next().ok_or("--bench-json needs a value")?);
        } else {
            dirs.push(PathBuf::from(arg));
        }
    }
    let [a, b] = dirs.as_slice() else {
        return Err("compare takes two output directories".to_owned());
    };
    let (table, worse) = compare(a, b, &declarations(&bench_json)?);
    print!("{table}");
    Ok(worse == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        _ => parse(&args).and_then(|cli| {
            if cli.opts.workload == "all" {
                run_all(&args).map(|()| true)
            } else {
                run_one(&cli)
            }
        }),
    };
    match outcome {
        // A run that printed its result exits 0 even when a statement
        // failed: the result object says so. Only `compare` turns its
        // verdict into the exit code.
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) if args.first().is_some_and(|a| a == "compare") => ExitCode::FAILURE,
        Ok(false) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
