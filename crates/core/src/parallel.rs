//! The fan-out primitive behind the engine's one parallel stage: the kernel
//! stage of `maybms-algebra`'s `confidence`, which walks the tuple runs of
//! `conf` (the solve) and `certain` (the coverage check). Every other stage
//! — scan, select, join, dedup, every sort, `repair-key`, `normalize` — runs
//! on the calling thread for every thread budget.
//!
//! The container this project builds in has no registry access, so there is
//! no rayon: [`run_tasks`] is built on [`std::thread::scope`]. The model
//! is deliberately simple and deterministic:
//!
//! * the tuple runs of a sorted input are split into **tasks** (contiguous
//!   ranges of runs — morsels, four per worker);
//! * a small pool of scoped worker threads pulls task indices from one
//!   atomic counter ([`run_tasks`]);
//! * each task is a pure function of frozen inputs and results are returned
//!   **in task order** — so the output of a parallel stage never depends on
//!   which OS thread happened to run which task.
//!
//! Determinism is the load-bearing property, and the argument for it is one
//! sentence: *no task mutates shared state; results are combined in task
//! order*. In particular no task mints a descriptor or a string — the
//! interning pools have a single owner, the calling thread — so pool
//! contents, handle numbering and pool counters are identical for *any*
//! thread count. The `parallel_differential` suite is the oracle.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default minimum row count before a stage bothers to go parallel:
/// below this, thread spawn overhead dominates any win.
pub const DEFAULT_MIN_ROWS: usize = 4096;

/// The thread budget passed explicitly through the executor. A plain
/// value: [`ParCfg::default`] is the machine's parallelism,
/// [`ParCfg::with_threads`] sets a budget, and nothing reads the process
/// environment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParCfg {
    /// Worker thread budget. `1` disables parallelism entirely (every stage
    /// runs inline on the calling thread).
    pub threads: usize,
    /// Minimum number of rows a stage must process before it fans out.
    /// Tests set this to `1` to force the parallel code paths on tiny
    /// generated inputs.
    pub min_rows: usize,
}

impl Default for ParCfg {
    /// The machine's available parallelism with the default morsel
    /// threshold.
    fn default() -> Self {
        ParCfg::with_threads(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }
}

impl ParCfg {
    /// A configuration with an explicit thread budget and the default
    /// morsel threshold.
    pub fn with_threads(threads: usize) -> Self {
        ParCfg {
            threads: threads.max(1),
            min_rows: DEFAULT_MIN_ROWS,
        }
    }

    /// How many workers a stage over `rows` rows should use: `1` (inline)
    /// when parallelism is off or the input is below the morsel threshold,
    /// the full thread budget otherwise.
    pub fn workers_for(&self, rows: usize) -> usize {
        if self.threads <= 1 || rows < self.min_rows {
            1
        } else {
            self.threads
        }
    }
}

/// Parallelism counters of one executor run, surfaced through `ExecStats`
/// and the REPL's `\stats` meta-command. [`run_tasks`] writes them, once
/// per fan-out, so they count only the run's own workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Maximum number of workers any stage fanned out to (1 = everything
    /// ran inline).
    pub workers_used: usize,
    /// Total morsels (tasks) dispatched across all parallel stages.
    pub morsels: u64,
    /// Never written (no stage merges); the frozen `perfbench` adapter reads it.
    pub merge_nanos: u64,
    /// Nanoseconds the fan-outs' workers spent busy, summed over workers —
    /// the tracer's `occ=` annotation divides it by wall time × threads.
    pub busy_nanos: u64,
}

impl ParStats {
    /// Fold another run's counters into this one.
    pub fn absorb(&mut self, other: &ParStats) {
        self.workers_used = self.workers_used.max(other.workers_used);
        self.morsels += other.morsels;
        self.busy_nanos += other.busy_nanos;
    }
}

/// Split `0..n` into at most `parts` contiguous, non-empty, near-equal
/// ranges (fewer when `n < parts`).
fn chunk_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Run `f` over the runs `0..n`, split into morsels of contiguous runs
/// (four per worker) on up to `workers` scoped threads, returning one result
/// per morsel **in morsel order**, and record the fan-out in `stats`: the
/// threads it spawned, its morsels and its workers' busy time.
///
/// Workers pull morsel indices from one shared atomic counter, so load
/// balances dynamically; but because each morsel's result depends only on
/// its own range (morsels share nothing mutable), the returned vector is
/// identical no matter how morsels were scheduled. With `workers <= 1` or a
/// single morsel, `f(0..n)` runs inline on the calling thread and `stats` is
/// untouched. A panicking morsel propagates the panic.
pub fn run_tasks<R, F>(stats: &mut ParStats, workers: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let morsels = chunk_ranges(n, workers * 4);
    if workers <= 1 || morsels.len() <= 1 {
        return vec![f(0..n)];
    }
    let tasks = morsels.len();
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(tasks, || None);
    let workers = workers.min(tasks);
    let mut busy_nanos = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let cursor = &cursor;
            let (f, morsels) = (&f, &morsels);
            handles.push(scope.spawn(move || {
                let started = std::time::Instant::now();
                let mut done: Vec<(usize, R)> = Vec::new();
                loop {
                    let t = cursor.fetch_add(1, Ordering::Relaxed);
                    if t >= tasks {
                        break;
                    }
                    done.push((t, f(morsels[t].clone())));
                }
                (done, started.elapsed())
            }));
        }
        for h in handles {
            let (done, elapsed) = h.join().expect("worker task panicked");
            busy_nanos += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            for (t, r) in done {
                slots[t] = Some(r);
            }
        }
    });
    stats.workers_used = stats.workers_used.max(workers);
    stats.morsels += tasks as u64;
    stats.busy_nanos += busy_nanos;
    slots
        .into_iter()
        .map(|r| r.expect("every task index below `tasks` was claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for n in [0usize, 1, 5, 16, 17, 1000] {
            for parts in [1usize, 2, 3, 4, 7] {
                let ranges = chunk_ranges(n, parts);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect, "contiguous");
                    assert!(!r.is_empty(), "no empty morsels");
                    expect = r.end;
                }
                assert_eq!(expect, n, "ranges cover 0..{n}");
                assert!(ranges.len() <= parts.max(1));
            }
        }
    }

    #[test]
    fn run_tasks_returns_in_task_order() {
        let squares = |runs: Range<usize>| runs.map(|t| t * t).collect::<Vec<_>>();
        let mut stats = ParStats::default();
        let results = run_tasks(&mut stats, 4, 37, squares);
        assert_eq!(
            results,
            chunk_ranges(37, 16)
                .into_iter()
                .map(squares)
                .collect::<Vec<_>>()
        );
        assert_eq!(results.concat(), squares(0..37));
        assert_eq!((stats.workers_used, stats.morsels), (4, 16));
        // Inline path agrees — one worker, or one run — and records nothing.
        let mut inline = ParStats::default();
        assert_eq!(run_tasks(&mut inline, 1, 37, squares), vec![squares(0..37)]);
        assert_eq!(run_tasks(&mut inline, 4, 1, squares), vec![squares(0..1)]);
        assert_eq!(inline, ParStats::default());
    }

    #[test]
    fn workers_for_honors_threshold() {
        let par = ParCfg {
            threads: 4,
            min_rows: 100,
        };
        assert_eq!(par.workers_for(99), 1);
        assert_eq!(par.workers_for(100), 4);
        assert_eq!(ParCfg::with_threads(1).workers_for(1_000_000), 1);
    }
}
