//! A small scoped worker pool for partition-parallel kernels.
//!
//! The pool is deliberately minimal: callers hand over a vector of
//! closures, the pool runs them on `n` scoped threads, and the results
//! come back **in submission order** regardless of which worker finished
//! first.
//!
//! [`workers`] is also the *partition width*: an engine splits a hot
//! operator (hash join, grouped aggregate, matmul, elementwise) into
//! `workers()` partitions, and at a width of one it runs the sequential
//! kernel with no split at all. Results are therefore bag-identical
//! across widths and byte-identical at a fixed width. No plan node or
//! wire field carries the width; it is ambient on the executing thread.
//!
//! Width resolution, in priority order:
//!
//! 1. a thread-local override installed with [`with_workers`] (the
//!    federation executor always pins it — at one too — to the width
//!    the planner chose for each fragment, never the process default),
//! 2. the `BDA_WORKERS` environment variable (a remote server runs at
//!    its own width this way),
//! 3. `1` (fully sequential; the pool runs closures inline).
//!
//! Every partition-parallel kernel runs through [`run_partitions`], which
//! adds the `partition:{i}` span each partition records.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::sync::OnceLock;

thread_local! {
    static WORKER_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Parse `BDA_WORKERS` once per process. Unset, empty, unparsable, or
/// zero values all fall back to 1 worker (sequential).
pub fn workers_from_env() -> usize {
    static ENV_WORKERS: OnceLock<usize> = OnceLock::new();
    *ENV_WORKERS.get_or_init(|| {
        std::env::var("BDA_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1)
    })
}

/// The worker count in effect on this thread: the [`with_workers`]
/// override if one is installed, otherwise the `BDA_WORKERS` default.
pub fn workers() -> usize {
    WORKER_OVERRIDE
        .with(|c| c.get())
        .unwrap_or_else(workers_from_env)
}

/// Run `f` with the worker count pinned to `n` on this thread.
///
/// The override is scoped: it is restored on exit even if `f` panics.
/// Tests and the executor use this instead of mutating the environment
/// so concurrently running queries with different worker counts never
/// race.
pub fn with_workers<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKER_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = WORKER_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Run `tasks` on up to `workers` scoped threads and return the results
/// in submission order.
///
/// With `workers <= 1` (or fewer than two tasks) the closures run inline
/// on the calling thread — no threads are spawned, so the sequential
/// path has zero overhead and identical panic behavior. Otherwise each
/// thread claims the next task index from a shared counter until none
/// are left, and the results are placed back by index. A panicking task
/// re-raises its panic on the calling thread.
pub fn run_with<T: Send>(workers: usize, tasks: Vec<Box<dyn FnOnce() -> T + Send + '_>>) -> Vec<T> {
    let n = workers.min(tasks.len()).max(1);
    if n <= 1 {
        return tasks.into_iter().map(|t| t()).collect();
    }

    let mut slots: Vec<Option<T>> = (0..tasks.len()).map(|_| None).collect();
    // Each index is claimed exactly once, so no lock is ever contended.
    // `Relaxed` suffices: the counter publishes no data, and each task
    // moves to its thread through its own mutex.
    let jobs: Vec<Mutex<Option<_>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(idx) else {
                            return done;
                        };
                        let task = job
                            .lock()
                            .expect("a job lock is held only to take the task")
                            .take();
                        done.push((idx, task.expect("each task is claimed once")()));
                    }
                })
            })
            .collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (idx, value) in done {
                slots[idx] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every task ran"))
        .collect()
}

/// Run one task per partition on [`workers`] threads, each under a
/// `partition:{i}` span of the ambient [`bda_obs::scope`] (captured
/// here, so the spans nest under the caller's open operator span even on
/// pool threads). `rows` reads the cardinality a partition's span
/// records off its output. Outputs come back in partition order, so a
/// partitioned kernel's result never depends on the worker count.
pub fn run_partitions<'a, T: Send + 'a>(
    tasks: Vec<impl FnOnce() -> T + Send + 'a>,
    rows: fn(&T) -> Option<usize>,
) -> Vec<T> {
    let snap = bda_obs::scope::snapshot();
    let traced: Vec<Box<dyn FnOnce() -> T + Send + 'a>> = tasks
        .into_iter()
        .enumerate()
        .map(|(i, task)| {
            let snap = snap.clone();
            Box::new(move || {
                let mut span = snap.as_ref().map(|s| {
                    s.tracer
                        .start(s.parent, || format!("partition:{i}"), &s.site)
                });
                let out = task();
                if let (Some(span), Some(n)) = (span.as_mut(), rows(&out)) {
                    span.set_rows(n);
                }
                out
            }) as Box<dyn FnOnce() -> T + Send + 'a>
        })
        .collect();
    run_with(workers(), traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed_tasks(n: usize) -> Vec<Box<dyn FnOnce() -> usize + Send + 'static>> {
        (0..n)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        for workers in [1, 2, 4, 7] {
            let got = run_with(workers, boxed_tasks(13));
            let want: Vec<usize> = (0..13).map(|i| i * i).collect();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_singleton_task_lists() {
        assert_eq!(run_with(4, boxed_tasks(0)), Vec::<usize>::new());
        assert_eq!(run_with(4, boxed_tasks(1)), vec![0]);
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        assert_eq!(run_with(64, boxed_tasks(3)), vec![0, 1, 4]);
    }

    #[test]
    fn tasks_can_borrow_from_the_caller() {
        let data: Vec<i64> = (0..100).collect();
        let chunks: Vec<&[i64]> = data.chunks(17).collect();
        let tasks: Vec<Box<dyn FnOnce() -> i64 + Send + '_>> = chunks
            .iter()
            .map(|c| {
                let c = *c;
                Box::new(move || c.iter().sum::<i64>()) as Box<dyn FnOnce() -> i64 + Send + '_>
            })
            .collect();
        let partials = run_with(3, tasks);
        assert_eq!(partials.iter().sum::<i64>(), data.iter().sum::<i64>());
    }

    #[test]
    fn override_is_scoped_and_nested() {
        assert_eq!(workers(), workers_from_env());
        with_workers(4, || {
            assert_eq!(workers(), 4);
            with_workers(2, || assert_eq!(workers(), 2));
            assert_eq!(workers(), 4);
        });
        assert_eq!(workers(), workers_from_env());
    }

    #[test]
    fn override_clamps_zero_to_one() {
        with_workers(0, || assert_eq!(workers(), 1));
    }
}
