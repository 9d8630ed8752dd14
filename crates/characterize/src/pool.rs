//! Fleet jobs: one scoped spawn per job.
//!
//! A job is a set of `total` indexed tasks plus a caller-provided
//! `Fn(usize)` that executes one task. [`FleetPool::run_tasks`] opens one
//! `std::thread::scope` per job and spawns the job's helper threads in
//! it; the helpers and the *calling thread itself* claim task indices
//! from one atomic cursor until it runs dry. The scope joins every
//! helper before `run_tasks` returns, so the task closure borrows from
//! the caller's frame and no thread outlives its job.
//!
//! A [`FleetPool`] is therefore not a set of live threads but a
//! helper-thread budget. A job runs on at most `max_claimers` threads
//! (the caller included), never on more threads than it has tasks, and
//! never on more than the budget plus the caller; `max_claimers` is how
//! [`crate::run_sweep_on`]`(.., workers, ..)` keeps its explicit worker
//! count. [`FleetPool::global`] is an uncapped budget, so `workers` alone
//! bounds a sweep.
//!
//! Spawning per job is cheap at the grain the fleet uses. A sweep is one
//! job whose tasks are whole module chains ([`crate::fleet`]), so a
//! campaign opens twelve such jobs at every scale — eleven figure sweeps
//! and the per-die table — however many points and modules they span,
//! plus one job per figure table that sorts its box cells' samples
//! (Figs. 3, 6 and 10), each cell's sort keys built straight from the
//! sweep's per-module sample slots. (The
//! executor before the grid scheduler spawned threads once per sweep
//! *point*; that is what a persistent pool used to save.)
//!
//! Task panics are caught, recorded (first message wins), and reported
//! to the caller as a typed [`PoolError`] after every other task has
//! run, so a panicking task can never hang the caller or abort the
//! calling process — a sweep coordinator degrades the affected module
//! chain instead of losing the whole shard.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Why a fleet job did not complete cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// At least one task panicked. The job still drained — every other
    /// task ran — and this carries the first recorded panic message.
    TaskPanicked {
        /// Message extracted from the first panic payload.
        message: String,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::TaskPanicked { message } => {
                write!(f, "fleet pool task panicked: {message}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// A helper-thread budget for fleet jobs. [`FleetPool::new`] caps every
/// job at a fixed number of helpers; [`FleetPool::global`] — what
/// [`crate::run_sweep`] passes to [`crate::run_sweep_on`] — is uncapped.
#[derive(Debug)]
pub struct FleetPool {
    threads: usize,
}

impl FleetPool {
    /// A budget of `threads` helper threads per job. Zero is a valid
    /// budget: every job then runs inline on the calling thread.
    pub fn new(threads: usize) -> Self {
        FleetPool { threads }
    }

    /// The uncapped budget, shared process-wide: a job's `max_claimers`
    /// alone bounds its threads.
    pub fn global() -> &'static FleetPool {
        static GLOBAL: FleetPool = FleetPool {
            threads: usize::MAX,
        };
        &GLOBAL
    }

    /// Helper threads a job may spawn (the caller claims tasks on top of
    /// these during [`FleetPool::run_tasks`]).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `task(index)` for every `index in 0..total` on at most
    /// `max_claimers` threads, calling thread included: it spawns
    /// `min(max_claimers, total, threads + 1) − 1` scoped helpers, which
    /// claim indices alongside the caller. Blocks until every task has
    /// finished; if any task panicked, the first recorded panic comes
    /// back as [`PoolError::TaskPanicked`] after the remaining tasks have
    /// run. Callers decide whether a poisoned task degrades (fleet chains
    /// fill failure slots) or is fatal.
    #[must_use = "a task panic is reported here, not re-raised"]
    pub fn run_tasks<F>(&self, total: usize, max_claimers: usize, task: F) -> Result<(), PoolError>
    where
        F: Fn(usize) + Sync,
    {
        let claimers = max_claimers.min(total).min(self.threads.saturating_add(1));
        let next = AtomicUsize::new(0);
        let first_panic = Mutex::new(None);
        let claim = || loop {
            // Relaxed: the cursor only hands out indices; task results
            // reach the caller through the scope's join.
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= total {
                return;
            }
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| task(index))) {
                first_panic
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .get_or_insert_with(|| panic_message(payload.as_ref()));
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..claimers {
                scope.spawn(claim);
            }
            claim();
        });
        match first_panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(message) => Err(PoolError::TaskPanicked { message }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = FleetPool::new(3);
        let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        pool.run_tasks(hits.len(), 4, |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        })
        .expect("no task panicked");
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "task {i}");
        }
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        let pool = FleetPool::new(1);
        pool.run_tasks(0, 4, |_| panic!("must not run"))
            .expect("an empty job cannot panic");
    }

    #[test]
    fn single_claimer_runs_inline_and_in_order() {
        let pool = FleetPool::new(2);
        let order = Mutex::new(Vec::new());
        let caller = std::thread::current().id();
        pool.run_tasks(8, 1, |i| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "max_claimers=1 must stay on the calling thread"
            );
            order.lock().unwrap().push(i);
        })
        .expect("no task panicked");
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = FleetPool::new(2);
        for round in 0..20u64 {
            let sum = AtomicU64::new(0);
            pool.run_tasks(10, 3, |i| {
                sum.fetch_add(round * 100 + i as u64, Ordering::SeqCst);
            })
            .expect("no task panicked");
            assert_eq!(sum.load(Ordering::SeqCst), round * 1000 + 45);
        }
    }

    #[test]
    fn task_panic_is_a_typed_error_and_the_pool_stays_usable() {
        let pool = FleetPool::new(2);
        let completed = AtomicU64::new(0);
        let err = pool
            .run_tasks(16, 4, |i| {
                if i == 3 {
                    panic!("task 3 exploded");
                }
                completed.fetch_add(1, Ordering::SeqCst);
            })
            .expect_err("the panic must surface as a PoolError, not unwind");
        let PoolError::TaskPanicked { message } = &err;
        assert!(message.contains("task 3 exploded"), "{err}");
        assert_eq!(
            completed.load(Ordering::SeqCst),
            15,
            "the other tasks still run"
        );
        // No thread outlives its job, so the next job on the same
        // budget completes cleanly.
        let sum = AtomicU64::new(0);
        pool.run_tasks(4, 4, |i| {
            sum.fetch_add(i as u64, Ordering::SeqCst);
        })
        .expect("pool is usable after a task panic");
        assert_eq!(sum.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn zero_thread_pool_still_completes_jobs() {
        let pool = FleetPool::new(0);
        let sum = AtomicU64::new(0);
        pool.run_tasks(32, 8, |i| {
            sum.fetch_add(i as u64, Ordering::SeqCst);
        })
        .expect("no task panicked");
        assert_eq!(sum.load(Ordering::SeqCst), 496);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = FleetPool::global();
        let b = FleetPool::global();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.threads(), usize::MAX, "the global budget is uncapped");
    }

    /// The distinct threads that ran a 32-task job. Each task sleeps
    /// about 1 ms so that every thread the job spawned gets to claim.
    fn threads_used(pool: &FleetPool, max_claimers: usize) -> HashSet<ThreadId> {
        let seen = Mutex::new(HashSet::new());
        pool.run_tasks(32, max_claimers, |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(Duration::from_millis(1));
        })
        .expect("no task panicked");
        seen.into_inner().unwrap()
    }

    #[test]
    fn a_job_never_uses_more_threads_than_its_caps() {
        let caller = std::thread::current().id();
        let capped_by_claimers = threads_used(&FleetPool::new(8), 3);
        assert!(capped_by_claimers.len() <= 3, "{capped_by_claimers:?}");
        assert!(
            capped_by_claimers.contains(&caller),
            "the caller always claims"
        );
        let capped_by_budget = threads_used(&FleetPool::new(1), 8);
        assert!(capped_by_budget.len() <= 2, "{capped_by_budget:?}");
        let inline = threads_used(&FleetPool::new(0), 8);
        assert_eq!(inline, HashSet::from([caller]));
    }

    #[test]
    fn helpers_run_alongside_the_caller() {
        // Two tasks that each wait for the other can only finish if a
        // helper thread runs one of them while the caller runs the other.
        let arrived = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_secs(10);
        FleetPool::new(1)
            .run_tasks(2, 2, |_| {
                arrived.fetch_add(1, Ordering::SeqCst);
                while arrived.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            })
            .expect("no task panicked");
        assert!(Instant::now() < deadline, "no helper thread ran");
    }

    #[test]
    fn concurrent_jobs_from_many_threads_all_finish() {
        let pool = FleetPool::new(3);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let sum = AtomicU64::new(0);
                    pool.run_tasks(25, 2, |i| {
                        sum.fetch_add(i as u64, Ordering::SeqCst);
                    })
                    .expect("no task panicked");
                    assert_eq!(sum.load(Ordering::SeqCst), 300);
                });
            }
        });
    }
}
