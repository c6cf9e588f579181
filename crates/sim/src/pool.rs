//! A dependency-free scoped thread pool for fanning independent jobs (table
//! rows, portfolio entrants) across cores.
//!
//! The build environment has no network access, so rayon is out of reach;
//! this module hand-rolls the subset the workspace needs on
//! [`std::thread::scope`]. Work is distributed by *chunk stealing*: every
//! job index lives in one shared queue (an atomic cursor over `0..n`) and
//! idle workers steal the next unclaimed index, so an uneven job list — one
//! circuit much larger than the rest, one chunk hitting a slow path —
//! never serializes behind a fixed pre-partition.
//!
//! Determinism: [`Pool::map`] returns results **in index order** no matter
//! which worker computed them or in what order they finished. As long as
//! each job is a pure function of its index, the result of a map is
//! bit-identical for every thread count, including 1.
//!
//! # Example
//!
//! ```
//! use cutelock_sim::pool::Pool;
//!
//! let pool = Pool::new(4);
//! let squares = pool.map(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! // Same inputs, different worker count: identical output.
//! assert_eq!(squares, Pool::new(1).map(8, |i| i * i));
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// A fixed-width scoped thread pool.
///
/// The pool owns no threads between calls: each [`Pool::map`] spawns its
/// workers inside a [`std::thread::scope`], which lets jobs borrow from the
/// caller's stack (netlists, solvers) without `Arc` or `'static` bounds,
/// and joins them before returning. For the coarse jobs this workspace
/// dispatches (whole circuits, portfolio entrants) the spawn cost is noise.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool running jobs on up to `threads` workers (minimum 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A pool sized to the machine ([`std::thread::available_parallelism`],
    /// falling back to 1 when that is unknown).
    pub fn auto() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `job(0..n)` across the pool and collects the results **in index
    /// order**.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by a job.
    pub fn map<T, F>(&self, n: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads == 1 || n <= 1 {
            return (0..n).map(job).collect();
        }
        let cursor = AtomicUsize::new(0);
        let workers = self.threads.min(n);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let job = &job;
                    scope.spawn(move || {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                return local;
                            }
                            local.push((i, job(i)));
                        }
                    })
                })
                .collect();
            for handle in handles {
                // Scoped join returns the worker's panic payload on Err;
                // re-raise it on the caller.
                match handle.join() {
                    Ok(local) => {
                        for (i, value) in local {
                            slots[i] = Some(value);
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every index claimed exactly once"))
            .collect()
    }
}

impl Default for Pool {
    /// [`Pool::auto`].
    fn default() -> Self {
        Self::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_index_order() {
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let out = pool.map(37, |i| i * 3);
            assert_eq!(
                out,
                (0..37).map(|i| i * 3).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // The determinism contract of every map over the pool.
        let job = |i: usize| (i as u64).wrapping_mul(0x9e37) ^ i as u64;
        let reference = Pool::new(1).map(100, job);
        for threads in [2, 4, 7] {
            assert_eq!(Pool::new(threads).map(100, job), reference);
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let pool = Pool::new(4);
        let hits = AtomicUsize::new(0);
        pool.map(1000, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn empty_and_single_jobs() {
        let pool = Pool::new(8);
        assert_eq!(pool.map(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map(1, |i| i + 1), vec![1]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = Pool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "job 2 failed")]
    fn worker_panics_propagate() {
        Pool::new(2).map(8, |i| {
            if i == 2 {
                panic!("job 2 failed");
            }
        });
    }

    #[test]
    fn auto_pool_has_at_least_one_thread() {
        assert!(Pool::auto().threads() >= 1);
        assert!(Pool::default().threads() >= 1);
    }
}
