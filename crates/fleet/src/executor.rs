//! The workspace's one thread-dispatch mechanism.
//!
//! [`run_indexed`] runs jobs on scoped threads (`std::thread::scope`: no
//! unsafe, no persistent pool), catches each job's panic, and returns
//! every result at its job's index, so which worker ran what never shows.
//! Fleet cells and cluster hosts both run on it, and [`collect_jobs`]
//! turns its results into the fleet's error type.

use crate::FleetError;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};
use std::thread;

/// Runs `f(index, job)` for every job on at most `workers` threads and
/// returns each result at its job's index. A job that panics yields
/// `Err(payload)` there; the other jobs finish normally.
///
/// One worker or one job runs inline on the caller: no threads, no lock.
/// Otherwise the caller plus `workers - 1` scoped threads claim
/// `(index, job)` pairs from one shared iterator.
pub(crate) fn run_indexed<J, R, F>(workers: usize, jobs: Vec<J>, f: F) -> Vec<thread::Result<R>>
where
    J: Send,
    R: Send,
    F: Fn(usize, J) -> R + Sync,
{
    let run = |index, job| panic::catch_unwind(AssertUnwindSafe(|| f(index, job)));
    let workers = workers.min(jobs.len());
    let queue = jobs.into_iter().enumerate();
    if workers <= 1 {
        return queue.map(|(index, job)| run(index, job)).collect();
    }
    // No job runs under either lock, so neither can be poisoned by a job;
    // recovering the guard keeps the "no panic escapes" promise anyway.
    let queue = Mutex::new(queue);
    let done = Mutex::new(Vec::new());
    let claim = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let drain = || {
        while let Some((index, job)) = claim() {
            let result = run(index, job);
            done.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((index, result));
        }
    };
    thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(drain);
        }
        drain();
    });
    let mut done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Resolves the per-job results of [`run_indexed`] in job order, or fails
/// with the lowest-indexed failure; a caught panic becomes
/// [`FleetError::WorkerPanicked`] naming `cell_of(job index)`.
pub(crate) fn collect_jobs<R>(
    results: Vec<thread::Result<Result<R, FleetError>>>,
    cell_of: impl Fn(usize) -> usize,
) -> Result<Vec<R>, FleetError> {
    let panicked = |index| FleetError::WorkerPanicked {
        cell: cell_of(index),
    };
    let resolve = |(index, result): (usize, thread::Result<_>)| {
        result.unwrap_or_else(|_| Err(panicked(index)))
    };
    results.into_iter().enumerate().map(resolve).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_isolates_a_panicking_job() {
        for workers in [1, 2, 4, 8] {
            for bad in [0, 5, 11] {
                let results = run_indexed(workers, (0..12u64).collect(), |index, job| {
                    assert_ne!(index, bad, "job {bad} fails");
                    job * 10 + index as u64
                });
                assert_eq!(results.len(), 12);
                for (index, result) in results.into_iter().enumerate() {
                    match result {
                        Err(_) => assert_eq!(index, bad, "{workers} workers"),
                        Ok(value) => assert_eq!(value, 11 * index as u64, "{workers} workers"),
                    }
                }
            }
        }
    }

    #[test]
    fn collect_jobs_names_the_lowest_panicking_cell() {
        for workers in [1, 2, 4, 8] {
            let results = run_indexed(workers, (0..10usize).collect(), |_, job| {
                assert!(job != 3 && job != 7, "cell {job} fails");
                Ok(job * 2)
            });
            match collect_jobs(results, |index| 100 + index) {
                Err(FleetError::WorkerPanicked { cell }) => assert_eq!(cell, 103),
                other => panic!("{workers} workers: expected a caught panic, got {other:?}"),
            }
            let clean = run_indexed(workers, (0..10usize).collect(), |_, job| Ok(job * 2));
            let outcomes = collect_jobs(clean, |index| index).unwrap();
            assert_eq!(outcomes, (0..10).map(|job| job * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn collect_jobs_reports_the_lowest_indexed_failure_of_either_kind() {
        for workers in [1, 2, 4, 8] {
            let results = run_indexed(workers, (0..8usize).collect(), |_, job| match job {
                2 => Err(FleetError::Registry("cell 2".into())),
                5 => panic!("cell 5 fails"),
                _ => Ok(job),
            });
            match collect_jobs(results, |index| index) {
                Err(FleetError::Registry(reason)) => assert_eq!(reason, "cell 2"),
                other => panic!("{workers} workers: expected cell 2's error, got {other:?}"),
            }
        }
    }
}
