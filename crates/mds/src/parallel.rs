//! The workspace's one thread-dispatch mechanism, and the fixed-chunk
//! splitters the mapping kernels feed it.
//!
//! [`run_indexed`] runs jobs on scoped threads (`std::thread::scope`: no
//! unsafe, no persistent pool), catches each job's panic, and returns
//! every result at its job's index, so which worker ran what never shows.
//! Mapping kernels, fleet cells and cluster hosts all run on it.
//!
//! The mapping kernels parallelize over *chunks of output* whose
//! boundaries derive **only from the problem size**, never from the worker
//! count. Each chunk is a disjoint slice of one buffer, computed by the
//! same sequential code on whichever thread claims it, so the result is
//! bit-for-bit identical for any worker count, including the inline
//! single-worker path. The fleet determinism suites rely on this.

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
pub fn run_indexed<J, R, F>(workers: usize, jobs: Vec<J>, f: F) -> Vec<thread::Result<R>>
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

/// One unit of parallel work: a tag (first output index covered) plus the
/// disjoint output slice the chunk owns.
type Piece<'a, T> = (usize, &'a mut [T]);

/// Runs `body` over every piece on [`run_indexed`], re-raising the
/// lowest-indexed piece's panic on the caller as if all ran inline.
pub(crate) fn scatter<T, F>(workers: usize, pieces: Vec<Piece<'_, T>>, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    for result in run_indexed(workers, pieces, |_, (tag, slice)| body(tag, slice)) {
        if let Err(payload) = result {
            panic::resume_unwind(payload);
        }
    }
}

/// Splits a row-major buffer of `row_len`-wide rows into chunks of
/// `chunk_rows` rows (the last chunk may be shorter). Boundaries depend
/// only on the buffer shape.
pub(crate) fn row_pieces(
    out: &mut [f64],
    row_len: usize,
    chunk_rows: usize,
) -> Vec<Piece<'_, f64>> {
    let chunk_elems = (chunk_rows * row_len).max(1);
    out.chunks_mut(chunk_elems)
        .enumerate()
        .map(|(ci, slice)| (ci * chunk_rows, slice))
        .collect()
}

/// Splits the packed strict-upper-triangle buffer of an `n`-point distance
/// matrix (column-grouped: column `j` is the contiguous run of `j`
/// entries) into chunks of whole columns holding roughly `target_entries`
/// entries each. Boundaries depend only on `n` and `target_entries`.
///
/// Each piece is tagged with its first column index `j` (`j >= 1`).
pub(crate) fn tri_column_pieces(
    n: usize,
    upper: &mut [f64],
    target_entries: usize,
) -> Vec<Piece<'_, f64>> {
    debug_assert_eq!(upper.len(), n * n.saturating_sub(1) / 2);
    let target = target_entries.max(1);
    let mut pieces = Vec::new();
    let mut rest = upper;
    let mut col = 1usize;
    while col < n {
        let first_col = col;
        let mut entries = 0usize;
        while col < n && entries < target {
            entries += col; // column j holds j entries
            col += 1;
        }
        let (piece, tail) = rest.split_at_mut(entries);
        pieces.push((first_col, piece));
        rest = tail;
    }
    pieces
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_is_identical_for_any_worker_count() {
        // Sizes cover one partial piece, exactly one piece, and more
        // pieces than workers; worker counts include 0 and more workers
        // than pieces.
        for len in [3, 64, 1000] {
            let reference: Vec<f64> = (0..len).map(|i| (i as f64).sin()).collect();
            for workers in [0, 1, 2, 3, 4, 8, 64] {
                let mut out = vec![0.0; len];
                let pieces = row_pieces(&mut out, 4, 16);
                scatter(workers, pieces, |first_row, slice| {
                    for (k, v) in slice.iter_mut().enumerate() {
                        *v = ((first_row * 4 + k) as f64).sin();
                    }
                });
                assert_eq!(out, reference, "len {len} diverged at {workers} workers");
            }
        }
    }

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
    #[should_panic(expected = "piece 2 fails")]
    fn scatter_re_raises_the_panic_of_a_piece() {
        let mut out = vec![0.0; 64];
        scatter(4, row_pieces(&mut out, 1, 8), |first, _| {
            assert_ne!(first, 16, "piece 2 fails");
        });
    }

    #[test]
    fn row_pieces_cover_the_buffer_in_order() {
        let mut out = vec![0.0; 7 * 3];
        let pieces = row_pieces(&mut out, 3, 2);
        let tags: Vec<usize> = pieces.iter().map(|p| p.0).collect();
        assert_eq!(tags, vec![0, 2, 4, 6]);
        let total: usize = pieces.iter().map(|p| p.1.len()).sum();
        assert_eq!(total, 21);
    }

    #[test]
    fn tri_column_pieces_cover_every_column_once() {
        for n in [2usize, 3, 9, 40] {
            let mut upper = vec![0.0; n * (n - 1) / 2];
            let pieces = tri_column_pieces(n, &mut upper, 25);
            let mut covered = 0usize;
            let mut next_col = 1usize;
            for (first_col, slice) in &pieces {
                assert_eq!(*first_col, next_col, "columns out of order");
                let mut entries = 0;
                while entries < slice.len() {
                    entries += next_col;
                    next_col += 1;
                }
                assert_eq!(entries, slice.len(), "piece splits a column");
                covered += slice.len();
            }
            assert_eq!(covered, n * (n - 1) / 2);
            assert_eq!(next_col, n);
        }
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let mut out: Vec<f64> = Vec::new();
        scatter(4, row_pieces(&mut out, 2, 8), |_, _| panic!("no work"));
        let pieces = tri_column_pieces(1, &mut out, 10);
        assert!(pieces.is_empty());
    }
}
