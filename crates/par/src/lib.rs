//! Deterministic scoped worker pool for the HybridGNN workspace.
//!
//! Every primitive in this crate obeys one contract: **the thread count is a
//! throughput knob, never a semantics knob**. Work is partitioned into fixed
//! ranges by [`split_range`], each worker writes into a pre-split disjoint
//! output slice, and reductions combine per-worker partials in fixed worker
//! order — so every `f32` result is bit-identical whether the pool runs with
//! 1 thread or 64.
//!
//! The pool is std-only (`std::thread::scope`, no persistent threads). The
//! worker count resolves lazily from the `MHG_THREADS` environment variable,
//! falling back to [`std::thread::available_parallelism`], and can be
//! overridden per scope with [`scoped_threads`] / [`ParConfig::install`] or
//! per call in tests with [`with_threads`].
//!
//! Because results never depend on the worker count, races on the global
//! thread-count cell are benign: a kernel that observes a stale count only
//! runs with different parallelism, not to a different answer.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;

/// Minimum estimated scalar operations a kernel must carry before it fans
/// out to a second worker. Below this, thread spawn/join overhead dominates
/// and the kernel runs inline on the caller's thread. The threshold can
/// never change a result — only where it is computed.
const MIN_WORK_PER_WORKER: usize = 16_384;

/// Resolved worker count; 0 means "not resolved yet".
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Serializes [`with_threads`] overrides so concurrent tests with different
/// explicit thread counts don't interleave their overrides.
static OVERRIDE: Mutex<()> = Mutex::new(());

fn resolve_from_env() -> usize {
    std::env::var("MHG_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Returns the worker count the pool is currently sized to.
///
/// Resolution order: the last [`scoped_threads`] / [`ParConfig::install`]
/// override still in scope, else the `MHG_THREADS` environment variable,
/// else [`std::thread::available_parallelism`] (minimum 1).
pub fn current_threads() -> usize {
    let n = THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    let resolved = resolve_from_env();
    THREADS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Restores the previous pool size when dropped; returned by
/// [`scoped_threads`] and [`ParConfig::install`].
#[must_use = "dropping the guard immediately restores the previous thread count"]
pub struct ThreadsGuard {
    prev: Option<usize>,
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            THREADS.store(prev, Ordering::Relaxed);
        }
    }
}

/// Sizes the pool to `threads` workers until the returned guard drops.
///
/// `threads == 0` means "inherit": the call is a no-op and the current
/// setting (environment or default) stays in effect. This is the hook the
/// training pipeline uses to honor a per-run thread-count config.
pub fn scoped_threads(threads: usize) -> ThreadsGuard {
    if threads == 0 {
        return ThreadsGuard { prev: None };
    }
    let prev = current_threads();
    THREADS.store(threads, Ordering::Relaxed);
    ThreadsGuard { prev: Some(prev) }
}

/// Runs `f` with the pool sized to exactly `threads` workers.
///
/// Overrides are serialized through a global mutex so that concurrent tests
/// asserting serial-vs-parallel parity don't stomp each other's setting.
/// Results are thread-count-invariant by contract, so this only matters for
/// tests that *measure* or *compare* specific thread counts.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _lock = OVERRIDE.lock().unwrap_or_else(PoisonError::into_inner);
    let _guard = scoped_threads(threads.max(1));
    f()
}

/// Worker-pool configuration, mirroring the `MHG_THREADS` environment knob
/// as a plain value so it can live inside model configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    threads: usize,
}

impl ParConfig {
    /// A config with an explicit worker count (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A config resolved from `MHG_THREADS` / available parallelism.
    pub fn from_env() -> Self {
        Self::new(resolve_from_env())
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Installs this config as the pool size until the guard drops.
    pub fn install(&self) -> ThreadsGuard {
        scoped_threads(self.threads)
    }
}

impl Default for ParConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

/// The fixed partition of `total` work units into `parts` ranges: range
/// `idx` of the unique split where every range has `total / parts` units
/// and the first `total % parts` ranges take one extra.
///
/// This partition depends only on `(total, parts)`, never on scheduling,
/// which is the foundation of the determinism contract.
pub fn split_range(total: usize, parts: usize, idx: usize) -> Range<usize> {
    assert!(parts >= 1, "split_range needs at least one part");
    assert!(idx < parts, "partition index {idx} out of {parts} parts");
    let base = total / parts;
    let rem = total % parts;
    let start = idx * base + idx.min(rem);
    let len = base + usize::from(idx < rem);
    start..start + len
}

/// Picks how many workers to fan out to for `units` independent work units
/// of roughly `work_per_unit` scalar operations each.
fn workers(units: usize, work_per_unit: usize) -> usize {
    let threads = current_threads();
    if threads <= 1 || units <= 1 {
        return 1;
    }
    let total = units.saturating_mul(work_per_unit.max(1));
    threads.min(units).min((total / MIN_WORK_PER_WORKER).max(1))
}

/// Joins a scoped worker, propagating any panic to the caller.
fn join<T>(handle: thread::ScopedJoinHandle<'_, T>) -> T {
    match handle.join() {
        Ok(value) => value,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Splits `out` into per-worker chunks of whole units (`unit_len` elements
/// each, e.g. one matrix row) and runs `body(first_unit, chunk)` on each
/// chunk, possibly across worker threads.
///
/// `work_per_unit` is an estimate of the scalar operations needed per unit;
/// small jobs run inline. Partitioning follows [`split_range`] over units,
/// so which elements each invocation of `body` sees — and therefore every
/// result — is independent of the worker count, provided `body` itself only
/// reads shared inputs and writes its own chunk.
pub fn par_chunks_mut<T, F>(out: &mut [T], unit_len: usize, work_per_unit: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(unit_len >= 1, "unit_len must be at least 1");
    assert_eq!(
        out.len() % unit_len,
        0,
        "output length {} is not a multiple of unit length {unit_len}",
        out.len()
    );
    let units = out.len() / unit_len;
    let n_workers = workers(units, work_per_unit);
    if n_workers <= 1 {
        body(0, out);
        return;
    }
    thread::scope(|scope| {
        let body = &body;
        let first_units = split_range(units, n_workers, 0);
        let (head, mut rest) = out.split_at_mut(first_units.len() * unit_len);
        for idx in 1..n_workers {
            let range = split_range(units, n_workers, idx);
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(range.len() * unit_len);
            rest = tail;
            let first = range.start;
            scope.spawn(move || body(first, chunk));
        }
        // Chunk 0 runs on the caller's thread; the scope joins the rest.
        body(0, head);
    });
}

/// Runs `a` and `b`, on two threads when the pool has more than one worker,
/// and returns both results. `a` runs on the caller's thread.
pub fn par_join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    if current_threads() <= 1 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        (ra, join(hb))
    })
}

/// Evaluates `task(i)` for `i in 0..tasks` — contiguous index blocks per
/// worker — and returns the results in index order, exactly as the serial
/// `(0..tasks).map(task).collect()` would.
pub fn par_map_collect<T, F>(tasks: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let n_workers = current_threads().min(tasks.max(1));
    if n_workers <= 1 || tasks <= 1 {
        return (0..tasks).map(task).collect();
    }
    thread::scope(|scope| {
        let task = &task;
        let handles: Vec<_> = (1..n_workers)
            .map(|idx| {
                let range = split_range(tasks, n_workers, idx);
                scope.spawn(move || range.map(task).collect::<Vec<T>>())
            })
            .collect();
        let mut out = Vec::with_capacity(tasks);
        out.extend(split_range(tasks, n_workers, 0).map(task));
        for handle in handles {
            out.append(&mut join(handle));
        }
        out
    })
}

/// Partitions `0..units` into per-worker ranges, runs `part` on each range,
/// and returns the partial results **in partition order** so callers can
/// reduce them with a fixed, thread-count-driven-but-result-invariant order.
///
/// Used for scatter-add style reductions: each worker builds a partial over
/// its fixed range, and the caller merges partials in range order.
pub fn par_partitions<T, F>(units: usize, total_work: usize, part: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let per_unit = total_work / units.max(1);
    let n_workers = workers(units, per_unit);
    if n_workers <= 1 {
        return vec![part(0..units)];
    }
    thread::scope(|scope| {
        let part = &part;
        let handles: Vec<_> = (1..n_workers)
            .map(|idx| {
                let range = split_range(units, n_workers, idx);
                scope.spawn(move || part(range))
            })
            .collect();
        let mut out = Vec::with_capacity(n_workers);
        out.push(part(split_range(units, n_workers, 0)));
        for handle in handles {
            out.push(join(handle));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_range_covers_everything_once() {
        for total in [0usize, 1, 5, 64, 1000] {
            for parts in [1usize, 2, 3, 7, 16] {
                let mut next = 0usize;
                for idx in 0..parts {
                    let r = split_range(total, parts, idx);
                    assert_eq!(r.start, next, "gap at part {idx} of {parts} over {total}");
                    next = r.end;
                }
                assert_eq!(next, total, "partition of {total} into {parts} lost units");
            }
        }
    }

    #[test]
    fn current_threads_is_at_least_one() {
        assert!(current_threads() >= 1);
    }

    #[test]
    fn scoped_threads_overrides_and_restores() {
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            {
                let _inner = scoped_threads(5);
                assert_eq!(current_threads(), 5);
                // 0 = inherit: no change.
                let _nested = scoped_threads(0);
                assert_eq!(current_threads(), 5);
            }
            assert_eq!(current_threads(), 3);
        });
    }

    #[test]
    fn par_chunks_mut_matches_serial_for_every_thread_count() {
        // Big enough to clear the inline-work threshold with unit work 64.
        let units = 1024usize;
        let unit_len = 3usize;
        let expected: Vec<f32> = (0..units)
            .flat_map(|u| (0..unit_len).map(move |j| (u * 10 + j) as f32))
            .collect();
        for threads in [1usize, 2, 3, 7] {
            let mut out = vec![0.0f32; units * unit_len];
            with_threads(threads, || {
                par_chunks_mut(&mut out, unit_len, 64, |first, chunk| {
                    for (local, unit) in chunk.chunks_exact_mut(unit_len).enumerate() {
                        let u = first + local;
                        for (j, v) in unit.iter_mut().enumerate() {
                            *v = (u * 10 + j) as f32;
                        }
                    }
                });
            });
            assert_eq!(out, expected, "divergence at {threads} threads");
        }
    }

    #[test]
    fn par_map_collect_preserves_index_order() {
        for threads in [1usize, 2, 5] {
            let got = with_threads(threads, || par_map_collect(100, |i| i * i));
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "divergence at {threads} threads");
        }
    }

    #[test]
    fn par_partitions_returns_ranges_in_order() {
        for threads in [1usize, 2, 4] {
            let parts = with_threads(threads, || {
                par_partitions(1000, 1000 * 64, |range| range.clone())
            });
            let mut next = 0usize;
            for r in &parts {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, 1000);
        }
    }

    #[test]
    fn par_join_returns_both_results() {
        for threads in [1usize, 2] {
            let (a, b) = with_threads(threads, || par_join(|| 2 + 2, || "ok"));
            assert_eq!(a, 4);
            assert_eq!(b, "ok");
        }
    }

    #[test]
    fn empty_and_degenerate_inputs_are_fine() {
        let mut empty: [f32; 0] = [];
        par_chunks_mut(&mut empty, 4, 100, |_, _| {});
        assert_eq!(par_map_collect(0, |i| i), Vec::<usize>::new());
        let parts = par_partitions(0, 0, |r| r.len());
        assert_eq!(parts, vec![0]);
    }
}
