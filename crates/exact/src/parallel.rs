//! Row-parallel regions for the exact linear-algebra kernels: one
//! [`std::thread::scope`] per kernel call.
//!
//! The exact kernels are embarrassingly row-parallel: a Gauss–Jordan
//! elimination sweep updates every non-pivot row independently, a matrix
//! product computes every output row independently, and the Schur workflow's
//! quadrant products are independent given their inputs. [`chunked_rows`]
//! and [`join`] open a scope, spawn one named thread (`mc-exact-N`) per
//! block but the last, run the last block on the caller and join before
//! returning, so no kernel thread outlives its call.
//!
//! Spawns are cheap next to exact arithmetic. An Auto inversion of an N×N
//! Hilbert matrix at 4 threads opens 0 regions at N = 16, 1 at N = 32, 10 at
//! N = 48 and 64, and 28 at N = 100 and 150, which spawn 72 threads; on a
//! 2-vCPU x86-64 box a 4-block region costs about 92 µs, so that is under
//! 3 ms against 3 s and 16 s of arithmetic. Per-column regions run only on
//! the forced `gauss-jordan` and `bareiss` strategies (63 regions for
//! Gauss–Jordan at N = 64), and there too a scope per region measured level
//! with the persistent pool it replaced, over ten alternating pairs on that
//! box (medians: Gauss–Jordan at N = 64 1.27 s pooled, 1.34 s scoped;
//! Bareiss at N = 48 0.47 s and 0.46 s).
//!
//! * **Thread bound.** A region spawns `min(threads, rows) − 1` threads. The
//!   only nesting is [`join`]'s two sides, each opening a product region, so
//!   one call has at most `2·threads − 1` live kernel threads.
//! * **Panic propagation.** Every handle is joined explicitly and the first
//!   panic payload is re-raised on the caller with its original message.
//!   A failed spawn panics too; the scope joins what it started first.
//! * **Serial fallback.** A resolved thread count of 1 (or a region smaller
//!   than two rows) runs the body inline on the calling thread, no spawn.
//!
//! # Thread-count resolution
//!
//! [`effective_threads`] resolves, in order:
//!
//! 1. the programmatic override set via [`set_threads`] (wins while nonzero),
//! 2. the `MC_EXACT_THREADS` environment variable (positive integer),
//! 3. [`std::thread::available_parallelism`].

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::{Scope, ScopedJoinHandle};

/// Programmatic thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Minimum number of scalar entry operations a parallel region must contain
/// before fanning out to threads is worth the spawn. Exact-rational entry
/// operations are microsecond-scale, so this is a low bar; tiny matrices
/// stay serial.
pub(crate) const MIN_PARALLEL_OPS: usize = 4096;

/// Sets (or with `0`, clears) the process-wide thread-count override.
///
/// Takes precedence over `MC_EXACT_THREADS`. Benchmarks use this to sweep
/// thread counts without re-execing; the next region reads it.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The number of threads the exact kernels will use: the [`set_threads`]
/// override, else `MC_EXACT_THREADS`, else the machine's available
/// parallelism (at least 1).
pub fn effective_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    if let Ok(v) = std::env::var("MC_EXACT_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` on a scoped thread named `mc-exact-{n}`.
fn spawn<'scope, T: Send + 'scope>(
    scope: &'scope Scope<'scope, '_>,
    n: usize,
    f: impl FnOnce() -> T + Send + 'scope,
) -> ScopedJoinHandle<'scope, T> {
    std::thread::Builder::new()
        .name(format!("mc-exact-{n}"))
        .spawn_scoped(scope, f)
        .expect("spawn exact-kernel thread")
}

/// Joins `handle`, re-raising its panic with the original payload (a bare
/// scope would report "a scoped thread panicked" instead).
fn joined<T>(handle: ScopedJoinHandle<'_, T>) -> T {
    handle.join().unwrap_or_else(|p| panic::resume_unwind(p))
}

/// Splits `data` (row-major, `cols` entries per row) into up to `threads`
/// contiguous row blocks and runs `body(first_row_index, block)` for each
/// block — the last block inline on the calling thread, the rest on scoped
/// threads joined before this returns.
///
/// With `threads <= 1`, fewer than two rows, or an empty slice the body runs
/// once on the calling thread — identical semantics, no spawn.
///
/// # Panics
///
/// Panics if `cols` is zero or `data.len()` is not a multiple of `cols`,
/// and re-raises the first panic of `body`.
pub fn chunked_rows<T, F>(data: &mut [T], cols: usize, threads: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(cols > 0, "chunked_rows requires at least one column");
    assert_eq!(
        data.len() % cols,
        0,
        "data length must be a multiple of the row width"
    );
    let rows = data.len() / cols;
    let workers = threads.min(rows).max(1);
    if workers <= 1 {
        body(0, data);
        return;
    }
    // Nearly equal contiguous blocks: the first `extra` blocks get one more row.
    let base = rows / workers;
    let extra = rows % workers;
    let body = &body;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers - 1);
        let mut rest = data;
        let mut row = 0usize;
        for w in 0..workers {
            let block_rows = base + usize::from(w < extra);
            let (block, tail) = rest.split_at_mut(block_rows * cols);
            rest = tail;
            let first_row = row;
            row += block_rows;
            if w + 1 < workers {
                handles.push(spawn(scope, w, move || body(first_row, block)));
            } else {
                body(first_row, block);
            }
        }
        handles.into_iter().for_each(joined);
    });
}

/// Runs two independent computations, `b` on a scoped thread and `a` inline
/// when `threads > 1`, and returns both results. The serial fallback
/// preserves evaluation order (`a` first).
pub fn join<RA, RB, A, B>(threads: usize, a: A, b: B) -> (RA, RB)
where
    RA: Send,
    RB: Send,
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
{
    if threads <= 1 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    std::thread::scope(|scope| {
        let rb = spawn(scope, 0, b);
        let ra = a();
        (ra, joined(rb))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn chunked_rows_covers_every_row_once() {
        for rows in [1usize, 2, 3, 7, 16] {
            for threads in [1usize, 2, 3, 4, 9] {
                let cols = 3;
                let mut data = vec![0u32; rows * cols];
                chunked_rows(&mut data, cols, threads, |first_row, block| {
                    for (r, row) in block.chunks_mut(cols).enumerate() {
                        for v in row {
                            *v += (first_row + r) as u32 + 1;
                        }
                    }
                });
                for (i, v) in data.iter().enumerate() {
                    assert_eq!(*v, (i / cols) as u32 + 1, "rows={rows} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn chunked_rows_serial_when_single_thread() {
        let mut data = vec![1u8; 12];
        let main = std::thread::current().id();
        chunked_rows(&mut data, 4, 1, |_, block| {
            assert_eq!(std::thread::current().id(), main);
            for v in block {
                *v = 2;
            }
        });
        assert!(data.iter().all(|&v| v == 2));
    }

    #[test]
    #[should_panic(expected = "multiple of the row width")]
    fn chunked_rows_rejects_ragged_data() {
        let mut data = vec![0u8; 5];
        chunked_rows(&mut data, 3, 2, |_, _| {});
    }

    #[test]
    fn join_returns_both_results() {
        for threads in [1usize, 4] {
            let (a, b) = join(threads, || 6 * 7, || "ok".to_string());
            assert_eq!(a, 42);
            assert_eq!(b, "ok");
        }
    }

    #[test]
    fn override_beats_env_and_is_clearable() {
        // Serialized via the env var being process-global: this test only
        // touches the override to stay independent of the environment.
        set_threads(3);
        assert_eq!(effective_threads(), 3);
        set_threads(0);
        assert!(effective_threads() >= 1);
    }

    /// The panic message `f` unwinds with.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload =
            panic::catch_unwind(AssertUnwindSafe(f)).expect_err("panic must cross the region");
        payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or_default()
            .to_string()
    }

    #[test]
    fn region_panics_propagate_to_caller() {
        // Row 0 is a spawned block, row 2 the inline one: either way the
        // caller sees the body's own message.
        for bad_row in [0usize, 2] {
            let mut data = vec![0u8; 3];
            let msg = panic_message(|| {
                chunked_rows(&mut data, 1, 3, |first_row, _| {
                    if first_row == bad_row {
                        panic!("worker boom");
                    }
                })
            });
            assert_eq!(msg, "worker boom", "bad row {bad_row}");
        }
        let msg = panic_message(|| {
            join(2, || 1, || -> u8 { panic!("worker boom") });
        });
        assert_eq!(msg, "worker boom");
        // The next region runs as if nothing happened.
        let mut data = vec![0u8; 3];
        chunked_rows(&mut data, 1, 3, |_, block| block[0] = 1);
        assert_eq!(data, [1, 1, 1]);
    }

    #[test]
    fn nested_regions_complete_on_a_tiny_pool() {
        // Each side of a join opening its own region (the Schur split's
        // quadrant products) completes on two threads.
        let total = AtomicUsize::new(0);
        let side = || {
            let mut data = vec![0u8; 3];
            chunked_rows(&mut data, 1, 2, |_, block| {
                total.fetch_add(block.len(), Ordering::SeqCst);
            });
        };
        join(2, side, side);
        assert_eq!(total.load(Ordering::SeqCst), 6);
    }
}
