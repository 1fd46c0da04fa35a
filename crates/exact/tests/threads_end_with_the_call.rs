//! Every exact-kernel thread lives inside the call that started it.
//!
//! One `#[test]` in its own binary, because it reads the process's thread
//! list (`/proc/self/task`): no other test may open regions meanwhile. It
//! sees a 4-thread region's `mc-exact-*` threads while they run, finds none
//! left after each call returns (a call whose body panicked included), and
//! checks that 4 threads compute what 1 does, bit for bit.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mathcloud_exact::parallel::{chunked_rows, join};
use mathcloud_exact::{block_inverse, hilbert, InvertStrategy, Matrix, Rational};

/// Names of this process's exact-kernel threads.
fn exact_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|comm| comm.starts_with("mc-exact-"))
        .collect()
}

/// Polls `ready` until it holds, failing after ten seconds.
fn wait_for(what: &str, ready: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Fails unless every exact-kernel thread is gone within ten seconds: a
/// joined thread may take a moment to leave the task list.
fn assert_none_left(after: &str) {
    wait_for(&format!("the threads of {after} to end"), || {
        exact_threads().is_empty()
    });
}

#[test]
fn kernel_threads_live_only_inside_their_call() {
    // While a 4-block region runs, its spawned blocks are named threads;
    // the last block runs on this one, looks, and lets them finish.
    let visible = Mutex::new(Vec::new());
    let looked = AtomicBool::new(false);
    let mut data = vec![0u8; 4];
    chunked_rows(&mut data, 1, 4, |first_row, _| {
        if first_row == 3 {
            wait_for("a named kernel thread", || {
                *visible.lock().unwrap() = exact_threads();
                !visible.lock().unwrap().is_empty()
            });
            looked.store(true, Ordering::SeqCst);
        } else {
            wait_for("the inline block", || looked.load(Ordering::SeqCst));
        }
    });
    let visible = visible.into_inner().unwrap();
    assert!((1..=3).contains(&visible.len()), "{visible:?}");
    assert_none_left("a 4-thread region");

    // A panicking body, on a spawned block and on the inline one.
    for bad_row in [0usize, 3] {
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            chunked_rows(&mut data, 1, 4, |first_row, _| {
                assert_ne!(first_row, bad_row, "boom");
            })
        }));
        assert!(result.is_err(), "row {bad_row}'s panic reaches the caller");
        assert_none_left("a region whose body panicked");
    }
    let result = panic::catch_unwind(|| join(4, || 1, || -> u8 { panic!("boom") }));
    assert!(result.is_err());
    assert_none_left("a join whose side panicked");

    // Every strategy at 4 threads computes the serial oracle's inverse.
    let h = hilbert(12);
    let expected = h.inverse_serial().expect("nonsingular");
    for strategy in [
        InvertStrategy::Auto,
        InvertStrategy::GaussJordan,
        InvertStrategy::Bareiss,
    ] {
        for _ in 0..5 {
            assert_eq!(h.invert(strategy, 4).expect("nonsingular"), expected);
        }
        assert_none_left("an invert");
    }
    // The Schur split runs its quadrant products side by side.
    assert_eq!(block_inverse(&h, 6).expect("nonsingular"), expected);
    assert_none_left("a block inverse");

    // A product big enough to clear the parallel-ops gate.
    let big = Matrix::from_fn(40, 40, |i, j| {
        Rational::from_ratio((i * 41 + j + 1) as i64, (j + 1) as i64)
    });
    let serial = big.mul_threads(&big, 1);
    for _ in 0..5 {
        assert_eq!(big.mul_threads(&big, 4), serial);
    }
    assert_none_left("a product");
}
