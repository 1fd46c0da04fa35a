//! Rough timing probe for Hilbert inversion used to calibrate benches:
//! serial rational Gauss–Jordan (the oracle) vs the auto-selected
//! fraction-free Bareiss kernel in parallel, plus the blocked
//! (Schur) inversion.
//!
//! ```text
//! cargo run --release --example hilbert_timing -- [N ...]
//! MC_EXACT_THREADS=4 cargo run --release --example hilbert_timing
//! ```
use mathcloud_exact::{block_inverse, effective_threads, hilbert, InvertStrategy};
use std::io::Write;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sizes: Vec<usize> = if args.len() > 1 {
        args[1..].iter().map(|a| a.parse().unwrap()).collect()
    } else {
        vec![10, 20, 30, 40, 50]
    };
    let threads = effective_threads();
    println!("threads={threads}");
    for n in sizes {
        let h = hilbert(n);
        let t = Instant::now();
        let serial = h.inverse_serial().unwrap();
        let serial_t = t.elapsed();
        let t = Instant::now();
        let auto = h.inverse().unwrap();
        let auto_t = t.elapsed();
        let t = Instant::now();
        let bareiss = h.invert(InvertStrategy::Bareiss, 1).unwrap();
        let bareiss1_t = t.elapsed();
        let t = Instant::now();
        let binv = block_inverse(&h, n / 2).unwrap();
        let blocked = t.elapsed();
        assert_eq!(serial, auto);
        assert_eq!(serial, bareiss);
        assert_eq!(serial, binv);
        println!(
            "n={n}: serial_gj={serial_t:?} auto={auto_t:?} bareiss_1t={bareiss1_t:?} \
             blocked={blocked:?} speedup={:.2} max_bits={}",
            serial_t.as_secs_f64() / auto_t.as_secs_f64(),
            auto.max_entry_bits()
        );
        std::io::stdout().flush().unwrap();
    }
}
