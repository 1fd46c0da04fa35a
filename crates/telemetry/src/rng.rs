//! A small deterministic PRNG (xorshift64*), used for trace-id mixing,
//! randomized tests and benchmark data generation across the workspace.
//!
//! Not cryptographic — MathCloud's security substrate has its own SHA-256 —
//! but fast, seedable and good enough for test-case generation and sampling.

use std::sync::atomic::{AtomicU64, Ordering};

/// SplitMix64 finalizer: turns any 64-bit value into a well-mixed one.
/// Used to derive seeds and request ids from low-entropy inputs.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xorshift64* generator. Deterministic for a given seed; a zero seed is
/// remapped so the state never sticks at zero.
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    pub fn new(seed: u64) -> Self {
        let mut state = splitmix64(seed);
        if state == 0 {
            state = 0x2545_f491_4f6c_dd1d;
        }
        XorShift64 { state }
    }

    /// A generator seeded from the wall clock, the process id and a process
    /// counter: a distinct stream per call and per process, for jitter that
    /// must not move in step across clients.
    pub fn fresh() -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15);
        let pid = u64::from(std::process::id());
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        XorShift64::new(splitmix64(
            nanos ^ (pid << 32) ^ n.wrapping_mul(0xa076_1d64_78bd_642f),
        ))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Multiply-shift reduction; bias is negligible for test-sized n.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform usize in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform i64 in `[lo, hi]` (inclusive). Panics if `lo > hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "range_i64: {lo} > {hi}");
        let span = (hi as i128 - lo as i128 + 1) as u128;
        let off = (self.next_u64() as u128 * span) >> 64;
        (lo as i128 + off as i128) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// A random string of `len` chars drawn from `alphabet`.
    pub fn string_from(&mut self, alphabet: &[char], len: usize) -> String {
        (0..len).map(|_| *self.pick(alphabet)).collect()
    }

    /// A random ASCII-alphanumeric string of length in `[0, max_len]`.
    pub fn alnum_string(&mut self, max_len: usize) -> String {
        const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
        let len = self.index(max_len + 1);
        (0..len)
            .map(|_| ALNUM[self.index(ALNUM.len())] as char)
            .collect()
    }

    /// A random Unicode string (length in chars in `[0, max_len]`) mixing
    /// ASCII, escapes-relevant chars and a few multibyte code points —
    /// the workhorse generator for serializer round-trip tests.
    pub fn unicode_string(&mut self, max_len: usize) -> String {
        const POOL: &[char] = &[
            'a', 'b', 'z', 'A', 'Z', '0', '9', ' ', '_', '-', '.', '/', ':', '"', '\\', '\n', '\t',
            '\r', '{', '}', '[', ']', ',', 'é', 'Ω', '中', '🚀', '\u{1}', '\u{7f}',
        ];
        let len = self.index(max_len + 1);
        self.string_from(POOL, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = XorShift64::new(43);
        assert_ne!(XorShift64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = XorShift64::new(7);
        for _ in 0..10_000 {
            let v = r.below(13);
            assert!(v < 13);
            let i = r.range_i64(-5, 5);
            assert!((-5..=5).contains(&i));
            let f = r.unit_f64();
            assert!((0.0..1.0).contains(&f));
        }
        // Both endpoints of an inclusive range are reachable.
        let mut hit_lo = false;
        let mut hit_hi = false;
        for _ in 0..1000 {
            match r.range_i64(0, 3) {
                0 => hit_lo = true,
                3 => hit_hi = true,
                _ => {}
            }
        }
        assert!(hit_lo && hit_hi);
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let mut r = XorShift64::new(99);
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[r.index(8)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn string_generators_respect_length() {
        let mut r = XorShift64::new(3);
        for _ in 0..200 {
            assert!(r.alnum_string(10).len() <= 10);
            assert!(r.unicode_string(10).chars().count() <= 10);
        }
    }
}
