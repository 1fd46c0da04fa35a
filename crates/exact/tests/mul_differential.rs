//! Differential fuzz battery for the tiered multiplication kernels and the
//! parallel exact linear algebra built on them.
//!
//! Every case is generated from a deterministic xorshift stream, so a red
//! run reproduces offline: the failure message prints the seed and case
//! index. A wrong carry in Karatsuba recombination silently corrupts every
//! downstream invert, so Karatsuba and the dispatcher are checked
//! bit-for-bit against the schoolbook oracle across limb counts straddling
//! the dispatch crossover, all sign combinations, zero/one operands, and
//! aliased self-multiplication — then the same battery is run end-to-end:
//! `mul_threads` and Bareiss determinants against their serial oracles.

use mathcloud_exact::{BigInt, Matrix, MulKernel, Rational};
use mathcloud_telemetry::XorShift64;

const SEED: u64 = 0xD1FF_5EED;

/// ≈ decimal digits per 32-bit limb (32·log₁₀2 ≈ 9.633).
const DIGITS_PER_LIMB_MILLI: usize = 9633;

/// A uniformly signed integer of roughly `limbs` limbs, built from a decimal
/// string so construction only exercises the small-operand (schoolbook)
/// multiply path and stays independent of the kernels under test.
fn random_bigint(rng: &mut XorShift64, limbs: usize) -> BigInt {
    if limbs == 0 {
        return BigInt::zero();
    }
    let digits = (limbs * DIGITS_PER_LIMB_MILLI / 1000).max(1);
    let mut s = String::with_capacity(digits + 1);
    if rng.bool() {
        s.push('-');
    }
    s.push((b'1' + rng.index(9) as u8) as char);
    for _ in 1..digits {
        s.push((b'0' + rng.index(10) as u8) as char);
    }
    s.parse().expect("generated decimal parses")
}

/// Limb-count distribution: weighted toward the dispatch boundary
/// (schoolbook→Karatsuba at 32 limbs), with a share of 200–400-limb
/// operands like the ones large-N Bareiss produces and a share of ~512-limb
/// ones, where Karatsuba recurses five levels deep.
fn random_limbs(rng: &mut XorShift64) -> usize {
    match rng.index(20) {
        // Dense coverage straddling the Karatsuba crossover.
        0..=8 => rng.index(49),
        // Mid Karatsuba range.
        9..=12 => 49 + rng.index(63),
        // Large-N Bareiss territory.
        13..=16 => 200 + rng.index(201),
        // Deep Karatsuba recursion.
        _ => 496 + rng.index(33),
    }
}

#[test]
fn tiered_mul_matches_schoolbook_oracle() {
    let mut rng = XorShift64::new(SEED);
    for case in 0..1200 {
        let a_limbs = random_limbs(&mut rng);
        let a = random_bigint(&mut rng, a_limbs);
        let b = match rng.index(12) {
            0 => BigInt::zero(),
            1 => BigInt::one(),
            2 => -BigInt::one(),
            _ => {
                let b_limbs = random_limbs(&mut rng);
                random_bigint(&mut rng, b_limbs)
            }
        };
        let oracle = a.mul_kernel(&b, MulKernel::Schoolbook);
        let ctx = |kernel: &str| {
            format!(
                "seed={SEED:#x} case={case} kernel={kernel} \
                 limbs=({},{}) signs=({},{})",
                a.limb_len(),
                b.limb_len(),
                a.signum(),
                b.signum()
            )
        };
        assert_eq!(&a * &b, oracle, "{}", ctx("dispatch"));
        assert_eq!(&b * &a, oracle, "{}", ctx("dispatch-commuted"));
        assert_eq!(
            a.mul_kernel(&b, MulKernel::Karatsuba),
            oracle,
            "{}",
            ctx("karatsuba")
        );
        // Aliased self-multiplication through both tiers.
        let square = a.mul_kernel(&a, MulKernel::Schoolbook);
        assert_eq!(&a * &a, square, "{}", ctx("dispatch-squared"));
        assert_eq!(
            a.mul_kernel(&a, MulKernel::Karatsuba),
            square,
            "{}",
            ctx("karatsuba-squared")
        );
    }
}

/// A small-denominator rational: always Bareiss-eligible, so the
/// determinant differential below genuinely exercises the fraction-free
/// path against the serial rational oracle.
fn random_rational(rng: &mut XorShift64) -> Rational {
    let n = rng.range_i64(-999_999, 999_999);
    let d = rng.range_i64(1, 99);
    Rational::from_ratio(n, d)
}

#[test]
fn mul_threads_matches_serial_product() {
    let mut rng = XorShift64::new(SEED ^ 0x5ca1ab1e);
    for case in 0..40 {
        let n = 1 + rng.index(24);
        let m = 1 + rng.index(24);
        let k = 1 + rng.index(24);
        let a = Matrix::from_fn(n, m, |_, _| random_rational(&mut rng));
        let b = Matrix::from_fn(m, k, |_, _| random_rational(&mut rng));
        let serial = a.mul_threads(&b, 1);
        for threads in [2, 3, 8] {
            assert_eq!(
                a.mul_threads(&b, threads),
                serial,
                "seed={SEED:#x} case={case} dims=({n},{m},{k}) threads={threads}"
            );
        }
    }
}

#[test]
fn bareiss_determinant_matches_serial_oracle() {
    let mut rng = XorShift64::new(SEED ^ 0xde7e_c7ab1e);
    for case in 0..60 {
        let n = 1 + rng.index(12);
        let m = Matrix::from_fn(n, n, |_, _| random_rational(&mut rng));
        let serial = m.determinant_serial().expect("square");
        // `determinant` routes small-denominator input through Bareiss.
        assert_eq!(
            m.determinant().expect("square"),
            serial,
            "seed={SEED:#x} case={case} n={n}"
        );
    }
}
