//! Exact (error-free) arithmetic and linear algebra for MathCloud.
//!
//! The paper's first application (§4) inverts extremely ill-conditioned
//! Hilbert matrices *without rounding error* using a computer algebra system
//! (Maxima) published as a computational web service. This crate is the
//! from-scratch Rust replacement for that substrate:
//!
//! * [`BigInt`] — sign-magnitude arbitrary-precision integers with tiered
//!   schoolbook / Karatsuba multiplication ([`MulKernel`]) and
//!   Knuth Algorithm D division,
//! * [`Rational`] — always-normalized arbitrary-precision rationals,
//! * [`Matrix`] — dense matrices over [`Rational`] with exact Gauss–Jordan
//!   inversion, LU determinant, and the block (Schur-complement) inversion
//!   used by the distributed MathCloud workflow,
//! * [`bareiss`] — fraction-free (Bareiss) elimination over scaled integers
//!   that defers all gcd normalization to one final pass; selected
//!   automatically by [`Matrix::inverse`] for integer-scalable inputs,
//! * [`parallel`] — dependency-free scoped-thread regions
//!   (`MC_EXACT_THREADS` or [`set_threads`]) that row-block the multiply,
//!   the Gauss–Jordan sweep, the Bareiss sweep, and the Schur quadrant
//!   products; no kernel thread outlives its call,
//! * [`hilbert`] — Hilbert matrix generators for the Table 2 experiment.
//!
//! # Examples
//!
//! ```
//! use mathcloud_exact::{hilbert, Matrix, Rational};
//!
//! let h = hilbert(8);
//! let inv = h.inverse().expect("Hilbert matrices are nonsingular");
//! assert_eq!(&h * &inv, Matrix::identity(8));
//! ```

#![forbid(unsafe_code)]

pub mod bareiss;
pub mod bigint;
pub mod matrix;
pub mod parallel;
pub mod rational;
pub mod schur;

pub use bigint::{BigInt, MulKernel};
pub use matrix::{InvertStrategy, Matrix, MatrixError};
pub use parallel::{effective_threads, set_threads};
pub use rational::Rational;
pub use schur::{block_inverse, BlockParts, SchurError};

/// Builds the `n`×`n` Hilbert matrix `H[i][j] = 1 / (i + j + 1)`.
///
/// Hilbert matrices are the canonical ill-conditioned test case used by the
/// paper's matrix inversion application: floating point inversion fails badly
/// already for moderate `n`, so exact rational arithmetic is required.
///
/// # Panics
///
/// Panics if `n` is zero.
///
/// # Examples
///
/// ```
/// use mathcloud_exact::{hilbert, Rational};
///
/// let h = hilbert(3);
/// assert_eq!(h[(1, 2)], Rational::from_ratio(1, 4));
/// ```
pub fn hilbert(n: usize) -> Matrix {
    assert!(n > 0, "hilbert matrix dimension must be positive");
    Matrix::from_fn(n, n, |i, j| Rational::from_ratio(1, (i + j + 1) as i64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hilbert_entries() {
        let h = hilbert(2);
        assert_eq!(h[(0, 0)], Rational::from_ratio(1, 1));
        assert_eq!(h[(0, 1)], Rational::from_ratio(1, 2));
        assert_eq!(h[(1, 0)], Rational::from_ratio(1, 2));
        assert_eq!(h[(1, 1)], Rational::from_ratio(1, 3));
    }

    #[test]
    fn hilbert_inverse_is_integral() {
        // The inverse of a Hilbert matrix has integer entries.
        let h = hilbert(5);
        let inv = h.inverse().unwrap();
        for i in 0..5 {
            for j in 0..5 {
                assert!(
                    inv[(i, j)].is_integer(),
                    "entry ({i},{j}) = {}",
                    inv[(i, j)]
                );
            }
        }
        assert_eq!(inv[(0, 0)], Rational::from_ratio(25, 1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn hilbert_zero_panics() {
        let _ = hilbert(0);
    }
}
