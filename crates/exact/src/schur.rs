//! Block (Schur-complement) matrix inversion.
//!
//! The paper's distributed matrix-inversion application decomposes the input
//! into a 2×2 block structure and inverts via the Schur complement, executing
//! the block operations as separate MathCloud services. This module provides
//! the exact math; the orchestration lives in the workflow layer.
//!
//! For `M = [[A, B], [C, D]]` with `A` and `S = D - C·A⁻¹·B` nonsingular:
//!
//! ```text
//! M⁻¹ = [[A⁻¹ + A⁻¹B·S⁻¹·CA⁻¹,  -A⁻¹B·S⁻¹],
//!        [       -S⁻¹·CA⁻¹,           S⁻¹]]
//! ```
//!
//! The four products `A⁻¹B`, `CA⁻¹`, and the two corrections are independent
//! once their inputs exist, which is what the 4-service MathCloud workflow
//! exploits (Table 2 of the paper). In-process, the independent quadrant
//! products run side by side via [`parallel::join`], each opening its own
//! row-parallel region.

use std::error::Error;
use std::fmt;

use crate::matrix::{Matrix, MatrixError};
use crate::parallel;

/// The 2×2 block decomposition of a square matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockParts {
    /// Top-left `k×k` block.
    pub a: Matrix,
    /// Top-right `k×(n-k)` block.
    pub b: Matrix,
    /// Bottom-left `(n-k)×k` block.
    pub c: Matrix,
    /// Bottom-right `(n-k)×(n-k)` block.
    pub d: Matrix,
}

impl BlockParts {
    /// Splits a square matrix at row/column `k`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `k` is not in `1..n`.
    pub fn split(m: &Matrix, k: usize) -> Self {
        assert!(m.is_square(), "block split requires a square matrix");
        let n = m.rows();
        assert!(k >= 1 && k < n, "split point must be in 1..n");
        BlockParts {
            a: m.submatrix(0, k, 0, k),
            b: m.submatrix(0, k, k, n),
            c: m.submatrix(k, n, 0, k),
            d: m.submatrix(k, n, k, n),
        }
    }
}

/// Errors from block inversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchurError {
    /// The top-left block `A` is singular, so this split is unusable.
    LeadingBlockSingular,
    /// The Schur complement `D - C·A⁻¹·B` is singular (the full matrix is
    /// singular).
    ComplementSingular,
    /// Underlying matrix error (shape problems).
    Matrix(MatrixError),
}

impl fmt::Display for SchurError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchurError::LeadingBlockSingular => write!(f, "leading block is singular"),
            SchurError::ComplementSingular => write!(f, "schur complement is singular"),
            SchurError::Matrix(e) => write!(f, "{e}"),
        }
    }
}

impl Error for SchurError {}

impl From<MatrixError> for SchurError {
    fn from(e: MatrixError) -> Self {
        SchurError::Matrix(e)
    }
}

/// Inverts a square matrix through one level of 2×2 block decomposition.
///
/// `split` selects the leading block size; `n / 2` balances the two
/// inversions, which is what the paper's 4-block experiment uses.
///
/// # Errors
///
/// * [`SchurError::LeadingBlockSingular`] — the `A` block has no inverse.
/// * [`SchurError::ComplementSingular`] — the whole matrix is singular.
///
/// # Examples
///
/// ```
/// use mathcloud_exact::{block_inverse, hilbert, Matrix};
///
/// let h = hilbert(10);
/// let inv = block_inverse(&h, 5).unwrap();
/// assert_eq!(&h * &inv, Matrix::identity(10));
/// ```
pub fn block_inverse(m: &Matrix, split: usize) -> Result<Matrix, SchurError> {
    block_inverse_impl(m, split, parallel::effective_threads(), None)
}

/// Block inversion with the sub-block inversions routed through the Auto
/// strategy (recursing into further block splits above `block_min`). This is
/// the large-`n` arm of [`Matrix::invert`]'s Auto policy.
pub(crate) fn block_inverse_auto(
    m: &Matrix,
    split: usize,
    threads: usize,
    block_min: usize,
) -> Result<Matrix, SchurError> {
    block_inverse_impl(m, split, threads, Some(block_min))
}

fn block_inverse_impl(
    m: &Matrix,
    split: usize,
    threads: usize,
    auto_block_min: Option<usize>,
) -> Result<Matrix, SchurError> {
    let invert = |b: &Matrix| match auto_block_min {
        Some(block_min) => b.invert_auto(threads, block_min),
        None => b.inverse(),
    };
    let parts = BlockParts::split(m, split);
    let a_inv = invert(&parts.a).map_err(|e| match e {
        MatrixError::Singular => SchurError::LeadingBlockSingular,
        other => SchurError::Matrix(other),
    })?;

    // The quadrant products pair up into independent tasks exactly like the
    // 4-service MathCloud workflow: each pair runs side by side.
    let (a_inv_b, c_a_inv) = parallel::join(
        threads,
        || &a_inv * &parts.b, // A⁻¹·B
        || &parts.c * &a_inv, // C·A⁻¹
    );

    let s = &parts.d - &(&parts.c * &a_inv_b);
    let s_inv = invert(&s).map_err(|e| match e {
        MatrixError::Singular => SchurError::ComplementSingular,
        other => SchurError::Matrix(other),
    })?;

    // Again independent given S⁻¹.
    let (aibsi, sicai) = parallel::join(
        threads,
        || &a_inv_b * &s_inv, // (A⁻¹B)·S⁻¹
        || &s_inv * &c_a_inv, // S⁻¹·(CA⁻¹)
    );
    let top_right = -1 * &aibsi;
    let bottom_left = -1 * &sicai;
    let top_left = &a_inv + &(&aibsi * &c_a_inv);

    Matrix::from_blocks(&top_left, &top_right, &bottom_left, &s_inv).map_err(SchurError::from)
}

/// Scalar-by-matrix helper so the formulae above read like the math.
impl std::ops::Mul<&Matrix> for i64 {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        let s = crate::Rational::from(self);
        rhs * &s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hilbert, Rational};

    #[test]
    fn block_inverse_matches_direct_inverse() {
        for n in [2usize, 3, 5, 8, 12] {
            let h = hilbert(n);
            for k in [1, n / 2, n - 1] {
                if k == 0 || k >= n {
                    continue;
                }
                let direct = h.inverse().unwrap();
                let blocked = block_inverse(&h, k).unwrap();
                assert_eq!(direct, blocked, "n={n}, k={k}");
            }
        }
    }

    #[test]
    fn singular_matrix_reported_via_complement() {
        // Rank-deficient matrix with invertible leading block.
        let m = Matrix::from_text("1 0 1; 0 1 0; 1 0 1").unwrap();
        assert_eq!(
            block_inverse(&m, 2).unwrap_err(),
            SchurError::ComplementSingular
        );
    }

    #[test]
    fn singular_leading_block_detected() {
        let m = Matrix::from_text("0 0 1; 0 1 0; 1 0 0").unwrap();
        assert_eq!(
            block_inverse(&m, 2).unwrap_err(),
            SchurError::LeadingBlockSingular
        );
    }

    #[test]
    fn split_points_validate() {
        let m = hilbert(4);
        let parts = BlockParts::split(&m, 1);
        assert_eq!(parts.a.rows(), 1);
        assert_eq!(parts.d.rows(), 3);
    }

    #[test]
    #[should_panic(expected = "split point")]
    fn split_at_zero_panics() {
        let _ = BlockParts::split(&hilbert(4), 0);
    }

    #[test]
    fn non_symmetric_matrices_work() {
        let m = Matrix::from_fn(6, 6, |i, j| {
            Rational::from_ratio((3 * i + 7 * j + 1) as i64, (i + 2 * j + 2) as i64)
        });
        if let Ok(direct) = m.inverse() {
            assert_eq!(block_inverse(&m, 3).unwrap(), direct);
        }
    }
}
