//! Fraction-free (Bareiss) elimination over [`BigInt`].
//!
//! Rational Gauss–Jordan pays a gcd on essentially every arithmetic
//! operation to keep entries normalized. Bareiss' fraction-free elimination
//! (Bareiss 1968) removes that cost entirely: the input is scaled to an
//! integer matrix, every elimination step performs the two-term update
//!
//! ```text
//! W[i][j] ← (W[k][k]·W[i][j] − W[i][k]·W[k][j]) / prev
//! ```
//!
//! whose division by the previous pivot is *exact* (Sylvester's determinant
//! identity — every intermediate entry is a minor of the scaled input), and
//! all gcd normalization is deferred to one final pass that converts the
//! integer result back to reduced [`Rational`]s.
//!
//! For the Hilbert matrices of the paper's Table 2 experiment this path is
//! several times faster than rational Gauss–Jordan even on one core; the row
//! sweeps additionally fan out over [`crate::parallel`] row blocks.

use crate::bigint::BigInt;
use crate::matrix::{Matrix, MatrixError};
use crate::parallel::{self, MIN_PARALLEL_OPS};
use crate::rational::Rational;

/// Auto-selection bound: a matrix qualifies for the Bareiss path when every
/// row's denominator-lcm stays below this many bits. Hilbert rows need about
/// `2·n·log₂e ≈ 2.9·n` bits, so the paper's full N = 500 run (≈ 1450 bits)
/// clears the bound with a wide margin, while inputs whose denominators
/// would explode the integer scaling fall back to rational Gauss–Jordan.
pub(crate) const AUTO_MAX_SCALE_BITS: usize = 8192;

/// Least common multiple of two non-negative integers.
fn lcm(a: &BigInt, b: &BigInt) -> BigInt {
    let g = a.gcd(b);
    &(a / &g) * b
}

/// Clears denominators row by row: returns the integer matrix `A` with
/// `A[i][j] = m[i][j] · scale_i` (row-major) together with the per-row
/// scales, or `None` if some row's scale exceeds `max_bits`.
///
/// Row scaling keeps the integers far smaller than a global-lcm scaling
/// would, and is trivially undone after inversion: `M = D⁻¹·A` with
/// `D = diag(scale)`, hence `M⁻¹ = A⁻¹·D` — scale *column* `j` of the
/// integer inverse by `scale_j`.
fn integer_scaled_rows(m: &Matrix, max_bits: usize) -> Option<(Vec<BigInt>, Vec<BigInt>)> {
    let (rows, cols) = (m.rows(), m.cols());
    let mut scales = Vec::with_capacity(rows);
    for i in 0..rows {
        let mut scale = BigInt::one();
        for j in 0..cols {
            let den = m[(i, j)].denom();
            if !den.is_one() {
                scale = lcm(&scale, den);
                if scale.bit_len() > max_bits {
                    return None;
                }
            }
        }
        scales.push(scale);
    }
    let mut data = Vec::with_capacity(rows * cols);
    for i in 0..rows {
        for j in 0..cols {
            let e = &m[(i, j)];
            if e.is_zero() {
                data.push(BigInt::zero());
            } else if scales[i].is_one() {
                data.push(e.numer().clone());
            } else {
                data.push(&(&scales[i] / e.denom()) * e.numer());
            }
        }
    }
    Some((data, scales))
}

/// Returns `true` when the Auto strategy should take the Bareiss path for
/// this matrix: square, below the block-split crossover dimension (Bareiss
/// worksheet entries are exact minors and outgrow gcd-reduced rationals past
/// it), and integer-scalable within [`AUTO_MAX_SCALE_BITS`].
pub(crate) fn auto_eligible(m: &Matrix) -> bool {
    m.is_square()
        && m.rows() < crate::matrix::AUTO_BLOCK_MIN_DIM
        && integer_scaled_rows(m, AUTO_MAX_SCALE_BITS).is_some()
}

/// One fraction-free Gauss–Jordan elimination step on the augmented
/// `n × width` integer worksheet: eliminates column `k` from every row but
/// the pivot row, in parallel when the remaining work is large enough.
fn eliminate_column(
    w: &mut [BigInt],
    width: usize,
    n: usize,
    k: usize,
    prev: &BigInt,
    threads: usize,
) {
    let pivot_row: Vec<BigInt> = w[k * width..(k + 1) * width].to_vec();
    let pivot = pivot_row[k].clone();
    let threads = if n.saturating_sub(1) * (width - k) >= MIN_PARALLEL_OPS {
        threads
    } else {
        1
    };
    parallel::chunked_rows(w, width, threads, |first_row, block| {
        for (r, row) in block.chunks_mut(width).enumerate() {
            let i = first_row + r;
            if i == k {
                continue;
            }
            let f = std::mem::take(&mut row[k]);
            // In columns < k both this row and the pivot row are zero —
            // except the diagonal of an earlier pivot row, which the update
            // formula still rescales (W[k][i] is zero there, so the
            // subtrahend drops out).
            if i < k {
                let t = &pivot * &row[i];
                row[i] = if t.is_zero() { t } else { &t / prev };
            }
            for j in k + 1..width {
                let t = &(&pivot * &row[j]) - &(&f * &pivot_row[j]);
                row[j] = if t.is_zero() { t } else { &t / prev };
            }
        }
    });
}

/// Finds a pivot for column `k` among rows `k..n` and swaps it into place.
/// Returns `false` (singular so far) when the column is all zero.
fn pivot_into_place(w: &mut [BigInt], width: usize, n: usize, k: usize, sign: &mut i32) -> bool {
    let Some(r) = (k..n).find(|&r| !w[r * width + k].is_zero()) else {
        return false;
    };
    if r != k {
        for j in 0..width {
            w.swap(r * width + j, k * width + j);
        }
        *sign = -*sign;
    }
    true
}

/// Exact inverse via fraction-free Gauss–Jordan elimination, deferring all
/// gcd normalization to a single final pass.
///
/// # Errors
///
/// [`MatrixError::NotSquare`] for rectangular input, [`MatrixError::Singular`]
/// when no nonzero pivot exists for some column.
pub(crate) fn invert(m: &Matrix, threads: usize) -> Result<Matrix, MatrixError> {
    if !m.is_square() {
        return Err(MatrixError::NotSquare(m.rows(), m.cols()));
    }
    let n = m.rows();
    let width = 2 * n;
    // Forced Bareiss accepts any denominators; only Auto applies the bound.
    let (ints, scales) = integer_scaled_rows(m, usize::MAX).expect("unbounded scaling succeeds");

    // Worksheet [A | I] of integers.
    let mut w = vec![BigInt::zero(); n * width];
    for i in 0..n {
        w[i * width..i * width + n].clone_from_slice(&ints[i * n..(i + 1) * n]);
        w[i * width + n + i] = BigInt::one();
    }
    drop(ints);

    let mut sign = 1;
    let mut prev = BigInt::one();
    for k in 0..n {
        if !pivot_into_place(&mut w, width, n, k, &mut sign) {
            return Err(MatrixError::Singular);
        }
        eliminate_column(&mut w, width, n, k, &prev, threads);
        prev = w[k * width + k].clone();
    }

    // Final normalization pass — the only gcds on the whole path:
    // inv[i][j] = R[i][j] · scale_j / d_i with d_i the row's diagonal.
    let mut data = vec![Rational::zero(); n * n];
    let w = &w;
    let scales = &scales;
    let threads = if n * n >= MIN_PARALLEL_OPS / 8 {
        threads
    } else {
        1
    };
    parallel::chunked_rows(&mut data, n, threads, |first_row, block| {
        for (r, row) in block.chunks_mut(n).enumerate() {
            let i = first_row + r;
            let d = &w[i * width + i];
            debug_assert!(!d.is_zero(), "diagonal vanished after elimination");
            for (j, out) in row.iter_mut().enumerate() {
                let v = &w[i * width + n + j];
                if v.is_zero() {
                    continue;
                }
                let num = if scales[j].is_one() {
                    v.clone()
                } else {
                    v * &scales[j]
                };
                *out = Rational::new(num, d.clone());
            }
        }
    });
    Ok(Matrix::from_vec(n, n, data))
}

/// Exact determinant via forward fraction-free elimination.
///
/// # Errors
///
/// [`MatrixError::NotSquare`] for rectangular input.
pub(crate) fn determinant(m: &Matrix, threads: usize) -> Result<Rational, MatrixError> {
    if !m.is_square() {
        return Err(MatrixError::NotSquare(m.rows(), m.cols()));
    }
    let n = m.rows();
    let (mut w, scales) = integer_scaled_rows(m, usize::MAX).expect("unbounded scaling succeeds");

    let mut sign = 1;
    let mut prev = BigInt::one();
    for k in 0..n {
        if !pivot_into_place(&mut w, n, n, k, &mut sign) {
            return Ok(Rational::zero());
        }
        if k + 1 == n {
            break;
        }
        let pivot_row: Vec<BigInt> = w[k * n..k * n + n].to_vec();
        let pivot = pivot_row[k].clone();
        let rows_below = n - k - 1;
        let threads = if rows_below * (n - k) >= MIN_PARALLEL_OPS {
            threads
        } else {
            1
        };
        let prev_ref = &prev;
        let pr = &pivot_row;
        parallel::chunked_rows(&mut w[(k + 1) * n..], n, threads, move |_, block| {
            for row in block.chunks_mut(n) {
                let f = std::mem::take(&mut row[k]);
                for j in k + 1..n {
                    let t = &(&pivot * &row[j]) - &(&f * &pr[j]);
                    row[j] = if t.is_zero() { t } else { &t / prev_ref };
                }
            }
        });
        prev = w[k * n + k].clone();
    }

    // det(M) = sign · d / Π scale_i, where d is the last pivot of the
    // scaled matrix (a single gcd in Rational::new normalizes the result).
    let mut d = w[(n - 1) * n + (n - 1)].clone();
    if sign < 0 {
        d = -d;
    }
    let mut denom = BigInt::one();
    for s in &scales {
        if !s.is_one() {
            denom = &denom * s;
        }
    }
    Ok(Rational::new(d, denom))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hilbert;

    #[test]
    fn integer_scaling_clears_denominators() {
        let h = hilbert(4);
        let (ints, scales) = integer_scaled_rows(&h, usize::MAX).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                // scale_i / (i + j + 1) must be an exact integer.
                let r = Rational::new(ints[i * 4 + j].clone(), scales[i].clone());
                assert_eq!(r, h[(i, j)]);
            }
        }
        // Row 0 of H₄ has denominators 1..4 ⇒ lcm 12.
        assert_eq!(scales[0], BigInt::from(12));
    }

    #[test]
    fn scale_bound_rejects_huge_denominators() {
        let m = Matrix::from_fn(2, 2, |i, j| {
            Rational::new(
                BigInt::one(),
                BigInt::from(2).pow(100 * (1 + i as u32 + j as u32)),
            )
        });
        assert!(integer_scaled_rows(&m, 64).is_none());
        assert!(integer_scaled_rows(&m, usize::MAX).is_some());
    }

    #[test]
    fn bareiss_inverse_matches_gauss_jordan_on_hilbert() {
        for n in [1usize, 2, 3, 5, 8, 12] {
            let h = hilbert(n);
            let oracle = h.inverse_serial().unwrap();
            for threads in [1usize, 3] {
                assert_eq!(invert(&h, threads).unwrap(), oracle, "n={n} t={threads}");
            }
        }
    }

    #[test]
    fn bareiss_detects_singular_matrices() {
        let m = Matrix::from_text("1 2; 2 4").unwrap();
        assert_eq!(invert(&m, 1).unwrap_err(), MatrixError::Singular);
        assert_eq!(determinant(&m, 1).unwrap(), Rational::zero());
        // Singular only via the Schur-style structure (needs a row swap path).
        let m = Matrix::from_text("0 1 0; 1 0 0; 1 0 0").unwrap();
        assert_eq!(invert(&m, 1).unwrap_err(), MatrixError::Singular);
    }

    #[test]
    fn bareiss_handles_pivot_swaps() {
        let m = Matrix::from_text("0 1; 1 0").unwrap();
        assert_eq!(invert(&m, 1).unwrap(), m);
        assert_eq!(determinant(&m, 1).unwrap(), Rational::from_ratio(-1, 1));
    }

    #[test]
    fn bareiss_determinant_matches_known_values() {
        assert_eq!(
            determinant(&hilbert(3), 1).unwrap(),
            Rational::from_ratio(1, 2160)
        );
        for n in [2usize, 4, 6] {
            let h = hilbert(n);
            assert_eq!(
                determinant(&h, 2).unwrap(),
                h.determinant_serial().unwrap(),
                "n={n}"
            );
        }
    }
}
