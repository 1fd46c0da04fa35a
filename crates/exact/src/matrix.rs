//! Dense matrices over exact rationals.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::bareiss;
use crate::parallel::{self, MIN_PARALLEL_OPS};
use crate::rational::Rational;

/// Dimension at which the Auto strategy stops eliminating directly and
/// splits 2×2 via the Schur complement instead (recursively). Below this,
/// fraction-free Bareiss beats rational Gauss–Jordan on integer-scalable
/// inputs; above it, Bareiss worksheet entries (exact minors) outgrow the
/// gcd-reduced rationals — the measured crossover on Hilbert matrices sits
/// near n ≈ 40–48, and block splitting keeps every base inversion under it.
pub(crate) const AUTO_BLOCK_MIN_DIM: usize = 40;

/// Which elimination kernel [`Matrix::invert`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InvertStrategy {
    /// Pick automatically: matrices of dimension ≥ 40 invert through a
    /// recursive 2×2 Schur-complement split (quadrant products in parallel);
    /// at the base, fraction-free Bareiss runs when the input is
    /// integer-scalable (every row's denominator-lcm below the auto bound —
    /// Hilbert matrices qualify at every paper size), rational Gauss–Jordan
    /// otherwise.
    #[default]
    Auto,
    /// Rational Gauss–Jordan with partial pivoting — the reference oracle.
    GaussJordan,
    /// Fraction-free Bareiss elimination over scaled integers with a single
    /// final gcd-normalization pass.
    Bareiss,
}

impl InvertStrategy {
    /// The wire name of this strategy: the value the `mat-invert` service
    /// accepts in its optional `strategy` input and reports in telemetry.
    pub fn name(self) -> &'static str {
        match self {
            InvertStrategy::Auto => "auto",
            InvertStrategy::GaussJordan => "gauss-jordan",
            InvertStrategy::Bareiss => "bareiss",
        }
    }
}

impl std::str::FromStr for InvertStrategy {
    type Err = String;

    /// Parses the wire names produced by [`InvertStrategy::name`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(InvertStrategy::Auto),
            "gauss-jordan" => Ok(InvertStrategy::GaussJordan),
            "bareiss" => Ok(InvertStrategy::Bareiss),
            other => Err(format!(
                "unknown invert strategy {other:?}; expected auto, gauss-jordan, or bareiss"
            )),
        }
    }
}

/// A dense `rows × cols` matrix of [`Rational`] entries.
///
/// # Examples
///
/// ```
/// use mathcloud_exact::{Matrix, Rational};
///
/// let a = Matrix::from_fn(2, 2, |i, j| Rational::from_ratio((i + j) as i64 + 1, 1));
/// let inv = a.inverse().unwrap();
/// assert_eq!(&a * &inv, Matrix::identity(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Rational>,
}

/// Errors from exact linear algebra operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// The matrix is singular and cannot be inverted.
    Singular,
    /// Operand shapes are incompatible.
    ShapeMismatch {
        /// Shape of the left operand.
        left: (usize, usize),
        /// Shape of the right operand.
        right: (usize, usize),
    },
    /// The operation requires a square matrix.
    NotSquare(usize, usize),
    /// Text parsing failed.
    Parse(String),
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::Singular => write!(f, "matrix is singular"),
            MatrixError::ShapeMismatch { left, right } => {
                write!(
                    f,
                    "shape mismatch: {}x{} vs {}x{}",
                    left.0, left.1, right.0, right.1
                )
            }
            MatrixError::NotSquare(r, c) => write!(f, "matrix is not square: {r}x{c}"),
            MatrixError::Parse(msg) => write!(f, "invalid matrix text: {msg}"),
        }
    }
}

impl Error for MatrixError {}

impl Matrix {
    /// Builds a matrix from a generator function.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn from_fn<F>(rows: usize, cols: usize, mut f: F) -> Self
    where
        F: FnMut(usize, usize) -> Rational,
    {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Rational>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// The all-zero matrix.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Matrix::from_fn(rows, cols, |_, _| Rational::zero())
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                Rational::one()
            } else {
                Rational::zero()
            }
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].clone())
    }

    /// Extracts the sub-matrix with rows `r0..r1` and columns `c0..c1`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(
            r0 < r1 && r1 <= self.rows && c0 < c1 && c1 <= self.cols,
            "invalid block range"
        );
        Matrix::from_fn(r1 - r0, c1 - c0, |i, j| self[(r0 + i, c0 + j)].clone())
    }

    /// Assembles a matrix from four blocks `[[a, b], [c, d]]`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ShapeMismatch`] when block shapes disagree.
    pub fn from_blocks(
        a: &Matrix,
        b: &Matrix,
        c: &Matrix,
        d: &Matrix,
    ) -> Result<Matrix, MatrixError> {
        if a.rows != b.rows || c.rows != d.rows || a.cols != c.cols || b.cols != d.cols {
            return Err(MatrixError::ShapeMismatch {
                left: (a.rows, a.cols),
                right: (d.rows, d.cols),
            });
        }
        let rows = a.rows + c.rows;
        let cols = a.cols + b.cols;
        Ok(Matrix::from_fn(rows, cols, |i, j| {
            match (i < a.rows, j < a.cols) {
                (true, true) => a[(i, j)].clone(),
                (true, false) => b[(i, j - a.cols)].clone(),
                (false, true) => c[(i - a.rows, j)].clone(),
                (false, false) => d[(i - a.rows, j - a.cols)].clone(),
            }
        }))
    }

    /// Exact inverse: [`Matrix::invert`] with the [`InvertStrategy::Auto`]
    /// kernel selection and the configured thread count
    /// ([`crate::parallel::effective_threads`]).
    ///
    /// # Errors
    ///
    /// [`MatrixError::NotSquare`] for rectangular input and
    /// [`MatrixError::Singular`] when no nonzero pivot exists.
    pub fn inverse(&self) -> Result<Matrix, MatrixError> {
        self.invert(InvertStrategy::Auto, parallel::effective_threads())
    }

    /// The reference oracle: single-threaded rational Gauss–Jordan. Every
    /// other kernel (parallel sweep, Bareiss) must agree with this bit for
    /// bit; the property suite enforces it.
    ///
    /// # Errors
    ///
    /// Same as [`Matrix::inverse`].
    pub fn inverse_serial(&self) -> Result<Matrix, MatrixError> {
        self.invert(InvertStrategy::GaussJordan, 1)
    }

    /// Exact inverse with an explicit elimination kernel and thread count
    /// (`threads <= 1` means fully serial; small inputs stay serial
    /// regardless).
    ///
    /// # Errors
    ///
    /// [`MatrixError::NotSquare`] for rectangular input and
    /// [`MatrixError::Singular`] when no nonzero pivot exists.
    pub fn invert(&self, strategy: InvertStrategy, threads: usize) -> Result<Matrix, MatrixError> {
        if !self.is_square() {
            return Err(MatrixError::NotSquare(self.rows, self.cols));
        }
        match strategy {
            InvertStrategy::Auto => self.invert_auto(threads, AUTO_BLOCK_MIN_DIM),
            InvertStrategy::Bareiss => bareiss::invert(self, threads),
            InvertStrategy::GaussJordan => self.gauss_jordan(threads),
        }
    }

    /// The Auto policy, with the block threshold injectable for tests.
    ///
    /// Large matrices split 2×2 and invert via the Schur complement — the
    /// half-size sub-inversions recurse right back here, the quadrant
    /// products run pairwise in parallel, and rational entries stay
    /// small (the measured win over direct elimination grows with `n`).
    /// At the base, integer-scalable inputs take the gcd-free Bareiss path
    /// (fastest below the blow-up crossover, which the block split keeps us
    /// under); everything else runs parallel rational Gauss–Jordan.
    pub(crate) fn invert_auto(
        &self,
        threads: usize,
        block_min: usize,
    ) -> Result<Matrix, MatrixError> {
        let n = self.rows;
        if n >= block_min.max(2) {
            match crate::schur::block_inverse_auto(self, n / 2, threads, block_min) {
                Ok(inv) => return Ok(inv),
                // S = D − C·A⁻¹·B singular ⇒ the whole matrix is singular.
                Err(crate::schur::SchurError::ComplementSingular) => {
                    return Err(MatrixError::Singular)
                }
                // A leading-block pivot problem says nothing about the full
                // matrix: fall through to direct elimination.
                Err(_) => {}
            }
        }
        if bareiss::auto_eligible(self) {
            bareiss::invert(self, threads)
        } else {
            self.gauss_jordan(threads)
        }
    }

    /// Gauss–Jordan with partial pivoting (pivoting on the largest-magnitude
    /// entry keeps intermediate rationals smaller) on the augmented
    /// `[A | I]` worksheet; the per-column row sweep fans out over row
    /// blocks.
    fn gauss_jordan(&self, threads: usize) -> Result<Matrix, MatrixError> {
        let n = self.rows;
        let width = 2 * n;
        let mut w = vec![Rational::zero(); n * width];
        for i in 0..n {
            for j in 0..n {
                w[i * width + j] = self[(i, j)].clone();
            }
            w[i * width + n + i] = Rational::one();
        }

        for col in 0..n {
            // Find a pivot.
            let pivot_row = (col..n)
                .filter(|&r| !w[r * width + col].is_zero())
                .max_by(|&x, &y| w[x * width + col].abs().cmp(&w[y * width + col].abs()))
                .ok_or(MatrixError::Singular)?;
            if pivot_row != col {
                for j in 0..width {
                    w.swap(pivot_row * width + j, col * width + j);
                }
            }
            // Normalize the pivot row: columns < col are already zero.
            let pivot_inv = w[col * width + col].recip();
            for j in col..width {
                let v = &w[col * width + j] * &pivot_inv;
                w[col * width + j] = v;
            }
            let pivot_row: Vec<Rational> = w[col * width + col..(col + 1) * width].to_vec();
            let threads = if n.saturating_sub(1) * (width - col) >= MIN_PARALLEL_OPS {
                threads
            } else {
                1
            };
            parallel::chunked_rows(&mut w, width, threads, |first_row, block| {
                for (r, row) in block.chunks_mut(width).enumerate() {
                    if first_row + r == col {
                        continue;
                    }
                    if row[col].is_zero() {
                        continue;
                    }
                    let factor = std::mem::take(&mut row[col]);
                    // pivot_row[0] is the (normalized) pivot column entry 1;
                    // columns below `col` are zero in both rows.
                    for (j, pv) in pivot_row.iter().enumerate().skip(1) {
                        if pv.is_zero() {
                            continue;
                        }
                        let v = &row[col + j] - &(&factor * pv);
                        row[col + j] = v;
                    }
                }
            });
        }

        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            data.extend_from_slice(&w[i * width + n..(i + 1) * width]);
        }
        Ok(Matrix::from_vec(n, n, data))
    }

    /// Exact determinant: fraction-free Bareiss elimination when the input
    /// is integer-scalable, rational Gaussian elimination otherwise.
    ///
    /// # Errors
    ///
    /// [`MatrixError::NotSquare`] for rectangular input.
    pub fn determinant(&self) -> Result<Rational, MatrixError> {
        if bareiss::auto_eligible(self) {
            return bareiss::determinant(self, parallel::effective_threads());
        }
        self.determinant_serial()
    }

    /// Exact determinant via fraction-preserving rational Gaussian
    /// elimination — the serial reference the Bareiss path is checked
    /// against.
    ///
    /// # Errors
    ///
    /// [`MatrixError::NotSquare`] for rectangular input.
    pub fn determinant_serial(&self) -> Result<Rational, MatrixError> {
        if !self.is_square() {
            return Err(MatrixError::NotSquare(self.rows, self.cols));
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut det = Rational::one();
        for col in 0..n {
            let pivot_row = match (col..n).find(|&r| !a[(r, col)].is_zero()) {
                Some(r) => r,
                None => return Ok(Rational::zero()),
            };
            if pivot_row != col {
                a.swap_rows(pivot_row, col);
                det = -det;
            }
            let pivot = a[(col, col)].clone();
            det = &det * &pivot;
            let pivot_inv = pivot.recip();
            for row in col + 1..n {
                if a[(row, col)].is_zero() {
                    continue;
                }
                let factor = &a[(row, col)] * &pivot_inv;
                for j in col..n {
                    let v = &a[(row, j)] - &(&factor * &a[(col, j)]);
                    a[(row, j)] = v;
                }
            }
        }
        Ok(det)
    }

    fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(r1 * self.cols + j, r2 * self.cols + j);
        }
    }

    /// Largest `bit_size` over all entries — the "symbolic blow-up" metric
    /// the paper discusses for intermediate Hilbert inversion results.
    pub fn max_entry_bits(&self) -> usize {
        self.data.iter().map(Rational::bit_size).max().unwrap_or(0)
    }

    /// Serializes to a compact text form: rows separated by `;`, entries by
    /// spaces, each entry in `num` or `num/den` form. This is the wire format
    /// MathCloud matrix services exchange as file parameters.
    ///
    /// # Examples
    ///
    /// ```
    /// use mathcloud_exact::Matrix;
    ///
    /// let m = Matrix::identity(2);
    /// assert_eq!(m.to_text(), "1 0; 0 1");
    /// assert_eq!(Matrix::from_text(&m.to_text()).unwrap(), m);
    /// ```
    pub fn to_text(&self) -> String {
        // One preallocated output buffer, entries formatted straight into it
        // (no per-entry String). The capacity guess (4 chars per entry plus
        // separators) is exact for small-integer matrices and amortizes the
        // first few growth doublings for everything else.
        let mut out = String::with_capacity(self.data.len() * 5);
        for i in 0..self.rows {
            if i > 0 {
                out.push_str("; ");
            }
            for j in 0..self.cols {
                if j > 0 {
                    out.push(' ');
                }
                write!(out, "{}", self[(i, j)]).expect("String write is infallible");
            }
        }
        out
    }

    /// Parses the [`Matrix::to_text`] format.
    ///
    /// # Errors
    ///
    /// [`MatrixError::Parse`] on empty input, ragged rows, or bad entries.
    pub fn from_text(text: &str) -> Result<Matrix, MatrixError> {
        // Single pass: entries parse straight into one flat row-major buffer
        // (no per-row Vec, no flatten copy). The mat-* services round-trip
        // every matrix through this format, so the codec is a hot path.
        let mut data: Vec<Rational> = Vec::with_capacity(text.len() / 2 + 1);
        let mut cols = 0usize;
        let mut rows = 0usize;
        for (i, row_text) in text.split(';').enumerate() {
            let start = data.len();
            for t in row_text.split_whitespace() {
                let entry = t
                    .parse::<Rational>()
                    .map_err(|e| MatrixError::Parse(format!("row {i}: {e}")))?;
                data.push(entry);
            }
            let row_len = data.len() - start;
            if row_len == 0 {
                return Err(MatrixError::Parse(format!("row {i} is empty")));
            }
            if i == 0 {
                cols = row_len;
            } else if row_len != cols {
                return Err(MatrixError::Parse(format!(
                    "row {i} has {row_len} entries, expected {cols}"
                )));
            }
            rows += 1;
        }
        if rows == 0 {
            return Err(MatrixError::Parse("empty matrix".into()));
        }
        data.shrink_to_fit();
        Ok(Matrix::from_vec(rows, cols, data))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = Rational;

    fn index(&self, (i, j): (usize, usize)) -> &Rational {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Rational {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics on shape mismatch.
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix addition shape mismatch"
        );
        Matrix::from_fn(self.rows, self.cols, |i, j| &self[(i, j)] + &rhs[(i, j)])
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics on shape mismatch.
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix subtraction shape mismatch"
        );
        Matrix::from_fn(self.rows, self.cols, |i, j| &self[(i, j)] - &rhs[(i, j)])
    }
}

impl Matrix {
    /// Exact product with an explicit worker count: output rows are computed
    /// in contiguous blocks, one block per worker. The i-k-j loop order
    /// reads `rhs` row-wise (cache-friendly) and, because rational
    /// arithmetic is exact, produces bit-identical sums to any other
    /// summation order.
    ///
    /// # Panics
    ///
    /// Panics when `self.cols != rhs.rows`.
    pub fn mul_threads(&self, rhs: &Matrix, threads: usize) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matrix product shape mismatch");
        let (rows, cols, inner) = (self.rows, rhs.cols, self.cols);
        let mut data = vec![Rational::zero(); rows * cols];
        let threads = if rows * cols * inner >= MIN_PARALLEL_OPS {
            threads
        } else {
            1
        };
        parallel::chunked_rows(&mut data, cols, threads, |first_row, block| {
            for (r, out_row) in block.chunks_mut(cols).enumerate() {
                let i = first_row + r;
                for k in 0..inner {
                    let aik = &self[(i, k)];
                    if aik.is_zero() {
                        continue;
                    }
                    for (j, out) in out_row.iter_mut().enumerate() {
                        let b = &rhs[(k, j)];
                        if b.is_zero() {
                            continue;
                        }
                        *out += &(aik * b);
                    }
                }
            }
        });
        Matrix { rows, cols, data }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics when `self.cols != rhs.rows`.
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.mul_threads(rhs, parallel::effective_threads())
    }
}

impl Mul<&Rational> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Rational) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| &self[(i, j)] * rhs)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    f.write_str(" ")?;
                }
                write!(f, "{}", self[(i, j)])?;
            }
            if i + 1 < self.rows {
                f.write_str("\n")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hilbert;

    fn mat(text: &str) -> Matrix {
        Matrix::from_text(text).unwrap()
    }

    #[test]
    fn arithmetic_identities() {
        let a = mat("1 2; 3 4");
        let b = mat("5 6; 7 8");
        assert_eq!(&a + &b, mat("6 8; 10 12"));
        assert_eq!(&b - &a, mat("4 4; 4 4"));
        assert_eq!(&a * &b, mat("19 22; 43 50"));
        assert_eq!(&a * &Matrix::identity(2), a);
        assert_eq!(&Matrix::identity(2) * &a, a);
    }

    #[test]
    fn transpose_involution() {
        let a = mat("1 2 3; 4 5 6");
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
    }

    #[test]
    fn inverse_of_known_matrix() {
        let a = mat("2 0; 0 4");
        assert_eq!(a.inverse().unwrap(), mat("1/2 0; 0 1/4"));
        let a = mat("1 2; 3 4");
        assert_eq!(a.inverse().unwrap(), mat("-2 1; 3/2 -1/2"));
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = mat("1 2; 2 4");
        assert_eq!(a.inverse().unwrap_err(), MatrixError::Singular);
        assert_eq!(a.determinant().unwrap(), Rational::zero());
    }

    #[test]
    fn rectangular_inverse_rejected() {
        let a = mat("1 2 3; 4 5 6");
        assert!(matches!(
            a.inverse().unwrap_err(),
            MatrixError::NotSquare(2, 3)
        ));
        assert!(matches!(
            a.determinant().unwrap_err(),
            MatrixError::NotSquare(2, 3)
        ));
    }

    #[test]
    fn determinant_of_hilbert() {
        // det(H_3) = 1/2160 is a classical value.
        assert_eq!(
            hilbert(3).determinant().unwrap(),
            Rational::from_ratio(1, 2160)
        );
    }

    #[test]
    fn auto_block_recursion_matches_oracle() {
        // Drive the Auto policy's Schur-split arm with a tiny threshold so
        // n = 9 recurses (9 → 4 + 5 → base Bareiss) without big matrices.
        let h = hilbert(9);
        let oracle = h.inverse_serial().unwrap();
        for threads in [1, 3] {
            assert_eq!(h.invert_auto(threads, 6).unwrap(), oracle);
        }
    }

    #[test]
    fn auto_block_recursion_reports_singularity() {
        // Singular matrix with an invertible leading block: the Schur arm
        // must surface ComplementSingular as MatrixError::Singular.
        let m = Matrix::from_fn(8, 8, |i, j| {
            if i == 7 {
                // Last row = first row ⇒ rank deficient.
                Rational::from_ratio((j + 1) as i64, 1)
            } else {
                Rational::from_ratio((i * 8 + j + 1) as i64 % 7 + 1, (j + 1) as i64)
            }
        });
        let m = {
            // Ensure row 7 duplicates row 0 exactly.
            let mut rows: Vec<Vec<Rational>> = (0..8)
                .map(|i| (0..8).map(|j| m[(i, j)].clone()).collect())
                .collect();
            rows[7] = rows[0].clone();
            Matrix::from_fn(8, 8, |i, j| rows[i][j].clone())
        };
        assert_eq!(m.inverse_serial().unwrap_err(), MatrixError::Singular);
        assert_eq!(m.invert_auto(2, 6).unwrap_err(), MatrixError::Singular);
    }

    #[test]
    fn inverse_times_original_is_identity_for_hilbert() {
        for n in [1usize, 2, 4, 7, 10] {
            let h = hilbert(n);
            let inv = h.inverse().unwrap();
            assert_eq!(&h * &inv, Matrix::identity(n), "H_{n}");
            assert_eq!(&inv * &h, Matrix::identity(n), "H_{n} (left)");
        }
    }

    #[test]
    fn blocks_round_trip() {
        let m = hilbert(6);
        let a = m.submatrix(0, 3, 0, 3);
        let b = m.submatrix(0, 3, 3, 6);
        let c = m.submatrix(3, 6, 0, 3);
        let d = m.submatrix(3, 6, 3, 6);
        assert_eq!(Matrix::from_blocks(&a, &b, &c, &d).unwrap(), m);
    }

    #[test]
    fn from_blocks_rejects_mismatched_shapes() {
        let a = Matrix::identity(2);
        let b = Matrix::identity(3);
        assert!(Matrix::from_blocks(&a, &b, &a, &b).is_err());
    }

    #[test]
    fn text_round_trip() {
        let m = mat("1/2 -3; 0 22/7");
        assert_eq!(Matrix::from_text(&m.to_text()).unwrap(), m);
    }

    #[test]
    fn text_parse_errors() {
        assert!(Matrix::from_text("").is_err());
        assert!(Matrix::from_text("1 2; 3").is_err());
        assert!(Matrix::from_text("1 x; 3 4").is_err());
        assert!(Matrix::from_text(";").is_err());
    }

    #[test]
    fn entry_bits_grow_during_hilbert_inversion() {
        let h = hilbert(8);
        let inv = h.inverse().unwrap();
        assert!(inv.max_entry_bits() > h.max_entry_bits());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::identity(2);
        let _ = &m[(2, 0)];
    }
}
