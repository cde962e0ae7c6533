//! Small dense matrices with LU factorization.
//!
//! AMG's coarsest level is solved directly; HYPRE uses a dense Gaussian
//! elimination once the grid is small enough. This module provides a
//! row-major dense matrix with partially pivoted LU.

/// Row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Builds from a sparse matrix.
    pub fn from_csr(a: &crate::csr::Csr) -> Self {
        DenseMatrix {
            nrows: a.nrows(),
            ncols: a.ncols(),
            data: a.to_dense(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.ncols + j]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.ncols + j] = v;
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }
}

/// Constructors and the product the LU tests build inputs and check
/// residuals with.
#[cfg(test)]
impl DenseMatrix {
    /// Zero matrix of the given shape.
    fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Builds from a row-major slice.
    fn from_row_major(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols);
        DenseMatrix { nrows, ncols, data }
    }

    /// `y = self * x`.
    fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        (0..self.nrows)
            .map(|i| (0..self.ncols).map(|j| self.get(i, j) * x[j]).sum())
            .collect()
    }
}

/// A pivot at or below `SINGULAR_PIVOT` times the largest entry of its own
/// original row means a singular matrix. Row scaling commutes with
/// elimination, so this is one bound on the row-equilibrated matrix, which
/// scaling a row does not move; there LU's backward error makes a zero
/// pivot about `n·ε·ρ` (`ρ` the growth), under 1e-10 while `n·ρ < 4.5e5`.
/// The suite's coarsest operators read ≤ 1.2e-13 when singular (pure
/// Neumann graph Laplacians) and ≥ 0.25 otherwise.
pub const SINGULAR_PIVOT: f64 = 1e-10;

/// LU factorization with partial pivoting of a square dense matrix.
#[derive(Debug, Clone)]
pub struct LuFactor {
    n: usize,
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: Vec<f64>,
    /// Row pivot sequence: step k swapped rows k and piv[k].
    piv: Vec<usize>,
}

impl LuFactor {
    /// Factors `a`; returns `None` at a pivot at or below [`SINGULAR_PIVOT`]
    /// times the largest entry of its original row (a zero row included).
    pub fn new(a: &DenseMatrix) -> Option<Self> {
        assert_eq!(a.nrows, a.ncols, "LU requires a square matrix");
        let n = a.nrows;
        // The largest entry of the original row now at each position.
        let mut row_max: Vec<f64> = a
            .data
            .chunks(n.max(1))
            .map(|r| r.iter().fold(0.0f64, |m, v| m.max(v.abs())))
            .collect();
        let mut lu = a.data.clone();
        let mut piv = vec![0usize; n];
        for k in 0..n {
            // Partial pivot: largest |entry| in column k at/below row k.
            let mut p = k;
            let mut best = lu[k * n + k].abs();
            for i in k + 1..n {
                let v = lu[i * n + k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best <= SINGULAR_PIVOT * row_max[p] {
                return None;
            }
            piv[k] = p;
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
                row_max.swap(k, p);
            }
            let pivot = lu[k * n + k];
            for i in k + 1..n {
                let m = lu[i * n + k] / pivot;
                lu[i * n + k] = m;
                for j in k + 1..n {
                    lu[i * n + j] -= m * lu[k * n + j];
                }
            }
        }
        Some(LuFactor { n, lu, piv })
    }

    /// Solves `A x = b` using the stored factors.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n); // PANIC-FREE: coarse RHS length is fixed by the hierarchy at setup.
        let n = self.n;
        let mut x = b.to_vec(); // ALLOC: O(n_coarse) solution copy; the coarsest grid is tiny by construction.
                                // Apply row pivots.
        for k in 0..n {
            x.swap(k, self.piv[k]);
        }
        // Forward substitution (unit lower triangular).
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[i * n + j] * x[j];
            }
            x[i] = acc;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in i + 1..n {
                acc -= self.lu[i * n + j] * x[j];
            }
            x[i] = acc / self.lu[i * n + i];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_solves_small_system() {
        // [4 3; 6 3] x = [10; 12] -> x = [1, 2]
        let a = DenseMatrix::from_row_major(2, 2, vec![4.0, 3.0, 6.0, 3.0]);
        let lu = LuFactor::new(&a).unwrap();
        let x = lu.solve(&[10.0, 12.0]);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lu_requires_pivoting() {
        // Zero on the first diagonal position forces a pivot swap.
        let a = DenseMatrix::from_row_major(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let lu = LuFactor::new(&a).unwrap();
        let x = lu.solve(&[3.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn lu_detects_singularity() {
        let a = DenseMatrix::from_row_major(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(LuFactor::new(&a).is_none());
    }

    /// The 1-D Neumann Laplacian with edge weights `1/(e+1)` on 5 points is
    /// singular, and its elimination leaves a last pivot of 1.1e-16, not 0;
    /// grounding its first point by 1e-3 makes it nonsingular.
    #[test]
    fn lu_refuses_a_rounding_size_pivot() {
        let neumann = |ground: f64| {
            let mut a = DenseMatrix::zeros(5, 5);
            for (e, w) in (0..4).map(|e| (e, 1.0 / (e as f64 + 1.0))) {
                for (i, j, v) in [(e, e, w), (e + 1, e + 1, w), (e, e + 1, -w), (e + 1, e, -w)] {
                    a.set(i, j, a.get(i, j) + v);
                }
            }
            a.set(0, 0, a.get(0, 0) + ground);
            a
        };
        assert!(LuFactor::new(&neumann(0.0)).is_none());
        assert!(LuFactor::new(&neumann(1e-3)).is_some());
    }

    /// Scaling rows moves no pivot across the bound: `diag(1, 1e-11)` and
    /// an SPD matrix with one row scaled by 1e-12 are factored and solved.
    #[test]
    fn lu_factors_a_row_scaled_matrix() {
        let diag = DenseMatrix::from_row_major(2, 2, vec![1.0, 0.0, 0.0, 1e-11]);
        let x = LuFactor::new(&diag)
            .expect("nonsingular")
            .solve(&[2.0, 3e-11]);
        assert_eq!(x, vec![2.0, 3.0]);
        let scaled = DenseMatrix::from_row_major(
            3,
            3,
            vec![4.0, -1.0, 0.0, -1e-12, 4e-12, -1e-12, 0.0, -1.0, 4.0],
        );
        let want = [1.0, -2.0, 0.5];
        let b = scaled.matvec(&want);
        let x = LuFactor::new(&scaled).expect("nonsingular").solve(&b);
        for (x, w) in x.iter().zip(want) {
            assert!((x - w).abs() < 1e-12, "{x} vs {w}");
        }
    }

    #[test]
    fn lu_random_spd_residual() {
        // Diagonally dominant 8x8 — well conditioned.
        let n = 8;
        let mut a = DenseMatrix::zeros(n, n);
        let mut state = 99u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 100) as f64 / 100.0
        };
        for i in 0..n {
            let mut rowsum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = next() - 0.5;
                    a.set(i, j, v);
                    rowsum += v.abs();
                }
            }
            a.set(i, i, rowsum + 1.0);
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let lu = LuFactor::new(&a).unwrap();
        let x = lu.solve(&b);
        let r = a.matvec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn from_csr_matches_to_dense() {
        let s = crate::csr::Csr::from_triplets(2, 3, vec![(0, 1, 2.0), (1, 2, -1.0)]);
        let d = DenseMatrix::from_csr(&s);
        assert_eq!(d.get(0, 1), 2.0);
        assert_eq!(d.get(1, 2), -1.0);
        assert_eq!(d.get(0, 0), 0.0);
        assert_eq!(d.matvec(&[1.0, 1.0, 1.0]), vec![2.0, -1.0]);
    }
}
