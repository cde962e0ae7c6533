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
    /// Factors `a`; returns `None` when the matrix is numerically singular.
    pub fn new(a: &DenseMatrix) -> Option<Self> {
        assert_eq!(a.nrows, a.ncols, "LU requires a square matrix");
        let n = a.nrows;
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
            if best < 1e-300 {
                return None;
            }
            piv[k] = p;
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
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
