//! General matrix utilities rounding out the public API: norms, row
//! statistics, diagonal scaling, and submatrix extraction.

use crate::csr::{Col, Csr};

/// Row sums of a matrix.
pub fn row_sums(a: &Csr) -> Vec<f64> {
    (0..a.nrows()).map(|i| a.row_vals(i).iter().sum()).collect()
}

/// Infinity norm (max absolute row sum).
pub fn norm_inf(a: &Csr) -> f64 {
    (0..a.nrows())
        .map(|i| a.row_vals(i).iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0f64, f64::max)
}

/// Frobenius norm.
pub fn norm_frobenius(a: &Csr) -> f64 {
    a.values().iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Symmetric diagonal (Jacobi) scaling: returns `D^{-1/2} A D^{-1/2}`
/// and the scaling vector `d^{-1/2}` so solutions can be mapped back
/// (`x = D^{-1/2} x̂`). Requires a positive diagonal.
pub fn jacobi_scale(a: &Csr) -> (Csr, Vec<f64>) {
    assert_eq!(a.nrows(), a.ncols());
    let dinv_sqrt: Vec<f64> = (0..a.nrows())
        .map(|i| {
            let d = a.diag(i);
            assert!(d > 0.0, "jacobi_scale needs a positive diagonal (row {i})");
            1.0 / d.sqrt()
        })
        .collect();
    let mut vals = Vec::with_capacity(a.nnz());
    for i in 0..a.nrows() {
        let si = dinv_sqrt[i];
        for (c, v) in a.row_iter(i) {
            vals.push(si * v * dinv_sqrt[c]);
        }
    }
    (
        Csr::from_parts_unchecked(
            a.nrows(),
            a.ncols(),
            a.rowptr().to_vec(),
            a.colidx().to_vec(),
            vals,
        ),
        dinv_sqrt,
    )
}

/// Extracts the submatrix with the given (sorted, unique) row and column
/// index sets, renumbering into the compact spaces.
pub fn extract_submatrix(a: &Csr, rows: &[usize], cols: &[usize]) -> Csr {
    debug_assert!(rows.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(cols.windows(2).all(|w| w[0] < w[1]));
    let mut rowptr = Vec::with_capacity(rows.len() + 1);
    let mut colidx = Vec::new();
    let mut values = Vec::new();
    rowptr.push(0);
    for &r in rows {
        for (c, v) in a.row_iter(r) {
            if let Ok(k) = cols.binary_search(&c) {
                colidx.push(Col::new(k));
                values.push(v);
            }
        }
        rowptr.push(colidx.len());
    }
    Csr::from_parts_unchecked(rows.len(), cols.len(), rowptr, colidx, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        Csr::from_triplets(
            3,
            3,
            vec![
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 1, 4.0),
                (2, 0, 1.0),
                (2, 2, 8.0),
            ],
        )
    }

    #[test]
    fn norms_and_sums() {
        let a = sample();
        assert_eq!(row_sums(&a), vec![1.0, 4.0, 9.0]);
        assert_eq!(norm_inf(&a), 9.0);
        let fro = (4.0f64 + 1.0 + 16.0 + 1.0 + 64.0).sqrt();
        assert!((norm_frobenius(&a) - fro).abs() < 1e-14);
    }

    #[test]
    fn jacobi_scaling_normalizes_diagonal() {
        let a = sample();
        let (scaled, _d) = jacobi_scale(&a);
        for i in 0..3 {
            assert!((scaled.diag(i) - 1.0).abs() < 1e-14, "row {i}");
        }
        // Symmetric scaling of a symmetric matrix stays symmetric.
        let s = Csr::from_triplets(
            2,
            2,
            vec![(0, 0, 4.0), (0, 1, -2.0), (1, 0, -2.0), (1, 1, 16.0)],
        );
        let (ss, _) = jacobi_scale(&s);
        assert!(ss.is_symmetric(1e-14));
        assert!((ss.get(0, 1).unwrap() + 0.25).abs() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "positive diagonal")]
    fn jacobi_scale_rejects_nonpositive() {
        let a = Csr::from_triplets(1, 1, vec![(0, 0, -1.0)]);
        jacobi_scale(&a);
    }

    #[test]
    fn submatrix_extraction() {
        let a = sample();
        let sub = extract_submatrix(&a, &[0, 2], &[0, 2]);
        assert_eq!(sub.nrows(), 2);
        assert_eq!(sub.get(0, 0), Some(2.0));
        assert_eq!(sub.get(0, 1), None); // (0,1) of A was column 1, excluded
        assert_eq!(sub.get(1, 0), Some(1.0));
        assert_eq!(sub.get(1, 1), Some(8.0));
    }

    #[test]
    fn empty_submatrix() {
        let a = sample();
        let sub = extract_submatrix(&a, &[], &[0, 1, 2]);
        assert_eq!(sub.nrows(), 0);
        let sub2 = extract_submatrix(&a, &[1], &[]);
        assert_eq!(sub2.nnz(), 0);
    }
}
