//! Direct (distance-1) interpolation.
//!
//! The textbook classical operator: each F-point interpolates from its
//! strong coarse neighbours, with weak/fine connections redistributed by
//! scaling so that row sums of `A` are respected:
//!
//! ```text
//! w_ij = -α_i · a_ij / a_ii,   α_i = Σ_{k∈N_i⁻} a_ik / Σ_{j∈C_i⁻} a_ij
//! ```
//!
//! with negative and positive connections scaled separately (positive
//! off-diagonals, when no positive coarse connection exists, are lumped
//! into the diagonal). Pass 1 of multipass interpolation, serial and
//! distributed.

use super::common::{CfMap, RowBuilder, TruncParams};
use famg_sparse::Csr;
use std::ops::Range;

/// Rows `rows` of the direct interpolation operator (`rows.len() × nc`).
/// A row reads only itself and the C/F state of its neighbours, so the
/// rows outside the range (a rank's halo) need not be stored.
pub fn direct_rows(
    a: &Csr,
    s: &Csr,
    cf: &CfMap,
    rows: Range<usize>,
    trunc: Option<&TruncParams>,
) -> Csr {
    let n = a.nrows();
    assert_eq!(s.nrows(), n);
    let mut b = RowBuilder::new(rows.len());
    let mut cols: Vec<usize> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    // Strong-neighbour marker: strong[j] == i means j ∈ S_i.
    let mut strong = vec![usize::MAX; n];

    for i in rows {
        if cf.is_coarse[i] {
            cols.push(cf.cmap[i]);
            vals.push(1.0);
            b.push_row(&mut cols, &mut vals, None);
            continue;
        }
        for j in s.col_iter(i) {
            strong[j] = i;
        }
        // Sums of negative / positive connections over all neighbours and
        // over strong coarse neighbours.
        let (mut sn, mut sp, mut cn, mut cp) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let mut diag = 0.0f64;
        for (k, v) in a.row_iter(i) {
            if k == i {
                diag = v;
                continue;
            }
            if v < 0.0 {
                sn += v;
            } else {
                sp += v;
            }
            if strong[k] == i && cf.is_coarse[k] {
                if v < 0.0 {
                    cn += v;
                } else {
                    cp += v;
                }
            }
        }
        if cn == 0.0 && cp == 0.0 {
            // No strong coarse neighbour: empty row (point is handled by
            // smoothing alone).
            b.push_row(&mut cols, &mut vals, None);
            continue;
        }
        let alpha = if cn != 0.0 { sn / cn } else { 0.0 };
        let beta = if cp != 0.0 { sp / cp } else { 0.0 };
        // Positive connections with no positive coarse target are lumped
        // into the diagonal.
        let dd = if cp == 0.0 { diag + sp } else { diag };
        for (k, v) in a.row_iter(i) {
            if k == i || strong[k] != i || !cf.is_coarse[k] {
                continue;
            }
            let scale = if v < 0.0 { alpha } else { beta };
            if scale != 0.0 {
                cols.push(cf.cmap[k]);
                vals.push(-scale * v / dd);
            }
        }
        b.push_row(&mut cols, &mut vals, trunc);
    }
    b.finish(cf.nc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::pmis;
    use crate::strength::strength;
    use famg_matgen::laplace2d;

    fn setup(nx: usize, ny: usize) -> (Csr, Csr, CfMap) {
        let a = laplace2d(nx, ny);
        let s = strength(&a, 0.25, 0.8);
        let c = pmis(&s, 1);
        let cf = CfMap::new(c.is_coarse);
        (a, s, cf)
    }

    #[test]
    fn coarse_rows_are_identity() {
        let (a, s, cf) = setup(8, 8);
        let p = direct_rows(&a, &s, &cf, 0..a.nrows(), None);
        assert_eq!(p.ncols(), cf.nc);
        for i in 0..a.nrows() {
            if cf.is_coarse[i] {
                assert_eq!(p.row_nnz(i), 1);
                assert_eq!(p.col_iter(i).collect::<Vec<_>>(), [cf.cmap[i]]);
                assert_eq!(p.row_vals(i), &[1.0]);
            }
        }
    }

    #[test]
    fn weights_positive_and_bounded_on_laplacian() {
        let (a, s, cf) = setup(10, 10);
        let p = direct_rows(&a, &s, &cf, 0..a.nrows(), None);
        for i in 0..a.nrows() {
            for (_, w) in p.row_iter(i) {
                assert!(w > 0.0 && w <= 1.0 + 1e-12, "weight {w} out of range");
            }
        }
    }

    #[test]
    fn interpolates_constant_on_interior() {
        // For zero-row-sum rows (interior), direct interpolation is
        // exact on constants: Σ_j w_ij = 1.
        let (a, s, cf) = setup(12, 12);
        let p = direct_rows(&a, &s, &cf, 0..a.nrows(), None);
        for i in 0..a.nrows() {
            let row_sum: f64 = a.row_vals(i).iter().sum();
            if row_sum.abs() < 1e-12 && p.row_nnz(i) > 0 && !cf.is_coarse[i] {
                let w: f64 = p.row_vals(i).iter().sum();
                assert!((w - 1.0).abs() < 1e-10, "row {i}: Σw = {w}");
            }
        }
    }

    #[test]
    fn truncation_caps_row_length() {
        let (a, s, cf) = setup(16, 16);
        let t = TruncParams {
            factor: 0.0,
            max_elements: 2,
        };
        let p = direct_rows(&a, &s, &cf, 0..a.nrows(), Some(&t));
        for i in 0..a.nrows() {
            assert!(p.row_nnz(i) <= 2);
        }
    }
}
