//! Sparse matrix–vector products.
//!
//! `spmv` and the fused `residual_norm_sq` (§3.3: the residual is
//! consumed by its norm while still in registers, saving one write + read
//! of the vector) are the `k = 1` lane of the block kernels in
//! [`crate::spmm`]: each borrows the caller's slices as a width-1 block.
//! What is implemented here has no k-wide twin: the sequential oracle
//! `spmv_seq` and the paper's ablation baselines `spmv_unrolled` and
//! `residual_norm_sq_unfused`.

use crate::csr::Csr;
use crate::spmm::{residual_rows, spmm_rows, PAR_THRESHOLD};
use rayon::prelude::*;

#[inline]
fn row_dot(a: &Csr, i: usize, x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (c, v) in a.row_iter(i) {
        acc += v * x[c];
    }
    acc
}

/// `y = A * x`, sequential (the test oracle for every SpMV variant).
pub fn spmv_seq(a: &Csr, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.ncols());
    assert_eq!(y.len(), a.nrows());
    for i in 0..a.nrows() {
        y[i] = row_dot(a, i, x);
    }
}

/// `y = A * x`, parallel over row blocks.
pub fn spmv(a: &Csr, x: &[f64], y: &mut [f64]) {
    spmm_rows(a, x, 1, y);
}

/// Fused residual `r = b - A*x` with `||r||^2` returned in one sweep.
pub fn residual_norm_sq(a: &Csr, x: &[f64], b: &[f64], r: &mut [f64]) -> f64 {
    let mut norm_sq = [0.0];
    residual_rows(a, x, b, r, 1, &mut norm_sq);
    norm_sq[0]
}

/// Unfused reference: computes `r = b - A*x` then `||r||^2` in two sweeps.
/// Kept as the baseline twin of [`residual_norm_sq`] for the ablation bench.
pub fn residual_norm_sq_unfused(a: &Csr, x: &[f64], b: &[f64], r: &mut [f64]) -> f64 {
    spmv(a, x, r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    crate::vecops::dot(r, r)
}

/// SpMV with an 8-way unrolled inner accumulator.
///
/// The paper combines software prefetching with an 8× inner-loop unroll
/// (§3.1.1) to expose instruction-level parallelism; explicit prefetch
/// intrinsics are not available in stable safe Rust, so this kernel keeps
/// the unroll (eight independent partial sums that LLVM can schedule and
/// vectorize) as the portable substitute — benchmarked as an ablation in
/// `famg-bench`.
pub fn spmv_unrolled(a: &Csr, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.ncols());
    assert_eq!(y.len(), a.nrows());
    let body = |i: usize, yi: &mut f64| {
        let cols = a.row_cols(i);
        let vals = a.row_vals(i);
        let mut acc = [0.0f64; 8];
        let chunks = cols.len() / 8;
        for k in 0..chunks {
            let base = k * 8;
            for u in 0..8 {
                acc[u] += vals[base + u] * x[cols[base + u]];
            }
        }
        let mut tail = 0.0;
        for k in chunks * 8..cols.len() {
            tail += vals[k] * x[cols[k]];
        }
        *yi = acc.iter().sum::<f64>() + tail;
    };
    if a.nrows() < PAR_THRESHOLD {
        for (i, yi) in y.iter_mut().enumerate() {
            body(i, yi);
        }
    } else {
        y.par_iter_mut()
            .enumerate()
            .with_min_len(512)
            .for_each(|(i, yi)| body(i, yi));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_mv(d: &[f64], nrows: usize, ncols: usize, x: &[f64]) -> Vec<f64> {
        (0..nrows)
            .map(|i| (0..ncols).map(|j| d[i * ncols + j] * x[j]).sum())
            .collect()
    }

    fn random_csr(nrows: usize, ncols: usize, seed: u64) -> Csr {
        crate::testutil::random_csr(nrows, ncols, 3, seed)
    }

    #[test]
    fn spmv_matches_dense() {
        let a = random_csr(20, 15, 7);
        let x: Vec<f64> = (0..15).map(|i| f64::from(i) * 0.3 - 1.0).collect();
        let mut y = vec![0.0; 20];
        spmv(&a, &x, &mut y);
        let expect = dense_mv(&a.to_dense(), 20, 15, &x);
        for (a, b) in y.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn spmv_parallel_matches_sequential() {
        let n = 2000;
        let a = random_csr(n, n, 42);
        let x: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 * 0.1).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        spmv_seq(&a, &x, &mut y1);
        spmv(&a, &x, &mut y2);
        assert_eq!(y1, y2); // bitwise: same per-row accumulation order
    }

    #[test]
    fn k1_lane_matches_sequential_oracles() {
        // `spmv` and `residual_norm_sq` are the K = 1 lane of the block
        // kernels; their oracles are `spmv_seq` plus plain loops, below and
        // above PAR_THRESHOLD and across a ragged reduction chunk.
        for n in [60, PAR_THRESHOLD - 1, PAR_THRESHOLD, 5000, 9000] {
            let a = random_csr(n, n, n as u64);
            let x: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 * 0.1 - 0.7).collect();
            let b: Vec<f64> = (0..n).map(|i| ((i * 5) % 11) as f64 * 0.3 - 1.0).collect();
            let mut ax = vec![0.0; n];
            spmv_seq(&a, &x, &mut ax);

            let mut y = vec![f64::NAN; n];
            spmv(&a, &x, &mut y);
            assert_eq!(y, ax, "spmv n={n}");

            let mut r = vec![f64::NAN; n];
            let norm_sq = residual_norm_sq(&a, &x, &b, &mut r);
            let expect: Vec<f64> = b.iter().zip(&ax).map(|(bi, v)| bi - v).collect();
            assert_eq!(r, expect, "residual n={n}");
            let folded = crate::testutil::chunked_dot(&expect, &expect, PAR_THRESHOLD);
            assert_eq!(norm_sq.to_bits(), folded.to_bits(), "norm n={n}");
        }
    }

    #[test]
    fn unrolled_matches_plain() {
        // Rows with 11 entries so the 8-wide unroll plus tail both run.
        let trips: Vec<(usize, usize, f64)> = (0..300)
            .flat_map(|i| {
                (0..11).map(move |k| {
                    (
                        (i * 7 + k * 13) % 300,
                        (i + k * 27) % 300,
                        0.3 * k as f64 - 1.0,
                    )
                })
            })
            .collect();
        let a = Csr::from_triplets(300, 300, trips);
        let x: Vec<f64> = (0..300).map(|i| f64::from(i % 9) * 0.25 - 1.0).collect();
        let mut y1 = vec![0.0; 300];
        let mut y2 = vec![0.0; 300];
        spmv_seq(&a, &x, &mut y1);
        spmv_unrolled(&a, &x, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() <= 1e-12 * u.abs().max(1.0));
        }
    }

    #[test]
    fn unrolled_handles_short_rows() {
        let a = Csr::from_triplets(3, 3, vec![(0, 0, 2.0), (1, 2, 3.0)]);
        let x = vec![1.0, 1.0, 1.0];
        let mut y = vec![0.0; 3];
        spmv_unrolled(&a, &x, &mut y);
        assert_eq!(y, vec![2.0, 3.0, 0.0]);
    }

    #[test]
    fn fused_residual_matches_unfused() {
        let n = 1200;
        let a = random_csr(n, n, 9);
        let x: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i * 5) % 11) as f64).collect();
        let mut r1 = vec![0.0; n];
        let mut r2 = vec![0.0; n];
        let n1 = residual_norm_sq(&a, &x, &b, &mut r1);
        let n2 = residual_norm_sq_unfused(&a, &x, &b, &mut r2);
        assert_eq!(r1, r2);
        assert!((n1 - n2).abs() <= 1e-9 * n2.abs().max(1.0));
    }
}
