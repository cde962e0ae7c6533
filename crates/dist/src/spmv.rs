//! Distributed SpMV and residual norms (Fig. 3b).
//!
//! `y = A x` splits into the local product with the block-diagonal part
//! and the product of the off-diagonal part with the gathered external
//! vector. The fused residual + norm kernel mirrors the single-node §3.3
//! optimization, with the norm finished by one all-reduce.
//!
//! Every kernel runs in one of two modes selected by its `overlap` flag:
//! *synchronous* (halo exchanged up front, then all rows) or *overlapped*
//! (halo posted, interior rows computed while it is in flight, boundary
//! rows after `finish`). Both modes perform the identical floating-point
//! operations per row — interior rows never touch `offd`, boundary rows
//! always accumulate diag before offd — so their results are bitwise
//! equal; overlap only changes *when* the wait happens.

use crate::comm::Comm;
use crate::halo::VectorExchange;
use crate::parcsr::ParCsr;
use famg_core::solver::{check_dim as dim, SolveError};
use famg_sparse::lanes;
use famg_sparse::multivec::{dot_rows_seq, width};

/// Runs `body(j0, m)` once per group of at most 8 lanes of a row: the one
/// group `(0, K)` when the width is monomorphized, groups of 8 (and a
/// remainder) in the dynamic arm — so the row kernels keep their lane
/// accumulators in a fixed stack array at any width, re-walking the
/// stored row once per group beyond the first.
#[inline(always)]
pub(crate) fn lane_groups<const K: usize>(k: usize, mut body: impl FnMut(usize, usize)) {
    if K != 0 {
        body(0, K);
    } else {
        for j0 in (0..k).step_by(8) {
            body(j0, (k - j0).min(8));
        }
    }
}

/// All-reduces `k` per-column partials in one collective. Component `j`
/// is combined in rank order with the same fold as a scalar all-reduce,
/// and a single lane *is* the scalar all-reduce (no payload vector).
pub(crate) fn allreduce_lanes(comm: &Comm, lanes: &mut [f64], tag: u64) {
    if let [v] = lanes {
        *v = comm.allreduce_sum(*v, tag);
    } else {
        // ALLOC: the k-sized partials become the collective's payload.
        let reduced = comm.allreduce_sum_vec(lanes.to_vec(), tag);
        lanes.copy_from_slice(&reduced);
    }
}

/// Validates the operator/plan/block shapes shared by the kernels.
fn check_kernel_dims(
    a: &ParCsr,
    plan: &VectorExchange,
    x_len: usize,
    k: usize,
) -> Result<(), SolveError> {
    dim(a.diag.ncols() * k, x_len, "local x (owned columns)")?;
    dim(a.offd.ncols(), plan.ext_len(), "halo plan external length")
}

/// `y = A x` using a pre-planned halo exchange (synchronous halo).
///
/// # Panics
/// Panics on mis-sized vectors or a plan that does not match `a`'s
/// off-diagonal block; use [`try_dist_spmv`] for a typed error.
pub fn dist_spmv(comm: &Comm, a: &ParCsr, plan: &VectorExchange, x_local: &[f64], y: &mut [f64]) {
    try_dist_spmv(comm, a, plan, x_local, y, false)
        .unwrap_or_else(|e| panic!("famg dist_spmv: {e}"));
}

/// [`dist_spmv`] with typed shape errors and a selectable halo mode:
/// with `overlap` the interior rows are computed while the halo is in
/// flight (bitwise-identical result, see module docs).
pub fn try_dist_spmv(
    comm: &Comm,
    a: &ParCsr,
    plan: &VectorExchange,
    x_local: &[f64],
    y: &mut [f64],
    overlap: bool,
) -> Result<(), SolveError> {
    try_dist_spmv_rows(comm, a, plan, x_local, 1, y, overlap)
}

/// `Y = A X` over the `k`-interleaved blocks `(xd, k)` and `(yd, k)`: one
/// halo exchange for all columns (one envelope per neighbor regardless
/// of width) and one matrix traversal per row. Per lane, a row
/// accumulates its block-diagonal entries in ascending stored order from
/// zero and — boundary rows only — adds the off-diagonal product
/// accumulated the same way, so every column is bitwise the `k = 1`
/// result in either halo mode.
pub fn try_dist_spmv_rows(
    comm: &Comm,
    a: &ParCsr,
    plan: &VectorExchange,
    xd: &[f64],
    k: usize,
    yd: &mut [f64],
    overlap: bool,
) -> Result<(), SolveError> {
    check_kernel_dims(a, plan, xd.len(), k)?;
    dim(a.local_rows() * k, yd.len(), "local y (owned rows)")?;
    fn rows<const K: usize>(
        a: &ParCsr,
        rows: &[usize],
        xd: &[f64],
        ext: Option<&[f64]>,
        k: usize,
        yd: &mut [f64],
    ) {
        let kk = width::<K>(k);
        for &i in rows {
            lane_groups::<K>(k, |j0, m| {
                let mut acc = [0.0f64; 8];
                for (c, v) in a.diag.row_iter(i) {
                    for j in 0..m {
                        acc[j] += v * xd[c * kk + j0 + j];
                    }
                }
                // Interior rows have no offd entries; skipping their empty
                // accumulator keeps a `-0.0` row sum what it is.
                if let Some(ext) = ext {
                    let mut off = [0.0f64; 8];
                    for (e, v) in a.offd.row_iter(i) {
                        for j in 0..m {
                            off[j] += v * ext[e * kk + j0 + j];
                        }
                    }
                    for j in 0..m {
                        acc[j] += off[j];
                    }
                }
                yd[i * kk + j0..i * kk + j0 + m].copy_from_slice(&acc[..m]);
            });
        }
    }
    if k == 0 {
        return Ok(());
    }
    let mut halo = plan.post_rows(comm, xd, k);
    if !overlap {
        halo.complete(comm);
    }
    lanes!(k, rows(a, &a.interior_rows, xd, None, k, yd));
    let x_ext = halo.finish(comm);
    lanes!(k, rows(a, &a.boundary_rows, xd, Some(&x_ext), k, yd));
    Ok(())
}

/// `R = B - A X` over `k`-interleaved blocks with one halo exchange for
/// all columns and no reduction — what a V-cycle level needs.
#[allow(clippy::too_many_arguments)]
pub fn try_dist_residual_rows(
    comm: &Comm,
    a: &ParCsr,
    plan: &VectorExchange,
    xd: &[f64],
    bd: &[f64],
    rd: &mut [f64],
    k: usize,
    overlap: bool,
) -> Result<(), SolveError> {
    check_kernel_dims(a, plan, xd.len(), k)?;
    dim(a.local_rows() * k, bd.len(), "local right-hand side")?;
    dim(a.local_rows() * k, rd.len(), "local residual")?;
    #[allow(clippy::too_many_arguments)]
    fn rows<const K: usize>(
        a: &ParCsr,
        rows: &[usize],
        xd: &[f64],
        ext: Option<&[f64]>,
        bd: &[f64],
        k: usize,
        rd: &mut [f64],
    ) {
        let kk = width::<K>(k);
        for &i in rows {
            lane_groups::<K>(k, |j0, m| {
                let at = i * kk + j0;
                let mut acc = [0.0f64; 8];
                acc[..m].copy_from_slice(&bd[at..at + m]);
                for (c, v) in a.diag.row_iter(i) {
                    for j in 0..m {
                        acc[j] -= v * xd[c * kk + j0 + j];
                    }
                }
                if let Some(ext) = ext {
                    for (e, v) in a.offd.row_iter(i) {
                        for j in 0..m {
                            acc[j] -= v * ext[e * kk + j0 + j];
                        }
                    }
                }
                rd[at..at + m].copy_from_slice(&acc[..m]);
            });
        }
    }
    if k == 0 {
        return Ok(());
    }
    let mut halo = plan.post_rows(comm, xd, k);
    if !overlap {
        halo.complete(comm);
    }
    lanes!(k, rows(a, &a.interior_rows, xd, None, bd, k, rd));
    let x_ext = halo.finish(comm);
    lanes!(k, rows(a, &a.boundary_rows, xd, Some(&x_ext), bd, k, rd));
    Ok(())
}

/// [`try_dist_residual_rows`] plus the per-column global `‖r_j‖²`. The
/// local norm pass runs over `r` in ascending row order whatever order
/// the rows were produced in — so synchronous and overlapped runs, and
/// every width per column, are bitwise equal — and one all-reduce
/// finishes all `k` norms, so the collective count is independent of `k`.
#[allow(clippy::too_many_arguments)]
pub fn try_dist_residual_norm_sq_rows(
    comm: &Comm,
    a: &ParCsr,
    plan: &VectorExchange,
    xd: &[f64],
    bd: &[f64],
    rd: &mut [f64],
    k: usize,
    overlap: bool,
    norms_sq: &mut [f64],
) -> Result<(), SolveError> {
    try_dist_residual_rows(comm, a, plan, xd, bd, rd, k, overlap)?;
    dim(k, norms_sq.len(), "norm lanes")?;
    dot_rows_seq(rd, rd, k, norms_sq);
    allreduce_lanes(comm, norms_sq, 0x40);
    Ok(())
}

/// Distributed per-column dot products of two `k`-interleaved blocks (one
/// all-reduce at any width): `out[j] = x[:,j] · y[:,j]` globally.
pub fn dist_dot_rows(comm: &Comm, xd: &[f64], yd: &[f64], k: usize, out: &mut [f64]) {
    dot_rows_seq(xd, yd, k, out);
    allreduce_lanes(comm, out, 0x41);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_ranks;
    use crate::parcsr::default_partition;
    use famg_matgen::{laplace2d, rhs};
    use famg_sparse::MultiVec;

    /// The `k = 1` lane of [`dist_dot_rows`].
    fn dist_dot(comm: &Comm, x: &[f64], y: &[f64]) -> f64 {
        let mut out = [0.0];
        dist_dot_rows(comm, x, y, 1, &mut out);
        out[0]
    }

    #[test]
    fn dist_spmv_matches_serial() {
        // The dist K = 1 lane against the sequential serial oracle, at
        // several rank counts and in both halo modes.
        let a = laplace2d(10, 10);
        let n = a.nrows();
        let x = rhs::random(n, 3);
        let mut y_ref = vec![0.0; n];
        famg_sparse::spmv::spmv_seq(&a, &x, &mut y_ref);
        for nranks in [1usize, 2, 3, 4, 5] {
            for overlap in [false, true] {
                let starts = default_partition(n, nranks);
                let (results, _) = run_ranks(nranks, |c| {
                    let r = c.rank();
                    let p =
                        ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
                    let xl = x[starts[r]..starts[r + 1]].to_vec();
                    let plan = VectorExchange::plan(c, &p.colmap, &starts);
                    let mut y = vec![0.0; p.local_rows()];
                    try_dist_spmv(c, &p, &plan, &xl, &mut y, overlap).unwrap();
                    y
                });
                let y: Vec<f64> = results.concat();
                for (u, v) in y.iter().zip(&y_ref) {
                    assert!((u - v).abs() < 1e-12, "nranks {nranks} overlap {overlap}");
                }
            }
        }
    }

    #[test]
    fn dist_residual_matches_serial() {
        let a = laplace2d(9, 7);
        let n = a.nrows();
        let x = rhs::random(n, 5);
        let b = rhs::random(n, 6);
        // Serial oracle: sequential SpMV, then a plain loop.
        let mut r_ref = vec![0.0; n];
        famg_sparse::spmv::spmv_seq(&a, &x, &mut r_ref);
        for (ri, bi) in r_ref.iter_mut().zip(&b) {
            *ri = bi - *ri;
        }
        let norm_ref: f64 = r_ref.iter().map(|v| v * v).sum();
        for nranks in [1usize, 2, 3, 4] {
            for overlap in [false, true] {
                let starts = default_partition(n, nranks);
                let (results, _) = run_ranks(nranks, |c| {
                    let rk = c.rank();
                    let (s, e) = (starts[rk], starts[rk + 1]);
                    let p = ParCsr::from_global_rows(&a, s, e, starts.clone(), rk);
                    let plan = VectorExchange::plan(c, &p.colmap, &starts);
                    let mut r = vec![0.0; p.local_rows()];
                    let mut nsq = [0.0];
                    try_dist_residual_norm_sq_rows(
                        c,
                        &p,
                        &plan,
                        &x[s..e],
                        &b[s..e],
                        &mut r,
                        1,
                        overlap,
                        &mut nsq,
                    )
                    .unwrap();
                    (nsq[0], r)
                });
                for (nsq, _) in &results {
                    assert!((nsq - norm_ref).abs() < 1e-9 * norm_ref.max(1.0));
                }
                let r: Vec<f64> = results.into_iter().flat_map(|(_, r)| r).collect();
                for (u, v) in r.iter().zip(&r_ref) {
                    assert!((u - v).abs() < 1e-12, "nranks {nranks} overlap {overlap}");
                }
            }
        }
    }

    /// Block SpMV/residual/dot: each column bitwise identical to the
    /// single-vector call at every lane width, in both halo modes, with
    /// the message count of a single exchange.
    #[test]
    fn dist_multi_kernels_bitwise_match_scalar_columns() {
        let a = laplace2d(10, 8);
        let n = a.nrows();
        for k in [1usize, 2, 3, 4, 8, 9] {
            let cols_x: Vec<Vec<f64>> = (0..k).map(|j| rhs::random(n, 20 + j as u64)).collect();
            let cols_b: Vec<Vec<f64>> = (0..k).map(|j| rhs::random(n, 30 + j as u64)).collect();
            for nranks in [1usize, 2, 4] {
                let starts = default_partition(n, nranks);
                for overlap in [false, true] {
                    run_ranks(nranks, |c| {
                        let rk = c.rank();
                        let (s, e) = (starts[rk], starts[rk + 1]);
                        let p = ParCsr::from_global_rows(&a, s, e, starts.clone(), rk);
                        let plan = VectorExchange::plan(c, &p.colmap, &starts);
                        let xl_cols: Vec<Vec<f64>> =
                            cols_x.iter().map(|cx| cx[s..e].to_vec()).collect();
                        let bl_cols: Vec<Vec<f64>> =
                            cols_b.iter().map(|cb| cb[s..e].to_vec()).collect();
                        let xm = MultiVec::from_columns(&xl_cols);
                        let bm = MultiVec::from_columns(&bl_cols);
                        let nl = p.local_rows();
                        let tag = format!("k {k} nranks {nranks} rank {rk} overlap {overlap}");

                        let before = c.messages_sent();
                        let mut ym = MultiVec::new(nl, k);
                        try_dist_spmv_rows(c, &p, &plan, xm.data(), k, ym.data_mut(), overlap)
                            .unwrap();
                        let multi_msgs = c.messages_sent() - before;
                        let mut rm = MultiVec::new(nl, k);
                        let mut norms = vec![0.0; k];
                        try_dist_residual_norm_sq_rows(
                            c,
                            &p,
                            &plan,
                            xm.data(),
                            bm.data(),
                            rm.data_mut(),
                            k,
                            overlap,
                            &mut norms,
                        )
                        .unwrap();
                        let mut dots = vec![0.0; k];
                        dist_dot_rows(c, xm.data(), bm.data(), k, &mut dots);

                        let mut scalar_msgs = 0u64;
                        for j in 0..k {
                            let before = c.messages_sent();
                            let mut y = vec![0.0; nl];
                            try_dist_spmv(c, &p, &plan, &xl_cols[j], &mut y, overlap).unwrap();
                            scalar_msgs += c.messages_sent() - before;
                            assert_eq!(ym.col(j), y, "spmv {tag} col {j}");
                            let mut r = vec![0.0; nl];
                            let mut norm = [0.0];
                            try_dist_residual_norm_sq_rows(
                                c,
                                &p,
                                &plan,
                                &xl_cols[j],
                                &bl_cols[j],
                                &mut r,
                                1,
                                overlap,
                                &mut norm,
                            )
                            .unwrap();
                            assert_eq!(rm.col(j), r, "resid {tag} col {j}");
                            assert_eq!(norms[j].to_bits(), norm[0].to_bits(), "norm {tag} col {j}");
                            let dot = dist_dot(c, &xl_cols[j], &bl_cols[j]);
                            assert_eq!(dots[j].to_bits(), dot.to_bits(), "dot {tag} col {j}");
                        }
                        assert_eq!(multi_msgs, scalar_msgs / k as u64, "{tag} message count");
                    });
                }
            }
        }
    }

    #[test]
    fn dist_dot_and_norm() {
        let x = rhs::random(30, 1);
        let y = rhs::random(30, 2);
        let d_ref = famg_sparse::vecops::dot_seq(&x, &y);
        let starts = default_partition(30, 4);
        let (results, _) = run_ranks(4, |c| {
            let r = c.rank();
            let xl = &x[starts[r]..starts[r + 1]];
            let yl = &y[starts[r]..starts[r + 1]];
            (dist_dot(c, xl, yl), dist_dot(c, xl, xl).sqrt())
        });
        let n_ref = famg_sparse::vecops::norm2(&x);
        for (d, n) in results {
            assert!((d - d_ref).abs() < 1e-12 * d_ref.abs().max(1.0));
            assert!((n - n_ref).abs() < 1e-12 * n_ref.max(1.0));
        }
    }
}
