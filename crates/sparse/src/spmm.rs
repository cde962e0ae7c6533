//! Sparse matrix × block-vector products: the solve phase's one family of
//! matrix kernels.
//!
//! One traversal of a matrix row advances all `k` columns of a row-major
//! interleaved block (see [`crate::multivec`]), so the CSR index/value
//! streams — the bandwidth cost of an SpMV — are read once instead of `k`
//! times. The `*_rows` functions take the block as `(data, k)`; a plain
//! `&[f64]` is the `k = 1` block, and [`crate::spmv`]'s single-vector
//! kernels are exactly those calls. Each kernel dispatches once on the
//! lane width ([`lanes!`](crate::lanes), k ∈ {1, 2, 4, 8} monomorphized
//! with fixed-width accumulator arrays the compiler keeps in registers —
//! the paper's 8×-unroll idea (§3.1.1) with genuine data-parallel work per
//! stored entry) and runs its row loop inside the chosen arm.
//!
//! Determinism contract: per lane, every width walks a row's stored
//! entries in the same ascending order, and the fused norms use the same
//! 4096-row chunking and linear chunk-order fold — column `j` of a
//! `k`-wide result is bitwise the `k = 1` result on that column.

use crate::csr::Csr;
use crate::lanes;
use crate::multivec::{
    add_chunk_dots_strided, add_partials, width, MultiVec, CHUNK, PARTIAL_SLOTS,
};
use rayon::prelude::*;

/// Minimum rows before a kernel goes parallel.
pub(crate) const PAR_THRESHOLD: usize = 512;

/// `Σ_c a[i,c] * x[c,j]` for the `K` lanes of row `i`, walking the row's
/// stored entries in ascending order from zero accumulators.
#[inline(always)]
fn row_acc<const K: usize>(a: &Csr, i: usize, xd: &[f64]) -> [f64; K] {
    let mut acc = [0.0f64; K];
    for (c, v) in a.row_iter(i) {
        let b = c * K;
        for j in 0..K {
            acc[j] += v * xd[b + j];
        }
    }
    acc
}

/// [`row_acc`] into `out`, with a dynamic-width fallback for `K == 0` that
/// accumulates in `out` itself (so any width works without scratch).
#[inline(always)]
fn row_dots<const K: usize>(a: &Csr, i: usize, xd: &[f64], k: usize, out: &mut [f64]) {
    if K != 0 {
        out[..K].copy_from_slice(&row_acc::<K>(a, i, xd));
    } else {
        out.fill(0.0);
        for (c, v) in a.row_iter(i) {
            for (oj, xj) in out.iter_mut().zip(&xd[c * k..]) {
                *oj += v * xj;
            }
        }
    }
}

/// Runs `block(first_row, rows)` over the `k`-interleaved block `yd`: once
/// below `PAR_THRESHOLD` (512) rows, otherwise in parallel over blocks of
/// that many rows (rows are a handful of flops each; coarse blocks keep
/// the pool's bookkeeping out of the bandwidth-bound inner loop). `block`
/// should be a plain function over its rows, so the row loop is compiled
/// with the width — and the no-alias facts of its arguments — in hand.
#[inline]
pub fn for_row_blocks<const K: usize>(
    yd: &mut [f64],
    k: usize,
    block: impl Fn(usize, &mut [f64]) + Send + Sync,
) {
    let kk = width::<K>(k);
    if yd.len() / kk < PAR_THRESHOLD {
        block(0, yd);
    } else {
        yd.par_chunks_mut(PAR_THRESHOLD * kk)
            .enumerate()
            .for_each(|(bi, rows)| block(bi * PAR_THRESHOLD, rows));
    }
}

/// `Y = A * X` over interleaved block vectors.
pub fn spmm(a: &Csr, x: &MultiVec, y: &mut MultiVec) {
    assert_eq!(x.k(), y.k());
    spmm_rows(a, x.data(), x.k(), y.data_mut());
}

/// `Y = A * X` on raw interleaved slices (`k` lanes per row).
pub fn spmm_rows(a: &Csr, xd: &[f64], k: usize, yd: &mut [f64]) {
    assert_eq!(xd.len(), a.ncols() * k); // PANIC-FREE: shape guard; solve buffers are sized at setup.
    assert_eq!(yd.len(), a.nrows() * k); // PANIC-FREE: see above.
    fn block<const K: usize>(a: &Csr, xd: &[f64], k: usize, first: usize, rows: &mut [f64]) {
        for (o, yr) in rows.chunks_exact_mut(width::<K>(k)).enumerate() {
            row_dots::<K>(a, first + o, xd, k, yr);
        }
    }
    fn run<const K: usize>(a: &Csr, xd: &[f64], k: usize, yd: &mut [f64]) {
        for_row_blocks::<K>(yd, k, |first, rows| block::<K>(a, xd, k, first, rows));
    }
    if k != 0 {
        lanes!(k, run(a, xd, k, yd));
    }
}

/// `Y = alpha * A * X + beta * Y` on raw interleaved slices.
pub fn spmm_axpby_rows(a: &Csr, alpha: f64, xd: &[f64], beta: f64, k: usize, yd: &mut [f64]) {
    assert_eq!(xd.len(), a.ncols() * k); // PANIC-FREE: shape guard; solve buffers are sized at setup.
    assert_eq!(yd.len(), a.nrows() * k); // PANIC-FREE: see above.
    #[allow(clippy::too_many_arguments)]
    fn block<const K: usize>(
        a: &Csr,
        alpha: f64,
        xd: &[f64],
        beta: f64,
        k: usize,
        first: usize,
        rows: &mut [f64],
    ) {
        for (o, yr) in rows.chunks_exact_mut(width::<K>(k)).enumerate() {
            let i = first + o;
            if K != 0 {
                let v = row_acc::<K>(a, i, xd);
                for j in 0..K {
                    yr[j] = alpha * v[j] + beta * yr[j];
                }
            } else if k <= 8 {
                let mut v = [0.0f64; 8];
                row_dots::<0>(a, i, xd, k, &mut v[..k]);
                for (yj, vj) in yr.iter_mut().zip(&v) {
                    *yj = alpha * vj + beta * *yj;
                }
            } else {
                // Wide fallback: one traversal per column keeps the same
                // ascending per-entry order without heap scratch.
                for (j, yj) in yr.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for (c, w) in a.row_iter(i) {
                        acc += w * xd[c * k + j];
                    }
                    *yj = alpha * acc + beta * *yj;
                }
            }
        }
    }
    fn run<const K: usize>(a: &Csr, alpha: f64, xd: &[f64], beta: f64, k: usize, yd: &mut [f64]) {
        for_row_blocks::<K>(yd, k, |first, rows| {
            block::<K>(a, alpha, xd, beta, k, first, rows);
        });
    }
    if k != 0 {
        lanes!(k, run(a, alpha, xd, beta, k, yd));
    }
}

/// Fused residual on raw interleaved slices: `R = B - A*X` with the
/// per-column `||r_j||²` written to `norms_sq` in the same sweep, so the
/// residual is produced and consumed while still in registers/cache
/// (§3.3). Rows are reduced in fixed 4096-row chunks whose partials sit in
/// a stack buffer and fold linearly in chunk order — deterministic for
/// every pool size, and allocation-free.
pub fn residual_rows(
    a: &Csr,
    xd: &[f64],
    bd: &[f64],
    rd: &mut [f64],
    k: usize,
    norms_sq: &mut [f64],
) {
    assert_eq!(xd.len(), a.ncols() * k); // PANIC-FREE: shape guard; solve buffers are sized at setup.
    assert_eq!(bd.len(), a.nrows() * k); // PANIC-FREE: see above.
    assert_eq!(rd.len(), a.nrows() * k); // PANIC-FREE: see above.
    assert_eq!(norms_sq.len(), k); // PANIC-FREE: see above.
    norms_sq.fill(0.0);
    if k != 0 {
        lanes!(k, residual_rows_k(a, xd, bd, rd, k, norms_sq));
    }
}

/// One 4096-row chunk of the fused residual: rows `first..` of `R = B -
/// A*X` into `rc`, their squares summed per lane in row order into the
/// zeroed `acc`. Monomorphized widths keep a row's residual and the
/// running sums in registers; the dynamic arm uses the residual row itself
/// as the row-dot scratch, so any width works without per-row scratch.
#[inline]
fn residual_chunk<const K: usize>(
    a: &Csr,
    xd: &[f64],
    bd: &[f64],
    k: usize,
    first: usize,
    rc: &mut [f64],
    acc: &mut [f64],
) {
    let kk = width::<K>(k);
    let bc = bd[first * kk..first * kk + rc.len()].chunks_exact(kk);
    let mut lanes_sq = [0.0f64; K];
    for (o, (rr, br)) in rc.chunks_exact_mut(kk).zip(bc).enumerate() {
        if K != 0 {
            let ax = row_acc::<K>(a, first + o, xd);
            for j in 0..K {
                let r = br[j] - ax[j];
                rr[j] = r;
                lanes_sq[j] += r * r;
            }
        } else {
            row_dots::<0>(a, first + o, xd, k, rr);
            for ((rj, bj), aj) in rr.iter_mut().zip(br).zip(acc.iter_mut()) {
                *rj = bj - *rj;
                *aj += *rj * *rj;
            }
        }
    }
    if K != 0 {
        acc[..K].copy_from_slice(&lanes_sq);
    }
}

fn residual_rows_k<const K: usize>(
    a: &Csr,
    xd: &[f64],
    bd: &[f64],
    rd: &mut [f64],
    k: usize,
    norms_sq: &mut [f64],
) {
    let kk = width::<K>(k);
    if a.nrows() < PAR_THRESHOLD {
        residual_chunk::<K>(a, xd, bd, k, 0, rd, norms_sq);
        return;
    }
    // Wider than the partial buffer (a dynamic width): chunks in sequence,
    // each lane's chunk partial summed by a strided pass and folded in the
    // same order.
    if kk > PARTIAL_SLOTS {
        for (ci, rc) in rd.chunks_mut(CHUNK * kk).enumerate() {
            let bc = bd[ci * CHUNK * kk..].chunks_exact(kk);
            for (o, (rr, br)) in rc.chunks_exact_mut(kk).zip(bc).enumerate() {
                row_dots::<0>(a, ci * CHUNK + o, xd, kk, rr);
                for (rj, bj) in rr.iter_mut().zip(br) {
                    *rj = bj - *rj;
                }
            }
            add_chunk_dots_strided(rc, rc, kk, norms_sq);
        }
        return;
    }
    let mut partials = [0.0f64; PARTIAL_SLOTS];
    let block_rows = PARTIAL_SLOTS / kk * CHUNK;
    for (bi, rb) in rd.chunks_mut(block_rows * kk).enumerate() {
        let p = &mut partials[..(rb.len() / kk).div_ceil(CHUNK) * kk];
        p.fill(0.0);
        p.par_chunks_mut(kk)
            .zip(rb.par_chunks_mut(CHUNK * kk))
            .enumerate()
            .for_each(|(ci, (acc, rc))| {
                residual_chunk::<K>(a, xd, bd, k, bi * block_rows + ci * CHUNK, rc, acc);
            });
        add_partials(norms_sq, p);
    }
}

/// Prolongation-and-correct with a CF-permuted `P = [I; P_F]` on raw
/// interleaved slices (the V-cycle update): `XF += [I; P_F] * XC`. `pf` is
/// the fine-rows-only block with `nrows = n - nc`.
pub fn interp_apply_add_rows(pf: &Csr, nc: usize, xcd: &[f64], k: usize, xfd: &mut [f64]) {
    assert_eq!(xcd.len(), nc * k); // PANIC-FREE: shape guard; solve buffers are sized at setup.
    assert_eq!(pf.ncols(), nc); // PANIC-FREE: see above.
    assert_eq!(xfd.len(), (nc + pf.nrows()) * k); // PANIC-FREE: see above.
    let (coarse, fine) = xfd.split_at_mut(nc * k);
    for (o, c) in coarse.iter_mut().zip(xcd) {
        *o += c;
    }
    spmm_axpby_rows(pf, 1.0, xcd, 1.0, k, fine);
}

/// Restriction with a CF-permuted `R = [I  P_Fᵀ]` on raw interleaved
/// slices: `XC = XF[0..nc] + P_Fᵀ * XF[nc..]`. `rf` must be `P_Fᵀ` stored
/// explicitly (kept from the setup phase — the paper's "keep the
/// transpose" optimization).
pub fn restrict_apply_rows(rf: &Csr, nc: usize, xfd: &[f64], k: usize, xcd: &mut [f64]) {
    assert_eq!(rf.nrows(), nc); // PANIC-FREE: shape guard; solve buffers are sized at setup.
    assert_eq!(xfd.len(), (nc + rf.ncols()) * k); // PANIC-FREE: see above.
    assert_eq!(xcd.len(), nc * k); // PANIC-FREE: see above.
    xcd.copy_from_slice(&xfd[..nc * k]);
    spmm_axpby_rows(rf, 1.0, &xfd[nc * k..], 1.0, k, xcd);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv;
    use crate::testutil::{chunked_dot, wave, WIDTHS};

    fn random_csr(nrows: usize, ncols: usize, seed: u64) -> Csr {
        crate::testutil::random_csr(nrows, ncols, 4, seed)
    }

    /// `||r||²` the way the fused kernels fold it.
    fn norm_sq_oracle(r: &[f64]) -> f64 {
        chunked_dot(r, r, PAR_THRESHOLD)
    }

    #[test]
    fn spmm_bitwise_matches_solo_spmv_per_column() {
        // Below and above PAR_THRESHOLD; every lane arm; the oracle is the
        // sequential single-vector kernel, not the k = 1 lane.
        for n in [60, 700, 2000] {
            for k in WIDTHS {
                let a = random_csr(n, n, 11);
                let cols: Vec<Vec<f64>> = (0..k).map(|j| wave(n, j)).collect();
                let x = MultiVec::from_columns(&cols);
                let mut y = MultiVec::new(n, k);
                spmm(&a, &x, &mut y);
                for (j, col) in cols.iter().enumerate() {
                    let mut solo = vec![0.0; n];
                    spmv::spmv_seq(&a, col, &mut solo);
                    assert_eq!(y.col(j), solo, "n={n} k={k} col {j}");
                }
            }
        }
    }

    #[test]
    fn spmm_axpby_bitwise_matches_solo() {
        for n in [50, 900, 1800] {
            for k in WIDTHS {
                let a = random_csr(n, n, 5);
                let xc: Vec<Vec<f64>> = (0..k).map(|j| wave(n, j)).collect();
                let yc: Vec<Vec<f64>> = (0..k).map(|j| wave(n, j + k)).collect();
                let x = MultiVec::from_columns(&xc);
                let mut y = MultiVec::from_columns(&yc);
                spmm_axpby_rows(&a, 1.5, x.data(), -0.5, k, y.data_mut());
                for j in 0..k {
                    let mut ax = vec![0.0; n];
                    spmv::spmv_seq(&a, &xc[j], &mut ax);
                    let solo: Vec<f64> = ax
                        .iter()
                        .zip(&yc[j])
                        .map(|(v, y0)| 1.5 * v + -0.5 * y0)
                        .collect();
                    assert_eq!(y.col(j), solo, "n={n} k={k} col {j}");
                }
            }
        }
    }

    #[test]
    fn spmm_dots_bitwise_matches_residual_norm_sq() {
        // 100 rows: sequential fold; 5000 and 9000: chunked fold with a
        // ragged last chunk.
        for n in [100, 5000, 9000] {
            for k in WIDTHS {
                let a = random_csr(n, n, 23);
                let xc: Vec<Vec<f64>> = (0..k).map(|j| wave(n, j)).collect();
                let bc: Vec<Vec<f64>> = (0..k).map(|j| wave(n, j + 17)).collect();
                let x = MultiVec::from_columns(&xc);
                let b = MultiVec::from_columns(&bc);
                let mut r = MultiVec::new(n, k);
                let mut norms = vec![0.0; k];
                residual_rows(&a, x.data(), b.data(), r.data_mut(), k, &mut norms);
                for j in 0..k {
                    let mut rs = vec![0.0; n];
                    spmv::spmv_seq(&a, &xc[j], &mut rs);
                    for (ri, bi) in rs.iter_mut().zip(&bc[j]) {
                        *ri = bi - *ri;
                    }
                    assert_eq!(r.col(j), rs, "residual n={n} k={k} col {j}");
                    assert_eq!(
                        norms[j].to_bits(),
                        norm_sq_oracle(&rs).to_bits(),
                        "norm n={n} k={k} col {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn residual_wider_than_the_partial_buffer() {
        // k > PARTIAL_SLOTS takes the chunk-sequential path; same fold.
        let (n, k) = (CHUNK + 40, PARTIAL_SLOTS + 1);
        let a = random_csr(n, n, 31);
        let xc: Vec<Vec<f64>> = (0..k).map(|j| wave(n, j)).collect();
        let x = MultiVec::from_columns(&xc);
        let b = MultiVec::from_columns(&xc);
        let mut r = MultiVec::new(n, k);
        let mut norms = vec![0.0; k];
        residual_rows(&a, x.data(), b.data(), r.data_mut(), k, &mut norms);
        for j in [0, 7, k - 1] {
            let mut rs = vec![0.0; n];
            spmv::spmv_seq(&a, &xc[j], &mut rs);
            for (ri, bi) in rs.iter_mut().zip(&xc[j]) {
                *ri = bi - *ri;
            }
            assert_eq!(r.col(j), rs, "col {j}");
            assert_eq!(norms[j].to_bits(), norm_sq_oracle(&rs).to_bits());
        }
    }

    #[test]
    fn identity_block_variants_bitwise_match_solo() {
        let nc = 400;
        let nf = 700;
        let pf = random_csr(nf, nc, 3);
        let rf = crate::transpose::transpose(&pf);
        for k in WIDTHS {
            let xcc: Vec<Vec<f64>> = (0..k).map(|j| wave(nc, j)).collect();
            let xfc: Vec<Vec<f64>> = (0..k).map(|j| wave(nc + nf, j + 9)).collect();
            let xc = MultiVec::from_columns(&xcc);

            // Oracles: identity block by hand, fine rows by `spmv_seq`.
            let mut xf2 = MultiVec::from_columns(&xfc);
            interp_apply_add_rows(&pf, nc, xc.data(), k, xf2.data_mut());
            let xfv = MultiVec::from_columns(&xfc);
            let mut out = MultiVec::new(nc, k);
            restrict_apply_rows(&rf, nc, xfv.data(), k, out.data_mut());
            for j in 0..k {
                let mut fine = vec![0.0; nf];
                spmv::spmv_seq(&pf, &xcc[j], &mut fine);
                let added: Vec<f64> = xfc[j][..nc]
                    .iter()
                    .zip(&xcc[j])
                    .map(|(o, c)| o + c)
                    .chain(
                        xfc[j][nc..]
                            .iter()
                            .zip(&fine)
                            .map(|(o, v)| 1.0 * v + 1.0 * o),
                    )
                    .collect();
                assert_eq!(xf2.col(j), added, "interp_add k={k} col {j}");

                let mut coarse = vec![0.0; nc];
                spmv::spmv_seq(&rf, &xfc[j][nc..], &mut coarse);
                let restricted: Vec<f64> = xfc[j][..nc]
                    .iter()
                    .zip(&coarse)
                    .map(|(o, v)| 1.0 * v + 1.0 * o)
                    .collect();
                assert_eq!(out.col(j), restricted, "restrict k={k} col {j}");
            }
        }
    }
}
