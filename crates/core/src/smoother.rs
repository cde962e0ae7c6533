//! The smoother (§3.2): C-F hybrid Gauss-Seidel in its reordered form
//! (Fig. 2b). The branchy form it replaces (Fig. 2a) is part of
//! `famg_bench::baseline`.
//!
//! Hybrid GS performs true Gauss-Seidel within each parallel task and
//! Jacobi across tasks: own-task columns are read live from `x`, other-task
//! columns from a pre-sweep snapshot (honouring the write-after-read
//! dependency across tasks). The kernel knows which columns those are
//! (`GsPartition::ext_cols`) and snapshots only them. C-F relaxation
//! smooths coarse points then fine points in pre-smoothing and the
//! reverse in post-smoothing.
#![deny(unsafe_op_in_unsafe_fn)]

use crate::reorder::{GsPartition, ThreadOwnership};
use famg_sparse::multivec::{gather_col, scatter_col, width};
use famg_sparse::permute::RowOrder;
use famg_sparse::{lanes, Csr, MultiVec};
use std::ops::Range;

/// Reusable scratch buffers for smoothing (one per solve context).
#[derive(Debug, Default)]
pub struct Workspace {
    /// Pre-sweep snapshot of the iterate (`n * k` lanes), grown on demand.
    /// The hybrid GS refreshes only the entries it reads, so the rest may
    /// be stale (an earlier sweep's, or another level's).
    temp: Vec<f64>,
    /// Column-extraction scratch for the extract-column fallback.
    col_b: Vec<f64>,
    /// Column-extraction scratch for the extract-column fallback.
    col_x: Vec<f64>,
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on demand.
    pub fn new() -> Self {
        Workspace::default()
    }

    fn temp(&mut self, n: usize) -> &mut Vec<f64> {
        if self.temp.len() < n {
            self.temp.resize(n, 0.0);
        }
        &mut self.temp
    }
}

/// Raw shared pointer for disjoint-by-ownership writes to `x` across
/// scoped threads.
struct XPtr(*mut f64);
// SAFETY: every kernel sharing an XPtr across threads partitions the
// row indices so no element is written by more than one thread, and no
// element is read by one thread while written by another within a
// parallel phase (own-block reads are live, cross-block reads go
// through a snapshot).
unsafe impl Sync for XPtr {}

/// Which point class a half-sweep processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// All rows.
    All,
    /// Coarse rows only.
    Coarse,
    /// Fine rows only.
    Fine,
}

/// A smoother instance bound to one multigrid level's matrix: hybrid GS
/// over a CF-permuted matrix with rows pre-partitioned into
/// `[diag | own-lower | own-upper | ext]`.
#[derive(Debug, Clone)]
pub struct Smoother {
    /// Row partition and ownership data built by
    /// [`crate::reorder::partition_rows_gs`].
    pub part: GsPartition,
}

fn recip_diag(i: usize, d: f64) -> f64 {
    assert!(d != 0.0, "zero diagonal in row {i}");
    1.0 / d
}

impl Smoother {
    /// Optimized hybrid GS: reorders `a`'s rows in place (Fig. 2b
    /// partition) against a fresh [`ThreadOwnership`].
    pub fn hybrid_opt(a: &mut Csr, nc: usize, nthreads: usize) -> Self {
        Self::hybrid_opt_recording(a, nc, nthreads, None)
    }

    /// [`Smoother::hybrid_opt`], recording into `order` the in-row order
    /// `a` had before (see [`crate::reorder::partition_rows_gs`]).
    pub(crate) fn hybrid_opt_recording(
        a: &mut Csr,
        nc: usize,
        nthreads: usize,
        order: Option<&mut RowOrder>,
    ) -> Self {
        let own = ThreadOwnership::build(a, nc, nthreads);
        let part = crate::reorder::partition_rows_gs(a, nc, &own, order);
        Smoother { part }
    }

    /// Recomputes the reciprocal diagonal from `a`'s values, the only part
    /// of the smoother that depends on them: its row partition is the
    /// pattern's. `a` is the operator the smoother was built over, with new
    /// values.
    ///
    /// # Panics
    /// On a zero diagonal, like the constructor.
    pub fn refill_diagonal(&mut self, a: &Csr) {
        let dinv = &mut self.part.dinv;
        assert_eq!(dinv.len(), a.nrows());
        // The partition put each row's diagonal first.
        for (i, d) in dinv.iter_mut().enumerate() {
            *d = recip_diag(i, a.values()[a.rowptr()[i]]);
        }
    }

    /// Pre-smoothing: C then F relaxation. `x_is_zero` enables the
    /// zero-initial-guess skip (§3.2).
    pub fn pre_smooth(
        &self,
        a: &Csr,
        b: &[f64],
        x: &mut [f64],
        ws: &mut Workspace,
        x_is_zero: bool,
    ) {
        self.pre_smooth_rows(a, b, x, 1, ws, x_is_zero);
    }

    /// One half-sweep over the given class.
    pub fn sweep(
        &self,
        a: &Csr,
        b: &[f64],
        x: &mut [f64],
        ws: &mut Workspace,
        class: Class,
        x_is_zero: bool,
    ) {
        self.sweep_rows(a, b, x, 1, ws, class, x_is_zero);
    }

    /// [`Smoother::pre_smooth`] over `k` interleaved columns.
    pub fn pre_smooth_batch(
        &self,
        a: &Csr,
        b: &MultiVec,
        x: &mut MultiVec,
        ws: &mut Workspace,
        x_is_zero: bool,
    ) {
        assert_eq!(x.k(), b.k());
        self.pre_smooth_rows(a, b.data(), x.data_mut(), b.k(), ws, x_is_zero);
    }

    /// Pre-smoothing of a `k`-interleaved block `(xd, k)` — a plain vector
    /// is the `k = 1` block: C then F relaxation.
    pub fn pre_smooth_rows(
        &self,
        a: &Csr,
        bd: &[f64],
        xd: &mut [f64],
        k: usize,
        ws: &mut Workspace,
        x_is_zero: bool,
    ) {
        self.sweep_rows(a, bd, xd, k, ws, Class::Coarse, x_is_zero);
        self.sweep_rows(a, bd, xd, k, ws, Class::Fine, false);
    }

    /// Post-smoothing of a `k`-interleaved block: F then C relaxation.
    pub fn post_smooth_rows(
        &self,
        a: &Csr,
        bd: &[f64],
        xd: &mut [f64],
        k: usize,
        ws: &mut Workspace,
    ) {
        self.sweep_rows(a, bd, xd, k, ws, Class::Fine, false);
        self.sweep_rows(a, bd, xd, k, ws, Class::Coarse, false);
    }

    /// One half-sweep over a `k`-interleaved block. The kernel advances all
    /// lanes per matrix-row traversal (k ≤ 8, monomorphized for
    /// k ∈ {1, 2, 4, 8}); a batch wider than 8 runs the single-vector
    /// kernel per extracted column.
    pub fn sweep_rows(
        &self,
        a: &Csr,
        bd: &[f64],
        xd: &mut [f64],
        k: usize,
        ws: &mut Workspace,
        class: Class,
        x_is_zero: bool,
    ) {
        let n = a.nrows();
        assert_eq!(bd.len(), n * k); // PANIC-FREE: shape asserts guard caller contract violations at the public smoother boundary (checked once per sweep).
        assert_eq!(xd.len(), n * k); // PANIC-FREE: see above.
        if k == 0 {
            return;
        }
        if k > 8 {
            // Extract-column fallback: the `k = 1` sweep per column
            // (bitwise the solo path by construction).
            let mut cb = std::mem::take(&mut ws.col_b);
            let mut cx = std::mem::take(&mut ws.col_x);
            cb.resize(n, 0.0);
            cx.resize(n, 0.0);
            for j in 0..k {
                gather_col(bd, k, j, &mut cb[..n]);
                gather_col(xd, k, j, &mut cx[..n]);
                self.sweep_rows(a, &cb[..n], &mut cx[..n], 1, ws, class, x_is_zero);
                scatter_col(xd, k, j, &cx[..n]);
            }
            ws.col_b = cb;
            ws.col_x = cx;
            return;
        }
        let part = &self.part;
        // The zero-guess skip only applies to the coarse sweep: its rows
        // then read own-lower entries alone, never the snapshot.
        let x_is_zero = x_is_zero && class == Class::Coarse;
        let temp = ws.temp(n * k);
        if !x_is_zero {
            snapshot_ext(part, xd, k, temp);
        }
        let temp = &ws.temp[..n * k];
        let p = XPtr(xd.as_mut_ptr());
        let nt = part.own.nthreads();
        rayon::scope(|s| {
            for t in 0..nt {
                let (rows, extra) = match class {
                    Class::Coarse => (part.own.coarse[t].clone(), None), // ALLOC: `Range` clone is a stack copy, no heap
                    Class::Fine => (part.own.fine[t].clone(), None), // ALLOC: `Range` clone is a stack copy, no heap
                    Class::All => {
                        // ALLOC: `Range` clone is a stack copy, no heap
                        (part.own.coarse[t].clone(), Some(part.own.fine[t].clone()))
                    }
                };
                let p = &p;
                s.spawn(move |_| {
                    for rows in std::iter::once(rows).chain(extra) {
                        lanes!(k, hybrid_opt_rows(part, a, bd, p, temp, k, x_is_zero, rows));
                    }
                });
            }
        });
    }
}

/// The pre-sweep snapshot of the hybrid GS: the `k` lanes of
/// every column some row reads through `temp` (`part.ext_cols`), and
/// nothing else — whatever `temp` holds elsewhere, stale values of another
/// level included, no row of this operator looks at it.
fn snapshot_ext(part: &GsPartition, xd: &[f64], k: usize, temp: &mut [f64]) {
    for &c in &part.ext_cols {
        let c = usize::from(c);
        temp[c * k..c * k + k].copy_from_slice(&xd[c * k..c * k + k]);
    }
}

/// The hybrid GS row loop (Fig. 2b) over `K` interleaved lanes:
/// one traversal of the `[diag | own-lower | own-upper | ext]` row
/// partition advances every lane, each with the same entry order and
/// arithmetic — at `K = 1` this is the paper's scalar kernel. Own-lower
/// and own-upper both read the live iterate in stored order, so they are
/// one loop; with `x_is_zero` (coarse rows of a zero guess) only own-lower
/// entries can be nonzero and the row stops at `up_start`.
#[allow(clippy::too_many_arguments)]
fn hybrid_opt_rows<const K: usize>(
    part: &GsPartition,
    a: &Csr,
    bd: &[f64],
    p: &XPtr,
    temp: &[f64],
    k: usize,
    x_is_zero: bool,
    rows: Range<usize>,
) {
    let rowptr = a.rowptr();
    let colidx = a.colidx();
    let values = a.values();
    let kk = width::<K>(k);
    debug_assert!(kk <= 8);
    for i in rows {
        let (start, end) = (rowptr[i], rowptr[i + 1]);
        // One offset a row: where the live loop ends and the snapshot
        // loop starts.
        let (live_end, ext) = if x_is_zero {
            (start + part.up_start[i] as usize, end)
        } else {
            let ext = start + part.ext_start[i] as usize;
            (ext, ext)
        };
        let mut acc = [0.0f64; 8];
        acc[..kk].copy_from_slice(&bd[i * kk..i * kk + kk]);
        // Own columns: live x (updated below row i, pre-sweep above it).
        for e in start + 1..live_end {
            let v = values[e];
            let cb = usize::from(colidx[e]) * kk;
            for j in 0..kk {
                // SAFETY: own column, only this task writes its lanes.
                acc[j] -= v * unsafe { *p.0.add(cb + j) };
            }
        }
        // External columns: snapshot.
        for e in ext..end {
            let v = values[e];
            let cb = usize::from(colidx[e]) * kk;
            for j in 0..kk {
                acc[j] -= v * temp[cb + j];
            }
        }
        let d = part.dinv[i];
        let xb = i * kk;
        for j in 0..kk {
            // SAFETY: row i is in this task's own range; no other task
            // touches its lanes.
            unsafe { *p.0.add(xb + j) = acc[j] * d };
        }
    }
}

/// Sequential textbook Gauss-Seidel sweep (test oracle).
#[cfg(test)]
fn gauss_seidel_seq(a: &Csr, b: &[f64], x: &mut [f64]) {
    for i in 0..a.nrows() {
        let mut acc = b[i];
        let mut d = 0.0;
        for (c, v) in a.row_iter(i) {
            if c == i {
                d = v;
            } else {
                acc -= v * x[c];
            }
        }
        x[i] = acc / d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use famg_matgen::{laplace2d, rhs};
    use famg_sparse::spmv::residual_norm_sq;

    fn residual(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        residual_norm_sq(a, x, b, &mut r).sqrt()
    }

    #[test]
    fn hybrid_opt_one_task_equals_sequential_gs() {
        // Independent oracle for the K = 1 lane of the k-wide kernel: with
        // one task nothing is external, so C-then-F relaxation over the
        // CF-permuted operator is one textbook sweep in row order (the
        // Laplacian's diagonal is a power of two, so `* dinv` is `/ d`).
        let a0 = laplace2d(11, 9);
        let n = a0.nrows();
        let is_coarse: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let (mut ap, ord) = crate::reorder::cf_reorder(&a0, &is_coarse);
        let opt = Smoother::hybrid_opt(&mut ap, ord.nc, 1);
        let b = rhs::random(n, 13);
        let mut x = rhs::random(n, 14);
        let mut oracle = x.clone();
        opt.pre_smooth(&ap, &b, &mut x, &mut Workspace::new(), false);
        gauss_seidel_seq(&ap, &b, &mut oracle);
        assert_eq!(x, oracle);
    }

    /// Sequential reference for one `HybridOpt` half-sweep of a single
    /// vector: a full pre-sweep snapshot, the tasks run one after another
    /// on the calling thread, and for every stored off-diagonal entry a
    /// test against the task's two ranges decides between the live iterate
    /// and the snapshot. It reads neither `up_start`/`ext_start` nor
    /// `ext_cols`, and knows nothing of the zero-guess skip.
    fn hybrid_reference(a: &Csr, own: &ThreadOwnership, b: &[f64], x: &mut [f64], class: Class) {
        let snapshot = x.to_vec();
        for t in 0..own.nthreads() {
            let (coarse, fine) = (own.coarse[t].clone(), own.fine[t].clone());
            let rows: Vec<usize> = match class {
                Class::Coarse => coarse.clone().collect(),
                Class::Fine => fine.clone().collect(),
                Class::All => coarse.clone().chain(fine.clone()).collect(),
            };
            for i in rows {
                let mut acc = b[i];
                let mut d = 0.0;
                for (c, v) in a.row_iter(i) {
                    if c == i {
                        d = v;
                    } else if coarse.contains(&c) || fine.contains(&c) {
                        acc -= v * x[c];
                    } else {
                        acc -= v * snapshot[c];
                    }
                }
                x[i] = acc * (1.0 / d);
            }
        }
    }

    #[test]
    fn hybrid_opt_matches_sequential_multitask_reference() {
        // The independent oracle at more than one task: every task count,
        // class, lane arm (plus the extract-column fallback at k = 9) and
        // both settings of the zero-guess flag, bit for bit.
        let field: Vec<f64> = (0..8 * 7 * 6)
            .map(|i| 1.0 + f64::from(i % 13) * 0.37)
            .collect();
        let operators = [
            laplace2d(17, 13),
            famg_matgen::varcoef3d_7pt(8, 7, 6, &field),
        ];
        for (oi, a0) in operators.iter().enumerate() {
            let n = a0.nrows();
            let is_coarse: Vec<bool> = (0..n).map(|i| (i * 7 + i / 5) % 3 == 0).collect();
            let (permuted, ord) = crate::reorder::cf_reorder(a0, &is_coarse);
            for tasks in 1..=4 {
                let mut a = permuted.clone();
                let sm = Smoother::hybrid_opt(&mut a, ord.nc, tasks);
                let part = &sm.part;
                for class in [Class::Coarse, Class::Fine, Class::All] {
                    for k in [1usize, 2, 3, 4, 8, 9] {
                        for zero_guess in [false, true] {
                            let bc: Vec<Vec<f64>> =
                                (0..k).map(|j| rhs::random(n, 40 + j as u64)).collect();
                            let xc: Vec<Vec<f64>> = (0..k)
                                .map(|j| {
                                    if zero_guess {
                                        vec![0.0; n]
                                    } else {
                                        rhs::random(n, 140 + j as u64)
                                    }
                                })
                                .collect();
                            let b = MultiVec::from_columns(&bc);
                            let mut x = MultiVec::from_columns(&xc);
                            let mut ws = Workspace::new();
                            sm.sweep_rows(
                                &a,
                                b.data(),
                                x.data_mut(),
                                k,
                                &mut ws,
                                class,
                                zero_guess,
                            );
                            for j in 0..k {
                                let mut want = xc[j].clone();
                                hybrid_reference(&a, &part.own, &bc[j], &mut want, class);
                                let got = x.col(j);
                                assert!(
                                    got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()),
                                    "operator {oi} tasks={tasks} {class:?} k={k} zero={zero_guess} col {j}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hybrid_opt_multithread_reduces_residual() {
        let mut a = laplace2d(8, 8);
        let n = a.nrows();
        let nc = 20;
        let sm = Smoother::hybrid_opt(&mut a, nc, 4);
        let b = rhs::ones(n);
        let mut x = vec![0.0; n];
        let mut ws = Workspace::new();
        let r0 = residual(&a, &b, &x);
        for i in 0..40 {
            sm.pre_smooth(&a, &b, &mut x, &mut ws, i == 0);
        }
        assert!(residual(&a, &b, &x) < 0.2 * r0);
    }

    #[test]
    fn zero_init_skip_matches_explicit_zero() {
        // With x = 0, the skip must give the same iterate as the full
        // kernel run on an explicitly zero vector.
        let mut a = laplace2d(12, 12);
        let n = a.nrows();
        let nc = 50;
        let sm = Smoother::hybrid_opt(&mut a, nc, 3);
        let b = rhs::random(n, 21);
        let mut ws = Workspace::new();
        let mut x1 = vec![0.0; n];
        let mut x2 = vec![0.0; n];
        // The zero-guess coarse sweep reads own-lower entries only (never
        // the snapshot), so the skip needs nothing of the workspace.
        sm.pre_smooth(&a, &b, &mut x1, &mut ws, true);
        let mut ws2 = Workspace::new();
        sm.pre_smooth(&a, &b, &mut x2, &mut ws2, false);
        assert_eq!(x1, x2);
    }

    #[test]
    fn stale_snapshot_entries_are_never_read() {
        // The sweep refreshes only `ext_cols` of the snapshot, and the
        // cycle shares one workspace between levels: whatever else `temp`
        // holds — NaN, or a larger level's iterate — must not reach the
        // result.
        let mut a = laplace2d(13, 12);
        let n = a.nrows();
        let sm = Smoother::hybrid_opt(&mut a, 50, 3);
        let mut big = laplace2d(20, 19);
        let big_n = big.nrows();
        let big_sm = Smoother::hybrid_opt(&mut big, 120, 2);
        for k in [1usize, 4] {
            let b = rhs::random(n * k, 31);
            let x0 = rhs::random(n * k, 32);
            let run = |ws: &mut Workspace| {
                let mut x = x0.clone();
                sm.pre_smooth_rows(&a, &b, &mut x, k, ws, false);
                sm.post_smooth_rows(&a, &b, &mut x, k, ws);
                x
            };
            let fresh = run(&mut Workspace::new());
            assert!(fresh.iter().all(|v| v.is_finite()));

            let mut poisoned = Workspace::new();
            poisoned.temp = vec![f64::NAN; 2 * n * k];
            let got = run(&mut poisoned);
            assert!(
                got.iter()
                    .zip(&fresh)
                    .all(|(g, f)| g.to_bits() == f.to_bits()),
                "NaN-filled snapshot leaked, k={k}"
            );

            let mut shared = Workspace::new();
            let mut bx = rhs::random(big_n * k, 33);
            let bb = rhs::random(big_n * k, 34);
            big_sm.pre_smooth_rows(&big, &bb, &mut bx, k, &mut shared, false);
            let got = run(&mut shared);
            assert!(
                got.iter()
                    .zip(&fresh)
                    .all(|(g, f)| g.to_bits() == f.to_bits()),
                "another level's snapshot leaked, k={k}"
            );
        }
    }

    #[test]
    fn batched_sweeps_bitwise_match_solo_columns() {
        // The genuine k-wide kernel across several tasks and the
        // extract-column fallback (k = 9) must produce batch columns bitwise
        // identical to scalar sweeps of those columns — including the
        // zero-guess skip and a dynamic width.
        let mut a = laplace2d(14, 11);
        let n = a.nrows();
        let sm = Smoother::hybrid_opt(&mut a, 40, 3);
        let a = &a;
        for k in [1usize, 2, 3, 4, 8, 9] {
            for zero_guess in [false, true] {
                let bc: Vec<Vec<f64>> = (0..k).map(|j| rhs::random(n, j as u64)).collect();
                let xc: Vec<Vec<f64>> = (0..k)
                    .map(|j| {
                        if zero_guess {
                            vec![0.0; n]
                        } else {
                            rhs::random(n, 100 + j as u64)
                        }
                    })
                    .collect();
                let b = MultiVec::from_columns(&bc);
                let mut x = MultiVec::from_columns(&xc);
                let mut ws = Workspace::new();
                sm.pre_smooth_batch(a, &b, &mut x, &mut ws, zero_guess);
                sm.post_smooth_rows(a, b.data(), x.data_mut(), k, &mut ws);
                for j in 0..k {
                    let mut solo = xc[j].clone();
                    let mut ws2 = Workspace::new();
                    sm.pre_smooth(a, &bc[j], &mut solo, &mut ws2, zero_guess);
                    sm.post_smooth_rows(a, &bc[j], &mut solo, 1, &mut ws2);
                    assert_eq!(x.col(j), solo, "k={k} zero={zero_guess} col {j}");
                }
            }
        }
    }
}
