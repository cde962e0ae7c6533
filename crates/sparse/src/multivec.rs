//! Strided row-major block vectors: the one vector representation of the
//! solve phase.
//!
//! A block vector is `(data, k)`: `k` columns interleaved row-major, row
//! `i` occupying `data[i*k .. (i+1)*k]`, so one matrix-row traversal
//! advances all `k` columns with unit-stride lane access. A plain `&[f64]`
//! *is* the `k = 1` block, so the single-vector kernels in
//! [`crate::vecops`] and [`crate::spmv`] are the `K = 1` lane of the
//! kernels here and in [`crate::spmm`], not separate code. [`MultiVec`]
//! owns such a block; the `*_rows` functions take borrowed ones.
//!
//! Per lane, every kernel performs the same arithmetic in the same order
//! at every width — sequential below `2·CHUNK` rows, fixed 4096-row chunk
//! partials folded linearly in chunk order above — so column `j` of a
//! `k`-wide result is bitwise the `k = 1` result on that column. Inner
//! loops are monomorphized over k ∈ {1, 2, 4, 8} by [`lanes!`](crate::lanes)
//! (fixed-width lane arrays the compiler keeps in registers); other
//! widths take a dynamic-lane loop with identical per-lane order.

use rayon::prelude::*;

/// Row-chunk length shared with `vecops`; fixed so reductions are
/// reproducible across pool sizes.
pub(crate) const CHUNK: usize = 4096;

/// `k` right-hand-side columns stored interleaved row-major.
///
/// `Default` is the empty `0 × 0` block, so workspace fields can be
/// `std::mem::take`n while their owner stays borrowable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MultiVec {
    data: Vec<f64>,
    n: usize,
    k: usize,
}

impl MultiVec {
    /// A zero-filled `n × k` block vector.
    pub fn new(n: usize, k: usize) -> Self {
        MultiVec {
            data: vec![0.0; n * k],
            n,
            k,
        }
    }

    /// Builds a block vector from `k` equal-length columns.
    ///
    /// # Panics
    /// If the columns differ in length.
    pub fn from_columns(cols: &[Vec<f64>]) -> Self {
        let k = cols.len();
        let n = cols.first().map_or(0, Vec::len);
        let mut mv = MultiVec::new(n, k);
        for (j, col) in cols.iter().enumerate() {
            assert_eq!(col.len(), n, "column {j} length mismatch");
            mv.set_col(j, col);
        }
        mv
    }

    /// Number of rows.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of columns (batch width).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The interleaved backing storage (`n * k` values, row-major).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable interleaved backing storage.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The `k` lanes of row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.k..(i + 1) * self.k]
    }

    /// Extracts column `j` into a fresh vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.copy_col_into(j, &mut out);
        out
    }

    /// Extracts column `j` into `out` (length `n`).
    pub fn copy_col_into(&self, j: usize, out: &mut [f64]) {
        gather_col(&self.data, self.k, j, out);
    }

    /// Overwrites column `j` from `src` (length `n`).
    pub fn set_col(&mut self, j: usize, src: &[f64]) {
        scatter_col(&mut self.data, self.k, j, src);
    }

    /// All columns, extracted.
    pub fn columns(&self) -> Vec<Vec<f64>> {
        (0..self.k).map(|j| self.col(j)).collect()
    }

    /// Sets every entry of every column to `v`.
    pub fn fill(&mut self, v: f64) {
        crate::vecops::fill(&mut self.data, v);
    }

    /// Copies `src` into `self` (shapes must match).
    pub fn copy_from(&mut self, src: &MultiVec) {
        assert_eq!(self.n, src.n);
        assert_eq!(self.k, src.k);
        crate::vecops::copy(&src.data, &mut self.data);
    }
}

/// Extracts column `j` of the `k`-interleaved block `data` into `out`.
pub fn gather_col(data: &[f64], k: usize, j: usize, out: &mut [f64]) {
    assert!(j < k); // PANIC-FREE: shape guard; solve buffers are sized at setup.
    assert_eq!(out.len() * k, data.len()); // PANIC-FREE: see above.
    for (o, row) in out.iter_mut().zip(data.chunks_exact(k)) {
        *o = row[j];
    }
}

/// Overwrites column `j` of the `k`-interleaved block `data` from `src`.
pub fn scatter_col(data: &mut [f64], k: usize, j: usize, src: &[f64]) {
    assert!(j < k); // PANIC-FREE: shape guard; solve buffers are sized at setup.
    assert_eq!(src.len() * k, data.len()); // PANIC-FREE: see above.
    for (s, row) in src.iter().zip(data.chunks_exact_mut(k)) {
        row[j] = *s;
    }
}

/// Dispatches `body` with a monomorphized lane width for k ∈ {1, 2, 4, 8}
/// and a dynamic fallback otherwise. The per-lane arithmetic order is
/// identical in every arm; only code generation differs. Kernels dispatch
/// once per call, outside their row loops, so `K = 1` compiles to plain
/// scalar code over a `&[f64]`.
#[macro_export]
macro_rules! lanes {
    ($k:expr, $func:ident ( $($arg:expr),* $(,)? )) => {
        match $k {
            1 => $func::<1>($($arg),*),
            2 => $func::<2>($($arg),*),
            4 => $func::<4>($($arg),*),
            8 => $func::<8>($($arg),*),
            _ => $func::<0>($($arg),*),
        }
    };
}

/// The lane count a `lanes!`-dispatched kernel runs at: the const `K`
/// when monomorphized, the runtime `k` in the dynamic (`K == 0`) arm.
#[inline(always)]
pub fn width<const K: usize>(k: usize) -> usize {
    if K != 0 {
        debug_assert_eq!(K, k);
        K
    } else {
        k
    }
}

/// Slots of the stack buffer the chunked reductions keep their per-chunk
/// partials in: one super-block covers `PARTIAL_SLOTS / k` chunks, and
/// longer vectors reuse the buffer — the running totals keep absorbing
/// partials in ascending chunk order, so the linear fold is the same for
/// every super-block size.
pub(crate) const PARTIAL_SLOTS: usize = 512;

/// `out[j] += Σ_rows x[r,j] * y[r,j]` for one chunk, lane by lane — the
/// allocation-free chunk step for widths beyond [`PARTIAL_SLOTS`].
pub(crate) fn add_chunk_dots_strided(xd: &[f64], yd: &[f64], k: usize, out: &mut [f64]) {
    for (j, o) in out.iter_mut().enumerate() {
        let mut p = 0.0;
        for (xr, yr) in xd.chunks_exact(k).zip(yd.chunks_exact(k)) {
            p += xr[j] * yr[j];
        }
        *o += p;
    }
}

/// Folds per-chunk partials (`out.len()` lanes each, in chunk order) into
/// the running per-lane totals `out`.
pub(crate) fn add_partials(out: &mut [f64], partials: &[f64]) {
    for chunk in partials.chunks_exact(out.len()) {
        for (o, p) in out.iter_mut().zip(chunk) {
            *o += p;
        }
    }
}

/// Accumulates `acc[j] += x[i,j] * y[i,j]` over `rows`, per-column in
/// ascending row order. `K == 0` means "use the dynamic width `k`".
fn dot_range<const K: usize>(
    xd: &[f64],
    yd: &[f64],
    k: usize,
    rows: std::ops::Range<usize>,
    acc: &mut [f64],
) {
    // Slicing the row range once lets the loops below run without a bounds
    // check per element.
    let kk = width::<K>(k);
    let xs = xd[rows.start * kk..rows.end * kk].chunks_exact(kk);
    let ys = yd[rows.start * kk..rows.end * kk].chunks_exact(kk);
    if K != 0 {
        let mut a = [0.0f64; K];
        for (xr, yr) in xs.zip(ys) {
            for j in 0..K {
                a[j] += xr[j] * yr[j];
            }
        }
        // Callers pass zeroed accumulators; plain assignment keeps the
        // column's fold exactly `0.0 + x0*y0 + x1*y1 + …`.
        acc[..K].copy_from_slice(&a);
    } else {
        for (xr, yr) in xs.zip(ys) {
            for ((aj, x), y) in acc.iter_mut().zip(xr).zip(yr) {
                *aj += x * y;
            }
        }
    }
}

/// Per-column dot products folded linearly over all rows, whatever the
/// length — the `k`-lane twin of [`crate::vecops::dot_seq`] (the
/// distributed kernels reduce their local parts this way).
pub fn dot_rows_seq(xd: &[f64], yd: &[f64], k: usize, out: &mut [f64]) {
    assert_eq!(xd.len(), yd.len()); // PANIC-FREE: shape guard; solve buffers are sized at setup.
    assert_eq!(out.len(), k); // PANIC-FREE: see above.
    out.fill(0.0);
    if k != 0 {
        lanes!(k, dot_range(xd, yd, k, 0..xd.len() / k, out));
    }
}

/// Per-column dot products of two `k`-interleaved blocks given as raw
/// slices: `out[j] = x[:,j] · y[:,j]`. A plain `&[f64]` is the `k = 1`
/// block, which is how [`crate::vecops::dot`] calls this.
///
/// Deterministic for every pool size: below `2·CHUNK` rows one sequential
/// pass; above, fixed 4096-row chunk partials folded linearly in chunk
/// order. The partials live in a fixed stack buffer, so the reduction
/// never allocates.
pub fn dot_rows(xd: &[f64], yd: &[f64], k: usize, out: &mut [f64]) {
    if k == 0 || xd.len() / k < 2 * CHUNK {
        return dot_rows_seq(xd, yd, k, out);
    }
    assert_eq!(xd.len(), yd.len()); // PANIC-FREE: shape guard; solve buffers are sized at setup.
    assert_eq!(out.len(), k); // PANIC-FREE: see above.
    out.fill(0.0);
    let n = xd.len() / k;
    if k > PARTIAL_SLOTS {
        for (cx, cy) in xd.chunks(CHUNK * k).zip(yd.chunks(CHUNK * k)) {
            add_chunk_dots_strided(cx, cy, k, out);
        }
        return;
    }
    let mut partials = [0.0f64; PARTIAL_SLOTS];
    let block_rows = PARTIAL_SLOTS / k * CHUNK;
    for first in (0..n).step_by(block_rows) {
        let last = (first + block_rows).min(n);
        let p = &mut partials[..(last - first).div_ceil(CHUNK) * k];
        p.fill(0.0);
        p.par_chunks_mut(k).enumerate().for_each(|(ci, p)| {
            let s = first + ci * CHUNK;
            lanes!(k, dot_range(xd, yd, k, s..(s + CHUNK).min(last), p));
        });
        add_partials(out, p);
    }
}

/// `y[i,j] = f(coef[j], x[i,j], y[i,j])` over two `k`-interleaved blocks.
#[inline(always)]
fn map_lanes<const K: usize>(
    coef: &[f64],
    xd: &[f64],
    yd: &mut [f64],
    k: usize,
    f: impl Fn(f64, f64, f64) -> f64,
) {
    let kk = width::<K>(k);
    for (yr, xr) in yd.chunks_exact_mut(kk).zip(xd.chunks_exact(kk)) {
        for ((y, x), c) in yr.iter_mut().zip(xr).zip(&coef[..kk]) {
            *y = f(*c, *x, *y);
        }
    }
}

fn axpy_lanes<const K: usize>(alpha: &[f64], xd: &[f64], yd: &mut [f64], k: usize) {
    map_lanes::<K>(alpha, xd, yd, k, |a, x, y| y + a * x);
}

fn xpby_lanes<const K: usize>(beta: &[f64], xd: &[f64], yd: &mut [f64], k: usize) {
    map_lanes::<K>(beta, xd, yd, k, |b, x, y| x + b * y);
}

/// Runs an elementwise update over two `k`-interleaved blocks: one call
/// below `2·CHUNK` rows, otherwise one per 4096-row chunk in parallel (no
/// reduction, so chunking cannot change a bit).
fn for_row_chunks(
    xd: &[f64],
    yd: &mut [f64],
    k: usize,
    body: impl Fn(&[f64], &mut [f64]) + Send + Sync,
) {
    assert_eq!(xd.len(), yd.len());
    if k == 0 {
        return;
    }
    if xd.len() / k < 2 * CHUNK {
        body(xd, yd);
    } else {
        yd.par_chunks_mut(CHUNK * k)
            .zip(xd.par_chunks(CHUNK * k))
            .for_each(|(cy, cx)| body(cx, cy));
    }
}

/// Per-column `y[:,j] += alpha[j] * x[:,j]` on raw `k`-interleaved
/// slices; [`crate::vecops::axpy`] is the `k = 1` call.
pub fn axpy_rows(alpha: &[f64], xd: &[f64], yd: &mut [f64], k: usize) {
    assert_eq!(alpha.len(), k);
    for_row_chunks(xd, yd, k, |cx, cy| lanes!(k, axpy_lanes(alpha, cx, cy, k)));
}

/// Per-column `y[:,j] = x[:,j] + beta[j] * y[:,j]` on raw
/// `k`-interleaved slices.
pub fn xpby_rows(xd: &[f64], beta: &[f64], yd: &mut [f64], k: usize) {
    assert_eq!(beta.len(), k);
    for_row_chunks(xd, yd, k, |cx, cy| lanes!(k, xpby_lanes(beta, cx, cy, k)));
}

/// [`axpy_rows`] in one sequential pass whatever the length, like
/// [`dot_rows_seq`]: rank threads never enter the pool. Bitwise the same.
pub fn axpy_rows_seq(alpha: &[f64], xd: &[f64], yd: &mut [f64], k: usize) {
    if k != 0 {
        lanes!(k, axpy_lanes(alpha, xd, yd, k));
    }
}

/// [`xpby_rows`] in one sequential pass (see [`axpy_rows_seq`]).
pub fn xpby_rows_seq(xd: &[f64], beta: &[f64], yd: &mut [f64], k: usize) {
    if k != 0 {
        lanes!(k, xpby_lanes(beta, xd, yd, k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{chunked_dot, wave, WIDTHS};

    #[test]
    fn layout_round_trips_columns() {
        let cols: Vec<Vec<f64>> = (0..3).map(|j| wave(17, j)).collect();
        let mv = MultiVec::from_columns(&cols);
        assert_eq!(mv.n(), 17);
        assert_eq!(mv.k(), 3);
        for (j, col) in cols.iter().enumerate() {
            assert_eq!(&mv.col(j), col);
        }
        assert_eq!(mv.row(5), &[cols[0][5], cols[1][5], cols[2][5]]);
    }

    /// The reduction every lane must reproduce.
    fn dot_oracle(x: &[f64], y: &[f64]) -> f64 {
        chunked_dot(x, y, 2 * CHUNK)
    }

    #[test]
    fn dot_batch_bitwise_matches_solo_dot() {
        // Cross the parallel threshold so the chunked fold is exercised.
        for n in [100, 2 * CHUNK + 5, 3 * CHUNK + 17] {
            for k in WIDTHS {
                let xc: Vec<Vec<f64>> = (0..k).map(|j| wave(n, j)).collect();
                let yc: Vec<Vec<f64>> = (0..k).map(|j| wave(n, j + 10)).collect();
                let x = MultiVec::from_columns(&xc);
                let y = MultiVec::from_columns(&yc);
                let mut out = vec![0.0; k];
                dot_rows(x.data(), y.data(), k, &mut out);
                for j in 0..k {
                    let solo = dot_oracle(&xc[j], &yc[j]);
                    assert_eq!(out[j].to_bits(), solo.to_bits(), "n={n} k={k} col {j}");
                }
            }
        }
    }

    #[test]
    fn dot_wider_than_the_partial_buffer() {
        // k > PARTIAL_SLOTS takes the chunk-sequential path; same fold.
        let (n, k) = (2 * CHUNK + 3, PARTIAL_SLOTS + 1);
        let xc: Vec<Vec<f64>> = (0..k).map(|j| wave(n, j)).collect();
        let x = MultiVec::from_columns(&xc);
        let mut out = vec![0.0; k];
        dot_rows(x.data(), x.data(), k, &mut out);
        for j in [0, 100, k - 1] {
            assert_eq!(out[j].to_bits(), dot_oracle(&xc[j], &xc[j]).to_bits());
        }
    }

    #[test]
    fn norm2_batch_bitwise_matches_solo() {
        let n = 2 * CHUNK + 100;
        for k in WIDTHS {
            let cols: Vec<Vec<f64>> = (0..k).map(|j| wave(n, j)).collect();
            let x = MultiVec::from_columns(&cols);
            let mut out = vec![0.0; k];
            dot_rows(x.data(), x.data(), k, &mut out);
            for j in 0..k {
                out[j] = out[j].sqrt();
                let solo = dot_oracle(&cols[j], &cols[j]).sqrt();
                assert_eq!(out[j].to_bits(), solo.to_bits(), "k={k} col {j}");
            }
        }
    }

    #[test]
    fn axpy_xpby_batch_bitwise_match_solo() {
        for n in [33usize, 2 * CHUNK + 9] {
            for k in WIDTHS {
                let alpha: Vec<f64> = (0..k).map(|j| 0.5 + j as f64).collect();
                let xc: Vec<Vec<f64>> = (0..k).map(|j| wave(n, j)).collect();
                let yc: Vec<Vec<f64>> = (0..k).map(|j| wave(n, j + 4)).collect();
                let x = MultiVec::from_columns(&xc);
                let mut y = MultiVec::from_columns(&yc);
                axpy_rows(&alpha, x.data(), y.data_mut(), k);
                let mut y2 = MultiVec::from_columns(&yc);
                xpby_rows(x.data(), &alpha, y2.data_mut(), k);
                for j in 0..k {
                    let pairs = || yc[j].iter().zip(&xc[j]);
                    let solo: Vec<f64> = pairs().map(|(y, x)| y + alpha[j] * x).collect();
                    assert_eq!(y.col(j), solo, "axpy n={n} k={k} col {j}");
                    let solo: Vec<f64> = pairs().map(|(y, x)| x + alpha[j] * y).collect();
                    assert_eq!(y2.col(j), solo, "xpby n={n} k={k} col {j}");
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let x = MultiVec::new(10, 0);
        let y = MultiVec::new(10, 0);
        let mut out = vec![];
        dot_rows(x.data(), y.data(), 0, &mut out);
        assert!(out.is_empty());
        assert!(x.columns().is_empty());
    }
}
