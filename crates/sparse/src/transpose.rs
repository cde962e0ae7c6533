//! Sparse matrix transpose.
//!
//! The paper parallelizes the transpose with a *parallel counting sort*
//! (§3.3): each thread owns a contiguous, nnz-balanced block of input rows,
//! counts entries per output row into a private histogram, the histograms
//! are combined with a prefix-sum, and a second sweep scatters entries.
//! Entries within each output row come out ordered by input row index, so
//! the result has sorted rows whenever input column indices are unique.
//!
//! Also provided: the `keep the transpose` policy helper used by the solve
//! phase — the baseline HYPRE re-transposed `P` on every restriction; famg
//! computes `R = Pᵀ` once during setup and reuses it.
#![deny(unsafe_op_in_unsafe_fn)]

use crate::csr::Csr;
use crate::partition::split_rows_by_nnz;

/// Sequential counting-sort transpose.
pub fn transpose(a: &Csr) -> Csr {
    let (nrows, ncols, nnz) = (a.nrows(), a.ncols(), a.nnz());
    let mut counts = vec![0usize; ncols];
    for &c in a.colidx() {
        counts[c] += 1;
    }
    let mut rp = vec![0usize; ncols + 1];
    for j in 0..ncols {
        rp[j + 1] = rp[j] + counts[j];
    }
    let mut cursor = rp[..ncols].to_vec();
    let mut colidx = vec![0usize; nnz];
    let mut values = vec![0.0f64; nnz];
    for i in 0..nrows {
        for (c, v) in a.row_iter(i) {
            let dst = cursor[c];
            cursor[c] += 1;
            colidx[dst] = i;
            values[dst] = v;
        }
    }
    Csr::from_parts_unchecked(ncols, nrows, rp, colidx, values)
}

/// Parallel counting-sort transpose with nnz-balanced row blocks.
///
/// Produces output bitwise identical to [`transpose`] for any thread count:
/// each thread scatters into per-(thread, output-row) disjoint ranges whose
/// order matches the sequential sweep.
// ALLOC: the solve-path caller is the ReTranspose ablation baseline,
// which deliberately re-transposes R every cycle to measure what the
// cached-transpose production path saves; its allocations are the
// quantity under test.
pub fn transpose_par(a: &Csr) -> Csr {
    let (nrows, ncols, nnz) = (a.nrows(), a.ncols(), a.nnz());
    let nthreads = crate::partition::num_threads();
    if nrows < 1024 || nthreads == 1 {
        return transpose(a);
    }
    let blocks = split_rows_by_nnz(a.rowptr(), nthreads);
    let mut hists = histograms(a, &blocks);

    // Column-major prefix sum over (block, col) so block b's entries for
    // output row c land after blocks 0..b's entries — this is what makes
    // the result identical to the sequential transpose.
    let mut rowptr = vec![0usize; ncols + 1];
    for c in 0..ncols {
        let mut col_total = 0usize;
        for h in &mut hists {
            let v = h[c];
            h[c] = col_total; // becomes block-local base within row c
            col_total += v;
        }
        rowptr[c + 1] = col_total;
    }
    for c in 0..ncols {
        rowptr[c + 1] += rowptr[c];
    }
    for h in &mut hists {
        for (base, &at) in h.iter_mut().zip(&rowptr) {
            *base += at;
        }
    }

    let mut colidx = vec![0usize; nnz];
    let mut values = vec![0.0f64; nnz];
    scatter(
        a,
        &blocks,
        &mut hists,
        Some(colidx.as_mut_ptr()),
        values.as_mut_ptr(),
    );
    Csr::from_parts_unchecked(ncols, nrows, rowptr, colidx, values)
}

/// Rewrites the values of `t`, which holds [`transpose`]`(a)`'s pattern
/// (of an earlier `a` with this one's), with `a`'s — bitwise
/// `transpose_par(a)`'s values, moved by the same kernel, its pattern read
/// from `t` instead of rebuilt. Allocates per-block cursors only.
///
/// # Panics
/// When the shapes or nonzero counts differ.
pub fn transpose_par_into(a: &Csr, t: &mut Csr) {
    let (nrows, ncols) = (a.nrows(), a.ncols());
    assert_eq!((t.nrows(), t.ncols(), t.nnz()), (ncols, nrows, a.nnz()));
    let nthreads = crate::partition::num_threads();
    let parts = if nrows < 1024 { 1 } else { nthreads };
    let blocks = split_rows_by_nnz(a.rowptr(), parts);
    let mut hists = histograms(a, &blocks);
    let (rowptr, _, values) = t.pattern_and_values_mut();
    for c in 0..ncols {
        let mut at = rowptr[c];
        for h in &mut hists {
            (h[c], at) = (at, at + h[c]);
        }
        assert_eq!(at, rowptr[c + 1], "transpose refill: column {c} count");
    }
    scatter(a, &blocks, &mut hists, None, values.as_mut_ptr());
}

/// Per-block histograms of output-row counts.
fn histograms(a: &Csr, blocks: &[std::ops::Range<usize>]) -> Vec<Vec<usize>> {
    use rayon::prelude::*;
    blocks
        .par_iter()
        .map(|r| {
            let mut h = vec![0usize; a.ncols()];
            for i in r.clone() {
                for &c in a.row_cols(i) {
                    h[c] += 1;
                }
            }
            h
        })
        .collect()
}

/// Scatters each block's entries from its own first position per output
/// row (`cursors[b][c]`, absolute, advanced in place), values always and
/// row indices when `colidx` is given.
fn scatter(
    a: &Csr,
    blocks: &[std::ops::Range<usize>],
    cursors: &mut [Vec<usize>],
    colidx: Option<*mut usize>,
    values: *mut f64,
) {
    // Each thread scatters into per-(block, output-row) ranges that are
    // disjoint by construction, so raw-pointer writes cannot alias.
    struct Ptr(Option<*mut usize>, *mut f64);
    // SAFETY: threads write through the pointers only at indices in
    // their own (block, output-row) ranges, which are disjoint by
    // the prefix sum over blocks; nobody reads until the scope joins.
    unsafe impl Sync for Ptr {}
    let p = Ptr(colidx, values);
    rayon::scope(|s| {
        for (r, cursor) in blocks.iter().zip(cursors) {
            let p = &p;
            let r = r.clone();
            s.spawn(move |_| {
                for i in r {
                    for (c, v) in a.row_iter(i) {
                        let dst = cursor[c];
                        cursor[c] += 1;
                        // SAFETY: (block, col) ranges are disjoint: dst
                        // stays below where the next block's entries of
                        // output row c start.
                        unsafe {
                            if let Some(cols) = p.0 {
                                *cols.add(dst) = i;
                            }
                            *p.1.add(dst) = v;
                        }
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        Csr::from_triplets(
            3,
            4,
            vec![
                (0, 0, 1.0),
                (0, 3, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
                (2, 3, 6.0),
            ],
        )
    }

    #[test]
    fn transpose_small() {
        let a = sample();
        let t = transpose(&a);
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.ncols(), 3);
        assert_eq!(t.get(0, 0), Some(1.0));
        assert_eq!(t.get(3, 0), Some(2.0));
        assert_eq!(t.get(0, 2), Some(4.0));
        assert_eq!(t.nnz(), a.nnz());
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = sample();
        let tt = transpose(&transpose(&a));
        assert_eq!(a.to_dense(), tt.to_dense());
    }

    #[test]
    fn transpose_rows_sorted() {
        let a = sample();
        assert!(transpose(&a).rows_sorted());
    }

    #[test]
    fn transpose_empty_rows_and_cols() {
        let a = Csr::from_triplets(4, 4, vec![(1, 2, 1.5)]);
        let t = transpose(&a);
        assert_eq!(t.row_nnz(0), 0);
        assert_eq!(t.row_nnz(2), 1);
        assert_eq!(t.get(2, 1), Some(1.5));
    }

    #[test]
    fn parallel_matches_sequential_large() {
        // Deterministic pseudo-random matrices on both sides of the
        // 1024-row cutover of the parallel path, square and `P_F`-shaped:
        // setup, refresh and the RAP wrappers take `P_Fᵀ` from
        // `transpose_par`, tests and oracles from `transpose`.
        let mut state = 12345u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for (nrows, ncols) in [(3000, 3000), (1023, 400), (1024, 400), (2500, 900)] {
            let mut trips = Vec::new();
            for i in 0..nrows {
                for k in 0..(1 + next() % 6) {
                    let j = (i + k * 37 + next() % 50) % ncols;
                    trips.push((i, j, (next() % 1000) as f64 / 100.0 + 0.01));
                }
            }
            let a = Csr::from_triplets(nrows, ncols, trips);
            let t = transpose(&a);
            assert_eq!(t, transpose_par(&a), "{nrows} x {ncols}"); // bitwise
                                                                   // The refill moves new values by the same kernel.
            let mut b = a.clone();
            b.values_mut().iter_mut().for_each(|v| *v = -*v * 0.5);
            let mut refilled = t;
            transpose_par_into(&b, &mut refilled);
            assert_eq!(refilled, transpose(&b), "{nrows} x {ncols}");
        }
    }

    #[test]
    fn transpose_rectangular() {
        let a = Csr::from_triplets(2, 5, vec![(0, 4, 1.0), (1, 0, 2.0)]);
        let t = transpose(&a);
        assert_eq!(t.nrows(), 5);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.get(4, 0), Some(1.0));
        assert_eq!(t.get(0, 1), Some(2.0));
    }

    #[test]
    fn transpose_zero_matrix() {
        let a = Csr::zero(3, 2);
        let t = transpose(&a);
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.nnz(), 0);
    }
}
