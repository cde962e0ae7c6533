//! Sparse matrix–matrix multiplication (SpGEMM), Gustavson style.
//!
//! Three implementations reproduce the paper's §3.1.1 analysis:
//!
//! * [`spgemm_two_pass`] — the traditional baseline: a *symbolic* pass
//!   counts the merged non-zeros of every output row (reading both input
//!   matrices once), then a *numeric* pass re-reads both inputs and fills
//!   the exactly-sized output. The second read of `B`'s column/value arrays
//!   is the expensive non-contiguous traffic the paper eliminates.
//! * [`spgemm_one_pass`] — the optimized kernel: each thread gets a
//!   pre-allocated chunk sized by the cheap *upper bound*
//!   `Σ_{i∈chunk} Σ_{j∈A_i} nnz(B_j)` (requires only `A.colidx` and
//!   `B.rowptr`, both cheap reads), multiplies in a single pass, then the
//!   per-thread chunks are copied into the final contiguous result. One
//!   expensive read of `B` is traded for one contiguous output copy.
//! * [`numeric_only`] — re-computes values over a frozen symbolic pattern
//!   (row pointers + column indices already known). This is the paper's
//!   estimate of branching overhead in the sparse accumulator: it measures
//!   on average 2.1× speedup, bounding what branch elimination could gain.
//!
//! All variants produce rows in Gustavson first-touch order (deterministic,
//! independent of thread count because row blocks are processed in order
//! and each row's accumulation order is fixed by the input structure).
#![deny(unsafe_op_in_unsafe_fn)]

use crate::csr::{Col, Csr};
use crate::partition::{num_threads, split_rows_by_nnz};
use crate::spa::Spa;

/// Classic two-pass SpGEMM: symbolic count + exact-size numeric fill.
pub fn spgemm_two_pass(a: &Csr, b: &Csr) -> Csr {
    assert_eq!(a.ncols(), b.nrows(), "inner dimension mismatch");
    let nrows = a.nrows();
    let ncols = b.ncols();

    // Symbolic pass: count merged nnz per output row.
    let mut rowptr = vec![0usize; nrows + 1];
    {
        let mut marker = vec![usize::MAX; ncols];
        for i in 0..nrows {
            let mut cnt = 0usize;
            for j in a.col_iter(i) {
                for k in b.col_iter(j) {
                    if marker[k] != i {
                        marker[k] = i;
                        cnt += 1;
                    }
                }
            }
            rowptr[i + 1] = rowptr[i] + cnt;
        }
    }

    // Numeric pass: re-read both inputs and fill.
    let nnz = rowptr[nrows];
    let mut colidx = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    let mut spa = Spa::new(ncols);
    for i in 0..nrows {
        for (j, av) in a.row_iter(i) {
            for (k, bv) in b.row_iter(j) {
                spa.add(k, av * bv);
            }
        }
        spa.flush_into(&mut colidx, &mut values);
    }
    Csr::from_parts_unchecked(nrows, ncols, rowptr, colidx, values)
}

/// Per-thread output rows of the one-pass kernel and the fused RAPs.
pub(crate) struct Chunk {
    pub(crate) row_nnz: Vec<usize>,
    pub(crate) colidx: Vec<Col>,
    pub(crate) values: Vec<f64>,
}

impl Chunk {
    /// A chunk for `rows` rows and `cap` entries.
    pub(crate) fn new(rows: usize, cap: usize) -> Chunk {
        let (colidx, values) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
        Chunk {
            row_nnz: Vec::with_capacity(rows),
            colidx,
            values,
        }
    }
}

/// Concatenates the chunks into one matrix: `rowptr` from the row counts,
/// then the payloads (contiguous writes — the cheap side of the trade).
pub(crate) fn stitch(nrows: usize, ncols: usize, chunks: Vec<Chunk>) -> Csr {
    let mut rowptr = vec![0usize; nrows + 1];
    let mut idx = 0usize;
    let mut acc = 0usize;
    for c in &chunks {
        for &n in &c.row_nnz {
            rowptr[idx] = acc;
            acc += n;
            idx += 1;
        }
    }
    rowptr[nrows] = acc;
    let mut colidx = vec![Col::default(); acc];
    let mut values = vec![0.0f64; acc];
    let mut dst = 0usize;
    for c in &chunks {
        let n = c.colidx.len();
        colidx[dst..dst + n].copy_from_slice(&c.colidx);
        values[dst..dst + n].copy_from_slice(&c.values);
        dst += n;
    }
    Csr::from_parts_unchecked(nrows, ncols, rowptr, colidx, values)
}

/// One-pass SpGEMM with per-thread pre-allocated chunks (the paper's
/// optimized kernel). Parallel over nnz-balanced row blocks.
pub fn spgemm_one_pass(a: &Csr, b: &Csr) -> Csr {
    assert_eq!(a.ncols(), b.nrows(), "inner dimension mismatch");
    let nrows = a.nrows();
    let ncols = b.ncols();
    if nrows == 0 {
        return Csr::zero(0, ncols);
    }
    let blocks = split_rows_by_nnz(a.rowptr(), num_threads());

    // Single pass per thread: multiply into the pre-allocated chunk.
    let chunks: Vec<Chunk> = {
        use rayon::prelude::*;
        blocks
            .par_iter()
            .map(|r| {
                // Cheap upper bound: only A.colidx (contiguous) and
                // B.rowptr (indexed but tiny) are touched.
                let bound: usize = r
                    .clone()
                    .map(|i| a.col_iter(i).map(|j| b.row_nnz(j)).sum::<usize>())
                    .sum();
                let mut c = Chunk::new(r.len(), bound);
                let mut spa = Spa::new(ncols);
                for i in r.clone() {
                    for (j, av) in a.row_iter(i) {
                        for (k, bv) in b.row_iter(j) {
                            spa.add(k, av * bv);
                        }
                    }
                    let n = spa.flush_into(&mut c.colidx, &mut c.values);
                    c.row_nnz.push(n);
                }
                c
            })
            .collect()
    };

    stitch(nrows, ncols, chunks)
}

/// Recomputes `C = A * B` values over a frozen symbolic pattern.
///
/// `c` must have the exact sparsity pattern of `A*B` (from a prior
/// [`spgemm_two_pass`]/[`spgemm_one_pass`]). The inner loop has no
/// first-touch branch: the marker array is pre-seeded from `C`'s columns,
/// so every accumulation is a straight indexed add. This kernel both
/// serves repeated products with identical structure (Gustavson's use
/// case) and bounds the sparse accumulator's branching overhead (§3.1.1).
pub fn numeric_only(a: &Csr, b: &Csr, c: &mut Csr) {
    assert_eq!(a.ncols(), b.nrows());
    assert_eq!(c.nrows(), a.nrows());
    assert_eq!(c.ncols(), b.ncols());
    let blocks = split_rows_by_nnz(a.rowptr(), num_threads());
    // Split C's value buffer by block boundary so blocks write disjointly.
    let rowptr = c.rowptr().to_vec();
    let colidx = c.colidx().to_vec();
    let ncols = c.ncols();
    let values = c.values_mut();

    struct Ptr(*mut f64);
    // SAFETY: each block writes only the value range of its own rows
    // ([rowptr[block.start], rowptr[block.end])), and the blocks tile
    // the row space disjointly; nobody reads until the scope joins.
    unsafe impl Sync for Ptr {}
    let p = Ptr(values.as_mut_ptr());

    rayon::scope(|s| {
        for r in &blocks {
            let r = r.clone();
            let rowptr = &rowptr;
            let colidx = &colidx;
            let p = &p;
            s.spawn(move |_| {
                let mut marker = vec![usize::MAX; ncols];
                for i in r {
                    let start = rowptr[i];
                    let end = rowptr[i + 1];
                    for (off, &k) in colidx[start..end].iter().enumerate() {
                        marker[usize::from(k)] = start + off;
                        // SAFETY: rows within a block are disjoint slices of
                        // the values buffer.
                        unsafe { *p.0.add(start + off) = 0.0 };
                    }
                    for (j, av) in a.row_iter(i) {
                        for (k, bv) in b.row_iter(j) {
                            let pos = marker[k];
                            debug_assert!(pos >= start && pos < end, "pattern mismatch");
                            // SAFETY: pos lies in row i's value range,
                            // owned exclusively by this block.
                            unsafe { *p.0.add(pos) += av * bv };
                        }
                    }
                }
            });
        }
    });
}

/// Convenience: the production SpGEMM entry point (one-pass kernel).
pub fn spgemm(a: &Csr, b: &Csr) -> Csr {
    spgemm_one_pass(a, b)
}

/// Cheap upper bound on the multiply-add count of `A·B` (only touches
/// `A.colidx` and `B.rowptr`).
pub fn spgemm_flops_bound(a: &Csr, b: &Csr) -> usize {
    a.colidx().iter().map(|&j| b.row_nnz(usize::from(j))).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_mm(a: &Csr, b: &Csr) -> Vec<f64> {
        let (m, k, n) = (a.nrows(), a.ncols(), b.ncols());
        let da = a.to_dense();
        let db = b.to_dense();
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for l in 0..k {
                let av = da[i * k + l];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += av * db[l * n + j];
                }
            }
        }
        out
    }

    fn random_csr(nrows: usize, ncols: usize, per_row: usize, seed: u64) -> Csr {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut trips = Vec::new();
        for i in 0..nrows {
            for _ in 0..per_row {
                let j = next() % ncols;
                let v = (next() % 19) as f64 - 9.0;
                if v != 0.0 {
                    trips.push((i, j, v));
                }
            }
        }
        Csr::from_triplets(nrows, ncols, trips)
    }

    fn assert_matrix_close(c: &Csr, dense: &[f64], n: usize) {
        let dc = c.to_dense();
        assert_eq!(dc.len(), dense.len());
        for idx in 0..dense.len() {
            assert!(
                (dc[idx] - dense[idx]).abs() < 1e-10,
                "mismatch at ({}, {}): {} vs {}",
                idx / n,
                idx % n,
                dc[idx],
                dense[idx]
            );
        }
    }

    #[test]
    fn two_pass_matches_dense() {
        let a = random_csr(17, 13, 4, 1);
        let b = random_csr(13, 11, 3, 2);
        let c = spgemm_two_pass(&a, &b);
        assert_matrix_close(&c, &dense_mm(&a, &b), 11);
        assert!(c.no_duplicate_cols());
    }

    #[test]
    fn one_pass_matches_two_pass_exactly() {
        let a = random_csr(500, 400, 5, 3);
        let b = random_csr(400, 300, 4, 4);
        let c1 = spgemm_two_pass(&a, &b);
        let c2 = spgemm_one_pass(&a, &b);
        assert_eq!(c1, c2); // identical structure AND values
    }

    #[test]
    fn identity_is_neutral() {
        let a = random_csr(20, 20, 3, 5);
        let i = Csr::identity(20);
        let left = spgemm(&i, &a);
        let right = spgemm(&a, &i);
        assert_matrix_close(&left, &a.to_dense(), 20);
        assert_matrix_close(&right, &a.to_dense(), 20);
    }

    #[test]
    fn numeric_only_recomputes() {
        let a = random_csr(50, 40, 4, 7);
        let b = random_csr(40, 30, 3, 8);
        let mut c = spgemm(&a, &b);
        let expect = c.clone();
        // Scramble values, then recompute over the frozen pattern.
        for v in c.values_mut() {
            *v = f64::NAN;
        }
        numeric_only(&a, &b, &mut c);
        assert_eq!(c, expect);
    }

    #[test]
    fn numeric_only_with_scaled_inputs() {
        let a = random_csr(30, 30, 3, 11);
        let b = random_csr(30, 30, 3, 12);
        let mut c = spgemm(&a, &b);
        // Scale A by 2: same pattern, values double.
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= 2.0;
        }
        numeric_only(&a2, &b, &mut c);
        let expect = spgemm(&a2, &b);
        assert_eq!(c.to_dense(), expect.to_dense());
    }

    #[test]
    fn empty_rows_handled() {
        let a = Csr::from_triplets(4, 3, vec![(1, 0, 2.0)]);
        let b = Csr::from_triplets(3, 2, vec![(0, 1, 3.0)]);
        let c = spgemm(&a, &b);
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(1, 1), Some(6.0));
        assert_eq!(c.row_nnz(0), 0);
        assert_eq!(c.row_nnz(3), 0);
    }

    #[test]
    fn zero_result_when_structurally_orthogonal() {
        // A hits only column 0; B row 0 is empty.
        let a = Csr::from_triplets(2, 2, vec![(0, 0, 1.0), (1, 0, 2.0)]);
        let b = Csr::from_triplets(2, 2, vec![(1, 1, 5.0)]);
        let c = spgemm(&a, &b);
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn associativity_on_small_chain() {
        let a = random_csr(12, 10, 3, 21);
        let b = random_csr(10, 9, 3, 22);
        let c = random_csr(9, 8, 3, 23);
        let left = spgemm(&spgemm(&a, &b), &c);
        let right = spgemm(&a, &spgemm(&b, &c));
        assert!(left.frob_diff(&right) < 1e-8);
    }

    #[test]
    fn numeric_only_reuse_matches_fresh_products() {
        let a = random_csr(60, 50, 4, 101);
        let b = random_csr(50, 40, 3, 102);
        let mut c = spgemm_one_pass(&a, &b);
        assert_eq!(c, spgemm(&a, &b));
        // Same structure, new values.
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v = -*v + 0.5;
        }
        numeric_only(&a2, &b, &mut c);
        assert_eq!(c.to_dense(), spgemm(&a2, &b).to_dense());
    }

    #[test]
    fn flops_bound_counts_b_row_lengths() {
        // A has entries in columns 0 and 1; bound = nnz(B_0) + nnz(B_1).
        let a = Csr::from_triplets(1, 3, vec![(0, 0, 1.0), (0, 1, 1.0)]);
        let b = Csr::from_triplets(3, 2, vec![(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0)]);
        assert_eq!(spgemm_flops_bound(&a, &b), 3);
    }

    #[test]
    fn large_parallel_consistency() {
        let a = random_csr(4000, 4000, 6, 31);
        let b = random_csr(4000, 4000, 5, 32);
        let c1 = spgemm_two_pass(&a, &b);
        let c2 = spgemm_one_pass(&a, &b);
        assert_eq!(c1, c2);
    }
}
