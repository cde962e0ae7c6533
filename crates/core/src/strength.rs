//! Classical strength-of-connection matrix.
//!
//! Point `j` *strongly influences* `i` iff
//! `-a_ij >= α · max_{k≠i}(-a_ik)` (§2 of the paper). Row `i` of the
//! strength matrix `S` holds `i`'s strong neighbours — the points `i`
//! *depends* on. Rows whose ratio `|Σ_j a_ij| / |a_ii|` exceeds
//! `max_row_sum` are treated as having no strong connections (they are
//! strongly diagonally dominant and the smoother handles them alone); this
//! mirrors HYPRE's `max_row_sum` parameter used in Table 3.
//!
//! Two implementations: a sequential baseline and the paper's §3.3
//! parallel version (row blocks filled in parallel, then packed). Both take
//! the row range to emit: the serial setup passes every row, a rank of the
//! distributed setup the owned rows of its extended local CSR (whose halo
//! rows have no strength rows of their own).
use famg_sparse::partition::{num_threads, split_mut_at, split_rows_by_nnz};
use famg_sparse::{Col, Csr};
use rayon::prelude::*;
use std::ops::Range;

/// Decides which entries of row `i` are strong; invokes `emit(k, a_ik)`
/// for each strong neighbour in row order.
#[inline]
fn row_strong(
    a: &Csr,
    i: usize,
    threshold: f64,
    max_row_sum: f64,
    mut emit: impl FnMut(usize, f64),
) {
    let mut max_off = 0.0f64;
    let mut row_sum = 0.0f64;
    let mut diag = 0.0f64;
    for (k, v) in a.row_iter(i) {
        row_sum += v;
        if k == i {
            diag = v;
        } else {
            max_off = max_off.max(-v);
        }
    }
    if max_off <= 0.0 {
        return; // no negative off-diagonals -> nothing is strong
    }
    if diag != 0.0 && (row_sum / diag).abs() > max_row_sum {
        return; // strongly diagonally dominant row: no strong connections
    }
    let cut = threshold * max_off;
    for (k, v) in a.row_iter(i) {
        if k != i && -v >= cut {
            emit(k, v);
        }
    }
}

/// Sequential strength matrix of rows `rows` (`rows.len() × n`; values
/// carry the originating `a_ij`), its arrays at their exact length.
pub fn strength_seq(a: &Csr, rows: Range<usize>, threshold: f64, max_row_sum: f64) -> Csr {
    assert_eq!(a.nrows(), a.ncols());
    let n = rows.len();
    let mut rowptr = Vec::with_capacity(n + 1);
    // `S ⊂ A`: reserved once, the part `S` does not fill is never touched
    // and is given back (in place) at the end.
    let bound = a.rowptr()[rows.end] - a.rowptr()[rows.start];
    let mut colidx = Vec::with_capacity(bound);
    let mut values = Vec::with_capacity(bound);
    rowptr.push(0);
    for i in rows {
        row_strong(a, i, threshold, max_row_sum, |k, v| {
            colidx.push(Col::new(k));
            values.push(v);
        });
        rowptr.push(colidx.len());
    }
    colidx.shrink_to_fit();
    values.shrink_to_fit();
    Csr::from_parts_unchecked(n, a.ncols(), rowptr, colidx, values)
}

/// Parallel strength matrix in one pass over `A` (§3.3). Bitwise identical
/// to [`strength_seq`].
///
/// `S ⊂ A`, so each nnz-balanced block of rows writes its strong entries
/// from where its rows start in `A` and counts them into the row pointer.
/// The blocks are then moved down onto each other in order, the row
/// pointer offset by the entries before each block, and the arrays cut to
/// `S`'s length: no count pass, and no second copy of `S`.
pub fn strength_par(a: &Csr, rows: Range<usize>, threshold: f64, max_row_sum: f64) -> Csr {
    assert_eq!(a.nrows(), a.ncols());
    let n = rows.len();
    // One thread gains nothing from the blocks.
    if n < 2048 || num_threads() == 1 {
        return strength_seq(a, rows, threshold, max_row_sum);
    }
    let arp = &a.rowptr()[rows.start..=rows.end];
    let bound = arp[n] - arp[0];
    let mut rowptr = vec![0usize; n + 1];
    let mut colidx = vec![Col::default(); bound];
    let mut values = vec![0.0f64; bound];
    let blocks = split_rows_by_nnz(arp, num_threads());
    let lens = blocks.iter().map(|b| arp[b.end] - arp[b.start]);
    let mut parts: Vec<_> = blocks
        .iter()
        .zip(split_mut_at(
            &mut rowptr[1..],
            blocks.iter().map(Range::len),
        ))
        .zip(split_mut_at(&mut colidx, lens.clone()))
        .zip(split_mut_at(&mut values, lens))
        .map(|(((b, ends), cols), vals)| (b.clone(), ends, cols, vals))
        .collect();
    let counts: Vec<usize> = parts
        .par_iter_mut()
        .map(|(block, ends, cols, vals)| {
            let mut k = 0;
            for (i, end) in block.clone().zip(ends.iter_mut()) {
                row_strong(a, rows.start + i, threshold, max_row_sum, |c, v| {
                    (cols[k], vals[k]) = (Col::new(c), v);
                    k += 1;
                });
                *end = k;
            }
            k
        })
        .collect();
    drop(parts);
    let mut nnz = 0;
    for (block, count) in blocks.iter().zip(counts) {
        let from = arp[block.start] - arp[0];
        colidx.copy_within(from..from + count, nnz);
        values.copy_within(from..from + count, nnz);
        rowptr[block.start + 1..=block.end]
            .iter_mut()
            .for_each(|end| *end += nnz);
        nnz += count;
    }
    colidx.truncate(nnz);
    colidx.shrink_to_fit();
    values.truncate(nnz);
    values.shrink_to_fit();
    Csr::from_parts_unchecked(n, a.ncols(), rowptr, colidx, values)
}

/// Production entry point: every row.
pub fn strength(a: &Csr, threshold: f64, max_row_sum: f64) -> Csr {
    strength_par(a, 0..a.nrows(), threshold, max_row_sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use famg_matgen::{laplace2d, laplace2d_aniso};

    #[test]
    fn laplacian_all_neighbours_strong() {
        // Uniform -1 off-diagonals: every neighbour ties the max, so all
        // are strong at any threshold <= 1.
        let a = laplace2d(4, 4);
        let s = strength_seq(&a, 0..a.nrows(), 0.25, 0.9);
        for i in 0..a.nrows() {
            assert_eq!(s.row_nnz(i), a.row_nnz(i) - 1); // all but diagonal
        }
    }

    #[test]
    fn anisotropy_filters_weak_direction() {
        // eps = 0.01 << 0.25: y-neighbours are weak, x-neighbours strong.
        let a = laplace2d_aniso(5, 5, 0.01);
        let s = strength_seq(&a, 0..a.nrows(), 0.25, 0.9);
        let i = 12; // interior
        assert_eq!(s.row_nnz(i), 2); // left/right only
        assert!(s.col_iter(i).any(|j| j == 11));
        assert!(s.col_iter(i).any(|j| j == 13));
    }

    #[test]
    fn threshold_zero_keeps_all_negative() {
        let a = laplace2d_aniso(5, 5, 0.01);
        let s = strength_seq(&a, 0..a.nrows(), 0.0, 10.0);
        let i = 12;
        assert_eq!(s.row_nnz(i), 4);
    }

    #[test]
    fn positive_offdiagonals_never_strong() {
        let a = Csr::from_triplets(
            2,
            2,
            vec![(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 2.0)],
        );
        let s = strength_seq(&a, 0..a.nrows(), 0.25, 0.9);
        assert_eq!(s.nnz(), 0);
    }

    #[test]
    fn max_row_sum_drops_dominant_rows() {
        // Row 0: diag 10, off -1 -> row_sum/diag = 0.9 > 0.8 -> dropped.
        let a = Csr::from_triplets(
            2,
            2,
            vec![(0, 0, 10.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 1.5)],
        );
        let s = strength_seq(&a, 0..a.nrows(), 0.25, 0.8);
        assert_eq!(s.row_nnz(0), 0);
        // Row 1: row_sum/diag = 0.5/1.5 = 0.33 <= 0.8 -> kept.
        assert_eq!(s.row_nnz(1), 1);
    }

    #[test]
    fn parallel_matches_sequential() {
        let a = laplace2d(80, 80); // 6400 rows -> parallel path
        let s1 = strength_seq(&a, 0..a.nrows(), 0.25, 0.8);
        let s2 = strength_par(&a, 0..a.nrows(), 0.25, 0.8);
        assert_eq!(s1, s2);
        // A window of rows, as a rank of the distributed setup asks for.
        let rows = 1234..5678;
        assert_eq!(
            strength_seq(&a, rows.clone(), 0.25, 0.8),
            strength_par(&a, rows, 0.25, 0.8)
        );
        let b = laplace2d_aniso(70, 90, 0.05);
        assert_eq!(
            strength_seq(&b, 0..b.nrows(), 0.25, 0.8),
            strength_par(&b, 0..b.nrows(), 0.25, 0.8)
        );
    }

    #[test]
    fn values_carry_matrix_entries() {
        let a = laplace2d(4, 4);
        let s = strength_seq(&a, 0..a.nrows(), 0.25, 0.9);
        for i in 0..s.nrows() {
            for (c, v) in s.row_iter(i) {
                assert_eq!(Some(v), a.get(i, c));
            }
        }
    }

    #[test]
    fn no_self_loops() {
        let a = laplace2d(6, 6);
        let s = strength(&a, 0.25, 0.8);
        for i in 0..s.nrows() {
            assert!(!s.col_iter(i).any(|j| j == i));
        }
    }
}
