//! Structural (per-matrix) CSR validators.
//!
//! These operate either on a finished [`Csr`] or on raw parts, so tests
//! can probe malformed buffers that the `Csr` constructors would refuse
//! to build.

use crate::{fail, CheckResult};
use famg_sparse::transpose::transpose;
use famg_sparse::{Col, Csr};

/// Validates raw CSR buffers: row-pointer shape and monotonicity,
/// in-bounds column indices, and finite values.
///
/// This is the release-mode counterpart of the debug assertions in
/// `Csr::from_parts_unchecked`.
pub fn check_raw_parts(
    nrows: usize,
    ncols: usize,
    rowptr: &[usize],
    colidx: &[Col],
    values: &[f64],
) -> CheckResult {
    if rowptr.len() != nrows + 1 {
        return fail(
            "rowptr_len",
            format!(
                "rowptr has {} entries, want nrows+1 = {}",
                rowptr.len(),
                nrows + 1
            ),
        );
    }
    if rowptr[0] != 0 {
        return fail("rowptr_start", format!("rowptr[0] = {}, want 0", rowptr[0]));
    }
    for i in 0..nrows {
        if rowptr[i] > rowptr[i + 1] {
            return fail(
                "rowptr_monotone",
                format!(
                    "rowptr decreases at row {i}: {} > {}",
                    rowptr[i],
                    rowptr[i + 1]
                ),
            );
        }
    }
    if rowptr[nrows] != colidx.len() || colidx.len() != values.len() {
        return fail(
            "nnz_consistent",
            format!(
                "rowptr[nrows] = {}, colidx.len() = {}, values.len() = {}",
                rowptr[nrows],
                colidx.len(),
                values.len()
            ),
        );
    }
    for (k, &c) in colidx.iter().enumerate() {
        if usize::from(c) >= ncols {
            return fail(
                "colidx_in_bounds",
                format!("colidx[{k}] = {c} out of bounds for ncols = {ncols}"),
            );
        }
    }
    for (k, &v) in values.iter().enumerate() {
        if !v.is_finite() {
            return fail("values_finite", format!("values[{k}] = {v} is not finite"));
        }
    }
    Ok(())
}

/// Validates the buffers of a built [`Csr`]: see [`check_raw_parts`].
pub fn check_csr(a: &Csr) -> CheckResult {
    check_raw_parts(a.nrows(), a.ncols(), a.rowptr(), a.colidx(), a.values())
}

/// Checks that every row's column indices are strictly increasing
/// (sorted with no duplicates).
///
/// Not a type invariant of [`Csr`] — CF- and GS-partitioned matrices
/// deliberately reorder entries within a row — so this is only asserted
/// where the surrounding algorithm requires it (SpGEMM inputs,
/// transpose outputs, assembled operators).
pub fn check_sorted_unique(a: &Csr) -> CheckResult {
    for i in 0..a.nrows() {
        let cols = a.row_cols(i);
        for w in cols.windows(2) {
            if w[0] >= w[1] {
                let which = if w[0] == w[1] {
                    "duplicate"
                } else {
                    "unsorted"
                };
                return fail(
                    "cols_sorted_unique",
                    format!("row {i} has {which} column pair ({}, {})", w[0], w[1]),
                );
            }
        }
    }
    Ok(())
}

/// Checks that no row stores the same column twice, independent of
/// column order.
///
/// Unlike [`check_sorted_unique`] this holds for *every* assembled famg
/// operator: the fused SpGEMM/RAP kernels emit columns in first-touch
/// order (unsorted by design), but their sparse accumulators must have
/// merged duplicates.
pub fn check_no_duplicates(a: &Csr) -> CheckResult {
    let mut scratch: Vec<Col> = Vec::new();
    for i in 0..a.nrows() {
        scratch.clear();
        scratch.extend_from_slice(a.row_cols(i));
        scratch.sort_unstable();
        for w in scratch.windows(2) {
            if w[0] == w[1] {
                return fail(
                    "cols_no_duplicates",
                    format!("row {i} stores column {} twice", w[0]),
                );
            }
        }
    }
    Ok(())
}

/// Checks that every stored value is finite (no NaN/Inf).
pub fn check_finite(a: &Csr) -> CheckResult {
    for (k, &v) in a.values().iter().enumerate() {
        if !v.is_finite() {
            return fail("values_finite", format!("values[{k}] = {v} is not finite"));
        }
    }
    Ok(())
}

/// Checks that the sparsity pattern is symmetric: `(i, j)` is stored
/// iff `(j, i)` is stored (values may differ).
///
/// AMG strength graphs and Galerkin operators built from symmetric
/// problems must keep this property; losing it usually means a
/// transpose/renumbering bug.
pub fn check_symmetric_pattern(a: &Csr) -> CheckResult {
    if a.nrows() != a.ncols() {
        return fail(
            "pattern_symmetric",
            format!("matrix is {}x{}, not square", a.nrows(), a.ncols()),
        );
    }
    let at = transpose(a); // transpose emits sorted rows
    for i in 0..a.nrows() {
        let mut cols = a.row_cols(i).to_vec();
        cols.sort_unstable();
        if cols != at.row_cols(i) {
            return fail(
                "pattern_symmetric",
                format!("row {i}: pattern of A differs from pattern of A^T"),
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tridiag(n: usize) -> Csr {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        Csr::from_triplets(n, n, t)
    }

    #[test]
    fn well_formed_matrix_passes_all() {
        let a = tridiag(6);
        assert!(check_csr(&a).is_ok());
        assert!(check_sorted_unique(&a).is_ok());
        assert!(check_finite(&a).is_ok());
        assert!(check_symmetric_pattern(&a).is_ok());
    }

    #[test]
    fn rejects_bad_rowptr() {
        let err = check_raw_parts(2, 2, &[0, 2, 1], &[0, 1, 0].map(Col::new), &[1.0, 2.0, 3.0])
            .unwrap_err();
        assert_eq!(err.check, "rowptr_monotone");
        let err =
            check_raw_parts(2, 2, &[1, 1, 2], &[0, 1].map(Col::new), &[1.0, 2.0]).unwrap_err();
        assert_eq!(err.check, "rowptr_start");
        let err = check_raw_parts(1, 2, &[0], &[], &[]).unwrap_err();
        assert_eq!(err.check, "rowptr_len");
        let err = check_raw_parts(1, 2, &[0, 3], &[0, 1].map(Col::new), &[1.0, 2.0]).unwrap_err();
        assert_eq!(err.check, "nnz_consistent");
    }

    #[test]
    fn rejects_out_of_bounds_and_nonfinite() {
        let err = check_raw_parts(1, 2, &[0, 1], &[5].map(Col::new), &[1.0]).unwrap_err();
        assert_eq!(err.check, "colidx_in_bounds");
        let err = check_raw_parts(1, 2, &[0, 1], &[0].map(Col::new), &[f64::NAN]).unwrap_err();
        assert_eq!(err.check, "values_finite");
    }

    #[test]
    fn rejects_unsorted_and_duplicate_cols() {
        let mut a = tridiag(4);
        {
            let (_, cols, _) = a.rows_mut();
            cols.swap(0, 1);
        }
        assert_eq!(
            check_sorted_unique(&a).unwrap_err().check,
            "cols_sorted_unique"
        );
        let mut b = tridiag(4);
        {
            let (_, cols, _) = b.rows_mut();
            cols[1] = cols[0];
        }
        assert_eq!(
            check_sorted_unique(&b).unwrap_err().check,
            "cols_sorted_unique"
        );
    }

    #[test]
    fn rejects_asymmetric_pattern() {
        let a = Csr::from_triplets(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 5.0), (1, 1, 1.0), (2, 2, 1.0)],
        );
        assert_eq!(
            check_symmetric_pattern(&a).unwrap_err().check,
            "pattern_symmetric"
        );
    }
}
