//! Compressed sparse row (CSR) matrix storage.
//!
//! The layout matches HYPRE's `hypre_CSRMatrix`: a `rowptr` array of
//! `nrows + 1` offsets into parallel `colidx`/`values` arrays. Rows may be
//! kept in *partitioned* (not fully sorted) column order — several famg
//! kernels deliberately reorder columns within a row (lower/upper/external
//! splits, coarse/fine splits), so sortedness is a property checked where
//! needed rather than a type invariant.
//!
//! Column indices are stored as [`Col`], a 32-bit newtype, so a matrix has
//! at most `u32::MAX` columns; row pointers (nnz positions) stay `usize`.

use std::fmt;
use std::ops::{Index, IndexMut};

/// The widest column count a [`Csr`] accepts: every column index must fit
/// in a [`Col`].
pub const MAX_COLS: usize = u32::MAX as usize;

/// A stored column index: 32 bits wide, so an operator keeps and streams
/// 4 bytes less per nonzero than with `usize` indices.
///
/// Read it as a `usize` through `usize::from(c)`; `[f64]` is indexed by it
/// directly. A `Col` is made from a `usize` by [`Col::new`] (debug-checked;
/// for kernels whose output columns are bounded by an input's `ncols`) or
/// by the checked `Col::try_from`.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Col(u32);

/// The error of `Col::try_from` on an index wider than 32 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColOverflow(pub usize);

impl fmt::Display for ColOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "column index {} exceeds the 32-bit Col", self.0)
    }
}

impl std::error::Error for ColOverflow {}

impl Col {
    /// Narrows `c`, which the caller bounds by a matrix's `ncols` (at most
    /// [`MAX_COLS`], which every constructor checks).
    #[inline]
    pub fn new(c: usize) -> Col {
        debug_assert!(c <= MAX_COLS, "column index {c} exceeds the 32-bit Col");
        // NARROWING: callers bound `c` by an `ncols` every `Csr` constructor
        // checks against `MAX_COLS`; debug builds check it here too.
        Col(c as u32)
    }
}

impl TryFrom<usize> for Col {
    type Error = ColOverflow;

    #[inline]
    fn try_from(c: usize) -> Result<Col, ColOverflow> {
        u32::try_from(c).map(Col).map_err(|_| ColOverflow(c))
    }
}

impl From<Col> for usize {
    #[inline]
    fn from(c: Col) -> usize {
        c.0 as usize
    }
}

impl fmt::Debug for Col {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl fmt::Display for Col {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl Index<Col> for [f64] {
    type Output = f64;

    #[inline]
    fn index(&self, c: Col) -> &f64 {
        &self[c.0 as usize]
    }
}

impl IndexMut<Col> for [f64] {
    #[inline]
    fn index_mut(&mut self, c: Col) -> &mut f64 {
        &mut self[c.0 as usize]
    }
}

/// Panics unless every column index of an `ncols`-wide matrix fits a
/// [`Col`].
// PANIC-FREE: a width check on construction; no solve-path matrix is
// wider than `MAX_COLS` once built.
#[inline]
fn check_width(ncols: usize) {
    assert!(
        ncols <= MAX_COLS,
        "Csr: {ncols} columns exceed the 32-bit column index (at most {MAX_COLS})"
    );
}

/// A sparse matrix in compressed sparse row format over `f64` values.
#[derive(Clone, PartialEq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colidx: Vec<Col>,
    values: Vec<f64>,
}

impl fmt::Debug for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Csr({}x{}, nnz={})", self.nrows, self.ncols, self.nnz())
    }
}

impl Csr {
    /// Builds a CSR matrix from raw parts, validating structural invariants.
    ///
    /// # Panics
    /// Panics if `ncols` exceeds [`MAX_COLS`], `rowptr` has the wrong
    /// length, is not monotone, does not span `colidx`/`values`, or any
    /// column index is out of bounds.
    // PANIC-FREE: CSR structural validation. Solve-path callers
    // (`RowBuilder::finish`) emit rowptr/colidx/values that satisfy
    // these invariants by construction; the asserts guard external
    // constructors feeding malformed parts.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colidx: Vec<Col>,
        values: Vec<f64>,
    ) -> Self {
        check_width(ncols);
        assert_eq!(rowptr.len(), nrows + 1, "rowptr length must be nrows+1");
        assert_eq!(rowptr[0], 0, "rowptr must start at 0");
        assert_eq!(
            *rowptr.last().unwrap(),
            colidx.len(),
            "rowptr must end at nnz"
        );
        assert_eq!(colidx.len(), values.len(), "colidx/values length mismatch");
        assert!(
            rowptr.windows(2).all(|w| w[0] <= w[1]),
            "rowptr must be monotone non-decreasing"
        );
        assert!(
            colidx.iter().all(|&c| usize::from(c) < ncols),
            "column index out of bounds"
        );
        Csr {
            nrows,
            ncols,
            rowptr,
            colidx,
            values,
        }
    }

    /// Builds a CSR matrix without validating invariants.
    ///
    /// Used by kernels that construct output structurally-by-construction;
    /// debug builds still validate. The column width is checked always.
    pub fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colidx: Vec<Col>,
        values: Vec<f64>,
    ) -> Self {
        if cfg!(debug_assertions) {
            Self::from_parts(nrows, ncols, rowptr, colidx, values)
        } else {
            check_width(ncols);
            Csr {
                nrows,
                ncols,
                rowptr,
                colidx,
                values,
            }
        }
    }

    /// An `nrows x ncols` matrix with no stored entries.
    pub fn zero(nrows: usize, ncols: usize) -> Self {
        check_width(ncols);
        Csr {
            nrows,
            ncols,
            rowptr: vec![0; nrows + 1],
            colidx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        check_width(n);
        Csr {
            nrows: n,
            ncols: n,
            rowptr: (0..=n).collect(),
            colidx: (0..n).map(Col::new).collect(),
            values: vec![1.0; n],
        }
    }

    /// Builds from `(row, col, value)` triplets, summing duplicates.
    /// Rows come out with sorted column indices.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        check_width(ncols);
        let mut per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); nrows];
        for (r, c, v) in triplets {
            assert!(r < nrows && c < ncols, "triplet out of bounds");
            per_row[r].push((c, v));
        }
        let mut rowptr = Vec::with_capacity(nrows + 1);
        let mut colidx = Vec::new();
        let mut values = Vec::new();
        rowptr.push(0);
        for row in &mut per_row {
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let c = row[i].0;
                let mut v = 0.0;
                while i < row.len() && row[i].0 == c {
                    v += row[i].1;
                    i += 1;
                }
                colidx.push(Col::new(c));
                values.push(v);
            }
            rowptr.push(colidx.len());
        }
        Csr {
            nrows,
            ncols,
            rowptr,
            colidx,
            values,
        }
    }

    /// Builds from a dense row-major slice, dropping exact zeros.
    #[cfg(test)]
    pub(crate) fn from_dense(nrows: usize, ncols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), nrows * ncols);
        check_width(ncols);
        let mut rowptr = Vec::with_capacity(nrows + 1);
        let mut colidx = Vec::new();
        let mut values = Vec::new();
        rowptr.push(0);
        for i in 0..nrows {
            for j in 0..ncols {
                let v = data[i * ncols + j];
                if v != 0.0 {
                    colidx.push(Col::new(j));
                    values.push(v);
                }
            }
            rowptr.push(colidx.len());
        }
        Csr {
            nrows,
            ncols,
            rowptr,
            colidx,
            values,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.colidx.len()
    }

    /// Row pointer array of length `nrows + 1`.
    #[inline]
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// Column indices, parallel to [`Csr::values`].
    #[inline]
    pub fn colidx(&self) -> &[Col] {
        &self.colidx
    }

    /// Stored values, parallel to [`Csr::colidx`].
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable stored values (structure is immutable through this handle).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The row pointer beside mutable column indices and values, for
    /// kernels that reorder entries within rows in parallel.
    #[inline]
    pub fn rows_mut(&mut self) -> (&[usize], &mut [Col], &mut [f64]) {
        (&self.rowptr, &mut self.colidx, &mut self.values)
    }

    /// The frozen pattern (`rowptr`, `colidx`) beside the mutable values,
    /// for the numeric-only kernels that re-fill a matrix in place.
    #[inline]
    pub fn pattern_and_values_mut(&mut self) -> (&[usize], &[Col], &mut [f64]) {
        (&self.rowptr, &self.colidx, &mut self.values)
    }

    /// The half-open nnz range of row `i`.
    #[inline]
    pub fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        self.rowptr[i]..self.rowptr[i + 1]
    }

    /// Column indices of row `i`.
    #[inline]
    pub fn row_cols(&self, i: usize) -> &[Col] {
        &self.colidx[self.row_range(i)]
    }

    /// Column indices of row `i` as `usize`.
    #[inline]
    pub fn col_iter(&self, i: usize) -> impl Iterator<Item = usize> + Clone + '_ {
        self.row_cols(i).iter().map(|&c| usize::from(c))
    }

    /// Values of row `i`.
    #[inline]
    pub fn row_vals(&self, i: usize) -> &[f64] {
        &self.values[self.row_range(i)]
    }

    /// Iterates `(col, value)` pairs of row `i`.
    #[inline]
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.row_cols(i)
            .iter()
            .map(|&c| usize::from(c))
            .zip(self.row_vals(i).iter().copied())
    }

    /// Number of stored entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.rowptr[i + 1] - self.rowptr[i]
    }

    /// The stored value at `(i, j)`, or `None` when not stored.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        self.row_iter(i).find(|&(c, _)| c == j).map(|(_, v)| v)
    }

    /// The diagonal entry of row `i` (0.0 if absent).
    pub fn diag(&self, i: usize) -> f64 {
        self.get(i, i).unwrap_or(0.0)
    }

    /// Extracts the full diagonal as a vector.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.nrows.min(self.ncols))
            .map(|i| self.diag(i))
            .collect()
    }

    /// Converts to a dense row-major buffer (tests / coarsest solve only).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.nrows * self.ncols];
        for i in 0..self.nrows {
            for (c, v) in self.row_iter(i) {
                out[i * self.ncols + c] += v;
            }
        }
        out
    }

    /// Sorts every row's columns (and values) ascending, equal columns stably.
    pub fn sort_rows(&mut self) {
        // One scratch row for the whole matrix (a pair of allocations per row
        // costs more than the sort), sorted as `column << 32 | position` keys.
        let mut keys: Vec<u64> = Vec::new();
        let mut row: Vec<f64> = Vec::new();
        for i in 0..self.nrows {
            let r = self.rowptr[i]..self.rowptr[i + 1];
            let (cols, vals) = (&mut self.colidx[r.clone()], &mut self.values[r]);
            if cols.windows(2).all(|w| w[0] < w[1]) {
                continue;
            }
            keys.clear();
            keys.extend((cols.iter().zip(0u64..)).map(|(&c, k)| u64::from(c.0) << 32 | k));
            keys.sort_unstable();
            row.clear();
            row.extend_from_slice(vals);
            for (k, &key) in keys.iter().enumerate() {
                cols[k] = Col::new((key >> 32) as usize);
                vals[k] = row[(key & u64::from(u32::MAX)) as usize];
            }
        }
    }

    /// True when every row has strictly increasing column indices.
    pub fn rows_sorted(&self) -> bool {
        (0..self.nrows).all(|i| self.row_cols(i).windows(2).all(|w| w[0] < w[1]))
    }

    /// True when no row stores the same column twice.
    pub fn no_duplicate_cols(&self) -> bool {
        let mut seen = vec![usize::MAX; self.ncols];
        for i in 0..self.nrows {
            for &c in self.row_cols(i) {
                let c = usize::from(c);
                if seen[c] == i {
                    return false;
                }
                seen[c] = i;
            }
        }
        true
    }

    /// True when the matrix is exactly symmetric in structure and values.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = crate::transpose::transpose(self);
        let mut a = self.clone();
        let mut b = t;
        a.sort_rows();
        b.sort_rows();
        if a.rowptr != b.rowptr || a.colidx != b.colidx {
            return false;
        }
        a.values
            .iter()
            .zip(&b.values)
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
    }

    /// Frobenius norm of `self - other`; matrices must be the same shape.
    pub fn frob_diff(&self, other: &Csr) -> f64 {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        let da = self.to_dense();
        let db = other.to_dense();
        da.iter()
            .zip(&db)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// True when `other` stores the identical sparsity pattern: same
    /// shape, same row pointers, and same column indices *in the same
    /// order*. This is the guard used by the numeric-refresh kernels,
    /// which overwrite values positionally over a frozen pattern.
    pub fn same_pattern(&self, other: &Csr) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.rowptr == other.rowptr
            && self.colidx == other.colidx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols(c: &[usize]) -> Vec<Col> {
        c.iter().map(|&c| Col::new(c)).collect()
    }

    fn small() -> Csr {
        // [1 2 0]
        // [0 3 4]
        // [5 0 6]
        Csr::from_parts(
            3,
            3,
            vec![0, 2, 4, 6],
            cols(&[0, 1, 1, 2, 0, 2]),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
    }

    #[test]
    fn shape_and_nnz() {
        let a = small();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.ncols(), 3);
        assert_eq!(a.nnz(), 6);
        assert_eq!(a.row_nnz(0), 2);
    }

    #[test]
    fn get_and_diag() {
        let a = small();
        assert_eq!(a.get(0, 1), Some(2.0));
        assert_eq!(a.get(0, 2), None);
        assert_eq!(a.diag(1), 3.0);
        assert_eq!(a.diag(0), 1.0);
        assert_eq!(a.diagonal(), vec![1.0, 3.0, 6.0]);
    }

    #[test]
    fn dense_roundtrip() {
        let a = small();
        let d = a.to_dense();
        let b = Csr::from_dense(3, 3, &d);
        assert_eq!(a, b);
    }

    #[test]
    fn triplets_sum_duplicates() {
        let a = Csr::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 4.0)]);
        assert_eq!(a.get(0, 0), Some(3.0));
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn identity_matches_dense() {
        let i3 = Csr::identity(3);
        assert_eq!(i3.to_dense(), vec![1., 0., 0., 0., 1., 0., 0., 0., 1.]);
    }

    #[test]
    fn sort_rows_orders_columns() {
        let mut a = Csr::from_parts(1, 4, vec![0, 3], cols(&[3, 0, 2]), vec![3.0, 0.5, 2.0]);
        assert!(!a.rows_sorted());
        a.sort_rows();
        assert!(a.rows_sorted());
        assert_eq!(a.row_cols(0), cols(&[0, 2, 3]));
        assert_eq!(a.row_vals(0), &[0.5, 2.0, 3.0]);
    }

    /// The tuple sort `sort_rows` used before its packed keys: unstable
    /// on equal columns.
    fn sort_rows_by_tuples(m: &mut Csr) {
        for i in 0..m.nrows {
            let r = m.rowptr[i]..m.rowptr[i + 1];
            let mut row: Vec<(Col, f64)> = (m.colidx[r.clone()].iter().copied())
                .zip(m.values[r.clone()].iter().copied())
                .collect();
            row.sort_unstable_by_key(|&(c, _)| c);
            for (k, (c, v)) in r.zip(row) {
                m.colidx[k] = c;
                m.values[k] = v;
            }
        }
    }

    #[test]
    fn sort_rows_matches_the_tuple_sort_and_is_stable() {
        let mut state = 0x5EEDu64;
        let mut next = move |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let ncols = 300;
        let (mut rowptr, mut colidx, mut values) = (vec![0], Vec::new(), Vec::new());
        for i in 0..200 {
            // Distinct columns in random order, some rows empty or sorted.
            let mut row: Vec<usize> = (0..ncols).filter(|_| next(10) < 3).collect();
            if i % 7 != 0 {
                for k in (1..row.len()).rev() {
                    row.swap(k, next(k + 1));
                }
            }
            row.truncate(next(90));
            values.extend(row.iter().map(|&c| c as f64 - 0.5 * f64::from(i)));
            colidx.extend(row.into_iter().map(Col::new));
            rowptr.push(colidx.len());
        }
        let unsorted = Csr::from_parts(200, ncols, rowptr, colidx, values);
        let (mut got, mut want) = (unsorted.clone(), unsorted);
        got.sort_rows();
        sort_rows_by_tuples(&mut want);
        assert_eq!(got.colidx, want.colidx);
        let bits = |m: &Csr| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        // Equal columns keep their input order.
        let mut dup = Csr::from_parts_unchecked(
            1,
            4,
            vec![0, 6],
            cols(&[3, 1, 3, 0, 1, 3]),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        );
        dup.sort_rows();
        assert_eq!(dup.row_cols(0), cols(&[0, 1, 1, 3, 3, 3]));
        assert_eq!(dup.row_vals(0), &[4.0, 2.0, 5.0, 1.0, 3.0, 6.0]);
    }

    #[test]
    fn symmetric_detection() {
        let s = Csr::from_triplets(
            2,
            2,
            vec![(0, 0, 2.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 2.0)],
        );
        assert!(s.is_symmetric(1e-14));
        let ns = Csr::from_triplets(2, 2, vec![(0, 1, -1.0), (1, 1, 2.0)]);
        assert!(!ns.is_symmetric(1e-14));
    }

    #[test]
    #[should_panic(expected = "rowptr must end at nnz")]
    fn invalid_rowptr_panics() {
        Csr::from_parts(1, 1, vec![0, 2], cols(&[0]), vec![1.0]);
    }

    #[test]
    fn zero_matrix() {
        let z = Csr::zero(3, 4);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.to_dense(), vec![0.0; 12]);
    }

    #[test]
    fn duplicate_detection() {
        let dup = Csr::from_parts(1, 3, vec![0, 2], cols(&[1, 1]), vec![1.0, 2.0]);
        assert!(!dup.no_duplicate_cols());
        assert!(small().no_duplicate_cols());
    }

    #[test]
    #[should_panic(expected = "exceed the 32-bit column index")]
    fn a_matrix_wider_than_a_col_is_refused() {
        // No storage is allocated: the width check runs first.
        Csr::from_parts(0, MAX_COLS + 2, vec![0], vec![], vec![]);
    }

    #[test]
    fn col_conversions_are_checked() {
        assert!(Col::try_from(1usize << 32).is_err());
        assert_eq!(Col::try_from(MAX_COLS).map(usize::from), Ok(MAX_COLS));
        assert_eq!(usize::from(Col::new(7)), 7);
        let x = [1.0, 2.0, 3.0];
        assert_eq!(x[Col::new(2)], 3.0);
    }
}
