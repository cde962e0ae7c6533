//! Sparse accumulator (SPA) — the marker-array idiom of §3.1.1.
//!
//! Accumulating a weighted sum of sparse vectors is the inner operation of
//! SpGEMM, strength-matrix construction and interpolation construction. The
//! classic implementation keeps a `marker` array: `marker[col]` stores the
//! position in the output row where column `col` has been placed, or a
//! sentinel older than the current row's start offset when the column has
//! not yet been seen. The marker array doubles as the inverse map of the
//! output row's column indices — exactly the structure the paper identifies
//! as the branch-heavy bottleneck of the setup phase.

use crate::csr::Col;

/// A reusable sparse accumulator over columns `0..ncols`.
///
/// A single `Spa` is reused across all rows processed by one thread; reset
/// between rows is O(row nnz), not O(ncols), because positions are compared
/// against a per-row generation stamp rather than cleared.
pub struct Spa {
    /// `marker[c] = position` stamp; valid iff `>= row_start` of current row.
    marker: Vec<usize>,
    /// Accumulated values, parallel with `cols`.
    vals: Vec<f64>,
    /// Columns touched by the current row, in first-touch order.
    cols: Vec<usize>,
    /// Monotone stamp base so markers from previous rows read as stale.
    epoch: usize,
}

const STALE: usize = usize::MAX;

impl Spa {
    /// Creates an accumulator for vectors with `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        Spa {
            marker: vec![STALE; ncols],
            vals: Vec::new(),
            cols: Vec::new(),
            epoch: 0,
        }
    }

    /// Number of distinct columns accumulated in the current row.
    #[inline]
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when the current row holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Adds `v` into column `c` of the current row.
    #[inline]
    pub fn add(&mut self, c: usize, v: f64) {
        if let Some(p) = self.slot(c) {
            self.vals[p] += v;
        } else {
            self.marker[c] = self.epoch + self.cols.len();
            self.cols.push(c);
            self.vals.push(v);
        }
    }

    /// Position of column `c` in the current row, if present.
    #[inline]
    pub fn position(&self, c: usize) -> Option<usize> {
        self.slot(c)
    }

    /// The marker test in one compare: a stamp of an earlier row (below
    /// `epoch`) and `STALE` both wrap to at least `usize::MAX / 2` past the
    /// epoch, which [`Spa::reset`] keeps at most that.
    #[inline(always)]
    fn slot(&self, c: usize) -> Option<usize> {
        let p = self.marker[c].wrapping_sub(self.epoch);
        (p < self.cols.len()).then_some(p)
    }

    /// The value accumulated for column `c` in the current row (0.0 absent).
    #[inline]
    pub fn get(&self, c: usize) -> f64 {
        self.position(c).map_or(0.0, |p| self.vals[p])
    }

    /// Columns of the current row in first-touch order.
    #[inline]
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Values of the current row, parallel with [`Spa::cols`].
    #[inline]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Appends the current row to output CSR arrays and resets for the next
    /// row. Returns the number of entries emitted.
    pub fn flush_into(&mut self, colidx: &mut Vec<Col>, values: &mut Vec<f64>) -> usize {
        let n = self.cols.len();
        colidx.extend(self.cols.iter().map(|&c| Col::new(c)));
        values.extend_from_slice(&self.vals);
        self.reset();
        n
    }

    /// Appends the current row *sorted by column* (used where downstream
    /// kernels require sorted rows) and resets.
    pub fn flush_sorted_into(&mut self, colidx: &mut Vec<Col>, values: &mut Vec<f64>) -> usize {
        let n = self.cols.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&k| self.cols[k]);
        colidx.extend(order.iter().map(|&k| Col::new(self.cols[k])));
        values.extend(order.iter().map(|&k| self.vals[k]));
        self.reset();
        n
    }

    /// Discards the current row's contents.
    #[inline]
    pub fn reset(&mut self) {
        // Advance the epoch past every stamp handed out for this row so the
        // marker array needs no clearing.
        self.epoch += self.cols.len();
        // Guard against (astronomically unlikely) epoch wrap.
        if self.epoch > usize::MAX / 2 {
            self.marker.fill(STALE);
            self.epoch = 0;
        }
        self.cols.clear();
        self.vals.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_duplicates() {
        let mut spa = Spa::new(8);
        spa.add(3, 1.0);
        spa.add(5, 2.0);
        spa.add(3, 4.0);
        assert_eq!(spa.len(), 2);
        assert_eq!(spa.get(3), 5.0);
        assert_eq!(spa.get(5), 2.0);
        assert_eq!(spa.get(0), 0.0);
    }

    #[test]
    fn flush_preserves_first_touch_order() {
        let mut spa = Spa::new(8);
        spa.add(5, 1.0);
        spa.add(2, 2.0);
        spa.add(5, 1.0);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        let n = spa.flush_into(&mut cols, &mut vals);
        assert_eq!(n, 2);
        assert_eq!(cols, [5, 2].map(Col::new));
        assert_eq!(vals, vec![2.0, 2.0]);
        assert!(spa.is_empty());
    }

    #[test]
    fn flush_sorted_orders_columns() {
        let mut spa = Spa::new(8);
        spa.add(5, 1.0);
        spa.add(2, 2.0);
        spa.add(7, 3.0);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        spa.flush_sorted_into(&mut cols, &mut vals);
        assert_eq!(cols, [2, 5, 7].map(Col::new));
        assert_eq!(vals, vec![2.0, 1.0, 3.0]);
    }

    #[test]
    fn reuse_across_rows_does_not_leak() {
        let mut spa = Spa::new(4);
        spa.add(1, 1.0);
        spa.add(2, 2.0);
        spa.reset();
        // Column 1 must read as absent in the new row.
        assert_eq!(spa.get(1), 0.0);
        spa.add(1, 7.0);
        assert_eq!(spa.get(1), 7.0);
        assert_eq!(spa.len(), 1);
    }

    #[test]
    fn many_rows_epoch_progression() {
        let mut spa = Spa::new(3);
        for row in 0..1000 {
            spa.add(row % 3, 1.0);
            spa.add((row + 1) % 3, 1.0);
            assert_eq!(spa.len(), 2);
            spa.reset();
        }
    }

    #[test]
    fn position_lookup() {
        let mut spa = Spa::new(6);
        spa.add(4, 1.0);
        spa.add(0, 1.0);
        assert_eq!(spa.position(4), Some(0));
        assert_eq!(spa.position(0), Some(1));
        assert_eq!(spa.position(2), None);
    }
}
