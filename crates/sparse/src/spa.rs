//! Sparse accumulator (SPA) — the marker-array idiom of §3.1.1.
//!
//! Accumulating a weighted sum of sparse vectors is the inner operation of
//! SpGEMM, strength-matrix construction and interpolation construction. The
//! classic implementation keeps a `marker` array: `marker[col]` stores the
//! position in the output row where column `col` has been placed, or a
//! sentinel older than the current row's start offset when the column has
//! not yet been seen. The marker array doubles as the inverse map of the
//! output row's column indices — exactly the structure the paper identifies
//! as the branch-heavy bottleneck of the setup phase. [`OrderedSpa`] hands
//! its row back in column order, for kernels whose sums must follow it.

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

    /// The marker test in one compare: a stamp of an earlier row (below
    /// `epoch`) and `STALE` both wrap to at least `usize::MAX / 2` past the
    /// epoch, which [`Spa::reset`] keeps at most that.
    #[inline(always)]
    fn slot(&self, c: usize) -> Option<usize> {
        let p = self.marker[c].wrapping_sub(self.epoch);
        (p < self.cols.len()).then_some(p)
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

/// A sparse accumulator that drains its row in ascending column order: a
/// dense value array beside a bitmap of the touched columns, scanned over
/// the row's window; a row wider than [`OrderedSpa::WORDS_PER_ENTRY`] words
/// per entry sorts its column list instead (the same order, the same sums).
pub struct OrderedSpa {
    /// Value of every touched column (stale elsewhere).
    vals: Vec<f64>,
    /// Bit `c % 64` of word `c / 64` is set iff column `c` is touched.
    bits: Vec<u64>,
    /// Touched columns, first-touch order.
    cols: Vec<Col>,
}

impl OrderedSpa {
    /// The widest window, in bitmap words per entry, a drain scans (a word
    /// costs about a sort's step per entry; a 3-D `R_i·A` row spans ~3).
    pub const WORDS_PER_ENTRY: usize = 8;

    /// Creates an accumulator for vectors with `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        let (vals, bits) = (vec![0.0; ncols], vec![0; ncols.div_ceil(64)]);
        OrderedSpa {
            vals,
            bits,
            cols: Vec::new(),
        }
    }

    /// Adds `v` into column `c` of the current row.
    #[inline]
    pub fn add(&mut self, c: usize, v: f64) {
        let (w, bit) = (c / 64, 1u64 << (c % 64));
        if self.bits[w] & bit == 0 {
            self.bits[w] |= bit;
            self.vals[c] = v;
            self.cols.push(Col::new(c));
        } else {
            self.vals[c] += v;
        }
    }

    /// Calls `f(column, value)` for every column of the current row in
    /// ascending order, and resets for the next row.
    pub fn drain(&mut self, mut f: impl FnMut(usize, f64)) {
        let words = self.cols.iter().map(|&c| usize::from(c) / 64);
        let (lo, hi) = words.fold((usize::MAX, 0), |(l, h), w| (l.min(w), h.max(w)));
        if lo > hi {
            return;
        }
        if hi - lo < Self::WORDS_PER_ENTRY * self.cols.len() {
            for (w, bits) in (lo..).zip(&mut self.bits[lo..=hi]) {
                let mut word = std::mem::take(bits);
                while word != 0 {
                    let c = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    f(c, self.vals[c]);
                }
            }
        } else {
            self.cols.sort_unstable();
            for &c in &self.cols {
                let c = usize::from(c);
                self.bits[c / 64] = 0;
                f(c, self.vals[c]);
            }
        }
        self.cols.clear();
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
        assert_eq!(spa.cols(), &[3, 5]);
        assert_eq!(spa.vals(), &[5.0, 2.0]);
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
        assert!(spa.cols().is_empty());
    }

    #[test]
    fn reuse_across_rows_does_not_leak() {
        let mut spa = Spa::new(4);
        spa.add(1, 1.0);
        spa.add(2, 2.0);
        spa.reset();
        // Column 1 must read as absent in the new row.
        assert!(spa.cols().is_empty());
        spa.add(1, 7.0);
        assert_eq!((spa.cols(), spa.vals()), (&[1][..], &[7.0][..]));
    }

    #[test]
    fn many_rows_epoch_progression() {
        let mut spa = Spa::new(3);
        for row in 0..1000 {
            spa.add(row % 3, 1.0);
            spa.add((row + 1) % 3, 1.0);
            assert_eq!(spa.cols().len(), 2);
            spa.reset();
        }
    }

    #[test]
    fn ordered_spa_drains_ascending_on_both_routes() {
        let mut spa = OrderedSpa::new(5000);
        // Dense window (bitmap scan), then a sparse one (sorted list), then
        // the dense one again: each drain leaves nothing behind.
        for cols in [
            &[70usize, 3, 64, 65, 3][..],
            &[4999, 0, 2500],
            &[65, 70, 64],
        ] {
            for &c in cols {
                spa.add(c, c as f64);
            }
            let mut got = Vec::new();
            spa.drain(|c, v| got.push((c, v)));
            let mut want: Vec<usize> = cols.to_vec();
            want.sort_unstable();
            want.dedup();
            let want: Vec<(usize, f64)> = want
                .iter()
                .map(|&c| {
                    (
                        c,
                        c as f64 * cols.iter().filter(|&&d| d == c).count() as f64,
                    )
                })
                .collect();
            assert_eq!(got, want);
        }
    }
}
