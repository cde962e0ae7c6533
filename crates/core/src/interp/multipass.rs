//! Multipass interpolation (Stüben 1999) — the `mp` scheme of Fig. 6/8.
//!
//! Designed for aggressive coarsening, where many F-points have no coarse
//! point within distance one: F-points adjacent to C-points get direct
//! interpolation (pass 1); every later pass interpolates the F-points
//! whose strong neighbours were assigned in earlier passes by composing
//! their weights. Cheap to build (the paper's fastest setup) but less
//! accurate than 2-stage extended+i.

use super::common::{CfMap, RowBuilder, TruncParams};
use super::direct::direct_rows;
use famg_sparse::Csr;
use std::ops::Range;

/// Builds the multipass interpolation operator (`n × nc`).
pub fn multipass(a: &Csr, s: &Csr, cf: &CfMap, trunc: Option<&TruncParams>) -> Csr {
    let mut m = Multipass::new(a, s, cf, 0..a.nrows());
    while m.pass() {}
    m.into_operator(trunc)
}

/// The multipass sweep over the rows `rows` of `a`, one [`pass`](Self::pass)
/// at a time. The serial builder runs the passes back to back over every
/// row; a rank of the distributed setup runs them over its owned range and,
/// between two passes, installs the rows its halo points were assigned on
/// their owners ([`set_row`](Self::set_row)).
///
/// Assigned rows live in one append-only arena (a pass reads the rows of
/// earlier passes and appends its own), so a pass allocates nothing per row.
pub struct Multipass<'a> {
    a: &'a Csr,
    s: &'a Csr,
    is_coarse: &'a [bool],
    rows: Range<usize>,
    nc: usize,
    /// `(start, len)` of a point's row in the arena; `len == 0` while
    /// unassigned (an assigned row has an entry).
    span: Vec<(usize, usize)>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    /// Arena slot at which a coarse column was first touched; valid only
    /// while it points into the row being composed.
    marker: Vec<usize>,
    /// `S_i` membership, stamped with `i + 1`.
    strong: Vec<usize>,
}

impl<'a> Multipass<'a> {
    /// Passes 0 and 1 over `rows`: identity rows for the C-points, direct
    /// interpolation (untruncated) where a strong C neighbour exists.
    pub fn new(a: &'a Csr, s: &'a Csr, cf: &'a CfMap, rows: Range<usize>) -> Self {
        let direct = direct_rows(a, s, cf, rows.clone(), None);
        let mut span = vec![(0, 0); a.nrows()];
        for i in rows.clone() {
            let r = direct.row_range(i - rows.start);
            span[i] = (r.start, r.len());
        }
        Multipass {
            a,
            s,
            is_coarse: &cf.is_coarse,
            rows,
            nc: cf.nc,
            span,
            cols: direct.colidx().iter().map(|&c| usize::from(c)).collect(),
            vals: direct.values().to_vec(),
            marker: vec![usize::MAX; cf.nc],
            strong: vec![0; a.nrows()],
        }
    }

    /// The assigned row of point `i` (coarse column indices), if any.
    pub fn row(&self, i: usize) -> Option<(&[usize], &[f64])> {
        let (start, len) = self.span[i];
        (len > 0).then(|| {
            (
                &self.cols[start..start + len],
                &self.vals[start..start + len],
            )
        })
    }

    /// Installs the row another owner assigned to point `i`.
    pub fn set_row(&mut self, i: usize, cols: &[usize], vals: &[f64]) {
        self.span[i] = (self.cols.len(), cols.len());
        self.cols.extend_from_slice(cols);
        self.vals.extend_from_slice(vals);
    }

    /// Renumbers the coarse column space (`map[old] = new`, `nc` columns
    /// afterwards): installed rows can name coarse points no local point
    /// neighbours, and the space must stay ordered like the global one —
    /// truncation breaks ties by column.
    pub fn relabel_cols(&mut self, map: &[usize], nc: usize) {
        for c in &mut self.cols {
            *c = map[*c];
        }
        self.marker.resize(nc, usize::MAX);
        self.nc = nc;
    }

    /// One later pass: every unassigned row of the range with an assigned
    /// strong neighbour composes those neighbours' rows, scaled so the full
    /// row of `A` is represented (direct-interpolation style lumping). Reads
    /// only rows assigned before the pass. Returns whether a row was assigned.
    pub fn pass(&mut self) -> bool {
        let (a, s) = (self.a, self.s);
        let mut fresh: Vec<(usize, usize)> = Vec::new();
        for i in self.rows.clone() {
            let assigned = |j: usize| self.span[j].1 > 0;
            if assigned(i) || !s.col_iter(i).any(&assigned) {
                continue;
            }
            for j in s.col_iter(i) {
                self.strong[j] = i + 1;
            }
            let (mut diag, mut all_sum, mut strong_done_sum) = (0.0f64, 0.0f64, 0.0f64);
            for (c, v) in a.row_iter(i) {
                if c == i {
                    diag = v;
                    continue;
                }
                all_sum += v;
                if self.strong[c] == i + 1 && assigned(c) {
                    strong_done_sum += v;
                }
            }
            if strong_done_sum == 0.0 || diag == 0.0 {
                continue; // try again next pass (or stay empty)
            }
            let alpha = all_sum / strong_done_sum;
            let start = self.cols.len();
            for (k, v) in a.row_iter(i) {
                let (ks, kl) = self.span[k];
                if k == i || self.strong[k] != i + 1 {
                    continue;
                }
                let coef = -alpha * v / diag;
                for t in ks..ks + kl {
                    let (c, w) = (self.cols[t], self.vals[t]);
                    let slot = self.marker[c];
                    if slot >= start && slot < self.cols.len() && self.cols[slot] == c {
                        self.vals[slot] += coef * w;
                    } else {
                        self.marker[c] = self.cols.len();
                        self.cols.push(c);
                        self.vals.push(coef * w);
                    }
                }
            }
            if self.cols.len() > start {
                fresh.push((i, start));
            }
        }
        // Assign only now: the pass read the state it started from.
        let mut end = self.cols.len();
        for &(i, start) in fresh.iter().rev() {
            self.span[i] = (start, end - start);
            end = start;
        }
        !fresh.is_empty()
    }

    /// Assembles the rows of the range, truncating the fine ones; a point no
    /// pass reached keeps an empty row.
    pub fn into_operator(self, trunc: Option<&TruncParams>) -> Csr {
        let mut b = RowBuilder::new(self.rows.len());
        let (mut tc, mut tv) = (Vec::new(), Vec::new());
        for i in self.rows.clone() {
            let (start, len) = self.span[i];
            tc.extend_from_slice(&self.cols[start..start + len]);
            tv.extend_from_slice(&self.vals[start..start + len]);
            b.push_row(&mut tc, &mut tv, trunc.filter(|_| !self.is_coarse[i]));
        }
        b.finish(self.nc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::{aggressive_pmis, pmis};
    use crate::strength::strength;
    use famg_matgen::laplace2d;

    fn setup_aggressive(nx: usize, ny: usize, seed: u64) -> (Csr, Csr, CfMap) {
        let a = laplace2d(nx, ny);
        let s = strength(&a, 0.25, 0.8);
        let c = aggressive_pmis(&s, seed);
        let cf = CfMap::new(c.is_coarse);
        (a, s, cf)
    }

    #[test]
    fn covers_distant_fine_points() {
        let (a, s, cf) = setup_aggressive(20, 20, 1);
        let p = multipass(&a, &s, &cf, None);
        // With aggressive coarsening many F-points are 2+ hops from any
        // C-point; multipass must still interpolate them all (points
        // with strong connections, that is).
        for i in 0..a.nrows() {
            if !cf.is_coarse[i] && s.row_nnz(i) > 0 {
                assert!(p.row_nnz(i) > 0, "fine point {i} uncovered");
            }
        }
    }

    #[test]
    fn constant_preserved_exactly_on_neumann_operator() {
        // With all row sums zero (pure Neumann), every interpolation row
        // must sum to exactly 1 — no boundary contamination.
        let a = famg_matgen::laplace2d_neumann(16, 16);
        let s = strength(&a, 0.25, 10.0);
        let c = aggressive_pmis(&s, 3);
        let cf = CfMap::new(c.is_coarse);
        let p = multipass(&a, &s, &cf, None);
        for i in 0..a.nrows() {
            if p.row_nnz(i) > 0 {
                let w: f64 = p.row_vals(i).iter().sum();
                assert!((w - 1.0).abs() < 1e-9, "row {i}: Σw = {w}");
            }
        }
    }

    #[test]
    fn matches_direct_when_coarsening_standard() {
        // With ordinary PMIS, every F-point has a strong C neighbour, so
        // multipass stops after pass 1 and equals direct interpolation.
        let a = laplace2d(12, 12);
        let s = strength(&a, 0.25, 0.8);
        let c = pmis(&s, 5);
        let cf = CfMap::new(c.is_coarse);
        let mp = multipass(&a, &s, &cf, None);
        let d = super::super::direct_rows(&a, &s, &cf, 0..a.nrows(), None);
        // Identical where direct has entries (pass-1 rows).
        for i in 0..a.nrows() {
            if d.row_nnz(i) > 0 {
                assert_eq!(mp.row_cols(i), d.row_cols(i), "row {i}");
                for (x, y) in mp.row_vals(i).iter().zip(d.row_vals(i)) {
                    assert!((x - y).abs() < 1e-14);
                }
            }
        }
    }

    #[test]
    fn truncation_respected() {
        let (a, s, cf) = setup_aggressive(24, 24, 7);
        let t = TruncParams::paper();
        let p = multipass(&a, &s, &cf, Some(&t));
        for i in 0..a.nrows() {
            if !cf.is_coarse[i] {
                assert!(p.row_nnz(i) <= 4);
            }
        }
    }
}
