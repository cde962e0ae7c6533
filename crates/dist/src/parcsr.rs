//! The ParCSR distributed matrix (Fig. 3a) and its extended local form.
//!
//! Rows are partitioned among ranks by contiguous ranges. Each rank
//! stores its block-diagonal part (`diag`, local columns) and its
//! off-diagonal part (`offd`) whose column indices are *compressed*:
//! `offd` column `k` corresponds to global column `colmap[k]`, and
//! `colmap` is kept sorted so gathered halo elements land in a
//! contiguous, binary-searchable external vector. Both blocks keep every
//! row's columns ascending, which is what the solve kernels stream.
//!
//! The setup phase does not work on the two blocks. It merges a rank's rows
//! into one [`Csr`] over an [`ExtSpace`] — the halo below the owned range,
//! the owned range, the halo above, numbered in that (ascending global)
//! order — appends the rows gathered from other ranks
//! ([`ParCsr::extended`]), runs the single-node kernel on the owned row
//! range, and splits the result back ([`ParCsr::from_local`]). Because the
//! numbering is monotone in the global id, a merged row lists its entries
//! in the order the undistributed matrix stores them, so a kernel sums a
//! row the same way at every rank count (DESIGN.md §2.3).

use crate::halo::GatheredRows;
use famg_sparse::csr::MAX_COLS;
use famg_sparse::{Col, Csr};
use std::ops::Range;

/// One rank's share of a distributed matrix.
#[derive(Debug, Clone)]
pub struct ParCsr {
    /// Global row range start (inclusive).
    pub row_start: usize,
    /// Global row range end (exclusive).
    pub row_end: usize,
    /// Global column count.
    pub global_cols: usize,
    /// Row-range starts of the *column* partition, length `nranks + 1`
    /// (for square operators this equals the row partition).
    pub col_starts: Vec<usize>,
    /// Block-diagonal part; columns are local (`global - col_start`).
    pub diag: Csr,
    /// Off-diagonal part; columns are compressed via `colmap`.
    pub offd: Csr,
    /// Sorted map from compressed off-diagonal column to global column.
    pub colmap: Vec<usize>,
    /// Local rows whose `offd` row is empty (ascending). These depend only
    /// on owned data, so kernels can process them while a halo exchange is
    /// in flight. Computed once at construction.
    pub interior_rows: Vec<usize>,
    /// Local rows with at least one `offd` entry (ascending) — the rows
    /// that must wait for the halo.
    pub boundary_rows: Vec<usize>,
}

/// Partitions `0..offd.nrows()` into (interior, boundary) by whether the
/// `offd` row is empty, both ascending.
fn interior_boundary_split(offd: &Csr) -> (Vec<usize>, Vec<usize>) {
    (0..offd.nrows()).partition(|&i| offd.row_nnz(i) == 0)
}

/// One rank's local index space over global ids: the halo ids below the
/// owned range, the owned range, the halo ids above it — ascending in the
/// global id throughout. Global ids are `usize`; a local index must fit a
/// [`Col`], the column index of the extended local CSR.
#[derive(Debug, Clone)]
pub struct ExtSpace {
    /// Local → global, strictly ascending.
    pub ext2g: Vec<usize>,
    /// Local indices of the owned range.
    pub own: Range<usize>,
    /// First owned global id.
    own_start: usize,
}

impl ExtSpace {
    /// The space of the owned global range `[own.0, own.1)` and the sorted,
    /// distinct halo ids `halo` (none of them owned).
    pub fn new(own: (usize, usize), halo: &[usize]) -> ExtSpace {
        debug_assert!(halo.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(halo.iter().all(|&g| g < own.0 || g >= own.1));
        let lo = halo.partition_point(|&g| g < own.0);
        let mut ext2g = Vec::with_capacity(halo.len() + own.1 - own.0);
        ext2g.extend_from_slice(&halo[..lo]);
        ext2g.extend(own.0..own.1);
        ext2g.extend_from_slice(&halo[lo..]);
        debug_assert!(ext2g.len() <= MAX_COLS, "local space wider than a Col");
        ExtSpace {
            ext2g,
            own: lo..lo + (own.1 - own.0),
            own_start: own.0,
        }
    }

    /// Like [`new`](Self::new), with the halo given as a sorted `base` plus
    /// ids in any order, with repeats, owned ones included (the column
    /// indices of gathered rows).
    pub fn with_received(
        own: (usize, usize),
        base: &[usize],
        received: impl Iterator<Item = usize>,
    ) -> ExtSpace {
        let mut halo: Vec<usize> = received.filter(|&g| g < own.0 || g >= own.1).collect();
        halo.extend_from_slice(base);
        halo.sort_unstable();
        halo.dedup();
        ExtSpace::new(own, &halo)
    }

    /// The halo ids, ascending.
    pub fn halo(&self) -> impl Iterator<Item = usize> + '_ {
        let (below, rest) = self.ext2g.split_at(self.own.start);
        below.iter().chain(&rest[self.own.len()..]).copied()
    }

    /// Local index of the global id `g`: an offset for an owned id, a
    /// binary search for a halo id.
    ///
    /// # Panics
    /// Panics if `g` is not in the space.
    pub fn local(&self, g: usize) -> usize {
        if g >= self.own_start && g - self.own_start < self.own.len() {
            return self.own.start + (g - self.own_start);
        }
        self.ext2g
            .binary_search(&g)
            .unwrap_or_else(|_| panic!("global index {g} is not in the local index space"))
    }

    /// [`local`](Self::local) as a stored column index.
    #[inline]
    pub fn col(&self, g: usize) -> Col {
        Col::new(self.local(g))
    }

    /// Adds the sorted, distinct halo ids `new`, none of them present, and
    /// returns the old → new local index map.
    pub fn insert_sorted(&mut self, new: &[usize]) -> Vec<usize> {
        let mut map = Vec::with_capacity(self.ext2g.len());
        let mut merged = Vec::with_capacity(self.ext2g.len() + new.len());
        let mut k = 0usize;
        for &g in &self.ext2g {
            while k < new.len() && new[k] < g {
                merged.push(new[k]);
                k += 1;
            }
            map.push(merged.len());
            merged.push(g);
        }
        merged.extend_from_slice(&new[k..]);
        debug_assert!(merged.len() <= MAX_COLS, "local space wider than a Col");
        let below = new.partition_point(|&g| g < self.own_start);
        self.own = self.own.start + below..self.own.end + below;
        self.ext2g = merged;
        map
    }
}

impl ParCsr {
    /// Number of local rows.
    pub fn local_rows(&self) -> usize {
        self.row_end - self.row_start
    }

    /// This rank's owned column range (square-partition convention).
    pub fn col_range(&self, rank: usize) -> (usize, usize) {
        (self.col_starts[rank], self.col_starts[rank + 1])
    }

    /// Local nnz (diag + offd).
    pub fn local_nnz(&self) -> usize {
        self.diag.nnz() + self.offd.nnz()
    }

    /// Splits rows `[row_start, row_end)` of a global matrix into the
    /// ParCSR layout for one rank. `col_starts` defines the column
    /// ownership (usually the same partition as rows).
    pub fn from_global_rows(
        a: &Csr,
        row_start: usize,
        row_end: usize,
        col_starts: Vec<usize>,
        my_rank: usize,
    ) -> ParCsr {
        assert!(row_end <= a.nrows());
        let span = a.rowptr()[row_start]..a.rowptr()[row_end];
        let own = (col_starts[my_rank], col_starts[my_rank + 1]);
        let global = a.colidx()[span.clone()].iter().map(|&g| usize::from(g));
        let cols = ExtSpace::with_received(own, &[], global);
        let mut local = Csr::from_parts_unchecked(
            row_end - row_start,
            cols.ext2g.len(),
            (a.rowptr()[row_start..=row_end]
                .iter()
                .map(|&p| p - span.start))
            .collect(),
            (a.colidx()[span.clone()]
                .iter()
                .map(|&g| cols.col(usize::from(g))))
            .collect(),
            a.values()[span].to_vec(),
        );
        local.sort_rows();
        ParCsr::from_local(&local, &cols, row_start, row_end, a.ncols(), col_starts)
    }

    /// Builds from this rank's rows `local` over the column space `cols`
    /// (what a setup kernel returns): columns of the owned range go to
    /// `diag`, the halo columns some row references are compressed into
    /// `offd` and `colmap`. Rows must list their columns ascending — the
    /// blocks then do too.
    pub fn from_local(
        local: &Csr,
        cols: &ExtSpace,
        row_start: usize,
        row_end: usize,
        global_cols: usize,
        col_starts: Vec<usize>,
    ) -> ParCsr {
        let nl = row_end - row_start;
        assert_eq!(local.nrows(), nl);
        assert_eq!(local.ncols(), cols.ext2g.len());
        debug_assert!(local.rows_sorted(), "from_local needs ascending rows");
        let own = cols.own.clone();
        let mut d_rp = Vec::with_capacity(nl + 1);
        let mut d_ci = Vec::with_capacity(local.nnz());
        let mut d_v = Vec::with_capacity(local.nnz());
        let mut o_rp = Vec::with_capacity(nl + 1);
        let mut o_ci = Vec::new();
        let mut o_v = Vec::new();
        d_rp.push(0);
        o_rp.push(0);
        for i in 0..nl {
            // A row is ascending, so it is three runs: halo below, owned,
            // halo above. Most rows are the owned run alone.
            let (rc, rv) = (local.row_cols(i), local.row_vals(i));
            let below = |c: &Col| usize::from(*c) < own.start;
            let above = |c: &Col| usize::from(*c) >= own.end;
            let interior = !rc.first().is_some_and(below) && !rc.last().is_some_and(above);
            let (b, e) = if interior {
                (0, rc.len())
            } else {
                (rc.partition_point(below), rc.partition_point(|c| !above(c)))
            };
            d_ci.extend(
                rc[b..e]
                    .iter()
                    .map(|&c| Col::new(usize::from(c) - own.start)),
            );
            d_v.extend_from_slice(&rv[b..e]);
            o_ci.extend(rc[..b].iter().chain(&rc[e..]));
            o_v.extend(rv[..b].iter().chain(&rv[e..]));
            d_rp.push(d_ci.len());
            o_rp.push(o_ci.len());
        }
        // Compress the halo columns some row references.
        let mut compressed = vec![usize::MAX; cols.ext2g.len()];
        for &c in &o_ci {
            compressed[usize::from(c)] = 0;
        }
        let mut colmap = Vec::new();
        for (c, k) in compressed.iter_mut().enumerate() {
            if *k == 0 {
                *k = colmap.len();
                colmap.push(cols.ext2g[c]);
            }
        }
        for c in &mut o_ci {
            *c = Col::new(compressed[usize::from(*c)]);
        }
        let offd = Csr::from_parts_unchecked(nl, colmap.len(), o_rp, o_ci, o_v);
        let (interior_rows, boundary_rows) = interior_boundary_split(&offd);
        ParCsr {
            row_start,
            row_end,
            global_cols,
            diag: Csr::from_parts_unchecked(nl, own.len(), d_rp, d_ci, d_v),
            offd,
            colmap,
            col_starts,
            interior_rows,
            boundary_rows,
        }
    }

    /// The local index space of this matrix's own columns: the owned
    /// column range plus `colmap`.
    pub fn col_space(&self, my_rank: usize) -> ExtSpace {
        ExtSpace::new(self.col_range(my_rank), &self.colmap)
    }

    /// The extended local CSR (Fig. 3c): a `rows × cols` matrix whose owned
    /// row range holds this rank's rows, `diag` and `offd` merged, and whose
    /// halo rows hold the gathered rows `halo` (a halo point nobody gathered
    /// a row for keeps an empty one). `cols` must cover `colmap` and every
    /// column of `halo`.
    pub fn extended(
        &self,
        my_rank: usize,
        rows: &ExtSpace,
        cols: &ExtSpace,
        halo: Option<&GatheredRows>,
    ) -> Csr {
        debug_assert_eq!(rows.own.len(), self.local_rows());
        let offd_local: Vec<Col> = self.colmap.iter().map(|&g| cols.col(g)).collect();
        let nnz = self.local_nnz() + halo.map_or(0, |h| h.cols.len());
        let mut rowptr = Vec::with_capacity(rows.ext2g.len() + 1);
        let mut colidx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        rowptr.push(0);
        let mut next = 0usize; // cursor into the gathered rows (ascending ids)
        for e in 0..rows.ext2g.len() {
            if rows.own.contains(&e) {
                let i = e - rows.own.start;
                if self.offd.row_nnz(i) == 0 {
                    // An interior row is its diagonal block shifted.
                    let shift = |c: usize| Col::new(cols.own.start + c);
                    colidx.extend(self.diag.col_iter(i).map(shift));
                    values.extend_from_slice(self.diag.row_vals(i));
                } else {
                    let col = |c: Result<usize, usize>| {
                        c.map_or_else(|k| offd_local[k], |c| Col::new(cols.own.start + c))
                    };
                    self.visit_row(i, my_rank, |c, v| {
                        colidx.push(col(c));
                        values.push(v);
                    });
                }
            } else if let Some(h) = halo.filter(|h| h.rows.get(next) == Some(&rows.ext2g[e])) {
                let (hc, hv) = h.row(next);
                colidx.extend(hc.iter().map(|&g| cols.col(g)));
                values.extend_from_slice(hv);
                next += 1;
            }
            rowptr.push(colidx.len());
        }
        debug_assert!(halo.is_none_or(|h| next == h.rows.len()));
        Csr::from_parts_unchecked(rows.ext2g.len(), cols.ext2g.len(), rowptr, colidx, values)
    }

    /// This rank's rows alone, merged over `cols`.
    pub fn merged(&self, my_rank: usize, cols: &ExtSpace) -> Csr {
        let rows = ExtSpace::new((self.row_start, self.row_end), &[]);
        self.extended(my_rank, &rows, cols, None)
    }

    /// Calls `f(column, value)` for every entry of local row `i` in
    /// ascending global column order (the blocks being ascending): the
    /// `offd` entries below the owned range, `diag`, the `offd` entries
    /// above. A column is `Ok(diag column)` or `Err(offd column)`.
    fn visit_row(&self, i: usize, my_rank: usize, mut f: impl FnMut(Result<usize, usize>, f64)) {
        let c0 = self.col_starts[my_rank];
        let below = |k: usize| self.colmap[k] < c0;
        (self.offd.row_iter(i).filter(|&(k, _)| below(k))).for_each(|(k, v)| f(Err(k), v));
        self.diag.row_iter(i).for_each(|(c, v)| f(Ok(c), v));
        (self.offd.row_iter(i).filter(|&(k, _)| !below(k))).for_each(|(k, v)| f(Err(k), v));
    }

    /// Calls `f(global_column, value)` for every entry of local row `i`,
    /// ascending.
    pub fn visit_global_row(&self, i: usize, my_rank: usize, mut f: impl FnMut(usize, f64)) {
        let c0 = self.col_starts[my_rank];
        self.visit_row(i, my_rank, |c, v| {
            f(c.map_or_else(|k| self.colmap[k], |c| c0 + c), v);
        });
    }

    /// Local row `i`'s entries with *global* column indices (test and
    /// reassembly helper; the setup kernels read [`extended`](Self::extended)
    /// rows instead).
    pub fn global_row(&self, i: usize, my_rank: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(self.diag.row_nnz(i) + self.offd.row_nnz(i));
        self.visit_global_row(i, my_rank, |c, v| out.push((c, v)));
        out
    }
}

/// The rank owning index `g` under partition `starts`. Handles empty
/// ranks (duplicate boundaries): the owner is the rank whose non-empty
/// range actually contains `g`.
///
/// # Panics
/// Panics (also in release) if `g` lies outside the partition: a
/// malformed colmap would otherwise index `starts` out of bounds with an
/// uninformative slice error.
pub fn owner_of(starts: &[usize], g: usize) -> usize {
    let extent = starts.last().copied().unwrap_or(0);
    assert!(
        g < extent,
        "owner_of: global index {g} outside the partition extent {extent} \
         ({} ranks) — malformed colmap or wrong `starts`",
        starts.len().saturating_sub(1)
    );
    let mut r = match starts.binary_search(&g) {
        Ok(r) => r,
        Err(r) => r - 1,
    };
    // Skip over empty ranks sharing the boundary.
    while starts[r + 1] <= g {
        r += 1;
    }
    r
}

/// Splits `n` rows into `nranks` contiguous near-equal ranges; returns
/// the `nranks + 1` start offsets.
pub fn default_partition(n: usize, nranks: usize) -> Vec<usize> {
    (0..=nranks).map(|r| n * r / nranks).collect()
}

/// Reassembles a global matrix from all ranks' pieces (test helper).
pub fn to_global(parts: &[ParCsr]) -> Csr {
    let n = parts.last().map_or(0, |p| p.row_end);
    let ncols = parts.first().map_or(0, |p| p.global_cols);
    let mut trips = Vec::new();
    for (rank, p) in parts.iter().enumerate() {
        for i in 0..p.local_rows() {
            for (c, v) in p.global_row(i, rank) {
                trips.push((p.row_start + i, c, v));
            }
        }
    }
    Csr::from_triplets(n, ncols, trips)
}

/// Test oracle: the reassembled parts are the serial kernel's operator —
/// pattern and every value bit, once its rows are sorted — and both blocks
/// of every part keep their columns ascending.
#[cfg(test)]
pub(crate) fn assert_parts_are_serial(parts: &[ParCsr], mut serial: Csr, what: &str) {
    serial.sort_rows();
    let dist = to_global(parts);
    assert_eq!(
        (dist.nrows(), dist.ncols()),
        (serial.nrows(), serial.ncols()),
        "{what}"
    );
    assert_eq!(dist.rowptr(), serial.rowptr(), "{what}: row lengths");
    assert_eq!(dist.colidx(), serial.colidx(), "{what}: columns");
    let bits = |m: &Csr| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&dist), bits(&serial), "{what}: value bits");
    for (r, p) in parts.iter().enumerate() {
        assert!(
            p.diag.rows_sorted() && p.offd.rows_sorted(),
            "{what}: rank {r}"
        );
        assert!(p.colmap.windows(2).all(|w| w[0] < w[1]), "{what}: rank {r}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use famg_matgen::laplace2d;

    #[test]
    fn partition_covers() {
        let s = default_partition(10, 3);
        assert_eq!(s, vec![0, 3, 6, 10]);
        assert_eq!(owner_of(&s, 0), 0);
        assert_eq!(owner_of(&s, 3), 1);
        assert_eq!(owner_of(&s, 9), 2);
    }

    #[test]
    fn owner_of_skips_empty_ranks() {
        // Ranks 1 and 3 are empty.
        let s = vec![0, 2, 2, 5, 5, 8];
        assert_eq!(owner_of(&s, 0), 0);
        assert_eq!(owner_of(&s, 2), 2);
        assert_eq!(owner_of(&s, 4), 2);
        assert_eq!(owner_of(&s, 5), 4);
        assert_eq!(owner_of(&s, 7), 4);
    }

    #[test]
    fn split_and_reassemble() {
        let a = laplace2d(8, 8);
        let starts = default_partition(64, 3);
        let parts: Vec<ParCsr> = (0..3)
            .map(|r| ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r))
            .collect();
        let b = to_global(&parts);
        assert_eq!(a.to_dense(), b.to_dense());
        // nnz conserved.
        let total: usize = parts.iter().map(super::ParCsr::local_nnz).sum();
        assert_eq!(total, a.nnz());
    }

    #[test]
    fn colmap_sorted_and_minimal() {
        let a = laplace2d(6, 6);
        let starts = default_partition(36, 4);
        for r in 0..4 {
            let p = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
            assert!(p.colmap.windows(2).all(|w| w[0] < w[1]));
            // Every colmap entry is actually referenced.
            let mut used = vec![false; p.colmap.len()];
            for &c in p.offd.colidx() {
                used[usize::from(c)] = true;
            }
            assert!(used.iter().all(|&u| u));
            // No colmap entry lies in the owned range.
            let (c0, c1) = p.col_range(r);
            assert!(p.colmap.iter().all(|&c| c < c0 || c >= c1));
        }
    }

    #[test]
    fn global_row_roundtrip() {
        let a = laplace2d(5, 5);
        let starts = default_partition(25, 2);
        let p = ParCsr::from_global_rows(&a, starts[1], starts[2], starts.clone(), 1);
        for i in 0..p.local_rows() {
            let g = p.global_row(i, 1);
            let expect: Vec<(usize, f64)> = a.row_iter(starts[1] + i).collect();
            assert_eq!(g, expect);
        }
    }

    #[test]
    fn from_local_matches_from_global() {
        // Merge a rank's blocks over its own column space, and over one
        // with halo ids no row references: the constructor gives back the
        // blocks it was given, with the unreferenced ids compressed away.
        let a = laplace2d(6, 4);
        let starts = default_partition(24, 3);
        for r in 0..3 {
            let p = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
            let unused = (0..24).filter(|&g| g < starts[r] || g >= starts[r + 1]);
            for cols in [
                p.col_space(r),
                ExtSpace::with_received(p.col_range(r), &p.colmap, unused),
            ] {
                let local = p.merged(r, &cols);
                assert!(local.rows_sorted());
                for i in 0..p.local_rows() {
                    let g: Vec<(usize, f64)> =
                        local.row_iter(i).map(|(c, v)| (cols.ext2g[c], v)).collect();
                    assert_eq!(g, p.global_row(i, r));
                }
                let q =
                    ParCsr::from_local(&local, &cols, starts[r], starts[r + 1], 24, starts.clone());
                assert_eq!((&q.diag, &q.offd, &q.colmap), (&p.diag, &p.offd, &p.colmap));
                assert_eq!(q.interior_rows, p.interior_rows);
                assert_eq!(q.boundary_rows, p.boundary_rows);
            }
        }
    }

    #[test]
    fn ext_space_is_monotone_and_grows_in_place() {
        let mut sp = ExtSpace::with_received((10, 14), &[3, 20], [25, 11, 3, 7, 25].into_iter());
        assert_eq!(sp.ext2g, vec![3, 7, 10, 11, 12, 13, 20, 25]);
        assert_eq!(sp.own, 2..6);
        for (e, &g) in sp.ext2g.iter().enumerate() {
            assert_eq!(sp.local(g), e);
        }
        let map = sp.insert_sorted(&[1, 5, 22, 30]);
        assert_eq!(sp.ext2g, vec![1, 3, 5, 7, 10, 11, 12, 13, 20, 22, 25, 30]);
        assert_eq!(sp.own, 4..8);
        assert_eq!(map, vec![1, 3, 4, 5, 6, 7, 8, 10]);
        // An empty rank owns an empty range between its halo ids.
        let empty = ExtSpace::new((5, 5), &[2, 9]);
        assert_eq!((empty.own.clone(), empty.local(9)), (1..1, 1));
    }

    #[test]
    fn single_rank_has_empty_offd() {
        let a = laplace2d(4, 4);
        let p = ParCsr::from_global_rows(&a, 0, 16, vec![0, 16], 0);
        assert_eq!(p.offd.nnz(), 0);
        assert!(p.colmap.is_empty());
        assert_eq!(p.diag.to_dense(), a.to_dense());
    }
}
