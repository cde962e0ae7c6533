//! CF reordering plumbing (§3.1.2, §3.2).
//!
//! After coarsening, the optimized path renumbers points so C-points
//! precede F-points and permutes the operator symmetrically
//! ([`cf_reorder`]). [`partition_rows_gs`] then partitions the entries
//! *within* each row for smoothing, Fig. 2(b):
//! `[diagonal | own-thread lower | own-thread upper | other-thread]`,
//! which removes the per-nonzero ownership branch from hybrid GS and
//! enables the zero-initial-guess skip. It only reorders entries within
//! rows, so SpMV and any other row-order-insensitive kernel keep working
//! on the same matrix.
//!
//! The paper's second row partition, `[coarse same-sign | coarse
//! opposite-sign | fine]` for interpolation construction, is not done in
//! place here: extended+i gathers the one class it reads into a side view
//! (`interp::extended_i`) and leaves the operator's row order alone.

use famg_sparse::partition::{num_threads, split_mut_at, split_rows_by_nnz};
use famg_sparse::permute::{
    cf_permutation, permute_symmetric, Permutation, RowOrder, RowOrderBlock,
};
use famg_sparse::{Col, Csr};
use rayon::prelude::*;
use std::ops::Range;

/// The CF ordering of one level: permutation plus coarse count.
#[derive(Debug, Clone)]
pub struct CfOrdering {
    /// Old-to-new point permutation (coarse first).
    pub perm: Permutation,
    /// Number of coarse points (they occupy `0..nc` after permutation).
    pub nc: usize,
}

/// Builds the CF ordering and the permuted operator in one call.
pub fn cf_reorder(a: &Csr, is_coarse: &[bool]) -> (Csr, CfOrdering) {
    let (perm, nc) = cf_permutation(is_coarse);
    let ap = permute_symmetric(a, &perm);
    (ap, CfOrdering { perm, nc })
}

/// Thread ownership for the optimized hybrid GS: following Fig. 2(b),
/// each parallel task owns one contiguous range of coarse rows and one of
/// fine rows (so both the C-sweep and the F-sweep are load-balanced).
#[derive(Debug, Clone)]
pub struct ThreadOwnership {
    /// Per-thread coarse row range (subset of `0..nc`).
    pub coarse: Vec<Range<usize>>,
    /// Per-thread fine row range (subset of `nc..n`).
    pub fine: Vec<Range<usize>>,
}

impl ThreadOwnership {
    /// Splits the coarse rows `0..nc` and fine rows `nc..n` of a
    /// CF-permuted matrix into `nthreads` nnz-balanced ranges each.
    pub fn build(a: &Csr, nc: usize, nthreads: usize) -> Self {
        let n = a.nrows();
        let rowptr = a.rowptr();
        let nthreads = nthreads.max(1);
        let coarse = if nc == 0 {
            vec![0..0; nthreads]
        } else {
            pad(split_rows_by_nnz(&rowptr[..=nc], nthreads), nthreads, nc)
        };
        let fine = if n == nc {
            vec![n..n; nthreads]
        } else {
            pad(
                split_rows_by_nnz(&rowptr[nc..=n], nthreads)
                    .into_iter()
                    .map(|r| r.start + nc..r.end + nc)
                    .collect(),
                nthreads,
                n,
            )
        };
        ThreadOwnership { coarse, fine }
    }

    /// Number of parallel tasks.
    pub fn nthreads(&self) -> usize {
        self.coarse.len()
    }

    /// The thread owning row `i` (rows below `nc` looked up in the coarse
    /// ranges, others in the fine ranges).
    pub fn owner_of(&self, i: usize, nc: usize) -> usize {
        let set = if i < nc { &self.coarse } else { &self.fine };
        set.iter()
            .position(|r| r.contains(&i))
            .expect("row not covered by ownership")
    }
}

/// Pads a possibly-short range list to exactly `nthreads` entries with
/// empty ranges at `end`.
fn pad(mut v: Vec<Range<usize>>, nthreads: usize, end: usize) -> Vec<Range<usize>> {
    while v.len() < nthreads {
        v.push(end..end);
    }
    v
}

/// Row-internal partition for the optimized hybrid GS (Fig. 2b).
#[derive(Debug, Clone)]
pub struct GsPartition {
    /// Thread ownership the partition was computed against.
    pub own: ThreadOwnership,
    /// For each row: start of the own-thread upper segment, as an offset
    /// from the row's start (`rowptr[i]`).
    pub up_start: Vec<u32>,
    /// For each row: start of the other-thread (external) segment
    /// (`extptr` in Fig. 2b), as an offset from the row's start.
    pub ext_start: Vec<u32>,
    /// Reciprocal diagonal of each row.
    pub dinv: Vec<f64>,
    /// Sorted distinct columns of every row's external segment: the only
    /// entries of the pre-sweep snapshot a sweep reads, so the only ones it
    /// takes. Empty with one task.
    pub ext_cols: Vec<Col>,
}

/// An in-row offset of the GS partition.
fn offset(k: usize) -> u32 {
    u32::try_from(k).expect("GS partition: a row longer than u32")
}

/// Reorders each row of `a` into `[diag | own-lower | own-upper | ext]`
/// relative to the thread ownership, returning the segment boundaries and
/// the inverse diagonal. The diagonal entry is placed first in the row
/// (it stays in the matrix so SpMV is unaffected). "Own" means the column
/// lies in either of the row-owner's two ranges (coarse or fine).
///
/// The partition is stable and depends on the pattern alone. With `order`,
/// each entry's segment is recorded at its pre-partition position (0–3 in
/// the order above), so a refresh can read the rows in the order the
/// build's triple product did.
///
/// Rows are cut into one nnz-balanced block per pool thread, each
/// rewriting its own rows in place; a row's segments are its own business,
/// so the cut changes nothing but who writes. Each block collects its own
/// external columns, and they are merged sorted after the join.
///
/// # Panics
/// Panics when a row has no diagonal entry or the diagonal is zero.
pub fn partition_rows_gs(
    a: &mut Csr,
    nc: usize,
    own: &ThreadOwnership,
    order: Option<&mut RowOrder>,
) -> GsPartition {
    partition_rows_gs_blocks(a, nc, own, order, num_threads())
}

/// One block of rows of [`partition_rows_gs`] and everything it writes.
struct GsBlock<'a> {
    rows: Range<usize>,
    cols: &'a mut [Col],
    vals: &'a mut [f64],
    up_start: &'a mut [u32],
    ext_start: &'a mut [u32],
    dinv: &'a mut [f64],
    order: Option<RowOrderBlock<'a>>,
    ext_cols: Vec<Col>,
}

/// [`partition_rows_gs`] over `nblocks` row blocks.
fn partition_rows_gs_blocks(
    a: &mut Csr,
    nc: usize,
    own: &ThreadOwnership,
    mut order: Option<&mut RowOrder>,
    nblocks: usize,
) -> GsPartition {
    let n = a.nrows();
    let mut up_start = vec![0u32; n];
    let mut ext_start = vec![0u32; n];
    let mut dinv = vec![0.0f64; n];
    let (rowptr, colidx, values) = a.rows_mut();
    let rows = split_rows_by_nnz(rowptr, nblocks);
    let entries: Vec<Range<usize>> = rows
        .iter()
        .map(|r| rowptr[r.start]..rowptr[r.end])
        .collect();
    let row_lens = || rows.iter().map(Range::len);
    let entry_lens = entries.iter().map(Range::len);
    let mut orders = order.as_deref_mut().map(|o| o.blocks(&entries).into_iter());
    let mut blocks: Vec<GsBlock<'_>> = rows
        .iter()
        .zip(split_mut_at(colidx, entry_lens.clone()))
        .zip(split_mut_at(values, entry_lens))
        .zip(split_mut_at(&mut up_start, row_lens()))
        .zip(split_mut_at(&mut ext_start, row_lens()))
        .zip(split_mut_at(&mut dinv, row_lens()))
        .map(
            |(((((r, cols), vals), up_start), ext_start), dinv)| GsBlock {
                rows: r.clone(),
                cols,
                vals,
                up_start,
                ext_start,
                dinv,
                order: orders.as_mut().and_then(Iterator::next),
                ext_cols: Vec::new(),
            },
        )
        .collect();
    blocks
        .par_iter_mut()
        .for_each(|b| partition_block(b, rowptr, nc, own));
    let mut ext_cols = Vec::new();
    let mut edges = Vec::new();
    for b in blocks {
        ext_cols.extend(b.ext_cols);
        edges.extend(b.order.map(RowOrderBlock::edges).unwrap_or_default());
    }
    if let Some(o) = order {
        edges.into_iter().for_each(|(k, g)| o.set_group(k, g));
    }
    ext_cols.sort_unstable();
    ext_cols.dedup();
    GsPartition {
        own: own.clone(),
        up_start,
        ext_start,
        dinv,
        ext_cols,
    }
}

/// The row walk of [`partition_rows_gs`] over one block: its rows'
/// entries, boundaries, inverse diagonals and codes, and its sorted
/// distinct external columns.
fn partition_block(b: &mut GsBlock<'_>, rowptr: &[usize], nc: usize, own: &ThreadOwnership) {
    let base = rowptr[b.rows.start];
    let mut low: Vec<(Col, f64)> = Vec::new();
    let mut up: Vec<(Col, f64)> = Vec::new();
    let mut ext: Vec<(Col, f64)> = Vec::new();
    for i in b.rows.clone() {
        let t = own.owner_of(i, nc);
        let (my_c, my_f) = (&own.coarse[t], &own.fine[t]);
        low.clear();
        up.clear();
        ext.clear();
        let mut diag = None;
        for k in rowptr[i]..rowptr[i + 1] {
            let (col, v) = (b.cols[k - base], b.vals[k - base]);
            let c = usize::from(col);
            let segment = if c == i {
                diag = Some(v);
                0
            } else if my_c.contains(&c) || my_f.contains(&c) {
                if c < i {
                    low.push((col, v));
                    1
                } else {
                    up.push((col, v));
                    2
                }
            } else {
                ext.push((col, v));
                3
            };
            if let Some(o) = b.order.as_mut() {
                o.set_group(k, segment);
            }
        }
        let d = diag.unwrap_or_else(|| panic!("row {i} has no diagonal"));
        assert!(d != 0.0, "zero diagonal in row {i}");
        let r = i - b.rows.start;
        b.dinv[r] = 1.0 / d;
        let mut k = rowptr[i] - base;
        (b.cols[k], b.vals[k]) = (Col::new(i), d);
        for &(c, v) in low.iter().chain(&up).chain(&ext) {
            k += 1;
            (b.cols[k], b.vals[k]) = (c, v);
        }
        b.up_start[r] = offset(1 + low.len());
        b.ext_start[r] = offset(1 + low.len() + up.len());
        b.ext_cols.extend(ext.iter().map(|&(c, _)| c));
    }
    b.ext_cols.sort_unstable();
    b.ext_cols.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use famg_matgen::laplace2d;
    use famg_sparse::spmv::spmv_seq;

    /// The row partition as one serial walk over the rows: what
    /// [`partition_rows_gs`] must write for any cut into blocks.
    fn partition_rows_gs_serial(
        a: &mut Csr,
        nc: usize,
        own: &ThreadOwnership,
        mut order: Option<&mut RowOrder>,
    ) -> GsPartition {
        let n = a.nrows();
        let mut up_start = vec![0u32; n];
        let mut ext_start = vec![0u32; n];
        let mut dinv = vec![0.0f64; n];
        let (rowptr, colidx, values) = a.rows_mut();
        let mut low: Vec<(Col, f64)> = Vec::new();
        let mut up: Vec<(Col, f64)> = Vec::new();
        let mut ext: Vec<(Col, f64)> = Vec::new();
        let mut ext_cols: Vec<Col> = Vec::new();
        for i in 0..n {
            let r = rowptr[i]..rowptr[i + 1];
            let t = own.owner_of(i, nc);
            let my_c = own.coarse[t].clone();
            let my_f = own.fine[t].clone();
            low.clear();
            up.clear();
            ext.clear();
            let mut diag = None;
            for k in r.clone() {
                let (col, v) = (colidx[k], values[k]);
                let c = usize::from(col);
                let segment = if c == i {
                    diag = Some(v);
                    0
                } else if my_c.contains(&c) || my_f.contains(&c) {
                    if c < i {
                        low.push((col, v));
                        1
                    } else {
                        up.push((col, v));
                        2
                    }
                } else {
                    ext.push((col, v));
                    3
                };
                if let Some(o) = order.as_deref_mut() {
                    o.set_group(k, segment);
                }
            }
            let d = diag.unwrap_or_else(|| panic!("row {i} has no diagonal"));
            assert!(d != 0.0, "zero diagonal in row {i}");
            dinv[i] = 1.0 / d;
            let mut k = r.start;
            colidx[k] = Col::new(i);
            values[k] = d;
            k += 1;
            for &(c, v) in low.iter().chain(&up).chain(&ext) {
                colidx[k] = c;
                values[k] = v;
                k += 1;
            }
            up_start[i] = offset(1 + low.len());
            ext_start[i] = offset(1 + low.len() + up.len());
            ext_cols.extend(ext.iter().map(|&(c, _)| c));
        }
        ext_cols.sort_unstable();
        ext_cols.dedup();
        GsPartition {
            own: own.clone(),
            up_start,
            ext_start,
            dinv,
            ext_cols,
        }
    }

    /// The blocked partition at block counts 1 to 7 against the serial
    /// walk: rows, boundaries, inverse diagonal, external columns and the
    /// recorded order, bit for bit.
    fn assert_blocked_is_serial(base: &Csr, nc: usize, tasks: usize) {
        let own = ThreadOwnership::build(base, nc, tasks);
        let mut want = base.clone();
        let mut want_order = RowOrder::new(base.nnz());
        let w = partition_rows_gs_serial(&mut want, nc, &own, Some(&mut want_order));
        for nblocks in 1..=7 {
            let mut got = base.clone();
            let mut order = RowOrder::new(base.nnz());
            let g = partition_rows_gs_blocks(&mut got, nc, &own, Some(&mut order), nblocks);
            let at = format!("n={} tasks={tasks} blocks={nblocks}", base.nrows());
            assert_eq!(got, want, "{at}");
            assert_eq!(order, want_order, "{at}");
            assert_eq!(
                (&g.up_start, &g.ext_start),
                (&w.up_start, &w.ext_start),
                "{at}"
            );
            let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&g.dinv), bits(&w.dinv), "{at}");
            assert_eq!(g.ext_cols, w.ext_cols, "{at}");
            let mut plain = base.clone();
            partition_rows_gs_blocks(&mut plain, nc, &own, None, nblocks);
            assert_eq!(plain, want, "{at}");
        }
    }

    #[test]
    fn blocked_partition_is_the_serial_walk() {
        // Rows of 1 to 6 entries: row starts fall on every residue mod 4,
        // so blocks share bytes of the recorded order.
        let n = 500;
        let trips = (0..n).flat_map(|i| {
            let off = (0..i % 6).map(move |d| (i, (i + 1 + 7 * d) % n, -1.0 - d as f64));
            std::iter::once((i, i, 4.0 + i as f64)).chain(off)
        });
        let ragged = Csr::from_triplets(n, n, trips);
        let shared = (2..=7).any(|nb| {
            split_rows_by_nnz(ragged.rowptr(), nb)
                .iter()
                .any(|r| !ragged.rowptr()[r.start].is_multiple_of(4))
        });
        assert!(shared, "no block starts inside a byte of the order");
        for tasks in 1..=3 {
            assert_blocked_is_serial(&ragged, 170, tasks);
        }
        // A real C/F ordering of a grid.
        let a0 = laplace2d(30, 29);
        let s = crate::strength::strength(&a0, 0.25, 0.8);
        let (a, ord) = cf_reorder(&a0, &crate::coarsen::pmis(&s, 1).is_coarse);
        assert_blocked_is_serial(&a, ord.nc, 2);
        // A 70 000-entry row among rows of the diagonal alone.
        let (n, m) = (70_000usize, 35_001usize);
        let mut trips: Vec<_> = (0..n).map(|j| (m, j, j as f64 + 0.5)).collect();
        trips.extend((0..n).filter(|&i| i != m).map(|i| (i, i, 1.0 + i as f64)));
        assert_blocked_is_serial(&Csr::from_triplets(n, n, trips), 20_000, 3);
    }

    #[test]
    fn cf_reorder_moves_coarse_first() {
        let a = laplace2d(4, 4);
        let is_coarse: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();
        let (ap, ord) = cf_reorder(&a, &is_coarse);
        assert_eq!(ord.nc, 6);
        assert_eq!(ap.nnz(), a.nnz());
        // Diagonal values survive the permutation.
        for i in 0..16 {
            assert_eq!(ap.diag(ord.perm.forward[i]), a.diag(i));
        }
    }

    #[test]
    fn ownership_covers_all_rows() {
        let a = laplace2d(8, 8);
        let nc = 20;
        let own = ThreadOwnership::build(&a, nc, 3);
        assert_eq!(own.nthreads(), 3);
        let mut covered = [false; 64];
        for r in own.coarse.iter().chain(&own.fine) {
            for i in r.clone() {
                assert!(!covered[i], "row {i} double-covered");
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
        // Coarse ranges stay below nc, fine ranges at/above.
        assert!(own.coarse.iter().all(|r| r.end <= nc));
        assert!(own.fine.iter().all(|r| r.start >= nc));
    }

    #[test]
    fn ownership_edge_cases() {
        let a = laplace2d(4, 4);
        let all_coarse = ThreadOwnership::build(&a, 16, 2);
        assert!(all_coarse.fine.iter().all(std::ops::Range::is_empty));
        let all_fine = ThreadOwnership::build(&a, 0, 2);
        assert!(all_fine.coarse.iter().all(std::ops::Range::is_empty));
        assert_eq!(all_fine.owner_of(0, 0), 0);
    }

    #[test]
    fn gs_partition_segments_correct() {
        let mut a = laplace2d(6, 6);
        let nc = 14;
        let own = ThreadOwnership::build(&a, nc, 3);
        let g = partition_rows_gs(&mut a, nc, &own, None);
        for i in 0..a.nrows() {
            let r = a.row_range(i);
            // Diagonal first.
            assert_eq!(usize::from(a.colidx()[r.start]), i);
            assert_eq!(g.dinv[i], 1.0 / 4.0);
            let t = own.owner_of(i, nc);
            let mine = |c: usize| own.coarse[t].contains(&c) || own.fine[t].contains(&c);
            let up = r.start + g.up_start[i] as usize;
            let ext = r.start + g.ext_start[i] as usize;
            for k in r.start + 1..up {
                let c = usize::from(a.colidx()[k]);
                assert!(mine(c) && c < i, "row {i} lower seg");
            }
            for k in up..ext {
                let c = usize::from(a.colidx()[k]);
                assert!(mine(c) && c > i, "row {i} upper seg");
            }
            for k in ext..r.end {
                let c = usize::from(a.colidx()[k]);
                assert!(!mine(c), "row {i} ext seg");
            }
        }
    }

    #[test]
    fn gs_partition_ext_cols_are_the_ext_segment_columns() {
        use std::collections::BTreeSet;
        let base = laplace2d(9, 8);
        let nc = 25;
        for tasks in 1..=4 {
            let mut a = base.clone();
            let own = ThreadOwnership::build(&a, nc, tasks);
            let g = partition_rows_gs(&mut a, nc, &own, None);
            let want: BTreeSet<Col> = (0..a.nrows())
                .flat_map(|i| {
                    let r = a.row_range(i);
                    a.colidx()[r.start + g.ext_start[i] as usize..r.end].to_vec()
                })
                .collect();
            assert_eq!(g.ext_cols, want.into_iter().collect::<Vec<_>>());
            assert_eq!(g.ext_cols.is_empty(), tasks == 1, "tasks={tasks}");
        }
    }

    #[test]
    fn gs_partition_ext_cols_scale_with_the_task_boundary() {
        // A real C/F ordering of the 64 x 64 grid cut into two tasks: the
        // snapshot is a few grid lines (O(edge)), not O(n).
        let a0 = laplace2d(64, 64);
        let s = crate::strength::strength(&a0, 0.25, 0.8);
        let c = crate::coarsen::pmis(&s, 1);
        let (mut a, ord) = cf_reorder(&a0, &c.is_coarse);
        let own = ThreadOwnership::build(&a, ord.nc, 2);
        let g = partition_rows_gs(&mut a, ord.nc, &own, None);
        assert!(!g.ext_cols.is_empty());
        assert!(
            g.ext_cols.len() <= 6 * 64,
            "{} snapshot columns of {}",
            g.ext_cols.len(),
            a.nrows()
        );
    }

    #[test]
    fn gs_partition_preserves_spmv() {
        let mut a = laplace2d(7, 5);
        let before = a.clone();
        let own = ThreadOwnership::build(&a, 10, 4);
        let _ = partition_rows_gs(&mut a, 10, &own, None);
        let x: Vec<f64> = (0..35).map(|i| f64::from(i % 7) - 3.0).collect();
        let mut y1 = vec![0.0; 35];
        let mut y2 = vec![0.0; 35];
        spmv_seq(&before, &x, &mut y1);
        spmv_seq(&a, &x, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-14);
        }
    }

    #[test]
    #[should_panic(expected = "no diagonal")]
    fn gs_partition_requires_diagonal() {
        let mut a = Csr::from_triplets(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
        let own = ThreadOwnership::build(&a, 0, 1);
        partition_rows_gs(&mut a, 0, &own, None);
    }
}
