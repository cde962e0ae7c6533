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

use famg_sparse::permute::{cf_permutation, permute_symmetric, Permutation, RowOrder};
use famg_sparse::Csr;
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
            pad(
                famg_sparse::partition::split_rows_by_nnz(&rowptr[..=nc], nthreads),
                nthreads,
                nc,
            )
        };
        let fine = if n == nc {
            vec![n..n; nthreads]
        } else {
            // Shift the fine sub-rowptr to start at 0 for the splitter.
            let sub: Vec<usize> = rowptr[nc..=n].iter().map(|&p| p - rowptr[nc]).collect();
            pad(
                famg_sparse::partition::split_rows_by_nnz(&sub, nthreads)
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
    /// For each row: start of the own-thread upper segment.
    pub up_start: Vec<usize>,
    /// For each row: start of the other-thread (external) segment
    /// (`extptr` in Fig. 2b).
    pub ext_start: Vec<usize>,
    /// Reciprocal diagonal of each row.
    pub dinv: Vec<f64>,
    /// Sorted distinct columns of every row's external segment: the only
    /// entries of the pre-sweep snapshot a sweep reads, so the only ones it
    /// takes. Empty with one task.
    pub ext_cols: Vec<usize>,
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
/// # Panics
/// Panics when a row has no diagonal entry or the diagonal is zero.
pub fn partition_rows_gs(
    a: &mut Csr,
    nc: usize,
    own: &ThreadOwnership,
    mut order: Option<&mut RowOrder>,
) -> GsPartition {
    let n = a.nrows();
    let rowptr = a.rowptr().to_vec();
    let mut up_start = vec![0usize; n];
    let mut ext_start = vec![0usize; n];
    let mut dinv = vec![0.0f64; n];
    let (colidx, values) = a.colidx_values_mut();
    let mut low: Vec<(usize, f64)> = Vec::new();
    let mut up: Vec<(usize, f64)> = Vec::new();
    let mut ext: Vec<(usize, f64)> = Vec::new();
    let mut ext_cols: Vec<usize> = Vec::new();
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
            let (c, v) = (colidx[k], values[k]);
            let segment = if c == i {
                diag = Some(v);
                0
            } else if my_c.contains(&c) || my_f.contains(&c) {
                if c < i {
                    low.push((c, v));
                    1
                } else {
                    up.push((c, v));
                    2
                }
            } else {
                ext.push((c, v));
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
        colidx[k] = i;
        values[k] = d;
        k += 1;
        for &(c, v) in low.iter().chain(&up).chain(&ext) {
            colidx[k] = c;
            values[k] = v;
            k += 1;
        }
        up_start[i] = r.start + 1 + low.len();
        ext_start[i] = r.start + 1 + low.len() + up.len();
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

#[cfg(test)]
mod tests {
    use super::*;
    use famg_matgen::laplace2d;
    use famg_sparse::spmv::spmv_seq;

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
            assert_eq!(a.colidx()[r.start], i);
            assert_eq!(g.dinv[i], 1.0 / 4.0);
            let t = own.owner_of(i, nc);
            let mine = |c: usize| own.coarse[t].contains(&c) || own.fine[t].contains(&c);
            for k in r.start + 1..g.up_start[i] {
                let c = a.colidx()[k];
                assert!(mine(c) && c < i, "row {i} lower seg");
            }
            for k in g.up_start[i]..g.ext_start[i] {
                let c = a.colidx()[k];
                assert!(mine(c) && c > i, "row {i} upper seg");
            }
            for k in g.ext_start[i]..r.end {
                let c = a.colidx()[k];
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
            let want: BTreeSet<usize> = (0..a.nrows())
                .flat_map(|i| a.colidx()[g.ext_start[i]..a.rowptr()[i + 1]].to_vec())
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
