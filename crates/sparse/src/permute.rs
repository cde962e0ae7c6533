//! Row/column permutations and the CF (coarse-first) reordering of §3.1.2.
//!
//! The paper renumbers grid points so all coarse points precede all fine
//! points, permuting `A` symmetrically and `P` by rows. With that ordering:
//!
//! * `P = [I; P_F]` — its top block is the identity (coarse error
//!   interpolates to itself in classical AMG), so triple products and
//!   interpolation/restriction SpMVs can skip the identity block,
//! * C-F relaxation sweeps become two loops over contiguous ranges instead
//!   of a per-row `is_coarse` branch,
//! * "is this column coarse" becomes `col < nc`.

use crate::csr::Csr;
use crate::lanes;
use crate::multivec::width;
use crate::partition::{num_threads, split_rows_by_nnz};
use rayon::prelude::*;

/// A permutation `new_index = perm[old_index]` together with its inverse.
#[derive(Debug, Clone)]
pub struct Permutation {
    /// `old -> new`.
    pub forward: Vec<usize>,
    /// `new -> old`.
    pub inverse: Vec<usize>,
}

impl Permutation {
    /// Builds from an `old -> new` map, validating bijectivity.
    pub fn from_forward(forward: Vec<usize>) -> Self {
        let n = forward.len();
        let mut inverse = vec![usize::MAX; n];
        for (old, &new) in forward.iter().enumerate() {
            assert!(new < n, "permutation target out of range");
            assert_eq!(inverse[new], usize::MAX, "permutation not injective");
            inverse[new] = old;
        }
        Permutation { forward, inverse }
    }

    /// The identity permutation on `n` points.
    pub fn identity(n: usize) -> Self {
        Permutation {
            forward: (0..n).collect(),
            inverse: (0..n).collect(),
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// True when the permutation is over zero points.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Permutes a vector: `out[perm[i]] = v[i]`.
    pub fn apply_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.len());
        let mut out = vec![0.0; v.len()];
        for (old, &new) in self.forward.iter().enumerate() {
            out[new] = v[old];
        }
        out
    }

    /// Un-permutes a vector: `out[i] = v[perm[i]]`.
    pub fn unapply_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.len());
        let mut out = vec![0.0; v.len()];
        for (old, &new) in self.forward.iter().enumerate() {
            out[old] = v[new];
        }
        out
    }

    /// Permutes the rows of a `k`-interleaved block into a caller-provided
    /// buffer (the allocation-free form the solve phase uses): row
    /// `perm[i]` of `out` is row `i` of `v`. Whole rows move, so every
    /// column sees the same scatter; a plain vector is the `k = 1` block.
    pub fn apply_rows_into(&self, v: &[f64], k: usize, out: &mut [f64]) {
        self.permute_block(v, k, out, true);
    }

    /// Un-permutes the rows of a `k`-interleaved block: row `i` of `out`
    /// is row `perm[i]` of `v`.
    pub fn unapply_rows_into(&self, v: &[f64], k: usize, out: &mut [f64]) {
        self.permute_block(v, k, out, false);
    }

    fn permute_block(&self, v: &[f64], k: usize, out: &mut [f64], scatter: bool) {
        assert_eq!(v.len(), self.len() * k); // PANIC-FREE: shape guard; solve buffers are sized at setup.
        assert_eq!(out.len(), self.len() * k); // PANIC-FREE: see above.
                                               // Dispatched on the lane width so a row copy is a register move at
                                               // k = 1, not a `memcpy` call per element.
        fn run<const K: usize>(fwd: &[usize], v: &[f64], k: usize, out: &mut [f64], scatter: bool) {
            let kk = width::<K>(k);
            for (old, &new) in fwd.iter().enumerate() {
                let (src, dst) = if scatter { (old, new) } else { (new, old) };
                out[dst * kk..(dst + 1) * kk].copy_from_slice(&v[src * kk..(src + 1) * kk]);
            }
        }
        lanes!(k, run(&self.forward, v, k, out, scatter));
    }
}

/// Builds the coarse-first permutation from a CF marker array
/// (`true` = coarse). Coarse points keep their relative order and map to
/// `0..ncoarse`; fine points follow. Returns the permutation and `ncoarse`.
pub fn cf_permutation(is_coarse: &[bool]) -> (Permutation, usize) {
    let n = is_coarse.len();
    let ncoarse = is_coarse.iter().filter(|&&c| c).count();
    let mut forward = vec![0usize; n];
    let mut next_c = 0usize;
    let mut next_f = ncoarse;
    for (i, &c) in is_coarse.iter().enumerate() {
        if c {
            forward[i] = next_c;
            next_c += 1;
        } else {
            forward[i] = next_f;
            next_f += 1;
        }
    }
    (Permutation::from_forward(forward), ncoarse)
}

/// Symmetric permutation `B = Q A Qᵀ`, i.e. `B[p(i), p(j)] = A[i, j]`.
/// Rows of `B` come out in the column order of the originating rows of `A`
/// (column indices are remapped, not re-sorted — downstream kernels
/// re-partition rows anyway).
pub fn permute_symmetric(a: &Csr, perm: &Permutation) -> Csr {
    assert_eq!(a.nrows(), a.ncols());
    move_rows(a, perm, |old, cols, vals| {
        for (dst, &c) in cols.iter_mut().zip(a.row_cols(old)) {
            *dst = perm.forward[c];
        }
        vals.copy_from_slice(a.row_vals(old));
    })
}

/// Permutes only the rows of `a`: `B[p(i), j] = A[i, j]`.
pub fn permute_rows(a: &Csr, perm: &Permutation) -> Csr {
    move_rows(a, perm, |old, cols, vals| {
        cols.copy_from_slice(a.row_cols(old));
        vals.copy_from_slice(a.row_vals(old));
    })
}

/// Output nonzeros per parallel block below which a permutation is not
/// worth splitting further.
const MIN_BLOCK_NNZ: usize = 1 << 15;

/// Moves row `i` of `a` to row `perm.forward[i]`: row lengths → prefix
/// sum → nnz-balanced row blocks filled in parallel, each into its own
/// slice of the output. `fill(old_row, cols, vals)` writes one moved row.
fn move_rows(
    a: &Csr,
    perm: &Permutation,
    fill: impl Fn(usize, &mut [usize], &mut [f64]) + Sync,
) -> Csr {
    assert_eq!(a.nrows(), perm.len());
    let n = a.nrows();
    let mut rowptr = vec![0usize; n + 1];
    for new in 0..n {
        rowptr[new + 1] = rowptr[new] + a.row_nnz(perm.inverse[new]);
    }
    let nnz = rowptr[n];
    let mut colidx = vec![0usize; nnz];
    let mut values = vec![0.0f64; nnz];
    let nblocks = (nnz / MIN_BLOCK_NNZ).clamp(1, num_threads() * 4);
    let (mut cols_left, mut vals_left) = (&mut colidx[..], &mut values[..]);
    let mut blocks: Vec<_> = split_rows_by_nnz(&rowptr, nblocks)
        .into_iter()
        .map(|rows| {
            let len = rowptr[rows.end] - rowptr[rows.start];
            let (cols, rest) = std::mem::take(&mut cols_left).split_at_mut(len);
            cols_left = rest;
            let (vals, rest) = std::mem::take(&mut vals_left).split_at_mut(len);
            vals_left = rest;
            (rows, cols, vals)
        })
        .collect();
    blocks.par_iter_mut().for_each(|(rows, cols, vals)| {
        let base = rowptr[rows.start];
        for new in rows.clone() {
            let r = rowptr[new] - base..rowptr[new + 1] - base;
            fill(perm.inverse[new], &mut cols[r.clone()], &mut vals[r]);
        }
    });
    Csr::from_parts_unchecked(n, a.ncols(), rowptr, colidx, values)
}

/// The in-row order a matrix had before its rows were stably partitioned
/// into at most four groups (the smoother's `[diag | own-lower |
/// own-upper | ext]`): two bits per entry, the code at position
/// `rowptr[i] + j` naming the group the row's `j`-th entry in the old
/// order went to. A stable partition keeps each group in the old order,
/// so [`RowOrder::walk`] merges the groups back exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowOrder {
    codes: Vec<u8>,
    len: usize,
}

impl RowOrder {
    /// A code of `len` entries, all in group 0.
    pub fn new(len: usize) -> Self {
        RowOrder {
            codes: vec![0; len.div_ceil(4)],
            len,
        }
    }

    /// Number of entries coded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is coded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records that the entry at old-order position `k` went to `group`.
    pub fn set_group(&mut self, k: usize, group: usize) {
        assert!(
            group < 4 && k < self.len,
            "row order: entry {k}, group {group}"
        );
        let shift = 2 * (k % 4);
        let byte = &mut self.codes[k / 4];
        *byte = (*byte & !(3 << shift)) | ((group as u8) << shift);
    }

    #[inline(always)]
    fn group(&self, k: usize) -> usize {
        usize::from((self.codes[k / 4] >> (2 * (k % 4))) & 3)
    }

    /// Calls `f` with the position each entry of the partitioned row
    /// stored at `row` now has, in the row's old order: one pass counts the
    /// groups, a second advances a cursor per group.
    #[inline(always)]
    pub fn walk(&self, row: std::ops::Range<usize>, mut f: impl FnMut(usize)) {
        let mut next = [0usize; 4];
        for k in row.clone() {
            next[self.group(k)] += 1;
        }
        let mut at = row.start;
        for n in &mut next {
            (*n, at) = (at, at + *n);
        }
        for k in row {
            let g = &mut next[self.group(k)];
            f(*g);
            *g += 1;
        }
    }

    /// Puts the column indices of every row of `a` — partitioned when this
    /// order was recorded — back in their old order, in place; the values
    /// are left where they are, for a writer that matches rows by column.
    pub fn restore_pattern(&self, a: &mut Csr) {
        self.move_entries(a, true);
    }

    /// Partitions the rows of `a`, entries in their old order, again: the
    /// layout the order was recorded from.
    pub fn partition(&self, a: &mut Csr) {
        self.move_entries(a, false);
    }

    /// One walk per row, the rows in parallel blocks, each row through a
    /// scratch copy of itself; `restore` moves column indices only.
    fn move_entries(&self, a: &mut Csr, restore: bool) {
        assert_eq!(self.len, a.nnz(), "row order: operator");
        let (rowptr, cols, vals) = a.rows_mut();
        let mut blocks = row_blocks(rowptr, cols, vals);
        blocks.par_iter_mut().for_each(|(rows, cols, vals)| {
            let base = rowptr[rows.start];
            let (mut row_cols, mut row_vals) = (Vec::new(), Vec::new());
            for i in rows.clone() {
                let (start, end) = (rowptr[i] - base, rowptr[i + 1] - base);
                let (cols, vals) = (&mut cols[start..end], &mut vals[start..end]);
                row_cols.clear();
                row_cols.extend_from_slice(cols);
                let mut old = 0;
                if restore {
                    self.walk(rowptr[i]..rowptr[i + 1], |pos| {
                        cols[old] = row_cols[pos - rowptr[i]];
                        old += 1;
                    });
                } else {
                    row_vals.clear();
                    row_vals.extend_from_slice(vals);
                    self.walk(rowptr[i]..rowptr[i + 1], |pos| {
                        let now = pos - rowptr[i];
                        (cols[now], vals[now]) = (row_cols[old], row_vals[old]);
                        old += 1;
                    });
                }
            }
        });
    }
}

/// Cuts the column indices and values of a matrix into per-thread
/// blocks of whole rows (nnz-balanced), each with its row range.
#[allow(clippy::type_complexity)]
fn row_blocks<'a>(
    rowptr: &[usize],
    mut cols_left: &'a mut [usize],
    mut vals_left: &'a mut [f64],
) -> Vec<(std::ops::Range<usize>, &'a mut [usize], &'a mut [f64])> {
    split_rows_by_nnz(rowptr, num_threads())
        .into_iter()
        .map(|rows| {
            let len = rowptr[rows.end] - rowptr[rows.start];
            let (cols, rest) = std::mem::take(&mut cols_left).split_at_mut(len);
            cols_left = rest;
            let (vals, rest) = std::mem::take(&mut vals_left).split_at_mut(len);
            vals_left = rest;
            (rows, cols, vals)
        })
        .collect()
}

/// Where each entry of a raw operator lies in the `stored` one
/// `permute_symmetric` made of it with `perm`, in any in-row order that
/// keeps the raw one (`None` = the identity): entry `k` of raw row `r`,
/// counted from the row's start, is stored position `map[k]`.
///
/// # Panics
/// When `stored` has `u32::MAX` nonzeros or more.
pub fn stored_positions(stored: &Csr, perm: Option<&Permutation>) -> Vec<u32> {
    let fits = u32::try_from(stored.nnz()).is_ok_and(|n| n < u32::MAX);
    assert!(
        fits,
        "stored positions: {} nonzeros exceed u32",
        stored.nnz()
    );
    let n = stored.nrows();
    let stored_row = |r: usize| perm.map_or(r, |q| q.forward[r]);
    let mut map = Vec::with_capacity(stored.nnz());
    for r in 0..n {
        map.extend(stored.row_range(stored_row(r)).map(|pos| pos as u32));
    }
    map
}

/// The raw operator a `stored` one was made from (see
/// [`stored_positions`]): row `r` is stored row `perm(r)`, its columns
/// mapped back through `perm⁻¹` — bitwise the matrix `permute_symmetric`
/// was given when `stored` holds its rows in their raw in-row order.
pub fn unpermute_symmetric(stored: &Csr, perm: &Permutation) -> Csr {
    assert_eq!(stored.nrows(), perm.len());
    let back = Permutation {
        forward: perm.inverse.clone(),
        inverse: perm.forward.clone(),
    };
    move_rows(stored, &back, |s, cols, vals| {
        for (dst, &c) in cols.iter_mut().zip(stored.row_cols(s)) {
            *dst = perm.inverse[c];
        }
        vals.copy_from_slice(stored.row_vals(s));
    })
}

/// [`permute_symmetric`] into `out`, a matrix with its row pointer:
/// column indices and values are written, nothing is allocated.
///
/// # Panics
/// When a row of `out` is not as long as the row of `a` it receives.
pub fn permute_symmetric_into(a: &Csr, perm: &Permutation, out: &mut Csr) {
    let n = a.nrows();
    assert_eq!((out.nrows(), out.ncols(), perm.len()), (n, n, n));
    let (rowptr, cols, vals) = out.rows_mut();
    let mut blocks = row_blocks(rowptr, cols, vals);
    blocks.par_iter_mut().for_each(|(rows, cols, vals)| {
        let base = rowptr[rows.start];
        for s in rows.clone() {
            let old = perm.inverse[s];
            let r = rowptr[s] - base..rowptr[s + 1] - base;
            assert_eq!(r.len(), a.row_nnz(old), "permuted row {s}: length");
            for (dst, &c) in cols[r.clone()].iter_mut().zip(a.row_cols(old)) {
                *dst = perm.forward[c];
            }
            vals[r].copy_from_slice(a.row_vals(old));
        }
    });
}

/// Writes the values of `a` into `stored`, a matrix with `a`'s pattern in
/// any in-row order: each row matched by column through the frozen-row
/// marker, so nothing of `stored` but its values moves.
///
/// # Panics
/// When a row of `stored` has no entry for a column of `a`'s row.
pub fn copy_values_by_column(a: &Csr, stored: &mut Csr) {
    use crate::triple::{FrozenRow, ValuesPtr};
    let n = a.nrows();
    assert_eq!(
        (stored.nrows(), stored.ncols(), stored.nnz()),
        (n, a.ncols(), a.nnz())
    );
    // One block per thread: each holds a marker of `ncols` entries.
    let blocks = split_rows_by_nnz(a.rowptr(), num_threads());
    let (rowptr, colidx, values) = stored.pattern_and_values_mut();
    let ptr = ValuesPtr(values.as_mut_ptr());
    blocks.par_iter().for_each(|rows| {
        let mut marker = vec![usize::MAX; a.ncols()];
        for i in rows.clone() {
            // SAFETY: the blocks' row ranges are disjoint.
            let out = unsafe { FrozenRow::seed(&mut marker, rowptr, colidx, &ptr, i, None) };
            for (c, v) in a.row_iter(i) {
                out.set(c, v);
            }
        }
    });
}

/// Permutes only the columns of `a`: `B[i, p(j)] = A[i, j]`.
pub fn permute_cols(a: &Csr, perm: &Permutation) -> Csr {
    assert_eq!(a.ncols(), perm.len());
    let colidx: Vec<usize> = a.colidx().iter().map(|&c| perm.forward[c]).collect();
    Csr::from_parts_unchecked(
        a.nrows(),
        a.ncols(),
        a.rowptr().to_vec(),
        colidx,
        a.values().to_vec(),
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::testutil::random_csr;

    /// Stably partitions every row of `a` by `group(row, col)` (0..4, groups
    /// in ascending order) the way the smoother's row partition does, and
    /// returns the order it recorded.
    pub(crate) fn partition_recorded(
        a: &mut Csr,
        group: impl Fn(usize, usize) -> usize,
    ) -> RowOrder {
        let mut order = RowOrder::new(a.nnz());
        let rowptr = a.rowptr().to_vec();
        let (colidx, values) = a.colidx_values_mut();
        for i in 0..rowptr.len() - 1 {
            let r = rowptr[i]..rowptr[i + 1];
            let mut row: Vec<(usize, usize, f64)> = r
                .clone()
                .map(|k| (group(i, colidx[k]), colidx[k], values[k]))
                .collect();
            for (k, &(g, _, _)) in r.clone().zip(&row) {
                order.set_group(k, g);
            }
            row.sort_by_key(|&(g, _, _)| g); // stable
            for (k, (_, c, v)) in r.zip(row) {
                (colidx[k], values[k]) = (c, v);
            }
        }
        order
    }

    /// The smoother's four segments against a random ownership: rows and
    /// columns are cut into `tasks` contiguous ranges at random points, and a
    /// column is the row's own when it falls in the row's range.
    pub(crate) fn random_segments(
        n: usize,
        tasks: usize,
        seed: u64,
    ) -> impl Fn(usize, usize) -> usize {
        let mut cuts: Vec<usize> = (1..tasks)
            .map(|t| (t as u64 * 7919 + seed * 104_729) as usize % n.max(1))
            .collect();
        cuts.sort_unstable();
        let owner = move |x: usize| cuts.partition_point(|&c| c <= x);
        move |i, c| match (c == i, owner(c) == owner(i), c < i) {
            (true, ..) => 0,
            (false, true, true) => 1,
            (false, true, false) => 2,
            (false, false, _) => 3,
        }
    }

    #[test]
    fn permutation_roundtrip() {
        let p = Permutation::from_forward(vec![2, 0, 1]);
        let v = vec![10.0, 20.0, 30.0];
        let w = p.apply_vec(&v);
        assert_eq!(w, vec![20.0, 30.0, 10.0]);
        assert_eq!(p.unapply_vec(&w), v);
    }

    #[test]
    #[should_panic(expected = "not injective")]
    fn non_bijective_rejected() {
        Permutation::from_forward(vec![0, 0, 1]);
    }

    #[test]
    fn cf_permutation_orders_coarse_first() {
        let is_coarse = vec![false, true, false, true, true];
        let (p, nc) = cf_permutation(&is_coarse);
        assert_eq!(nc, 3);
        // Coarse points 1, 3, 4 -> 0, 1, 2; fine points 0, 2 -> 3, 4.
        assert_eq!(p.forward, vec![3, 0, 4, 1, 2]);
    }

    #[test]
    fn symmetric_permutation_preserves_entries() {
        let a = Csr::from_triplets(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 0, 4.0)],
        );
        let p = Permutation::from_forward(vec![2, 0, 1]);
        let b = permute_symmetric(&a, &p);
        // B[p(i), p(j)] = A[i, j]
        assert_eq!(b.get(2, 2), Some(1.0));
        assert_eq!(b.get(2, 1), Some(2.0));
        assert_eq!(b.get(0, 0), Some(3.0));
        assert_eq!(b.get(1, 2), Some(4.0));
        assert_eq!(b.nnz(), a.nnz());
    }

    #[test]
    fn symmetric_permutation_identity_is_noop() {
        let a = Csr::from_triplets(3, 3, vec![(0, 1, 1.0), (2, 2, 5.0)]);
        let p = Permutation::identity(3);
        assert_eq!(permute_symmetric(&a, &p).to_dense(), a.to_dense());
    }

    #[test]
    fn row_and_col_permutations_compose_to_symmetric() {
        let a = Csr::from_triplets(3, 3, vec![(0, 0, 1.0), (1, 2, 2.0), (2, 1, 3.0)]);
        let p = Permutation::from_forward(vec![1, 2, 0]);
        let via_blocks = permute_cols(&permute_rows(&a, &p), &p);
        let direct = permute_symmetric(&a, &p);
        assert_eq!(via_blocks.to_dense(), direct.to_dense());
    }

    #[test]
    fn block_parallel_fill_matches_row_by_row_definition() {
        // Enough nonzeros for several parallel blocks, ragged rows
        // (including empty ones), and a permutation that interleaves.
        let n = 30_000usize;
        let trips: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|i| (0..i % 7).map(move |d| (i, (i * 31 + d * 977) % n, (i + d) as f64)))
            .collect();
        let a = Csr::from_triplets(n, n, trips);
        assert!(a.nnz() / MIN_BLOCK_NNZ >= 2);
        let p = Permutation::from_forward((0..n).map(|i| (i * 7919 + 13) % n).collect());
        let sym = permute_symmetric(&a, &p);
        let rows = permute_rows(&a, &p);
        for old in 0..n {
            let new = p.forward[old];
            let mapped: Vec<usize> = a.row_cols(old).iter().map(|&c| p.forward[c]).collect();
            assert_eq!(sym.row_cols(new), &mapped[..]);
            assert_eq!(sym.row_vals(new), a.row_vals(old));
            assert_eq!(rows.row_cols(new), a.row_cols(old));
            assert_eq!(rows.row_vals(new), a.row_vals(old));
        }
    }

    #[test]
    fn spmv_commutes_with_permutation() {
        // (QAQᵀ)(Qx) = Q(Ax)
        let a = Csr::from_triplets(
            4,
            4,
            vec![
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 1, 2.0),
                (2, 3, 1.5),
                (3, 2, 0.5),
            ],
        );
        let p = Permutation::from_forward(vec![3, 1, 0, 2]);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let pa = permute_symmetric(&a, &p);
        let px = p.apply_vec(&x);
        let mut y1 = vec![0.0; 4];
        crate::spmv::spmv_seq(&pa, &px, &mut y1);
        let mut y = vec![0.0; 4];
        crate::spmv::spmv_seq(&a, &x, &mut y);
        let py = p.apply_vec(&y);
        for (u, v) in y1.iter().zip(&py) {
            assert!((u - v).abs() < 1e-14);
        }
    }

    /// A random square matrix with its diagonal, a permutation that
    /// interleaves, and the matrix stored as a hierarchy stores it:
    /// permuted, then rows partitioned into the smoother's segments.
    fn stored_fixture(n: usize, tasks: usize, seed: u64) -> (Csr, Permutation, Csr, RowOrder) {
        let mut trips: Vec<_> = (0..n).map(|i| (i, i, 4.0 + i as f64)).collect();
        let off = random_csr(n, n, 5, seed);
        trips.extend((0..n).flat_map(|i| off.row_iter(i).map(move |(j, v)| (i, j, v))));
        let a = Csr::from_triplets(n, n, trips);
        let q = Permutation::from_forward((0..n).map(|i| (i * 37 + seed as usize) % n).collect());
        let mut stored = permute_symmetric(&a, &q);
        let order = partition_recorded(&mut stored, random_segments(n, tasks, seed));
        (a, q, stored, order)
    }

    #[test]
    fn the_row_order_walks_each_partitioned_row_in_its_old_order() {
        for (n, tasks, seed) in [(1, 1, 1), (40, 1, 2), (97, 2, 3), (300, 3, 4), (301, 4, 5)] {
            let (a, q, stored, order) = stored_fixture(n, tasks, seed);
            let before = permute_symmetric(&a, &q);
            assert!(
                n == 1 || stored != before,
                "n={n}: the partition moved nothing"
            );
            for i in 0..n {
                let mut walked = Vec::new();
                order.walk(stored.row_range(i), |k| {
                    walked.push((stored.colidx()[k], stored.values()[k]));
                });
                let want: Vec<_> = before.row_iter(i).collect();
                assert_eq!(walked, want, "n={n} tasks={tasks} row {i}");
            }
            // The pattern back in the old order, values written through the
            // permutation, and partitioned again: the stored operator.
            let mut restored = stored.clone();
            order.restore_pattern(&mut restored);
            assert_eq!(restored.colidx(), before.colidx(), "n={n}");
            restored.values_mut().fill(f64::NAN);
            permute_symmetric_into(&a, &q, &mut restored);
            assert_eq!(restored, before, "n={n}");
            // Back to the raw operator, and each raw entry's place.
            assert_eq!(unpermute_symmetric(&restored, &q), a, "n={n}");
            let map = stored_positions(&restored, Some(&q));
            for i in 0..n {
                for k in a.row_range(i) {
                    let at = map[k] as usize;
                    assert!(restored.row_range(q.forward[i]).contains(&at));
                    assert_eq!(restored.colidx()[at], q.forward[a.colidx()[k]]);
                    assert_eq!(restored.values()[at].to_bits(), a.values()[k].to_bits());
                }
            }
            order.partition(&mut restored);
            assert_eq!(restored, stored, "n={n}");
        }
    }

    #[test]
    fn a_row_order_with_every_group_size() {
        // Every split of a six-entry row over the four groups, incl. empty.
        for code in 0..4usize.pow(6) {
            let groups: Vec<usize> = (0..6).map(|j| code / 4usize.pow(j) % 4).collect();
            let mut order = RowOrder::new(8);
            for (j, &g) in groups.iter().enumerate() {
                order.set_group(j + 1, g);
            }
            let mut stable: Vec<usize> = (0..6).collect();
            stable.sort_by_key(|&j| groups[j]);
            let mut walked = Vec::new();
            order.walk(1..7, |pos| walked.push(stable[pos - 1]));
            assert_eq!(walked, (0..6).collect::<Vec<_>>(), "groups {groups:?}");
        }
    }

    #[test]
    fn a_row_longer_than_a_u16_walks_restores_and_partitions() {
        // Row `m` holds every column, its four groups interleaved: its
        // positions run far past 65535.
        let (n, m) = (70_000usize, 35_000usize);
        let mut trips: Vec<_> = (0..n).map(|j| (m, j, j as f64 + 0.5)).collect();
        trips.extend((0..n).filter(|&i| i != m).map(|i| (i, i, -(i as f64))));
        let a = Csr::from_triplets(n, n, trips);
        let mut stored = a.clone();
        let order = partition_recorded(&mut stored, random_segments(n, 3, 10));
        assert_ne!(stored, a, "the partition moved nothing");
        let mut walked = Vec::with_capacity(n);
        order.walk(stored.row_range(m), |k| {
            walked.push((stored.colidx()[k], stored.values()[k]));
        });
        assert_eq!(walked, a.row_iter(m).collect::<Vec<_>>());
        let mut restored = stored.clone();
        order.restore_pattern(&mut restored);
        assert_eq!(restored.colidx(), a.colidx());
        order.partition(&mut restored);
        assert_eq!(restored.colidx(), stored.colidx());
    }

    #[test]
    fn values_land_in_any_in_row_order() {
        for (n, tasks, seed) in [(1, 1, 6), (120, 2, 7), (500, 3, 8)] {
            let (a, _, _, _) = stored_fixture(n, tasks, seed);
            let mut stored = a.clone();
            partition_recorded(&mut stored, random_segments(n, tasks, seed));
            let want = stored.clone();
            stored.values_mut().fill(f64::NAN);
            copy_values_by_column(&a, &mut stored);
            assert_eq!(stored, want, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "frozen pattern of row")]
    fn a_value_copy_onto_another_pattern_panics() {
        // Same shape and nonzero count, consecutive columns per row.
        let (a, _, _, _) = stored_fixture(60, 2, 9);
        let mut other = Csr::from_parts_unchecked(
            60,
            60,
            (0..=60).map(|i| i * a.nnz() / 60).collect(),
            (0..a.nnz()).map(|k| k % 60).collect(),
            vec![0.0; a.nnz()],
        );
        copy_values_by_column(&a, &mut other);
    }
}
