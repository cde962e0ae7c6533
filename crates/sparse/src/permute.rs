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
mod tests {
    use super::*;

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
}
