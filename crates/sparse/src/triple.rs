//! Galerkin triple products `R · A · P` (§3.1.1).
//!
//! Four variants, matching the paper's Fig. 1 and the CF-block identity:
//!
//! * [`rap_unfused`] — two separate SpGEMMs (`B = R·A`, then `C = B·P`);
//!   rows of the temporary `B` are streamed from memory when `C` is formed.
//! * [`rap_row_fused`] — Fig. 1(a), the paper's kernel: immediately after
//!   forming row `B_i` it is multiplied into `C_i` while cache-hot. No
//!   temporary matrix is materialized, and `B_i` is consumed in column order.
//! * [`rap_scalar_fused`] — Fig. 1(b), the HYPRE-baseline fusion: the
//!   product is expanded at scalar granularity
//!   (`c_il += (r_ij·a_jk)·p_kl`), which avoids the `B_i` buffer entirely
//!   but performs redundant multiplications — the paper measures 1.73×
//!   more flops than row fusion on the finest level.
//! * [`rap_cf`] — the CF-permuted decomposition
//!   `RAP = A_CC + P_Fᵀ·A_FC + (A_CF + P_Fᵀ·A_FF)·P_F`,
//!   exploiting `P = [I; P_F]` so only the fine-block participates in the
//!   expensive product. The four blocks are never formed: the kernel reads
//!   the coarse-first `A_perm` where it lies (row `i < nc` is
//!   `[A_CC_i A_CF_i]`, row `nc + k` is `[A_FC_k A_FF_k]`, an entry is on
//!   the coarse side iff `col < nc`).
//!
//! Each variant has a `*_flops` twin that walks the same loop structure and
//! tallies operations, reproducing the paper's 1.73× flop-ratio claim.
//!
//! [`rap_cf_numeric`] re-computes values over a frozen output pattern
//! (the triple-product analogue of [`crate::spgemm::numeric_only`]): the
//! output-side sparse accumulator is replaced by a marker array
//! pre-seeded from the frozen column indices, so every accumulation is an
//! indexed add behind one range compare. It shares its row loop with
//! [`rap_cf`], so the floating-point accumulation order — and therefore
//! every output value — is identical bit for bit. A frozen pattern that
//! does not cover the product is a panic naming the row, in every build
//! profile.
#![deny(unsafe_op_in_unsafe_fn)]

use crate::counters::FlopCount;
use crate::csr::{Col, Csr};
use crate::partition::{num_threads, split_rows_by_nnz};
use crate::permute::Permutation;
use crate::spa::{OrderedSpa, Spa};
use crate::spgemm::{spgemm, stitch, Chunk};
use crate::transpose::transpose_par;

/// Sparse matrix addition `alpha*A + beta*B` (same shape).
pub fn csr_add(alpha: f64, a: &Csr, beta: f64, b: &Csr) -> Csr {
    assert_eq!(a.nrows(), b.nrows());
    assert_eq!(a.ncols(), b.ncols());
    let nrows = a.nrows();
    let mut acc = OrderedSpa::new(a.ncols());
    let mut rowptr = Vec::with_capacity(nrows + 1);
    let mut colidx = Vec::new();
    let mut values = Vec::new();
    rowptr.push(0);
    for i in 0..nrows {
        for (c, v) in a.row_iter(i) {
            acc.add(c, alpha * v);
        }
        for (c, v) in b.row_iter(i) {
            acc.add(c, beta * v);
        }
        acc.drain(|c, v| {
            colidx.push(Col::new(c));
            values.push(v);
        });
        rowptr.push(colidx.len());
    }
    Csr::from_parts_unchecked(nrows, a.ncols(), rowptr, colidx, values)
}

/// Unfused baseline: `(R·A)·P` as two independent SpGEMM calls.
pub fn rap_unfused(r: &Csr, a: &Csr, p: &Csr) -> Csr {
    let b = spgemm(r, a);
    spgemm(&b, p)
}

/// Row-fused triple product (Fig. 1a): for each row, form `B_i = R_i·A`
/// then immediately `C_i = B_i·P` while `B_i` is cache-resident.
///
/// `B_i` is consumed in ascending column order ([`OrderedSpa`]) and `C_i`
/// flushed sorted: `spgemm(sort(spgemm(R, A)), P)` with sorted rows, bit
/// for bit, without materializing or sorting `R·A`.
pub fn rap_row_fused(r: &Csr, a: &Csr, p: &Csr) -> Csr {
    assert_eq!(r.ncols(), a.nrows());
    assert_eq!(a.ncols(), p.nrows());
    let nrows = r.nrows();
    let ncols = p.ncols();
    if nrows == 0 {
        return Csr::zero(0, ncols);
    }
    let blocks = split_rows_by_nnz(r.rowptr(), num_threads());
    let chunks: Vec<Chunk> = {
        use rayon::prelude::*;
        blocks
            .par_iter()
            .map(|range| {
                let mut c = Chunk::new(range.len(), 0);
                let mut acc_b = OrderedSpa::new(a.ncols());
                let mut acc_c = OrderedSpa::new(ncols);
                for i in range.clone() {
                    // B_i = Σ_j r_ij · A_j
                    for (j, rv) in r.row_iter(i) {
                        for (k, av) in a.row_iter(j) {
                            acc_b.add(k, rv * av);
                        }
                    }
                    // C_i = Σ_k b_ik · P_k, consuming B_i out of cache.
                    acc_b.drain(|k, bv| {
                        for (l, pv) in p.row_iter(k) {
                            acc_c.add(l, bv * pv);
                        }
                    });
                    let before = c.colidx.len();
                    acc_c.drain(|l, v| {
                        c.colidx.push(Col::new(l));
                        c.values.push(v);
                    });
                    c.row_nnz.push(c.colidx.len() - before);
                }
                c
            })
            .collect()
    };
    stitch(nrows, ncols, chunks)
}

/// Scalar-fused triple product (Fig. 1b, HYPRE baseline): expands
/// `c_il += (r_ij · a_jk) · p_kl` without materializing `B_i`, at the cost
/// of redundant multiplications when several `(j, k)` paths reach the same
/// `a`-column `k`.
pub fn rap_scalar_fused(r: &Csr, a: &Csr, p: &Csr) -> Csr {
    assert_eq!(r.ncols(), a.nrows());
    assert_eq!(a.ncols(), p.nrows());
    let nrows = r.nrows();
    let ncols = p.ncols();
    if nrows == 0 {
        return Csr::zero(0, ncols);
    }
    let blocks = split_rows_by_nnz(r.rowptr(), num_threads());
    let chunks: Vec<Chunk> = {
        use rayon::prelude::*;
        blocks
            .par_iter()
            .map(|range| {
                let mut c = Chunk::new(range.len(), 0);
                let mut spa_c = Spa::new(ncols);
                for i in range.clone() {
                    for (j, rv) in r.row_iter(i) {
                        for (k, av) in a.row_iter(j) {
                            let temp = rv * av;
                            for (l, pv) in p.row_iter(k) {
                                spa_c.add(l, temp * pv);
                            }
                        }
                    }
                    let n = spa_c.flush_into(&mut c.colidx, &mut c.values);
                    c.row_nnz.push(n);
                }
                c
            })
            .collect()
    };
    stitch(nrows, ncols, chunks)
}

/// Flop tally of the row-fused kernel (Fig. 1a loop structure).
pub fn rap_row_fused_flops(r: &Csr, a: &Csr, p: &Csr) -> FlopCount {
    let mut fc = FlopCount::default();
    let mut spa_b = Spa::new(a.ncols());
    for i in 0..r.nrows() {
        for j in r.col_iter(i) {
            for k in a.col_iter(j) {
                spa_b.add(k, 1.0);
                fc.muls += 1;
                fc.adds += 1;
            }
        }
        for &k in spa_b.cols() {
            let n = p.row_nnz(k) as u64;
            fc.muls += n;
            fc.adds += n;
        }
        spa_b.reset();
    }
    fc
}

/// Flop tally of the scalar-fused kernel (Fig. 1b loop structure).
pub fn rap_scalar_fused_flops(r: &Csr, a: &Csr, p: &Csr) -> FlopCount {
    let mut fc = FlopCount::default();
    for i in 0..r.nrows() {
        for j in r.col_iter(i) {
            for k in a.col_iter(j) {
                fc.muls += 1; // temp = r_ij * a_jk
                let n = p.row_nnz(k) as u64;
                fc.muls += n;
                fc.adds += n;
            }
        }
    }
    fc
}

/// Row `i` of `PᵀAP` over the coarse-first `A_perm`, read in place:
///
/// ```text
/// B_i = A_CF_i + Σ_k (P_Fᵀ)_ik · A_FF_k                    (into `spa_b`)
/// C_i = A_CC_i + Σ_k (P_Fᵀ)_ik · A_FC_k + Σ_j B_ij · P_F_j  (into `add_c`)
/// ```
///
/// the CF analogue of the Fig. 1a row fusion, shared by [`rap_cf`] and
/// [`rap_cf_numeric`]. `permute_symmetric` remaps columns without
/// re-sorting, so a row of `A_perm` has no split point and every entry is
/// tested against `nc`. Each accumulator must meet its entries in the
/// order the block form `[A_CC A_CF; A_FC A_FF]` would feed them (first
/// touch fixes `spa_b`'s order, hence the order of the `B_i·P_F`
/// additions): coarse row `i` is therefore walked twice — its coarse
/// entries before the `P_Fᵀ` loop, its fine entries after it — and fine
/// row `nc + k` once, each entry going to its own accumulator.
#[inline(always)]
fn cf_row(
    a_perm: &Csr,
    nc: usize,
    pf: &Csr,
    pft: &Csr,
    i: usize,
    spa_b: &mut Spa,
    mut add_c: impl FnMut(usize, f64),
) {
    for (c, v) in a_perm.row_iter(i) {
        if c < nc {
            add_c(c, v);
        }
    }
    for (k, w) in pft.row_iter(i) {
        for (c, v) in a_perm.row_iter(nc + k) {
            if c < nc {
                add_c(c, w * v);
            } else {
                spa_b.add(c - nc, w * v);
            }
        }
    }
    for (c, v) in a_perm.row_iter(i) {
        if c >= nc {
            spa_b.add(c - nc, v);
        }
    }
    for (pos, &j) in spa_b.cols().iter().enumerate() {
        let bv = spa_b.vals()[pos];
        for (c, pv) in pf.row_iter(j) {
            add_c(c, bv * pv);
        }
    }
    spa_b.reset();
}

/// Shape guard shared by the CF kernels; returns `nf`.
fn check_cf_shapes(a_perm: &Csr, nc: usize, pf: &Csr, pft: &Csr) -> usize {
    let n = a_perm.nrows();
    assert_eq!(a_perm.ncols(), n);
    assert!(nc <= n);
    let nf = n - nc;
    assert_eq!((pf.nrows(), pf.ncols()), (nf, nc));
    assert_eq!((pft.nrows(), pft.ncols()), (nc, nf));
    nf
}

/// CF-block triple product over a coarse-first permuted operator.
///
/// With `P = [I; P_F]` (first `nc` rows identity) and `A_perm` =
/// `[A_CC A_CF; A_FC A_FF]`:
///
/// ```text
/// PᵀAP = A_CC + P_Fᵀ·A_FC + (A_CF + P_Fᵀ·A_FF)·P_F
/// ```
///
/// `pft` is `P_Fᵀ` (kept from setup; also reused for restriction SpMVs).
/// Only the fine sub-blocks enter SpGEMM — the optimization is most
/// effective when the coarsening ratio `nc/n` is high — and neither they
/// nor any other intermediate matrix is materialized ([`cf_row`]).
pub fn rap_cf(a_perm: &Csr, nc: usize, pf: &Csr, pft: &Csr) -> Csr {
    let nf = check_cf_shapes(a_perm, nc, pf, pft);
    if nc == 0 {
        return Csr::zero(0, 0);
    }
    let blocks = split_rows_by_nnz(pft.rowptr(), num_threads());
    let chunks: Vec<Chunk> = {
        use rayon::prelude::*;
        blocks
            .par_iter()
            .map(|range| {
                let mut ch = Chunk::new(range.len(), 0);
                let mut spa_b = Spa::new(nf);
                let mut spa_c = Spa::new(nc);
                for i in range.clone() {
                    cf_row(a_perm, nc, pf, pft, i, &mut spa_b, |c, v| spa_c.add(c, v));
                    let n = spa_c.flush_into(&mut ch.colidx, &mut ch.values);
                    ch.row_nnz.push(n);
                }
                ch
            })
            .collect()
    };
    stitch(nc, nc, chunks)
}

/// [`rap_cf`] for a caller that holds `P_F` but not its transpose.
pub fn rap_cf_from_parts(a_perm: &Csr, nc: usize, pf: &Csr) -> Csr {
    rap_cf(a_perm, nc, pf, &transpose_par(pf))
}

/// Shared-across-the-scope write cursor for the numeric-only kernels.
pub(crate) struct ValuesPtr(pub(crate) *mut f64);
// SAFETY: each parallel block writes only the value ranges of its own
// output rows — one row per input row, through a bijection — so no two
// blocks write one position, and nothing reads the buffer until the
// blocks join.
unsafe impl Sync for ValuesPtr {}

/// One row of a frozen output pattern, open for accumulation.
pub(crate) struct FrozenRow<'a> {
    /// `marker[key(c)]` = value position of stored column `c`, valid iff it
    /// falls in `start..end` (older rows' stamps and the `usize::MAX` fill
    /// do not).
    marker: &'a [usize],
    ptr: &'a ValuesPtr,
    start: usize,
    end: usize,
    row: usize,
}

impl<'a> FrozenRow<'a> {
    /// Pre-seeds `marker` with the output positions of row `i`'s frozen
    /// columns and zeroes that row's values, so subsequent accumulations
    /// are indexed adds. Column `c` is keyed `key[c]` (the caller's
    /// numbering of a permuted target's columns), or `c` without a key.
    ///
    /// # Safety
    /// `ptr` must point at the value buffer `rowptr`/`colidx` describe, and
    /// the caller must be the only writer of row `i`'s range for as long
    /// as the returned row lives.
    #[inline]
    pub(crate) unsafe fn seed(
        marker: &'a mut [usize],
        rowptr: &[usize],
        colidx: &[Col],
        ptr: &'a ValuesPtr,
        i: usize,
        key: Option<&[usize]>,
    ) -> Self {
        let start = rowptr[i];
        let end = rowptr[i + 1];
        for (off, &c) in colidx[start..end].iter().enumerate() {
            let c = usize::from(c);
            marker[key.map_or(c, |k| k[c])] = start + off;
            // SAFETY: start + off lies in row i's value range, owned
            // exclusively by this block per the function contract.
            unsafe { *ptr.0.add(start + off) = 0.0 };
        }
        FrozenRow {
            marker,
            ptr,
            start,
            end,
            row: i,
        }
    }

    /// Accumulates `v` into the frozen position of column `c`.
    ///
    /// # Panics
    /// If the frozen row has no entry for `c` — the pattern does not cover
    /// the product. The range test is what keeps the write inside this
    /// row (an unseeded column reads `usize::MAX`, a stale one another
    /// row's, possibly another thread's, position), so it stays in
    /// release builds: one predictable compare per add.
    #[inline]
    pub(crate) fn add(&self, c: usize, v: f64) {
        let pos = self.at(c);
        // SAFETY: pos lies in start..end, the value range `seed`'s caller
        // owns exclusively.
        unsafe { *self.ptr.0.add(pos) += v };
    }

    /// Stores `v` at the frozen position of column `c`; panics like
    /// [`FrozenRow::add`].
    #[inline]
    pub(crate) fn set(&self, c: usize, v: f64) {
        let pos = self.at(c);
        // SAFETY: as in `add`.
        unsafe { *self.ptr.0.add(pos) = v };
    }

    #[inline]
    fn at(&self, c: usize) -> usize {
        let pos = self.marker[c];
        assert!(
            pos.wrapping_sub(self.start) < self.end - self.start,
            "numeric RAP: frozen pattern of row {} has no entry for column {c}",
            self.row
        );
        pos
    }
}

/// Numeric-only CF-block triple product over a frozen [`rap_cf`] pattern;
/// bitwise identical to re-running the full kernel (both run [`cf_row`]).
/// The fine-width intermediate `B_i` keeps its sparse accumulator (its
/// pattern is not part of the frozen artifact); only the coarse output
/// side is an indexed add.
///
/// # Panics
/// If the product structure deviates from `c`'s pattern (`c`'s values
/// are then partly overwritten, its pattern untouched).
pub fn rap_cf_numeric(a_perm: &Csr, nc: usize, pf: &Csr, pft: &Csr, c: &mut Csr) {
    rap_cf_numeric_into(a_perm, nc, pf, pft, c, None);
}

/// [`rap_cf_numeric`] into a next level stored permuted: coarse row `r` is
/// written into row `c_perm(r)` of `c`, its column `l` where `c` stores
/// `c_perm(l)`, in whatever order `c`'s row holds it. Bitwise, `c` ends as
/// `permute_symmetric(rap_cf(..), c_perm)` with `c`'s own in-row order.
///
/// # Panics
/// On mismatched shapes, and like [`rap_cf_numeric`] on a pattern that
/// does not cover the product.
pub fn rap_cf_numeric_into(
    a_perm: &Csr,
    nc: usize,
    pf: &Csr,
    pft: &Csr,
    c: &mut Csr,
    c_perm: Option<&Permutation>,
) {
    let nf = check_cf_shapes(a_perm, nc, pf, pft);
    assert_eq!((c.nrows(), c.ncols()), (nc, nc));
    assert!(c_perm.is_none_or(|q| q.len() == nc));
    if nc == 0 {
        return;
    }
    let blocks = split_rows_by_nnz(pft.rowptr(), num_threads());
    let key = c_perm.map(|q| &q.inverse[..]);
    let (rowptr, colidx, values) = c.pattern_and_values_mut();
    let ptr = ValuesPtr(values.as_mut_ptr());
    rayon::scope(|s| {
        for range in &blocks {
            let range = range.clone();
            let ptr = &ptr;
            s.spawn(move |_| {
                let mut spa_b = Spa::new(nf);
                let mut marker = vec![usize::MAX; nc];
                for i in range {
                    let row = c_perm.map_or(i, |q| q.forward[i]);
                    let out = {
                        // SAFETY: blocks tile the rows disjointly and
                        // `c_perm` is a bijection.
                        unsafe { FrozenRow::seed(&mut marker, rowptr, colidx, ptr, row, key) }
                    };
                    cf_row(a_perm, nc, pf, pft, i, &mut spa_b, |col, v| out.add(col, v));
                }
            });
        }
    });
}

/// [`rap_cf_numeric`] for a caller that holds `P_F` but not its transpose.
pub fn rap_cf_numeric_from_parts(a_perm: &Csr, nc: usize, pf: &Csr, c: &mut Csr) {
    rap_cf_numeric(a_perm, nc, pf, &transpose_par(pf), c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permute::{permute_symmetric, RowOrder};
    use crate::transpose::transpose;

    fn random_csr(nrows: usize, ncols: usize, per_row: usize, seed: u64) -> Csr {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut trips = Vec::new();
        for i in 0..nrows {
            trips.push((i, i.min(ncols - 1), 4.0)); // keep a strong diagonal-ish entry
            for _ in 0..per_row {
                let j = next() % ncols;
                trips.push((i, j, (next() % 19) as f64 / 10.0 - 0.9));
            }
        }
        Csr::from_triplets(nrows, ncols, trips)
    }

    #[test]
    fn csr_add_basic() {
        let a = Csr::from_triplets(2, 2, vec![(0, 0, 1.0), (1, 1, 2.0)]);
        let b = Csr::from_triplets(2, 2, vec![(0, 0, 3.0), (0, 1, 4.0)]);
        let c = csr_add(2.0, &a, -1.0, &b);
        assert_eq!(c.get(0, 0), Some(-1.0));
        assert_eq!(c.get(0, 1), Some(-4.0));
        assert_eq!(c.get(1, 1), Some(4.0));
    }

    /// The unfused product with `R·A`'s rows sorted in between and the
    /// result's rows sorted: the summation order the row-fused kernel keeps.
    fn two_products(r: &Csr, a: &Csr, p: &Csr) -> Csr {
        let mut b = spgemm(r, a);
        b.sort_rows();
        let mut c = spgemm(&b, p);
        c.sort_rows();
        c
    }

    fn assert_bitwise(got: &Csr, want: &Csr, what: &str) {
        assert_eq!(got.rowptr(), want.rowptr(), "{what}: row lengths");
        assert_eq!(got.colidx(), want.colidx(), "{what}: columns");
        let bits = |m: &Csr| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}: value bits");
    }

    #[test]
    fn fused_variants_match_unfused() {
        let r = random_csr(40, 60, 3, 1);
        let a = random_csr(60, 60, 4, 2);
        let p = random_csr(60, 40, 2, 3);
        let c0 = rap_unfused(&r, &a, &p);
        let c2 = rap_scalar_fused(&r, &a, &p);
        assert!(c0.frob_diff(&c2) < 1e-9);
    }

    #[test]
    fn row_fused_is_the_sorted_two_product_result_bitwise() {
        let n = 1500;
        let r_big = random_csr(n / 2, n, 4, 11);
        let (a_cf, pf) = cf_fixture(30, 45, 17);
        let p_cf = full_p(30, &pf);
        // Rows of `A` that span the whole column range in three entries, so
        // every `B_i` is wider than `WORDS_PER_ENTRY` bitmap words per entry
        // and takes the sorted route.
        let m = 4000;
        assert!(m / 64 > 3 * OrderedSpa::WORDS_PER_ENTRY);
        let wide = Csr::from_triplets(
            m,
            m,
            (0..m).flat_map(|i| [(i, 0, 1.0 + i as f64), (i, i, 4.0), (i, m - 1, -0.5)]),
        );
        // Explicit zeros, of both signs, in every operand: no structural
        // entry may be dropped, and `0.0 + -0.0` must come out as it does
        // in the two products.
        let zeroed = |m: Csr, seed: usize| {
            let mut m = m;
            for (k, v) in m.values_mut().iter_mut().enumerate() {
                match (k + seed) % 5 {
                    0 => *v = 0.0,
                    1 => *v = -0.0,
                    _ => {}
                }
            }
            m
        };
        let cases = [
            (
                "random",
                random_csr(40, 60, 3, 1),
                random_csr(60, 60, 4, 2),
                random_csr(60, 40, 2, 3),
            ),
            (
                "random large",
                r_big.clone(),
                random_csr(n, n, 5, 12),
                transpose(&r_big),
            ),
            ("cf", transpose(&p_cf), a_cf, p_cf),
            (
                "wide",
                random_csr(m / 4, m, 0, 21),
                wide,
                random_csr(m, m / 4, 2, 22),
            ),
            (
                "zeros",
                zeroed(random_csr(40, 60, 3, 31), 0),
                zeroed(random_csr(60, 60, 4, 32), 1),
                zeroed(random_csr(60, 40, 2, 33), 2),
            ),
        ];
        for (what, r, a, p) in &cases {
            assert_bitwise(&rap_row_fused(r, a, p), &two_products(r, a, p), what);
        }
    }

    #[test]
    fn scalar_fusion_does_more_flops() {
        // On any matrix where A rows reached via multiple R entries overlap,
        // scalar fusion multiplies by P rows redundantly.
        let r = random_csr(50, 80, 4, 5);
        let a = random_csr(80, 80, 5, 6);
        let p = random_csr(80, 50, 3, 7);
        let f_row = rap_row_fused_flops(&r, &a, &p);
        let f_scalar = rap_scalar_fused_flops(&r, &a, &p);
        assert!(
            f_scalar.total() > f_row.total(),
            "scalar {} <= row {}",
            f_scalar.total(),
            f_row.total()
        );
    }

    #[test]
    fn flop_counts_exact_on_tiny_example() {
        // Paper's example: non-zeros r11, r12, a11, a21, p11 (1-indexed).
        // Fig 1a: b11 = r11*a11 + r12*a21 (2 muls, 2 adds),
        //         c11 = b11*p11 (1 mul, 1 add) -> 4 "useful" ops beyond
        //         the first-touch; our tally counts mul+add per
        //         accumulation: B gets 2 muls+2 adds, C gets 1 mul+1 add.
        let r = Csr::from_triplets(1, 2, vec![(0, 0, 1.0), (0, 1, 1.0)]);
        let a = Csr::from_triplets(2, 1, vec![(0, 0, 1.0), (1, 0, 1.0)]);
        let p = Csr::from_triplets(1, 1, vec![(0, 0, 1.0)]);
        let f_row = rap_row_fused_flops(&r, &a, &p);
        assert_eq!(f_row.muls, 3);
        assert_eq!(f_row.adds, 3);
        // Fig 1b: temp1 = r11*a11 (1 mul) + c += temp*p11 (1 mul, 1 add),
        //         temp2 = r12*a21 (1 mul) + c += temp*p11 (1 mul, 1 add)
        let f_scalar = rap_scalar_fused_flops(&r, &a, &p);
        assert_eq!(f_scalar.muls, 4);
        assert_eq!(f_scalar.adds, 2);
    }

    /// Builds a CF-permuted SPD-ish operator and a matching `P = [I; P_F]`.
    fn cf_fixture(nc: usize, nf: usize, seed: u64) -> (Csr, Csr) {
        let n = nc + nf;
        let a = {
            let base = random_csr(n, n, 3, seed);
            // Symmetrize so the CF identity (which holds for any A) is
            // exercised on a realistic operator.
            csr_add(0.5, &base, 0.5, &transpose(&base))
        };
        let pf = random_csr(nf, nc, 2, seed + 100);
        (a, pf)
    }

    #[test]
    fn cf_rap_matches_general_rap() {
        let (nc, nf) = (30, 45);
        let (a, pf) = cf_fixture(nc, nf, 17);
        let p = full_p(nc, &pf);
        let r = transpose(&p);
        let general = rap_row_fused(&r, &a, &p);
        let cf = rap_cf_from_parts(&a, nc, &pf);
        assert!(general.frob_diff(&cf) < 1e-9);
    }

    #[test]
    fn cf_rap_pure_coarse_is_acc() {
        // With no fine points P = I and RAP = A.
        let a = random_csr(10, 10, 3, 33);
        let pf = Csr::zero(0, 10);
        let c = rap_cf_from_parts(&a, 10, &pf);
        assert!(a.frob_diff(&c) < 1e-12);
    }

    #[test]
    fn rap_empty_inputs() {
        let r = Csr::zero(0, 5);
        let a = random_csr(5, 5, 2, 41);
        let p = Csr::zero(5, 0);
        let c = rap_row_fused(&r, &a, &p);
        assert_eq!(c.nrows(), 0);
        assert_eq!(c.ncols(), 0);
    }

    /// Same-pattern value perturbation (keeps every entry nonzero so the
    /// product pattern cannot drift).
    fn perturb(m: &Csr, seed: u64) -> Csr {
        let mut out = m.clone();
        let mut state = seed | 1;
        for v in out.values_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let eps = ((state >> 33) % 1000) as f64 / 1e6;
            *v *= 1.0 + eps;
        }
        out
    }

    #[test]
    fn cf_numeric_bitwise_matches_full() {
        let (nc, nf) = (30, 45);
        let (a, pf) = cf_fixture(nc, nf, 91);
        let mut c = rap_cf_from_parts(&a, nc, &pf);
        let (a2, pf2) = (perturb(&a, 92), perturb(&pf, 93));
        rap_cf_numeric_from_parts(&a2, nc, &pf2, &mut c);
        assert_eq!(c, rap_cf_from_parts(&a2, nc, &pf2));
    }

    #[test]
    fn numeric_rap_one_by_one_coarse_level() {
        // 1x1 coarse operator: single coarse point, everything folds into
        // one output entry.
        let (a, pf) = cf_fixture(1, 6, 111);
        let mut c = rap_cf_from_parts(&a, 1, &pf);
        assert_eq!(c.nrows(), 1);
        let (a2, pf2) = (perturb(&a, 112), perturb(&pf, 113));
        rap_cf_numeric_from_parts(&a2, 1, &pf2, &mut c);
        assert_eq!(c, rap_cf_from_parts(&a2, 1, &pf2));
    }

    #[test]
    fn numeric_cf_pure_coarse() {
        // No fine points: P = I, RAP = A; the numeric path must still
        // seed rows correctly with empty fine blocks.
        let a = random_csr(10, 10, 3, 121);
        let pf = Csr::zero(0, 10);
        let mut c = rap_cf_from_parts(&a, 10, &pf);
        let a2 = perturb(&a, 122);
        rap_cf_numeric_from_parts(&a2, 10, &pf, &mut c);
        assert_eq!(c, rap_cf_from_parts(&a2, 10, &pf));
    }

    /// `[I; P_F]` in the coarse-first ordering.
    fn full_p(nc: usize, pf: &Csr) -> Csr {
        let mut trips: Vec<(usize, usize, f64)> = (0..nc).map(|i| (i, i, 1.0)).collect();
        for k in 0..pf.nrows() {
            trips.extend(pf.row_iter(k).map(|(c, v)| (nc + k, c, v)));
        }
        Csr::from_triplets(nc + pf.nrows(), nc, trips)
    }

    /// A coarse-first operator made the way the hierarchy makes one: a
    /// matrix with sorted rows in its natural ordering, a C/F marker,
    /// `cf_permutation` + `permute_symmetric`. Columns are remapped and
    /// not re-sorted, so coarse and fine columns interleave within a row.
    /// `keep(i, j)` filters the natural-ordering entries.
    fn interleaved_fixture(
        n: usize,
        seed: u64,
        is_coarse: impl Fn(usize) -> bool,
        keep: impl Fn(usize, usize) -> bool,
    ) -> (Csr, usize, Csr) {
        use crate::permute::{cf_permutation, permute_symmetric};
        let base = random_csr(n, n, 4, seed);
        let trips: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|i| base.row_iter(i).map(move |(j, v)| (i, j, v)))
            .filter(|&(i, j, _)| keep(i, j))
            .collect();
        let marker: Vec<bool> = (0..n).map(is_coarse).collect();
        let (perm, nc) = cf_permutation(&marker);
        let a_perm = permute_symmetric(&Csr::from_triplets(n, n, trips), &perm);
        let pf = if nc == 0 {
            Csr::zero(n, 0)
        } else {
            random_csr(n - nc, nc, 2, seed + 100)
        };
        (a_perm, nc, pf)
    }

    /// `got` holds exactly `want`'s entries, each within `tol`.
    fn assert_entrywise(got: &Csr, want: &Csr, tol: f64) {
        assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()));
        for i in 0..got.nrows() {
            assert_eq!(got.row_nnz(i), want.row_nnz(i), "row {i}");
            for (c, v) in got.row_iter(i) {
                let w = want
                    .get(i, c)
                    .unwrap_or_else(|| panic!("({i}, {c}) not expected"));
                assert!(
                    (v - w).abs() <= tol * (1.0 + w.abs()),
                    "({i}, {c}): {v} vs {w}"
                );
            }
        }
    }

    #[test]
    fn cf_rap_reads_interleaved_rows_in_place() {
        // Natural-ordering rows 3 (coarse) and 4 (fine) touch only their
        // own side, row 6 (coarse) and row 7 (fine) store no diagonal.
        let coarse = |i: usize| i.is_multiple_of(3);
        let (a, nc, pf) = interleaved_fixture(60, 131, coarse, |i, j| match i {
            3 => coarse(j),
            4 => !coarse(j),
            6 | 7 => i != j,
            _ => true,
        });
        // No split point: some row meets a fine column before a coarse one.
        assert!((0..a.nrows()).any(|i| {
            let cols = a.row_cols(i);
            cols.windows(2)
                .any(|w| usize::from(w[0]) >= nc && usize::from(w[1]) < nc)
        }));
        assert!(a.row_iter(1).all(|(c, _)| c < nc)); // natural row 3
        assert!(a.row_iter(nc + 2).all(|(c, _)| c >= nc)); // natural row 4
        assert_eq!(a.get(2, 2), None); // natural row 6
        assert_eq!(a.get(nc + 4, nc + 4), None); // natural row 7

        let pft = transpose(&pf);
        let p = full_p(nc, &pf);
        let c = rap_cf(&a, nc, &pf, &pft);
        assert_entrywise(&c, &rap_unfused(&transpose(&p), &a, &p), 1e-12);

        let (a2, pf2) = (perturb(&a, 132), perturb(&pf, 133));
        let pft2 = transpose(&pf2);
        let mut frozen = c;
        rap_cf_numeric(&a2, nc, &pf2, &pft2, &mut frozen);
        assert_eq!(frozen, rap_cf(&a2, nc, &pf2, &pft2));
    }

    #[test]
    fn cf_rap_all_fine_and_all_coarse() {
        // nc = 0: nothing to form. nc = n: P = I, P_F has no rows, and
        // every row is its own A_CC row, values untouched.
        let (a, nc, pf) = interleaved_fixture(12, 141, |_| false, |_, _| true);
        assert_eq!(nc, 0);
        let mut c = rap_cf(&a, 0, &pf, &transpose(&pf));
        assert_eq!((c.nrows(), c.ncols()), (0, 0));
        rap_cf_numeric(&a, 0, &pf, &transpose(&pf), &mut c);

        let (a, nc, _) = interleaved_fixture(12, 142, |_| true, |_, _| true);
        assert_eq!(nc, 12);
        let pf = Csr::zero(0, 12);
        let mut c = rap_cf(&a, 12, &pf, &transpose(&pf));
        assert_eq!(c, a);
        let a2 = perturb(&a, 143);
        rap_cf_numeric(&a2, 12, &pf, &transpose(&pf), &mut c);
        assert_eq!(c, a2);
    }

    /// `c` without the last stored entry of its first non-empty row.
    fn drop_one_entry(c: &Csr) -> Csr {
        let row = (0..c.nrows()).find(|&i| c.row_nnz(i) > 0).unwrap();
        let cut = c.rowptr()[row + 1] - 1;
        let rowptr = (c.rowptr().iter().enumerate())
            .map(|(i, &p)| if i > row { p - 1 } else { p })
            .collect();
        let (mut colidx, mut values) = (c.colidx().to_vec(), c.values().to_vec());
        colidx.remove(cut);
        values.remove(cut);
        Csr::from_parts_unchecked(c.nrows(), c.ncols(), rowptr, colidx, values)
    }

    // A frozen pattern that does not cover the product must be a panic in
    // every profile (`cargo test --release` runs these too): the range
    // test is all that keeps the indexed add inside the row.

    #[test]
    #[should_panic(expected = "frozen pattern of row")]
    fn cf_numeric_rejects_a_short_pattern() {
        let (a, pf) = cf_fixture(15, 25, 171);
        let mut c = drop_one_entry(&rap_cf_from_parts(&a, 15, &pf));
        rap_cf_numeric_from_parts(&a, 15, &pf, &mut c);
    }

    /// The CF fixture as a hierarchy stores it: the fine level's rows
    /// partitioned into smoother segments (order recorded), and
    /// `stored(c)`: a product `c` permuted by `q` and partitioned too, with
    /// the order its partition recorded.
    #[allow(clippy::type_complexity)]
    fn stored_levels<'q>(
        a: &Csr,
        nc: usize,
        q: &'q Permutation,
    ) -> (RowOrder, impl Fn(&Csr) -> (Csr, RowOrder) + 'q) {
        use crate::permute::tests::{partition_recorded, random_segments};
        let order = partition_recorded(&mut a.clone(), random_segments(a.nrows(), 3, 5));
        let stored = move |c: &Csr| {
            let mut s = permute_symmetric(c, q);
            let order = partition_recorded(&mut s, random_segments(nc, 2, 6));
            (s, order)
        };
        (order, stored)
    }

    #[test]
    fn cf_numeric_between_stored_levels_is_the_stored_product() {
        let (a, nc, pf) = interleaved_fixture(90, 181, |i| i % 3 != 1, |_, _| true);
        assert_eq!(nc, 60);
        let q = Permutation::from_forward((0..nc).map(|i| (i * 7 + 3) % nc).collect());
        let (order, stored) = stored_levels(&a, nc, &q);
        let (mut target, target_order) = stored(&rap_cf(&a, nc, &pf, &transpose(&pf)));

        let (a2, pf2) = (perturb(&a, 182), perturb(&pf, 183));
        let pft2 = transpose(&pf2);
        assert_eq!(
            stored_levels(&a2, nc, &q).0,
            order,
            "the partition is the pattern's"
        );
        // Written by column into the target's partitioned rows ...
        let mut old_layout = target.clone();
        rap_cf_numeric_into(&a2, nc, &pf2, &pft2, &mut target, Some(&q));
        let (want, _) = stored(&rap_cf(&a2, nc, &pf2, &pft2));
        assert_eq!(target, want); // bitwise, in the target's own row order

        // ... and into the same rows with their pattern back in the order
        // they had before the partition, which then applies again.
        target_order.restore_pattern(&mut old_layout);
        rap_cf_numeric_into(&a2, nc, &pf2, &pft2, &mut old_layout, Some(&q));
        let product = rap_cf(&a2, nc, &pf2, &pft2);
        assert_eq!(old_layout, permute_symmetric(&product, &q));
        target_order.partition(&mut old_layout);
        assert_eq!(old_layout, want);
    }

    #[test]
    #[should_panic(expected = "frozen pattern of row")]
    fn cf_numeric_into_a_short_stored_level_panics() {
        let (a, nc, pf) = interleaved_fixture(90, 191, |i| i % 3 != 1, |_, _| true);
        let q = Permutation::from_forward((0..nc).map(|i| (i * 7 + 3) % nc).collect());
        let (_, stored) = stored_levels(&a, nc, &q);
        let pft = transpose(&pf);
        let mut c = drop_one_entry(&stored(&rap_cf(&a, nc, &pf, &pft)).0);
        rap_cf_numeric_into(&a, nc, &pf, &pft, &mut c, Some(&q));
    }
}
