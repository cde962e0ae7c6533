//! Extended+i (distance-2) interpolation — Eq. 1 of the paper
//! (De Sterck, Falgout, Nolting, Yang 2008).
//!
//! Each F-point `i` interpolates from
//! `Ĉ_i = C_i^s ∪ ⋃_{j∈F_i^s} C_j^s` — its strong coarse neighbours plus
//! the strong coarse neighbours of its strong *fine* neighbours:
//!
//! ```text
//! w_ij = -(1/ã_ii) (a_ij + Σ_{k∈F_i^s} a_ik ā_kj / b_ik),   j ∈ Ĉ_i
//! ã_ii = a_ii + Σ_{n∈N_i^w \ Ĉ_i} a_in + Σ_{k∈F_i^s} a_ik ā_ki / b_ik
//! b_ik = Σ_{l∈Ĉ_i∪{i}} ā_kl,   ā_kl = a_kl when sign(a_kl) ≠ sign(a_kk), else 0
//! ```
//!
//! Like SpGEMM, the construction touches neighbours-of-neighbours, and
//! the output size is unknown a priori; the same chunked assembly used by
//! the one-pass SpGEMM is used here. Truncation is fused into row
//! construction when requested (§3.1.2).
//!
//! The distance-2 sweeps over a neighbour row `k` only ever use its
//! coarse entries of opposite sign to `a_kk` (the middle class of the
//! paper's three-way row partition) and `ā_ki`. Instead of reordering `A`
//! in place, one O(nnz) pass gathers that class into a read-only
//! [`CoarseView`]; `A` keeps its row order, so RAP and SpMV see the same
//! matrix as before. The per-row loop
//! itself does not allocate: on two pool threads a heap allocation per row
//! serialises the threads on the allocator and costs more than the
//! arithmetic (DESIGN.md §3).

use super::common::{truncate_row, CfMap, TruncParams};
use famg_sparse::partition::{exclusive_prefix_sum, num_threads, split_evenly};
use famg_sparse::{Col, Csr};
use rayon::prelude::*;
use std::ops::Range;

/// Builds the extended+i interpolation operator (`n × nc`).
///
/// `trunc = Some(p)` applies fused per-row truncation; `None` returns the
/// untruncated operator (`HYPRE_base` then truncates it in a separate pass).
pub fn extended_i(a: &Csr, s: &Csr, cf: &CfMap, trunc: Option<&TruncParams>) -> Csr {
    extended_i_rows(a, s, cf, 0..a.nrows(), trunc)
}

/// Rows `rows` of the extended+i operator (`rows.len() × nc`). Every row
/// of `a` and `s` can be read (a fine row distributes through its strong
/// fine neighbours' rows): a rank of the distributed setup passes its owned
/// range of an extended local CSR whose halo rows hold what
/// [`remote_entry_is_read`] kept of them.
pub fn extended_i_rows(
    a: &Csr,
    s: &Csr,
    cf: &CfMap,
    rows: Range<usize>,
    trunc: Option<&TruncParams>,
) -> Csr {
    build(a, s, cf, rows, trunc, |_| ()).0
}

/// `ā_kl ≠ 0`: the entry's sign opposes the diagonal of its row.
#[inline]
fn opposes(val: f64, akk: f64) -> bool {
    val * akk < 0.0
}

/// Whether the rows of a reader can read entry `a_kl` (value `val`) of a
/// row `k` they do not own — the §4.3 wire filter, stated beside the
/// [`CoarseView`] it mirrors: `a_kk` itself, and of the entries opposing it
/// the coarse ones (the view's `opp` segment) and the reader's own columns
/// (the `ā_ki` scan of the row kernel).
#[inline]
pub fn remote_entry_is_read(
    akk: f64,
    val: f64,
    is_diag: bool,
    col_coarse: bool,
    col_readers: bool,
) -> bool {
    is_diag || (opposes(val, akk) && (col_coarse || col_readers))
}

/// Observer of the row kernel's arithmetic: every operand is reported by
/// its offset in its own row of `A` (row `i` or row `k`), in the order the
/// kernel consumes it. The builder runs with `()` (all calls compile away);
/// the replay tape ([`super::tape`]) records them, so it repeats the
/// builder's additions in the builder's order by construction.
pub(super) trait Sink: Send {
    /// `ã_ii += a_i[off]` (the diagonal or a weak neighbour outside `Ĉ_i`).
    fn diag_term(&mut self, _off: usize) {}
    /// `num[slot] += a_i[off]` (`a_ij`, `j ∈ Ĉ_i`).
    fn direct_term(&mut self, _off: usize, _slot: usize) {}
    /// `num[slot] += (a_ik / b_ik) · a_k[off]`.
    fn dist_term(&mut self, _off: usize, _slot: usize) {}
    /// Closes strong fine neighbour `k` (`a_ik` at `a_i[aik]`). `lumped`
    /// means `b_ik == 0`: `ã_ii += a_ik` and no `dist_term` was reported.
    /// Otherwise `b_ik` summed, in row-`k` order, this neighbour's
    /// `dist_term`s and `ā_ki` at `a_k[abar]` where it falls, and
    /// `ã_ii += (a_ik / b_ik) · a_k[abar]`, `abar` absent ⇒ 0.
    fn end_neighbour(&mut self, _aik: usize, _abar: Option<usize>, _lumped: bool) {}
    /// Numerator `slot` is emitted as the row's next weight, in column
    /// `col` of `P`.
    fn emit(&mut self, _slot: usize, _col: usize) {}
    /// Closes a row that had `nslots = |Ĉ_i|` numerators. `kept` holds the
    /// columns that survived truncation: a subsequence of the emitted ones
    /// (all of them without truncation; `Ĉ_i` has no duplicates).
    fn end_row(&mut self, _nslots: usize, _kept: &[usize]) {}
}

impl Sink for () {}

/// One entry of the coarse opposite-sign view.
#[derive(Clone, Copy)]
struct Opp {
    col: usize,
    /// Offset in its row of `A`.
    off: usize,
    val: f64,
}

/// What the distance-2 sweeps read of a fine row `k`, gathered once: the
/// entries `a_kl` with `l` coarse and `a_kl · a_kk < 0` (in row order),
/// `a_kk` itself, and the coarse members of `S_k`. On a 27-point operator
/// with 8 % coarse points that is ~2 of 27 entries, so a sweep per `(i, k)`
/// pair stops scanning the fine columns it would discard. Coarse rows get
/// empty segments: nothing distributes through them.
struct CoarseView {
    /// `a_kk`; 0.0 when not stored, which makes every `b_ik` lump.
    diag: Vec<f64>,
    opp_ptr: Vec<usize>,
    opp: Vec<Opp>,
    strong_ptr: Vec<usize>,
    strong: Vec<Col>,
}

impl CoarseView {
    fn new(a: &Csr, s: &Csr, cf: &CfMap, blocks: &[Range<usize>]) -> Self {
        struct Part {
            diag: Vec<f64>,
            opp_len: Vec<usize>,
            opp: Vec<Opp>,
            strong_len: Vec<usize>,
            strong: Vec<Col>,
        }
        let parts: Vec<Part> = blocks
            .par_iter()
            .map(|rows| {
                let mut p = Part {
                    diag: Vec::with_capacity(rows.len()),
                    opp_len: Vec::with_capacity(rows.len()),
                    opp: Vec::new(),
                    strong_len: Vec::with_capacity(rows.len()),
                    strong: Vec::new(),
                };
                for k in rows.clone() {
                    let (cols, vals) = (a.row_cols(k), a.row_vals(k));
                    let akk = cols
                        .iter()
                        .position(|&c| usize::from(c) == k)
                        .map_or(0.0, |o| vals[o]);
                    p.diag.push(akk);
                    let (opp0, strong0) = (p.opp.len(), p.strong.len());
                    if !cf.is_coarse[k] {
                        // `l` coarse and `k` fine, so `l ≠ k` already.
                        for (off, (&col, &val)) in cols.iter().zip(vals).enumerate() {
                            let col = usize::from(col);
                            if cf.is_coarse[col] && opposes(val, akk) {
                                p.opp.push(Opp { col, off, val });
                            }
                        }
                        let coarse = |l: &&Col| cf.is_coarse[usize::from(**l)];
                        p.strong.extend(s.row_cols(k).iter().filter(coarse));
                    }
                    p.opp_len.push(p.opp.len() - opp0);
                    p.strong_len.push(p.strong.len() - strong0);
                }
                p
            })
            .collect();
        CoarseView {
            diag: cat(&parts, |p| &p.diag),
            opp_ptr: offsets(cat(&parts, |p| &p.opp_len)),
            opp: cat(&parts, |p| &p.opp),
            strong_ptr: offsets(cat(&parts, |p| &p.strong_len)),
            strong: cat(&parts, |p| &p.strong),
        }
    }

    fn opp(&self, k: usize) -> &[Opp] {
        &self.opp[self.opp_ptr[k]..self.opp_ptr[k + 1]]
    }

    fn strong(&self, k: usize) -> &[Col] {
        &self.strong[self.strong_ptr[k]..self.strong_ptr[k + 1]]
    }
}

/// One field of every block, concatenated in block order.
fn cat<P, T: Copy>(parts: &[P], field: impl Fn(&P) -> &Vec<T>) -> Vec<T> {
    let slices: Vec<&[T]> = parts.iter().map(|p| &field(p)[..]).collect();
    slices.concat()
}

/// Row pointer from per-row lengths.
fn offsets(mut lens: Vec<usize>) -> Vec<usize> {
    let total = exclusive_prefix_sum(&mut lens);
    lens.push(total);
    lens
}

/// Per-chunk row state. Markers are stamped with `row + 1`, so the
/// zero-initialised (lazily mapped) vectors need no clearing between rows
/// and a chunk only ever touches the pages near its own rows.
struct Scratch {
    /// `S_i` membership stamp.
    strong: Vec<usize>,
    /// `Ĉ_i` membership stamp and numerator slot.
    chat_stamp: Vec<usize>,
    chat_slot: Vec<usize>,
    /// `Ĉ_i` in discovery order, and the numerators of `w_ij`.
    chat: Vec<usize>,
    num: Vec<f64>,
    /// View entries read by the distance-2 sweeps.
    visited: usize,
    /// Columns of neighbour rows compared in the search for `a_ki`.
    scanned: usize,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            strong: vec![0; n],
            chat_stamp: vec![0; n],
            chat_slot: vec![0; n],
            chat: Vec::new(),
            num: Vec::new(),
            visited: 0,
            scanned: 0,
        }
    }

    fn add_chat(&mut self, c: usize, stamp: usize) {
        if self.chat_stamp[c] != stamp {
            self.chat_stamp[c] = stamp;
            self.chat_slot[c] = self.chat.len();
            self.chat.push(c);
            self.num.push(0.0);
        }
    }
}

/// Steps 1–4 of Eq. 1 for fine row `i`: leaves `Ĉ_i` and the numerators
/// in `sc` and returns `ã_ii` (0.0 also when `Ĉ_i` is empty — either way
/// the row interpolates from nothing).
fn fine_row<K: Sink>(
    i: usize,
    a: &Csr,
    s: &Csr,
    cf: &CfMap,
    view: &CoarseView,
    sc: &mut Scratch,
    sink: &mut K,
) -> f64 {
    let stamp = i + 1;
    sc.chat.clear();
    sc.num.clear();
    // --- Step 1: mark S_i and build Ĉ_i. ---
    for j in s.col_iter(i) {
        sc.strong[j] = stamp;
    }
    for j in s.col_iter(i) {
        if cf.is_coarse[j] {
            sc.add_chat(j, stamp);
        } else {
            let sj = view.strong(j);
            sc.visited += sj.len();
            for &k in sj {
                sc.add_chat(usize::from(k), stamp);
            }
        }
    }
    if sc.chat.is_empty() {
        // No interpolatory set: empty row, smoother-only point.
        return 0.0;
    }
    // --- Steps 2–4: diagonal, numerators, distribution. ---
    let mut atilde = 0.0f64;
    let vals_i = a.row_vals(i);
    // First pass over A_i: diagonal, weak lumping, direct numerator
    // contributions.
    for (off, j) in a.col_iter(i).enumerate() {
        if j == i {
            atilde += vals_i[off];
            sink.diag_term(off);
        } else if sc.chat_stamp[j] == stamp {
            sc.num[sc.chat_slot[j]] += vals_i[off];
            sink.direct_term(off, sc.chat_slot[j]);
        } else if sc.strong[j] != stamp {
            // Weak neighbour outside Ĉ_i: lump into diagonal.
            atilde += vals_i[off];
            sink.diag_term(off);
        }
        // Strong fine neighbours handled below; strong coarse
        // neighbours are in Ĉ_i (handled above).
    }
    // Distribution through strong fine neighbours.
    for (aik_off, k) in a.col_iter(i).enumerate() {
        if k == i || sc.strong[k] != stamp || cf.is_coarse[k] {
            continue;
        }
        let aik = vals_i[aik_off];
        let akk = view.diag[k];
        let opp = view.opp(k);
        // ā_ki: `i` is fine, so it is not in the view; a compare-only
        // scan of row k's columns finds it.
        let (cols_k, vals_k) = (a.row_cols(k), a.row_vals(k));
        let found = cols_k.iter().position(|&l| usize::from(l) == i);
        sc.scanned += found.map_or(cols_k.len(), |o| o + 1);
        let abar_off = found.filter(|&o| opposes(vals_k[o], akk));
        // b_ik = Σ_{l∈Ĉ_i∪{i}} ā_kl, summed in row-k order (ā_ki falls
        // between the view entries stored before and after it).
        let (before, after) =
            opp.split_at(abar_off.map_or(opp.len(), |o| opp.partition_point(|e| e.off < o)));
        let mut bik = sum_members(0.0, before, sc, stamp);
        let mut abar_ki = 0.0f64;
        if let Some(o) = abar_off {
            abar_ki = vals_k[o];
            bik += abar_ki;
        }
        bik = sum_members(bik, after, sc, stamp);
        sc.visited += opp.len();
        if bik == 0.0 {
            // Nothing to distribute to: lump a_ik (HYPRE's guard
            // against zero denominators).
            atilde += aik;
            sink.end_neighbour(aik_off, None, true);
            continue;
        }
        let coef = aik / bik;
        atilde += coef * abar_ki;
        for e in opp {
            if sc.chat_stamp[e.col] == stamp {
                sc.num[sc.chat_slot[e.col]] += coef * e.val;
                sink.dist_term(e.off, sc.chat_slot[e.col]);
            }
        }
        sc.visited += opp.len();
        sink.end_neighbour(aik_off, abar_off, false);
    }
    atilde
}

/// `acc + Σ ā_kl` over the members of `Ĉ_i` in `seg`, in order — the
/// entries the distribution loop below visits.
fn sum_members(mut acc: f64, seg: &[Opp], sc: &Scratch, stamp: usize) -> f64 {
    for e in seg {
        if sc.chat_stamp[e.col] == stamp {
            acc += e.val;
        }
    }
    acc
}

/// Runs the row kernel over blocks of `rows` in parallel, one sink per
/// block (`new_sink(first_row)`), and returns their operator rows with the
/// sinks in row order. Rows never see the block geometry, so the operator
/// is the same for every pool size.
pub(super) fn build<K: Sink>(
    a: &Csr,
    s: &Csr,
    cf: &CfMap,
    rows: Range<usize>,
    trunc: Option<&TruncParams>,
    new_sink: impl Fn(usize) -> K + Sync,
) -> (Csr, Vec<K>) {
    let n = a.nrows();
    assert_eq!(s.nrows(), n);
    assert_eq!(cf.len(), n);
    if rows.is_empty() {
        return (Csr::zero(0, cf.nc), Vec::new());
    }
    // Coarse rows cost nothing and come first under CF ordering, so more
    // blocks than the pool's default keep the fine rows balanced.
    let view = CoarseView::new(a, s, cf, &split_evenly(n, num_threads() * 8));
    let blocks: Vec<Range<usize>> = split_evenly(rows.len(), num_threads() * 8)
        .into_iter()
        .map(|b| rows.start + b.start..rows.start + b.end)
        .collect();

    struct Chunk<K> {
        row_nnz: Vec<usize>,
        colidx: Vec<Col>,
        values: Vec<f64>,
        visited: usize,
        scanned: usize,
        sink: K,
    }

    let chunks: Vec<Chunk<K>> = blocks
        .par_iter()
        .map(|rows| {
            let mut ch = Chunk {
                row_nnz: Vec::with_capacity(rows.len()),
                colidx: Vec::new(),
                values: Vec::new(),
                visited: 0,
                scanned: 0,
                sink: new_sink(rows.start),
            };
            let mut sc = Scratch::new(n);
            // Row buffers live for the whole block: nothing below
            // allocates per row once they have grown to the widest row.
            let mut out_cols: Vec<usize> = Vec::new();
            let mut out_vals: Vec<f64> = Vec::new();
            for i in rows.clone() {
                if cf.is_coarse[i] {
                    ch.row_nnz.push(1);
                    ch.colidx.push(Col::new(cf.cmap[i]));
                    ch.values.push(1.0);
                    ch.sink.end_row(0, &[]);
                    continue;
                }
                let atilde = fine_row(i, a, s, cf, &view, &mut sc, &mut ch.sink);
                out_cols.clear();
                out_vals.clear();
                if atilde != 0.0 {
                    // --- Step 5: weights. ---
                    for (slot, &c) in sc.chat.iter().enumerate() {
                        let w = -sc.num[slot] / atilde;
                        if w != 0.0 {
                            out_cols.push(cf.cmap[c]);
                            out_vals.push(w);
                            ch.sink.emit(slot, cf.cmap[c]);
                        }
                    }
                    if let Some(t) = trunc {
                        truncate_row(&mut out_cols, &mut out_vals, t);
                    }
                }
                ch.row_nnz.push(out_cols.len());
                ch.colidx.extend(out_cols.iter().map(|&c| Col::new(c)));
                ch.values.extend_from_slice(&out_vals);
                ch.sink.end_row(sc.chat.len(), &out_cols);
            }
            (ch.visited, ch.scanned) = (sc.visited, sc.scanned);
            ch
        })
        .collect();
    drop(view);

    famg_prof::counter(
        "interp_entries_visited",
        chunks.iter().map(|c| c.visited as u64).sum(),
    );
    famg_prof::counter(
        "interp_abar_scanned",
        chunks.iter().map(|c| c.scanned as u64).sum(),
    );
    let p = Csr::from_parts_unchecked(
        rows.len(),
        cf.nc,
        offsets(cat(&chunks, |c| &c.row_nnz)),
        cat(&chunks, |c| &c.colidx),
        cat(&chunks, |c| &c.values),
    );
    (p, chunks.into_iter().map(|c| c.sink).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::pmis;
    use crate::strength::strength;
    use famg_matgen::{laplace2d, laplace3d_7pt};

    #[test]
    fn hand_computed_1d_example() {
        // 1D tridiag(-1, 2, -1), n = 5, C = {0, 3}.
        // For F-point 1: Ĉ = {0, 3}, b_{1,2} = -2, ã = 1.5,
        // w_0 = 2/3, w_3 = 1/3 (see module docs derivation).
        let mut trips = Vec::new();
        for i in 0..5usize {
            trips.push((i, i, 2.0));
            if i > 0 {
                trips.push((i, i - 1, -1.0));
            }
            if i < 4 {
                trips.push((i, i + 1, -1.0));
            }
        }
        let a = Csr::from_triplets(5, 5, trips);
        let s = strength(&a, 0.25, 10.0);
        let cf = CfMap::new(vec![true, false, false, true, false]);
        let p = extended_i(&a, &s, &cf, None);
        assert_eq!(p.ncols(), 2);
        // Row 1: w(col 0) = 2/3, w(col 1 = point 3) = 1/3.
        assert!((p.get(1, 0).unwrap() - 2.0 / 3.0).abs() < 1e-14);
        assert!((p.get(1, 1).unwrap() - 1.0 / 3.0).abs() < 1e-14);
        // Row 2 (F between 1 and 3): symmetric problem, Ĉ = {0, 3}.
        let w: f64 = p.row_vals(2).iter().sum();
        assert!((w - 1.0).abs() < 1e-12);
        // Coarse rows identity.
        assert_eq!(p.col_iter(0).collect::<Vec<_>>(), [0]);
        assert_eq!(p.row_vals(0), &[1.0]);
        assert_eq!(p.col_iter(3).collect::<Vec<_>>(), [1]);
    }

    fn setup(a: &Csr, seed: u64) -> (Csr, CfMap) {
        let s = strength(a, 0.25, 0.8);
        let c = pmis(&s, seed);
        (s, CfMap::new(c.is_coarse))
    }

    #[test]
    fn constant_preserved_on_interior_rows() {
        let a = laplace2d(15, 15);
        let (s, cf) = setup(&a, 3);
        let p = extended_i(&a, &s, &cf, None);
        for i in 0..a.nrows() {
            let row_sum: f64 = a.row_vals(i).iter().sum();
            if row_sum.abs() < 1e-12 && p.row_nnz(i) > 0 {
                let w: f64 = p.row_vals(i).iter().sum();
                assert!((w - 1.0).abs() < 1e-10, "row {i}: Σw = {w}");
            }
        }
    }

    #[test]
    fn truncated_rows_capped_and_sum_preserved() {
        let a = laplace3d_7pt(8, 8, 8);
        let (s, cf) = setup(&a, 5);
        let t = TruncParams::paper();
        let p = extended_i(&a, &s, &cf, Some(&t));
        for i in 0..a.nrows() {
            if !cf.is_coarse[i] {
                assert!(p.row_nnz(i) <= 4, "row {i} has {} entries", p.row_nnz(i));
            }
        }
    }

    #[test]
    fn fused_truncation_equals_post_truncation() {
        // The optimized (fused) and baseline (separate-pass) truncation
        // must produce identical operators.
        let a = laplace3d_7pt(6, 6, 6);
        let (s, cf) = setup(&a, 7);
        let t = TruncParams::paper();
        let fused = extended_i(&a, &s, &cf, Some(&t));
        let post = super::super::common::truncate_matrix(&extended_i(&a, &s, &cf, None), &t);
        assert_eq!(fused, post);
    }

    #[test]
    fn every_fine_point_with_strong_neighbours_interpolates() {
        let a = laplace2d(20, 20);
        let (s, cf) = setup(&a, 11);
        let p = extended_i(&a, &s, &cf, None);
        for i in 0..a.nrows() {
            if !cf.is_coarse[i] && s.row_nnz(i) > 0 {
                assert!(p.row_nnz(i) > 0, "fine point {i} has empty row");
            }
        }
    }

    #[test]
    fn weights_reference_valid_coarse_columns() {
        let a = laplace2d(13, 9);
        let (s, cf) = setup(&a, 13);
        let p = extended_i(&a, &s, &cf, Some(&TruncParams::paper()));
        assert_eq!(p.ncols(), cf.nc);
        assert!(p.no_duplicate_cols());
    }

    #[test]
    fn deterministic_across_calls() {
        let a = laplace3d_7pt(7, 7, 7);
        let (s, cf) = setup(&a, 17);
        let p1 = extended_i(&a, &s, &cf, Some(&TruncParams::paper()));
        let p2 = extended_i(&a, &s, &cf, Some(&TruncParams::paper()));
        assert_eq!(p1, p2);
    }

    #[test]
    fn distance_two_reach() {
        // 1D chain with C = {0, 4}: point 2 has no coarse neighbour at
        // distance one — the extended set must reach {0, 4} through its
        // strong fine neighbours, and by symmetry give weights 1/2, 1/2.
        let mut trips = Vec::new();
        for i in 0..5usize {
            trips.push((i, i, 2.0));
            if i > 0 {
                trips.push((i, i - 1, -1.0));
            }
            if i < 4 {
                trips.push((i, i + 1, -1.0));
            }
        }
        let a = Csr::from_triplets(5, 5, trips);
        let s = strength(&a, 0.25, 10.0);
        let cf = CfMap::new(vec![true, false, false, false, true]);
        assert!(!s.col_iter(2).any(|j| cf.is_coarse[j]));
        let p = extended_i(&a, &s, &cf, None);
        assert_eq!(p.row_nnz(2), 2, "point 2 must interpolate at distance 2");
        assert!((p.get(2, 0).unwrap() - 0.5).abs() < 1e-12);
        assert!((p.get(2, 1).unwrap() - 0.5).abs() < 1e-12);
    }
}
