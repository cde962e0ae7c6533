//! Numeric replay tape for extended+i interpolation.
//!
//! [`extended_i`](super::extended_i) spends most of its time *discovering*
//! structure: marking `S_i`, assembling `Ĉ_i`, scanning neighbour rows for
//! sign-filtered entries. Once the operator pattern is frozen, every one
//! of those decisions is fixed, and the weight computation collapses to a
//! straight-line arithmetic circuit over `A`'s value array. [`ExtITape`]
//! records that circuit at freeze time — for each accumulation the builder
//! performs, the nnz index it reads — and replay re-executes it against new
//! values, writing the kept weights in place into the level's `P_F`, with no
//! hashing, no marker stamping, and no per-row allocation.
//!
//! Capture *is* the build: the builder's own row kernel run once with a
//! recording sink (one [`TapePart`] per parallel row block), returning the
//! operator it built — truncated or not — beside the tape. Replay
//! therefore performs the *same additions in the same order* as the
//! builder, truncation's rescale included, and on inputs that induce the
//! same frozen decisions the result is bitwise identical to
//! `extended_i(a, s, cf, trunc)`. The tape holds index streams only; the
//! operator is the caller's, and its positions are positions in that
//! operator's value array. Capture records them in the level's raw
//! operator, the one the builder reads; the hierarchy then moves them
//! ([`ExtITape::remap`]) onto the operator it stores — CF-permuted, its
//! rows in the order they had before the smoother partitioned them, the
//! layout a refresh holds it in — and replays there, on the level's only
//! copy. The decisions frozen into the tape (beyond the sparsity pattern
//! itself) are:
//!
//! * the sign filter `ā_kl = a_kl` iff `sign(a_kl) ≠ sign(a_kk)`,
//! * the zero-denominator lump `b_ik == 0`,
//! * the empty-diagonal guard `ã_ii == 0`,
//! * the nonzero-weight emit check `w ≠ 0`,
//! * truncation's kept set, a subset of the emitted weights.
//!
//! Values that flip any of them produce a consistent-but-different
//! operator (the frozen-symbolic trade documented in
//! [`crate::refresh`]); the `validate` feature's cross-check reports it.

use super::common::{CfMap, TruncParams};
use super::extended_i::{build, Sink};
use famg_sparse::Csr;
use rayon::prelude::*;

/// One distribution term: `k` is a strong fine neighbour of the row.
///
/// Its `dist_*` terms are `b_ik`'s, in row-`k` order: each `ā_kl`,
/// `l ∈ Ĉ_i`, and `ā_ki` where it falls, in the [`SPARE`] slot. An empty
/// range encodes the frozen lump decision (`b_ik == 0` at capture): replay
/// adds `a[aik]` straight into the diagonal. Otherwise replay sums
/// `b_ik`, computes `coef = a[aik] / b_ik`, adds `coef · a[abar]` to the
/// diagonal and `coef · a[l]` to each term's slot.
#[derive(Debug, Clone, Copy)]
struct KOp {
    /// nnz index of `a_ik` in the row of `i`.
    aik: u32,
    /// nnz index of `ā_ki` in row `k` (`u32::MAX` when absent → 0.0).
    abar: u32,
    /// Exclusive end of this op's terms in `dist_*` (start = previous
    /// op's end; ops are laid out in replay order).
    dist_end: u32,
}

/// The numerator slot `ā_ki`'s distribution term adds into and nothing
/// reads: numerator `s` of a row is stored as slot `s + 1`.
const SPARE: u32 = 0;

/// The circuit of one contiguous block of rows, recorded by the row
/// kernel through [`Sink`].
///
/// All index streams are flat, in capture (= replay) order, with per-row
/// boundaries in `*_ptr` arrays; `KOp` sub-streams chain via running
/// cursors. Indices are `u32` — the tape refuses to capture operators
/// with ≥ 2³² nonzeros, far beyond a single node's memory anyway.
#[derive(Debug)]
struct TapePart {
    /// First row of the block; the `*_ptr` arrays and `nslots` are
    /// indexed by `row - first_row`.
    first_row: usize,
    /// Numerator slot count (`|Ĉ_i|`) per row.
    nslots: Vec<u32>,
    /// Per-row range into `at_idx` (direct diagonal terms).
    at_ptr: Vec<u32>,
    /// nnz indices summed directly into `ã_ii` (diagonal + weak lumps).
    at_idx: Vec<u32>,
    /// Per-row range into `dn_idx`/`dn_slot` (direct numerator terms).
    dn_ptr: Vec<u32>,
    /// nnz index of each direct `a_ij`, `j ∈ Ĉ_i`.
    dn_idx: Vec<u32>,
    /// Numerator slot the direct term adds into.
    dn_slot: Vec<u32>,
    /// Per-row range into `kops`.
    k_ptr: Vec<u32>,
    kops: Vec<KOp>,
    /// `b_ik` term nnz indices (row-`k` scan order, `l = i` included).
    dist_idx: Vec<u32>,
    /// Numerator slot each term adds into ([`SPARE`] for `ā_ki`).
    dist_slot: Vec<u32>,
    /// Per-row range into `em_slot`/`em_keep`.
    em_ptr: Vec<u32>,
    /// Slots emitted as weights, in emit order.
    em_slot: Vec<u32>,
    /// Whether the emitted weight survived truncation.
    em_keep: Vec<bool>,
    /// Columns of the open row's emitted weights (scratch for `end_row`).
    row_cols: Vec<usize>,
}

/// Narrows to a stream index; `u32::MAX` is [`KOp::abar`]'s "absent".
fn idx(x: usize) -> u32 {
    let fits = u32::try_from(x).ok().filter(|&i| i < u32::MAX);
    fits.expect("extended+i tape: index stream exceeds u32")
}

impl TapePart {
    fn new(first_row: usize) -> Self {
        TapePart {
            first_row,
            nslots: Vec::new(),
            at_ptr: vec![0],
            at_idx: Vec::new(),
            dn_ptr: vec![0],
            dn_idx: Vec::new(),
            dn_slot: Vec::new(),
            k_ptr: vec![0],
            kops: Vec::new(),
            dist_idx: Vec::new(),
            dist_slot: Vec::new(),
            em_ptr: vec![0],
            em_slot: Vec::new(),
            em_keep: Vec::new(),
            row_cols: Vec::new(),
        }
    }

    /// Gives back what the streams' doubling growth reserved beyond their
    /// lengths (about a third of a tape): a frozen setup keeps its tapes.
    fn trim(&mut self) {
        self.nslots.shrink_to_fit();
        self.at_ptr.shrink_to_fit();
        self.at_idx.shrink_to_fit();
        self.dn_ptr.shrink_to_fit();
        self.dn_idx.shrink_to_fit();
        self.dn_slot.shrink_to_fit();
        self.k_ptr.shrink_to_fit();
        self.kops.shrink_to_fit();
        self.dist_idx.shrink_to_fit();
        self.dist_slot.shrink_to_fit();
        self.em_ptr.shrink_to_fit();
        self.em_slot.shrink_to_fit();
        self.em_keep.shrink_to_fit();
        self.row_cols = Vec::new();
    }

    /// Rewrites every operand position the circuit reads, `k → map[k]`.
    fn remap(&mut self, map: &[u32]) {
        let at = |k: &mut u32| *k = map[*k as usize];
        self.at_idx.iter_mut().for_each(at);
        self.dn_idx.iter_mut().for_each(at);
        self.dist_idx.iter_mut().for_each(at);
        for op in &mut self.kops {
            at(&mut op.aik);
            if op.abar != u32::MAX {
                at(&mut op.abar);
            }
        }
    }

    /// Recomputes this block's fine-row weights from `av` and writes the
    /// kept ones of point `i` into row `row(i)` of the operator `rowptr`
    /// and `values` lay out; `num` is scratch of `max_slots + 1` entries.
    /// `rescale` repeats `truncate_row`'s: `sum_before` adds every emitted
    /// weight in emit order, `sum_after` the kept ones in theirs.
    fn replay(
        &self,
        av: &[f64],
        rowptr: &[usize],
        values: &RowsPtr,
        row: &impl Fn(usize) -> usize,
        num: &mut [f64],
        rescale: bool,
    ) {
        // Running cursor into the distribution terms.
        let mut cd = 0usize;
        for r in 0..self.nslots.len() {
            let kr = self.k_ptr[r] as usize..self.k_ptr[r + 1] as usize;
            let er = self.em_ptr[r] as usize..self.em_ptr[r + 1] as usize;
            if er.is_empty() {
                // Coarse identity row, empty row, or frozen-dead row:
                // nothing to write; skip the cursor past any recorded
                // (unemitted) work.
                if let Some(last) = self.kops[kr.clone()].last() {
                    cd = last.dist_end as usize;
                }
                continue;
            }
            for s in &mut num[..=self.nslots[r] as usize] {
                *s = 0.0;
            }
            let mut atilde = 0.0f64;
            for &ix in &self.at_idx[self.at_ptr[r] as usize..self.at_ptr[r + 1] as usize] {
                atilde += av[ix as usize];
            }
            let dnr = self.dn_ptr[r] as usize..self.dn_ptr[r + 1] as usize;
            for (&ix, &sl) in self.dn_idx[dnr.clone()].iter().zip(&self.dn_slot[dnr]) {
                num[sl as usize] += av[ix as usize];
            }
            for op in &self.kops[kr] {
                let dr = cd..op.dist_end as usize;
                cd = dr.end;
                if dr.is_empty() {
                    // Frozen lump.
                    atilde += av[op.aik as usize];
                    continue;
                }
                let terms = &self.dist_idx[dr.clone()];
                let bik = terms.iter().fold(0.0f64, |b, &ix| b + av[ix as usize]);
                let coef = av[op.aik as usize] / bik;
                let abar = if op.abar == u32::MAX {
                    0.0
                } else {
                    av[op.abar as usize]
                };
                atilde += coef * abar;
                for (&ix, &sl) in terms.iter().zip(&self.dist_slot[dr]) {
                    num[sl as usize] += coef * av[ix as usize];
                }
            }
            let out_row = row(self.first_row + r);
            // SAFETY: `row` is injective on the points of every part, and
            // the parts cover disjoint points: this is the only writer of
            // the row's value range, which `rowptr` bounds within `values`.
            let dst = unsafe { values.row(rowptr[out_row]..rowptr[out_row + 1]) };
            let mut end = 0;
            let mut sum_before = 0.0f64;
            for (&sl, &keep) in self.em_slot[er.clone()].iter().zip(&self.em_keep[er]) {
                let w = -num[sl as usize] / atilde;
                sum_before += w;
                if keep {
                    dst[end] = w;
                    end += 1;
                }
            }
            let out = &mut dst[..end];
            let sum_after: f64 = out.iter().sum();
            if rescale && sum_after != 0.0 && sum_before != 0.0 {
                let scale = sum_before / sum_after;
                out.iter_mut().for_each(|o| *o *= scale);
            }
        }
    }
}

/// The value buffer the parts of one replay write, each its own rows.
struct RowsPtr(*mut f64, usize);
// SAFETY: replay hands each part rows no other part writes (see
// `TapePart::replay`), and nothing reads the buffer until they join.
unsafe impl Sync for RowsPtr {}

impl RowsPtr {
    /// The values at `range`.
    ///
    /// # Safety
    /// No other reference to any of them may be live meanwhile.
    #[allow(clippy::mut_from_ref)]
    unsafe fn row(&self, range: std::ops::Range<usize>) -> &mut [f64] {
        assert!(range.start <= range.end && range.end <= self.1);
        // SAFETY: in bounds (checked above) and unaliased per the contract.
        unsafe { std::slice::from_raw_parts_mut(self.0.add(range.start), range.len()) }
    }
}

impl Sink for TapePart {
    fn diag_term(&mut self, pos: usize) {
        self.at_idx.push(idx(pos));
    }

    fn direct_term(&mut self, pos: usize, slot: usize) {
        self.dn_idx.push(idx(pos));
        self.dn_slot.push(idx(slot + 1));
    }

    fn dist_term(&mut self, pos: usize, slot: usize) {
        self.dist_idx.push(idx(pos));
        self.dist_slot.push(idx(slot + 1));
    }

    fn end_neighbour(&mut self, aik: usize, abar: Option<usize>, lumped: bool) {
        // This op's terms ascend in row `k`, as `b_ik` sums: `ā_ki` goes
        // between those stored before and after it.
        let d0 = self.kops.last().map_or(0, |op| op.dist_end as usize);
        if let (Some(p), false) = (abar, lumped) {
            let at = d0 + self.dist_idx[d0..].partition_point(|&ix| (ix as usize) < p);
            self.dist_idx.insert(at, idx(p));
            self.dist_slot.insert(at, SPARE);
        }
        self.kops.push(KOp {
            aik: idx(aik),
            abar: abar.map_or(u32::MAX, idx),
            dist_end: idx(self.dist_idx.len()),
        });
    }

    fn emit(&mut self, slot: usize, col: usize) {
        self.em_slot.push(idx(slot + 1));
        self.row_cols.push(col);
    }

    fn end_row(&mut self, nslots: usize, kept: &[usize]) {
        // Survivors keep their order: one walk over both column lists.
        let mut kept = kept.iter().peekable();
        for col in self.row_cols.drain(..) {
            self.em_keep.push(kept.next_if_eq(&&col).is_some());
        }
        debug_assert!(kept.next().is_none(), "kept set left the emitted one");
        self.nslots.push(idx(nslots));
        self.at_ptr.push(idx(self.at_idx.len()));
        self.dn_ptr.push(idx(self.dn_idx.len()));
        self.k_ptr.push(idx(self.kops.len()));
        self.em_ptr.push(idx(self.em_slot.len()));
    }
}

/// Frozen numeric circuit of one `extended_i` invocation: one
/// `TapePart` per row block of the capturing run, in row order.
#[derive(Debug)]
pub struct ExtITape {
    /// `(nrows, nnz)` of the captured operand and `nnz` of the operator
    /// built from it, checked by [`ExtITape::replay`] and the refresh's
    /// guard before anything indexes.
    pub(crate) a_shape: (usize, usize),
    pub(crate) p_nnz: usize,
    /// Whether capture truncated, i.e. whether replay rescales row sums.
    rescale: bool,
    /// Largest `nslots`, sizing the replay scratch (beside [`SPARE`]).
    max_slots: usize,
    parts: Vec<TapePart>,
}

/// [`ExtITape::replay`] refused the named argument: not the captured shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeMismatch(pub &'static str);

impl ExtITape {
    /// Builds the extended+i operator — bitwise `extended_i(a, s, cf,
    /// trunc)`, it is the same kernel run — and records its numeric
    /// circuit, kept set included, on the way.
    pub fn capture(a: &Csr, s: &Csr, cf: &CfMap, trunc: Option<&TruncParams>) -> (Csr, ExtITape) {
        let (p, mut parts) = build(a, s, cf, 0..a.nrows(), trunc, TapePart::new);
        parts.iter_mut().for_each(TapePart::trim);
        let max_slots = parts
            .iter()
            .flat_map(|p| &p.nslots)
            .max()
            .map_or(0, |&m| m as usize);
        let tape = ExtITape {
            a_shape: (a.nrows(), a.nnz()),
            p_nnz: p.nnz(),
            rescale: trunc.is_some(),
            max_slots,
            parts,
        };
        (p, tape)
    }

    /// Re-executes the frozen circuit against `a`'s values over `p`, the
    /// operator capture returned: a copy of `p` with every kept fine weight
    /// rewritten (coarse identity rows keep their 1.0). Row and nonzero
    /// counts of both arguments are checked here.
    pub fn replay(&self, a: &Csr, p: &Csr) -> Result<Csr, TapeMismatch> {
        if (a.nrows(), a.nnz()) != self.a_shape {
            return Err(TapeMismatch("extended+i tape operand"));
        }
        if (p.nrows(), p.nnz()) != (self.a_shape.0, self.p_nnz) {
            return Err(TapeMismatch("extended+i tape pattern"));
        }
        let mut out = p.clone();
        self.replay_into(a, &mut out, |i| i);
        Ok(out)
    }

    /// Writes each kept fine weight of point `i`, recomputed from `a`'s
    /// values, in place into row `row(i)` of `out`: the operator capture
    /// built (`row` the identity) or its fine rows in point order (`P_F`,
    /// `row(i) = perm(i) − nc`), one part per task. Nothing else is
    /// touched; the caller has checked the shapes, as [`ExtITape::replay`]
    /// does, and `row` is injective on the fine points.
    pub(crate) fn replay_into(&self, a: &Csr, out: &mut Csr, row: impl Fn(usize) -> usize + Sync) {
        let (rowptr, _, values) = out.pattern_and_values_mut();
        let values = RowsPtr(values.as_mut_ptr(), values.len());
        self.parts.par_iter().for_each(|part| {
            let mut num = vec![0.0f64; self.max_slots + 1];
            part.replay(a.values(), rowptr, &values, &row, &mut num, self.rescale);
        });
    }

    /// Moves the circuit onto another layout of its operand: every
    /// position `k` it reads becomes `map[k]` (the level's
    /// `stored_positions`).
    pub(crate) fn remap(&mut self, map: &[u32]) {
        assert_eq!(map.len(), self.a_shape.1, "extended+i tape: position map");
        self.parts.par_iter_mut().for_each(|p| p.remap(map));
    }
}

#[cfg(test)]
mod tests {
    use super::super::extended_i;
    use super::*;
    use crate::coarsen::pmis;
    use crate::reorder::cf_reorder;
    use crate::strength::strength;
    use famg_matgen::{laplace3d_27pt, laplace3d_7pt, varcoef3d_7pt};
    use famg_sparse::permute::permute_symmetric;

    /// Projects an untruncated interpolation operator onto a frozen
    /// truncated pattern, replaying [`truncate_row`](super::super::truncate_row)'s
    /// row-sum-preserving rescale over the frozen kept set: the oracle a
    /// replay on drifted values is held to.
    ///
    /// When the new values would have led truncation to the same kept set,
    /// this is bitwise identical to truncating from scratch (`sum_before`
    /// accumulates the raw row in emit order, `sum_after` the kept entries
    /// in frozen order — the exact same additions `truncate_row` performs).
    /// When the kept set *would* have drifted, the frozen sparsity wins: the
    /// result is still a consistent row-sum-preserving operator, just not
    /// the one a from-scratch truncation would pick.
    fn project_onto_frozen(raw: &Csr, frozen: &Csr) -> Csr {
        let n = frozen.nrows();
        debug_assert_eq!(raw.nrows(), n);
        debug_assert_eq!(raw.ncols(), frozen.ncols());
        let mut values = vec![0.0f64; frozen.nnz()];
        // Row-stamped markers: position of each column in the raw row.
        let mut stamp = vec![usize::MAX; frozen.ncols()];
        let mut pos = vec![0usize; frozen.ncols()];
        for i in 0..n {
            for (k, c) in raw.col_iter(i).enumerate() {
                stamp[c] = i;
                pos[c] = k;
            }
            let rvals = raw.row_vals(i);
            let sum_before: f64 = rvals.iter().sum();
            let out = &mut values[frozen.row_range(i)];
            let mut sum_after = 0.0f64;
            for (o, c) in out.iter_mut().zip(frozen.col_iter(i)) {
                // A frozen entry the new weights no longer produce stays as
                // an explicit zero (pattern is frozen by contract).
                *o = if stamp[c] == i { rvals[pos[c]] } else { 0.0 };
                sum_after += *o;
            }
            if sum_after != 0.0 && sum_before != 0.0 {
                let scale = sum_before / sum_after;
                for o in out.iter_mut() {
                    *o *= scale;
                }
            }
        }
        Csr::from_parts_unchecked(
            n,
            frozen.ncols(),
            frozen.rowptr().to_vec(),
            frozen.colidx().to_vec(),
            values,
        )
    }

    fn setup(a: &Csr, seed: u64) -> (Csr, CfMap) {
        let s = strength(a, 0.25, 0.8);
        let c = pmis(&s, seed);
        (s, CfMap::new(c.is_coarse))
    }

    /// `varcoef3d_7pt` on a fixed grid; `drift(i)` scales cell `i`'s
    /// coefficient.
    fn varcoef(drift: impl Fn(usize) -> f64) -> Csr {
        let (nx, ny, nz) = (9, 9, 6);
        let field: Vec<f64> = (0..nx * ny * nz)
            .map(|i| (1.0 + 0.5 * ((i % 17) as f64 / 17.0)) * drift(i))
            .collect();
        varcoef3d_7pt(nx, ny, nz, &field)
    }

    /// Small multiplicative drift that keeps every frozen sign/zero
    /// decision and every kept set.
    fn smooth_drift(i: usize) -> f64 {
        1.0 + 1e-5 * ((i % 13) as f64 - 6.0)
    }

    #[test]
    fn capture_builds_the_builders_operator() {
        let a27 = laplace3d_27pt(7, 6, 5);
        let (s27, cf27) = setup(&a27, 1);
        let (a27, ord) = cf_reorder(&a27, &cf27.is_coarse);
        let s27 = permute_symmetric(&s27, &ord.perm);
        let cf27 = CfMap::new((0..a27.nrows()).map(|i| i < ord.nc).collect());
        let a7 = laplace3d_7pt(9, 8, 7);
        let (s7, cf7) = setup(&a7, 3);
        let av = varcoef(|_| 1.0);
        let (sv, cfv) = setup(&av, 7);
        let t = TruncParams::paper();
        for (a, s, cf) in [(&a7, &s7, &cf7), (&av, &sv, &cfv), (&a27, &s27, &cf27)] {
            for trunc in [None, Some(&t)] {
                let (p, tape) = ExtITape::capture(a, s, cf, trunc);
                assert_eq!(p, extended_i(a, s, cf, trunc));
                // Same values: replay is the identity.
                assert_eq!(tape.replay(a, &p).unwrap(), p);
            }
        }
    }

    #[test]
    fn replay_tracks_value_drift_bitwise() {
        let a1 = varcoef(|_| 1.0);
        let (s, cf) = setup(&a1, 7);
        let a2 = varcoef(smooth_drift);
        assert!(a1.same_pattern(&a2));
        let t = TruncParams::paper();
        for trunc in [None, Some(&t)] {
            let (p, tape) = ExtITape::capture(&a1, &s, &cf, trunc);
            assert_eq!(
                tape.replay(&a2, &p).unwrap(),
                extended_i(&a2, &s, &cf, trunc)
            );
        }
    }

    /// Captures on `a1`, replays on `a2` and checks the frozen-sparsity
    /// contract: the result is the raw operator of `a2` projected onto the
    /// captured kept set, row sums preserved. Returns the operator captured
    /// and the replayed one.
    fn replay_is_projection(
        a1: &Csr,
        a2: &Csr,
        s: &Csr,
        cf: &CfMap,
        t: &TruncParams,
    ) -> (Csr, Csr) {
        let (p, tape) = ExtITape::capture(a1, s, cf, Some(t));
        let raw2 = extended_i(a2, s, cf, None);
        let got = tape.replay(a2, &p).unwrap();
        assert_eq!(got, project_onto_frozen(&raw2, &p));
        for i in 0..got.nrows() {
            let (w, w_raw): (f64, f64) =
                (got.row_vals(i).iter().sum(), raw2.row_vals(i).iter().sum());
            assert!(got.row_nnz(i) == 0 || (w - w_raw).abs() < 1e-12, "row {i}");
        }
        (p, got)
    }

    #[test]
    fn frozen_kept_set_wins_when_truncation_would_move_it() {
        // A rough drift: every sign, lump and emit decision of the kernel
        // holds on an M-matrix, but the largest weights change places.
        let a1 = varcoef(|_| 1.0);
        let (s, cf) = setup(&a1, 7);
        let a2 = varcoef(|i| 1.0 + 0.4 * ((i * 7 % 11) as f64 / 11.0));
        let t = TruncParams {
            factor: 0.5,
            max_elements: 3,
        };
        let (p, got) = replay_is_projection(&a1, &a2, &s, &cf, &t);
        assert!(!extended_i(&a2, &s, &cf, Some(&t)).same_pattern(&p));
        let raw1 = extended_i(&a1, &s, &cf, None);
        assert!(raw1.same_pattern(&extended_i(&a2, &s, &cf, None)));
        let fine = |i: &usize| !cf.is_coarse[*i];
        let rows = || (0..p.nrows()).filter(fine);
        assert!(rows().any(|i| p.row_nnz(i) == 1 && raw1.row_nnz(i) > 1));
        assert!(rows().any(|i| p.row_nnz(i) > 1 && p.row_nnz(i) == raw1.row_nnz(i)));
        assert!(rows().any(|i| p.row_nnz(i) > 1 && p.row_nnz(i) < raw1.row_nnz(i)));
        for i in (0..p.nrows()).filter(|&i| cf.is_coarse[i]) {
            assert_eq!(got.row_vals(i), &[1.0]);
        }
    }

    #[test]
    fn frozen_dead_row_stays_empty() {
        // Point 0 is fine with Ĉ = {1} and ã = a_00 + a_02 = 0 (point 2 is
        // a weak neighbour): no weight is emitted at capture, and none by a
        // replay on values that would emit one.
        let entries = |d: f64| {
            let e = vec![
                (0, 0, 1.0),
                (0, 1, -2.0),
                (0, 2, -d),
                (1, 1, 2.0),
                (1, 0, -2.0),
            ];
            Csr::from_triplets(3, 3, [e, vec![(2, 2, 1.0), (2, 0, -1.0)]].concat())
        };
        let s = Csr::from_triplets(3, 3, vec![(0, 1, 1.0)]);
        let cf = CfMap::new(vec![false, true, false]);
        let (p, got) =
            replay_is_projection(&entries(1.0), &entries(0.5), &s, &cf, &TruncParams::paper());
        assert_eq!(p.nnz(), 1);
        assert_eq!(got, p);
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    fn the_absent_sentinel_is_not_an_index() {
        idx(u32::MAX as usize);
    }
}
