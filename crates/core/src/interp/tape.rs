//! Numeric replay tape for extended+i interpolation.
//!
//! [`extended_i`](super::extended_i) spends most of its time *discovering*
//! structure: marking `S_i`, assembling `Ĉ_i`, scanning neighbour rows for
//! sign-filtered entries. Once the operator pattern is frozen, every one
//! of those decisions is fixed, and the weight computation collapses to a
//! straight-line arithmetic circuit over `A`'s value array. [`ExtITape`]
//! records that circuit at freeze time — for each accumulation the builder
//! performs, the entry it reads — and replay re-executes it against new
//! values, writing the kept weights in place into the level's `P_F`, with no
//! hashing, no marker stamping, and no per-row allocation.
//!
//! Capture *is* the build: the builder's own row kernel run once with a
//! recording sink (one [`TapePart`] per parallel row block), returning the
//! operator it built — truncated or not — beside the tape. Replay
//! therefore performs the *same additions in the same order* as the
//! builder, truncation's rescale included, and on inputs that induce the
//! same frozen decisions the result is bitwise identical to
//! `extended_i(a, s, cf, trunc)`.
//!
//! Each read is a 16-bit offset in its own row — row `i`, or row `k` for
//! `b_ik`'s terms and `ā_ki` — found through the caller's row map and
//! `a_ik`'s column, so one tape replays on the raw operand capture read
//! and on the CF-permuted one a refresh holds, whose rows keep the raw
//! in-row order. A level whose rows or `Ĉ_i` need more than 16 bits
//! records no tape and re-runs its builder. The decisions frozen into the
//! tape (beyond the sparsity pattern itself) are:
//!
//! * the sign filter `ā_kl = a_kl` iff `sign(a_kl) ≠ sign(a_kk)`,
//! * the zero-denominator lump `b_ik == 0`,
//! * the empty-diagonal guard `ã_ii == 0`,
//! * the nonzero-weight emit check `w ≠ 0`,
//! * truncation's kept set, a subset of the emitted weights.
//!
//! Values that flip any of them produce a consistent-but-different
//! operator (the frozen-symbolic trade documented in
//! [`crate::refresh`]).

use super::common::{CfMap, TruncParams};
use super::extended_i::{build, Sink};
use famg_sparse::Csr;
use rayon::prelude::*;

/// One strong fine neighbour `k` of the row.
///
/// Its `dist` terms are `b_ik`'s, in row-`k` order: each `ā_kl`,
/// `l ∈ Ĉ_i`, and `ā_ki` where it falls, in the [`SPARE`] slot. No terms
/// encode the frozen lump decision (`b_ik == 0` at capture): replay adds
/// `a_ik` straight into the diagonal. Otherwise replay sums `b_ik`,
/// computes `coef = a_ik / b_ik`, adds `coef · ā_ki` to the diagonal and
/// `coef · a_kl` to each term's slot.
#[derive(Debug, Clone, Copy)]
struct KOp {
    /// Offset of `a_ik` in row `i`.
    aik: u16,
    /// Offset of `ā_ki` in row `k` ([`ABSENT`] → 0.0).
    abar: u16,
    /// Number of this op's terms in `dist`, which follow the previous
    /// op's (ops are laid out in replay order).
    dist_len: u16,
}

/// The numerator slot `ā_ki`'s distribution term adds into and nothing
/// reads: numerator `s` of a row is stored as slot `s + 1`.
const SPARE: u16 = 0;

/// [`KOp::abar`] when row `k` holds no opposite-sign `a_ki`: the one value
/// no stream entry takes (see [`narrow`]).
const ABSENT: u16 = u16::MAX;

/// How many entries one row has in each per-row stream, and its numerator
/// count `|Ĉ_i|`.
#[derive(Debug, Clone, Copy)]
struct RowLens {
    nslots: u16,
    at: u16,
    dn: u16,
    kops: u16,
    em: u16,
}

/// The circuit of one contiguous block of rows, recorded by the row
/// kernel through [`Sink`].
///
/// All streams are flat, in capture (= replay) order; replay walks them
/// with running cursors, each row advancing them by its [`RowLens`] and
/// each op the distribution cursor by its `dist_len`.
#[derive(Debug, Default)]
struct TapePart {
    /// First row of the block, the point of `rows[0]`.
    first_row: usize,
    rows: Vec<RowLens>,
    /// Offsets in row `i` summed directly into `ã_ii` (diagonal + weak
    /// lumps).
    at_off: Vec<u16>,
    /// Offset in row `i` of each direct `a_ij`, `j ∈ Ĉ_i`, and the
    /// numerator slot it adds into.
    dn: Vec<[u16; 2]>,
    kops: Vec<KOp>,
    /// `b_ik` terms: offset in row `k` (row-`k` order, `l = i` included)
    /// and the numerator slot each adds into ([`SPARE`] for `ā_ki`).
    dist: Vec<[u16; 2]>,
    /// Slots emitted as weights, in emit order.
    em_slot: Vec<u16>,
    /// Bit `e` is set when emitted weight `e` survived truncation.
    em_keep: Vec<u64>,
    /// Stream lengths (`at`, `dn`, `kops`, `em`) when the open row began,
    /// and `dist` when its open op did.
    row_start: [usize; 4],
    op_start: usize,
    /// Columns of the open row's emitted weights (scratch for `end_row`).
    row_cols: Vec<usize>,
    /// Set once an entry needed more than 16 bits: the part is dropped.
    overflow: bool,
}

/// Narrows an in-row offset, a per-row count or a numerator slot to its
/// stream entry; `None` from [`ABSENT`] up.
fn narrow(x: usize) -> Option<u16> {
    u16::try_from(x).ok().filter(|&v| v != ABSENT)
}

impl TapePart {
    /// `x` as a stream entry; one that does not fit marks the part.
    fn entry(&mut self, x: usize) -> u16 {
        narrow(x).unwrap_or_else(|| {
            self.overflow = true;
            0
        })
    }

    /// Gives back what the streams' doubling growth reserved beyond their
    /// lengths (about a third of a tape): a frozen setup keeps its tapes.
    fn trim(&mut self) {
        self.rows.shrink_to_fit();
        self.at_off.shrink_to_fit();
        self.dn.shrink_to_fit();
        self.kops.shrink_to_fit();
        self.dist.shrink_to_fit();
        self.em_slot.shrink_to_fit();
        self.em_keep.shrink_to_fit();
        self.row_cols = Vec::new();
    }

    /// Recomputes this block's fine-row weights from `a`'s values, row `i`
    /// of the circuit being row `row(i)` of `a`, and writes the kept ones
    /// into `out`; `num` is scratch of `max_slots + 1` entries. `rescale`
    /// repeats `truncate_row`'s: `sum_before` adds every emitted weight in
    /// emit order, `sum_after` the kept ones in theirs.
    fn replay(
        &self,
        a: &Csr,
        row: &impl Fn(usize) -> usize,
        out: &OutRows<'_>,
        num: &mut [f64],
        rescale: bool,
    ) {
        let (rowptr, colidx, av) = (a.rowptr(), a.colidx(), a.values());
        // Running cursors into the streams.
        let (mut ca, mut cn, mut ck, mut cd, mut ce) = (0, 0, 0, 0, 0);
        for (r, lens) in self.rows.iter().enumerate() {
            let at = ca..ca + usize::from(lens.at);
            let dn = cn..cn + usize::from(lens.dn);
            let kops = &self.kops[ck..ck + usize::from(lens.kops)];
            let em = ce..ce + usize::from(lens.em);
            (ca, cn, ck, ce) = (at.end, dn.end, ck + kops.len(), em.end);
            if em.is_empty() {
                // Coarse identity row, empty row, or frozen-dead row:
                // nothing to write; skip the cursor past any recorded
                // (unemitted) work.
                let skipped: usize = kops.iter().map(|op| usize::from(op.dist_len)).sum();
                cd += skipped;
                continue;
            }
            let a_row = row(self.first_row + r);
            let row_i = rowptr[a_row]..rowptr[a_row + 1];
            let vals_i = &av[row_i.clone()];
            let a_i = |o: u16| vals_i[usize::from(o)];
            for s in &mut num[..=usize::from(lens.nslots)] {
                *s = 0.0;
            }
            let mut atilde = 0.0f64;
            for &o in &self.at_off[at] {
                atilde += a_i(o);
            }
            for &[o, sl] in &self.dn[dn] {
                num[usize::from(sl)] += a_i(o);
            }
            for op in kops {
                let dr = cd..cd + usize::from(op.dist_len);
                cd = dr.end;
                if dr.is_empty() {
                    // Frozen lump.
                    atilde += a_i(op.aik);
                    continue;
                }
                // Row `k` of `a` is the one `a_ik`'s column names.
                let k = usize::from(colidx[row_i.start + usize::from(op.aik)]);
                let vals_k = &av[rowptr[k]..rowptr[k + 1]];
                let a_k = |o: u16| vals_k[usize::from(o)];
                let terms = &self.dist[dr];
                let bik = terms.iter().fold(0.0f64, |b, &[o, _]| b + a_k(o));
                let coef = a_i(op.aik) / bik;
                atilde += coef * if op.abar == ABSENT { 0.0 } else { a_k(op.abar) };
                for &[o, sl] in terms {
                    num[usize::from(sl)] += coef * a_k(o);
                }
            }
            // SAFETY: `row` is injective on the points of every part, and
            // the parts cover disjoint points: this is the only writer of
            // the row.
            let dst = unsafe { out.row(a_row) };
            let mut end = 0;
            let mut sum_before = 0.0f64;
            for (e, &sl) in em.clone().zip(&self.em_slot[em]) {
                let w = -num[usize::from(sl)] / atilde;
                sum_before += w;
                if self.em_keep[e / 64] >> (e % 64) & 1 != 0 {
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

/// The operator the parts of one replay write, each its own rows: the last
/// `rowptr.len() − 1` rows of the layout `a` has, from row `first` on.
struct OutRows<'a> {
    rowptr: &'a [usize],
    first: usize,
    values: *mut f64,
    len: usize,
}
// SAFETY: replay hands each part rows no other part writes (see
// `TapePart::replay`), and nothing reads the values until they join.
unsafe impl Sync for OutRows<'_> {}

impl OutRows<'_> {
    /// The values of layout row `r`.
    ///
    /// # Safety
    /// No other reference to any of them may be live meanwhile.
    #[allow(clippy::mut_from_ref)]
    unsafe fn row(&self, r: usize) -> &mut [f64] {
        let range = self.rowptr[r - self.first]..self.rowptr[r - self.first + 1];
        assert!(range.start <= range.end && range.end <= self.len);
        // SAFETY: in bounds (checked above) and unaliased per the contract.
        unsafe { std::slice::from_raw_parts_mut(self.values.add(range.start), range.len()) }
    }
}

impl Sink for TapePart {
    fn diag_term(&mut self, off: usize) {
        let o = self.entry(off);
        self.at_off.push(o);
    }

    fn direct_term(&mut self, off: usize, slot: usize) {
        let term = [self.entry(off), self.entry(slot + 1)];
        self.dn.push(term);
    }

    fn dist_term(&mut self, off: usize, slot: usize) {
        let term = [self.entry(off), self.entry(slot + 1)];
        self.dist.push(term);
    }

    fn end_neighbour(&mut self, aik: usize, abar: Option<usize>, lumped: bool) {
        // This op's terms ascend in row `k`, as `b_ik` sums: `ā_ki` goes
        // between those stored before and after it.
        let d0 = self.op_start;
        let abar = abar.map_or(ABSENT, |o| self.entry(o));
        if !lumped && abar != ABSENT {
            let at = d0 + self.dist[d0..].partition_point(|&[o, _]| o < abar);
            self.dist.insert(at, [abar, SPARE]);
        }
        self.op_start = self.dist.len();
        let op = KOp {
            aik: self.entry(aik),
            abar,
            dist_len: self.entry(self.op_start - d0),
        };
        self.kops.push(op);
    }

    fn emit(&mut self, slot: usize, col: usize) {
        let sl = self.entry(slot + 1);
        self.em_slot.push(sl);
        self.row_cols.push(col);
    }

    fn end_row(&mut self, nslots: usize, kept: &[usize]) {
        // Survivors keep their order: one walk over both column lists.
        let first = self.em_slot.len() - self.row_cols.len();
        self.em_keep.resize(self.em_slot.len().div_ceil(64), 0);
        let mut kept = kept.iter().peekable();
        for (e, col) in (first..).zip(self.row_cols.drain(..)) {
            if kept.next_if_eq(&&col).is_some() {
                self.em_keep[e / 64] |= 1 << (e % 64);
            }
        }
        debug_assert!(kept.next().is_none(), "kept set left the emitted one");
        let ends = [
            self.at_off.len(),
            self.dn.len(),
            self.kops.len(),
            self.em_slot.len(),
        ];
        let [at, dn, kops, em] = std::array::from_fn(|s| self.entry(ends[s] - self.row_start[s]));
        let nslots = self.entry(nslots);
        self.rows.push(RowLens {
            nslots,
            at,
            dn,
            kops,
            em,
        });
        self.row_start = ends;
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
    /// circuit, kept set included, on the way. The tape is `None` when an
    /// offset, a per-row count or a slot reaches 65 535 ([`ABSENT`]): a
    /// row it reads of 65 536 entries or more (of 65 535 when every entry
    /// lands in one stream), or a `Ĉ_i` of 65 535 points or more.
    pub fn capture(
        a: &Csr,
        s: &Csr,
        cf: &CfMap,
        trunc: Option<&TruncParams>,
    ) -> (Csr, Option<ExtITape>) {
        let new = |first_row| TapePart {
            first_row,
            ..TapePart::default()
        };
        let (p, mut parts) = build(a, s, cf, 0..a.nrows(), trunc, new);
        if parts.iter().any(|part| part.overflow) {
            return (p, None);
        }
        parts.iter_mut().for_each(TapePart::trim);
        let max_slots = parts
            .iter()
            .flat_map(|p| &p.rows)
            .map(|r| usize::from(r.nslots))
            .max()
            .unwrap_or(0);
        let tape = ExtITape {
            a_shape: (a.nrows(), a.nnz()),
            p_nnz: p.nnz(),
            rescale: trunc.is_some(),
            max_slots,
            parts,
        };
        (p, Some(tape))
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
        self.replay_into(a, |i| i, &mut out);
        Ok(out)
    }

    /// Writes each kept fine weight of point `i`, recomputed from the
    /// values of `a`, whose row `row(i)` is point `i`'s, in place into
    /// `out`, which holds the last rows of that layout: the operator
    /// capture built (`row` the identity) or the fine rows of a CF-permuted
    /// operand (`P_F`), one part per task. Each row of `a` must keep the
    /// captured operand's in-row order. Nothing else is touched; the
    /// caller has checked the shapes, as [`ExtITape::replay`] does, and
    /// `row` is injective on the fine points.
    pub(crate) fn replay_into(&self, a: &Csr, row: impl Fn(usize) -> usize + Sync, out: &mut Csr) {
        let first = a.nrows() - out.nrows();
        let (rowptr, _, values) = out.pattern_and_values_mut();
        let (len, values) = (values.len(), values.as_mut_ptr());
        let out = OutRows {
            rowptr,
            first,
            values,
            len,
        };
        self.parts.par_iter().for_each(|part| {
            let mut num = vec![0.0f64; self.max_slots + 1];
            part.replay(a, &row, &out, &mut num, self.rescale);
        });
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

    /// A capture whose rows fit the tape.
    fn capture(a: &Csr, s: &Csr, cf: &CfMap, trunc: Option<&TruncParams>) -> (Csr, ExtITape) {
        let (p, tape) = ExtITape::capture(a, s, cf, trunc);
        (p, tape.expect("rows within 16 bits"))
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
                let (p, tape) = capture(a, s, cf, trunc);
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
            let (p, tape) = capture(&a1, &s, &cf, trunc);
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
        let (p, tape) = capture(a1, s, cf, Some(t));
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
    fn the_absent_sentinel_is_not_an_entry() {
        assert_eq!(narrow(ABSENT as usize - 1), Some(ABSENT - 1));
        assert_eq!(narrow(ABSENT as usize), None);
        assert_eq!(narrow(1 << 20), None);
    }
}
