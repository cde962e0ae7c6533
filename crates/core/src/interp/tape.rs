//! Numeric replay tape for extended+i interpolation.
//!
//! [`extended_i`](super::extended_i) spends most of its time *discovering*
//! structure: marking `S_i`, assembling `Ĉ_i`, scanning neighbour rows for
//! sign-filtered entries. Once the operator pattern is frozen, every one
//! of those decisions is fixed, and the weight computation collapses to a
//! straight-line arithmetic circuit over `A`'s value array. [`ExtITape`]
//! records that circuit at freeze time — for each accumulation the builder
//! performs, the nnz index it reads — and [`ExtITape::replay`] re-executes
//! it against new values with no hashing, no marker stamping, and no
//! per-row allocation.
//!
//! Capture is the builder's own row kernel run with a recording sink
//! (one [`TapePart`] per parallel row block), so replay performs the *same
//! additions in the same order* as the builder by construction, and
//! on inputs that induce the same frozen decisions the result is
//! bitwise identical to `extended_i(a, s, cf, None)`. The decisions frozen
//! into the tape (beyond the sparsity pattern itself) are:
//!
//! * the sign filter `ā_kl = a_kl` iff `sign(a_kl) ≠ sign(a_kk)`,
//! * the zero-denominator lump `b_ik == 0`,
//! * the empty-diagonal guard `ã_ii == 0`,
//! * the nonzero-weight emit check `w ≠ 0`.
//!
//! Values that flip any of them produce a consistent-but-different
//! operator (the frozen-symbolic trade documented in
//! [`crate::refresh`]); the `validate` feature's cross-check reports it.

use super::common::CfMap;
use super::extended_i::{build, Sink};
use famg_sparse::Csr;

/// One distribution term: `k` is a strong fine neighbour of the row.
///
/// An empty `b_ik` index range encodes the frozen lump decision
/// (`b_ik == 0` at capture): replay adds `a[aik]` straight into the
/// diagonal. Otherwise replay computes `coef = a[aik] / Σ a[bik…]`, adds
/// `coef · a[abar]` to the diagonal, and distributes `coef · a[l]` to the
/// recorded numerator slots.
#[derive(Debug, Clone, Copy)]
struct KOp {
    /// nnz index of `a_ik` in the row of `i`.
    aik: u32,
    /// nnz index of `ā_ki` in row `k` (`u32::MAX` when absent → 0.0).
    abar: u32,
    /// Exclusive end of this op's `b_ik` term indices in `bik_idx`
    /// (start = previous op's end; ops are laid out in replay order).
    bik_end: u32,
    /// Exclusive end of this op's distribution terms in `dist_*`.
    dist_end: u32,
}

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
    bik_idx: Vec<u32>,
    /// Distribution term nnz indices (row-`k` scan order, `l ≠ i`).
    dist_idx: Vec<u32>,
    /// Numerator slot each distribution term adds into.
    dist_slot: Vec<u32>,
    /// Per-row range into `em_slot`.
    em_ptr: Vec<u32>,
    /// Slots emitted as weights, in raw-row entry order.
    em_slot: Vec<u32>,
}

fn idx(x: usize) -> u32 {
    u32::try_from(x).expect("extended+i tape: index stream exceeds u32")
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
            bik_idx: Vec::new(),
            dist_idx: Vec::new(),
            dist_slot: Vec::new(),
            em_ptr: vec![0],
            em_slot: Vec::new(),
        }
    }

    /// Recomputes this block's fine-row weights from `av` into `values`
    /// (laid out like `raw`'s); `num` is scratch of `max_slots` entries.
    fn replay(&self, av: &[f64], raw: &Csr, values: &mut [f64], num: &mut [f64]) {
        // Running cursors into the KOp sub-streams.
        let mut cb = 0usize;
        let mut cd = 0usize;
        for r in 0..self.nslots.len() {
            let kr = self.k_ptr[r] as usize..self.k_ptr[r + 1] as usize;
            let er = self.em_ptr[r] as usize..self.em_ptr[r + 1] as usize;
            if er.is_empty() {
                // Coarse identity row, empty row, or frozen-dead row:
                // values come from the template; skip the cursors past
                // any recorded (unemitted) work.
                if let Some(last) = self.kops[kr.clone()].last() {
                    cb = last.bik_end as usize;
                    cd = last.dist_end as usize;
                }
                continue;
            }
            for s in &mut num[..self.nslots[r] as usize] {
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
                let b0 = cb;
                cb = op.bik_end as usize;
                let d0 = cd;
                cd = op.dist_end as usize;
                if b0 == cb {
                    // Frozen lump.
                    atilde += av[op.aik as usize];
                    continue;
                }
                let mut bik = 0.0f64;
                for &ix in &self.bik_idx[b0..cb] {
                    bik += av[ix as usize];
                }
                let coef = av[op.aik as usize] / bik;
                let abar = if op.abar == u32::MAX {
                    0.0
                } else {
                    av[op.abar as usize]
                };
                atilde += coef * abar;
                for (&ix, &sl) in self.dist_idx[d0..cd].iter().zip(&self.dist_slot[d0..cd]) {
                    num[sl as usize] += coef * av[ix as usize];
                }
            }
            let row0 = raw.row_range(self.first_row + r).start;
            for (off, &sl) in self.em_slot[er].iter().enumerate() {
                values[row0 + off] = -num[sl as usize] / atilde;
            }
        }
    }
}

impl Sink for TapePart {
    fn diag_term(&mut self, pos: usize) {
        self.at_idx.push(idx(pos));
    }

    fn direct_term(&mut self, pos: usize, slot: usize) {
        self.dn_idx.push(idx(pos));
        self.dn_slot.push(idx(slot));
    }

    fn bik_term(&mut self, pos: usize) {
        self.bik_idx.push(idx(pos));
    }

    fn dist_term(&mut self, pos: usize, slot: usize) {
        self.dist_idx.push(idx(pos));
        self.dist_slot.push(idx(slot));
    }

    fn end_neighbour(&mut self, aik: usize, abar: Option<usize>, lumped: bool) {
        if lumped {
            // Frozen lump decision: empty b_ik range.
            let op_start = self.kops.last().map_or(0, |op| op.bik_end as usize);
            self.bik_idx.truncate(op_start);
        }
        self.kops.push(KOp {
            aik: idx(aik),
            abar: abar.map_or(u32::MAX, idx),
            bik_end: idx(self.bik_idx.len()),
            dist_end: idx(self.dist_idx.len()),
        });
    }

    fn emit(&mut self, slot: usize) {
        self.em_slot.push(idx(slot));
    }

    fn end_row(&mut self, nslots: usize) {
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
    /// Frozen untruncated operator: pattern plus capture-time values.
    /// Replay clones the values (coarse identity rows keep their 1.0)
    /// and overwrites every fine-row entry.
    raw: Csr,
    /// Largest `nslots`, sizing the replay scratch.
    max_slots: usize,
    parts: Vec<TapePart>,
}

impl ExtITape {
    /// Runs the extended+i construction once, recording the numeric
    /// circuit. The by-product `raw` operator is bitwise identical to
    /// `extended_i(a, s, cf, None)`: both are the same kernel, here with
    /// a recording sink.
    pub fn capture(a: &Csr, s: &Csr, cf: &CfMap) -> ExtITape {
        let (raw, parts) = build(a, s, cf, None, TapePart::new);
        let max_slots = parts
            .iter()
            .flat_map(|p| &p.nslots)
            .max()
            .map_or(0, |&m| m as usize);
        ExtITape {
            raw,
            max_slots,
            parts,
        }
    }

    /// Re-executes the frozen circuit against `a`'s values. `a` must have
    /// the sparsity pattern the tape was captured from (same nnz layout —
    /// the refresh path's finest-level guard establishes this).
    pub fn replay(&self, a: &Csr) -> Csr {
        let n = self.raw.nrows();
        debug_assert_eq!(a.nrows(), n);
        let mut values = self.raw.values().to_vec();
        let mut num = vec![0.0f64; self.max_slots];
        for part in &self.parts {
            part.replay(a.values(), &self.raw, &mut values, &mut num);
        }
        Csr::from_parts_unchecked(
            n,
            self.raw.ncols(),
            self.raw.rowptr().to_vec(),
            self.raw.colidx().to_vec(),
            values,
        )
    }

    /// The frozen untruncated operator captured alongside the tape.
    pub fn raw(&self) -> &Csr {
        &self.raw
    }
}

#[cfg(test)]
mod tests {
    use super::super::extended_i;
    use super::*;
    use crate::coarsen::pmis;
    use crate::strength::strength;
    use famg_matgen::{laplace3d_7pt, varcoef3d_7pt};

    fn setup(a: &Csr, seed: u64) -> (Csr, CfMap) {
        let s = strength(a, 0.25, 0.8);
        let c = pmis(&s, seed);
        (s, CfMap::new(c.is_coarse))
    }

    #[test]
    fn capture_byproduct_matches_builder() {
        let a = laplace3d_7pt(9, 8, 7);
        let (s, cf) = setup(&a, 3);
        let tape = ExtITape::capture(&a, &s, &cf);
        assert_eq!(tape.raw(), &extended_i(&a, &s, &cf, None));
    }

    #[test]
    fn replay_on_same_values_is_bitwise_identity() {
        let a = laplace3d_7pt(8, 8, 8);
        let (s, cf) = setup(&a, 5);
        let tape = ExtITape::capture(&a, &s, &cf);
        assert_eq!(tape.replay(&a), extended_i(&a, &s, &cf, None));
    }

    #[test]
    fn replay_tracks_value_drift_bitwise() {
        let (nx, ny, nz) = (9, 9, 6);
        let field: Vec<f64> = (0..nx * ny * nz)
            .map(|i| 1.0 + 0.5 * ((i % 17) as f64 / 17.0))
            .collect();
        let a1 = varcoef3d_7pt(nx, ny, nz, &field);
        let (s, cf) = setup(&a1, 7);
        let tape = ExtITape::capture(&a1, &s, &cf);
        // Small multiplicative drift keeps every frozen sign/zero
        // decision; the replay must equal a fresh build bitwise.
        let drift: Vec<f64> = field
            .iter()
            .enumerate()
            .map(|(i, &k)| k * (1.0 + 1e-5 * ((i % 13) as f64 - 6.0)))
            .collect();
        let a2 = varcoef3d_7pt(nx, ny, nz, &drift);
        assert!(a1.same_pattern(&a2));
        assert_eq!(tape.replay(&a2), extended_i(&a2, &s, &cf, None));
    }
}
