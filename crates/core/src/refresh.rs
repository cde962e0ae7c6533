//! Numeric-refresh setup: rebuilds a hierarchy's values over frozen
//! pattern-derived structure (§3.1.1 taken end-to-end).
//!
//! A full AMG setup makes two kinds of decisions:
//!
//! * **pattern-derived** — strength-graph topology, CF splitting,
//!   interpolation sparsity, the symbolic structure of the Galerkin
//!   products, CF permutations, and smoother task geometry. These depend
//!   only on the operator's sparsity pattern (plus thresholds applied to
//!   its values at freeze time);
//! * **value-derived** — interpolation weights, coarse-operator values,
//!   smoother diagonals, and the coarsest-level factorization.
//!
//! Time-dependent and Newton-type workloads re-solve with the *same
//! pattern* and new values hundreds of times. [`Hierarchy::build_frozen`]
//! captures the pattern-derived half into a [`FrozenSetup`];
//! [`Hierarchy::refresh`] then absorbs a same-pattern operator by
//! re-running only numeric passes, each over the operator the hierarchy
//! stores — CF-permuted, rows partitioned for the smoother — which is
//! the level's only copy. The partition is the smoother's and depends on
//! the pattern alone; the build's RAP read each row in the order it had
//! before it, so capture records that order (two bits an entry) and a
//! refresh holds an operator in it from the moment it is written until
//! its own RAP has read it. Per level:
//!
//! 1. the operator arrives in that order: level 0's written from the
//!    caller's through the level's permutation, a coarser one by the RAP
//!    of the level above;
//! 2. an extended+i level replays the circuit its build recorded on the
//!    raw operator, whose in-row order this one keeps, straight into the
//!    level's `P_F` (a composed scheme, or a level too wide for a tape,
//!    re-runs its builder instead);
//! 3. `P_Fᵀ` (or the cached `R`) is refilled in its own buffers;
//! 4. the numeric-only RAP writes each coarse row into the next level's
//!    stored row, matched by column, after putting that operator's
//!    pattern back in its pre-partition order;
//! 5. the operator is partitioned again and the smoother refills its
//!    diagonal: its partition and task ranges are the pattern's.
//!
//! At the coarsest level the smoother's diagonal and the dense LU are
//! redone from the stored operator. Strength, PMIS, the permutations, the
//! symbolic products and the smoother's decisions are never recomputed.
//!
//! ## Refresh contract
//!
//! * Refresh with the operator the hierarchy was frozen from — or any
//!   same-pattern operator whose values induce the same frozen decisions —
//!   yields a hierarchy bitwise identical to a from-scratch
//!   [`Hierarchy::build`] on that operator.
//! * A mismatched input pattern, a [`FrozenSetup`] of another hierarchy,
//!   or values that drive a re-run builder off the frozen sparsity return
//!   [`RefreshError::PatternMismatch`] and leave every level bitwise as it
//!   was: the checks run before any write, and the levels that can still
//!   be refused are refreshed on copies and swapped in once the last has
//!   passed — the *commit point*, level 0 with the paper's configuration.
//!   The levels below it are rewritten over their own buffers.
//! * A *panic* past it (a zero diagonal, `FrozenRow::add`'s range test)
//!   leaves a level being rewritten with an empty operator — operators are
//!   moved out of their level while they are written — which
//!   [`Hierarchy::check_shape`], `try_` solves and the next refresh refuse.
//! * Under the `validate` feature each refresh cross-checks itself
//!   against a from-scratch build and panics if any level drifts beyond
//!   1e-12, catching value changes that silently flip a frozen decision
//!   (e.g. a strength threshold crossing).

use crate::coarsen::Coarsening;
use crate::hierarchy::{build_interp, coarse_lu, extract_fine_block};
use crate::hierarchy::{Hierarchy, Level, TransferOps};
use crate::interp::{CfMap, ExtITape};
use crate::params::AmgConfig;
use crate::smoother::Smoother;
use crate::stats::PhaseTimes;
use famg_sparse::permute::{
    copy_values_by_column, permute_symmetric_into, unpermute_symmetric, RowOrder,
};
use famg_sparse::transpose::{transpose_par, transpose_par_into};
use famg_sparse::triple::{rap_cf_numeric_into, rap_row_fused_numeric, rap_scalar_fused_numeric};
use famg_sparse::{Col, Csr};
use std::borrow::Cow;

/// Everything pattern-derived about one level that the live level does not
/// already hold: each *decision*, once. The permutation, the transfer
/// operators' patterns and the smoother's row partition stay where the
/// build put them, and a refresh writes values over them.
#[derive(Debug)]
pub struct FrozenLevel {
    /// How the level's interpolation weights are recomputed.
    pub(crate) interp: FrozenInterp,
    /// Number of coarse points: the rows of the next level.
    pub(crate) nc: usize,
    /// `(rows, nonzeros)` of the next level's operator, for the guard.
    pub(crate) next: (usize, usize),
    /// The in-row order the level's stored operator had when the build's
    /// RAP read it, before the reordered smoother partitioned its rows;
    /// `None` when the level's smoother reorders nothing.
    pub(crate) order: Option<RowOrder>,
}

/// A frozen level's interpolation decisions.
#[derive(Debug)]
pub(crate) enum FrozenInterp {
    /// Extended+i: the circuit its build recorded, kept set included, in
    /// offsets within rows. It replays on the level's stored operator into
    /// the live `P_F` (or `P`), so no operator is kept beside.
    Tape(ExtITape),
    /// Multipass, two-stage, and extended+i where a row outgrows the
    /// tape: the builder is re-run on the level's raw operand and must
    /// land exactly on the frozen sparsity.
    Rerun(Rerun),
}

/// What a builder is re-run on, in the level's raw ordering (the one
/// strength, coarsening and the builders read).
#[derive(Debug)]
pub(crate) struct Rerun {
    /// Strength matrix; only its pattern is read (values freeze-time stale).
    pub(crate) s: Csr,
    /// First-stage coarsening for the aggressive schemes.
    pub(crate) stage1: Option<Coarsening>,
    /// The final coarsening the builder was invoked with.
    pub(crate) cf: CfMap,
    /// `P` as built (full `n × nc` form): the re-run must land exactly on
    /// its pattern.
    pub(crate) p: Csr,
}

/// Pattern-derived setup state captured by [`Hierarchy::build_frozen`].
#[derive(Debug)]
pub struct FrozenSetup {
    /// Finest-level row pointer, for the input-pattern guard.
    pub(crate) fine_rowptr: Vec<usize>,
    /// Finest-level column indices, for the input-pattern guard.
    pub(crate) fine_colidx: Vec<Col>,
    /// Per-level frozen structure (one entry per non-coarsest level).
    pub(crate) levels: Vec<FrozenLevel>,
}

impl FrozenSetup {
    /// True when `a` has exactly the sparsity pattern this setup was
    /// frozen from.
    pub fn matches_pattern(&self, a: &Csr) -> bool {
        a.nrows() == a.ncols()
            && a.rowptr() == &self.fine_rowptr[..]
            && a.colidx() == &self.fine_colidx[..]
    }

    /// Every refusal that can be made before a level is written: the input
    /// pattern, the level count, each tape's operand, and per level whether
    /// `levels` is the hierarchy this was frozen with.
    fn check(&self, a: &Csr, levels: &[Level]) -> Result<(), RefreshError> {
        let mismatch = |level, what| Err(RefreshError::PatternMismatch { level, what });
        if !self.matches_pattern(a) {
            return mismatch(0, "finest operator");
        }
        if self.levels.len() + 1 != levels.len() {
            return mismatch(0, "level count");
        }
        // Each level's operator: the input's shape at the top, below it
        // the one frozen beside the level above.
        let mut shape = (a.nrows(), a.nnz());
        for (idx, (fl, pair)) in self.levels.iter().zip(levels.windows(2)).enumerate() {
            let (lvl, next, n) = (&pair[0], &pair[1].a, shape.0);
            let frozen_p = match &fl.interp {
                FrozenInterp::Tape(t) if t.a_shape != shape => {
                    return mismatch(idx, "extended+i tape operand");
                }
                FrozenInterp::Tape(t) => (n, t.p_nnz),
                FrozenInterp::Rerun(r) => (r.p.nrows(), r.p.nnz()),
            };
            // `P` in its full form: `P_F` lacks one unit row per C-point.
            let p_shape = match (&lvl.ops, &lvl.perm) {
                (Some(TransferOps::CfBlock { pf, .. }), Some(q)) if q.len() == n => {
                    (pf.nrows() + lvl.nc, pf.nnz() + lvl.nc)
                }
                (Some(TransferOps::Full { p, .. }), None) => (p.nrows(), p.nnz()),
                _ => return mismatch(idx, "frozen setup"),
            };
            let partitioned = matches!(lvl.smoother, Smoother::HybridOpt { .. });
            if (lvl.nc, (lvl.a.nrows(), lvl.a.nnz()), p_shape) != (fl.nc, shape, frozen_p)
                || (next.nrows(), next.nnz()) != fl.next
                || fl.order.as_ref().map(RowOrder::len) != partitioned.then_some(shape.1)
            {
                return mismatch(idx, "frozen setup");
            }
            shape = fl.next;
        }
        let coarsest = &levels[levels.len() - 1].a;
        if (coarsest.nrows(), coarsest.nnz()) != shape {
            return mismatch(self.levels.len(), "frozen setup");
        }
        Ok(())
    }
}

/// Why a refresh was refused. The hierarchy is untouched in every case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefreshError {
    /// The new operator, the frozen setup or a rebuilt interpolation
    /// operator does not match the frozen sparsity structure.
    PatternMismatch {
        /// Multigrid level the mismatch was detected on.
        level: usize,
        /// Which artifact mismatched.
        what: &'static str,
    },
    /// The solver was set up without [`Hierarchy::build_frozen`] (no
    /// frozen structure to refresh against).
    NoFrozenSetup,
}

impl std::fmt::Display for RefreshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefreshError::PatternMismatch { level, what } => write!(
                f,
                "refresh pattern mismatch at level {level}: {what} does not \
                 match the frozen structure (rebuild with `setup` instead)"
            ),
            RefreshError::NoFrozenSetup => write!(
                f,
                "no frozen setup captured; use `setup_refreshable` to enable refresh"
            ),
        }
    }
}

impl std::error::Error for RefreshError {}

/// Rebuilds a level's interpolation weights over the frozen inputs.
///
/// Multipass and two-stage truncate *inside* their stages, so they (and an
/// extended+i level without a tape) are re-run in full and must land
/// exactly on the frozen pattern; drifting off it is the one error a
/// refresh can meet past its guards.
fn refresh_interp(a: &Csr, r: &Rerun, level: usize, cfg: &AmgConfig) -> Result<Csr, RefreshError> {
    let (_, ikind) = cfg.level_scheme(level);
    let (p, _) = build_interp(a, &r.s, &r.cf, r.stage1.as_ref(), ikind, cfg, false);
    if p.same_pattern(&r.p) {
        Ok(p)
    } else {
        Err(RefreshError::PatternMismatch {
            level,
            what: "interpolation operator",
        })
    }
}

/// Level `idx` and the one below it, each from `staged` (the copies of the
/// levels above the commit point, while there are any) or from `live`.
fn pair<'a>(
    staged: &'a mut [Level],
    live: &'a mut [Level],
    idx: usize,
) -> (&'a mut Level, &'a mut Level) {
    let (upper, lower) = match idx + 1 {
        below if below < staged.len() => staged.split_at_mut(below),
        below if below == staged.len() => (staged, &mut live[below..]),
        below => live.split_at_mut(below),
    };
    (&mut upper[idx], &mut lower[0])
}

/// Refreshes level `idx` where it lies. Its operator arrives from the
/// level above — `incoming`, written, with its rows in the in-row order
/// the build's RAP read — or, at the top, is taken out of `lvl` and
/// written from the caller's `input`. It goes back into `lvl` partitioned
/// for the smoother. The next level's operator is taken out of `next`,
/// written in that same order (`next_order` undoes its partition first)
/// and returned. A refusal comes before anything outside `lvl` is touched.
#[allow(clippy::too_many_arguments)]
fn refresh_level(
    lvl: &mut Level,
    next: &mut Level,
    next_order: Option<&RowOrder>,
    incoming: Option<Csr>,
    input: Option<&Csr>,
    fl: &FrozenLevel,
    idx: usize,
    cfg: &AmgConfig,
) -> Result<Csr, RefreshError> {
    let nc = fl.nc;
    let perm = lvl.perm.as_ref();
    let mut a = incoming.unwrap_or_else(|| std::mem::replace(&mut lvl.a, Csr::zero(0, 0)));
    if let Some(input) = input {
        let _span = famg_prof::scope_at("cf_reorder", idx);
        match perm {
            Some(q) => permute_symmetric_into(input, q, &mut a),
            None => a.values_mut().copy_from_slice(input.values()),
        }
    }

    // --- Interpolation weights. ---
    let interp_span = famg_prof::scope_at("interp", idx);
    match &fl.interp {
        FrozenInterp::Tape(tape) => {
            // Fine point `i` is row `perm(i)` of `a`, and row `perm(i) − nc`
            // of `P_F` or row `i` of `P`.
            if let Some(TransferOps::CfBlock { pf: out, .. } | TransferOps::Full { p: out, .. }) =
                &mut lvl.ops
            {
                tape.replay_into(&a, |i| perm.map_or(i, |q| q.forward[i]), out);
            }
        }
        FrozenInterp::Rerun(r) => {
            // The builder reads the raw operand: the caller's at the top,
            // below it the level's operator as the RAP above produced it.
            let raw = match (input, perm) {
                (Some(input), _) => Cow::Borrowed(input),
                (None, Some(q)) => Cow::Owned(unpermute_symmetric(&a, q)),
                (None, None) => Cow::Borrowed(&a),
            };
            let p = refresh_interp(&raw, r, idx, cfg)?;
            drop(raw);
            match (&mut lvl.ops, perm) {
                (Some(TransferOps::CfBlock { pf, .. }), Some(q)) => {
                    let _span = famg_prof::scope_at("extract_p", idx);
                    *pf = Csr::zero(0, 0); // Freed before the new one is taken.
                    *pf = extract_fine_block(&p, q, nc, idx);
                }
                (Some(TransferOps::Full { p: old, .. }), None) => *old = p,
                _ => unreachable!("the refresh guard paired level {idx}'s P with its permutation"),
            }
        }
    }
    drop(interp_span);

    // --- The transposes, then the numeric-only RAP into the next level's
    // operator, moved out of it while it is written. ---
    let mut a_next = std::mem::replace(&mut next.a, Csr::zero(0, 0));
    if let Some(order) = next_order {
        let _span = famg_prof::scope_at("row_order", idx + 1);
        order.restore_pattern(&mut a_next);
    }
    match &mut lvl.ops {
        Some(TransferOps::CfBlock { pf, pft }) => {
            let extract_span = famg_prof::scope_at("extract_p", idx);
            transpose_par_into(pf, pft);
            drop(extract_span);
            let _span = famg_prof::scope_at("rap", idx);
            rap_cf_numeric_into(&a, nc, pf, pft, &mut a_next, next.perm.as_ref());
        }
        Some(TransferOps::Full { p, r }) => {
            let _span = famg_prof::scope_at("rap", idx);
            // Without `keep_transpose` the baseline holds no `R` to refill:
            // it transposes `P` here as its build and its restrictions do.
            let rt = match r {
                Some(rt) => {
                    transpose_par_into(p, rt);
                    Cow::Borrowed(&*rt)
                }
                None => Cow::Owned(transpose_par(p)),
            };
            if cfg.opt.row_fused_rap {
                rap_row_fused_numeric(&rt, &a, p, &mut a_next);
            } else {
                rap_scalar_fused_numeric(&rt, &a, p, &mut a_next);
            }
        }
        None => unreachable!("the refresh guard found level {idx}'s transfer operators"),
    }

    // --- Back to the smoother's layout; only its diagonal moves. ---
    if let Some(order) = &fl.order {
        let _span = famg_prof::scope_at("row_order", idx);
        order.partition(&mut a);
    }
    let _span = famg_prof::scope_at("smoother_setup", idx);
    lvl.smoother.refill_diagonal(&a);
    lvl.a = a;
    Ok(a_next)
}

impl Hierarchy {
    /// Absorbs a same-pattern operator: re-runs only the value-derived
    /// setup stages over `frozen`'s pattern-derived structure, in place.
    /// On success the hierarchy is bitwise identical to
    /// `Hierarchy::build(a, cfg)` whenever `a`'s values induce the same
    /// frozen decisions; on error it is left bitwise unchanged (see the
    /// [module docs](crate::refresh) for the commit point and for panics).
    pub fn refresh(&mut self, a: &Csr, frozen: &mut FrozenSetup) -> Result<(), RefreshError> {
        frozen.check(a, &self.levels)?;
        let cfg = self.config.clone();
        // Root span: the refresh is a (numeric-only) setup, so its tree
        // reuses the setup span names and buckets into the same Fig. 5
        // categories via `PhaseTimes::from_span`.
        let root_span = famg_prof::scope("refresh");
        let done = self.refresh_levels(a, frozen, &cfg);
        // Close and capture the span tree unconditionally — also on the
        // error path, so a failed refresh cannot leak completed spans
        // into the next capture — and before validate_refresh, whose
        // nested full build captures its own profile and must see a
        // clean span stack.
        drop(root_span);
        let profile = famg_prof::take();
        done?;

        #[cfg(feature = "validate")]
        validate_refresh(&self.levels, a, &cfg);

        self.times = profile
            .find_root("refresh")
            .map(PhaseTimes::from_span)
            .unwrap_or_default();
        self.profile = profile;
        Ok(())
    }

    /// The fallible middle of [`Hierarchy::refresh`]: rebuilds every
    /// level's numeric content over the frozen structure. Split out so
    /// the caller can close the root profiler span and drain the
    /// collector on *both* the success and error paths.
    fn refresh_levels(
        &mut self,
        a: &Csr,
        frozen: &FrozenSetup,
        cfg: &AmgConfig,
    ) -> Result<(), RefreshError> {
        let nl = frozen.levels.len();
        // The commit point: one past the last level that can be refused,
        // a builder re-run without a tape (see `refresh_interp`).
        // The levels above it are refreshed on copies.
        let fallible = |l: &usize| matches!(frozen.levels[*l].interp, FrozenInterp::Rerun(_));
        let commit = (0..nl).rev().find(fallible).map_or(0, |l| l + 1);
        let mut staged = self.levels[..commit].to_vec();
        let mut incoming = None;
        for (idx, fl) in frozen.levels.iter().enumerate() {
            let next_order = frozen.levels.get(idx + 1).and_then(|l| l.order.as_ref());
            let (lvl, next) = pair(&mut staged, &mut self.levels, idx);
            let input = (idx == 0).then_some(a);
            incoming = Some(refresh_level(
                lvl, next, next_order, incoming, input, fl, idx, cfg,
            )?);
            if idx + 1 == commit {
                self.levels.splice(..commit, staged.drain(..));
            }
        }

        // --- Coarsest level: its smoother's diagonal and LU, redone from
        // its operator (the caller's values, when it is the only level). ---
        let _span = famg_prof::scope_at("coarse", nl);
        self.coarse_lu = None;
        let coarsest = self.levels.last_mut().expect("a hierarchy has a level");
        let op = incoming.unwrap_or_else(|| {
            let mut op = std::mem::replace(&mut coarsest.a, Csr::zero(0, 0));
            copy_values_by_column(a, &mut op);
            op
        });
        coarsest.smoother.refill_diagonal(&op);
        self.coarse_lu = coarse_lu(&op, cfg);
        coarsest.a = op;
        Ok(())
    }
}

/// `validate`-feature cross-check: a refreshed hierarchy must agree with
/// a from-scratch build on the same numeric operator to 1e-12 on every
/// level (same patterns, same values). A failure means the new values
/// silently flipped a frozen pattern decision — the refresh result is
/// still a consistent Galerkin hierarchy, but no longer the one a full
/// setup would produce.
#[cfg(feature = "validate")]
fn validate_refresh(levels: &[Level], a: &Csr, cfg: &AmgConfig) {
    let fresh = Hierarchy::build(a, cfg);
    assert_eq!(
        fresh.levels.len(),
        levels.len(),
        "refresh validation: level count drifted"
    );
    for (lvl, (refreshed, scratch)) in levels.iter().zip(&fresh.levels).enumerate() {
        assert!(
            refreshed.a.same_pattern(&scratch.a),
            "refresh validation: operator pattern drifted at level {lvl}"
        );
        let scale = scratch
            .a
            .values()
            .iter()
            .fold(1.0f64, |m, v| m.max(v.abs()));
        for (x, y) in refreshed.a.values().iter().zip(scratch.a.values()) {
            assert!(
                (x - y).abs() <= 1e-12 * scale,
                "refresh validation: operator values drifted at level {lvl}: {x} vs {y}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{vcycle, CycleWorkspace};
    use crate::params::InterpKind;
    use crate::solver::{AmgSolver, SolveError};
    use famg_matgen::{laplace2d, varcoef3d_7pt};
    use std::panic::AssertUnwindSafe;

    fn fields(nx: usize, ny: usize, nz: usize, shift: f64) -> Vec<f64> {
        // Smooth positive coefficient field. `shift != 0` applies a small
        // multiplicative drift, modelling a time step of a coefficient
        // evolution: values change everywhere, but gently enough that no
        // frozen threshold decision (strength cut, truncation kept-set)
        // flips — the regime the refresh path is built for.
        (0..nx * ny * nz)
            .map(|i| {
                let x = (i % nx) as f64 / nx as f64;
                let t = (i / nx) as f64 / (ny * nz) as f64;
                let base = 1.0 + 0.5 * (6.0 * (x + t)).sin().powi(2);
                base * (1.0 + 1e-5 * shift * (9.0 * (x - t)).cos())
            })
            .collect()
    }

    fn configs() -> Vec<AmgConfig> {
        // Two ablation rows besides: the full `P` with its transpose kept
        // (refilled in place), and permuted levels the baseline kernel
        // relaxes (no row partition to undo).
        let paper = AmgConfig::single_node_paper();
        let mut unpermuted = paper.clone();
        unpermuted.opt.cf_reorder = false;
        let mut unpartitioned = paper.clone();
        unpartitioned.opt.reordered_smoother = false;
        vec![
            paper,
            AmgConfig::single_node_baseline(),
            AmgConfig::multi_node_mp(),
            AmgConfig::multi_node_2s_ei444(),
            unpermuted,
            unpartitioned,
        ]
    }

    #[test]
    fn refresh_matches_full_rebuild_bitwise() {
        let (nx, ny, nz) = (12, 12, 8);
        let a1 = varcoef3d_7pt(nx, ny, nz, &fields(nx, ny, nz, 0.0));
        let a2 = varcoef3d_7pt(nx, ny, nz, &fields(nx, ny, nz, 0.35));
        assert!(a1.same_pattern(&a2));
        for cfg in configs() {
            let (mut h, mut frozen) = Hierarchy::build_frozen(&a1, &cfg);
            h.refresh(&a2, &mut frozen).unwrap();
            let full = Hierarchy::build(&a2, &cfg);
            assert_eq!(h.levels.len(), full.levels.len(), "{:?}", cfg.interp);
            for (lvl, (r, f)) in h.levels.iter().zip(&full.levels).enumerate() {
                assert_eq!(
                    r.a, f.a,
                    "operator differs at level {lvl} ({:?})",
                    cfg.interp
                );
                match (r.ops.as_ref(), f.ops.as_ref()) {
                    (None, None) => {}
                    (
                        Some(TransferOps::Full { p: rp, r: rr }),
                        Some(TransferOps::Full { p: fp, r: fr }),
                    ) => {
                        assert_eq!(rp, fp, "P differs at level {lvl}");
                        assert_eq!(rr, fr, "R differs at level {lvl}");
                    }
                    (
                        Some(TransferOps::CfBlock { pf: ra, pft: rb }),
                        Some(TransferOps::CfBlock { pf: fa, pft: fb }),
                    ) => {
                        assert_eq!(ra, fa, "P_F differs at level {lvl}");
                        assert_eq!(rb, fb, "P_Fᵀ differs at level {lvl}");
                    }
                    _ => panic!("transfer representation differs at level {lvl}"),
                }
            }
            // The smoothers and the coarse LU too, through a V-cycle.
            assert_eq!(fingerprint(&h), fingerprint(&full), "{:?}", cfg.opt);
        }
    }

    #[test]
    fn refresh_with_identical_values_is_identity() {
        let a = laplace2d(32, 32);
        let cfg = AmgConfig::single_node_paper();
        let (mut h, mut frozen) = Hierarchy::build_frozen(&a, &cfg);
        let before: Vec<Csr> = h.levels.iter().map(|l| l.a.clone()).collect();
        h.refresh(&a, &mut frozen).unwrap();
        for (lvl, (now, then)) in h.levels.iter().zip(&before).enumerate() {
            assert_eq!(&now.a, then, "level {lvl}");
        }
    }

    #[test]
    fn mismatched_pattern_is_an_error_and_leaves_state_intact() {
        let a = laplace2d(24, 24);
        let cfg = AmgConfig::single_node_paper();
        let (mut h, mut frozen) = Hierarchy::build_frozen(&a, &cfg);
        let before: Vec<Csr> = h.levels.iter().map(|l| l.a.clone()).collect();
        // Different pattern: a finer grid.
        let other = laplace2d(25, 24);
        let err = h.refresh(&other, &mut frozen).unwrap_err();
        assert!(matches!(
            err,
            RefreshError::PatternMismatch { level: 0, .. }
        ));
        // Same shape, different pattern.
        let diagonal = Csr::identity(24 * 24);
        let err = h.refresh(&diagonal, &mut frozen).unwrap_err();
        assert!(matches!(err, RefreshError::PatternMismatch { .. }));
        for (now, then) in h.levels.iter().zip(&before) {
            assert_eq!(&now.a, then, "failed refresh must not corrupt state");
        }
        // And the hierarchy still refreshes fine afterwards.
        h.refresh(&a, &mut frozen).unwrap();
    }

    #[test]
    fn tape_operand_mismatch_is_a_refresh_error() {
        // The up-front guard holds each tape against the operand it will
        // index — level 0's against the input — before any level is
        // written. Here level 0 is handed level 1's tape.
        let a = laplace2d(24, 24);
        let cfg = AmgConfig::single_node_paper();
        let (mut h, mut frozen) = Hierarchy::build_frozen(&a, &cfg);
        let before = fingerprint(&h);
        let [l0, l1, ..] = &mut frozen.levels[..] else {
            panic!("two frozen levels");
        };
        std::mem::swap(&mut l0.interp, &mut l1.interp);
        let err = h.refresh(&a, &mut frozen).unwrap_err();
        let what = "extended+i tape operand";
        assert_eq!(err, RefreshError::PatternMismatch { level: 0, what });
        assert_eq!(fingerprint(&h), before);
    }

    fn fnv1a(h: u64, w: u64) -> u64 {
        let step = |h: u64, b: &u8| (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        w.to_le_bytes().iter().fold(h, step)
    }

    fn hash_csr(h: u64, c: &Csr) -> u64 {
        let cols = c.colidx().iter().map(|&v| usize::from(v));
        let pattern = c.rowptr().iter().copied().chain(cols).map(|v| v as u64);
        let words = pattern.chain(c.values().iter().map(|v| v.to_bits()));
        words.fold(fnv1a(h, c.ncols() as u64), fnv1a)
    }

    /// FNV-1a of every level's operator, permutation and transfer
    /// operators, and of one V-cycle applied to a fixed vector (which reads
    /// the smoothers and the coarse LU as well).
    fn fingerprint(h: &Hierarchy) -> u64 {
        let mut f = 0xcbf2_9ce4_8422_2325;
        for lvl in &h.levels {
            f = hash_csr(f, &lvl.a);
            if let Some(q) = &lvl.perm {
                f = q.forward.iter().fold(f, |f, &v| fnv1a(f, v as u64));
            }
            match &lvl.ops {
                Some(TransferOps::CfBlock { pf, pft }) => f = hash_csr(hash_csr(f, pf), pft),
                Some(TransferOps::Full { p, r }) => {
                    f = hash_csr(f, p);
                    f = r.as_ref().map_or(f, |r| hash_csr(f, r));
                }
                None => {}
            }
        }
        let b: Vec<f64> = (0..h.n()).map(|i| 1.0 + (i % 7) as f64).collect();
        let mut x = vec![0.0; h.n()];
        vcycle(h, &b, &mut x, &mut CycleWorkspace::for_hierarchy(h));
        x.iter().fold(f, |f, v| fnv1a(f, v.to_bits()))
    }

    #[test]
    fn a_frozen_setup_of_another_hierarchy_is_refused_before_any_write() {
        let (nx, ny, nz) = (12, 12, 8);
        let a = varcoef3d_7pt(nx, ny, nz, &fields(nx, ny, nz, 0.0));
        for base in [
            AmgConfig::single_node_paper(),
            AmgConfig::single_node_baseline(),
        ] {
            // Same level count, another level 0.
            let other = AmgConfig {
                seed: base.seed + 3,
                ..base.clone()
            };
            let (mut h1, mut f1) = Hierarchy::build_frozen(&a, &base);
            let (mut h2, mut f2) = Hierarchy::build_frozen(&a, &other);
            assert_eq!(h1.num_levels(), h2.num_levels());
            assert_ne!(h1.levels[0].nc, h2.levels[0].nc, "the seeds coarsen alike");
            let (b1, b2) = (fingerprint(&h1), fingerprint(&h2));
            let what = "frozen setup";
            let crossed = Err(RefreshError::PatternMismatch { level: 0, what });
            assert_eq!(h1.refresh(&a, &mut f2), crossed);
            assert_eq!(h2.refresh(&a, &mut f1), crossed);
            assert_eq!((fingerprint(&h1), fingerprint(&h2)), (b1, b2));
            // Each still refreshes with its own: the same values rebuild
            // the same bits.
            h1.refresh(&a, &mut f1).unwrap();
            h2.refresh(&a, &mut f2).unwrap();
            assert_eq!((fingerprint(&h1), fingerprint(&h2)), (b1, b2));
        }
    }

    #[test]
    fn errors_stay_transactional_across_the_commit_point() {
        // Level 0 of `mp` and `2s_ei444` re-runs a composed scheme and is
        // staged; the tape levels below it are rewritten in place.
        let (nx, ny, nz) = (12, 12, 8);
        let base = fields(nx, ny, nz, 0.0);
        let a = varcoef3d_7pt(nx, ny, nz, &base);
        // Every sign holds, but the largest weights change places: level
        // 0's truncation would keep another set.
        let rough: Vec<f64> = base
            .iter()
            .enumerate()
            .map(|(i, k)| k * (1.0 + 0.8 * ((i * 7 % 11) as f64 / 11.0)))
            .collect();
        let rough = varcoef3d_7pt(nx, ny, nz, &rough);
        let smooth = varcoef3d_7pt(nx, ny, nz, &fields(nx, ny, nz, 0.35));
        for cfg in [AmgConfig::multi_node_mp(), AmgConfig::multi_node_2s_ei444()] {
            let (mut h, mut frozen) = Hierarchy::build_frozen(&a, &cfg);
            assert!(h.num_levels() >= 3, "{:?}", cfg.interp);
            let before = fingerprint(&h);
            let what = "interpolation operator";
            let refused = Err(RefreshError::PatternMismatch { level: 0, what });
            assert_eq!(h.refresh(&rough, &mut frozen), refused, "{:?}", cfg.interp);
            assert_eq!(fingerprint(&h), before, "{:?}", cfg.interp);
            h.refresh(&smooth, &mut frozen).unwrap();
            let fresh = fingerprint(&Hierarchy::build(&smooth, &cfg));
            assert_eq!(fingerprint(&h), fresh, "{:?}", cfg.interp);
        }
    }

    #[test]
    fn a_panic_in_place_leaves_a_hierarchy_that_solves_refuse() {
        let a = laplace2d(24, 24);
        let n = a.nrows();
        let mut singular = a.clone();
        let at = singular
            .row_range(5)
            .find(|&k| usize::from(singular.colidx()[k]) == 5);
        singular.values_mut()[at.expect("stored diagonal")] = 0.0;
        for cfg in [
            AmgConfig::single_node_paper(),
            AmgConfig::single_node_baseline(),
        ] {
            let mut solver = AmgSolver::setup_refreshable(&a, &cfg);
            let refresh = AssertUnwindSafe(|| solver.refresh(&singular));
            assert!(std::panic::catch_unwind(refresh).is_err(), "{:?}", cfg.opt);
            let (b, mut x) = (vec![1.0; n], vec![0.0; n]);
            let solved = solver.try_solve(&b, &mut x);
            assert!(
                matches!(solved, Err(SolveError::MalformedHierarchy { .. })),
                "{solved:?}"
            );
            let what = "frozen setup";
            let refused = Err(RefreshError::PatternMismatch { level: 0, what });
            assert_eq!(solver.refresh(&a), refused);
        }
    }

    #[test]
    fn refresh_covers_all_interp_kinds() {
        // Both tape arms: `P_F` in place (`CfBlock`) and the full `P`.
        let (nx, ny, nz) = (10, 10, 6);
        let a1 = varcoef3d_7pt(nx, ny, nz, &fields(nx, ny, nz, 0.1));
        let a2 = varcoef3d_7pt(nx, ny, nz, &fields(nx, ny, nz, 0.9));
        for cfg in [
            AmgConfig::single_node_paper(),
            AmgConfig::single_node_baseline(),
        ] {
            assert_eq!(cfg.interp, InterpKind::ExtendedI);
            let (mut h, mut frozen) = Hierarchy::build_frozen(&a1, &cfg);
            h.refresh(&a2, &mut frozen).unwrap();
            let full = Hierarchy::build(&a2, &cfg);
            for (lvl, (r, f)) in h.levels.iter().zip(&full.levels).enumerate() {
                assert_eq!(r.a, f.a, "{:?} level {lvl}", cfg.opt);
            }
        }
    }

    #[test]
    fn a_single_level_hierarchy_refreshes_bitwise() {
        // The input's values go straight into the coarsest operator, whose
        // rows the smoother partitioned: a tiny operator with its dense LU,
        // and a larger one capped at one level.
        let cases = [((4, 4, 3), None), ((12, 12, 8), Some(1))];
        for ((nx, ny, nz), max_levels) in cases {
            let a1 = varcoef3d_7pt(nx, ny, nz, &fields(nx, ny, nz, 0.0));
            let a2 = varcoef3d_7pt(nx, ny, nz, &fields(nx, ny, nz, 0.35));
            for base in [
                AmgConfig::single_node_paper(),
                AmgConfig::single_node_baseline(),
            ] {
                let cfg = AmgConfig {
                    max_levels: max_levels.unwrap_or(base.max_levels),
                    ..base
                };
                let (mut h, mut frozen) = Hierarchy::build_frozen(&a1, &cfg);
                assert_eq!(h.num_levels(), 1, "{nx}x{ny}x{nz}");
                assert_eq!(h.coarse_lu.is_some(), max_levels.is_none());
                h.refresh(&a2, &mut frozen).unwrap();
                let full = Hierarchy::build(&a2, &cfg);
                assert_eq!(h.levels[0].a, full.levels[0].a, "{:?}", cfg.opt);
                let lu = |h: &Hierarchy| format!("{:?}", h.coarse_lu);
                assert_eq!(lu(&h), lu(&full), "{:?}", cfg.opt);
                assert_eq!(fingerprint(&h), fingerprint(&full), "{:?}", cfg.opt);
            }
        }
    }

    #[test]
    fn a_row_past_16_bits_freezes_its_level_as_a_rerun() {
        // A chain whose point 0 also couples weakly to all the others: row
        // 0 holds 70 000 entries, all strong, and no point depends on 0,
        // so it is a fine row the kernel reads, past the tape's offsets.
        let n = 70_000;
        let eps = 1e-3;
        let mut trips = vec![(0, 0, 1.0 + eps * (n - 1) as f64)];
        for i in 1..n {
            trips.extend([(i, i, 2.0 + eps), (i, 0, -eps), (0, i, -eps)]);
            trips.extend((i > 1).then_some((i, i - 1, -1.0)));
            trips.extend((i + 1 < n).then_some((i, i + 1, -1.0)));
        }
        let a = Csr::from_triplets(n, n, trips);
        // Twice the values: every decision and every weight the same bits.
        let mut a2 = a.clone();
        a2.values_mut().iter_mut().for_each(|v| *v *= 2.0);
        for cfg in [
            AmgConfig::single_node_paper(),
            AmgConfig::single_node_baseline(),
        ] {
            let (mut h, mut frozen) = Hierarchy::build_frozen(&a, &cfg);
            assert!(h.num_levels() >= 2, "{:?}", cfg.opt);
            assert!(matches!(frozen.levels[0].interp, FrozenInterp::Rerun(_)));
            for next in [&a2, &a] {
                h.refresh(next, &mut frozen).unwrap();
                let fresh = fingerprint(&Hierarchy::build(next, &cfg));
                assert_eq!(fingerprint(&h), fresh, "{:?}", cfg.opt);
            }
        }
    }

    /// `p` with one entry moved to a column its row does not hold: same
    /// shape and nonzero count, another pattern.
    fn moved_entry(p: &Csr) -> Csr {
        let mut colidx = p.colidx().to_vec();
        let k = (0..p.nrows())
            .flat_map(|i| p.row_range(i).map(move |k| (i, k)))
            .find(|&(i, k)| {
                let c = usize::from(p.colidx()[k]) + 1;
                c < p.ncols() && !p.col_iter(i).any(|j| j == c)
            })
            .map(|(_, k)| k)
            .expect("a movable entry");
        colidx[k] = Col::new(usize::from(colidx[k]) + 1);
        let (rowptr, values) = (p.rowptr().to_vec(), p.values().to_vec());
        Csr::from_parts_unchecked(p.nrows(), p.ncols(), rowptr, colidx, values)
    }

    #[test]
    fn a_composed_scheme_below_level_0_refreshes_bitwise_and_refuses_unchanged() {
        // Levels 0 and 1 re-run their builder; level 1's raw operand is
        // rebuilt from its stored operator in the order recorded for it.
        let (nx, ny, nz) = (12, 12, 8);
        let a = varcoef3d_7pt(nx, ny, nz, &fields(nx, ny, nz, 0.0));
        let smooth = varcoef3d_7pt(nx, ny, nz, &fields(nx, ny, nz, 0.35));
        for base in [AmgConfig::multi_node_mp(), AmgConfig::multi_node_2s_ei444()] {
            let cfg = AmgConfig {
                aggressive_levels: 2,
                ..base
            };
            let (mut h, mut frozen) = Hierarchy::build_frozen(&a, &cfg);
            assert!(h.num_levels() >= 3, "{:?}", cfg.interp);
            assert!(matches!(frozen.levels[1].interp, FrozenInterp::Rerun(_)));
            h.refresh(&smooth, &mut frozen).unwrap();
            let fresh = fingerprint(&Hierarchy::build(&smooth, &cfg));
            assert_eq!(fingerprint(&h), fresh, "{:?}", cfg.interp);

            // Level 1's builder now misses its frozen pattern: refused after
            // levels 0 and 1 were refreshed on copies (with other values).
            let FrozenInterp::Rerun(r) = &mut frozen.levels[1].interp else {
                unreachable!()
            };
            r.p = moved_entry(&r.p);
            let what = "interpolation operator";
            let refused = Err(RefreshError::PatternMismatch { level: 1, what });
            assert_eq!(h.refresh(&a, &mut frozen), refused, "{:?}", cfg.interp);
            assert_eq!(fingerprint(&h), fresh, "{:?}", cfg.interp);
        }
    }
}
