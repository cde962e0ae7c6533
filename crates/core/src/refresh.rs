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
//! re-running only numeric passes (interpolation weights over the frozen
//! strength/CF inputs — an extended+i level replays the circuit its own
//! build recorded, straight into the live level's `P_F` — numeric-only RAP
//! into the frozen coarse patterns, smoother extraction) and the
//! value-moving kernels the build itself runs (`permute_symmetric` with
//! the stored permutation, `transpose_par`) — strength computation, PMIS,
//! permutation construction, and symbolic SpGEMM are skipped entirely.
//!
//! ## Refresh contract
//!
//! * Refresh with the operator the hierarchy was frozen from — or any
//!   same-pattern operator whose values induce the same frozen decisions —
//!   yields a hierarchy bitwise identical to a from-scratch
//!   [`Hierarchy::build`] on that operator.
//! * A mismatched input pattern, a [`FrozenSetup`] of another hierarchy,
//!   or values that drive a composed scheme off the frozen sparsity return
//!   [`RefreshError::PatternMismatch`] and leave every level bitwise as it
//!   was: the checks run before any write, and the levels that can still
//!   be refused are staged and swapped in once the last has passed — the
//!   *commit point*, level 0 with the paper's configuration. The levels
//!   below it are rewritten over their own buffers.
//! * A *panic* past it (a zero diagonal, `FrozenRow::add`'s range test)
//!   leaves the level being rewritten with an empty operator, which
//!   [`Hierarchy::check_shape`], `try_` solves and the next refresh refuse.
//! * Under the `validate` feature each refresh cross-checks itself
//!   against a from-scratch build and panics if any level drifts beyond
//!   1e-12, catching value changes that silently flip a frozen decision
//!   (e.g. a strength threshold crossing).

use crate::coarsen::Coarsening;
use crate::hierarchy::{build_interp, build_smoother, coarsest_level, extract_fine_block};
use crate::hierarchy::{Hierarchy, Level, TransferOps};
use crate::interp::{CfMap, ExtITape};
use crate::params::AmgConfig;
use crate::smoother::Smoother;
use crate::stats::PhaseTimes;
use famg_sparse::permute::permute_symmetric;
use famg_sparse::transpose::transpose_par;
use famg_sparse::triple::{rap_cf_numeric, rap_row_fused_numeric, rap_scalar_fused_numeric};
use famg_sparse::Csr;

/// Everything pattern-derived about one level: each *decision*, once. The
/// transforms that only move values (the CF permutation with the level's
/// stored [`Permutation`], `P_Fᵀ`, the CF-block read of `A_perm` inside the
/// RAP kernel) are re-run with the build's kernels over the live level.
///
/// [`Permutation`]: famg_sparse::permute::Permutation
#[derive(Debug)]
pub struct FrozenLevel {
    /// How the level's interpolation weights are recomputed.
    pub(crate) interp: FrozenInterp,
    /// Number of coarse points: the rows of the next level.
    pub(crate) nc: usize,
    /// Frozen coarse-operator pattern. The values are scratch space: a
    /// refresh fills them with the numeric RAP kernels and the next level
    /// reads its operator from here, never across refreshes (scribbled
    /// even by a failed refresh — harmless, every refresh rewrites them
    /// top-down before it reads them).
    pub(crate) rap: Csr,
}

/// A frozen level's interpolation decisions, in the level's *raw* ordering
/// (the one strength, coarsening and the builders read) on both paths.
#[derive(Debug)]
pub(crate) enum FrozenInterp {
    /// Extended+i: the circuit its build recorded, kept set included. It
    /// replays into the live `P_F` (or `P`), so no operator is kept beside.
    Tape(ExtITape),
    /// Multipass and two-stage: the composed builder is re-run and must
    /// land exactly on the frozen sparsity.
    Rerun(Rerun),
}

/// What a builder is re-run on.
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
    pub(crate) fine_colidx: Vec<usize>,
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
        let mut operand = a;
        for (idx, (fl, pair)) in self.levels.iter().zip(levels.windows(2)).enumerate() {
            let (lvl, next, n) = (&pair[0], &pair[1].a, operand.nrows());
            let frozen_p = match &fl.interp {
                FrozenInterp::Tape(t) if t.a_shape != (n, operand.nnz()) => {
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
            if (lvl.nc, lvl.a.nrows(), p_shape) != (fl.nc, n, frozen_p)
                || (next.nrows(), next.nnz()) != (fl.rap.nrows(), fl.rap.nnz())
            {
                return mismatch(idx, "frozen setup");
            }
            operand = &fl.rap;
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

/// Rebuilds a composed scheme's interpolation weights over the frozen
/// inputs.
///
/// Multipass and two-stage truncate *inside* their stages, so they are
/// re-run in full and must land exactly on the frozen pattern; drifting
/// off it is the one error a refresh can meet past its guards.
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

/// A baseline hybrid GS's C/F marker, all a rebuilt smoother reads of the
/// old one (a tape level records no splitting of its own).
fn marker(s: &Smoother) -> Option<Vec<bool>> {
    match s {
        Smoother::HybridBase { is_coarse, .. } => Some(is_coarse.clone()),
        Smoother::HybridOpt { .. } => None,
    }
}

/// A level to refresh beside `live`: its permutation and, for a tape to
/// write into, its interpolation operator.
fn staging_copy(live: &Level, tape: bool) -> Level {
    Level {
        a: Csr::zero(0, 0),
        perm: live.perm.clone(),
        nc: live.nc,
        ops: if tape { live.ops.clone() } else { None },
        smoother: Smoother::hybrid_base(&Csr::zero(0, 0), Vec::new(), 1),
    }
}

/// Refreshes one level over `lvl`'s own buffers (the live level, or a
/// staging copy; `marker` is the live smoother's). The operator and the
/// smoother are emptied first, the operator put back last; `P_Fᵀ` is freed
/// before it is rebuilt; a tape writes `P_F` (or `P`) where it lies.
fn refresh_level(
    lvl: &mut Level,
    marker: Option<Vec<bool>>,
    current: &Csr,
    fl: &mut FrozenLevel,
    idx: usize,
    cfg: &AmgConfig,
) -> Result<(), RefreshError> {
    let nc = fl.nc;
    lvl.a = Csr::zero(0, 0);
    lvl.smoother = Smoother::hybrid_base(&Csr::zero(0, 0), Vec::new(), 1);
    // --- Interpolation weights, on the raw ordering like the build's (the
    // tape's positions are positions in `current`). ---
    let interp_span = famg_prof::scope_at("interp", idx);
    let perm = lvl.perm.as_ref();
    match &fl.interp {
        FrozenInterp::Tape(tape) => {
            // Fine point `i` is row `perm(i) − nc` of `P_F`, row `i` of `P`.
            if let Some(TransferOps::CfBlock { pf: out, .. } | TransferOps::Full { p: out, .. }) =
                &mut lvl.ops
            {
                tape.replay_into(current, out, |i| perm.map_or(i, |q| q.forward[i] - nc));
            }
        }
        FrozenInterp::Rerun(r) => {
            let p = refresh_interp(current, r, idx, cfg)?;
            lvl.ops = None; // Freed before `P_F` is copied out.
            lvl.ops = Some(match perm {
                Some(q) => {
                    let _span = famg_prof::scope_at("extract_p", idx);
                    let pf = extract_fine_block(&p, q, nc, idx);
                    let pft = Csr::zero(0, 0);
                    TransferOps::CfBlock { pf, pft }
                }
                None => TransferOps::Full { p, r: None },
            });
        }
    }
    drop(interp_span);

    let mut a_level = match (&mut lvl.ops, perm) {
        (Some(TransferOps::CfBlock { pf, pft }), Some(q)) => {
            // --- Optimized path: the stored permutation, borrowed. ---
            let reorder_span = famg_prof::scope_at("cf_reorder", idx);
            let ap = permute_symmetric(current, q);
            drop(reorder_span);
            let extract_span = famg_prof::scope_at("extract_p", idx);
            *pft = Csr::zero(0, 0);
            *pft = transpose_par(pf);
            drop(extract_span);
            // --- Numeric-only RAP into the frozen coarse pattern. ---
            let _span = famg_prof::scope_at("rap", idx);
            rap_cf_numeric(&ap, nc, pf, pft, &mut fl.rap);
            ap
        }
        (Some(TransferOps::Full { p, r }), None) => {
            // --- Baseline path: original ordering throughout. ---
            let _span = famg_prof::scope_at("rap", idx);
            *r = None;
            let rt = transpose_par(p);
            if cfg.opt.row_fused_rap {
                rap_row_fused_numeric(&rt, current, p, &mut fl.rap);
            } else {
                rap_scalar_fused_numeric(&rt, current, p, &mut fl.rap);
            }
            *r = cfg.opt.keep_transpose.then_some(rt);
            current.clone()
        }
        _ => unreachable!("the refresh guard paired level {idx}'s P with its permutation"),
    };

    let smoother_span = famg_prof::scope_at("smoother_setup", idx);
    lvl.smoother = build_smoother(&mut a_level, nc, marker.as_deref(), cfg);
    drop(smoother_span);
    lvl.a = a_level;
    Ok(())
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
        frozen: &mut FrozenSetup,
        cfg: &AmgConfig,
    ) -> Result<(), RefreshError> {
        let nl = frozen.levels.len();
        // The commit point: one past the last level that can be refused,
        // a composed scheme re-run without a tape (see `refresh_interp`).
        let fallible = |l: &usize| matches!(frozen.levels[*l].interp, FrozenInterp::Rerun(_));
        let commit = (0..nl).rev().find(fallible).map_or(0, |l| l + 1);
        let mut staged = Vec::with_capacity(commit);
        for idx in 0..nl {
            // The operand: `a` at the top, below it the frozen RAP the
            // level above just filled, read where it lies.
            let (done, rest) = frozen.levels.split_at_mut(idx);
            let (current, fl) = (done.last().map_or(a, |prev| &prev.rap), &mut rest[0]);
            let marker = marker(&self.levels[idx].smoother);
            if idx < commit {
                let tape = matches!(fl.interp, FrozenInterp::Tape(_));
                staged.push(staging_copy(&self.levels[idx], tape));
                refresh_level(&mut staged[idx], marker, current, fl, idx, cfg)?;
                if idx + 1 == commit {
                    self.levels.splice(..commit, staged.drain(..));
                }
            } else {
                refresh_level(&mut self.levels[idx], marker, current, fl, idx, cfg)?;
            }
        }

        // --- Coarsest level: replaced where it lies, its LU refactored. ---
        self.levels.pop();
        self.coarse_lu = None;
        let coarsest = frozen.levels.last().map_or(a, |fl| &fl.rap).clone();
        let (coarsest, coarse_lu) = coarsest_level(coarsest, nl, cfg);
        self.levels.push(coarsest);
        self.coarse_lu = coarse_lu;
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
        vec![
            AmgConfig::single_node_paper(),
            AmgConfig::single_node_baseline(),
            AmgConfig::multi_node_mp(),
            AmgConfig::multi_node_2s_ei444(),
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
        let pattern = c.rowptr().iter().chain(c.colidx()).map(|&v| v as u64);
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
        let at = singular.row_range(5).find(|&k| singular.colidx()[k] == 5);
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
}
