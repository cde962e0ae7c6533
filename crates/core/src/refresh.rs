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
//! build recorded, straight onto the frozen kept set — numeric-only RAP
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
//! * A mismatched input pattern, or values that drive an interpolation
//!   builder off the frozen sparsity, returns
//!   [`RefreshError::PatternMismatch`] and leaves the hierarchy in its
//!   previous (fully usable) state — never a silently wrong answer. The
//!   refresh is transactional: new levels are assembled on the side and
//!   swapped in only after every level succeeds.
//! * Under the `validate` feature each refresh cross-checks itself
//!   against a from-scratch build and panics if any level drifts beyond
//!   1e-12, catching value changes that silently flip a frozen decision
//!   (e.g. a strength threshold crossing).

use crate::coarsen::Coarsening;
use crate::hierarchy::{build_interp, build_smoother, coarsest_level, extract_fine_block};
use crate::hierarchy::{Hierarchy, Level, TransferOps};
use crate::interp::{CfMap, ExtITape};
use crate::params::{AmgConfig, InterpKind};
use crate::stats::PhaseTimes;
use famg_sparse::dense::LuFactor;
use famg_sparse::permute::permute_symmetric;
use famg_sparse::transpose::transpose_par;
use famg_sparse::triple::{rap_cf_numeric, rap_row_fused_numeric, rap_scalar_fused_numeric};
use famg_sparse::Csr;

/// Everything pattern-derived about one level, captured at build time: a
/// frozen level records *decisions* — the strength pattern, the CF
/// splitting, `P`'s kept set, the RAP pattern and, for extended+i, the
/// weight circuit — and nothing else. The transforms that only move
/// values (the CF permutation with the level's stored [`Permutation`],
/// `P_Fᵀ`, the CF-block read of `A_perm` inside the RAP kernel) are not
/// encoded a second time: refresh runs the kernels the build ran.
///
/// `s`, `stage1`, `final_c`, `cf`, `p` and the tape are stored in the
/// level's *raw* ordering on both paths: that of the operator the level was
/// handed, which strength, coarsening and the interpolation builders read.
/// The CF permutation touches only what RAP and the smoother read.
///
/// [`Permutation`]: famg_sparse::permute::Permutation
#[derive(Debug)]
pub struct FrozenLevel {
    /// Strength matrix. Only its pattern is consumed on refresh (the
    /// interpolation builders read `a`'s values directly and `s`'s
    /// pattern only), so the values are freeze-time stale by design.
    pub(crate) s: Csr,
    /// First-stage coarsening for the aggressive schemes.
    pub(crate) stage1: Option<Coarsening>,
    /// Final coarsening.
    pub(crate) final_c: Coarsening,
    /// CF map the interpolation builders were invoked with.
    pub(crate) cf: CfMap,
    /// Frozen interpolation pattern (full `n × nc` form); a refreshed
    /// operator is written over a copy of it or must land exactly on it.
    pub(crate) p: Csr,
    /// Numeric replay tape for extended+i levels: the arithmetic circuit
    /// the build's interpolation run recorded, kept set included, so
    /// refresh skips structure discovery and projection. Index streams
    /// only, no operator. `None` for other schemes.
    pub(crate) tape: Option<ExtITape>,
    /// Frozen coarse-operator pattern. The values are scratch space: a
    /// refresh fills them with the numeric RAP kernels and the next level
    /// reads its operator from here, never across refreshes (scribbled
    /// even by a failed refresh — harmless, every refresh rewrites them
    /// top-down before it reads them).
    pub(crate) rap: Csr,
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
}

/// Why a refresh was refused. The hierarchy is untouched in every case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefreshError {
    /// The new operator (level 0) or a rebuilt interpolation operator
    /// (level ≥ 0) does not match the frozen sparsity structure.
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

/// Projects an untruncated interpolation operator onto a frozen truncated
/// pattern, replaying [`crate::interp::truncate_row`]'s row-sum-preserving
/// rescale over the frozen kept set (direct and classical; an extended+i
/// tape lands on the kept set by itself).
///
/// When the new values would have led truncation to the same kept set,
/// this is bitwise identical to truncating from scratch (`sum_before`
/// accumulates the raw row in emit order, `sum_after` the kept entries in
/// frozen order — the exact same additions `truncate_row` performs).
/// When the kept set *would* have drifted, the frozen sparsity wins: the
/// result is still a consistent row-sum-preserving operator, just not the
/// one a from-scratch truncation would pick (the classic frozen-symbolic
/// trade; the `validate` cross-check reports such drift).
pub(crate) fn project_onto_frozen(raw: &Csr, frozen: &Csr) -> Csr {
    let n = frozen.nrows();
    debug_assert_eq!(raw.nrows(), n);
    debug_assert_eq!(raw.ncols(), frozen.ncols());
    let mut values = vec![0.0f64; frozen.nnz()];
    // Row-stamped markers: position of each column in the raw row.
    let mut stamp = vec![usize::MAX; frozen.ncols()];
    let mut pos = vec![0usize; frozen.ncols()];
    for i in 0..n {
        for (k, &c) in raw.row_cols(i).iter().enumerate() {
            stamp[c] = i;
            pos[c] = k;
        }
        let rvals = raw.row_vals(i);
        let sum_before: f64 = rvals.iter().sum();
        let out = &mut values[frozen.row_range(i)];
        let mut sum_after = 0.0f64;
        for (o, &c) in out.iter_mut().zip(frozen.row_cols(i)) {
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

/// Rebuilds the interpolation weights for one level over the frozen
/// inputs.
///
/// Truncation's kept-set selection is itself a frozen pattern decision, so
/// refresh never re-runs it for the single-shot schemes: extended+i replays
/// its tape straight onto the kept set; direct and classical recompute raw
/// weights and project them onto the frozen sparsity. The composed schemes
/// (multipass, two-stage) truncate *inside* their stages, so they are
/// re-run in full and must land exactly on the frozen pattern; drifting off
/// it is an error.
fn refresh_interp(
    a: &Csr,
    fl: &FrozenLevel,
    level: usize,
    cfg: &AmgConfig,
) -> Result<Csr, RefreshError> {
    let (_, ikind) = cfg.level_scheme(level);
    let raw = match (fl.tape.as_ref(), ikind) {
        // A level has a tape iff its scheme is extended+i, which replays
        // its frozen arithmetic circuit — no structure discovery, just
        // indexed loads and flops.
        (Some(tape), _) => {
            let replayed = tape.replay(a, &fl.p);
            return replayed.map_err(|e| RefreshError::PatternMismatch { level, what: e.0 });
        }
        (None, InterpKind::Direct) => crate::interp::direct(a, &fl.s, &fl.cf, None),
        (None, InterpKind::Classical) => crate::interp::classical(a, &fl.s, &fl.cf, None),
        (None, _) => {
            let (p, _) = build_interp(
                a,
                &fl.s,
                &fl.cf,
                fl.stage1.as_ref(),
                &fl.final_c,
                ikind,
                cfg,
                false,
            );
            return if p.same_pattern(&fl.p) {
                Ok(p)
            } else {
                Err(RefreshError::PatternMismatch {
                    level,
                    what: "interpolation operator",
                })
            };
        }
    };
    Ok(project_onto_frozen(&raw, &fl.p))
}

impl Hierarchy {
    /// Absorbs a same-pattern operator: re-runs only the value-derived
    /// setup stages over `frozen`'s pattern-derived structure. On success
    /// the hierarchy is bitwise identical to `Hierarchy::build(a, cfg)`
    /// whenever `a`'s values induce the same frozen decisions; on error
    /// the hierarchy is left unchanged.
    pub fn refresh(&mut self, a: &Csr, frozen: &mut FrozenSetup) -> Result<(), RefreshError> {
        if !frozen.matches_pattern(a) {
            return Err(RefreshError::PatternMismatch {
                level: 0,
                what: "finest operator",
            });
        }
        if frozen.levels.len() + 1 != self.levels.len() {
            return Err(RefreshError::PatternMismatch {
                level: 0,
                what: "level count",
            });
        }
        let cfg = self.config.clone();
        // Root span: the refresh is a (numeric-only) setup, so its tree
        // reuses the setup span names and buckets into the same Fig. 5
        // categories via `PhaseTimes::from_span`.
        let root_span = famg_prof::scope("refresh");
        let built = self.refresh_levels(a, frozen, &cfg);
        // Close and capture the span tree unconditionally — also on the
        // error path, so a failed refresh cannot leak completed spans
        // into the next capture — and before validate_refresh, whose
        // nested full build captures its own profile and must see a
        // clean span stack.
        drop(root_span);
        let profile = famg_prof::take();
        let (levels, coarse_lu) = built?;
        let times = profile
            .find_root("refresh")
            .map(PhaseTimes::from_span)
            .unwrap_or_default();

        #[cfg(feature = "validate")]
        validate_refresh(&levels, a, &cfg);

        // Commit only now that every level succeeded.
        self.levels = levels;
        self.coarse_lu = coarse_lu;
        self.times = times;
        self.profile = profile;
        Ok(())
    }

    /// The fallible middle of [`Hierarchy::refresh`]: rebuilds every
    /// level's numeric content over the frozen structure. Split out so
    /// the caller can close the root profiler span and drain the
    /// collector on *both* the success and error paths.
    fn refresh_levels(
        &self,
        a: &Csr,
        frozen: &mut FrozenSetup,
        cfg: &AmgConfig,
    ) -> Result<(Vec<Level>, Option<LuFactor>), RefreshError> {
        let mut levels: Vec<Level> = Vec::with_capacity(self.levels.len());

        for idx in 0..frozen.levels.len() {
            // The operator of level `idx` is `a` at the top and below it
            // the frozen RAP the previous level just filled; it is read in
            // place, and copied only where a level has to own it.
            let (done, rest) = frozen.levels.split_at_mut(idx);
            let current = done.last().map_or(a, |prev| &prev.rap);
            let fl = &mut rest[0];
            let nc = fl.cf.nc;
            // --- Interpolation weights, on the raw ordering like the
            // build's (the tape's positions are positions in `current`). ---
            let interp_span = famg_prof::scope_at("interp", idx);
            let p = refresh_interp(current, fl, idx, cfg);
            drop(interp_span);
            let p = p?;
            if cfg.opt.cf_reorder {
                // --- Optimized path: reuse the frozen permutation. ---
                let reorder_span = famg_prof::scope_at("cf_reorder", idx);
                let perm = self.levels[idx]
                    .perm
                    .clone()
                    .expect("cf_reorder level must carry a permutation");
                let ap = permute_symmetric(current, &perm);
                drop(reorder_span);

                let extract_span = famg_prof::scope_at("extract_p", idx);
                let pf = extract_fine_block(&p, &perm, nc, idx);
                let pft = transpose_par(&pf);
                drop(extract_span);

                // --- Numeric-only RAP into the frozen coarse pattern. ---
                let rap_span = famg_prof::scope_at("rap", idx);
                rap_cf_numeric(&ap, nc, &pf, &pft, &mut fl.rap);
                drop(rap_span);

                let smoother_span = famg_prof::scope_at("smoother_setup", idx);
                let mut ap = ap;
                let smoother = build_smoother(&mut ap, nc, None, cfg);
                drop(smoother_span);

                levels.push(Level {
                    a: ap,
                    perm: Some(perm),
                    nc,
                    ops: Some(TransferOps::CfBlock { pf, pft }),
                    smoother,
                });
            } else {
                // --- Baseline path: original ordering throughout. ---
                let rap_span = famg_prof::scope_at("rap", idx);
                let r = transpose_par(&p);
                if cfg.opt.row_fused_rap {
                    rap_row_fused_numeric(&r, current, &p, &mut fl.rap);
                } else {
                    rap_scalar_fused_numeric(&r, current, &p, &mut fl.rap);
                }
                drop(rap_span);

                let smoother_span = famg_prof::scope_at("smoother_setup", idx);
                let mut cur = current.clone();
                let smoother = build_smoother(&mut cur, nc, Some(&fl.final_c.is_coarse), cfg);
                let r_kept = cfg.opt.keep_transpose.then_some(r);
                drop(smoother_span);

                levels.push(Level {
                    a: cur,
                    perm: None,
                    nc,
                    ops: Some(TransferOps::Full { p, r: r_kept }),
                    smoother,
                });
            }
        }

        // --- Coarsest level: refactor LU over the new values. ---
        let coarsest = frozen.levels.last().map_or(a, |fl| &fl.rap).clone();
        let (coarsest, coarse_lu) = coarsest_level(coarsest, frozen.levels.len(), cfg);
        levels.push(coarsest);
        Ok((levels, coarse_lu))
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
    use famg_matgen::{laplace2d, varcoef3d_7pt};

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
        // `Hierarchy::refresh` guards level 0 itself; the tape's own guard
        // is what stands between a wrong operand and its index streams.
        let cfg = AmgConfig::single_node_paper();
        let (_, frozen) = Hierarchy::build_frozen(&laplace2d(24, 24), &cfg);
        let err = refresh_interp(&laplace2d(24, 23), &frozen.levels[0], 0, &cfg).unwrap_err();
        let what = "extended+i tape operand";
        assert_eq!(err, RefreshError::PatternMismatch { level: 0, what });
    }

    #[test]
    fn refresh_covers_all_interp_kinds() {
        let (nx, ny, nz) = (10, 10, 6);
        let a1 = varcoef3d_7pt(nx, ny, nz, &fields(nx, ny, nz, 0.1));
        let a2 = varcoef3d_7pt(nx, ny, nz, &fields(nx, ny, nz, 0.9));
        for ikind in [
            InterpKind::Direct,
            InterpKind::Classical,
            InterpKind::ExtendedI,
        ] {
            let cfg = AmgConfig {
                interp: ikind,
                ..AmgConfig::single_node_paper()
            };
            let (mut h, mut frozen) = Hierarchy::build_frozen(&a1, &cfg);
            h.refresh(&a2, &mut frozen).unwrap();
            let full = Hierarchy::build(&a2, &cfg);
            for (lvl, (r, f)) in h.levels.iter().zip(&full.levels).enumerate() {
                assert_eq!(r.a, f.a, "{ikind:?} level {lvl}");
            }
        }
    }
}
