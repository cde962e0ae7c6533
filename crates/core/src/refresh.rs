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
//! captures the pattern-derived half of the leading levels — CF-permuted,
//! rows partitioned for the reordered smoother, interpolated by extended+i
//! with a tape — into a [`FrozenSetup`], and stops at the first level
//! without a tape (a composed scheme, a row past the tape's 16 bits).
//! [`Hierarchy::refresh`]
//! replays those levels with numeric passes only, each over the operator
//! the hierarchy stores, which is the level's only copy. The partition is
//! the smoother's and depends on the pattern alone; the build's RAP read
//! each row in the order it had before it, so capture records that order
//! (two bits an entry) and a refresh holds an operator in it from the
//! moment it is written until its own RAP has read it. Per replayed level:
//!
//! 1. the operator arrives in that order: level 0's written from the
//!    caller's through the level's permutation, a coarser one by the RAP
//!    of the level above;
//! 2. the extended+i circuit its build recorded on the raw operator, whose
//!    in-row order this one keeps, replays straight into the level's `P_F`;
//! 3. `P_Fᵀ` is refilled in its own buffers;
//! 4. the numeric-only RAP writes each coarse row into the next level's
//!    stored row, matched by column, after putting that operator's
//!    pattern back in its pre-partition order;
//! 5. the operator is partitioned again and the smoother refills its
//!    diagonal: its partition and task ranges are the pattern's.
//!
//! Where replay stops, at the first level the build did not record: when
//! it is the coarsest, its smoother's diagonal and the dense LU are redone
//! from the stored operator. Otherwise the last replayed level's RAP is
//! the build's own product, the level's raw operator, and the setup's
//! level loop runs from there, so every level below is a fresh build by
//! construction, at its cost, and keeps no frozen state.
//!
//! ## Refresh contract
//!
//! * Refresh with the operator the hierarchy was frozen from — or any
//!   same-pattern operator whose values induce the same frozen decisions
//!   on the replayed levels — yields a hierarchy bitwise identical to a
//!   from-scratch [`Hierarchy::build`] on that operator.
//! * A mismatched input pattern or a [`FrozenSetup`] of another hierarchy
//!   returns [`RefreshError::PatternMismatch`] and leaves every level
//!   bitwise as it was: the guard runs before any write. Past it a
//!   refresh does not refuse.
//! * A *panic* past it (a zero diagonal, `FrozenRow::add`'s range test)
//!   leaves a level being rewritten with an empty operator — operators are
//!   moved out of their level while they are written, and the levels a
//!   refresh rebuilds are dropped first — which
//!   [`Hierarchy::check_shape`], `try_` solves and the next refresh refuse.
//! * A refresh does not re-make the frozen decisions, so values that would
//!   flip one (a strength threshold crossing, say) give a consistent
//!   Galerkin hierarchy that is no longer the one a full setup would
//!   build. `tests/reference_amg.rs` pins refreshed hierarchies to the
//!   reference AMG on the operator they absorbed.

use crate::hierarchy::{coarse_lu, Hierarchy, Level, TransferOps};
use crate::interp::ExtITape;
use crate::params::AmgConfig;
use crate::stats::PhaseTimes;
use famg_sparse::permute::{copy_values_by_column, permute_symmetric_into, RowOrder};
use famg_sparse::transpose::transpose_par_into;
use famg_sparse::triple::{rap_cf, rap_cf_numeric_into};
use famg_sparse::{Col, Csr};
use std::borrow::Cow;

/// Everything pattern-derived about one recorded level that the live level
/// does not already hold: each *decision*, once. The permutation, the
/// transfer operators' patterns and the smoother's row partition stay where
/// the build put them, and a refresh writes values over them.
#[derive(Debug)]
pub struct FrozenLevel {
    /// The level's interpolation: the extended+i circuit its build
    /// recorded, kept set included, in offsets within rows. It replays on
    /// the level's stored operator into the live `P_F`, so no operator is
    /// kept beside.
    pub(crate) interp: ExtITape,
    /// Number of coarse points: the rows of the next level.
    pub(crate) nc: usize,
    /// `(rows, nonzeros)` of the next level's operator, for the guard.
    pub(crate) next: (usize, usize),
    /// The in-row order the level's stored operator had when the build's
    /// RAP read it, before the reordered smoother partitioned its rows.
    pub(crate) order: RowOrder,
}

/// Pattern-derived setup state captured by [`Hierarchy::build_frozen`].
#[derive(Debug)]
pub struct FrozenSetup {
    /// Finest-level row pointer, for the input-pattern guard.
    pub(crate) fine_rowptr: Vec<usize>,
    /// Finest-level column indices, for the input-pattern guard.
    pub(crate) fine_colidx: Vec<Col>,
    /// The recorded levels, finest first: every level above the coarsest
    /// with the paper's single-node configuration, none with a composed
    /// scheme on level 0.
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

    /// Every refusal a refresh makes, all before a level is written: the
    /// input pattern, each tape's operand, per recorded level whether
    /// `levels` is the hierarchy this was frozen with, and the operator of
    /// the first level not recorded.
    fn check(&self, a: &Csr, levels: &[Level]) -> Result<(), RefreshError> {
        let mismatch = |level, what| Err(RefreshError::PatternMismatch { level, what });
        if !self.matches_pattern(a) {
            return mismatch(0, "finest operator");
        }
        // Each level's operator: the input's shape at the top, below it
        // the one frozen beside the level above.
        let mut shape = (a.nrows(), a.nnz());
        let same =
            |lvl: Option<&Level>, shape| lvl.is_some_and(|l| (l.a.nrows(), l.a.nnz()) == shape);
        for (idx, fl) in self.levels.iter().enumerate() {
            if fl.interp.a_shape != shape {
                return mismatch(idx, "extended+i tape operand");
            }
            let lvl = levels.get(idx);
            // `P` in its full form: `P_F` lacks one unit row per C-point.
            let stored = lvl.is_some_and(|l| match (&l.ops, &l.perm) {
                (Some(TransferOps { pf, .. }), Some(q)) => {
                    let p_shape = (pf.nrows() + l.nc, pf.nnz() + l.nc);
                    (q.len(), l.nc, p_shape) == (shape.0, fl.nc, (shape.0, fl.interp.p_nnz))
                }
                _ => false,
            });
            if !stored || !same(lvl, shape) || fl.order.len() != shape.1 {
                return mismatch(idx, "frozen setup");
            }
            shape = fl.next;
        }
        // Where replay stops: the coarsest level, or the first one rebuilt.
        let stop = self.levels.len();
        if !same(levels.get(stop), shape) {
            return mismatch(stop, "frozen setup");
        }
        Ok(())
    }
}

/// Why a refresh was refused. Every refusal comes from the guard, before
/// any write, so the hierarchy is untouched in every case; past the guard
/// a refresh does not refuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefreshError {
    /// The new operator or the frozen setup does not match the frozen
    /// sparsity structure.
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

/// Replays recorded level `idx` where it lies. Its operator arrives from
/// the level above — `incoming`, written, with its rows in the in-row
/// order the build's RAP read — or, at the top, is taken out of `lvl` and
/// written from the caller's `input`. It goes back into `lvl` partitioned
/// for the smoother. Returns the next level's operator: taken out of
/// `next` and written in that same order (its recorded order, when it has
/// one, undoes its partition first), or without `next` the build's own
/// product, the raw operator a rebuild starts from.
fn refresh_level(
    lvl: &mut Level,
    next: Option<(&mut Level, Option<&RowOrder>)>,
    incoming: Option<Csr>,
    input: Option<&Csr>,
    fl: &FrozenLevel,
    idx: usize,
) -> Csr {
    let (Some(q), Some(TransferOps { pf, pft })) = (&lvl.perm, &mut lvl.ops) else {
        unreachable!("the refresh guard found level {idx} CF-permuted");
    };
    let nc = fl.nc;
    let mut a = incoming.unwrap_or_else(|| std::mem::replace(&mut lvl.a, Csr::zero(0, 0)));
    if let Some(input) = input {
        let _span = famg_prof::scope_at("cf_reorder", idx);
        permute_symmetric_into(input, q, &mut a);
    }

    // --- Interpolation weights: fine point `i` is row `q(i)` of `a`, and
    // row `q(i) − nc` of `P_F`. ---
    let interp_span = famg_prof::scope_at("interp", idx);
    fl.interp.replay_into(&a, |i| q.forward[i], pf);
    drop(interp_span);

    // --- The transpose, then the RAP: numeric-only into the next level's
    // operator, moved out of it while it is written. ---
    let extract_span = famg_prof::scope_at("extract_p", idx);
    transpose_par_into(pf, pft);
    drop(extract_span);
    let a_next = if let Some((next, order)) = next {
        let mut a_next = std::mem::replace(&mut next.a, Csr::zero(0, 0));
        if let Some(order) = order {
            let _span = famg_prof::scope_at("row_order", idx + 1);
            order.restore_pattern(&mut a_next);
        }
        let _span = famg_prof::scope_at("rap", idx);
        rap_cf_numeric_into(&a, nc, pf, pft, &mut a_next, next.perm.as_ref());
        a_next
    } else {
        let _span = famg_prof::scope_at("rap", idx);
        rap_cf(&a, nc, pf, pft)
    };

    // --- Back to the smoother's layout; only its diagonal moves. ---
    let order_span = famg_prof::scope_at("row_order", idx);
    fl.order.partition(&mut a);
    drop(order_span);
    let _span = famg_prof::scope_at("smoother_setup", idx);
    lvl.smoother.refill_diagonal(&a);
    lvl.a = a;
    a_next
}

impl Hierarchy {
    /// Absorbs a same-pattern operator: replays the value-derived setup
    /// stages of the recorded levels over `frozen`'s pattern-derived
    /// structure, in place, and rebuilds the levels below them. On success
    /// the hierarchy is bitwise identical to `Hierarchy::build(a, cfg)`
    /// whenever `a`'s values induce the same frozen decisions; the only
    /// refusals come from the guard, before any write, and leave it
    /// bitwise unchanged (see the [module docs](crate::refresh), also for
    /// panics).
    pub fn refresh(&mut self, a: &Csr, frozen: &mut FrozenSetup) -> Result<(), RefreshError> {
        frozen.check(a, &self.levels)?;
        let cfg = self.config.clone();
        // Root span: the refresh is a (numeric-only) setup, so its tree
        // reuses the setup span names and buckets into the same Fig. 5
        // categories via `PhaseTimes::from_span`.
        let root_span = famg_prof::scope("refresh");
        self.refresh_levels(a, frozen, &cfg);
        drop(root_span);
        let profile = famg_prof::take();
        self.times = profile
            .find_root("refresh")
            .map(PhaseTimes::from_span)
            .unwrap_or_default();
        self.profile = profile;
        Ok(())
    }

    /// The body of [`Hierarchy::refresh`] past its guard: replays the
    /// recorded levels, then redoes the coarsest level's numeric content
    /// or rebuilds every level from the first one not recorded.
    fn refresh_levels(&mut self, a: &Csr, frozen: &FrozenSetup, cfg: &AmgConfig) {
        let stop = frozen.levels.len();
        // The levels a refresh rebuilds are dropped before it starts, as
        // a build has none of them.
        let rebuild = stop + 1 < self.levels.len();
        if rebuild {
            self.levels.truncate(stop);
            let stats = &mut self.stats;
            for rows in [
                &mut stats.level_rows,
                &mut stats.level_nnz,
                &mut stats.interp_nnz,
            ] {
                rows.truncate(stop);
            }
        }
        let mut incoming = None;
        for (idx, fl) in frozen.levels.iter().enumerate() {
            let (upper, lower) = self.levels.split_at_mut(idx + 1);
            let next_order = frozen.levels.get(idx + 1).map(|l| &l.order);
            let next = lower.first_mut().map(|next| (next, next_order));
            let input = (idx == 0).then_some(a);
            incoming = Some(refresh_level(
                &mut upper[idx],
                next,
                incoming,
                input,
                fl,
                idx,
            ));
        }

        self.coarse_lu = None;
        if rebuild {
            let raw = incoming.map_or(Cow::Borrowed(a), Cow::Owned);
            let (below, lu) = Hierarchy::build_levels(raw, stop, cfg, None, &mut self.stats);
            self.levels.extend(below);
            self.coarse_lu = lu;
            return;
        }
        // --- Coarsest level: its smoother's diagonal and LU, redone from
        // its operator (the caller's values, when it is the only level). ---
        let _span = famg_prof::scope_at("coarse", stop);
        let coarsest = self.levels.last_mut().expect("a hierarchy has a level");
        let op = incoming.unwrap_or_else(|| {
            let mut op = std::mem::replace(&mut coarsest.a, Csr::zero(0, 0));
            copy_values_by_column(a, &mut op);
            op
        });
        coarsest.smoother.refill_diagonal(&op);
        self.coarse_lu = coarse_lu(&op, cfg);
        coarsest.a = op;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{vcycle, CycleWorkspace};
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

    fn configs() -> [AmgConfig; 3] {
        [
            AmgConfig::single_node_paper(),
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
                    (Some(ro), Some(fo)) => {
                        assert_eq!(ro.pf, fo.pf, "P_F differs at level {lvl}");
                        assert_eq!(ro.pft, fo.pft, "P_Fᵀ differs at level {lvl}");
                    }
                    _ => panic!("transfer operators differ at level {lvl}"),
                }
            }
            // The smoothers and the coarse LU too, through a V-cycle.
            assert_eq!(fingerprint(&h), fingerprint(&full), "{:?}", cfg.interp);
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
            if let Some(TransferOps { pf, pft }) = &lvl.ops {
                f = hash_csr(hash_csr(f, pf), pft);
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
        let base = AmgConfig::single_node_paper();
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

    #[test]
    fn a_rebuilt_level_follows_values_that_would_change_its_interpolation() {
        // Level 0 of `mp` and `2s_ei444` is composed, so nothing is
        // recorded and a refresh rebuilds every level.
        let (nx, ny, nz) = (12, 12, 8);
        let base = fields(nx, ny, nz, 0.0);
        let a = varcoef3d_7pt(nx, ny, nz, &base);
        // Every sign holds, but the largest weights change places: level
        // 0's truncation keeps another set.
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
            for next in [&rough, &smooth] {
                assert_eq!(h.refresh(next, &mut frozen), Ok(()), "{:?}", cfg.interp);
                let fresh = fingerprint(&Hierarchy::build(next, &cfg));
                assert_eq!(fingerprint(&h), fresh, "{:?}", cfg.interp);
            }
        }
    }

    #[test]
    fn a_solver_refreshed_onto_other_level_sizes_solves_as_a_fresh_one() {
        // The rebuilt levels of `rough` coarsen to other sizes than those
        // of `a`: the solver's cycle workspace must follow them.
        let (nx, ny, nz) = (12, 12, 8);
        let base = fields(nx, ny, nz, 0.0);
        let a = varcoef3d_7pt(nx, ny, nz, &base);
        let rough: Vec<f64> = (base.iter().enumerate())
            .map(|(i, k)| k * (1.0 + 0.8 * ((i * 7 % 11) as f64 / 11.0)))
            .collect();
        let rough = varcoef3d_7pt(nx, ny, nz, &rough);
        let b = vec![1.0; a.nrows()];
        let cfg = AmgConfig::multi_node_2s_ei444();
        let mut solver = AmgSolver::setup_refreshable(&a, &cfg);
        let fresh = AmgSolver::setup(&rough, &cfg);
        let rows = |s: &AmgSolver| s.hierarchy().stats.level_rows.clone();
        assert_ne!(rows(&solver), rows(&fresh));
        solver.refresh(&rough).unwrap();
        assert_eq!(rows(&solver), rows(&fresh));
        let (mut x1, mut x2) = (vec![0.0; a.nrows()], vec![0.0; a.nrows()]);
        let (r1, r2) = (solver.solve(&b, &mut x1), fresh.solve(&b, &mut x2));
        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(x1, x2);
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
        let mut solver = AmgSolver::setup_refreshable(&a, &AmgConfig::single_node_paper());
        let refresh = AssertUnwindSafe(|| solver.refresh(&singular));
        assert!(std::panic::catch_unwind(refresh).is_err());
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

    #[test]
    fn a_single_level_hierarchy_refreshes_bitwise() {
        // The input's values go straight into the coarsest operator, whose
        // rows the smoother partitioned: a tiny operator with its dense LU,
        // and a larger one capped at one level.
        let cases = [((4, 4, 3), None), ((12, 12, 8), Some(1))];
        for ((nx, ny, nz), max_levels) in cases {
            let a1 = varcoef3d_7pt(nx, ny, nz, &fields(nx, ny, nz, 0.0));
            let a2 = varcoef3d_7pt(nx, ny, nz, &fields(nx, ny, nz, 0.35));
            let paper = AmgConfig::single_node_paper();
            let cfg = AmgConfig {
                max_levels: max_levels.unwrap_or(paper.max_levels),
                ..paper
            };
            let (mut h, mut frozen) = Hierarchy::build_frozen(&a1, &cfg);
            assert_eq!(h.num_levels(), 1, "{nx}x{ny}x{nz}");
            assert_eq!(h.coarse_lu.is_some(), max_levels.is_none());
            h.refresh(&a2, &mut frozen).unwrap();
            let full = Hierarchy::build(&a2, &cfg);
            assert_eq!(h.levels[0].a, full.levels[0].a);
            let lu = |h: &Hierarchy| format!("{:?}", h.coarse_lu);
            assert_eq!(lu(&h), lu(&full));
            assert_eq!(fingerprint(&h), fingerprint(&full));
        }
    }

    #[test]
    fn a_row_past_16_bits_records_no_level() {
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
        let cfg = AmgConfig::single_node_paper();
        let (mut h, mut frozen) = Hierarchy::build_frozen(&a, &cfg);
        assert!(h.num_levels() >= 2);
        assert!(frozen.levels.is_empty());
        for next in [&a2, &a] {
            h.refresh(next, &mut frozen).unwrap();
            let fresh = fingerprint(&Hierarchy::build(next, &cfg));
            assert_eq!(fingerprint(&h), fresh);
        }
    }

    #[test]
    fn a_composed_scheme_below_level_0_refreshes_bitwise() {
        // Levels 0 and 1 are composed: nothing is recorded, and a refresh
        // rebuilds both.
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
            assert!(frozen.levels.is_empty(), "{:?}", cfg.interp);
            h.refresh(&smooth, &mut frozen).unwrap();
            let fresh = fingerprint(&Hierarchy::build(&smooth, &cfg));
            assert_eq!(fingerprint(&h), fresh, "{:?}", cfg.interp);
        }
    }
}
