//! Multigrid hierarchy construction — the AMG setup phase.
//!
//! Per level: strength matrix → coarsening → interpolation with fused
//! truncation → CF permutation of `A` → CF-block Galerkin RAP → reordered
//! smoother setup: the paper's `HYPRE_opt`. (`HYPRE_base`, the program
//! Fig. 5 compares it with, is `famg_bench::baseline`.)
//!
//! Setup is bound by memory traffic, so a level moves each operator once.
//! Strength, coarsening and interpolation read the level's *raw* operator
//! (the caller's at level 0, borrowed; the RAP of the level above below
//! it): §3.1.2's coarse-first permutation is one of `A`, for the triple
//! product and the smoother, and of `P`'s rows — here, taking `P`'s fine
//! rows in order. `S` is freed after interpolation, the raw
//! operator after the permutation and `P` once `P_F` is taken from it: a
//! level peaks in RAP, on `A_perm`, `P_F`, `P_Fᵀ` and the product
//! (DESIGN.md §3.4 has the table).

use crate::coarsen::{aggressive_pmis_stages, pmis, Coarsening};
use crate::interp::{extended_i, multipass, two_stage_extended_i, CfMap, ExtITape, TruncParams};
use crate::params::{AmgConfig, CoarsenKind, InterpKind};
use crate::refresh::{FrozenLevel, FrozenSetup};
use crate::reorder::cf_reorder;
use crate::smoother::Smoother;
use crate::stats::{PhaseTimes, SetupStats};
use crate::strength::strength;
use famg_sparse::dense::{DenseMatrix, LuFactor};
use famg_sparse::partition::{num_threads, split_evenly, split_mut_at};
use famg_sparse::permute::{Permutation, RowOrder};
use famg_sparse::transpose::transpose_par;
use famg_sparse::triple::rap_cf;
use famg_sparse::{Col, Csr};
use rayon::prelude::*;
use std::borrow::Cow;

/// Grid-transfer operators between a CF-permuted level and the next
/// coarser one: only the fine block `P_F` of `P = [I; P_F]` (the fine rows
/// of the interpolation operator, in point order) plus its transpose, kept
/// from setup.
#[derive(Debug, Clone)]
pub struct TransferOps {
    /// Fine rows of the interpolation operator (`nf × nc`).
    pub pf: Csr,
    /// `P_Fᵀ` (`nc × nf`).
    pub pft: Csr,
}

/// One multigrid level.
#[derive(Debug, Clone)]
pub struct Level {
    /// The operator: CF-permuted above the coarsest level, and each row's
    /// entries reordered for the smoother — neither affects SpMV semantics.
    pub a: Csr,
    /// The permutation mapping this level's raw index space (as produced
    /// by the parent's RAP) to the stored ordering. `None` = identity.
    pub perm: Option<Permutation>,
    /// Number of coarse points (rows of the next level); 0 at the
    /// coarsest level.
    pub nc: usize,
    /// Transfer operators to the next level (`None` at the coarsest).
    pub ops: Option<TransferOps>,
    /// The level smoother.
    pub smoother: Smoother,
}

/// The assembled AMG hierarchy.
#[derive(Debug)]
pub struct Hierarchy {
    /// Levels, finest first.
    pub levels: Vec<Level>,
    /// Dense factorization of the coarsest operator, when small enough.
    pub coarse_lu: Option<LuFactor>,
    /// Solver configuration the hierarchy was built with.
    pub config: AmgConfig,
    /// Per-level size statistics.
    pub stats: SetupStats,
    /// Setup-phase timing breakdown (Fig. 5 categories), derived from
    /// `profile` — a rollup view, not independent bookkeeping.
    pub times: PhaseTimes,
    /// Full span profile of the most recent setup (or refresh): per-level
    /// strength/coarsen/interp/RAP sub-spans plus the raw event timeline
    /// for chrome://tracing export. Empty when the `prof` feature is off.
    pub profile: famg_prof::Profile,
}

/// The level's reordered hybrid Gauss-Seidel (Fig. 2b), over `a` in its
/// stored ordering: CF-permuted, its coarse points the first `nc` rows.
/// With `record`, it also returns the in-row order its partition moved `a`
/// out of.
pub(crate) fn build_smoother(
    a: &mut Csr,
    nc: usize,
    cfg: &AmgConfig,
    record: bool,
) -> (Smoother, Option<RowOrder>) {
    // Task decomposition is part of the numerical method (Jacobi across
    // tasks); honour a pinned count when the config asks for
    // pool-size-independent behaviour.
    let nthreads = cfg
        .smoother_tasks
        .unwrap_or_else(famg_sparse::partition::num_threads);
    let mut order = record.then(|| RowOrder::new(a.nnz()));
    let smoother = Smoother::hybrid_opt_recording(a, nc, nthreads, order.as_mut());
    (smoother, order)
}

/// Builds the interpolation operator for one level according to the
/// configured scheme, truncating row by row as each row is built (§3.1.2).
/// Returns the full `n × nc` operator and, with `record` (a refreshable
/// build), the replay tape of an extended+i level whose rows fit the
/// tape's 16 bits: the recording run *is* that level's build.
fn build_interp(
    a: &Csr,
    s: &Csr,
    cf: &CfMap,
    stage1: Option<&Coarsening>,
    kind: InterpKind,
    cfg: &AmgConfig,
    record: bool,
) -> (Csr, Option<ExtITape>) {
    let t = TruncParams {
        factor: cfg.trunc_factor,
        max_elements: cfg.max_elements,
    };
    let p = match kind {
        InterpKind::ExtendedI if record => return ExtITape::capture(a, s, cf, Some(&t)),
        InterpKind::ExtendedI => extended_i(a, s, cf, Some(&t)),
        InterpKind::Multipass => multipass(a, s, cf, Some(&t)),
        InterpKind::TwoStageExtendedI => {
            let stage1 = stage1.expect("two-stage interpolation requires aggressive coarsening");
            let final_c = Coarsening::from_marker(cf.is_coarse.clone());
            // Two-stage truncates at every stage by definition.
            two_stage_extended_i(
                a,
                s,
                stage1,
                &final_c,
                cfg.strength_threshold,
                cfg.max_row_sum,
                Some(&t),
            )
        }
    };
    (p, None)
}

impl Hierarchy {
    /// Runs the AMG setup phase on `a`.
    pub fn build(a: &Csr, cfg: &AmgConfig) -> Hierarchy {
        Self::build_impl(a, cfg, None)
    }

    /// Runs the setup phase and additionally captures a [`FrozenSetup`]
    /// holding the pattern-derived decisions of the leading levels stored
    /// the paper's way with an extended+i tape, so later same-pattern
    /// operators can be absorbed through [`Hierarchy::refresh`] without
    /// re-running strength, coarsening, reordering, or symbolic RAP there.
    /// Below the first level that is not (a composed scheme, a row past
    /// the tape's 16 bits) nothing is kept, and a refresh rebuilds those
    /// levels at setup cost.
    pub fn build_frozen(a: &Csr, cfg: &AmgConfig) -> (Hierarchy, FrozenSetup) {
        let mut captured = Vec::new();
        let h = Self::build_impl(a, cfg, Some(&mut captured));
        let frozen = FrozenSetup {
            fine_rowptr: a.rowptr().to_vec(),
            fine_colidx: a.colidx().to_vec(),
            levels: captured,
        };
        (h, frozen)
    }

    fn build_impl(a: &Csr, cfg: &AmgConfig, capture: Option<&mut Vec<FrozenLevel>>) -> Hierarchy {
        assert_eq!(a.nrows(), a.ncols(), "AMG needs a square operator");
        // Root span for the whole setup; the Fig. 5 buckets are derived
        // from the captured tree after it closes.
        let root_span = famg_prof::scope("setup");
        let mut stats = SetupStats::default();
        // The level's operator on its raw ordering: the caller's at level
        // 0, read in place.
        let (levels, coarse_lu) = Self::build_levels(Cow::Borrowed(a), 0, cfg, capture, &mut stats);

        drop(root_span);
        let profile = famg_prof::take();
        let times = profile
            .find_root("setup")
            .map(PhaseTimes::from_span)
            .unwrap_or_default();

        Hierarchy {
            levels,
            coarse_lu,
            config: cfg.clone(),
            stats,
            times,
            profile,
        }
    }

    /// The setup's level loop from level `first` down: `current` is that
    /// level's operator on its raw ordering, and below it each level's is the
    /// RAP of the level above. Returns the levels from `first` on, the last the
    /// coarsest, with the coarsest's LU, and pushes their rows to `stats`.
    ///
    /// With `capture` (a refreshable build) it records each leading level
    /// built by extended+i with a tape, and stops recording at the first
    /// level that is not: a refresh rebuilds from there.
    pub(crate) fn build_levels(
        mut current: Cow<'_, Csr>,
        first: usize,
        cfg: &AmgConfig,
        mut capture: Option<&mut Vec<FrozenLevel>>,
        stats: &mut SetupStats,
    ) -> (Vec<Level>, Option<LuFactor>) {
        let mut levels: Vec<Level> = Vec::new();
        loop {
            let n = current.nrows();
            stats.level_rows.push(n);
            stats.level_nnz.push(current.nnz());
            let lvl_idx = first + levels.len();
            if cfg.stops_at(n, lvl_idx) {
                break;
            }

            // --- Strength + coarsening. ---
            let strength_span = famg_prof::scope_at("strength", lvl_idx);
            let s = strength(&current, cfg.strength_threshold, cfg.max_row_sum);
            drop(strength_span);
            let coarsen_span = famg_prof::scope_at("coarsen", lvl_idx);
            let (ckind, ikind) = cfg.level_scheme(lvl_idx);
            let (stage1, coarsening) = match ckind {
                CoarsenKind::Pmis => (None, pmis(&s, cfg.level_seed(lvl_idx))),
                CoarsenKind::AggressivePmis => {
                    let (first, fin) = aggressive_pmis_stages(&s, cfg.level_seed(lvl_idx));
                    (Some(first), fin)
                }
            };
            drop(coarsen_span);
            if AmgConfig::coarsening_stalls(n, coarsening.ncoarse) {
                break; // cannot coarsen further
            }
            let nc = coarsening.ncoarse;

            // --- Interpolation: the level's one run, on the raw ordering. ---
            let interp_span = famg_prof::scope_at("interp", lvl_idx);
            let cf = CfMap::new(coarsening.is_coarse.clone());
            let (p, tape) = build_interp(
                &current,
                &s,
                &cf,
                stage1.as_ref(),
                ikind,
                cfg,
                capture.is_some(),
            );
            drop(interp_span);
            stats.interp_nnz.push(p.nnz());
            // `S` is done with: freed before the level's largest allocations.
            drop(s);
            if tape.is_none() {
                capture = None;
            }

            // --- Permute `A` coarse-first, once; the raw one is then done with. ---
            let reorder_span = famg_prof::scope_at("cf_reorder", lvl_idx);
            let (mut ap, ord) = cf_reorder(&current, &coarsening.is_coarse);
            drop(reorder_span);
            drop(current);

            // --- P_F = the fine rows of `P`; keep the transpose. ---
            let extract_span = famg_prof::scope_at("extract_p", lvl_idx);
            let pf = extract_fine_block(&p, &ord.perm, nc, lvl_idx);
            let pft = transpose_par(&pf);
            drop(extract_span);
            // `P` is done with: freed before RAP.
            drop(p);

            // --- RAP over the CF blocks of `ap`, read in place. ---
            let rap_span = famg_prof::scope_at("rap", lvl_idx);
            let next = rap_cf(&ap, nc, &pf, &pft);
            drop(rap_span);

            // --- Smoother (reorders rows of `ap` in place). ---
            let smoother_span = famg_prof::scope_at("smoother_setup", lvl_idx);
            let (smoother, order) = build_smoother(&mut ap, nc, cfg, tape.is_some());
            drop(smoother_span);
            if let (Some(cap), Some(interp), Some(order)) = (capture.as_deref_mut(), tape, order) {
                // Recorded on the raw operand in in-row offsets, the tape
                // replays on the stored one as it is.
                let _span = famg_prof::scope_at("capture", lvl_idx);
                let next = (next.nrows(), next.nnz());
                cap.push(FrozenLevel {
                    interp,
                    nc,
                    next,
                    order,
                });
            }
            levels.push(Level {
                a: ap,
                perm: Some(ord.perm),
                nc,
                ops: Some(TransferOps { pf, pft }),
                smoother,
            });
            current = Cow::Owned(next);
        }

        let (coarsest, coarse_lu) = coarsest_level(current.into_owned(), first + levels.len(), cfg);
        levels.push(coarsest);
        (levels, coarse_lu)
    }

    /// Checks the structural invariants the cycle kernels rely on,
    /// returning a typed error instead of letting a hand-built hierarchy
    /// panic mid-cycle:
    ///
    /// * at least one level, square operators throughout;
    /// * `ops == None` exactly at the last level (it is the coarsest
    ///   marker the cycle recursion terminates on);
    /// * transfer-operator dimensions consistent with `nc` and the next
    ///   level's operator;
    /// * stored permutations sized to their level.
    pub fn check_shape(&self) -> Result<(), crate::solver::SolveError> {
        use crate::solver::SolveError::MalformedHierarchy;
        let fail = |level: usize, what: &'static str| Err(MalformedHierarchy { level, what });
        if self.levels.is_empty() {
            return fail(0, "hierarchy has no levels");
        }
        for (i, lvl) in self.levels.iter().enumerate() {
            let n = lvl.a.nrows();
            if lvl.a.ncols() != n {
                return fail(i, "level operator is not square");
            }
            if let Some(q) = &lvl.perm {
                if q.forward.len() != n {
                    return fail(i, "permutation length differs from the level size");
                }
            }
            let last = i + 1 == self.levels.len();
            let Some(ops) = &lvl.ops else {
                if last {
                    continue;
                }
                return fail(i, "non-coarsest level is missing its transfer operators");
            };
            if last {
                return fail(i, "coarsest level carries transfer operators");
            }
            let nc = lvl.nc;
            if self.levels[i + 1].a.nrows() != nc {
                return fail(i, "next level's row count differs from nc");
            }
            let TransferOps { pf, pft } = ops;
            if nc > n {
                return fail(i, "nc exceeds the level size");
            }
            if pf.nrows() != n - nc || pf.ncols() != nc {
                return fail(i, "P_F block has wrong dimensions");
            }
            if pft.nrows() != nc || pft.ncols() != n - nc {
                return fail(i, "P_F transpose has wrong dimensions");
            }
        }
        Ok(())
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Rows at the finest level.
    pub fn n(&self) -> usize {
        self.levels[0].a.nrows()
    }
}

/// The tail of every setup: the coarsest operator gets its smoother and,
/// when small enough, a dense LU factorization.
fn coarsest_level(mut a: Csr, idx: usize, cfg: &AmgConfig) -> (Level, Option<LuFactor>) {
    let _span = famg_prof::scope_at("coarse", idx);
    let coarse_lu = coarse_lu(&a, cfg);
    let (smoother, _) = build_smoother(&mut a, 0, cfg, false);
    let level = Level {
        a,
        perm: None,
        nc: 0,
        ops: None,
        smoother,
    };
    (level, coarse_lu)
}

/// The dense LU factorization of the coarsest operator, when it is small
/// enough for one (any in-row order: the dense matrix is the same).
pub(crate) fn coarse_lu(a: &Csr, cfg: &AmgConfig) -> Option<LuFactor> {
    if cfg.coarse_lu_fits(a.nrows()) {
        LuFactor::new(&DenseMatrix::from_csr(a))
    } else {
        None
    }
}

/// Takes `P_F` out of a full interpolation operator on the raw ordering:
/// its fine rows in point order (row `k` is the row of the point `perm`, a
/// [`cf_permutation`], sends to `nc + k`), allocated at their exact size.
///
/// `rap_cf`, restriction and prolongation never see the coarse rows and
/// assume each is the unit row `P[i, perm(i)] = 1` — the builders' column
/// numbering, `CfMap::cmap`, is `perm` on the coarse points only because
/// `cf_permutation` is stable. That is tested here, in release builds too.
///
/// # Panics
/// Panics, naming `level` and the row, when a coarse row is not that unit row.
///
/// [`cf_permutation`]: famg_sparse::permute::cf_permutation
pub(crate) fn extract_fine_block(p: &Csr, perm: &Permutation, nc: usize, level: usize) -> Csr {
    let n = p.nrows();
    assert_eq!(perm.len(), n, "level {level}: P and the CF permutation");
    let (coarse, fine) = perm.inverse.split_at(nc);
    coarse
        .par_iter()
        .enumerate()
        .with_min_len(4096)
        .for_each(|(c, &i)| {
            assert!(
                p.row_cols(i) == [Col::new(c)] && p.row_vals(i) == [1.0],
                "level {level}: coarse row {i} of P is not the unit row (column {c}, value 1)"
            );
        });
    // Run `r` of `0..=nc` is the fine rows between coarse rows `r − 1` and
    // `r`: contiguous in `p`, and `r` entries lower in `P_F`, one for each
    // coarse row before it. Blocks of runs copy in parallel.
    let prp = p.rowptr();
    let run = |r: usize| {
        let start = if r == 0 { 0 } else { prp[coarse[r - 1] + 1] };
        start..if r == nc { p.nnz() } else { prp[coarse[r]] }
    };
    let mut colidx = vec![Col::default(); p.nnz() - nc];
    let mut values = vec![0.0f64; p.nnz() - nc];
    let blocks = split_evenly(nc + 1, num_threads());
    let lens = blocks
        .iter()
        .map(|b| run(b.end - 1).end - run(b.start).start - (b.len() - 1));
    let mut parts: Vec<_> = blocks
        .iter()
        .zip(split_mut_at(&mut colidx, lens.clone()))
        .zip(split_mut_at(&mut values, lens))
        .collect();
    parts.par_iter_mut().for_each(|((runs, cols), vals)| {
        let mut at = 0;
        for src in runs.clone().map(run) {
            let to = at..at + src.len();
            at = to.end;
            cols[to.clone()].copy_from_slice(&p.colidx()[src.clone()]);
            vals[to].copy_from_slice(&p.values()[src]);
        }
    });
    // Every coarse row is one entry, and point `i`, the `k`-th fine one,
    // has `i − k` of them before it.
    let mut rowptr = vec![0usize; n - nc + 1];
    rowptr[1..]
        .par_iter_mut()
        .zip(fine.par_iter())
        .enumerate()
        .with_min_len(4096)
        .for_each(|(k, (end, &i))| *end = prp[i + 1] - (i - k));
    Csr::from_parts_unchecked(n - nc, p.ncols(), rowptr, colidx, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use famg_matgen::laplace2d;
    use famg_sparse::permute::cf_permutation;

    #[test]
    fn builds_multiple_levels_opt() {
        let a = laplace2d(32, 32);
        let h = Hierarchy::build(&a, &AmgConfig::single_node_paper());
        assert!(h.num_levels() >= 3, "levels: {}", h.num_levels());
        // Levels shrink.
        for w in h.stats.level_rows.windows(2) {
            assert!(w[1] < w[0]);
        }
        // Coarsest small enough for LU.
        assert!(h.coarse_lu.is_some());
    }

    #[test]
    fn operator_complexity_bounded() {
        // With ei(4) truncation the paper keeps operator complexity
        // small; ours must stay well below 3 on a 2D Laplacian.
        let a = laplace2d(40, 40);
        let h = Hierarchy::build(&a, &AmgConfig::single_node_paper());
        let oc = h.stats.operator_complexity();
        assert!(oc > 1.0 && oc < 3.0, "operator complexity {oc}");
    }

    #[test]
    fn max_levels_respected() {
        let a = laplace2d(64, 64);
        let mut cfg = AmgConfig::single_node_paper();
        cfg.max_levels = 3;
        let h = Hierarchy::build(&a, &cfg);
        assert!(h.num_levels() <= 3);
    }

    /// `P` on the raw ordering C F C F: rows 0 and 2 are the unit rows of
    /// coarse columns 0 and 1.
    fn interleaved_p(coarse_row_2: (usize, f64)) -> (Csr, Permutation) {
        let (c, v) = coarse_row_2;
        let fine = vec![(1, 0, 0.5), (1, 1, 0.5), (3, 1, 0.25)];
        let p = Csr::from_triplets(4, 2, [vec![(0, 0, 1.0), (2, c, v)], fine].concat());
        let (perm, nc) = cf_permutation(&[true, false, true, false]);
        assert_eq!(nc, 2);
        (p, perm)
    }

    #[test]
    fn coarse_block_identity_extraction() {
        let (p, perm) = interleaved_p((1, 1.0));
        let pf = extract_fine_block(&p, &perm, 2, 0);
        assert_eq!((pf.nrows(), pf.ncols(), pf.nnz()), (2, 2, 3));
        assert_eq!(pf.row_cols(0), p.row_cols(1));
        assert_eq!(pf.row_vals(0), p.row_vals(1));
        assert_eq!(pf.get(1, 1), Some(0.25));
    }

    // `debug_assert!` once stood here: a release build dropped whatever a
    // builder wrote into a coarse row (`scripts/check.sh` runs this with
    // `--release`).
    #[test]
    #[should_panic(expected = "level 3: coarse row 2 of P is not the unit row")]
    fn coarse_row_that_is_not_the_unit_row_panics() {
        let (p, perm) = interleaved_p((1, 0.5));
        extract_fine_block(&p, &perm, 2, 3);
    }

    #[test]
    #[should_panic(expected = "level 0: coarse row 2 of P is not the unit row")]
    fn coarse_row_numbered_off_the_permutation_panics() {
        let (p, perm) = interleaved_p((0, 1.0));
        extract_fine_block(&p, &perm, 2, 0);
    }

    #[test]
    fn tiny_matrix_single_level() {
        let a = laplace2d(4, 4); // 16 <= coarse_solve_size
        let h = Hierarchy::build(&a, &AmgConfig::single_node_paper());
        assert_eq!(h.num_levels(), 1);
        assert!(h.coarse_lu.is_some());
    }

    #[test]
    fn aggressive_configs_build() {
        let a = laplace2d(32, 32);
        for cfg in [AmgConfig::multi_node_mp(), AmgConfig::multi_node_2s_ei444()] {
            let h = Hierarchy::build(&a, &cfg);
            assert!(h.num_levels() >= 2, "{:?}", cfg.interp);
            // Aggressive coarsening shrinks level 1 harder than standard.
            let ratio = h.stats.level_rows[1] as f64 / h.stats.level_rows[0] as f64;
            assert!(ratio < 0.2, "ratio {ratio} for {:?}", cfg.interp);
        }
    }
}
