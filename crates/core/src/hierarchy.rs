//! Multigrid hierarchy construction — the AMG setup phase.
//!
//! Per level: strength matrix → coarsening → interpolation → (optional CF
//! permutation of `A`) → Galerkin RAP → smoother setup. Every step
//! dispatches between the baseline and optimized kernels according to
//! [`crate::params::OptFlags`], so the paper's Fig. 5 component speedups
//! can be measured on identical hierarchies.
//!
//! Setup is bound by memory traffic, so a level moves each operator once.
//! Strength, coarsening and interpolation read the level's *raw* operator
//! (the caller's at level 0, borrowed; the RAP of the level above below
//! it) on both paths: §3.1.2's coarse-first permutation is one of `A`, for
//! the triple product and the smoother, and of `P`'s rows — here, taking
//! `P`'s fine rows in order. `S` is freed after interpolation, the raw
//! operator after the permutation and `P` once `P_F` is taken from it: a
//! level peaks in RAP, on `A_perm`, `P_F`, `P_Fᵀ` and the product
//! (DESIGN.md §3.4 has the table).

use crate::coarsen::{aggressive_pmis_stages, pmis, Coarsening};
use crate::interp::{
    extended_i, multipass, truncate_matrix, two_stage_extended_i, CfMap, ExtITape, TruncParams,
};
use crate::params::{AmgConfig, CoarsenKind, InterpKind};
use crate::refresh::{FrozenInterp, FrozenLevel, FrozenSetup, Rerun};
use crate::reorder::cf_reorder;
use crate::smoother::Smoother;
use crate::stats::{PhaseTimes, SetupStats};
use crate::strength::strength;
use famg_sparse::dense::{DenseMatrix, LuFactor};
use famg_sparse::permute::{stored_positions, Permutation, RowOrder};
use famg_sparse::spgemm::SpgemmKernel;
use famg_sparse::transpose::transpose_par;
use famg_sparse::triple::{rap_cf, rap_row_fused, rap_scalar_fused};
use famg_sparse::Csr;
use std::borrow::Cow;

/// Grid-transfer operators between a level and the next coarser one.
#[derive(Debug, Clone)]
pub enum TransferOps {
    /// Baseline representation: the full `n × nc` interpolation operator
    /// (identity rows interleaved). `r` is `Pᵀ`, kept only under the
    /// `keep_transpose` optimization; otherwise restriction re-transposes
    /// `P` on every application, as baseline HYPRE did.
    Full {
        /// Interpolation operator.
        p: Csr,
        /// Cached transpose, if `keep_transpose` is on.
        r: Option<Csr>,
    },
    /// Optimized representation over the CF-permuted level: only the fine
    /// block `P_F` of `P = [I; P_F]` (the fine rows of the interpolation
    /// operator, in point order) plus its transpose (kept from setup).
    CfBlock {
        /// Fine rows of the interpolation operator (`nf × nc`).
        pf: Csr,
        /// `P_Fᵀ` (`nc × nf`).
        pft: Csr,
    },
}

/// One multigrid level.
#[derive(Debug, Clone)]
pub struct Level {
    /// The operator (CF-permuted when the level was built with
    /// `cf_reorder`; row-internally reordered when the optimized smoother
    /// is active — neither affects SpMV semantics).
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

/// The level's hybrid Gauss-Seidel, over `a` in its stored ordering.
/// `is_coarse` is the C/F marker of an unpermuted operator; `None` says `a`
/// is CF-permuted, its coarse points the first `nc` rows. The reordered
/// kernel (Fig. 2b) needs those coarse-first rows, so it is built only on
/// a permuted operator; every other level gets the baseline kernel
/// (Fig. 2a) with its true marker. With `record`, the reordered kernel
/// also returns the in-row order its partition moved `a` out of.
pub(crate) fn build_smoother(
    a: &mut Csr,
    nc: usize,
    is_coarse: Option<&[bool]>,
    cfg: &AmgConfig,
    record: bool,
) -> (Smoother, Option<RowOrder>) {
    // Task decomposition is part of the numerical method (Jacobi across
    // tasks); honour a pinned count when the config asks for
    // pool-size-independent behaviour.
    let nthreads = cfg
        .smoother_tasks
        .unwrap_or_else(famg_sparse::partition::num_threads);
    let marker = match is_coarse {
        None if cfg.opt.reordered_smoother => {
            let mut order = record.then(|| RowOrder::new(a.nnz()));
            let smoother = Smoother::hybrid_opt_recording(a, nc, nthreads, order.as_mut());
            return (smoother, order);
        }
        None => (0..a.nrows()).map(|i| i < nc).collect(),
        Some(m) => m.to_vec(),
    };
    (Smoother::hybrid_base(a, marker, nthreads), None)
}

/// Builds the interpolation operator for one level according to the
/// configured scheme. Returns the full `n × nc` operator and, with `record`
/// (a refreshable build), the replay tape of an extended+i level: the
/// recording run *is* that level's build. It truncates row by row, which
/// is the operator `truncate_matrix` returns when `fused_truncation` is off.
pub(crate) fn build_interp(
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
    let fused = cfg.opt.fused_truncation;
    let trunc_arg = if fused { Some(&t) } else { None };
    let p = match kind {
        InterpKind::ExtendedI if record => {
            let (p, tape) = ExtITape::capture(a, s, cf, Some(&t));
            return (p, Some(tape));
        }
        InterpKind::ExtendedI => extended_i(a, s, cf, trunc_arg),
        InterpKind::Multipass => multipass(a, s, cf, trunc_arg),
        InterpKind::TwoStageExtendedI => {
            let stage1 = stage1.expect("two-stage interpolation requires aggressive coarsening");
            // The cache-residency heuristic only applies when enabled;
            // otherwise the one-pass flag forces a kernel so the ablation
            // bins measure each in isolation.
            let kernel = if cfg.opt.adaptive_spgemm {
                SpgemmKernel::Auto
            } else if cfg.opt.one_pass_spgemm {
                SpgemmKernel::OnePass
            } else {
                SpgemmKernel::TwoPass
            };
            let final_c = Coarsening::from_marker(cf.is_coarse.clone());
            // Two-stage truncates at every stage by definition.
            let p = two_stage_extended_i(
                a,
                s,
                stage1,
                &final_c,
                cfg.strength_threshold,
                cfg.max_row_sum,
                Some(&t),
                kernel,
            );
            return (p, None);
        }
    };
    if fused {
        (p, None)
    } else {
        // Baseline path: truncate as a separate pass over the full matrix.
        (truncate_matrix(&p, &t), None)
    }
}

/// Panics with a level-tagged report if a `famg-check` validator fails.
#[cfg(feature = "validate")]
fn enforce(level: usize, what: &str, result: famg_check::CheckResult) {
    if let Err(v) = result {
        panic!("hierarchy validation failed at level {level} ({what}): {v}");
    }
}

/// Validates one freshly built level (either path) on its raw ordering —
/// the one `a_level`, `is_coarse` and `p_full` share — before the smoother
/// reorders the stored operator in place; the CF splitting is checked where
/// it is made, while `S` is alive. `rowsum_exact` says whether the
/// interpolation scheme reproduces constants row-locally: true for
/// extended+i, a single-hop distribution scheme. Multipass and two-stage
/// compose weights through neighbours whose own row sums are legitimately
/// ≠ 1 next to Dirichlet boundaries, so the per-row check does not apply
/// to them.
#[cfg(feature = "validate")]
fn validate_level(
    level: usize,
    a_level: &Csr,
    is_coarse: &[bool],
    p_full: &Csr,
    a_coarse: &Csr,
    rowsum_exact: bool,
) {
    use famg_check as check;
    enforce(level, "operator structure", check::check_csr(a_level));
    enforce(level, "interp structure", check::check_csr(p_full));
    enforce(
        level,
        "coarse operator structure",
        check::check_csr(a_coarse),
    );
    // Fused RAP kernels emit first-touch column order (unsorted by
    // design), but duplicate columns would mean a broken accumulator.
    enforce(
        level,
        "coarse operator columns",
        check::check_no_duplicates(a_coarse),
    );
    enforce(level, "interp columns", check::check_no_duplicates(p_full));
    enforce(
        level,
        "interp C rows",
        check::check_interp_c_identity(p_full, is_coarse),
    );
    if rowsum_exact {
        enforce(
            level,
            "interp row sums",
            check::check_interp_row_sums(p_full, a_level, 1e-6),
        );
    }
    let sample = check::galerkin_sample_rows(a_coarse.nrows(), 32);
    enforce(
        level,
        "Galerkin RAP",
        check::check_galerkin(a_coarse, a_level, p_full, &sample, 1e-8),
    );
}

impl Hierarchy {
    /// Runs the AMG setup phase on `a`.
    pub fn build(a: &Csr, cfg: &AmgConfig) -> Hierarchy {
        Self::build_impl(a, cfg, None)
    }

    /// Runs the setup phase and additionally captures a [`FrozenSetup`]
    /// holding every pattern-derived decision, so later same-pattern
    /// operators can be absorbed through [`Hierarchy::refresh`] without
    /// re-running strength, coarsening, reordering, or symbolic RAP.
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

    fn build_impl(
        a: &Csr,
        cfg: &AmgConfig,
        mut capture: Option<&mut Vec<FrozenLevel>>,
    ) -> Hierarchy {
        assert_eq!(a.nrows(), a.ncols(), "AMG needs a square operator");
        #[cfg(feature = "validate")]
        enforce(0, "input structure", famg_check::check_csr(a));
        // Root span for the whole setup; the Fig. 5 buckets are derived
        // from the captured tree after it closes.
        let root_span = famg_prof::scope("setup");
        let mut stats = SetupStats::default();
        let mut levels: Vec<Level> = Vec::new();
        // The level's operator on its raw ordering: the caller's at level
        // 0, read in place, and below it the RAP of the level above.
        let mut current: Cow<'_, Csr> = Cow::Borrowed(a);

        loop {
            let n = current.nrows();
            stats.level_rows.push(n);
            stats.level_nnz.push(current.nnz());
            let at_capacity = levels.len() + 1 >= cfg.max_levels;
            if n <= cfg.coarse_solve_size || at_capacity {
                break;
            }

            // --- Strength + coarsening. ---
            let lvl_idx = levels.len();
            let strength_span = famg_prof::scope_at("strength", lvl_idx);
            let s = strength(&current, cfg.strength_threshold, cfg.max_row_sum);
            drop(strength_span);
            let coarsen_span = famg_prof::scope_at("coarsen", lvl_idx);
            let (ckind, ikind) = cfg.level_scheme(lvl_idx);
            let (stage1, coarsening) = match ckind {
                CoarsenKind::Pmis => (None, pmis(&s, cfg.seed.wrapping_add(lvl_idx as u64))),
                CoarsenKind::AggressivePmis => {
                    let (first, fin) =
                        aggressive_pmis_stages(&s, cfg.seed.wrapping_add(lvl_idx as u64));
                    (Some(first), fin)
                }
            };
            drop(coarsen_span);
            if coarsening.ncoarse == 0 || coarsening.ncoarse == n {
                break; // cannot coarsen further
            }
            let nc = coarsening.ncoarse;
            #[cfg(feature = "validate")]
            enforce(
                lvl_idx,
                "CF splitting",
                famg_check::check_cf_splitting(
                    &s,
                    &coarsening.is_coarse,
                    usize::from(!matches!(ckind, CoarsenKind::AggressivePmis)),
                ),
            );

            // --- Interpolation: the level's one run, on the raw ordering
            // whichever way the level is stored. ---
            let interp_span = famg_prof::scope_at("interp", lvl_idx);
            let cf = CfMap::new(coarsening.is_coarse.clone());
            let recording = capture.is_some();
            let s1 = stage1.as_ref();
            let (p, tape) = build_interp(&current, &s, &cf, s1, ikind, cfg, recording);
            drop(interp_span);
            stats.interp_nnz.push(p.nnz());
            // `S` is done with: freed before the level's largest allocations.
            // A builder's frozen level keeps a copy of its length
            // (`strength_seq` reserves nnz(A)); a tape level keeps none.
            let rerun = (recording && tape.is_none()).then(|| {
                let _span = famg_prof::scope_at("capture", lvl_idx);
                (s.clone(), stage1, cf)
            });
            drop(s);
            #[cfg(feature = "validate")]
            let validate = |a_raw: &Csr, next: &Csr| {
                let exact = !matches!(ikind, InterpKind::Multipass | InterpKind::TwoStageExtendedI);
                validate_level(lvl_idx, a_raw, &coarsening.is_coarse, &p, next, exact);
            };

            let (a_level, perm, ops, smoother, order, next, p_left) = if cfg.opt.cf_reorder {
                // --- Optimized path: permute `A` coarse-first, once; the
                // raw one is then done with (`validate` checks RAP on it). ---
                let reorder_span = famg_prof::scope_at("cf_reorder", lvl_idx);
                let (mut ap, ord) = cf_reorder(&current, &coarsening.is_coarse);
                drop(reorder_span);
                #[cfg(not(feature = "validate"))]
                drop(current);

                // --- P_F = the fine rows of `P`; keep the transpose. ---
                let extract_span = famg_prof::scope_at("extract_p", lvl_idx);
                let pf = extract_fine_block(&p, &ord.perm, nc, lvl_idx);
                let pft = transpose_par(&pf);
                drop(extract_span);
                // `P` is done with unless a builder's frozen level keeps it
                // (or `validate` reads it, below): freed before RAP.
                #[cfg(not(feature = "validate"))]
                let p = rerun.is_some().then_some(p);

                // --- RAP over the CF blocks of `ap`, read in place. ---
                let rap_span = famg_prof::scope_at("rap", lvl_idx);
                let next = rap_cf(&ap, nc, &pf, &pft);
                drop(rap_span);
                #[cfg(feature = "validate")]
                validate(&current, &next);
                #[cfg(feature = "validate")]
                let p = rerun.is_some().then_some(p);

                // --- Smoother (reorders rows of `ap` in place). ---
                let smoother_span = famg_prof::scope_at("smoother_setup", lvl_idx);
                let (smoother, order) = build_smoother(&mut ap, nc, None, cfg, recording);
                drop(smoother_span);
                let ops = TransferOps::CfBlock { pf, pft };
                (ap, Some(ord.perm), ops, smoother, order, next, p)
            } else {
                // --- Baseline path: original ordering throughout. ---
                let rap_span = famg_prof::scope_at("rap", lvl_idx);
                let r = transpose_par(&p);
                let next = if cfg.opt.row_fused_rap {
                    rap_row_fused(&r, &current, &p)
                } else {
                    rap_scalar_fused(&r, &current, &p)
                };
                drop(rap_span);
                #[cfg(feature = "validate")]
                validate(&current, &next);

                // The level owns the unpermuted operator: the caller's is
                // copied here, a RAP moves in.
                let smoother_span = famg_prof::scope_at("smoother_setup", lvl_idx);
                let mut cur = current.into_owned();
                let marker = Some(&coarsening.is_coarse[..]);
                let (smoother, order) = build_smoother(&mut cur, nc, marker, cfg, false);
                let r = cfg.opt.keep_transpose.then_some(r);
                drop(smoother_span);
                let p_left = rerun.is_some().then(|| p.clone());
                let ops = TransferOps::Full { p, r };
                (cur, None, ops, smoother, order, next, p_left)
            };
            if let Some(cap) = capture.as_deref_mut() {
                let _span = famg_prof::scope_at("capture", lvl_idx);
                let interp = match (tape, rerun, p_left) {
                    // The tape was recorded on the raw operand; the level
                    // keeps only the stored one, so it moves there (to the
                    // rows' pre-partition order, the one a refresh reads).
                    (Some(mut tape), ..) => {
                        if perm.is_some() {
                            tape.remap(&stored_positions(&a_level, perm.as_ref()));
                        }
                        FrozenInterp::Tape(tape)
                    }
                    (None, Some((s, stage1, cf)), Some(p)) => {
                        FrozenInterp::Rerun(Rerun { s, stage1, cf, p })
                    }
                    _ => unreachable!("a recording build keeps a tape or a builder's inputs"),
                };
                let next = (next.nrows(), next.nnz());
                cap.push(FrozenLevel {
                    interp,
                    nc,
                    next,
                    order,
                });
            }
            levels.push(Level {
                a: a_level,
                perm,
                nc,
                ops: Some(ops),
                smoother,
            });
            current = Cow::Owned(next);
        }

        let (coarsest, coarse_lu) = coarsest_level(current.into_owned(), levels.len(), cfg);
        levels.push(coarsest);

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
            match ops {
                TransferOps::Full { p, r } => {
                    if p.nrows() != n || p.ncols() != nc {
                        return fail(i, "interpolation operator has wrong dimensions");
                    }
                    if let Some(rt) = r {
                        if rt.nrows() != nc || rt.ncols() != n {
                            return fail(i, "cached restriction has wrong dimensions");
                        }
                    }
                }
                TransferOps::CfBlock { pf, pft } => {
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
    let (smoother, _) = build_smoother(&mut a, 0, None, cfg, false);
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
    if a.nrows() <= cfg.coarse_solve_size && a.nrows() > 0 {
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
    let nnz_f = p.nnz().saturating_sub(nc);
    let mut colidx = Vec::with_capacity(nnz_f);
    let mut values = Vec::with_capacity(nnz_f);
    // The fine rows between two coarse rows are contiguous in `p`: one
    // copy per run, `run` being where the uncopied entries start.
    let mut run = 0;
    for (c, &i) in coarse.iter().enumerate() {
        assert!(
            p.row_cols(i) == [c] && p.row_vals(i) == [1.0],
            "level {level}: coarse row {i} of P is not the unit row (column {c}, value 1)"
        );
        let at = p.rowptr()[i];
        colidx.extend_from_slice(&p.colidx()[run..at]);
        values.extend_from_slice(&p.values()[run..at]);
        run = at + 1;
    }
    colidx.extend_from_slice(&p.colidx()[run..]);
    values.extend_from_slice(&p.values()[run..]);
    // Every coarse row is one entry, and point `i`, the `k`-th fine one,
    // has `i − k` of them before it.
    let ends = fine.iter().enumerate();
    let rowptr = std::iter::once(0)
        .chain(ends.map(|(k, &i)| p.rowptr()[i + 1] - (i - k)))
        .collect();
    Csr::from_parts_unchecked(n - nc, p.ncols(), rowptr, colidx, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use famg_matgen::{laplace2d, laplace3d_7pt};
    use famg_sparse::permute::cf_permutation;

    /// The levels above the coarsest, each with the marker of its baseline
    /// hybrid GS; panics on a level that runs the reordered kernel.
    fn baseline_markers(h: &Hierarchy) -> Vec<(&Level, &[bool])> {
        let above = &h.levels[..h.num_levels() - 1];
        assert!(above.len() >= 2, "{} levels", h.num_levels());
        (above.iter().enumerate())
            .map(|(l, lvl)| match &lvl.smoother {
                Smoother::HybridBase { is_coarse, .. } => (lvl, &is_coarse[..]),
                Smoother::HybridOpt { .. } => panic!("level {l} runs the reordered kernel"),
            })
            .collect()
    }

    #[test]
    fn a_permuted_level_without_the_reordered_kernel_relaxes_its_first_nc_rows_as_c() {
        // The `- reordered_smoother` ablation row: the operator is stored
        // coarse-first, so the baseline kernel's C-points are rows `0..nc`.
        let mut cfg = AmgConfig::single_node_paper();
        cfg.opt.reordered_smoother = false;
        let h = Hierarchy::build(&laplace2d(32, 32), &cfg);
        for (l, (lvl, is_coarse)) in baseline_markers(&h).into_iter().enumerate() {
            assert!(lvl.perm.is_some(), "level {l} is CF-permuted");
            let want: Vec<bool> = (0..lvl.a.nrows()).map(|i| i < lvl.nc).collect();
            assert_eq!(is_coarse, want, "level {l}");
        }
    }

    #[test]
    fn an_unpermuted_level_relaxes_with_its_coarsening() {
        // The `- cf_reorder` ablation row: Fig. 2b needs coarse-first rows,
        // so the level gets the baseline kernel and the splitting PMIS made.
        let mut cfg = AmgConfig::single_node_paper();
        cfg.opt.cf_reorder = false;
        let h = Hierarchy::build(&laplace2d(32, 32), &cfg);
        for (l, (lvl, is_coarse)) in baseline_markers(&h).into_iter().enumerate() {
            assert!(lvl.perm.is_none(), "level {l} is stored unpermuted");
            let s = strength(&lvl.a, cfg.strength_threshold, cfg.max_row_sum);
            let want = pmis(&s, cfg.seed.wrapping_add(l as u64)).is_coarse;
            assert_eq!(want.iter().filter(|&&c| c).count(), lvl.nc, "level {l}");
            assert_eq!(is_coarse, want, "level {l}");
        }
    }

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
    fn builds_multiple_levels_baseline() {
        let a = laplace2d(32, 32);
        let h = Hierarchy::build(&a, &AmgConfig::single_node_baseline());
        assert!(h.num_levels() >= 3);
        assert!(h.coarse_lu.is_some());
        // Baseline keeps full P.
        match h.levels[0].ops.as_ref().unwrap() {
            TransferOps::Full { p, r } => {
                assert_eq!(p.nrows(), a.nrows());
                assert!(r.is_none(), "baseline must not keep the transpose");
            }
            TransferOps::CfBlock { .. } => panic!("baseline should use Full ops"),
        }
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
    fn baseline_and_opt_same_grid_sizes() {
        // Same seed, same coarsening -> identical level dimensions.
        let a = laplace3d_7pt(10, 10, 10);
        let hb = Hierarchy::build(&a, &AmgConfig::single_node_baseline());
        let ho = Hierarchy::build(&a, &AmgConfig::single_node_paper());
        assert_eq!(hb.stats.level_rows, ho.stats.level_rows);
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
