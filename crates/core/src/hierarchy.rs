//! Multigrid hierarchy construction — the AMG setup phase.
//!
//! Per level: strength matrix → coarsening → (optional CF permutation) →
//! interpolation → Galerkin RAP → smoother setup. Every step dispatches
//! between the baseline and optimized kernels according to
//! [`crate::params::OptFlags`], so the paper's Fig. 5 component speedups
//! can be measured on identical hierarchies.

use crate::coarsen::{aggressive_pmis_stages, pmis, Coarsening};
use crate::interp::{
    direct, extended_i, multipass, truncate_matrix, two_stage_extended_i, CfMap, ExtITape,
    TruncParams,
};
use crate::params::{AmgConfig, CoarsenKind, InterpKind, SmootherKind};
use crate::refresh::{FrozenLevel, FrozenSetup};
use crate::reorder::cf_reorder;
use crate::smoother::Smoother;
use crate::stats::{PhaseTimes, SetupStats};
use crate::strength::strength;
use famg_sparse::dense::{DenseMatrix, LuFactor};
use famg_sparse::permute::Permutation;
use famg_sparse::spgemm::SpgemmKernel;
use famg_sparse::transpose::transpose_par;
use famg_sparse::triple::{rap_cf, rap_row_fused, rap_scalar_fused};
use famg_sparse::Csr;

/// Grid-transfer operators between a level and the next coarser one.
#[derive(Debug)]
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
    /// block `P_F` of `P = [I; P_F]` plus its transpose (kept from setup).
    CfBlock {
        /// Fine rows of the interpolation operator (`nf × nc`).
        pf: Csr,
        /// `P_Fᵀ` (`nc × nf`).
        pft: Csr,
    },
}

/// One multigrid level.
#[derive(Debug)]
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

pub(crate) fn build_smoother(
    a: &mut Csr,
    nc: usize,
    is_coarse: Option<&[bool]>,
    cfg: &AmgConfig,
) -> Smoother {
    // Task decomposition is part of the numerical method for the hybrid
    // smoothers (Jacobi across tasks); honour a pinned count when the
    // config asks for pool-size-independent behaviour.
    let nthreads = cfg
        .smoother_tasks
        .unwrap_or_else(famg_sparse::partition::num_threads);
    match cfg.smoother {
        SmootherKind::Jacobi => Smoother::jacobi(a, 2.0 / 3.0),
        SmootherKind::HybridGs => {
            if cfg.opt.reordered_smoother {
                Smoother::hybrid_opt(a, nc, nthreads)
            } else {
                let marker = match is_coarse {
                    Some(m) => m.to_vec(),
                    None => vec![false; a.nrows()],
                };
                Smoother::hybrid_base(a, marker, nthreads)
            }
        }
        SmootherKind::LexicographicGs => Smoother::lexicographic(a),
        SmootherKind::MulticolorGs => Smoother::multicolor(a),
        SmootherKind::L1Jacobi => {
            Smoother::L1Jacobi(crate::smoother_ext::L1Jacobi::new(a, nthreads))
        }
        SmootherKind::L1HybridGs => {
            Smoother::L1HybridGs(crate::smoother_ext::L1HybridGs::new(a, nthreads))
        }
        SmootherKind::Chebyshev => {
            Smoother::Chebyshev(crate::smoother_ext::Chebyshev::new(a, 2, 30.0, 15))
        }
    }
}

/// Builds the interpolation operator for one level according to the
/// configured scheme. Returns the full `n × nc` operator and, with `record`
/// (a refreshable build), the replay tape of an extended+i level: the
/// recording run *is* that level's build. It truncates row by row, which
/// is the operator `truncate_matrix` returns when `fused_truncation` is off.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_interp(
    a: &Csr,
    s: &Csr,
    cf: &CfMap,
    stage1: Option<&Coarsening>,
    final_c: &Coarsening,
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
        InterpKind::Direct => direct(a, s, cf, trunc_arg),
        InterpKind::Classical => crate::interp::classical(a, s, cf, trunc_arg),
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
            // Two-stage truncates at every stage by definition.
            let p = two_stage_extended_i(
                a,
                s,
                stage1,
                final_c,
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

/// Validates one freshly built level (either path) before the smoother
/// reorders the operator in place. `is_coarse` is in the same ordering
/// as `a_level` / `s` / `p_full`. `rowsum_exact` says whether the
/// interpolation scheme reproduces constants row-locally (true for the
/// single-hop distribution schemes: direct, classical, extended+i);
/// multipass and two-stage compose weights through neighbours whose own
/// row sums are legitimately ≠ 1 next to Dirichlet boundaries, so the
/// per-row check does not apply to them.
#[cfg(feature = "validate")]
#[allow(clippy::too_many_arguments)]
fn validate_level(
    level: usize,
    a_level: &Csr,
    s: &Csr,
    is_coarse: &[bool],
    max_dist: usize,
    p_full: &Csr,
    a_coarse: &Csr,
    cf_permuted: bool,
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
        "CF splitting",
        check::check_cf_splitting(s, is_coarse, max_dist),
    );
    if cf_permuted {
        enforce(
            level,
            "interp identity block",
            check::check_interp_identity_block(p_full, p_full.ncols()),
        );
    } else {
        enforce(
            level,
            "interp C rows",
            check::check_interp_c_identity(p_full, is_coarse),
        );
    }
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
        let mut current: Csr = a.clone();

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

            // The level's one interpolation run, on either path's operands.
            let interp = |a: &Csr, s: &Csr, cf: &CfMap, s1: Option<&Coarsening>, c: &Coarsening| {
                build_interp(a, s, cf, s1, c, ikind, cfg, capture.is_some())
            };
            if cfg.opt.cf_reorder {
                // --- Optimized path: permute coarse-first. ---
                let reorder_span = famg_prof::scope_at("cf_reorder", lvl_idx);
                let (ap, ord) = cf_reorder(&current, &coarsening.is_coarse);
                let sp = famg_sparse::permute::permute_symmetric(&s, &ord.perm);
                // Permute the coarsening metadata into the new ordering.
                let is_coarse_p: Vec<bool> = (0..n).map(|i| i < ord.nc).collect();
                let permute_stage = |st: &Coarsening| Coarsening {
                    is_coarse: {
                        let mut v = vec![false; n];
                        for i in 0..n {
                            v[ord.perm.forward[i]] = st.is_coarse[i];
                        }
                        v
                    },
                    ncoarse: st.ncoarse,
                };
                let stage1_p = stage1.as_ref().map(&permute_stage);
                let final_p = permute_stage(&coarsening);
                drop(reorder_span);

                // --- Interpolation. ---
                let interp_span = famg_prof::scope_at("interp", lvl_idx);
                let cf = CfMap::new(is_coarse_p);
                let (p_full, tape) = interp(&ap, &sp, &cf, stage1_p.as_ref(), &final_p);
                drop(interp_span);

                // --- Split into [I; P_F] and keep the transpose. ---
                let extract_span = famg_prof::scope_at("extract_p", lvl_idx);
                let nc = ord.nc;
                let pf = extract_fine_block(&p_full, nc);
                let pft = transpose_par(&pf);
                drop(extract_span);

                // --- RAP over the CF blocks of `ap`, read in place. ---
                let rap_span = famg_prof::scope_at("rap", lvl_idx);
                let next = rap_cf(&ap, nc, &pf, &pft);
                drop(rap_span);

                #[cfg(feature = "validate")]
                validate_level(
                    levels.len(),
                    &ap,
                    &sp,
                    &final_p.is_coarse,
                    usize::from(!matches!(ckind, CoarsenKind::AggressivePmis)),
                    &p_full,
                    &next,
                    true,
                    !matches!(ikind, InterpKind::Multipass | InterpKind::TwoStageExtendedI),
                );

                stats.interp_nnz.push(p_full.nnz());
                if let Some(cap) = capture.as_deref_mut() {
                    let _s = famg_prof::scope_at("capture", lvl_idx);
                    cap.push(FrozenLevel {
                        s: sp,
                        stage1: stage1_p,
                        final_c: final_p,
                        cf,
                        p: p_full,
                        tape,
                        rap: next.clone(),
                    });
                }

                // --- Smoother (reorders rows of `ap` in place). ---
                let smoother_span = famg_prof::scope_at("smoother_setup", lvl_idx);
                let mut ap = ap;
                let smoother = build_smoother(&mut ap, nc, None, cfg);
                drop(smoother_span);

                levels.push(Level {
                    a: ap,
                    perm: Some(ord.perm),
                    nc,
                    ops: Some(TransferOps::CfBlock { pf, pft }),
                    smoother,
                });
                current = next;
            } else {
                // --- Baseline path: original ordering throughout. ---
                let interp_span = famg_prof::scope_at("interp", lvl_idx);
                let cf = CfMap::new(coarsening.is_coarse.clone());
                let (p, tape) = interp(&current, &s, &cf, stage1.as_ref(), &coarsening);
                drop(interp_span);

                let rap_span = famg_prof::scope_at("rap", lvl_idx);
                let r = transpose_par(&p);
                let next = if cfg.opt.row_fused_rap {
                    rap_row_fused(&r, &current, &p)
                } else {
                    rap_scalar_fused(&r, &current, &p)
                };
                drop(rap_span);

                #[cfg(feature = "validate")]
                validate_level(
                    levels.len(),
                    &current,
                    &s,
                    &coarsening.is_coarse,
                    usize::from(!matches!(ckind, CoarsenKind::AggressivePmis)),
                    &p,
                    &next,
                    false,
                    !matches!(ikind, InterpKind::Multipass | InterpKind::TwoStageExtendedI),
                );

                if let Some(cap) = capture.as_deref_mut() {
                    let _s = famg_prof::scope_at("capture", lvl_idx);
                    cap.push(FrozenLevel {
                        s,
                        stage1,
                        final_c: coarsening.clone(),
                        cf,
                        p: p.clone(),
                        tape,
                        rap: next.clone(),
                    });
                }

                let smoother_span = famg_prof::scope_at("smoother_setup", lvl_idx);
                let mut cur = current;
                let smoother = build_smoother(
                    &mut cur,
                    coarsening.ncoarse,
                    Some(&coarsening.is_coarse),
                    cfg,
                );
                let r_kept = cfg.opt.keep_transpose.then_some(r);
                drop(smoother_span);

                stats.interp_nnz.push(p.nnz());
                levels.push(Level {
                    a: cur,
                    perm: None,
                    nc: coarsening.ncoarse,
                    ops: Some(TransferOps::Full { p, r: r_kept }),
                    smoother,
                });
                current = next;
            }
        }

        let (coarsest, coarse_lu) = coarsest_level(current, levels.len(), cfg);
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

/// The tail of every setup and refresh: the coarsest operator gets its
/// smoother and, when small enough, a dense LU factorization.
pub(crate) fn coarsest_level(mut a: Csr, idx: usize, cfg: &AmgConfig) -> (Level, Option<LuFactor>) {
    let _span = famg_prof::scope_at("coarse", idx);
    let coarse_lu = if a.nrows() <= cfg.coarse_solve_size && a.nrows() > 0 {
        LuFactor::new(&DenseMatrix::from_csr(&a))
    } else {
        None
    };
    let smoother = build_smoother(&mut a, 0, None, cfg);
    let level = Level {
        a,
        perm: None,
        nc: 0,
        ops: None,
        smoother,
    };
    (level, coarse_lu)
}

/// Extracts rows `nc..n` of a full interpolation operator (whose first
/// `nc` rows must be the identity) as the `P_F` block.
pub(crate) fn extract_fine_block(p: &Csr, nc: usize) -> Csr {
    let n = p.nrows();
    debug_assert!(
        (0..nc).all(|i| p.row_nnz(i) == 1 && p.row_cols(i)[0] == i && p.row_vals(i)[0] == 1.0),
        "top block of CF-permuted P must be the identity"
    );
    let rowptr: Vec<usize> = p.rowptr()[nc..=n]
        .iter()
        .map(|&x| x - p.rowptr()[nc])
        .collect();
    let lo = p.rowptr()[nc];
    Csr::from_parts_unchecked(
        n - nc,
        p.ncols(),
        rowptr,
        p.colidx()[lo..].to_vec(),
        p.values()[lo..].to_vec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use famg_matgen::{laplace2d, laplace3d_7pt};

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

    #[test]
    fn coarse_block_identity_extraction() {
        let p = Csr::from_triplets(
            4,
            2,
            vec![(0, 0, 1.0), (1, 1, 1.0), (2, 0, 0.5), (3, 1, 0.25)],
        );
        let pf = extract_fine_block(&p, 2);
        assert_eq!(pf.nrows(), 2);
        assert_eq!(pf.get(0, 0), Some(0.5));
        assert_eq!(pf.get(1, 1), Some(0.25));
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
