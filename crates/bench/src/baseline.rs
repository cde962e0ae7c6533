//! `HYPRE_base`: the program the paper's single-node result (§3, Fig. 5)
//! compares `HYPRE_opt` — the `famg` solver — against, written once as a
//! straight-line program over the library's kernels.
//!
//! It runs the single-node scheme (PMIS + extended+i on every level) with
//! none of §3's optimizations:
//!
//! * strength of connection by the sequential row loop
//!   ([`strength_seq`]), where `HYPRE_opt` runs its row blocks in parallel
//!   (PMIS has no sequential twin, so both programs run the same one);
//! * interpolation truncated in a separate pass over the whole operator;
//! * the full `P`, identity rows interleaved, on the unpermuted level;
//! * the Galerkin product scalar-fused (Fig. 1b);
//! * hybrid Gauss-Seidel with a class branch per row and an ownership
//!   branch per nonzero (Fig. 2a);
//! * restriction through a fresh `Pᵀ` on every cycle;
//! * the convergence check's residual and norm in two sweeps.
//!
//! Its spans carry the library's names, so [`PhaseTimes::from_span`] fills
//! the same Fig. 5 buckets for both programs.

use famg_core::coarsen::pmis;
use famg_core::interp::{extended_i, truncate_matrix, CfMap, TruncParams};
use famg_core::params::{AmgConfig, CoarsenKind, InterpKind};
use famg_core::solver::SolveResult;
use famg_core::stats::{PhaseTimes, SetupStats};
use famg_core::strength::strength_seq;
use famg_sparse::dense::{DenseMatrix, LuFactor};
use famg_sparse::partition::{num_threads, split_mut_at, split_rows_by_nnz};
use famg_sparse::spmm::spmm_axpby_rows;
use famg_sparse::spmv::{residual_norm_sq, residual_norm_sq_unfused, spmv};
use famg_sparse::transpose::transpose_par;
use famg_sparse::triple::rap_scalar_fused;
use famg_sparse::Csr;
use rayon::prelude::*;
use std::ops::Range;

/// Hybrid Gauss-Seidel as `HYPRE_base` runs it (Fig. 2a): Gauss-Seidel
/// within each contiguous row block, Jacobi across blocks through a full
/// pre-sweep snapshot of `x`, over the unpermuted operator with its C/F
/// marker.
#[derive(Debug, Clone)]
pub struct HybridGs {
    dinv: Vec<f64>,
    ranges: Vec<Range<usize>>,
    is_coarse: Vec<bool>,
}

impl HybridGs {
    /// The smoother of `a` over `tasks` row blocks of about equal nonzeros.
    ///
    /// # Panics
    /// On a zero diagonal, or a marker of another length.
    pub fn new(a: &Csr, is_coarse: Vec<bool>, tasks: usize) -> Self {
        assert_eq!(is_coarse.len(), a.nrows());
        let dinv = (0..a.nrows())
            .map(|i| {
                let d = a.diag(i);
                assert!(d != 0.0, "zero diagonal in row {i}");
                1.0 / d
            })
            .collect();
        HybridGs {
            dinv,
            ranges: split_rows_by_nnz(a.rowptr(), tasks),
            is_coarse,
        }
    }

    /// One half-sweep over the C rows (`coarse`) or the F rows; `temp`
    /// holds the snapshot.
    fn sweep(&self, a: &Csr, b: &[f64], x: &mut [f64], temp: &mut Vec<f64>, coarse: bool) {
        temp.clear();
        temp.extend_from_slice(x);
        let temp = &temp[..];
        let lens = self.ranges.iter().map(ExactSizeIterator::len);
        let mut blocks: Vec<_> = self.ranges.iter().zip(split_mut_at(x, lens)).collect();
        blocks.par_iter_mut().for_each(|(rows, own)| {
            for i in (*rows).clone() {
                if self.is_coarse[i] != coarse {
                    continue;
                }
                let mut acc = b[i];
                for (c, v) in a.row_iter(i) {
                    if c == i {
                        continue;
                    }
                    // The per-nonzero ownership branch Fig. 2b eliminates.
                    let xv = if rows.contains(&c) {
                        own[c - rows.start]
                    } else {
                        temp[c]
                    };
                    acc -= v * xv;
                }
                own[i - rows.start] = acc * self.dinv[i];
            }
        });
    }

    /// Pre-smoothing: C then F relaxation.
    pub fn pre_smooth(&self, a: &Csr, b: &[f64], x: &mut [f64], temp: &mut Vec<f64>) {
        self.sweep(a, b, x, temp, true);
        self.sweep(a, b, x, temp, false);
    }

    /// Post-smoothing: F then C relaxation.
    fn post_smooth(&self, a: &Csr, b: &[f64], x: &mut [f64], temp: &mut Vec<f64>) {
        self.sweep(a, b, x, temp, false);
        self.sweep(a, b, x, temp, true);
    }
}

/// One level of the baseline hierarchy.
#[derive(Debug)]
pub struct Level {
    /// The operator, in the ordering its parent's RAP produced.
    pub a: Csr,
    /// Coarse points: the rows of the next level (0 at the coarsest).
    pub nc: usize,
    /// The full `n × nc` interpolation (`None` at the coarsest).
    pub p: Option<Csr>,
    gs: HybridGs,
}

/// A `HYPRE_base` hierarchy, set up and ready to solve.
#[derive(Debug)]
pub struct Baseline {
    /// Levels, finest first.
    pub levels: Vec<Level>,
    coarse_lu: Option<LuFactor>,
    cfg: AmgConfig,
    /// Per-level size statistics.
    pub stats: SetupStats,
    /// Setup time in the Fig. 5 buckets.
    pub times: PhaseTimes,
}

/// Runs `HYPRE_base`'s setup on `a`, stopping where the library's level
/// loop stops ([`AmgConfig::stops_at`], [`AmgConfig::coarsening_stalls`]).
///
/// # Panics
/// Unless `cfg` is the single-node scheme: PMIS and extended+i on every
/// level.
pub fn setup(a: &Csr, cfg: &AmgConfig) -> Baseline {
    assert!(
        cfg.aggressive_levels == 0
            && cfg.coarsen == CoarsenKind::Pmis
            && cfg.interp == InterpKind::ExtendedI,
        "HYPRE_base runs the single-node scheme: PMIS and extended+i on every level"
    );
    assert_eq!(a.nrows(), a.ncols(), "AMG needs a square operator");
    let root = famg_prof::scope("setup");
    let tasks = cfg.smoother_tasks.unwrap_or_else(num_threads);
    let trunc = TruncParams {
        factor: cfg.trunc_factor,
        max_elements: cfg.max_elements,
    };
    let mut stats = SetupStats::default();
    let mut levels = Vec::new();
    let mut current = a.clone();
    loop {
        let (n, l) = (current.nrows(), levels.len());
        stats.level_rows.push(n);
        stats.level_nnz.push(current.nnz());
        if cfg.stops_at(n, l) {
            break;
        }
        let span = famg_prof::scope_at("strength", l);
        let s = strength_seq(&current, 0..n, cfg.strength_threshold, cfg.max_row_sum);
        drop(span);
        let span = famg_prof::scope_at("coarsen", l);
        let c = pmis(&s, cfg.level_seed(l));
        drop(span);
        if AmgConfig::coarsening_stalls(n, c.ncoarse) {
            break;
        }
        let span = famg_prof::scope_at("interp", l);
        let cf = CfMap::new(c.is_coarse.clone());
        let p = truncate_matrix(&extended_i(&current, &s, &cf, None), &trunc);
        drop(span);
        stats.interp_nnz.push(p.nnz());
        drop(s);
        let span = famg_prof::scope_at("rap", l);
        let next = rap_scalar_fused(&transpose_par(&p), &current, &p);
        drop(span);
        let span = famg_prof::scope_at("smoother_setup", l);
        let gs = HybridGs::new(&current, c.is_coarse, tasks);
        drop(span);
        levels.push(Level {
            a: std::mem::replace(&mut current, next),
            nc: c.ncoarse,
            p: Some(p),
            gs,
        });
    }
    let span = famg_prof::scope_at("coarse", levels.len());
    let n = current.nrows();
    let coarse_lu = if cfg.coarse_lu_fits(n) {
        LuFactor::new(&DenseMatrix::from_csr(&current))
    } else {
        None
    };
    let gs = HybridGs::new(&current, vec![false; n], tasks);
    levels.push(Level {
        a: current,
        nc: 0,
        p: None,
        gs,
    });
    drop(span);
    drop(root);
    let times = famg_prof::take()
        .find_root("setup")
        .map(PhaseTimes::from_span)
        .unwrap_or_default();
    Baseline {
        levels,
        coarse_lu,
        cfg: cfg.clone(),
        stats,
        times,
    }
}

impl Baseline {
    /// Solves `A x = b` to the configured tolerance from the guess in `x`.
    pub fn solve(&self, b: &[f64], x: &mut [f64]) -> SolveResult {
        let root = famg_prof::scope("solve");
        let a = &self.levels[0].a;
        let mut r = vec![0.0; a.nrows()];
        let bnorm = {
            let _s = famg_prof::scope("blas1");
            famg_sparse::vecops::norm2(b).max(f64::MIN_POSITIVE)
        };
        let norm = |x: &[f64], r: &mut [f64]| {
            let _s = famg_prof::scope("blas1");
            residual_norm_sq_unfused(a, x, b, r).sqrt() / bnorm
        };
        // Per level: the next level's right-hand side and correction, and
        // the level's own residual.
        let mut bufs: Vec<_> = (self.levels.iter())
            .map(|l| [vec![0.0; l.nc], vec![0.0; l.nc], vec![0.0; l.a.nrows()]])
            .collect();
        let mut temp = Vec::new();
        let mut relres = norm(x, &mut r);
        let mut history = Vec::new();
        let mut iterations = 0;
        while relres > self.cfg.tolerance && iterations < self.cfg.max_iterations {
            self.cycle(0, b, x, &mut bufs, &mut temp);
            iterations += 1;
            relres = norm(x, &mut r);
            history.push(relres);
        }
        drop(root);
        let profile = famg_prof::take();
        let times = profile
            .find_root("solve")
            .map(PhaseTimes::from_span)
            .unwrap_or_default();
        SolveResult {
            iterations,
            final_relres: relres,
            converged: relres <= self.cfg.tolerance,
            history,
            times,
            profile,
        }
    }

    /// One V-cycle from level `l` down: `bufs` holds level `l`'s coarse
    /// right-hand side, coarse correction and residual, then those of the
    /// levels below; `temp` is the smoother's snapshot.
    fn cycle(
        &self,
        l: usize,
        b: &[f64],
        x: &mut [f64],
        bufs: &mut [[Vec<f64>; 3]],
        temp: &mut Vec<f64>,
    ) {
        let _span = famg_prof::scope_at("vcycle", l);
        let Level { a, p, gs, .. } = &self.levels[l];
        let sweeps = self.cfg.num_sweeps;
        let Some(p) = p else {
            let _s = famg_prof::scope_at("coarse_solve", l);
            match &self.coarse_lu {
                Some(lu) => x.copy_from_slice(&lu.solve(b)),
                None => (0..4 * sweeps).for_each(|_| gs.pre_smooth(a, b, x, temp)),
            }
            return;
        };
        {
            let _s = famg_prof::scope_at("smooth", l);
            (0..sweeps).for_each(|_| gs.pre_smooth(a, b, x, temp));
        }
        let ([bc, xc, r], below) = bufs.split_first_mut().expect("buffers per level");
        {
            let _s = famg_prof::scope_at("residual", l);
            residual_norm_sq(a, x, b, r);
        }
        {
            let _s = famg_prof::scope_at("restrict", l);
            spmv(&transpose_par(p), r, bc);
        }
        xc.fill(0.0);
        self.cycle(l + 1, bc, xc, below, temp);
        {
            let _s = famg_prof::scope_at("prolong", l);
            spmm_axpby_rows(p, 1.0, xc, 1.0, 1, x);
        }
        let _s = famg_prof::scope_at("smooth", l);
        (0..sweeps).for_each(|_| gs.post_smooth(a, b, x, temp));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use famg_core::reorder::cf_reorder;
    use famg_core::smoother::{Smoother, Workspace};
    use famg_matgen::{laplace2d, rhs};

    #[test]
    fn one_task_equals_sequential_gs() {
        let a = laplace2d(8, 8);
        let b = rhs::random(64, 3);
        let gs = HybridGs::new(&a, vec![false; 64], 1); // one class: a full sweep
        let mut x = rhs::random(64, 5);
        let mut oracle = x.clone();
        gs.sweep(&a, &b, &mut x, &mut Vec::new(), false);
        for i in 0..a.nrows() {
            let mut acc = b[i];
            for (c, v) in a.row_iter(i).filter(|&(c, _)| c != i) {
                acc -= v * oracle[c];
            }
            oracle[i] = acc / a.diag(i);
        }
        assert_eq!(x, oracle);
    }

    #[test]
    fn multitask_still_converges_as_iteration() {
        // With eight blocks of an 8×8 Laplacian nearly every row couples
        // across a block, and the snapshot's Jacobi coupling still
        // converges on a diagonally dominant system.
        let a = laplace2d(8, 8);
        let n = a.nrows();
        let gs = HybridGs::new(&a, (0..n).map(|i| i % 4 == 0).collect(), 8);
        let b = rhs::ones(n);
        let mut x = vec![0.0; n];
        let mut temp = Vec::new();
        let mut r = vec![0.0; n];
        let r0 = residual_norm_sq(&a, &x, &b, &mut r).sqrt();
        for _ in 0..50 {
            gs.pre_smooth(&a, &b, &mut x, &mut temp);
        }
        assert!(residual_norm_sq(&a, &x, &b, &mut r).sqrt() < 0.1 * r0);
    }

    #[test]
    fn one_task_on_a_cf_permuted_operator_equals_the_reordered_kernel() {
        // With one task and the same coarse-first ordering, Fig. 2a and
        // Fig. 2b give bitwise the same iterate.
        let a0 = laplace2d(9, 7);
        let n = a0.nrows();
        let is_coarse: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect();
        let (mut ap, ord) = cf_reorder(&a0, &is_coarse);
        let base = HybridGs::new(&ap, (0..n).map(|i| i < ord.nc).collect(), 1);
        let base_a = ap.clone();
        let opt = Smoother::hybrid_opt(&mut ap, ord.nc, 1);
        let b = rhs::random(n, 7);
        let (mut temp, mut ws) = (Vec::new(), Workspace::new());
        let mut xb = rhs::random(n, 9);
        let mut xo = xb.clone();
        base.pre_smooth(&base_a, &b, &mut xb, &mut temp);
        opt.pre_smooth(&ap, &b, &mut xo, &mut ws, false);
        assert_eq!(xb, xo);
        base.post_smooth(&base_a, &b, &mut xb, &mut temp);
        opt.post_smooth_rows(&ap, &b, &mut xo, 1, &mut ws);
        assert_eq!(xb, xo);
    }
}
