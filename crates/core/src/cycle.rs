//! V-cycle application (the AMG solve-phase kernel).
//!
//! Per level: pre-smooth (C then F), restrict the residual, recurse with a
//! zero initial guess, prolongate-and-correct, post-smooth (F then C).
//! The coarsest level is solved directly (dense LU) when small enough,
//! otherwise relaxed with extra smoothing sweeps.
//!
//! Optimized-path levels store CF-permuted operators; restriction output
//! is scattered through the child level's permutation and prolongation
//! input gathered back, so each level works entirely in its own stored
//! ordering.

use crate::hierarchy::{Hierarchy, TransferOps};
use crate::smoother::Workspace;
use famg_sparse::counters::flops;
use famg_sparse::multivec::{gather_col, scatter_col};
use famg_sparse::spmm::{
    interp_apply_add_rows, residual_rows, restrict_apply_rows, spmm_axpby_rows, spmm_rows,
};
use famg_sparse::transpose::transpose_par;
use famg_sparse::MultiVec;

/// Reusable per-level buffers for V-cycles over `k`-interleaved blocks
/// (a plain vector is the `k = 1` block).
#[derive(Debug, Default)]
pub struct CycleWorkspace {
    /// Block width the buffers are sized for.
    k: usize,
    /// Residual per level; the solver borrows level 0's between cycles.
    pub(crate) r: Vec<Vec<f64>>,
    /// Coarse right-hand side per level.
    bc: Vec<Vec<f64>>,
    /// Coarse correction per level.
    xc: Vec<Vec<f64>>,
    /// Scratch for permutation scatter/gather, per level: a level's is
    /// where its parent restricts into and its cycle iterates when the
    /// level is permuted (the finest level's stays empty).
    scratch: Vec<Vec<f64>>,
    /// One column of the coarsest level, for the direct solve.
    coarse_col: Vec<f64>,
    /// Where the fused residual kernel puts its per-lane `‖r‖²`; the cycle
    /// wants only `R = B − A·X` written in the one pass over `A`.
    lane_norms: Vec<f64>,
    /// Finest-level permuted right-hand side (solver wrapper scratch —
    /// hoisted here so repeated solves allocate nothing in the hot loop).
    pub(crate) fine_b: Vec<f64>,
    /// Finest-level permuted iterate (solver wrapper scratch).
    pub(crate) fine_x: Vec<f64>,
    /// Smoother workspace shared across levels.
    pub smoother_ws: Workspace,
}

impl CycleWorkspace {
    /// Allocates single-vector buffers sized for `h`.
    pub fn for_hierarchy(h: &Hierarchy) -> Self {
        Self::for_width(h, 1)
    }

    /// Allocates buffers sized for `h` at block width `k`.
    pub fn for_width(h: &Hierarchy, k: usize) -> Self {
        let mut ws = CycleWorkspace {
            k,
            ..CycleWorkspace::default()
        };
        for (i, l) in h.levels.iter().enumerate() {
            let n = l.a.nrows();
            let nc = l.nc;
            ws.r.push(vec![0.0; n * k]);
            ws.bc.push(vec![0.0; nc * k]);
            ws.xc.push(vec![0.0; nc * k]);
            ws.scratch
                .push(if i == 0 { Vec::new() } else { vec![0.0; n * k] });
        }
        ws.coarse_col = vec![0.0; h.levels.last().map_or(0, |l| l.a.nrows())];
        ws.lane_norms = vec![0.0; k];
        let n = h.n();
        ws.fine_b = vec![0.0; n * k];
        ws.fine_x = vec![0.0; n * k];
        ws
    }

    /// Block width the workspace was allocated for.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// Constructor namespace for a `k`-wide [`CycleWorkspace`], kept for
/// callers written against the time when batched cycles had a workspace
/// type of their own.
#[derive(Debug)]
pub enum BatchCycleWorkspace {}

impl BatchCycleWorkspace {
    /// Allocates buffers sized for `h` at batch width `k`.
    pub fn for_hierarchy(h: &Hierarchy, k: usize) -> CycleWorkspace {
        CycleWorkspace::for_width(h, k)
    }
}

/// Applies one V-cycle: `x <- Vcycle(b, x)` at the finest stored level.
///
/// `x` and `b` are in the finest level's *stored* ordering (the solver
/// wrapper handles the external permutation). Timing is recorded through
/// `famg-prof` spans (one `"vcycle"` span per level visit, with
/// smooth/residual/restrict/prolong/coarse sub-spans); the solver
/// wrapper derives the Fig. 5 buckets from the captured tree.
pub fn vcycle(h: &Hierarchy, b: &[f64], x: &mut [f64], ws: &mut CycleWorkspace) {
    vcycle_rows(h, b, x, 1, ws);
}

/// Applies one k-wide V-cycle: `X <- Vcycle(B, X)` at the finest stored
/// level, advancing all `k` right-hand sides per kernel invocation.
/// Column `j` of the result is bitwise [`vcycle`] on the extracted column.
pub fn vcycle_batch(h: &Hierarchy, b: &MultiVec, x: &mut MultiVec, ws: &mut CycleWorkspace) {
    debug_assert_eq!(x.k(), b.k());
    vcycle_rows(h, b.data(), x.data_mut(), b.k(), ws);
}

/// One V-cycle over the `k`-interleaved blocks `(b, k)` and `(x, k)`; `ws`
/// must have been allocated for width `k`. Spans and flop counters are
/// those of the width: `"smooth"`/`"residual"` at `k = 1`, the batched
/// kernel names `"gs_batch"`/`"spmm"` otherwise, which the Fig. 5 rollup
/// buckets together.
pub fn vcycle_rows(h: &Hierarchy, b: &[f64], x: &mut [f64], k: usize, ws: &mut CycleWorkspace) {
    debug_assert_eq!(ws.k, k, "cycle workspace allocated for another width");
    if k != 0 {
        cycle_level(h, 0, b, x, k, ws, false);
    }
}

fn cycle_level(
    h: &Hierarchy,
    level: usize,
    b: &[f64],
    x: &mut [f64],
    k: usize,
    ws: &mut CycleWorkspace,
    x_is_zero: bool,
) {
    let _lvl_span = famg_prof::scope_at("vcycle", level);
    let lvl = &h.levels[level];
    let a = &lvl.a;
    let n = a.nrows();
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(x.len(), n * k);
    let (smooth_span, residual_span) = if k == 1 {
        ("smooth", "residual")
    } else {
        ("gs_batch", "spmm")
    };
    let sweeps = h.config.num_sweeps;

    // Coarsest level: direct solve or heavy smoothing. `ops == None` *is*
    // the coarsest-level marker, so destructuring here leaves no unwrap
    // on the non-coarsest path below — a malformed hierarchy (transfer
    // ops missing mid-hierarchy) is rejected up front by
    // `Hierarchy::check_shape` in the public solve entry points.
    let Some(ops) = lvl.ops.as_ref() else {
        let _s = famg_prof::scope_at("coarse_solve", level);
        if let Some(lu) = &h.coarse_lu {
            famg_prof::counter("flops", flops::lu_solve(n) * k as u64);
            for j in 0..k {
                gather_col(b, k, j, &mut ws.coarse_col);
                let sol = lu.solve(&ws.coarse_col);
                scatter_col(x, k, j, &sol);
            }
        } else {
            famg_prof::counter(
                "flops",
                flops::gs_sweep_batch(a.nnz(), k) * (4 * sweeps) as u64,
            );
            for s in 0..4 * sweeps {
                lvl.smoother
                    .pre_smooth_rows(a, b, x, k, &mut ws.smoother_ws, x_is_zero && s == 0);
            }
        }
        return;
    };

    // Pre-smoothing: C then F.
    {
        let _s = famg_prof::scope_at(smooth_span, level);
        famg_prof::counter("flops", flops::gs_sweep_batch(a.nnz(), k) * sweeps as u64);
        for s in 0..sweeps {
            lvl.smoother
                .pre_smooth_rows(a, b, x, k, &mut ws.smoother_ws, x_is_zero && s == 0);
        }
    }

    // Residual. Buffers are taken out of the workspace so `ws` stays
    // borrowable across the recursion.
    let mut r = std::mem::take(&mut ws.r[level]);
    {
        let _s = famg_prof::scope_at(residual_span, level);
        famg_prof::counter("flops", flops::spmm(a.nnz(), k) + (n * k) as u64);
        residual_rows(a, x, b, &mut r, k, &mut ws.lane_norms);
    }

    // Restrict into the child's stored ordering: straight into `bc` when
    // the child is unpermuted, otherwise into the child's scratch block,
    // which the scatter then reads (whole rows move, so every column sees
    // the same scatter).
    let nc = lvl.nc;
    let child_perm = h.levels[level + 1].perm.as_ref();
    let mut bc = std::mem::take(&mut ws.bc[level]);
    let mut scratch = std::mem::take(&mut ws.scratch[level + 1]);
    {
        let _s = famg_prof::scope_at("restrict", level);
        let out = if child_perm.is_some() {
            &mut scratch[..nc * k]
        } else {
            &mut bc[..]
        };
        match ops {
            TransferOps::CfBlock { pft, .. } => {
                famg_prof::counter("flops", flops::spmm(pft.nnz(), k));
                restrict_apply_rows(pft, nc, &r, k, out);
            }
            TransferOps::Full { p, r: rt } => {
                famg_prof::counter("flops", flops::spmm(p.nnz(), k));
                if let Some(rt) = rt {
                    spmm_rows(rt, &r, k, out);
                } else {
                    // Baseline: transpose P on every restriction.
                    spmm_rows(&transpose_par(p), &r, k, out);
                }
            }
        }
    }
    ws.r[level] = r;
    if let Some(q) = child_perm {
        let _s = famg_prof::scope_at("permute", level);
        q.apply_rows_into(&scratch[..nc * k], k, &mut bc);
    }

    // Recurse with zero guess. A permuted child iterates in the scratch
    // block and is gathered back out of its ordering into `xc`.
    let mut xc = std::mem::take(&mut ws.xc[level]);
    let child_x = if child_perm.is_some() {
        &mut scratch[..nc * k]
    } else {
        &mut xc[..]
    };
    child_x.fill(0.0);
    cycle_level(h, level + 1, &bc, child_x, k, ws, true);
    if let Some(q) = child_perm {
        let _s = famg_prof::scope_at("permute", level);
        q.unapply_rows_into(&scratch[..nc * k], k, &mut xc);
    }
    ws.scratch[level + 1] = scratch;

    // Prolongate and correct.
    {
        let _s = famg_prof::scope_at("prolong", level);
        match ops {
            TransferOps::CfBlock { pf, .. } => {
                famg_prof::counter("flops", flops::spmm(pf.nnz(), k));
                interp_apply_add_rows(pf, nc, &xc, k, x);
            }
            TransferOps::Full { p, .. } => {
                famg_prof::counter("flops", flops::spmm(p.nnz(), k) + (n * k) as u64);
                spmm_axpby_rows(p, 1.0, &xc, 1.0, k, x);
            }
        }
    }
    ws.bc[level] = bc;
    ws.xc[level] = xc;

    // Post-smoothing: F then C.
    {
        let _s = famg_prof::scope_at(smooth_span, level);
        famg_prof::counter("flops", flops::gs_sweep_batch(a.nnz(), k) * sweeps as u64);
        for _ in 0..sweeps {
            lvl.smoother
                .post_smooth_rows(a, b, x, k, &mut ws.smoother_ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::AmgConfig;
    use famg_matgen::{laplace2d, rhs};
    use famg_sparse::spmv::residual_norm_sq;
    use famg_sparse::Csr;

    fn rel_residual(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        let rn = residual_norm_sq(a, x, b, &mut r).sqrt();
        let bn = famg_sparse::vecops::norm2(b);
        rn / bn
    }

    /// Runs `cycles` V-cycles handling the finest-level permutation the
    /// way the solver wrapper does; returns relative residuals after each.
    fn run_cycles(a: &Csr, cfg: &AmgConfig, b: &[f64], cycles: usize) -> Vec<f64> {
        let h = Hierarchy::build(a, cfg);
        let (pb, mut px) = match &h.levels[0].perm {
            Some(q) => (q.apply_vec(b), vec![0.0; b.len()]),
            None => (b.to_vec(), vec![0.0; b.len()]),
        };
        let pa = &h.levels[0].a;
        let mut ws = CycleWorkspace::for_hierarchy(&h);
        let mut out = Vec::new();
        for _ in 0..cycles {
            vcycle(&h, &pb, &mut px, &mut ws);
            out.push(rel_residual(pa, &pb, &px));
        }
        out
    }

    #[test]
    fn single_vcycle_reduces_residual_strongly() {
        let a = laplace2d(24, 24);
        let b = rhs::ones(a.nrows());
        for cfg in [
            AmgConfig::single_node_paper(),
            AmgConfig::single_node_baseline(),
        ] {
            let res = run_cycles(&a, &cfg, &b, 1);
            // PMIS + extended+i V(1,1) factors are typically 0.1–0.4.
            assert!(
                res[0] < 0.45,
                "V-cycle left relative residual {} (opt={})",
                res[0],
                cfg.opt.cf_reorder
            );
        }
    }

    #[test]
    fn repeated_vcycles_converge_geometrically() {
        let a = laplace2d(32, 32);
        let b = rhs::random(a.nrows(), 1);
        let res = run_cycles(&a, &AmgConfig::single_node_paper(), &b, 8);
        let mut prev = 1.0f64;
        for &cur in &res {
            assert!(
                cur < 0.55 * prev,
                "convergence factor too weak: {cur}/{prev}"
            );
            prev = cur;
        }
        assert!(prev < 1e-4);
    }
}
