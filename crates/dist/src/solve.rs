//! Distributed solve phase: hybrid Gauss-Seidel smoothing, V-cycles,
//! standalone AMG, and FGMRES preconditioned by one V-cycle (the Table 4
//! configuration).
//!
//! Hybrid GS here is GS within a rank and Jacobi across ranks: each
//! half-sweep snapshots the halo (one exchange), then relaxes local rows
//! — interior rows (empty `offd` row) first, boundary rows second, each
//! group in ascending order — reading local columns live and external
//! columns from the snapshot, the rank-level analogue of the Fig. 2
//! kernels. The interior-first ordering is what lets the overlapped mode
//! (`DistOptFlags::overlap_comm`) relax interior rows while the halo is
//! still in flight without changing a single floating-point operation:
//! both modes sweep the same rows in the same order with the same reads.

use crate::comm::{wire, Comm, CommPhase};
use crate::hierarchy::DistHierarchy;
use crate::spmv::{
    dist_dot_rows, lane_groups, try_dist_residual_norm_sq_rows, try_dist_residual_rows,
    try_dist_spmv_rows,
};
use famg_core::convergence::ColumnTracker;
use famg_core::solver::{check_dim as dim, SolveError};
use famg_core::stats::{CommVolume, PhaseTimes};
use famg_krylov::cg::{cg_rows, CgOptions, CgWorkspace};
use famg_krylov::fgmres::{fgmres_in, FgmresOptions};
use famg_krylov::KrylovSpace;
use famg_sparse::counters::flops;
use famg_sparse::multivec::{axpy_rows_seq, gather_col, scatter_col, width, xpby_rows_seq};
use famg_sparse::{lanes, MultiVec};

/// Validates the hierarchy and the local vector lengths before entering
/// the instrumented solve body.
fn check_args(h: &DistHierarchy, b: &[f64], x: &[f64]) -> Result<(), SolveError> {
    h.check_shape()?;
    let n = h.levels[0].a.local_rows();
    dim(n, b.len(), "local right-hand side")?;
    dim(n, x.len(), "local initial guess")
}

/// Smoothing class selector.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Coarse,
    Fine,
}

/// One hybrid GS half-sweep on a level over the `k`-interleaved blocks
/// `(b, k)` and `(x, k)`: interior rows of the selected class first (no
/// halo reads), then boundary rows against the halo snapshot — one halo
/// exchange (one envelope per neighbor) per half-sweep at any width. With
/// `overlap_comm` the interior pass runs while the halo is in flight; the
/// per-row, per-lane arithmetic and the sweep order are identical in both
/// modes and at every width, so the result is bitwise independent of
/// both.
fn half_sweep(
    comm: &Comm,
    h: &DistHierarchy,
    level: usize,
    b: &[f64],
    x: &mut [f64],
    k: usize,
    class: Class,
) {
    #[allow(clippy::too_many_arguments)]
    fn relax<const K: usize>(
        lvl: &crate::hierarchy::DistLevel,
        rows: &[usize],
        my_c0: usize,
        want: bool,
        b: &[f64],
        x: &mut [f64],
        ext: Option<&[f64]>,
        k: usize,
    ) {
        let a = &lvl.a;
        let kk = width::<K>(k);
        for &i in rows {
            if lvl.is_coarse[i] != want {
                continue;
            }
            let li = a.row_start + i - my_c0;
            let d = lvl.dinv[i];
            lane_groups::<K>(k, |j0, m| {
                let at = i * kk + j0;
                let mut acc = [0.0f64; 8];
                acc[..m].copy_from_slice(&b[at..at + m]);
                for (c, v) in a.diag.row_iter(i) {
                    if c != li {
                        for j in 0..m {
                            acc[j] -= v * x[c * kk + j0 + j];
                        }
                    }
                }
                if let Some(ext) = ext {
                    for (e, v) in a.offd.row_iter(i) {
                        for j in 0..m {
                            acc[j] -= v * ext[e * kk + j0 + j];
                        }
                    }
                }
                for j in 0..m {
                    x[at + j] = acc[j] * d;
                }
            });
        }
    }
    let lvl = &h.levels[level];
    let a = &lvl.a;
    let my_c0 = a.col_starts[comm.rank()];
    let want = class == Class::Coarse;
    // The halo snapshot is taken at post time (sends carry the pre-sweep
    // values) in both modes — the across-rank Jacobi coupling does not
    // depend on when the wait happens.
    let mut halo = lvl.plan_a.post_rows(comm, x, k);
    if !h.dist_opt.overlap_comm {
        halo.complete(comm);
    }
    lanes!(k, relax(lvl, &a.interior_rows, my_c0, want, b, x, None, k));
    let x_ext = halo.finish(comm);
    lanes!(
        k,
        relax(lvl, &a.boundary_rows, my_c0, want, b, x, Some(&x_ext), k)
    );
}

/// C-F smoothing (pre) or F-C smoothing (post).
fn smooth(
    comm: &Comm,
    h: &DistHierarchy,
    level: usize,
    b: &[f64],
    x: &mut [f64],
    k: usize,
    pre: bool,
) {
    let order = if pre {
        [Class::Coarse, Class::Fine]
    } else {
        [Class::Fine, Class::Coarse]
    };
    for class in order {
        half_sweep(comm, h, level, b, x, k, class);
    }
}

/// Per-level scratch for one V-cycle visit: residual and correction on
/// the fine side, restricted RHS and coarse iterate on the coarse side.
#[derive(Debug, Clone)]
struct CycleBufs {
    r: Vec<f64>,
    corr: Vec<f64>,
    bc: Vec<f64>,
    xc: Vec<f64>,
}

/// Reusable scratch for [`try_dist_vcycle_rows`] and the solve drivers:
/// one set of `k`-interleaved buffers per non-coarsest level. Build it
/// once per solve and reuse it across cycles — the recursive descent then
/// performs no heap allocation.
#[derive(Debug, Clone)]
pub struct DistCycleWorkspace {
    k: usize,
    levels: Vec<CycleBufs>,
}

impl DistCycleWorkspace {
    /// Scratch for `k`-interleaved blocks, sized for every non-coarsest
    /// level of `h` (this rank's local row counts).
    #[must_use]
    pub fn for_width(h: &DistHierarchy, k: usize) -> Self {
        let mut levels = Vec::new();
        for (l, lvl) in h.levels.iter().enumerate() {
            if lvl.p.is_none() || l + 1 >= h.levels.len() {
                break;
            }
            let nf = lvl.a.local_rows() * k;
            let nc = h.levels[l + 1].a.local_rows() * k;
            levels.push(CycleBufs {
                r: vec![0.0; nf],
                corr: vec![0.0; nf],
                bc: vec![0.0; nc],
                xc: vec![0.0; nc],
            });
        }
        DistCycleWorkspace { k, levels }
    }

    /// Rebuilds the buffers if they were sized for a different hierarchy
    /// or width.
    fn fit(&mut self, h: &DistHierarchy, k: usize) {
        let cut = h
            .levels
            .iter()
            .position(|l| l.p.is_none())
            .unwrap_or(h.levels.len());
        let expected = cut.min(h.levels.len().saturating_sub(1));
        let fits = self.k == k
            && self.levels.len() == expected
            && self.levels.iter().enumerate().all(|(l, bufs)| {
                bufs.r.len() == h.levels[l].a.local_rows() * k
                    && bufs.bc.len() == h.levels[l + 1].a.local_rows() * k
            });
        if !fits {
            *self = Self::for_width(h, k);
        }
    }
}

/// Applies one distributed V-cycle at `level`, on scratch allocated for
/// the call; repeated cycles over one hierarchy should hold a
/// [`DistCycleWorkspace`] and call [`try_dist_vcycle_rows`].
///
/// # Panics
/// Panics on mis-sized vectors or a level whose operators and halo plans
/// disagree; [`try_dist_vcycle_rows`] returns a typed error instead.
pub fn dist_vcycle(comm: &Comm, h: &DistHierarchy, level: usize, b: &[f64], x: &mut [f64]) {
    let mut ws = DistCycleWorkspace::for_width(h, 1);
    try_dist_vcycle_rows(comm, h, level, b, x, 1, &mut ws)
        .unwrap_or_else(|e| panic!("famg distributed V-cycle: {e}"));
}

/// One distributed V-cycle over the `k`-interleaved blocks `(b, k)` and
/// `(x, k)` (a plain vector is the `k = 1` block): one traversal advances
/// all columns, and every halo exchange sends one envelope per neighbor,
/// so the message count is independent of `k`. Column `j` of the result
/// is bitwise the `k = 1` cycle on column `j`, in both halo modes.
/// Smoothing windows are named `smooth` at `k = 1` and `gs_batch` beyond.
/// Every kernel runs through its `try_` variant, so a mis-sized block or a
/// plan/operator mismatch on *any* level is a [`SolveError`], not a panic
/// deep inside a kernel.
pub fn try_dist_vcycle_rows(
    comm: &Comm,
    h: &DistHierarchy,
    level: usize,
    b: &[f64],
    x: &mut [f64],
    k: usize,
    ws: &mut DistCycleWorkspace,
) -> Result<(), SolveError> {
    ws.fit(h, k);
    let start = level.min(ws.levels.len());
    vcycle_level(comm, h, level, b, x, k, &mut ws.levels[start..])
}

/// Recursive V-cycle body; `bufs[0]` is this level's scratch.
fn vcycle_level(
    comm: &Comm,
    h: &DistHierarchy,
    level: usize,
    b: &[f64],
    x: &mut [f64],
    k: usize,
    bufs: &mut [CycleBufs],
) -> Result<(), SolveError> {
    let _span = famg_prof::scope_at("vcycle", level);
    // Attribute this level's traffic (smoothing, transfers, residual).
    let _scope = comm.scoped(level, CommPhase::Solve);
    let lvl = &h.levels[level];
    let nl = lvl.a.local_rows();
    dim(nl * k, b.len(), "level right-hand side")?;
    dim(nl * k, x.len(), "level iterate")?;
    let overlap = h.dist_opt.overlap_comm;
    if lvl.p.is_none() {
        // Coarsest: gather to rank 0, dense solve, scatter back.
        let _s = famg_prof::scope_at("coarse_solve", level);
        coarse_solve(comm, h, level, b, x, k);
        return Ok(());
    }
    // Past the coarsest-level check a level must carry all four transfer
    // pieces; `DistHierarchy::check_shape` verifies this up front for
    // the `try_*` entry points.
    let (p, plan_p, rt, plan_r) = lvl
        .transfers()
        // PANIC-FREE: check_shape (run by every try_* entry) rejects a
        // non-coarsest level that is missing P/R or their halo plans.
        .expect("hierarchy invariant: non-coarsest level is missing P/R or their halo plans");
    let (cur, rest) = bufs
        .split_first_mut()
        // PANIC-FREE: fit() sized one buffer set per non-coarsest level.
        .expect("cycle workspace invariant: buffer set missing for a non-coarsest level");
    let smooth_span = if k == 1 { "smooth" } else { "gs_batch" };
    let sweep_flops = 2 * h.config.num_sweeps as u64 * flops::gs_sweep_batch(lvl.a.local_nnz(), k);

    {
        let _s = famg_prof::scope_at(smooth_span, level);
        for _ in 0..h.config.num_sweeps {
            smooth(comm, h, level, b, x, k, true);
        }
        famg_prof::counter("flops", sweep_flops);
    }

    {
        let _s = famg_prof::scope_at("residual", level);
        // Residual only — the norm is unused here.
        try_dist_residual_rows(comm, &lvl.a, &lvl.plan_a, x, b, &mut cur.r, k, overlap)?;
        famg_prof::counter("flops", flops::spmm(lvl.a.local_nnz(), k));
    }
    {
        let _s = famg_prof::scope_at("restrict", level);
        try_dist_spmv_rows(comm, rt, plan_r, &cur.r, k, &mut cur.bc, overlap)?;
        famg_prof::counter("flops", flops::spmm(rt.local_nnz(), k));
    }

    // The coarse cycle starts from a zero iterate.
    cur.xc.fill(0.0);
    vcycle_level(comm, h, level + 1, &cur.bc, &mut cur.xc, k, rest)?;

    {
        let _s = famg_prof::scope_at("prolong", level);
        try_dist_spmv_rows(comm, p, plan_p, &cur.xc, k, &mut cur.corr, overlap)?;
        for (xi, ci) in x.iter_mut().zip(&cur.corr) {
            *xi += ci;
        }
        famg_prof::counter(
            "flops",
            flops::spmm(p.local_nnz(), k) + flops::axpy_batch(nl, k),
        );
    }

    {
        let _s = famg_prof::scope_at(smooth_span, level);
        for _ in 0..h.config.num_sweeps {
            smooth(comm, h, level, b, x, k, false);
        }
        famg_prof::counter("flops", sweep_flops);
    }
    Ok(())
}

/// Coarsest-level solve of a `k`-interleaved block at `level`: gather the
/// `n_coarse × k` block to rank 0 over the binomial tree (P−1 messages,
/// all columns inside, none of them empty envelopes), back-substitute
/// each column through the same LU, tree-scatter the solution block back
/// along the level's row partition.
// ALLOC: coarsest-level gather/solve/scatter — the message payloads and
// the rank-0 dense back-substitution buffers are per-visit by nature
// (one rank-0 round trip per cycle over O(n_coarse) data).
fn coarse_solve(comm: &Comm, h: &DistHierarchy, level: usize, b: &[f64], x: &mut [f64], k: usize) {
    let starts = &h.levels[level].a.col_starts;
    let n_global = starts.last().copied().unwrap_or(0);
    if n_global == 0 {
        return;
    }
    // No factorization (level too big for LU) means every rank smooths
    // instead; coarse_lu is Some only on rank 0, so agree via a
    // flag-OR allreduce rather than local inspection.
    let has_lu = comm.allreduce_or(h.coarse_lu.is_some(), 0x90);
    if !has_lu {
        for _ in 0..4 * h.config.num_sweeps {
            smooth(comm, h, level, b, x, k, true);
        }
        return;
    }
    // Row-major blocks concatenate along rows directly: the gathered
    // parts form the full n_global × k block in rank order.
    let received = comm.gather_to(0, b.to_vec(), 0x91, |v| wire::f64s(v.len()));
    let slices: Option<Vec<Vec<f64>>> = received.map(|parts| {
        let full_b: Vec<f64> = parts.into_iter().flatten().collect();
        debug_assert_eq!(full_b.len(), n_global * k);
        let lu = h
            .coarse_lu
            .as_ref()
            // PANIC-FREE: gather_to yields Some only on the gather root
            // (rank 0), the one rank that owns the factorization when
            // the allreduce above reported has_lu.
            .expect("coarse-solve invariant: gather root holds the LU factorization");
        let mut sol = vec![0.0f64; n_global * k];
        let mut col = vec![0.0f64; n_global];
        for j in 0..k {
            gather_col(&full_b, k, j, &mut col);
            scatter_col(&mut sol, k, j, &lu.solve(&col));
        }
        starts
            .windows(2)
            .map(|w| sol[w[0] * k..w[1] * k].to_vec())
            .collect()
    });
    let mine = comm.scatter_from(0, slices, 0x92, |v| wire::f64s(v.len()));
    x.copy_from_slice(&mine);
}

/// Result of a distributed solve (per rank; global quantities identical
/// on every rank).
#[derive(Debug, Clone)]
pub struct DistSolveResult {
    /// Iterations performed.
    pub iterations: usize,
    /// Final global relative residual.
    pub final_relres: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Solve-phase timing (this rank).
    pub times: PhaseTimes,
    /// Wall time blocked in communication during the solve (this rank).
    pub solve_comm_time: std::time::Duration,
    /// Bytes/messages this rank sent during the solve.
    pub solve_comm: CommVolume,
    /// Hierarchical span profile of the solve (this rank).
    pub profile: famg_prof::Profile,
}

/// Standalone distributed AMG iteration to the configured tolerance.
///
/// # Panics
/// Panics on a malformed hierarchy or mis-sized local vectors; use
/// [`try_dist_amg_solve`] for a typed error instead.
pub fn dist_amg_solve(comm: &Comm, h: &DistHierarchy, b: &[f64], x: &mut [f64]) -> DistSolveResult {
    try_dist_amg_solve(comm, h, b, x).unwrap_or_else(|e| panic!("famg distributed solve: {e}"))
}

/// [`dist_amg_solve`] with up-front shape validation: a malformed
/// hierarchy or mis-sized vectors produce a typed [`SolveError`] before
/// any rank communicates.
pub fn try_dist_amg_solve(
    comm: &Comm,
    h: &DistHierarchy,
    b: &[f64],
    x: &mut [f64],
) -> Result<DistSolveResult, SolveError> {
    check_args(h, b, x)?;
    Ok(solve_window(comm, || amg_solve_rows(comm, h, b, x, 1))?.single())
}

/// Result of a distributed batched (multi-RHS) solve. Global quantities
/// (iterations, residuals, convergence flags) are identical on every
/// rank; timings and traffic are per rank.
#[derive(Debug, Clone)]
pub struct DistBatchSolveResult {
    /// V-cycles applied per column before that column stopped.
    pub iterations: Vec<usize>,
    /// Final global relative residual per column.
    pub final_relres: Vec<f64>,
    /// Whether each column met the tolerance.
    pub converged: Vec<bool>,
    /// Solve-phase timing (this rank, whole batch).
    pub times: PhaseTimes,
    /// Wall time blocked in communication during the solve (this rank).
    pub solve_comm_time: std::time::Duration,
    /// Bytes/messages this rank sent during the solve.
    pub solve_comm: CommVolume,
    /// Hierarchical span profile of the solve (this rank).
    pub profile: famg_prof::Profile,
}

impl DistBatchSolveResult {
    /// Batch width.
    #[must_use]
    pub fn k(&self) -> usize {
        self.iterations.len()
    }

    /// Whether every column met the tolerance.
    #[must_use]
    pub fn all_converged(&self) -> bool {
        self.converged.iter().all(|&c| c)
    }

    /// A single-vector solve's report: column 0 of a width-1 batch.
    fn single(self) -> DistSolveResult {
        DistSolveResult {
            iterations: self.iterations[0],
            final_relres: self.final_relres[0],
            converged: self.converged[0],
            times: self.times,
            solve_comm_time: self.solve_comm_time,
            solve_comm: self.solve_comm,
            profile: self.profile,
        }
    }
}

/// What a driver's loop reports per column: iterations, final global
/// relative residual, tolerance met.
type Columns = (Vec<usize>, Vec<f64>, Vec<bool>);

/// The one harness every distributed driver runs in: `body` executes
/// inside the `"solve"` root span and the level-0 solve traffic scope, and
/// its report comes back with this rank's span profile, Fig. 5 bucket
/// times, blocked-in-communication time and sent volume over that window.
fn solve_window(
    comm: &Comm,
    body: impl FnOnce() -> Result<Columns, SolveError>,
) -> Result<DistBatchSolveResult, SolveError> {
    let comm_t0 = comm.comm_time();
    let (bytes0, messages0) = (comm.bytes_sent(), comm.messages_sent());
    let root_span = famg_prof::scope("solve");
    let scope = comm.scoped(0, CommPhase::Solve);
    let columns = body();
    drop(scope);
    drop(root_span);
    let profile = famg_prof::take();
    let (iterations, final_relres, converged) = columns?;
    let times = profile
        .find_root("solve")
        .map(PhaseTimes::from_span)
        .unwrap_or_default();
    Ok(DistBatchSolveResult {
        iterations,
        final_relres,
        converged,
        times,
        solve_comm_time: comm.comm_time_since(comm_t0),
        solve_comm: CommVolume {
            bytes: comm.bytes_sent() - bytes0,
            messages: comm.messages_sent() - messages0,
        },
        profile,
    })
}

/// Standalone distributed AMG iteration on a block of `k` right-hand
/// sides.
///
/// # Panics
/// Panics on a malformed hierarchy or mis-shaped blocks; use
/// [`try_dist_amg_solve_multi`] for a typed error instead.
pub fn dist_amg_solve_multi(
    comm: &Comm,
    h: &DistHierarchy,
    b: &MultiVec,
    x: &mut MultiVec,
) -> DistBatchSolveResult {
    try_dist_amg_solve_multi(comm, h, b, x)
        .unwrap_or_else(|e| panic!("famg distributed batched solve: {e}"))
}

/// Batched [`try_dist_amg_solve`]: every V-cycle and every residual
/// reduction advances all `k` columns at once, so the collective and
/// halo message counts are those of a single-vector solve running for
/// `max_j iterations(j)` cycles. Column `j` of the result is bitwise
/// identical to `try_dist_amg_solve` on `(b_j, x_j)`.
pub fn try_dist_amg_solve_multi(
    comm: &Comm,
    h: &DistHierarchy,
    b: &MultiVec,
    x: &mut MultiVec,
) -> Result<DistBatchSolveResult, SolveError> {
    h.check_shape()?;
    let n = h.levels[0].a.local_rows();
    dim(n, b.n(), "local right-hand side block")?;
    dim(n, x.n(), "local initial guess block")?;
    dim(b.k(), x.k(), "local initial guess block width")?;
    solve_window(comm, || {
        amg_solve_rows(comm, h, b.data(), x.data_mut(), b.k())
    })
}

/// The one AMG iterate-to-tolerance loop, over validated `k`-interleaved
/// local blocks. A column that reaches the tolerance (or starts there)
/// stops reporting while the kernels keep advancing its lanes (see
/// [`ColumnTracker`]); every rank takes identical masking decisions
/// because the reduced residuals are identical on every rank.
fn amg_solve_rows(
    comm: &Comm,
    h: &DistHierarchy,
    b: &[f64],
    x: &mut [f64],
    k: usize,
) -> Result<Columns, SolveError> {
    if k == 0 {
        return Ok(Columns::default());
    }
    let lvl0 = &h.levels[0];
    let ov = h.dist_opt.overlap_comm;
    let nl = lvl0.a.local_rows();
    // ALLOC: per-solve residual block, cycle workspace and k-sized
    // reporting lanes, allocated once here and reused across cycles.
    let mut r = vec![0.0; nl * k];
    let mut ws = DistCycleWorkspace::for_width(h, k);
    let mut bnorms = vec![0.0f64; k]; // ALLOC: k-sized reporting lanes (once per solve)
    let mut relres = vec![0.0f64; k]; // ALLOC: k-sized reporting lanes (once per solve)
    let residual_flops = flops::spmm(lvl0.a.local_nnz(), k) + flops::dot_batch(nl, k);
    let blas1 = famg_prof::scope("blas1");
    dist_dot_rows(comm, b, b, k, &mut bnorms);
    for bn in &mut bnorms {
        *bn = bn.sqrt().max(f64::MIN_POSITIVE);
    }
    // Per-column global relative residuals of the current iterate.
    let mut relres_of = |x: &[f64], relres: &mut [f64]| {
        try_dist_residual_norm_sq_rows(comm, &lvl0.a, &lvl0.plan_a, x, b, &mut r, k, ov, relres)?;
        for (rr, bn) in relres.iter_mut().zip(&bnorms) {
            *rr = rr.sqrt() / bn;
        }
        Ok(())
    };
    relres_of(x, &mut relres)?;
    famg_prof::counter("flops", flops::dot_batch(nl, k) + residual_flops);
    drop(blas1);

    let mut cols = ColumnTracker::new(&relres, h.config.tolerance);
    let mut cycles = 0usize;
    while cols.any_live() && cycles < h.config.max_iterations {
        cols.freeze_stopped(x);
        try_dist_vcycle_rows(comm, h, 0, b, x, k, &mut ws)?;
        cycles += 1;
        let _s = famg_prof::scope("blas1");
        relres_of(x, &mut relres)?;
        famg_prof::counter("flops", residual_flops);
        cols.record(cycles, &relres);
    }
    let converged = cols.finish(x);
    Ok((cols.iterations, cols.final_relres, converged))
}

/// This rank's side of the Krylov space: its rows of the level-0
/// operator, one all-reduce per inner product, one V-cycle from zero as
/// the preconditioner. Local kernels are sequential — a rank thread never
/// enters the pool — and every operation opens the `"spmv"`/`"blas1"`
/// span and adds the flops the solve profile is read from.
struct RankSpace<'a> {
    comm: &'a Comm,
    h: &'a DistHierarchy,
    /// Per-solve cycle scratch, reused by every preconditioner application.
    ws: DistCycleWorkspace,
}

impl KrylovSpace for RankSpace<'_> {
    type Error = SolveError;

    fn times_a(&self, x: &[f64], k: usize, y: &mut [f64]) -> Result<(), SolveError> {
        let (l0, ov) = (&self.h.levels[0], self.h.dist_opt.overlap_comm);
        let _s = famg_prof::scope("spmv");
        famg_prof::counter("flops", flops::spmm(l0.a.local_nnz(), k));
        try_dist_spmv_rows(self.comm, &l0.a, &l0.plan_a, x, k, y, ov)
    }

    fn residual_of(&self, x: &[f64], b: &[f64], k: usize, r: &mut [f64]) -> Result<(), SolveError> {
        let (l0, ov) = (&self.h.levels[0], self.h.dist_opt.overlap_comm);
        let _s = famg_prof::scope("spmv");
        famg_prof::counter("flops", flops::spmm(l0.a.local_nnz(), k));
        try_dist_residual_rows(self.comm, &l0.a, &l0.plan_a, x, b, r, k, ov)
    }

    fn inner_products(&self, x: &[f64], y: &[f64], k: usize, out: &mut [f64]) {
        let _s = famg_prof::scope("blas1");
        famg_prof::counter("flops", flops::dot(x.len()));
        dist_dot_rows(self.comm, x, y, k, out);
    }

    fn precondition(&mut self, r: &MultiVec, z: &mut MultiVec) -> Result<(), SolveError> {
        let (zd, k) = (z.data_mut(), r.k());
        zd.fill(0.0);
        try_dist_vcycle_rows(self.comm, self.h, 0, r.data(), zd, k, &mut self.ws)
    }

    fn lanes_axpy(&self, alpha: &[f64], x: &[f64], y: &mut [f64], k: usize) {
        let _s = famg_prof::scope("blas1");
        famg_prof::counter("flops", flops::axpy(x.len()));
        axpy_rows_seq(alpha, x, y, k);
    }

    fn lanes_xpby(&self, x: &[f64], beta: &[f64], y: &mut [f64], k: usize) {
        let _s = famg_prof::scope("blas1");
        famg_prof::counter("flops", flops::axpy(x.len()));
        xpby_rows_seq(x, beta, y, k);
    }
}

/// Distributed flexible GMRES preconditioned with one AMG V-cycle per
/// application (Table 4's solver).
pub fn dist_fgmres_amg(
    comm: &Comm,
    h: &DistHierarchy,
    b: &[f64],
    x: &mut [f64],
    tolerance: f64,
    max_iterations: usize,
    restart: usize,
) -> DistSolveResult {
    try_dist_fgmres_amg(comm, h, b, x, tolerance, max_iterations, restart)
        .unwrap_or_else(|e| panic!("famg distributed FGMRES: {e}"))
}

/// [`dist_fgmres_amg`] with up-front shape validation:
/// [`famg_krylov::fgmres`]'s recurrence on this rank's [`RankSpace`].
pub fn try_dist_fgmres_amg(
    comm: &Comm,
    h: &DistHierarchy,
    b: &[f64],
    x: &mut [f64],
    tolerance: f64,
    max_iterations: usize,
    restart: usize,
) -> Result<DistSolveResult, SolveError> {
    check_args(h, b, x)?;
    let opts = FgmresOptions {
        tolerance,
        max_iterations,
        restart,
    };
    let res = solve_window(comm, || {
        let ws = DistCycleWorkspace::for_width(h, 1);
        let r = fgmres_in(&mut RankSpace { comm, h, ws }, b, x, &opts)?;
        // ALLOC: the one-column report, once per solve.
        Ok((vec![r.iterations], vec![r.final_relres], vec![r.converged]))
    })?;
    Ok(res.single())
}

/// Distributed conjugate gradients preconditioned with one AMG V-cycle
/// per iteration. Each iteration performs the three global reductions
/// (`p·Ap`, `r·z`, `‖r‖`) the paper's §1 identifies as the Krylov
/// scalability cost — compare the collective counts against
/// `dist_amg_solve`, which needs only the residual-norm reduction.
pub fn dist_pcg_amg(
    comm: &Comm,
    h: &DistHierarchy,
    b: &[f64],
    x: &mut [f64],
    tolerance: f64,
    max_iterations: usize,
) -> DistSolveResult {
    try_dist_pcg_amg(comm, h, b, x, tolerance, max_iterations)
        .unwrap_or_else(|e| panic!("famg distributed PCG: {e}"))
}

/// [`dist_pcg_amg`] with up-front shape validation: [`famg_krylov::cg`]'s
/// recurrence on this rank's [`RankSpace`].
pub fn try_dist_pcg_amg(
    comm: &Comm,
    h: &DistHierarchy,
    b: &[f64],
    x: &mut [f64],
    tolerance: f64,
    max_iterations: usize,
) -> Result<DistSolveResult, SolveError> {
    check_args(h, b, x)?;
    let opts = CgOptions {
        tolerance,
        max_iterations,
    };
    let res = solve_window(comm, || {
        let ws = DistCycleWorkspace::for_width(h, 1);
        let mut cg_ws = CgWorkspace::for_problem(b.len());
        let res = cg_rows(&mut RankSpace { comm, h, ws }, b, x, 1, &opts, &mut cg_ws)?;
        Ok((res.iterations, res.final_relres, res.converged))
    })?;
    Ok(res.single())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_ranks;
    use crate::hierarchy::{DistHierarchy, DistOptFlags};
    use crate::parcsr::{default_partition, ParCsr};
    use famg_core::params::AmgConfig;
    use famg_matgen::{amg2013_like, laplace2d, rhs};

    fn solve_dist(
        a: &famg_sparse::Csr,
        cfg: &AmgConfig,
        nranks: usize,
        dopt: DistOptFlags,
        fgmres: bool,
    ) -> (Vec<f64>, usize, bool, Vec<usize>) {
        let n = a.nrows();
        let b = rhs::ones(n);
        let starts = default_partition(n, nranks);
        // Both halo modes: overlap is bitwise neutral by contract, so the
        // solution and the iteration count must not move.
        let runs = [true, false].map(|overlap_comm| {
            let dopt = DistOptFlags {
                overlap_comm,
                ..dopt
            };
            let (mut parts, _) = run_ranks(nranks, |c| {
                let r = c.rank();
                let pa = ParCsr::from_global_rows(a, starts[r], starts[r + 1], starts.clone(), r);
                let h = DistHierarchy::build(c, pa, cfg, dopt);
                let bl = b[starts[r]..starts[r + 1]].to_vec();
                let mut xl = vec![0.0; bl.len()];
                let res = if fgmres {
                    dist_fgmres_amg(c, &h, &bl, &mut xl, cfg.tolerance, 200, 50)
                } else {
                    dist_amg_solve(c, &h, &bl, &mut xl)
                };
                (xl, res.iterations, res.converged, h.stats.level_nnz.clone())
            });
            let x: Vec<f64> = parts.iter().flat_map(|(xl, ..)| xl.clone()).collect();
            let (_, iters, conv, nnz) = parts.swap_remove(0);
            (x, iters, conv, nnz)
        });
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let [on, off] = &runs;
        assert_eq!(bits(&on.0), bits(&off.0), "x differs between halo modes");
        assert_eq!(on.1, off.1, "iterations differ between halo modes");
        let [on, _] = runs;
        on
    }

    fn check(a: &famg_sparse::Csr, x: &[f64], tol: f64) {
        let b = rhs::ones(a.nrows());
        let mut r = vec![0.0; b.len()];
        let rn = famg_sparse::spmv::residual_norm_sq(a, x, &b, &mut r).sqrt();
        let bn = famg_sparse::vecops::norm2(&b);
        assert!(rn / bn <= tol * 1.05, "relres {}", rn / bn);
    }

    #[test]
    fn dist_amg_solves_laplacian() {
        let a = laplace2d(24, 24);
        let cfg = AmgConfig::single_node_paper();
        for nranks in [1usize, 3] {
            let (x, iters, conv, _) = solve_dist(&a, &cfg, nranks, DistOptFlags::all(), false);
            assert!(conv, "nranks {nranks}");
            assert!(iters < 40);
            check(&a, &x, cfg.tolerance);
        }
    }

    #[test]
    fn dist_fgmres_amg_solves_jumpy_problem() {
        let a = amg2013_like(8, 8, 8, 2, 2.0, 3);
        let cfg = AmgConfig::multi_node_ei4();
        let (x, iters, conv, _) = solve_dist(&a, &cfg, 2, DistOptFlags::all(), true);
        assert!(conv);
        assert!(iters < 60, "iters {iters}");
        check(&a, &x, cfg.tolerance);
    }

    #[test]
    fn all_interp_schemes_solve_distributed() {
        let a = laplace2d(20, 20);
        for cfg in [
            AmgConfig::multi_node_ei4(),
            AmgConfig::multi_node_mp(),
            AmgConfig::multi_node_2s_ei444(),
        ] {
            let (x, _, conv, _) = solve_dist(&a, &cfg, 2, DistOptFlags::all(), true);
            assert!(conv, "{:?}", cfg.interp);
            check(&a, &x, cfg.tolerance);
        }
    }

    /// The §4 flags change time and bytes, never a bit of the result
    /// (DESIGN.md §2.3): with every flag on and every flag off, the levels
    /// hold the same nonzeros and the AMG and FGMRES solves return the same
    /// iterates after the same iteration counts. `multi_node_mp` is where
    /// `filter_interp` and both renumberings do work.
    #[test]
    fn dist_flags_change_no_bit_of_the_result() {
        let a = laplace2d(16, 16);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for cfg in [AmgConfig::single_node_paper(), AmgConfig::multi_node_mp()] {
            for (nranks, fgmres) in [(3, false), (4, false), (3, true)] {
                let (x1, i1, c1, nnz1) = solve_dist(&a, &cfg, nranks, DistOptFlags::all(), fgmres);
                let (x2, i2, c2, nnz2) = solve_dist(&a, &cfg, nranks, DistOptFlags::none(), fgmres);
                let case = format!("{:?} nranks {nranks} fgmres {fgmres}", cfg.interp);
                assert!(c1 && c2, "{case}");
                assert_eq!(nnz1, nnz2, "{case}");
                assert_eq!(i1, i2, "{case}");
                assert_eq!(bits(&x1), bits(&x2), "{case}");
            }
        }
    }

    #[test]
    fn dist_pcg_amg_solves_spd_system() {
        let a = laplace2d(20, 20);
        let n = a.nrows();
        let b = rhs::ones(n);
        let cfg = AmgConfig::single_node_paper();
        let starts = default_partition(n, 3);
        let (parts, _) = run_ranks(3, |c| {
            let r = c.rank();
            let pa = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
            let h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
            let bl = b[starts[r]..starts[r + 1]].to_vec();
            let mut xl = vec![0.0; bl.len()];
            let res = dist_pcg_amg(c, &h, &bl, &mut xl, 1e-7, 100);
            assert!(res.converged, "PCG stalled at {:.2e}", res.final_relres);
            assert!(res.iterations < 25, "PCG took {}", res.iterations);
            xl
        });
        let x: Vec<f64> = parts.concat();
        check(&a, &x, 1e-7);
    }

    #[test]
    fn solve_with_prewarmed_comm_clock() {
        // Regression test for the old `checked_sub(comm_t0).unwrap()`
        // sites: setup and an extra collective round accumulate comm
        // time *before* the solve snapshots its baseline, and the solve
        // must still report a window no larger than the running total.
        let a = laplace2d(16, 16);
        let cfg = AmgConfig::single_node_paper();
        let starts = default_partition(a.nrows(), 3);
        let b = rhs::ones(a.nrows());
        run_ranks(3, |c| {
            let r = c.rank();
            let pa = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
            let h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
            // Pre-warm the clock past the hierarchy's own traffic.
            for _ in 0..3 {
                c.barrier();
                c.allreduce_sum(1.0, 0x777);
            }
            let warm = c.comm_time();
            let bl = b[starts[r]..starts[r + 1]].to_vec();
            let mut xl = vec![0.0; bl.len()];
            let res = dist_amg_solve(c, &h, &bl, &mut xl);
            assert!(res.converged);
            assert!(
                res.solve_comm_time <= c.comm_time(),
                "solve window exceeds the running comm clock"
            );
            assert!(c.comm_time() >= warm);
        });
    }

    #[test]
    fn try_solve_rejects_mis_sized_vectors() {
        let a = laplace2d(8, 8);
        let cfg = AmgConfig::single_node_paper();
        let starts = default_partition(a.nrows(), 2);
        run_ranks(2, |c| {
            let r = c.rank();
            let pa = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
            let h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
            let n = starts[r + 1] - starts[r];
            let bad_b = vec![1.0; n + 1];
            let mut x = vec![0.0; n];
            let err = try_dist_amg_solve(c, &h, &bad_b, &mut x).unwrap_err();
            assert!(matches!(
                err,
                SolveError::DimensionMismatch {
                    what: "local right-hand side",
                    ..
                }
            ));
            let b = vec![1.0; n];
            let mut bad_x = vec![0.0; n + 2];
            let err = try_dist_pcg_amg(c, &h, &b, &mut bad_x, 1e-8, 10).unwrap_err();
            assert!(matches!(
                err,
                SolveError::DimensionMismatch {
                    what: "local initial guess",
                    ..
                }
            ));
        });
    }

    #[test]
    fn try_solve_rejects_malformed_hierarchy() {
        let a = laplace2d(12, 12);
        let cfg = AmgConfig::single_node_paper();
        let starts = default_partition(a.nrows(), 2);
        run_ranks(2, |c| {
            let r = c.rank();
            let pa = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
            let mut h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
            assert!(h.num_levels() > 1, "problem too small to be multilevel");
            // Knock out one transfer operator on a non-coarsest level.
            h.levels[0].plan_r = None;
            let n = starts[r + 1] - starts[r];
            let b = vec![1.0; n];
            let mut x = vec![0.0; n];
            let err = try_dist_fgmres_amg(c, &h, &b, &mut x, 1e-8, 10, 5).unwrap_err();
            assert!(matches!(
                err,
                SolveError::MalformedHierarchy { level: 0, .. }
            ));
        });
    }

    /// A NaN/Inf on one rank reaches every rank through the reduced norm,
    /// so all of them stop before the first V-cycle with the same report
    /// (`relres <= tol` being false for NaN used to mean `max_iterations`
    /// V-cycles on NaN vectors).
    #[test]
    fn fgmres_stops_on_a_non_finite_residual_on_every_rank() {
        let a = laplace2d(12, 12);
        let cfg = AmgConfig::single_node_paper();
        let starts = default_partition(a.nrows(), 2);
        for bad in [f64::NAN, f64::INFINITY] {
            let (parts, _) = run_ranks(2, |c| {
                let r = c.rank();
                let pa = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
                let h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
                let mut bl = vec![1.0; starts[r + 1] - starts[r]];
                if r == 1 {
                    bl[3] = bad;
                }
                let mut xl = vec![0.0; bl.len()];
                let res = dist_fgmres_amg(c, &h, &bl, &mut xl, 1e-8, 50, 10);
                assert!(xl.iter().all(|&v| v == 0.0), "rank {r}: x was touched");
                if famg_prof::enabled() {
                    let root = res.profile.find_root("solve").expect("solve profile");
                    assert!(root.find("vcycle").is_none(), "rank {r} ran a V-cycle");
                }
                (res.iterations, res.converged, res.final_relres.to_bits())
            });
            assert_eq!(parts[0], parts[1], "ranks disagree");
            assert_eq!((parts[0].0, parts[0].1), (0, false));
            assert!(f64::from_bits(parts[0].2).is_nan());
        }
    }

    #[test]
    fn solve_profile_reconciles_with_times_and_comm() {
        if !famg_prof::enabled() {
            return; // span collection compiled out
        }
        let a = laplace2d(16, 16);
        let cfg = AmgConfig::single_node_paper();
        let starts = default_partition(a.nrows(), 2);
        let b = rhs::ones(a.nrows());
        run_ranks(2, |c| {
            let r = c.rank();
            let pa = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
            let h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
            // Setup captured its own profile with a "setup" root.
            let setup_root = h.profile.find_root("setup").expect("setup profile");
            assert!(setup_root.wall > std::time::Duration::ZERO);
            let bl = b[starts[r]..starts[r + 1]].to_vec();
            let mut xl = vec![0.0; bl.len()];
            let res = dist_amg_solve(c, &h, &bl, &mut xl);
            let root = res.profile.find_root("solve").expect("solve profile");
            // The Fig. 5 buckets are a *view* of the span tree: their sum
            // reconstructs the root wall exactly (saturating self-times
            // can only lose time, never invent it).
            assert!(res.times.solve_total() <= root.wall);
            let lost = root.wall.checked_sub(res.times.solve_total()).unwrap();
            assert!(
                lost <= root.wall / 100 + std::time::Duration::from_micros(50),
                "bucket view lost {lost:?} of {:?}",
                root.wall
            );
            // Comm counters attributed at the send choke point match the
            // per-rank volume window measured by comm_mark/comm_since.
            assert_eq!(
                res.profile.total_counter("comm_bytes"),
                res.solve_comm.bytes
            );
            assert_eq!(
                res.profile.total_counter("comm_messages"),
                res.solve_comm.messages
            );
            // And flops were attached.
            assert!(root.total_counter("flops") > 0);
        });
    }

    #[test]
    fn empty_ranks_tolerated() {
        // More ranks than make sense for the size: trailing ranks own
        // almost nothing; the whole pipeline must still run and agree.
        let a = laplace2d(6, 6); // 36 rows on 5 ranks -> ranks of 7/7/7/7/8
        let cfg = AmgConfig {
            coarse_solve_size: 8,
            ..AmgConfig::single_node_paper()
        };
        let (x, _, conv, _) = solve_dist(&a, &cfg, 5, DistOptFlags::all(), false);
        assert!(conv);
        check(&a, &x, cfg.tolerance);
    }

    #[test]
    fn batch_solve_bitwise_matches_solo_columns_across_ranks() {
        // The determinism contract at the distributed level: column j of
        // a k-wide solve is bitwise identical to the scalar solve of
        // (b_j, 0), at every rank count and in both halo modes.
        let a = laplace2d(16, 16);
        let cfg = AmgConfig::single_node_paper();
        for k in [1usize, 2, 3, 4, 8, 9] {
            batch_matches_solo(&a, &cfg, k);
        }
    }

    fn batch_matches_solo(a: &famg_sparse::Csr, cfg: &AmgConfig, k: usize) {
        let n = a.nrows();
        let cols: Vec<Vec<f64>> = (0..k)
            .map(|j| {
                (0..n)
                    .map(|i| ((i * (j + 3) + j) % 13) as f64 / 13.0 - 0.3)
                    .collect()
            })
            .collect();
        for nranks in [1usize, 2, 4] {
            for overlap in [false, true] {
                let dopt = DistOptFlags {
                    overlap_comm: overlap,
                    ..DistOptFlags::all()
                };
                let starts = default_partition(n, nranks);
                run_ranks(nranks, |c| {
                    let r = c.rank();
                    let (s, e) = (starts[r], starts[r + 1]);
                    let pa = ParCsr::from_global_rows(a, s, e, starts.clone(), r);
                    let h = DistHierarchy::build(c, pa, cfg, dopt);
                    let local_cols: Vec<Vec<f64>> =
                        cols.iter().map(|col| col[s..e].to_vec()).collect();
                    let bb = famg_sparse::MultiVec::from_columns(&local_cols);
                    let mut xb = famg_sparse::MultiVec::new(e - s, k);
                    let res = dist_amg_solve_multi(c, &h, &bb, &mut xb);
                    assert_eq!(res.k(), k);
                    for (j, bl) in local_cols.iter().enumerate() {
                        let mut xl = vec![0.0; e - s];
                        let solo = dist_amg_solve(c, &h, bl, &mut xl);
                        assert_eq!(
                            res.iterations[j], solo.iterations,
                            "iters k {k} col {j} ranks {nranks} overlap {overlap}"
                        );
                        assert_eq!(
                            res.final_relres[j].to_bits(),
                            solo.final_relres.to_bits(),
                            "relres col {j} ranks {nranks} overlap {overlap}"
                        );
                        assert_eq!(res.converged[j], solo.converged);
                        assert!(solo.converged);
                        let bcol = xb.col(j);
                        for (i, (bx, sx)) in bcol.iter().zip(&xl).enumerate() {
                            assert_eq!(
                                bx.to_bits(),
                                sx.to_bits(),
                                "x[{i}] col {j} ranks {nranks} overlap {overlap}"
                            );
                        }
                    }
                });
            }
        }
    }

    #[test]
    fn batch_solve_masks_converged_and_edge_widths() {
        let a = laplace2d(12, 12);
        let n = a.nrows();
        let cfg = AmgConfig {
            max_iterations: 3,
            ..AmgConfig::single_node_paper()
        };
        let starts = default_partition(n, 2);
        run_ranks(2, |c| {
            let r = c.rank();
            let (s, e) = (starts[r], starts[r + 1]);
            let pa = ParCsr::from_global_rows(&a, s, e, starts.clone(), r);
            let h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
            let nl = e - s;
            // k = 0 block: a no-op that must not communicate unevenly.
            let b0 = famg_sparse::MultiVec::new(nl, 0);
            let mut x0 = famg_sparse::MultiVec::new(nl, 0);
            let res0 = dist_amg_solve_multi(c, &h, &b0, &mut x0);
            assert_eq!(res0.k(), 0);
            assert!(res0.all_converged());
            // Column 0 starts converged (zero RHS); column 1 cannot
            // converge in 3 cycles. The dead lane must stay pinned at
            // its snapshot and not corrupt the live lane.
            let bl: Vec<f64> = (0..nl).map(|i| ((s + i) % 7) as f64 - 3.0).collect();
            let cols = vec![vec![0.0; nl], bl.clone()];
            let bb = famg_sparse::MultiVec::from_columns(&cols);
            let mut xb = famg_sparse::MultiVec::new(nl, 2);
            let res = dist_amg_solve_multi(c, &h, &bb, &mut xb);
            assert_eq!(res.iterations[0], 0);
            assert!(res.converged[0]);
            assert!(xb.col(0).iter().all(|&v| v == 0.0));
            assert_eq!(res.iterations[1], 3);
            assert!(!res.converged[1]);
            let mut xl = vec![0.0; nl];
            let solo = dist_amg_solve(c, &h, &bl, &mut xl);
            assert_eq!(res.final_relres[1].to_bits(), solo.final_relres.to_bits());
            for (bx, sx) in xb.col(1).iter().zip(&xl) {
                assert_eq!(bx.to_bits(), sx.to_bits());
            }
            // Shape errors are typed.
            let bad = famg_sparse::MultiVec::new(nl + 1, 2);
            let mut xg = famg_sparse::MultiVec::new(nl, 2);
            let err = try_dist_amg_solve_multi(c, &h, &bad, &mut xg).unwrap_err();
            assert!(matches!(
                err,
                SolveError::DimensionMismatch {
                    what: "local right-hand side block",
                    ..
                }
            ));
            let good = famg_sparse::MultiVec::new(nl, 2);
            let mut wrong_k = famg_sparse::MultiVec::new(nl, 3);
            let err = try_dist_amg_solve_multi(c, &h, &good, &mut wrong_k).unwrap_err();
            assert!(matches!(
                err,
                SolveError::DimensionMismatch {
                    what: "local initial guess block width",
                    ..
                }
            ));
        });
    }

    #[test]
    fn batch_vcycle_amortizes_halo_messages() {
        // The point of the batched path: the per-V-cycle message count
        // is independent of k. Compare one batched cycle at k = 4
        // against one scalar cycle — identical message counts.
        let a = laplace2d(16, 16);
        let n = a.nrows();
        let cfg = AmgConfig::single_node_paper();
        let starts = default_partition(n, 4);
        run_ranks(4, |c| {
            let r = c.rank();
            let (s, e) = (starts[r], starts[r + 1]);
            let pa = ParCsr::from_global_rows(&a, s, e, starts.clone(), r);
            let h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
            let nl = e - s;
            let bl: Vec<f64> = (0..nl).map(|i| (s + i) as f64).collect();
            c.barrier();
            let m0 = c.messages_sent();
            let mut xs = vec![0.0; nl];
            dist_vcycle(c, &h, 0, &bl, &mut xs);
            c.barrier();
            let scalar_msgs = c.messages_sent() - m0;
            let bb = famg_sparse::MultiVec::from_columns(&vec![bl.clone(); 4]);
            let mut xb = famg_sparse::MultiVec::new(nl, 4);
            let m1 = c.messages_sent();
            let mut ws = DistCycleWorkspace::for_width(&h, 4);
            try_dist_vcycle_rows(c, &h, 0, bb.data(), xb.data_mut(), 4, &mut ws).unwrap();
            c.barrier();
            let batch_msgs = c.messages_sent() - m1;
            assert_eq!(
                batch_msgs, scalar_msgs,
                "k=4 cycle must send exactly as many messages as k=1"
            );
        });
    }

    #[test]
    fn rank_count_does_not_change_iterations_much() {
        let a = laplace2d(20, 20);
        let cfg = AmgConfig::single_node_paper();
        let (_, i1, _, _) = solve_dist(&a, &cfg, 1, DistOptFlags::all(), false);
        let (_, i4, _, _) = solve_dist(&a, &cfg, 4, DistOptFlags::all(), false);
        // Hybrid smoothing degrades slightly with rank count but stays
        // in the same class (the paper's weak-scaling premise).
        assert!(i4 <= i1 + 4, "iters {i1} -> {i4}");
    }
}
