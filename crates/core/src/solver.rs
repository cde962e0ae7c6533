//! The user-facing standalone AMG solver.
//!
//! Wraps [`Hierarchy`] + V-cycles into an iterate-to-tolerance loop with
//! the paper's stopping criterion (relative residual 2-norm reduction,
//! Table 3: 1e-7) and the Fig. 5 timing breakdown. Also usable as a
//! preconditioner: [`AmgSolver::apply`] runs a single V-cycle from a zero
//! guess, which is how the multi-node evaluation wraps AMG inside
//! flexible GMRES (Table 4).

use crate::convergence::ColumnTracker;
use crate::cycle::{vcycle_rows, CycleWorkspace};
use crate::hierarchy::Hierarchy;
use crate::params::AmgConfig;
use crate::refresh::{FrozenSetup, RefreshError};
use crate::stats::PhaseTimes;
use famg_sparse::counters::flops;
use famg_sparse::multivec::dot_rows;
use famg_sparse::spmm::residual_rows;
use famg_sparse::{Csr, MultiVec};
use std::sync::{Mutex, MutexGuard};

/// Typed failure of a public solve entry point.
///
/// Solver-built hierarchies ([`AmgSolver::setup`]) always satisfy the
/// structural invariants, but [`Hierarchy`] has public fields, so a
/// hand-built one can violate them; the `try_` entry points reject such
/// hierarchies with [`SolveError::MalformedHierarchy`] instead of
/// panicking mid-cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// A structural invariant of the multigrid hierarchy is violated
    /// (see [`Hierarchy::check_shape`]).
    MalformedHierarchy {
        /// Level at which the violation was detected (finest = 0).
        level: usize,
        /// The invariant that failed.
        what: &'static str,
    },
    /// A right-hand side or iterate has the wrong length.
    DimensionMismatch {
        /// Expected length (the finest-level row count).
        expected: usize,
        /// Actual length passed in.
        got: usize,
        /// Which vector was mis-sized.
        what: &'static str,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::MalformedHierarchy { level, what } => {
                write!(f, "malformed hierarchy at level {level}: {what}")
            }
            SolveError::DimensionMismatch {
                expected,
                got,
                what,
            } => {
                write!(f, "{what} has length {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// `Ok` when `expected == got`, otherwise the typed
/// [`SolveError::DimensionMismatch`] naming `what` was mis-sized.
pub fn check_dim(expected: usize, got: usize, what: &'static str) -> Result<(), SolveError> {
    if expected == got {
        Ok(())
    } else {
        Err(SolveError::DimensionMismatch {
            expected,
            got,
            what,
        })
    }
}

/// Outcome of [`AmgSolver::solve`].
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// Number of V-cycles performed.
    pub iterations: usize,
    /// Final relative residual.
    pub final_relres: f64,
    /// Whether the tolerance was reached within the iteration cap.
    pub converged: bool,
    /// Relative residual after every cycle.
    pub history: Vec<f64>,
    /// Solve-phase timing breakdown (Fig. 5 categories), derived from
    /// `profile` — a rollup view, not independent bookkeeping.
    pub times: PhaseTimes,
    /// Full span profile of the solve: per-level V-cycle sub-spans plus
    /// the raw event timeline for chrome://tracing export. Empty when
    /// the `prof` feature is off.
    pub profile: famg_prof::Profile,
}

/// Outcome of [`AmgSolver::solve_batch`]: the per-column view of a
/// k-wide solve.
///
/// Column `j` is bitwise identical to [`AmgSolver::solve`] on that
/// right-hand side alone: iterates of converged columns are snapshotted
/// at their convergence iteration while the remaining columns keep
/// cycling, so the extra cycles never leak into the reported solution.
#[derive(Debug, Clone)]
pub struct BatchSolveResult {
    /// Number of V-cycles each column needed (capped at
    /// `max_iterations` for non-converged columns).
    pub iterations: Vec<usize>,
    /// Final relative residual per column, sampled at each column's own
    /// stopping iteration.
    pub final_relres: Vec<f64>,
    /// Whether each column reached the tolerance within the cap.
    pub converged: Vec<bool>,
    /// Relative residual after every cycle, per column (truncated at
    /// the column's convergence iteration).
    pub history: Vec<Vec<f64>>,
    /// Solve-phase timing breakdown for the whole batch (Fig. 5
    /// categories), derived from `profile`.
    pub times: PhaseTimes,
    /// Full span profile of the batched solve. Empty when the `prof`
    /// feature is off.
    pub profile: famg_prof::Profile,
}

impl BatchSolveResult {
    /// Batch width.
    pub fn k(&self) -> usize {
        self.converged.len()
    }

    /// True when every column reached the tolerance.
    pub fn all_converged(&self) -> bool {
        self.converged.iter().all(|&c| c)
    }
}

/// A ready-to-solve AMG instance (setup already performed).
///
/// ```
/// use famg_core::{AmgConfig, AmgSolver};
/// let a = famg_matgen::laplace2d(32, 32);
/// let solver = AmgSolver::setup(&a, &AmgConfig::single_node_paper());
/// let b = vec![1.0; a.nrows()];
/// let mut x = vec![0.0; a.nrows()];
/// let result = solver.solve(&b, &mut x);
/// assert!(result.converged);
/// assert!(result.final_relres <= 1e-7);
/// ```
#[derive(Debug)]
pub struct AmgSolver {
    hierarchy: Hierarchy,
    frozen: Option<FrozenSetup>,
    ws: Mutex<Workspaces>,
}

/// The solver's cached cycle workspaces: the width-1 one, resident for the
/// solver's lifetime, beside at most one wider one (callers interleave
/// `apply` and `apply_batch` on one solver, so neither evicts the other).
#[derive(Debug)]
struct Workspaces {
    single: CycleWorkspace,
    /// Allocated on first use, rebuilt only when the batch width changes.
    wide: Option<CycleWorkspace>,
}

impl Workspaces {
    fn new(h: &Hierarchy) -> Mutex<Self> {
        Mutex::new(Workspaces {
            single: CycleWorkspace::for_hierarchy(h),
            wide: None,
        })
    }

    fn of_width(&mut self, h: &Hierarchy, k: usize) -> &mut CycleWorkspace {
        if k == 1 {
            return &mut self.single;
        }
        let wide = self
            .wide
            .get_or_insert_with(|| CycleWorkspace::for_width(h, k));
        if wide.k() != k {
            *wide = CycleWorkspace::for_width(h, k);
        }
        wide
    }
}

impl AmgSolver {
    /// Runs the setup phase on `a`.
    pub fn setup(a: &Csr, cfg: &AmgConfig) -> Self {
        let hierarchy = Hierarchy::build(a, cfg);
        let ws = Workspaces::new(&hierarchy);
        AmgSolver {
            hierarchy,
            frozen: None,
            ws,
        }
    }

    /// Runs the setup phase and keeps the pattern-derived structure so
    /// later same-pattern operators can be absorbed with
    /// [`AmgSolver::refresh`] instead of a full re-setup. With the paper's
    /// single-node configuration that is every level; a composed scheme
    /// keeps nothing from its first such level down, and a refresh
    /// rebuilds those levels ([`crate::refresh`]).
    pub fn setup_refreshable(a: &Csr, cfg: &AmgConfig) -> Self {
        let (hierarchy, frozen) = Hierarchy::build_frozen(a, cfg);
        let ws = Workspaces::new(&hierarchy);
        AmgSolver {
            hierarchy,
            frozen: Some(frozen),
            ws,
        }
    }

    /// Absorbs a same-pattern operator by re-running only the numeric
    /// setup stages of the recorded levels and rebuilding the others (see
    /// [`crate::refresh`]). Its only errors — a mismatched sparsity
    /// pattern, a missing frozen setup — leave the solver fully usable
    /// with its previous operator.
    pub fn refresh(&mut self, a: &Csr) -> Result<(), RefreshError> {
        let frozen = self.frozen.as_mut().ok_or(RefreshError::NoFrozenSetup)?;
        let sizes = |h: &Hierarchy| {
            h.levels
                .iter()
                .map(|l| (l.a.nrows(), l.nc))
                .collect::<Vec<_>>()
        };
        let before = sizes(&self.hierarchy);
        self.hierarchy.refresh(a, frozen)?;
        // Replayed levels keep their sizes; rebuilt ones may coarsen anew.
        if sizes(&self.hierarchy) != before {
            self.ws = Workspaces::new(&self.hierarchy);
        }
        Ok(())
    }

    /// Wraps an externally assembled hierarchy, rejecting one that
    /// violates the structural invariants the cycle kernels rely on.
    pub fn from_hierarchy(hierarchy: Hierarchy) -> Result<Self, SolveError> {
        hierarchy.check_shape()?;
        let ws = Workspaces::new(&hierarchy);
        Ok(AmgSolver {
            hierarchy,
            frozen: None,
            ws,
        })
    }

    /// The underlying hierarchy (level sizes, setup times, complexities).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Finest-level unknown count.
    pub fn n(&self) -> usize {
        self.hierarchy.n()
    }

    /// Solves `A x = b` to the configured tolerance, starting from the
    /// initial guess already in `x`.
    ///
    /// The solve records a famg-prof span tree rooted at `"solve"` and
    /// captures it via `famg_prof::take()` on return, so do not call
    /// this inside an open profiler span of your own (the capture would
    /// see the open span and back off, zeroing the returned timings).
    pub fn solve(&self, b: &[f64], x: &mut [f64]) -> SolveResult {
        self.try_solve(b, x)
            .unwrap_or_else(|e| panic!("famg solve: {e}")) // PANIC-FREE: panicking convenience wrapper; reached from `try_*` only via the name-based over-approximation of the coarse `solve` call in `cycle_level` (that callee is `LuFactor::solve`).
    }

    /// Like [`AmgSolver::solve`], but returns a typed error instead of
    /// panicking on a malformed hierarchy or mis-sized vectors.
    pub fn try_solve(&self, b: &[f64], x: &mut [f64]) -> Result<SolveResult, SolveError> {
        self.hierarchy.check_shape()?;
        let n = self.n();
        check_dim(n, b.len(), "right-hand side")?;
        check_dim(n, x.len(), "initial guess")?;
        let mut res = self.solve_rows(b, x, 1);
        Ok(SolveResult {
            iterations: res.iterations[0],
            final_relres: res.final_relres[0],
            converged: res.converged[0],
            history: std::mem::take(&mut res.history[0]),
            times: res.times,
            profile: res.profile,
        })
    }

    /// Applies one V-cycle from a zero initial guess: `z ≈ A⁻¹ r`.
    /// This is the preconditioner interface used by FGMRES.
    ///
    /// # Panics
    /// Panics when `rin` or `z` does not match the finest-level unknown
    /// count.
    pub fn apply(&self, rin: &[f64], z: &mut [f64]) {
        self.apply_rows(rin, z, 1);
    }

    /// Solves `A X = B` for all `k` columns of `b` simultaneously,
    /// starting from the initial guesses already in `x`.
    ///
    /// Every V-cycle advances all right-hand sides through each kernel
    /// invocation (SpMM, k-wide smoother sweeps), amortizing matrix
    /// traversals — and, on the distributed path, halo messages — over
    /// the batch. Column `j` of the result is bitwise identical to
    /// [`AmgSolver::solve`] on that column alone: columns that converge
    /// early are snapshotted at their own stopping iteration while the
    /// rest keep cycling.
    ///
    /// # Panics
    /// Panics on a malformed hierarchy or mis-shaped block vectors; see
    /// [`AmgSolver::try_solve_batch`] for the typed-error variant.
    pub fn solve_batch(&self, b: &MultiVec, x: &mut MultiVec) -> BatchSolveResult {
        self.try_solve_batch(b, x)
            .unwrap_or_else(|e| panic!("famg solve_batch: {e}"))
    }

    /// Like [`AmgSolver::solve_batch`], but returns a typed error
    /// instead of panicking on a malformed hierarchy or mis-shaped
    /// block vectors.
    pub fn try_solve_batch(
        &self,
        b: &MultiVec,
        x: &mut MultiVec,
    ) -> Result<BatchSolveResult, SolveError> {
        self.hierarchy.check_shape()?;
        let n = self.n();
        check_dim(n, b.n(), "right-hand side block")?;
        check_dim(n, x.n(), "initial guess block")?;
        check_dim(b.k(), x.k(), "initial guess block width")?;
        Ok(self.solve_rows(b.data(), x.data_mut(), b.k()))
    }

    /// Applies one V-cycle from a zero initial guess to all `k` columns:
    /// `Z ≈ A⁻¹ R`, for preconditioning a block Krylov iteration; column
    /// `j` is bitwise identical to [`AmgSolver::apply`] on that column.
    ///
    /// # Panics
    /// Panics when `rin` and `z` disagree in shape or do not match the
    /// finest-level unknown count.
    pub fn apply_batch(&self, rin: &MultiVec, z: &mut MultiVec) {
        assert_eq!(z.k(), rin.k(), "apply: output block has wrong width");
        self.apply_rows(rin.data(), z.data_mut(), rin.k());
    }

    /// Locks the cached cycle workspaces.
    fn lock_workspaces(&self) -> MutexGuard<'_, Workspaces> {
        self.ws
            .lock()
            .expect("solver workspace mutex poisoned by a prior panic") // PANIC-FREE: poisoning requires a prior panic on another thread.
    }

    /// The one V-cycle application behind [`AmgSolver::apply`] and
    /// [`AmgSolver::apply_batch`], over `k`-interleaved blocks.
    fn apply_rows(&self, rin: &[f64], z: &mut [f64], k: usize) {
        let h = &self.hierarchy;
        let n = h.n();
        assert_eq!(rin.len(), n * k, "apply: residual block has wrong n");
        assert_eq!(z.len(), n * k, "apply: output block has wrong n");
        if k == 0 {
            return;
        }
        let mut guard = self.lock_workspaces();
        let ws = guard.of_width(h, k);
        let perm = h.levels[0].perm.as_ref();
        // Workspace-backed buffers: this is the Krylov preconditioner hot
        // path, called once per iteration.
        let mut pb = std::mem::take(&mut ws.fine_b);
        let mut px = std::mem::take(&mut ws.fine_x);
        match perm {
            Some(q) => q.apply_rows_into(rin, k, &mut pb),
            None => pb.copy_from_slice(rin),
        }
        px.fill(0.0);
        vcycle_rows(h, &pb, &mut px, k, ws);
        match perm {
            Some(q) => q.unapply_rows_into(&px, k, z),
            None => z.copy_from_slice(&px),
        }
        ws.fine_b = pb;
        ws.fine_x = px;
    }

    /// The one iterate-to-tolerance loop behind [`AmgSolver::try_solve`]
    /// and [`AmgSolver::try_solve_batch`], over `k`-interleaved blocks of
    /// validated shape on a validated hierarchy. A column that reaches the
    /// tolerance stops reporting while the rest keep cycling (see
    /// [`ColumnTracker`]).
    fn solve_rows(&self, b: &[f64], x: &mut [f64], k: usize) -> BatchSolveResult {
        let h = &self.hierarchy;
        let cfg = &h.config;
        let n = h.n();
        if k == 0 {
            return BatchSolveResult {
                iterations: Vec::new(),   // ALLOC: empty Vec, no heap
                final_relres: Vec::new(), // ALLOC: empty Vec, no heap
                converged: Vec::new(),    // ALLOC: empty Vec, no heap
                history: Vec::new(),      // ALLOC: empty Vec, no heap
                times: PhaseTimes::default(),
                profile: famg_prof::Profile::default(),
            };
        }
        let mut guard = self.lock_workspaces();
        let ws = guard.of_width(h, k);
        let root_span = famg_prof::scope("solve");

        // Move into the stored (possibly CF-permuted) ordering. The
        // buffers live in the workspace so repeated solves allocate
        // nothing here; they are taken out so `ws` stays borrowable.
        let permute_span = famg_prof::scope("permute");
        let perm = h.levels[0].perm.as_ref();
        let mut pb = std::mem::take(&mut ws.fine_b);
        let mut px = std::mem::take(&mut ws.fine_x);
        if let Some(q) = perm {
            q.apply_rows_into(b, k, &mut pb);
            q.apply_rows_into(x, k, &mut px);
        } else {
            pb.copy_from_slice(b);
            px.copy_from_slice(x);
        }
        drop(permute_span);

        let a = &h.levels[0].a;
        let mut bnorms = vec![0.0; k]; // ALLOC: k-sized bookkeeping, not O(n)
        {
            let _s = famg_prof::scope("blas1");
            famg_prof::counter("flops", flops::dot_batch(n, k));
            dot_rows(&pb, &pb, k, &mut bnorms);
        }
        for bn in &mut bnorms {
            *bn = bn.sqrt().max(f64::MIN_POSITIVE);
        }

        // Per-column relative residuals.
        let norm_of = |px: &[f64], r: &mut [f64], out: &mut [f64]| {
            let _s = famg_prof::scope("blas1");
            famg_prof::counter("flops", flops::spmm(a.nnz(), k) + flops::dot_batch(n, k));
            residual_rows(a, px, &pb, r, k, out);
            for (o, bn) in out.iter_mut().zip(&bnorms) {
                *o = o.sqrt() / bn;
            }
        };

        // The residual goes to the finest level's residual buffer, which
        // the cycle only uses inside a cycle.
        let mut relres = vec![0.0; k]; // ALLOC: k-sized bookkeeping, not O(n)
        norm_of(&px, &mut ws.r[0], &mut relres);
        let mut cols = ColumnTracker::new(&relres, cfg.tolerance);
        let mut iterations = 0usize;
        while cols.any_live() && iterations < cfg.max_iterations {
            cols.freeze_stopped(&px);
            vcycle_rows(h, &pb, &mut px, k, ws);
            iterations += 1;
            norm_of(&px, &mut ws.r[0], &mut relres);
            cols.record(iterations, &relres);
        }
        let converged = cols.finish(&mut px);

        let permute_span = famg_prof::scope("permute");
        match perm {
            Some(q) => q.unapply_rows_into(&px, k, x),
            None => x.copy_from_slice(&px),
        }
        ws.fine_b = pb;
        ws.fine_x = px;
        drop(permute_span);

        drop(root_span);
        let profile = famg_prof::take();
        let times = profile
            .find_root("solve")
            .map(PhaseTimes::from_span)
            .unwrap_or_default();

        BatchSolveResult {
            iterations: cols.iterations,
            final_relres: cols.final_relres,
            converged,
            history: cols.history,
            times,
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::AmgConfig;
    use famg_matgen::{amg2013_like, laplace2d, rhs};
    use famg_sparse::spmv::residual_norm_sq;
    use famg_sparse::vecops;

    fn check_solution(a: &Csr, b: &[f64], x: &[f64], tol: f64) {
        let mut r = vec![0.0; b.len()];
        let rn = residual_norm_sq(a, x, b, &mut r).sqrt();
        let bn = vecops::norm2(b);
        assert!(rn / bn <= tol * 1.01, "relres {} > {tol}", rn / bn);
    }

    #[test]
    fn solves_laplace2d_optimized() {
        let a = laplace2d(48, 48);
        let b = rhs::ones(a.nrows());
        let solver = AmgSolver::setup(&a, &AmgConfig::single_node_paper());
        let mut x = vec![0.0; a.nrows()];
        let res = solver.solve(&b, &mut x);
        assert!(res.converged, "relres {}", res.final_relres);
        assert!(res.iterations < 30, "iterations {}", res.iterations);
        check_solution(&a, &b, &x, 1e-7);
    }

    #[test]
    fn solves_known_solution() {
        let a = laplace2d(30, 30);
        let x_true = rhs::random(a.nrows(), 9);
        let b = rhs::rhs_for_solution(&a, &x_true);
        let solver = AmgSolver::setup(&a, &AmgConfig::single_node_paper());
        let mut x = vec![0.0; a.nrows()];
        let res = solver.solve(&b, &mut x);
        assert!(res.converged);
        // Solution error tracks the residual tolerance (well-conditioned
        // at this size).
        let err: f64 = x
            .iter()
            .zip(&x_true)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-4, "error {err}");
    }

    #[test]
    fn nonzero_initial_guess_supported() {
        let a = laplace2d(20, 20);
        let b = rhs::ones(a.nrows());
        let solver = AmgSolver::setup(&a, &AmgConfig::single_node_paper());
        let mut x = rhs::random(a.nrows(), 17);
        let res = solver.solve(&b, &mut x);
        assert!(res.converged);
        check_solution(&a, &b, &x, 1e-7);
    }

    #[test]
    fn iteration_count_grid_independent() {
        // The multigrid promise: iterations stay O(1) as n grows.
        let mut iters = Vec::new();
        for n in [16usize, 32, 48] {
            let a = laplace2d(n, n);
            let b = rhs::ones(a.nrows());
            let solver = AmgSolver::setup(&a, &AmgConfig::single_node_paper());
            let mut x = vec![0.0; a.nrows()];
            let res = solver.solve(&b, &mut x);
            assert!(res.converged);
            iters.push(res.iterations);
        }
        let max = *iters.iter().max().unwrap();
        let min = *iters.iter().min().unwrap();
        assert!(max <= min + 4, "iterations grew with n: {iters:?}");
    }

    #[test]
    fn history_is_monotone_ish() {
        let a = laplace2d(32, 32);
        let b = rhs::ones(a.nrows());
        let solver = AmgSolver::setup(&a, &AmgConfig::single_node_paper());
        let mut x = vec![0.0; a.nrows()];
        let res = solver.solve(&b, &mut x);
        for w in res.history.windows(2) {
            assert!(w[1] < w[0], "residual increased: {:?}", res.history);
        }
    }

    #[test]
    fn apply_is_a_contraction() {
        let a = laplace2d(24, 24);
        let solver = AmgSolver::setup(&a, &AmgConfig::single_node_paper());
        let r = rhs::random(a.nrows(), 5);
        let mut z = vec![0.0; a.nrows()];
        solver.apply(&r, &mut z);
        // z should approximately solve A z = r (one V-cycle).
        let mut res = vec![0.0; r.len()];
        let rn = residual_norm_sq(&a, &z, &r, &mut res).sqrt();
        assert!(rn < 0.2 * vecops::norm2(&r));
    }

    #[test]
    #[should_panic(expected = "apply: residual block has wrong n")]
    fn apply_rejects_mis_sized_residual_by_name() {
        let a = laplace2d(12, 12);
        let solver = AmgSolver::setup(&a, &AmgConfig::single_node_paper());
        let mut z = vec![0.0; a.nrows()];
        solver.apply(&vec![1.0; a.nrows() - 1], &mut z);
    }

    #[test]
    fn jumpy_coefficients_converge() {
        let a = amg2013_like(12, 12, 12, 2, 2.0, 7);
        let b = rhs::ones(a.nrows());
        let solver = AmgSolver::setup(&a, &AmgConfig::single_node_paper());
        let mut x = vec![0.0; a.nrows()];
        let res = solver.solve(&b, &mut x);
        assert!(res.converged, "relres {}", res.final_relres);
    }

    #[test]
    fn try_solve_rejects_mis_sized_vectors() {
        let a = laplace2d(16, 16);
        let solver = AmgSolver::setup(&a, &AmgConfig::single_node_paper());
        let b = rhs::ones(a.nrows());
        let mut x_short = vec![0.0; a.nrows() - 1];
        let err = solver.try_solve(&b, &mut x_short).unwrap_err();
        assert!(matches!(err, SolveError::DimensionMismatch { .. }), "{err}");
        let b_short = vec![1.0; 3];
        let mut x = vec![0.0; a.nrows()];
        let err = solver.try_solve(&b_short, &mut x).unwrap_err();
        assert_eq!(
            err,
            SolveError::DimensionMismatch {
                expected: a.nrows(),
                got: 3,
                what: "right-hand side",
            }
        );
    }

    #[test]
    fn from_hierarchy_rejects_hand_built_malformed_hierarchy() {
        let a = laplace2d(16, 16);
        // Knock the mid-hierarchy transfer operators out: the cycle would
        // treat the finest level as coarsest and silently mis-solve (or
        // panic), so the typed check must reject it up front.
        let mut h = Hierarchy::build(&a, &AmgConfig::single_node_paper());
        assert!(h.num_levels() >= 2, "need a multi-level hierarchy");
        h.levels[0].ops = None;
        let err = AmgSolver::from_hierarchy(h).unwrap_err();
        assert_eq!(
            err,
            SolveError::MalformedHierarchy {
                level: 0,
                what: "non-coarsest level is missing its transfer operators",
            }
        );

        // A solver-built hierarchy passes the same check and solves.
        let h = Hierarchy::build(&a, &AmgConfig::single_node_paper());
        let solver = AmgSolver::from_hierarchy(h).expect("well-formed hierarchy");
        let b = rhs::ones(a.nrows());
        let mut x = vec![0.0; a.nrows()];
        assert!(solver.try_solve(&b, &mut x).unwrap().converged);
    }

    #[test]
    fn check_shape_rejects_bad_transfer_dimensions() {
        let a = laplace2d(16, 16);
        let mut h = Hierarchy::build(&a, &AmgConfig::single_node_paper());
        // Corrupt the stated coarse size on the finest level.
        h.levels[0].nc += 1;
        let err = h.check_shape().unwrap_err();
        assert!(
            matches!(err, SolveError::MalformedHierarchy { level: 0, .. }),
            "{err}"
        );
    }

    /// Batched solve: every column bitwise identical to the solo solve
    /// of that right-hand side, across widths.
    #[test]
    fn solve_batch_bitwise_matches_solo_columns() {
        let a = laplace2d(28, 28);
        let n = a.nrows();
        let solver = AmgSolver::setup(&a, &AmgConfig::single_node_paper());
        for k in [1usize, 2, 3, 4, 8, 9] {
            let cols: Vec<Vec<f64>> = (0..k).map(|j| rhs::random(n, 100 + j as u64)).collect();
            let b = MultiVec::from_columns(&cols);
            let mut x = MultiVec::new(n, k);
            let res = solver.solve_batch(&b, &mut x);
            assert!(res.all_converged());
            assert_eq!(res.k(), k);
            for (j, col) in cols.iter().enumerate() {
                let mut xs = vec![0.0; n];
                let solo = solver.solve(col, &mut xs);
                assert_eq!(
                    res.iterations[j], solo.iterations,
                    "k={k} col {j} iteration count"
                );
                assert_eq!(
                    res.final_relres[j].to_bits(),
                    solo.final_relres.to_bits(),
                    "k={k} col {j} final relres"
                );
                assert_eq!(res.history[j], solo.history);
                let xb = x.col(j);
                for (i, (bv, sv)) in xb.iter().zip(&xs).enumerate() {
                    assert_eq!(bv.to_bits(), sv.to_bits(), "k={k} col {j} row {i}");
                }
            }
        }
    }

    /// Early-converged columns are frozen at their own stopping
    /// iteration while slower columns keep cycling to the cap.
    #[test]
    fn solve_batch_masks_converged_columns() {
        let a = laplace2d(24, 24);
        let n = a.nrows();
        // Cap iterations so the rough random column cannot converge.
        let cfg = AmgConfig {
            max_iterations: 3,
            ..AmgConfig::single_node_paper()
        };
        let solver = AmgSolver::setup(&a, &cfg);
        // Column 0 starts converged (zero RHS, zero guess); column 1
        // will not make the tolerance in 3 cycles.
        let cols = vec![vec![0.0; n], rhs::random(n, 7)];
        let b = MultiVec::from_columns(&cols);
        let mut x = MultiVec::new(n, 2);
        let res = solver.solve_batch(&b, &mut x);
        assert!(res.converged[0]);
        assert_eq!(res.iterations[0], 0);
        assert!(res.history[0].is_empty());
        assert!(x.col(0).iter().all(|&v| v == 0.0));
        assert!(!res.converged[1]);
        assert_eq!(res.iterations[1], 3);
        let mut xs = vec![0.0; n];
        let solo = solver.solve(&cols[1], &mut xs);
        assert!(!solo.converged);
        assert_eq!(res.final_relres[1].to_bits(), solo.final_relres.to_bits());
        assert_eq!(x.col(1), xs);
    }

    /// Width-zero batches are a no-op, and mis-shaped blocks are
    /// rejected with typed errors.
    #[test]
    fn solve_batch_edge_shapes() {
        let a = laplace2d(16, 16);
        let n = a.nrows();
        let solver = AmgSolver::setup(&a, &AmgConfig::single_node_paper());
        let b = MultiVec::new(n, 0);
        let mut x = MultiVec::new(n, 0);
        let res = solver.solve_batch(&b, &mut x);
        assert_eq!(res.k(), 0);
        assert!(res.all_converged());

        let b = MultiVec::new(n, 2);
        let mut x_short = MultiVec::new(n - 1, 2);
        let err = solver.try_solve_batch(&b, &mut x_short).unwrap_err();
        assert!(matches!(err, SolveError::DimensionMismatch { .. }), "{err}");
        let mut x_narrow = MultiVec::new(n, 1);
        let err = solver.try_solve_batch(&b, &mut x_narrow).unwrap_err();
        assert_eq!(
            err,
            SolveError::DimensionMismatch {
                expected: 2,
                got: 1,
                what: "initial guess block width",
            }
        );
    }

    /// The batched preconditioner application matches per-column
    /// `apply` bitwise, including after a width change re-allocates the
    /// cached workspace.
    #[test]
    fn apply_batch_bitwise_matches_solo_apply() {
        let a = laplace2d(20, 20);
        let n = a.nrows();
        let solver = AmgSolver::setup(&a, &AmgConfig::single_node_paper());
        for k in [4usize, 2, 1, 3, 8, 9] {
            let cols: Vec<Vec<f64>> = (0..k).map(|j| rhs::random(n, 40 + j as u64)).collect();
            let r = MultiVec::from_columns(&cols);
            let mut z = MultiVec::new(n, k);
            solver.apply_batch(&r, &mut z);
            for (j, col) in cols.iter().enumerate() {
                let mut zs = vec![0.0; n];
                solver.apply(col, &mut zs);
                assert_eq!(z.col(j), zs, "k={k} col {j}");
            }
        }
    }

    #[test]
    fn multi_node_presets_solve() {
        let a = laplace2d(40, 40);
        let b = rhs::ones(a.nrows());
        for cfg in [
            AmgConfig::multi_node_ei4(),
            AmgConfig::multi_node_mp(),
            AmgConfig::multi_node_2s_ei444(),
        ] {
            let solver = AmgSolver::setup(&a, &cfg);
            let mut x = vec![0.0; a.nrows()];
            let res = solver.solve(&b, &mut x);
            assert!(
                res.converged,
                "{:?} stalled at {}",
                cfg.interp, res.final_relres
            );
        }
    }
}
