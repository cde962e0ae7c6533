//! Preconditioned conjugate gradients.
//!
//! Provided alongside FGMRES because SPD problems (every matrix in the
//! paper's suite) admit the cheaper three-term recurrence; the paper's
//! discussion of global reductions (§1) is most visible here — each CG
//! iteration needs two all-reduces versus AMG's none.

use crate::precond::Preconditioner;
use crate::space::{KrylovSpace, Serial};
use crate::{BatchKrylovResult, KrylovResult};
use famg_core::convergence::ColumnTracker;
use famg_sparse::{Csr, MultiVec};

/// CG options.
#[derive(Debug, Clone)]
pub struct CgOptions {
    /// Relative residual target.
    pub tolerance: f64,
    /// Maximum iterations.
    pub max_iterations: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            tolerance: 1e-7,
            max_iterations: 1000,
        }
    }
}

/// Reusable buffers for [`cg_with`] and [`cg_batch_with`]: the four
/// `n × k` blocks every CG iteration touches and the per-column scalar
/// lanes of the recurrence. Constructing one per solve (what [`cg`] does)
/// is fine for one-shot use; time-stepping drivers construct it once and
/// keep the steady-state iteration allocation-free.
#[derive(Debug, Clone)]
pub struct CgWorkspace {
    r: MultiVec,
    z: MultiVec,
    p: MultiVec,
    ap: MultiVec,
    bnorms: Vec<f64>,
    rz: Vec<f64>,
    relres: Vec<f64>,
    pap: Vec<f64>,
    rz_new: Vec<f64>,
    alpha: Vec<f64>,
    neg_alpha: Vec<f64>,
    beta: Vec<f64>,
}

impl CgWorkspace {
    /// Workspace for an `n`-row system with one right-hand side.
    #[must_use]
    pub fn for_problem(n: usize) -> Self {
        Self::for_width(n, 1)
    }

    /// Workspace for an `n`-row system with `k` right-hand sides.
    #[must_use]
    pub fn for_width(n: usize, k: usize) -> Self {
        CgWorkspace {
            r: MultiVec::new(n, k),
            z: MultiVec::new(n, k),
            p: MultiVec::new(n, k),
            ap: MultiVec::new(n, k),
            bnorms: vec![0.0; k],
            rz: vec![0.0; k],
            relres: vec![0.0; k],
            pap: vec![0.0; k],
            rz_new: vec![0.0; k],
            alpha: vec![0.0; k],
            neg_alpha: vec![0.0; k],
            beta: vec![0.0; k],
        }
    }

    /// Rebuilds the buffers if sized for a different problem or width.
    fn fit(&mut self, n: usize, k: usize) {
        if self.r.n() != n || self.r.k() != k {
            *self = Self::for_width(n, k);
        }
    }
}

/// Solves SPD `A x = b` with preconditioned CG, constructing a fresh
/// [`CgWorkspace`] for the call. Repeated solves over same-sized systems
/// should hold a workspace and call [`cg_with`] directly.
pub fn cg(
    a: &Csr,
    b: &[f64],
    x: &mut [f64],
    precond: &impl Preconditioner,
    opts: &CgOptions,
) -> KrylovResult {
    let mut ws = CgWorkspace::for_problem(a.nrows());
    cg_with(a, b, x, precond, opts, &mut ws)
}

/// Solves SPD `A x = b` with preconditioned CG using caller-owned
/// buffers; the per-iteration hot loop performs no heap allocation.
pub fn cg_with(
    a: &Csr,
    b: &[f64],
    x: &mut [f64],
    precond: &impl Preconditioner,
    opts: &CgOptions,
    ws: &mut CgWorkspace,
) -> KrylovResult {
    let n = a.nrows();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let Ok(mut res) = cg_rows(&mut Serial(a, precond), b, x, 1, opts, ws);
    KrylovResult {
        iterations: res.iterations[0],
        final_relres: res.final_relres[0],
        converged: res.converged[0],
        history: std::mem::take(&mut res.history[0]),
    }
}

/// Solves SPD `A X = B` for all `k` columns with preconditioned CG,
/// advancing every right-hand side through each kernel invocation.
///
/// Column `j` of the result is bitwise identical to [`cg`] on that
/// column alone: every kernel preserves the per-lane arithmetic order at
/// every width, and the per-column scalars (`alpha`, `beta`, `rz`) never
/// mix lanes. A column that reaches the tolerance — or hits the
/// SPD-breakdown guard `p·Ap <= 0` — stops at its own iterate while the
/// remaining columns keep iterating (see [`ColumnTracker`]), so the batch
/// never changes what any single column converges to.
pub fn cg_batch(
    a: &Csr,
    b: &MultiVec,
    x: &mut MultiVec,
    precond: &impl Preconditioner,
    opts: &CgOptions,
) -> BatchKrylovResult {
    let mut ws = CgWorkspace::for_width(a.nrows(), b.k());
    cg_batch_with(a, b, x, precond, opts, &mut ws)
}

/// [`cg_batch`] over caller-owned buffers. The per-iteration hot loop
/// performs no heap allocation — only per-solve result assembly
/// (histories, frozen-column snapshots) does.
pub fn cg_batch_with(
    a: &Csr,
    b: &MultiVec,
    x: &mut MultiVec,
    precond: &impl Preconditioner,
    opts: &CgOptions,
    ws: &mut CgWorkspace,
) -> BatchKrylovResult {
    let (n, k) = (a.nrows(), b.k());
    assert_eq!(x.k(), k);
    assert_eq!(b.n(), n);
    assert_eq!(x.n(), n);
    let Ok(res) = cg_rows(&mut Serial(a, precond), b.data(), x.data_mut(), k, opts, ws);
    res
}

/// Per-column 2-norms over the whole system, relative to `bnorms`.
fn relative_norms<S: KrylovSpace>(space: &S, v: &[f64], k: usize, bnorms: &[f64], out: &mut [f64]) {
    space.inner_products(v, v, k, out);
    for (o, bn) in out.iter_mut().zip(bnorms) {
        *o = o.sqrt() / bn;
    }
}

/// The one CG recurrence, over the `k`-interleaved blocks `(b, k)` and
/// `(x, k)` of any [`KrylovSpace`]; a plain vector is the `k = 1` block.
/// Per iteration and whatever the width: one operator product, one
/// preconditioner application, three inner products (`p·Ap`, `r·z`,
/// `‖r‖²` — on ranks, the three all-reduces of the paper's §1).
pub fn cg_rows<S: KrylovSpace>(
    space: &mut S,
    b: &[f64],
    x: &mut [f64],
    k: usize,
    opts: &CgOptions,
    ws: &mut CgWorkspace,
) -> Result<BatchKrylovResult, S::Error> {
    if k == 0 {
        return Ok(BatchKrylovResult::default());
    }
    ws.fit(b.len() / k, k);
    let CgWorkspace {
        r,
        z,
        p,
        ap,
        bnorms,
        rz,
        relres,
        pap,
        rz_new,
        alpha,
        neg_alpha,
        beta,
    } = ws;

    space.inner_products(b, b, k, bnorms);
    for bn in bnorms.iter_mut() {
        *bn = bn.sqrt().max(f64::MIN_POSITIVE);
    }
    space.residual_of(x, b, k, r.data_mut())?;
    space.precondition(r, z)?;
    p.data_mut().copy_from_slice(z.data());
    space.inner_products(r.data(), z.data(), k, rz);
    relative_norms(space, r.data(), k, bnorms, relres);

    let mut cols = ColumnTracker::new(relres, opts.tolerance);
    let mut iterations = 0usize;
    while cols.any_live() && iterations < opts.max_iterations {
        space.times_a(p.data(), k, ap.data_mut())?;
        space.inner_products(p.data(), ap.data(), k, pap);
        // Not SPD (or breakdown): such a column stops *before* the update
        // and reports what it has.
        cols.stop_where(|j| pap[j] <= 0.0);
        if !cols.any_live() {
            break;
        }
        cols.freeze_stopped(x);
        for j in 0..k {
            alpha[j] = rz[j] / pap[j];
            neg_alpha[j] = -alpha[j];
        }
        space.lanes_axpy(alpha, p.data(), x, k);
        space.lanes_axpy(neg_alpha, ap.data(), r.data_mut(), k);
        space.precondition(r, z)?;
        space.inner_products(r.data(), z.data(), k, rz_new);
        for j in 0..k {
            beta[j] = rz_new[j] / rz[j];
        }
        rz.copy_from_slice(rz_new);
        space.lanes_xpby(z.data(), beta, p.data_mut(), k);
        iterations += 1;
        relative_norms(space, r.data(), k, bnorms, relres);
        cols.record(iterations, relres);
    }
    let converged = cols.finish(x);
    Ok(BatchKrylovResult {
        iterations: cols.iterations,
        final_relres: cols.final_relres,
        converged,
        history: cols.history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::IdentityPrecond;
    use famg_matgen::{laplace2d, laplace3d_7pt, rhs};
    use famg_sparse::spmv::spmv;
    use famg_sparse::vecops;

    fn relres(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        spmv(a, x, &mut r);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        vecops::norm2(&r) / vecops::norm2(b)
    }

    #[test]
    fn solves_laplacian() {
        let a = laplace2d(16, 16);
        let b = rhs::ones(256);
        let mut x = vec![0.0; 256];
        let res = cg(&a, &b, &mut x, &IdentityPrecond, &CgOptions::default());
        assert!(res.converged);
        assert!(relres(&a, &b, &x) <= 1.1e-7);
    }

    #[test]
    fn jacobi_precond_reduces_iterations_on_scaled_problem() {
        // Scale rows/cols wildly; Jacobi preconditioning restores the
        // conditioning.
        let base = laplace3d_7pt(6, 6, 6);
        let n = base.nrows();
        let scale: Vec<f64> = (0..n).map(|i| 10f64.powi((i % 5) as i32 - 2)).collect();
        let mut trips = Vec::new();
        for i in 0..n {
            for (j, v) in base.row_iter(i) {
                trips.push((i, j, scale[i] * v * scale[j]));
            }
        }
        let a = Csr::from_triplets(n, n, trips);
        let dinv: Vec<f64> = (0..n).map(|i| 1.0 / a.diag(i)).collect();
        let pre = move |r: &[f64], z: &mut [f64]| {
            for i in 0..r.len() {
                z[i] = dinv[i] * r[i];
            }
        };
        let b = rhs::random(n, 2);
        let mut x1 = vec![0.0; n];
        let mut x2 = vec![0.0; n];
        let r1 = cg(&a, &b, &mut x1, &IdentityPrecond, &CgOptions::default());
        let r2 = cg(&a, &b, &mut x2, &pre, &CgOptions::default());
        assert!(r2.converged);
        assert!(
            r2.iterations < r1.iterations,
            "jacobi {} vs none {}",
            r2.iterations,
            r1.iterations
        );
    }

    #[test]
    fn history_decreases_overall() {
        let a = laplace2d(12, 12);
        let b = rhs::ones(144);
        let mut x = vec![0.0; 144];
        let res = cg(&a, &b, &mut x, &IdentityPrecond, &CgOptions::default());
        assert!(res.history.last().unwrap() < &1e-7);
        assert!(res.history[0] > *res.history.last().unwrap());
    }

    /// Batched CG: every column bitwise identical to the scalar solver,
    /// with both the identity preconditioner (default per-column
    /// `apply_batch` fallback on closures is exercised elsewhere) and a
    /// genuinely batched AMG V-cycle preconditioner.
    #[test]
    fn cg_batch_bitwise_matches_solo_columns() {
        use famg_core::{AmgConfig, AmgSolver};
        let a = laplace2d(20, 20);
        let n = a.nrows();
        let amg = AmgSolver::setup(&a, &AmgConfig::single_node_paper());
        let opts = CgOptions::default();
        for k in [1usize, 2, 3, 4, 8, 9] {
            let cols: Vec<Vec<f64>> = (0..k).map(|j| rhs::random(n, 11 + j as u64)).collect();
            let b = famg_sparse::MultiVec::from_columns(&cols);

            let mut x = famg_sparse::MultiVec::new(n, k);
            let res = cg_batch(&a, &b, &mut x, &IdentityPrecond, &opts);
            assert!(res.all_converged());
            for (j, col) in cols.iter().enumerate() {
                let mut xs = vec![0.0; n];
                let solo = cg(&a, col, &mut xs, &IdentityPrecond, &opts);
                assert_eq!(res.iterations[j], solo.iterations, "identity k={k} col {j}");
                assert_eq!(res.history[j], solo.history);
                assert_eq!(x.col(j), xs, "identity k={k} col {j}");
            }

            let mut x = famg_sparse::MultiVec::new(n, k);
            let res = cg_batch(&a, &b, &mut x, &amg, &opts);
            assert!(res.all_converged());
            for (j, col) in cols.iter().enumerate() {
                let mut xs = vec![0.0; n];
                let solo = cg(&a, col, &mut xs, &amg, &opts);
                assert_eq!(res.iterations[j], solo.iterations, "amg k={k} col {j}");
                assert_eq!(
                    res.final_relres[j].to_bits(),
                    solo.final_relres.to_bits(),
                    "amg k={k} col {j}"
                );
                assert_eq!(x.col(j), xs, "amg k={k} col {j}");
            }
        }
    }

    /// Early-converged columns freeze at their own exit point while
    /// slower columns iterate to the cap; width zero is a no-op.
    #[test]
    fn cg_batch_masks_and_edge_widths() {
        let a = laplace2d(20, 20);
        let n = a.nrows();
        let opts = CgOptions {
            max_iterations: 5,
            ..CgOptions::default()
        };
        // Column 0: zero RHS (converged at entry). Column 1: random RHS
        // that cannot converge in 5 unpreconditioned iterations.
        let cols = vec![vec![0.0; n], rhs::random(n, 3)];
        let b = famg_sparse::MultiVec::from_columns(&cols);
        let mut x = famg_sparse::MultiVec::new(n, 2);
        let res = cg_batch(&a, &b, &mut x, &IdentityPrecond, &opts);
        assert!(res.converged[0]);
        assert_eq!(res.iterations[0], 0);
        assert!(x.col(0).iter().all(|&v| v == 0.0));
        assert!(!res.converged[1]);
        assert_eq!(res.iterations[1], 5);
        let mut xs = vec![0.0; n];
        let solo = cg(&a, &cols[1], &mut xs, &IdentityPrecond, &opts);
        assert_eq!(res.final_relres[1].to_bits(), solo.final_relres.to_bits());
        assert_eq!(x.col(1), xs);

        let b0 = famg_sparse::MultiVec::new(n, 0);
        let mut x0 = famg_sparse::MultiVec::new(n, 0);
        let res0 = cg_batch(&a, &b0, &mut x0, &IdentityPrecond, &opts);
        assert_eq!(res0.k(), 0);
    }

    #[test]
    fn iteration_cap() {
        let a = laplace2d(20, 20);
        let b = rhs::ones(400);
        let mut x = vec![0.0; 400];
        let opts = CgOptions {
            max_iterations: 2,
            ..CgOptions::default()
        };
        let res = cg(&a, &b, &mut x, &IdentityPrecond, &opts);
        assert!(!res.converged);
        assert_eq!(res.iterations, 2);
    }
}
