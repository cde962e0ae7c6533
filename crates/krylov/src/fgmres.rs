//! Flexible GMRES (Saad 1993) with right preconditioning.
//!
//! The paper's multi-node configuration (Table 4) wraps the AMG V-cycle
//! inside flexible GMRES: the "flexible" variant stores the
//! preconditioned vectors `Z` so the preconditioner may vary between
//! iterations, as an AMG cycle does.

use crate::precond::Preconditioner;
use crate::space::{KrylovSpace, Serial};
use crate::KrylovResult;
use famg_sparse::{Csr, MultiVec};

/// FGMRES options.
#[derive(Debug, Clone)]
pub struct FgmresOptions {
    /// Relative residual target.
    pub tolerance: f64,
    /// Maximum total iterations.
    pub max_iterations: usize,
    /// Restart length (Krylov basis size).
    pub restart: usize,
}

impl Default for FgmresOptions {
    fn default() -> Self {
        FgmresOptions {
            tolerance: 1e-7,
            max_iterations: 500,
            restart: 50,
        }
    }
}

/// Solves `A x = b` with right-preconditioned flexible GMRES.
///
/// ```
/// use famg_krylov::{fgmres, FgmresOptions, IdentityPrecond};
/// let a = famg_matgen::laplace2d(12, 12);
/// let b = vec![1.0; a.nrows()];
/// let mut x = vec![0.0; a.nrows()];
/// let res = fgmres(&a, &b, &mut x, &IdentityPrecond, &FgmresOptions::default());
/// assert!(res.converged);
/// ```
pub fn fgmres(
    a: &Csr,
    b: &[f64],
    x: &mut [f64],
    precond: &impl Preconditioner,
    opts: &FgmresOptions,
) -> KrylovResult {
    let n = a.nrows();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let Ok(res) = fgmres_in(&mut Serial(a, precond), b, x, opts);
    res
}

// ALLOC: one FGMRES basis vector. V and Z are retained until the restart
// (flexible preconditioning forbids recomputing Z), so a vector that joins
// them cannot be a reused buffer.
fn basis_vector(n: usize) -> MultiVec {
    MultiVec::new(n, 1)
}

/// Global 2-norm of one vector.
fn norm2<S: KrylovSpace>(space: &S, v: &[f64]) -> f64 {
    let mut sq = [0.0];
    space.inner_products(v, v, 1, &mut sq);
    sq[0].sqrt()
}

/// The one FGMRES recurrence (Arnoldi with modified Gram-Schmidt, Givens
/// rotations, restarts) in any [`KrylovSpace`]: inner iteration `j` costs
/// `j + 2` global inner products, a restart one more.
///
/// A non-finite residual (NaN/Inf in `b`, the operator or a preconditioner
/// result) ends the solve at once with `converged: false` and `x` at the
/// last completed restart — `relres <= tolerance` is false for NaN, so the
/// loop would otherwise apply the preconditioner `max_iterations` times.
pub fn fgmres_in<S: KrylovSpace>(
    space: &mut S,
    b: &[f64],
    x: &mut [f64],
    opts: &FgmresOptions,
) -> Result<KrylovResult, S::Error> {
    let n = b.len();
    let m = opts.restart.max(1);
    let bnorm = norm2(space, b).max(f64::MIN_POSITIVE);

    let mut history = Vec::new(); // ALLOC: result-owned residual history
    let mut total_iters = 0usize;
    let mut relres;

    // Krylov basis V, preconditioned basis Z, Hessenberg H (column major:
    // h[j] has j+2 entries), Givens rotations.
    // ALLOC: FGMRES basis storage — retaining V and Z is inherent to the
    // algorithm (flexible preconditioning forbids recomputing Z).
    let mut v: Vec<MultiVec> = Vec::with_capacity(m + 1);
    let mut z: Vec<MultiVec> = Vec::with_capacity(m); // ALLOC: see above

    'outer: loop {
        // The residual seeds the basis: normalised, it is `v[0]`.
        let mut r = basis_vector(n);
        space.residual_of(x, b, 1, r.data_mut())?;
        let beta = norm2(space, r.data());
        relres = beta / bnorm;
        if !relres.is_finite() || relres <= opts.tolerance || total_iters >= opts.max_iterations {
            break;
        }
        v.clear();
        z.clear();
        // Division, not multiplication by the reciprocal: the two differ
        // in the last bit, and the distributed fingerprints pin this one.
        for ri in r.data_mut() {
            *ri /= beta;
        }
        v.push(r);
        let mut g = vec![0.0f64; m + 1]; // ALLOC: per-restart least-squares RHS
        g[0] = beta;
        let mut h: Vec<Vec<f64>> = Vec::with_capacity(m); // ALLOC: retained Hessenberg columns
        let mut cs: Vec<f64> = Vec::with_capacity(m); // ALLOC: retained Givens coefficients
        let mut sn: Vec<f64> = Vec::with_capacity(m); // ALLOC: retained Givens coefficients
        let mut inner = 0usize;

        while inner < m && total_iters < opts.max_iterations {
            // z_j = M⁻¹ v_j joins Z; w = A z_j, orthonormalised, joins V.
            let mut zj = basis_vector(n);
            space.precondition(&v[inner], &mut zj)?;
            let mut w = basis_vector(n);
            space.times_a(zj.data(), 1, w.data_mut())?;
            z.push(zj);
            // Modified Gram-Schmidt.
            // ALLOC: one retained Hessenberg column per inner iteration.
            let mut hj = vec![0.0f64; inner + 2];
            for (i, vi) in v.iter().enumerate() {
                space.inner_products(w.data(), vi.data(), 1, &mut hj[i..=i]);
                space.lanes_axpy(&[-hj[i]], vi.data(), w.data_mut(), 1);
            }
            let wnorm = norm2(space, w.data());
            hj[inner + 1] = wnorm;
            // Apply existing Givens rotations to the new column.
            for i in 0..inner {
                let t = cs[i] * hj[i] + sn[i] * hj[i + 1];
                hj[i + 1] = -sn[i] * hj[i] + cs[i] * hj[i + 1];
                hj[i] = t;
            }
            // New rotation to annihilate hj[inner+1].
            let (c, s) = givens(hj[inner], hj[inner + 1]);
            cs.push(c);
            sn.push(s);
            hj[inner] = c * hj[inner] + s * hj[inner + 1];
            hj[inner + 1] = 0.0;
            g[inner + 1] = -s * g[inner];
            g[inner] *= c;
            h.push(hj);

            total_iters += 1;
            inner += 1;
            relres = g[inner].abs() / bnorm;
            history.push(relres);

            if !relres.is_finite() {
                break 'outer;
            }
            // Converged, or a lucky breakdown (exact solution in the
            // current space).
            if relres <= opts.tolerance || wnorm <= f64::MIN_POSITIVE {
                break;
            }
            for wi in w.data_mut() {
                *wi /= wnorm;
            }
            v.push(w);
        }
        // Restart, convergence or the iteration cap: fold the correction
        // into x; the loop top recomputes the true residual and re-tests.
        update_solution(space, x, &h, &g, &z, inner);
    }

    Ok(KrylovResult {
        iterations: total_iters,
        final_relres: relres,
        converged: relres <= opts.tolerance,
        history,
    })
}

/// Solves the small triangular system and applies `x += Z y`.
fn update_solution<S: KrylovSpace>(
    space: &S,
    x: &mut [f64],
    h: &[Vec<f64>],
    g: &[f64],
    z: &[MultiVec],
    k: usize,
) {
    if k == 0 {
        return;
    }
    // ALLOC: k-sized triangular-solve scratch, once per restart exit.
    let mut y = vec![0.0f64; k];
    for i in (0..k).rev() {
        let mut acc = g[i];
        for j in i + 1..k {
            acc -= h[j][i] * y[j];
        }
        y[i] = acc / h[i][i];
    }
    for (yj, zj) in y.iter().zip(z) {
        space.lanes_axpy(&[*yj], zj.data(), x, 1);
    }
}

/// Stable Givens rotation coefficients.
fn givens(a: f64, b: f64) -> (f64, f64) {
    if b == 0.0 {
        (1.0, 0.0)
    } else if a.abs() > b.abs() {
        let t = b / a;
        let c = 1.0 / (1.0 + t * t).sqrt();
        (c, c * t)
    } else {
        let t = a / b;
        let s = 1.0 / (1.0 + t * t).sqrt();
        (s * t, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::IdentityPrecond;
    use famg_matgen::{laplace2d, rhs};
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
    fn unpreconditioned_solves_small_laplacian() {
        let a = laplace2d(10, 10);
        let b = rhs::ones(100);
        let mut x = vec![0.0; 100];
        let res = fgmres(&a, &b, &mut x, &IdentityPrecond, &FgmresOptions::default());
        assert!(res.converged, "relres {}", res.final_relres);
        assert!(relres(&a, &b, &x) <= 1.1e-7);
    }

    #[test]
    fn restart_path_exercised() {
        let a = laplace2d(16, 16);
        let b = rhs::random(256, 1);
        let mut x = vec![0.0; 256];
        let opts = FgmresOptions {
            restart: 5,
            max_iterations: 2000,
            ..FgmresOptions::default()
        };
        let res = fgmres(&a, &b, &mut x, &IdentityPrecond, &opts);
        assert!(res.converged);
        assert!(res.iterations > 5, "restart never triggered");
        assert!(relres(&a, &b, &x) <= 1.1e-7);
    }

    #[test]
    fn jacobi_preconditioner_helps() {
        let a = laplace2d(14, 14);
        let n = a.nrows();
        let dinv: Vec<f64> = (0..n).map(|i| 1.0 / a.diag(i)).collect();
        let pre = move |r: &[f64], z: &mut [f64]| {
            for i in 0..r.len() {
                z[i] = dinv[i] * r[i];
            }
        };
        let b = rhs::ones(n);
        let mut x1 = vec![0.0; n];
        let mut x2 = vec![0.0; n];
        let r1 = fgmres(&a, &b, &mut x1, &IdentityPrecond, &FgmresOptions::default());
        let r2 = fgmres(&a, &b, &mut x2, &pre, &FgmresOptions::default());
        assert!(r1.converged && r2.converged);
        // Jacobi on the scaled Laplacian is equivalent up to scaling, so
        // just sanity-check both solve and the history is monotone-ish.
        assert!(relres(&a, &b, &x2) <= 1.1e-7);
    }

    #[test]
    fn nonzero_initial_guess() {
        let a = laplace2d(12, 12);
        let b = rhs::ones(144);
        let mut x = rhs::random(144, 7);
        let res = fgmres(&a, &b, &mut x, &IdentityPrecond, &FgmresOptions::default());
        assert!(res.converged);
        assert!(relres(&a, &b, &x) <= 1.1e-7);
    }

    #[test]
    fn iteration_cap_respected() {
        let a = laplace2d(20, 20);
        let b = rhs::ones(400);
        let mut x = vec![0.0; 400];
        let opts = FgmresOptions {
            max_iterations: 3,
            ..FgmresOptions::default()
        };
        let res = fgmres(&a, &b, &mut x, &IdentityPrecond, &opts);
        assert!(!res.converged);
        assert_eq!(res.iterations, 3);
    }

    /// `relres <= tol` is false for NaN: without the explicit check the
    /// loop ran `max_iterations` preconditioner applications on NaN vectors.
    #[test]
    fn non_finite_residual_stops_at_once() {
        let a = laplace2d(8, 8);
        let applications = std::cell::Cell::new(0usize);
        let counting = |r: &[f64], z: &mut [f64]| {
            applications.set(applications.get() + 1);
            z.copy_from_slice(r);
        };
        for bad in [f64::NAN, f64::INFINITY] {
            let mut b = rhs::ones(64);
            b[17] = bad;
            let mut x = vec![0.0; 64];
            let res = fgmres(&a, &b, &mut x, &counting, &FgmresOptions::default());
            assert!(!res.converged);
            assert_eq!(res.iterations, 0);
            assert!(res.final_relres.is_nan());
            assert!(x.iter().all(|&v| v == 0.0), "x was touched");
        }
        assert_eq!(applications.get(), 0);

        // A preconditioner that goes bad mid-solve: the iteration that saw
        // it is the last, and its correction is not folded into `x`.
        let poison = |r: &[f64], z: &mut [f64]| {
            applications.set(applications.get() + 1);
            z.copy_from_slice(r);
            if applications.get() == 3 {
                z[0] = f64::NAN;
            }
        };
        let b = rhs::ones(64);
        let mut x = vec![0.0; 64];
        let res = fgmres(&a, &b, &mut x, &poison, &FgmresOptions::default());
        assert!(!res.converged);
        assert_eq!((res.iterations, applications.get()), (3, 3));
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn exact_solution_returns_immediately() {
        let a = laplace2d(8, 8);
        let x_true = rhs::random(64, 3);
        let b = rhs::rhs_for_solution(&a, &x_true);
        let mut x = x_true.clone();
        let res = fgmres(&a, &b, &mut x, &IdentityPrecond, &FgmresOptions::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
        assert_eq!(x, x_true);
    }
}
