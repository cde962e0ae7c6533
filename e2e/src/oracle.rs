//! The correctness oracle: `‖b − Ax‖ / ‖b‖` recomputed with a plain
//! serial CSR loop that shares no code with `famg_sparse::spmv`, so a
//! kernel bug cannot hide behind the solver's own convergence report.

use famg_sparse::Csr;

/// Independent relative residual of `x` for `A x = b`.
pub fn relres(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    let (rowptr, cols, vals) = (a.rowptr(), a.colidx(), a.values());
    let (mut rr, mut bb) = (0.0f64, 0.0f64);
    for i in 0..a.nrows() {
        let mut ax = 0.0;
        for k in rowptr[i]..rowptr[i + 1] {
            ax += vals[k] * x[cols[k]];
        }
        let r = b[i] - ax;
        rr += r * r;
        bb += b[i] * b[i];
    }
    (rr / bb.max(f64::MIN_POSITIVE)).sqrt()
}

/// Whether one solve counts as good: the solver says converged *and* the
/// independent residual is finite and within ten times the tolerance.
pub fn solve_ok(a: &Csr, x: &[f64], b: &[f64], converged: bool, tolerance: f64) -> bool {
    // NaN fails the comparison, so a non-finite answer is a failure.
    converged && relres(a, x, b) <= 10.0 * tolerance
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_wrong_answers() {
        let a = Csr::from_triplets(2, 2, vec![(0, 0, 2.0), (1, 1, 4.0), (0, 1, 1.0)]);
        let b = [4.0, 4.0];
        assert!(relres(&a, &[1.5, 1.0], &b) < 1e-15);
        assert!(solve_ok(&a, &[1.5, 1.0], &b, true, 1e-7));
        assert!(!solve_ok(&a, &[1.5, 1.0], &b, false, 1e-7));
        assert!(!solve_ok(&a, &[0.0, 0.0], &b, true, 1e-7));
        assert!(!solve_ok(&a, &[f64::NAN, 1.0], &b, true, 1e-7));
    }
}
