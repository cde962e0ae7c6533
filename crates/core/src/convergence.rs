//! Convergence-factor analysis utilities.
//!
//! The paper's scalability arguments rest on two quantities: the
//! asymptotic convergence factor (how much each cycle shrinks the
//! residual once transients die out) and its independence from the
//! problem size. These helpers extract both from a residual history.
//! [`ColumnTracker`] is the bookkeeping that produces those histories:
//! the per-column stopping state shared by every iterate-to-tolerance
//! driver.

use famg_sparse::multivec::{gather_col, scatter_col};

/// Per-column stopping state of an iterative solve over a `k`-interleaved
/// block — the one place the serial, Krylov and distributed drivers decide
/// which columns are still being solved.
///
/// A column stops when its relative residual reaches the tolerance (or is
/// NaN — `relres > tol` being false is what always ended a single-vector
/// loop) or when the driver reports a breakdown. The kernels keep
/// advancing every lane (lane arithmetic is independent, so a stopped
/// column cannot perturb live ones); a stopped column merely stops
/// reporting, and its iterate is copied out right before the next step
/// that would overwrite it and copied back on exit — so column `j` of a
/// batch ends exactly where a solo solve of it does. A column that stops
/// on the step that ends the loop is never copied, so a single-vector
/// solve (`k = 1`) never takes a snapshot.
#[derive(Debug)]
pub struct ColumnTracker {
    tolerance: f64,
    done: Vec<bool>,
    frozen: Vec<Option<Vec<f64>>>,
    /// Iterations each column performed before it stopped.
    pub iterations: Vec<usize>,
    /// Relative residual of each column at its own stopping point.
    pub final_relres: Vec<f64>,
    /// Relative residual after every iteration, per column (truncated at
    /// the column's stopping iteration).
    pub history: Vec<Vec<f64>>,
}

impl ColumnTracker {
    /// Starts tracking from the entry residuals `relres` (one per column).
    // ALLOC: k-sized per-solve bookkeeping, owned by the solve's result.
    pub fn new(relres: &[f64], tolerance: f64) -> Self {
        let k = relres.len();
        let mut cols = ColumnTracker {
            tolerance,
            done: vec![false; k],
            frozen: vec![None; k],
            iterations: vec![0; k],
            final_relres: relres.to_vec(),
            history: vec![Vec::new(); k],
        };
        cols.stop_where(|_| false);
        cols
    }

    /// Whether any column is still being solved.
    pub fn any_live(&self) -> bool {
        self.done.iter().any(|d| !d)
    }

    /// Stops every live column whose last residual ends it, and those for
    /// which `breakdown(j)` holds (their reported state stays that of the
    /// previous step).
    pub fn stop_where(&mut self, breakdown: impl Fn(usize) -> bool) {
        for (j, done) in self.done.iter_mut().enumerate() {
            let rr = self.final_relres[j];
            *done |= rr <= self.tolerance || rr.is_nan() || breakdown(j);
        }
    }

    /// Copies every stopped column that has no snapshot yet out of `x`.
    /// Call right before a step that advances all lanes of `x`.
    pub fn freeze_stopped(&mut self, x: &[f64]) {
        let k = self.done.len();
        for (j, slot) in self.frozen.iter_mut().enumerate() {
            if self.done[j] && slot.is_none() {
                let mut col = vec![0.0; x.len() / k]; // ALLOC: convergence-freeze snapshot: once per column, and only in a batch that outlives it
                gather_col(x, k, j, &mut col);
                *slot = Some(col);
            }
        }
    }

    /// Records iteration `iteration`'s residuals for the live columns and
    /// stops those it ends.
    pub fn record(&mut self, iteration: usize, relres: &[f64]) {
        for j in 0..self.done.len() {
            if !self.done[j] {
                self.history[j].push(relres[j]);
                self.final_relres[j] = relres[j];
                self.iterations[j] = iteration;
            }
        }
        self.stop_where(|_| false);
    }

    /// Writes the snapshots back into `x` and reports which columns
    /// reached the tolerance.
    pub fn finish(&self, x: &mut [f64]) -> Vec<bool> {
        let k = self.done.len();
        for (j, slot) in self.frozen.iter().enumerate() {
            if let Some(col) = slot {
                scatter_col(x, k, j, col);
            }
        }
        self.final_relres
            .iter()
            .map(|&rr| rr <= self.tolerance)
            .collect() // ALLOC: result-owned convergence flags (k bools)
    }
}

/// Per-cycle reduction factors of a residual history (the history starts
/// after the first cycle; factor `k` is `r[k+1] / r[k]`).
pub fn reduction_factors(history: &[f64]) -> Vec<f64> {
    history
        .windows(2)
        .map(|w| if w[0] > 0.0 { w[1] / w[0] } else { 0.0 })
        .collect()
}

/// Asymptotic convergence factor: the geometric mean of the last
/// `tail` reduction factors (standard practice discards the initial
/// transient).
pub fn asymptotic_factor(history: &[f64], tail: usize) -> Option<f64> {
    let f = reduction_factors(history);
    if f.is_empty() {
        return None;
    }
    let tail = tail.max(1).min(f.len());
    let slice = &f[f.len() - tail..];
    if slice.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = slice.iter().map(|v| v.ln()).sum();
    Some((log_sum / tail as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_from_geometric_history() {
        let h = vec![1.0, 0.1, 0.01, 0.001];
        let f = reduction_factors(&h);
        assert_eq!(f.len(), 3);
        for v in f {
            assert!((v - 0.1).abs() < 1e-12);
        }
        let af = asymptotic_factor(&h, 2).unwrap();
        assert!((af - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_and_degenerate() {
        assert!(asymptotic_factor(&[], 3).is_none());
        assert!(asymptotic_factor(&[0.5], 3).is_none());
        assert!(asymptotic_factor(&[0.5, 0.0], 3).is_none());
    }

    #[test]
    fn matches_real_solver_history() {
        use crate::params::AmgConfig;
        use crate::solver::AmgSolver;
        let a = famg_matgen::laplace2d(32, 32);
        let b = famg_matgen::rhs::ones(a.nrows());
        let solver = AmgSolver::setup(&a, &AmgConfig::single_node_paper());
        let mut x = vec![0.0; a.nrows()];
        let res = solver.solve(&b, &mut x);
        let af = asymptotic_factor(&res.history, 4).unwrap();
        // PMIS + ext+i on the 5-point Laplacian: factor well below 0.5.
        assert!(af > 0.0 && af < 0.5, "factor {af}");
    }
}
