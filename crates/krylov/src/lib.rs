//! # famg-krylov
//!
//! Krylov solvers used by the paper's multi-node evaluation: a flexible
//! (right-preconditioned) GMRES — Table 4's outer solver — and conjugate
//! gradients, both generic over a [`Preconditioner`] and each written once
//! over a [`KrylovSpace`] — the serial solvers here and the distributed
//! ones in `famg_dist::solve` are the same recurrence.
//!
//! Flexible GMRES [Saad 1993] allows the preconditioner to change between
//! iterations, which is required when the preconditioner is itself an
//! iterative method like an AMG V-cycle.

pub mod cg;
pub mod fgmres;
pub mod precond;
pub mod space;

pub use cg::{cg, cg_batch, CgOptions};
pub use fgmres::{fgmres, FgmresOptions};
pub use precond::{IdentityPrecond, Preconditioner, RefreshPrecond};
pub use space::KrylovSpace;

/// Convergence report shared by the Krylov solvers.
#[derive(Debug, Clone)]
pub struct KrylovResult {
    /// Iterations performed (preconditioner applications).
    pub iterations: usize,
    /// Final relative residual (recomputed exactly at exit).
    pub final_relres: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Relative residual history, one entry per iteration.
    pub history: Vec<f64>,
}

/// Per-column convergence report for the batched Krylov solvers
/// ([`cg_batch`]): column `j` is bitwise identical to the scalar solver
/// on that right-hand side alone.
#[derive(Debug, Clone, Default)]
pub struct BatchKrylovResult {
    /// Iterations each column performed before its own stopping point.
    pub iterations: Vec<usize>,
    /// Final relative residual per column.
    pub final_relres: Vec<f64>,
    /// Whether each column met the tolerance.
    pub converged: Vec<bool>,
    /// Relative residual history per column.
    pub history: Vec<Vec<f64>>,
}

impl BatchKrylovResult {
    /// Batch width.
    pub fn k(&self) -> usize {
        self.converged.len()
    }

    /// True when every column met the tolerance.
    pub fn all_converged(&self) -> bool {
        self.converged.iter().all(|&c| c)
    }
}
