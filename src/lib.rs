//! # famg — High-performance algebraic multigrid in Rust
//!
//! A from-scratch reproduction of *"High-Performance Algebraic Multigrid
//! Solver Optimized for Multi-Core Based Distributed Parallel Systems"*
//! (Park, Smelyanskiy, Yang, Mudigere, Dubey — SC '15): a classical
//! (BoomerAMG-style) AMG solver with the paper's multi-core and
//! multi-node optimizations, plus the substrates it depends on.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`sparse`] — CSR kernels: SpMV, SpGEMM, transpose, triple products.
//! * [`core`] — the AMG solver: PMIS coarsening, extended+i / multipass
//!   interpolation, hybrid Gauss-Seidel smoothing, V-cycles.
//! * [`krylov`] — flexible GMRES and CG with an AMG preconditioner.
//! * [`dist`] — a simulated message-passing runtime and distributed
//!   (ParCSR) AMG reproducing the paper's multi-node optimizations.
//! * [`matgen`] — problem generators for every workload in the paper's
//!   evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use famg::core::{AmgConfig, AmgSolver};
//! use famg::matgen::laplace2d;
//!
//! let a = laplace2d(64, 64);
//! let b = vec![1.0; a.nrows()];
//! let solver = AmgSolver::setup(&a, &AmgConfig::default());
//! let result = solver.solve(&b, &mut vec![0.0; a.nrows()]);
//! assert!(result.converged);
//! ```

pub use famg_core as core;
pub use famg_dist as dist;
pub use famg_krylov as krylov;
pub use famg_matgen as matgen;
pub use famg_sparse as sparse;
