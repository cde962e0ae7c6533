//! # famg-core
//!
//! Classical (BoomerAMG-style) algebraic multigrid, reproducing the
//! optimized solver (`HYPRE_opt`) of Park et al., SC '15. Each optimization
//! has a baseline (HYPRE 2.10.0b-like) twin that the benchmarks time beside
//! it, and `HYPRE_base` as a whole, the program the paper's Fig. 5 compares
//! against, is `famg_bench::baseline`:
//!
//! | Paper §                | Baseline twin            | Optimized twin          |
//! |------------------------|--------------------------|-------------------------|
//! | §3.1.1 SpGEMM          | two-pass                 | one-pass chunked        |
//! | §3.1.1 RAP fusion      | scalar fusion (Fig 1b)   | row fusion (Fig 1a)     |
//! | §3.1.1 CF reordering   | full `P` with identity rows interleaved | `P = [I; P_F]` blocks |
//! | §3.1.2 interpolation   | extended+i, post-truncation | extended+i, fused truncation, coarse opposite-sign view |
//! | §3.2 smoothing         | hybrid GS with per-nz branches (Fig 2a) | reordered hybrid GS (Fig 2b) |
//! | §3.2 restriction       | transpose `P` per application | keep `R = Pᵀ` from setup |
//! | §3.3 residual norm     | SpMV then dot            | fused SpMV+dot          |
//!
//! Modules:
//! * [`params`] — solver configuration mirroring the paper's Tables 3/4,
//! * [`strength`] — classical strength-of-connection matrix,
//! * [`coarsen`] — PMIS coarsening (plus aggressive second-pass PMIS),
//! * [`interp`] — interpolation operators: extended+i (distance-2),
//!   multipass, and 2-stage extended+i,
//! * [`reorder`] — CF permutation plumbing and the intra-row GS partition,
//! * [`smoother`] — reordered hybrid Gauss-Seidel (Fig. 2b),
//! * [`hierarchy`] — multigrid level construction (setup phase),
//! * [`refresh`] — numeric-refresh setup over frozen pattern structure
//!   for same-pattern operator sequences,
//! * [`cycle`] — V-cycle application,
//! * [`solver`] — the user-facing [`AmgSolver`] with timing breakdowns.

// Kernels index several parallel arrays in lockstep; indexed loops are
// the clearest expression of that and match the reference implementations.
#![allow(clippy::needless_range_loop)]
pub mod coarsen;
pub mod convergence;
pub mod cycle;
pub mod hierarchy;
pub mod interp;
pub mod params;
pub mod refresh;
pub mod reorder;
pub mod rng;
pub mod smoother;
pub mod solver;
pub mod stats;
pub mod strength;

pub use hierarchy::Hierarchy;
pub use params::{AmgConfig, CoarsenKind, InterpKind};
pub use refresh::{FrozenSetup, RefreshError};
pub use solver::{AmgSolver, BatchSolveResult, SolveError, SolveResult};
pub use stats::{PhaseTimes, SetupStats};
