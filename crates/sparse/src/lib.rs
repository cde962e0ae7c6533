//! # famg-sparse
//!
//! Sparse-matrix kernels underlying the `famg` algebraic-multigrid solver.
//!
//! This crate provides the computational substrate described in §3 of
//! Park et al., *"High-Performance Algebraic Multigrid Solver Optimized for
//! Multi-Core Based Distributed Parallel Systems"* (SC '15):
//!
//! * [`Csr`] — compressed sparse row storage with validation and
//!   conversion utilities,
//! * [`multivec`] / [`spmm`] — the solve phase's kernels over
//!   `k`-interleaved row-major block vectors `(data, k)` ([`MultiVec`]
//!   owns one): SpMM, the fused residual + norms, identity-block-skipping
//!   products for CF-permuted interpolation operators, and per-column
//!   deterministic vector reductions, monomorphized over the lane width
//!   (column `j` of a `k`-wide result is bitwise the `k = 1` result),
//! * [`spmv`] — sparse matrix–vector products: the `k = 1` lane of the
//!   block kernels, plus the sequential oracle and the paper's ablation
//!   baselines,
//! * [`spgemm`] — Gustavson sparse matrix–matrix multiplication in three
//!   flavours: the classic two-pass (symbolic + numeric) baseline, the
//!   paper's one-pass variant with per-thread pre-allocated output chunks,
//!   and a numeric-only re-run over a frozen symbolic pattern (the paper's
//!   branch-overhead upper bound),
//! * [`triple`] — Galerkin `R·A·P` triple products: unfused, row-fused
//!   (Fig. 1a), scalar-fused (Fig. 1b, the HYPRE baseline), and the
//!   CF-block decomposition that exploits the identity block of `P`,
//! * [`transpose`] — sequential and parallel (counting-sort) transposes,
//! * [`permute`] — symmetric permutations and CF reorderings,
//! * [`spa`] — sparse accumulators: the marker-array idiom and a column-ordered one,
//! * [`vecops`] — level-1 vector kernels (dot, axpy, norms) with
//!   sequential and rayon-parallel versions,
//! * [`dense`] — a small dense matrix with LU factorization used for the
//!   coarsest-grid direct solve and as a test oracle,
//! * [`partition`] — nnz-balanced row partitioning and prefix sums used
//!   by every parallel kernel.
//!
//! All kernels are deterministic: parallel results are bitwise equal to
//! sequential ones wherever the algorithm permits (reductions that
//! reassociate floating-point additions are documented on each function).

// Kernels index several parallel arrays in lockstep; indexed loops are
// the clearest expression of that and match the reference implementations.
#![allow(clippy::needless_range_loop)]
pub mod counters;
pub mod csr;
pub mod dense;
pub mod multivec;
pub mod partition;
pub mod permute;
pub mod spa;
pub mod spgemm;
pub mod spmm;
pub mod spmv;
mod testutil;
pub mod traffic;
pub mod transpose;
pub mod triple;
pub mod vecops;

pub use csr::{Col, Csr};
pub use dense::DenseMatrix;
pub use multivec::MultiVec;
