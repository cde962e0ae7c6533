//! # famg-dist
//!
//! Distributed-memory AMG over a *simulated* message-passing runtime.
//!
//! The paper's multi-node optimizations (§4) are algorithmic: the ParCSR
//! distributed matrix layout, halo exchanges, gathering of remote matrix
//! rows for SpGEMM-like operations, parallel renumbering of received
//! column indices (Fig. 4), filtering of remote interpolation rows
//! (§4.3), and persistent communication. This crate implements all of
//! them against [`comm`] — an in-process SPMD runtime where every "rank"
//! is an OS thread and every message is accounted byte-for-byte — so the
//! paper's communication-volume results reproduce exactly while the
//! transport (InfiniBand vs. channels) is the documented substitution.
//!
//! Modules:
//! * [`comm`] — the SPMD runtime: ranks, point-to-point sends, barriers,
//!   collectives, byte/message accounting,
//! * [`parcsr`] — HYPRE's distributed matrix: per-rank `diag`/`offd`
//!   blocks with compressed off-diagonal columns and `colmap` (Fig. 3a),
//!   and the extended local CSR (Fig. 3c) the setup phase runs the
//!   single-node kernels on,
//! * [`renumber`] — sequential and parallel column-index renumbering for
//!   received rows (§4.2, Fig. 4),
//! * [`halo`] — vector halo exchange (Fig. 3b), ad-hoc and persistent
//!   (§4.4), split into `post_rows`/`finish` halves so kernels can overlap the
//!   in-flight halo with interior computation, and matrix-row gathering
//!   (Fig. 3c) with optional §4.3 filtering,
//! * [`spmv`] — distributed SpMV and fused residual norms, synchronous
//!   or communication-overlapped (bitwise-identical results),
//! * [`spgemm`] — distributed SpGEMM and transpose: gather, renumber,
//!   then `famg_sparse`'s product on the local operands,
//! * [`coarsen`] — distributed PMIS (+ aggressive second pass),
//! * [`interp`] — distributed strength and direct / extended+i /
//!   multipass / 2-stage extended+i interpolation: gather, then the
//!   `famg_core` kernel on the owned row range,
//! * [`hierarchy`] — the distributed setup phase,
//! * [`solve`] — distributed V-cycle, standalone AMG and FGMRES+AMG.

// Kernels index several parallel arrays in lockstep; indexed loops are
// the clearest expression of that and match the reference implementations.
#![allow(clippy::needless_range_loop)]
pub mod coarsen;
pub mod comm;
pub mod halo;
pub mod hierarchy;
pub mod interp;
pub mod parcsr;
pub mod renumber;
pub mod solve;
pub mod spgemm;
pub mod spmv;

pub use comm::{run_ranks, Comm, RecvHandle};
pub use halo::{InFlightHalo, VectorExchange};
pub use hierarchy::{DistHierarchy, DistOptFlags};
pub use parcsr::ParCsr;
