//! The linear-system space a Krylov recurrence runs over.
//!
//! CG ([`crate::cg::cg_rows`]) and FGMRES ([`crate::fgmres::fgmres_in`])
//! are each written once, over the operations whose implementation
//! differs between one address space and message-passing ranks; the
//! recurrences, the Hessenberg/Givens algebra and the stopping logic are
//! the same code on both sides. [`Serial`] is the one-address-space side:
//! pooled kernels, nothing can fail, no profiler spans. The rank side is
//! `famg_dist::solve`'s: sequential local kernels, one all-reduce per
//! inner product, one V-cycle as the preconditioner, typed shape errors,
//! and the `"spmv"`/`"blas1"` spans and flop counters of a distributed
//! solve profile.
//!
//! Vectors are `k`-interleaved blocks `(data, k)`; only
//! [`KrylovSpace::precondition`] takes [`MultiVec`]s, because
//! [`Preconditioner::apply_batch`] does.

use crate::precond::Preconditioner;
use famg_sparse::multivec::{axpy_rows, dot_rows, xpby_rows};
use famg_sparse::spmm::spmm_rows;
use famg_sparse::{Csr, MultiVec};
use std::convert::Infallible;

/// What a Krylov recurrence needs from the linear system `A x = b` it
/// runs on. A space either reports mis-sized blocks as
/// [`KrylovSpace::Error`] or is built by an entry point that checked them.
pub trait KrylovSpace {
    /// Why an operation could not be carried out.
    type Error;

    /// `Y = A X`.
    fn times_a(&self, x: &[f64], k: usize, y: &mut [f64]) -> Result<(), Self::Error>;

    /// `R = B − A X`, with no reduction.
    fn residual_of(&self, x: &[f64], b: &[f64], k: usize, r: &mut [f64])
        -> Result<(), Self::Error>;

    /// `out[j] = x[:,j] · y[:,j]` over the whole system — on ranks, the
    /// one place a recurrence synchronises globally.
    fn inner_products(&self, x: &[f64], y: &[f64], k: usize, out: &mut [f64]);

    /// `Z = M⁻¹ R`, column by column. `z` is overwritten: the space zeroes
    /// it before the preconditioner sees it.
    fn precondition(&mut self, r: &MultiVec, z: &mut MultiVec) -> Result<(), Self::Error>;

    /// `y[:,j] += alpha[j] · x[:,j]` on the local rows.
    fn lanes_axpy(&self, alpha: &[f64], x: &[f64], y: &mut [f64], k: usize);

    /// `y[:,j] = x[:,j] + beta[j] · y[:,j]` on the local rows.
    fn lanes_xpby(&self, x: &[f64], beta: &[f64], y: &mut [f64], k: usize);
}

/// One address space: the pooled `famg_sparse` kernels on a [`Csr`] and a
/// [`Preconditioner`]. Crate-private, so that only the shape-checking
/// serial entry points build one and famg-analyze can tell that no `try_*`
/// path runs these bodies.
pub(crate) struct Serial<'a, P>(pub(crate) &'a Csr, pub(crate) &'a P);

impl<P: Preconditioner> KrylovSpace for Serial<'_, P> {
    type Error = Infallible;

    fn times_a(&self, x: &[f64], k: usize, y: &mut [f64]) -> Result<(), Infallible> {
        spmm_rows(self.0, x, k, y);
        Ok(())
    }

    fn residual_of(&self, x: &[f64], b: &[f64], k: usize, r: &mut [f64]) -> Result<(), Infallible> {
        spmm_rows(self.0, x, k, r);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        Ok(())
    }

    fn inner_products(&self, x: &[f64], y: &[f64], k: usize, out: &mut [f64]) {
        dot_rows(x, y, k, out);
    }

    fn precondition(&mut self, r: &MultiVec, z: &mut MultiVec) -> Result<(), Infallible> {
        z.fill(0.0);
        // A width-1 block goes through `Preconditioner::apply`: closures
        // implement only that, and the trait's default `apply_batch` would
        // allocate two n-vectors per call.
        if r.k() == 1 {
            self.1.apply(r.data(), z.data_mut());
        } else {
            self.1.apply_batch(r, z);
        }
        Ok(())
    }

    fn lanes_axpy(&self, alpha: &[f64], x: &[f64], y: &mut [f64], k: usize) {
        axpy_rows(alpha, x, y, k);
    }

    fn lanes_xpby(&self, x: &[f64], beta: &[f64], y: &mut [f64], k: usize) {
        xpby_rows(x, beta, y, k);
    }
}
