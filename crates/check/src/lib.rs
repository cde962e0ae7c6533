//! Invariant validators for famg.
//!
//! The optimizations this workspace reproduces from Park et al. (SC'15)
//! — fused one-pass RAP, CF-permutation with an implicit identity
//! block, unsafe unrolled/prefetched hybrid Gauss-Seidel — are exactly
//! the kind of code where a silent structural bug corrupts results
//! without crashing. This crate is the contract that makes those
//! optimizations safe to keep evolving:
//!
//! * [`structure`] — per-matrix CSR well-formedness (monotone row
//!   pointers, in-bounds/sorted/deduplicated column indices, finite
//!   values, symmetric pattern);
//! * [`amg`] — AMG-semantic checks at hierarchy level boundaries
//!   (CF-splitting validity, interpolation row sums and identity
//!   C-block, Galerkin RAP cross-check against a naive reference);
//! * [`parcsr`] — per-rank checks on distributed ParCSR parts.
//!
//! All checks return [`CheckResult`] rather than panicking, so callers
//! choose the failure policy. The `validate` feature of `famg-core` /
//! `famg-dist` wires them into hierarchy setup and panics with a
//! level-tagged report on the first violation; release builds without
//! the feature compile the calls out entirely.

pub mod amg;
pub mod benchjson;
pub mod parcsr;
pub mod structure;

pub use amg::{
    check_cf_splitting, check_galerkin, check_interp_c_identity, check_interp_identity_block,
    check_interp_row_sums, galerkin_sample_rows,
};
pub use parcsr::{check_parcsr, ParCsrParts};
pub use structure::{
    check_csr, check_finite, check_no_duplicates, check_raw_parts, check_sorted_unique,
    check_symmetric_pattern,
};

/// A single invariant violation: which check failed and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable identifier of the failed check (e.g. `"rowptr_monotone"`).
    pub check: &'static str,
    /// Human-readable location/context of the first offending entry.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invariant `{}` violated: {}", self.check, self.detail)
    }
}

impl std::error::Error for Violation {}

/// `Ok(())` if the invariant holds, otherwise the first [`Violation`].
pub type CheckResult = Result<(), Violation>;

pub(crate) fn fail(check: &'static str, detail: String) -> CheckResult {
    Err(Violation { check, detail })
}
