//! Memory-traffic estimates for the bandwidth-bound analysis of §5.1.
//!
//! The paper argues AMG performance is bounded by STREAM bandwidth and
//! compares *achieved* effective bandwidth against the hardware bound
//! (Table 1's last row). These estimators count the compulsory bytes each
//! kernel must move (matrix structure + values once, vectors once per
//! logical access), so a measured runtime converts into an effective
//! bandwidth figure: `traffic / time`, to be read against the host's
//! STREAM number.

use crate::csr::{Col, Csr};

/// Bytes per row pointer (an nnz position, `usize`).
pub const ROWPTR_BYTES: usize = std::mem::size_of::<usize>();
/// Bytes per stored column index (a [`Col`], 32-bit like HYPRE's locals).
pub const COL_BYTES: usize = std::mem::size_of::<Col>();
/// Bytes per value.
pub const VAL_BYTES: usize = 8;
/// Bytes per row of the hybrid GS partition a half-sweep reads: one `u32`
/// in-row offset (where the external segment starts, or the upper one on
/// a zero-guess sweep).
pub const GS_OFFSET_BYTES: usize = std::mem::size_of::<u32>();

/// Compulsory traffic of one `y = A x` (read A once, x once, write y).
pub fn spmv_bytes(a: &Csr) -> usize {
    let vectors = (a.ncols() + a.nrows()) * VAL_BYTES;
    matrix_bytes(a) + vectors
}

/// Compulsory traffic of one hybrid GS half-sweep (reads A, a row
/// partition offset per row, b, x and the snapshot; writes x).
pub fn gs_sweep_bytes(a: &Csr) -> usize {
    spmv_bytes(a) + a.nrows() * (2 * VAL_BYTES + GS_OFFSET_BYTES)
}

/// Bytes of one full read (or write) of a CSR matrix.
pub fn matrix_bytes(m: &Csr) -> usize {
    (m.nrows() + 1) * ROWPTR_BYTES + m.nnz() * (COL_BYTES + VAL_BYTES)
}

/// Effective bandwidth in GB/s for `bytes` moved in `seconds`.
pub fn effective_bandwidth_gbs(bytes: usize, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    bytes as f64 / seconds / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmv_traffic_counts_everything_once() {
        let a = Csr::from_triplets(2, 3, vec![(0, 0, 1.0), (1, 2, 2.0)]);
        // rowptr 3*8 + colidx 2*4 + vals 2*8 + x 3*8 + y 2*8
        assert_eq!(spmv_bytes(&a), 24 + 8 + 16 + 24 + 16);
    }

    #[test]
    fn a_three_by_three_matrix_is_pinned() {
        // [1 2 0; 0 3 4; 5 0 6]: 4 row pointers, 6 columns, 6 values.
        let a = Csr::from_dense(3, 3, &[1., 2., 0., 0., 3., 4., 5., 0., 6.]);
        assert_eq!((ROWPTR_BYTES, COL_BYTES, VAL_BYTES), (8, 4, 8));
        assert_eq!(matrix_bytes(&a), 4 * 8 + 6 * 4 + 6 * 8);
        assert_eq!(spmv_bytes(&a), 104 + 3 * 8 + 3 * 8);
        assert_eq!(gs_sweep_bytes(&a), 152 + 3 * (2 * 8 + 4));
    }

    #[test]
    fn matrix_bytes_scale_with_nnz() {
        let a = Csr::identity(10);
        let b = Csr::identity(100);
        assert!(matrix_bytes(&b) > 9 * matrix_bytes(&a));
    }

    #[test]
    fn bandwidth_math() {
        assert_eq!(effective_bandwidth_gbs(2_000_000_000, 1.0), 2.0);
        assert_eq!(effective_bandwidth_gbs(100, 0.0), 0.0);
    }

    #[test]
    fn gs_heavier_than_spmv() {
        let a = Csr::identity(100);
        assert!(gs_sweep_bytes(&a) > spmv_bytes(&a));
    }
}
