//! Operation counters used to reproduce the paper's analytic claims
//! (e.g. §3.1.1: row-fused RAP performs 1.73× fewer floating-point
//! operations than HYPRE's scalar fusion on the finest level).
//!
//! Counting is kept out of the hot kernels: counting variants of the triple
//! products walk the same loop structure but only tally, so production
//! kernels pay no overhead.

use std::sync::atomic::{AtomicU64, Ordering};

/// Tally of floating-point multiply and add operations.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlopCount {
    /// Multiplications performed.
    pub muls: u64,
    /// Additions performed.
    pub adds: u64,
}

impl FlopCount {
    /// Total flops (muls + adds).
    pub fn total(&self) -> u64 {
        self.muls + self.adds
    }
}

impl std::ops::Add for FlopCount {
    type Output = FlopCount;
    fn add(self, rhs: FlopCount) -> FlopCount {
        FlopCount {
            muls: self.muls + rhs.muls,
            adds: self.adds + rhs.adds,
        }
    }
}

impl std::ops::AddAssign for FlopCount {
    fn add_assign(&mut self, rhs: FlopCount) {
        *self = *self + rhs;
    }
}

/// Analytic flop costs for the solve-phase kernels, used to attach
/// `"flops"` counter deltas to profiler spans without instrumenting the
/// hot loops themselves. These are the standard sparse-kernel operation
/// counts (one multiply + one add per stored entry, etc.), so a span's
/// flop tally is exact for the work the kernel was asked to do rather
/// than a sampled estimate.
pub mod flops {
    /// `y = A x`: one multiply-add per stored entry.
    pub fn spmv(nnz: usize) -> u64 {
        2 * nnz as u64
    }

    /// Dot product or squared norm of length-`n` vectors.
    pub fn dot(n: usize) -> u64 {
        2 * n as u64
    }

    /// `y += alpha x` over length-`n` vectors.
    pub fn axpy(n: usize) -> u64 {
        2 * n as u64
    }

    /// Dense triangular solves of an `m × m` LU factorization.
    pub fn lu_solve(m: usize) -> u64 {
        2 * (m as u64) * (m as u64)
    }

    /// `Y = A X` over `k` interleaved columns: one multiply-add per stored
    /// entry *per lane* — the batched kernels do `k×` the arithmetic of a
    /// single SpMV while reading the matrix once.
    pub fn spmm(nnz: usize, k: usize) -> u64 {
        2 * nnz as u64 * k as u64
    }

    /// One k-wide Gauss-Seidel (or Jacobi) sweep: per lane, a multiply-add
    /// per stored off-diagonal entry plus the diagonal solve per row,
    /// ≈ `2·nnz`.
    pub fn gs_sweep_batch(nnz: usize, k: usize) -> u64 {
        2 * nnz as u64 * k as u64
    }

    /// Per-column dot products (or squared norms) over `k` length-`n`
    /// columns.
    pub fn dot_batch(n: usize, k: usize) -> u64 {
        2 * n as u64 * k as u64
    }

    /// Per-column `y += alpha_j x` over `k` length-`n` columns.
    pub fn axpy_batch(n: usize, k: usize) -> u64 {
        2 * n as u64 * k as u64
    }
}

/// Thread-safe byte counter used by the simulated message-passing transport
/// to reproduce the paper's communication-volume measurements (§4.3, §5.4).
#[derive(Debug, Default)]
pub struct ByteCounter {
    bytes: AtomicU64,
    messages: AtomicU64,
}

impl ByteCounter {
    /// A fresh zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one message of `n` bytes.
    pub fn record(&self, n: usize) {
        // ORDERING: Relaxed — statistics counters publish nothing; the RMW's
        // atomicity keeps tallies exact, and readers only consume them after
        // the parallel region has been joined (which orders everything).
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Total bytes recorded.
    pub fn bytes(&self) -> u64 {
        // ORDERING: Relaxed — read after the recording region is joined;
        // the join provides the happens-before edge, not this load.
        self.bytes.load(Ordering::Relaxed)
    }

    /// Total messages recorded.
    pub fn messages(&self) -> u64 {
        // ORDERING: Relaxed — as for `bytes`, the caller's join orders it.
        self.messages.load(Ordering::Relaxed)
    }

    /// Resets both tallies to zero.
    pub fn reset(&self) {
        // ORDERING: Relaxed — reset happens between measurement phases with
        // no concurrent recorders; atomicity alone suffices.
        self.bytes.store(0, Ordering::Relaxed);
        self.messages.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_count_arithmetic() {
        let a = FlopCount { muls: 3, adds: 2 };
        let b = FlopCount { muls: 1, adds: 1 };
        let c = a + b;
        assert_eq!(c.muls, 4);
        assert_eq!(c.adds, 3);
        assert_eq!(c.total(), 7);
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }

    #[test]
    fn byte_counter_accumulates() {
        let c = ByteCounter::new();
        c.record(100);
        c.record(28);
        assert_eq!(c.bytes(), 128);
        assert_eq!(c.messages(), 2);
        c.reset();
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.messages(), 0);
    }

    #[test]
    fn byte_counter_threaded() {
        let c = ByteCounter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.record(8);
                    }
                });
            }
        });
        assert_eq!(c.bytes(), 32000);
        assert_eq!(c.messages(), 4000);
    }
}
