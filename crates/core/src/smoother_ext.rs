//! Extended smoothers from Baker, Falgout, Kolev, Yang, *"Multigrid
//! Smoothers for Ultra-Parallel Computing"* (the paper's reference \[26\]):
//! ℓ1-Jacobi, ℓ1-scaled hybrid Gauss-Seidel, and polynomial (Chebyshev)
//! smoothing.
//!
//! The ℓ1 variants replace the diagonal scaling `1/a_ii` with
//! `1/(a_ii + Σ_{j∉Ω_i} |a_ij|)` where `Ω_i` is the set of columns owned
//! by the same parallel task: the extra ℓ1 term damps the inter-task
//! Jacobi coupling, making the smoother *unconditionally convergent* for
//! SPD matrices regardless of task count — the property that makes them
//! attractive at extreme scale, at the cost of slightly slower smoothing.
//!
//! Chebyshev smoothing needs no snapshot buffer or task structure at all
//! (it is a pure SpMV polynomial), trading an eigenvalue estimate at
//! setup for fully deterministic, reduction-free sweeps.
#![deny(unsafe_op_in_unsafe_fn)]

use famg_sparse::partition::split_rows_by_nnz;
use famg_sparse::spmv::spmv;
use famg_sparse::vecops;
use famg_sparse::Csr;
use rayon::prelude::*;
use std::ops::Range;

/// ℓ1-Jacobi smoother: `x += D_ℓ1⁻¹ (b - A x)` with
/// `(D_ℓ1)_ii = a_ii + Σ_{j ∉ task(i)} |a_ij|`.
#[derive(Debug)]
pub struct L1Jacobi {
    dinv: Vec<f64>,
}

impl L1Jacobi {
    /// Builds the ℓ1 diagonal for the given task decomposition.
    pub fn new(a: &Csr, nthreads: usize) -> Self {
        let ranges = split_rows_by_nnz(a.rowptr(), nthreads.max(1));
        let owner = owner_map(a.nrows(), &ranges);
        let dinv = (0..a.nrows())
            .map(|i| {
                let mut d = 0.0;
                let mut l1 = 0.0;
                for (c, v) in a.row_iter(i) {
                    if c == i {
                        d = v;
                    } else if owner[c] != owner[i] {
                        l1 += v.abs();
                    }
                }
                let dl1 = d + l1;
                assert!(dl1 != 0.0, "zero l1 diagonal in row {i}");
                1.0 / dl1
            })
            .collect();
        L1Jacobi { dinv }
    }

    /// One sweep.
    pub fn sweep(&self, a: &Csr, b: &[f64], x: &mut [f64], temp: &mut Vec<f64>) {
        let n = a.nrows();
        temp.resize(n, 0.0);
        temp.copy_from_slice(x);
        let temp = &temp[..];
        let dinv = &self.dinv;
        x.par_iter_mut()
            .enumerate()
            .with_min_len(512)
            .for_each(|(i, xi)| {
                let mut acc = b[i];
                for (c, v) in a.row_iter(i) {
                    acc -= v * temp[c];
                }
                *xi = temp[i] + dinv[i] * acc;
            });
    }
}

/// ℓ1 hybrid Gauss-Seidel: GS within each task using the ℓ1-augmented
/// diagonal; off-task couplings are both snapshot (Jacobi) *and* damped
/// through the ℓ1 term, giving unconditional SPD convergence.
#[derive(Debug)]
pub struct L1HybridGs {
    dinv: Vec<f64>,
    ranges: Vec<Range<usize>>,
}

impl L1HybridGs {
    /// Builds over `nthreads` contiguous nnz-balanced row blocks.
    pub fn new(a: &Csr, nthreads: usize) -> Self {
        let ranges = split_rows_by_nnz(a.rowptr(), nthreads.max(1));
        let owner = owner_map(a.nrows(), &ranges);
        let dinv = (0..a.nrows())
            .map(|i| {
                let mut d = 0.0;
                let mut l1 = 0.0;
                for (c, v) in a.row_iter(i) {
                    if c == i {
                        d = v;
                    } else if owner[c] != owner[i] {
                        l1 += v.abs();
                    }
                }
                let dl1 = d + l1;
                assert!(dl1 != 0.0, "zero l1 diagonal in row {i}");
                1.0 / dl1
            })
            .collect();
        L1HybridGs { dinv, ranges }
    }

    /// One forward sweep.
    pub fn sweep(&self, a: &Csr, b: &[f64], x: &mut [f64], temp: &mut Vec<f64>) {
        let n = a.nrows();
        temp.resize(n, 0.0);
        temp.copy_from_slice(x);
        let temp = &temp[..];
        struct XPtr(*mut f64);
        // SAFETY: the row ranges are disjoint; each spawned task writes
        // only its own range and reads other ranges from the snapshot.
        unsafe impl Sync for XPtr {}
        let p = XPtr(x.as_mut_ptr());
        let p = &p;
        rayon::scope(|s| {
            for r in &self.ranges {
                let r = r.clone(); // ALLOC: `Range` clone is a stack copy, no heap
                s.spawn(move |_| {
                    // ALLOC: `Range` clone is a stack copy, no heap
                    for i in r.clone() {
                        let mut acc = b[i];
                        for (c, v) in a.row_iter(i) {
                            if c == i {
                                continue;
                            }
                            let xv = if r.contains(&c) {
                                // SAFETY: own contiguous block.
                                unsafe { *p.0.add(c) }
                            } else {
                                temp[c]
                            };
                            acc -= v * xv;
                        }
                        // ℓ1 update keeps the pre-sweep value share:
                        // x_i <- x̃_i + dinv (b - A x)_i evaluated with the
                        // mixed (GS/Jacobi) neighbour values.
                        let diag = 1.0 / self.dinv[i];
                        let a_ii_xi = {
                            // acc currently = b - Σ_{j≠i} a_ij x_j.
                            // Solve (a_ii + l1) x_i = acc + l1 * x̃_i.
                            let l1 = diag - a_diag(a, i);
                            (acc + l1 * temp[i]) * self.dinv[i]
                        };
                        // SAFETY: i is in this task's own range.
                        unsafe { *p.0.add(i) = a_ii_xi };
                    }
                });
            }
        });
    }
}

#[inline]
fn a_diag(a: &Csr, i: usize) -> f64 {
    a.row_iter(i).find(|&(c, _)| c == i).map_or(0.0, |(_, v)| v)
}

fn owner_map(n: usize, ranges: &[Range<usize>]) -> Vec<usize> {
    let mut owner = vec![0usize; n];
    for (t, r) in ranges.iter().enumerate() {
        for o in &mut owner[r.clone()] {
            *o = t;
        }
    }
    owner
}

/// Chebyshev polynomial smoother of the given degree over the interval
/// `[lambda_max / ratio, lambda_max]`.
#[derive(Debug)]
pub struct Chebyshev {
    degree: usize,
    lambda_max: f64,
    lambda_min: f64,
    dinv: Vec<f64>,
}

impl Chebyshev {
    /// Estimates the largest eigenvalue of `D⁻¹A` by power iteration and
    /// builds a degree-`degree` smoother targeting the upper `1/ratio`
    /// of the spectrum (standard choice: ratio = 30).
    pub fn new(a: &Csr, degree: usize, ratio: f64, power_iters: usize) -> Self {
        assert!(degree >= 1 && ratio > 1.0);
        let n = a.nrows();
        let dinv: Vec<f64> = (0..n)
            .map(|i| {
                let d = a_diag(a, i);
                assert!(d != 0.0);
                1.0 / d
            })
            .collect();
        // Power iteration on D⁻¹A with a deterministic start vector.
        let mut v: Vec<f64> = (0..n)
            .map(|i| 1.0 + (crate::rng::uniform01(0xC4EB, i as u64) - 0.5))
            .collect();
        let mut av = vec![0.0; n];
        let mut lambda = 1.0f64;
        for _ in 0..power_iters.max(1) {
            spmv(a, &v, &mut av);
            for (x, di) in av.iter_mut().zip(&dinv) {
                *x *= di;
            }
            let norm = vecops::norm2(&av).max(f64::MIN_POSITIVE);
            lambda = norm / vecops::norm2(&v).max(f64::MIN_POSITIVE);
            std::mem::swap(&mut v, &mut av);
            vecops::scale(1.0 / norm, &mut v);
        }
        // 10% safety margin, as in hypre.
        let lambda_max = 1.1 * lambda;
        Chebyshev {
            degree,
            lambda_max,
            lambda_min: lambda_max / ratio,
            dinv,
        }
    }

    /// Estimated spectral bounds `(lambda_min, lambda_max)` of `D⁻¹A`.
    pub fn bounds(&self) -> (f64, f64) {
        (self.lambda_min, self.lambda_max)
    }

    /// Applies the Chebyshev polynomial in the standard three-term
    /// recurrence form: `x += p(D⁻¹A) D⁻¹ r` with
    /// `ρ_1 = 1/σ_1`, `ρ_k = 1/(2σ_1 - ρ_{k-1})`,
    /// `d_k = ρ_k ρ_{k-1} d_{k-1} + (2ρ_k/δ) r_{k-1}` (hypre's scheme).
    pub fn sweep(&self, a: &Csr, b: &[f64], x: &mut [f64]) {
        let n = a.nrows();
        let theta = 0.5 * (self.lambda_max + self.lambda_min);
        let delta = 0.5 * (self.lambda_max - self.lambda_min);
        let sigma1 = theta / delta;
        // r = D⁻¹ (b - A x)
        // ALLOC: Chebyshev recurrence scratch (r, d, Ad): the smoother is
        // stateless by design, so its three O(n) vectors are per-sweep.
        let mut r = vec![0.0; n];
        spmv(a, x, &mut r);
        for i in 0..n {
            r[i] = (b[i] - r[i]) * self.dinv[i];
        }
        // d_1 = r / theta
        let mut d: Vec<f64> = r.iter().map(|&v| v / theta).collect(); // ALLOC: see above
        let mut rho_prev = 1.0 / sigma1;
        let mut ad = vec![0.0; n]; // ALLOC: see above
        for k in 0..self.degree {
            for (xi, di) in x.iter_mut().zip(&d) {
                *xi += di;
            }
            if k + 1 == self.degree {
                break;
            }
            spmv(a, &d, &mut ad);
            for i in 0..n {
                r[i] -= ad[i] * self.dinv[i];
            }
            let rho = 1.0 / (2.0 * sigma1 - rho_prev);
            for i in 0..n {
                d[i] = rho * rho_prev * d[i] + 2.0 * rho / delta * r[i];
            }
            rho_prev = rho;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use famg_matgen::{laplace2d, rhs};
    use famg_sparse::spmv::residual_norm_sq;

    fn residual(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        residual_norm_sq(a, x, b, &mut r).sqrt()
    }

    #[test]
    #[should_panic(expected = "zero l1 diagonal in row 1")]
    fn l1_hybrid_gs_rejects_a_zero_l1_diagonal() {
        // Row 1 is empty: without the check its scaling is `1/0 = inf` and
        // the first sweep returns NaN iterates with no diagnostic.
        let a = Csr::from_triplets(2, 2, vec![(0, 0, 2.0)]);
        let _ = L1HybridGs::new(&a, 1);
    }

    #[test]
    fn l1_jacobi_monotone_on_spd() {
        // The defining property: residual (in the right norm) never
        // diverges even with absurd task counts. Check 2-norm decrease
        // over many sweeps.
        let a = laplace2d(12, 12);
        let b = rhs::ones(a.nrows());
        let sm = L1Jacobi::new(&a, 64);
        let mut x = vec![0.0; a.nrows()];
        let mut temp = Vec::new();
        let r0 = residual(&a, &b, &x);
        let mut prev = r0;
        for _ in 0..80 {
            sm.sweep(&a, &b, &mut x, &mut temp);
            let cur = residual(&a, &b, &x);
            assert!(cur <= prev * (1.0 + 1e-10), "diverged: {prev} -> {cur}");
            prev = cur;
        }
        assert!(prev < 0.5 * r0);
    }

    #[test]
    fn l1_dinv_augmented_only_across_tasks() {
        let a = laplace2d(8, 8);
        // One task: ℓ1 term vanishes, dinv = plain 1/a_ii.
        let one = L1Jacobi::new(&a, 1);
        for (i, &d) in one.dinv.iter().enumerate() {
            assert!((d - 1.0 / a.diag(i)).abs() < 1e-15);
        }
        // Many tasks: boundary rows get a strictly smaller dinv.
        let many = L1Jacobi::new(&a, 8);
        assert!(many.dinv.iter().zip(&one.dinv).any(|(m, o)| m < o));
        assert!(many.dinv.iter().zip(&one.dinv).all(|(m, o)| m <= o));
    }

    #[test]
    fn l1_hybrid_gs_converges_with_many_tasks() {
        let a = laplace2d(10, 10);
        let b = rhs::ones(a.nrows());
        let sm = L1HybridGs::new(&a, 16);
        let mut x = vec![0.0; a.nrows()];
        let mut temp = Vec::new();
        let r0 = residual(&a, &b, &x);
        for _ in 0..60 {
            sm.sweep(&a, &b, &mut x, &mut temp);
        }
        assert!(residual(&a, &b, &x) < 0.3 * r0);
    }

    #[test]
    fn l1_hybrid_single_task_reduces_like_gs() {
        let a = laplace2d(8, 8);
        let b = rhs::random(a.nrows(), 3);
        let sm = L1HybridGs::new(&a, 1);
        let mut x = vec![0.0; a.nrows()];
        let mut temp = Vec::new();
        // With one task the l1 term vanishes and the sweep IS plain GS.
        let mut x_ref = vec![0.0; a.nrows()];
        crate::smoother::gauss_seidel_seq(&a, &b, &mut x_ref);
        sm.sweep(&a, &b, &mut x, &mut temp);
        for (u, v) in x.iter().zip(&x_ref) {
            assert!((u - v).abs() < 1e-13);
        }
    }

    #[test]
    fn chebyshev_estimates_reasonable_spectrum() {
        // D⁻¹A of the 5-point Laplacian has eigenvalues in (0, 2).
        let a = laplace2d(16, 16);
        let ch = Chebyshev::new(&a, 2, 30.0, 30);
        let (lo, hi) = ch.bounds();
        assert!(hi > 1.5 && hi < 2.3, "lambda_max {hi}");
        assert!(lo > 0.0 && lo < hi);
    }

    #[test]
    fn chebyshev_smooths_effectively() {
        let a = laplace2d(12, 12);
        let b = rhs::ones(a.nrows());
        let ch = Chebyshev::new(&a, 3, 30.0, 20);
        let mut x = vec![0.0; a.nrows()];
        let r0 = residual(&a, &b, &x);
        for _ in 0..15 {
            ch.sweep(&a, &b, &mut x);
        }
        assert!(residual(&a, &b, &x) < 0.3 * r0);
    }

    #[test]
    fn chebyshev_deterministic() {
        let a = laplace2d(10, 10);
        let b = rhs::ones(a.nrows());
        let ch1 = Chebyshev::new(&a, 2, 30.0, 10);
        let ch2 = Chebyshev::new(&a, 2, 30.0, 10);
        let mut x1 = vec![0.0; a.nrows()];
        let mut x2 = vec![0.0; a.nrows()];
        ch1.sweep(&a, &b, &mut x1);
        ch2.sweep(&a, &b, &mut x2);
        assert_eq!(x1, x2);
    }
}
