//! Two-stage extended+i interpolation (Yang 2010) — `2s-ei(444)`.
//!
//! Aggressive coarsening is two PMIS stages; this operator composes an
//! extended+i interpolation for each stage:
//!
//! 1. `P1`: fine points → stage-1 C-points (extended+i on `A`),
//! 2. `P2`: stage-1 C-points → final C-points (extended+i on the stage-1
//!    Galerkin operator `A1 = P1ᵀ A P1`),
//! 3. `P = P1 · P2`, truncated.
//!
//! Truncation is applied *at every stage* (the `(444)` in the paper's
//! label: `max_elmts = 4` for stage 1, stage 2, and the product).
//!
//! Note: HYPRE's production implementation assembles the two stages
//! without materializing `A1`; we form `A1` explicitly via the (already
//! optimized) triple product — semantically equivalent, with a setup-time
//! cost consistent with the paper's observation that 2-stage
//! interpolation construction dominates aggressive-coarsening setup.

use super::common::{truncate_matrix, CfMap, TruncParams};
use super::extended_i::extended_i;
use crate::coarsen::Coarsening;
use crate::strength::strength;
use famg_sparse::spgemm::{
    spgemm_flops_bound, spgemm_one_pass, spgemm_two_pass, SPGEMM_TWO_PASS_MAX_FLOPS,
};
use famg_sparse::transpose::transpose_par;
use famg_sparse::triple::rap_row_fused;
use famg_sparse::Csr;

/// Builds the two-stage extended+i operator (`n × nc_final`).
///
/// `stage1` is the first-pass PMIS splitting, `final_c` the aggressive
/// (second-pass) splitting; `final_c` C-points must be a subset of
/// `stage1` C-points (as produced by
/// [`crate::coarsen::aggressive_pmis_stages`]). The `P1·P2` composition
/// takes the two-pass SpGEMM when its work bound is cache-sized
/// ([`SPGEMM_TWO_PASS_MAX_FLOPS`]), the one-pass kernel above it; both give
/// identical results.
pub fn two_stage_extended_i(
    a: &Csr,
    s: &Csr,
    stage1: &Coarsening,
    final_c: &Coarsening,
    strength_threshold: f64,
    max_row_sum: f64,
    trunc: Option<&TruncParams>,
) -> Csr {
    let n = a.nrows();
    assert_eq!(stage1.is_coarse.len(), n);
    assert_eq!(final_c.is_coarse.len(), n);
    // Stage 1: interpolate everything to the stage-1 C-points.
    let cf1 = CfMap::new(stage1.is_coarse.clone());
    let p1 = extended_i(a, s, &cf1, trunc);
    // Stage-1 Galerkin operator.
    let r1 = transpose_par(&p1);
    let a1 = rap_row_fused(&r1, a, &p1);
    // Stage 2: among stage-1 C-points, interpolate to the final C-points.
    let s1 = strength(&a1, strength_threshold, max_row_sum);
    let is_final_in_stage1: Vec<bool> = (0..n)
        .filter(|&i| stage1.is_coarse[i])
        .map(|i| final_c.is_coarse[i])
        .collect();
    let cf2 = CfMap::new(is_final_in_stage1);
    let p2 = extended_i(&a1, &s1, &cf2, trunc);
    // Compose and truncate the product.
    let p = if spgemm_flops_bound(&p1, &p2) <= SPGEMM_TWO_PASS_MAX_FLOPS {
        spgemm_two_pass(&p1, &p2)
    } else {
        spgemm_one_pass(&p1, &p2)
    };
    match trunc {
        Some(t) => truncate_matrix(&p, t),
        None => p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::aggressive_pmis_stages;
    use famg_matgen::laplace2d;

    fn setup(nx: usize, ny: usize, seed: u64) -> (Csr, Csr, Coarsening, Coarsening) {
        let a = laplace2d(nx, ny);
        let s = strength(&a, 0.25, 0.8);
        let (first, fin) = aggressive_pmis_stages(&s, seed);
        (a, s, first, fin)
    }

    #[test]
    fn shape_and_identity_rows() {
        let (a, s, first, fin) = setup(16, 16, 1);
        let p = two_stage_extended_i(&a, &s, &first, &fin, 0.25, 0.8, None);
        assert_eq!(p.nrows(), a.nrows());
        assert_eq!(p.ncols(), fin.ncoarse);
        // Final C-points interpolate to themselves with weight 1.
        let cmap = CfMap::new(fin.is_coarse.clone());
        for i in 0..a.nrows() {
            if fin.is_coarse[i] {
                assert_eq!(p.get(i, cmap.cmap[i]), Some(1.0), "row {i}");
            }
        }
    }

    #[test]
    fn constant_preserved_exactly_on_neumann_operator() {
        let a = famg_matgen::laplace2d_neumann(20, 20);
        let s = strength(&a, 0.25, 10.0);
        let (first, fin) = aggressive_pmis_stages(&s, 3);
        let p = two_stage_extended_i(&a, &s, &first, &fin, 0.25, 10.0, None);
        for i in 0..a.nrows() {
            if p.row_nnz(i) > 0 {
                let w: f64 = p.row_vals(i).iter().sum();
                assert!((w - 1.0).abs() < 1e-9, "row {i}: Σw = {w}");
            }
        }
    }

    #[test]
    fn truncation_caps_rows() {
        let (a, s, first, fin) = setup(20, 20, 5);
        let t = TruncParams::paper();
        let p = two_stage_extended_i(&a, &s, &first, &fin, 0.25, 0.8, Some(&t));
        for i in 0..a.nrows() {
            if !fin.is_coarse[i] {
                assert!(p.row_nnz(i) <= 4, "row {i}: {}", p.row_nnz(i));
            }
        }
    }

    #[test]
    fn covers_fine_points_despite_aggressive_coarsening() {
        let (a, s, first, fin) = setup(24, 24, 7);
        let p = two_stage_extended_i(&a, &s, &first, &fin, 0.25, 0.8, Some(&TruncParams::paper()));
        let mut uncovered = 0usize;
        for i in 0..a.nrows() {
            if !fin.is_coarse[i] && s.row_nnz(i) > 0 && p.row_nnz(i) == 0 {
                uncovered += 1;
            }
        }
        // The composition may legitimately drop a handful of boundary
        // points, but the bulk must be covered.
        assert!(
            uncovered * 50 < a.nrows(),
            "{uncovered} of {} uncovered",
            a.nrows()
        );
    }
}
