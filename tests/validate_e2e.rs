//! End-to-end solves with the `validate` feature enabled: the
//! `famg-check` validators run at every hierarchy level boundary and
//! panic on the first violated invariant, so a passing solve certifies
//! the whole setup pipeline (strength → PMIS → interpolation → Galerkin
//! RAP) on that problem.
//!
//! Gated on the workspace `validate` feature; run with
//! `cargo test --features validate`.
#![cfg(feature = "validate")]

use famg::core::rng::uniform01;
use famg::core::{AmgConfig, AmgSolver};
use famg::dist::comm::run_ranks;
use famg::dist::hierarchy::{DistHierarchy, DistOptFlags};
use famg::dist::parcsr::{default_partition, ParCsr};
use famg::matgen::{laplace2d, laplace3d_7pt, varcoef3d_7pt};
use famg::sparse::Csr;

fn solve_validated(a: &Csr, cfg: &AmgConfig) {
    let b = vec![1.0; a.nrows()];
    let solver = AmgSolver::setup(a, cfg);
    let mut x = vec![0.0; a.nrows()];
    let res = solver.solve(&b, &mut x);
    assert!(res.converged, "stalled at {:e}", res.final_relres);
}

#[test]
fn laplace2d_solves_under_validation() {
    let a = laplace2d(32, 32);
    solve_validated(&a, &AmgConfig::single_node_paper());
}

#[test]
fn laplace3d_solves_under_validation() {
    let a = laplace3d_7pt(12, 12, 12);
    solve_validated(&a, &AmgConfig::single_node_paper());
}

#[test]
fn varcoef_solves_under_validation() {
    // Log-uniform coefficient jumps over four orders of magnitude.
    let (nx, ny, nz) = (10, 10, 10);
    let k: Vec<f64> = (0..nx * ny * nz)
        .map(|i| 10f64.powf(4.0 * uniform01(0xC0EF, i as u64) - 2.0))
        .collect();
    let a = varcoef3d_7pt(nx, ny, nz, &k);
    solve_validated(&a, &AmgConfig::single_node_paper());
}

#[test]
fn aggressive_schemes_solve_under_validation() {
    // Multipass and two-stage extended+i exercise the relaxed row-sum
    // branch of the validator (rowsum_exact = false).
    let a = laplace2d(24, 24);
    solve_validated(&a, &AmgConfig::multi_node_mp());
    solve_validated(&a, &AmgConfig::multi_node_2s_ei444());
}

#[test]
fn distributed_setup_validates_per_rank() {
    let a = laplace2d(20, 20);
    let starts = default_partition(400, 3);
    for cfg in [AmgConfig::single_node_paper(), AmgConfig::multi_node_mp()] {
        let (parts, _) = run_ranks(3, |c| {
            let pa = ParCsr::from_global_rows(
                &a,
                starts[c.rank()],
                starts[c.rank() + 1],
                starts.clone(),
                c.rank(),
            );
            let h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
            h.num_levels()
        });
        for nl in parts {
            assert!(nl >= 2);
        }
    }
}
