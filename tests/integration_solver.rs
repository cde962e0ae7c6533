//! Cross-crate integration tests: the full pipeline from problem
//! generation through setup, solve, and distributed execution.

use famg::core::{AmgConfig, AmgSolver};
use famg::dist::comm::run_ranks;
use famg::dist::hierarchy::{DistHierarchy, DistOptFlags};
use famg::dist::parcsr::{default_partition, ParCsr};
use famg::dist::solve::dist_amg_solve;
use famg::krylov::{cg, fgmres, CgOptions, FgmresOptions, IdentityPrecond};
use famg::matgen::{mmio, rhs, suite};
use famg::sparse::spmv::residual_norm_sq;
use famg::sparse::vecops;

fn relres(a: &famg::sparse::Csr, b: &[f64], x: &[f64]) -> f64 {
    let mut r = vec![0.0; b.len()];
    residual_norm_sq(a, x, b, &mut r).sqrt() / vecops::norm2(b)
}

#[test]
fn whole_suite_solves_at_small_scale() {
    // Every matrix family of Table 2, scaled down, must be solved by the
    // paper-default AMG configuration to 1e-7.
    for m in suite() {
        let a = (m.gen)(0.05);
        let b = rhs::ones(a.nrows());
        let solver = AmgSolver::setup(&a, &AmgConfig::single_node_paper());
        let mut x = vec![0.0; a.nrows()];
        let res = solver.solve(&b, &mut x);
        assert!(
            res.converged,
            "{}: stalled at {:.2e} after {} iters",
            m.name, res.final_relres, res.iterations
        );
        assert!(relres(&a, &b, &x) <= 1.05e-7, "{}", m.name);
    }
}

#[test]
fn amg_preconditioned_fgmres_beats_plain_fgmres() {
    let a = famg::matgen::reservoir_matrix(24, 24, 12, 3);
    let b = rhs::ones(a.nrows());
    let amg = AmgSolver::setup(
        &a,
        &AmgConfig {
            tolerance: 1e-5,
            ..AmgConfig::multi_node_ei4()
        },
    );
    let pre = |r: &[f64], z: &mut [f64]| amg.apply(r, z);
    let opts = FgmresOptions {
        tolerance: 1e-5,
        max_iterations: 300,
        restart: 40,
    };
    let mut x1 = vec![0.0; a.nrows()];
    let r1 = fgmres(&a, &b, &mut x1, &pre, &opts);
    assert!(r1.converged);
    let mut x2 = vec![0.0; a.nrows()];
    let r2 = fgmres(&a, &b, &mut x2, &IdentityPrecond, &opts);
    assert!(
        !r2.converged || r2.iterations > 3 * r1.iterations,
        "AMG gave no advantage: {} vs {}",
        r1.iterations,
        r2.iterations
    );
}

#[test]
fn amg_preconditioned_cg_solves_spd_problem() {
    let a = famg::matgen::laplace3d_7pt(12, 12, 12);
    let b = rhs::random(a.nrows(), 7);
    let amg = AmgSolver::setup(&a, &AmgConfig::single_node_paper());
    let pre = |r: &[f64], z: &mut [f64]| amg.apply(r, z);
    let mut x = vec![0.0; a.nrows()];
    let res = cg(&a, &b, &mut x, &pre, &CgOptions::default());
    assert!(res.converged);
    assert!(
        res.iterations < 25,
        "PCG took {} iterations",
        res.iterations
    );
}

#[test]
fn distributed_solution_matches_serial() {
    let a = famg::matgen::laplace2d(20, 20);
    let n = a.nrows();
    let b = rhs::ones(n);
    // Serial.
    let solver = AmgSolver::setup(&a, &AmgConfig::single_node_paper());
    let mut xs = vec![0.0; n];
    let rs = solver.solve(&b, &mut xs);
    assert!(rs.converged);
    // Distributed (3 ranks).
    let starts = default_partition(n, 3);
    let cfg = AmgConfig::single_node_paper();
    let (parts, _) = run_ranks(3, |c| {
        let r = c.rank();
        let pa = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
        let h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
        let bl = b[starts[r]..starts[r + 1]].to_vec();
        let mut xl = vec![0.0; bl.len()];
        let res = dist_amg_solve(c, &h, &bl, &mut xl);
        assert!(res.converged);
        xl
    });
    let xd: Vec<f64> = parts.concat();
    // Both are approximate solutions of the same system to 1e-7; they
    // agree to solver accuracy.
    assert!(relres(&a, &b, &xd) <= 1.05e-7);
    let diff: f64 = xs
        .iter()
        .zip(&xd)
        .map(|(u, v)| (u - v) * (u - v))
        .sum::<f64>()
        .sqrt();
    assert!(
        diff / vecops::norm2(&xs) < 1e-4,
        "solutions diverged: {diff}"
    );
}

#[test]
fn matrix_market_roundtrip_then_solve() {
    let a = famg::matgen::laplace2d(16, 16);
    let path = std::env::temp_dir().join("famg_integration.mtx");
    mmio::save_matrix_market(&a, &path).unwrap();
    let loaded = mmio::load_matrix_market(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(a.to_dense(), loaded.to_dense());
    let b = rhs::ones(loaded.nrows());
    let solver = AmgSolver::setup(&loaded, &AmgConfig::single_node_paper());
    let mut x = vec![0.0; loaded.nrows()];
    assert!(solver.solve(&b, &mut x).converged);
}

#[test]
fn anisotropic_problem_semicoarsens_and_solves() {
    let a = famg::matgen::laplace2d_aniso(48, 48, 0.01);
    let b = rhs::ones(a.nrows());
    let solver = AmgSolver::setup(&a, &AmgConfig::single_node_paper());
    // Strength filtering should coarsen mostly along x: the coarse grid
    // keeps roughly half the points (1D coarsening), not a quarter.
    let ratio = solver.hierarchy().stats.level_rows[1] as f64
        / solver.hierarchy().stats.level_rows[0] as f64;
    assert!(ratio > 0.3, "expected semicoarsening, got ratio {ratio}");
    let mut x = vec![0.0; a.nrows()];
    let res = solver.solve(&b, &mut x);
    assert!(res.converged);
}
