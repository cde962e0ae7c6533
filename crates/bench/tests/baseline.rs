//! `famg_bench::baseline` is `HYPRE_base` as the solver ran it when it was
//! a configuration of the library (`AmgConfig::single_node_baseline`):
//! its hierarchies and its solves are pinned to values recorded from that
//! configuration, bit for bit.

use famg_bench::baseline;
use famg_core::strength::{strength, strength_seq};
use famg_core::{AmgConfig, AmgSolver};
use famg_matgen::{laplace2d, laplace3d_27pt, reservoir_field, rhs, suite, varcoef3d_7pt};
use famg_sparse::spmv::residual_norm_sq;
use famg_sparse::vecops::norm2;
use famg_sparse::Csr;

fn fnv1a(h: u64, w: u64) -> u64 {
    let step = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    w.to_le_bytes().into_iter().fold(h, step)
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn hash_usizes(h: u64, xs: &[usize]) -> u64 {
    xs.iter().fold(h, |h, &v| fnv1a(h, v as u64))
}

fn hash_csr(h: u64, c: &Csr) -> u64 {
    let h = hash_usizes(h, &[c.nrows(), c.ncols()]);
    let h = hash_usizes(h, c.rowptr());
    let cols = c.colidx().iter().map(|&j| usize::from(j) as u64);
    let h = cols.fold(h, fnv1a);
    c.values().iter().fold(h, |h, v| fnv1a(h, v.to_bits()))
}

/// Each level's operator, `nc` and `P`: the words `hash_hierarchy` of
/// `tests/hierarchy_fingerprints.rs` hashes for a level stored unpermuted
/// with no kept transpose.
fn hash_levels(levels: &[baseline::Level]) -> u64 {
    let mut h = fnv1a(FNV_SEED, levels.len() as u64);
    for lvl in levels {
        h = fnv1a(hash_csr(h, &lvl.a), lvl.nc as u64);
        if let Some(p) = &lvl.p {
            h = hash_csr(h, p);
        }
    }
    h
}

/// The `*/baseline/build` rows of `tests/hierarchy_fingerprints.rs`,
/// recorded at b083e2f with `smoother_tasks = 2`.
const EXPECTED_BUILDS: &[(&str, u64)] = &[
    ("laplace2d/baseline/build", 0x90c18e4d97f804f7),
    ("varcoef3d_7pt/baseline/build", 0xfcef2daa1505b5c6),
    ("laplace3d_27pt/baseline/build", 0x20c2c06e35495c04),
];

#[test]
fn baseline_hierarchy_fingerprints_match_recorded_parent() {
    let k = reservoir_field(12, 12, 8, 4, 2.0, 2, 2026);
    let operators = [
        laplace2d(48, 48),
        varcoef3d_7pt(12, 12, 8, &k),
        laplace3d_27pt(10, 10, 10),
    ];
    let cfg = AmgConfig {
        smoother_tasks: Some(2),
        ..AmgConfig::single_node_paper()
    };
    for (a, (name, want)) in operators.iter().zip(EXPECTED_BUILDS) {
        let got = hash_levels(&baseline::setup(a, &cfg).levels);
        assert_eq!(got, *want, "{name}: 0x{got:016x}");
    }
}

#[test]
fn solves_laplace2d_to_the_true_residual() {
    let a = laplace2d(48, 48);
    let b = rhs::ones(a.nrows());
    let mut x = vec![0.0; a.nrows()];
    let res = baseline::setup(&a, &AmgConfig::single_node_paper()).solve(&b, &mut x);
    assert!(res.converged, "relres {}", res.final_relres);
    let mut r = vec![0.0; b.len()];
    let relres = residual_norm_sq(&a, &x, &b, &mut r).sqrt() / norm2(&b);
    assert!(relres <= 1e-7 * 1.01, "relres {relres}");
}

#[test]
fn baseline_suite_matches_optimized_convergence() {
    for m in suite().into_iter().take(4) {
        let a = (m.gen)(0.05);
        let b = rhs::ones(a.nrows());
        let cfg = AmgConfig::single_node_paper();
        let so = AmgSolver::setup(&a, &cfg);
        let sb = baseline::setup(&a, &cfg);
        let mut xo = vec![0.0; a.nrows()];
        let mut xb = vec![0.0; a.nrows()];
        let ro = so.solve(&b, &mut xo);
        let rb = sb.solve(&b, &mut xb);
        assert!(ro.converged && rb.converged, "{}", m.name);
        assert!(
            ro.iterations.abs_diff(rb.iterations) <= 2,
            "{}: {} vs {}",
            m.name,
            ro.iterations,
            rb.iterations
        );
    }
}

/// The baseline's sequential strength is the library's parallel one bit
/// for bit, so moving `HYPRE_base` onto it changes no hierarchy.
#[test]
fn sequential_strength_is_the_parallel_one() {
    for m in suite().into_iter().take(4) {
        let a = (m.gen)(0.3);
        let par = strength(&a, 0.25, 0.8);
        let seq = strength_seq(&a, 0..a.nrows(), 0.25, 0.8);
        assert_eq!(
            hash_csr(FNV_SEED, &seq),
            hash_csr(FNV_SEED, &par),
            "{}",
            m.name
        );
    }
}

/// `(matrix, iterations, final relative residual bits, FNV-1a of x)` of
/// `AmgConfig::single_node_baseline` solves with `smoother_tasks = 2`,
/// recorded at ecd0ac3, the last commit where it was a configuration.
const EXPECTED_SOLVES: &[(&str, usize, u64, u64)] = &[
    ("2cubes_sphere", 8, 0x3e716fb33ae5824d, 0x061be434a08cd243),
    ("G2_circuit", 8, 0x3e770995be80cac3, 0x6933326839901dfe),
    ("G3_circuit", 9, 0x3e74a10716818b43, 0xdd60d7f7c10838ef),
    ("StocF-1465", 6, 0x3e40fb30c1dda2aa, 0xdd200c49268e9941),
];

#[test]
fn baseline_solves_are_the_recorded_ones() {
    let cfg = AmgConfig {
        smoother_tasks: Some(2),
        ..AmgConfig::single_node_paper()
    };
    for (m, want) in suite().into_iter().zip(EXPECTED_SOLVES) {
        assert_eq!(m.name, want.0);
        let a = (m.gen)(0.05);
        let b = rhs::ones(a.nrows());
        let mut x = vec![0.0; a.nrows()];
        let res = baseline::setup(&a, &cfg).solve(&b, &mut x);
        let fp = x.iter().fold(FNV_SEED, |h, v| fnv1a(h, v.to_bits()));
        let got = (res.iterations, res.final_relres.to_bits(), fp);
        assert_eq!(got, (want.1, want.2, want.3), "{}", m.name);
    }
}
