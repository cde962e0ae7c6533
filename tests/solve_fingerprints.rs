//! Solve-path fingerprints pinned against a recorded commit.
//!
//! Since the scalar solver became the `k = 1` lane of the batched one,
//! "batch column `j` equals the solo solve" compares a kernel with itself
//! at two lane widths. These FNV-1a fingerprints (the hasher of
//! `thread_independence.rs`) of iterates, iteration counts and residual
//! histories were recorded by running this file at the last commit that
//! still had hand-written scalar twins (d0df724), so any change to the
//! arithmetic of the shared path — at any width — shows up as a changed
//! constant. Widths: 1, 2, 4, 8 are the monomorphized lanes, 3 the dynamic
//! lane, 9 the extract-column fallback of the serial smoother and the wide
//! path of the distributed kernels.
//!
//! To re-record after an *intended* numerical change, run
//! `cargo test --test solve_fingerprints -- --nocapture` and copy the
//! printed table.

use famg::core::{AmgConfig, AmgSolver};
use famg::dist::comm::run_ranks;
use famg::dist::hierarchy::{DistHierarchy, DistOptFlags};
use famg::dist::parcsr::{default_partition, ParCsr};
use famg::dist::solve::{dist_amg_solve, dist_amg_solve_multi, dist_fgmres_amg};
use famg::krylov::cg::{cg, cg_batch, CgOptions};
use famg::matgen::{laplace2d, reservoir_field, varcoef3d_7pt};
use famg::sparse::{Csr, MultiVec};

const WIDTHS: [usize; 6] = [1, 2, 3, 4, 8, 9];

fn fnv1a(h: u64, w: u64) -> u64 {
    let mut h = h;
    for b in w.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn hash_f64s(h: u64, xs: &[f64]) -> u64 {
    xs.iter().fold(h, |h, v| fnv1a(h, v.to_bits()))
}

/// Deterministic, column-dependent right-hand sides.
fn rhs_columns(n: usize, k: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|j| {
            (0..n)
                .map(|i| ((i * (2 * j + 3) + 7 * j) % 17) as f64 / 17.0 - 0.4)
                .collect()
        })
        .collect()
}

/// The two serial operators: a 2D Laplacian above the chunked-reduction
/// cutover (9216 rows) and a jumpy 3D diffusion operator below it.
fn operators() -> [(&'static str, Csr); 2] {
    let k = reservoir_field(16, 16, 16, 4, 2.0, 2, 2026);
    [
        ("laplace2d", laplace2d(96, 96)),
        ("varcoef3d_7pt", varcoef3d_7pt(16, 16, 16, &k)),
    ]
}

fn serial_cfg() -> AmgConfig {
    AmgConfig {
        smoother_tasks: Some(2),
        ..AmgConfig::single_node_paper()
    }
}

fn fp_columns(x: &MultiVec, iterations: &[usize], history: &[Vec<f64>]) -> u64 {
    let mut h = hash_f64s(FNV_SEED, x.data());
    for (it, hist) in iterations.iter().zip(history) {
        h = fnv1a(h, *it as u64);
        h = hash_f64s(h, hist);
    }
    h
}

fn serial_fingerprints(out: &mut Vec<(String, u64)>) {
    let opts = CgOptions::default();
    for (name, a) in operators() {
        let n = a.nrows();
        let solver = AmgSolver::setup(&a, &serial_cfg());
        let col0 = &rhs_columns(n, 1)[0];

        let mut x = vec![0.0; n];
        let res = solver.solve(col0, &mut x);
        assert!(res.converged, "{name}: solo solve did not converge");
        let mut h = hash_f64s(FNV_SEED, &x);
        h = fnv1a(h, res.iterations as u64);
        out.push((format!("{name}/solve"), hash_f64s(h, &res.history)));

        let mut x = vec![0.0; n];
        let res = cg(&a, col0, &mut x, &solver, &opts);
        assert!(res.converged, "{name}: solo cg did not converge");
        let mut h = hash_f64s(FNV_SEED, &x);
        h = fnv1a(h, res.iterations as u64);
        out.push((format!("{name}/cg"), hash_f64s(h, &res.history)));

        for k in WIDTHS {
            let b = MultiVec::from_columns(&rhs_columns(n, k));
            let mut x = MultiVec::new(n, k);
            let res = solver.solve_batch(&b, &mut x);
            assert!(res.all_converged(), "{name}: solve_batch k={k}");
            out.push((
                format!("{name}/solve_batch/k{k}"),
                fp_columns(&x, &res.iterations, &res.history),
            ));

            let mut x = MultiVec::new(n, k);
            let res = cg_batch(&a, &b, &mut x, &solver, &opts);
            assert!(res.all_converged(), "{name}: cg_batch k={k}");
            out.push((
                format!("{name}/cg_batch/k{k}"),
                fp_columns(&x, &res.iterations, &res.history),
            ));
        }
    }

    // A closure preconditioner implements only `Preconditioner::apply`;
    // the batched driver reaches it through the trait's column fallback.
    let a = laplace2d(40, 40);
    let n = a.nrows();
    let dinv: Vec<f64> = (0..n).map(|i| 1.0 / a.diag(i)).collect();
    let jacobi = move |r: &[f64], z: &mut [f64]| {
        for i in 0..r.len() {
            z[i] = dinv[i] * r[i];
        }
    };
    for k in [1usize, 3] {
        let b = MultiVec::from_columns(&rhs_columns(n, k));
        let mut x = MultiVec::new(n, k);
        let res = cg_batch(&a, &b, &mut x, &jacobi, &opts);
        assert!(res.all_converged(), "closure cg_batch k={k}");
        out.push((
            format!("closure/cg_batch/k{k}"),
            fp_columns(&x, &res.iterations, &res.history),
        ));
    }
}

fn dist_fingerprints(out: &mut Vec<(String, u64)>) {
    let a = laplace2d(48, 48);
    let n = a.nrows();
    let cfg = AmgConfig::multi_node_ei4();
    for nranks in [1usize, 2] {
        for overlap in [true, false] {
            let dopt = DistOptFlags {
                overlap_comm: overlap,
                ..DistOptFlags::default()
            };
            let starts = default_partition(n, nranks);
            let (per_rank, _) = run_ranks(nranks, |c| {
                let r = c.rank();
                let (s, e) = (starts[r], starts[r + 1]);
                let pa = ParCsr::from_global_rows(&a, s, e, starts.clone(), r);
                let h = DistHierarchy::build(c, pa, &cfg, dopt);
                let local = |k: usize| -> Vec<Vec<f64>> {
                    rhs_columns(n, k)
                        .iter()
                        .map(|col| col[s..e].to_vec())
                        .collect()
                };
                let mut fps: Vec<(String, u64)> = Vec::new();
                let bl = &local(1)[0];

                let mut xl = vec![0.0; e - s];
                let res = dist_amg_solve(c, &h, bl, &mut xl);
                assert!(res.converged);
                let mut f = hash_f64s(FNV_SEED, &xl);
                f = fnv1a(f, res.iterations as u64);
                fps.push(("amg".into(), fnv1a(f, res.final_relres.to_bits())));

                let mut xl = vec![0.0; e - s];
                let res = dist_fgmres_amg(c, &h, bl, &mut xl, cfg.tolerance, 200, 30);
                assert!(res.converged);
                let mut f = hash_f64s(FNV_SEED, &xl);
                f = fnv1a(f, res.iterations as u64);
                fps.push(("fgmres".into(), fnv1a(f, res.final_relres.to_bits())));

                for k in [1usize, 3, 4, 9] {
                    let bb = MultiVec::from_columns(&local(k));
                    let mut xb = MultiVec::new(e - s, k);
                    let res = dist_amg_solve_multi(c, &h, &bb, &mut xb);
                    assert!(res.all_converged());
                    let mut f = hash_f64s(FNV_SEED, xb.data());
                    for j in 0..k {
                        f = fnv1a(f, res.iterations[j] as u64);
                        f = fnv1a(f, res.final_relres[j].to_bits());
                    }
                    fps.push((format!("amg_multi/k{k}"), f));
                }
                fps
            });
            // Fold the ranks' fingerprints in rank order.
            for (i, (label, _)) in per_rank[0].iter().enumerate() {
                let f = per_rank.iter().fold(FNV_SEED, |f, fps| fnv1a(f, fps[i].1));
                let mode = if overlap { "overlap" } else { "sync" };
                out.push((format!("dist/{nranks}r/{mode}/{label}"), f));
            }
        }
    }
}

/// Recorded at d0df724 (the parent of the lane-generic solve path).
const EXPECTED: &[(&str, u64)] = &[
    ("laplace2d/solve", 0xd3ab98e587272426),
    ("laplace2d/cg", 0xd986309deef49958),
    ("laplace2d/solve_batch/k1", 0xd3ab98e587272426),
    ("laplace2d/cg_batch/k1", 0xd986309deef49958),
    ("laplace2d/solve_batch/k2", 0x04f3871ffaf19e8f),
    ("laplace2d/cg_batch/k2", 0x2600a02b2a74911e),
    ("laplace2d/solve_batch/k3", 0x64d21577ae8aec8a),
    ("laplace2d/cg_batch/k3", 0x2708f9f272e14d72),
    ("laplace2d/solve_batch/k4", 0x742901f03cfbfbc1),
    ("laplace2d/cg_batch/k4", 0xca438cffe93ac67b),
    ("laplace2d/solve_batch/k8", 0x5291a954b975149b),
    ("laplace2d/cg_batch/k8", 0x9b1aae3ab1e19e68),
    ("laplace2d/solve_batch/k9", 0xa86119c885e86b7c),
    ("laplace2d/cg_batch/k9", 0xe8b1450c33703a9e),
    ("varcoef3d_7pt/solve", 0x3d132bb59ade1839),
    ("varcoef3d_7pt/cg", 0xec323d9a6ab5072c),
    ("varcoef3d_7pt/solve_batch/k1", 0x3d132bb59ade1839),
    ("varcoef3d_7pt/cg_batch/k1", 0xec323d9a6ab5072c),
    ("varcoef3d_7pt/solve_batch/k2", 0x5ac24fee117a6179),
    ("varcoef3d_7pt/cg_batch/k2", 0x400e3f3c11430552),
    ("varcoef3d_7pt/solve_batch/k3", 0xa452062783e5eae9),
    ("varcoef3d_7pt/cg_batch/k3", 0xa0e3247abf3a36d8),
    ("varcoef3d_7pt/solve_batch/k4", 0xef582806c40cfc0e),
    ("varcoef3d_7pt/cg_batch/k4", 0x933ffd7e3a9ec8fc),
    ("varcoef3d_7pt/solve_batch/k8", 0x3e01b6309ff27b80),
    ("varcoef3d_7pt/cg_batch/k8", 0x69d324ee819de23c),
    ("varcoef3d_7pt/solve_batch/k9", 0xb1900cd188ff43df),
    ("varcoef3d_7pt/cg_batch/k9", 0xecbca1e33bfc0b91),
    ("closure/cg_batch/k1", 0x71eefa5609d70e90),
    ("closure/cg_batch/k3", 0xf9cb3c50bb2b4461),
    ("dist/1r/overlap/amg", 0x3d86ebe0beb239f1),
    ("dist/1r/overlap/fgmres", 0xa9c9bc8a91a27366),
    ("dist/1r/overlap/amg_multi/k1", 0x3d86ebe0beb239f1),
    ("dist/1r/overlap/amg_multi/k3", 0xa5ddce8b18bdae5e),
    ("dist/1r/overlap/amg_multi/k4", 0xddeec6dae7ddb44a),
    ("dist/1r/overlap/amg_multi/k9", 0x2dfb10d38d307322),
    ("dist/1r/sync/amg", 0x3d86ebe0beb239f1),
    ("dist/1r/sync/fgmres", 0xa9c9bc8a91a27366),
    ("dist/1r/sync/amg_multi/k1", 0x3d86ebe0beb239f1),
    ("dist/1r/sync/amg_multi/k3", 0xa5ddce8b18bdae5e),
    ("dist/1r/sync/amg_multi/k4", 0xddeec6dae7ddb44a),
    ("dist/1r/sync/amg_multi/k9", 0x2dfb10d38d307322),
    ("dist/2r/overlap/amg", 0xf5ca32693f40467b),
    ("dist/2r/overlap/fgmres", 0xca218f8e08458d66),
    ("dist/2r/overlap/amg_multi/k1", 0xf5ca32693f40467b),
    ("dist/2r/overlap/amg_multi/k3", 0xc6ad084eca7ae7be),
    ("dist/2r/overlap/amg_multi/k4", 0x58e7f14ac3e14d0d),
    ("dist/2r/overlap/amg_multi/k9", 0x815155cb185eacb9),
    ("dist/2r/sync/amg", 0xf5ca32693f40467b),
    ("dist/2r/sync/fgmres", 0xca218f8e08458d66),
    ("dist/2r/sync/amg_multi/k1", 0xf5ca32693f40467b),
    ("dist/2r/sync/amg_multi/k3", 0xc6ad084eca7ae7be),
    ("dist/2r/sync/amg_multi/k4", 0x58e7f14ac3e14d0d),
    ("dist/2r/sync/amg_multi/k9", 0x815155cb185eacb9),
];

#[test]
fn solve_fingerprints_match_recorded_parent() {
    let mut got: Vec<(String, u64)> = Vec::new();
    serial_fingerprints(&mut got);
    dist_fingerprints(&mut got);
    for (name, f) in &got {
        println!("    (\"{name}\", 0x{f:016x}),");
    }
    assert_eq!(got.len(), EXPECTED.len(), "fingerprint set changed");
    for ((name, f), (ename, ef)) in got.iter().zip(EXPECTED) {
        assert_eq!(name, ename, "fingerprint order changed");
        assert_eq!(
            f, ef,
            "{name}: the solve path is no longer bitwise the recorded one"
        );
    }
}
