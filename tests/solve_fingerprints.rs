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
use famg::dist::solve::{dist_amg_solve, dist_amg_solve_multi, dist_fgmres_amg, dist_pcg_amg};
use famg::krylov::cg::{cg, cg_batch, CgOptions};
use famg::krylov::{fgmres, FgmresOptions, IdentityPrecond};
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

                let mut xl = vec![0.0; e - s];
                let res = dist_pcg_amg(c, &h, bl, &mut xl, cfg.tolerance, 200);
                assert!(res.converged);
                let mut f = hash_f64s(FNV_SEED, &xl);
                f = fnv1a(f, res.iterations as u64);
                fps.push(("pcg".into(), fnv1a(f, res.final_relres.to_bits())));
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

/// Serial FGMRES on both operators: AMG-preconditioned at the default
/// restart, AMG-preconditioned with a restart length of 3 (so the restart
/// path runs several times), and unpreconditioned with restarts.
fn fgmres_fingerprints() -> Vec<(String, usize, u64)> {
    let mut out = Vec::new();
    for (name, a) in operators() {
        let n = a.nrows();
        let solver = AmgSolver::setup(&a, &serial_cfg());
        let b = &rhs_columns(n, 1)[0];
        let mut push = |label: &str, x: &[f64], res: &famg::krylov::KrylovResult| {
            assert!(res.converged, "{name}/{label}: fgmres did not converge");
            let mut h = hash_f64s(FNV_SEED, x);
            h = fnv1a(h, res.iterations as u64);
            h = hash_f64s(h, &res.history);
            out.push((format!("{name}/fgmres/{label}"), res.iterations, h));
        };

        let mut x = vec![0.0; n];
        let res = fgmres(&a, b, &mut x, &solver, &FgmresOptions::default());
        push("amg", &x, &res);

        let opts = FgmresOptions {
            restart: 3,
            ..FgmresOptions::default()
        };
        let mut x = vec![0.0; n];
        let res = fgmres(&a, b, &mut x, &solver, &opts);
        assert!(res.iterations > 3, "{name}: restart never triggered");
        push("amg_restart3", &x, &res);

        // Restart length 20, not 40: GMRES(40) on the jumpy operator sits
        // close enough to stagnation that a one-ulp perturbation of the
        // basis moves its count by about 1 % (352 at 737fddd, 356 after),
        // which pins nothing.
        let opts = FgmresOptions {
            tolerance: 1e-5,
            restart: 20,
            max_iterations: 2000,
        };
        let mut x = vec![0.0; n];
        let res = fgmres(&a, b, &mut x, &IdentityPrecond, &opts);
        assert!(res.iterations > 20, "{name}: restart never triggered");
        push("identity_restart20", &x, &res);
    }
    out
}

/// Recorded at d0df724 (the parent of the lane-generic solve path). The 28
/// `dist/*` rows were re-recorded once, at PR 22: the distributed setup now
/// runs the serial interpolation kernels (weights emitted in discovery
/// order, truncation rescaling in that order, Galerkin products summed in
/// ascending global index), so every distributed hierarchy moved in its
/// last bits and every iterate with it; the iteration count of each of the
/// 28 solves is the one 692002a (the parent) produced —
/// `results/pr22_e2e/solve_fingerprints_moved.txt` lists both sides.
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
    ("dist/1r/overlap/amg", 0x8757460b565fa971),
    ("dist/1r/overlap/fgmres", 0x41311ed186299e14),
    ("dist/1r/overlap/amg_multi/k1", 0x8757460b565fa971),
    ("dist/1r/overlap/amg_multi/k3", 0xa36946a1750b7d03),
    ("dist/1r/overlap/amg_multi/k4", 0x649b08bb91a92a34),
    ("dist/1r/overlap/amg_multi/k9", 0x4a2d0121f0191bf8),
    ("dist/1r/overlap/pcg", 0xf9100e0340bbf9e4),
    ("dist/1r/sync/amg", 0x8757460b565fa971),
    ("dist/1r/sync/fgmres", 0x41311ed186299e14),
    ("dist/1r/sync/amg_multi/k1", 0x8757460b565fa971),
    ("dist/1r/sync/amg_multi/k3", 0xa36946a1750b7d03),
    ("dist/1r/sync/amg_multi/k4", 0x649b08bb91a92a34),
    ("dist/1r/sync/amg_multi/k9", 0x4a2d0121f0191bf8),
    ("dist/1r/sync/pcg", 0xf9100e0340bbf9e4),
    ("dist/2r/overlap/amg", 0x1b33155dae7dd986),
    ("dist/2r/overlap/fgmres", 0x201d735febd94b79),
    ("dist/2r/overlap/amg_multi/k1", 0x1b33155dae7dd986),
    ("dist/2r/overlap/amg_multi/k3", 0x09df3c0761937d9e),
    ("dist/2r/overlap/amg_multi/k4", 0xd2a5392fec8ade3b),
    ("dist/2r/overlap/amg_multi/k9", 0xbb7a0de2c90ae8e5),
    ("dist/2r/overlap/pcg", 0x7a2c199d87e0941e),
    ("dist/2r/sync/amg", 0x1b33155dae7dd986),
    ("dist/2r/sync/fgmres", 0x201d735febd94b79),
    ("dist/2r/sync/amg_multi/k1", 0x1b33155dae7dd986),
    ("dist/2r/sync/amg_multi/k3", 0x09df3c0761937d9e),
    ("dist/2r/sync/amg_multi/k4", 0xd2a5392fec8ade3b),
    ("dist/2r/sync/amg_multi/k9", 0xbb7a0de2c90ae8e5),
    ("dist/2r/sync/pcg", 0x7a2c199d87e0941e),
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

/// Serial FGMRES. The iteration counts are the ones 737fddd (the parent of
/// "Krylov once") produced. The fingerprints of `x` and the history were
/// recorded *after* that change: the shared FGMRES body normalises a basis
/// vector by dividing by its norm (`v /= β`, what the distributed copy
/// did and what `dist/*/fgmres` above pins) where the serial copy
/// multiplied by the reciprocal (`v *= 1/β`) — the one intended last-ulp
/// difference of that change (ISSUE 18, trap a). With the two divisions
/// turned back into reciprocal multiplications the shared body reproduces
/// all six of 737fddd's own fingerprints (0xf6bbaa582a042eee,
/// 0x04e686e6eee183cd, 0x8cd56294aa5382f8, 0xe882e03cb2effaeb,
/// 0x1db57d214f6923da, 0x8b447c66b4beee0f), so nothing else moved.
const FGMRES_EXPECTED: &[(&str, usize, u64)] = &[
    ("laplace2d/fgmres/amg", 8, 0xab1e090293231ef9),
    ("laplace2d/fgmres/amg_restart3", 8, 0x93199cf017734a15),
    (
        "laplace2d/fgmres/identity_restart20",
        945,
        0x323edd7b8c4efda5,
    ),
    ("varcoef3d_7pt/fgmres/amg", 7, 0x4471eedc25802b80),
    ("varcoef3d_7pt/fgmres/amg_restart3", 7, 0x4f018cc4cb738419),
    (
        "varcoef3d_7pt/fgmres/identity_restart20",
        627,
        0x9536029b5adf9d6d,
    ),
];

#[test]
fn fgmres_iterations_match_parent_and_bits_are_pinned() {
    let got = fgmres_fingerprints();
    for (name, its, f) in &got {
        println!("    (\"{name}\", {its}, 0x{f:016x}),");
    }
    assert_eq!(got.len(), FGMRES_EXPECTED.len(), "fingerprint set changed");
    for ((name, its, f), (ename, eits, ef)) in got.iter().zip(FGMRES_EXPECTED) {
        assert_eq!(name, ename, "fingerprint order changed");
        assert_eq!(its, eits, "{name}: iteration count differs from 737fddd");
        assert_eq!(
            f, ef,
            "{name}: serial FGMRES is no longer bitwise the recorded one"
        );
    }
}
