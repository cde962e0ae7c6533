//! Thread-count independence suite: the rayon shim's determinism contract.
//!
//! The pool promises bitwise-identical results for every pool size. The
//! pool size is pinned at first use (`RAYON_NUM_THREADS`, read once), so a
//! single process cannot observe two sizes; instead the driver test
//! re-executes this test binary as subprocesses with `RAYON_NUM_THREADS`
//! set to 1, 2, and 4, runs [`fingerprint_worker`] in each, and compares
//! the printed fingerprints. Covered: SpGEMM, fused RAP, parallel
//! transpose, strength, PMIS (symmetric and directed strength graphs), the
//! CF permutation, extended+i (builder, tape capture and replay), hybrid-GS
//! sweeps (task counts pinned — the task decomposition is part of the
//! numerical method),
//! end-to-end AMG solves (`smoother_tasks` pinned), the parallel sort,
//! the fused residual/dot reductions, and whole builds — plain, frozen and
//! refreshed — on operators large enough that every row-blocked setup
//! stage (strength, PMIS, CF permutation, `P_F` extraction, the smoother's
//! row partition and its recorded order) cuts at least one block per
//! thread at pool size 4.

mod common;

use common::{graph_laplacian, random_csr, FuzzRng};
use famg::core::coarsen::pmis;
use famg::core::hierarchy::TransferOps;
use famg::core::interp::{extended_i, CfMap, ExtITape, TruncParams};
use famg::core::reorder::cf_reorder;
use famg::core::smoother::{Smoother, Workspace};
use famg::core::strength::strength;
use famg::core::{AmgConfig, AmgSolver, Hierarchy};
use famg::matgen::{laplace2d, laplace3d_27pt, reservoir_field, varcoef3d_7pt};
use famg::sparse::permute::permute_symmetric;
use famg::sparse::spgemm::spgemm_one_pass;
use famg::sparse::transpose::{transpose, transpose_par};
use famg::sparse::triple::rap_row_fused;
use famg::sparse::Csr;

/// Task count pinned for the decomposition-dependent smoothers so only the
/// *pool size* varies across the subprocesses.
const PINNED_TASKS: usize = 4;

fn fnv1a(h: u64, w: u64) -> u64 {
    let mut h = h;
    for b in w.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn hash_u64s(h: u64, ws: impl IntoIterator<Item = u64>) -> u64 {
    ws.into_iter().fold(h, fnv1a)
}

fn hash_csr(h: u64, c: &Csr) -> u64 {
    let h = hash_u64s(h, [c.nrows() as u64, c.ncols() as u64]);
    let h = hash_u64s(h, c.rowptr().iter().map(|&p| p as u64));
    // Each column hashed as a `u64`, whatever its stored width.
    let h = hash_u64s(h, c.colidx().iter().map(|&j| usize::from(j) as u64));
    hash_u64s(h, c.values().iter().map(|v| v.to_bits()))
}

fn hash_f64s(h: u64, xs: &[f64]) -> u64 {
    hash_u64s(h, xs.iter().map(|v| v.to_bits()))
}

/// Every level of a hierarchy: its stored operator and permutation, `P_F`
/// and `P_Fᵀ`, and its smoother — the GS partition's boundaries, inverse
/// diagonal and snapshot columns.
fn hash_hierarchy(h: u64, hier: &Hierarchy) -> u64 {
    let mut h = hash_u64s(h, [hier.levels.len() as u64]);
    for lvl in &hier.levels {
        h = hash_csr(h, &lvl.a);
        h = hash_u64s(h, [lvl.nc as u64]);
        if let Some(q) = &lvl.perm {
            h = hash_u64s(h, q.forward.iter().map(|&i| i as u64));
        }
        if let Some(TransferOps { pf, pft }) = &lvl.ops {
            h = hash_csr(hash_csr(h, pf), pft);
        }
        let part = &lvl.smoother.part;
        h = hash_u64s(h, part.up_start.iter().map(|&o| u64::from(o)));
        h = hash_u64s(h, part.ext_start.iter().map(|&o| u64::from(o)));
        h = hash_f64s(h, &part.dinv);
        h = hash_u64s(h, part.ext_cols.iter().map(|&c| usize::from(c) as u64));
    }
    h
}

/// Whole setups: plain, frozen, and refreshed on scaled values. Of the
/// frozen state, the recorded row orders are hashed, read from its
/// `Debug` form (the tapes keep the row blocks they were recorded in, so
/// their layout follows the pool size; what they replay does not).
fn fp_builds() -> u64 {
    let cfg = AmgConfig {
        smoother_tasks: Some(PINNED_TASKS),
        ..AmgConfig::single_node_paper()
    };
    let mut h = FNV_SEED;
    for a in [laplace3d_27pt(24, 24, 24), laplace2d(160, 160)] {
        h = hash_hierarchy(h, &Hierarchy::build(&a, &cfg));
        let (mut hf, mut frozen) = Hierarchy::build_frozen(&a, &cfg);
        h = hash_hierarchy(h, &hf);
        let state = format!("{frozen:?}");
        let orders: Vec<&str> = state
            .match_indices("RowOrder {")
            .map(|(at, _)| &state[at..at + state[at..].find('}').expect("closing brace")])
            .collect();
        assert!(
            orders.len() + 1 >= hf.levels.len(),
            "a level without its order"
        );
        h = hash_u64s(h, orders.iter().flat_map(|o| o.bytes()).map(u64::from));
        // A power-of-two scaling keeps every strength, sign, row-sum and
        // truncation comparison, so the refresh takes the decisions a
        // rebuild would, and still runs every numeric refresh stage.
        let mut scaled = a.clone();
        scaled.values_mut().iter_mut().for_each(|v| *v *= 2.0);
        hf.refresh(&scaled, &mut frozen).expect("same pattern");
        h = hash_hierarchy(h, &hf);
    }
    h
}

fn fp_spgemm_rap_transpose() -> u64 {
    let mut h = FNV_SEED;
    for case in 0..3u64 {
        let mut rng = FuzzRng::new(0xA11CE + case);
        let n = 1500 + 257 * case as usize;
        let a = graph_laplacian(&mut rng, n, 2 * n, 1.0);
        h = hash_csr(h, &spgemm_one_pass(&a, &a));
        let nc = n / 3;
        let p = random_csr(&mut rng, n, nc);
        let r = transpose(&p);
        h = hash_csr(h, &rap_row_fused(&r, &a, &p));
        h = hash_csr(h, &transpose_par(&a));
    }
    h
}

fn fp_setup_kernels() -> u64 {
    // Strength + PMIS over a matrix large enough for their parallel paths.
    let a = laplace2d(96, 96);
    let s = strength(&a, 0.25, 0.8);
    let coarse = pmis(&s, 1);
    let h = hash_csr(FNV_SEED, &s);
    hash_u64s(h, coarse.is_coarse.iter().map(|&c| u64::from(c)))
}

/// PMIS flags the ends of strength edges from whichever row stores them,
/// in parallel: the splitting is a set, so it must not depend on who
/// flagged first. Symmetric and asymmetric strength, three seeds each.
fn fp_pmis() -> u64 {
    let k = reservoir_field(14, 12, 10, 4, 2.0, 2, 2026);
    // Not the strength matrix of anything: a directed graph (no loops)
    // with out-only, in-only and isolated points.
    let mut rng = FuzzRng::new(0xC0A2);
    let n = 4000;
    let edges = (0..2 * n).map(|_| (rng.below(n), rng.below(n), -1.0));
    let directed = Csr::from_triplets(n, n, edges.filter(|e| e.0 != e.1));
    let strengths = [
        strength(&laplace2d(80, 70), 0.25, 0.8),
        strength(&varcoef3d_7pt(14, 12, 10, &k), 0.25, 0.8),
        strength(&laplace3d_27pt(16, 15, 14), 0.25, 0.8),
        directed,
    ];
    let mut h = FNV_SEED;
    for s in &strengths {
        for seed in [1, 7, 2026] {
            h = hash_u64s(h, pmis(s, seed).is_coarse.iter().map(|&c| u64::from(c)));
        }
    }
    h
}

/// `(interp, interp_capture)`: the second hashes what the truncating
/// capture adds, so the first keeps the value it had before that existed.
fn fp_interp() -> (u64, u64) {
    // Row blocks follow the pool size; the operator, the tape's by-product
    // and a replay on drifted values must not.
    let a0 = laplace3d_27pt(14, 14, 14);
    let n = a0.nrows();
    let s0 = strength(&a0, 0.25, 0.8);
    let coarse = pmis(&s0, 1);
    let (a, ord) = cf_reorder(&a0, &coarse.is_coarse);
    let s = permute_symmetric(&s0, &ord.perm);
    let cf = CfMap::new((0..n).map(|i| i < ord.nc).collect());
    let mut h = hash_csr(FNV_SEED, &a);
    h = hash_csr(h, &s);
    h = hash_csr(h, &extended_i(&a, &s, &cf, Some(&TruncParams::paper())));
    h = hash_csr(h, &extended_i(&a, &s, &cf, None));
    let (raw, tape) = ExtITape::capture(&a, &s, &cf, None);
    let tape = tape.expect("rows within 16 bits");
    h = hash_csr(h, &raw);
    let mut drifted = a.clone();
    for (k, v) in drifted.values_mut().iter_mut().enumerate() {
        *v *= 1.0 + 1e-6 * (k % 11) as f64;
    }
    h = hash_csr(h, &tape.replay(&drifted, &raw).expect("same layout"));
    // The recording run that a refreshable setup makes: truncated operator
    // and a replay that lands on its kept set.
    let (p, tape) = ExtITape::capture(&a, &s, &cf, Some(&TruncParams::paper()));
    let tape = tape.expect("rows within 16 bits");
    let replayed = tape.replay(&drifted, &p).expect("same layout");
    (h, hash_csr(hash_csr(FNV_SEED, &p), &replayed))
}

fn fp_smoother_sweeps() -> u64 {
    let a0 = laplace2d(64, 64);
    let n = a0.nrows();
    let s = strength(&a0, 0.25, 0.8);
    let coarse = pmis(&s, 1);
    let (mut ap, ord) = cf_reorder(&a0, &coarse.is_coarse);
    let sm = Smoother::hybrid_opt(&mut ap, ord.nc, PINNED_TASKS);
    let b = vec![1.0; n];
    let mut ws = Workspace::new();
    let mut x = vec![0.0; n];
    for sweep in 0..3 {
        sm.pre_smooth(&ap, &b, &mut x, &mut ws, sweep == 0);
    }
    hash_f64s(FNV_SEED, &x)
}

fn fp_e2e_solve() -> u64 {
    let a = laplace2d(48, 48);
    let b = famg::matgen::rhs::random(a.nrows(), 7);
    let cfg = AmgConfig {
        smoother_tasks: Some(PINNED_TASKS),
        ..AmgConfig::single_node_paper()
    };
    let solver = AmgSolver::setup(&a, &cfg);
    let mut x = vec![0.0; a.nrows()];
    let res = solver.solve(&b, &mut x);
    let h = hash_f64s(FNV_SEED, &x);
    hash_u64s(
        h,
        [
            res.iterations as u64,
            res.final_relres.to_bits(),
            u64::from(res.converged),
        ],
    )
}

fn fp_sort_and_reductions() -> u64 {
    use famg::sparse::spmv::residual_norm_sq;
    use famg::sparse::vecops::dot;
    use rayon::prelude::*;

    let mut rng = FuzzRng::new(0xD0D0);
    let mut v: Vec<usize> = (0..200_000).map(|_| rng.below(5000)).collect();
    v.par_sort_unstable();
    let mut h = hash_u64s(FNV_SEED, v.iter().map(|&x| x as u64));

    let n = 50_000;
    let xs: Vec<f64> = (0..n).map(|_| rng.float(-1.0, 1.0)).collect();
    let ys: Vec<f64> = (0..n).map(|_| rng.float(-1.0, 1.0)).collect();
    h = fnv1a(h, dot(&xs, &ys).to_bits());

    let a = laplace2d(96, 96);
    let x0: Vec<f64> = (0..a.nrows()).map(|_| rng.float(-1.0, 1.0)).collect();
    let bb = vec![1.0; a.nrows()];
    let mut r = vec![0.0; a.nrows()];
    let nrm = residual_norm_sq(&a, &x0, &bb, &mut r);
    h = fnv1a(h, nrm.to_bits());
    hash_f64s(h, &r)
}

/// Computes and prints one `FP <name> <hex>` line per scenario. Run
/// directly it is a cheap smoke test; the real assertions happen in
/// [`bitwise_identical_across_pool_sizes`], which compares this output
/// across subprocesses with different `RAYON_NUM_THREADS`.
#[test]
fn fingerprint_worker() {
    println!("FP spgemm_rap_transpose {:016x}", fp_spgemm_rap_transpose());
    println!("FP setup_kernels {:016x}", fp_setup_kernels());
    println!("FP pmis {:016x}", fp_pmis());
    let (interp, interp_capture) = fp_interp();
    println!("FP interp {interp:016x}");
    println!("FP interp_capture {interp_capture:016x}");
    println!("FP smoother_sweeps {:016x}", fp_smoother_sweeps());
    println!("FP e2e_solve {:016x}", fp_e2e_solve());
    println!("FP sort_reductions {:016x}", fp_sort_and_reductions());
    println!("FP builds {:016x}", fp_builds());
}

fn collect_fingerprints(num_threads: usize) -> Vec<(String, String)> {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["--exact", "fingerprint_worker", "--nocapture"])
        .env("RAYON_NUM_THREADS", num_threads.to_string())
        .output()
        .expect("spawn fingerprint subprocess");
    assert!(
        out.status.success(),
        "fingerprint subprocess (RAYON_NUM_THREADS={num_threads}) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let fps: Vec<(String, String)> = stdout
        .lines()
        .filter_map(|l| {
            // libtest prints its "test <name> ..." status on the same line
            // as the first (unbuffered) print, so search rather than match
            // from the line start.
            let tail = &l[l.find("FP ")?..];
            let mut it = tail.split_whitespace().skip(1);
            Some((it.next()?.to_string(), it.next()?.to_string()))
        })
        .collect();
    assert_eq!(
        fps.len(),
        9,
        "expected 9 fingerprint lines from subprocess, got:\n{stdout}"
    );
    fps
}

/// The determinism contract, end to end: identical fingerprints for pool
/// sizes 1, 2, and 4 (covering serial-inline, minimal, and oversubscribed
/// pools — 4 ≥ `available_parallelism` on small CI boxes).
#[test]
fn bitwise_identical_across_pool_sizes() {
    let reference = collect_fingerprints(1);
    for nt in [2usize, 4] {
        let got = collect_fingerprints(nt);
        for ((name_ref, fp_ref), (name_got, fp_got)) in reference.iter().zip(&got) {
            assert_eq!(name_ref, name_got, "fingerprint order diverged");
            assert_eq!(
                fp_ref, fp_got,
                "{name_ref}: pool size {nt} diverged from serial baseline"
            );
        }
    }
}
