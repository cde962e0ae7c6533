//! Serial-vs-parallel ablation for the pooled rayon shim: wall-clock of
//! the two kernels the paper's Fig. 5 is most sensitive to — SpGEMM
//! (setup) and the hybrid GS sweep (solve) — at the fig5 proxy sizes,
//! plus the fused residual norm, the parallel transpose, extended+i
//! interpolation on the 27-point operator (the wide-stencil setup
//! kernel), and a full AMG setup + solve.
//!
//! The pool size is pinned at first use, so one process measures one
//! size; run the binary once per setting and compare:
//!
//! ```text
//! RAYON_NUM_THREADS=1 cargo run --release -p famg-bench --bin thread_scaling
//! RAYON_NUM_THREADS=4 cargo run --release -p famg-bench --bin thread_scaling
//! ```
//!
//! Flags: `--smoke` (small problem, few reps), `--scale <f>` (footprint
//! multiplier). `FAMG_CHROME_TRACE=<dir>` additionally dumps the
//! setup/solve span trees in chrome://tracing format. The smoke run's
//! iteration count, complexities and flop count on a 2-thread pool are
//! pinned exactly by `tests/solve_fingerprints.rs`
//! (`thread_scaling_smoke_solve_is_pinned`).
//!
//! The acceptance target (on a ≥4-core machine) is ≥2× at 4 threads vs 1
//! on `spgemm_one_pass` and the hybrid sweep. Outputs are bitwise
//! identical across settings (see `tests/thread_independence.rs`); this
//! binary prints a fingerprint of each kernel's result so a scaling run
//! doubles as a determinism check.

use famg_bench::{arg_scale, maybe_write_chrome_trace};
use famg_core::coarsen::pmis;
use famg_core::interp::{extended_i, CfMap, TruncParams};
use famg_core::reorder::cf_reorder;
use famg_core::smoother::{Smoother, Workspace};
use famg_core::solver::AmgSolver;
use famg_core::strength::strength;
use famg_core::AmgConfig;
use famg_matgen::{laplace2d, laplace3d_27pt};
use famg_sparse::permute::permute_symmetric;
use famg_sparse::spgemm::spgemm_one_pass;
use famg_sparse::spmv::residual_norm_sq;
use famg_sparse::transpose::transpose_par;
use std::time::Instant;

fn fingerprint(values: &[f64]) -> u64 {
    values
        .iter()
        .map(|v| v.to_bits())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
            w.to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
}

fn time<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.unwrap())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = arg_scale(if smoke { 0.1 } else { 1.0 });
    let reps = if smoke { 2 } else { 5 };
    // fig5 proxy: 2-D Laplacian at the bench suite's default footprint.
    let side = ((400.0 * scale.sqrt()) as usize).max(64);
    let a = laplace2d(side, side);
    let n = a.nrows();
    println!(
        "thread_scaling: pool = {} threads, laplace2d({side},{side}), n = {n}, nnz = {}",
        rayon::current_num_threads(),
        a.nnz()
    );

    // SpGEMM: A*A (the RAP building block).
    let (t_spgemm, c) = time(reps, || spgemm_one_pass(&a, &a));
    println!(
        "spgemm_one_pass      {:>9.3} ms   fp {:016x}",
        t_spgemm * 1e3,
        fingerprint(c.values())
    );

    // Parallel transpose.
    let (t_tr, at) = time(reps, || transpose_par(&a));
    println!(
        "transpose_par        {:>9.3} ms   fp {:016x}",
        t_tr * 1e3,
        fingerprint(at.values())
    );

    // Hybrid GS sweep (reordered kernel). The task decomposition is part
    // of the numerical method (Jacobi across tasks), so it is pinned to 4
    // here — identical arithmetic in every run, only the pool size varies,
    // and the fingerprint must match across settings.
    let s = strength(&a, 0.25, 0.8);
    let coarse = pmis(&s, 1);
    let (mut ap, ord) = cf_reorder(&a, &coarse.is_coarse);
    let sm = Smoother::hybrid_opt(&mut ap, ord.nc, 4);
    let b = vec![1.0; n];
    let mut ws = Workspace::new();
    let mut x = vec![0.0; n];
    let (t_gs, ()) = time(2 * reps, || {
        sm.pre_smooth(&ap, &b, &mut x, &mut ws, false);
    });
    println!(
        "hybrid_gs_sweep      {:>9.3} ms   fp {:016x}",
        t_gs * 1e3,
        fingerprint(&x)
    );

    // Fused residual norm (BLAS1/SpMV fusion path).
    let mut r = vec![0.0; n];
    let (t_res, nrm) = time(2 * reps, || residual_norm_sq(&ap, &x, &b, &mut r));
    println!(
        "residual_norm_sq     {:>9.3} ms   fp {:016x}",
        t_res * 1e3,
        fingerprint(&[nrm])
    );

    // Extended+i on the CF-ordered 27-point operator, as the hierarchy
    // calls it. `interp_entries_visited` is the kernel's own count of the
    // view entries its distance-2 sweeps read: exact, and the same for
    // every pool size.
    let side3 = ((64.0 * scale.cbrt()) as usize).max(12);
    let a3 = laplace3d_27pt(side3, side3, side3);
    let s3 = strength(&a3, 0.25, 0.8);
    let coarse3 = pmis(&s3, 1);
    let (ap3, ord3) = cf_reorder(&a3, &coarse3.is_coarse);
    let sp3 = permute_symmetric(&s3, &ord3.perm);
    let cf3 = CfMap::new((0..a3.nrows()).map(|i| i < ord3.nc).collect());
    let trunc = TruncParams::paper();
    let span = famg_prof::scope("extended_i");
    let (t_interp, p3) = time(reps, || extended_i(&ap3, &sp3, &cf3, Some(&trunc)));
    drop(span);
    // Every repetition reads the same entries.
    let visited = famg_prof::take().total_counter("interp_entries_visited") / reps as u64;
    let fp_interp = fingerprint(p3.values());
    println!(
        "extended_i (27pt {side3}^3) {:>7.3} ms   fp {fp_interp:016x}   visited {visited}",
        t_interp * 1e3
    );

    // Full AMG setup + solve.
    let cfg = AmgConfig::single_node_paper();
    let solver = AmgSolver::setup(&a, &cfg);
    let mut xs = vec![0.0; n];
    let res = solver.solve(&b, &mut xs);
    let h = solver.hierarchy();
    println!(
        "amg setup {} / solve {} ({} its, relres {:.2e}, converged {})",
        famg_bench::fmt_secs(h.times.setup_total()),
        famg_bench::fmt_secs(res.times.solve_total()),
        res.iterations,
        res.final_relres,
        res.converged
    );
    maybe_write_chrome_trace("thread_scaling_setup", &h.profile);
    maybe_write_chrome_trace("thread_scaling_solve", &res.profile);
}
