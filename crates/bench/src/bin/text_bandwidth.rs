//! §5.1 bandwidth-bound analysis: the paper uses STREAM triad bandwidth
//! as the first-order performance bound for AMG and reports how
//! efficiently each implementation uses it. This harness measures the
//! *effective* bandwidth (compulsory traffic / wall time) of the main
//! solve-phase kernels against a STREAM triad run the way the kernels
//! run — on the pool — and over three arrays that total the kernel's own
//! compulsory bytes, so a kernel and its reference sit at the same level
//! of the memory hierarchy (the Table 1 bottom-row analogue). A kernel
//! above 105 % of that reference means the measurement is wrong, and the
//! harness exits non-zero. Each optimized kernel's row sits next to its
//! baseline (sequential SpMV, the unfused residual, the Fig. 2a sweep),
//! charged the same compulsory bytes, so the ratio of two rows is the
//! speedup the optimization buys.
//!
//! Usage: `cargo run --release -p famg-bench --bin text_bandwidth
//!         [--scale 0.3]`

use famg_bench::{arg_scale, best_of};
use famg_core::coarsen::pmis;
use famg_core::reorder::cf_reorder;
use famg_core::smoother::{Smoother, Workspace};
use famg_core::strength::strength;
use famg_matgen::laplace2d;
use famg_sparse::spmv::{
    residual_norm_sq, residual_norm_sq_unfused, spmv, spmv_seq, spmv_unrolled,
};
use famg_sparse::traffic;
use rayon::prelude::*;
use std::hint::black_box;
use std::process::ExitCode;

/// STREAM triad `a = b + s*c` on the pool over three arrays that total
/// `bytes`; best of nine passes, in GB/s.
fn stream_triad_gbs(bytes: usize) -> f64 {
    const CHUNK: usize = 1 << 14;
    let n = (bytes / (3 * traffic::VAL_BYTES)).max(1);
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let ((), dt) = best_of(9, || {
        a.par_chunks_mut(CHUNK).enumerate().for_each(|(i, chunk)| {
            let off = i * CHUNK;
            let (bs, cs) = (&b[off..off + chunk.len()], &c[off..off + chunk.len()]);
            for ((ai, bi), ci) in chunk.iter_mut().zip(bs).zip(cs) {
                *ai = bi + 3.0 * ci;
            }
        });
        black_box(a[n / 2]);
    });
    traffic::effective_bandwidth_gbs(3 * traffic::VAL_BYTES * n, dt.as_secs_f64())
}

fn main() -> ExitCode {
    let scale = arg_scale(0.3);
    let n = (2000.0 * scale) as usize;
    let a = laplace2d(n, n);
    println!(
        "== §5.1 bandwidth analysis: {}x{} Laplacian ({} rows) ==\n",
        n,
        n,
        a.nrows()
    );
    println!(
        "host STREAM triad, {} pool thread(s), 3 x 64 MB: {:.2} GB/s\n",
        rayon::current_num_threads(),
        stream_triad_gbs(3 * 64_000_000)
    );
    println!(
        "{:<28} {:>10} {:>12} {:>10}   reference: triad over the kernel's bytes",
        "kernel", "time", "GB moved", "eff GB/s"
    );
    let mut ok = true;

    let x: Vec<f64> = (0..a.nrows()).map(|i| (i % 7) as f64).collect();
    let b: Vec<f64> = vec![1.0; a.nrows()];
    let mut y = vec![0.0; a.nrows()];
    let spmv_traffic = traffic::spmv_bytes(&a);

    let ((), t) = best_of(5, || spmv_seq(&a, &x, &mut y));
    ok &= report("SpMV (sequential)", t, spmv_traffic);
    let ((), t) = best_of(5, || spmv(&a, &x, &mut y));
    ok &= report("SpMV", t, spmv_traffic);
    let ((), t) = best_of(5, || spmv_unrolled(&a, &x, &mut y));
    ok &= report("SpMV (8-wide unrolled)", t, spmv_traffic);
    let residual_traffic = spmv_traffic + a.nrows() * 8;
    let (_, t) = best_of(5, || {
        black_box(residual_norm_sq_unfused(&a, &x, &b, &mut y))
    });
    ok &= report("unfused residual, then norm", t, residual_traffic);
    let (_, t) = best_of(5, || black_box(residual_norm_sq(&a, &x, &b, &mut y)));
    ok &= report("fused residual+norm", t, residual_traffic);

    // Hybrid GS C+F sweep: the branchy baseline (Fig. 2a) on the
    // CF-ordered operator, then the reordered kernel (Fig. 2b), which
    // reorders its own copy in place.
    let s = strength(&a, 0.25, 0.8);
    let coarse = pmis(&s, 1);
    let (mut ap, ord) = cf_reorder(&a, &coarse.is_coarse);
    let nthreads = rayon::current_num_threads();
    let mut ws = Workspace::new();
    let mut xs = vec![0.0; a.nrows()];
    let marker = (0..a.nrows()).map(|i| i < ord.nc).collect();
    let base = Smoother::hybrid_base(&ap, marker, nthreads);
    let ((), t) = best_of(5, || base.pre_smooth(&ap, &b, &mut xs, &mut ws, false));
    ok &= report("hybrid GS sweep (Fig. 2a)", t, traffic::gs_sweep_bytes(&ap));
    let sm = Smoother::hybrid_opt(&mut ap, ord.nc, nthreads);
    let ((), t) = best_of(5, || sm.pre_smooth(&ap, &b, &mut xs, &mut ws, false));
    ok &= report("hybrid GS C+F sweep", t, traffic::gs_sweep_bytes(&ap));

    println!("\nThe paper's premise: these kernels should run near the STREAM");
    println!("bound; the ratio column is the bandwidth efficiency it optimizes.");
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("a kernel exceeds 105% of its STREAM reference: the measurement is wrong");
        ExitCode::FAILURE
    }
}

/// Prints one kernel row against the triad over `bytes`; false when the
/// kernel's effective bandwidth exceeds 105 % of that reference.
fn report(name: &str, t: std::time::Duration, bytes: usize) -> bool {
    let gbs = traffic::effective_bandwidth_gbs(bytes, t.as_secs_f64());
    let stream = stream_triad_gbs(bytes);
    let frac = gbs / stream.max(1e-9);
    println!(
        "{:<28} {:>10} {:>12.3} {:>7.2} ({:.0}% of {:.2} GB/s STREAM)",
        name,
        famg_bench::fmt_secs(t),
        bytes as f64 / 1e9,
        gbs,
        100.0 * frac,
        stream
    );
    frac <= 1.05
}
