//! Smoother microbenchmarks (§3.2): baseline hybrid GS (Fig. 2a) vs the
//! reordered kernel (Fig. 2b).

use criterion::{criterion_group, criterion_main, Criterion};
use famg_core::coarsen::pmis;
use famg_core::reorder::cf_reorder;
use famg_core::smoother::{Smoother, Workspace};
use famg_core::strength::strength;
use famg_matgen::laplace2d;
use std::hint::black_box;

fn bench_smoothers(c: &mut Criterion) {
    let a0 = laplace2d(192, 192);
    let n = a0.nrows();
    let s = strength(&a0, 0.25, 0.8);
    let coarse = pmis(&s, 1);
    let (mut ap, ord) = cf_reorder(&a0, &coarse.is_coarse);
    let ap_for_base = ap.clone();
    let nthreads = rayon::current_num_threads();
    // Thread count is part of the measurement: hybrid GS decomposes by
    // task, and the pool size decides how many sweeps run concurrently.
    eprintln!("smoother bench: rayon pool = {nthreads} thread(s)");

    let base = Smoother::hybrid_base(&ap_for_base, (0..n).map(|i| i < ord.nc).collect(), nthreads);
    let opt = Smoother::hybrid_opt(&mut ap, ord.nc, nthreads);

    let b = vec![1.0; n];
    let mut x = vec![0.0; n];
    let mut ws = Workspace::new();
    let mut g = c.benchmark_group("smoother_cf_sweep");
    g.bench_function("hybrid_base_fig2a", |bch| {
        bch.iter(|| base.pre_smooth(&ap_for_base, &b, black_box(&mut x), &mut ws, false));
    });
    g.bench_function("hybrid_opt_fig2b", |bch| {
        bch.iter(|| opt.pre_smooth(&ap, &b, black_box(&mut x), &mut ws, false));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_smoothers
}
criterion_main!(benches);
