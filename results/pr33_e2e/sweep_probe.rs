//! Level-0 kernel probe behind `results/pr33_e2e/README.md`: the hybrid GS
//! pre-smoothing sweep (`x` nonzero) and the SpMV of `e2e`'s four operators
//! at seed 1, with `e2e`'s configuration, medians of 200 calls after 20
//! warm-up calls, in ms. Own package (empty `[workspace]`, path
//! dependencies on one tree, built once per side); run as
//! `RAYON_NUM_THREADS=<t> sweep_probe`, sides alternated.
use famg_core::params::AmgConfig;
use famg_core::smoother::Workspace;
use famg_core::Hierarchy;
use famg_matgen::{amg2013_like, laplace2d, laplace3d_27pt, reservoir_field, varcoef3d_7pt};
use famg_sparse::spmv::spmv;
use famg_sparse::Csr;
use std::time::Instant;

fn median_ms(mut f: impl FnMut()) -> f64 {
    for _ in 0..20 {
        f();
    }
    let mut t: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[t.len() / 2]
}

fn probe(name: &str, a: &Csr) {
    let cfg = AmgConfig {
        tolerance: 1e-7,
        smoother_tasks: Some(2),
        ..AmgConfig::single_node_paper()
    };
    let h = Hierarchy::build(a, &cfg);
    let (a0, smoother) = (&h.levels[0].a, &h.levels[0].smoother);
    let n = a0.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 7919) % 13) as f64 - 6.0).collect();
    let mut x: Vec<f64> = (0..n).map(|i| ((i * 104_729) % 17) as f64 * 0.1).collect();
    let mut y = vec![0.0; n];
    let mut ws = Workspace::new();
    let sweep = median_ms(|| smoother.pre_smooth(a0, &b, &mut x, &mut ws, false));
    let mv = median_ms(|| spmv(a0, std::hint::black_box(&b), &mut y));
    println!("{name:<16} n={n:>7} nnz={:>8}  sweep {sweep:.3} ms  spmv {mv:.3} ms", a0.nnz());
}

fn main() {
    println!("pool threads: {}", rayon::current_num_threads());
    probe("lap3d27_setup", &laplace3d_27pt(64, 64, 64));
    probe("lap2d_solves", &laplace2d(700, 700));
    let field = reservoir_field(80, 80, 40, 8, 3.0, 2, 1);
    probe("reservoir_steps", &varcoef3d_7pt(80, 80, 40, &field));
    probe("dist_weak_2r", &amg2013_like(48, 48, 96, 2, 2.0, 1));
}
