use famg_core::cycle::{vcycle, CycleWorkspace};
use famg_core::hierarchy::Hierarchy;
use famg_core::params::AmgConfig;
use famg_core::smoother::Workspace;
use famg_dist::comm::run_ranks;
use famg_dist::hierarchy::{DistHierarchy, DistOptFlags};
use famg_dist::parcsr::{default_partition, ParCsr};
use famg_dist::solve::dist_vcycle;
use famg_dist::spmv::{dist_spmv, try_dist_spmv};
use famg_matgen::{amg2013_like, laplace2d, laplace3d_27pt};
use famg_sparse::spmv::{residual_norm_sq, spmv, spmv_axpby};
use famg_sparse::vecops::{axpy, dot, xpby};
use std::hint::black_box;
use std::time::Instant;

fn best(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[reps / 4] // lower quartile
}

fn serial(name: &str, a: &famg_sparse::Csr) {
    let n = a.nrows();
    let x: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 * 0.1 - 0.7).collect();
    let b: Vec<f64> = (0..n).map(|i| ((i * 5) % 11) as f64 * 0.3 - 1.0).collect();
    let mut y = vec![0.0; n];
    println!("{name}.spmv {:.6e}", best(41, || spmv(a, black_box(&x), &mut y)));
    println!("{name}.spmv_axpby {:.6e}", best(41, || spmv_axpby(a, 1.0, black_box(&x), 1.0, &mut y)));
    println!("{name}.residual {:.6e}", best(41, || { black_box(residual_norm_sq(a, &x, &b, &mut y)); }));
    println!("{name}.dot {:.6e}", best(101, || { black_box(dot(black_box(&x), &b)); }));
    println!("{name}.axpy {:.6e}", best(101, || axpy(0.5, black_box(&x), &mut y)));
    println!("{name}.xpby {:.6e}", best(101, || xpby(black_box(&x), 0.5, &mut y)));
    let cfg = AmgConfig { smoother_tasks: Some(2), ..AmgConfig::single_node_paper() };
    let h = Hierarchy::build(a, &cfg);
    let (a0, sm) = (&h.levels[0].a, &h.levels[0].smoother);
    let mut sws = Workspace::new();
    let mut z = x.clone();
    println!("{name}.pre_smooth {:.6e}", best(21, || sm.pre_smooth(a0, &b, &mut z, &mut sws, false)));
    let mut ws = CycleWorkspace::for_hierarchy(&h);
    println!("{name}.vcycle {:.6e}", best(11, || vcycle(&h, &b, &mut z, &mut ws)));
    let solver = famg_core::solver::AmgSolver::from_hierarchy(h).unwrap();
    let mut s = vec![0.0; n];
    println!("{name}.apply {:.6e}", best(11, || solver.apply(&b, &mut s)));
    println!("{name}.solve {:.6e}", best(5, || { s.fill(0.0); black_box(solver.solve(&b, &mut s)); }));
}

fn dist(name: &str, a: &famg_sparse::Csr) {
    let n = a.nrows();
    let starts = default_partition(n, 2);
    let cfg = AmgConfig::multi_node_mp();
    let (out, _) = run_ranks(2, |c| {
        let r = c.rank();
        let (s, e) = (starts[r], starts[r + 1]);
        let pa = ParCsr::from_global_rows(a, s, e, starts.clone(), r);
        let h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
        let l0 = &h.levels[0];
        let bl: Vec<f64> = (s..e).map(|i| ((i * 5) % 11) as f64 * 0.3 - 1.0).collect();
        let mut y = vec![0.0; e - s];
        let mut lock = |reps: usize, f: &mut dyn FnMut()| {
            let mut v: Vec<f64> = (0..reps).map(|_| { c.barrier(); let t = Instant::now(); f(); t.elapsed().as_secs_f64() }).collect();
            v.sort_by(f64::total_cmp);
            v[reps / 4]
        };
        let spmv_s = lock(41, &mut || dist_spmv(c, &l0.a, &l0.plan_a, &bl, &mut y));
        let spmv_o = lock(41, &mut || try_dist_spmv(c, &l0.a, &l0.plan_a, &bl, &mut y, true).unwrap());
        let halo = lock(201, &mut || { black_box(l0.plan_a.exchange(c, &bl)); });
        let vc = lock(15, &mut || { y.fill(0.0); dist_vcycle(c, &h, 0, &bl, &mut y); });
        [spmv_s, spmv_o, halo, vc]
    });
    for (i, k) in ["dist_spmv_sync", "dist_spmv_overlap", "halo_exchange", "dist_vcycle"].iter().enumerate() {
        println!("{name}.{k} {:.6e}", out.iter().map(|o| o[i]).fold(0.0, f64::max));
    }
}

fn blas1(name: &str, n: usize) {
    let x: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 * 0.1 - 0.7).collect();
    let b: Vec<f64> = (0..n).map(|i| ((i * 5) % 11) as f64 * 0.3 - 1.0).collect();
    let mut y = vec![0.0; n];
    for _ in 0..3 {
        println!("{name}.dot {:.6e}", best(301, || { black_box(dot(black_box(&x), &b)); }));
        println!("{name}.axpy {:.6e}", best(301, || axpy(0.5, black_box(&x), &mut y)));
        println!("{name}.xpby {:.6e}", best(301, || xpby(black_box(&x), 0.5, &mut y)));
    }
}

fn halo(a: &famg_sparse::Csr) {
    let n = a.nrows();
    let starts = default_partition(n, 2);
    let (out, _) = run_ranks(2, |c| {
        let r = c.rank();
        let (s, e) = (starts[r], starts[r + 1]);
        let pa = ParCsr::from_global_rows(a, s, e, starts.clone(), r);
        let plan = famg_dist::halo::VectorExchange::plan(c, &pa.colmap, &starts);
        let bl: Vec<f64> = (s..e).map(|i| ((i * 5) % 11) as f64 * 0.3 - 1.0).collect();
        let mut res = Vec::new();
        for _ in 0..5 {
            c.barrier();
            let t = Instant::now();
            for _ in 0..2000 { black_box(plan.exchange(c, &bl)); }
            res.push(t.elapsed().as_secs_f64() / 2000.0);
        }
        res
    });
    for i in 0..5 { println!("halo.exchange_stream {:.6e}", out[0][i].max(out[1][i])); }
}

fn sweepb(a: &famg_sparse::Csr) {
    use famg_sparse::MultiVec;
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 5) % 11) as f64 * 0.3 - 1.0).collect();
    let cfg = AmgConfig { smoother_tasks: Some(2), ..AmgConfig::single_node_paper() };
    let h = Hierarchy::build(a, &cfg);
    let (a0, sm) = (&h.levels[0].a, &h.levels[0].smoother);
    let bm = MultiVec::from_columns(&vec![b.clone(); 4]);
    let mut ym = MultiVec::new(n, 4);
    let mut y = vec![0.0; n];
    let mut shared = Workspace::new();
    println!("sweep1.shared {:.6e}", best(21, || sm.pre_smooth(a0, &b, &mut y, &mut shared, false)));
    println!("sweep4.shared {:.6e}", best(21, || sm.pre_smooth_batch(a0, &bm, &mut ym, &mut shared, false)));
    let mut fresh = Workspace::new();
    println!("sweep4.fresh {:.6e}", best(21, || sm.pre_smooth_batch(a0, &bm, &mut ym, &mut fresh, false)));
}

fn lap27k() {
    let a = laplace3d_27pt(64, 64, 64);
    let n = a.nrows();
    let x: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 * 0.1 - 0.7).collect();
    let b: Vec<f64> = (0..n).map(|i| ((i * 5) % 11) as f64 * 0.3 - 1.0).collect();
    let mut y = vec![0.0; n];
    for _ in 0..3 {
        println!("lap27.spmv {:.6e}", best(201, || spmv(&a, black_box(&x), &mut y)));
        println!("lap27.residual {:.6e}", best(201, || { black_box(residual_norm_sq(&a, &x, &b, &mut y)); }));
    }
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_default();
    if which == "lap27k" { return lap27k(); }
    if which == "sweepb" { return sweepb(&laplace2d(700, 700)); }
    if which == "halo" { return halo(&amg2013_like(48, 48, 96, 2, 2.0, 1)); }
    if which == "blas1" {
        blas1("n490k", 490_000);
        blas1("n262k", 262_144);
        blas1("n8k", 8_192);
    } else if which == "dist" {
        dist("amg2013", &amg2013_like(48, 48, 96, 2, 2.0, 1));
        dist("lap27", &laplace3d_27pt(48, 48, 48));
    } else {
        serial("lap2d", &laplace2d(700, 700));
        serial("lap27", &laplace3d_27pt(64, 64, 64));
    }
}
