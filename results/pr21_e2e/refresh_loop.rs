use famg_core::params::AmgConfig;
use famg_core::solver::AmgSolver;
use famg_matgen::laplace3d_27pt;
use std::time::Instant;
fn main() {
    let a = laplace3d_27pt(64, 64, 64);
    let cfg = AmgConfig { tolerance: 1e-7, smoother_tasks: Some(2), ..AmgConfig::single_node_paper() };
    let mut solver = AmgSolver::setup_refreshable(&a, &cfg);
    let mut t = Vec::new();
    for _ in 0..15 {
        let t0 = Instant::now();
        solver.refresh(&a).unwrap();
        t.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    t.sort_by(f64::total_cmp);
    println!("refresh ms: min {:.1} q1 {:.1} median {:.1}", t[0], t[3], t[7]);
}
