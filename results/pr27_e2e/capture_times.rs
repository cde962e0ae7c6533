//! Capture timing behind `results/pr27_e2e/README.md`: the median of 11
//! `extended_i` calls against the median of 11 `ExtITape::capture` calls
//! (the same kernel with the recording sink) on level 0 of the
//! `reservoir_steps` operator (80x80x40, seed 1), paper configuration's
//! strength, PMIS and truncation. Own package (empty `[workspace]`, path
//! dependencies on `famg-core` and `famg-matgen` of one tree); run as
//! `RAYON_NUM_THREADS=1 capture_times`.
use famg_core::coarsen::pmis;
use famg_core::interp::{extended_i, CfMap, ExtITape, TruncParams};
use famg_core::params::AmgConfig;
use famg_core::strength::strength;
use famg_matgen::{reservoir_field, varcoef3d_7pt};
use std::time::Instant;

fn med(mut v: Vec<f64>) -> f64 { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); v[v.len() / 2] }

fn main() {
    let cfg = AmgConfig::single_node_paper();
    let field = reservoir_field(80, 80, 40, 8, 3.0, 2, 1);
    let a = varcoef3d_7pt(80, 80, 40, &field);
    let s = strength(&a, cfg.strength_threshold, cfg.max_row_sum);
    let c = pmis(&s, cfg.seed);
    let cf = CfMap::new(c.is_coarse.clone());
    let t = TruncParams { factor: cfg.trunc_factor, max_elements: cfg.max_elements };
    let (mut x, mut y) = (vec![], vec![]);
    for _ in 0..11 {
        let t0 = Instant::now();
        let p = extended_i(&a, &s, &cf, Some(&t));
        x.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(p);
        let t0 = Instant::now();
        let pt = ExtITape::capture(&a, &s, &cf, Some(&t));
        y.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(pt);
    }
    println!("extended_i {:.2} ms  capture {:.2} ms", med(x), med(y));
}
