//! Refresh timing probe behind `results/pr27_e2e/README.md`: on the
//! reservoir operator at the `setup_refresh` smoke size (24x24x12) and at
//! `reservoir_steps`' size (80x80x40), seed 1, `e2e`'s configuration, the
//! median `build_frozen` time, then the median wall time of repeated
//! refreshes with the same operator and the median of the refresh's own
//! `interp` / `rap` / `setup_etc` phase times (`Hierarchy::times`). Own
//! package (empty `[workspace]`, path dependencies on `famg-core` and
//! `famg-matgen` of one tree, built once per side); run as
//! `RAYON_NUM_THREADS=2 refresh_times`.
use famg_core::params::AmgConfig;
use famg_core::Hierarchy;
use famg_matgen::{reservoir_field, varcoef3d_7pt};
use std::time::Instant;

fn med(mut v: Vec<f64>) -> f64 { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); v[v.len() / 2] }

fn main() {
    let cfg = AmgConfig { tolerance: 1e-7, smoother_tasks: Some(2), ..AmgConfig::single_node_paper() };
    for d in [[24usize, 24, 12], [80, 80, 40]] {
        let field = reservoir_field(d[0], d[1], d[2], 8, 3.0, 2, 1);
        let a = varcoef3d_7pt(d[0], d[1], d[2], &field);
        let reps = if d[0] == 24 { 200 } else { 20 };
        let mut bf = vec![];
        for _ in 0..reps / 4 {
            let t = Instant::now();
            let hf = Hierarchy::build_frozen(&a, &cfg);
            bf.push(t.elapsed().as_secs_f64() * 1e3);
            drop(hf);
        }
        println!("{:?}: build_frozen {:.3} ms", d, med(bf));
        let (mut h, mut f) = Hierarchy::build_frozen(&a, &cfg);
        let (mut w, mut i, mut r, mut e) = (vec![], vec![], vec![], vec![]);
        for _ in 0..reps {
            let t = Instant::now();
            h.refresh(&a, &mut f).unwrap();
            w.push(t.elapsed().as_secs_f64() * 1e3);
            i.push(h.times.interp.as_secs_f64() * 1e3);
            r.push(h.times.rap.as_secs_f64() * 1e3);
            e.push(h.times.setup_etc.as_secs_f64() * 1e3);
        }
        println!("{:?}: wall {:.3} interp {:.3} rap {:.3} etc {:.3} ms", d, med(w), med(i), med(r), med(e));
    }
}
