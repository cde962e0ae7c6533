//! Setup span probe: `build_frozen` on the `reservoir_steps` operator at
//! its full size (seed 1) with `e2e`'s configuration; the median over 9
//! builds of the wall time and of each setup span summed over levels.
//! Own package (empty `[workspace]`, path dependencies on `famg-core` and
//! `famg-matgen` of one tree, built once per side); run as
//! `RAYON_NUM_THREADS=<t> setup_spans`.
use famg_core::params::AmgConfig;
use famg_core::Hierarchy;
use famg_matgen::{reservoir_field, varcoef3d_7pt};
use std::collections::BTreeMap;
use std::time::Instant;

fn med(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn main() {
    let cfg = AmgConfig { tolerance: 1e-7, smoother_tasks: Some(2), ..AmgConfig::single_node_paper() };
    let a = varcoef3d_7pt(80, 80, 40, &reservoir_field(80, 80, 40, 8, 3.0, 2, 1));
    let _ = Hierarchy::build_frozen(&a, &cfg);
    let (mut wall, mut stages) = (vec![], BTreeMap::<&str, Vec<f64>>::new());
    for _ in 0..9 {
        let t = Instant::now();
        let (h, f) = Hierarchy::build_frozen(&a, &cfg);
        wall.push(t.elapsed().as_secs_f64() * 1e3);
        let root = h.profile.find_root("setup").expect("setup span");
        let mut sums = BTreeMap::<&str, f64>::new();
        for c in &root.children {
            c.visit(&mut |s| *sums.entry(s.name).or_default() += s.wall.as_secs_f64() * 1e3);
        }
        for (k, v) in sums {
            stages.entry(k).or_default().push(v);
        }
        drop((h, f));
    }
    let threads = std::env::var("RAYON_NUM_THREADS").unwrap_or_default();
    print!("threads {threads}: wall {:.1}", med(wall));
    for (k, v) in stages {
        print!(" {k} {:.1}", med(v));
    }
    println!(" ms");
}
