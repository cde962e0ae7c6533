//! Refresh span probe: on one `e2e` workload's operator at its full size
//! (seed 1) with `e2e`'s configuration, the median over 20 same-operator
//! refreshes of the wall time and of each stage's span time summed over
//! levels (the refresh's own profile tree; `row_order` is a stage of its own).
//! Own package (empty `[workspace]`, path dependencies on `famg-core` and
//! `famg-matgen` of one tree, built once per side); run as
//! `RAYON_NUM_THREADS=<t> refresh_spans <reservoir|lap27|lap2d|amg2013>`.
use famg_core::params::AmgConfig;
use famg_core::Hierarchy;
use famg_matgen::{amg2013_like, laplace2d, laplace3d_27pt, reservoir_field, varcoef3d_7pt};
use std::collections::BTreeMap;
use std::time::Instant;

fn med(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn main() {
    let cfg = AmgConfig { tolerance: 1e-7, smoother_tasks: Some(2), ..AmgConfig::single_node_paper() };
    let which = std::env::args().nth(1).unwrap_or_else(|| "reservoir".into());
    let a = match which.as_str() {
        "reservoir" => varcoef3d_7pt(80, 80, 40, &reservoir_field(80, 80, 40, 8, 3.0, 2, 1)),
        "lap27" => laplace3d_27pt(64, 64, 64),
        "lap2d" => laplace2d(700, 700),
        "amg2013" => amg2013_like(48, 48, 96, 2, 2.0, 1),
        other => panic!("unknown operator {other}"),
    };
    let (mut h, mut f) = Hierarchy::build_frozen(&a, &cfg);
    h.refresh(&a, &mut f).unwrap();
    let (mut wall, mut stages) = (vec![], BTreeMap::<&str, Vec<f64>>::new());
    for _ in 0..20 {
        let t = Instant::now();
        h.refresh(&a, &mut f).unwrap();
        wall.push(t.elapsed().as_secs_f64() * 1e3);
        let root = h.profile.find_root("refresh").expect("refresh span");
        let mut sums = BTreeMap::<&str, f64>::new();
        for c in &root.children {
            c.visit(&mut |s| *sums.entry(s.name).or_default() += s.wall.as_secs_f64() * 1e3);
        }
        for (k, v) in sums {
            stages.entry(k).or_default().push(v);
        }
    }
    let threads = std::env::var("RAYON_NUM_THREADS").unwrap_or_default();
    print!("{which} threads {threads}: wall {:.1}", med(wall));
    for (k, v) in stages {
        print!(" {k} {:.1}", med(v));
    }
    println!(" ms");
}
