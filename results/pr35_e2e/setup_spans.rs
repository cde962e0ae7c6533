//! Setup span probe: `Hierarchy::build` and `Hierarchy::build_frozen` on
//! the three serial workloads' operators at their full size (seed 1) with
//! `e2e`'s configuration; per operator and build kind, the median over
//! `BUILDS` builds (after one warm-up) of the wall time and of each setup
//! span summed over levels. Own package (empty `[workspace]`, path
//! dependencies on `famg-core` and `famg-matgen` of one tree, built once
//! per side); run as `RAYON_NUM_THREADS=<t> setup_spans [builds [operator]]`
//! (default 5 builds, every operator).
use famg_core::params::AmgConfig;
use famg_core::Hierarchy;
use famg_matgen::{laplace2d, laplace3d_27pt, reservoir_field, varcoef3d_7pt};
use std::collections::BTreeMap;
use std::time::Instant;

fn med(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn main() {
    let builds: usize = std::env::args().nth(1).map_or(5, |s| s.parse().expect("builds"));
    let only = std::env::args().nth(2);
    let cfg = AmgConfig { tolerance: 1e-7, smoother_tasks: Some(2), ..AmgConfig::single_node_paper() };
    let threads = std::env::var("RAYON_NUM_THREADS").unwrap_or_default();
    let operators = [
        ("lap3d27", laplace3d_27pt(64, 64, 64)),
        ("lap2d", laplace2d(700, 700)),
        ("reservoir", varcoef3d_7pt(80, 80, 40, &reservoir_field(80, 80, 40, 8, 3.0, 2, 1))),
    ];
    for (name, a) in operators.iter().filter(|(name, _)| only.as_deref().is_none_or(|o| o == *name)) {
        for frozen in [false, true] {
            let build = || {
                if frozen {
                    Hierarchy::build_frozen(a, &cfg).0
                } else {
                    Hierarchy::build(a, &cfg)
                }
            };
            drop(build());
            let (mut wall, mut stages) = (vec![], BTreeMap::<&str, Vec<f64>>::new());
            for _ in 0..builds {
                let t = Instant::now();
                let h = build();
                wall.push(t.elapsed().as_secs_f64() * 1e3);
                let root = h.profile.find_root("setup").expect("setup span");
                let mut sums = BTreeMap::<&str, f64>::new();
                for c in &root.children {
                    c.visit(&mut |s| *sums.entry(s.name).or_default() += s.wall.as_secs_f64() * 1e3);
                }
                for (k, v) in sums {
                    stages.entry(k).or_default().push(v);
                }
            }
            let kind = if frozen { "build_frozen" } else { "build" };
            print!("{name} {kind} threads {threads}: wall {:.1}", med(wall));
            for (k, v) in stages {
                print!(" {k} {:.1}", med(v));
            }
            println!(" ms");
        }
    }
}
