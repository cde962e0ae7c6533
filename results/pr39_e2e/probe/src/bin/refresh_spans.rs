//! Refresh span probe: per operator, one `Hierarchy::build_frozen`, one
//! warm-up refresh, then `REFRESHES` same-operator refreshes; prints the
//! median wall time and the median `interp@l` span of each level (the
//! replay of the level's tape). Run as
//! `RAYON_NUM_THREADS=<t> refresh_spans [operator]`.
use famg_core::Hierarchy;
use pr39_probe::{config, med, operators};
use std::time::Instant;

const REFRESHES: usize = 15;

fn main() {
    let only = std::env::args().nth(1);
    let cfg = config();
    let threads = std::env::var("RAYON_NUM_THREADS").unwrap_or_default();
    for (name, a) in operators(only.as_deref()) {
        let (mut h, mut f) = Hierarchy::build_frozen(&a, &cfg);
        h.refresh(&a, &mut f).unwrap();
        let (mut wall, mut interp) = (vec![], vec![vec![]; h.num_levels()]);
        for _ in 0..REFRESHES {
            let t = Instant::now();
            h.refresh(&a, &mut f).unwrap();
            wall.push(t.elapsed().as_secs_f64() * 1e3);
            let root = h.profile.find_root("refresh").expect("refresh span");
            let mut per_level = vec![0.0; h.num_levels()];
            root.visit(&mut |s| {
                if s.name == "interp" {
                    per_level[s.level] += s.wall.as_secs_f64() * 1e3;
                }
            });
            for (l, ms) in per_level.into_iter().enumerate() {
                interp[l].push(ms);
            }
        }
        print!("{name} threads {threads}: refresh {:.2} ms, interp@l", med(wall));
        let levels = interp.into_iter().filter(|v| v.iter().any(|&ms| ms > 0.0));
        for v in levels {
            print!(" {:.2}", med(v));
        }
        println!(" ms");
    }
}
