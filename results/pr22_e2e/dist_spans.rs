//! Span probe behind `results/pr22_e2e/README.md` and the "Distributed
//! setup on serial kernels (PR 22)" table of EXPERIMENTS.md. Own package
//! (empty `[workspace]`, path dependencies on one tree, default release
//! profile like `e2e/`), built once per side; run as
//! `RAYON_NUM_THREADS=1 dist_spans <passes>`.
//!
//! On `e2e`'s `dist_weak_2r` operator at seed 1 it prints, per
//! `(span, level)` and as the median over `<passes>` builds (ms), the
//! library's own setup spans of (a) rank 0 of a two-rank
//! `DistHierarchy::build`, (b) a one-rank build of the half grid, and the
//! serial `Hierarchy::build` of (c) the whole operator and (d) the half
//! grid, with each build's wall time. Spans nested in a stage (the
//! transposes inside `coarsen`, the products inside `rap`) are printed
//! under it as `stage@l/child`.
use famg_core::params::AmgConfig;
use famg_core::Hierarchy;
use famg_dist::comm::run_ranks;
use famg_dist::hierarchy::{DistHierarchy, DistOptFlags};
use famg_dist::parcsr::{default_partition, ParCsr};
use famg_matgen::amg2013_like;
use famg_prof::{Profile, NO_LEVEL};
use famg_sparse::Csr;
use std::collections::BTreeMap;
use std::time::Instant;

/// `e2e`'s distributed settings (`e2e/src/workload.rs::dist_build_solve`).
fn config() -> AmgConfig {
    AmgConfig {
        tolerance: 1e-7,
        smoother_tasks: Some(2),
        ..AmgConfig::multi_node_mp()
    }
}

type Spans = BTreeMap<String, Vec<f64>>;

/// Adds the `setup` root's stages (and their direct children) to `into`.
fn collect(profile: &Profile, into: &mut Spans) {
    let Some(root) = profile.find_root("setup") else {
        return;
    };
    let label = |name: &str, level: usize| {
        if level == NO_LEVEL {
            name.to_string()
        } else {
            format!("{name}@{level}")
        }
    };
    let mut once: BTreeMap<String, f64> = BTreeMap::new();
    for stage in &root.children {
        let s = label(stage.name, stage.level);
        *once.entry(s.clone()).or_default() += stage.wall.as_secs_f64() * 1e3;
        for child in &stage.children {
            let c = format!("{s}/{}", label(child.name, child.level));
            *once.entry(c).or_default() += child.wall.as_secs_f64() * 1e3;
        }
    }
    for (k, v) in once {
        into.entry(k).or_default().push(v);
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn report(title: &str, mut spans: Spans, mut wall: Vec<f64>, rows: &[usize]) {
    println!("## {title}: wall {:.1} ms, level_rows {rows:?}", median(&mut wall));
    for (k, v) in &mut spans {
        println!("{k:<28} {:>9.2}", median(v));
    }
}

fn dist_build(a: &Csr, ranks: usize, passes: usize, title: &str) {
    let starts = default_partition(a.nrows(), ranks);
    let cfg = config();
    let (mut spans, mut wall, mut rows) = (Spans::new(), Vec::new(), Vec::new());
    for _ in 0..=passes {
        let (outs, _) = run_ranks(ranks, |c| {
            let r = c.rank();
            let pa = ParCsr::from_global_rows(a, starts[r], starts[r + 1], starts.clone(), r);
            c.barrier();
            let t0 = Instant::now();
            let h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
            (t0.elapsed().as_secs_f64() * 1e3, h.profile.clone(), h.stats.level_rows.clone())
        });
        // The first pass warms the allocator and the page cache.
        if rows.is_empty() {
            rows = outs[0].2.clone();
            continue;
        }
        wall.push(outs[0].0);
        collect(&outs[0].1, &mut spans);
    }
    report(title, spans, wall, &rows);
}

fn serial_build(a: &Csr, passes: usize, title: &str) {
    let cfg = config();
    let (mut spans, mut wall, mut rows) = (Spans::new(), Vec::new(), Vec::new());
    for _ in 0..=passes {
        let t0 = Instant::now();
        let h = Hierarchy::build(a, &cfg);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if rows.is_empty() {
            rows = h.stats.level_rows.clone();
            continue;
        }
        wall.push(ms);
        collect(&h.profile, &mut spans);
    }
    report(title, spans, wall, &rows);
}

fn main() {
    let passes: usize = std::env::args().nth(1).map_or(5, |s| s.parse().expect("passes"));
    println!("pool threads: {}", rayon::current_num_threads());
    let whole = amg2013_like(48, 48, 96, 2, 2.0, 1);
    let half = amg2013_like(48, 48, 48, 2, 2.0, 1);
    dist_build(&whole, 2, passes, "dist 2 ranks, rank 0 (48x48x96)");
    serial_build(&whole, passes, "serial, all rows (48x48x96)");
    dist_build(&half, 1, passes, "dist 1 rank, half grid (48x48x48)");
    serial_build(&half, passes, "serial, half grid (48x48x48)");
}
