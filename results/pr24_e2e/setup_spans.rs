//! Span probe behind `results/pr24_e2e/README.md` and the "Setup data
//! movement (PR 24)" tables of EXPERIMENTS.md. Own package (empty
//! `[workspace]`, path dependencies on one tree, default release profile
//! like `e2e/`), built once per side; run as
//! `RAYON_NUM_THREADS=<1|2> setup_spans <passes>`.
//!
//! On the operators of `e2e`'s three serial workloads at seed 1 and with
//! `e2e`'s configuration it prints, per `(span, level)` and as the median
//! over `<passes>` builds (ms), the library's own `Hierarchy::profile`
//! stage spans, each build's wall time, the root span and, per level and in
//! total (`gap@l`: from the end of a stage of level `l` to the start of the
//! next stage), `root − Σ stages`: what the setup spends between its stages
//! (the copy of the input, end-of-level drops). Spans nested in a stage are
//! printed under it as `stage@l/child`. The reservoir operator is built
//! with `build_frozen`, as its workload does.
use famg_core::params::AmgConfig;
use famg_core::Hierarchy;
use famg_matgen::{laplace2d, laplace3d_27pt, reservoir_field, varcoef3d_7pt};
use famg_prof::{Profile, NO_LEVEL};
use famg_sparse::Csr;
use std::collections::BTreeMap;
use std::time::Instant;

/// `e2e/src/workload.rs::amg_config`.
fn config() -> AmgConfig {
    AmgConfig {
        tolerance: 1e-7,
        smoother_tasks: Some(2),
        ..AmgConfig::single_node_paper()
    }
}

type Spans = BTreeMap<String, Vec<f64>>;

/// Adds the `setup` root, its stages (and their direct children) and the
/// unattributed remainder to `into`.
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
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let mut once: BTreeMap<String, f64> = BTreeMap::new();
    let mut staged = 0.0;
    for stage in &root.children {
        let s = label(stage.name, stage.level);
        staged += ms(stage.wall);
        *once.entry(s.clone()).or_default() += ms(stage.wall);
        for child in &stage.children {
            let c = format!("{s}/{}", label(child.name, child.level));
            *once.entry(c).or_default() += ms(child.wall);
        }
    }
    once.insert("root".into(), ms(root.wall));
    once.insert("root - sum(stages)".into(), ms(root.wall) - staged);
    // The same remainder by level, from the event timeline: the time from
    // the end of one stage to the start of the next (or the root's end),
    // charged to the level of the stage that ended; what precedes the
    // first stage is `gap@start`.
    let mut stages: Vec<_> = profile.events.iter().filter(|e| e.depth == 1).collect();
    stages.sort_by_key(|e| e.start);
    if let Some(root_ev) = profile.events.iter().find(|e| e.depth == 0 && e.name == "setup") {
        let mut at = root_ev.start;
        let mut owner = "gap@start".to_string();
        for e in &stages {
            *once.entry(owner).or_default() += ms(e.start.saturating_sub(at));
            at = e.start + e.dur;
            owner = format!("gap@{}", e.level);
        }
        *once.entry(owner).or_default() += ms((root_ev.start + root_ev.dur).saturating_sub(at));
    }
    for (k, v) in once {
        into.entry(k).or_default().push(v);
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn build(a: &Csr, frozen: bool, passes: usize, title: &str) {
    let cfg = config();
    let (mut spans, mut wall, mut rows) = (Spans::new(), Vec::new(), Vec::new());
    for _ in 0..=passes {
        let t0 = Instant::now();
        let h = if frozen {
            Hierarchy::build_frozen(a, &cfg).0
        } else {
            Hierarchy::build(a, &cfg)
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        // The first pass warms the allocator and the page cache.
        if rows.is_empty() {
            rows = h.stats.level_rows.clone();
            continue;
        }
        wall.push(ms);
        collect(&h.profile, &mut spans);
    }
    println!("## {title}: wall {:.1} ms, level_rows {rows:?}", median(&mut wall));
    for (k, v) in &mut spans {
        println!("{k:<28} {:>9.2}", median(v));
    }
}

fn main() {
    let passes: usize = std::env::args().nth(1).map_or(5, |s| s.parse().expect("passes"));
    println!("pool threads: {}", rayon::current_num_threads());
    build(&laplace3d_27pt(64, 64, 64), false, passes, "lap3d27_setup operator (64^3), build");
    build(&laplace2d(700, 700), false, passes, "lap2d_solves operator (700^2), build");
    let field = reservoir_field(80, 80, 40, 8, 3.0, 2, 1);
    let res = varcoef3d_7pt(80, 80, 40, &field);
    build(&res, true, passes, "reservoir_steps operator (80x80x40), build_frozen");
}
