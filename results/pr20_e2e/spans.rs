//! Scratch span probe behind `results/pr20_e2e/README.md` and the "CF RAP
//! in place (PR 20)" table of EXPERIMENTS.md. Own package (empty
//! `[workspace]`, path dependencies on one tree, default release profile
//! like `e2e/`), built once per side; run as `spans <operator> <passes>`.
//!
//! For one operator it prints, per `(span, level)`, the median over
//! `<passes>` runs (ms) of the library's own `Hierarchy::profile` spans of
//! a `setup_refreshable` and of a `refresh` — the refresh absorbs the
//! operator's first drift step (`reservoir_steps`, `smoke`) or the same
//! values again (the Laplacians, which have no field to drift) — and the
//! wall time of each and of a plain `setup`.
use famg_core::params::AmgConfig;
use famg_core::solver::AmgSolver;
use famg_matgen::{laplace2d, laplace3d_27pt, reservoir_field, varcoef3d_7pt};
use famg_prof::{Profile, NO_LEVEL};
use famg_sparse::Csr;
use std::collections::BTreeMap;
use std::time::Instant;

/// `e2e`'s solver settings (`e2e/src/workload.rs::amg_config`).
fn config() -> AmgConfig {
    AmgConfig {
        tolerance: 1e-7,
        smoother_tasks: Some(2),
        ..AmgConfig::single_node_paper()
    }
}

/// The operator and the operator a refresh absorbs: `e2e`'s at seed 1, or
/// the `setup_refresh --smoke` sequence's steps 0 and 1.
fn operators(name: &str) -> (Csr, Csr) {
    match name {
        "lap3d27_setup" => {
            let a = laplace3d_27pt(64, 64, 64);
            (a.clone(), a)
        }
        "lap2d_solves" => {
            let a = laplace2d(700, 700);
            (a.clone(), a)
        }
        "reservoir_steps" => {
            let (nx, ny, nz) = (80, 80, 40);
            let field = reservoir_field(nx, ny, nz, 8, 3.0, 2, 1);
            let drifted: Vec<f64> = (field.iter().enumerate())
                .map(|(i, &k)| k * (1.0 + 1e-5 * (9.0 * (i % nx) as f64 / nx as f64).cos()))
                .collect();
            (
                varcoef3d_7pt(nx, ny, nz, &field),
                varcoef3d_7pt(nx, ny, nz, &drifted),
            )
        }
        "smoke" => {
            let (nx, ny, nz) = (24, 24, 12);
            let base = reservoir_field(nx, ny, nz, 6, 2.0, 2, 42);
            let step = |t: f64| -> Vec<f64> {
                (base.iter().enumerate())
                    .map(|(i, &k)| {
                        let x = (i % nx) as f64 / nx as f64;
                        let d = (i / nx) as f64 / ((ny * nz) as f64);
                        k * (1.0 + 1e-5 * t * (7.0 * (x - d)).cos())
                    })
                    .collect()
            };
            (
                varcoef3d_7pt(nx, ny, nz, &step(0.0)),
                varcoef3d_7pt(nx, ny, nz, &step(1.0)),
            )
        }
        _ => panic!("unknown operator {name}"),
    }
}

type Spans = BTreeMap<(String, usize), Vec<f64>>;

fn record(into: &mut Spans, profile: &Profile) {
    for root in &profile.roots {
        root.visit(&mut |s| {
            into.entry((s.name.to_string(), s.level))
                .or_default()
                .push(s.wall.as_secs_f64() * 1e3);
        });
    }
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn print(title: &str, spans: &Spans) {
    println!("{title}");
    for ((name, level), v) in spans {
        let at = if *level == NO_LEVEL {
            String::new()
        } else {
            format!("@{level}")
        };
        println!("  {:<22} {:>9.2}", format!("{name}{at}"), median(v));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map_or("reservoir_steps", String::as_str);
    let passes: usize = args.get(2).map_or(5, |s| s.parse().expect("passes"));
    let (a, a_next) = operators(name);
    let cfg = config();
    println!(
        "{name}: n = {}, nnz = {}, {passes} passes, medians in ms",
        a.nrows(),
        a.nnz()
    );

    let (mut setup, mut frozen, mut refresh) = (Spans::new(), Spans::new(), Spans::new());
    let mut wall: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for _ in 0..passes {
        let t = Instant::now();
        let plain = AmgSolver::setup(&a, &cfg);
        wall.entry("setup").or_default().push(t.elapsed().as_secs_f64() * 1e3);
        record(&mut setup, &plain.hierarchy().profile);
        drop(plain);

        let t = Instant::now();
        let mut solver = AmgSolver::setup_refreshable(&a, &cfg);
        wall.entry("setup_refreshable").or_default().push(t.elapsed().as_secs_f64() * 1e3);
        record(&mut frozen, &solver.hierarchy().profile);

        let t = Instant::now();
        solver.refresh(&a_next).expect("same-pattern operator");
        wall.entry("refresh").or_default().push(t.elapsed().as_secs_f64() * 1e3);
        record(&mut refresh, &solver.hierarchy().profile);
    }
    for (what, v) in &wall {
        println!("wall {what:<20} {:>9.2}", median(v));
    }
    print("spans of setup", &setup);
    print("spans of setup_refreshable", &frozen);
    print("spans of refresh", &refresh);
}
