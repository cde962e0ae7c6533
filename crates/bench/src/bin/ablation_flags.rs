//! Ablation study: each single-node optimization of §3 toggled off
//! individually against the fully optimized build, on one mid-size
//! problem. Reports the slowdown each missing optimization causes in its
//! targeted component — the per-knob version of Fig. 5. A flag is toggled
//! only from a configuration that reads it: `row_fused_rap` and
//! `keep_transpose` from `cf_reorder = false`.
//!
//! Usage: `cargo run --release -p famg-bench --bin ablation_flags
//!         [--scale 0.25]`

use famg_bench::{arg_scale, fmt_secs};
use famg_core::params::{AmgConfig, OptFlags};
use famg_core::solver::AmgSolver;
use famg_matgen::{laplace2d, rhs};
use std::time::Duration;

struct Outcome {
    setup: Duration,
    solve: Duration,
    total: Duration,
    iters: usize,
}

fn run_once(a: &famg_sparse::Csr, opt: OptFlags) -> Outcome {
    let cfg = AmgConfig {
        opt,
        ..AmgConfig::single_node_paper()
    };
    let solver = AmgSolver::setup(a, &cfg);
    let b = rhs::ones(a.nrows());
    let mut x = vec![0.0; a.nrows()];
    let res = solver.solve(&b, &mut x);
    assert!(res.converged);
    let setup = solver.hierarchy().times.setup_total();
    let solve = res.times.solve_total();
    Outcome {
        setup,
        solve,
        total: setup + solve,
        iters: res.iterations,
    }
}

/// Best of two runs (per-component minimum) to shed warm-up noise.
fn run(a: &famg_sparse::Csr, opt: OptFlags) -> Outcome {
    let r1 = run_once(a, opt);
    let r2 = run_once(a, opt);
    Outcome {
        setup: r1.setup.min(r2.setup),
        solve: r1.solve.min(r2.solve),
        total: r1.total.min(r2.total),
        iters: r1.iters.min(r2.iters),
    }
}

fn main() {
    let scale = arg_scale(0.25);
    let n = (2000.0 * scale) as usize;
    let a = laplace2d(n, n);
    println!(
        "== §3 optimization ablations on lap2d {n}x{n} ({} rows) ==\n",
        a.nrows()
    );
    let _warmup = run_once(&a, OptFlags::all());
    let full = run(&a, OptFlags::all());
    println!(
        "{:<34} {:>10} {:>10} {:>10} {:>6} {:>8}",
        "configuration", "setup", "solve", "total", "iters", "vs ref"
    );
    let row = |name: &str, o: &Outcome, reference: &Outcome| {
        println!(
            "{:<34} {:>10} {:>10} {:>10} {:>6} {:>7.2}x",
            name,
            fmt_secs(o.setup),
            fmt_secs(o.solve),
            fmt_secs(o.total),
            o.iters,
            o.total.as_secs_f64() / reference.total.as_secs_f64()
        );
    };
    row("all optimizations (ref)", &full, &full);

    type Knob = (&'static str, fn(&mut OptFlags));
    let knobs: [Knob; 5] = [
        ("- cf_reorder", |f| f.cf_reorder = false),
        ("- reordered_smoother", |f| f.reordered_smoother = false),
        ("- fused_residual_norm", |f| f.fused_residual_norm = false),
        ("- fused_truncation", |f| f.fused_truncation = false),
        ("none (HYPRE_base)", |f| *f = OptFlags::none()),
    ];
    for (name, apply) in knobs {
        let mut flags = OptFlags::all();
        apply(&mut flags);
        row(name, &run(&a, flags), &full);
    }

    // `row_fused_rap` and `keep_transpose` are read only where the
    // hierarchy keeps the original ordering (P and R whole, no CF
    // blocks), so they are toggled from there.
    let no_cf = OptFlags {
        cf_reorder: false,
        ..OptFlags::all()
    };
    let reference = run(&a, no_cf);
    println!();
    row("- cf_reorder (ref)", &reference, &reference);
    let knobs: [Knob; 2] = [
        ("- cf_reorder - row_fused_rap", |f| f.row_fused_rap = false),
        ("- cf_reorder - keep_transpose", |f| {
            f.keep_transpose = false;
        }),
    ];
    for (name, apply) in knobs {
        let mut flags = no_cf;
        apply(&mut flags);
        row(name, &run(&a, flags), &reference);
    }

    println!("\n`vs ref` > 1 means removing the optimization costs time, against");
    println!("the `(ref)` row above it. SpGEMM has no row: with extended+i the");
    println!("single-node path runs none (its triple products are the fused RAP");
    println!("kernels); text_flops_fusion times the SpGEMM kernels side by side.");
}
