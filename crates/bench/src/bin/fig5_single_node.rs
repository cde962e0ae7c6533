//! Fig. 5: single-node time to solution, HYPRE_base vs HYPRE_opt, with
//! the paper's 8-component breakdown, plus the §5.2 per-component speedup
//! summary (paper: strength+coarsen 6.1×/3.1×, RAP 1.4×, SpMV 3.7×,
//! GS 1.2×, overall 2.0×).
//!
//! Usage: `cargo run --release -p famg-bench --bin fig5_single_node
//!         [--scale 0.2] [--only lap2d_2000] [--select-thr]`
//!
//! `--select-thr` reproduces Table 3's per-matrix choice between
//! `str_thr = 0.25` and `0.6` ("selected the one for faster time to
//! solution for each matrix"): both are run and the faster kept.
//!
//! HYPRE_base is `famg_bench::baseline`, HYPRE_opt the library's solver,
//! both on the paper's configuration. Times are normalized to HYPRE_base's
//! time to solution per matrix, as in the paper's figure. Absolute numbers depend on the host; the shape
//! (who wins, which components shrink) is the reproduction target.

use famg_bench::{arg_scale, arg_value, baseline, fmt_secs};
use famg_core::params::AmgConfig;
use famg_core::solver::AmgSolver;
use famg_core::stats::PhaseTimes;
use famg_matgen::{rhs, suite};

struct Run {
    setup: PhaseTimes,
    solve: PhaseTimes,
    iterations: usize,
    opcx: f64,
}

/// One setup and solve by HYPRE_base (`base`) or HYPRE_opt.
fn run_with(a: &famg_sparse::Csr, cfg: &AmgConfig, base: bool) -> Run {
    let b = rhs::ones(a.nrows());
    let mut x = vec![0.0; a.nrows()];
    let (setup, res, opcx) = if base {
        let h = baseline::setup(a, cfg);
        let res = h.solve(&b, &mut x);
        (h.times.clone(), res, h.stats.operator_complexity())
    } else {
        let solver = AmgSolver::setup(a, cfg);
        let res = solver.solve(&b, &mut x);
        let h = solver.hierarchy();
        (h.times.clone(), res, h.stats.operator_complexity())
    };
    assert!(
        res.converged,
        "solver did not converge (relres {})",
        res.final_relres
    );
    Run {
        setup,
        solve: res.times,
        iterations: res.iterations,
        opcx,
    }
}

/// Runs with `str_thr = 0.25`, or — under `--select-thr` — with both
/// Table 3 candidates (0.25, 0.6), keeping the faster (the paper's
/// per-matrix selection rule).
fn run(a: &famg_sparse::Csr, base: bool, select_thr: bool) -> Run {
    let cfg = AmgConfig::single_node_paper();
    let r25 = run_with(a, &cfg, base);
    if !select_thr {
        return r25;
    }
    let cfg60 = AmgConfig {
        strength_threshold: 0.6,
        ..cfg
    };
    let r60 = run_with(a, &cfg60, base);
    let t25 = r25.setup.setup_total() + r25.solve.solve_total();
    let t60 = r60.setup.setup_total() + r60.solve.solve_total();
    if t60 < t25 {
        r60
    } else {
        r25
    }
}

fn main() {
    let scale = arg_scale(0.2);
    let only = arg_value("--only");
    let select_thr = std::env::args().any(|a| a == "--select-thr");
    println!("== Fig. 5: single-node HYPRE_base vs HYPRE_opt (scale {scale}) ==\n");
    println!(
        "{:<16} {:>6} | {:>9} {:>9} {:>7} | {:>9} {:>9} {:>7} | {:>7} {:>6} {:>6}",
        "matrix",
        "rows/k",
        "base_set",
        "base_sol",
        "b_iter",
        "opt_set",
        "opt_sol",
        "o_iter",
        "speedup",
        "opcB",
        "opcO"
    );

    let mut sum_speedup = 0.0f64;
    let mut count = 0usize;
    let mut comp = [(0.0f64, 0usize); 5]; // strength, interp, rap, spmv, gs speedup sums

    for m in suite() {
        if let Some(f) = &only {
            if m.name != f {
                continue;
            }
        }
        let a = (m.gen)(scale);
        let base = run(&a, true, select_thr);
        let opt = run(&a, false, select_thr);
        let tb = base.setup.setup_total() + base.solve.solve_total();
        let to = opt.setup.setup_total() + opt.solve.solve_total();
        let speedup = tb.as_secs_f64() / to.as_secs_f64();
        sum_speedup += speedup;
        count += 1;
        let pairs = [
            (base.setup.strength_coarsen, opt.setup.strength_coarsen),
            (base.setup.interp, opt.setup.interp),
            (base.setup.rap, opt.setup.rap),
            (base.solve.spmv, opt.solve.spmv),
            (base.solve.gs, opt.solve.gs),
        ];
        for (k, (b, o)) in pairs.iter().enumerate() {
            if o.as_secs_f64() > 1e-9 && b.as_secs_f64() > 1e-9 {
                comp[k].0 += b.as_secs_f64() / o.as_secs_f64();
                comp[k].1 += 1;
            }
        }
        println!(
            "{:<16} {:>6} | {:>9} {:>9} {:>7} | {:>9} {:>9} {:>7} | {:>6.2}x {:>6.2} {:>6.2}",
            m.name,
            a.nrows() / 1000,
            fmt_secs(base.setup.setup_total()),
            fmt_secs(base.solve.solve_total()),
            base.iterations,
            fmt_secs(opt.setup.setup_total()),
            fmt_secs(opt.solve.solve_total()),
            opt.iterations,
            speedup,
            base.opcx,
            opt.opcx,
        );
        // Normalized component breakdown (paper's stacked bars).
        let norm = tb.as_secs_f64();
        let bar = |t: std::time::Duration| t.as_secs_f64() / norm;
        println!(
            "    base: S+C {:.3} Interp {:.3} RAP {:.3} Setup* {:.3} | GS {:.3} SpMV {:.3} BLAS1 {:.3} Solve* {:.3}",
            bar(base.setup.strength_coarsen),
            bar(base.setup.interp),
            bar(base.setup.rap),
            bar(base.setup.setup_etc),
            bar(base.solve.gs),
            bar(base.solve.spmv),
            bar(base.solve.blas1),
            bar(base.solve.solve_etc),
        );
        println!(
            "    opt:  S+C {:.3} Interp {:.3} RAP {:.3} Setup* {:.3} | GS {:.3} SpMV {:.3} BLAS1 {:.3} Solve* {:.3}",
            bar(opt.setup.strength_coarsen),
            bar(opt.setup.interp),
            bar(opt.setup.rap),
            bar(opt.setup.setup_etc),
            bar(opt.solve.gs),
            bar(opt.solve.spmv),
            bar(opt.solve.blas1),
            bar(opt.solve.solve_etc),
        );
    }
    if count > 0 {
        println!(
            "\nGeo-ish mean speedup over {count} matrices: {:.2}x (paper: 2.0x vs HYPRE_base)",
            sum_speedup / count as f64
        );
        let names = ["Strength+Coarsen", "Interp", "RAP", "SpMV", "GS"];
        let paper = ["6.1x/3.1x", "~1x", "1.4x", "3.7x", "1.2x"];
        println!("component speedups (mean, paper value):");
        for (k, name) in names.iter().enumerate() {
            if comp[k].1 > 0 {
                println!(
                    "  {:<18} {:>6.2}x   (paper {})",
                    name,
                    comp[k].0 / comp[k].1 as f64,
                    paper[k]
                );
            }
        }
    }
}
