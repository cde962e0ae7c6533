//! Numeric-refresh setup benchmark: full setup vs frozen-pattern refresh
//! across a same-pattern operator sequence (reservoir-style coefficient
//! drift, the time-stepping workload of §2).
//!
//! A full AMG setup redoes strength, PMIS, interpolation-pattern
//! selection, and symbolic SpGEMM on every time step even though the
//! sparsity pattern never changes. The refresh path freezes everything
//! pattern-derived once (`AmgSolver::setup_refreshable`) and then absorbs
//! each step's new values with branch-free numeric passes only
//! (`AmgSolver::refresh`). Each side of a step is timed as the minimum of
//! [`REPS`] runs — a smoke step is 7–15 ms, one descheduled thread away
//! from any ratio — which for the refresh side means refreshing with the
//! same values again: refresh is idempotent, and that is asserted. Each
//! step also cross-checks that the refreshed hierarchy solves bitwise
//! identically to a from-scratch build.
//!
//! Usage: `cargo run --release -p famg-bench --bin setup_refresh
//!         [--smoke] [--out <dir>]`
//!
//! `--smoke` shrinks the grid, and asserts the recorded speedup gate
//! (refresh ≥ 2× faster than full setup) for CI. `--out` writes
//! `BENCH_setup_refresh.json` (schema in DESIGN.md §8); the record's
//! setup buckets are the full-setup totals, with the refresh totals and
//! speedup under `"extra"`. `FAMG_CHROME_TRACE=<dir>` dumps the final
//! step's refresh span tree in chrome://tracing format.

use famg_bench::fmt_secs;
use famg_bench::telemetry::{maybe_write_chrome_trace, BenchReport};
use famg_core::params::AmgConfig;
use famg_core::solver::AmgSolver;
use famg_core::stats::PhaseTimes;
use famg_matgen::{reservoir_field, rhs, varcoef3d_7pt};
use famg_prof::json::Json;
use famg_sparse::Csr;
use std::time::{Duration, Instant};

/// Runs per timed side of a step; the minimum is what is reported.
const REPS: usize = 3;

/// Keeps the fastest run's wall time and Fig. 5 buckets.
fn keep_fastest(best: &mut Option<(Duration, PhaseTimes)>, t: Duration, times: &PhaseTimes) {
    if best.as_ref().is_none_or(|(b, _)| t < *b) {
        *best = Some((t, times.clone()));
    }
}

/// Permeability field at time step `t`: the frozen reservoir geology with
/// a small smooth multiplicative drift, the regime the refresh contract
/// covers (values change everywhere, no frozen threshold decision flips).
fn step_field(base: &[f64], nx: usize, ny: usize, nz: usize, t: usize) -> Vec<f64> {
    base.iter()
        .enumerate()
        .map(|(i, &k)| {
            let x = (i % nx) as f64 / nx as f64;
            let d = (i / nx) as f64 / ((ny * nz) as f64);
            k * (1.0 + 1e-5 * (t as f64) * (7.0 * (x - d)).cos())
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (nx, ny, nz, steps) = if smoke {
        (24, 24, 12, 3)
    } else {
        (48, 48, 24, 5)
    };
    let n = nx * ny * nz;
    let cfg = AmgConfig::single_node_paper();
    let base = reservoir_field(nx, ny, nz, 6, 2.0, 2, 42);

    println!("setup_refresh: reservoir {nx}x{ny}x{nz} (n = {n}), {steps} time steps");
    println!("config: single_node_paper (PMIS + extended+i, CF-block RAP)\n");

    let a0 = varcoef3d_7pt(nx, ny, nz, &step_field(&base, nx, ny, nz, 0));
    let mut freeze = Duration::MAX;
    let mut frozen = None;
    for _ in 0..REPS {
        drop(frozen.take());
        let t0 = Instant::now();
        frozen = Some(AmgSolver::setup_refreshable(&a0, &cfg));
        freeze = freeze.min(t0.elapsed());
    }
    let mut refreshed = frozen.expect("REPS > 0");
    println!(
        "initial frozen setup: {} (the minimum of {REPS} runs)",
        fmt_secs(freeze)
    );

    let b = rhs::ones(n);
    let mut full_total = Duration::ZERO;
    let mut refresh_total = Duration::ZERO;
    let mut full_times = PhaseTimes::default();
    let mut refresh_times = PhaseTimes::default();
    let mut report = BenchReport::new("setup_refresh", smoke);
    report.problem(n, a0.nnz());
    println!(
        "\n{:>4} {:>12} {:>12} {:>8}   (each the minimum of {REPS} runs)",
        "step", "full setup", "refresh", "ratio"
    );
    for t in 1..=steps {
        let at = varcoef3d_7pt(nx, ny, nz, &step_field(&base, nx, ny, nz, t));

        let mut full_best = None;
        let mut full = None;
        for _ in 0..REPS {
            drop(full.take());
            let tf = Instant::now();
            let built = AmgSolver::setup(&at, &cfg);
            keep_fastest(&mut full_best, tf.elapsed(), &built.hierarchy().times);
            full = Some(built);
        }
        let (full_t, full_phases) = full_best.expect("REPS > 0");
        let full = full.expect("REPS > 0");

        let mut refresh_best = None;
        let mut first: Vec<Csr> = Vec::new();
        for rep in 0..REPS {
            let tr = Instant::now();
            refreshed
                .refresh(&at)
                .expect("same-pattern drift must refresh");
            keep_fastest(
                &mut refresh_best,
                tr.elapsed(),
                &refreshed.hierarchy().times,
            );
            let operators = refreshed.hierarchy().levels.iter().map(|l| &l.a);
            if rep == 0 {
                first = operators.cloned().collect();
            } else {
                assert!(operators.eq(&first), "step {t}: refresh is not idempotent");
            }
        }
        let (refresh_t, refresh_phases) = refresh_best.expect("REPS > 0");

        // The refreshed hierarchy must solve bitwise identically to the
        // from-scratch build.
        let mut x1 = vec![0.0; n];
        let mut x2 = vec![0.0; n];
        let r1 = full.solve(&b, &mut x1);
        let r2 = refreshed.solve(&b, &mut x2);
        assert!(r1.converged && r2.converged, "step {t} did not converge");
        assert_eq!(r1.iterations, r2.iterations, "step {t}: iteration drift");
        assert_eq!(x1, x2, "step {t}: refreshed solve is not bitwise identical");

        full_total += full_t;
        refresh_total += refresh_t;
        full_times.accumulate(&full_phases);
        refresh_times.accumulate(&refresh_phases);
        // Per-step flops along the refresh path (numeric refresh + solve).
        report.counters_from(&refreshed.hierarchy().profile);
        report.counters_from(&r2.profile);
        if t == steps {
            report
                .solve_times(&r2.times)
                .outcome(r2.iterations, r2.final_relres, r2.converged)
                .complexity(&refreshed.hierarchy().stats);
            maybe_write_chrome_trace("setup_refresh_refresh", &refreshed.hierarchy().profile);
            maybe_write_chrome_trace("setup_refresh_solve", &r2.profile);
        }
        println!(
            "{t:>4} {:>12} {:>12} {:>7.2}x",
            fmt_secs(full_t),
            fmt_secs(refresh_t),
            full_t.as_secs_f64() / refresh_t.as_secs_f64()
        );
    }

    let speedup = full_total.as_secs_f64() / refresh_total.as_secs_f64();
    println!("\nsetup-phase breakdown (sum over steps):");
    println!("{:>18} {:>12} {:>12}", "component", "full", "refresh");
    let rows = [
        (
            "strength+coarsen",
            full_times.strength_coarsen,
            refresh_times.strength_coarsen,
        ),
        ("interp", full_times.interp, refresh_times.interp),
        ("rap", full_times.rap, refresh_times.rap),
        ("setup_etc", full_times.setup_etc, refresh_times.setup_etc),
    ];
    for (name, f, r) in rows {
        println!("{name:>18} {:>12} {:>12}", fmt_secs(f), fmt_secs(r));
    }
    println!(
        "\ntotal: full {} vs refresh {} -> {speedup:.2}x",
        fmt_secs(full_total),
        fmt_secs(refresh_total)
    );
    assert!(
        speedup >= 2.0,
        "refresh speedup gate failed: {speedup:.2}x < 2.0x"
    );
    println!("gate: refresh >= 2x faster than full setup -- ok");
    // The price of being refreshable: the frozen setup over a step's full
    // setup (same pattern, values a 1e-5 drift apart).
    let frozen_over_full = freeze.as_secs_f64() * steps as f64 / full_total.as_secs_f64();
    println!(
        "frozen / full: {} / {} = {frozen_over_full:.2}",
        fmt_secs(freeze),
        fmt_secs(full_total / steps as u32)
    );

    let bucket_pair = |f: Duration, r: Duration| {
        Json::Obj(vec![
            ("full".into(), Json::Num(f.as_secs_f64())),
            ("refresh".into(), Json::Num(r.as_secs_f64())),
        ])
    };
    report
        .setup_times(&full_times)
        .extra_num("refresh_speedup", speedup)
        .extra_num("frozen_over_full", frozen_over_full)
        .extra_num("steps", steps as f64)
        .extra_num("full_setup_seconds", full_total.as_secs_f64())
        .extra_num("refresh_setup_seconds", refresh_total.as_secs_f64())
        .extra_json(
            "setup_breakdown",
            Json::Obj(vec![
                (
                    "strength_coarsen".into(),
                    bucket_pair(full_times.strength_coarsen, refresh_times.strength_coarsen),
                ),
                (
                    "interp".into(),
                    bucket_pair(full_times.interp, refresh_times.interp),
                ),
                ("rap".into(), bucket_pair(full_times.rap, refresh_times.rap)),
                (
                    "setup_etc".into(),
                    bucket_pair(full_times.setup_etc, refresh_times.setup_etc),
                ),
            ]),
        );
    report.write_if_requested().expect("telemetry write failed");
}
