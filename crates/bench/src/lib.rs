//! # famg-bench
//!
//! Harnesses regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured results).
//!
//! Binaries (run with `cargo run --release -p famg-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1_settings`     | Table 1 (evaluation settings) |
//! | `table2_suite`        | Table 2 (matrix suite) |
//! | `fig5_single_node`    | Fig. 5 + §5.2 component speedups |
//! | `fig6_weak_scaling`   | Fig. 6 (weak scaling, both inputs) |
//! | `fig7_breakdown`      | Fig. 7 (128-node breakdown analogue) |
//! | `fig8_strong_scaling` | Fig. 8 (reservoir strong scaling) |
//! | `text_flops_fusion`   | §3.1.1 flop ratio (1.73×) |
//! | `text_dist_opts`      | §4.2/4.3/4.4 distributed-optimization claims |
//!
//! The kernel microbenchmarks (SpMV variants, transpose, SpGEMM, the four
//! RAP variants, the Fig. 2a/2b sweeps) are rows of `text_bandwidth` and
//! `text_flops_fusion`.

use famg_core::coarsen::pmis;
use famg_core::interp::{extended_i, CfMap, TruncParams};
use famg_core::strength::strength;
use famg_matgen::laplace2d;
use famg_prof::Profile;
use famg_sparse::transpose::transpose_par;
use famg_sparse::Csr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A finest-level AMG fixture: `(R, A, P)` ready for triple products.
pub struct RapFixture {
    /// Restriction (`Pᵀ`).
    pub r: Csr,
    /// Fine operator.
    pub a: Csr,
    /// Interpolation.
    pub p: Csr,
}

/// Builds a realistic finest-level `(R, A, P)` from PMIS + extended+i on
/// the given operator.
pub fn rap_fixture(a: Csr, seed: u64) -> RapFixture {
    let s = strength(&a, 0.25, 0.8);
    let c = pmis(&s, seed);
    let cf = CfMap::new(c.is_coarse);
    let p = extended_i(&a, &s, &cf, Some(&TruncParams::paper()));
    let r = transpose_par(&p);
    RapFixture { r, a, p }
}

/// Convenience: the `(R, A, P)` fixture over a 2D Laplacian.
pub fn rap_fixture_2d(n: usize, seed: u64) -> RapFixture {
    rap_fixture(laplace2d(n, n), seed)
}

/// Times a closure, returning `(result, elapsed)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Runs `f` `reps` times and returns the minimum wall time (the standard
/// noise-robust estimator for short kernels).
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    assert!(reps > 0);
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let v = f();
        let dt = t0.elapsed();
        if dt < best {
            best = dt;
        }
        out = Some(v);
    }
    (out.unwrap(), best)
}

/// Seconds as a compact human string.
pub fn fmt_secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Parses `--key value` style arguments; returns the value for `key`.
pub fn arg_value(key: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses `--scale` (default given) as an f64.
pub fn arg_scale(default: f64) -> f64 {
    arg_value("--scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses `--ranks` as a comma list (default given).
pub fn arg_ranks(default: &[usize]) -> Vec<usize> {
    arg_value("--ranks").map_or_else(
        || default.to_vec(),
        |v| {
            v.split(',')
                .map(|t| t.parse().expect("bad --ranks entry"))
                .collect()
        },
    )
}

/// If `FAMG_CHROME_TRACE` names a directory, writes `profile` there as
/// `<bench>.trace.json` in chrome://tracing format (load via the
/// "Load" button on chrome://tracing or https://ui.perfetto.dev).
pub fn maybe_write_chrome_trace(bench: &str, profile: &Profile) {
    let Ok(dir) = std::env::var("FAMG_CHROME_TRACE") else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    let dir = PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("FAMG_CHROME_TRACE: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{bench}.trace.json"));
    match std::fs::write(&path, profile.to_chrome_trace(0)) {
        Ok(()) => println!("telemetry: wrote chrome trace {}", path.display()),
        Err(e) => eprintln!("FAMG_CHROME_TRACE: cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_shapes_consistent() {
        let f = rap_fixture_2d(16, 1);
        assert_eq!(f.a.nrows(), 256);
        assert_eq!(f.p.nrows(), 256);
        assert_eq!(f.r.nrows(), f.p.ncols());
        assert_eq!(f.r.ncols(), 256);
        assert!(f.p.ncols() < 256 / 2);
    }

    #[test]
    fn timing_helpers() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
        let (v, d) = best_of(3, || 7);
        assert_eq!(v, 7);
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn fmt_secs_ranges() {
        assert!(fmt_secs(Duration::from_secs(2)).ends_with('s'));
        assert!(fmt_secs(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_secs(Duration::from_micros(5)).ends_with("us"));
    }
}
