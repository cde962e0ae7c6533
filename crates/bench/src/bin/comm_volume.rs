//! §4.3/§5.4 communication-volume audit: per-level, per-phase bytes and
//! messages for a distributed AMG setup + FGMRES solve, compared against
//! the dense-alltoall baseline recorded before the neighbor-aware rewrite.
//! Each rank count also re-runs the solve with `overlap_comm` off and
//! compares the exposed halo wait against the fully synchronous path —
//! overlap must leave a strictly smaller fraction of the halo wait
//! exposed (uncovered by interior computation) than synchronous
//! exchanges do.
//!
//! Usage: `cargo run --release -p famg-bench --bin comm_volume
//!         [--ranks 2,4,8] [--per-rank 12] [--smoke]`
//!
//! `--smoke` shrinks the problem and rank list for a CI-speed run that
//! still checks the overlap gate; its 4-rank leg's iterations,
//! complexities, flops, bytes and messages are pinned exactly by
//! `tests/comm_volume.rs`. `FAMG_CHROME_TRACE=<dir>` dumps rank 0's
//! setup/solve span trees in chrome://tracing format.

use famg_bench::{arg_ranks, maybe_write_chrome_trace};
use famg_core::AmgConfig;
use famg_dist::comm::run_ranks;
use famg_dist::hierarchy::{DistHierarchy, DistOptFlags};
use famg_dist::parcsr::{default_partition, ParCsr};
use famg_dist::solve::dist_fgmres_amg;
use famg_matgen::{laplace3d_7pt, rhs};

/// Totals recorded at the same shape (12^3 rows/rank, `multi_node_ei4`,
/// FGMRES to 1e-7) with the pre-rewrite dense-alltoall runtime, where
/// every collective and halo exchange posted P-1 envelopes per rank.
const BASELINE: &[(usize, u64, u64)] = &[
    // (ranks, messages, bytes)
    (2, 826, 697_746),
    (4, 6_624, 2_207_684),
    (8, 31_360, 5_250_984),
];

/// What each rank reports back to the driver.
struct RankOut {
    iterations: usize,
    /// Halo wait left exposed during the solve (data still late when
    /// `InFlightHalo::finish` was entered), and the wait hidden behind
    /// the in-flight window. Exposed + hidden = the wait a fully
    /// synchronous exchange would have cost.
    exposed_ns: u64,
    hidden_ns: u64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let per_rank: usize = famg_bench::arg_value("--per-rank")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 8 } else { 12 });
    let ranks = if smoke {
        vec![2usize, 4]
    } else {
        arg_ranks(&[2, 4, 8])
    };
    println!("== comm volume: 7-pt 3D Laplacian, {per_rank}^3 rows/rank, FGMRES+AMG ==\n");

    // (exposed, hidden) halo-wait nanoseconds summed over the sweep, per
    // halo mode. Exposed + hidden = what a synchronous exchange would
    // block for, so exposed / (exposed + hidden) is the fraction of the
    // halo wait each mode leaves uncovered — comparing fractions makes
    // the overlap gate robust to run-to-run scheduler noise.
    let mut overlap_ns: (u64, u64) = (0, 0);
    let mut sync_ns: (u64, u64) = (0, 0);
    for &nranks in &ranks {
        let a = laplace3d_7pt(per_rank, per_rank, per_rank * nranks);
        let n = a.nrows();
        let b = rhs::ones(n);
        let starts = default_partition(n, nranks);
        let cfg = AmgConfig::multi_node_ei4();
        let (parts, report) = run_ranks(nranks, |c| {
            let r = c.rank();
            let pa = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
            let h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
            let bl = b[starts[r]..starts[r + 1]].to_vec();
            let mut xl = vec![0.0; bl.len()];
            let res = dist_fgmres_amg(c, &h, &bl, &mut xl, 1e-7, 200, 50);
            assert!(res.converged, "rank {r}: solve did not converge");
            if r == 0 {
                maybe_write_chrome_trace("comm_volume_setup", &h.profile);
                maybe_write_chrome_trace("comm_volume_solve", &res.profile);
            }
            RankOut {
                iterations: res.iterations,
                exposed_ns: res.profile.total_counter("halo_exposed_ns"),
                hidden_ns: res.profile.total_counter("halo_hidden_ns"),
            }
        });
        // Same solve with `overlap_comm` off: every halo wait is exposed.
        // The results are bitwise identical (asserted below on iteration
        // count; the full contract is tested in tests/halo_overlap.rs),
        // only the exposed-wait telemetry differs.
        let sync_flags = DistOptFlags {
            overlap_comm: false,
            ..DistOptFlags::all()
        };
        let (sync_parts, _) = run_ranks(nranks, |c| {
            let r = c.rank();
            let pa = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
            let h = DistHierarchy::build(c, pa, &cfg, sync_flags);
            let bl = b[starts[r]..starts[r + 1]].to_vec();
            let mut xl = vec![0.0; bl.len()];
            let res = dist_fgmres_amg(c, &h, &bl, &mut xl, 1e-7, 200, 50);
            assert!(res.converged, "rank {r}: sync solve did not converge");
            (
                res.iterations,
                res.profile.total_counter("halo_exposed_ns"),
                res.profile.total_counter("halo_hidden_ns"),
            )
        });
        assert_eq!(
            parts[0].iterations, sync_parts[0].0,
            "{nranks} ranks: overlap and sync solves diverged"
        );
        let ov_exposed: u64 = parts.iter().map(|p| p.exposed_ns).sum();
        let ov_hidden: u64 = parts.iter().map(|p| p.hidden_ns).sum();
        let sy_exposed: u64 = sync_parts.iter().map(|p| p.1).sum();
        let sy_hidden: u64 = sync_parts.iter().map(|p| p.2).sum();
        overlap_ns.0 += ov_exposed;
        overlap_ns.1 += ov_hidden;
        sync_ns.0 += sy_exposed;
        sync_ns.1 += sy_hidden;
        let msgs = report.total_messages();
        let bytes = report.total_bytes();
        println!(
            "-- {nranks} ranks, {n} rows, {} iterations --",
            parts[0].iterations
        );
        print!("{}", report.scope_table());
        // The recorded baseline is specific to the 12^3 rows/rank shape.
        let baseline = (per_rank == 12)
            .then(|| BASELINE.iter().find(|&&(p, _, _)| p == nranks))
            .flatten();
        if let Some(&(_, base_msgs, base_bytes)) = baseline {
            println!(
                "vs dense-alltoall baseline: messages {msgs} / {base_msgs} ({:.2}x fewer), \
                 bytes {bytes} / {base_bytes} ({:.2}x fewer)",
                base_msgs as f64 / msgs as f64,
                base_bytes as f64 / bytes as f64,
            );
            // Regression gate: the neighbor-aware runtime must never
            // send more traffic than the recorded dense baseline.
            assert!(
                msgs < base_msgs && bytes < base_bytes,
                "{nranks} ranks: comm volume regressed past the recorded baseline"
            );
        }
        println!(
            "halo wait (solve, summed over ranks): \
             overlap {:.3} ms exposed / {:.3} ms hidden; \
             sync {:.3} ms exposed / {:.3} ms hidden",
            ov_exposed as f64 * 1e-6,
            ov_hidden as f64 * 1e-6,
            sy_exposed as f64 * 1e-6,
            sy_hidden as f64 * 1e-6,
        );
        println!();
    }
    // The overlap gate: of the halo wait each mode would suffer
    // synchronously (exposed + hidden), `overlap_comm` must leave a
    // strictly smaller *fraction* exposed than the synchronous path,
    // summed over the whole sweep. Fractions — not absolute wall times —
    // because the two legs are separate runs with separate scheduler
    // noise, while each fraction is a same-run ratio. Only meaningful
    // when the profiler is compiled in (prof-off builds report 0/0 → 0).
    let frac = |(exposed, hidden): (u64, u64)| {
        let total = exposed + hidden;
        if total == 0 {
            0.0
        } else {
            exposed as f64 / total as f64
        }
    };
    let (ov_frac, sy_frac) = (frac(overlap_ns), frac(sync_ns));
    println!("exposed fraction of halo wait: overlap {ov_frac:.3} vs sync {sy_frac:.3}");
    if famg_prof::enabled() {
        assert!(
            ov_frac < sy_frac,
            "overlap_comm left {ov_frac:.3} of the halo wait exposed, \
             not below the synchronous {sy_frac:.3}"
        );
    }
    println!("Baseline totals were recorded before the neighbor-aware rewrite;");
    println!("see DESIGN.md §2 for the exchange-plan and tree-collective design.");
}
