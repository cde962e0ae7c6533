//! Batched multi-RHS solve benchmark: per-RHS throughput of `solve_batch`
//! at widths 1/2/4/8 against solo solves, plus the distributed
//! message-amortization audit.
//!
//! Time-stepping workloads (§2's reservoir setting) solve many
//! right-hand sides against one frozen operator. The batched path runs
//! one V-cycle across all `k` columns — every matrix traversal (SpMM,
//! k-wide hybrid GS) and every halo envelope is shared by the whole
//! batch — while keeping column `j` bitwise identical to the scalar
//! solve. This bench measures both halves of that bargain:
//!
//! * serial throughput: wall time of `k` solo solves vs one `k`-wide
//!   `solve_batch`, reported as per-RHS speedup (gated at >= 1.3x for
//!   k = 8);
//! * distributed amortization: total messages of a 4-rank solve driven
//!   to a fixed cycle count at k = 1 (scalar path) vs k = 8 (batched
//!   path) — the counts must be *exactly* equal.
//!
//! Usage: `cargo run --release -p famg-bench --bin multi_rhs [--smoke]`
//!
//! The smoke run's k=8 iterations, complexities and setup + batch-solve
//! flops on a 2-thread pool are pinned exactly by `tests/multi_rhs.rs`.
//! `FAMG_CHROME_TRACE=<dir>` dumps the k=8 batch solve's span tree.

use famg_bench::{fmt_secs, maybe_write_chrome_trace};
use famg_core::params::AmgConfig;
use famg_core::solver::AmgSolver;
use famg_dist::comm::run_ranks;
use famg_dist::hierarchy::{DistHierarchy, DistOptFlags};
use famg_dist::parcsr::{default_partition, ParCsr};
use famg_dist::solve::{dist_amg_solve, dist_amg_solve_multi};
use famg_matgen::laplace3d_7pt;
use famg_sparse::MultiVec;
use std::time::Instant;

/// Deterministic, column-dependent right-hand sides (distinct per
/// column so no lane degenerates into another).
fn rhs_columns(n: usize, k: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|j| {
            (0..n)
                .map(|i| ((i * (2 * j + 3) + 11 * j) % 23) as f64 / 23.0 - 0.4)
                .collect()
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let dim = if smoke { 20 } else { 40 };
    let a = laplace3d_7pt(dim, dim, dim);
    let n = a.nrows();
    let cfg = AmgConfig::single_node_paper();
    println!("multi_rhs: 7-pt 3D Laplacian {dim}^3 (n = {n}), single_node_paper\n");

    let solver = AmgSolver::setup(&a, &cfg);

    // -- serial throughput: k solo solves vs one k-wide batch ----------
    let cols = rhs_columns(n, 8);
    let t0 = Instant::now();
    let mut solo_cols: Vec<Vec<f64>> = Vec::new();
    for bj in &cols {
        let mut xj = vec![0.0; n];
        let res = solver.solve(bj, &mut xj);
        assert!(res.converged, "solo solve did not converge");
        solo_cols.push(xj);
    }
    let solo8 = t0.elapsed();
    let solo_per_rhs = solo8 / 8;

    println!(
        "{:>4} {:>12} {:>12} {:>10}",
        "k", "batch", "per RHS", "vs solo"
    );
    let mut speedup_k8 = 0.0;
    for k in [1usize, 2, 4, 8] {
        let b = MultiVec::from_columns(&cols[..k]);
        let mut x = MultiVec::new(n, k);
        let tb = Instant::now();
        let res = solver.solve_batch(&b, &mut x);
        let batch_t = tb.elapsed();
        assert!(res.all_converged(), "k = {k}: batch did not converge");
        // The contract the speedup is not allowed to buy its way out of:
        // every column is bitwise identical to its solo solve.
        for (j, solo) in solo_cols.iter().take(k).enumerate() {
            assert_eq!(&x.col(j), solo, "k = {k} col {j}: batch != solo bits");
        }
        let per_rhs = batch_t / k as u32;
        let speedup = solo_per_rhs.as_secs_f64() / per_rhs.as_secs_f64();
        println!(
            "{k:>4} {:>12} {:>12} {:>9.2}x",
            fmt_secs(batch_t),
            fmt_secs(per_rhs),
            speedup
        );
        if k == 8 {
            speedup_k8 = speedup;
            maybe_write_chrome_trace("multi_rhs_solve_k8", &res.profile);
        }
    }
    println!(
        "\nsolo baseline: 8 solves in {} ({} per RHS)",
        fmt_secs(solo8),
        fmt_secs(solo_per_rhs)
    );

    // -- distributed amortization: messages at fixed cycle count -------
    // Tolerance 0 runs the full iteration budget in both configurations,
    // so the message counts compare like for like.
    let cycles = 3usize;
    let dist_cfg = AmgConfig {
        tolerance: 0.0,
        max_iterations: cycles,
        ..AmgConfig::single_node_paper()
    };
    let ddim = if smoke { 12 } else { 20 };
    let da = laplace3d_7pt(ddim, ddim, ddim);
    let dn = da.nrows();
    let nranks = 4usize;
    let starts = default_partition(dn, nranks);
    let dcols = rhs_columns(dn, 8);
    let messages_k1 = {
        let (counts, _) = run_ranks(nranks, |c| {
            let r = c.rank();
            let (s, e) = (starts[r], starts[r + 1]);
            let pa = ParCsr::from_global_rows(&da, s, e, starts.clone(), r);
            let h = DistHierarchy::build(c, pa, &dist_cfg, DistOptFlags::all());
            let bl = dcols[0][s..e].to_vec();
            let mut xl = vec![0.0; e - s];
            let res = dist_amg_solve(c, &h, &bl, &mut xl);
            assert_eq!(res.iterations, cycles);
            res.solve_comm.messages
        });
        counts.iter().sum::<u64>()
    };
    let messages_k8 = {
        let (counts, _) = run_ranks(nranks, |c| {
            let r = c.rank();
            let (s, e) = (starts[r], starts[r + 1]);
            let pa = ParCsr::from_global_rows(&da, s, e, starts.clone(), r);
            let h = DistHierarchy::build(c, pa, &dist_cfg, DistOptFlags::all());
            let local: Vec<Vec<f64>> = dcols.iter().map(|col| col[s..e].to_vec()).collect();
            let bb = MultiVec::from_columns(&local);
            let mut xb = MultiVec::new(e - s, 8);
            let res = dist_amg_solve_multi(c, &h, &bb, &mut xb);
            assert!(res.iterations.iter().all(|&it| it == cycles));
            res.solve_comm.messages
        });
        counts.iter().sum::<u64>()
    };
    println!(
        "\ndistributed ({nranks} ranks, {ddim}^3, {cycles} cycles): \
         {messages_k1} messages at k=1 vs {messages_k8} at k=8"
    );
    assert_eq!(
        messages_k1, messages_k8,
        "batched solve must send exactly the scalar solve's message count"
    );
    println!("gate: message count is k-independent -- ok");

    assert!(
        speedup_k8 >= 1.3,
        "per-RHS speedup gate failed: k=8 batch {speedup_k8:.2}x < 1.3x vs solo"
    );
    println!("gate: k=8 per-RHS >= 1.3x solo -- ok");
}
