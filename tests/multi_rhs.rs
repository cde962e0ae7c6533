//! Batched multi-RHS determinism suite.
//!
//! The batched solve path's contract is that column `j` of a `k`-wide
//! solve is **bitwise** identical to the scalar solve of `(b_j, x_j)` —
//! same iterate bits, same residual bits, same iteration counts — for
//! every batch width, pool size, rank count, and halo mode. This suite
//! enforces the contract end to end: serial `solve_batch` against solo
//! solves (re-executed under `RAYON_NUM_THREADS` 1/2/4 the way
//! `thread_independence` does), distributed `dist_amg_solve_multi`
//! against solo solves at 1/2/4 ranks in both halo modes, and the edge
//! shapes (`k = 0`, `k = 1`, columns that start converged or never
//! converge). The `multi_rhs --smoke` bench's k = 8 batch is pinned
//! exactly.

mod common;

use famg::core::{AmgConfig, AmgSolver};
use famg::dist::comm::run_ranks;
use famg::dist::hierarchy::{DistHierarchy, DistOptFlags};
use famg::dist::parcsr::{default_partition, ParCsr};
use famg::dist::solve::{dist_amg_solve, dist_amg_solve_multi};
use famg::matgen::{laplace2d, laplace3d_7pt};
use famg::sparse::MultiVec;

use common::SmokeFigures;

/// Deterministic, column-dependent right-hand sides.
fn rhs_columns(n: usize, k: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|j| {
            (0..n)
                .map(|i| ((i * (2 * j + 3) + 7 * j) % 17) as f64 / 17.0 - 0.4)
                .collect()
        })
        .collect()
}

fn fnv1a(h: u64, w: u64) -> u64 {
    let mut h = h;
    for b in w.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of a batched solve: iterate bits, residual bits,
/// iteration counts of every column.
fn fp_solve_batch() -> u64 {
    let a = laplace2d(40, 40);
    let n = a.nrows();
    let cfg = AmgConfig {
        smoother_tasks: Some(4),
        ..AmgConfig::single_node_paper()
    };
    let solver = AmgSolver::setup(&a, &cfg);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for k in [1usize, 4, 8] {
        let cols = rhs_columns(n, k);
        let b = MultiVec::from_columns(&cols);
        let mut x = MultiVec::new(n, k);
        let res = solver.solve_batch(&b, &mut x);
        for w in x.data().iter().map(|v| v.to_bits()) {
            h = fnv1a(h, w);
        }
        for j in 0..k {
            h = fnv1a(h, res.iterations[j] as u64);
            h = fnv1a(h, res.final_relres[j].to_bits());
        }
    }
    h
}

/// Prints the fingerprint; asserted across pool sizes by
/// [`batch_solve_bitwise_across_pool_sizes`].
#[test]
fn batch_fingerprint_worker() {
    println!("FPB solve_batch {:016x}", fp_solve_batch());
}

fn collect_fingerprint(num_threads: usize) -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["--exact", "batch_fingerprint_worker", "--nocapture"])
        .env("RAYON_NUM_THREADS", num_threads.to_string())
        .output()
        .expect("spawn fingerprint subprocess");
    assert!(
        out.status.success(),
        "fingerprint subprocess (RAYON_NUM_THREADS={num_threads}) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .find_map(|l| {
            let tail = &l[l.find("FPB ")?..];
            tail.split_whitespace().nth(2).map(str::to_string)
        })
        .unwrap_or_else(|| panic!("no fingerprint line in:\n{stdout}"))
}

/// The batched path inherits the pool-size determinism contract: one
/// fingerprint for pool sizes 1, 2, and 4.
#[test]
fn batch_solve_bitwise_across_pool_sizes() {
    let reference = collect_fingerprint(1);
    for nt in [2usize, 4] {
        assert_eq!(
            reference,
            collect_fingerprint(nt),
            "solve_batch diverged at pool size {nt}"
        );
    }
}

/// Serial batch-vs-solo bitwise identity at several widths, including
/// the degenerate `k = 1` and the `k = 0` no-op.
#[test]
fn serial_batch_columns_match_solo_bitwise() {
    let a = laplace2d(32, 32);
    let n = a.nrows();
    let cfg = AmgConfig::single_node_paper();
    let solver = AmgSolver::setup(&a, &cfg);
    for k in [0usize, 1, 4, 8] {
        let cols = rhs_columns(n, k);
        let b = if k == 0 {
            MultiVec::new(n, 0) // from_columns(&[]) has no row count
        } else {
            MultiVec::from_columns(&cols)
        };
        let mut x = MultiVec::new(n, k);
        let res = solver.solve_batch(&b, &mut x);
        assert_eq!(res.k(), k);
        for (j, bj) in cols.iter().enumerate() {
            let mut xj = vec![0.0; n];
            let solo = solver.solve(bj, &mut xj);
            assert_eq!(res.iterations[j], solo.iterations, "k {k} col {j}");
            assert_eq!(
                res.final_relres[j].to_bits(),
                solo.final_relres.to_bits(),
                "k {k} col {j}"
            );
            assert_eq!(x.col(j), xj, "k {k} col {j}: iterate bits differ");
        }
    }
}

/// A column whose RHS is zero starts converged and must stay pinned at
/// its snapshot while a live column runs out its iteration budget.
#[test]
fn serial_batch_masks_converged_and_stalled_columns() {
    let a = laplace2d(24, 24);
    let n = a.nrows();
    let cfg = AmgConfig {
        max_iterations: 2,
        ..AmgConfig::single_node_paper()
    };
    let solver = AmgSolver::setup(&a, &cfg);
    let live: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
    let b = MultiVec::from_columns(&[vec![0.0; n], live.clone()]);
    let mut x = MultiVec::new(n, 2);
    let res = solver.solve_batch(&b, &mut x);
    assert!(res.converged[0]);
    assert_eq!(res.iterations[0], 0);
    assert!(x.col(0).iter().all(|&v| v == 0.0));
    assert!(!res.converged[1]);
    assert_eq!(res.iterations[1], 2);
    let mut xs = vec![0.0; n];
    let solo = solver.solve(&live, &mut xs);
    assert_eq!(res.final_relres[1].to_bits(), solo.final_relres.to_bits());
    assert_eq!(x.col(1), xs);
}

/// Distributed batch-vs-solo bitwise identity at 1/2/4 ranks in both
/// halo modes (`FAMG_OVERLAP_COMM` is exercised by sweeping the flag
/// directly — both modes run in every configuration).
#[test]
fn dist_batch_columns_match_solo_bitwise_across_ranks() {
    let a = laplace2d(20, 20);
    let n = a.nrows();
    let k = 4usize;
    let cfg = AmgConfig::single_node_paper();
    let cols = rhs_columns(n, k);
    for nranks in [1usize, 2, 4] {
        for overlap in [false, true] {
            let dopt = DistOptFlags {
                overlap_comm: overlap,
                ..DistOptFlags::all()
            };
            let starts = default_partition(n, nranks);
            run_ranks(nranks, |c| {
                let r = c.rank();
                let (s, e) = (starts[r], starts[r + 1]);
                let pa = ParCsr::from_global_rows(&a, s, e, starts.clone(), r);
                let h = DistHierarchy::build(c, pa, &cfg, dopt);
                let local: Vec<Vec<f64>> = cols.iter().map(|col| col[s..e].to_vec()).collect();
                let bb = MultiVec::from_columns(&local);
                let mut xb = MultiVec::new(e - s, k);
                let res = dist_amg_solve_multi(c, &h, &bb, &mut xb);
                assert!(res.all_converged(), "ranks {nranks} overlap {overlap}");
                for (j, bl) in local.iter().enumerate() {
                    let mut xl = vec![0.0; e - s];
                    let solo = dist_amg_solve(c, &h, bl, &mut xl);
                    assert_eq!(
                        res.iterations[j], solo.iterations,
                        "ranks {nranks} overlap {overlap} col {j}"
                    );
                    assert_eq!(
                        res.final_relres[j].to_bits(),
                        solo.final_relres.to_bits(),
                        "ranks {nranks} overlap {overlap} col {j}"
                    );
                    assert_eq!(
                        xb.col(j),
                        xl,
                        "ranks {nranks} overlap {overlap} col {j}: iterate bits"
                    );
                }
            });
        }
    }
}

/// The headline property: halo message count per V-cycle-driven solve is
/// independent of the batch width — k RHS cost one scalar solve's
/// messages (for the same iteration count).
#[test]
fn dist_batch_message_count_is_k_independent() {
    let a = laplace2d(16, 16);
    let n = a.nrows();
    let cfg = AmgConfig {
        max_iterations: 4,
        tolerance: 0.0, // run out the full budget in both runs
        ..AmgConfig::single_node_paper()
    };
    let starts = default_partition(n, 4);
    let msgs = |k: usize| {
        let (counts, _) = run_ranks(4, |c| {
            let r = c.rank();
            let (s, e) = (starts[r], starts[r + 1]);
            let pa = ParCsr::from_global_rows(&a, s, e, starts.clone(), r);
            let h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
            let cols = rhs_columns(n, k)
                .iter()
                .map(|col| col[s..e].to_vec())
                .collect::<Vec<_>>();
            let bb = MultiVec::from_columns(&cols);
            let mut xb = MultiVec::new(e - s, k);
            c.barrier();
            let m0 = c.messages_sent();
            let res = dist_amg_solve_multi(c, &h, &bb, &mut xb);
            assert!(res.iterations.iter().all(|&it| it == 4));
            c.barrier();
            c.messages_sent() - m0
        });
        counts.iter().sum::<u64>()
    };
    let m1 = msgs(1);
    let m8 = msgs(8);
    assert_eq!(m1, m8, "k=8 solve must send exactly k=1's message count");
}

/// The k = 8 batch of `multi_rhs --smoke` (7-point 3D Laplacian 20³,
/// `single_node_paper`, the bench's right-hand sides): column 0's
/// iterations, the complexities, and the flops of the setup and of the
/// batched solve.
#[test]
fn bench_smoke_batch_is_pinned() {
    let a = laplace3d_7pt(20, 20, 20);
    let n = a.nrows();
    let cfg = AmgConfig {
        smoother_tasks: Some(2),
        ..AmgConfig::single_node_paper()
    };
    let solver = AmgSolver::setup(&a, &cfg);
    let cols: Vec<Vec<f64>> = (0..8)
        .map(|j| {
            (0..n)
                .map(|i| ((i * (2 * j + 3) + 11 * j) % 23) as f64 / 23.0 - 0.4)
                .collect()
        })
        .collect();
    let mut x = MultiVec::new(n, 8);
    let res = solver.solve_batch(&MultiVec::from_columns(&cols), &mut x);
    assert!(res.all_converged());
    let h = solver.hierarchy();
    let flops = h.profile.total_counter("flops") + res.profile.total_counter("flops");
    SmokeFigures::new(res.iterations[0], &h.stats, flops, 0, 0).assert_pinned(MULTI_RHS_SMOKE);
}

/// Recorded at the change that replaced the bench record's 1.25x gate.
const MULTI_RHS_SMOKE: SmokeFigures = SmokeFigures {
    iterations: 11,
    operator_complexity: 2.65214552238806,
    grid_complexity: 1.393625,
    levels: 5,
    flops: 99_049_856,
    comm_bytes: 0,
    comm_messages: 0,
};
