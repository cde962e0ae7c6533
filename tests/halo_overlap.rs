//! Overlapped-halo correctness suite.
//!
//! The overlap mode (`DistOptFlags::overlap_comm`) computes interior rows
//! while the halo is in flight; its contract is *bitwise* equality with
//! the synchronous mode. This suite enforces that contract for the SpMV,
//! residual, and full end-to-end solves at 1/2/4 ranks, exercises the
//! interior/boundary split's edge cases (all-interior, all-boundary, and
//! empty ranks), and pins the hardened panic paths of the distributed
//! kernels (out-of-partition `owner_of`, mismatched wire payloads,
//! mis-sized kernel vectors).

use famg::core::solver::SolveError;
use famg::core::AmgConfig;
use famg::dist::comm::run_ranks;
use famg::dist::halo::VectorExchange;
use famg::dist::hierarchy::{DistHierarchy, DistOptFlags};
use famg::dist::parcsr::{default_partition, owner_of, ParCsr};
use famg::dist::solve::{dist_amg_solve, dist_fgmres_amg};
use famg::dist::spmv::{try_dist_residual_norm_sq_rows, try_dist_residual_rows, try_dist_spmv};
use famg::matgen::{laplace2d, rhs};
use famg::sparse::multivec::dot_rows_seq;
use famg::sparse::Csr;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Exact bit patterns of a float vector (the determinism currency).
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn flags(overlap: bool) -> DistOptFlags {
    DistOptFlags {
        overlap_comm: overlap,
        ..DistOptFlags::all()
    }
}

/// Runs `dist_spmv` in one halo mode and returns the concatenated result.
fn spmv_all_ranks(a: &Csr, starts: &[usize], x: &[f64], overlap: bool) -> Vec<f64> {
    let nranks = starts.len() - 1;
    let (parts, _) = run_ranks(nranks, |c| {
        let r = c.rank();
        let pa = ParCsr::from_global_rows(a, starts[r], starts[r + 1], starts.to_vec(), r);
        let plan = VectorExchange::plan(c, &pa.colmap, starts);
        let xl = x[starts[r]..starts[r + 1]].to_vec();
        let mut y = vec![0.0; pa.local_rows()];
        try_dist_spmv(c, &pa, &plan, &xl, &mut y, overlap).unwrap();
        y
    });
    parts.concat()
}

#[test]
fn spmv_overlap_bitwise_identical() {
    let a = laplace2d(12, 10);
    let x = rhs::random(a.nrows(), 7);
    for nranks in [1usize, 2, 4] {
        let starts = default_partition(a.nrows(), nranks);
        let sync = spmv_all_ranks(&a, &starts, &x, false);
        let over = spmv_all_ranks(&a, &starts, &x, true);
        assert_eq!(bits(&sync), bits(&over), "nranks {nranks}");
    }
}

#[test]
fn residual_and_norm_overlap_bitwise_identical() {
    let a = laplace2d(11, 9);
    let n = a.nrows();
    let x = rhs::random(n, 3);
    let b = rhs::random(n, 4);
    for nranks in [1usize, 2, 4] {
        let starts = default_partition(n, nranks);
        let run = |overlap: bool| {
            let (parts, _) = run_ranks(nranks, |c| {
                let rk = c.rank();
                let pa =
                    ParCsr::from_global_rows(&a, starts[rk], starts[rk + 1], starts.clone(), rk);
                let plan = VectorExchange::plan(c, &pa.colmap, &starts);
                let xl = x[starts[rk]..starts[rk + 1]].to_vec();
                let bl = b[starts[rk]..starts[rk + 1]].to_vec();
                let mut r = vec![0.0; pa.local_rows()];
                try_dist_residual_rows(c, &pa, &plan, &xl, &bl, &mut r, 1, overlap).unwrap();
                let mut local = [0.0];
                dot_rows_seq(&r, &r, 1, &mut local);
                let mut global = [0.0];
                try_dist_residual_norm_sq_rows(
                    c,
                    &pa,
                    &plan,
                    &xl,
                    &bl,
                    &mut r,
                    1,
                    overlap,
                    &mut global,
                )
                .unwrap();
                (r, local[0], global[0])
            });
            let r: Vec<f64> = parts.iter().flat_map(|(r, _, _)| r.clone()).collect();
            let locals: Vec<f64> = parts.iter().map(|&(_, l, _)| l).collect();
            let globals: Vec<f64> = parts.iter().map(|&(_, _, g)| g).collect();
            (r, locals, globals)
        };
        let (rs, ls, gs) = run(false);
        let (ro, lo, go) = run(true);
        assert_eq!(bits(&rs), bits(&ro), "residual, nranks {nranks}");
        assert_eq!(bits(&ls), bits(&lo), "local norms, nranks {nranks}");
        assert_eq!(bits(&gs), bits(&go), "global norms, nranks {nranks}");
    }
}

/// End-to-end: the full AMG and FGMRES solves (setup identical, solve
/// phase toggling only the halo mode) converge to bitwise-identical
/// iterates in the same number of iterations.
#[test]
fn solve_overlap_bitwise_identical() {
    let a = laplace2d(16, 16);
    let n = a.nrows();
    let b = rhs::ones(n);
    let cfg = AmgConfig::single_node_paper();
    for nranks in [1usize, 2, 4] {
        let starts = default_partition(n, nranks);
        let run = |overlap: bool, fgmres: bool| {
            let (parts, _) = run_ranks(nranks, |c| {
                let r = c.rank();
                let pa = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
                let h = DistHierarchy::build(c, pa, &cfg, flags(overlap));
                let bl = b[starts[r]..starts[r + 1]].to_vec();
                let mut xl = vec![0.0; bl.len()];
                let res = if fgmres {
                    dist_fgmres_amg(c, &h, &bl, &mut xl, cfg.tolerance, 100, 30)
                } else {
                    dist_amg_solve(c, &h, &bl, &mut xl)
                };
                assert!(res.converged);
                (xl, res.iterations, res.final_relres)
            });
            let x: Vec<f64> = parts.iter().flat_map(|(xl, _, _)| xl.clone()).collect();
            (x, parts[0].1, parts[0].2)
        };
        for fgmres in [false, true] {
            let (xs, is, rs) = run(false, fgmres);
            let (xo, io, ro) = run(true, fgmres);
            assert_eq!(is, io, "iterations, nranks {nranks}, fgmres {fgmres}");
            assert_eq!(
                rs.to_bits(),
                ro.to_bits(),
                "relres, nranks {nranks}, fgmres {fgmres}"
            );
            assert_eq!(bits(&xs), bits(&xo), "x, nranks {nranks}, fgmres {fgmres}");
        }
    }
}

/// Single rank: no halo at all — every row is interior and the overlap
/// path must degrade to the purely local product.
#[test]
fn split_all_interior_single_rank() {
    let a = laplace2d(6, 6);
    let p = ParCsr::from_global_rows(&a, 0, 36, vec![0, 36], 0);
    assert_eq!(p.interior_rows.len(), 36);
    assert!(p.boundary_rows.is_empty());
    let x = rhs::random(36, 1);
    let starts = vec![0usize, 36];
    let sync = spmv_all_ranks(&a, &starts, &x, false);
    let over = spmv_all_ranks(&a, &starts, &x, true);
    assert_eq!(bits(&sync), bits(&over));
}

/// Two decoupled blocks split at the block boundary: both ranks are
/// all-interior *with a peer present* — the plan has no traffic and the
/// overlap window covers the entire (local) computation.
#[test]
fn split_all_interior_two_ranks() {
    let block = laplace2d(4, 4);
    let nb = block.nrows();
    let mut trips = Vec::new();
    for bi in 0..2 {
        for i in 0..nb {
            for (c, v) in block.row_iter(i) {
                trips.push((bi * nb + i, bi * nb + c, v));
            }
        }
    }
    let a = Csr::from_triplets(2 * nb, 2 * nb, trips);
    let starts = vec![0, nb, 2 * nb];
    let x = rhs::random(2 * nb, 9);
    let (splits, _) = run_ranks(2, |c| {
        let r = c.rank();
        let pa = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
        (pa.interior_rows.len(), pa.boundary_rows.len())
    });
    for (r, &(ni, nb_)) in splits.iter().enumerate() {
        assert_eq!(ni, nb, "rank {r} interior");
        assert_eq!(nb_, 0, "rank {r} boundary");
    }
    let sync = spmv_all_ranks(&a, &starts, &x, false);
    let over = spmv_all_ranks(&a, &starts, &x, true);
    assert_eq!(bits(&sync), bits(&over));
}

/// One grid row per rank: every local row couples to a neighbor slab, so
/// the interior set is empty and the overlap path does all its work after
/// `finish` — still bitwise identical.
#[test]
fn split_all_boundary_ranks() {
    let a = laplace2d(4, 4);
    let starts = default_partition(16, 4);
    let (splits, _) = run_ranks(4, |c| {
        let r = c.rank();
        let pa = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
        (pa.interior_rows.len(), pa.boundary_rows.len())
    });
    for (r, &(ni, nb)) in splits.iter().enumerate() {
        assert_eq!(ni, 0, "rank {r} interior");
        assert_eq!(nb, 4, "rank {r} boundary");
    }
    let x = rhs::random(16, 2);
    let sync = spmv_all_ranks(&a, &starts, &x, false);
    let over = spmv_all_ranks(&a, &starts, &x, true);
    assert_eq!(bits(&sync), bits(&over));
}

/// A rank owning zero rows (duplicate partition boundary) participates in
/// both halo modes without deadlocking or panicking.
#[test]
fn split_empty_rank() {
    let a = laplace2d(4, 4);
    let starts = vec![0usize, 8, 8, 16];
    let x = rhs::random(16, 5);
    let mut y_ref = vec![0.0; 16];
    famg::sparse::spmv::spmv_seq(&a, &x, &mut y_ref);
    for overlap in [false, true] {
        let y = spmv_all_ranks(&a, &starts, &x, overlap);
        assert_eq!(y.len(), 16);
        for (u, v) in y.iter().zip(&y_ref) {
            assert!((u - v).abs() < 1e-12, "overlap {overlap}");
        }
    }
    let sync = spmv_all_ranks(&a, &starts, &x, false);
    let over = spmv_all_ranks(&a, &starts, &x, true);
    assert_eq!(bits(&sync), bits(&over));
}

/// Hardened `owner_of`: an index beyond the partition reports the index
/// and the partition extent instead of a raw slice panic (release mode
/// included).
#[test]
fn owner_of_out_of_partition_reports_diagnostic() {
    let err = catch_unwind(|| owner_of(&[0, 4, 8], 8)).unwrap_err();
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("outside the partition extent 8") && msg.contains("2 ranks"),
        "unexpected panic message: {msg}"
    );
    let err = catch_unwind(|| owner_of(&[], 0)).unwrap_err();
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("partition extent"), "empty starts: {msg}");
}

/// Hardened payload validation: ranks executing *different* plans for the
/// same tag abort with a diagnostic on both sides instead of corrupting
/// buffers (the old `debug_assert` let release builds copy mismatched
/// slices or die inside `copy_from_slice`).
#[test]
fn mismatched_plans_panic_on_both_ranks() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_ranks(2, |c| {
            let r = c.rank();
            let starts = vec![0usize, 4, 8];
            // Plan A requests two halo entries per rank, plan B one.
            let colmap_a: Vec<usize> = if r == 0 { vec![4, 5] } else { vec![0, 1] };
            let colmap_b: Vec<usize> = if r == 0 { vec![4] } else { vec![0] };
            let plan_a = VectorExchange::plan(c, &colmap_a, &starts);
            let plan_b = VectorExchange::plan(c, &colmap_b, &starts);
            let x = vec![1.0; 4];
            // Rank 0 executes plan A while rank 1 executes plan B: each
            // side receives a payload sized for the *other* plan.
            if r == 0 {
                plan_a.exchange(c, &x)
            } else {
                plan_b.exchange(c, &x)
            }
        });
    }));
    assert!(result.is_err(), "mismatched plans must not exchange");
}

/// Typed dimension errors from the kernel `try_` variants (PR 6
/// convention): mis-sized vectors surface as `SolveError` before any
/// message is posted, so all ranks fail symmetrically with no deadlock.
#[test]
fn kernel_try_variants_reject_bad_shapes() {
    let a = laplace2d(4, 4);
    let starts = default_partition(16, 2);
    run_ranks(2, |c| {
        let r = c.rank();
        let pa = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
        let plan = VectorExchange::plan(c, &pa.colmap, &starts);
        let n = pa.local_rows();
        for overlap in [false, true] {
            let x = vec![0.0; n + 1];
            let mut y = vec![0.0; n];
            let err = try_dist_spmv(c, &pa, &plan, &x, &mut y, overlap).unwrap_err();
            assert!(matches!(
                err,
                SolveError::DimensionMismatch {
                    what: "local x (owned columns)",
                    ..
                }
            ));
            let x = vec![0.0; n];
            let mut y = vec![0.0; n + 3];
            let err = try_dist_spmv(c, &pa, &plan, &x, &mut y, overlap).unwrap_err();
            assert!(matches!(
                err,
                SolveError::DimensionMismatch {
                    what: "local y (owned rows)",
                    ..
                }
            ));
            let b = vec![0.0; n - 1];
            let mut res = vec![0.0; n];
            let err =
                try_dist_residual_rows(c, &pa, &plan, &x, &b, &mut res, 1, overlap).unwrap_err();
            assert!(matches!(
                err,
                SolveError::DimensionMismatch {
                    what: "local right-hand side",
                    ..
                }
            ));
        }
        // A plan that does not match the operator's offd width is caught
        // up front, too (both ranks plan the mismatch collectively).
        let empty_plan = VectorExchange::plan(c, &[], &starts);
        if !pa.colmap.is_empty() {
            let x = vec![0.0; n];
            let mut y = vec![0.0; n];
            let err = try_dist_spmv(c, &pa, &empty_plan, &x, &mut y, false).unwrap_err();
            assert!(matches!(
                err,
                SolveError::DimensionMismatch {
                    what: "halo plan external length",
                    ..
                }
            ));
        }
    });
}

/// The overlapped solve records exposed-wait telemetry: every `finish`
/// splits the would-be synchronous wait into `halo_exposed_ns` +
/// `halo_hidden_ns`. Individual values are timing-dependent, but across
/// a whole solve some rank is always late at some exchange, so the sum
/// over ranks and both counters must be positive (the comm_volume bench
/// gates the on-vs-off comparison).
#[test]
fn solve_profile_carries_exposed_wait_counter() {
    if !famg_prof::enabled() {
        return;
    }
    let a = laplace2d(12, 12);
    let starts = default_partition(a.nrows(), 2);
    let cfg = AmgConfig::single_node_paper();
    let b = rhs::ones(a.nrows());
    let (waits, _) = run_ranks(2, |c| {
        let r = c.rank();
        let pa = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
        let h = DistHierarchy::build(c, pa, &cfg, flags(true));
        let bl = b[starts[r]..starts[r + 1]].to_vec();
        let mut xl = vec![0.0; bl.len()];
        let res = dist_amg_solve(c, &h, &bl, &mut xl);
        assert!(res.converged);
        res.profile.total_counter("halo_exposed_ns") + res.profile.total_counter("halo_hidden_ns")
    });
    assert!(
        waits.iter().sum::<u64>() > 0,
        "no halo wait recorded across an entire two-rank solve"
    );
}
