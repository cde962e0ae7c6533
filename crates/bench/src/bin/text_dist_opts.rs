//! §4.2 / §4.3 / §4.4 in-text claims about the multi-node optimizations:
//!
//! 1. Parallel column-index renumbering speeds the distributed RAP
//!    (paper: 2.6–3.5× on 128 nodes).
//! 2. Filtering remote interpolation rows cuts the interpolation
//!    communication volume by more than 3×.
//! 3. Persistent communication reduces halo-exchange cost (paper:
//!    1.7–1.8× on the exchange itself).
//!
//! Usage: `cargo run --release -p famg-bench --bin text_dist_opts
//!         [--ranks 8] [--size 48]`

use famg_bench::{arg_value, fmt_secs, timed};
use famg_dist::coarsen::dist_pmis;
use famg_dist::comm::run_ranks;
use famg_dist::halo::{exchange_adhoc, VectorExchange};
use famg_dist::interp::{dist_extended_i, dist_strength};
use famg_dist::parcsr::{default_partition, ParCsr};
use famg_dist::spgemm::{dist_rap, dist_transpose};
use famg_matgen::{laplace3d_7pt, rhs};

fn main() {
    let nranks: usize = arg_value("--ranks")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let size: usize = arg_value("--size")
        .and_then(|v| v.parse().ok())
        .unwrap_or(48);
    let a = laplace3d_7pt(size, size, size.max(nranks * 4));
    let n = a.nrows();
    let starts = default_partition(n, nranks);
    println!("== §4 distributed optimizations: {n} rows on {nranks} ranks ==\n");

    // --- 1. Renumbering: sequential vs parallel in distributed RAP. ---
    for par in [false, true] {
        let ((), dt) = timed(|| {
            let (_, _) = run_ranks(nranks, |c| {
                let r = c.rank();
                let pa = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
                let ps = dist_strength(&pa, 0.25, 0.8, r);
                let dc = dist_pmis(c, &ps, 3);
                let plan = VectorExchange::plan(c, &pa.colmap, &pa.col_starts);
                let p = dist_extended_i(c, &pa, &plan, &ps, &dc, None, true);
                dist_rap(c, &dist_transpose(c, &p), &pa, &p, par)
            });
        });
        println!(
            "RAP with {} renumbering: {}",
            if par { "parallel  " } else { "sequential" },
            fmt_secs(dt)
        );
    }
    println!("(paper: parallel renumbering speeds RAP 2.6-3.5x on 128 nodes)\n");

    // --- 2. §4.3 filter: interpolation-construction bytes. ---
    // Measured on the 27-point Laplacian (the paper's weak-scaling
    // input), whose fat remote rows are where the filter pays off.
    let a27 = famg_matgen::laplace3d_27pt(size / 2, size / 2, (size / 2).max(nranks * 3));
    let starts27 = default_partition(a27.nrows(), nranks);
    let bytes = |filter: bool| {
        let (_, report) = run_ranks(nranks, |c| {
            let r = c.rank();
            let pa =
                ParCsr::from_global_rows(&a27, starts27[r], starts27[r + 1], starts27.clone(), r);
            let ps = dist_strength(&pa, 0.25, 0.8, r);
            let dc = dist_pmis(c, &ps, 3);
            let plan = VectorExchange::plan(c, &pa.colmap, &pa.col_starts);
            dist_extended_i(c, &pa, &plan, &ps, &dc, None, filter)
        });
        report.total_bytes()
    };
    let full = bytes(false);
    let filt = bytes(true);
    println!(
        "interp construction bytes (27-pt, {} rows): full rows {full}, filtered {filt}",
        a27.nrows()
    );
    println!(
        "volume reduction: {:.2}x   (paper: >3x)\n",
        full as f64 / filt as f64
    );

    // --- 3. Persistent vs ad-hoc halo exchange. ---
    let iters = 200usize;
    let x = rhs::ones(n);
    for persistent in [false, true] {
        let ((), dt) = timed(|| {
            let (_, _) = run_ranks(nranks, |c| {
                let r = c.rank();
                let pa = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
                let xl = x[starts[r]..starts[r + 1]].to_vec();
                if persistent {
                    let plan = VectorExchange::plan(c, &pa.colmap, &starts);
                    for _ in 0..iters {
                        std::hint::black_box(plan.exchange(c, &xl));
                    }
                } else {
                    for _ in 0..iters {
                        std::hint::black_box(exchange_adhoc(c, &pa.colmap, &starts, &xl));
                    }
                }
            });
        });
        println!(
            "{iters} halo exchanges, {}: {}",
            if persistent {
                "persistent plan"
            } else {
                "ad-hoc (re-planned)"
            },
            fmt_secs(dt)
        );
    }
    println!("(paper: persistent communication speeds halo exchange 1.7-1.8x)");
}
