//! §3.1.1 in-text claims:
//!
//! 1. Row-fused RAP (Fig. 1a) performs fewer floating-point operations
//!    than HYPRE's scalar fusion (Fig. 1b) — the paper measures 1.73×
//!    fewer on the finest-level triple product, averaged over the suite.
//! 2. Re-running the numeric phase over a frozen symbolic pattern (no
//!    sparse-accumulator branches) bounds the branching overhead — the
//!    paper measures a 2.1× speedup.
//!
//! A second table times the setup kernels' variants side by side on one
//! 192² Laplacian fixture: SpGEMM two-pass / one-pass / numeric-only, the
//! four Galerkin triple products (unfused, Fig. 1b, Fig. 1a, CF-block),
//! and the sequential vs parallel transpose.
//!
//! Usage: `cargo run --release -p famg-bench --bin text_flops_fusion
//!         [--scale 0.15]`

use famg_bench::{arg_scale, best_of, fmt_secs, rap_fixture, rap_fixture_2d};
use famg_core::coarsen::pmis;
use famg_core::interp::{extended_i, CfMap, TruncParams};
use famg_core::reorder::cf_reorder;
use famg_core::strength::strength;
use famg_matgen::{laplace2d, suite};
use famg_sparse::permute::permute_symmetric;
use famg_sparse::spgemm::{numeric_only, spgemm_one_pass, spgemm_two_pass};
use famg_sparse::transpose::{transpose, transpose_par};
use famg_sparse::triple::{
    rap_cf_from_parts, rap_row_fused, rap_row_fused_flops, rap_scalar_fused,
    rap_scalar_fused_flops, rap_unfused,
};
use famg_sparse::Csr;
use std::time::Duration;

fn main() {
    let scale = arg_scale(0.15);
    println!("== §3.1.1: RAP flop ratio and branch-overhead bound (scale {scale}) ==\n");
    println!(
        "{:<16} {:>14} {:>14} {:>7} | {:>10} {:>10} {:>7}",
        "matrix", "rowfused flops", "scalar flops", "ratio", "full mult", "numeric", "speedup"
    );
    let mut ratio_sum = 0.0;
    let mut branch_sum = 0.0;
    let mut count = 0usize;
    for m in suite() {
        let a = (m.gen)(scale);
        let f = rap_fixture(a, 42);
        let fr = rap_row_fused_flops(&f.r, &f.a, &f.p);
        let fs = rap_scalar_fused_flops(&f.r, &f.a, &f.p);
        let ratio = fs.total() as f64 / fr.total() as f64;
        // Branch-overhead bound on the building-block SpGEMM (R·A).
        let (mut c, t_full) = best_of(3, || spgemm_one_pass(&f.r, &f.a));
        let ((), t_numeric) = best_of(3, || numeric_only(&f.r, &f.a, &mut c));
        let branch = t_full.as_secs_f64() / t_numeric.as_secs_f64();
        ratio_sum += ratio;
        branch_sum += branch;
        count += 1;
        println!(
            "{:<16} {:>14} {:>14} {:>6.2}x | {:>10} {:>10} {:>6.2}x",
            m.name,
            fr.total(),
            fs.total(),
            ratio,
            famg_bench::fmt_secs(t_full),
            famg_bench::fmt_secs(t_numeric),
            branch
        );
    }
    println!(
        "\nmean flop ratio (scalar/rowfused): {:.2}x   (paper: 1.73x)",
        ratio_sum / count as f64
    );
    println!(
        "mean branch-overhead bound:        {:.2}x   (paper: 2.1x)",
        branch_sum / count as f64
    );
    kernel_variants();
}

/// Times each setup-kernel variant (best of five) on a 192² Laplacian.
fn kernel_variants() {
    const SIDE: usize = 192;
    println!("\n== setup kernel variants, {SIDE}x{SIDE} Laplacian fixture (best of 5) ==\n");
    let row = |name: &str, t: Duration| println!("{name:<36} {:>10}", fmt_secs(t));
    let f = rap_fixture_2d(SIDE, 3);
    let (_, t) = best_of(5, || spgemm_two_pass(&f.r, &f.a));
    row("SpGEMM R*A two-pass", t);
    let (mut c, t) = best_of(5, || spgemm_one_pass(&f.r, &f.a));
    row("SpGEMM R*A one-pass", t);
    let ((), t) = best_of(5, || numeric_only(&f.r, &f.a, &mut c));
    row("SpGEMM R*A numeric-only re-run", t);

    let (_, t) = best_of(5, || rap_unfused(&f.r, &f.a, &f.p));
    row("RAP unfused (two SpGEMMs)", t);
    let (_, t) = best_of(5, || rap_scalar_fused(&f.r, &f.a, &f.p));
    row("RAP scalar-fused (Fig. 1b)", t);
    let (_, t) = best_of(5, || rap_row_fused(&f.r, &f.a, &f.p));
    row("RAP row-fused (Fig. 1a)", t);
    // The CF-block product needs the CF-ordered operator and the fine
    // rows of P (its coarse rows are the identity).
    let a = laplace2d(SIDE, SIDE);
    let s = strength(&a, 0.25, 0.8);
    let (ap, ord) = cf_reorder(&a, &pmis(&s, 3).is_coarse);
    let cf = CfMap::new((0..a.nrows()).map(|i| i < ord.nc).collect());
    let p = extended_i(
        &ap,
        &permute_symmetric(&s, &ord.perm),
        &cf,
        Some(&TruncParams::paper()),
    );
    let lo = p.rowptr()[ord.nc];
    let pf = Csr::from_parts_unchecked(
        p.nrows() - ord.nc,
        p.ncols(),
        p.rowptr()[ord.nc..].iter().map(|&x| x - lo).collect(),
        p.colidx()[lo..].to_vec(),
        p.values()[lo..].to_vec(),
    );
    let (_, t) = best_of(5, || rap_cf_from_parts(&ap, ord.nc, &pf));
    row("RAP CF-block (fine block only)", t);

    let (_, t) = best_of(5, || transpose(&f.p));
    row("transpose P, sequential", t);
    let (_, t) = best_of(5, || transpose_par(&f.p));
    row("transpose P, parallel counting sort", t);
}
