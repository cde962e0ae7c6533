//! Scratch probe behind the "tape's price" table of
//! `results/pr21_e2e/README.md` and EXPERIMENTS.md (PR 21). Own package
//! (empty `[workspace]`), path dependencies on a scratch copy of the change
//! tree whose only edit is `pub fn words(&self) -> usize` on `ExtITape`
//! (the sum of the lengths of its `u32` streams, `KOp`s counted as four
//! words, `em_keep` as a quarter word per flag).
//!
//! It walks the levels of the `reservoir_steps` (or `lap3d27_setup`)
//! operator with the library's public kernels — `strength`, `pmis`,
//! `cf_reorder`, `ExtITape::capture`, `rap_row_fused` — at `e2e`'s solver
//! settings, and per level prints the tape's size beside `P`'s and, as the
//! fastest of five runs in ms on the pool: the plain truncated kernel, the
//! untruncated kernel (what a tape-less refresh would re-run), the
//! recording run, and a replay.
use famg_core::coarsen::pmis;
use famg_core::interp::{extended_i, CfMap, ExtITape, TruncParams};
use famg_core::params::AmgConfig;
use famg_core::reorder::cf_reorder;
use famg_core::strength::strength;
use famg_matgen::{laplace3d_27pt, reservoir_field, varcoef3d_7pt};
use famg_sparse::permute::permute_symmetric;
use famg_sparse::transpose::transpose_par;
use famg_sparse::triple::rap_row_fused;
use std::time::Instant;

fn fastest<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..5 {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (best, out.expect("five runs"))
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or("reservoir_steps".into());
    let mut cur = match name.as_str() {
        "reservoir_steps" => {
            let (nx, ny, nz) = (80, 80, 40);
            varcoef3d_7pt(nx, ny, nz, &reservoir_field(nx, ny, nz, 8, 3.0, 2, 1))
        }
        "lap3d27_setup" => laplace3d_27pt(64, 64, 64),
        _ => panic!("unknown operator {name}"),
    };
    let cfg = AmgConfig::single_node_paper();
    let t = TruncParams { factor: cfg.trunc_factor, max_elements: cfg.max_elements };
    println!("{name}: level n nnz(A) nnz(P raw) nnz(P) tape_words tape_MB | ms: extended_i(trunc) extended_i(raw) capture replay");
    for lvl in 0..cfg.max_levels - 1 {
        let n = cur.nrows();
        if n <= cfg.coarse_solve_size {
            break;
        }
        let s = strength(&cur, cfg.strength_threshold, cfg.max_row_sum);
        let c = pmis(&s, cfg.seed.wrapping_add(lvl as u64));
        if c.ncoarse == 0 || c.ncoarse == n {
            break;
        }
        let (ap, ord) = cf_reorder(&cur, &c.is_coarse);
        let sp = permute_symmetric(&s, &ord.perm);
        let cf = CfMap::new((0..n).map(|i| i < ord.nc).collect());
        let (t_trunc, p_ref) = fastest(|| extended_i(&ap, &sp, &cf, Some(&t)));
        let (t_raw, raw) = fastest(|| extended_i(&ap, &sp, &cf, None));
        let (t_cap, (p, tape)) = fastest(|| ExtITape::capture(&ap, &sp, &cf, Some(&t)));
        assert_eq!(p, p_ref);
        let (t_rep, replayed) = fastest(|| tape.replay(&ap, &p).expect("same operand"));
        assert_eq!(replayed, p);
        let words = tape.words();
        println!(
            "{lvl} {n} {} {} {} {words} {:.1} | {t_trunc:.1} {t_raw:.1} {t_cap:.1} {t_rep:.1}",
            ap.nnz(),
            raw.nnz(),
            p.nnz(),
            words as f64 * 4.0 / 1e6
        );
        cur = rap_row_fused(&transpose_par(&p), &ap, &p);
    }
}
