//! Scratch microbenchmark behind `results/pr18_e2e/README.md`: the Krylov
//! recurrences' own cost (identity preconditioner, fixed iteration count)
//! and distributed PCG, which no `e2e` workload runs. Own package, path
//! dependencies on one tree, built once per side; sides alternated.
use famg_core::params::AmgConfig;
use famg_dist::comm::run_ranks;
use famg_dist::hierarchy::{DistHierarchy, DistOptFlags};
use famg_dist::parcsr::{default_partition, ParCsr};
use famg_dist::solve::dist_pcg_amg;
use famg_krylov::cg::{cg, cg_batch, CgOptions};
use famg_krylov::{fgmres, FgmresOptions, IdentityPrecond};
use famg_matgen::{laplace3d_7pt, rhs};
use famg_sparse::MultiVec;
use std::hint::black_box;
use std::time::Instant;

/// Lower quartile and median of `reps` timed calls.
fn timed(reps: usize, mut f: impl FnMut()) -> (f64, f64) {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    v.sort_by(f64::total_cmp);
    if std::env::var("MB_MIN").is_ok() {
        return (v[0], v[reps / 4]);
    }
    (v[reps / 4], v[reps / 2])
}

fn reps() -> usize {
    std::env::var("MB_REPS").ok().and_then(|v| v.parse().ok()).unwrap_or(15)
}

fn serial() {
    let a = laplace3d_7pt(64, 64, 48);
    let n = a.nrows();
    let never = 1e-300;
    let cols: Vec<Vec<f64>> = (0..4).map(|j| rhs::random(n, 7 + j)).collect();
    let b4 = MultiVec::from_columns(&cols);
    let opts = CgOptions { tolerance: never, max_iterations: 25 };
    let (q, m) = timed(reps(), || {
        let mut x = MultiVec::new(n, 4);
        black_box(cg_batch(&a, &b4, &mut x, &IdentityPrecond, &opts));
    });
    println!("cg_batch_k4_identity_25it {q:.6e} {m:.6e}");
    let (q, m) = timed(reps(), || {
        let mut x = vec![0.0; n];
        black_box(cg(&a, &cols[0], &mut x, &IdentityPrecond, &opts));
    });
    println!("cg_identity_25it {q:.6e} {m:.6e}");
    let fopts = FgmresOptions { tolerance: never, max_iterations: 40, restart: 20 };
    let (q, m) = timed(reps(), || {
        let mut x = vec![0.0; n];
        black_box(fgmres(&a, &cols[0], &mut x, &IdentityPrecond, &fopts));
    });
    println!("fgmres_identity_r20_40it {q:.6e} {m:.6e}");
}

fn dist() {
    let a = laplace3d_7pt(48, 48, 48);
    let n = a.nrows();
    let b = rhs::ones(n);
    let starts = default_partition(n, 2);
    let cfg = AmgConfig::multi_node_ei4();
    let (out, _) = run_ranks(2, |c| {
        let r = c.rank();
        let pa = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
        let h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
        let bl = b[starts[r]..starts[r + 1]].to_vec();
        let mut its = 0;
        let t = timed(reps(), || {
            let mut xl = vec![0.0; bl.len()];
            c.barrier();
            its = dist_pcg_amg(c, &h, &bl, &mut xl, 1e-8, 100).iterations;
        });
        (t, its)
    });
    let ((q, m), its) = out[0];
    println!("dist_pcg_amg_2r_{its}it {q:.6e} {m:.6e}");
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("dist") => dist(),
        _ => serial(),
    }
}
