//! Prints what the re-recorded `dist/*` pins stand for: the iteration
//! counts behind each distributed row of `tests/solve_fingerprints.rs` and
//! the level sizes behind each build of `tests/hierarchy_fingerprints.rs`,
//! on the same operators and configurations as those tests.
//!
//! Run it in a checkout: copy it to `tests/pin_probe.rs`, then
//! `cargo test --release --test pin_probe -- --nocapture`.

use famg::core::AmgConfig;
use famg::dist::comm::run_ranks;
use famg::dist::hierarchy::{DistHierarchy, DistOptFlags};
use famg::dist::parcsr::{default_partition, ParCsr};
use famg::dist::solve::{dist_amg_solve, dist_amg_solve_multi, dist_fgmres_amg, dist_pcg_amg};
use famg::matgen::{laplace2d, reservoir_field, varcoef3d_7pt};
use famg::sparse::multivec::MultiVec;

fn rhs_columns(n: usize, k: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|j| {
            (0..n)
                .map(|i| ((i * (2 * j + 3) + 7 * j) % 17) as f64 / 17.0 - 0.4)
                .collect()
        })
        .collect()
}

#[test]
fn solve_rows() {
    let a = laplace2d(48, 48);
    let n = a.nrows();
    let cfg = AmgConfig::multi_node_ei4();
    for nranks in [1usize, 2] {
        for overlap in [true, false] {
            let dopt = DistOptFlags {
                overlap_comm: overlap,
                ..DistOptFlags::default()
            };
            let starts = default_partition(n, nranks);
            let (per_rank, _) = run_ranks(nranks, |c| {
                let r = c.rank();
                let (s, e) = (starts[r], starts[r + 1]);
                let pa = ParCsr::from_global_rows(&a, s, e, starts.clone(), r);
                let h = DistHierarchy::build(c, pa, &cfg, dopt);
                let local = |k: usize| -> Vec<Vec<f64>> {
                    (rhs_columns(n, k).iter())
                        .map(|col| col[s..e].to_vec())
                        .collect()
                };
                let bl = &local(1)[0];
                let mut rows: Vec<(String, String)> = Vec::new();
                let mut xl = vec![0.0; e - s];
                let res = dist_amg_solve(c, &h, bl, &mut xl);
                rows.push(("amg".into(), res.iterations.to_string()));
                let mut xl = vec![0.0; e - s];
                let res = dist_fgmres_amg(c, &h, bl, &mut xl, cfg.tolerance, 200, 30);
                rows.push(("fgmres".into(), res.iterations.to_string()));
                for k in [1usize, 3, 4, 9] {
                    let bb = MultiVec::from_columns(&local(k));
                    let mut xb = MultiVec::new(e - s, k);
                    let res = dist_amg_solve_multi(c, &h, &bb, &mut xb);
                    rows.push((format!("amg_multi/k{k}"), format!("{:?}", res.iterations)));
                }
                let mut xl = vec![0.0; e - s];
                let res = dist_pcg_amg(c, &h, bl, &mut xl, cfg.tolerance, 200);
                rows.push(("pcg".into(), res.iterations.to_string()));
                (rows, h.stats.level_rows.clone())
            });
            let mode = if overlap { "overlap" } else { "sync" };
            for (label, iters) in &per_rank[0].0 {
                println!("solve dist/{nranks}r/{mode}/{label} | {iters}");
            }
            println!("solve-levels dist/{nranks}r/{mode} | {:?}", per_rank[0].1);
        }
    }
}

#[test]
fn hierarchy_rows() {
    let k = reservoir_field(12, 12, 8, 4, 2.0, 2, 2026);
    let operators = [
        ("laplace2d", laplace2d(48, 48)),
        ("varcoef3d_7pt", varcoef3d_7pt(12, 12, 8, &k)),
    ];
    let configs = [
        ("mp", AmgConfig::multi_node_mp()),
        ("ei4", AmgConfig::multi_node_ei4()),
        ("2s_ei444", AmgConfig::multi_node_2s_ei444()),
    ];
    for (oname, a) in &operators {
        for (cname, cfg) in &configs {
            for nranks in [1usize, 2] {
                let starts = default_partition(a.nrows(), nranks);
                let (per_rank, _) = run_ranks(nranks, |c| {
                    let r = c.rank();
                    let pa =
                        ParCsr::from_global_rows(a, starts[r], starts[r + 1], starts.clone(), r);
                    let h = DistHierarchy::build(c, pa, cfg, DistOptFlags::all());
                    (h.stats.level_rows.clone(), h.stats.level_nnz.clone())
                });
                let (rows, nnz) = &per_rank[0];
                println!("build dist/{oname}/{cname}/{nranks}r/build | rows {rows:?} | nnz {nnz:?}");
            }
        }
    }
}
