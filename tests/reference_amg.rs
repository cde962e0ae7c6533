//! Every level of the serial setup, of a refreshed one and of the 1-, 2-
//! and 4-rank distributed setup, pinned step by step to the reference AMG
//! in `common::reference`; and the iteration counts of standalone AMG and
//! AMG-preconditioned CG pinned to the reference's solve.
//!
//! Each step is fed the library's own inputs, so a fault shows at the
//! step that makes it instead of cascading: on a level's raw operator `A`
//! (the stored one read back through its permutation),
//! - the library's strength pattern is the reference's;
//! - its C set is the reference PMIS of that pattern;
//! - its `P` (serially `[I; P_F]` read back through the permutation) is
//!   Eq. 1 truncated, to 1e-12 of each row's largest weight;
//! - the next level's raw operator is `PᵀAP` of the library's `P`, to
//!   1e-12 of each row's largest entry.
//!
//! On a level the reference does not model (aggressive PMIS with multipass
//! or two-stage extended+i), the strength pattern, the independence of the
//! C set, the unit rows of the C-points and `PᵀAP` are pinned.

mod common;

use common::reference::{self as re, Dense, Graph};
use common::{graph_laplacian, FuzzRng};
use famg::core::hierarchy::{Hierarchy, Level};
use famg::core::interp::TruncParams;
use famg::core::params::{CoarsenKind, InterpKind};
use famg::core::rng::uniform01;
use famg::core::strength::strength;
use famg::core::{AmgConfig, AmgSolver};
use famg::dist::comm::run_ranks;
use famg::dist::interp::dist_strength;
use famg::dist::parcsr::{default_partition, ParCsr};
use famg::dist::{DistHierarchy, DistOptFlags};
use famg::krylov::cg::{cg, CgOptions};
use famg::matgen::{
    amg2013_like, laplace2d, laplace2d_rotated_aniso, laplace3d_27pt, reservoir_matrix,
    varcoef3d_7pt,
};
use famg::sparse::Csr;

/// Small operators of every kind the suites use: Laplacians, a rotated
/// anisotropy with same-sign couplings, coefficient jumps, the reservoir
/// and AMG2013 operators and a random graph Laplacian.
fn corpus() -> Vec<(&'static str, Csr)> {
    let (nx, ny, nz) = (6, 6, 6);
    let k: Vec<f64> = (0..nx * ny * nz)
        .map(|i| 10f64.powf(4.0 * uniform01(0xC0EF, i as u64) - 2.0))
        .collect();
    let mut rng = FuzzRng::new(0x5EED);
    vec![
        ("laplace2d", laplace2d(14, 14)),
        ("rotated_aniso", laplace2d_rotated_aniso(12, 12, 0.01, 0.5)),
        ("laplace3d_27pt", laplace3d_27pt(5, 5, 5)),
        ("varcoef3d", varcoef3d_7pt(nx, ny, nz, &k)),
        ("reservoir", reservoir_matrix(6, 6, 4, 7)),
        ("amg2013", amg2013_like(5, 5, 5, 2, 2.0, 3)),
        ("graph", graph_laplacian(&mut rng, 120, 180, 0.0)),
    ]
}

/// The three schemes of the paper's tables, coarsened to 16 rows so each
/// build has several levels.
fn configs() -> Vec<(&'static str, AmgConfig)> {
    [
        ("ei4", AmgConfig::single_node_paper()),
        ("mp", AmgConfig::multi_node_mp()),
        ("2s-ei444", AmgConfig::multi_node_2s_ei444()),
    ]
    .into_iter()
    .map(|(name, cfg)| {
        let cfg = AmgConfig {
            coarse_solve_size: 16,
            ..cfg
        };
        (name, cfg)
    })
    .collect()
}

/// One level of a library build, on its raw ordering.
struct LibLevel {
    /// The level's operator.
    a: Dense,
    /// The library's strength matrix of `a`.
    s: Graph,
    /// The library's C set.
    is_coarse: Vec<bool>,
    /// The library's interpolation (`n × nc`).
    p: Dense,
}

/// What the pins saw: levels pinned to the reference, levels checked
/// without it, and interpolation rows whose truncation tied.
#[derive(Default, Debug)]
struct Tally {
    modeled: usize,
    unmodeled: usize,
    ties: usize,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, t: Tally) {
        self.modeled += t.modeled;
        self.unmodeled += t.unmodeled;
        self.ties += t.ties;
    }
}

/// Pins level `idx` of a build, whose next raw operator is `next`.
fn pin_level(lvl: &LibLevel, next: &Dense, idx: usize, cfg: &AmgConfig, what: &str) -> Tally {
    let what = format!("{what}, level {idx}");
    let mut tally = Tally::default();
    let s = re::strength(&lvl.a, cfg.strength_threshold, cfg.max_row_sum);
    assert!(lvl.s == s, "{what}: the strength pattern differs");
    let scheme = cfg.level_scheme(idx);
    if scheme == (CoarsenKind::Pmis, InterpKind::ExtendedI) {
        let c = re::pmis(&lvl.s, cfg.level_seed(idx));
        assert!(lvl.is_coarse == c, "{what}: the C set differs");
        let rows = re::extended_i(
            &lvl.a,
            &lvl.s,
            &lvl.is_coarse,
            &mut re::Eq1Coverage::default(),
        );
        let t = TruncParams {
            factor: cfg.trunc_factor,
            max_elements: cfg.max_elements,
        };
        tally.ties = re::assert_interp(&lvl.p, &rows, &t, &what);
        tally.modeled = 1;
    } else {
        re::assert_independent(&lvl.s, &lvl.is_coarse, &what);
        re::assert_unit_coarse_rows(&lvl.p, &lvl.is_coarse, &what);
        tally.unmodeled = 1;
    }
    let nc = lvl.is_coarse.iter().filter(|&&c| c).count();
    assert!(
        lvl.p.iter().all(|row| row.len() == nc),
        "{what}: columns of P"
    );
    re::assert_close(
        next,
        &re::galerkin(&lvl.p, &lvl.a),
        1e-12,
        &format!("{what}: PᵀAP"),
    );
    tally
}

/// Pins the last level: the build stopped where the rules say it does,
/// and the coarse solve is the reference LU's.
fn pin_coarsest(a: &Dense, idx: usize, cfg: &AmgConfig, lu: Option<Vec<f64>>, what: &str) {
    let n = a.len();
    // Only a stall of the level's own scheme and seed ends a build early;
    // an unmodeled scheme's is taken as read.
    let stalls = || {
        let s = re::strength(a, cfg.strength_threshold, cfg.max_row_sum);
        let nc = re::pmis(&s, cfg.level_seed(idx))
            .iter()
            .filter(|&&c| c)
            .count();
        cfg.level_scheme(idx) != (CoarsenKind::Pmis, InterpKind::ExtendedI) || nc == 0 || nc == n
    };
    assert!(
        n <= cfg.coarse_solve_size || idx + 1 >= cfg.max_levels || stalls(),
        "{what}: the build stopped at level {idx} of {n} rows"
    );
    match lu {
        Some(x) => {
            let want = re::lu_solve(a, &coarse_rhs(n));
            re::assert_close(&vec![x], &vec![want], 1e-10, &format!("{what}: coarse LU"));
        }
        None => assert!(!cfg.coarse_lu_fits(n), "{what}: no coarse LU"),
    }
}

/// The right-hand side the coarse LU solves are compared on.
fn coarse_rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| uniform01(0xB, i as u64) - 0.5).collect()
}

/// A serial level's operator on its raw ordering, read back through its
/// permutation.
fn raw_operator(lvl: &Level) -> Dense {
    let stored = re::dense(&lvl.a);
    let old = |r: usize| lvl.perm.as_ref().map_or(r, |q| q.inverse[r]);
    let mut a = vec![vec![0.0; stored.len()]; stored.len()];
    for (r, row) in stored.iter().enumerate() {
        for (c, &v) in row.iter().enumerate() {
            a[old(r)][old(c)] = v;
        }
    }
    a
}

fn to_csr(a: &Dense) -> Csr {
    let trips = (a.iter().enumerate())
        .flat_map(|(i, row)| row.iter().enumerate().map(move |(j, &v)| (i, j, v)))
        .filter(|t| t.2 != 0.0);
    Csr::from_triplets(a.len(), a.len(), trips)
}

/// A serial level read back on its raw ordering: `P = [I; P_F]` and the C
/// set through the permutation, `S` by the library's strength of `a`.
fn serial_level(lvl: &Level, a: Dense, cfg: &AmgConfig, what: &str) -> LibLevel {
    let (q, ops) = (lvl.perm.as_ref(), lvl.ops.as_ref());
    let (q, ops) = (q.expect("a permutation"), ops.expect("transfer operators"));
    let (n, nc) = (a.len(), lvl.nc);
    let pf = re::dense(&ops.pf);
    let pft = re::dense(&ops.pft);
    for (f, row) in pf.iter().enumerate() {
        for (c, &v) in row.iter().enumerate() {
            assert!(
                pft[c][f] == v,
                "{what}: P_Fᵀ[{c}, {f}] is not P_F[{f}, {c}]"
            );
        }
    }
    let mut p = vec![vec![0.0; nc]; n];
    let mut is_coarse = vec![false; n];
    for r in 0..n {
        let i = q.inverse[r];
        if r < nc {
            p[i][r] = 1.0;
            is_coarse[i] = true;
        } else {
            p[i].clone_from(&pf[r - nc]);
        }
    }
    let s = re::pattern(&strength(
        &to_csr(&a),
        cfg.strength_threshold,
        cfg.max_row_sum,
    ));
    LibLevel { a, s, is_coarse, p }
}

/// Pins every level of a serial hierarchy built from `a0`.
fn pin_serial(h: &Hierarchy, a0: &Csr, what: &str) -> Tally {
    let cfg = &h.config;
    let mut tally = Tally::default();
    let mut a = raw_operator(&h.levels[0]);
    assert!(a == re::dense(a0), "{what}: level 0 is not the input");
    let last = h.levels.len() - 1;
    for idx in 0..last {
        let next = raw_operator(&h.levels[idx + 1]);
        let lvl = serial_level(&h.levels[idx], a, cfg, what);
        tally += pin_level(&lvl, &next, idx, cfg, what);
        a = next;
    }
    let lu = h
        .coarse_lu
        .as_ref()
        .map(|lu| lu.solve(&coarse_rhs(a.len())));
    pin_coarsest(&a, last, cfg, lu, what);
    tally
}

#[test]
fn serial_levels_match_the_reference() {
    let mut tally = Tally::default();
    for (name, a) in corpus() {
        for (scheme, cfg) in configs() {
            let h = Hierarchy::build(&a, &cfg);
            tally += pin_serial(&h, &a, &format!("{name}/{scheme}"));
        }
    }
    println!("serial: {tally:?}");
    assert!(tally.modeled >= 15 && tally.unmodeled >= 10, "{tally:?}");
}

#[test]
fn refreshed_levels_match_the_reference() {
    // A refresh replays the recorded levels over a drifted operator and
    // rebuilds the ones below them; either way the result is pinned to the
    // reference on the operator it absorbed.
    let (nx, ny, nz) = (7, 7, 5);
    let field = |shift: f64| -> Vec<f64> {
        (0..nx * ny * nz)
            .map(|i| {
                let x = (i % nx) as f64 / nx as f64;
                let t = (i / nx) as f64 / (ny * nz) as f64;
                let base = 1.0 + 0.5 * (6.0 * (x + t)).sin().powi(2);
                base * (1.0 + 1e-5 * shift * (9.0 * (x - t)).cos())
            })
            .collect()
    };
    let a1 = varcoef3d_7pt(nx, ny, nz, &field(0.0));
    let a2 = varcoef3d_7pt(nx, ny, nz, &field(0.35));
    for (scheme, cfg) in configs() {
        let (mut h, mut frozen) = Hierarchy::build_frozen(&a1, &cfg);
        for (step, a) in [&a2, &a1].into_iter().enumerate() {
            h.refresh(a, &mut frozen).expect("same pattern");
            pin_serial(&h, a, &format!("refresh {step}/{scheme}"));
        }
    }
}

/// Rank `rank`'s part of a distributed matrix, checked for the layout the
/// halo plans rely on: blocks of the owned rows' size, `colmap` strictly
/// ascending and naming only columns other ranks own, well-formed blocks;
/// written into `out`'s rows.
fn gather_part(m: &ParCsr, rank: usize, out: &mut Dense, what: &str) {
    let (c0, c1) = m.col_range(rank);
    let rows = m.row_end - m.row_start;
    assert_eq!((m.diag.nrows(), m.offd.nrows()), (rows, rows), "{what}");
    assert_eq!(m.diag.ncols(), c1 - c0, "{what}: diag block width");
    assert_eq!(m.offd.ncols(), m.colmap.len(), "{what}: offd block width");
    assert!(
        m.colmap.windows(2).all(|w| w[0] < w[1]),
        "{what}: colmap not strictly ascending on rank {rank}"
    );
    for &g in &m.colmap {
        assert!(
            g < m.global_cols && !(c0..c1).contains(&g),
            "{what}: colmap entry {g} on rank {rank} is not another rank's column"
        );
    }
    let (diag, offd) = (re::dense(&m.diag), re::dense(&m.offd));
    for i in 0..rows {
        let row = &mut out[m.row_start + i];
        row[c0..c1].copy_from_slice(&diag[i]);
        m.colmap
            .iter()
            .zip(&offd[i])
            .for_each(|(&g, &v)| row[g] = v);
    }
}

/// A distributed matrix from every rank's part.
fn gathered(parts: &[&ParCsr], what: &str) -> Dense {
    let n = parts.last().map_or(0, |p| p.row_end);
    let mut out = vec![vec![0.0; parts[0].global_cols]; n];
    for (rank, m) in parts.iter().enumerate() {
        gather_part(m, rank, &mut out, what);
    }
    out
}

/// One rank's view of a distributed level: its operator, `S`, C marker and
/// `P` parts.
struct RankLevel {
    a: ParCsr,
    s: Option<ParCsr>,
    is_coarse: Vec<bool>,
    p: Option<ParCsr>,
}

#[test]
fn distributed_levels_match_the_reference_on_1_2_4_ranks() {
    let mut tally = Tally::default();
    for (name, a0) in corpus().into_iter().take(3) {
        for (scheme, cfg) in configs() {
            for nranks in [1, 2, 4] {
                let what = format!("{name}/{scheme}/{nranks} ranks");
                let starts = default_partition(a0.nrows(), nranks);
                let (ranks, _) = run_ranks(nranks, |c| {
                    let r = c.rank();
                    let pa =
                        ParCsr::from_global_rows(&a0, starts[r], starts[r + 1], starts.clone(), r);
                    let h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
                    let levels: Vec<RankLevel> = (h.levels.iter())
                        .map(|l| RankLevel {
                            a: l.a.clone(),
                            s: l.p.as_ref().map(|_| {
                                dist_strength(&l.a, cfg.strength_threshold, cfg.max_row_sum, r)
                            }),
                            is_coarse: l.is_coarse.clone(),
                            p: l.p.clone(),
                        })
                        .collect();
                    let lu = h.coarse_lu.as_ref().map(|lu| {
                        let n = h.levels.last().expect("a level").a.global_cols;
                        lu.solve(&coarse_rhs(n))
                    });
                    (levels, lu)
                });
                let nlev = ranks[0].0.len();
                assert!(
                    ranks.iter().all(|r| r.0.len() == nlev),
                    "{what}: level counts"
                );
                let level = |idx: usize| ranks.iter().map(|r| &r.0[idx]).collect::<Vec<_>>();
                let mut a = gathered(&level(0).iter().map(|l| &l.a).collect::<Vec<_>>(), &what);
                assert!(a == re::dense(&a0), "{what}: level 0 is not the input");
                for idx in 0..nlev - 1 {
                    let parts = level(idx);
                    let next = level(idx + 1).iter().map(|l| &l.a).collect::<Vec<_>>();
                    let next = gathered(&next, &what);
                    let s = parts
                        .iter()
                        .map(|l| l.s.as_ref().expect("S"))
                        .collect::<Vec<_>>();
                    let s: Graph = (gathered(&s, &what).iter())
                        .map(|row| (0..row.len()).filter(|&j| row[j] != 0.0).collect())
                        .collect();
                    let p = parts
                        .iter()
                        .map(|l| l.p.as_ref().expect("P"))
                        .collect::<Vec<_>>();
                    let lvl = LibLevel {
                        p: gathered(&p, &what),
                        is_coarse: parts.iter().flat_map(|l| l.is_coarse.clone()).collect(),
                        s,
                        a,
                    };
                    tally += pin_level(&lvl, &next, idx, &cfg, &what);
                    a = next;
                }
                let lu = ranks[0].1.clone();
                pin_coarsest(&a, nlev - 1, &cfg, lu, &what);
            }
        }
    }
    println!("distributed: {tally:?}");
    assert!(tally.modeled >= 20 && tally.unmodeled >= 15, "{tally:?}");
}

/// `single_node_paper` with one smoother task, so the hybrid Gauss-Seidel
/// is the sequential one.
fn solve_config() -> AmgConfig {
    AmgConfig {
        smoother_tasks: Some(1),
        ..AmgConfig::single_node_paper()
    }
}

fn solve_problems() -> Vec<(&'static str, Csr)> {
    let (nx, ny, nz) = (6, 6, 6);
    let k: Vec<f64> = (0..nx * ny * nz)
        .map(|i| 10f64.powf(2.0 * uniform01(0x7A, i as u64) - 1.0))
        .collect();
    vec![
        ("laplace2d", laplace2d(16, 16)),
        ("varcoef3d_7pt", varcoef3d_7pt(nx, ny, nz, &k)),
    ]
}

#[test]
fn amg_iterations_match_the_reference() {
    let cfg = solve_config();
    for (name, a) in solve_problems() {
        let b = famg::matgen::rhs::random(a.nrows(), 5);
        let solver = AmgSolver::setup(&a, &cfg);
        let mut x = vec![0.0; a.nrows()];
        let got = solver.solve(&b, &mut x);
        assert!(got.converged, "{name}");
        let levels = re::hierarchy(re::dense(&a), &cfg);
        assert_eq!(
            levels.len(),
            solver.hierarchy().levels.len(),
            "{name}: levels"
        );
        let want = re::amg_iterations(&levels, &cfg, &b);
        println!("{name}: {} V-cycles", got.iterations);
        assert_eq!(got.iterations, want, "{name}: V-cycles to 1e-7");
    }
}

#[test]
fn pcg_iterations_match_the_reference() {
    let cfg = solve_config();
    let opts = CgOptions {
        tolerance: cfg.tolerance,
        max_iterations: 100,
    };
    for (name, a) in solve_problems() {
        let b = famg::matgen::rhs::random(a.nrows(), 6);
        let solver = AmgSolver::setup(&a, &cfg);
        let mut x = vec![0.0; a.nrows()];
        let got = cg(&a, &b, &mut x, &solver, &opts);
        assert!(got.converged, "{name}");
        let levels = re::hierarchy(re::dense(&a), &cfg);
        let want = re::pcg_iterations(&levels, &cfg, &b, opts.tolerance, opts.max_iterations);
        println!("{name}: {} PCG iterations", got.iterations);
        assert_eq!(got.iterations, want, "{name}: PCG iterations to 1e-7");
    }
}
