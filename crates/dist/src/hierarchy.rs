//! Distributed AMG setup phase.
//!
//! Mirrors the shared-memory hierarchy construction level by level:
//! local strength → distributed PMIS (optionally aggressive) →
//! distributed interpolation → `R = Pᵀ` kept from setup → distributed
//! Galerkin product, with the §4 knobs (parallel renumbering, remote-row
//! filtering, halo overlap) selectable per run. Every level's halo plans
//! are built once at setup (§4.4 persistent communication).

use crate::coarsen::{dist_aggressive_pmis, dist_pmis, DistCoarsening};
use crate::comm::{Comm, CommPhase};
use crate::halo::VectorExchange;
use crate::interp::{dist_extended_i, dist_multipass, dist_strength, dist_two_stage_extended_i};
use crate::parcsr::ParCsr;
use crate::spgemm::{dist_rap, dist_transpose};
use famg_core::interp::TruncParams;
use famg_core::params::{AmgConfig, CoarsenKind, InterpKind};
use famg_core::solver::SolveError;
use famg_core::stats::{CommVolume, PhaseTimes, SetupStats};
use famg_sparse::dense::{DenseMatrix, LuFactor};

/// Multi-node optimization switches (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistOptFlags {
    /// Parallel column-index renumbering (Fig. 4) instead of the
    /// ordered-set baseline.
    pub parallel_renumber: bool,
    /// Filter remote interpolation rows before sending (§4.3).
    pub filter_interp: bool,
    /// Overlap halo exchanges with interior computation in the solve
    /// kernels (SpMV, residual, hybrid-GS half-sweeps): post the halo,
    /// compute rows with an empty `offd` row while it is in flight,
    /// finish for the boundary rows. Bitwise-neutral by construction —
    /// both modes perform identical per-row arithmetic in the same order.
    pub overlap_comm: bool,
}

impl DistOptFlags {
    /// All §4 optimizations on.
    pub const fn all() -> Self {
        DistOptFlags {
            parallel_renumber: true,
            filter_interp: true,
            overlap_comm: true,
        }
    }

    /// All §4 optimizations off (multi-node baseline).
    pub const fn none() -> Self {
        DistOptFlags {
            parallel_renumber: false,
            filter_interp: false,
            overlap_comm: false,
        }
    }
}

impl Default for DistOptFlags {
    /// [`DistOptFlags::all`].
    fn default() -> Self {
        DistOptFlags::all()
    }
}

/// Dispatches to the configured distributed interpolation scheme.
#[allow(clippy::too_many_arguments)]
fn build_dist_interp(
    comm: &Comm,
    current: &ParCsr,
    plan_a: &VectorExchange,
    s: &ParCsr,
    stage1: Option<&DistCoarsening>,
    coarsening: &DistCoarsening,
    ikind: InterpKind,
    cfg: &AmgConfig,
    dopt: DistOptFlags,
) -> ParCsr {
    let t = TruncParams {
        factor: cfg.trunc_factor,
        max_elements: cfg.max_elements,
    };
    match ikind {
        InterpKind::ExtendedI => dist_extended_i(
            comm,
            current,
            plan_a,
            s,
            coarsening,
            Some(&t),
            dopt.filter_interp,
        ),
        InterpKind::Multipass => dist_multipass(comm, current, plan_a, s, coarsening, Some(&t)),
        InterpKind::TwoStageExtendedI => dist_two_stage_extended_i(
            comm,
            current,
            plan_a,
            s,
            stage1.expect("aggressive coarsening required"),
            coarsening,
            cfg.strength_threshold,
            cfg.max_row_sum,
            Some(&t),
            dopt.filter_interp,
        ),
    }
}

/// One distributed multigrid level.
pub struct DistLevel {
    /// The level operator.
    pub a: ParCsr,
    /// Interpolation to this level from the next coarser (`None` at the
    /// coarsest level).
    pub p: Option<ParCsr>,
    /// `Pᵀ`, kept from setup.
    pub r: Option<ParCsr>,
    /// Halo plan for `a` (smoothing, residuals).
    pub plan_a: VectorExchange,
    /// Halo plan for prolongation (`p`'s colmap over coarse vectors).
    pub plan_p: Option<VectorExchange>,
    /// Halo plan for restriction (`r`'s colmap over fine vectors).
    pub plan_r: Option<VectorExchange>,
    /// Reciprocal diagonal.
    pub dinv: Vec<f64>,
    /// Local C/F marker (C-F relaxation ordering).
    pub is_coarse: Vec<bool>,
}

impl DistLevel {
    /// The transfer operators and halo plans to the next coarser level:
    /// `(P, plan_P, R, plan_R)`. `None` when *any* of the four is absent
    /// — which a well-formed hierarchy only exhibits at the coarsest
    /// level (enforced by [`DistHierarchy::check_shape`]).
    pub fn transfers(&self) -> Option<(&ParCsr, &VectorExchange, &ParCsr, &VectorExchange)> {
        match (&self.p, &self.plan_p, &self.r, &self.plan_r) {
            (Some(p), Some(plan_p), Some(r), Some(plan_r)) => Some((p, plan_p, r, plan_r)),
            _ => None,
        }
    }
}

/// The distributed hierarchy owned by one rank.
pub struct DistHierarchy {
    /// Levels, finest first.
    pub levels: Vec<DistLevel>,
    /// Coarsest-level dense factorization, held by rank 0 when the level is
    /// nonsingular and small enough for one ([`AmgConfig::coarse_lu_fits`]).
    pub coarse_lu: Option<LuFactor>,
    /// Solver configuration.
    pub config: AmgConfig,
    /// §4 optimization flags the hierarchy was built with.
    pub dist_opt: DistOptFlags,
    /// Per-level sizes (global).
    pub stats: SetupStats,
    /// Setup timing (this rank), derived from the span tree in `profile`.
    pub times: PhaseTimes,
    /// Wall time blocked in communication during setup (this rank).
    pub setup_comm_time: std::time::Duration,
    /// Bytes/messages this rank sent during setup.
    pub setup_comm: CommVolume,
    /// Hierarchical span profile of the setup phase (this rank).
    pub profile: famg_prof::Profile,
}

impl DistHierarchy {
    /// Runs the distributed setup phase.
    pub fn build(comm: &Comm, a: ParCsr, cfg: &AmgConfig, dopt: DistOptFlags) -> DistHierarchy {
        let rank = comm.rank();
        let mut stats = SetupStats::default();
        let comm_t0 = comm.comm_time();
        let comm_mark = (comm.bytes_sent(), comm.messages_sent());
        let root_span = famg_prof::scope("setup");
        let mut levels: Vec<DistLevel> = Vec::new();
        let mut current = a;

        loop {
            // Attribute this level's setup traffic (coarsening, interp,
            // RAP, plans) to (level, Setup).
            let _scope = comm.scoped(levels.len(), CommPhase::Setup);
            let n_global = *current.col_starts.last().unwrap();
            stats.level_rows.push(n_global);
            stats
                .level_nnz
                .push(comm.allreduce_sum_usize(current.local_nnz(), 0x80));
            let lvl_idx = levels.len();
            if cfg.stops_at(n_global, lvl_idx) {
                break;
            }

            let strength_span = famg_prof::scope_at("strength", lvl_idx);
            let s = dist_strength(&current, cfg.strength_threshold, cfg.max_row_sum, rank);
            drop(strength_span);
            let coarsen_span = famg_prof::scope_at("coarsen", lvl_idx);
            let (ckind, ikind) = cfg.level_scheme(lvl_idx);
            let seed = cfg.level_seed(lvl_idx);
            let (stage1, coarsening): (Option<DistCoarsening>, DistCoarsening) = match ckind {
                CoarsenKind::Pmis => (None, dist_pmis(comm, &s, seed)),
                CoarsenKind::AggressivePmis => {
                    let (f, fin) = dist_aggressive_pmis(comm, &s, seed);
                    (Some(f), fin)
                }
            };
            drop(coarsen_span);
            if AmgConfig::coarsening_stalls(n_global, coarsening.ncoarse_global) {
                break;
            }

            // The level's persistent halo plan, built up front so the
            // interpolation schemes reuse it for their C/F code exchange
            // instead of re-planning `current`'s colmap.
            let plan_span = famg_prof::scope_at("halo_plan", lvl_idx);
            let plan_a = VectorExchange::plan(comm, &current.colmap, &current.col_starts);
            drop(plan_span);

            let interp_span = famg_prof::scope_at("interp", lvl_idx);
            let p = build_dist_interp(
                comm,
                &current,
                &plan_a,
                &s,
                stage1.as_ref(),
                &coarsening,
                ikind,
                cfg,
                dopt,
            );
            drop(interp_span);

            let rap_span = famg_prof::scope_at("rap", lvl_idx);
            let r = dist_transpose(comm, &p);
            let next = dist_rap(comm, &r, &current, &p, dopt.parallel_renumber);
            drop(rap_span);

            let plan_span = famg_prof::scope_at("halo_plan", lvl_idx);
            let plan_p = VectorExchange::plan(comm, &p.colmap, &p.col_starts);
            let plan_r = VectorExchange::plan(comm, &r.colmap, &r.col_starts);
            let dinv = local_dinv(&current);
            drop(plan_span);

            levels.push(DistLevel {
                a: current,
                p: Some(p),
                r: Some(r),
                plan_a,
                plan_p: Some(plan_p),
                plan_r: Some(plan_r),
                dinv,
                is_coarse: coarsening.is_coarse,
            });
            current = next;
        }

        // Coarsest level: gather to rank 0 and factor.
        let _scope = comm.scoped(levels.len(), CommPhase::Setup);
        let coarse_span = famg_prof::scope_at("coarse", levels.len());
        let coarse_lu = factor_coarsest(comm, &current, rank, cfg);
        let plan_a = VectorExchange::plan(comm, &current.colmap, &current.col_starts);
        let dinv = local_dinv(&current);
        let nl = current.local_rows();
        levels.push(DistLevel {
            a: current,
            p: None,
            r: None,
            plan_a,
            plan_p: None,
            plan_r: None,
            dinv,
            is_coarse: vec![false; nl],
        });
        drop(coarse_span);

        drop(root_span);
        let profile = famg_prof::take();
        let times = profile
            .find_root("setup")
            .map(PhaseTimes::from_span)
            .unwrap_or_default();

        DistHierarchy {
            levels,
            coarse_lu,
            config: cfg.clone(),
            dist_opt: dopt,
            stats,
            times,
            setup_comm_time: comm.comm_time_since(comm_t0),
            setup_comm: CommVolume {
                bytes: comm.bytes_sent() - comm_mark.0,
                messages: comm.messages_sent() - comm_mark.1,
            },
            profile,
        }
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Validates the structural invariants this rank's solve path relies
    /// on: transfer operators and halo plans present exactly below the
    /// coarsest level, and per-level vector/operator sizes consistent.
    /// `DistHierarchy::build` always satisfies these; the check exists so
    /// the `try_*` solve entry points can reject a hand-assembled or
    /// corrupted hierarchy with a typed error instead of panicking deep
    /// inside a V-cycle.
    pub fn check_shape(&self) -> Result<(), SolveError> {
        if self.levels.is_empty() {
            return Err(SolveError::MalformedHierarchy {
                level: 0,
                what: "hierarchy has no levels",
            });
        }
        for (i, lvl) in self.levels.iter().enumerate() {
            let coarsest = i + 1 == self.levels.len();
            let n = lvl.a.local_rows();
            if lvl.dinv.len() != n {
                return Err(SolveError::MalformedHierarchy {
                    level: i,
                    what: "reciprocal-diagonal length differs from the local row count",
                });
            }
            if lvl.is_coarse.len() != n {
                return Err(SolveError::MalformedHierarchy {
                    level: i,
                    what: "C/F marker length differs from the local row count",
                });
            }
            if coarsest {
                if lvl.p.is_some()
                    || lvl.r.is_some()
                    || lvl.plan_p.is_some()
                    || lvl.plan_r.is_some()
                {
                    return Err(SolveError::MalformedHierarchy {
                        level: i,
                        what: "coarsest level carries transfer operators",
                    });
                }
            } else {
                let Some((p, _, r, _)) = lvl.transfers() else {
                    return Err(SolveError::MalformedHierarchy {
                        level: i,
                        what: "non-coarsest level is missing transfer operators or halo plans",
                    });
                };
                let nc = self.levels[i + 1].a.local_rows();
                if p.local_rows() != n {
                    return Err(SolveError::MalformedHierarchy {
                        level: i,
                        what: "interpolation local row count differs from the level's",
                    });
                }
                if r.local_rows() != nc {
                    return Err(SolveError::MalformedHierarchy {
                        level: i,
                        what: "restriction local row count differs from the next coarser level's",
                    });
                }
            }
        }
        Ok(())
    }
}

/// Gathers the coarsest operator to rank 0 and densely factors it
/// (returns `None` on every other rank, and everywhere when the operator
/// is empty, too large for a dense factorization or singular, which the
/// solve then smooths instead).
fn factor_coarsest(
    comm: &Comm,
    current: &ParCsr,
    rank: usize,
    cfg: &AmgConfig,
) -> Option<LuFactor> {
    let n_coarse = current.col_starts.last().copied().unwrap_or(0);
    if !cfg.coarse_lu_fits(n_coarse) {
        return None;
    }
    // Ship local rows to rank 0 as triplets.
    let mut trips: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..current.local_rows() {
        for (c, v) in current.global_row(i, rank) {
            trips.push((current.row_start + i, c, v));
        }
    }
    // Binomial-tree gather: P−1 messages, no empty envelopes.
    let received = comm.gather_to(0, trips, 0x81, |t| t.len() * 24);
    received.and_then(|parts| {
        let all: Vec<(usize, usize, f64)> = parts.into_iter().flatten().collect();
        let global = famg_sparse::Csr::from_triplets(n_coarse, n_coarse, all);
        LuFactor::new(&DenseMatrix::from_csr(&global))
    })
}

/// Reciprocal diagonal of a square operator's local rows.
fn local_dinv(a: &ParCsr) -> Vec<f64> {
    (0..a.local_rows())
        .map(|i| {
            let d = a.diag.diag(i);
            assert!(d != 0.0, "zero diagonal at global row {}", a.row_start + i);
            1.0 / d
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_ranks;
    use crate::parcsr::default_partition;
    use famg_matgen::laplace2d;

    #[test]
    fn builds_levels_and_matches_serial_grid_sizes() {
        let a = laplace2d(24, 24);
        let cfg = AmgConfig::single_node_paper();
        let serial = famg_core::Hierarchy::build(&a, &cfg);
        let starts = default_partition(576, 3);
        let (parts, _) = run_ranks(3, |c| {
            let pa = ParCsr::from_global_rows(
                &a,
                starts[c.rank()],
                starts[c.rank() + 1],
                starts.clone(),
                c.rank(),
            );
            let h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
            (h.stats.level_rows.clone(), h.num_levels())
        });
        // Both builds run the same PMIS rounds with weights keyed on the
        // global index, so three ranks coarsen as the serial build does
        // while no rounding difference of the distributed Galerkin product
        // flips a strength test (`one_rank_matches_the_serial_build_at_every_level`
        // compares every level's operator).
        for (rows, _) in &parts {
            assert_eq!(rows[0], 576);
            assert_eq!(rows, &serial.stats.level_rows, "level rows diverged");
        }
    }

    /// One rank runs the distributed builders on the whole operator, so its
    /// hierarchy is the serial build's at every level: the same sizes, level
    /// 0's `P` the serial `[I; P_F]` read back through its CF permutation bit
    /// for bit, and each level's operator the serial one read back the same
    /// way, to 1e-10. The operators are not bitwise: the serial Galerkin
    /// product is the CF-block `rap_cf` and the ranks' is `rap_row_fused`,
    /// which sum in different orders (no rounding difference flips a
    /// strength test on these operators, so both builds coarsen the same
    /// graphs).
    #[test]
    fn one_rank_matches_the_serial_build_at_every_level() {
        use famg_matgen::{laplace3d_27pt, reservoir_field, varcoef3d_7pt};
        let field = reservoir_field(14, 12, 10, 4, 2.0, 2, 2026);
        let operators = [
            ("laplace2d", laplace2d(60, 50)),
            ("laplace3d_27pt", laplace3d_27pt(14, 13, 12)),
            ("varcoef3d_7pt", varcoef3d_7pt(14, 12, 10, &field)),
        ];
        let configs = [
            ("paper", AmgConfig::single_node_paper()),
            ("mp", AmgConfig::multi_node_mp()),
            ("2s_ei444", AmgConfig::multi_node_2s_ei444()),
        ];
        for (cname, cfg) in &configs {
            for (aname, a) in &operators {
                let serial = famg_core::Hierarchy::build(a, cfg);
                let n = a.nrows();
                let (mut parts, _) = run_ranks(1, |c| {
                    let pa = ParCsr::from_global_rows(a, 0, n, vec![0, n], 0);
                    DistHierarchy::build(c, pa, cfg, DistOptFlags::all())
                });
                let dist = parts.pop().expect("one rank");
                let (ds, ss) = (&dist.stats, &serial.stats);
                for (l, (d, s)) in dist.levels.iter().zip(&serial.levels).enumerate() {
                    let what = format!("{cname}, {aname}, level {l}");
                    assert_eq!(ds.level_rows[l], ss.level_rows[l], "{what}: rows");
                    assert_eq!(ds.level_nnz[l], ss.level_nnz[l], "{what}: nnz");
                    // The serial operator on the raw ordering its RAP made.
                    let fwd = s.perm.as_ref().map(|q| q.forward.as_slice());
                    let inv = s.perm.as_ref().map(|q| q.inverse.as_slice());
                    let raw = famg_sparse::Csr::from_triplets(
                        s.a.nrows(),
                        s.a.ncols(),
                        (0..s.a.nrows()).flat_map(|i| {
                            (s.a.row_iter(fwd.map_or(i, |f| f[i])))
                                .map(move |(j, v)| (i, inv.map_or(j, |q| q[j]), v))
                        }),
                    );
                    let got = crate::parcsr::to_global(std::slice::from_ref(&d.a));
                    assert_eq!(got.rowptr(), raw.rowptr(), "{what}: row lengths");
                    assert_eq!(got.colidx(), raw.colidx(), "{what}: columns");
                    for (x, y) in got.values().iter().zip(raw.values()) {
                        assert!((x - y).abs() <= 1e-10 * y.abs(), "{what}: {x} vs {y}");
                    }
                }
                // Level 0's `P`: the serial `[I; P_F]` on the raw ordering.
                let s = &serial.levels[0];
                let q = s.perm.as_ref().expect("a CF permutation");
                let pf = &s.ops.as_ref().expect("P_F").pf;
                let mut trips = Vec::new();
                for r in 0..n {
                    let i = q.inverse[r];
                    if r < s.nc {
                        trips.push((i, r, 1.0));
                    } else {
                        trips.extend(pf.row_iter(r - s.nc).map(|(c, v)| (i, c, v)));
                    }
                }
                let p_serial = famg_sparse::Csr::from_triplets(n, s.nc, trips);
                let p = dist.levels[0].p.clone().expect("P");
                let what = format!("{cname}, {aname}, level 0's P");
                crate::parcsr::assert_parts_are_serial(&[p], p_serial, &what);
                assert_eq!(ds.level_rows, ss.level_rows, "{cname}, {aname}");
                assert_eq!(ds.level_nnz, ss.level_nnz, "{cname}, {aname}");
            }
        }
    }

    #[test]
    fn aggressive_schemes_build() {
        let a = laplace2d(20, 20);
        let starts = default_partition(400, 2);
        for cfg in [AmgConfig::multi_node_mp(), AmgConfig::multi_node_2s_ei444()] {
            let (parts, _) = run_ranks(2, |c| {
                let pa = ParCsr::from_global_rows(
                    &a,
                    starts[c.rank()],
                    starts[c.rank() + 1],
                    starts.clone(),
                    c.rank(),
                );
                let h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
                (h.num_levels(), h.stats.level_rows.clone())
            });
            let (nl, rows) = &parts[0];
            assert!(*nl >= 2, "{:?}", cfg.interp);
            assert!(
                rows[1] * 4 < rows[0],
                "aggressive coarsening too weak: {rows:?}"
            );
        }
    }

    /// A rank with fewer rows than the multipass sweep has passes must stay
    /// in the sweep's collectives to the end: with a local pass cap it left
    /// early and its peers waited forever in the next exchange. Run under a
    /// watchdog so a regression fails instead of hanging the suite.
    #[test]
    fn multipass_build_returns_with_empty_and_one_row_ranks() {
        let level_rows = |starts: Vec<usize>| -> Vec<usize> {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let a = laplace2d(40, 40);
                let (parts, _) = run_ranks(starts.len() - 1, |c| {
                    let r = c.rank();
                    let pa =
                        ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
                    let h = DistHierarchy::build(
                        c,
                        pa,
                        &AmgConfig::multi_node_mp(),
                        DistOptFlags::all(),
                    );
                    h.stats.level_rows.clone()
                });
                // The receiver is gone once the watchdog fired.
                let _ = tx.send(parts[0].clone());
            });
            rx.recv_timeout(std::time::Duration::from_mins(2))
                .expect("the distributed multipass build did not return")
        };
        // PMIS does not depend on the partition, so the first coarse grid
        // is the evenly partitioned build's.
        let even = level_rows(default_partition(1600, 3));
        assert!(even.len() >= 3, "{even:?}");
        for starts in [vec![0, 800, 800, 1600], vec![0, 800, 801, 1600]] {
            let rows = level_rows(starts.clone());
            assert_eq!(rows[..2], even[..2], "{starts:?}");
        }
    }

    /// A build that `max_levels` stops above `coarse_solve_size` factors
    /// nothing, as the serial `coarse_lu` does: the solve smooths the
    /// coarsest level instead of back-substituting through a dense LU of
    /// the whole operator on rank 0.
    #[test]
    fn an_oversized_coarsest_level_is_not_factored() {
        let a = laplace2d(40, 40);
        let cfg = AmgConfig {
            max_levels: 1,
            ..AmgConfig::single_node_paper()
        };
        assert!(famg_core::hierarchy::Hierarchy::build(&a, &cfg)
            .coarse_lu
            .is_none());
        let b = famg_matgen::rhs::ones(1600);
        let starts = default_partition(1600, 2);
        let (parts, _) = run_ranks(2, |c| {
            let (s, e) = (starts[c.rank()], starts[c.rank() + 1]);
            let pa = ParCsr::from_global_rows(&a, s, e, starts.clone(), c.rank());
            let h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
            let mut x = vec![0.0; e - s];
            let solved = crate::solve::try_dist_amg_solve(c, &h, &b[s..e], &mut x);
            (h.num_levels(), h.coarse_lu.is_some(), solved.is_ok())
        });
        assert_eq!(parts, [(1, false, true); 2]);
    }
}
