//! The four workloads: how each makes its input from the seed and what
//! one repetition of it does. `BENCHMARK.json` says why each exists.

use crate::oracle::solve_ok;
use crate::trace::Tracer;
use famg_core::params::AmgConfig;
use famg_core::solver::AmgSolver;
use famg_dist::comm::run_ranks;
use famg_dist::hierarchy::{DistHierarchy, DistOptFlags};
use famg_dist::parcsr::{default_partition, ParCsr};
use famg_dist::solve::dist_fgmres_amg;
use famg_krylov::cg::{cg_batch, CgOptions};
use famg_matgen::{amg2013_like, laplace2d, laplace3d_27pt, reservoir_field, rhs, varcoef3d_7pt};
use famg_sparse::{Csr, MultiVec};
use std::time::Instant;

/// Every solve in the benchmark runs to this relative residual.
pub const TOLERANCE: f64 = 1e-7;
/// FGMRES restart length of the distributed solve.
const RESTART: usize = 50;

/// What one repetition does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `AmgSolver::setup`, then `solves` stand-alone AMG solves.
    Standalone {
        /// Right-hand sides solved per repetition.
        solves: usize,
    },
    /// One `setup_refreshable`, then per drift step a numeric `refresh`
    /// and a `k`-wide AMG-preconditioned `cg_batch`.
    RefreshBatch {
        /// Same-pattern drift steps per repetition.
        steps: usize,
        /// Right-hand sides advanced together.
        k: usize,
    },
    /// `DistHierarchy::build` + `dist_fgmres_amg` on simulated ranks.
    Dist {
        /// Rank threads; the pool is pinned to one thread so that ranks,
        /// not pool workers, occupy the cores.
        ranks: usize,
    },
}

/// The operator on a grid for a seed, and for the reservoir its
/// permeability field (the drift steps perturb it).
type Generator = fn([usize; 3], u64) -> (Csr, Option<Vec<f64>>);

/// A named workload.
#[derive(Debug)]
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Grid of the full-size input.
    dims: [usize; 3],
    /// Grid about thirty times smaller, for `--quick`.
    quick_dims: [usize; 3],
    /// Makes the operator.
    matrix: Generator,
    /// What a repetition does.
    pub kind: Kind,
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "lap3d27_setup",
        dims: [64, 64, 64],
        quick_dims: [20, 20, 20],
        matrix: |d, _| (laplace3d_27pt(d[0], d[1], d[2]), None),
        kind: Kind::Standalone { solves: 1 },
    },
    Workload {
        name: "lap2d_solves",
        dims: [700, 700, 1],
        quick_dims: [128, 128, 1],
        matrix: |d, _| (laplace2d(d[0], d[1]), None),
        kind: Kind::Standalone { solves: 8 },
    },
    Workload {
        name: "reservoir_steps",
        dims: [80, 80, 40],
        quick_dims: [26, 26, 13],
        matrix: |d, seed| {
            // `reservoir_matrix`'s own field, kept so it can drift.
            let field = reservoir_field(d[0], d[1], d[2], 8.min(d[2]), 3.0, 2, seed);
            (varcoef3d_7pt(d[0], d[1], d[2], &field), Some(field))
        },
        kind: Kind::RefreshBatch { steps: 4, k: 4 },
    },
    Workload {
        name: "dist_weak_2r",
        dims: [48, 48, 96],
        quick_dims: [16, 16, 32],
        matrix: |d, seed| (amg2013_like(d[0], d[1], d[2], 2, 2.0, seed), None),
        kind: Kind::Dist { ranks: 2 },
    },
];

/// Everything a repetition reads, generated (untimed) from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// The operator.
    pub a: Csr,
    /// Right-hand sides, one per solve (or per batch column).
    pub rhs: Vec<Vec<f64>>,
    /// Same-pattern drifted operators, one per refresh step.
    pub drift: Vec<Csr>,
    /// Seconds the generators took; never part of `tts_s`.
    pub gen_s: f64,
}

/// splitmix64: the seed stream behind right-hand sides and the drift.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Solver settings shared by every workload: the paper's single-node
/// configuration at `TOLERANCE`, with the smoother's task decomposition
/// pinned so iteration counts do not depend on the pool size.
pub fn amg_config(max_iterations: Option<usize>) -> AmgConfig {
    let base = AmgConfig::single_node_paper();
    AmgConfig {
        tolerance: TOLERANCE,
        smoother_tasks: Some(2),
        max_iterations: max_iterations.unwrap_or(base.max_iterations),
        ..base
    }
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Pool threads this workload runs on, given the host's cores.
    pub fn threads(&self, nproc: usize) -> usize {
        match self.kind {
            Kind::Dist { .. } => 1,
            _ => nproc.min(2),
        }
    }

    /// The grid: full, `--quick`, and optionally halved along its last
    /// extended axis (the one-rank leg of the weak-scaling efficiency).
    pub fn dims(&self, quick: bool, half: bool) -> [usize; 3] {
        let mut d = if quick { self.quick_dims } else { self.dims };
        if half {
            let axis = if d[2] > 1 { 2 } else { 1 };
            d[axis] /= 2;
        }
        d
    }

    /// Generates the inputs for `seed` on grid `d`.
    pub fn generate(&self, d: [usize; 3], seed: u64) -> Inputs {
        let t0 = Instant::now();
        let (a, field) = (self.matrix)(d, seed);
        let n = a.nrows();
        let columns = match self.kind {
            Kind::Standalone { solves } => solves,
            Kind::RefreshBatch { k, .. } => k,
            Kind::Dist { .. } => 1,
        };
        // b = A x* for a seeded x* uniform in [0, 1): the count of
        // iterations to 1e-7 then does not change with the seed, so
        // `solve_s` compares across seeds. A uniform random b straddled
        // the tolerance (9 or 10 iterations on the 27-point operator), and
        // point sources made the reservoir's count swing between 8 and 22
        // with the well site.
        let rhs = (0..columns as u64)
            .map(|j| {
                let x: Vec<f64> = rhs::random(n, mix(seed, j))
                    .iter()
                    .map(|v| 0.5 * (v + 1.0))
                    .collect();
                rhs::rhs_for_solution(&a, &x)
            })
            .collect();
        let drift = match (self.kind, field) {
            (Kind::RefreshBatch { steps, .. }, Some(field)) => {
                // Smooth multiplicative drift, small enough that no frozen
                // threshold decision flips (the refresh contract's regime).
                let phase = (mix(seed, 99) % 628) as f64 / 100.0;
                (1..=steps)
                    .map(|t| {
                        let kt: Vec<f64> = field
                            .iter()
                            .enumerate()
                            .map(|(i, &ki)| {
                                let xf = (i % d[0]) as f64 / d[0] as f64;
                                ki * (1.0 + 1e-5 * t as f64 * (9.0 * xf + phase).cos())
                            })
                            .collect();
                        varcoef3d_7pt(d[0], d[1], d[2], &kt)
                    })
                    .collect()
            }
            _ => Vec::new(),
        };
        Inputs {
            a,
            rhs,
            drift,
            gen_s: t0.elapsed().as_secs_f64(),
        }
    }
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Seconds of the one hierarchy build.
    pub setup_s: f64,
    /// Seconds of each numeric refresh.
    pub refresh_s: Vec<f64>,
    /// Seconds of each solve call.
    pub solve_s: Vec<f64>,
    /// Iterations summed over the repetition's solves (a batch counts its
    /// slowest column: that is how many times the kernels ran).
    pub iterations: u64,
    /// Solves attempted.
    pub attempted: u64,
    /// Solves that did not converge or failed the oracle.
    pub failed: u64,
    /// Messages and bytes sent, setup + solve, all ranks.
    pub comm: (u64, u64),
}

impl Rep {
    /// Time to solution: setup plus every refresh and solve.
    pub fn tts_s(&self) -> f64 {
        self.setup_s + self.refresh_s.iter().sum::<f64>() + self.solve_s.iter().sum::<f64>()
    }

    /// Mean seconds of one solve call in this repetition.
    pub fn mean_solve_s(&self) -> f64 {
        self.solve_s.iter().sum::<f64>() / self.solve_s.len() as f64
    }

    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// What a rank hands back from a distributed build + solve.
pub struct RankOut {
    /// When the build started and ended.
    pub build: (Instant, Instant),
    /// When the solve started and ended.
    pub solve: (Instant, Instant),
    /// FGMRES iterations.
    pub iterations: usize,
    /// The solver's own verdict.
    pub converged: bool,
    /// This rank's slice of the solution.
    pub x: Vec<f64>,
    /// Seconds this rank spent blocked on messages during the solve.
    pub wait_s: f64,
    /// (setup, solve) messages sent by this rank.
    pub messages: (u64, u64),
    /// (setup, solve) bytes sent by this rank.
    pub bytes: (u64, u64),
}

/// Builds the distributed hierarchy and solves, on `ranks` rank threads;
/// `extra` runs on every rank afterwards (the per-layer probes hook in
/// there). Returns each rank's output and the global message counts by
/// `(level, phase)`.
pub fn dist_build_solve<X: Send>(
    a: &Csr,
    b: &[f64],
    ranks: usize,
    max_iterations: Option<usize>,
    extra: impl Fn(&famg_dist::comm::Comm, &DistHierarchy, &[f64]) -> X + Sync,
) -> (Vec<(RankOut, X)>, famg_dist::comm::CommReport) {
    let starts = default_partition(a.nrows(), ranks);
    let cfg = AmgConfig {
        tolerance: TOLERANCE,
        smoother_tasks: Some(2),
        ..AmgConfig::multi_node_mp()
    };
    run_ranks(ranks, |c| {
        let r = c.rank();
        let (lo, hi) = (starts[r], starts[r + 1]);
        let pa = ParCsr::from_global_rows(a, lo, hi, starts.clone(), r);
        c.barrier();
        let t0 = Instant::now();
        let h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
        let t1 = Instant::now();
        let mut x = vec![0.0; hi - lo];
        c.barrier();
        let t2 = Instant::now();
        let res = dist_fgmres_amg(
            c,
            &h,
            &b[lo..hi],
            &mut x,
            TOLERANCE,
            max_iterations.unwrap_or(300),
            RESTART,
        );
        let t3 = Instant::now();
        let extra = extra(c, &h, &b[lo..hi]);
        let out = RankOut {
            build: (t0, t1),
            solve: (t2, t3),
            iterations: res.iterations,
            converged: res.converged,
            x,
            wait_s: res.solve_comm_time.as_secs_f64(),
            messages: (h.setup_comm.messages, res.solve_comm.messages),
            bytes: (h.setup_comm.bytes, res.solve_comm.bytes),
        };
        (out, extra)
    })
}

fn seconds((t0, t1): (Instant, Instant)) -> f64 {
    (t1 - t0).as_secs_f64()
}

impl RankOut {
    /// Seconds this rank's build took.
    pub fn build_s(&self) -> f64 {
        seconds(self.build)
    }

    /// Seconds this rank's solve took.
    pub fn solve_s(&self) -> f64 {
        seconds(self.solve)
    }
}

/// Sums a distributed build + solve up over its ranks: records each rank's
/// two phases as spans, puts the assembled answer through the oracle, and
/// returns the build and solve seconds of the slowest rank (a phase takes
/// as long as that) with the verdict.
pub fn dist_outcome<X>(
    a: &Csr,
    b: &[f64],
    parts: &[(RankOut, X)],
    tr: &mut Tracer,
) -> (f64, f64, bool) {
    let slowest = |f: fn(&RankOut) -> f64| parts.iter().map(|(p, _)| f(p)).fold(0.0, f64::max);
    for (r, (p, _)) in parts.iter().enumerate() {
        tr.record("dist.hierarchy.build", p.build.0, p.build.1, r as u32 + 1);
        tr.record("dist.solve.fgmres_amg", p.solve.0, p.solve.1, r as u32 + 1);
    }
    let x: Vec<f64> = parts
        .iter()
        .flat_map(|(p, _)| p.x.iter().copied())
        .collect();
    let converged = parts.iter().all(|(p, _)| p.converged);
    let (ok, _) = tr.scope("oracle.check", |_| solve_ok(a, &x, b, converged, TOLERANCE));
    (slowest(RankOut::build_s), slowest(RankOut::solve_s), ok)
}

impl Workload {
    /// Runs one repetition: every timed call is a span of `tr`, every
    /// answer goes through the oracle. `max_iterations` is the self-test's
    /// way of making solves fail.
    pub fn run_rep(&self, inp: &Inputs, max_iterations: Option<usize>, tr: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let a = &inp.a;
        let n = a.nrows();
        let cfg = amg_config(max_iterations);
        match self.kind {
            Kind::Standalone { .. } => {
                let (solver, s) = tr.scope("core.solver.setup", |_| AmgSolver::setup(a, &cfg));
                rep.setup_s = s;
                for b in &inp.rhs {
                    let mut x = vec![0.0; n];
                    let (res, s) = tr.scope("core.solver.solve", |_| solver.solve(b, &mut x));
                    rep.solve_s.push(s);
                    rep.iterations += res.iterations as u64;
                    let (ok, _) = tr.scope("oracle.check", |_| {
                        solve_ok(a, &x, b, res.converged, TOLERANCE)
                    });
                    rep.count(ok);
                }
            }
            Kind::RefreshBatch { k, .. } => {
                let (mut solver, s) = tr.scope("core.solver.setup_refreshable", |_| {
                    AmgSolver::setup_refreshable(a, &cfg)
                });
                rep.setup_s = s;
                let bb = MultiVec::from_columns(&inp.rhs);
                let opts = CgOptions {
                    tolerance: TOLERANCE,
                    max_iterations: max_iterations.unwrap_or(200),
                };
                for at in &inp.drift {
                    let (refreshed, s) = tr.scope("core.solver.refresh", |_| solver.refresh(at));
                    rep.refresh_s.push(s);
                    let mut xb = MultiVec::new(n, k);
                    let (res, s) = tr.scope("krylov.cg_batch", |_| {
                        cg_batch(at, &bb, &mut xb, &solver, &opts)
                    });
                    rep.solve_s.push(s);
                    rep.iterations += res.iterations.iter().copied().max().unwrap_or(0) as u64;
                    let (ok, _) = tr.scope("oracle.check", |_| {
                        refreshed.is_ok()
                            && (0..k).all(|j| {
                                solve_ok(at, &xb.col(j), &inp.rhs[j], res.converged[j], TOLERANCE)
                            })
                    });
                    rep.count(ok);
                }
            }
            Kind::Dist { ranks } => {
                let b = &inp.rhs[0];
                let (parts, report) = dist_build_solve(a, b, ranks, max_iterations, |_, _, _| ());
                let (setup_s, solve_s, ok) = dist_outcome(a, b, &parts, tr);
                rep.setup_s = setup_s;
                rep.solve_s.push(solve_s);
                rep.iterations = parts[0].0.iterations as u64;
                rep.comm = (report.total_messages(), report.total_bytes());
                rep.count(ok);
            }
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in &WORKLOADS {
            let d = w.dims(true, false);
            let (x, y, z) = (w.generate(d, 7), w.generate(d, 7), w.generate(d, 8));
            assert_eq!(x.a.values(), y.a.values(), "{}", w.name);
            assert_eq!(x.rhs, y.rhs, "{}", w.name);
            assert_ne!(x.rhs, z.rhs, "{}", w.name);
            assert!(x.drift.iter().all(|m| m.colidx() == x.a.colidx()));
        }
    }

    #[test]
    fn quick_reps_solve_and_self_test_reps_fail() {
        for w in &WORKLOADS {
            let inp = w.generate(w.dims(true, false), 3);
            let good = w.run_rep(&inp, None, &mut Tracer::new(false));
            assert!(good.attempted > 0 && good.failed == 0, "{}", w.name);
            assert!(good.tts_s() > 0.0 && good.iterations > 0, "{}", w.name);
            let bad = w.run_rep(&inp, Some(1), &mut Tracer::new(false));
            assert_eq!(bad.failed, bad.attempted, "{}", w.name);
        }
    }

    #[test]
    fn half_grids_halve_the_rows() {
        for w in &WORKLOADS {
            let (f, h) = (w.dims(false, false), w.dims(false, true));
            assert_eq!(f.iter().product::<usize>(), 2 * h.iter().product::<usize>());
        }
    }
}
