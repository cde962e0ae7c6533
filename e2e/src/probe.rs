//! The per-layer probes of the traced pass.
//!
//! Each probe calls one layer's public functions on the workload's own
//! operators — the level-0 matrix, the interpolation and the hierarchy
//! built from it — inside a span, and reports the median of a few calls.
//! Every probe runs on every workload, so a metric always means "this
//! layer's operation on this workload's operator"; which of them a
//! workload's own repetitions lean on is the README's interaction table.
//! Bytes are computed from `famg_sparse::traffic`, never measured.

use crate::oracle::solve_ok;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{amg_config, dist_build_solve, dist_outcome, Inputs, RankOut, TOLERANCE};
use famg_core::coarsen::pmis;
use famg_core::convergence::asymptotic_factor;
use famg_core::cycle::{vcycle, vcycle_batch, BatchCycleWorkspace, CycleWorkspace};
use famg_core::hierarchy::Hierarchy;
use famg_core::interp::{extended_i, CfMap, TruncParams};
use famg_core::reorder::cf_reorder;
use famg_core::smoother::{Smoother, Workspace};
use famg_core::solver::AmgSolver;
use famg_core::strength::strength;
use famg_dist::comm::{CommPhase, UNSCOPED_LEVEL};
use famg_dist::solve::dist_vcycle;
use famg_dist::spmv::dist_spmv;
use famg_krylov::cg::{cg, cg_batch, CgOptions};
use famg_krylov::precond::Preconditioner;
use famg_sparse::permute::permute_symmetric;
use famg_sparse::spgemm::{spgemm, spgemm_flops_bound};
use famg_sparse::spmm::spmm;
use famg_sparse::spmv::{residual_norm_sq, spmv};
use famg_sparse::transpose::transpose_par;
use famg_sparse::triple::{rap_cf_from_parts, rap_cf_numeric_from_parts};
use famg_sparse::vecops::{axpy, dot};
use famg_sparse::{traffic, Csr, MultiVec};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Batch width of every k-wide probe (the reservoir workload's k).
const K: usize = 4;

/// Metric values by name, plus the solves the probes attempted.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Name → value.
    pub values: BTreeMap<String, f64>,
    /// Solves attempted by probes.
    pub attempted: u64,
    /// Solves that failed the oracle.
    pub failed: u64,
}

impl Metrics {
    /// Records `name = v`.
    pub fn put(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_owned(), v);
    }

    /// A value recorded earlier.
    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The setup + solve both pool-size legs time, for `pool.speedup.*`.
#[derive(Debug, Clone, Copy)]
pub struct SerialLeg {
    /// Seconds of `Hierarchy::build`.
    pub setup_s: f64,
    /// Seconds of one stand-alone solve of the first right-hand side.
    pub solve_s: f64,
    /// Its iteration count (must not depend on the pool size).
    pub iterations: usize,
}

/// Runs `f` `reps` times as spans named `name`; the last result and the
/// median seconds. For calls that cost a visible share of a setup.
fn timed<T>(
    tr: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (T, f64) {
    let mut secs = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        let (v, s) = tr.scope(name, |_| f());
        secs.push(s);
        out = Some(v);
    }
    (out.expect("at least one repetition"), median(&secs))
}

/// Median seconds of a solve-phase kernel: one warm-up call, then five
/// to forty calls within 0.15 s.
fn kernel(tr: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < 5 || (secs.len() < 40 && t0.elapsed().as_secs_f64() < 0.15) {
        secs.push(tr.scope(name, |_| f()).1);
    }
    median(&secs)
}

fn gbs(bytes: usize, seconds: f64) -> f64 {
    traffic::effective_bandwidth_gbs(bytes, seconds)
}

/// Rows `nc..n` of a CF-ordered interpolation operator (`P = [I; P_F]`).
fn fine_block(p: &Csr, nc: usize) -> Csr {
    let lo = p.rowptr()[nc];
    Csr::from_parts(
        p.nrows() - nc,
        p.ncols(),
        p.rowptr()[nc..].iter().map(|&r| r - lo).collect(),
        p.colidx()[lo..].to_vec(),
        p.values()[lo..].to_vec(),
    )
}

/// `famg-sparse` and `famg-core` setup stages, replayed on level 0 through
/// the public functions in the order `Hierarchy::build` calls them.
fn setup_replay(a: &Csr, m: &mut Metrics, tr: &mut Tracer) {
    let cfg = amg_config(None);
    let n = a.nrows();
    let (s, t) = timed(tr, "core.strength", 2, || {
        strength(a, cfg.strength_threshold, cfg.max_row_sum)
    });
    m.put("core.strength.s", t);
    let (c, t) = timed(tr, "core.coarsen", 2, || pmis(&s, cfg.seed));
    m.put("core.coarsen.s", t);
    let ((ap, nc, sp), t) = timed(tr, "core.reorder", 2, || {
        let (ap, ord) = cf_reorder(a, &c.is_coarse);
        let sp = permute_symmetric(&s, &ord.perm);
        (ap, ord.nc, sp)
    });
    m.put("core.reorder.s", t);
    let cf = CfMap::new((0..n).map(|i| i < nc).collect());
    let trunc = TruncParams {
        factor: cfg.trunc_factor,
        max_elements: cfg.max_elements,
    };
    let (p, t) = timed(tr, "core.interp", 2, || {
        extended_i(&ap, &sp, &cf, Some(&trunc))
    });
    m.put("core.interp.s", t);
    drop((s, sp));

    let (_, t) = timed(tr, "sparse.transpose", 3, || transpose_par(&p));
    m.put("sparse.transpose.s", t);
    let (_, t) = timed(tr, "sparse.spgemm", 2, || spgemm(&ap, &p));
    let flops = 2.0 * spgemm_flops_bound(&ap, &p) as f64;
    m.put("sparse.spgemm.s", t);
    m.put("sparse.spgemm.flops", flops);
    m.put("sparse.spgemm.gflops", flops / t / 1e9);
    let pf = fine_block(&p, nc);
    let (mut ac, t) = timed(tr, "sparse.rap", 2, || rap_cf_from_parts(&ap, nc, &pf));
    m.put("sparse.rap.s", t);
    let ((), t) = timed(tr, "sparse.rap_numeric", 2, || {
        rap_cf_numeric_from_parts(&ap, nc, &pf, &mut ac);
    });
    m.put("sparse.rap_numeric.s", t);
    // The smoother reorders its operator in place, so each call gets its
    // own copy, made (and dropped) outside the span.
    let mut copies = vec![ap.clone(), ap];
    let (_, t) = timed(tr, "core.smoother_setup", 2, || {
        let mut own = copies.pop().expect("one copy per repetition");
        let smoother = Smoother::hybrid_opt(&mut own, nc, 2);
        (own, smoother)
    });
    m.put("core.smoother_setup.s", t);
}

/// Solve-phase kernels of `famg-sparse` and `famg-core` on the stored
/// level-0 operator, then V-cycle time by level. `ws_gbs` is the
/// working-set-matched triad every `stream_frac` is taken against.
fn solve_kernels(mut h: Hierarchy, b: &[f64], ws_gbs: f64, m: &mut Metrics, tr: &mut Tracer) {
    let n = h.n();
    let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
    let mut y = vec![0.0; n];
    let xm = MultiVec::from_columns(&vec![x.clone(); K]);
    let bm = MultiVec::from_columns(&vec![b.to_vec(); K]);
    let mut ym = MultiVec::new(n, K);
    {
        let (a0, smoother) = (&h.levels[0].a, &h.levels[0].smoother);
        let vec_bytes = n * traffic::VAL_BYTES;

        let t = kernel(tr, "sparse.spmv", || spmv(a0, &x, &mut y));
        let rate = gbs(traffic::spmv_bytes(a0), t);
        m.put("sparse.spmv.s", t);
        m.put("sparse.spmv.gbs", rate);
        m.put("sparse.spmv.stream_frac", rate / ws_gbs);
        m.put(
            "sparse.spmv.bytes_per_nnz",
            traffic::spmv_bytes(a0) as f64 / a0.nnz() as f64,
        );
        let t = kernel(tr, "sparse.residual_norm_sq", || {
            black_box(residual_norm_sq(a0, &x, b, &mut y));
        });
        m.put("sparse.residual_norm_sq.s", t);
        let t = kernel(tr, "sparse.vecops.dot", || {
            black_box(dot(&x, b));
        });
        m.put("sparse.vecops.dot.s", t);
        let t = kernel(tr, "sparse.vecops.axpy", || axpy(1e-9, &x, &mut y));
        m.put("sparse.vecops.axpy.s", t);
        m.put("sparse.vecops.gbs", gbs(3 * vec_bytes, t));
        let t = kernel(tr, "sparse.spmm", || spmm(a0, &xm, &mut ym));
        m.put("sparse.spmm.s", t);
        m.put(
            "sparse.spmm.gbs",
            gbs(traffic::matrix_bytes(a0) + 2 * K * vec_bytes, t),
        );

        let mut sws = Workspace::new();
        let t = kernel(tr, "core.smoother.sweep", || {
            smoother.pre_smooth(a0, b, &mut y, &mut sws, false);
        });
        let rate = gbs(traffic::gs_sweep_bytes(a0), t);
        m.put("core.smoother.sweep.s", t);
        m.put("core.smoother.gbs", rate);
        m.put("core.smoother.stream_frac", rate / ws_gbs);
        let t = kernel(tr, "core.smoother.sweep_batch", || {
            smoother.pre_smooth_batch(a0, &bm, &mut ym, &mut sws, false);
        });
        m.put("core.smoother.sweep_batch.s", t);
    }
    let mut bws = BatchCycleWorkspace::for_hierarchy(&h, K);
    let t = kernel(tr, "core.cycle.vcycle_batch", || {
        vcycle_batch(&h, &bm, &mut ym, &mut bws);
    });
    m.put("core.cycle.vcycle_batch.s", t);
    drop((xm, bm, ym, bws));

    // Time by level: a V-cycle from level l minus one from level l+1,
    // taken by peeling finer levels off the hierarchy, so it is the
    // library's own cycle that runs, not a copy of it.
    let nnz = h.stats.level_nnz.clone();
    let mut from = Vec::new();
    loop {
        let nl = h.n();
        let (bl, mut xl) = (vec![1.0; nl], vec![0.0; nl]);
        let mut ws = CycleWorkspace::for_hierarchy(&h);
        from.push(kernel(tr, "core.cycle.vcycle", || {
            vcycle(&h, &bl, &mut xl, &mut ws);
        }));
        if from.len() == 3 || h.levels.len() == 1 {
            break;
        }
        h.levels.remove(0);
    }
    from.resize(3, 0.0);
    m.put("core.cycle.vcycle.s", from[0]);
    m.put("core.level.l0.s", (from[0] - from[1]).max(0.0));
    m.put("core.level.l1.s", (from[1] - from[2]).max(0.0));
    m.put("core.level.rest.s", from[2]);
    m.put("core.level.l0.nnz", nnz[0] as f64);
    m.put("core.level.l1.nnz", nnz.get(1).map_or(0.0, |&v| v as f64));
    m.put(
        "core.level.rest.nnz",
        nnz.iter().skip(2).sum::<usize>() as f64,
    );
}

/// Times every application of the AMG preconditioner from outside, so
/// the Krylov loop's own share is what is left of the solve.
struct TimedPrecond<'a> {
    inner: &'a AmgSolver,
    calls: RefCell<Vec<(Instant, Instant)>>,
}

impl TimedPrecond<'_> {
    fn time(&self, f: impl FnOnce()) {
        let t0 = Instant::now();
        f();
        self.calls.borrow_mut().push((t0, Instant::now()));
    }
}

impl Preconditioner for TimedPrecond<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.time(|| self.inner.apply(r, z));
    }

    fn apply_batch(&self, r: &MultiVec, z: &mut MultiVec) {
        self.time(|| self.inner.apply_batch(r, z));
    }
}

/// The solver, Krylov and refresh probes: one stand-alone solve, a k-wide
/// and a one-column preconditioned CG, and numeric refreshes.
fn solver_probes(inp: &Inputs, setup_s: f64, m: &mut Metrics, tr: &mut Tracer) -> SerialLeg {
    let (a, n) = (&inp.a, inp.a.nrows());
    let cfg = amg_config(None);
    let (mut solver, _) = tr.scope("core.solver.setup_refreshable", |_| {
        AmgSolver::setup_refreshable(a, &cfg)
    });

    // Solved twice: the first solve after a setup also faults the cycle
    // workspace in, which no replayed kernel accounts for.
    let b = &inp.rhs[0];
    let mut x = vec![0.0; n];
    solver.solve(b, &mut x);
    x.fill(0.0);
    let (res, solve_s) = tr.scope("core.solver.solve", |_| solver.solve(b, &mut x));
    m.count(solve_ok(a, &x, b, res.converged, TOLERANCE));
    let leg = SerialLeg {
        setup_s,
        solve_s,
        iterations: res.iterations,
    };
    m.put("core.solver.iterations", res.iterations as f64);
    m.put(
        "core.solver.conv_factor",
        asymptotic_factor(&res.history, 3).unwrap_or(0.0),
    );
    m.put(
        "core.solver.flops",
        res.profile.total_counter("flops") as f64,
    );
    let per_iteration = m.get("core.cycle.vcycle.s") + m.get("sparse.residual_norm_sq.s");
    m.put(
        "core.solve.unattributed_frac",
        1.0 - res.iterations as f64 * per_iteration / solve_s,
    );

    let opts = CgOptions {
        tolerance: TOLERANCE,
        max_iterations: 200,
    };
    let cols: Vec<Vec<f64>> = (0..K).map(|j| inp.rhs[j % inp.rhs.len()].clone()).collect();
    let bb = MultiVec::from_columns(&cols);
    let mut xb = MultiVec::new(n, K);
    let pre = TimedPrecond {
        inner: &solver,
        calls: RefCell::new(Vec::new()),
    };
    let ((res, precond_s), s) = tr.scope("krylov.cg_batch", |tr| {
        let res = cg_batch(a, &bb, &mut xb, &pre, &opts);
        let mut inside = 0.0;
        for (t0, t1) in pre.calls.take() {
            tr.record("core.solver.apply_batch", t0, t1, 0);
            inside += (t1 - t0).as_secs_f64();
        }
        (res, inside)
    });
    m.count((0..K).all(|j| solve_ok(a, &xb.col(j), &cols[j], res.converged[j], TOLERANCE)));
    m.put("krylov.cg_batch.s", s);
    m.put(
        "krylov.cg_batch.iterations",
        res.iterations.iter().copied().max().unwrap_or(0) as f64,
    );
    m.put("krylov.cg_batch.precond_s", precond_s);
    m.put("krylov.cg_batch.self_s", s - precond_s);
    x.fill(0.0);
    let (res, s) = tr.scope("krylov.cg", |_| cg(a, b, &mut x, &solver, &opts));
    m.count(solve_ok(a, &x, b, res.converged, TOLERANCE));
    m.put("krylov.cg.s", s);

    // The workload's own drift steps where it has them, else the same
    // values again: the numeric passes do the same work either way.
    let steps: Vec<&Csr> = if inp.drift.is_empty() {
        vec![a; 2]
    } else {
        inp.drift.iter().collect()
    };
    let mut steps = steps.into_iter();
    let (ok, t) = timed(tr, "core.solver.refresh", steps.len(), || {
        solver
            .refresh(steps.next().expect("one step per repetition"))
            .is_ok()
    });
    m.count(ok);
    m.put("core.refresh.s", t);
    m.put("core.refresh.over_setup", t / setup_s);
    leg
}

/// All single-process probes of `famg-sparse`, `famg-core` and
/// `famg-krylov` on the workload's operator.
pub fn serial(inp: &Inputs, ws_gbs: f64, m: &mut Metrics, tr: &mut Tracer) -> SerialLeg {
    let a = &inp.a;
    setup_replay(a, m, tr);
    let (h, setup_s) = tr.scope("core.hierarchy.build", |_| {
        Hierarchy::build(a, &amg_config(None))
    });
    m.put("core.hierarchy.levels", h.num_levels() as f64);
    m.put(
        "core.hierarchy.operator_complexity",
        h.stats.operator_complexity(),
    );
    m.put("core.hierarchy.grid_complexity", h.stats.grid_complexity());
    solve_kernels(h, &inp.rhs[0], ws_gbs, m, tr);
    solver_probes(inp, setup_s, m, tr)
}

/// The same setup + solve as [`serial`] times, alone: what the
/// other-pool-size child runs. Its first round only warms the fresh
/// process up, as the parent's repetitions have warmed the parent.
pub fn serial_leg(inp: &Inputs, m: &mut Metrics) -> SerialLeg {
    let mut tr = Tracer::new(false);
    let cfg = amg_config(None);
    let b = &inp.rhs[0];
    let mut round = || {
        let (h, setup_s) = tr.scope("core.hierarchy.build", |_| Hierarchy::build(&inp.a, &cfg));
        let solver =
            AmgSolver::from_hierarchy(h).expect("a hierarchy fresh from build is well-formed");
        // The second solve is the timed one, as in `solver_probes`.
        let mut x = vec![0.0; b.len()];
        solver.solve(b, &mut x);
        x.fill(0.0);
        let (res, solve_s) = tr.scope("core.solver.solve", |_| solver.solve(b, &mut x));
        m.count(solve_ok(&inp.a, &x, b, res.converged, TOLERANCE));
        SerialLeg {
            setup_s,
            solve_s,
            iterations: res.iterations,
        }
    };
    round();
    round()
}

/// The `famg-dist` probes: a two-rank build + FGMRES solve of the
/// workload's operator with level-0 kernel timings on the live ranks,
/// and a one-rank run of the half-size problem for the weak-scaling
/// efficiency. Must run in a process whose pool has one thread.
pub fn dist(inp: &Inputs, half: &Inputs, m: &mut Metrics, tr: &mut Tracer) {
    const RANKS: usize = 2;
    let (a, b) = (&inp.a, &inp.rhs[0]);
    let (parts, report) = dist_build_solve(a, b, RANKS, None, |c, h, bl| {
        let l0 = &h.levels[0];
        let mut y = vec![0.0; bl.len()];
        // Ranks step through the probes together, as they do in a solve.
        let lockstep = |reps: usize, f: &mut dyn FnMut()| {
            let secs: Vec<f64> = (0..reps)
                .map(|_| {
                    c.barrier();
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64()
                })
                .collect();
            median(&secs)
        };
        let spmv_s = lockstep(9, &mut || dist_spmv(c, &l0.a, &l0.plan_a, bl, &mut y));
        let halo_s = lockstep(9, &mut || {
            black_box(l0.plan_a.exchange(c, bl));
        });
        let vcycle_s = lockstep(5, &mut || {
            y.fill(0.0);
            dist_vcycle(c, h, 0, bl, &mut y);
        });
        [spmv_s, halo_s, vcycle_s]
    });

    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let (build_s, solve_s, ok) = dist_outcome(a, b, &parts, tr);
    m.count(ok);

    let iterations = parts[0].0.iterations.max(1) as f64;
    let sum = |f: &dyn Fn(&RankOut) -> u64| -> f64 {
        parts.iter().map(|(p, _)| f(p)).sum::<u64>() as f64
    };
    m.put("dist.hierarchy.build.s", build_s);
    m.put("dist.solve.s", solve_s);
    m.put("dist.solve.iterations", iterations);
    m.put("dist.comm.setup_messages", sum(&|p| p.messages.0));
    m.put("dist.comm.setup_bytes", sum(&|p| p.bytes.0));
    m.put("dist.comm.solve_messages", sum(&|p| p.messages.1));
    m.put("dist.comm.solve_bytes", sum(&|p| p.bytes.1));
    m.put(
        "dist.comm.messages_per_iter",
        sum(&|p| p.messages.1) / iterations,
    );
    m.put("dist.comm.bytes_per_iter", sum(&|p| p.bytes.1) / iterations);
    // The lockstep V-cycles above add solve-scoped traffic of the same
    // per-level shape, so the fraction is unaffected by them.
    let (mut coarse, mut all) = (0u64, 0u64);
    for (&(level, phase), t) in &report.per_scope {
        if level != UNSCOPED_LEVEL && phase != CommPhase::Other {
            all += t.messages;
            coarse += if level >= 2 { t.messages } else { 0 };
        }
    }
    m.put(
        "dist.comm.coarse_messages_frac",
        coarse as f64 / all.max(1) as f64,
    );
    let wait: Vec<f64> = parts.iter().map(|(p, _)| p.wait_s).collect();
    m.put("dist.comm.wait_s", max(&wait));
    m.put("dist.comm.wait_frac", max(&wait) / solve_s);
    let busy: Vec<f64> = parts.iter().map(|(p, _)| p.solve_s() - p.wait_s).collect();
    m.put(
        "dist.rank_imbalance",
        max(&busy) / (busy.iter().sum::<f64>() / busy.len() as f64),
    );
    for (i, name) in ["dist.spmv.s", "dist.halo.exchange.s", "dist.vcycle.s"]
        .into_iter()
        .enumerate()
    {
        let per_rank: Vec<f64> = parts.iter().map(|(_, k)| k[i]).collect();
        m.put(name, max(&per_rank));
    }

    // Weak scaling: half the problem on one rank against all of it on two.
    let (one, _) = dist_build_solve(&half.a, &half.rhs[0], 1, None, |_, _, _| ());
    let (build1_s, solve1_s, ok) =
        dist_outcome(&half.a, &half.rhs[0], &one, &mut Tracer::new(false));
    m.count(ok);
    m.put(
        "dist.weak_eff_2r",
        (build1_s + solve1_s) / (build_s + solve_s),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fine_block_drops_the_identity_rows() {
        let p = Csr::from_triplets(
            3,
            2,
            vec![(0, 0, 1.0), (1, 1, 1.0), (2, 0, 0.5), (2, 1, 0.5)],
        );
        let pf = fine_block(&p, 2);
        assert_eq!((pf.nrows(), pf.ncols(), pf.nnz()), (1, 2, 2));
        assert_eq!(pf.row_vals(0), &[0.5, 0.5]);
    }
}
