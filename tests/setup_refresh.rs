//! Cross-crate tests of the numeric-refresh setup path: a frozen setup
//! absorbing same-pattern operators must be indistinguishable — bitwise —
//! from rebuilding from scratch, across many random coefficient drifts,
//! and must refuse mismatched inputs without corrupting state. The
//! `setup_refresh --smoke` bench's refresh path is pinned exactly.

mod common;

use famg::core::coarsen::pmis;
use famg::core::interp::{extended_i, CfMap, ExtITape, TapeMismatch, TruncParams};
use famg::core::strength::strength;
use famg::core::{AmgConfig, AmgSolver, Hierarchy, InterpKind, RefreshError};
use famg::matgen::{reservoir_field, rhs, varcoef3d_7pt};
use famg::sparse::Csr;

use common::SmokeFigures;

const NX: usize = 10;
const NY: usize = 10;
const NZ: usize = 6;

fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 33) as f64) / ((1u64 << 31) as f64)
}

/// Smooth positive base coefficient field.
fn base_field() -> Vec<f64> {
    (0..NX * NY * NZ)
        .map(|i| {
            let x = (i % NX) as f64 / NX as f64;
            let t = (i / NX) as f64 / ((NY * NZ) as f64);
            1.0 + 0.5 * (5.0 * (x + t)).sin().powi(2)
        })
        .collect()
}

/// Applies a seeded multiplicative drift small enough (1e-5 relative)
/// that no frozen threshold decision — strength cut, PMIS tie-break,
/// truncation kept-set, sign filter — flips: the regime the refresh
/// contract guarantees bitwise agreement for.
fn drifted(base: &[f64], seed: u64) -> Vec<f64> {
    let mut st = seed.wrapping_mul(2654435761).wrapping_add(1);
    base.iter()
        .map(|&k| k * (1.0 + 1e-5 * (lcg(&mut st) - 0.5)))
        .collect()
}

fn assert_levels_bitwise(refreshed: &Hierarchy, scratch: &Hierarchy, tag: &str) {
    assert_eq!(refreshed.levels.len(), scratch.levels.len(), "{tag}");
    for (lvl, (r, f)) in refreshed.levels.iter().zip(&scratch.levels).enumerate() {
        assert_eq!(r.a, f.a, "{tag}: operator differs at level {lvl}");
    }
}

#[test]
fn fuzz_refresh_matches_rebuild_over_fifty_drifts() {
    let base = base_field();
    let a0 = varcoef3d_7pt(NX, NY, NZ, &base);
    let cfg = AmgConfig::single_node_paper();
    let mut solver = AmgSolver::setup_refreshable(&a0, &cfg);
    let b = rhs::ones(a0.nrows());
    for seed in 0..50u64 {
        let at = varcoef3d_7pt(NX, NY, NZ, &drifted(&base, seed));
        solver.refresh(&at).unwrap_or_else(|e| {
            panic!("seed {seed}: same-pattern drift must refresh: {e}");
        });
        let scratch = AmgSolver::setup(&at, &cfg);
        assert_levels_bitwise(
            solver.hierarchy(),
            scratch.hierarchy(),
            &format!("seed {seed}"),
        );
        // The solve itself must be bitwise reproducible too.
        let mut x1 = vec![0.0; a0.nrows()];
        let mut x2 = vec![0.0; a0.nrows()];
        let r1 = solver.solve(&b, &mut x1);
        let r2 = scratch.solve(&b, &mut x2);
        assert_eq!(r1.iterations, r2.iterations, "seed {seed}: iteration drift");
        assert_eq!(x1, x2, "seed {seed}: solve not bitwise identical");
    }
}

#[test]
fn refresh_without_frozen_setup_is_an_error() {
    let a = varcoef3d_7pt(NX, NY, NZ, &base_field());
    let mut solver = AmgSolver::setup(&a, &AmgConfig::single_node_paper());
    assert_eq!(solver.refresh(&a).unwrap_err(), RefreshError::NoFrozenSetup);
}

#[test]
fn refresh_rejects_wrong_pattern_and_stays_usable() {
    let base = base_field();
    let a0 = varcoef3d_7pt(NX, NY, NZ, &base);
    let n = a0.nrows();
    let cfg = AmgConfig::single_node_paper();
    let mut solver = AmgSolver::setup_refreshable(&a0, &cfg);

    // Same size, different sparsity.
    let err = solver.refresh(&Csr::identity(n)).unwrap_err();
    assert!(matches!(
        err,
        RefreshError::PatternMismatch { level: 0, .. }
    ));
    // Different size.
    let smaller = varcoef3d_7pt(NX, NY, NZ - 1, &base[..NX * NY * (NZ - 1)]);
    assert!(solver.refresh(&smaller).is_err());

    // The failed refreshes must leave the solver fully usable.
    let b = rhs::ones(n);
    let mut x = vec![0.0; n];
    assert!(solver.solve(&b, &mut x).converged);
    // And a valid refresh still works afterwards.
    let at = varcoef3d_7pt(NX, NY, NZ, &drifted(&base, 7));
    solver.refresh(&at).unwrap();
    assert!(solver.solve(&b, &mut x).converged);
}

#[test]
fn refresh_covers_every_single_shot_interp_kind() {
    let base = base_field();
    let a0 = varcoef3d_7pt(NX, NY, NZ, &base);
    // The single-shot scheme, extended+i, its `P_F` replayed in place.
    let cfg = AmgConfig::single_node_paper();
    assert_eq!(cfg.interp, InterpKind::ExtendedI);
    let mut solver = AmgSolver::setup_refreshable(&a0, &cfg);
    for seed in 200..205u64 {
        let at = varcoef3d_7pt(NX, NY, NZ, &drifted(&base, seed));
        solver.refresh(&at).unwrap();
        let scratch = AmgSolver::setup(&at, &cfg);
        assert_levels_bitwise(
            solver.hierarchy(),
            scratch.hierarchy(),
            &format!("seed {seed}"),
        );
    }
}

/// A captured extended+i level of the base operator: `(a, s, cf, P, tape)`.
fn captured_level() -> (Csr, Csr, CfMap, Csr, ExtITape) {
    let a = varcoef3d_7pt(NX, NY, NZ, &base_field());
    let s = strength(&a, 0.25, 0.8);
    let cf = CfMap::new(pmis(&s, 1).is_coarse);
    let (p, tape) = ExtITape::capture(&a, &s, &cf, Some(&TruncParams::paper()));
    let tape = tape.expect("rows within 16 bits");
    (a, s, cf, p, tape)
}

// `ExtITape::replay` is public and indexes its operand by recorded nnz
// positions: a wrong operand must be an error in release builds too (this
// file is what `scripts/check.sh` runs with `--release`).
#[test]
fn tape_replay_refuses_an_operand_of_another_shape() {
    let (a, _, _, p, tape) = captured_level();
    let operand = Err(TapeMismatch("extended+i tape operand"));
    // Fewer rows; the same rows with fewer nonzeros; and with more.
    let smaller = varcoef3d_7pt(NX, NY, NZ - 1, &base_field()[..NX * NY * (NZ - 1)]);
    assert_eq!(tape.replay(&smaller, &p), operand);
    assert_eq!(tape.replay(&Csr::identity(a.nrows()), &p), operand);
    let denser = famg::sparse::spgemm::spgemm_one_pass(&a, &a);
    assert_eq!(tape.replay(&denser, &p), operand);
    assert_eq!(tape.replay(&a, &p), Ok(p));
}

#[test]
fn tape_replay_refuses_a_pattern_of_another_shape() {
    let (a, s, cf, p, tape) = captured_level();
    let pattern = Err(TapeMismatch("extended+i tape pattern"));
    // The untruncated operator has the rows but more nonzeros.
    assert_eq!(tape.replay(&a, &extended_i(&a, &s, &cf, None)), pattern);
    assert_eq!(
        tape.replay(&a, &Csr::zero(p.nrows() - 1, p.ncols())),
        pattern
    );
}

/// A refreshable setup runs extended+i once per level: the recording run is
/// the interpolation run, so it visits exactly the view entries a plain
/// setup visits, and what is left under `capture@l` is copying.
#[test]
fn refreshable_setup_runs_extended_i_once_per_level() {
    if !famg_prof::enabled() {
        return;
    }
    let a = varcoef3d_7pt(2 * NX, 2 * NY, 2 * NZ, &vec![1.0; 8 * NX * NY * NZ]);
    let cfg = AmgConfig::single_node_paper();
    let plain = AmgSolver::setup(&a, &cfg);
    // Three refreshable setups: a span is read as its fastest run, so
    // being descheduled inside a microsecond-long one decides nothing.
    let runs: Vec<AmgSolver> = (0..3)
        .map(|_| AmgSolver::setup_refreshable(&a, &cfg))
        .collect();
    fn profile(s: &AmgSolver) -> &famg_prof::Profile {
        &s.hierarchy().profile
    }
    let visited = |s: &AmgSolver| profile(s).total_counter("interp_entries_visited");
    assert!(visited(&plain) > 0);
    assert_eq!(visited(&runs[0]), visited(&plain));

    let fastest = |name: &str, level: usize| {
        let walls = runs.iter().map(|s| {
            let root = profile(s).find_root("setup").expect("setup span");
            let mut spans = root.children.iter();
            let found = spans.find(|c| c.name == name && c.level == level);
            found.expect("a span per stage and level").wall
        });
        walls.min().expect("three runs")
    };
    let levels = runs[0].hierarchy().num_levels() - 1;
    assert!(levels >= 2);
    for l in 0..levels {
        assert!(fastest("capture", l) <= fastest("interp", l), "level {l}");
    }
}

/// The refresh path of `setup_refresh --smoke`: a reservoir 24×24×12
/// operator frozen at step 0 and refreshed through three drift steps,
/// each followed by a solve. The last step's iterations and complexities,
/// and the flops of every refresh and solve.
#[test]
fn bench_smoke_refresh_path_is_pinned() {
    let (nx, ny, nz) = (24, 24, 12);
    let base = reservoir_field(nx, ny, nz, 6, 2.0, 2, 42);
    // The bench's drift: a smooth multiplicative 1e-5 * t wave.
    let step = |t: usize| {
        let k: Vec<f64> = (base.iter().enumerate())
            .map(|(i, &k)| {
                let x = (i % nx) as f64 / nx as f64;
                let d = (i / nx) as f64 / ((ny * nz) as f64);
                k * (1.0 + 1e-5 * (t as f64) * (7.0 * (x - d)).cos())
            })
            .collect();
        varcoef3d_7pt(nx, ny, nz, &k)
    };
    let cfg = AmgConfig {
        smoother_tasks: Some(2),
        ..AmgConfig::single_node_paper()
    };
    let mut solver = AmgSolver::setup_refreshable(&step(0), &cfg);
    let b = rhs::ones(nx * ny * nz);
    let mut flops = 0;
    let mut iterations = 0;
    for t in 1..=3 {
        solver
            .refresh(&step(t))
            .expect("same-pattern drift must refresh");
        let mut x = vec![0.0; b.len()];
        let res = solver.solve(&b, &mut x);
        assert!(res.converged, "step {t} did not converge");
        flops +=
            solver.hierarchy().profile.total_counter("flops") + res.profile.total_counter("flops");
        iterations = res.iterations;
    }
    SmokeFigures::new(iterations, &solver.hierarchy().stats, flops, 0, 0)
        .assert_pinned(SETUP_REFRESH_SMOKE);
}

/// Recorded at the change that replaced the bench record's 1.25x gate.
const SETUP_REFRESH_SMOKE: SmokeFigures = SmokeFigures {
    iterations: 10,
    operator_complexity: 2.6348090277777776,
    grid_complexity: 1.3998842592592593,
    levels: 5,
    flops: 28_855_764,
    comm_bytes: 0,
    comm_messages: 0,
};
