//! Deterministic fuzz tests for the AMG components: PMIS and extended+i
//! against the reference AMG's definitions (`common::reference`),
//! truncation against its specification, interpolation invariants, and
//! end-to-end convergence on random diagonally dominant SPD systems.

mod common;

use common::reference::{self as re, Eq1Coverage};
use common::{graph_laplacian, random_marker, random_permutation, FuzzRng};
use famg::core::coarsen::pmis;
use famg::core::interp::{extended_i, truncate_row, CfMap, ExtITape, TruncParams};
use famg::core::strength::strength;
use famg::core::{AmgConfig, AmgSolver};
use famg::sparse::permute::{cf_permutation, permute_symmetric};
use famg::sparse::Csr;

const CASES: u64 = 32;

#[test]
fn pmis_always_valid() {
    for case in 0..CASES {
        let mut rng = FuzzRng::new(case);
        let n = rng.range(4, 60);
        let extra = rng.below(3 * n + 1);
        let a = graph_laplacian(&mut rng, n, extra, 0.0);
        let s = strength(&a, 0.25, 10.0);
        let c = pmis(&s, case);
        let want = re::pmis(&re::pattern(&s), case);
        assert!(
            c.is_coarse == want,
            "case {case}: PMIS differs from its definition"
        );
        // Non-trivial coarsening on non-trivial graphs.
        if s.nnz() > 0 {
            assert!(c.ncoarse > 0, "case {case}");
            assert!(c.ncoarse < a.nrows(), "case {case}");
        }
    }
}

#[test]
fn extended_i_rows_sum_to_one_on_zero_rowsum_operators() {
    // Pure graph Laplacian: every row sums to zero, so interpolation
    // must reproduce constants exactly.
    for case in 0..CASES {
        let mut rng = FuzzRng::new(0x100 + case);
        let n = rng.range(4, 40);
        let extra = rng.below(3 * n + 1);
        let a = graph_laplacian(&mut rng, n, extra, 0.0);
        let s = strength(&a, 0.25, 10.0);
        let c = pmis(&s, case);
        let cf = CfMap::new(c.is_coarse);
        let p = extended_i(&a, &s, &cf, None);
        for i in 0..p.nrows() {
            if p.row_nnz(i) > 0 {
                let w: f64 = p.row_vals(i).iter().sum();
                assert!((w - 1.0).abs() < 1e-9, "case {case}: row {i} sums to {w}");
            }
        }
    }
}

#[test]
fn extended_i_matches_eq1_evaluated_from_the_definitions() {
    // Small integer-valued operators: sign-mixed, nonsymmetric, some rows
    // without a stored diagonal, a random strength pattern and a random
    // C/F marking in the original (not coarse-first) ordering, then the
    // same problem CF-permuted. Integer entries make exact-zero b_ik and
    // ã_ii happen often enough to cover the guards.
    let mut cov = Eq1Coverage::default();
    for case in 0..400 {
        let mut rng = FuzzRng::new(0x700 + case);
        let n = rng.range(3, 14);
        let mut trips = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let keep = if i == j {
                    rng.below(8) > 0
                } else {
                    rng.below(3) == 0
                };
                if keep {
                    let mag = rng.range(1, 4) as f64;
                    let negative = if i == j {
                        rng.below(6) == 0
                    } else {
                        rng.below(4) > 0
                    };
                    trips.push((i, j, if negative { -mag } else { mag }));
                }
            }
        }
        let a = Csr::from_triplets(n, n, trips);
        let s_trips: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|i| a.row_iter(i).map(move |(j, v)| (i, j, v)))
            .filter(|&(i, j, _)| i != j && rng.below(3) > 0)
            .collect();
        let s = Csr::from_triplets(n, n, s_trips);
        let is_coarse = random_marker(&mut rng, n);

        let (perm, _) = cf_permutation(&is_coarse);
        let orderings = [
            (a.clone(), s.clone(), is_coarse.clone()),
            (
                permute_symmetric(&a, &perm),
                permute_symmetric(&s, &perm),
                perm.inverse.iter().map(|&old| is_coarse[old]).collect(),
            ),
        ];
        for (which, (a, s, is_coarse)) in orderings.into_iter().enumerate() {
            let want = re::extended_i(&re::dense(&a), &re::pattern(&s), &is_coarse, &mut cov);
            let cf = CfMap::new(is_coarse);
            let want = re::to_dense(&want, cf.nc);
            let got = extended_i(&a, &s, &cf, None).to_dense();
            let (raw, tape) = ExtITape::capture(&a, &s, &cf, None);
            let tape = tape.expect("rows within 16 bits");
            assert_eq!(raw.to_dense(), got, "case {case}/{which}: capture");
            assert_eq!(
                tape.replay(&a, &raw).expect("same operand").to_dense(),
                got,
                "case {case}/{which}: replay"
            );
            for i in 0..n {
                for c in 0..cf.nc {
                    let (g, w) = (got[i * cf.nc + c], want[i][c]);
                    assert!(
                        (g - w).abs() <= 1e-12 * w.abs().max(1.0),
                        "case {case}/{which}: P[{i}, {c}] = {g}, Eq. 1 gives {w}"
                    );
                }
            }
        }
    }
    assert!(cov.lumped_bik > 0, "no b_ik = 0 case generated");
    assert!(cov.empty_chat > 0, "no empty Ĉ_i generated");
    assert!(cov.zero_atilde > 0, "no ã_ii = 0 case generated");
    assert!(cov.missing_aki > 0, "no missing a_ki generated");
    assert!(
        cov.same_sign_coarse > 0,
        "no same-sign coarse entry generated"
    );
}

#[test]
fn truncate_row_matches_its_specification() {
    let max_elements = 4usize;
    // Lengths around the cap first, then random ones.
    let lens = [0, 1, max_elements, max_elements + 1];
    for case in 0..300u64 {
        let mut rng = FuzzRng::new(0x200 + case);
        let len = match lens.get(case as usize) {
            Some(&l) => l,
            None => rng.below(40),
        };
        // Weights from a handful of magnitudes, so ties (broken by
        // column) are the rule; columns distinct, in scrambled order.
        let vals: Vec<f64> = (0..len)
            .map(|_| {
                [0.05, 0.25, 0.25, 0.5, 1.0][rng.below(5)] * if rng.bool() { 1.0 } else { -1.0 }
            })
            .collect();
        let cols: Vec<usize> = random_permutation(&mut rng, len).forward;
        let p = TruncParams {
            factor: [0.0, 0.1, 0.3][rng.below(3)],
            max_elements: if case % 7 == 6 { 0 } else { max_elements },
        };
        let (want_cols, want_vals) = re::truncate_spec(&cols, &vals, &p);
        let (mut got_cols, mut got_vals) = (cols.clone(), vals.clone());
        let capacity = (got_cols.capacity(), got_vals.capacity());
        truncate_row(&mut got_cols, &mut got_vals, &p);
        assert_eq!(got_cols, want_cols, "case {case}: kept set / order");
        assert_eq!(got_vals, want_vals, "case {case}: rescaled weights");
        assert_eq!(
            (got_cols.capacity(), got_vals.capacity()),
            capacity,
            "case {case}: the caller's buffers were replaced"
        );
        if p.max_elements > 0 {
            assert!(got_cols.len() <= p.max_elements, "case {case}");
        }
        let (before, after): (f64, f64) = (vals.iter().sum(), got_vals.iter().sum());
        if before != 0.0 && after != 0.0 {
            assert!(
                (after - before).abs() < 1e-12,
                "case {case}: row sum {before} -> {after}"
            );
        }
    }
}

/// `truncate_row` as it stood before its `max_elements` cut was found in one
/// scan: the cut is the `max_elements`-th rank by repeated selection, each
/// round a full scan for the first rank after the previous pick.
fn truncate_by_repeated_selection(cols: &mut Vec<usize>, vals: &mut Vec<f64>, p: &TruncParams) {
    type Rank = (std::cmp::Reverse<u64>, usize, usize);
    let rank = |at: usize, col: usize, val: f64| (std::cmp::Reverse(val.abs().to_bits()), col, at);
    fn retain(c: &mut Vec<usize>, v: &mut Vec<f64>, keep: impl Fn(usize, usize, f64) -> bool) {
        let kept: Vec<usize> = (0..c.len()).filter(|&i| keep(i, c[i], v[i])).collect();
        *c = kept.iter().map(|&i| c[i]).collect();
        *v = kept.iter().map(|&i| v[i]).collect();
    }
    if cols.is_empty() {
        return;
    }
    let sum_before: f64 = vals.iter().sum();
    let thr = p.factor * vals.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    retain(cols, vals, |_, _, v| v.abs() >= thr);
    if p.max_elements > 0 && cols.len() > p.max_elements {
        let mut cut: Option<Rank> = None;
        for _ in 0..p.max_elements {
            cut = (0..cols.len())
                .map(|i| rank(i, cols[i], vals[i]))
                .filter(|r| cut.is_none_or(|prev| prev < *r))
                .min();
        }
        let cut = cut.expect("len > max_elements");
        retain(cols, vals, |i, c, v| rank(i, c, v) <= cut);
    }
    let sum_after: f64 = vals.iter().sum();
    if sum_after != 0.0 && sum_before != 0.0 {
        vals.iter_mut().for_each(|v| *v *= sum_before / sum_after);
    }
}

#[test]
fn truncate_row_selects_like_repeated_selection() {
    // Weights from a pool made of ties: equal magnitudes of either sign,
    // both zeros, infinities and NaN. Columns repeat now and then, so the
    // position is what breaks the last tie. Caps on both sides of the
    // stack buffer's size, rows on both sides of the cap.
    let nan = f64::NAN;
    let pool = [
        0.5,
        -0.5,
        0.25,
        -0.25,
        0.25,
        1.0,
        -1.0,
        0.0,
        -0.0,
        1e-3,
        f64::INFINITY,
        nan,
    ];
    let mut cut_rows = 0;
    for case in 0..4000u64 {
        let mut rng = FuzzRng::new(0x900 + case);
        let max_elements = rng.below(12);
        let len = match rng.below(4) {
            0 => rng.below(max_elements + 1),
            _ => rng.below(30),
        };
        // Mostly finite rows: a NaN or an infinity takes the whole row sum.
        let finite = rng.below(4) > 0;
        let vals: Vec<f64> = (0..len)
            .map(|_| pool[rng.below(if finite { 10 } else { pool.len() })])
            .collect();
        let cols: Vec<usize> = (0..len).map(|_| rng.below(2 * len)).collect();
        let p = TruncParams {
            factor: [0.0, 0.1, 0.25, 0.5][rng.below(4)],
            max_elements,
        };
        let (mut want_cols, mut want_vals) = (cols.clone(), vals.clone());
        truncate_by_repeated_selection(&mut want_cols, &mut want_vals, &p);
        let (mut got_cols, mut got_vals) = (cols, vals);
        truncate_row(&mut got_cols, &mut got_vals, &p);
        assert_eq!(got_cols, want_cols, "case {case}: kept set / order");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got_vals), bits(&want_vals), "case {case}: weights");
        cut_rows += usize::from(max_elements > 0 && got_cols.len() == max_elements);
    }
    assert!(cut_rows > 500, "only {cut_rows} rows reached the cap");
}

#[test]
fn truncate_row_orders_nan_weights_instead_of_panicking() {
    // A NaN weight fails the threshold comparison and is dropped there;
    // the keep order is total regardless, so no input can panic the
    // selection. The row sum is NaN, so the survivors are too.
    for nan_at in 0..7 {
        let mut cols: Vec<usize> = (0..7).collect();
        let mut vals = vec![0.4, -0.3, 0.2, 0.6, 0.1, 0.5, -0.7];
        vals[nan_at] = f64::NAN;
        truncate_row(&mut cols, &mut vals, &TruncParams::paper());
        assert_eq!(cols.len(), 4, "NaN at {nan_at}");
        assert!(!cols.contains(&nan_at), "NaN at {nan_at}");
    }
    // All-NaN row, and a NaN threshold factor: everything is dropped.
    let mut cols = vec![0, 1];
    let mut vals = vec![f64::NAN, f64::NAN];
    truncate_row(&mut cols, &mut vals, &TruncParams::paper());
    assert!(cols.is_empty());
}

#[test]
fn amg_converges_on_random_dominant_systems() {
    for case in 0..20 {
        let mut rng = FuzzRng::new(0x300 + case);
        let n = rng.range(4, 50);
        let extra = rng.below(3 * n + 1);
        let a = graph_laplacian(&mut rng, n, extra, 0.5);
        let b = famg::matgen::rhs::random(a.nrows(), case);
        let cfg = AmgConfig {
            max_iterations: 300,
            coarse_solve_size: 16,
            ..AmgConfig::single_node_paper()
        };
        let solver = AmgSolver::setup(&a, &cfg);
        let mut x = vec![0.0; a.nrows()];
        let res = solver.solve(&b, &mut x);
        assert!(
            res.converged,
            "case {case}: stalled at {:e}",
            res.final_relres
        );
    }
}

#[test]
fn hierarchy_levels_strictly_shrink() {
    for case in 0..CASES {
        let mut rng = FuzzRng::new(0x400 + case);
        let n = rng.range(4, 80);
        let extra = rng.below(3 * n + 1);
        let a = graph_laplacian(&mut rng, n, extra, 0.0);
        let h = famg::core::Hierarchy::build(&a, &AmgConfig::single_node_paper());
        for w in h.stats.level_rows.windows(2) {
            assert!(w[1] < w[0], "case {case}: {:?}", h.stats.level_rows);
        }
        assert!(
            h.stats.operator_complexity() < 6.0,
            "case {case}: complexity {}",
            h.stats.operator_complexity()
        );
    }
}
