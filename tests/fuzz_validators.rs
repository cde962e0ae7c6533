//! Randomized negative tests for the checks the reference suites make
//! (`common::reference` and `Csr::from_parts`): build a well-formed object,
//! require the check to accept it, corrupt it in a random spot, and require
//! the check to reject it. They keep the oracle honest: a check that
//! accepted a corrupted level would let `tests/reference_amg.rs` pass on a
//! broken setup.

mod common;

use common::reference::{self as re, Dense};
use common::{graph_laplacian, random_csr, FuzzRng};
use famg::core::coarsen::pmis;
use famg::core::interp::{extended_i, CfMap, TruncParams};
use famg::core::strength::strength;
use famg::sparse::spgemm::spgemm_one_pass;
use famg::sparse::transpose::transpose;
use famg::sparse::{Col, Csr};
use std::panic::{catch_unwind, AssertUnwindSafe};

const CASES: u64 = 24;

/// Whether `check` rejects its input, by panicking.
fn rejects(check: impl FnOnce()) -> bool {
    catch_unwind(AssertUnwindSafe(check)).is_err()
}

/// A random Laplacian plus a PMIS splitting and extended+i P — the
/// standard well-formed AMG triple the corruption tests start from.
fn amg_setup(rng: &mut FuzzRng, case: u64) -> (Csr, Csr, Vec<bool>, Csr) {
    let n = rng.range(8, 40);
    let extra = rng.below(2 * n);
    let a = graph_laplacian(rng, n, extra, 0.0);
    let s = strength(&a, 0.25, 10.0);
    let c = pmis(&s, case);
    let cf = CfMap::new(c.is_coarse.clone());
    let p = extended_i(&a, &s, &cf, None);
    (a, s, c.is_coarse, p)
}

fn rng_extra(rng: &mut FuzzRng, n: usize) -> usize {
    rng.below(2 * n + 1)
}

#[test]
fn structure_checks_catch_random_corruption() {
    for case in 0..CASES {
        let mut rng = FuzzRng::new(case);
        let n = rng.range(2, 30);
        let extra = rng_extra(&mut rng, n);
        let a = graph_laplacian(&mut rng, n, extra, 0.0);
        let clean = re::dense(&a);
        let nnz = a.nnz();
        // Non-finite value.
        let mut bad = a.clone();
        let k = rng.below(nnz);
        bad.values_mut()[k] = if rng.bool() { f64::NAN } else { f64::INFINITY };
        assert!(rejects(|| drop(re::dense(&bad))), "case {case}: NaN");
        // Out-of-bounds column index.
        let mut bad = a.clone();
        let k = rng.below(nnz);
        bad.rows_mut().1[k] = Col::new(n + rng.below(5));
        assert!(rejects(|| drop(re::dense(&bad))), "case {case}: column");
        assert!(rejects(|| drop(re::pattern(&bad))), "case {case}: column");
        let multi = (0..n).find(|&i| a.row_nnz(i) >= 2);
        if let Some(i) = multi {
            // Duplicate column inside a multi-entry row.
            let mut bad = a.clone();
            let r = bad.row_range(i);
            let cols = bad.rows_mut().1;
            cols[r.start + 1] = cols[r.start];
            assert!(rejects(|| drop(re::dense(&bad))), "case {case}: twice");
            assert!(rejects(|| drop(re::pattern(&bad))), "case {case}: twice");
            // Two entries of a row swapped: the fused kernels emit rows
            // in any order, and so the same matrix.
            let mut swapped = a.clone();
            let (_, cols, vals) = swapped.rows_mut();
            cols.swap(r.start, r.start + 1);
            vals.swap(r.start, r.start + 1);
            assert!(re::dense(&swapped) == clean, "case {case}: in-row order");
        }
    }
}

/// `Pᵀ A P` by the library's one-pass SpGEMM.
fn coarse_operator(a: &Csr, p: &Csr) -> Csr {
    spgemm_one_pass(&spgemm_one_pass(&transpose(p), a), p)
}

#[test]
fn symmetry_check_catches_dropped_entries() {
    // A coarse operator that lost one off-diagonal entry (its pattern no
    // longer symmetric) is not the Galerkin product.
    for case in 0..CASES {
        let mut rng = FuzzRng::new(0x100 + case);
        let (a, _, _, p) = amg_setup(&mut rng, case);
        let ac = coarse_operator(&a, &p);
        let want = re::galerkin(&re::dense(&p), &re::dense(&a));
        re::assert_close(&re::dense(&ac), &want, 1e-12, "clean");
        let off: Vec<(usize, usize, f64)> = (0..ac.nrows())
            .flat_map(|i| ac.row_iter(i).map(move |(c, v)| (i, c, v)))
            .collect();
        let Some(drop_at) = off.iter().position(|&(i, c, v)| i != c && v != 0.0) else {
            continue;
        };
        let trips = (off.iter().enumerate())
            .filter(|&(k, _)| k != drop_at)
            .map(|(_, &t)| t);
        let bad = Csr::from_triplets(ac.nrows(), ac.ncols(), trips);
        assert!(
            rejects(|| re::assert_close(&re::dense(&bad), &want, 1e-12, "dropped")),
            "case {case}: a dropped entry passed"
        );
    }
}

#[test]
fn cf_splitting_check_catches_promotions_and_demotions() {
    for case in 0..CASES {
        let mut rng = FuzzRng::new(0x200 + case);
        let (_, s, mut is_coarse, _) = amg_setup(&mut rng, case);
        let graph = re::pattern(&s);
        assert!(re::pmis(&graph, case) == is_coarse, "case {case}: PMIS");
        re::assert_independent(&graph, &is_coarse, "clean");
        // Promote an F-point that neighbours a C-point: the set is no
        // longer the reference's, nor independent.
        let n = s.nrows();
        let promoted = (0..n).find(|&i| !is_coarse[i] && s.col_iter(i).any(|j| is_coarse[j]));
        if let Some(i) = promoted {
            is_coarse[i] = true;
            assert!(re::pmis(&graph, case) != is_coarse, "case {case}");
            assert!(
                rejects(|| re::assert_independent(&graph, &is_coarse, "promoted")),
                "case {case}: adjacent C-points passed"
            );
            is_coarse[i] = false;
        }
        // Demote every C-point.
        if is_coarse.iter().any(|&c| c) {
            assert!(re::pmis(&graph, case) != vec![false; n], "case {case}");
        }
    }
}

#[test]
fn interp_checks_catch_corrupted_rows() {
    let all = TruncParams {
        factor: 0.0,
        max_elements: 0,
    };
    for case in 0..CASES {
        let mut rng = FuzzRng::new(0x300 + case);
        let (a, s, is_coarse, p) = amg_setup(&mut rng, case);
        let rows = re::extended_i(
            &re::dense(&a),
            &re::pattern(&s),
            &is_coarse,
            &mut re::Eq1Coverage::default(),
        );
        let clean: Dense = re::dense(&p);
        re::assert_interp(&clean, &rows, &all, "clean");
        re::assert_unit_coarse_rows(&clean, &is_coarse, "clean");
        if p.nnz() == 0 {
            continue;
        }
        // Perturb one weight.
        let mut bad = p.clone();
        let k = rng.below(p.nnz());
        bad.values_mut()[k] += 0.37;
        let bad = re::dense(&bad);
        assert!(
            rejects(|| {
                re::assert_interp(&bad, &rows, &all, "perturbed");
            }),
            "case {case}: a perturbed weight passed"
        );
        // Corrupt a C-row weight specifically.
        if let Some(ci) = (0..p.nrows()).find(|&i| is_coarse[i]) {
            let mut bad = p.clone();
            let r = bad.row_range(ci);
            bad.values_mut()[r.start] = 0.5;
            let bad = re::dense(&bad);
            assert!(
                rejects(|| re::assert_unit_coarse_rows(&bad, &is_coarse, "C row")),
                "case {case}: a broken C row passed"
            );
        }
    }
}

#[test]
fn galerkin_check_catches_wrong_coarse_operator() {
    // Every row is compared, so a wrong value anywhere is found.
    for case in 0..CASES {
        let mut rng = FuzzRng::new(0x400 + case);
        let (a, _, _, p) = amg_setup(&mut rng, case);
        if p.ncols() == 0 || p.nnz() == 0 {
            continue;
        }
        let ac = coarse_operator(&a, &p);
        let want = re::galerkin(&re::dense(&p), &re::dense(&a));
        re::assert_close(&re::dense(&ac), &want, 1e-12, "clean");
        let mut bad = ac.clone();
        let k = rng.below(ac.nnz());
        bad.values_mut()[k] += 1e-6 * (1.0 + bad.values()[k].abs());
        assert!(
            rejects(|| re::assert_close(&re::dense(&bad), &want, 1e-12, "perturbed")),
            "case {case}: a corrupted coarse operator passed"
        );
    }
}

#[test]
fn raw_parts_check_catches_malformed_buffers() {
    // `Csr::from_parts`, which every checked construction goes through,
    // refuses malformed buffers in release builds too.
    for case in 0..CASES {
        let mut rng = FuzzRng::new(0x500 + case);
        let (nr, nc) = (rng.range(2, 20), rng.range(2, 20));
        let a = random_csr(&mut rng, nr, nc);
        let (rowptr, colidx, values) = (a.rowptr(), a.colidx(), a.values());
        let build = |rp: &[usize], ci: &[Col], v: &[f64]| {
            let (rp, ci, v) = (rp.to_vec(), ci.to_vec(), v.to_vec());
            rejects(|| drop(Csr::from_parts(nr, nc, rp, ci, v)))
        };
        assert!(!build(rowptr, colidx, values), "case {case}");
        assert!(
            build(&rowptr[..nr], colidx, values),
            "case {case}: short rowptr"
        );
        // Non-monotone rowptr: spike an interior pointer above the end.
        let mut bad = rowptr.to_vec();
        let i = rng.range(1, nr);
        bad[i] = bad[nr] + 1;
        assert!(build(&bad, colidx, values), "case {case}: corrupt rowptr");
        if !values.is_empty() {
            let short = &values[..values.len() - 1];
            assert!(build(rowptr, colidx, short), "case {case}: short values");
            let mut cols = colidx.to_vec();
            let k = rng.below(cols.len());
            cols[k] = Col::new(nc + rng.below(3));
            assert!(build(rowptr, &cols, values), "case {case}: column");
        }
    }
}
