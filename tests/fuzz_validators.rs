//! Randomized negative tests for every `famg-check` validator: build a
//! well-formed object, corrupt it in a random spot, and require the
//! validator to flag it. Complements the crate's unit tests, which use
//! hand-built minimal counterexamples.

mod common;

use common::{graph_laplacian, random_csr, FuzzRng};
use famg::check;
use famg::core::coarsen::pmis;
use famg::core::interp::{extended_i, CfMap};
use famg::core::strength::strength;
use famg::sparse::spgemm::spgemm_one_pass;
use famg::sparse::transpose::transpose;
use famg::sparse::{Col, Csr};

const CASES: u64 = 24;

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

#[test]
fn structure_checks_catch_random_corruption() {
    for case in 0..CASES {
        let mut rng = FuzzRng::new(case);
        let n = rng.range(2, 30);
        let extra = rng_extra(&mut rng, n);
        let a = graph_laplacian(&mut rng, n, extra, 0.0);
        assert!(check::check_csr(&a).is_ok(), "case {case}: clean input");
        assert!(check::check_sorted_unique(&a).is_ok(), "case {case}");
        assert!(check::check_no_duplicates(&a).is_ok(), "case {case}");
        assert!(check::check_symmetric_pattern(&a).is_ok(), "case {case}");
        let nnz = a.nnz();
        if nnz == 0 {
            continue;
        }
        // Non-finite value.
        let mut bad = a.clone();
        let k = rng.below(nnz);
        bad.values_mut()[k] = if rng.bool() { f64::NAN } else { f64::INFINITY };
        assert!(
            check::check_finite(&bad).is_err(),
            "case {case}: NaN slipped through"
        );
        assert!(check::check_csr(&bad).is_err(), "case {case}");
        // Out-of-bounds column index.
        let mut bad = a.clone();
        let k = rng.below(nnz);
        {
            let (_, cols, _) = bad.rows_mut();
            cols[k] = Col::new(n + rng.below(5));
        }
        assert!(check::check_csr(&bad).is_err(), "case {case}: oob column");
        // Duplicate column inside a multi-entry row.
        let mut bad = a.clone();
        if let Some(i) = (0..n).find(|&i| bad.row_nnz(i) >= 2) {
            let r = bad.row_range(i);
            let (_, cols, _) = bad.rows_mut();
            cols[r.start + 1] = cols[r.start];
            assert!(
                check::check_no_duplicates(&bad).is_err(),
                "case {case}: duplicate"
            );
            assert!(check::check_sorted_unique(&bad).is_err(), "case {case}");
        }
        // Swap two entries of a multi-entry row: unsorted but duplicate-free.
        let mut bad = a.clone();
        if let Some(i) = (0..n).find(|&i| bad.row_nnz(i) >= 2) {
            let r = bad.row_range(i);
            let (_, cols, _) = bad.rows_mut();
            cols.swap(r.start, r.start + 1);
            assert!(
                check::check_sorted_unique(&bad).is_err(),
                "case {case}: unsorted"
            );
            assert!(check::check_no_duplicates(&bad).is_ok(), "case {case}");
        }
    }
}

fn rng_extra(rng: &mut FuzzRng, n: usize) -> usize {
    rng.below(2 * n + 1)
}

#[test]
fn symmetry_check_catches_dropped_entries() {
    for case in 0..CASES {
        let mut rng = FuzzRng::new(0x100 + case);
        let n = rng.range(3, 25);
        let extra = rng_extra(&mut rng, n);
        let a = graph_laplacian(&mut rng, n, extra, 0.0);
        // Drop one strictly-off-diagonal entry: pattern loses symmetry.
        let off: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|i| a.row_iter(i).map(move |(c, v)| (i, c, v)))
            .collect();
        let Some(drop_at) = off.iter().position(|&(i, c, _)| i != c) else {
            continue;
        };
        let trips: Vec<(usize, usize, f64)> = off
            .into_iter()
            .enumerate()
            .filter(|&(k, _)| k != drop_at)
            .map(|(_, t)| t)
            .collect();
        let bad = Csr::from_triplets(n, n, trips);
        assert!(
            check::check_symmetric_pattern(&bad).is_err(),
            "case {case}: asymmetric pattern passed"
        );
    }
}

#[test]
fn cf_splitting_check_catches_promotions_and_demotions() {
    for case in 0..CASES {
        let mut rng = FuzzRng::new(0x200 + case);
        let (_, s, mut is_coarse, _) = amg_setup(&mut rng, case);
        assert!(
            check::check_cf_splitting(&s, &is_coarse, 1).is_ok(),
            "case {case}: valid splitting rejected"
        );
        // Promote a random F-point that neighbours a C-point:
        // independence must break.
        let n = s.nrows();
        let promoted = (0..n).find(|&i| !is_coarse[i] && s.col_iter(i).any(|j| is_coarse[j]));
        if let Some(i) = promoted {
            is_coarse[i] = true;
            assert!(
                check::check_cf_splitting(&s, &is_coarse, 1).is_err(),
                "case {case}: adjacent C-points passed"
            );
            is_coarse[i] = false;
        }
        // Demote every C-point: coverage must break (any strongly
        // connected F-point is left stranded).
        let all_f = vec![false; n];
        if (0..n).any(|i| s.row_nnz(i) > 0 && transpose(&s).row_nnz(i) > 0) {
            assert!(
                check::check_cf_splitting(&s, &all_f, 1).is_err(),
                "case {case}: coverage hole passed"
            );
        }
    }
}

#[test]
fn interp_checks_catch_corrupted_rows() {
    for case in 0..CASES {
        let mut rng = FuzzRng::new(0x300 + case);
        let (a, _, is_coarse, p) = amg_setup(&mut rng, case);
        assert!(
            check::check_interp_c_identity(&p, &is_coarse).is_ok(),
            "case {case}: valid P rejected"
        );
        assert!(
            check::check_interp_row_sums(&p, &a, 1e-9).is_ok(),
            "case {case}: valid row sums rejected"
        );
        if p.nnz() == 0 {
            continue;
        }
        // Scale one weight: some row sum (or a C-identity weight) drifts.
        let mut bad = p.clone();
        let k = rng.below(p.nnz());
        bad.values_mut()[k] += 0.37;
        let row_sums = check::check_interp_row_sums(&bad, &a, 1e-9);
        let c_ident = check::check_interp_c_identity(&bad, &is_coarse);
        assert!(
            row_sums.is_err() || c_ident.is_err(),
            "case {case}: perturbed weight passed both interp checks"
        );
        // Corrupt a C-row weight specifically.
        if let Some(ci) = (0..p.nrows()).find(|&i| is_coarse[i]) {
            let mut bad = p.clone();
            let r = bad.row_range(ci);
            bad.values_mut()[r.start] = 0.5;
            assert!(
                check::check_interp_c_identity(&bad, &is_coarse).is_err(),
                "case {case}: broken C-identity passed"
            );
        }
    }
}

#[test]
fn galerkin_check_catches_wrong_coarse_operator() {
    for case in 0..CASES {
        let mut rng = FuzzRng::new(0x400 + case);
        let (a, _, _, p) = amg_setup(&mut rng, case);
        let nc = p.ncols();
        if nc == 0 || p.nnz() == 0 {
            continue;
        }
        let r = transpose(&p);
        let ac = spgemm_one_pass(&spgemm_one_pass(&r, &a), &p);
        let samples = check::galerkin_sample_rows(nc, 16);
        assert!(
            check::check_galerkin(&ac, &a, &p, &samples, 1e-8).is_ok(),
            "case {case}: true RAP rejected"
        );
        // Perturb one coarse value in a sampled row.
        let mut bad = ac.clone();
        let Some(&row) = samples.iter().find(|&&i| bad.row_nnz(i) > 0) else {
            continue;
        };
        let rr = bad.row_range(row);
        bad.values_mut()[rr.start] += 1.0;
        assert!(
            check::check_galerkin(&bad, &a, &p, &samples, 1e-8).is_err(),
            "case {case}: corrupted RAP passed"
        );
    }
}

#[test]
fn raw_parts_check_catches_malformed_buffers() {
    for case in 0..CASES {
        let mut rng = FuzzRng::new(0x500 + case);
        let (nr, nc) = (rng.range(2, 20), rng.range(2, 20));
        let a = random_csr(&mut rng, nr, nc);
        let (rowptr, colidx, values) = (a.rowptr(), a.colidx(), a.values());
        assert!(
            check::check_raw_parts(nr, nc, rowptr, colidx, values).is_ok(),
            "case {case}"
        );
        // Truncated rowptr.
        assert!(
            check::check_raw_parts(nr, nc, &rowptr[..nr], colidx, values).is_err(),
            "case {case}: short rowptr passed"
        );
        // Non-monotone rowptr: spike an interior pointer above the end.
        if nr >= 2 {
            let mut bad = rowptr.to_vec();
            let i = rng.range(1, nr);
            bad[i] = bad[nr] + 1;
            assert!(
                check::check_raw_parts(nr, nc, &bad, colidx, values).is_err(),
                "case {case}: corrupt rowptr passed"
            );
        }
        // Mismatched value length.
        if !values.is_empty() {
            assert!(
                check::check_raw_parts(nr, nc, rowptr, colidx, &values[..values.len() - 1])
                    .is_err(),
                "case {case}: short values passed"
            );
        }
    }
}
