//! AMG-semantic validators run at hierarchy level boundaries.

use crate::{fail, CheckResult};
use famg_sparse::transpose::transpose;
use famg_sparse::Csr;

/// Validates a PMIS-style CF splitting against strength matrix `s`
/// (row `i` = points `i` strongly depends on):
///
/// 1. **Independence** — no two C-points are neighbours in the
///    symmetrized strength graph;
/// 2. **Coverage** — every F-point with at least one strong connection
///    reaches a C-point within `max_dist` hops in the symmetrized graph
///    (`max_dist = 1` for plain PMIS).
///
/// Coverage exempts points nobody strongly depends on (empty transpose
/// row): PMIS demotes those to F unconditionally, so they carry no
/// nearby-C guarantee. Pass `max_dist = 0` to check independence only —
/// aggressive coarsening bounds no distance (a first-stage C-point with
/// no peer within two hops is demoted unconditionally, and multipass
/// interpolation then reaches C-points through F-chains of any length).
pub fn check_cf_splitting(s: &Csr, is_coarse: &[bool], max_dist: usize) -> CheckResult {
    let n = s.nrows();
    if is_coarse.len() != n || s.ncols() != n {
        return fail(
            "cf_shape",
            format!(
                "marker has {} entries for a {}x{} strength matrix",
                is_coarse.len(),
                s.nrows(),
                s.ncols()
            ),
        );
    }
    let st = transpose(s);
    for i in 0..n {
        if !is_coarse[i] {
            continue;
        }
        for j in s.col_iter(i).chain(st.col_iter(i)) {
            if is_coarse[j] {
                return fail(
                    "cf_independent",
                    format!("C-points {i} and {j} are strength-graph neighbours"),
                );
            }
        }
    }
    for i in 0..n {
        if max_dist == 0 {
            break; // independence-only mode
        }
        if is_coarse[i] || s.row_nnz(i) == 0 || st.row_nnz(i) == 0 {
            continue;
        }
        let mut frontier = vec![i];
        let mut found = false;
        'bfs: for _ in 0..max_dist {
            let mut next = Vec::new();
            for &u in &frontier {
                for v in s.col_iter(u).chain(st.col_iter(u)) {
                    if is_coarse[v] {
                        found = true;
                        break 'bfs;
                    }
                    next.push(v);
                }
            }
            frontier = next;
        }
        if !found {
            return fail(
                "cf_coverage",
                format!("F-point {i} has no C-point within {max_dist} hops"),
            );
        }
    }
    Ok(())
}

/// Checks the C-rows of an **unpermuted** interpolation operator: every
/// C-point row must be a single unit entry at its own coarse index
/// (injection), with coarse indices numbered in fine-point order.
pub fn check_interp_c_identity(p: &Csr, is_coarse: &[bool]) -> CheckResult {
    if p.nrows() != is_coarse.len() {
        return fail(
            "interp_shape",
            format!("P has {} rows for {} markers", p.nrows(), is_coarse.len()),
        );
    }
    let mut ci = 0usize;
    for i in 0..p.nrows() {
        if !is_coarse[i] {
            continue;
        }
        let (cols, vals) = (p.row_cols(i), p.row_vals(i));
        if cols.len() != 1 || usize::from(cols[0]) != ci || vals[0] != 1.0 {
            return fail(
                "interp_c_identity",
                format!(
                    "C-point row {i} is not injection to coarse index {ci}: cols {cols:?}, vals {vals:?}"
                ),
            );
        }
        ci += 1;
    }
    if ci != p.ncols() {
        return fail(
            "interp_c_identity",
            format!("marker has {ci} C-points but P has {} columns", p.ncols()),
        );
    }
    Ok(())
}

/// Checks the leading block of a **CF-permuted** interpolation operator
/// `P = [I; P_F]`: rows `0..nc` must form an exact identity (§3 of the
/// paper stores it implicitly; when materialized it must be exact).
pub fn check_interp_identity_block(pfull: &Csr, nc: usize) -> CheckResult {
    if pfull.ncols() != nc {
        return fail(
            "interp_shape",
            format!("P has {} columns, want nc = {nc}", pfull.ncols()),
        );
    }
    for i in 0..nc.min(pfull.nrows()) {
        let (cols, vals) = (pfull.row_cols(i), pfull.row_vals(i));
        if cols.len() != 1 || usize::from(cols[0]) != i || vals[0] != 1.0 {
            return fail(
                "interp_identity_block",
                format!("row {i} of the C-block is not e_{i}: cols {cols:?}, vals {vals:?}"),
            );
        }
    }
    Ok(())
}

/// Checks that interpolation reproduces constants where the operator
/// annihilates them: for every row `i` of `a` whose row sum is
/// (numerically) zero, the corresponding nonempty row of `p` must sum
/// to 1 within `tol`.
///
/// Rows of `a` with a non-zero row sum (Dirichlet boundaries, shifted
/// operators) are skipped — constants are not in their near-null space.
pub fn check_interp_row_sums(p: &Csr, a: &Csr, tol: f64) -> CheckResult {
    if p.nrows() != a.nrows() {
        return fail(
            "interp_shape",
            format!("P has {} rows for a {}-row operator", p.nrows(), a.nrows()),
        );
    }
    for i in 0..p.nrows() {
        if p.row_nnz(i) == 0 {
            continue;
        }
        let row_sum: f64 = a.row_vals(i).iter().sum();
        let row_abs: f64 = a.row_vals(i).iter().map(|v| v.abs()).sum();
        if row_sum.abs() > 1e-10 * row_abs.max(1.0) {
            continue; // constants not in the local near-null space
        }
        let w: f64 = p.row_vals(i).iter().sum();
        if (w - 1.0).abs() > tol {
            return fail(
                "interp_row_sum",
                format!("row {i} of P sums to {w} (want 1 ± {tol})"),
            );
        }
    }
    Ok(())
}

/// Evenly spaced sample of coarse row indices for [`check_galerkin`].
pub fn galerkin_sample_rows(nc: usize, max_samples: usize) -> Vec<usize> {
    if nc == 0 || max_samples == 0 {
        return Vec::new();
    }
    if nc <= max_samples {
        return (0..nc).collect();
    }
    (0..max_samples).map(|k| k * nc / max_samples).collect()
}

/// Cross-checks sampled rows of a fused Galerkin product `ac` against a
/// naive reference triple product `Pᵀ·A·P` computed with dense
/// accumulators.
///
/// `sample_rows` are coarse row indices (see [`galerkin_sample_rows`]);
/// each sampled row must match within `tol` relative to its norm.
pub fn check_galerkin(ac: &Csr, a: &Csr, p: &Csr, sample_rows: &[usize], tol: f64) -> CheckResult {
    let (n, nc) = (a.nrows(), p.ncols());
    if p.nrows() != n || ac.nrows() != nc || ac.ncols() != nc {
        return fail(
            "galerkin_shape",
            format!(
                "A is {}x{}, P is {}x{}, AC is {}x{}",
                a.nrows(),
                a.ncols(),
                p.nrows(),
                p.ncols(),
                ac.nrows(),
                ac.ncols()
            ),
        );
    }
    let pt = transpose(p);
    let mut acc = vec![0.0f64; nc];
    let mut touched: Vec<usize> = Vec::new();
    for &c in sample_rows {
        // Reference row c of Pᵀ·A·P.
        for (i, pic) in pt.row_iter(c) {
            for (k, aik) in a.row_iter(i) {
                let w = pic * aik;
                for (j, pkj) in p.row_iter(k) {
                    if acc[j] == 0.0 {
                        touched.push(j);
                    }
                    acc[j] += w * pkj;
                }
            }
        }
        // Compare against the stored row, then reset the accumulator.
        let mut ref_norm = 0.0f64;
        for &j in &touched {
            ref_norm += acc[j] * acc[j];
        }
        let scale = ref_norm.sqrt().max(1.0);
        let mut max_err = 0.0f64;
        for (j, v) in ac.row_iter(c) {
            let e = (v - acc[j]).abs();
            if e > max_err {
                max_err = e;
            }
            if acc[j] == 0.0 {
                touched.push(j); // AC-only entry: make sure it is reset below
            }
            acc[j] -= v; // whatever is left is missing from AC
        }
        for &j in &touched {
            let e = acc[j].abs();
            if e > max_err {
                max_err = e;
            }
            acc[j] = 0.0;
        }
        touched.clear();
        if max_err > tol * scale {
            return fail(
                "galerkin_rap",
                format!(
                    "row {c} of AC deviates from reference P^T A P by {max_err:e} (tol {:e})",
                    tol * scale
                ),
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use famg_sparse::spgemm::spgemm_two_pass;

    fn path_strength(n: usize) -> Csr {
        // Strength graph of a 1-D path: i ~ i-1, i+1.
        let mut t = Vec::new();
        for i in 0..n {
            if i > 0 {
                t.push((i, i - 1, 1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, 1.0));
            }
        }
        Csr::from_triplets(n, n, t)
    }

    #[test]
    fn alternating_cf_on_path_is_valid() {
        let s = path_strength(7);
        let marker: Vec<bool> = (0..7).map(|i| i % 2 == 0).collect();
        assert!(check_cf_splitting(&s, &marker, 1).is_ok());
    }

    #[test]
    fn rejects_adjacent_c_points_and_uncovered_f_points() {
        let s = path_strength(7);
        let adjacent: Vec<bool> = (0..7).map(|i| i < 2).collect();
        assert_eq!(
            check_cf_splitting(&s, &adjacent, 1).unwrap_err().check,
            "cf_independent"
        );
        let uncovered = vec![true, false, false, false, false, false, true];
        assert_eq!(
            check_cf_splitting(&s, &uncovered, 1).unwrap_err().check,
            "cf_coverage"
        );
    }

    #[test]
    fn c_identity_checks() {
        // 4 points, C = {0, 2}; F rows average their C neighbours.
        let marker = vec![true, false, true, false];
        let p = Csr::from_triplets(
            4,
            2,
            vec![
                (0, 0, 1.0),
                (1, 0, 0.5),
                (1, 1, 0.5),
                (2, 1, 1.0),
                (3, 1, 1.0),
            ],
        );
        assert!(check_interp_c_identity(&p, &marker).is_ok());
        let bad = Csr::from_triplets(
            4,
            2,
            vec![
                (0, 0, 0.9),
                (1, 0, 0.5),
                (1, 1, 0.5),
                (2, 1, 1.0),
                (3, 1, 1.0),
            ],
        );
        assert_eq!(
            check_interp_c_identity(&bad, &marker).unwrap_err().check,
            "interp_c_identity"
        );
    }

    #[test]
    fn identity_block_checks() {
        let p = Csr::from_triplets(
            4,
            2,
            vec![(0, 0, 1.0), (1, 1, 1.0), (2, 0, 0.5), (3, 1, 0.5)],
        );
        assert!(check_interp_identity_block(&p, 2).is_ok());
        let bad = Csr::from_triplets(
            4,
            2,
            vec![(0, 1, 1.0), (1, 1, 1.0), (2, 0, 0.5), (3, 1, 0.5)],
        );
        assert_eq!(
            check_interp_identity_block(&bad, 2).unwrap_err().check,
            "interp_identity_block"
        );
    }

    #[test]
    fn row_sum_check_skips_nonzero_rowsum_rows() {
        // Row 0 of A sums to zero (interior), row 1 does not (boundary).
        let a = Csr::from_triplets(
            2,
            2,
            vec![(0, 0, 1.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 3.0)],
        );
        let good = Csr::from_triplets(2, 1, vec![(0, 0, 1.0), (1, 0, 0.4)]);
        assert!(check_interp_row_sums(&good, &a, 1e-12).is_ok());
        let bad = Csr::from_triplets(2, 1, vec![(0, 0, 0.7), (1, 0, 0.4)]);
        assert_eq!(
            check_interp_row_sums(&bad, &a, 1e-12).unwrap_err().check,
            "interp_row_sum"
        );
    }

    #[test]
    fn galerkin_detects_corruption() {
        // A = 1-D Laplacian, P = pairwise aggregation.
        let n = 8;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        let a = Csr::from_triplets(n, n, t);
        let p = Csr::from_triplets(
            n,
            n / 2,
            (0..n).map(|i| (i, i / 2, 1.0)).collect::<Vec<_>>(),
        );
        let r = transpose(&p);
        let ac = spgemm_two_pass(&spgemm_two_pass(&r, &a), &p);
        let rows = galerkin_sample_rows(n / 2, 16);
        assert!(check_galerkin(&ac, &a, &p, &rows, 1e-10).is_ok());
        let mut corrupt = ac.clone();
        corrupt.values_mut()[0] += 0.125;
        assert_eq!(
            check_galerkin(&corrupt, &a, &p, &rows, 1e-10)
                .unwrap_err()
                .check,
            "galerkin_rap"
        );
    }
}
