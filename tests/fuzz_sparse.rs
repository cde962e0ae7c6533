//! Deterministic fuzz tests for the sparse-kernel substrate.
//!
//! Each test sweeps a fixed number of seeded random cases; the case
//! seed is part of every assertion message so a failure reproduces
//! exactly.

mod common;

use common::{random_csr, random_marker, random_permutation, FuzzRng};
use famg::sparse::permute::{cf_permutation, permute_symmetric};
use famg::sparse::spgemm::{numeric_only, spgemm_one_pass, spgemm_two_pass};
use famg::sparse::transpose::{transpose, transpose_par};
use famg::sparse::triple::{
    csr_add, rap_cf, rap_cf_numeric, rap_row_fused, rap_scalar_fused, rap_unfused,
};
use famg::sparse::Csr;

const CASES: u64 = 64;

#[test]
fn transpose_is_involution() {
    for case in 0..CASES {
        let mut rng = FuzzRng::new(case);
        let (nr, nc) = (rng.range(1, 24), rng.range(1, 24));
        let a = random_csr(&mut rng, nr, nc);
        let tt = transpose(&transpose(&a));
        assert_eq!(a.to_dense(), tt.to_dense(), "case {case}");
    }
}

#[test]
fn parallel_transpose_matches_sequential() {
    for case in 0..CASES {
        let mut rng = FuzzRng::new(0x100 + case);
        let (nr, nc) = (rng.range(1, 24), rng.range(1, 24));
        let a = random_csr(&mut rng, nr, nc);
        assert_eq!(transpose(&a), transpose_par(&a), "case {case}");
    }
}

#[test]
fn transpose_reverses_products() {
    // (A·Aᵀ)ᵀ = A·Aᵀ and (A·B)ᵀ = Bᵀ·Aᵀ with B = Aᵀ, which always has
    // a compatible inner dimension.
    for case in 0..CASES {
        let mut rng = FuzzRng::new(0x200 + case);
        let (nr, nc) = (rng.range(1, 14), rng.range(1, 10));
        let a = random_csr(&mut rng, nr, nc);
        let b = transpose(&a);
        let ab = spgemm_one_pass(&a, &b);
        let btat = spgemm_one_pass(&transpose(&b), &transpose(&a));
        assert!(transpose(&ab).frob_diff(&btat) < 1e-9, "case {case}");
    }
}

#[test]
fn spgemm_variants_agree() {
    // Use A·Aᵀ so the shapes always match.
    for case in 0..CASES {
        let mut rng = FuzzRng::new(0x300 + case);
        let (nr, nc) = (rng.range(1, 16), rng.range(1, 16));
        let a = random_csr(&mut rng, nr, nc);
        let at = transpose(&a);
        let c1 = spgemm_two_pass(&a, &at);
        let c2 = spgemm_one_pass(&a, &at);
        assert_eq!(c1, c2, "case {case}");
    }
}

#[test]
fn numeric_only_reproduces_values() {
    for case in 0..CASES {
        let mut rng = FuzzRng::new(0x400 + case);
        let (nr, nc) = (rng.range(1, 14), rng.range(1, 14));
        let a = random_csr(&mut rng, nr, nc);
        let at = transpose(&a);
        let mut c = spgemm_one_pass(&a, &at);
        let expect = c.clone();
        for v in c.values_mut() {
            *v = -7.5;
        }
        numeric_only(&a, &at, &mut c);
        assert_eq!(c, expect, "case {case}");
    }
}

#[test]
fn rap_variants_agree() {
    for case in 0..CASES {
        let mut rng = FuzzRng::new(0x500 + case);
        let n = rng.range(2, 18);
        let a = random_csr(&mut rng, n, n);
        // Shift the diagonal so A is never all-zero, and pair points
        // into a piecewise-constant P.
        let sq = csr_add(0.5, &Csr::identity(n), 1.0, &a);
        let nc = n.div_ceil(2);
        let p = Csr::from_triplets(n, nc, (0..n).map(|i| (i, i / 2, 1.0)).collect::<Vec<_>>());
        let r = transpose(&p);
        let c0 = rap_unfused(&r, &sq, &p);
        let c1 = rap_row_fused(&r, &sq, &p);
        let c2 = rap_scalar_fused(&r, &sq, &p);
        assert!(c0.frob_diff(&c1) < 1e-9, "case {case} (row-fused)");
        assert!(c0.frob_diff(&c2) < 1e-9, "case {case} (scalar-fused)");
    }
}

#[test]
fn cf_rap_in_place_agrees_with_unfused() {
    // The CF-block kernel reads `A_perm` as `permute_symmetric` leaves it
    // (coarse and fine columns interleaved); against `Pᵀ·A·P` with the
    // explicit `P = [I; P_F]`, and its numeric twin against itself.
    for case in 0..CASES {
        let mut rng = FuzzRng::new(0x550 + case);
        let n = rng.range(2, 24);
        let sq = csr_add(0.5, &Csr::identity(n), 1.0, &random_csr(&mut rng, n, n));
        let (perm, nc) = cf_permutation(&random_marker(&mut rng, n));
        let a = permute_symmetric(&sq, &perm);
        let pf = if nc == 0 {
            Csr::zero(n, 0)
        } else {
            random_csr(&mut rng, n - nc, nc)
        };
        let pft = transpose(&pf);
        let mut c = rap_cf(&a, nc, &pf, &pft);
        assert_eq!((c.nrows(), c.ncols()), (nc, nc), "case {case}");
        if nc > 0 {
            let mut trips: Vec<(usize, usize, f64)> = (0..nc).map(|i| (i, i, 1.0)).collect();
            for k in 0..n - nc {
                trips.extend(pf.row_iter(k).map(|(j, v)| (nc + k, j, v)));
            }
            let p = Csr::from_triplets(n, nc, trips);
            let want = rap_unfused(&transpose(&p), &a, &p);
            assert!(want.frob_diff(&c) < 1e-9, "case {case}");
        }
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= rng.float(0.5, 1.5);
        }
        rap_cf_numeric(&a2, nc, &pf, &pft, &mut c);
        assert_eq!(c, rap_cf(&a2, nc, &pf, &pft), "case {case}");
    }
}

#[test]
fn symmetric_permutation_preserves_spectrum_proxy() {
    // Permutation preserves the nnz count, the diagonal multiset, and
    // SpMV results up to reordering.
    for case in 0..CASES {
        let mut rng = FuzzRng::new(0x600 + case);
        let n = rng.range(2, 20);
        let a = random_csr(&mut rng, n, n);
        let p = random_permutation(&mut rng, n);
        let ap = permute_symmetric(&a, &p);
        assert_eq!(a.nnz(), ap.nnz(), "case {case}");
        let mut d1 = a.diagonal();
        let mut d2 = ap.diagonal();
        d1.sort_by(f64::total_cmp);
        d2.sort_by(f64::total_cmp);
        assert_eq!(d1, d2, "case {case}");
        let x: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let mut y = vec![0.0; n];
        famg::sparse::spmv::spmv_seq(&a, &x, &mut y);
        let mut yp = vec![0.0; n];
        famg::sparse::spmv::spmv_seq(&ap, &p.apply_vec(&x), &mut yp);
        let back = p.unapply_vec(&yp);
        for (u, v) in y.iter().zip(&back) {
            assert!((u - v).abs() < 1e-10, "case {case}");
        }
    }
}

#[test]
fn cf_permutation_is_stable_partition() {
    for case in 0..CASES {
        let mut rng = FuzzRng::new(0x700 + case);
        let n = rng.range(1, 60);
        let marker = common::random_marker(&mut rng, n);
        let (p, nc) = cf_permutation(&marker);
        // Coarse points map to [0, nc) preserving relative order.
        let mut last_c = None;
        let mut last_f = None;
        for (i, &c) in marker.iter().enumerate() {
            let img = p.forward[i];
            if c {
                assert!(img < nc, "case {case}");
                if let Some(prev) = last_c {
                    assert!(img > prev, "case {case}");
                }
                last_c = Some(img);
            } else {
                assert!(img >= nc, "case {case}");
                if let Some(prev) = last_f {
                    assert!(img > prev, "case {case}");
                }
                last_f = Some(img);
            }
        }
    }
}

#[test]
fn csr_add_linear() {
    // a + (-1)*a = 0 and 2a = a + a.
    for case in 0..CASES {
        let mut rng = FuzzRng::new(0x800 + case);
        let (nr, nc) = (rng.range(1, 12), rng.range(1, 12));
        let a = random_csr(&mut rng, nr, nc);
        let zero = csr_add(1.0, &a, -1.0, &a);
        assert!(
            zero.to_dense().iter().all(|&v| v.abs() < 1e-12),
            "case {case}"
        );
        let two = csr_add(1.0, &a, 1.0, &a);
        let scaled = {
            let mut s = a.clone();
            for v in s.values_mut() {
                *v *= 2.0;
            }
            s
        };
        assert!(two.frob_diff(&scaled) < 1e-12, "case {case}");
    }
}
