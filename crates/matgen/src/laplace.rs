//! Constant-coefficient Laplacian discretizations.

use famg_sparse::{Col, Csr};

/// 2D Poisson, 5-point finite differences, homogeneous Dirichlet boundary:
/// diagonal `4`, cross neighbours `-1`. The paper's `lap2d_2000` matrix is
/// `laplace2d(2000, 2000)`.
pub fn laplace2d(nx: usize, ny: usize) -> Csr {
    assert!(nx > 0 && ny > 0);
    let n = nx * ny;
    let idx = |i: usize, j: usize| i * nx + j;
    let mut rowptr = Vec::with_capacity(n + 1);
    let mut colidx = Vec::with_capacity(5 * n);
    let mut values = Vec::with_capacity(5 * n);
    rowptr.push(0);
    for i in 0..ny {
        for j in 0..nx {
            if i > 0 {
                colidx.push(Col::new(idx(i - 1, j)));
                values.push(-1.0);
            }
            if j > 0 {
                colidx.push(Col::new(idx(i, j - 1)));
                values.push(-1.0);
            }
            colidx.push(Col::new(idx(i, j)));
            values.push(4.0);
            if j + 1 < nx {
                colidx.push(Col::new(idx(i, j + 1)));
                values.push(-1.0);
            }
            if i + 1 < ny {
                colidx.push(Col::new(idx(i + 1, j)));
                values.push(-1.0);
            }
            rowptr.push(colidx.len());
        }
    }
    Csr::from_parts_unchecked(n, n, rowptr, colidx, values)
}

/// 2D Poisson with pure Neumann boundary (finite volumes): every row sums
/// to zero and the diagonal equals the neighbour count. Singular (constant
/// nullspace) — used to test exact constant preservation of interpolation
/// operators without Dirichlet boundary effects.
pub fn laplace2d_neumann(nx: usize, ny: usize) -> Csr {
    assert!(nx > 0 && ny > 0);
    let n = nx * ny;
    let idx = |i: usize, j: usize| i * nx + j;
    let mut trips = Vec::with_capacity(5 * n);
    for i in 0..ny {
        for j in 0..nx {
            let me = idx(i, j);
            let mut deg = 0.0;
            let mut push = |other: usize| {
                trips.push((me, other, -1.0));
                deg += 1.0;
            };
            if i > 0 {
                push(idx(i - 1, j));
            }
            if j > 0 {
                push(idx(i, j - 1));
            }
            if j + 1 < nx {
                push(idx(i, j + 1));
            }
            if i + 1 < ny {
                push(idx(i + 1, j));
            }
            trips.push((me, me, deg));
        }
    }
    Csr::from_triplets(n, n, trips)
}

/// 2D anisotropic Laplacian: `-u_xx - eps * u_yy` (5-point). Strong
/// coupling in x only when `eps` is small — a classic AMG stress test for
/// coarsening direction.
pub fn laplace2d_aniso(nx: usize, ny: usize, eps: f64) -> Csr {
    assert!(nx > 0 && ny > 0 && eps > 0.0);
    let n = nx * ny;
    let idx = |i: usize, j: usize| i * nx + j;
    let mut rowptr = Vec::with_capacity(n + 1);
    let mut colidx = Vec::with_capacity(5 * n);
    let mut values = Vec::with_capacity(5 * n);
    rowptr.push(0);
    let diag = 2.0 + 2.0 * eps;
    for i in 0..ny {
        for j in 0..nx {
            if i > 0 {
                colidx.push(Col::new(idx(i - 1, j)));
                values.push(-eps);
            }
            if j > 0 {
                colidx.push(Col::new(idx(i, j - 1)));
                values.push(-1.0);
            }
            colidx.push(Col::new(idx(i, j)));
            values.push(diag);
            if j + 1 < nx {
                colidx.push(Col::new(idx(i, j + 1)));
                values.push(-1.0);
            }
            if i + 1 < ny {
                colidx.push(Col::new(idx(i + 1, j)));
                values.push(-eps);
            }
            rowptr.push(colidx.len());
        }
    }
    Csr::from_parts_unchecked(n, n, rowptr, colidx, values)
}

/// 2D rotated anisotropic diffusion, 9-point finite differences:
/// `-∇·(Q D Qᵀ ∇u)` with `D = diag(1, eps)` and rotation angle `theta`.
/// The classic AMG stress test: strong coupling along a direction not
/// aligned with the grid, exercising strength-of-connection quality.
pub fn laplace2d_rotated_aniso(nx: usize, ny: usize, eps: f64, theta: f64) -> Csr {
    assert!(nx > 1 && ny > 1 && eps > 0.0);
    let (s, c) = theta.sin_cos();
    // Diffusion tensor entries.
    let a11 = c * c + eps * s * s;
    let a22 = s * s + eps * c * c;
    let a12 = (1.0 - eps) * s * c;
    // Standard 9-point stencil for the rotated operator (finite
    // differences with cross-derivative averaging).
    let n = nx * ny;
    let idx = |i: i64, j: i64| (i * nx as i64 + j) as usize;
    let mut trips = Vec::with_capacity(9 * n);
    for i in 0..ny as i64 {
        for j in 0..nx as i64 {
            let me = idx(i, j);
            let mut add = |di: i64, dj: i64, w: f64| {
                let (ii, jj) = (i + di, j + dj);
                if ii >= 0 && jj >= 0 && ii < ny as i64 && jj < nx as i64 && w != 0.0 {
                    trips.push((me, idx(ii, jj), w));
                }
            };
            add(0, -1, -a11);
            add(0, 1, -a11);
            add(-1, 0, -a22);
            add(1, 0, -a22);
            add(-1, -1, -a12 / 2.0);
            add(1, 1, -a12 / 2.0);
            add(-1, 1, a12 / 2.0);
            add(1, -1, a12 / 2.0);
            trips.push((me, me, 2.0 * a11 + 2.0 * a22));
        }
    }
    Csr::from_triplets(n, n, trips)
}

/// 3D Poisson, 7-point finite differences, Dirichlet boundary:
/// diagonal `6`, face neighbours `-1`.
pub fn laplace3d_7pt(nx: usize, ny: usize, nz: usize) -> Csr {
    stencil3d(nx, ny, nz, &|di, dj, dk| {
        let dist = di.abs() + dj.abs() + dk.abs();
        match dist {
            0 => Some(6.0),
            1 => Some(-1.0),
            _ => None,
        }
    })
}

/// 3D Laplacian, 27-point stencil (HPCG style): diagonal `26`, every
/// neighbour in the 3×3×3 box `-1`. The paper's `lap3d_128` matrix is
/// `laplace3d_27pt(128, 128, 128)`; Fig. 6(a–c) weak-scales
/// `laplace3d_27pt(96, 96, 96)` per rank.
pub fn laplace3d_27pt(nx: usize, ny: usize, nz: usize) -> Csr {
    stencil3d(nx, ny, nz, &|di, dj, dk| {
        if di == 0 && dj == 0 && dk == 0 {
            Some(26.0)
        } else if di.abs() <= 1 && dj.abs() <= 1 && dk.abs() <= 1 {
            Some(-1.0)
        } else {
            None
        }
    })
}

/// 3D 13-point stencil: 7-point core plus second neighbours along each
/// axis with weight `-0.25`. Used as the StocF-1465 proxy (≈14 nnz/row).
pub fn stencil3d_13pt(nx: usize, ny: usize, nz: usize) -> Csr {
    stencil3d(nx, ny, nz, &|di, dj, dk| {
        let on_axis = u8::from(di != 0) + u8::from(dj != 0) + u8::from(dk != 0);
        let dist = di.abs().max(dj.abs()).max(dk.abs());
        match (on_axis, dist) {
            (0, 0) => Some(6.0 + 12.0 * 0.25),
            (1, 1) => Some(-1.0),
            (1, 2) => Some(-0.25),
            _ => None,
        }
    })
}

/// Generic 3D box-stencil assembler over `stencil(di, dj, dk) -> weight`.
/// The stencil is probed over offsets in `[-2, 2]^3`; entries outside the
/// domain are dropped (Dirichlet).
pub fn stencil3d(
    nx: usize,
    ny: usize,
    nz: usize,
    stencil: &dyn Fn(i64, i64, i64) -> Option<f64>,
) -> Csr {
    assert!(nx > 0 && ny > 0 && nz > 0);
    let n = nx * ny * nz;
    // Collect the stencil offsets once, ordered for sorted rows.
    let mut offs: Vec<(i64, i64, i64, f64)> = Vec::new();
    for dk in -2i64..=2 {
        for di in -2i64..=2 {
            for dj in -2i64..=2 {
                if let Some(w) = stencil(di, dj, dk) {
                    offs.push((di, dj, dk, w));
                }
            }
        }
    }
    // Sort by linear index offset so each row's columns come out ascending.
    offs.sort_by_key(|&(di, dj, dk, _)| dk * (nx * ny) as i64 + di * nx as i64 + dj);
    let mut rowptr = Vec::with_capacity(n + 1);
    let mut colidx = Vec::with_capacity(offs.len() * n);
    let mut values = Vec::with_capacity(offs.len() * n);
    rowptr.push(0);
    for k in 0..nz {
        for i in 0..ny {
            for j in 0..nx {
                for &(di, dj, dk, w) in &offs {
                    let (ii, jj, kk) = (i as i64 + di, j as i64 + dj, k as i64 + dk);
                    if ii >= 0
                        && jj >= 0
                        && kk >= 0
                        && (ii as usize) < ny
                        && (jj as usize) < nx
                        && (kk as usize) < nz
                    {
                        colidx.push(Col::new(
                            kk as usize * nx * ny + ii as usize * nx + jj as usize,
                        ));
                        values.push(w);
                    }
                }
                rowptr.push(colidx.len());
            }
        }
    }
    Csr::from_parts_unchecked(n, n, rowptr, colidx, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laplace2d_shape_and_stencil() {
        let a = laplace2d(4, 3);
        assert_eq!(a.nrows(), 12);
        // Interior point (1,1) -> row 5: 4 neighbours + diagonal.
        assert_eq!(a.row_nnz(5), 5);
        assert_eq!(a.get(5, 5), Some(4.0));
        assert_eq!(a.get(5, 4), Some(-1.0));
        assert_eq!(a.get(5, 1), Some(-1.0));
        // Corner has 2 neighbours.
        assert_eq!(a.row_nnz(0), 3);
    }

    #[test]
    fn laplace2d_symmetric_and_sorted() {
        let a = laplace2d(5, 5);
        assert!(a.is_symmetric(0.0));
        assert!(a.rows_sorted());
    }

    #[test]
    fn laplace2d_row_sums_nonnegative() {
        // Dirichlet rows near the boundary have positive row sums,
        // interior rows sum to zero — the M-matrix structure AMG expects.
        let a = laplace2d(6, 6);
        for i in 0..a.nrows() {
            let s: f64 = a.row_vals(i).iter().sum();
            assert!(s >= -1e-14);
        }
    }

    #[test]
    fn neumann_rows_sum_to_zero() {
        let a = laplace2d_neumann(5, 4);
        assert!(a.is_symmetric(0.0));
        for i in 0..a.nrows() {
            let s: f64 = a.row_vals(i).iter().sum();
            assert_eq!(s, 0.0, "row {i}");
        }
        // Corner degree 2, interior degree 4.
        assert_eq!(a.diag(0), 2.0);
        assert_eq!(a.diag(6), 4.0);
    }

    #[test]
    fn laplace3d_7pt_interior() {
        let a = laplace3d_7pt(3, 3, 3);
        assert_eq!(a.nrows(), 27);
        let center = 13; // (1,1,1)
        assert_eq!(a.row_nnz(center), 7);
        assert_eq!(a.get(center, center), Some(6.0));
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn laplace3d_27pt_interior() {
        let a = laplace3d_27pt(4, 4, 4);
        let center = 16 + 4 + 1; // (1,1,1)
        assert_eq!(a.row_nnz(center), 27);
        assert_eq!(a.get(center, center), Some(26.0));
        assert!(a.is_symmetric(0.0));
        assert!(a.rows_sorted());
    }

    #[test]
    fn stencil13_nnz_per_row() {
        let a = stencil3d_13pt(7, 7, 7);
        let center = 3 * 49 + 3 * 7 + 3;
        assert_eq!(a.row_nnz(center), 13);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn aniso_couples_weakly_in_y() {
        let a = laplace2d_aniso(4, 4, 0.01);
        let i = 5; // interior
        assert_eq!(a.get(i, i - 1), Some(-1.0)); // x neighbour
        assert_eq!(a.get(i, i - 4), Some(-0.01)); // y neighbour
    }

    #[test]
    fn rotated_aniso_symmetric_and_grid_aligned_limit() {
        // theta = 0 degenerates to the axis-aligned anisotropic operator.
        let r0 = laplace2d_rotated_aniso(6, 6, 0.1, 0.0);
        assert!(r0.is_symmetric(1e-12));
        let i = 14; // interior point of the 6x6 grid
        assert!((r0.get(i, i - 1).unwrap() + 1.0).abs() < 1e-12); // x: strong
        assert!((r0.get(i, i - 6).unwrap() + 0.1).abs() < 1e-12); // y: weak
        assert_eq!(r0.get(i, i - 7), None); // no cross terms at theta=0
                                            // Rotated: cross terms appear, symmetry holds.
        let r45 = laplace2d_rotated_aniso(8, 8, 0.01, std::f64::consts::FRAC_PI_4);
        assert!(r45.is_symmetric(1e-12));
        let j = 27;
        assert!(r45.get(j, j - 9).is_some(), "diagonal coupling expected");
    }

    #[test]
    fn rotated_aniso_amg_solves() {
        use famg_sparse::spmv::residual_norm_sq;
        // Sanity: the operator is SPD enough for CG-free AMG smoke
        // testing via simple Jacobi iterations reducing the residual.
        let a = laplace2d_rotated_aniso(12, 12, 0.1, 0.5);
        let n = a.nrows();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut r = vec![0.0; n];
        let r0 = residual_norm_sq(&a, &x, &b, &mut r).sqrt();
        for _ in 0..200 {
            for i in 0..n {
                let mut acc = b[i];
                let mut d = 0.0;
                for (c, v) in a.row_iter(i) {
                    if c == i {
                        d = v;
                    } else {
                        acc -= v * x[c];
                    }
                }
                x[i] = acc / d;
            }
        }
        let r1 = residual_norm_sq(&a, &x, &b, &mut r).sqrt();
        assert!(r1 < 0.1 * r0);
    }

    #[test]
    fn diagonal_dominance() {
        for a in [
            laplace2d(5, 4),
            laplace3d_7pt(3, 4, 2),
            laplace3d_27pt(3, 3, 3),
        ] {
            for i in 0..a.nrows() {
                let d = a.diag(i);
                let off: f64 = a
                    .row_iter(i)
                    .filter(|&(c, _)| c != i)
                    .map(|(_, v)| v.abs())
                    .sum();
                assert!(d >= off - 1e-12, "row {i} not diagonally dominant");
            }
        }
    }
}
