//! Variable-coefficient 3D diffusion operators.
//!
//! Discretizes `-∇·(K(x) ∇u) = f` with cell-centred finite volumes on a
//! regular grid: the face transmissibility between two cells is the
//! harmonic mean of their coefficients, yielding a symmetric positive
//! definite M-matrix for any positive coefficient field — the structure
//! both the AMG2013-like and reservoir problems are built on.

use famg_sparse::{Col, Csr};

/// Assembles the 7-point variable-coefficient operator for coefficient
/// field `k` given per-cell values (row-major `x` fastest, then `y`, `z`).
///
/// # Panics
/// Panics when `k.len() != nx*ny*nz` or any coefficient is not positive.
pub fn varcoef3d_7pt(nx: usize, ny: usize, nz: usize, k: &[f64]) -> Csr {
    assert_eq!(k.len(), nx * ny * nz);
    assert!(k.iter().all(|&v| v > 0.0), "coefficients must be positive");
    let n = nx * ny * nz;
    let idx = |x: usize, y: usize, z: usize| z * nx * ny + y * nx + x;
    let harm = |a: f64, b: f64| 2.0 * a * b / (a + b);

    let mut rowptr = Vec::with_capacity(n + 1);
    let mut colidx = Vec::with_capacity(7 * n);
    let mut values = Vec::with_capacity(7 * n);
    rowptr.push(0);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let me = idx(x, y, z);
                let kc = k[me];
                let mut diag = 0.0;
                // Neighbours in ascending linear-index order: -z, -y, -x,
                // (diag), +x, +y, +z. Dirichlet boundary: the "missing"
                // face still contributes its transmissibility to the
                // diagonal (coupling to the zero boundary value).
                let neigh = |cond: bool, other: usize| -> f64 {
                    if cond {
                        harm(kc, k[other])
                    } else {
                        kc // boundary face transmissibility
                    }
                };
                let tzm = neigh(z > 0, if z > 0 { idx(x, y, z - 1) } else { 0 });
                let tym = neigh(y > 0, if y > 0 { idx(x, y - 1, z) } else { 0 });
                let txm = neigh(x > 0, if x > 0 { idx(x - 1, y, z) } else { 0 });
                let txp = neigh(x + 1 < nx, if x + 1 < nx { idx(x + 1, y, z) } else { 0 });
                let typ = neigh(y + 1 < ny, if y + 1 < ny { idx(x, y + 1, z) } else { 0 });
                let tzp = neigh(z + 1 < nz, if z + 1 < nz { idx(x, y, z + 1) } else { 0 });
                diag += tzm + tym + txm + txp + typ + tzp;

                if z > 0 {
                    colidx.push(Col::new(idx(x, y, z - 1)));
                    values.push(-tzm);
                }
                if y > 0 {
                    colidx.push(Col::new(idx(x, y - 1, z)));
                    values.push(-tym);
                }
                if x > 0 {
                    colidx.push(Col::new(idx(x - 1, y, z)));
                    values.push(-txm);
                }
                colidx.push(Col::new(me));
                values.push(diag);
                if x + 1 < nx {
                    colidx.push(Col::new(idx(x + 1, y, z)));
                    values.push(-txp);
                }
                if y + 1 < ny {
                    colidx.push(Col::new(idx(x, y + 1, z)));
                    values.push(-typ);
                }
                if z + 1 < nz {
                    colidx.push(Col::new(idx(x, y, z + 1)));
                    values.push(-tzp);
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
    fn constant_field_matches_laplacian_scaled() {
        // K ≡ 1 gives the standard 7-point Laplacian.
        let k = vec![1.0; 3 * 3 * 3];
        let a = varcoef3d_7pt(3, 3, 3, &k);
        let l = crate::laplace::laplace3d_7pt(3, 3, 3);
        // Interior stencils agree; boundary rows differ only in the
        // diagonal (Dirichlet face terms), which keeps A SPD.
        let center = 13;
        assert_eq!(a.get(center, center), l.get(center, center));
        assert_eq!(a.get(center, center - 1), Some(-1.0));
    }

    #[test]
    fn symmetric_for_random_field() {
        let k: Vec<f64> = (0..4 * 3 * 2).map(|i| 1.0 + f64::from(i % 7)).collect();
        let a = varcoef3d_7pt(4, 3, 2, &k);
        assert!(a.is_symmetric(1e-14));
    }

    #[test]
    fn diagonally_dominant_m_matrix() {
        let k: Vec<f64> = (0..5 * 5 * 5)
            .map(|i| if i % 9 == 0 { 1000.0 } else { 0.001 })
            .collect();
        let a = varcoef3d_7pt(5, 5, 5, &k);
        for i in 0..a.nrows() {
            let d = a.diag(i);
            assert!(d > 0.0);
            let off: f64 = a
                .row_iter(i)
                .filter(|&(c, _)| c != i)
                .map(|(_, v)| {
                    assert!(v <= 0.0, "off-diagonal must be non-positive");
                    v.abs()
                })
                .sum();
            assert!(d >= off - 1e-12);
        }
    }

    #[test]
    fn harmonic_mean_blocks_jumps() {
        // Two cells with K = 1 and K = 1e6: face transmissibility is
        // ~2 (harmonic mean), not ~5e5 (arithmetic mean).
        let a = varcoef3d_7pt(2, 1, 1, &[1.0, 1e6]);
        let t = -a.get(0, 1).unwrap();
        assert!((t - 2.0).abs() / 2.0 < 1e-5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_coefficients() {
        varcoef3d_7pt(2, 1, 1, &[1.0, 0.0]);
    }
}
