//! Inputs and oracles shared by the solve-kernel tests.
#![cfg(test)]

use crate::csr::Csr;
use crate::multivec::CHUNK;

/// Lane widths covering every `lanes!` arm: 1, 2, 4, 8 monomorphized, 3
/// dynamic, 9 dynamic and beyond the 8-lane stack arrays.
pub const WIDTHS: [usize; 6] = [1, 2, 3, 4, 8, 9];

/// Deterministic (LCG) sparse matrix with `per_row` entries per row.
pub fn random_csr(nrows: usize, ncols: usize, per_row: usize, seed: u64) -> Csr {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut trips = Vec::new();
    for i in 0..nrows {
        for _ in 0..per_row {
            let j = (next() as usize) % ncols;
            let v = ((next() % 100) as f64 - 50.0) / 10.0;
            trips.push((i, j, v));
        }
    }
    Csr::from_triplets(nrows, ncols, trips)
}

/// Deterministic vector, different for every `seed`.
pub fn wave(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 31 + seed * 7) % 23) as f64 * 0.125 - 1.0)
        .collect()
}

/// The reduction every lane of a deterministic dot product must
/// reproduce, written with the sequential oracle `dot_seq`: one pass below
/// `cutover` elements, 4096-element chunk partials folded in chunk order
/// from there on. (`+ 0.0` only turns the iterator sum's `-0.0` on an
/// empty or all-`-0.0` input into the lane kernels' `0.0`.)
pub fn chunked_dot(x: &[f64], y: &[f64], cutover: usize) -> f64 {
    let lin = |x: &[f64], y: &[f64]| crate::vecops::dot_seq(x, y) + 0.0;
    if x.len() < cutover {
        return lin(x, y);
    }
    x.chunks(CHUNK)
        .zip(y.chunks(CHUNK))
        .fold(0.0, |s, (cx, cy)| s + lin(cx, cy))
}
