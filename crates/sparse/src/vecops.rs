//! Level-1 vector kernels (the paper's "BLAS1" solve-phase component).
//!
//! Sequential and rayon-parallel versions are provided. Parallel reductions
//! reassociate floating-point additions; famg uses fixed chunking so the
//! result is deterministic for a given thread count.

use crate::multivec::CHUNK;
use rayon::prelude::*;

/// Sequential dot product.
pub fn dot_seq(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Deterministic parallel dot product: the `k = 1` lane of
/// [`crate::multivec::dot_rows`] — sequential below `2·CHUNK` elements,
/// fixed-chunk partials in a stack buffer folded in chunk order above.
/// Differs from [`dot_seq`] in the last bits on long vectors (chunked
/// fold) and in the sign of an all-zero result (`0.0`, where the iterator
/// sum starts from `-0.0`).
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    let mut out = [0.0];
    crate::multivec::dot_rows(x, y, 1, &mut out);
    out[0]
}

/// Euclidean norm.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `y += alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    crate::multivec::axpy_rows(&[alpha], x, y, 1);
}

/// `x *= alpha`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    if x.len() < 2 * CHUNK {
        for xi in x.iter_mut() {
            *xi *= alpha;
        }
    } else {
        x.par_chunks_mut(CHUNK).for_each(|c| {
            for xi in c {
                *xi *= alpha;
            }
        });
    }
}

/// Copies `src` into `dst` (parallel memcpy for large vectors).
pub fn copy(src: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len());
    if src.len() < 4 * CHUNK {
        dst.copy_from_slice(src);
    } else {
        dst.par_chunks_mut(CHUNK)
            .zip(src.par_chunks(CHUNK))
            .for_each(|(d, s)| d.copy_from_slice(s));
    }
}

/// Sets every element to `v`.
pub fn fill(x: &mut [f64], v: f64) {
    if x.len() < 4 * CHUNK {
        x.fill(v);
    } else {
        x.par_chunks_mut(CHUNK).for_each(|c| c.fill(v));
    }
}

/// `z = x - y` into a fresh vector.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_bitwise_matches_legacy_reduction_order() {
        // `dot` is the k = 1 lane of the block reduction; its oracle is
        // `dot_seq` below the cutover and, above it, `dot_seq` chunk
        // partials folded linearly in chunk order (what the historical
        // `collect::<Vec<_>>().into_iter().sum()` reduction computed).
        // Lengths straddle the `2·CHUNK` cutover and one super-block of
        // the stack partial buffer.
        let block = crate::multivec::PARTIAL_SLOTS * CHUNK;
        for n in [
            0,
            1,
            2 * CHUNK - 1,
            2 * CHUNK,
            2 * CHUNK + 1,
            3 * CHUNK + 17,
            block - 1,
            block,
            block + 1,
            block + 5 * CHUNK + 3,
        ] {
            let x: Vec<f64> = (0..n)
                .map(|i| ((i * 31) % 23) as f64 * 0.125 - 1.0)
                .collect();
            let y: Vec<f64> = (0..n).map(|i| ((i * 7) % 19) as f64 * 0.25 - 2.0).collect();
            let legacy = |x: &[f64], y: &[f64]| crate::testutil::chunked_dot(x, y, 2 * CHUNK);
            assert_eq!(dot(&x, &y).to_bits(), legacy(&x, &y).to_bits(), "n={n}");
            assert_eq!(
                norm2(&x).to_bits(),
                legacy(&x, &x).sqrt().to_bits(),
                "norm2 n={n}"
            );
        }
    }

    #[test]
    fn dot_matches_sequential_on_large_input() {
        let n = 3 * CHUNK + 17;
        let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64 * 0.25).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        let a = dot_seq(&x, &y);
        let b = dot(&x, &y);
        assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
    }

    #[test]
    fn axpy_small_and_large() {
        for n in [5usize, 3 * CHUNK] {
            let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let mut y = vec![1.0; n];
            axpy(2.0, &x, &mut y);
            assert_eq!(y[0], 1.0);
            assert_eq!(y[n - 1], 1.0 + 2.0 * (n - 1) as f64);
        }
    }

    #[test]
    fn scale_and_fill() {
        let mut x = vec![2.0; 10];
        scale(0.5, &mut x);
        assert!(x.iter().all(|&v| v == 1.0));
        fill(&mut x, -3.0);
        assert!(x.iter().all(|&v| v == -3.0));
    }

    #[test]
    fn norms() {
        let x = vec![3.0, -4.0];
        assert_eq!(norm2(&x), 5.0);
    }

    #[test]
    fn sub_elementwise() {
        assert_eq!(sub(&[3.0, 1.0], &[1.0, 1.0]), vec![2.0, 0.0]);
    }

    #[test]
    fn copy_large() {
        let n = 5 * CHUNK;
        let src: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut dst = vec![0.0; n];
        copy(&src, &mut dst);
        assert_eq!(src, dst);
    }
}
