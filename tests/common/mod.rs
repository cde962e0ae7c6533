//! Shared helpers for the deterministic fuzz suites.
//!
//! The suites replace the former proptest-based property tests with
//! explicit case loops driven by the workspace's own counter-based
//! generator ([`famg::core::rng`]), so failures reproduce exactly from
//! the printed case seed with no external dependencies.
#![allow(dead_code)]

use famg::core::rng::splitmix64;
use famg::sparse::permute::Permutation;
use famg::sparse::Csr;

/// Deterministic stream of pseudo-random draws: each call mixes a fresh
/// counter value with the seed through splitmix64.
pub struct FuzzRng {
    seed: u64,
    counter: u64,
}

impl FuzzRng {
    pub fn new(seed: u64) -> Self {
        FuzzRng {
            seed: splitmix64(seed ^ 0x9e37_79b9_7f4a_7c15),
            counter: 0,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.counter += 1;
        splitmix64(
            self.seed
                .wrapping_add(self.counter.wrapping_mul(0xbf58_476d_1ce4_e5b9)),
        )
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform float in `[lo, hi)`.
    pub fn float(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// A random sparse matrix with up to `3 * nrows` nonzero triplets
/// (duplicates merge additively) and values in `(-4, 4)` with zeros
/// filtered, matching the old proptest strategy.
pub fn random_csr(rng: &mut FuzzRng, nrows: usize, ncols: usize) -> Csr {
    let ntrips = rng.below(3 * nrows + 1);
    let mut trips = Vec::with_capacity(ntrips);
    for _ in 0..ntrips {
        let v = rng.float(-4.0, 4.0);
        if v != 0.0 {
            trips.push((rng.below(nrows), rng.below(ncols), v));
        }
    }
    Csr::from_triplets(nrows, ncols, trips)
}

/// A connected random graph Laplacian: chain backbone plus `extra`
/// random undirected unit-weight edges, diagonal = degree + `shift`
/// (`shift > 0` makes it strictly diagonally dominant SPD).
pub fn graph_laplacian(rng: &mut FuzzRng, n: usize, extra: usize, shift: f64) -> Csr {
    let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
    for _ in 0..extra {
        let i = rng.below(n);
        let j = rng.below(n);
        if i != j {
            edges.push((i.min(j), i.max(j)));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    let mut trips = Vec::new();
    let mut degree = vec![0.0f64; n];
    for (i, j) in edges {
        trips.push((i, j, -1.0));
        trips.push((j, i, -1.0));
        degree[i] += 1.0;
        degree[j] += 1.0;
    }
    for (i, d) in degree.iter().enumerate() {
        trips.push((i, i, d + shift));
    }
    Csr::from_triplets(n, n, trips)
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
pub fn random_permutation(rng: &mut FuzzRng, n: usize) -> Permutation {
    let mut fwd: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i + 1);
        fwd.swap(i, j);
    }
    let mut inverse = vec![0; n];
    for (old, &new) in fwd.iter().enumerate() {
        inverse[new] = old;
    }
    Permutation {
        forward: fwd,
        inverse,
    }
}

/// A random C/F marker vector.
pub fn random_marker(rng: &mut FuzzRng, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.bool()).collect()
}

/// The seven figures a bench's smoke run is pinned by: iteration count,
/// operator and grid complexity, level count, flops (setup and solve,
/// from the span profiles) and the bytes and messages the run sent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmokeFigures {
    pub iterations: usize,
    pub operator_complexity: f64,
    pub grid_complexity: f64,
    pub levels: usize,
    pub flops: u64,
    pub comm_bytes: u64,
    pub comm_messages: u64,
}

impl SmokeFigures {
    /// The figures of a run whose hierarchy reports `stats`.
    pub fn new(
        iterations: usize,
        stats: &famg::core::stats::SetupStats,
        flops: u64,
        comm_bytes: u64,
        comm_messages: u64,
    ) -> Self {
        SmokeFigures {
            iterations,
            operator_complexity: stats.operator_complexity(),
            grid_complexity: stats.grid_complexity(),
            levels: stats.level_rows.len(),
            flops,
            comm_bytes,
            comm_messages,
        }
    }

    /// Asserts every figure equals `pinned` exactly. With the profiler
    /// compiled out the flop count reads 0 and is not compared.
    pub fn assert_pinned(mut self, pinned: SmokeFigures) {
        println!("{self:?}");
        if !famg_prof::enabled() {
            self.flops = pinned.flops;
        }
        assert_eq!(self, pinned);
    }
}
