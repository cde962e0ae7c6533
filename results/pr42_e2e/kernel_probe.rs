//! Kernel probe behind the "ordering `B_i`" figures of
//! `results/pr42_e2e/README.md`. Own package (empty `[workspace]`, path
//! dependencies on `famg-sparse`, `famg-core`, `famg-matgen` and the rayon
//! shim of one tree, default release profile), run as
//! `RAYON_NUM_THREADS=1 kernel_probe`.
//!
//! On the level-0 operands of `e2e`'s `dist_weak_2r` operator, whole and at
//! one thread (`R = Pᵀ` of the multipass `P` on the aggressive PMIS
//! splitting), it times, best of seven, four times over:
//! `rap_row_fused`; the `B = R·A` pass alone with `B_i` drained in column
//! order (the library's accumulator logic, copied here) and in first-touch
//! order; `spgemm(R, A)`; and `spgemm(sort(R·A), P)`.
use famg_core::coarsen::aggressive_pmis_stages;
use famg_core::interp::{multipass, CfMap, TruncParams};
use famg_core::strength::strength;
use famg_sparse::spgemm::spgemm;
use famg_sparse::transpose::transpose;
use famg_sparse::triple::rap_row_fused;
use famg_sparse::{Col, Csr};
use std::hint::black_box;
use std::time::Instant;

/// `famg_sparse::spa::OrderedSpa` with a first-touch drain beside its own.
struct Acc {
    vals: Vec<f64>,
    bits: Vec<u64>,
    cols: Vec<Col>,
}

impl Acc {
    fn new(n: usize) -> Self {
        Acc { vals: vec![0.0; n], bits: vec![0; n.div_ceil(64)], cols: Vec::new() }
    }

    fn add(&mut self, c: usize, v: f64) {
        let (w, bit) = (c / 64, 1u64 << (c % 64));
        if self.bits[w] & bit == 0 {
            self.bits[w] |= bit;
            self.vals[c] = v;
            self.cols.push(Col::new(c));
        } else {
            self.vals[c] += v;
        }
    }

    fn drain_ordered(&mut self, mut f: impl FnMut(usize, f64)) {
        let words = self.cols.iter().map(|&c| usize::from(c) / 64);
        let (lo, hi) = words.fold((usize::MAX, 0), |(l, h), w| (l.min(w), h.max(w)));
        if lo > hi {
            return;
        }
        if hi - lo < 8 * self.cols.len() {
            for (w, bits) in (lo..).zip(&mut self.bits[lo..=hi]) {
                let mut word = std::mem::take(bits);
                while word != 0 {
                    let c = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    f(c, self.vals[c]);
                }
            }
        } else {
            self.cols.sort_unstable();
            for &c in &self.cols {
                let c = usize::from(c);
                self.bits[c / 64] = 0;
                f(c, self.vals[c]);
            }
        }
        self.cols.clear();
    }

    fn drain_first_touch(&mut self, mut f: impl FnMut(usize, f64)) {
        for &c in &self.cols {
            let c = usize::from(c);
            self.bits[c / 64] = 0;
            f(c, self.vals[c]);
        }
        self.cols.clear();
    }
}

fn best<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::MAX, f64::min)
}

fn b_pass(r: &Csr, a: &Csr, ordered: bool) -> f64 {
    let mut acc = Acc::new(a.ncols());
    let mut sum = 0.0;
    for i in 0..r.nrows() {
        for (j, rv) in r.row_iter(i) {
            for (k, av) in a.row_iter(j) {
                acc.add(k, rv * av);
            }
        }
        if ordered {
            acc.drain_ordered(|_, v| sum += v);
        } else {
            acc.drain_first_touch(|_, v| sum += v);
        }
    }
    sum
}

fn main() {
    let a = famg_matgen::amg2013_like(48, 48, 96, 2, 2.0, 1);
    let s = strength(&a, 0.25, 0.8);
    let (_, fin) = aggressive_pmis_stages(&s, 1);
    let p = multipass(&a, &s, &CfMap::new(fin.is_coarse), Some(&TruncParams::paper()));
    let r = transpose(&p);
    let mut b = spgemm(&r, &a);
    b.sort_rows();
    println!("n {} nc {} nnz(A) {} nnz(P) {} nnz(R·A) {}", a.nrows(), p.ncols(), a.nnz(), p.nnz(), b.nnz());
    for rep in 0..4 {
        let fused = best(7, || rap_row_fused(&r, &a, &p));
        let ordered = best(7, || b_pass(&r, &a, true));
        let first_touch = best(7, || b_pass(&r, &a, false));
        let ra = best(7, || spgemm(&r, &a));
        let bp = best(7, || spgemm(&b, &p));
        println!(
            "rep {rep}: rap_row_fused {fused:.1} | B ordered {ordered:.1} | B first-touch \
             {first_touch:.1} | spgemm(R, A) {ra:.1} | spgemm(sort(R·A), P) {bp:.1} (ms)"
        );
    }
}
