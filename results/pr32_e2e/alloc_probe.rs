//! Allocator probe behind `results/pr27_e2e/README.md` and the allocator
//! table of EXPERIMENTS.md's refresh-in-place section. Own package (empty
//! `[workspace]`, path dependencies on one tree, built once per side); run
//! as `RAYON_NUM_THREADS=2 alloc_probe`.
//!
//! A counting `#[global_allocator]` (live heap bytes and their high-water).
//! Part 1: around `Hierarchy::build_frozen` and around the second of two
//! refreshes with the same operator, on the operators of `e2e`'s three
//! serial workloads at seed 1 with `e2e`'s configuration: the high-water
//! above entry and the bytes still live on return, in MB and in units of the
//! operator's own bytes (`tests/setup_peak_bytes.rs` pins the same reading
//! on a small operator). Part 2: one `reservoir_steps` repetition at seed 1
//! as `e2e/src/workload.rs` runs it — live heap bytes and the high-water
//! after `setup_refreshable`, after each refresh and after each `cg_batch`,
//! counted from before the inputs were generated.
use famg_core::params::AmgConfig;
use famg_core::solver::AmgSolver;
use famg_core::Hierarchy;
use famg_krylov::cg::{cg_batch, CgOptions};
use famg_matgen::{laplace2d, laplace3d_27pt, reservoir_field, rhs, varcoef3d_7pt};
use famg_sparse::{Csr, MultiVec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::SeqCst) + by;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every request is forwarded unchanged to `System`; the counters
// never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract, passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(p, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract, passed through.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract, passed through.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `e2e/src/workload.rs::amg_config`.
fn config() -> AmgConfig {
    AmgConfig {
        tolerance: 1e-7,
        smoother_tasks: Some(2),
        ..AmgConfig::single_node_paper()
    }
}

fn mb(b: usize) -> f64 {
    b as f64 / 1e6
}

fn measured<T>(what: &str, unit: usize, f: impl FnOnce() -> T) -> T {
    let entry = LIVE.load(Ordering::SeqCst);
    PEAK.store(entry, Ordering::SeqCst);
    let out = f();
    let peak = PEAK.load(Ordering::SeqCst).saturating_sub(entry);
    let kept = LIVE.load(Ordering::SeqCst).saturating_sub(entry);
    let x = |b: usize| b as f64 / unit as f64;
    println!(
        "{what:<14} high-water {:>7.1} MB ({:.2} x)   kept {:>7.1} MB ({:.2} x)",
        mb(peak),
        x(peak),
        mb(kept),
        x(kept)
    );
    out
}

fn probe(title: &str, a: &Csr) {
    let cfg = config();
    let unit = 8 * (a.rowptr().len() + 2 * a.nnz());
    println!("## {title}: operator {:.1} MB", mb(unit));
    // The first build also pays for the pool and the profiler's buffers.
    drop(Hierarchy::build(a, &cfg));
    let (mut h, mut frozen) = measured("build_frozen", unit, || Hierarchy::build_frozen(a, &cfg));
    // The first refresh also pays for the profiler's buffers.
    h.refresh(a, &mut frozen).unwrap();
    measured("refresh", unit, || h.refresh(a, &mut frozen).unwrap());
}

/// splitmix64, `e2e/src/workload.rs::mix`.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One `reservoir_steps` repetition (`Workload::generate` + `run_rep`).
fn timeline(seed: u64) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let mut last_peak = base;
    let mut mark = |what: &str| {
        let (live, peak) = (LIVE.load(Ordering::SeqCst), PEAK.load(Ordering::SeqCst));
        // High-water of this step alone: reset after reading.
        println!(
            "{what:<24} live {:>7.1} MB   step high-water {:>7.1} MB   running high-water {:>7.1} MB",
            mb(live - base),
            mb(peak - base),
            mb(peak.max(last_peak) - base)
        );
        last_peak = last_peak.max(peak);
        PEAK.store(live, Ordering::SeqCst);
    };
    let d = [80usize, 80, 40];
    let field = reservoir_field(d[0], d[1], d[2], 8, 3.0, 2, seed);
    let a = varcoef3d_7pt(d[0], d[1], d[2], &field);
    let n = a.nrows();
    let k = 4;
    let cols: Vec<Vec<f64>> = (0..k as u64)
        .map(|j| {
            let x: Vec<f64> = rhs::random(n, mix(seed, j)).iter().map(|v| 0.5 * (v + 1.0)).collect();
            rhs::rhs_for_solution(&a, &x)
        })
        .collect();
    let phase = (mix(seed, 99) % 628) as f64 / 100.0;
    let drift: Vec<Csr> = (1..=4)
        .map(|t| {
            let kt: Vec<f64> = field
                .iter()
                .enumerate()
                .map(|(i, &ki)| {
                    let xf = (i % d[0]) as f64 / d[0] as f64;
                    ki * (1.0 + 1e-5 * t as f64 * (9.0 * xf + phase).cos())
                })
                .collect();
            varcoef3d_7pt(d[0], d[1], d[2], &kt)
        })
        .collect();
    drop(field);
    mark("inputs");
    let cfg = config();
    let mut solver = AmgSolver::setup_refreshable(&a, &cfg);
    mark("setup_refreshable");
    let bb = MultiVec::from_columns(&cols);
    let opts = CgOptions {
        tolerance: 1e-7,
        max_iterations: 200,
    };
    for (t, at) in drift.iter().enumerate() {
        solver.refresh(at).unwrap();
        mark(&format!("refresh {}", t + 1));
        let mut xb = MultiVec::new(n, k);
        let res = cg_batch(at, &bb, &mut xb, &solver, &opts);
        assert!(res.converged.iter().all(|&c| c));
        drop(xb);
        mark(&format!("cg_batch {}", t + 1));
    }
}

fn main() {
    println!("pool threads: {}", rayon::current_num_threads());
    probe("lap3d27_setup operator (64^3)", &laplace3d_27pt(64, 64, 64));
    probe("lap2d_solves operator (700^2)", &laplace2d(700, 700));
    let field = reservoir_field(80, 80, 40, 8, 3.0, 2, 1);
    probe("reservoir_steps operator (80x80x40)", &varcoef3d_7pt(80, 80, 40, &field));
    drop(field);
    println!("## one reservoir_steps repetition, seed 1 (MB above the probe's start)");
    timeline(1);
}
