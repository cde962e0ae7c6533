//! Allocator probe behind `results/pr33_e2e/README.md`. Own package (empty
//! `[workspace]`, path dependencies on one tree, built once per side); run
//! as `RAYON_NUM_THREADS=2 alloc_probe`.
//!
//! A counting `#[global_allocator]` (live heap bytes and their high-water)
//! around `Hierarchy::build` and `Hierarchy::build_frozen` on the operators
//! of `e2e`'s three serial workloads with `e2e`'s configuration. Each line
//! gives the high-water of the whole heap during the call (the operator
//! itself included, counted from the process's first allocation), the
//! high-water above the call's entry, and the bytes still live on return.
//! The operator's own heap bytes are printed beside its column indices'.
use famg_core::params::AmgConfig;
use famg_core::Hierarchy;
use famg_matgen::{laplace2d, laplace3d_27pt, reservoir_field, varcoef3d_7pt};
use famg_sparse::Csr;
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

fn measured<T>(what: &str, f: impl FnOnce() -> T) -> T {
    let entry = LIVE.load(Ordering::SeqCst);
    PEAK.store(entry, Ordering::SeqCst);
    let out = f();
    let peak = PEAK.load(Ordering::SeqCst);
    let kept = LIVE.load(Ordering::SeqCst).saturating_sub(entry);
    println!(
        "{what:<13} heap high-water {:>7.1} MB   above entry {:>7.1} MB   kept {:>7.1} MB",
        mb(peak),
        mb(peak - entry),
        mb(kept)
    );
    out
}

fn probe(title: &str, a: Csr) {
    let cfg = config();
    let cols = std::mem::size_of_val(a.colidx());
    let bytes = std::mem::size_of_val(a.rowptr()) + cols + std::mem::size_of_val(a.values());
    println!(
        "## {title}: operator {:.1} MB, of it column indices {:.1} MB",
        mb(bytes),
        mb(cols)
    );
    // The first build also pays for the pool and the profiler's buffers.
    drop(Hierarchy::build(&a, &cfg));
    drop(measured("build", || Hierarchy::build(&a, &cfg)));
    drop(measured("build_frozen", || Hierarchy::build_frozen(&a, &cfg)));
}

fn main() {
    println!("pool threads: {}", rayon::current_num_threads());
    probe("lap3d27_setup operator (64^3)", laplace3d_27pt(64, 64, 64));
    probe("lap2d_solves operator (700^2)", laplace2d(700, 700));
    let field = reservoir_field(80, 80, 40, 8, 3.0, 2, 1);
    probe("reservoir_steps operator (80x80x40)", varcoef3d_7pt(80, 80, 40, &field));
}
