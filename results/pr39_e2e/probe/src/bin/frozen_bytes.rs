//! Allocator probe: a counting `#[global_allocator]` reads the heap bytes
//! `Hierarchy::build` and `Hierarchy::build_frozen` keep on each operator.
//! The frozen state is the difference: the input pattern's copy, each
//! level's row-order codes and, on these extended+i hierarchies, the tapes.
//! Also the high-water above entry of `build_frozen`. Run as
//! `RAYON_NUM_THREADS=<t> frozen_bytes`.
use famg_core::Hierarchy;
use pr39_probe::{config, operators};
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

/// `f`'s result, the bytes live above entry on return, and the
/// high-water above entry.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let entry = LIVE.load(Ordering::SeqCst);
    PEAK.store(entry, Ordering::SeqCst);
    let out = f();
    let kept = LIVE.load(Ordering::SeqCst).saturating_sub(entry);
    (out, kept, PEAK.load(Ordering::SeqCst) - entry)
}

fn mib(b: usize) -> f64 {
    b as f64 / (1 << 20) as f64
}

fn main() {
    let cfg = config();
    println!("pool threads: {}", rayon::current_num_threads());
    for (name, a) in operators(None) {
        // The first build also pays for the pool and the profiler's buffers.
        drop(Hierarchy::build(&a, &cfg));
        let (h, built, _) = measured(|| Hierarchy::build(&a, &cfg));
        drop(h);
        let (hf, frozen, peak) = measured(|| Hierarchy::build_frozen(&a, &cfg));
        drop(hf);
        let pattern = std::mem::size_of_val(a.rowptr()) + std::mem::size_of_val(a.colidx());
        println!(
            "{name}: build keeps {:.1} MiB, build_frozen {:.1} MiB (high-water {:.1} MiB); \
             frozen state {:.1} MiB, of it the input pattern {:.1} MiB",
            mib(built),
            mib(frozen),
            mib(peak),
            mib(frozen - built),
            mib(pattern)
        );
    }
}
