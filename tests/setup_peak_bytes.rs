//! The setup's memory, pinned by a count instead of by `VmHWM`.
//!
//! AMG setup is bound by memory traffic, so every temporary a level keeps
//! alive is time as well as space. A counting global allocator reads the
//! live heap bytes and their high-water around `Hierarchy::build`,
//! `Hierarchy::build_frozen` and a refresh on the 27-point operator with
//! the benchmark's configuration, in units of the operator's own bytes. The
//! build's threshold sits between the setup that moves each operator once
//! (high-water 1.95–2.03 × at pool sizes 1, 2 and 4) and the one before it,
//! which cloned its input, permuted `S` beside `A` and kept both orderings
//! alive to the end of the level (4.91–4.99 ×). Both keep 1.69 × in the
//! hierarchy. A frozen setup kept 7.57–7.67 ×, 6.43–6.44 × with its tapes
//! trimmed to their lengths, and 4.68–4.69 × since a tape level keeps no
//! `S` and no `P` and a tape no separate `b_ik` stream, and 4.50–4.51 ×
//! since no frozen level keeps a copy of the next operator. Freeing `P`
//! once `P_F` is taken brought the build's high-water from 1.93–2.01 × to
//! 1.85–1.86 ×. A refresh that assembled a second hierarchy beside the
//! live one read a high-water of 1.69 ×; one that rewrites the hierarchy
//! in place reads 0.02–0.08 × (its numeric RAP's per-block scratch).
//! With 32-bit column indices the build's high-water reads 1.42 × and a
//! built hierarchy keeps 1.27 × (1.85–1.86 × and 1.69 × before), a frozen
//! setup keeps 3.84–3.85 × (4.50–4.51 ×); the unit below did not change.
//! It read 3.82–3.83 × before the extended+i tapes moved from absolute
//! 32-bit positions to 16-bit in-row offsets, slots and counts, and reads
//! 2.67–2.68 × since; its bound, 5.5 × until then, is 3.0 ×, so a return
//! to 32-bit streams fails it.
//!
//! A frozen setup of `mp`, whose level 0 is composed, used to keep level
//! 0's `S`, `P` and CF maps for a builder re-run and a tape for every level
//! below: 2.09 × against a plain build's 0.96 ×. It records no level now,
//! and a refresh rebuilds them all, so it keeps the build and the input's
//! pattern (0.27 ×): 1.23 × at pool sizes 1, 2 and 4, pinned to that sum
//! within `MP_FROZEN_SLACK`.
//!
//! One test function: the counters are process-wide, and a second test
//! thread would allocate into the window.

use famg::core::{AmgConfig, Hierarchy};
use famg::matgen::laplace3d_27pt;
use famg::sparse::Csr;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::SeqCst) + by;
        PEAK.fetch_max(live, Ordering::SeqCst);
    }
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are only read and written
// atomically and never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc`, passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        // SAFETY: the caller's contract for `dealloc`, passed through.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract for `realloc`, passed through.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            Self::grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The unit of every reading: 8 bytes for each row pointer, column index
/// and value of the operator — a count, not the operator's heap bytes, so
/// readings compare across storage widths (with 32-bit column indices the
/// operator itself holds 0.75 × this unit).
fn csr_bytes(a: &Csr) -> usize {
    8 * (a.rowptr().len() + 2 * a.nnz())
}

/// Runs `f` and returns its result with `(high-water above entry, live
/// bytes above entry on return)` in units of `unit` bytes.
fn measured<T>(unit: usize, f: impl FnOnce() -> T) -> (T, f64, f64) {
    let entry = LIVE.load(Ordering::SeqCst);
    PEAK.store(entry, Ordering::SeqCst);
    let out = f();
    let peak = PEAK.load(Ordering::SeqCst).saturating_sub(entry);
    let kept = LIVE.load(Ordering::SeqCst).saturating_sub(entry);
    (out, peak as f64 / unit as f64, kept as f64 / unit as f64)
}

#[test]
fn a_build_peaks_near_twice_the_operator() {
    let a = laplace3d_27pt(24, 24, 24);
    let unit = csr_bytes(&a);
    // `e2e`'s configuration (`e2e/src/workload.rs::amg_config`).
    let cfg = AmgConfig {
        smoother_tasks: Some(2),
        ..AmgConfig::single_node_paper()
    };
    // The first build also pays for the pool and the profiler's buffers.
    drop(Hierarchy::build(&a, &cfg));

    let (h, peak, kept) = measured(unit, || Hierarchy::build(&a, &cfg));
    println!("build: high-water {peak:.2} x, kept {kept:.2} x the operator ({unit} B)");
    assert!(h.num_levels() >= 3);
    assert!(
        peak <= 2.5,
        "build's high-water is {peak:.2} x the operator"
    );
    assert!(
        kept <= 1.75,
        "a built hierarchy keeps {kept:.2} x the operator"
    );
    drop(h);

    let ((mut hf, mut frozen), peak, kept) = measured(unit, || Hierarchy::build_frozen(&a, &cfg));
    println!("build_frozen: high-water {peak:.2} x, kept {kept:.2} x the operator");
    assert!(kept <= 3.0, "a frozen setup keeps {kept:.2} x the operator");

    // The first refresh also pays for the profiler's buffers.
    hf.refresh(&a, &mut frozen).unwrap();
    let (done, peak, kept) = measured(unit, || hf.refresh(&a, &mut frozen));
    done.unwrap();
    println!("refresh: high-water {peak:.2} x, kept {kept:.2} x the operator");
    assert!(
        peak <= 0.25,
        "a refresh's high-water is {peak:.2} x the operator"
    );
    drop((hf, frozen));

    // `mp` records no level, its level 0 being composed: its frozen setup
    // is a plain build and the input's pattern.
    let mp = AmgConfig {
        smoother_tasks: Some(2),
        ..AmgConfig::multi_node_mp()
    };
    let (h, _, plain) = measured(unit, || Hierarchy::build(&a, &mp));
    drop(h);
    let ((h, frozen), _, kept) = measured(unit, || Hierarchy::build_frozen(&a, &mp));
    let pattern = std::mem::size_of_val(a.rowptr()) + std::mem::size_of_val(a.colidx());
    let pattern = pattern as f64 / unit as f64;
    println!("mp: build keeps {plain:.3} x, build_frozen {kept:.3} x, the pattern {pattern:.3} x");
    assert!(
        kept <= plain + pattern + MP_FROZEN_SLACK,
        "an mp frozen setup keeps {kept:.3} x the operator, a build {plain:.3} x"
    );
    drop((h, frozen));
}

/// What an `mp` frozen setup may keep beyond a plain build and the input
/// pattern, in units of the operator: allocator rounding and the
/// profile's records.
const MP_FROZEN_SLACK: f64 = 0.01;
