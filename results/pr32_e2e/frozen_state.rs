//! Frozen-state breakdown behind `results/pr32_e2e/README.md` and the
//! table of DESIGN.md §3.1, without a probe patch: a counting
//! `#[global_allocator]` reads what `Hierarchy::build` and
//! `Hierarchy::build_frozen` keep on the operators of `e2e`'s three serial
//! workloads (seed 1, `e2e`'s configuration); the difference is the frozen
//! state. Of it, the input-pattern copy is `8 (n + 1 + nnz)` bytes and a
//! level's row-order code `⌈nnz / 4⌉` bytes wherever the reordered
//! smoother partitioned a permuted level; the rest is the tapes (and, at
//! the parent, each level's `rap` copy of the next operator, `8 (rows + 1)
//! + 16 nnz` bytes). Run as `RAYON_NUM_THREADS=2 frozen_state <side>`.
use famg_core::params::AmgConfig;
use famg_core::smoother::Smoother;
use famg_core::Hierarchy;
use famg_matgen::{laplace2d, laplace3d_27pt, reservoir_field, varcoef3d_7pt};
use famg_sparse::Csr;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`; the counter
// never influences what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract, passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::SeqCst);
        }
        p
    }
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(p, layout) }
    }
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract, passed through.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            LIVE.fetch_add(new_size, Ordering::SeqCst);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn mb(b: usize) -> f64 {
    b as f64 / 1e6
}

fn main() {
    let side = std::env::args().nth(1).unwrap_or_default();
    let cfg = AmgConfig { tolerance: 1e-7, smoother_tasks: Some(2), ..AmgConfig::single_node_paper() };
    let field = reservoir_field(80, 80, 40, 8, 3.0, 2, 1);
    let ops: [(&str, Csr); 3] = [
        ("lap3d27_setup operator (64^3)", laplace3d_27pt(64, 64, 64)),
        ("lap2d_solves operator (700^2)", laplace2d(700, 700)),
        ("reservoir_steps operator (80x80x40)", varcoef3d_7pt(80, 80, 40, &field)),
    ];
    println!("side {side}, pool threads {}", std::env::var("RAYON_NUM_THREADS").unwrap_or_default());
    for (title, a) in ops {
        let unit = 8 * (a.rowptr().len() + 2 * a.nnz());
        let before = LIVE.load(Ordering::SeqCst);
        let h = Hierarchy::build(&a, &cfg);
        let built = LIVE.load(Ordering::SeqCst) - before;
        drop(h);
        let before = LIVE.load(Ordering::SeqCst);
        let (h, frozen) = Hierarchy::build_frozen(&a, &cfg);
        let kept = LIVE.load(Ordering::SeqCst) - before;
        let state = kept - built;
        let input = 8 * (a.nrows() + 1 + a.nnz());
        let last = h.num_levels() - 1;
        let (mut order, mut raw_copies) = (0, 0);
        for (l, lvl) in h.levels.iter().enumerate() {
            let partitioned = matches!(lvl.smoother, Smoother::HybridOpt { .. });
            if l < last && lvl.perm.is_some() && partitioned {
                order += lvl.a.nnz().div_ceil(4);
            }
            if l > 0 {
                raw_copies += 8 * (lvl.a.nrows() + 1) + 16 * lvl.a.nnz();
            }
        }
        println!("## {title}: operator {:.1} MB, {} levels", mb(unit), h.num_levels());
        println!("  build kept        {:>8.2} MB ({:.2} x)", mb(built), built as f64 / unit as f64);
        println!("  build_frozen kept {:>8.2} MB ({:.2} x)", mb(kept), kept as f64 / unit as f64);
        println!("  frozen state      {:>8.2} MB ({:.2} x)", mb(state), state as f64 / unit as f64);
        println!("  input pattern     {:>8.2} MB", mb(input));
        println!("  row-order codes   {:>8.2} MB (this tree keeps them only if it has them)", mb(order));
        println!("  raw copies of levels 1.. (what `rap` held) {:>8.2} MB", mb(raw_copies));
        drop((h, frozen));
    }
}
