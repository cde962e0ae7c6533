//! Scratch microbenchmark behind `results/pr19_e2e/README.md` and the
//! "Hybrid GS sweep (PR 19)" tables of EXPERIMENTS.md. Own package (empty
//! `[workspace]`, path dependencies on one tree, default release profile
//! like `e2e/`), built once per side.
//!
//! `gs_microbench kernels` — for the level-0 and level-1 operator of each
//! `e2e` workload, the minimum of five calls (ms) of: SpMV, the library's
//! C+F sweep (whatever the tree it was built against ships), and this
//! file's own copies of the sweep's data path, all on the library's
//! `GsPartition` and two tasks: `parent` (three loops per row, a full
//! snapshot copy before each half-sweep), `one_loop` (part 1 alone),
//! `one_loop_sparse` (parts 1 + 2), and two bounds nothing ships —
//! `jacobi_reads` (every off-diagonal read goes to a fixed second vector:
//! no store→load chain through `x`) and `packed` (`ext_start` as a `u32`
//! offset from `rowptr`, `1/d` in the row's diagonal slot of a private
//! copy of `A`: no `ext_start`/`dinv` streams of 8 B per row each).
//! Every copy that claims the parent's arithmetic is checked bitwise
//! against the library sweep before it is timed.
//!
//! `gs_microbench spans` — famg-prof spans of `lap2d_solves` solves:
//! minimum over five solves of each `(span, level)` total, ms.
use famg_core::hierarchy::Hierarchy;
use famg_core::params::AmgConfig;
use famg_core::reorder::GsPartition;
use famg_core::smoother::{Smoother, Workspace};
use famg_core::solver::AmgSolver;
use famg_matgen::{amg2013_like, laplace2d, laplace3d_27pt, reservoir_field, rhs, varcoef3d_7pt};
use famg_sparse::spmv::spmv;
use famg_sparse::Csr;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// `e2e`'s solver settings (`e2e/src/workload.rs::amg_config`).
fn config() -> AmgConfig {
    AmgConfig {
        tolerance: 1e-7,
        smoother_tasks: Some(2),
        ..AmgConfig::single_node_paper()
    }
}

/// The four `e2e` operators at seed 1.
fn operator(name: &str) -> Csr {
    match name {
        "lap3d27_setup" => laplace3d_27pt(64, 64, 64),
        "lap2d_solves" => laplace2d(700, 700),
        "reservoir_steps" => {
            let field = reservoir_field(80, 80, 40, 8, 3.0, 2, 1);
            varcoef3d_7pt(80, 80, 40, &field)
        }
        "dist_weak_2r" => amg2013_like(48, 48, 96, 2, 2.0, 1),
        _ => panic!("unknown workload {name}"),
    }
}

/// Minimum of `reps` timed calls, in milliseconds.
fn min_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::MAX, f64::min)
}

struct XPtr(*mut f64);
// SAFETY: as in `famg_core::smoother`: a task writes only rows of its own
// ranges and reads other tasks' entries through the snapshot.
unsafe impl Sync for XPtr {}

/// How a variant takes its pre-sweep snapshot.
#[derive(Clone, Copy, PartialEq)]
enum Snapshot {
    /// `temp.copy_from_slice(x)` before each half-sweep.
    Full,
    /// The `ext` columns only.
    Sparse,
    /// None: `temp` is a fixed vector (the `jacobi_reads` bound).
    Fixed,
}

/// Sorted distinct columns of every row's `ext` segment.
fn ext_cols(a: &Csr, part: &GsPartition) -> Vec<usize> {
    let mut cols: Vec<usize> = (0..a.nrows())
        .flat_map(|i| a.colidx()[part.ext_start[i]..a.rowptr()[i + 1]].iter().copied())
        .collect();
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// One C+F sweep over two (or `nt`) tasks; `rows_fn` is the row kernel.
fn sweep(
    part: &GsPartition,
    x: &mut [f64],
    temp: &mut [f64],
    snap: Snapshot,
    ext: &[usize],
    rows_fn: &(impl Fn(Range<usize>, &XPtr, &[f64]) + Sync),
) {
    for class in 0..2 {
        match snap {
            Snapshot::Full => temp.copy_from_slice(x),
            Snapshot::Sparse => {
                for &c in ext {
                    temp[c] = x[c];
                }
            }
            Snapshot::Fixed => {}
        }
        let p = XPtr(x.as_mut_ptr());
        let temp = &*temp;
        rayon::scope(|s| {
            for t in 0..part.own.nthreads() {
                let rows = if class == 0 {
                    part.own.coarse[t].clone()
                } else {
                    part.own.fine[t].clone()
                };
                let p = &p;
                s.spawn(move |_| rows_fn(rows, p, temp));
            }
        });
    }
}

/// The parent's row loop: own-lower, own-upper, ext.
fn rows_parent(a: &Csr, part: &GsPartition, b: &[f64], rows: Range<usize>, p: &XPtr, temp: &[f64]) {
    let (rowptr, colidx, values) = (a.rowptr(), a.colidx(), a.values());
    for i in rows {
        let (start, end) = (rowptr[i], rowptr[i + 1]);
        let (up, ext) = (part.up_start[i], part.ext_start[i]);
        let mut acc = b[i];
        for e in start + 1..up {
            // SAFETY: own column.
            acc -= values[e] * unsafe { *p.0.add(colidx[e]) };
        }
        for e in up..ext {
            // SAFETY: own column.
            acc -= values[e] * unsafe { *p.0.add(colidx[e]) };
        }
        for e in ext..end {
            acc -= values[e] * temp[colidx[e]];
        }
        // SAFETY: own row.
        unsafe { *p.0.add(i) = acc * part.dinv[i] };
    }
}

/// Part 1: one live-`x` loop, then ext.
fn rows_one_loop(
    a: &Csr,
    part: &GsPartition,
    b: &[f64],
    rows: Range<usize>,
    p: &XPtr,
    temp: &[f64],
) {
    let (rowptr, colidx, values) = (a.rowptr(), a.colidx(), a.values());
    for i in rows {
        let (start, end) = (rowptr[i], rowptr[i + 1]);
        let ext = part.ext_start[i];
        let mut acc = b[i];
        for e in start + 1..ext {
            // SAFETY: own column.
            acc -= values[e] * unsafe { *p.0.add(colidx[e]) };
        }
        for e in ext..end {
            acc -= values[e] * temp[colidx[e]];
        }
        // SAFETY: own row.
        unsafe { *p.0.add(i) = acc * part.dinv[i] };
    }
}

/// Bound: every off-diagonal read from `temp` (no chain through `x`).
fn rows_jacobi(
    a: &Csr,
    part: &GsPartition,
    b: &[f64],
    rows: Range<usize>,
    p: &XPtr,
    temp: &[f64],
) {
    let (rowptr, colidx, values) = (a.rowptr(), a.colidx(), a.values());
    for i in rows {
        let (start, end) = (rowptr[i], rowptr[i + 1]);
        let ext = part.ext_start[i];
        let mut acc = b[i];
        for e in start + 1..ext {
            acc -= values[e] * temp[colidx[e]];
        }
        for e in ext..end {
            acc -= values[e] * temp[colidx[e]];
        }
        // SAFETY: own row.
        unsafe { *p.0.add(i) = acc * part.dinv[i] };
    }
}

/// Bound: `ext_off[i] = ext_start[i] − rowptr[i]` as `u32`, and `ad` a
/// copy of `A` whose diagonal slot (first of the row) holds `1/d`.
fn rows_packed(ad: &Csr, ext_off: &[u32], b: &[f64], rows: Range<usize>, p: &XPtr, temp: &[f64]) {
    let (rowptr, colidx, values) = (ad.rowptr(), ad.colidx(), ad.values());
    for i in rows {
        let (start, end) = (rowptr[i], rowptr[i + 1]);
        let ext = start + ext_off[i] as usize;
        let mut acc = b[i];
        for e in start + 1..ext {
            // SAFETY: own column.
            acc -= values[e] * unsafe { *p.0.add(colidx[e]) };
        }
        for e in ext..end {
            acc -= values[e] * temp[colidx[e]];
        }
        // SAFETY: own row.
        unsafe { *p.0.add(i) = acc * values[start] };
    }
}

fn kernels() {
    println!("# pool threads {}", rayon::current_num_threads());
    for name in [
        "lap3d27_setup",
        "lap2d_solves",
        "reservoir_steps",
        "dist_weak_2r",
    ] {
        let h = Hierarchy::build(&operator(name), &config());
        for level in 0..2.min(h.levels.len()) {
            let lvl = &h.levels[level];
            let Smoother::HybridOpt { part, .. } = &lvl.smoother else {
                continue;
            };
            let a = &lvl.a;
            let n = a.nrows();
            let b = rhs::random(n, 3);
            let x0: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
            let ext = ext_cols(a, part);
            let tag = format!("{name} L{level}");
            println!(
                "{tag} shape n={n} nnz={} ext_cols={}",
                a.nnz(),
                ext.len()
            );

            // The library sweep from `x0`: what every exact copy must equal.
            let mut want = x0.clone();
            lvl.smoother
                .pre_smooth(a, &b, &mut want, &mut Workspace::new(), false);

            let mut y = vec![0.0; n];
            println!("{tag} spmv {:.4}", min_ms(5, || spmv(a, &x0, &mut y)));
            let mut ws = Workspace::new();
            let mut x = x0.clone();
            let t = min_ms(5, || {
                lvl.smoother.pre_smooth(a, &b, &mut x, &mut ws, false);
            });
            println!("{tag} library {t:.4}");

            let mut temp = vec![0.0; n];
            let mut run = |label: &str, snap: Snapshot, exact: bool, rows_fn: &(dyn Fn(Range<usize>, &XPtr, &[f64]) + Sync)| {
                let mut x = x0.clone();
                if snap == Snapshot::Fixed {
                    temp.copy_from_slice(&x0);
                }
                sweep(part, &mut x, &mut temp, snap, &ext, &rows_fn);
                if exact {
                    assert!(
                        x.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()),
                        "{tag} {label}: not the library's iterate"
                    );
                }
                let t = min_ms(5, || sweep(part, &mut x, &mut temp, snap, &ext, &rows_fn));
                black_box(&x);
                println!("{tag} {label} {t:.4}");
            };
            run("parent", Snapshot::Full, true, &|r, p, t| {
                rows_parent(a, part, &b, r, p, t);
            });
            run("one_loop", Snapshot::Full, true, &|r, p, t| {
                rows_one_loop(a, part, &b, r, p, t);
            });
            run("one_loop_sparse", Snapshot::Sparse, true, &|r, p, t| {
                rows_one_loop(a, part, &b, r, p, t);
            });
            run("jacobi_reads", Snapshot::Fixed, false, &|r, p, t| {
                rows_jacobi(a, part, &b, r, p, t);
            });
            let ext_off: Vec<u32> = (0..n)
                .map(|i| (part.ext_start[i] - a.rowptr()[i]) as u32)
                .collect();
            let mut ad = a.clone();
            {
                let rowptr = ad.rowptr().to_vec();
                let (_, values) = ad.colidx_values_mut();
                for i in 0..n {
                    values[rowptr[i]] = part.dinv[i];
                }
            }
            run("packed", Snapshot::Sparse, true, &|r, p, t| {
                rows_packed(&ad, &ext_off, &b, r, p, t);
            });
        }
    }
}

fn spans() {
    println!("# pool threads {}", rayon::current_num_threads());
    let a = operator("lap2d_solves");
    let solver = AmgSolver::setup(&a, &config());
    let n = a.nrows();
    let mut best: BTreeMap<(String, usize), f64> = BTreeMap::new();
    let mut solve_ms = f64::MAX;
    for rep in 0..6 {
        let xs = rhs::random(n, 10 + rep);
        let b = rhs::rhs_for_solution(&a, &xs);
        let mut x = vec![0.0; n];
        let t = Instant::now();
        let res = solver.solve(&b, &mut x);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(res.converged);
        if rep == 0 {
            continue; // warm-up
        }
        solve_ms = solve_ms.min(ms);
        let mut totals: BTreeMap<(String, usize), f64> = BTreeMap::new();
        for root in &res.profile.roots {
            root.visit(&mut |s| {
                *totals.entry((s.name.to_string(), s.level)).or_default() +=
                    s.wall.as_secs_f64() * 1e3;
            });
        }
        for (key, ms) in totals {
            let e = best.entry(key).or_insert(f64::MAX);
            *e = e.min(ms);
        }
        println!("# solve {rep}: {} iterations, {ms:.2} ms", res.iterations);
    }
    println!("solve {solve_ms:.3}");
    for ((name, level), ms) in best {
        if level <= 2 {
            println!("{name}@{level} {ms:.3}");
        } else if level == famg_prof::NO_LEVEL {
            println!("{name} {ms:.3}");
        }
    }
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("kernels") => kernels(),
        Some("spans") => spans(),
        _ => eprintln!("usage: gs_microbench kernels|spans"),
    }
}
