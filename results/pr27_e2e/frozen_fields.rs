//! Frozen-state breakdown behind `results/pr27_e2e/README.md` and the
//! table of DESIGN.md §3.1: the heap bytes of every field a `FrozenSetup`
//! keeps, per level, on the operators of `e2e`'s three serial workloads at
//! seed 1 with `e2e`'s configuration. It reads two probe-only methods
//! (`FrozenSetup::probe_bytes`, `ExtITape::heap_bytes`) that
//! `frozen_fields_<side>.patch` adds to a copy of each tree (`patch -p1`
//! in its root); they are not part of the library. Run as `RAYON_NUM_THREADS=2 frozen_fields`.
use famg_core::params::AmgConfig;
use famg_core::Hierarchy;
use famg_matgen::{laplace2d, laplace3d_27pt, reservoir_field, varcoef3d_7pt};
use famg_sparse::Csr;
use std::collections::BTreeMap;

fn main() {
    let cfg = AmgConfig {
        tolerance: 1e-7,
        smoother_tasks: Some(2),
        ..AmgConfig::single_node_paper()
    };
    let field = reservoir_field(80, 80, 40, 8, 3.0, 2, 1);
    let ops: [(&str, Csr); 3] = [
        ("lap3d27_setup operator (64^3)", laplace3d_27pt(64, 64, 64)),
        ("lap2d_solves operator (700^2)", laplace2d(700, 700)),
        ("reservoir_steps operator (80x80x40)", varcoef3d_7pt(80, 80, 40, &field)),
    ];
    for (title, a) in ops {
        let unit = 8 * (a.rowptr().len() + 2 * a.nnz());
        let (h, frozen) = Hierarchy::build_frozen(&a, &cfg);
        println!("## {title}: operator {:.1} MB, {} levels", unit as f64 / 1e6, h.num_levels());
        let mut by_field: BTreeMap<String, usize> = BTreeMap::new();
        for (name, bytes) in frozen.probe_bytes() {
            println!("  {name:<16} {:>9.2} MB", bytes as f64 / 1e6);
            let field = name.split_once(' ').map_or(name.clone(), |(l, f)| {
                if l.chars().all(|c| c.is_ascii_digit()) { f.to_string() } else { name.clone() }
            });
            *by_field.entry(field).or_default() += bytes;
        }
        let total: usize = by_field.values().sum();
        for (f, b) in &by_field {
            println!("  total {f:<14} {:>9.2} MB", *b as f64 / 1e6);
        }
        println!("  total            {:>9.2} MB ({:.2} x the operator)", total as f64 / 1e6, total as f64 / unit as f64);
    }
}
