//! What the probes share: `e2e`'s configuration and its three serial
//! workloads' operators at full size (seed 1).
use famg_core::params::AmgConfig;
use famg_matgen::{laplace2d, laplace3d_27pt, reservoir_field, varcoef3d_7pt};
use famg_sparse::Csr;

/// `e2e/src/workload.rs::amg_config`.
pub fn config() -> AmgConfig {
    AmgConfig {
        tolerance: 1e-7,
        smoother_tasks: Some(2),
        ..AmgConfig::single_node_paper()
    }
}

/// `(name, operator)` of `lap3d27_setup`, `lap2d_solves` and
/// `reservoir_steps`, or only the one named.
pub fn operators(only: Option<&str>) -> Vec<(&'static str, Csr)> {
    let all: [(&str, fn() -> Csr); 3] = [
        ("lap3d27", || laplace3d_27pt(64, 64, 64)),
        ("lap2d", || laplace2d(700, 700)),
        ("reservoir", || {
            varcoef3d_7pt(80, 80, 40, &reservoir_field(80, 80, 40, 8, 3.0, 2, 1))
        }),
    ];
    all.into_iter()
        .filter(|(name, _)| only.is_none_or(|o| o == *name))
        .map(|(name, make)| (name, make()))
        .collect()
}

/// Median of `v`.
pub fn med(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}
