//! Hierarchy fingerprints pinned against a recorded commit.
//!
//! `refresh_matches_full_rebuild_bitwise` and `tests/setup_refresh.rs`
//! compare a refreshed hierarchy with a fresh build of the same tree, so a
//! change that moves both sides the same way passes them. These FNV-1a
//! fingerprints (the hasher of `solve_fingerprints.rs`) cover, per level,
//! the operator, the CF permutation and the transfer operators (`P_F` and
//! `P_Fᵀ`, or `P` and `R`) of a full build and of a frozen build refreshed
//! with a drifted operator, and were recorded by running this file at
//! b083e2f — the last commit whose CF-block RAP split `A_perm` into four
//! block copies and whose refresh replayed frozen gather maps.
//!
//! To re-record after an *intended* numerical change, run
//! `cargo test --test hierarchy_fingerprints -- --nocapture` and copy the
//! printed table.

use famg::core::hierarchy::TransferOps;
use famg::core::{AmgConfig, Hierarchy};
use famg::matgen::{laplace2d, laplace3d_27pt, reservoir_field, varcoef3d_7pt};
use famg::sparse::Csr;

fn fnv1a(h: u64, w: u64) -> u64 {
    let mut h = h;
    for b in w.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn hash_usizes(h: u64, xs: &[usize]) -> u64 {
    xs.iter().fold(h, |h, &v| fnv1a(h, v as u64))
}

fn hash_csr(h: u64, c: &Csr) -> u64 {
    let h = hash_usizes(h, &[c.nrows(), c.ncols()]);
    let h = hash_usizes(h, c.rowptr());
    let h = hash_usizes(h, c.colidx());
    c.values().iter().fold(h, |h, v| fnv1a(h, v.to_bits()))
}

fn hash_hierarchy(hier: &Hierarchy) -> u64 {
    let mut h = fnv1a(FNV_SEED, hier.levels.len() as u64);
    for lvl in &hier.levels {
        h = hash_csr(h, &lvl.a);
        h = fnv1a(h, lvl.nc as u64);
        if let Some(q) = &lvl.perm {
            h = hash_usizes(h, &q.forward);
        }
        match &lvl.ops {
            None => {}
            Some(TransferOps::CfBlock { pf, pft }) => {
                h = hash_csr(hash_csr(h, pf), pft);
            }
            Some(TransferOps::Full { p, r }) => {
                h = hash_csr(h, p);
                if let Some(r) = r {
                    h = hash_csr(h, r);
                }
            }
        }
    }
    h
}

/// `D·A·D` with a smooth, strictly positive diagonal `D`: the same
/// pattern, symmetry and definiteness, and values with no exact ties left
/// for a truncation kept-set to hang on. `t` moves `D` by 1e-6 of its
/// variation — a drift far too small to flip a frozen decision (the
/// `validate` feature's refresh cross-check runs under this test too).
fn scaled(a: &Csr, t: f64) -> Csr {
    let d = |i: usize| {
        let x = i as f64;
        1.0 + 0.05 * (0.7 * x).sin() + 1e-6 * t * (1.3 * x).cos()
    };
    let mut out = a.clone();
    let vals = out.values_mut();
    for i in 0..a.nrows() {
        for k in a.row_range(i) {
            vals[k] *= d(i) * d(a.colidx()[k]);
        }
    }
    out
}

fn operators() -> [(&'static str, Csr); 3] {
    let k = reservoir_field(12, 12, 8, 4, 2.0, 2, 2026);
    [
        ("laplace2d", laplace2d(48, 48)),
        ("varcoef3d_7pt", varcoef3d_7pt(12, 12, 8, &k)),
        ("laplace3d_27pt", laplace3d_27pt(10, 10, 10)),
    ]
}

fn configs() -> [(&'static str, AmgConfig); 4] {
    // The optimized smoother orders each row by its task's boundaries, so
    // the stored operators depend on the task count: pin it.
    let pin = |cfg: AmgConfig| AmgConfig {
        smoother_tasks: Some(2),
        ..cfg
    };
    [
        ("paper", pin(AmgConfig::single_node_paper())),
        ("baseline", pin(AmgConfig::single_node_baseline())),
        ("mp", pin(AmgConfig::multi_node_mp())),
        ("2s_ei444", pin(AmgConfig::multi_node_2s_ei444())),
    ]
}

/// Recorded at b083e2f (the parent of "the CF-block RAP reads the
/// permuted operator in place").
const EXPECTED: &[(&str, u64)] = &[
    ("laplace2d/paper/build", 0x574c9b429b2c1829),
    ("laplace2d/paper/refresh", 0x4e6402de23fc1271),
    ("laplace2d/baseline/build", 0x90c18e4d97f804f7),
    ("laplace2d/baseline/refresh", 0x4f43230cbea118f0),
    ("laplace2d/mp/build", 0x99e1f25ae81b7673),
    ("laplace2d/mp/refresh", 0xb0451d21ecac83f2),
    ("laplace2d/2s_ei444/build", 0xa5b34906ff6e4dc0),
    ("laplace2d/2s_ei444/refresh", 0xd49a725b7dfdbcd2),
    ("varcoef3d_7pt/paper/build", 0x56585f951f2ad579),
    ("varcoef3d_7pt/paper/refresh", 0x7d0431281ffce5dc),
    ("varcoef3d_7pt/baseline/build", 0xfcef2daa1505b5c6),
    ("varcoef3d_7pt/baseline/refresh", 0xf1932013f979ec57),
    ("varcoef3d_7pt/mp/build", 0x9160b4f69a2a9ae4),
    ("varcoef3d_7pt/mp/refresh", 0x10266dee0691d769),
    ("varcoef3d_7pt/2s_ei444/build", 0x67910f35f919edfc),
    ("varcoef3d_7pt/2s_ei444/refresh", 0x139765ea1fe0bb7a),
    ("laplace3d_27pt/paper/build", 0x33e4656e8506661b),
    ("laplace3d_27pt/paper/refresh", 0xd738415365f469a0),
    ("laplace3d_27pt/baseline/build", 0x20c2c06e35495c04),
    ("laplace3d_27pt/baseline/refresh", 0x2e7739abf944ebaf),
    ("laplace3d_27pt/mp/build", 0xf1ea4786a0719292),
    ("laplace3d_27pt/mp/refresh", 0x7abb7670980e0e26),
    ("laplace3d_27pt/2s_ei444/build", 0x4a86a35325219542),
    ("laplace3d_27pt/2s_ei444/refresh", 0x443f63bcf051e9a0),
];

#[test]
fn hierarchy_fingerprints_match_recorded_parent() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for (oname, a) in operators() {
        for (cname, cfg) in configs() {
            let built = Hierarchy::build(&a, &cfg);
            assert!(built.levels.len() >= 2, "{oname}/{cname}: single level");
            got.push((format!("{oname}/{cname}/build"), hash_hierarchy(&built)));

            let (mut h, mut frozen) = Hierarchy::build_frozen(&scaled(&a, 0.0), &cfg);
            let drifted = scaled(&a, 1.0);
            h.refresh(&drifted, &mut frozen)
                .unwrap_or_else(|e| panic!("{oname}/{cname}: {e}"));
            let fp = hash_hierarchy(&h);
            // Refresh is a function of the new values and the frozen
            // decisions only: a second one changes nothing.
            h.refresh(&drifted, &mut frozen).unwrap();
            assert_eq!(hash_hierarchy(&h), fp, "{oname}/{cname}: not idempotent");
            // And the drift is inside the refresh contract.
            let fresh = hash_hierarchy(&Hierarchy::build(&drifted, &cfg));
            assert_eq!(fp, fresh, "{oname}/{cname}: refresh differs from a rebuild");
            got.push((format!("{oname}/{cname}/refresh"), fp));
        }
    }
    for (name, f) in &got {
        println!("    (\"{name}\", 0x{f:016x}),");
    }
    assert_eq!(got.len(), EXPECTED.len(), "fingerprint set changed");
    for ((name, f), (ename, ef)) in got.iter().zip(EXPECTED) {
        assert_eq!(name, ename, "fingerprint order changed");
        assert_eq!(
            f, ef,
            "{name}: the hierarchy is no longer bitwise the recorded one"
        );
    }
}
