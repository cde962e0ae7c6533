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
//! The `dist` section pins the distributed hierarchy the same way: every
//! level's operator and interpolation (`diag`, `offd`, `colmap`) and the
//! global level sizes, at one and two ranks, built. Its
//! constants were recorded at PR 22 itself — the change that made the
//! distributed builders run the serial row kernels, which emit a row's
//! weights in discovery order and let `truncate_row` rescale in that order
//! where the old builders summed through a hash map and emitted in column
//! order, so interpolation weights moved in their last bits and there is no
//! parent value to keep. What that change *can* be held to without a
//! constant is asserted beside them: level 0's `P` is the same bits at one,
//! two and four ranks. They were re-recorded once since, when the
//! distributed PMIS became the serial rounds on each rank's rows: it had
//! demoted along `S` rows only where the serial one demotes along
//! `S ∪ Sᵀ`, so every level below a non-symmetric strength pattern moved
//! (`results/pr38_e2e/pins_moved.txt` lists both sides).
//!
//! To re-record after an *intended* numerical change, run
//! `cargo test --test hierarchy_fingerprints -- --nocapture` and copy the
//! printed table.

use famg::core::hierarchy::TransferOps;
use famg::core::{AmgConfig, Hierarchy};
use famg::dist::comm::run_ranks;
use famg::dist::hierarchy::{DistHierarchy, DistOptFlags};
use famg::dist::parcsr::{default_partition, to_global, ParCsr};
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
    // Each column hashed as a `u64`, whatever its stored width.
    let h = c
        .colidx()
        .iter()
        .fold(h, |h, &j| fnv1a(h, usize::from(j) as u64));
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
            vals[k] *= d(i) * d(usize::from(a.colidx()[k]));
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
/// permuted operator in place") — except the two `2s_ei444/build` rows of
/// the uniform-coefficient operators, re-recorded when interpolation moved
/// to the level's raw ordering (PR 24): two-stage extended+i numbers its
/// stage-1 coarse points in point order and `truncate_row` breaks
/// magnitude ties towards the smaller column, so on tied weights the kept
/// set follows the ordering. Their `/refresh` twins (drifted values, no
/// ties) and every other row did not move: tie-breaking, not arithmetic
/// (`results/pr24_e2e/fingerprints_moved.txt`).
const EXPECTED: &[(&str, u64)] = &[
    ("laplace2d/paper/build", 0x574c9b429b2c1829),
    ("laplace2d/paper/refresh", 0x4e6402de23fc1271),
    ("laplace2d/baseline/build", 0x90c18e4d97f804f7),
    ("laplace2d/baseline/refresh", 0x4f43230cbea118f0),
    ("laplace2d/mp/build", 0x99e1f25ae81b7673),
    ("laplace2d/mp/refresh", 0xb0451d21ecac83f2),
    ("laplace2d/2s_ei444/build", 0x337b8e576a9d4434),
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
    ("laplace3d_27pt/2s_ei444/build", 0xac4374afa79000a2),
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

fn hash_parcsr(h: u64, m: &ParCsr) -> u64 {
    hash_usizes(hash_csr(hash_csr(h, &m.diag), &m.offd), &m.colmap)
}

fn hash_dist_hierarchy(hier: &DistHierarchy) -> u64 {
    let mut h = hash_usizes(FNV_SEED, &hier.stats.level_rows);
    h = hash_usizes(h, &hier.stats.level_nnz);
    for lvl in &hier.levels {
        h = hash_parcsr(h, &lvl.a);
        if let Some(p) = &lvl.p {
            h = hash_parcsr(h, p);
        }
    }
    h
}

fn dist_configs() -> [(&'static str, AmgConfig); 3] {
    [
        ("mp", AmgConfig::multi_node_mp()),
        ("ei4", AmgConfig::multi_node_ei4()),
        ("2s_ei444", AmgConfig::multi_node_2s_ei444()),
    ]
}

/// Recorded at PR 22 and re-recorded once with the shared PMIS rounds
/// (see the module docs).
const EXPECTED_DIST: &[(&str, u64)] = &[
    ("dist/laplace2d/mp/1r/build", 0xf39ed891e8bf9604),
    ("dist/laplace2d/mp/2r/build", 0xe8055addde9dba21),
    ("dist/laplace2d/ei4/1r/build", 0xa6f714f825f51392),
    ("dist/laplace2d/ei4/2r/build", 0x424ba034fcd5da3d),
    ("dist/laplace2d/2s_ei444/1r/build", 0xb81cdaaba30140b8),
    ("dist/laplace2d/2s_ei444/2r/build", 0x5c66584b2bd88875),
    ("dist/varcoef3d_7pt/mp/1r/build", 0x9d1918ecb05a61f1),
    ("dist/varcoef3d_7pt/mp/2r/build", 0x44d149412480f13b),
    ("dist/varcoef3d_7pt/ei4/1r/build", 0x4ab2002aa4fac3cf),
    ("dist/varcoef3d_7pt/ei4/2r/build", 0xba4c47a31ee1e016),
    ("dist/varcoef3d_7pt/2s_ei444/1r/build", 0x678866a7ebf19ec6),
    ("dist/varcoef3d_7pt/2s_ei444/2r/build", 0xa4f42eab5467bf51),
];

#[test]
fn dist_hierarchy_fingerprints_match_recorded() {
    let mut got: Vec<(String, u64)> = Vec::new();
    let [lap, var, _] = operators();
    for (oname, a) in [lap, var] {
        for (cname, cfg) in dist_configs() {
            // Level 0's interpolation, reassembled, per rank count.
            let mut p0: Vec<Csr> = Vec::new();
            for nranks in [1usize, 2, 4] {
                let starts = default_partition(a.nrows(), nranks);
                let (per_rank, _) = run_ranks(nranks, |c| {
                    let r = c.rank();
                    let pa =
                        ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
                    let built = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
                    assert!(built.num_levels() >= 2, "{oname}/{cname}: single level");
                    let p = built.levels[0].p.clone().expect("level 0 interpolates");
                    (hash_dist_hierarchy(&built), p)
                });
                if nranks <= 2 {
                    let fp = per_rank.iter().fold(FNV_SEED, |f, r| fnv1a(f, r.0));
                    got.push((format!("dist/{oname}/{cname}/{nranks}r/build"), fp));
                }
                let parts: Vec<ParCsr> = per_rank.into_iter().map(|r| r.1).collect();
                p0.push(to_global(&parts));
            }
            let bits = |m: &Csr| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for p in &p0[1..] {
                assert!(
                    p.same_pattern(&p0[0]) && bits(p) == bits(&p0[0]),
                    "{oname}/{cname}: level 0's P depends on the rank count"
                );
            }
        }
    }
    for (name, f) in &got {
        println!("    (\"{name}\", 0x{f:016x}),");
    }
    assert_eq!(got.len(), EXPECTED_DIST.len(), "fingerprint set changed");
    for ((name, f), (ename, ef)) in got.iter().zip(EXPECTED_DIST) {
        assert_eq!(name, ename, "fingerprint order changed");
        assert_eq!(
            f, ef,
            "{name}: the distributed hierarchy is no longer bitwise the recorded one"
        );
    }
}
