//! The PMIS share of `dist_weak_2r`'s setup traffic, level by level: the
//! benchmark's operator (`amg2013_like(48, 48, 96, 2, 2.0, seed 1)`) built
//! on two ranks under `multi_node_mp`, as `e2e` builds it.
//!
//! Run it in a checkout after adding, at the top of `dist_pmis`
//! (`crates/dist/src/coarsen.rs`),
//! `let (b0, m0) = (comm.bytes_sent(), comm.messages_sent());` and, before
//! its return, an `eprintln!` of `comm.messages_sent() - m0` and
//! `comm.bytes_sent() - b0` with the rank and `s.local_rows()`; then copy
//! this file to `tests/pmis_traffic.rs` and run
//! `cargo test --release --test pmis_traffic -- --nocapture`.

use famg::core::AmgConfig;
use famg::dist::comm::run_ranks;
use famg::dist::hierarchy::{DistHierarchy, DistOptFlags};
use famg::dist::parcsr::{default_partition, ParCsr};

#[test]
fn pmis_traffic() {
    let a = famg::matgen::amg2013_like(48, 48, 96, 2, 2.0, 1);
    let starts = default_partition(a.nrows(), 2);
    let cfg = AmgConfig::multi_node_mp();
    let (parts, _) = run_ranks(2, |c| {
        let r = c.rank();
        let pa = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
        let h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
        (h.setup_comm.messages, h.setup_comm.bytes, h.stats.level_rows.clone())
    });
    eprintln!("setup (messages, bytes, level rows) per rank: {parts:?}");
}
