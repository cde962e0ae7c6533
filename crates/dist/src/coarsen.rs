//! Distributed PMIS coarsening and its aggressive second pass.
//!
//! The rounds are the serial ones (`famg_core::coarsen::pmis_rounds`) on
//! each rank's owned points. An owned point's row holds its `S` row plus
//! the edges other ranks store towards it (the off-rank part of `Sᵀ_i`,
//! routed once, pattern only), the halo's states are refreshed over one
//! [`VectorExchange`] plan between phases, and the weights are keyed on
//! *global* indices: the C/F splitting is the serial `pmis` bit for bit at
//! every rank count, on any strength pattern.

use crate::comm::{wire, Comm};
use crate::halo::{fetch_values, gather_rows, VectorExchange};
use crate::parcsr::{owner_of, ExtSpace, ParCsr};
use famg_core::coarsen::{distance_two_rows, pmis_rounds, Marks};
use famg_core::interp::CfMap;
use famg_core::rng::uniform01;
use famg_sparse::Csr;

/// One rank's share of a C/F splitting.
#[derive(Debug)]
pub struct DistCoarsening {
    /// Local C/F marker (index = local row).
    pub is_coarse: Vec<bool>,
    /// Exclusive prefix counts of local C-points (O(1) coarse indices).
    prefix: Vec<usize>,
    /// Number of local C-points.
    pub ncoarse_local: usize,
    /// Global coarse numbering offset of this rank (C-points of rank r
    /// get global coarse indices `coarse_start .. coarse_start + n_c`).
    pub coarse_start: usize,
    /// Global number of C-points.
    pub ncoarse_global: usize,
}

impl DistCoarsening {
    /// Builds the numbering from a local marker (one exscan collective).
    pub fn from_marker(comm: &Comm, is_coarse: Vec<bool>, tag: u64) -> Self {
        let mut prefix = Vec::with_capacity(is_coarse.len());
        let mut acc = 0usize;
        for &c in &is_coarse {
            prefix.push(acc);
            acc += usize::from(c);
        }
        let (coarse_start, ncoarse_global) = comm.exscan_sum(acc, tag);
        DistCoarsening {
            is_coarse,
            prefix,
            ncoarse_local: acc,
            coarse_start,
            ncoarse_global,
        }
    }

    /// Global coarse index of local point `i` (must be coarse).
    pub fn coarse_index(&self, i: usize) -> usize {
        debug_assert!(self.is_coarse[i]);
        self.coarse_start + self.prefix[i]
    }

    /// The coarse-row partition induced by this splitting.
    pub fn coarse_starts(&self, comm: &Comm) -> Vec<usize> {
        let mut s = comm.allgather(self.coarse_start, 0x60, 8);
        s.push(self.ncoarse_global);
        s
    }

    /// The C/F state of every local point as it travels in a halo
    /// exchange: fine → −1, coarse → its global coarse index.
    pub fn codes(&self) -> Vec<f64> {
        (0..self.is_coarse.len())
            .map(|i| {
                if self.is_coarse[i] {
                    self.coarse_index(i) as f64
                } else {
                    -1.0
                }
            })
            .collect()
    }

    /// The splitting over a rank's whole local index space `space`, from
    /// the [`codes`](Self::codes) the owners of its halo ids sent
    /// (`halo_codes`, one per halo id, ascending): the C/F map a serial
    /// kernel takes, and the space of its coarse columns. The global coarse
    /// numbering ascends with the global point id, so the local coarse
    /// numbering `CfMap` assigns is again monotone in the global one.
    pub fn extended(&self, space: &ExtSpace, halo_codes: &[f64]) -> (CfMap, ExtSpace) {
        debug_assert_eq!(halo_codes.len() + self.is_coarse.len(), space.ext2g.len());
        let (below, above) = halo_codes.split_at(space.own.start);
        let coarse_ids = |codes: &[f64]| -> Vec<usize> {
            (codes.iter().filter(|&&c| c >= 0.0).map(|&c| c as usize)).collect()
        };
        let mut halo = coarse_ids(below);
        halo.extend(coarse_ids(above));
        let is_coarse = (below.iter().map(|&c| c >= 0.0))
            .chain(self.is_coarse.iter().copied())
            .chain(above.iter().map(|&c| c >= 0.0))
            .collect();
        let own = (self.coarse_start, self.coarse_start + self.ncoarse_local);
        (CfMap::new(is_coarse), ExtSpace::new(own, &halo))
    }
}

/// Distributed PMIS over a distributed strength matrix (square
/// partition; module docs). The random weight of local point `i` is keyed
/// on its global index `row_start + i`.
pub fn dist_pmis(comm: &Comm, s: &ParCsr, seed: u64) -> DistCoarsening {
    let rank = comm.rank();
    let nl = s.local_rows();
    let own = (s.row_start, s.row_end);
    assert_eq!(s.col_range(rank), own, "PMIS needs a square partition");

    // Each off-rank entry `i → j` of S travels to the owner of `j` as the
    // pair (j, i): one flat bundle per owner.
    let mut sends = vec![Vec::new(); comm.size()];
    for i in 0..nl {
        for g in s.offd.col_iter(i).map(|k| s.colmap[k]) {
            sends[owner_of(&s.col_starts, g)].extend([g, s.row_start + i]);
        }
    }
    let sends: Vec<(usize, Vec<usize>)> = (sends.into_iter().enumerate())
        .filter(|b| !b.1.is_empty())
        .collect();
    let inbound = comm.alltoallv(sends, 0x64, |p| wire::idxs(p.len()));
    let mut incoming: Vec<(usize, usize)> = (inbound.iter())
        .flat_map(|(_, p)| p.chunks_exact(2).map(|e| (e[0], e[1])))
        .collect();
    incoming.sort_unstable();

    // Owned row i: S_i, then the sources of the edges routed to i. |Sᵀ_i|
    // is the owned rows' entries in column i plus the routed ones.
    let space = ExtSpace::with_received(own, &s.colmap, incoming.iter().map(|e| e.1));
    let mut dependants = vec![0u32; nl];
    for &c in s.diag.colidx() {
        dependants[usize::from(c)] += 1;
    }
    let mut rowptr = vec![0usize; space.own.start + 1];
    let mut colidx = Vec::with_capacity(s.local_nnz() + incoming.len());
    let mut routed = incoming.iter().peekable();
    for (i, d) in dependants.iter_mut().enumerate() {
        s.visit_global_row(i, rank, |g, _| colidx.push(space.col(g)));
        while let Some(&(_, g)) = routed.next_if(|e| e.0 == s.row_start + i) {
            colidx.push(space.col(g));
            *d += 1;
        }
        rowptr.push(colidx.len());
    }
    let n_ext = space.ext2g.len();
    rowptr.resize(n_ext + 1, colidx.len());
    let values = vec![1.0; colidx.len()];
    let s_ext = Csr::from_parts_unchecked(n_ext, n_ext, rowptr, colidx, values);

    // Measures of the owned points, and of the halo from their owners.
    let measure: Vec<f64> = (dependants.iter().enumerate())
        .map(|(i, &d)| f64::from(d) + uniform01(seed, (s.row_start + i) as u64))
        .collect();
    let halo: Vec<usize> = space.halo().collect();
    let plan = VectorExchange::plan(comm, &halo, &s.col_starts);
    let halo_measure = plan.exchange(comm, &measure);
    let (below, above) = halo_measure.split_at(space.own.start);
    let measure: Vec<f64> = (below.iter().chain(&measure).chain(above))
        .copied()
        .collect();

    let halo_ids = (0..space.own.start).chain(space.own.end..n_ext);
    let refresh = |marks: &Marks| {
        let codes: Vec<f64> = space.own.clone().map(|i| marks.code(i)).collect();
        for (e, c) in halo_ids.clone().zip(plan.exchange(comm, &codes)) {
            marks.set_code(e, c);
        }
    };
    let more = |sel: bool, und: bool| {
        let local = [sel, und].map(|b| f64::from(u8::from(b))).to_vec();
        comm.allreduce_sum_vec(local, 0x61).iter().all(|&n| n > 0.0)
    };
    let is_coarse = pmis_rounds(&s_ext, space.own.clone(), &measure, refresh, more);
    DistCoarsening::from_marker(comm, is_coarse, 0x62)
}

/// Distributed aggressive coarsening: PMIS, then PMIS again over the
/// distance-≤2 strength graph among the first pass's C-points (compact
/// coarse numbering, so the weights match the shared-memory version).
/// Returns `(stage1, final)`.
pub fn dist_aggressive_pmis(
    comm: &Comm,
    s: &ParCsr,
    seed: u64,
) -> (DistCoarsening, DistCoarsening) {
    let rank = comm.rank();
    let first = dist_pmis(comm, s, seed);

    // Gather full remote S rows for the halo (distance-2 reach), and the
    // C/F state + compact coarse index of every point they name.
    let gathered = gather_rows(comm, &s.colmap, &s.col_starts, |li, _, emit| {
        s.visit_global_row(li, rank, emit);
    });
    let space =
        ExtSpace::with_received(s.col_range(rank), &s.colmap, gathered.cols.iter().copied());
    let halo: Vec<usize> = space.halo().collect();
    let codes = first.codes();
    let halo_codes = fetch_values(comm, &halo, &s.col_starts, |li| codes[li]);
    let (cf, coarse) = first.extended(&space, &halo_codes);
    let s_ext = s.extended(rank, &space, &space, Some(&gathered));
    let s2_local = distance_two_rows(&s_ext, &cf, space.own.clone());
    let coarse_starts = first.coarse_starts(comm);
    let s2 = ParCsr::from_local(
        &s2_local,
        &coarse,
        coarse_starts[rank],
        coarse_starts[rank + 1],
        first.ncoarse_global,
        coarse_starts,
    );
    let second = dist_pmis(comm, &s2, seed.wrapping_add(1));
    // Map back to point space: a point stays coarse if its C-point does.
    let mut kept = second.is_coarse.iter();
    let is_coarse = (first.is_coarse.iter())
        .map(|&c| c && *kept.next().expect("one S2 row per C-point"))
        .collect();
    let fin = DistCoarsening::from_marker(comm, is_coarse, 0x63);
    (first, fin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_ranks;
    use crate::parcsr::default_partition;
    use famg_core::coarsen::{aggressive_pmis_stages, pmis};
    use famg_core::strength::strength;
    use famg_matgen::{laplace2d, laplace3d_27pt};
    use famg_sparse::permute::{permute_symmetric, Permutation};

    /// A seeded random directed strength pattern on `n ≥ 8` points in
    /// which points 0 and 1 have out-edges only (nobody depends on them)
    /// and point 2 is isolated (the shape of the serial module's
    /// `asymmetric_pattern`).
    fn directed_pattern(n: usize, seed: u64) -> Csr {
        let mut trips = vec![(0, 3, -1.0), (0, 4, -1.0), (1, 3, -1.0)];
        for i in 3..n {
            for k in 0..4u64 {
                let j = 3 + (uniform01(seed, 4 * i as u64 + k) * (n - 3) as f64) as usize;
                if j != i && uniform01(seed ^ 0xA5, 4 * i as u64 + k) < 0.6 {
                    trips.push((i, j.min(n - 1), -1.0));
                }
            }
        }
        Csr::from_triplets(n, n, trips)
    }

    /// The strength pattern the serial build's PMIS reads at level 1 of the
    /// 27-point operator: level 1's operator read back through its CF
    /// permutation to the raw ordering RAP produced.
    fn level1_strength_27pt() -> Csr {
        let cfg = famg_core::AmgConfig::single_node_paper();
        let h = famg_core::Hierarchy::build(&laplace3d_27pt(12, 11, 10), &cfg);
        let l1 = &h.levels[1];
        let back = (l1.perm.as_ref()).map(|q| Permutation {
            forward: q.inverse.clone(),
            inverse: q.forward.clone(),
        });
        let mut a1 = back.map_or_else(|| l1.a.clone(), |q| permute_symmetric(&l1.a, &q));
        a1.sort_rows();
        strength(&a1, 0.25, 0.8)
    }

    /// Runs `f` on each rank's rows of `s` under the partition `starts`.
    fn on_ranks<T: Send>(
        s: &Csr,
        starts: &[usize],
        f: impl Fn(&Comm, &ParCsr) -> T + Sync,
    ) -> Vec<T> {
        let (parts, _) = run_ranks(starts.len() - 1, |c| {
            let r = c.rank();
            let ps = ParCsr::from_global_rows(s, starts[r], starts[r + 1], starts.to_vec(), r);
            f(c, &ps)
        });
        parts
    }

    /// 1-5 ranks, evenly split, and three ranks with an empty middle one.
    fn partitions(n: usize) -> Vec<Vec<usize>> {
        let mut all: Vec<Vec<usize>> = (1..=5).map(|r| default_partition(n, r)).collect();
        all.push(vec![0, n / 2, n / 2, n]);
        all
    }

    fn joined<'a>(parts: impl Iterator<Item = &'a DistCoarsening>) -> Vec<bool> {
        parts.flat_map(|p| p.is_coarse.iter().copied()).collect()
    }

    /// The splitting is the serial one bitwise, plain and aggressive, on a
    /// symmetric pattern and on two directed ones, at every rank count and
    /// with an empty rank.
    #[test]
    fn dist_pmis_matches_serial_for_any_rank_count() {
        let directed = directed_pattern(700, 17);
        let level1 = level1_strength_27pt();
        for s in [&directed, &level1] {
            let one_way = (0..s.nrows()).any(|i| s.col_iter(i).any(|j| s.get(j, i).is_none()));
            assert!(one_way, "the pattern is directed");
        }
        let cases = [
            ("laplace2d", strength(&laplace2d(12, 12), 0.25, 0.8)),
            ("directed", directed),
            ("27pt level 1", level1),
        ];
        for (name, s) in &cases {
            let serial = pmis(s, 42);
            let (first, fin) = aggressive_pmis_stages(s, 42);
            for starts in partitions(s.nrows()) {
                let plain = on_ranks(s, &starts, |c, ps| dist_pmis(c, ps, 42));
                assert_eq!(joined(plain.iter()), serial.is_coarse, "{name}, {starts:?}");
                assert_eq!(plain[0].ncoarse_global, serial.ncoarse);
                let agg = on_ranks(s, &starts, |c, ps| dist_aggressive_pmis(c, ps, 42));
                assert_eq!(joined(agg.iter().map(|p| &p.0)), first.is_coarse, "{name}");
                assert_eq!(
                    joined(agg.iter().map(|p| &p.1)),
                    fin.is_coarse,
                    "{name}, {starts:?}"
                );
            }
        }
    }

    #[test]
    fn coarse_numbering_is_a_partition() {
        let s = strength(&laplace2d(10, 10), 0.25, 0.8);
        let parts = on_ranks(&s, &default_partition(100, 4), |c, ps| {
            let dc = dist_pmis(c, ps, 7);
            let idx: Vec<usize> = (0..ps.local_rows())
                .filter(|&i| dc.is_coarse[i])
                .map(|i| dc.coarse_index(i))
                .collect();
            (idx, dc.ncoarse_global)
        });
        let mut all: Vec<usize> = parts.iter().flat_map(|p| p.0.iter().copied()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..parts[0].1).collect::<Vec<_>>());
    }
}
