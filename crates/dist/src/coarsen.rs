//! Distributed PMIS coarsening and its aggressive second pass.
//!
//! The same round-based MIS as the shared-memory version, with neighbour
//! state/measure obtained through halo exchanges. Random weights are the
//! counter-based generator keyed on *global* point indices, so the C/F
//! splitting is identical for every rank count — which lets the tests
//! compare the distributed result bitwise against `famg_core::coarsen` on
//! symmetric strength patterns (the demotion round here looks at `S` rows
//! only, the shared-memory one at `S ∪ Sᵀ`; ROADMAP item 2(a)).

use crate::comm::Comm;
use crate::halo::{fetch_values, gather_rows, VectorExchange};
use crate::parcsr::{ExtSpace, ParCsr};
use crate::spgemm::dist_transpose;
use famg_core::interp::CfMap;
use famg_core::rng::uniform01;
use famg_sparse::{Col, Csr};

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

const UNDECIDED: f64 = 0.0;
const COARSE: f64 = 1.0;
const FINE: f64 = 2.0;

/// Distributed PMIS over a distributed strength matrix (square
/// partition). `active` masks the candidate set (used by the aggressive
/// second pass); inactive points are fine from the start. The random
/// weight of local point `i` is keyed on its global index `row_start + i`.
pub fn dist_pmis(comm: &Comm, s: &ParCsr, seed: u64, active: Option<&[bool]>) -> DistCoarsening {
    let nl = s.local_rows();
    let st = dist_transpose(comm, s);
    assert_eq!(st.local_rows(), nl, "PMIS needs a square partition");

    // Measures: |Sᵀ_i| + rand(global index).
    let measure: Vec<f64> = (0..nl)
        .map(|i| {
            st.diag.row_nnz(i) as f64
                + st.offd.row_nnz(i) as f64
                + uniform01(seed, (s.row_start + i) as u64)
        })
        .collect();
    let mut state: Vec<f64> = (0..nl)
        .map(|i| {
            let inactive = active.is_some_and(|a| !a[i]);
            if inactive || st.diag.row_nnz(i) + st.offd.row_nnz(i) == 0 {
                FINE
            } else {
                UNDECIDED
            }
        })
        .collect();

    // Halo plans over both neighbour directions.
    let plan_s = VectorExchange::plan(comm, &s.colmap, &s.col_starts);
    let plan_st = VectorExchange::plan(comm, &st.colmap, &st.col_starts);
    let measure_ext_s = plan_s.exchange(comm, &measure);
    let measure_ext_st = plan_st.exchange(comm, &measure);

    loop {
        let state_ext_s = plan_s.exchange(comm, &state);
        let state_ext_st = plan_st.exchange(comm, &state);
        // Selection round.
        let mut selected = Vec::new();
        for i in 0..nl {
            if state[i] != UNDECIDED {
                continue;
            }
            let m = measure[i];
            let win_local = |j: usize| state[j] != UNDECIDED || m > measure[j];
            let wins = s.diag.col_iter(i).all(&win_local)
                && st.diag.col_iter(i).all(win_local)
                && s.offd
                    .col_iter(i)
                    .all(|k| state_ext_s[k] != UNDECIDED || m > measure_ext_s[k])
                && st
                    .offd
                    .col_iter(i)
                    .all(|k| state_ext_st[k] != UNDECIDED || m > measure_ext_st[k]);
            if wins {
                selected.push(i);
            }
        }
        for &i in &selected {
            state[i] = COARSE;
        }
        // Demotion round: undecided points depending on a C-point.
        let state_ext_s = plan_s.exchange(comm, &state);
        for i in 0..nl {
            if state[i] != UNDECIDED {
                continue;
            }
            let dep_coarse = s.diag.col_iter(i).any(|j| state[j] == COARSE)
                || s.offd.col_iter(i).any(|k| state_ext_s[k] == COARSE);
            if dep_coarse {
                state[i] = FINE;
            }
        }
        let undecided = state.contains(&UNDECIDED);
        if !comm.allreduce_or(undecided, 0x61) {
            break;
        }
    }

    let is_coarse: Vec<bool> = state.iter().map(|&st| st == COARSE).collect();
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
    let first = dist_pmis(comm, s, seed, None);

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

    // S2 rows (compact coarse space) of the local C-points: the coarse
    // points within two strength edges, each once, ascending.
    let mut rowptr = Vec::with_capacity(first.ncoarse_local + 1);
    let mut colidx: Vec<Col> = Vec::new();
    let mut seen = vec![usize::MAX; coarse.ext2g.len()];
    rowptr.push(0);
    for i in space.own.clone().filter(|&i| cf.is_coarse[i]) {
        let me = cf.cmap[i];
        seen[me] = me;
        let row_start = colidx.len();
        let mut push = |p: usize| {
            if cf.is_coarse[p] && seen[cf.cmap[p]] != me {
                seen[cf.cmap[p]] = me;
                colidx.push(Col::new(cf.cmap[p]));
            }
        };
        for j in s_ext.col_iter(i) {
            push(j);
            s_ext.col_iter(j).for_each(&mut push);
        }
        colidx[row_start..].sort_unstable();
        rowptr.push(colidx.len());
    }
    let values = vec![1.0; colidx.len()];
    let s2_local = Csr::from_parts_unchecked(
        first.ncoarse_local,
        coarse.ext2g.len(),
        rowptr,
        colidx,
        values,
    );
    let coarse_starts = first.coarse_starts(comm);
    let s2 = ParCsr::from_local(
        &s2_local,
        &coarse,
        coarse_starts[rank],
        coarse_starts[rank + 1],
        first.ncoarse_global,
        coarse_starts,
    );
    let second = dist_pmis(comm, &s2, seed.wrapping_add(1), None);
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
    use famg_matgen::laplace2d;

    fn dist_strength_parts(
        a: &famg_sparse::Csr,
        thr: f64,
        mrs: f64,
        starts: &[usize],
        r: usize,
    ) -> ParCsr {
        // Strength is row-local: compute globally and slice (the dist
        // hierarchy computes it locally; this helper is for tests).
        let s = strength(a, thr, mrs);
        ParCsr::from_global_rows(&s, starts[r], starts[r + 1], starts.to_vec(), r)
    }

    #[test]
    fn dist_pmis_matches_serial_for_any_rank_count() {
        let a = laplace2d(12, 12);
        let s = strength(&a, 0.25, 0.8);
        let serial = pmis(&s, 42);
        for nranks in [1usize, 2, 3, 5] {
            let starts = default_partition(144, nranks);
            let (parts, _) = run_ranks(nranks, |c| {
                let ps = dist_strength_parts(&a, 0.25, 0.8, &starts, c.rank());
                dist_pmis(c, &ps, 42, None)
            });
            let mut combined = Vec::new();
            for p in &parts {
                combined.extend_from_slice(&p.is_coarse);
            }
            assert_eq!(combined, serial.is_coarse, "nranks {nranks}");
            assert_eq!(parts[0].ncoarse_global, serial.ncoarse);
        }
    }

    #[test]
    fn coarse_numbering_is_a_partition() {
        let a = laplace2d(10, 10);
        let starts = default_partition(100, 4);
        let (parts, _) = run_ranks(4, |c| {
            let ps = dist_strength_parts(&a, 0.25, 0.8, &starts, c.rank());
            let dc = dist_pmis(c, &ps, 7, None);
            let idx: Vec<usize> = (0..ps.local_rows())
                .filter(|&i| dc.is_coarse[i])
                .map(|i| dc.coarse_index(i))
                .collect();
            (dc.coarse_start, idx, dc.ncoarse_global)
        });
        let mut all: Vec<usize> = Vec::new();
        for (_, idx, _) in &parts {
            all.extend_from_slice(idx);
        }
        all.sort_unstable();
        let total = parts[0].2;
        assert_eq!(all, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn active_mask_restricts_candidates() {
        let a = laplace2d(8, 8);
        let starts = default_partition(64, 2);
        let (parts, _) = run_ranks(2, |c| {
            let ps = dist_strength_parts(&a, 0.25, 0.8, &starts, c.rank());
            // Only even global points may become coarse.
            let active: Vec<bool> = (starts[c.rank()]..starts[c.rank() + 1])
                .map(|g| g % 2 == 0)
                .collect();
            let dc = dist_pmis(c, &ps, 3, Some(&active));
            (active, dc.is_coarse)
        });
        for (active, is_coarse) in parts {
            for (a, c) in active.iter().zip(&is_coarse) {
                assert!(*a || !*c, "inactive point became coarse");
            }
        }
    }

    #[test]
    fn dist_aggressive_matches_serial() {
        let a = laplace2d(14, 14);
        let s = strength(&a, 0.25, 0.8);
        let (serial_first, serial_final) = aggressive_pmis_stages(&s, 11);
        let starts = default_partition(196, 3);
        let (parts, _) = run_ranks(3, |c| {
            let ps = dist_strength_parts(&a, 0.25, 0.8, &starts, c.rank());
            dist_aggressive_pmis(c, &ps, 11)
        });
        let mut first = Vec::new();
        let mut fin = Vec::new();
        for (f, g) in &parts {
            first.extend_from_slice(&f.is_coarse);
            fin.extend_from_slice(&g.is_coarse);
        }
        assert_eq!(first, serial_first.is_coarse);
        assert_eq!(fin, serial_final.is_coarse);
    }
}
