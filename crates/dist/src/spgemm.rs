//! Distributed SpGEMM (Fig. 3c), the fused Galerkin product and the
//! distributed transpose.
//!
//! `C = A · B` with `A`'s column partition matching `B`'s row partition:
//! each rank gathers the remote `B` rows its `A.colmap` references,
//! renumbers their column indices into an extended compressed space
//! (§4.2 — the sequential/parallel choice is the paper's headline
//! multi-node optimization), and then holds two ordinary matrices: its
//! rows of `A` over the local row space of `B` (owned rows plus gathered
//! ones), and those rows of `B` over the extended column space. The product
//! is [`famg_sparse::spgemm`] on the two. Both local spaces are numbered in
//! ascending global id ([`ExtSpace`]), so every entry of `C` sums its terms
//! in ascending global inner index — at any rank count the serial product's
//! bits.
//!
//! [`dist_rap`] is `R · A · P` as one such product with two gathers (the
//! `A` rows `R` names, the `P` rows they reach) and [`rap_row_fused`] as
//! the kernel: the two sorted products' result bit for bit, no `R·A` formed.

use crate::comm::Comm;
use crate::halo::{gather_rows, owner_runs};
use crate::parcsr::{ExtSpace, ParCsr};
use crate::renumber::{renumber_par, renumber_seq};
use famg_sparse::spgemm::spgemm;
use famg_sparse::transpose::transpose_par;
use famg_sparse::triple::rap_row_fused;
use famg_sparse::{Col, Csr};

/// `B`'s rows and the remote ones `needed` (sorted ids, owned as
/// `row_starts` says) as an extended CSR over `rows`, and its column space:
/// `B`'s own plus the gathered rows' new columns, renumbered by Fig. 4.
fn gather_extended(
    comm: &Comm,
    b: &ParCsr,
    rows: &ExtSpace,
    needed: &[usize],
    row_starts: &[usize],
    par: bool,
) -> (Csr, ExtSpace) {
    let rank = comm.rank();
    let halo = gather_rows(comm, needed, row_starts, |li, _, emit| {
        b.visit_global_row(li, rank, emit);
    });
    let own_cols = b.col_range(rank);
    let new = if par {
        renumber_par(&halo.cols, &b.colmap, own_cols)
    } else {
        renumber_seq(&halo.cols, &b.colmap, own_cols)
    };
    let mut cols = b.col_space(rank);
    cols.insert_sorted(&new);
    (b.extended(rank, rows, &cols, Some(&halo)), cols)
}

/// Distributed sparse matrix–matrix product.
///
/// `par` selects the Fig. 4 parallel renumbering (the optimized path) or
/// the ordered-set sequential baseline.
pub fn dist_spgemm(comm: &Comm, a: &ParCsr, b: &ParCsr, par: bool) -> ParCsr {
    // "spgemm" spans inherit the enclosing phase's Fig. 5 bucket (RAP
    // during setup) in `PhaseTimes::from_span`.
    let _span = famg_prof::scope("spgemm");
    let rank = comm.rank();
    assert_eq!(
        a.col_starts,
        row_partition(b, comm, 0x50),
        "A's column partition must match B's row partition"
    );
    let inner = a.col_space(rank);
    let (b_ext, cols) = gather_extended(comm, b, &inner, &a.colmap, &a.col_starts, par);
    let mut c = spgemm(&a.merged(rank, &inner), &b_ext);
    c.sort_rows();
    ParCsr::from_local(
        &c,
        &cols,
        a.row_start,
        a.row_end,
        b.global_cols,
        b.col_starts.clone(),
    )
}

/// Distributed Galerkin product `R · A · P` as one fused product: gather
/// the remote `A` rows `R` names and then the remote `P` rows those reach,
/// each once, and run [`rap_row_fused`] on `R`'s owned rows over the two
/// extended operands. `A` and `P` share a row partition, which `R`'s
/// column partition must match; `par` as in [`dist_spgemm`]. The result is
/// `dist_spgemm(dist_spgemm(R, A), P)` bit for bit, without forming `R·A`.
pub fn dist_rap(comm: &Comm, r: &ParCsr, a: &ParCsr, p: &ParCsr, par: bool) -> ParCsr {
    let _span = famg_prof::scope("spgemm");
    let rank = comm.rank();
    assert_eq!(
        r.col_starts,
        row_partition(a, comm, 0x50),
        "R's column partition must match A's row partition"
    );
    assert_eq!((p.row_start, p.row_end), (a.row_start, a.row_end));
    let inner = r.col_space(rank);
    let r_loc = r.merged(rank, &inner);
    let (a_ext, mid) = gather_extended(comm, a, &inner, &r.colmap, &r.col_starts, par);
    // The P rows R·A reaches off-rank: the halo columns of the gathered A
    // rows and of the owned boundary rows R names (an interior row has none).
    let mut named = vec![false; a.local_rows()];
    for &j in r.diag.colidx() {
        named[usize::from(j)] = true;
    }
    let own_rows = a.boundary_rows.iter().filter(|&&i| named[i]);
    let halo_rows = (0..inner.own.start).chain(inner.own.end..inner.ext2g.len());
    let mut reached = vec![false; mid.ext2g.len()];
    let rows = own_rows.map(|&i| inner.own.start + i).chain(halo_rows);
    rows.for_each(|j| a_ext.col_iter(j).for_each(|k| reached[k] = true));
    let halo = (0..mid.own.start).chain(mid.own.end..mid.ext2g.len());
    let needed: Vec<usize> = halo.filter(|&k| reached[k]).map(|k| mid.ext2g[k]).collect();
    let (p_ext, cols) = gather_extended(comm, p, &mid, &needed, &r.col_starts, par);
    ParCsr::from_local(
        &rap_row_fused(&r_loc, &a_ext, &p_ext),
        &cols,
        r.row_start,
        r.row_end,
        p.global_cols,
        p.col_starts.clone(),
    )
}

/// A matrix's global row partition, from each rank's range (tags `tag`
/// and `tag + 1`). Row partitions equal column partitions for the square
/// operators famg distributes; transfer operators carry the fine partition
/// in `row_start/row_end` only.
fn row_partition(m: &ParCsr, comm: &Comm, tag: u64) -> Vec<usize> {
    let mut starts = comm.allgather(m.row_start, tag, 8);
    starts.push(comm.allreduce_max(m.row_end as f64, tag + 1) as usize);
    starts
}

/// Off-rank entries of a transpose on the wire: target rows, source rows
/// and values, entry by entry (24 bytes each).
type Routed = (Vec<usize>, Vec<usize>, Vec<f64>);

/// Distributed transpose: `T = Aᵀ`, rows of `T` partitioned by `A`'s
/// column partition. The owned block is transposed in place of travel
/// (`T.diag = A.diagᵀ`); only the entries of `A.offd` are routed, to the
/// owner of their column.
pub fn dist_transpose(comm: &Comm, a: &ParCsr) -> ParCsr {
    let _span = famg_prof::scope("spgemm");
    let rank = comm.rank();
    // A's global row partition becomes T's column partition.
    let row_starts = row_partition(a, comm, 0x52);
    // `A.offdᵀ` lists, per halo column (ascending, so grouped by owner), the
    // local rows that reference it: one `(target row, source row, value)`
    // bundle per owner, sorted by target then source.
    let offd_t = transpose_par(&a.offd);
    let sends: Vec<(usize, Routed)> = owner_runs(&a.colmap, &a.col_starts)
        .into_iter()
        .map(|(owner, first, end)| {
            let span = offd_t.rowptr()[first]..offd_t.rowptr()[end];
            let targets = (first..end)
                .flat_map(|h| std::iter::repeat_n(a.colmap[h], offd_t.row_nnz(h)))
                .collect();
            let sources = (offd_t.colidx()[span.clone()].iter())
                .map(|&i| a.row_start + usize::from(i))
                .collect();
            (owner, (targets, sources, offd_t.values()[span].to_vec()))
        })
        .collect();
    let inbound = comm.alltoallv(sends, 0x54, |t| t.0.len() * 24);
    // The routed entries alone, as rows over the space of A's own rows and
    // the source rows that arrived. Inbound batches arrive sorted by source
    // rank, and sources own disjoint ascending row ranges, so appending them
    // in order keeps every row ascending.
    let (t0, t1) = a.col_range(rank);
    let cols = ExtSpace::with_received(
        (a.row_start, a.row_end),
        &[],
        inbound.iter().flat_map(|(_, b)| b.1.iter().copied()),
    );
    let mut rowptr = vec![0usize; t1 - t0 + 1];
    for (_, (targets, _, _)) in &inbound {
        for &g in targets {
            rowptr[g - t0 + 1] += 1;
        }
    }
    for i in 0..t1 - t0 {
        rowptr[i + 1] += rowptr[i];
    }
    let mut colidx = vec![Col::default(); rowptr[t1 - t0]];
    let mut values = vec![0.0f64; rowptr[t1 - t0]];
    let mut cursor = rowptr[..t1 - t0].to_vec();
    for (_, (targets, sources, vals)) in &inbound {
        for ((&g, &gi), &v) in targets.iter().zip(sources).zip(vals) {
            let at = &mut cursor[g - t0];
            colidx[*at] = cols.col(gi);
            values[*at] = v;
            *at += 1;
        }
    }
    let routed = Csr::from_parts_unchecked(t1 - t0, cols.ext2g.len(), rowptr, colidx, values);
    let mut t = ParCsr::from_local(
        &routed,
        &cols,
        t0,
        t1,
        *row_starts.last().unwrap(),
        row_starts,
    );
    // The owned block never travels: `T.diag = A.diagᵀ`.
    t.diag = transpose_par(&a.diag);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_ranks;
    use crate::parcsr::{assert_parts_are_serial, default_partition, to_global, ParCsr};
    use famg_matgen::laplace2d;
    use famg_sparse::spgemm::spgemm;
    use famg_sparse::transpose::transpose;
    use famg_sparse::Csr;

    fn split(a: &Csr, starts: &[usize], r: usize) -> ParCsr {
        ParCsr::from_global_rows(a, starts[r], starts[r + 1], starts.to_vec(), r)
    }

    /// `A` with its values made asymmetric and pairwise distinct.
    fn skewed(mut a: Csr) -> Csr {
        for (k, v) in a.values_mut().iter_mut().enumerate() {
            *v += 0.01 * (k % 7) as f64 + 1e-3 * (k % 11) as f64;
        }
        a
    }

    #[test]
    fn dist_spgemm_matches_serial() {
        let a = skewed(laplace2d(8, 8));
        let b = skewed(famg_matgen::laplace3d_7pt(4, 4, 4));
        for nranks in [1usize, 2, 3, 5] {
            for par in [false, true] {
                let starts = default_partition(64, nranks);
                let (parts, _) = run_ranks(nranks, |c| {
                    let pa = split(&a, &starts, c.rank());
                    let pb = split(&b, &starts, c.rank());
                    dist_spgemm(c, &pa, &pb, par)
                });
                assert_parts_are_serial(
                    &parts,
                    spgemm(&a, &b),
                    &format!("{nranks} ranks par {par}"),
                );
            }
        }
    }

    #[test]
    fn renumber_choice_identical_output() {
        let a = laplace2d(10, 6);
        let starts = default_partition(60, 3);
        let run = |par: bool| {
            let (parts, _) = run_ranks(3, |c| {
                let pa = split(&a, &starts, c.rank());
                let pb = split(&a, &starts, c.rank());
                dist_spgemm(c, &pa, &pb, par)
            });
            to_global(&parts)
        };
        let seq = run(false);
        let par = run(true);
        assert_eq!(seq.to_dense(), par.to_dense());
    }

    #[test]
    fn dist_transpose_matches_serial() {
        // Asymmetric, so the transpose is non-trivial.
        let a = skewed(laplace2d(7, 5));
        for mut starts in [1usize, 2, 3, 5].map(|p| default_partition(35, p)) {
            for _ in 0..2 {
                let (parts, _) = run_ranks(starts.len() - 1, |c| {
                    let pa = split(&a, &starts, c.rank());
                    dist_transpose(c, &pa)
                });
                assert_parts_are_serial(&parts, transpose(&a), &format!("{starts:?}"));
                // Again with an empty rank in the middle.
                starts.insert(1, starts[1]);
            }
        }
    }

    #[test]
    fn transpose_twice_roundtrips() {
        let a = laplace2d(6, 6);
        let starts = default_partition(36, 2);
        let (parts, _) = run_ranks(2, |c| {
            let pa = split(&a, &starts, c.rank());
            dist_transpose(c, &dist_transpose(c, &pa))
        });
        assert_eq!(to_global(&parts).to_dense(), a.to_dense());
    }

    #[test]
    fn dist_rap_is_two_dist_spgemms_bitwise() {
        let a = skewed(laplace2d(9, 8));
        // P: a smoothed aggregation of 3 points per aggregate (72 -> 24),
        // so rows reach coarse columns owned elsewhere.
        let p = skewed(Csr::from_triplets(
            72,
            24,
            (0..72).flat_map(|i| {
                let c = i / 3;
                [
                    (i, c, 1.0),
                    (i, (c + 1) % 24, 0.25),
                    (i, (c + 8) % 24, -0.125),
                ]
            }),
        ));
        let serial = rap_row_fused(&transpose(&p), &a, &p);
        for nranks in [1usize, 2, 3, 4] {
            let mut fine = default_partition(72, nranks);
            let mut coarse = default_partition(24, nranks);
            for _ in 0..2 {
                for par in [false, true] {
                    let (parts, _) = run_ranks(fine.len() - 1, |c| {
                        let rk = c.rank();
                        let pa = split(&a, &fine, rk);
                        let pp = ParCsr::from_global_rows(
                            &p,
                            fine[rk],
                            fine[rk + 1],
                            coarse.clone(),
                            rk,
                        );
                        let r = dist_transpose(c, &pp);
                        let fused = dist_rap(c, &r, &pa, &pp, par);
                        let ra = dist_spgemm(c, &r, &pa, par);
                        (fused, dist_spgemm(c, &ra, &pp, par))
                    });
                    let (fused, two): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
                    let what = format!("{fine:?} par {par}");
                    assert_parts_are_serial(&fused, to_global(&two), &what);
                    assert_parts_are_serial(&fused, serial.clone(), &what);
                }
                // Again with an empty rank in the middle.
                fine.insert(1, fine[1]);
                coarse.insert(1, coarse[1]);
            }
        }
    }
}
