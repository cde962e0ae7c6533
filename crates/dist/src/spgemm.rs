//! Distributed SpGEMM (Fig. 3c) and distributed transpose.
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

use crate::comm::Comm;
use crate::halo::{gather_rows, owner_runs};
use crate::parcsr::{ExtSpace, ParCsr};
use crate::renumber::{renumber_par, renumber_seq};
use famg_sparse::spgemm::spgemm;
use famg_sparse::transpose::transpose_par;
use famg_sparse::{Col, Csr};

/// This rank's rows of `C = A · B` over the column space of `B`'s local
/// rows, columns ascending, with that space.
fn product(comm: &Comm, a: &ParCsr, b: &ParCsr, parallel_renumber: bool) -> (Csr, ExtSpace) {
    // "spgemm" spans inherit the enclosing phase's Fig. 5 bucket (RAP
    // during setup) in `PhaseTimes::from_span`.
    let _span = famg_prof::scope("spgemm");
    let rank = comm.rank();
    assert_eq!(
        a.col_starts,
        row_partition(b, comm, 0x50),
        "A's column partition must match B's row partition"
    );
    // Gather the remote B rows referenced by A's off-diagonal part.
    let halo = gather_rows(comm, &a.colmap, &a.col_starts, |li, _, emit| {
        b.visit_global_row(li, rank, emit);
    });
    // Renumber received columns into B's extended off-diagonal space.
    let own_cols = b.col_range(rank);
    let new = if parallel_renumber {
        renumber_par(&halo.cols, &b.colmap, own_cols)
    } else {
        renumber_seq(&halo.cols, &b.colmap, own_cols)
    };
    let mut cols = b.col_space(rank);
    cols.insert_sorted(&new);
    let inner = a.col_space(rank);
    let a_loc = a.merged(rank, &inner);
    let b_ext = b.extended(rank, &inner, &cols, Some(&halo));
    let mut c = spgemm(&a_loc, &b_ext);
    c.sort_rows();
    (c, cols)
}

/// Distributed sparse matrix–matrix product.
///
/// `parallel_renumber` selects the Fig. 4 parallel renumbering (the
/// optimized path) or the ordered-set sequential baseline.
pub fn dist_spgemm(comm: &Comm, a: &ParCsr, b: &ParCsr, parallel_renumber: bool) -> ParCsr {
    let (c, cols) = product(comm, a, b, parallel_renumber);
    ParCsr::from_local(
        &c,
        &cols,
        a.row_start,
        a.row_end,
        b.global_cols,
        b.col_starts.clone(),
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
    fn rap_via_dist_ops_matches_serial() {
        // A full distributed R·A·P against the serial fused kernel.
        let a = laplace2d(6, 6);
        // P: simple aggregation of 2 points per aggregate (36 -> 18).
        let p = Csr::from_triplets(36, 18, (0..36).map(|i| (i, i / 2, 1.0)).collect::<Vec<_>>());
        let r = transpose(&p);
        let c_ref = spgemm(&spgemm(&r, &a), &p);
        let starts = default_partition(36, 3);
        let cstarts = default_partition(18, 3);
        let (parts, _) = run_ranks(3, |c| {
            let rk = c.rank();
            let pa = split(&a, &starts, rk);
            // P distributed by fine rows with coarse column partition.
            let pp = ParCsr::from_global_rows(&p, starts[rk], starts[rk + 1], cstarts.clone(), rk);
            let pr = dist_transpose(c, &pp);
            let ra = dist_spgemm(c, &pr, &pa, true);
            dist_spgemm(c, &ra, &pp, true)
        });
        assert_parts_are_serial(&parts, c_ref, "R·A·P");
    }
}
