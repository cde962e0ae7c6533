//! Distributed strength and interpolation construction (§4.3).
//!
//! Every builder here is *plan → gather → serial kernel → split*: exchange
//! the C/F state of the halo, gather the remote rows the scheme reads,
//! merge them with the rank's own rows into an extended local CSR
//! ([`ParCsr::extended`]), run the `famg_core` kernel on the owned row
//! range, and split its rows into `P`'s blocks ([`ParCsr::from_local`]).
//! No interpolation formula is evaluated in this crate. The local index
//! space ascends with the global id, so a kernel meets the entries of a row
//! — and numbers the coarse columns — in the undistributed order, and the
//! operator is the serial kernel's bit for bit at every rank count.
//!
//! | builder | exchanged | gathered |
//! |---|---|---|
//! | strength | — | — (row-local) |
//! | extended+i | C/F codes of `A.colmap`, then of the columns only gathered rows name | `S` rows of `S.colmap`, `A` rows of `A.colmap` |
//! | multipass | C/F codes of `A.colmap`; per pass the assigned flags of `S.colmap` | per pass, the `P` rows of newly assigned strong halo neighbours |
//! | two-stage extended+i | extended+i's, on `A` and then on `A1 = P1ᵀAP1`; the `offd` entries of `P1` for `P1ᵀ` | extended+i's on each stage; [`dist_rap`]'s `A` and `P1` rows for `A1`; [`dist_spgemm`]'s `P2` rows for `P1·P2` |
//!
//! Extended+i traverses neighbours-of-neighbours, so boundary rows must be
//! gathered from other ranks like a SpGEMM operand (Fig. 3c). The §4.3
//! optimization filters those rows before they hit the wire, down to what
//! the kernel's `CoarseView` reads of a row it does not own
//! ([`remote_entry_is_read`], defined beside it). Both the filtered and
//! full-row paths are provided so the >3× communication-volume reduction
//! the paper reports can be measured directly.

use crate::coarsen::DistCoarsening;
use crate::comm::Comm;
use crate::halo::{fetch_values, gather_rows, GatheredRows, VectorExchange};
use crate::parcsr::{ExtSpace, ParCsr};
use crate::spgemm::{dist_rap, dist_spgemm, dist_transpose};
use famg_core::interp::{
    extended_i_rows, remote_entry_is_read, truncate_matrix, CfMap, Multipass, TruncParams,
};
use famg_core::strength::strength_par;
use famg_sparse::Csr;

/// Local strength-of-connection over a distributed operator. Strength is
/// row-local, so no communication is needed; the result reuses `a`'s
/// layout conventions.
pub fn dist_strength(a: &ParCsr, threshold: f64, max_row_sum: f64, rank: usize) -> ParCsr {
    let space = a.col_space(rank);
    let a_ext = a.extended(rank, &space, &space, None);
    let s = strength_par(&a_ext, space.own.clone(), threshold, max_row_sum);
    ParCsr::from_local(
        &s,
        &space,
        a.row_start,
        a.row_end,
        a.global_cols,
        a.col_starts.clone(),
    )
}

/// What an interpolation kernel runs on: `A` and `S` as extended local
/// CSRs over one index space, and the C/F splitting over that space.
struct Extended {
    space: ExtSpace,
    a: Csr,
    s: Csr,
    cf: CfMap,
    /// The space of the coarse columns `cf` numbers.
    coarse: ExtSpace,
}

impl Extended {
    /// `halo_codes` are the C/F codes of `space`'s halo ids; `rows` the
    /// gathered `A` and `S` rows, if the scheme reads any.
    fn new(
        rank: usize,
        (a, s): (&ParCsr, &ParCsr),
        dc: &DistCoarsening,
        space: ExtSpace,
        halo_codes: &[f64],
        rows: Option<(&GatheredRows, &GatheredRows)>,
    ) -> Extended {
        let (cf, coarse) = dc.extended(&space, halo_codes);
        Extended {
            a: a.extended(rank, &space, &space, rows.map(|r| r.0)),
            s: s.extended(rank, &space, &space, rows.map(|r| r.1)),
            cf,
            coarse,
            space,
        }
    }

    /// The distance-1 form: `a`'s own column space, no gathered rows.
    fn distance1(
        comm: &Comm,
        a: &ParCsr,
        plan_a: &VectorExchange,
        s: &ParCsr,
        dc: &DistCoarsening,
    ) -> Extended {
        let halo_codes = plan_a.exchange(comm, &dc.codes());
        let space = a.col_space(comm.rank());
        Extended::new(comm.rank(), (a, s), dc, space, &halo_codes, None)
    }
}

/// Splits the rows a kernel emitted over the coarse space `coarse` into
/// `P`'s blocks (kernels emit a row in discovery order; the blocks keep
/// columns ascending).
fn split_p(comm: &Comm, a: &ParCsr, dc: &DistCoarsening, mut p: Csr, coarse: &ExtSpace) -> ParCsr {
    p.sort_rows();
    ParCsr::from_local(
        &p,
        coarse,
        a.row_start,
        a.row_end,
        dc.ncoarse_global,
        dc.coarse_starts(comm),
    )
}

/// Distributed extended+i interpolation (Eq. 1). `plan_a` is the
/// persistent halo plan for `a`'s colmap, reused for the C/F code
/// exchange.
///
/// `filter_remote` enables the §4.3 wire filter on gathered rows.
pub fn dist_extended_i(
    comm: &Comm,
    a: &ParCsr,
    plan_a: &VectorExchange,
    s: &ParCsr,
    cf: &DistCoarsening,
    trunc: Option<&TruncParams>,
    filter_remote: bool,
) -> ParCsr {
    let rank = comm.rank();
    let codes = cf.codes();
    // C/F codes for the distance-1 halo; `S.colmap` is a subset of it.
    let code_a = plan_a.exchange(comm, &codes);
    let near = a.col_space(rank);
    let (below, above) = code_a.split_at(near.own.start);
    let near_codes = [below, &codes[..], above].concat();
    let is_coarse = |g: usize| near_codes[near.local(g)] >= 0.0;

    // Gather remote S rows. They are only ever read to find the *coarse*
    // strong neighbours of boundary fine points (the view's `strong`
    // segment), so the filter strips their fine columns owner-side.
    let gathered_s = gather_rows(comm, &s.colmap, &s.col_starts, |li, _, emit| {
        s.visit_global_row(li, rank, |g, v| {
            if !filter_remote || is_coarse(g) {
                emit(g, v);
            }
        });
    });
    // Gather remote A rows, filtered down to what the kernel reads of them.
    // A row with no stored diagonal has `a_kk = 0`: no entry opposes it,
    // every `b_ik` through it lumps (the serial convention), and nothing of
    // it needs to travel.
    let gathered_a = gather_rows(comm, &a.colmap, &a.col_starts, |li, requester, emit| {
        let akk = a.diag.diag(li);
        let theirs = a.col_starts[requester]..a.col_starts[requester + 1];
        a.visit_global_row(li, rank, |g, v| {
            let is_diag = g == a.row_start + li;
            if !filter_remote
                || remote_entry_is_read(akk, v, is_diag, is_coarse(g), theirs.contains(&g))
            {
                emit(g, v);
            }
        });
    });

    // The distance-2 index space, and codes for the points seen only
    // through gathered rows.
    let received = gathered_s.cols.iter().chain(&gathered_a.cols).copied();
    let space = ExtSpace::with_received(a.col_range(rank), &a.colmap, received);
    let mut near_k = 0usize;
    let is_near: Vec<bool> = (space.halo())
        .map(|g| {
            let near = a.colmap.get(near_k) == Some(&g);
            near_k += usize::from(near);
            near
        })
        .collect();
    let far: Vec<usize> = (space.halo().zip(&is_near))
        .filter(|&(_, &near)| !near)
        .map(|(g, _)| g)
        .collect();
    let far_codes = fetch_values(comm, &far, &a.col_starts, |li| codes[li]);
    let (mut near_it, mut far_it) = (code_a.iter(), far_codes.iter());
    let halo_codes: Vec<f64> = (is_near.iter())
        .map(|&near| *if near { near_it.next() } else { far_it.next() }.expect("one code per id"))
        .collect();

    let rows = Some((&gathered_a, &gathered_s));
    let x = Extended::new(rank, (a, s), cf, space, &halo_codes, rows);
    let p = extended_i_rows(&x.a, &x.s, &x.cf, x.space.own.clone(), trunc);
    split_p(comm, a, cf, p, &x.coarse)
}

/// Distributed multipass interpolation: direct interpolation where
/// possible, then passes composing the already-assigned neighbours'
/// rows, gathering remote `P` rows for boundary neighbours each pass.
/// `plan_a` is the persistent halo plan for `a`'s colmap.
///
/// The loop ends on a collective decision only — every rank takes part in
/// every exchange of every pass, whatever its own row count.
pub fn dist_multipass(
    comm: &Comm,
    a: &ParCsr,
    plan_a: &VectorExchange,
    s: &ParCsr,
    cf: &DistCoarsening,
    trunc: Option<&TruncParams>,
) -> ParCsr {
    let x = Extended::distance1(comm, a, plan_a, s, cf);
    let own = x.space.own.clone();
    let mut coarse = x.coarse.clone();
    // Passes 0 and 1 (identity and direct rows) happen here.
    let mut sweep = Multipass::new(&x.a, &x.s, &x.cf, own.clone());

    let plan_s = VectorExchange::plan(comm, &s.colmap, &s.col_starts);
    let s_halo = s
        .colmap
        .iter()
        .map(|&g| x.space.local(g))
        .collect::<Vec<_>>();
    let mut halo_done = vec![false; x.space.ext2g.len()];
    let mut last_flags: Vec<f64> = Vec::new();
    let mut assigned_any = true;
    let (mut lcols, mut wanted) = (Vec::new(), Vec::new());
    loop {
        // Exchange done flags over the strength halo.
        let done_local: Vec<f64> = (own.clone())
            .map(|i| f64::from(u8::from(sweep.row(i).is_some())))
            .collect();
        let flags = plan_s.exchange(comm, &done_local);
        for (&e, &f) in s_halo.iter().zip(&flags) {
            halo_done[e] = f > 0.5;
        }
        // Which halo P rows does this pass read? Those of the assigned
        // strong neighbours of the rows it will compose, not yet installed.
        let mut todo = false;
        wanted.clear();
        for i in own.clone().filter(|&i| sweep.row(i).is_none()) {
            let strong = x.s.col_iter(i);
            if strong
                .clone()
                .any(|j| halo_done[j] || sweep.row(j).is_some())
            {
                todo = true;
                wanted.extend(strong.filter(|&j| halo_done[j] && sweep.row(j).is_none()));
            }
        }
        wanted.sort_unstable();
        wanted.dedup();
        // A pass can assign a row only where an assigned flag appeared since
        // the last one; without any, on any rank, the sweep is over.
        let fresh = assigned_any || flags != last_flags;
        if !comm.allreduce_or(todo && fresh, 0x70) {
            break;
        }
        last_flags = flags;
        // Every rank participates in the gather (collective), even when
        // it personally needs nothing this pass.
        let needed: Vec<usize> = wanted.iter().map(|&e| x.space.ext2g[e]).collect();
        let rows = gather_rows(comm, &needed, &a.col_starts, |li, _, emit| {
            if let Some((pc, pv)) = sweep.row(own.start + li) {
                for (&c, &w) in pc.iter().zip(pv) {
                    emit(coarse.ext2g[c], w);
                }
            }
        });
        // Rows from afar can name coarse points no local point neighbours:
        // grow the coarse space, keeping it ascending.
        let mut unknown: Vec<usize> = (rows.cols.iter().copied())
            .filter(|g| coarse.ext2g.binary_search(g).is_err())
            .collect();
        unknown.sort_unstable();
        unknown.dedup();
        if !unknown.is_empty() {
            let map = coarse.insert_sorted(&unknown);
            sweep.relabel_cols(&map, coarse.ext2g.len());
        }
        for (k, &e) in wanted.iter().enumerate() {
            let (pc, pv) = rows.row(k);
            lcols.clear();
            lcols.extend(pc.iter().map(|&g| coarse.local(g)));
            sweep.set_row(e, &lcols, pv);
        }
        assigned_any = sweep.pass();
    }
    split_p(comm, a, cf, sweep.into_operator(trunc), &coarse)
}

/// Distributed two-stage extended+i: extended+i to the stage-1 C-points,
/// Galerkin stage-1 operator by [`dist_rap`], extended+i among the
/// stage-1 C-points, product, truncation at every stage. `plan_a` covers
/// `a`'s colmap; the stage-1 operator gets its own plan here. `P1` leaves
/// `split_p` and the product [`dist_spgemm`] with sorted rows, the order
/// the serial `two_stage_extended_i` sums and truncates in.
#[allow(clippy::too_many_arguments)]
pub fn dist_two_stage_extended_i(
    comm: &Comm,
    a: &ParCsr,
    plan_a: &VectorExchange,
    s: &ParCsr,
    stage1: &DistCoarsening,
    final_c: &DistCoarsening,
    strength_threshold: f64,
    max_row_sum: f64,
    trunc: Option<&TruncParams>,
    filter_remote: bool,
) -> ParCsr {
    let rank = comm.rank();
    let p1 = dist_extended_i(comm, a, plan_a, s, stage1, trunc, filter_remote);
    let a1 = dist_rap(comm, &dist_transpose(comm, &p1), a, &p1, true);
    let s1 = dist_strength(&a1, strength_threshold, max_row_sum, rank);
    // Final C-points within the stage-1 coarse space.
    let marker: Vec<bool> = (0..a.local_rows())
        .filter(|&i| stage1.is_coarse[i])
        .map(|i| final_c.is_coarse[i])
        .collect();
    let cf2 = DistCoarsening::from_marker(comm, marker, 0x71);
    let plan_a1 = VectorExchange::plan(comm, &a1.colmap, &a1.col_starts);
    let p2 = dist_extended_i(comm, &a1, &plan_a1, &s1, &cf2, trunc, filter_remote);
    // Truncate the product's rows (a final C-point's is `[1.0]`, which
    // truncation leaves alone).
    let p = dist_spgemm(comm, &p1, &p2, true);
    let Some(t) = trunc else { return p };
    let cols = p.col_space(rank);
    let truncated = truncate_matrix(&p.merged(rank, &cols), t);
    let (rows, partition) = ((p.row_start, p.row_end), p.col_starts.clone());
    ParCsr::from_local(&truncated, &cols, rows.0, rows.1, p.global_cols, partition)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::{dist_aggressive_pmis, dist_pmis};
    use crate::comm::run_ranks;
    use crate::parcsr::{assert_parts_are_serial, default_partition, to_global};
    use famg_core::coarsen::{aggressive_pmis_stages, pmis};
    use famg_core::interp::{extended_i, multipass, two_stage_extended_i, CfMap};
    use famg_core::strength::strength;
    use famg_matgen::{amg2013_like, laplace2d, reservoir_field, varcoef3d_7pt};
    use famg_sparse::transpose::transpose_par;
    use famg_sparse::triple::rap_row_fused;

    fn split(a: &Csr, starts: &[usize], r: usize) -> ParCsr {
        ParCsr::from_global_rows(a, starts[r], starts[r + 1], starts.to_vec(), r)
    }

    /// `laplace2d(12, 12)` with every fifth row's diagonal not stored:
    /// `a_kk = 0` there, so every b_ik through such a row lumps, on every
    /// rank and on both sides of the §4.3 wire filter.
    fn holes() -> Csr {
        let full = laplace2d(12, 12);
        Csr::from_triplets(
            144,
            144,
            (0..144)
                .flat_map(|i| full.row_iter(i).map(move |(c, v)| (i, c, v)))
                .filter(|&(i, c, _)| i != c || i % 5 != 2)
                .collect::<Vec<_>>(),
        )
    }

    fn operators() -> Vec<(&'static str, Csr)> {
        let k = reservoir_field(6, 6, 4, 3, 2.0, 2, 7);
        vec![
            ("laplace2d", laplace2d(12, 12)),
            ("holes", holes()),
            ("varcoef3d_7pt", varcoef3d_7pt(6, 6, 4, &k)),
            ("amg2013_like", amg2013_like(6, 6, 5, 2, 2.0, 3)),
        ]
    }

    /// Even partitions over 1, 2, 3 and 5 ranks, and one whose middle rank
    /// owns no row.
    fn partitions(n: usize) -> Vec<Vec<usize>> {
        let mut out: Vec<Vec<usize>> = [1usize, 2, 3, 5]
            .iter()
            .map(|&p| default_partition(n, p))
            .collect();
        out.push(vec![0, n / 3, n / 3, n]);
        out
    }

    fn truncations() -> [Option<TruncParams>; 2] {
        [None, Some(TruncParams::paper())]
    }

    #[test]
    fn dist_strength_matches_serial() {
        for (name, a) in operators() {
            let s_ref = strength(&a, 0.25, 0.8);
            for starts in partitions(a.nrows()) {
                let (parts, _) = run_ranks(starts.len() - 1, |c| {
                    dist_strength(&split(&a, &starts, c.rank()), 0.25, 0.8, c.rank())
                });
                assert_parts_are_serial(&parts, s_ref.clone(), &format!("{name} {starts:?}"));
            }
        }
    }

    /// Serial = ranks: each scheme's `P` on the ranks is the serial
    /// builder's, pattern and value bits, on every operator and partition
    /// (an empty rank included), with and without truncation and, where the
    /// scheme takes it, the wire filter. Extended+i (`ei`) runs on PMIS,
    /// multipass (`mp`) and two-stage extended+i (`2s`) on aggressive PMIS.
    #[test]
    fn every_scheme_on_ranks_is_the_serial_operator() {
        let (th, rs) = (0.25, 0.8);
        for scheme in ["ei", "mp", "2s"] {
            let filters: &[bool] = if scheme == "mp" {
                &[false]
            } else {
                &[false, true]
            };
            for (name, a) in operators() {
                let s = strength(&a, th, rs);
                let (first, c) = if scheme == "ei" {
                    (None, pmis(&s, 9))
                } else {
                    let (first, fin) = aggressive_pmis_stages(&s, 3);
                    (Some(first), fin)
                };
                let cf = CfMap::new(c.is_coarse.clone());
                let fine = |p: usize| !c.is_coarse[p];
                if (scheme, name) == ("ei", "holes") {
                    let through_hole =
                        (0..144).any(|i| fine(i) && s.col_iter(i).any(|k| fine(k) && k % 5 == 2));
                    assert!(through_hole, "no fine row distributes through a hole");
                }
                for trunc in truncations() {
                    let t = trunc.as_ref();
                    let p_ref = match scheme {
                        "ei" => extended_i(&a, &s, &cf, t),
                        "mp" => multipass(&a, &s, &cf, t),
                        _ => {
                            let first = first.as_ref().expect("stage-1 splitting");
                            two_stage_extended_i(&a, &s, first, &c, th, rs, t)
                        }
                    };
                    assert_eq!(p_ref.ncols(), c.ncoarse, "{scheme} {name}");
                    // Two-stage rows: a final C-point's is its unit row,
                    // and the paper truncation keeps at most 4 weights.
                    for i in (0..a.nrows()).filter(|_| scheme == "2s") {
                        let w = p_ref.row_vals(i);
                        let ok = if fine(i) {
                            t.is_none() || w.len() <= 4
                        } else {
                            p_ref.col_iter(i).eq([cf.cmap[i]]) && w == [1.0]
                        };
                        assert!(ok, "{name}: two-stage row {i} is {w:?}");
                    }
                    for starts in partitions(a.nrows()) {
                        for &filter in filters {
                            let (parts, _) = run_ranks(starts.len() - 1, |c| {
                                let pa = split(&a, &starts, c.rank());
                                let ps = dist_strength(&pa, th, rs, c.rank());
                                let plan = VectorExchange::plan(c, &pa.colmap, &pa.col_starts);
                                match scheme {
                                    "ei" => {
                                        let dc = dist_pmis(c, &ps, 9);
                                        dist_extended_i(c, &pa, &plan, &ps, &dc, t, filter)
                                    }
                                    "mp" => {
                                        let (_, fin) = dist_aggressive_pmis(c, &ps, 3);
                                        dist_multipass(c, &pa, &plan, &ps, &fin, t)
                                    }
                                    _ => {
                                        let (first, fin) = dist_aggressive_pmis(c, &ps, 3);
                                        dist_two_stage_extended_i(
                                            c, &pa, &plan, &ps, &first, &fin, th, rs, t, filter,
                                        )
                                    }
                                }
                            });
                            let what = format!(
                                "{scheme} {name} {starts:?} trunc {} filter {filter}",
                                t.is_some()
                            );
                            assert_parts_are_serial(&parts, p_ref.clone(), &what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn filtered_gather_same_operator_fewer_bytes() {
        let a = laplace2d(16, 16);
        let starts = default_partition(256, 4);
        let run = |filter: bool| {
            let (parts, report) = run_ranks(4, |c| {
                let pa = split(&a, &starts, c.rank());
                let ps = dist_strength(&pa, 0.25, 0.8, c.rank());
                let dc = dist_pmis(c, &ps, 13);
                let plan = VectorExchange::plan(c, &pa.colmap, &pa.col_starts);
                dist_extended_i(c, &pa, &plan, &ps, &dc, None, filter)
            });
            (parts, report.total_bytes())
        };
        let (p_full, bytes_full) = run(false);
        let (p_filt, bytes_filt) = run(true);
        assert_parts_are_serial(&p_filt, to_global(&p_full), "filter changed the operator");
        assert!(
            bytes_filt < bytes_full,
            "filter did not reduce traffic: {bytes_filt} vs {bytes_full}"
        );
    }

    /// The serial `2s_ei444` stage-1 operator (`rap_row_fused` over
    /// `P1ᵀ`, `A`, `P1`) is the distributed one bit for bit.
    #[test]
    fn dist_stage1_operator_matches_serial() {
        let t = TruncParams::paper();
        for (name, a) in operators() {
            let s = strength(&a, 0.25, 0.8);
            let (first, _) = aggressive_pmis_stages(&s, 3);
            let p1 = extended_i(&a, &s, &CfMap::new(first.is_coarse.clone()), Some(&t));
            let a1_ref = rap_row_fused(&transpose_par(&p1), &a, &p1);
            for starts in partitions(a.nrows()) {
                let (parts, _) = run_ranks(starts.len() - 1, |c| {
                    let pa = split(&a, &starts, c.rank());
                    let ps = dist_strength(&pa, 0.25, 0.8, c.rank());
                    let (first, _) = dist_aggressive_pmis(c, &ps, 3);
                    let plan = VectorExchange::plan(c, &pa.colmap, &pa.col_starts);
                    let p1 = dist_extended_i(c, &pa, &plan, &ps, &first, Some(&t), true);
                    dist_rap(c, &dist_transpose(c, &p1), &pa, &p1, true)
                });
                assert_parts_are_serial(&parts, a1_ref.clone(), &format!("{name} {starts:?}"));
            }
        }
    }
}
