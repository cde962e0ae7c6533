//! Distributed interpolation construction (§4.3).
//!
//! Extended+i traverses neighbours-of-neighbours, so boundary rows must be
//! gathered from other ranks like a SpGEMM operand (Fig. 3c). The §4.3
//! optimization filters those rows before they hit the wire: for a remote
//! row `k`, interpolation only ever reads the diagonal `a_kk`, entries
//! whose sign opposes the diagonal, and of those only columns that are
//! coarse or owned by the requester. Both the filtered and full-row paths
//! are provided so the >3× communication-volume reduction the paper
//! reports can be measured directly.

use crate::coarsen::DistCoarsening;
use crate::comm::Comm;
use crate::halo::{fetch_values, gather_rows, VectorExchange};
use crate::parcsr::ParCsr;
use famg_core::interp::{truncate_row, TruncParams};
use std::collections::{HashMap, HashSet};

/// Local strength-of-connection over a distributed operator. Strength is
/// row-local, so no communication is needed; the result reuses `a`'s
/// layout conventions.
pub fn dist_strength(a: &ParCsr, threshold: f64, max_row_sum: f64, rank: usize) -> ParCsr {
    let nl = a.local_rows();
    let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(nl);
    for i in 0..nl {
        let gi = a.row_start + i;
        let full = a.global_row(i, rank);
        let mut max_off = 0.0f64;
        let mut row_sum = 0.0f64;
        let mut diag = 0.0f64;
        for &(c, v) in &full {
            row_sum += v;
            if c == gi {
                diag = v;
            } else {
                max_off = max_off.max(-v);
            }
        }
        let keep = max_off > 0.0 && !(diag != 0.0 && (row_sum / diag).abs() > max_row_sum);
        let cut = threshold * max_off;
        rows.push(if keep {
            full.into_iter()
                .filter(|&(c, v)| c != gi && -v >= cut)
                .collect()
        } else {
            Vec::new()
        });
    }
    ParCsr::from_local_rows_global_cols(
        a.row_start,
        a.row_end,
        a.global_cols,
        a.col_starts.clone(),
        rank,
        &rows,
    )
}

/// C/F + coarse-index code: fine → -1, coarse → global coarse index.
fn cf_code(dc: &DistCoarsening, li: usize) -> f64 {
    if dc.is_coarse[li] {
        dc.coarse_index(li) as f64
    } else {
        -1.0
    }
}

/// Codes for a rank's halo (parallel to `colmap`), planning ad hoc.
fn halo_codes(comm: &Comm, colmap: &[usize], starts: &[usize], dc: &DistCoarsening) -> Vec<f64> {
    let codes: Vec<f64> = (0..dc.is_coarse.len()).map(|i| cf_code(dc, i)).collect();
    VectorExchange::plan(comm, colmap, starts).exchange(comm, &codes)
}

/// Codes for a rank's halo through a pre-built exchange plan (saves the
/// neighbor-discovery + request round that `halo_codes` pays).
fn planned_codes(comm: &Comm, plan: &VectorExchange, dc: &DistCoarsening) -> Vec<f64> {
    let codes: Vec<f64> = (0..dc.is_coarse.len()).map(|i| cf_code(dc, i)).collect();
    plan.exchange(comm, &codes)
}

/// Distributed direct (distance-1) interpolation. Returns `P` with this
/// rank's point rows and the coarse column partition. `plan_a` is the
/// persistent halo plan for `a`'s colmap (the level plan the hierarchy
/// already owns), reused here for the C/F code exchange.
pub fn dist_direct(
    comm: &Comm,
    a: &ParCsr,
    plan_a: &VectorExchange,
    s: &ParCsr,
    cf: &DistCoarsening,
    trunc: Option<&TruncParams>,
) -> ParCsr {
    let rank = comm.rank();
    let nl = a.local_rows();
    let code_a = planned_codes(comm, plan_a, cf);
    let code_of = |g: usize| -> f64 {
        if g >= a.row_start && g < a.row_end {
            cf_code(cf, g - a.row_start)
        } else {
            code_a[a.colmap.binary_search(&g).unwrap()]
        }
    };
    let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(nl);
    for i in 0..nl {
        if cf.is_coarse[i] {
            rows.push(vec![(cf.coarse_index(i), 1.0)]);
            continue;
        }
        let gi = a.row_start + i;
        let strong: HashSet<usize> = s.global_row(i, rank).into_iter().map(|(c, _)| c).collect();
        let (mut sn, mut sp, mut cn, mut cp) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let mut diag = 0.0f64;
        let full = a.global_row(i, rank);
        for &(k, v) in &full {
            if k == gi {
                diag = v;
                continue;
            }
            if v < 0.0 {
                sn += v;
            } else {
                sp += v;
            }
            if strong.contains(&k) && code_of(k) >= 0.0 {
                if v < 0.0 {
                    cn += v;
                } else {
                    cp += v;
                }
            }
        }
        if cn == 0.0 && cp == 0.0 {
            rows.push(Vec::new());
            continue;
        }
        let alpha = if cn != 0.0 { sn / cn } else { 0.0 };
        let beta = if cp != 0.0 { sp / cp } else { 0.0 };
        let dd = if cp == 0.0 { diag + sp } else { diag };
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for &(k, v) in &full {
            if k == gi || !strong.contains(&k) {
                continue;
            }
            let code = code_of(k);
            if code < 0.0 {
                continue;
            }
            let scale = if v < 0.0 { alpha } else { beta };
            if scale != 0.0 {
                cols.push(code as usize);
                vals.push(-scale * v / dd);
            }
        }
        if let Some(t) = trunc {
            truncate_row(&mut cols, &mut vals, t);
        }
        rows.push(cols.into_iter().zip(vals).collect());
    }
    build_p(comm, a, cf, rows, rank)
}

fn build_p(
    comm: &Comm,
    a: &ParCsr,
    cf: &DistCoarsening,
    mut rows: Vec<Vec<(usize, f64)>>,
    rank: usize,
) -> ParCsr {
    for r in &mut rows {
        r.sort_unstable_by_key(|&(c, _)| c);
    }
    ParCsr::from_local_rows_global_cols(
        a.row_start,
        a.row_end,
        cf.ncoarse_global,
        cf.coarse_starts(comm),
        rank,
        &rows,
    )
}

/// Distributed extended+i interpolation (Eq. 1). `plan_a` is the
/// persistent halo plan for `a`'s colmap, reused for the C/F code
/// exchange.
///
/// `filter_remote` enables the §4.3 wire filter on gathered `A` rows.
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
    let nl = a.local_rows();
    let gi0 = a.row_start;

    // C/F codes for the distance-1 halo.
    let code_a = planned_codes(comm, plan_a, cf);

    // Gather remote S rows. They are only ever read to find the *coarse*
    // strong neighbours of boundary fine points (the Ĉ_i extension), so
    // the §4.3 filter strips their fine columns owner-side.
    let cf_for_s: Vec<f64> = (0..nl).map(|i| cf_code(cf, i)).collect();
    let s_colmap_codes = halo_codes(comm, &s.colmap, &s.col_starts, cf);
    let s_col_coarse = {
        let s_colmap = s.colmap.clone();
        let row_lo = s.row_start;
        let row_hi = s.row_end;
        move |g: usize| -> bool {
            if g >= row_lo && g < row_hi {
                cf_for_s[g - row_lo] >= 0.0
            } else {
                s_colmap
                    .binary_search(&g)
                    .is_ok_and(|k| s_colmap_codes[k] >= 0.0)
            }
        }
    };
    let gathered_s = gather_rows(
        comm,
        &s.colmap,
        &s.col_starts,
        |li| s.global_row(li, rank),
        |_, g, _, _| !filter_remote || s_col_coarse(g),
    );

    // Gather remote A rows, optionally filtered (§4.3). The owner-side
    // filter keeps the diagonal, and otherwise only entries opposing the
    // diagonal sign whose column is coarse or owned by the requester.
    // A row with no stored diagonal has `a_kk = 0`: no entry opposes it,
    // every `b_ik` through it lumps (the serial convention), and nothing of
    // it needs to travel.
    let diag_sign: Vec<f64> = (0..nl)
        .map(|i| {
            let gi = gi0 + i;
            a.global_row(i, rank)
                .iter()
                .find(|&&(c, _)| c == gi)
                .map_or(0.0, |&(_, v)| v)
        })
        .collect();
    let col_starts = a.col_starts.clone();
    let code_a_for_filter = code_a.clone();
    let colmap_for_filter = a.colmap.clone();
    let cf_local: Vec<f64> = (0..nl).map(|i| cf_code(cf, i)).collect();
    let is_coarse_known = move |g: usize| -> bool {
        if g >= gi0 && g < gi0 + nl {
            cf_local[g - gi0] >= 0.0
        } else {
            colmap_for_filter
                .binary_search(&g)
                .is_ok_and(|k| code_a_for_filter[k] >= 0.0)
        }
    };
    let gathered_a = gather_rows(
        comm,
        &a.colmap,
        &a.col_starts,
        |li| a.global_row(li, rank),
        |li, g, v, requester| {
            if !filter_remote {
                return true;
            }
            let gk = gi0 + li;
            if g == gk {
                return true; // diagonal: needed for the sign test
            }
            if v * diag_sign[li] >= 0.0 {
                return false; // same sign as diagonal: ā_kl = 0
            }
            // Keep coarse columns and the requester's own points
            // (the `l = i` terms of b_ik).
            is_coarse_known(g) || (g >= col_starts[requester] && g < col_starts[requester + 1])
        },
    );

    // Codes for points seen only through gathered rows (extended halo).
    let mut extra: Vec<usize> = gathered_s
        .data
        .iter()
        .chain(gathered_a.data.iter())
        .flat_map(|r| r.iter().map(|&(c, _)| c))
        .filter(|&g| (g < gi0 || g >= a.row_end) && a.colmap.binary_search(&g).is_err())
        .collect();
    extra.sort_unstable();
    extra.dedup();
    let extra_codes = fetch_values(comm, &extra, &a.col_starts, |li| cf_code(cf, li));
    let code_of = move |g: usize| -> f64 {
        if g >= gi0 && g < gi0 + nl {
            cf_code(cf, g - gi0)
        } else if let Ok(k) = a.colmap.binary_search(&g) {
            code_a[k]
        } else {
            extra_codes[extra.binary_search(&g).unwrap()]
        }
    };
    // Row access: local rows live in `a`, remote rows in `gathered_a`.
    let row_of = |g: usize| -> Vec<(usize, f64)> {
        if g >= gi0 && g < a.row_end {
            a.global_row(g - gi0, rank)
        } else {
            gathered_a
                .get(g)
                .map(<[(usize, f64)]>::to_vec)
                .unwrap_or_default()
        }
    };
    let srow_of = |g: usize| -> Vec<usize> {
        if g >= gi0 && g < a.row_end {
            s.global_row(g - gi0, rank)
                .into_iter()
                .map(|(c, _)| c)
                .collect()
        } else {
            gathered_s
                .get(g)
                .map(|r| r.iter().map(|&(c, _)| c).collect())
                .unwrap_or_default()
        }
    };

    let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(nl);
    for i in 0..nl {
        if cf.is_coarse[i] {
            rows.push(vec![(cf.coarse_index(i), 1.0)]);
            continue;
        }
        let gi = gi0 + i;
        // Sorted strong list for deterministic accumulation order, plus a
        // set for O(1) membership tests.
        let strong_vec: Vec<usize> = s.global_row(i, rank).into_iter().map(|(c, _)| c).collect();
        let strong: HashSet<usize> = strong_vec.iter().copied().collect();
        // Ĉ_i over global point ids, with coarse column indices.
        let mut chat_pos: HashMap<usize, usize> = HashMap::new();
        let mut chat_col: Vec<usize> = Vec::new();
        let mut num: Vec<f64> = Vec::new();
        for &j in &strong_vec {
            let cj = code_of(j);
            if cj >= 0.0 {
                chat_pos.entry(j).or_insert_with(|| {
                    chat_col.push(cj as usize);
                    num.push(0.0);
                    chat_col.len() - 1
                });
            } else {
                for k in srow_of(j) {
                    let ck = code_of(k);
                    if ck >= 0.0 {
                        chat_pos.entry(k).or_insert_with(|| {
                            chat_col.push(ck as usize);
                            num.push(0.0);
                            chat_col.len() - 1
                        });
                    }
                }
            }
        }
        if chat_col.is_empty() {
            rows.push(Vec::new());
            continue;
        }
        let full = a.global_row(i, rank);
        let mut atilde = 0.0f64;
        for &(j, v) in &full {
            if j == gi {
                atilde += v;
            } else if let Some(&pos) = chat_pos.get(&j) {
                num[pos] += v;
            } else if !strong.contains(&j) {
                atilde += v;
            }
        }
        for &(k, aik) in &full {
            if k == gi || !strong.contains(&k) || code_of(k) >= 0.0 {
                continue;
            }
            let krow = row_of(k);
            let akk = krow.iter().find(|&&(c, _)| c == k).map_or(0.0, |&(_, v)| v);
            let mut bik = 0.0f64;
            let mut abar_ki = 0.0f64;
            for &(l, v) in &krow {
                if v * akk < 0.0 {
                    if l == gi {
                        bik += v;
                        abar_ki = v;
                    } else if chat_pos.contains_key(&l) {
                        bik += v;
                    }
                }
            }
            if bik == 0.0 {
                atilde += aik;
                continue;
            }
            let coef = aik / bik;
            atilde += coef * abar_ki;
            for &(l, v) in &krow {
                if l != gi && v * akk < 0.0 {
                    if let Some(&pos) = chat_pos.get(&l) {
                        num[pos] += coef * v;
                    }
                }
            }
        }
        if atilde == 0.0 {
            rows.push(Vec::new());
            continue;
        }
        let mut cols: Vec<usize> = Vec::new();
        let mut vals: Vec<f64> = Vec::new();
        for (pos, &c) in chat_col.iter().enumerate() {
            let w = -num[pos] / atilde;
            if w != 0.0 {
                cols.push(c);
                vals.push(w);
            }
        }
        // Deterministic order before truncation (HashMap iteration order
        // must not leak into the result).
        let mut order: Vec<usize> = (0..cols.len()).collect();
        order.sort_unstable_by_key(|&k| cols[k]);
        let mut cols: Vec<usize> = order.iter().map(|&k| cols[k]).collect();
        let mut vals: Vec<f64> = order.iter().map(|&k| vals[k]).collect();
        if let Some(t) = trunc {
            truncate_row(&mut cols, &mut vals, t);
        }
        rows.push(cols.into_iter().zip(vals).collect());
    }
    build_p(comm, a, cf, rows, rank)
}

/// Distributed multipass interpolation: direct interpolation where
/// possible, then passes composing the already-assigned neighbours'
/// rows, gathering remote `P` rows for boundary neighbours each pass.
/// `plan_a` is the persistent halo plan for `a`'s colmap.
pub fn dist_multipass(
    comm: &Comm,
    a: &ParCsr,
    plan_a: &VectorExchange,
    s: &ParCsr,
    cf: &DistCoarsening,
    trunc: Option<&TruncParams>,
) -> ParCsr {
    let rank = comm.rank();
    let nl = a.local_rows();
    let gi0 = a.row_start;
    // Pass 0/1: identity on C-points, direct interpolation where a strong
    // coarse neighbour exists (untruncated; truncation applies at the end
    // like the serial version).
    let direct = dist_direct(comm, a, plan_a, s, cf, None);
    let mut rows: Vec<Option<Vec<(usize, f64)>>> = (0..nl)
        .map(|i| {
            if cf.is_coarse[i] {
                Some(vec![(cf.coarse_index(i), 1.0)])
            } else {
                let r = direct.global_row(i, rank);
                if r.is_empty() {
                    None
                } else {
                    Some(r)
                }
            }
        })
        .collect();

    let plan_s = VectorExchange::plan(comm, &s.colmap, &s.col_starts);
    let mut guard = 0usize;
    loop {
        // Exchange done flags over the strength halo.
        let done_local: Vec<f64> = rows
            .iter()
            .map(|r| f64::from(u8::from(r.is_some())))
            .collect();
        let done_ext = plan_s.exchange(comm, &done_local);
        let is_done = |g: usize| -> bool {
            if g >= gi0 && g < a.row_end {
                rows[g - gi0].is_some()
            } else {
                done_ext[s.colmap.binary_search(&g).unwrap()] > 0.5
            }
        };
        // Which halo P rows do we need this pass?
        let mut needed: Vec<usize> = Vec::new();
        let mut todo: Vec<usize> = Vec::new();
        for i in 0..nl {
            if rows[i].is_some() {
                continue;
            }
            let strong: Vec<usize> = s.global_row(i, rank).into_iter().map(|(c, _)| c).collect();
            if strong.iter().any(|&j| is_done(j)) {
                todo.push(i);
                for &j in &strong {
                    if is_done(j) && (j < gi0 || j >= a.row_end) {
                        needed.push(j);
                    }
                }
            }
        }
        needed.sort_unstable();
        needed.dedup();
        let progress = !todo.is_empty();
        // Every rank participates in the gather (collective), even when
        // it personally needs nothing this pass.
        let any = comm.allreduce_or(progress, 0x70);
        if !any {
            break;
        }
        let rows_ref = &rows;
        let gathered_p = gather_rows(
            comm,
            &needed,
            &a.col_starts,
            |li| rows_ref[li].clone().unwrap_or_default(),
            |_, _, _, _| true,
        );
        let prow_of = |g: usize| -> Vec<(usize, f64)> {
            if g >= gi0 && g < a.row_end {
                rows_ref[g - gi0].clone().unwrap_or_default()
            } else {
                gathered_p
                    .get(g)
                    .map(<[(usize, f64)]>::to_vec)
                    .unwrap_or_default()
            }
        };
        // Compose new rows from the pass-start snapshot.
        let mut new_rows: Vec<(usize, Vec<(usize, f64)>)> = Vec::new();
        for &i in &todo {
            let gi = gi0 + i;
            let strong: HashSet<usize> =
                s.global_row(i, rank).into_iter().map(|(c, _)| c).collect();
            let full = a.global_row(i, rank);
            let diag = full
                .iter()
                .find(|&&(c, _)| c == gi)
                .map_or(0.0, |&(_, v)| v);
            let all_sum: f64 = full
                .iter()
                .filter(|&&(c, _)| c != gi)
                .map(|&(_, v)| v)
                .sum();
            let strong_done_sum: f64 = full
                .iter()
                .filter(|&&(c, _)| c != gi && strong.contains(&c) && is_done(c))
                .map(|&(_, v)| v)
                .sum();
            if strong_done_sum == 0.0 || diag == 0.0 {
                continue;
            }
            let alpha = all_sum / strong_done_sum;
            let mut acc: HashMap<usize, f64> = HashMap::new();
            for &(k, v) in &full {
                if k == gi || !strong.contains(&k) || !is_done(k) {
                    continue;
                }
                let coef = -alpha * v / diag;
                for (c, w) in prow_of(k) {
                    *acc.entry(c).or_insert(0.0) += coef * w;
                }
            }
            if !acc.is_empty() {
                let mut r: Vec<(usize, f64)> = acc.into_iter().collect();
                r.sort_unstable_by_key(|&(c, _)| c);
                new_rows.push((i, r));
            }
        }
        for (i, r) in new_rows {
            rows[i] = Some(r);
        }
        guard += 1;
        if guard > nl + 2 {
            break; // safety net
        }
    }

    // Truncate fine rows and assemble.
    let assembled: Vec<Vec<(usize, f64)>> = rows
        .into_iter()
        .enumerate()
        .map(|(i, r)| match r {
            None => Vec::new(),
            Some(r) => {
                if cf.is_coarse[i] {
                    r
                } else if let Some(t) = trunc {
                    let mut cols: Vec<usize> = r.iter().map(|&(c, _)| c).collect();
                    let mut vals: Vec<f64> = r.iter().map(|&(_, v)| v).collect();
                    truncate_row(&mut cols, &mut vals, t);
                    cols.into_iter().zip(vals).collect()
                } else {
                    r
                }
            }
        })
        .collect();
    build_p(comm, a, cf, assembled, rank)
}

/// Distributed two-stage extended+i: extended+i to the stage-1 C-points,
/// Galerkin stage-1 operator via distributed SpGEMM, extended+i among the
/// stage-1 C-points, product, truncation at every stage. `plan_a` covers
/// `a`'s colmap; the stage-1 operator gets its own plan here.
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
    use crate::spgemm::{dist_spgemm, dist_transpose};
    let rank = comm.rank();
    let p1 = dist_extended_i(comm, a, plan_a, s, stage1, trunc, filter_remote);
    let r1 = dist_transpose(comm, &p1);
    let ra = dist_spgemm(comm, &r1, a, true);
    let a1 = dist_spgemm(comm, &ra, &p1, true);
    let s1 = dist_strength(&a1, strength_threshold, max_row_sum, rank);
    // Final C-points within the stage-1 coarse space.
    let marker: Vec<bool> = (0..a.local_rows())
        .filter(|&i| stage1.is_coarse[i])
        .map(|i| final_c.is_coarse[i])
        .collect();
    let cf2 = DistCoarsening::from_marker(comm, marker, 0x71);
    let plan_a1 = VectorExchange::plan(comm, &a1.colmap, &a1.col_starts);
    let p2 = dist_extended_i(comm, &a1, &plan_a1, &s1, &cf2, trunc, filter_remote);
    let p = dist_spgemm(comm, &p1, &p2, true);
    // Truncate the product's fine rows.
    let rows: Vec<Vec<(usize, f64)>> = (0..p.local_rows())
        .map(|i| {
            let r = p.global_row(i, rank);
            if final_c.is_coarse[i] {
                return r;
            }
            match trunc {
                None => r,
                Some(t) => {
                    let mut cols: Vec<usize> = r.iter().map(|&(c, _)| c).collect();
                    let mut vals: Vec<f64> = r.iter().map(|&(_, v)| v).collect();
                    truncate_row(&mut cols, &mut vals, t);
                    cols.into_iter().zip(vals).collect()
                }
            }
        })
        .collect();
    ParCsr::from_local_rows_global_cols(
        p.row_start,
        p.row_end,
        p.global_cols,
        p.col_starts.clone(),
        rank,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::{dist_aggressive_pmis, dist_pmis};
    use crate::comm::run_ranks;
    use crate::parcsr::{default_partition, to_global};
    use famg_core::coarsen::pmis;
    use famg_core::interp::{direct, extended_i, multipass, CfMap};
    use famg_core::strength::strength;
    use famg_matgen::laplace2d;

    fn split(a: &famg_sparse::Csr, starts: &[usize], r: usize) -> ParCsr {
        ParCsr::from_global_rows(a, starts[r], starts[r + 1], starts.to_vec(), r)
    }

    #[test]
    fn dist_strength_matches_serial() {
        let a = laplace2d(10, 8);
        let s_ref = strength(&a, 0.25, 0.8);
        let starts = default_partition(80, 3);
        let (parts, _) = run_ranks(3, |c| {
            let pa = split(&a, &starts, c.rank());
            dist_strength(&pa, 0.25, 0.8, c.rank())
        });
        assert_eq!(to_global(&parts).to_dense(), s_ref.to_dense());
    }

    #[test]
    fn dist_direct_matches_serial() {
        let a = laplace2d(10, 10);
        let s = strength(&a, 0.25, 0.8);
        let c_serial = pmis(&s, 5);
        let p_ref = direct(&a, &s, &CfMap::new(c_serial.is_coarse.clone()), None);
        let starts = default_partition(100, 4);
        let (parts, _) = run_ranks(4, |c| {
            let pa = split(&a, &starts, c.rank());
            let ps = dist_strength(&pa, 0.25, 0.8, c.rank());
            let dc = dist_pmis(c, &ps, 5, None);
            let plan = VectorExchange::plan(c, &pa.colmap, &pa.col_starts);
            dist_direct(c, &pa, &plan, &ps, &dc, None)
        });
        assert_eq!(to_global(&parts).to_dense(), p_ref.to_dense());
    }

    #[test]
    fn dist_extended_i_matches_serial() {
        let full = laplace2d(12, 12);
        // The same operator with every fifth row's diagonal not stored:
        // `a_kk = 0` there, so every b_ik through such a row lumps, on
        // every rank and on both sides of the §4.3 wire filter.
        let holes = famg_sparse::Csr::from_triplets(
            144,
            144,
            (0..144)
                .flat_map(|i| full.row_iter(i).map(move |(c, v)| (i, c, v)))
                .filter(|&(i, c, _)| i != c || i % 5 != 2)
                .collect::<Vec<_>>(),
        );
        for a in [&full, &holes] {
            let s = strength(a, 0.25, 0.8);
            let c_serial = pmis(&s, 9);
            if a.nnz() < full.nnz() {
                let through_hole = (0..144).any(|i| {
                    let fine = |p: usize| !c_serial.is_coarse[p];
                    fine(i) && s.row_cols(i).iter().any(|&k| fine(k) && k % 5 == 2)
                });
                assert!(through_hole, "no fine row distributes through a hole");
            }
            let p_ref = extended_i(a, &s, &CfMap::new(c_serial.is_coarse.clone()), None);
            for (nranks, filter) in [(1usize, false), (2, false), (4, false), (4, true)] {
                let starts = default_partition(144, nranks);
                let (parts, _) = run_ranks(nranks, |c| {
                    let pa = split(a, &starts, c.rank());
                    let ps = dist_strength(&pa, 0.25, 0.8, c.rank());
                    let dc = dist_pmis(c, &ps, 9, None);
                    let plan = VectorExchange::plan(c, &pa.colmap, &pa.col_starts);
                    dist_extended_i(c, &pa, &plan, &ps, &dc, None, filter)
                });
                let p = to_global(&parts);
                assert!(
                    p.frob_diff(&p_ref) < 1e-10,
                    "nranks {nranks}, filter {filter}: diff {}",
                    p.frob_diff(&p_ref)
                );
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
                let dc = dist_pmis(c, &ps, 13, None);
                let plan = VectorExchange::plan(c, &pa.colmap, &pa.col_starts);
                dist_extended_i(c, &pa, &plan, &ps, &dc, None, filter)
            });
            (to_global(&parts), report.total_bytes())
        };
        let (p_full, bytes_full) = run(false);
        let (p_filt, bytes_filt) = run(true);
        assert!(
            p_full.frob_diff(&p_filt) < 1e-12,
            "filter changed the operator"
        );
        assert!(
            bytes_filt < bytes_full,
            "filter did not reduce traffic: {bytes_filt} vs {bytes_full}"
        );
    }

    #[test]
    fn dist_multipass_matches_serial() {
        let a = laplace2d(12, 12);
        let s = strength(&a, 0.25, 0.8);
        let (_, fin) = famg_core::coarsen::aggressive_pmis_stages(&s, 3);
        let p_ref = multipass(&a, &s, &CfMap::new(fin.is_coarse.clone()), None);
        let starts = default_partition(144, 3);
        let (parts, _) = run_ranks(3, |c| {
            let pa = split(&a, &starts, c.rank());
            let ps = dist_strength(&pa, 0.25, 0.8, c.rank());
            let (_, dc) = dist_aggressive_pmis(c, &ps, 3);
            let plan = VectorExchange::plan(c, &pa.colmap, &pa.col_starts);
            dist_multipass(c, &pa, &plan, &ps, &dc, None)
        });
        let p = to_global(&parts);
        assert!(p.frob_diff(&p_ref) < 1e-10, "diff {}", p.frob_diff(&p_ref));
    }

    #[test]
    fn dist_two_stage_shape_and_rows() {
        let a = laplace2d(14, 14);
        let starts = default_partition(196, 3);
        let (parts, _) = run_ranks(3, |c| {
            let pa = split(&a, &starts, c.rank());
            let ps = dist_strength(&pa, 0.25, 0.8, c.rank());
            let (first, fin) = dist_aggressive_pmis(c, &ps, 7);
            let t = TruncParams::paper();
            let plan = VectorExchange::plan(c, &pa.colmap, &pa.col_starts);
            let p = dist_two_stage_extended_i(
                c,
                &pa,
                &plan,
                &ps,
                &first,
                &fin,
                0.25,
                0.8,
                Some(&t),
                true,
            );
            (p, fin.is_coarse.clone())
        });
        let total_nc = parts[0].0.global_cols;
        assert!(total_nc > 0 && total_nc < 196 / 4);
        for (rank, (p, is_coarse)) in parts.iter().enumerate() {
            for i in 0..p.local_rows() {
                let row = p.global_row(i, rank);
                if is_coarse[i] {
                    assert_eq!(row.len(), 1);
                    assert_eq!(row[0].1, 1.0);
                } else {
                    assert!(row.len() <= 4, "trunc violated: {}", row.len());
                }
            }
        }
    }
}
