//! Row partitioning and prefix-sum helpers shared by every parallel kernel.
//!
//! The paper's kernels assign each thread a contiguous block of rows with a
//! roughly equal number of *non-zeros* (not rows): load balance on sparse
//! matrices is governed by nnz. `split_rows_by_nnz` reproduces HYPRE's
//! `hypre_partition` behaviour used for the parallel transpose and SpGEMM.

/// Splits `0..nrows` into at most `nparts` contiguous ranges such that each
/// range holds a roughly equal share of non-zeros according to `rowptr`.
///
/// Always returns at least one range when `nrows > 0`; never returns empty
/// ranges. The concatenation of the ranges is exactly `0..nrows`.
pub fn split_rows_by_nnz(rowptr: &[usize], nparts: usize) -> Vec<std::ops::Range<usize>> {
    let nrows = rowptr.len() - 1;
    if nrows == 0 {
        return Vec::new();
    }
    let nparts = nparts.max(1).min(nrows);
    let total = rowptr[nrows];
    let mut out = Vec::with_capacity(nparts);
    let mut start = 0usize;
    for p in 0..nparts {
        if start >= nrows {
            break;
        }
        // Target cumulative nnz at the end of partition p.
        let target = (total as u128 * (p as u128 + 1) / nparts as u128) as usize;
        let mut end = match rowptr[start + 1..=nrows].binary_search(&target) {
            Ok(k) | Err(k) => start + 1 + k,
        };
        // Leave at least one row per remaining partition where possible.
        let remaining_parts = nparts - p - 1;
        if nrows - end < remaining_parts {
            end = nrows - remaining_parts;
        }
        if end <= start {
            end = start + 1;
        }
        if p == nparts - 1 {
            end = nrows;
        }
        out.push(start..end);
        start = end;
    }
    debug_assert_eq!(out.first().map(|r| r.start), Some(0));
    debug_assert_eq!(out.last().map(|r| r.end), Some(nrows));
    out
}

/// Splits `0..n` into at most `nparts` contiguous near-equal ranges.
pub fn split_evenly(n: usize, nparts: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let nparts = nparts.max(1).min(n);
    (0..nparts)
        .map(|p| {
            let s = n * p / nparts;
            let e = n * (p + 1) / nparts;
            s..e
        })
        .collect()
}

/// Exclusive prefix sum in place: `a[i] <- sum(a[..i])`; returns the total.
pub fn exclusive_prefix_sum(a: &mut [usize]) -> usize {
    let mut acc = 0usize;
    for x in a.iter_mut() {
        let v = *x;
        *x = acc;
        acc += v;
    }
    acc
}

/// The number of worker threads famg kernels should use.
///
/// Follows rayon's current pool size so `RAYON_NUM_THREADS` controls both
/// rayon-based kernels and the scoped-thread kernels in this crate.
pub fn num_threads() -> usize {
    rayon::current_num_threads().max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_evenly_covers() {
        let parts = split_evenly(10, 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], 0..3);
        assert_eq!(parts[2].end, 10);
        let total: usize = parts.iter().map(std::iter::ExactSizeIterator::len).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn split_evenly_more_parts_than_items() {
        let parts = split_evenly(2, 8);
        assert_eq!(parts.len(), 2);
        assert!(parts.iter().all(|r| !r.is_empty()));
    }

    #[test]
    fn split_by_nnz_balances() {
        // rows with nnz 10, 1, 1, 1, 1, 10
        let rowptr = vec![0, 10, 11, 12, 13, 14, 24];
        let parts = split_rows_by_nnz(&rowptr, 2);
        assert_eq!(parts.len(), 2);
        let nnz0: usize = rowptr[parts[0].end] - rowptr[parts[0].start];
        let nnz1: usize = rowptr[parts[1].end] - rowptr[parts[1].start];
        assert!(nnz0.abs_diff(nnz1) <= 10);
        assert_eq!(parts[0].start, 0);
        assert_eq!(parts[1].end, 6);
        assert_eq!(parts[0].end, parts[1].start);
    }

    #[test]
    fn split_by_nnz_empty_rows() {
        let rowptr = vec![0, 0, 0, 0, 5];
        let parts = split_rows_by_nnz(&rowptr, 4);
        let total: usize = parts.iter().map(std::iter::ExactSizeIterator::len).sum();
        assert_eq!(total, 4);
        assert!(parts.iter().all(|r| !r.is_empty()));
    }

    #[test]
    fn split_by_nnz_single_row() {
        let rowptr = vec![0, 7];
        let parts = split_rows_by_nnz(&rowptr, 8);
        assert_eq!(parts, vec![0..1]);
    }

    #[test]
    fn prefix_sum_basic() {
        let mut a = vec![1, 2, 3, 4];
        let total = exclusive_prefix_sum(&mut a);
        assert_eq!(total, 10);
        assert_eq!(a, vec![0, 1, 3, 6]);
    }

    #[test]
    fn prefix_sum_empty() {
        let mut a: Vec<usize> = vec![];
        assert_eq!(exclusive_prefix_sum(&mut a), 0);
    }
}
