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
/// ranges. The concatenation of the ranges is exactly `0..nrows`. `rowptr`
/// may be a window of a larger row pointer: the shares are counted from
/// `rowptr[0]`.
pub fn split_rows_by_nnz(rowptr: &[usize], nparts: usize) -> Vec<std::ops::Range<usize>> {
    let nrows = rowptr.len() - 1;
    if nrows == 0 {
        return Vec::new();
    }
    let nparts = nparts.max(1).min(nrows);
    let (first, total) = (rowptr[0], rowptr[nrows] - rowptr[0]);
    let mut out = Vec::with_capacity(nparts);
    let mut start = 0usize;
    for p in 0..nparts {
        if start >= nrows {
            break;
        }
        // Target cumulative nnz at the end of partition p.
        let target = first + (total as u128 * (p as u128 + 1) / nparts as u128) as usize;
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

/// Cuts `s` into consecutive pieces of the lengths `lens` yields, for
/// parallel blocks that each write their own piece.
///
/// # Panics
/// When the lengths add up to more than `s.len()`.
pub fn split_mut_at<T>(mut s: &mut [T], lens: impl IntoIterator<Item = usize>) -> Vec<&mut [T]> {
    lens.into_iter()
        .map(|len| {
            let (piece, rest) = std::mem::take(&mut s).split_at_mut(len);
            s = rest;
            piece
        })
        .collect()
}

/// Writes the row pointer of rows of lengths `len(0)`, `len(1)`, … into
/// `ptr` (`ptr[0] = 0`, `ptr[i + 1] = ptr[i] + len(i)`): blocks of rows sum
/// their own lengths in parallel, then each adds what the blocks before it
/// hold.
pub fn par_row_pointer(ptr: &mut [usize], len: impl Fn(usize) -> usize + Sync) {
    use rayon::prelude::*;
    let Some((first, ends)) = ptr.split_first_mut() else {
        return;
    };
    *first = 0;
    let blocks = split_evenly(ends.len(), num_threads());
    let mut parts: Vec<_> = blocks
        .iter()
        .cloned()
        .zip(split_mut_at(
            ends,
            blocks.iter().map(ExactSizeIterator::len),
        ))
        .collect();
    let totals: Vec<usize> = parts
        .par_iter_mut()
        .map(|(rows, ends)| {
            let mut sum = 0;
            for (i, end) in rows.clone().zip(ends.iter_mut()) {
                sum += len(i);
                *end = sum;
            }
            sum
        })
        .collect();
    let mut before = 0;
    let offsets: Vec<usize> = totals
        .iter()
        .map(|t| {
            before += t;
            before - t
        })
        .collect();
    parts
        .par_iter_mut()
        .zip(offsets.par_iter())
        .filter(|(_, &offset)| offset > 0)
        .for_each(|((_, ends), &offset)| {
            // DETERMINISM: an integer offset added to the block's own rows.
            ends.iter_mut().for_each(|e| *e += offset);
        });
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
    fn split_by_nnz_counts_a_window_from_its_start() {
        let rowptr = vec![0, 10, 11, 12, 13, 14, 24, 30];
        let shifted: Vec<usize> = rowptr.iter().map(|p| p + 1000).collect();
        for parts in 1..=7 {
            assert_eq!(
                split_rows_by_nnz(&shifted, parts),
                split_rows_by_nnz(&rowptr, parts)
            );
        }
    }

    #[test]
    fn row_pointer_is_the_running_sum() {
        for n in [0usize, 1, 5, 1000, 70_001] {
            let len = |i: usize| (i * 7 + 3) % 11;
            let mut ptr = vec![usize::MAX; n + 1];
            par_row_pointer(&mut ptr, len);
            let mut want = vec![0usize];
            for i in 0..n {
                want.push(want[i] + len(i));
            }
            assert_eq!(ptr, want, "n={n}");
        }
        let mut data = [1, 2, 3, 4, 5, 6];
        let pieces = split_mut_at(&mut data, [2, 0, 3]);
        assert_eq!(
            pieces.iter().map(|p| p.len()).collect::<Vec<_>>(),
            [2, 0, 3]
        );
        assert_eq!(pieces[2], [3, 4, 5]);
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
