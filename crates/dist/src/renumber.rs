//! Column-index renumbering for received matrix rows (§4.2, Fig. 4).
//!
//! When a rank gathers remote matrix rows for SpGEMM-like operations, the
//! received global column indices must be renumbered into the rank's
//! local column space. New columns — those neither owned by the rank nor
//! already in its `colmap` — join that space (Fig. 3c). The paper
//! identifies this renumbering as a major multi-node setup bottleneck and
//! parallelizes it with thread-private hash sets and a parallel
//! merge-dedup; both that version and the ordered-set sequential baseline
//! are provided, and they produce identical results. The lookup half of
//! Fig. 4 (global id → local index) is [`crate::parcsr::ExtSpace::local`]:
//! an offset for an owned id, a binary search for a halo id.

// DETERMINISM: the hash sets of this file are the paper's Fig. 4 —
// thread-private sets whose contents are sorted before anything reads them.
use std::collections::{BTreeSet, HashSet};

/// Sequential baseline: collects the new columns, sorted, through an
/// ordered set (the approach the paper says parallelizes poorly).
pub fn renumber_seq(
    received_cols: &[usize],
    base_colmap: &[usize],
    own: (usize, usize),
) -> Vec<usize> {
    let mut set = BTreeSet::new();
    for &c in received_cols {
        if (c < own.0 || c >= own.1) && base_colmap.binary_search(&c).is_err() {
            set.insert(c);
        }
    }
    set.into_iter().collect()
}

/// Parallel renumbering (Fig. 4): thread-private hash sets over chunks of
/// the received columns, merged with a parallel sort-dedup. Produces
/// exactly the same columns as [`renumber_seq`].
pub fn renumber_par(
    received_cols: &[usize],
    base_colmap: &[usize],
    own: (usize, usize),
) -> Vec<usize> {
    use rayon::prelude::*;
    // Fixed chunk length (not pool-size derived): the merged result is
    // sort-deduped so any chunking gives the same answer, but a fixed
    // geometry keeps the partials — and any timing built on them —
    // reproducible across pool sizes.
    let chunk = 4096;
    // Phase 1: thread-private hash sets filter duplicates without
    // synchronization (exploits the locality of adjacent rows).
    let partials: Vec<Vec<usize>> = received_cols
        .par_chunks(chunk)
        .map(|cs| {
            // DETERMINISM: Fig. 4's thread-private set; drained into `v`
            // and sorted below, so its iteration order never escapes.
            let mut h: HashSet<usize> = HashSet::new();
            for &c in cs {
                if (c < own.0 || c >= own.1) && base_colmap.binary_search(&c).is_err() {
                    h.insert(c);
                }
            }
            let mut v: Vec<usize> = h.into_iter().collect();
            v.sort_unstable();
            v
        })
        .collect();
    // Phase 2: merge and eliminate duplicates across threads.
    let mut merged: Vec<usize> = partials.concat();
    merged.par_sort_unstable();
    merged.dedup();
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_collects_sorted_new_columns() {
        let base = vec![2, 5];
        let new = renumber_seq(&[9, 2, 7, 9, 5, 0, 7], &base, (3, 5));
        // Own range [3,5): 0 is outside -> candidate; 2, 5 in base; 9, 7 new; 0 new.
        assert_eq!(new, vec![0, 7, 9]);
    }

    #[test]
    fn par_matches_seq() {
        // Large pseudo-random input.
        let mut cols = Vec::new();
        let mut state = 7u64;
        for _ in 0..50_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            cols.push(((state >> 33) % 10_000) as usize);
        }
        let base: Vec<usize> = (0..500)
            .map(|i| i * 7)
            .filter(|&c| !(2000..3000).contains(&c))
            .collect();
        let own = (2000, 3000);
        assert_eq!(
            renumber_seq(&cols, &base, own),
            renumber_par(&cols, &base, own)
        );
    }

    #[test]
    fn empty_inputs() {
        assert!(renumber_par(&[], &[], (0, 10)).is_empty());
    }
}
