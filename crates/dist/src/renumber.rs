//! Column-index renumbering for received matrix rows (§4.2, Fig. 4).
//!
//! When a rank gathers remote matrix rows for SpGEMM-like operations, the
//! received global column indices must be renumbered into the rank's
//! compressed off-diagonal space. New columns — those neither owned by the
//! rank nor already in its `colmap` — are appended (Fig. 3c). The paper
//! identifies this renumbering as a major multi-node setup bottleneck and
//! parallelizes it with thread-private hash sets, a parallel merge-dedup,
//! and a range-partitioned reverse map; both that version and the
//! ordered-set sequential baseline are provided, and they produce
//! identical results.

// DETERMINISM: the hash containers of this file are the paper's Fig. 4 —
// thread-private hash sets whose contents are sorted before anything reads
// them, and reverse maps that are only ever probed by key.
use std::collections::{BTreeSet, HashMap};

/// A rank's extended off-diagonal column map after receiving rows.
#[derive(Debug, Clone)]
pub struct ExtendedColmap {
    /// The rank's own global column range `[own.0, own.1)`.
    pub own: (usize, usize),
    /// The pre-existing colmap (sorted).
    pub base: Vec<usize>,
    /// Newly appended global columns (sorted among themselves; their
    /// compressed indices start at `base.len()`).
    pub new: Vec<usize>,
}

/// A renumbered column: either a local (diagonal-block) column or a
/// compressed off-diagonal index into the extended colmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalCol {
    /// Column inside the rank's own range (offset within it).
    Diag(usize),
    /// Compressed off-diagonal index (`< base.len() + new.len()`).
    Offd(usize),
}

impl ExtendedColmap {
    /// Total compressed off-diagonal width.
    pub fn offd_width(&self) -> usize {
        self.base.len() + self.new.len()
    }

    /// Global column for compressed off-diagonal index `k`.
    pub fn global_of(&self, k: usize) -> usize {
        if k < self.base.len() {
            self.base[k]
        } else {
            self.new[k - self.base.len()]
        }
    }

    /// Renumbers a global column (must be own, in base, or in new).
    pub fn lookup(&self, g: usize) -> LocalCol {
        if g >= self.own.0 && g < self.own.1 {
            return LocalCol::Diag(g - self.own.0);
        }
        if let Ok(k) = self.base.binary_search(&g) {
            return LocalCol::Offd(k);
        }
        let k = self
            .new
            .binary_search(&g)
            .unwrap_or_else(|_| panic!("column {g} not renumbered"));
        LocalCol::Offd(self.base.len() + k)
    }
}

/// Sequential baseline: collects new columns through an ordered set (the
/// approach the paper says parallelizes poorly).
pub fn renumber_seq(
    received_cols: &[usize],
    base_colmap: &[usize],
    own: (usize, usize),
) -> ExtendedColmap {
    let mut set = BTreeSet::new();
    for &c in received_cols {
        if (c < own.0 || c >= own.1) && base_colmap.binary_search(&c).is_err() {
            set.insert(c);
        }
    }
    ExtendedColmap {
        own,
        base: base_colmap.to_vec(),
        new: set.into_iter().collect(),
    }
}

/// Parallel renumbering (Fig. 4): thread-private hash sets over chunks of
/// the received columns, merged with a parallel sort-dedup. Produces
/// exactly the same [`ExtendedColmap`] as [`renumber_seq`].
pub fn renumber_par(
    received_cols: &[usize],
    base_colmap: &[usize],
    own: (usize, usize),
) -> ExtendedColmap {
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
            let mut h: std::collections::HashSet<usize> = std::collections::HashSet::new();
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
    ExtendedColmap {
        own,
        base: base_colmap.to_vec(),
        new: merged,
    }
}

/// The paper's range-partitioned reverse map: the sorted `new` array is
/// split into `t` ranges, each thread builds a hash map for its range,
/// and lookups first binary-search the range boundaries then probe one
/// small table (O(log t) + O(1) instead of O(log n)).
pub struct PartitionedReverseMap {
    boundaries: Vec<usize>,
    // DETERMINISM: Fig. 4's per-range reverse maps; probed by key only.
    maps: Vec<HashMap<usize, usize>>,
}

impl PartitionedReverseMap {
    /// Builds over the `new` portion of an extended colmap.
    pub fn build(ext: &ExtendedColmap, nparts: usize) -> Self {
        let n = ext.new.len();
        let nparts = nparts.max(1).min(n.max(1));
        let mut boundaries = Vec::with_capacity(nparts);
        let mut maps = Vec::with_capacity(nparts);
        use rayon::prelude::*;
        let ranges: Vec<(usize, usize)> = (0..nparts)
            .map(|p| (n * p / nparts, n * (p + 1) / nparts))
            .collect();
        // DETERMINISM: filled here, probed by key in `lookup`, never iterated.
        let built: Vec<HashMap<usize, usize>> = ranges
            .par_iter()
            .map(|&(s, e)| {
                // DETERMINISM: as above.
                let mut m = HashMap::with_capacity(e - s);
                for k in s..e {
                    m.insert(ext.new[k], ext.base.len() + k);
                }
                m
            })
            .collect();
        for (&(s, _), m) in ranges.iter().zip(built) {
            boundaries.push(if s < n { ext.new[s] } else { usize::MAX });
            maps.push(m);
        }
        PartitionedReverseMap { boundaries, maps }
    }

    /// Looks up the compressed index of a *new* global column.
    pub fn lookup(&self, g: usize) -> Option<usize> {
        if self.maps.is_empty() {
            return None;
        }
        let part = match self.boundaries.binary_search(&g) {
            Ok(p) => p,
            Err(0) => 0,
            Err(p) => p - 1,
        };
        self.maps[part].get(&g).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_appends_sorted_new_columns() {
        let base = vec![2, 5];
        let ext = renumber_seq(&[9, 2, 7, 9, 5, 0, 7], &base, (3, 5));
        // Own range [3,5): 0 is outside -> candidate; 2, 5 in base; 9, 7 new; 0 new.
        assert_eq!(ext.new, vec![0, 7, 9]);
        assert_eq!(ext.lookup(2), LocalCol::Offd(0));
        assert_eq!(ext.lookup(5), LocalCol::Offd(1));
        assert_eq!(ext.lookup(0), LocalCol::Offd(2));
        assert_eq!(ext.lookup(7), LocalCol::Offd(3));
        assert_eq!(ext.lookup(9), LocalCol::Offd(4));
        assert_eq!(ext.lookup(3), LocalCol::Diag(0));
        assert_eq!(ext.lookup(4), LocalCol::Diag(1));
        assert_eq!(ext.offd_width(), 5);
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
        let a = renumber_seq(&cols, &base, own);
        let b = renumber_par(&cols, &base, own);
        assert_eq!(a.new, b.new);
        assert_eq!(a.base, b.base);
    }

    #[test]
    fn global_of_roundtrip() {
        let ext = renumber_seq(&[10, 20], &[4], (0, 2));
        for k in 0..ext.offd_width() {
            let g = ext.global_of(k);
            assert_eq!(ext.lookup(g), LocalCol::Offd(k));
        }
    }

    #[test]
    fn partitioned_reverse_map_matches_binary_search() {
        let cols: Vec<usize> = (0..10_000).map(|i| i * 3 + 1).collect();
        let ext = renumber_seq(&cols, &[], (0, 1));
        for nparts in [1, 2, 7, 16] {
            let prm = PartitionedReverseMap::build(&ext, nparts);
            for &g in cols.iter().step_by(97) {
                let via_map = prm.lookup(g).unwrap();
                assert_eq!(LocalCol::Offd(via_map), ext.lookup(g));
            }
            assert_eq!(prm.lookup(0), None);
        }
    }

    #[test]
    fn empty_inputs() {
        let ext = renumber_par(&[], &[], (0, 10));
        assert_eq!(ext.offd_width(), 0);
        let prm = PartitionedReverseMap::build(&ext, 4);
        assert_eq!(prm.lookup(5), None);
    }

    #[test]
    #[should_panic(expected = "not renumbered")]
    fn lookup_unknown_panics() {
        let ext = renumber_seq(&[7], &[], (0, 2));
        ext.lookup(8);
    }
}
