//! PMIS coarsening (De Sterck–Yang–Heys) and its aggressive variant.
//!
//! PMIS selects the coarse grid as a maximal independent set in the
//! symmetrized strength graph, weighted by how many points each point
//! strongly influences plus a random tie-breaker. The paper uses PMIS for
//! its high parallelism (Table 3) and, for the multi-node configurations,
//! *aggressive* coarsening — a second PMIS pass over the distance-two
//! strength graph of the first pass's C-points (Table 4).
//!
//! With `measure(i) = |Sᵀ_i| + rand[0, 1)` and every point undecided except
//! those nobody depends on (F from the start), a round is a *selection* —
//! an undecided point joins C iff its measure strictly beats every
//! undecided neighbour's in `S_i ∪ Sᵀ_i` — and a *demotion* — an undecided
//! point with a C-point in `S_i ∪ Sᵀ_i` becomes F — until no point is
//! undecided or a round selects nothing (what is still undecided then is
//! F).
//!
//! [`pmis`] never forms `Sᵀ`: transposing it cost more than the rounds and
//! moved values nobody reads. `|Sᵀ_i|` is a histogram of `S`'s column
//! indices, and `S_i ∪ Sᵀ_i` is the set of `S`-edges incident to `i`, so
//! selection visits every edge between two undecided points once, from the
//! row that stores it, and flags whichever end does not strictly beat the
//! other (a point no edge flagged is selected); demotion pulls along `S_i`
//! and pushes along `S_c` from the points just selected (`j ∈ S_c` is
//! `c ∈ Sᵀ_j`).
//!
//! [`pmis_rounds`] is written once: serially it runs on the whole grid, on
//! ranks (`famg_dist::coarsen`) on each rank's owned points.
//!
//! Random weights come from the counter-based generator in [`crate::rng`]
//! and a flag is a set membership, so the C/F splitting is identical for
//! any thread count (the paper's reason for switching to MKL's parallel
//! RNG in §3.3).

use crate::interp::CfMap;
use crate::rng::uniform01;
use famg_sparse::partition::{num_threads, split_evenly};
use famg_sparse::{Col, Csr};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

/// Result of a coarsening pass.
#[derive(Debug, Clone)]
pub struct Coarsening {
    /// `true` for C-points.
    pub is_coarse: Vec<bool>,
    /// Number of C-points.
    pub ncoarse: usize,
}

impl Coarsening {
    pub(crate) fn from_marker(is_coarse: Vec<bool>) -> Self {
        let ncoarse = is_coarse.iter().filter(|&&c| c).count();
        Coarsening { is_coarse, ncoarse }
    }
}

/// A point's word in [`pmis_rounds`]: below `FINE` it is undecided and
/// holds the last round that flagged it (0: none yet).
const FINE: u32 = u32::MAX - 1;
const COARSE: u32 = u32::MAX;

// The words of `pmis_rounds` are idempotent flags: within a phase every
// store to a word writes the same value (the round's stamp, or `FINE`) and
// no load of the phase tells the word before such a store from the word
// after it. Phases are separated by the pool's join, and the sync between
// them runs on the calling thread; nothing else is published through the
// words.
fn get(word: &AtomicU32) -> u32 {
    word.load(Ordering::Relaxed) // ORDERING: idempotent flag, see above.
}
fn put(word: &AtomicU32, v: u32) {
    word.store(v, Ordering::Relaxed); // ORDERING: idempotent flag, see above.
}

/// Every local point's word in [`pmis_rounds`].
pub struct Marks(Vec<AtomicU32>);

impl Marks {
    /// Point `i`'s state as it travels to the ranks whose halo holds it:
    /// 0 undecided, 1 F, 2 C.
    pub fn code(&self, i: usize) -> f64 {
        f64::from(get(&self.0[i]).saturating_sub(FINE - 1))
    }

    /// Sets point `i` to the state its owner sent.
    pub fn set_code(&self, i: usize, code: f64) {
        put(&self.0[i], [0, FINE, COARSE][code as usize]);
    }
}

/// Per block of `s`'s nonzeros, the histogram of their column indices:
/// summed over the blocks, `|Sᵀ_i|` for every `i` (no scatter, no
/// transpose).
fn dependants(s: &Csr) -> Vec<Vec<u32>> {
    let n = s.ncols();
    split_evenly(s.nnz(), num_threads())
        .par_iter()
        .map(|block| {
            let mut count = vec![0u32; n];
            for &j in &s.colidx()[block.clone()] {
                count[usize::from(j)] += 1;
            }
            count
        })
        .collect()
}

/// PMIS coarsening over strength matrix `s` (row `i` = points `i`
/// strongly depends on): [`pmis_rounds`] on the whole grid.
pub fn pmis(s: &Csr, seed: u64) -> Coarsening {
    let n = s.nrows();
    assert_eq!(n, s.ncols());
    let counts = dependants(s);
    let measure: Vec<f64> = (0..n)
        .into_par_iter()
        .with_min_len(4096)
        .map(|i| {
            let d: u32 = counts.iter().map(|c| c[i]).sum();
            f64::from(d) + uniform01(seed, i as u64)
        })
        .collect();
    drop(counts);
    let is_coarse = pmis_rounds(s, 0..n, &measure, |_| {}, |sel, und| sel && und);
    Coarsening::from_marker(is_coarse)
}

/// The PMIS rounds over the points `own` of a local index space; returns
/// their C/F marker. The owned rows of `s` hold every `S`-edge incident to
/// an owned point (an edge may be stored twice); `measure` is
/// `|Sᵀ_i| + rand` for every local point (below 1: F from the start).
///
/// A round visits owned points only; a flag or demotion pushed onto a halo
/// point lands in a word the next `refresh` overwrites, its owner seeing
/// the same edge in its own row. `refresh` makes every halo word its
/// owner's after the selection and after the demotion; the rounds go on
/// while `more(selected, undecided)`, whether a point was selected this
/// round and one is undecided, anywhere. Both run on the calling thread.
///
/// After the first round, a round visits the undecided points only: they
/// are kept, ascending, in an active list that each round's demotion pass
/// shrinks. Which points a pass visits changes nothing it decides, since
/// a decided point's word is final and the flags are set memberships.
pub fn pmis_rounds(
    s: &Csr,
    own: Range<usize>,
    measure: &[f64],
    mut refresh: impl FnMut(&Marks),
    mut more: impl FnMut(bool, bool) -> bool,
) -> Vec<bool> {
    debug_assert_eq!(measure.len(), s.nrows());
    let marks = Marks(
        (measure.par_iter())
            .with_min_len(4096)
            .map(|&m| AtomicU32::new(if m < 1.0 { FINE } else { 0 }))
            .collect(),
    );
    let mark = &marks.0;
    let undecided = |i: usize| get(&mark[i]) < FINE;
    // The points a round visits, ascending: every owned point in the first,
    // then those still undecided after the round before.
    let mut active: Option<Vec<usize>> = None;

    for round in 1..FINE {
        let len = active.as_ref().map_or(own.len(), Vec::len);
        let visit = || {
            (0..len)
                .into_par_iter()
                .with_min_len(512)
                .map(|k| active.as_ref().map_or(own.start + k, |a| a[k]))
                .filter(|&i| undecided(i))
        };
        // Selection: every S-edge between two undecided points flags the
        // end(s) that do not strictly beat the other …
        visit().for_each(|i| {
            let mut beaten = false;
            for j in s.col_iter(i).filter(|&j| undecided(j)) {
                beaten |= measure[i] <= measure[j];
                if measure[j] <= measure[i] {
                    put(&mark[j], round);
                }
            }
            if beaten {
                put(&mark[i], round);
            }
        });
        // … and an undecided point no edge flagged this round joins C.
        let selected: Vec<usize> = visit().filter(|&i| get(&mark[i]) != round).collect();
        selected.iter().for_each(|&c| put(&mark[c], COARSE));
        refresh(&marks);
        // Demotion: undecided points adjacent to a C-point in the
        // *symmetrized* graph become F. Checking only `s` rows (as
        // early BoomerAMG did) breaks independence on asymmetric
        // strength patterns: a point nobody was demoted for can win a
        // later round while already neighbouring a C-point. Push along
        // `S_c` (a neighbour of a point just selected is undecided or F,
        // never C), then pull along `S_i` (C-points of earlier rounds
        // demoted their neighbours then); what is still undecided after
        // the pull is the next round's active list.
        selected.par_iter().with_min_len(512).for_each(|&c| {
            s.col_iter(c).for_each(|j| put(&mark[j], FINE));
        });
        let next: Vec<usize> = visit()
            .filter(|&i| {
                let demoted = s.col_iter(i).any(|j| get(&mark[j]) == COARSE);
                if demoted {
                    put(&mark[i], FINE);
                }
                !demoted
            })
            .collect();
        if !more(!selected.is_empty(), !next.is_empty()) {
            break;
        }
        active = Some(next);
        refresh(&marks);
    }
    (own.into_par_iter())
        .with_min_len(4096)
        .map(|i| get(&mark[i]) == COARSE)
        .collect()
}

/// The rows of the distance-≤2 strength graph among C-points (`S²`) for
/// the C-points in `rows`: the coarse indices (`cf.cmap`) of the C-points
/// within two strength edges of each (`i → p` or `i → x → p`), self
/// excluded, each once, ascending. PMIS reads the pattern only, so every
/// value is 1.
pub fn distance_two_rows(s: &Csr, cf: &CfMap, rows: Range<usize>) -> Csr {
    let mut rowptr = vec![0];
    let mut colidx: Vec<Col> = Vec::new();
    let mut seen = vec![usize::MAX; cf.nc];
    for i in rows.filter(|&i| cf.is_coarse[i]) {
        let me = cf.cmap[i];
        seen[me] = me;
        let row_start = colidx.len();
        let mut push = |p: usize| {
            if cf.is_coarse[p] && seen[cf.cmap[p]] != me {
                seen[cf.cmap[p]] = me;
                colidx.push(Col::new(cf.cmap[p]));
            }
        };
        for j in s.col_iter(i) {
            push(j);
            s.col_iter(j).for_each(&mut push);
        }
        colidx[row_start..].sort_unstable();
        rowptr.push(colidx.len());
    }
    let values = vec![1.0; colidx.len()];
    Csr::from_parts_unchecked(rowptr.len() - 1, cf.nc, rowptr, colidx, values)
}

/// Aggressive coarsening: a second PMIS pass over the distance-≤2
/// strength graph restricted to the first pass's C-points. Produces a much
/// smaller coarse grid (the paper pairs it with long-range interpolation:
/// multipass or 2-stage extended+i). Returns both stages: the first-pass
/// PMIS splitting (needed by 2-stage extended+i interpolation) and the
/// final splitting (a subset of the first-pass C-points).
pub fn aggressive_pmis_stages(s: &Csr, seed: u64) -> (Coarsening, Coarsening) {
    let first = pmis(s, seed);
    let cf = CfMap::new(first.is_coarse.clone());
    let s2 = distance_two_rows(s, &cf, 0..s.nrows());
    let second = pmis(&s2, seed.wrapping_add(1));
    let is_coarse = (cf.is_coarse.iter().zip(&cf.cmap))
        .map(|(&c, &k)| c && second.is_coarse[k])
        .collect();
    (first, Coarsening::from_marker(is_coarse))
}

/// Validates the PMIS invariants for testing: (1) no two C-points are
/// strength-graph neighbours, and (2) every F-point with strong
/// dependencies has at least one C-point within distance `dist` in the
/// strength graph.
#[cfg(test)]
pub(crate) fn validate_cf(s: &Csr, c: &Coarsening, dist: usize) -> Result<(), String> {
    let n = s.nrows();
    let st = famg_sparse::transpose::transpose(s);
    // Independence over the symmetrized graph.
    for i in 0..n {
        if !c.is_coarse[i] {
            continue;
        }
        for j in s.col_iter(i).chain(st.col_iter(i)) {
            if c.is_coarse[j] {
                return Err(format!("C-points {i} and {j} are neighbours"));
            }
        }
    }
    // Coverage within `dist` hops along dependencies.
    for i in 0..n {
        if c.is_coarse[i] || s.row_nnz(i) == 0 {
            continue;
        }
        let mut frontier = vec![i];
        let mut found = false;
        'bfs: for _ in 0..dist {
            let mut next = Vec::new();
            for &u in &frontier {
                for v in s.col_iter(u) {
                    if c.is_coarse[v] {
                        found = true;
                        break 'bfs;
                    }
                    next.push(v);
                }
            }
            frontier = next;
        }
        if !found {
            return Err(format!("F-point {i} has no C-point within {dist} hops"));
        }
    }
    Ok(())
}

/// The final splitting of [`aggressive_pmis_stages`].
#[cfg(test)]
pub(crate) fn aggressive_pmis(s: &Csr, seed: u64) -> Coarsening {
    aggressive_pmis_stages(s, seed).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strength::strength;
    use famg_matgen::{laplace2d, laplace3d_27pt, laplace3d_7pt, reservoir_field, varcoef3d_7pt};
    use famg_sparse::transpose::transpose;

    /// The rounds of the module docs run on `S ∪ Sᵀ` formed explicitly:
    /// what [`pmis`] must select, written from the definition.
    fn pmis_by_definition(s: &Csr, seed: u64) -> Vec<bool> {
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            Undecided,
            Coarse,
            Fine,
        }
        let n = s.nrows();
        let st = transpose(s);
        let both = |i: usize| s.col_iter(i).chain(st.col_iter(i));
        let measure: Vec<f64> = (0..n)
            .map(|i| st.row_nnz(i) as f64 + uniform01(seed, i as u64))
            .collect();
        let mut state: Vec<State> = (0..n)
            .map(|i| match st.row_nnz(i) {
                0 => State::Fine,
                _ => State::Undecided,
            })
            .collect();
        loop {
            let undecided = |i: usize| state[i] == State::Undecided;
            let selected: Vec<usize> = (0..n)
                .filter(|&i| undecided(i))
                .filter(|&i| both(i).all(|j| !undecided(j) || measure[i] > measure[j]))
                .collect();
            if selected.is_empty() {
                break;
            }
            for &i in &selected {
                state[i] = State::Coarse;
            }
            let demoted: Vec<usize> = (0..n)
                .filter(|&i| state[i] == State::Undecided)
                .filter(|&i| both(i).any(|j| state[j] == State::Coarse))
                .collect();
            for &i in &demoted {
                state[i] = State::Fine;
            }
        }
        state.into_iter().map(|s| s == State::Coarse).collect()
    }

    /// What PMIS promises on any pattern: C is independent in `S ∪ Sᵀ` and
    /// maximal — an F-point somebody depends on has a C-point there.
    fn independent_and_maximal(s: &Csr, is_coarse: &[bool]) -> bool {
        let st = transpose(s);
        (0..s.nrows()).all(|i| {
            let mut both = s.col_iter(i).chain(st.col_iter(i));
            if is_coarse[i] {
                !both.any(|j| is_coarse[j])
            } else {
                st.row_nnz(i) == 0 || both.any(|j| is_coarse[j])
            }
        })
    }

    /// A seeded random asymmetric strength pattern on `n ≥ 8` points in
    /// which points 0 and 1 have out-edges only (nobody depends on them)
    /// and point 2 is isolated.
    fn asymmetric_pattern(n: usize, seed: u64) -> Csr {
        let mut trips = vec![(0, 3, -1.0), (0, 4, -1.0), (1, 3, -1.0)];
        for i in 3..n {
            for k in 0..4u64 {
                let j = 3 + (uniform01(seed, 4 * i as u64 + k) * (n - 3) as f64) as usize;
                if j != i && uniform01(seed ^ 0xA5, 4 * i as u64 + k) < 0.6 {
                    trips.push((i, j.min(n - 1), -1.0));
                }
            }
        }
        trips.sort_by_key(|t| (t.0, t.1));
        trips.dedup_by_key(|t| (t.0, t.1));
        Csr::from_triplets(n, n, trips)
    }

    #[test]
    fn pmis_is_its_definition() {
        let field = reservoir_field(10, 9, 8, 4, 2.0, 2, 2026);
        let asym = asymmetric_pattern(3000, 17);
        let st = transpose(&asym);
        assert!(asym.row_nnz(0) > 0 && st.row_nnz(0) == 0, "out-edges only");
        assert!(st.row_nnz(1) == 0, "a point nobody depends on");
        assert!(
            asym.row_nnz(2) == 0 && st.row_nnz(2) == 0,
            "an isolated point"
        );
        assert!((0..3000).any(|i| asym.col_iter(i).any(|j| asym.get(j, i).is_none())));
        let cases = [
            ("laplace2d", strength(&laplace2d(60, 50), 0.25, 0.8)),
            (
                "varcoef3d_7pt",
                strength(&varcoef3d_7pt(10, 9, 8, &field), 0.25, 0.8),
            ),
            (
                "laplace3d_27pt",
                strength(&laplace3d_27pt(12, 11, 10), 0.25, 0.8),
            ),
            ("asymmetric", asym),
        ];
        for (name, s) in &cases {
            for seed in [1, 7, 2026] {
                let c = pmis(s, seed);
                assert_eq!(
                    c.is_coarse,
                    pmis_by_definition(s, seed),
                    "{name}, seed {seed}"
                );
                assert!(c.ncoarse > 0, "{name}, seed {seed}");
                assert!(
                    independent_and_maximal(s, &c.is_coarse),
                    "{name}, seed {seed}"
                );
                // Coverage along `S` alone is a promise on the operators'
                // near-symmetric strength only: a point nobody depends on
                // starts as F whatever it depends on.
                if *name != "asymmetric" {
                    validate_cf(s, &c, 1).unwrap_or_else(|e| panic!("{name}, seed {seed}: {e}"));
                }
            }
        }
    }

    #[test]
    fn pmis_on_laplace2d_is_valid() {
        let a = laplace2d(20, 20);
        let s = strength(&a, 0.25, 0.8);
        let c = pmis(&s, 1);
        assert!(c.ncoarse > 0 && c.ncoarse < a.nrows());
        validate_cf(&s, &c, 1).unwrap();
    }

    #[test]
    fn pmis_coarsening_ratio_reasonable_2d() {
        // 5-point Laplacian: PMIS typically keeps ~1/4 of the points.
        let a = laplace2d(50, 50);
        let s = strength(&a, 0.25, 0.8);
        let c = pmis(&s, 2);
        let ratio = c.ncoarse as f64 / a.nrows() as f64;
        assert!(ratio > 0.1 && ratio < 0.5, "ratio {ratio}");
    }

    #[test]
    fn pmis_deterministic_per_seed() {
        let a = laplace3d_7pt(8, 8, 8);
        let s = strength(&a, 0.25, 0.8);
        let c1 = pmis(&s, 7);
        let c2 = pmis(&s, 7);
        assert_eq!(c1.is_coarse, c2.is_coarse);
        let c3 = pmis(&s, 8);
        assert_ne!(c1.is_coarse, c3.is_coarse);
    }

    #[test]
    fn isolated_points_become_fine() {
        // Empty strength matrix: every point isolated -> all F.
        let s = Csr::zero(5, 5);
        let c = pmis(&s, 1);
        assert_eq!(c.ncoarse, 0);
    }

    #[test]
    fn two_connected_points_one_coarse() {
        let s = Csr::from_triplets(2, 2, vec![(0, 1, -1.0), (1, 0, -1.0)]);
        let c = pmis(&s, 3);
        assert_eq!(c.ncoarse, 1);
    }

    #[test]
    fn aggressive_coarsens_harder() {
        let a = laplace2d(40, 40);
        let s = strength(&a, 0.25, 0.8);
        let std = pmis(&s, 5);
        let agg = aggressive_pmis(&s, 5);
        assert!(agg.ncoarse > 0);
        assert!(
            agg.ncoarse < std.ncoarse / 2,
            "aggressive {} vs standard {}",
            agg.ncoarse,
            std.ncoarse
        );
        // Aggressive C-points are a subset of the first-pass C-points.
        for i in 0..a.nrows() {
            if agg.is_coarse[i] {
                assert!(std.is_coarse[i]);
            }
        }
    }

    #[test]
    fn aggressive_coverage_within_distance_four() {
        // Aggressive PMIS guarantees every F-point reaches a C-point
        // within ~2 first-pass hops each of which is ≤2 strength edges.
        let a = laplace2d(30, 30);
        let s = strength(&a, 0.25, 0.8);
        let agg = aggressive_pmis(&s, 9);
        validate_cf(&s, &agg, 4).unwrap_or_else(|e| panic!("{e}"));
    }

    /// A round that selects nothing ends the rounds: two neighbours whose
    /// measures tie flag each other, and both stay F.
    #[test]
    fn a_round_that_selects_nothing_ends_the_rounds() {
        let s = Csr::from_triplets(2, 2, vec![(0, 1, -1.0), (1, 0, -1.0)]);
        let more = |sel: bool, und: bool| sel && und;
        let c = pmis_rounds(&s, 0..2, &[1.5, 1.5], |_| {}, more);
        assert_eq!(c, [false, false]);
    }

    #[test]
    fn directed_strength_handled() {
        // Asymmetric strength: 0 depends on 1 but not vice versa.
        let s = Csr::from_triplets(3, 3, vec![(0, 1, -1.0), (2, 1, -1.0)]);
        let c = pmis(&s, 11);
        // Point 1 is depended on by 0 and 2 -> highest measure -> C.
        assert!(c.is_coarse[1]);
        assert!(!c.is_coarse[0]);
        assert!(!c.is_coarse[2]);
    }
}
