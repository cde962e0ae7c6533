//! A reference AMG written straight from the definitions, for the suites
//! to pin the library against: dense matrices, strength graphs as sets,
//! one function per step, and no code shared with the library except the
//! PMIS random weights ([`uniform01`]), which are part of the splitting's
//! definition.
//!
//! Setup: classical strength with `max_row_sum` ([`strength`]), PMIS
//! ([`pmis`]), extended+i by Eq. 1 ([`extended_i`]) truncated as
//! [`truncate_spec`] states it, the Galerkin product ([`galerkin`]) and a
//! dense LU solve that refuses a singular operator ([`lu_solve`]);
//! [`hierarchy`] chains them. Solve: a CF-ordered sequential Gauss-Seidel
//! ([`gauss_seidel`]), the V-cycle ([`vcycle`]), standalone AMG
//! ([`amg_iterations`]) and AMG-preconditioned CG ([`pcg_iterations`]).

use famg::core::interp::TruncParams;
use famg::core::rng::uniform01;
use famg::core::AmgConfig;
use famg::sparse::Csr;
use std::collections::BTreeSet;

/// A dense matrix, row by row.
pub type Dense = Vec<Vec<f64>>;
/// A strength graph: row `i` holds the points `i` strongly depends on.
pub type Graph = Vec<BTreeSet<usize>>;
/// Sparse rows: `(column, value)` pairs, columns ascending.
pub type Rows = Vec<Vec<(usize, f64)>>;

/// `a` as a dense matrix, after checking that it is a well-formed one:
/// every column in range, no column twice in a row, every value finite.
pub fn dense(a: &Csr) -> Dense {
    let mut d = vec![vec![0.0; a.ncols()]; a.nrows()];
    for (i, row) in d.iter_mut().enumerate() {
        let mut seen = BTreeSet::new();
        for (j, v) in a.row_iter(i) {
            assert!(j < a.ncols(), "row {i}: column {j} out of range");
            assert!(seen.insert(j), "row {i}: column {j} stored twice");
            assert!(v.is_finite(), "row {i}, column {j}: value {v}");
            row[j] = v;
        }
    }
    d
}

/// The pattern of `a` as a graph (well-formed as [`dense`] checks it).
pub fn pattern(a: &Csr) -> Graph {
    (0..a.nrows())
        .map(|i| {
            let mut row = BTreeSet::new();
            for j in a.col_iter(i) {
                assert!(j < a.ncols(), "row {i}: column {j} out of range");
                assert!(row.insert(j), "row {i}: column {j} stored twice");
            }
            row
        })
        .collect()
}

/// `Sᵀ`: row `i` holds the points that depend on `i`.
pub fn transpose(s: &Graph) -> Graph {
    let mut t = vec![BTreeSet::new(); s.len()];
    for (i, row) in s.iter().enumerate() {
        for &j in row {
            t[j].insert(i);
        }
    }
    t
}

/// Classical strength: `j` strongly influences `i` iff
/// `-a_ij >= θ · max_{k≠i}(-a_ik)`; a row without a negative off-diagonal,
/// or whose `|Σ_j a_ij / a_ii|` exceeds `max_row_sum`, has no strong
/// connections.
pub fn strength(a: &Dense, theta: f64, max_row_sum: f64) -> Graph {
    (0..a.len())
        .map(|i| {
            let off = (0..a.len()).filter(|&k| k != i);
            let max_off = off.clone().map(|k| -a[i][k]).fold(0.0f64, f64::max);
            let row_sum: f64 = a[i].iter().sum();
            let diag = a[i][i];
            if max_off <= 0.0 || (diag != 0.0 && (row_sum / diag).abs() > max_row_sum) {
                return BTreeSet::new();
            }
            off.filter(|&k| -a[i][k] >= theta * max_off).collect()
        })
        .collect()
}

/// PMIS as `famg::core::coarsen` states it: `measure(i) = |Sᵀ_i| +
/// uniform01(seed, i)`, points nobody depends on F from the start; a round
/// selects every undecided point whose measure strictly beats each
/// undecided neighbour's in `S_i ∪ Sᵀ_i`, then demotes every undecided
/// point with a C neighbour there, until a round selects nothing.
pub fn pmis(s: &Graph, seed: u64) -> Vec<bool> {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Undecided,
        Coarse,
        Fine,
    }
    let n = s.len();
    let st = transpose(s);
    let both: Vec<Vec<usize>> = (0..n)
        .map(|i| s[i].union(&st[i]).copied().collect())
        .collect();
    let measure: Vec<f64> = (0..n)
        .map(|i| st[i].len() as f64 + uniform01(seed, i as u64))
        .collect();
    let mut state: Vec<State> = (0..n)
        .map(|i| match st[i].len() {
            0 => State::Fine,
            _ => State::Undecided,
        })
        .collect();
    loop {
        let undecided = |state: &[State], i: usize| state[i] == State::Undecided;
        let selected: Vec<usize> = (0..n)
            .filter(|&i| undecided(&state, i))
            .filter(|&i| {
                both[i]
                    .iter()
                    .all(|&j| !undecided(&state, j) || measure[i] > measure[j])
            })
            .collect();
        if selected.is_empty() {
            break;
        }
        for &i in &selected {
            state[i] = State::Coarse;
        }
        let demoted: Vec<usize> = (0..n)
            .filter(|&i| undecided(&state, i))
            .filter(|&i| both[i].iter().any(|&j| state[j] == State::Coarse))
            .collect();
        for i in demoted {
            state[i] = State::Fine;
        }
    }
    state.into_iter().map(|s| s == State::Coarse).collect()
}

/// The coarse index of every point: C-points numbered in point order.
pub fn coarse_index(is_coarse: &[bool]) -> Vec<usize> {
    let mut next = 0;
    is_coarse
        .iter()
        .map(|&c| {
            next += usize::from(c);
            next - usize::from(c)
        })
        .collect()
}

/// How often the inputs of [`extended_i`] hit each guarded corner case.
#[derive(Default)]
pub struct Eq1Coverage {
    pub lumped_bik: usize,
    pub empty_chat: usize,
    pub zero_atilde: usize,
    pub missing_aki: usize,
    pub same_sign_coarse: usize,
}

/// Extended+i interpolation, Eq. 1 evaluated from its definitions with the
/// neighbour sets as `BTreeSet`s. Row `i` lists its entries over `Ĉ_i` by
/// coarse index (a C-point's row is its unit row); a row with an empty
/// `Ĉ_i` or a zero `ã_ii` is empty.
pub fn extended_i(a: &Dense, s: &Graph, is_coarse: &[bool], cov: &mut Eq1Coverage) -> Rows {
    let n = a.len();
    let cmap = coarse_index(is_coarse);
    let at = |i: usize, j: usize| a[i][j];
    let stored = |i: usize, j: usize| a[i][j] != 0.0;
    // ā_kl: a_kl where it opposes the sign of a_kk, else 0.
    let abar = |k: usize, l: usize| {
        if at(k, l) * at(k, k) < 0.0 {
            at(k, l)
        } else {
            0.0
        }
    };
    let coarse = |set: &BTreeSet<usize>| -> BTreeSet<usize> {
        set.iter().copied().filter(|&j| is_coarse[j]).collect()
    };
    let mut p = vec![Vec::new(); n];
    for i in 0..n {
        if is_coarse[i] {
            p[i].push((cmap[i], 1.0));
            continue;
        }
        let s_i = &s[i];
        let f_i: BTreeSet<usize> = s_i.iter().copied().filter(|&j| !is_coarse[j]).collect();
        let mut chat = coarse(s_i);
        for &k in &f_i {
            chat.extend(coarse(&s[k]));
        }
        if chat.is_empty() {
            cov.empty_chat += 1;
            continue;
        }
        let b = |k: usize| chat.iter().map(|&l| abar(k, l)).sum::<f64>() + abar(k, i);
        // ã_ii: diagonal, weak neighbours outside Ĉ_i, the distributed
        // share that returns to i, and a_ik itself where b_ik = 0.
        let mut atilde = at(i, i);
        for nbr in (0..n).filter(|&j| j != i && stored(i, j)) {
            if !chat.contains(&nbr) && !s_i.contains(&nbr) {
                atilde += at(i, nbr);
            }
        }
        for &k in &f_i {
            if !stored(k, i) {
                cov.missing_aki += 1;
            }
            cov.same_sign_coarse += chat
                .iter()
                .filter(|&&l| stored(k, l) && abar(k, l) == 0.0)
                .count();
            if b(k) == 0.0 {
                cov.lumped_bik += 1;
                atilde += at(i, k);
            } else {
                atilde += at(i, k) * abar(k, i) / b(k);
            }
        }
        if atilde == 0.0 {
            cov.zero_atilde += 1;
            continue;
        }
        for &j in &chat {
            let through: f64 = f_i
                .iter()
                .filter(|&&k| b(k) != 0.0)
                .map(|&k| at(i, k) * abar(k, j) / b(k))
                .sum();
            p[i].push((cmap[j], -(at(i, j) + through) / atilde));
        }
    }
    p
}

/// `truncate_row` as its documentation states it, written the obvious way:
/// threshold, sort an index list by (|w| descending, column ascending),
/// keep the first `max_elements`, restore the original order, rescale.
pub fn truncate_spec(cols: &[usize], vals: &[f64], p: &TruncParams) -> (Vec<usize>, Vec<f64>) {
    let max_abs = vals.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let mut kept: Vec<usize> = (0..cols.len())
        .filter(|&i| vals[i].abs() >= p.factor * max_abs)
        .collect();
    if p.max_elements > 0 && kept.len() > p.max_elements {
        kept.sort_by(|&x, &y| {
            (vals[y].abs().total_cmp(&vals[x].abs())).then(cols[x].cmp(&cols[y]))
        });
        kept.truncate(p.max_elements);
        kept.sort_unstable();
    }
    rescaled(cols, vals, &kept)
}

/// The entries `kept` of a row, scaled so the row keeps its sum.
pub fn rescaled(cols: &[usize], vals: &[f64], kept: &[usize]) -> (Vec<usize>, Vec<f64>) {
    let before: f64 = vals.iter().sum();
    let after: f64 = kept.iter().map(|&i| vals[i]).sum();
    let scale = if before != 0.0 && after != 0.0 {
        before / after
    } else {
        1.0
    };
    (
        kept.iter().map(|&i| cols[i]).collect(),
        kept.iter().map(|&i| vals[i] * scale).collect(),
    )
}

/// `rows` truncated row by row and written out densely with `nc` columns.
pub fn truncated(rows: &Rows, nc: usize, t: &TruncParams) -> Dense {
    rows.iter()
        .map(|row| {
            let (cols, vals): (Vec<usize>, Vec<f64>) = row.iter().copied().unzip();
            let (cols, vals) = truncate_spec(&cols, &vals, t);
            let mut out = vec![0.0; nc];
            cols.iter().zip(vals).for_each(|(&c, v)| out[c] = v);
            out
        })
        .collect()
}

/// `rows` written out densely with `nc` columns.
pub fn to_dense(rows: &Rows, nc: usize) -> Dense {
    rows.iter()
        .map(|row| {
            let mut out = vec![0.0; nc];
            row.iter().for_each(|&(c, v)| out[c] = v);
            out
        })
        .collect()
}

/// Asserts that `got` is `rows` truncated by `t`, each weight to 1e-12 of
/// its row's largest. Where `got` keeps another set, every swapped weight
/// must tie with the others to 1e-12 in the reference (or with the
/// threshold, when only one side has any), and the row is then compared
/// with the reference weights rescaled over `got`'s set. Returns the
/// number of rows that tied.
pub fn assert_interp(got: &Dense, rows: &Rows, t: &TruncParams, what: &str) -> usize {
    assert_eq!(got.len(), rows.len(), "{what}: rows of P");
    let mut ties = 0;
    for (i, (got, row)) in got.iter().zip(rows).enumerate() {
        let (cols, vals): (Vec<usize>, Vec<f64>) = row.iter().copied().unzip();
        let scale = vals.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let tol = 1e-12 * scale.max(f64::MIN_POSITIVE);
        let (mut want_cols, mut want_vals) = truncate_spec(&cols, &vals, t);
        let kept: BTreeSet<usize> = (0..got.len()).filter(|&c| got[c] != 0.0).collect();
        let want: BTreeSet<usize> = (want_cols.iter().zip(&want_vals))
            .filter(|e| *e.1 != 0.0)
            .map(|e| *e.0)
            .collect();
        if kept != want {
            let weight = |c: &usize| match cols.iter().position(|x| x == c) {
                Some(k) => vals[k].abs(),
                None => panic!("{what}: row {i} of P has column {c}, outside Ĉ_i"),
            };
            let swapped: Vec<f64> = kept.symmetric_difference(&want).map(weight).collect();
            let (lo, hi) = swapped
                .iter()
                .fold((f64::INFINITY, 0.0f64), |(lo, hi), &w| {
                    (lo.min(w), hi.max(w))
                });
            let one_sided = kept.is_subset(&want) || want.is_subset(&kept);
            let cut = if one_sided { t.factor * scale } else { lo };
            assert!(
                hi - lo <= tol && (hi - cut).abs() <= tol,
                "{what}: row {i} of P keeps columns {kept:?}, the reference {want:?} \
                 (weights {row:?})"
            );
            ties += 1;
            let at: Vec<usize> = (0..cols.len())
                .filter(|&k| kept.contains(&cols[k]))
                .collect();
            (want_cols, want_vals) = rescaled(&cols, &vals, &at);
        }
        let mut expect = vec![0.0; got.len()];
        want_cols
            .iter()
            .zip(want_vals)
            .for_each(|(&c, v)| expect[c] = v);
        for (c, (g, w)) in got.iter().zip(&expect).enumerate() {
            assert!(
                (g - w).abs() <= tol,
                "{what}: P[{i}, {c}] = {g}, the reference gives {w}"
            );
        }
    }
    ties
}

/// Asserts that `got` and `want` have one shape and agree entry by entry
/// to `rel` of the largest entry of the row in `want`.
pub fn assert_close(got: &Dense, want: &Dense, rel: f64, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: rows");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{what}: columns of row {i}");
        let scale = w.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (j, (x, y)) in g.iter().zip(w).enumerate() {
            assert!(
                (x - y).abs() <= rel * scale,
                "{what}: [{i}, {j}] = {x}, the reference gives {y}"
            );
        }
    }
}

/// Asserts that no two C-points are neighbours in `S ∪ Sᵀ`.
pub fn assert_independent(s: &Graph, is_coarse: &[bool], what: &str) {
    for (i, row) in s.iter().enumerate() {
        for &j in row {
            assert!(
                !(is_coarse[i] && is_coarse[j]),
                "{what}: C-points {i} and {j} are strength neighbours"
            );
        }
    }
}

/// Asserts that the row of every C-point of `p` is its unit row.
pub fn assert_unit_coarse_rows(p: &Dense, is_coarse: &[bool], what: &str) {
    let cmap = coarse_index(is_coarse);
    for (i, row) in p.iter().enumerate().filter(|e| is_coarse[e.0]) {
        for (c, &v) in row.iter().enumerate() {
            let unit = if c == cmap[i] { 1.0 } else { 0.0 };
            assert!(v == unit, "{what}: P[{i}, {c}] = {v} on a C-point");
        }
    }
}

/// The Galerkin product `Pᵀ A P`.
pub fn galerkin(p: &Dense, a: &Dense) -> Dense {
    let nc = p.first().map_or(0, Vec::len);
    let ap: Dense = a
        .iter()
        .map(|row| {
            let mut out = vec![0.0; nc];
            for (k, &aik) in row.iter().enumerate().filter(|e| *e.1 != 0.0) {
                out.iter_mut()
                    .zip(&p[k])
                    .for_each(|(o, pkj)| *o += aik * pkj);
            }
            out
        })
        .collect();
    let mut c = vec![vec![0.0; nc]; nc];
    for (prow, aprow) in p.iter().zip(&ap) {
        for (r, &pir) in prow.iter().enumerate().filter(|e| *e.1 != 0.0) {
            c[r].iter_mut().zip(aprow).for_each(|(o, v)| *o += pir * v);
        }
    }
    c
}

/// `A x = b` by Gaussian elimination with partial pivoting, or `None` when
/// `A` is singular to working precision: a pivot at or below 1e-10 times
/// the largest entry of the row it stands in, as that row was given. With
/// every row divided by its largest entry, that is a pivot at or below
/// 1e-10 in a matrix whose entries are at most 1, where rounding leaves
/// about `n·ε` (ε = 2.2e-16) times the elimination's growth on a pivot
/// that is 0 exactly.
pub fn lu_solve(a: &Dense, b: &[f64]) -> Option<Vec<f64>> {
    let n = a.len();
    let mut scale: Vec<f64> = a
        .iter()
        .map(|r| r.iter().fold(0.0f64, |m, v| m.max(v.abs())))
        .collect();
    let mut m: Dense = a.clone();
    let mut x = b.to_vec();
    for col in 0..n {
        let piv = (col..n)
            .max_by(|&i, &j| m[i][col].abs().total_cmp(&m[j][col].abs()))
            .expect("a row below the diagonal");
        if m[piv][col].abs() <= 1e-10 * scale[piv] {
            return None;
        }
        scale.swap(col, piv);
        m.swap(col, piv);
        x.swap(col, piv);
        for i in col + 1..n {
            let f = m[i][col] / m[col][col];
            for j in col..n {
                m[i][j] -= f * m[col][j];
            }
            x[i] -= f * x[col];
        }
    }
    for i in (0..n).rev() {
        let s: f64 = (i + 1..n).map(|j| m[i][j] * x[j]).sum();
        x[i] = (x[i] - s) / m[i][i];
    }
    Some(x)
}

/// One level of [`hierarchy`]: its operator and, above the coarsest, its
/// C/F splitting and interpolation.
pub struct Level {
    pub a: Dense,
    pub is_coarse: Vec<bool>,
    pub p: Dense,
}

/// The setup for PMIS and extended+i on every level (the configuration's
/// coarsening and interpolation kinds are not read): levels stop at
/// `coarse_solve_size` rows, at `max_levels`, or where PMIS selects none
/// or all points.
pub fn hierarchy(a: Dense, cfg: &AmgConfig) -> Vec<Level> {
    let t = TruncParams {
        factor: cfg.trunc_factor,
        max_elements: cfg.max_elements,
    };
    let mut levels = Vec::new();
    let mut a = a;
    loop {
        let n = a.len();
        let idx = levels.len();
        if n <= cfg.coarse_solve_size || idx + 1 >= cfg.max_levels {
            break;
        }
        let s = strength(&a, cfg.strength_threshold, cfg.max_row_sum);
        let is_coarse = pmis(&s, cfg.seed.wrapping_add(idx as u64));
        let nc = is_coarse.iter().filter(|&&c| c).count();
        if nc == 0 || nc == n {
            break;
        }
        let rows = extended_i(&a, &s, &is_coarse, &mut Eq1Coverage::default());
        let p = truncated(&rows, nc, &t);
        let next = galerkin(&p, &a);
        levels.push(Level { a, is_coarse, p });
        a = next;
    }
    levels.push(Level {
        a,
        is_coarse: Vec::new(),
        p: Vec::new(),
    });
    levels
}

/// `b - A x`.
pub fn residual(a: &Dense, b: &[f64], x: &[f64]) -> Vec<f64> {
    a.iter()
        .zip(b)
        .map(|(row, bi)| bi - row.iter().zip(x).map(|(aij, xj)| aij * xj).sum::<f64>())
        .collect()
}

pub fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// One sequential Gauss-Seidel pass over the points `order`, in that order.
pub fn gauss_seidel(a: &Dense, b: &[f64], x: &mut [f64], order: impl Iterator<Item = usize>) {
    for i in order {
        let off: f64 = (0..a.len())
            .filter(|&j| j != i)
            .map(|j| a[i][j] * x[j])
            .sum();
        x[i] = (b[i] - off) / a[i][i];
    }
}

/// The points of class `coarse`, ascending.
fn class(is_coarse: &[bool], coarse: bool) -> impl Iterator<Item = usize> + '_ {
    (0..is_coarse.len()).filter(move |&i| is_coarse[i] == coarse)
}

/// One V-cycle on level `l` of `levels`: C-then-F Gauss-Seidel before the
/// coarse-grid correction, F-then-C after it, `sweeps` passes each; the
/// coarsest level is solved by LU when it has at most `coarse_solve_size`
/// rows and is nonsingular, and smoothed `4 · sweeps` times otherwise.
pub fn vcycle(levels: &[Level], l: usize, cfg: &AmgConfig, b: &[f64], x: &mut [f64]) {
    let lvl = &levels[l];
    if l + 1 == levels.len() {
        if lvl.a.len() <= cfg.coarse_solve_size {
            if let Some(sol) = lu_solve(&lvl.a, b) {
                x.copy_from_slice(&sol);
                return;
            }
        }
        for _ in 0..4 * cfg.num_sweeps {
            gauss_seidel(&lvl.a, b, x, 0..b.len());
        }
        return;
    }
    for _ in 0..cfg.num_sweeps {
        gauss_seidel(&lvl.a, b, x, class(&lvl.is_coarse, true));
        gauss_seidel(&lvl.a, b, x, class(&lvl.is_coarse, false));
    }
    let r = residual(&lvl.a, b, x);
    let nc = lvl.p.first().map_or(0, Vec::len);
    let mut bc = vec![0.0; nc];
    for (prow, ri) in lvl.p.iter().zip(&r) {
        bc.iter_mut().zip(prow).for_each(|(o, pij)| *o += pij * ri);
    }
    let mut xc = vec![0.0; nc];
    vcycle(levels, l + 1, cfg, &bc, &mut xc);
    for (xi, prow) in x.iter_mut().zip(&lvl.p) {
        *xi += prow.iter().zip(&xc).map(|(p, c)| p * c).sum::<f64>();
    }
    for _ in 0..cfg.num_sweeps {
        gauss_seidel(&lvl.a, b, x, class(&lvl.is_coarse, false));
        gauss_seidel(&lvl.a, b, x, class(&lvl.is_coarse, true));
    }
}

/// Standalone AMG from a zero guess: V-cycles until `‖b − Ax‖ / ‖b‖` is
/// at most the tolerance; returns how many it took.
pub fn amg_iterations(levels: &[Level], cfg: &AmgConfig, b: &[f64]) -> usize {
    let a = &levels[0].a;
    let mut x = vec![0.0; b.len()];
    let mut it = 0;
    while norm(&residual(a, b, &x)) / norm(b) > cfg.tolerance && it < cfg.max_iterations {
        vcycle(levels, 0, cfg, b, &mut x);
        it += 1;
    }
    it
}

/// CG preconditioned by one V-cycle from a zero guess, from `x = 0`,
/// until the recurrence residual reaches `tolerance` relative to `‖b‖`;
/// returns the iteration count.
pub fn pcg_iterations(
    levels: &[Level],
    cfg: &AmgConfig,
    b: &[f64],
    tolerance: f64,
    max_iterations: usize,
) -> usize {
    let a = &levels[0].a;
    let dot = |u: &[f64], v: &[f64]| u.iter().zip(v).map(|(x, y)| x * y).sum::<f64>();
    let precond = |r: &[f64]| {
        let mut z = vec![0.0; r.len()];
        vcycle(levels, 0, cfg, r, &mut z);
        z
    };
    let mut x = vec![0.0; b.len()];
    let mut r = residual(a, b, &x);
    let mut z = precond(&r);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut it = 0;
    while norm(&r) / norm(b) > tolerance && it < max_iterations {
        let ap: Vec<f64> = a.iter().map(|row| dot(row, &p)).collect();
        let alpha = rz / dot(&p, &ap);
        x.iter_mut().zip(&p).for_each(|(xi, pi)| *xi += alpha * pi);
        r.iter_mut()
            .zip(&ap)
            .for_each(|(ri, api)| *ri -= alpha * api);
        z = precond(&r);
        let rz_new = dot(&r, &z);
        p.iter_mut()
            .zip(&z)
            .for_each(|(pi, zi)| *pi = zi + rz_new / rz * *pi);
        rz = rz_new;
        it += 1;
    }
    it
}
