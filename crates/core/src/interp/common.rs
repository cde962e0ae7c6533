//! Shared interpolation plumbing: CF index maps and truncation.

use famg_sparse::{Col, Csr};

/// C/F splitting with the coarse-index map used to number `P`'s columns.
#[derive(Debug, Clone)]
pub struct CfMap {
    /// `true` for C-points.
    pub is_coarse: Vec<bool>,
    /// Point -> coarse column index (`usize::MAX` for F-points).
    pub cmap: Vec<usize>,
    /// Number of C-points.
    pub nc: usize,
}

impl CfMap {
    /// Builds the map; coarse columns are numbered in point order.
    pub fn new(is_coarse: Vec<bool>) -> Self {
        let mut cmap = vec![usize::MAX; is_coarse.len()];
        let mut nc = 0usize;
        for (i, &c) in is_coarse.iter().enumerate() {
            if c {
                cmap[i] = nc;
                nc += 1;
            }
        }
        CfMap {
            is_coarse,
            cmap,
            nc,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.is_coarse.len()
    }

    /// True when there are no points.
    pub fn is_empty(&self) -> bool {
        self.is_coarse.is_empty()
    }
}

/// Interpolation truncation parameters (Table 3: `trunc_fact = 0.1`,
/// `max_elmts = 4`).
#[derive(Debug, Clone, Copy)]
pub struct TruncParams {
    /// Relative magnitude threshold: entries below `factor * max|row|`
    /// are dropped.
    pub factor: f64,
    /// Keep at most this many entries per row (0 = unlimited).
    pub max_elements: usize,
}

impl TruncParams {
    /// The paper's `ei(4)` truncation.
    pub fn paper() -> Self {
        TruncParams {
            factor: 0.1,
            max_elements: 4,
        }
    }
}

/// Truncates one interpolation row in place: drops entries below
/// `factor * max|row|`, keeps at most `max_elements` largest-magnitude
/// entries (ties go to the smaller column), and rescales the survivors so
/// the row sum is preserved (constant vectors stay exactly interpolated).
///
/// Survivors keep their relative order and the buffers keep their
/// capacity: the interpolation builders call this once per row inside
/// their parallel loops, where a heap allocation per row serialises the
/// pool threads on the allocator.
pub fn truncate_row(cols: &mut Vec<usize>, vals: &mut Vec<f64>, p: &TruncParams) {
    if cols.is_empty() {
        return;
    }
    let sum_before: f64 = vals.iter().sum();
    let max_abs = vals.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let thr = p.factor * max_abs;
    retain_in_order(cols, vals, |_, _, v| v.abs() >= thr);
    if p.max_elements > 0 && cols.len() > p.max_elements {
        let cut = nth_rank(cols, vals, p.max_elements);
        retain_in_order(cols, vals, |i, c, v| rank(i, c, v) <= cut);
    }
    // Rescale to preserve the row sum.
    let sum_after: f64 = vals.iter().sum();
    if sum_after != 0.0 && sum_before != 0.0 {
        let scale = sum_before / sum_after;
        for v in vals.iter_mut() {
            *v *= scale;
        }
    }
}

/// Keep order under `max_elements`, as a key that sorts ascending: larger
/// magnitude first, then smaller column, then earlier position. The bit
/// pattern of a non-negative float orders like the float (and puts NaN
/// above infinity), so this is a strict total order on any input and the
/// kept set is unique.
type Rank = (std::cmp::Reverse<u64>, usize, usize);

fn rank(at: usize, col: usize, val: f64) -> Rank {
    (std::cmp::Reverse(val.abs().to_bits()), col, at)
}

/// The `m`-th entry (`m ≥ 1`) of a row longer than `m`, in keep order: one
/// scan that keeps the `m` smallest ranks seen in an ascending insertion
/// buffer on the stack, or above `STACK_RANKS` repeated selection (each
/// round the first entry strictly after the previous pick). No allocation.
fn nth_rank(cols: &[usize], vals: &[f64], m: usize) -> Rank {
    const STACK_RANKS: usize = 8;
    let ranks = || (0..cols.len()).map(|i| rank(i, cols[i], vals[i]));
    if m > STACK_RANKS {
        let mut cut: Option<Rank> = None;
        for _ in 0..m {
            cut = ranks().filter(|r| cut.is_none_or(|prev| prev < *r)).min();
        }
        return cut.expect("len > m: every round finds an entry");
    }
    // Above every rank of an entry: no position is `usize::MAX`.
    let mut best = [(std::cmp::Reverse(0), usize::MAX, usize::MAX); STACK_RANKS];
    for r in ranks() {
        let mut k = m - 1;
        if r > best[k] {
            continue;
        }
        while k > 0 && best[k - 1] > r {
            best[k] = best[k - 1];
            k -= 1;
        }
        best[k] = r;
    }
    best[m - 1]
}

/// Compacts the entries for which `keep(position, col, val)` holds to the
/// front, in order, and shortens both buffers to them.
fn retain_in_order(
    cols: &mut Vec<usize>,
    vals: &mut Vec<f64>,
    keep: impl Fn(usize, usize, f64) -> bool,
) {
    let mut k = 0usize;
    for i in 0..cols.len() {
        if keep(i, cols[i], vals[i]) {
            cols[k] = cols[i];
            vals[k] = vals[i];
            k += 1;
        }
    }
    cols.truncate(k);
    vals.truncate(k);
}

/// Truncates a whole interpolation matrix (the baseline, non-fused path:
/// the operator is materialized first and truncated afterwards).
pub fn truncate_matrix(p: &Csr, params: &TruncParams) -> Csr {
    let n = p.nrows();
    let mut rowptr = Vec::with_capacity(n + 1);
    let mut colidx = Vec::new();
    let mut values = Vec::new();
    rowptr.push(0);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for i in 0..n {
        cols.clear();
        vals.clear();
        cols.extend(p.col_iter(i));
        vals.extend_from_slice(p.row_vals(i));
        truncate_row(&mut cols, &mut vals, params);
        colidx.extend(cols.iter().map(|&c| Col::new(c)));
        values.extend_from_slice(&vals);
        rowptr.push(colidx.len());
    }
    Csr::from_parts_unchecked(n, p.ncols(), rowptr, colidx, values)
}

/// Shared row-assembly buffer for interpolation builders.
pub(crate) struct RowBuilder {
    pub rowptr: Vec<usize>,
    pub colidx: Vec<Col>,
    pub values: Vec<f64>,
}

impl RowBuilder {
    pub fn new(n: usize) -> Self {
        let mut rowptr = Vec::with_capacity(n + 1);
        rowptr.push(0);
        RowBuilder {
            rowptr,
            colidx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Pushes a completed row, optionally truncating it first (the
    /// paper's fused truncation).
    pub fn push_row(
        &mut self,
        cols: &mut Vec<usize>,
        vals: &mut Vec<f64>,
        trunc: Option<&TruncParams>,
    ) {
        if let Some(t) = trunc {
            truncate_row(cols, vals, t);
        }
        self.colidx.extend(cols.iter().map(|&c| Col::new(c)));
        self.values.extend_from_slice(vals);
        self.rowptr.push(self.colidx.len());
        cols.clear();
        vals.clear();
    }

    pub fn finish(self, nc: usize) -> Csr {
        let n = self.rowptr.len() - 1;
        Csr::from_parts_unchecked(n, nc, self.rowptr, self.colidx, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfmap_numbers_coarse_points() {
        let m = CfMap::new(vec![true, false, true, true, false]);
        assert_eq!(m.nc, 3);
        assert_eq!(m.cmap, vec![0, usize::MAX, 1, 2, usize::MAX]);
    }

    #[test]
    fn truncate_drops_small_and_rescales() {
        let mut cols = vec![0, 1, 2, 3];
        let mut vals = vec![0.5, 0.01, 0.3, 0.2]; // sum = 1.01
        truncate_row(
            &mut cols,
            &mut vals,
            &TruncParams {
                factor: 0.1,
                max_elements: 0,
            },
        );
        assert_eq!(cols, vec![0, 2, 3]);
        let sum: f64 = vals.iter().sum();
        assert!((sum - 1.01).abs() < 1e-14);
    }

    #[test]
    fn truncate_caps_max_elements() {
        let mut cols = vec![0, 1, 2, 3, 4, 5];
        let mut vals = vec![0.6, 0.5, 0.4, 0.3, 0.2, 0.1];
        truncate_row(
            &mut cols,
            &mut vals,
            &TruncParams {
                factor: 0.0,
                max_elements: 4,
            },
        );
        assert_eq!(cols, vec![0, 1, 2, 3]);
        let sum: f64 = vals.iter().sum();
        assert!((sum - 2.1).abs() < 1e-12); // original sum preserved
    }

    #[test]
    fn truncate_preserves_negative_weights() {
        let mut cols = vec![0, 1, 2];
        let mut vals = vec![-0.5, -0.4, -0.001];
        truncate_row(&mut cols, &mut vals, &TruncParams::paper());
        assert_eq!(cols, vec![0, 1]);
        let sum: f64 = vals.iter().sum();
        assert!((sum + 0.901).abs() < 1e-12);
    }

    #[test]
    fn truncate_empty_and_none() {
        let mut cols: Vec<usize> = vec![];
        let mut vals: Vec<f64> = vec![];
        truncate_row(&mut cols, &mut vals, &TruncParams::paper());
        assert!(cols.is_empty());

        let mut cols = vec![0, 1];
        let mut vals = vec![0.9, 0.1];
        let none = TruncParams {
            factor: 0.0,
            max_elements: 0,
        };
        truncate_row(&mut cols, &mut vals, &none);
        assert_eq!(cols.len(), 2);
    }

    #[test]
    fn matrix_truncation_matches_rowwise() {
        let p = Csr::from_triplets(
            2,
            3,
            vec![(0, 0, 0.7), (0, 1, 0.02), (0, 2, 0.3), (1, 1, 1.0)],
        );
        let t = truncate_matrix(&p, &TruncParams::paper());
        assert_eq!(t.row_nnz(0), 2);
        assert_eq!(t.row_nnz(1), 1);
        let sum: f64 = t.row_vals(0).iter().sum();
        assert!((sum - 1.02).abs() < 1e-14);
    }
}
