//! Timing and complexity statistics matching the paper's reporting.
//!
//! [`PhaseTimes`] buckets match the Fig. 5 legend: `Strength+Coarsen`,
//! `Interp`, `RAP`, `Setup_etc` for the setup phase; `GS`, `SpMV`,
//! `BLAS1`, `Solve_etc` for the solve phase. [`SetupStats`] reports the
//! operator and grid complexities that the paper uses to argue the
//! fairness of its comparisons (§5.1.1).
//!
//! Since the famg-prof integration the buckets are a *view* over the
//! span tree recorded during setup/solve ([`PhaseTimes::from_span`]),
//! not an independently maintained tally: each span's **self** time
//! (wall minus children) is attributed to exactly one bucket, so the
//! bucket sums reconstruct the root span's wall time and nested spans
//! can never double-count.

use famg_prof::SpanNode;
use std::time::Duration;

/// Wall-clock time per component, in the paper's Fig. 5 categories.
#[derive(Debug, Default, Clone)]
pub struct PhaseTimes {
    /// Strength matrix creation + PMIS coarsening.
    pub strength_coarsen: Duration,
    /// Interpolation operator construction.
    pub interp: Duration,
    /// Galerkin triple product.
    pub rap: Duration,
    /// Other setup work (permutations, smoother setup, transposes, ...).
    pub setup_etc: Duration,
    /// Gauss-Seidel (or other) smoothing.
    pub gs: Duration,
    /// Interpolation/restriction and residual SpMVs.
    pub spmv: Duration,
    /// Vector ops: dots, axpys, norms.
    pub blas1: Duration,
    /// Other solve work (coarse solve, vector permutes, ...).
    pub solve_etc: Duration,
}

impl PhaseTimes {
    /// Total setup time.
    pub fn setup_total(&self) -> Duration {
        self.strength_coarsen + self.interp + self.rap + self.setup_etc
    }

    /// Total solve time.
    pub fn solve_total(&self) -> Duration {
        self.gs + self.spmv + self.blas1 + self.solve_etc
    }

    /// Setup + solve.
    pub fn total(&self) -> Duration {
        self.setup_total() + self.solve_total()
    }

    /// Adds another breakdown into this one.
    pub fn accumulate(&mut self, o: &PhaseTimes) {
        self.strength_coarsen += o.strength_coarsen;
        self.interp += o.interp;
        self.rap += o.rap;
        self.setup_etc += o.setup_etc;
        self.gs += o.gs;
        self.spmv += o.spmv;
        self.blas1 += o.blas1;
        self.solve_etc += o.solve_etc;
    }

    /// Derives the Fig. 5 buckets from a recorded span tree.
    ///
    /// Each span's *self* time (wall minus children, saturating) lands in
    /// exactly one bucket, chosen by span name within the root's phase
    /// (a root named `"solve"` is solve-phase; anything else — `"setup"`,
    /// `"refresh"` — is setup-phase). Unrecognized names fall into the
    /// phase's `etc` bucket, so the bucket totals reconstruct the root
    /// span's wall time up to clock-read jitter and nesting can never
    /// double-count.
    pub fn from_span(root: &SpanNode) -> PhaseTimes {
        let mut out = PhaseTimes::default();
        let solve_phase = root.name == "solve";
        let etc = if solve_phase {
            Bucket::SolveEtc
        } else {
            Bucket::SetupEtc
        };
        attribute(root, solve_phase, etc, &mut out);
        out
    }
}

/// Fig. 5 bucket identifiers, used while walking the span tree so that
/// transport-level spans can *inherit* the bucket of the phase they run
/// inside (a halo exchange during smoothing is GS time, the same
/// exchange during restriction is SpMV time).
#[derive(Clone, Copy)]
enum Bucket {
    StrengthCoarsen,
    Interp,
    Rap,
    SetupEtc,
    Gs,
    Spmv,
    Blas1,
    SolveEtc,
}

impl Bucket {
    fn slot(self, out: &mut PhaseTimes) -> &mut Duration {
        match self {
            Bucket::StrengthCoarsen => &mut out.strength_coarsen,
            Bucket::Interp => &mut out.interp,
            Bucket::Rap => &mut out.rap,
            Bucket::SetupEtc => &mut out.setup_etc,
            Bucket::Gs => &mut out.gs,
            Bucket::Spmv => &mut out.spmv,
            Bucket::Blas1 => &mut out.blas1,
            Bucket::SolveEtc => &mut out.solve_etc,
        }
    }
}

/// Span-name → Fig. 5 bucket. `None` means "inherit the enclosing span's
/// bucket" — used by communication primitives that serve whatever kernel
/// invoked them rather than being a phase of their own.
fn classify(name: &str, solve_phase: bool) -> Option<Bucket> {
    if matches!(
        name,
        "halo"
            | "halo_inflight"
            | "halo_post"
            | "halo_wait"
            | "halo_batch"
            | "spgemm"
            | "gather"
            | "scatter"
    ) {
        return None;
    }
    Some(if solve_phase {
        match name {
            "smooth" | "gs_batch" => Bucket::Gs,
            "residual" | "restrict" | "prolong" | "spmv" | "spmm" => Bucket::Spmv,
            "blas1" | "dot" | "norm" => Bucket::Blas1,
            // "solve", "vcycle", "coarse_solve", "permute", ...
            _ => Bucket::SolveEtc,
        }
    } else {
        match name {
            "strength" | "coarsen" => Bucket::StrengthCoarsen,
            "interp" => Bucket::Interp,
            "rap" => Bucket::Rap,
            // "setup", "refresh", "cf_reorder", "extract_p",
            // "transpose", "smoother_setup", "coarse", "capture", ...
            _ => Bucket::SetupEtc,
        }
    })
}

/// Attribution walk (see [`PhaseTimes::from_span`]).
fn attribute(node: &SpanNode, solve_phase: bool, inherited: Bucket, out: &mut PhaseTimes) {
    let bucket = classify(node.name, solve_phase).unwrap_or(inherited);
    *bucket.slot(out) += node.self_time();
    for c in &node.children {
        attribute(c, solve_phase, bucket, out);
    }
}

/// Communication volume over one phase window (per rank): bytes and
/// messages actually sent, as counted by the `famg-dist` runtime. The
/// distributed setup/solve results carry one of these each so the
/// paper's §4.3/§5.4 comm-volume breakdowns are available per run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CommVolume {
    /// Bytes sent to other ranks in the window.
    pub bytes: u64,
    /// Messages sent to other ranks in the window.
    pub messages: u64,
}

impl CommVolume {
    /// Adds another window into this one.
    pub fn accumulate(&mut self, o: &CommVolume) {
        self.bytes += o.bytes;
        self.messages += o.messages;
    }
}

/// Per-level sizes and the derived complexity measures.
#[derive(Debug, Default, Clone)]
pub struct SetupStats {
    /// Rows per level, finest first.
    pub level_rows: Vec<usize>,
    /// Stored non-zeros per level, finest first.
    pub level_nnz: Vec<usize>,
    /// Average interpolation entries per fine row, per level.
    pub interp_nnz: Vec<usize>,
}

impl SetupStats {
    /// Operator complexity: `Σ_l nnz(A_l) / nnz(A_0)` — the paper's
    /// primary fairness measure.
    pub fn operator_complexity(&self) -> f64 {
        if self.level_nnz.is_empty() || self.level_nnz[0] == 0 {
            return 0.0;
        }
        self.level_nnz.iter().sum::<usize>() as f64 / self.level_nnz[0] as f64
    }

    /// Grid complexity: `Σ_l n_l / n_0`.
    pub fn grid_complexity(&self) -> f64 {
        if self.level_rows.is_empty() || self.level_rows[0] == 0 {
            return 0.0;
        }
        self.level_rows.iter().sum::<usize>() as f64 / self.level_rows[0] as f64
    }

    /// Number of levels built.
    pub fn num_levels(&self) -> usize {
        self.level_rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complexities() {
        let s = SetupStats {
            level_rows: vec![100, 25, 6],
            level_nnz: vec![500, 200, 30],
            interp_nnz: vec![300, 60],
        };
        assert!((s.operator_complexity() - 730.0 / 500.0).abs() < 1e-12);
        assert!((s.grid_complexity() - 131.0 / 100.0).abs() < 1e-12);
        assert_eq!(s.num_levels(), 3);
    }

    #[test]
    fn empty_stats_safe() {
        let s = SetupStats::default();
        assert_eq!(s.operator_complexity(), 0.0);
        assert_eq!(s.grid_complexity(), 0.0);
    }

    fn span(name: &'static str, wall_ms: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name,
            wall: Duration::from_millis(wall_ms),
            count: 1,
            children,
            ..SpanNode::default()
        }
    }

    #[test]
    fn from_span_buckets_setup_self_times() {
        let root = span(
            "setup",
            100,
            vec![
                span("strength", 10, vec![]),
                span("coarsen", 5, vec![]),
                span("interp", 20, vec![]),
                span("rap", 30, vec![]),
                span("smoother_setup", 15, vec![]),
            ],
        );
        let t = PhaseTimes::from_span(&root);
        assert_eq!(t.strength_coarsen, Duration::from_millis(15));
        assert_eq!(t.interp, Duration::from_millis(20));
        assert_eq!(t.rap, Duration::from_millis(30));
        // 15 ms smoother_setup + 20 ms of root self time.
        assert_eq!(t.setup_etc, Duration::from_millis(35));
        // Buckets reconstruct the root wall exactly.
        assert_eq!(t.setup_total(), root.wall);
        assert_eq!(t.solve_total(), Duration::ZERO);
    }

    #[test]
    fn from_span_buckets_solve_and_never_double_counts_nesting() {
        // A nested vcycle tree: the "vcycle" wrapper's wall time includes
        // its children, but only its *self* time lands in solve_etc.
        let root = span(
            "solve",
            100,
            vec![
                span(
                    "vcycle",
                    80,
                    vec![
                        span("smooth", 40, vec![]),
                        span("residual", 10, vec![]),
                        span("restrict", 5, vec![]),
                        span("vcycle", 10, vec![span("coarse_solve", 8, vec![])]),
                        span("prolong", 5, vec![]),
                    ],
                ),
                span("blas1", 12, vec![]),
            ],
        );
        let t = PhaseTimes::from_span(&root);
        assert_eq!(t.gs, Duration::from_millis(40));
        assert_eq!(t.spmv, Duration::from_millis(20));
        assert_eq!(t.blas1, Duration::from_millis(12));
        // solve_etc = root self (8) + outer vcycle self (10)
        //           + inner vcycle self (2) + coarse_solve (8).
        assert_eq!(t.solve_etc, Duration::from_millis(28));
        assert_eq!(t.solve_total(), root.wall);
        assert_eq!(t.setup_total(), Duration::ZERO);
    }

    #[test]
    fn from_span_transport_spans_inherit_enclosing_bucket() {
        // Halo exchange inside smoothing is GS time; the same primitive
        // inside restriction is SpMV time. A top-level halo (no kernel
        // parent) falls back to the phase's etc bucket.
        let root = span(
            "solve",
            100,
            vec![
                span("smooth", 40, vec![span("halo", 15, vec![])]),
                span("restrict", 20, vec![span("halo", 5, vec![])]),
                span("halo", 10, vec![]),
            ],
        );
        let t = PhaseTimes::from_span(&root);
        assert_eq!(t.gs, Duration::from_millis(40));
        assert_eq!(t.spmv, Duration::from_millis(20));
        // root self (30) + orphan halo (10).
        assert_eq!(t.solve_etc, Duration::from_millis(40));
        assert_eq!(t.solve_total(), root.wall);

        // Setup side: spgemm under rap stays RAP time.
        let root = span(
            "setup",
            50,
            vec![span("rap", 30, vec![span("spgemm", 12, vec![])])],
        );
        let t = PhaseTimes::from_span(&root);
        assert_eq!(t.rap, Duration::from_millis(30));
        assert_eq!(t.setup_etc, Duration::from_millis(20));
    }

    /// A random well-nested span tree below a root named `phase`: every
    /// node's children run inside it, so their walls sum to at most its own.
    fn random_tree(
        state: &mut u64,
        name: &'static str,
        wall: u64,
        depth: usize,
        names: &[&'static str],
    ) -> SpanNode {
        let mut next = |m: u64| {
            *state = crate::rng::splitmix64(*state);
            *state % m
        };
        let mut shapes = Vec::new();
        let mut left = wall;
        while depth < 4 && left > 0 && next(3) != 0 {
            let w = next(left + 1);
            shapes.push((names[next(names.len() as u64) as usize], w));
            left -= w;
        }
        let children = (shapes.into_iter())
            .map(|(child, w)| random_tree(state, child, w, depth + 1, names))
            .collect();
        SpanNode {
            name,
            wall: Duration::from_nanos(wall),
            count: 1,
            children,
            ..SpanNode::default()
        }
    }

    #[test]
    fn from_span_buckets_never_sum_past_their_total() {
        let setup_names = [
            "strength",
            "coarsen",
            "interp",
            "rap",
            "spgemm",
            "transpose",
            "halo",
        ];
        let solve_names = [
            "vcycle", "smooth", "residual", "restrict", "blas1", "halo", "dot",
        ];
        let mut state = 0x5eed;
        for case in 0..200 {
            let (phase, names) = if case % 2 == 0 {
                ("setup", &setup_names[..])
            } else {
                ("solve", &solve_names[..])
            };
            let wall = crate::rng::splitmix64(case) % 1_000_000_000;
            let root = random_tree(&mut state, phase, wall, 0, names);
            let t = PhaseTimes::from_span(&root);
            let (buckets, total) = if phase == "solve" {
                ([t.gs, t.spmv, t.blas1, t.solve_etc], t.solve_total())
            } else {
                (
                    [t.strength_coarsen, t.interp, t.rap, t.setup_etc],
                    t.setup_total(),
                )
            };
            // Self times tile a well-nested tree: the buckets rebuild the
            // root's wall exactly and invent no clock.
            assert_eq!(total, root.wall, "case {case}");
            // Also in the seconds a report prints.
            let sum: f64 = buckets.iter().map(Duration::as_secs_f64).sum();
            let total = total.as_secs_f64();
            assert!(
                sum <= total + 1e-9 + total * 1e-9,
                "case {case}: {sum} > {total}"
            );
        }
    }

    #[test]
    fn phase_times_accumulate() {
        let mut a = PhaseTimes {
            gs: Duration::from_millis(5),
            ..PhaseTimes::default()
        };
        let b = PhaseTimes {
            gs: Duration::from_millis(7),
            rap: Duration::from_millis(3),
            ..PhaseTimes::default()
        };
        a.accumulate(&b);
        assert_eq!(a.gs, Duration::from_millis(12));
        assert_eq!(a.setup_total(), Duration::from_millis(3));
        assert_eq!(a.solve_total(), Duration::from_millis(12));
        assert_eq!(a.total(), Duration::from_millis(15));
    }
}
