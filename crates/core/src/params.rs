//! Solver configuration, mirroring the paper's Tables 3 and 4.
//!
//! The solver runs what the paper's `HYPRE_opt` runs: a V-cycle, the
//! reordered C-F hybrid Gauss-Seidel (Fig. 2b), PMIS or aggressive PMIS,
//! and the interpolations `ei(4)`, `mp` and `2s-ei(444)`. Only the choices
//! that a workload or a figure varies are fields here; `HYPRE_base`, the
//! program Fig. 5 compares against, is `famg_bench::baseline`.

/// Coarsening algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoarsenKind {
    /// Parallel Modified Independent Set (De Sterck–Yang–Heys), the
    /// paper's single-node choice (Table 3).
    Pmis,
    /// Aggressive coarsening: PMIS applied twice (a second pass over the
    /// distance-2 strength graph of the first pass's C-points), used on
    /// the top levels of the multi-node configurations (Table 4).
    AggressivePmis,
}

/// Interpolation operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpKind {
    /// Extended+i (distance-2) interpolation [De Sterck et al. 2008] —
    /// the paper's single-node default, `ei(4)` in Fig. 6/8.
    ExtendedI,
    /// Multipass interpolation [Stüben 1999] for aggressive coarsening —
    /// `mp` in Fig. 6/8.
    Multipass,
    /// Two-stage extended+i for aggressive coarsening [Yang 2010] —
    /// `2s-ei(444)` in Fig. 6/8.
    TwoStageExtendedI,
}

/// Full AMG configuration.
#[derive(Debug, Clone)]
pub struct AmgConfig {
    /// Strength threshold `α` (Table 3 uses 0.25 or 0.6 per matrix).
    pub strength_threshold: f64,
    /// Rows whose `|Σ_j a_ij| / |a_ii|` exceeds this are treated as having
    /// no strong connections (Table 3: 0.8).
    pub max_row_sum: f64,
    /// Maximum number of multigrid levels (Table 3: 7; Table 4: 16).
    pub max_levels: usize,
    /// Stop coarsening when a level has at most this many rows; that
    /// level is solved directly with dense LU unless it is singular.
    pub coarse_solve_size: usize,
    /// Coarsening on the top `aggressive_levels` levels (Table 4 applies
    /// aggressive coarsening to the top level only).
    pub coarsen: CoarsenKind,
    /// Number of levels that use `coarsen`/`interp`; deeper levels fall
    /// back to PMIS + extended+i (the Table 4 "other levels: ei(4)" rule).
    pub aggressive_levels: usize,
    /// Interpolation used on the aggressive levels.
    pub interp: InterpKind,
    /// Interpolation truncation factor (Table 3: 0.1).
    pub trunc_factor: f64,
    /// Maximum interpolation entries per row (Table 3: 4).
    pub max_elements: usize,
    /// Pre/post smoothing sweeps per level (HYPRE default: 1 each).
    pub num_sweeps: usize,
    /// Relative residual reduction target (Table 3: 1e-7).
    pub tolerance: f64,
    /// Iteration cap for standalone AMG.
    pub max_iterations: usize,
    /// Seed for the PMIS random weights.
    pub seed: u64,
    /// Task count of the hybrid Gauss-Seidel smoother. `None` (the default)
    /// uses the thread-pool size, which is fastest but makes the smoother's
    /// *iteration behaviour* depend on the pool: hybrid GS is Jacobi across
    /// tasks, so its decomposition is part of the numerical method. Pin
    /// this to a fixed value to get bitwise identical solves across pool
    /// sizes (the thread-independence tests do exactly that).
    pub smoother_tasks: Option<usize>,
}

impl Default for AmgConfig {
    fn default() -> Self {
        AmgConfig::single_node_paper()
    }
}

impl AmgConfig {
    /// Table 3: the single-node evaluation settings (standalone AMG,
    /// V-cycle, `max_levels = 7`, PMIS, extended+i with `trunc = 0.1`,
    /// `max_elmts = 4`, hybrid GS, relative tolerance 1e-7).
    pub fn single_node_paper() -> Self {
        AmgConfig {
            strength_threshold: 0.25,
            max_row_sum: 0.8,
            max_levels: 7,
            coarse_solve_size: 64,
            coarsen: CoarsenKind::Pmis,
            aggressive_levels: 0,
            interp: InterpKind::ExtendedI,
            trunc_factor: 0.1,
            max_elements: 4,
            num_sweeps: 1,
            tolerance: 1e-7,
            max_iterations: 200,
            seed: 0xFA6,
            smoother_tasks: None,
        }
    }

    /// Table 4 `ei(4)`: extended+i on every level, `max_levels = 16`.
    pub fn multi_node_ei4() -> Self {
        AmgConfig {
            max_levels: 16,
            ..AmgConfig::single_node_paper()
        }
    }

    /// Table 4 `mp`: aggressive PMIS + multipass interpolation on the top
    /// level, `ei(4)` below.
    pub fn multi_node_mp() -> Self {
        AmgConfig {
            max_levels: 16,
            coarsen: CoarsenKind::AggressivePmis,
            aggressive_levels: 1,
            interp: InterpKind::Multipass,
            ..AmgConfig::single_node_paper()
        }
    }

    /// Table 4 `2s-ei(444)`: aggressive PMIS + 2-stage extended+i with
    /// truncation at every stage on the top level, `ei(4)` below.
    pub fn multi_node_2s_ei444() -> Self {
        AmgConfig {
            max_levels: 16,
            coarsen: CoarsenKind::AggressivePmis,
            aggressive_levels: 1,
            interp: InterpKind::TwoStageExtendedI,
            ..AmgConfig::single_node_paper()
        }
    }

    /// Effective (coarsen, interp) pair at multigrid level `level`.
    pub fn level_scheme(&self, level: usize) -> (CoarsenKind, InterpKind) {
        if level < self.aggressive_levels {
            (self.coarsen, self.interp)
        } else if self.aggressive_levels > 0 {
            // "Other levels: ei(4)" per Table 4.
            (CoarsenKind::Pmis, InterpKind::ExtendedI)
        } else {
            (self.coarsen, self.interp)
        }
    }

    /// Whether a coarsest operator of `n` (global) rows is solved by a
    /// dense LU factorization. A larger one, where `max_levels` stopped the
    /// build, is smoothed instead. The serial and the distributed build
    /// both decide by this rule.
    pub fn coarse_lu_fits(&self, n: usize) -> bool {
        n > 0 && n <= self.coarse_solve_size
    }

    /// Whether the level loop stops at level `level`, of `n` (global) rows,
    /// without coarsening it: the operator is small enough for the coarse
    /// solve, or it is the `max_levels`-th level. The serial and the
    /// distributed builds and `famg_bench::baseline` all stop by this rule
    /// and by [`AmgConfig::coarsening_stalls`].
    pub fn stops_at(&self, n: usize, level: usize) -> bool {
        n <= self.coarse_solve_size || level + 1 >= self.max_levels
    }

    /// The coarsening seed of level `level`.
    pub fn level_seed(&self, level: usize) -> u64 {
        self.seed.wrapping_add(level as u64)
    }

    /// Whether a coarsening of `n` points that selected `nc` of them ends
    /// the hierarchy: selecting none or all of them gives no coarser level.
    pub fn coarsening_stalls(n: usize, nc: usize) -> bool {
        nc == 0 || nc == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table3() {
        let c = AmgConfig::single_node_paper();
        assert_eq!(c.strength_threshold, 0.25);
        assert_eq!(c.max_row_sum, 0.8);
        assert_eq!(c.max_levels, 7);
        assert_eq!(c.trunc_factor, 0.1);
        assert_eq!(c.max_elements, 4);
        assert_eq!(c.tolerance, 1e-7);
        assert_eq!(c.interp, InterpKind::ExtendedI);
    }

    #[test]
    fn level_scheme_falls_back_below_aggressive_levels() {
        let c = AmgConfig::multi_node_mp();
        assert_eq!(
            c.level_scheme(0),
            (CoarsenKind::AggressivePmis, InterpKind::Multipass)
        );
        assert_eq!(
            c.level_scheme(1),
            (CoarsenKind::Pmis, InterpKind::ExtendedI)
        );
        let e = AmgConfig::multi_node_ei4();
        assert_eq!(
            e.level_scheme(3),
            (CoarsenKind::Pmis, InterpKind::ExtendedI)
        );
    }
}
