//! Incremental bounded-variable simplex for
//! `max cᵀx, Ax ≤ b, 0 ≤ x ≤ u, b ≥ 0`.
//!
//! Two design decisions matter for the forest-polytope workload:
//!
//! * **Implicit upper bounds.** Variable bounds `x_j ≤ u_j` are handled by
//!   the bounded-variable simplex (a nonbasic variable sits at its lower *or*
//!   upper bound) instead of as constraint rows. For the forest LP this
//!   removes one row per edge — the tableau shrinks several-fold — and, more
//!   importantly, removes the massive degeneracy those rows cause at
//!   near-integral vertices (every edge at weight 1 would otherwise
//!   contribute a zero-slack row and the ratio tests drown in ties).
//! * **Warm starts with refactorization.** The tableau and basis survive
//!   across [`IncrementalSimplex::solve`] calls; rows added after an optimal
//!   solve are reduced against the current basis and repaired with
//!   dual-simplex pivots. Accumulated floating-point drift is contained by
//!   rebuilding the tableau from the pristine constraint data
//!   ([`IncrementalSimplex::refactorize`]) whenever a warm re-solve exceeds
//!   its budget, and cutting-plane drivers insist that the final,
//!   convergence-deciding solve runs on a fresh factorization.
//!
//! Anti-cycling: the primal phase uses Dantzig's rule and switches to Bland's
//! rule for the remainder of a solve after a run of degenerate pivots; the
//! dual phase runs under a hard pivot budget (zero-progress dual pivots are
//! normal, not a cycling symptom) and falls back to a fresh primal solve.
//! The remaining pivot cap surfaces as the typed [`LpError::Stalled`].

use crate::problem::{LpError, LpSolution};

/// Numerical tolerance for reduced costs, ratio tests and feasibility checks.
const EPS: f64 = 1e-9;

/// Minimum magnitude of an acceptable pivot element. Pivoting on smaller
/// entries multiplies rounding error by huge factors; such entries are
/// treated as zero in the ratio tests.
const PIVOT_TOL: f64 = 1e-7;

/// Consecutive degenerate primal pivots tolerated before Bland's rule engages.
const DEGENERATE_STREAK_LIMIT: usize = 128;

/// Where a nonbasic column currently sits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Basic,
    /// At its lower bound 0.
    Lower,
    /// At its (finite) upper bound.
    Upper,
}

/// An incremental `max cᵀx, Ax ≤ b, 0 ≤ x ≤ u` solver that keeps its tableau
/// and basis across [`IncrementalSimplex::solve`] calls.
#[derive(Clone, Debug)]
pub struct IncrementalSimplex {
    /// Original objective coefficients of the structural variables.
    objective: Vec<f64>,
    /// Upper bounds of the structural variables (`f64::INFINITY` = none).
    /// Slack variables are implicitly `[0, ∞)`.
    upper: Vec<f64>,
    /// Original sparse constraints, kept for refactorization.
    original: Vec<(Vec<(usize, f64)>, f64)>,
    /// Tableau rows `B⁻¹A` over columns `0..objective.len() + rows.len()`.
    rows: Vec<Vec<f64>>,
    /// Current *values* of the basic variables (`xb[i]` belongs to row `i`).
    xb: Vec<f64>,
    /// Objective row (reduced costs); starts as `-c` on structural columns.
    /// Optimality: `≥ 0` on at-lower columns, `≤ 0` on at-upper columns.
    obj: Vec<f64>,
    /// `basis[i]` is the basic variable of row `i`.
    basis: Vec<usize>,
    /// Status of every column.
    status: Vec<Status>,
    /// Total pivots (and bound flips) over the lifetime of the tableau.
    total_pivots: usize,
    /// Whether the tableau has been solved at least once.
    solved_once: bool,
    /// Consecutive primal pivots without progress; engages Bland's rule.
    degenerate_streak: usize,
    /// Sticky-per-solve Bland mode (rules out primal cycling).
    bland_mode: bool,
    /// Whether the last solve ran from a freshly built tableau.
    last_was_fresh: bool,
}

impl IncrementalSimplex {
    /// Creates a solver for `max objective · x` with `x ≥ 0` and no upper
    /// bounds or constraints yet.
    pub fn new(objective: &[f64]) -> Self {
        Self::with_upper_bounds(objective, vec![f64::INFINITY; objective.len()])
    }

    /// Creates a solver for `max objective · x` with `0 ≤ x ≤ upper`
    /// (entries may be `f64::INFINITY`). Bounds are handled implicitly by
    /// the bounded-variable simplex — no constraint rows are spent on them.
    ///
    /// # Panics
    /// Panics if the lengths differ or any bound is negative/NaN.
    pub fn with_upper_bounds(objective: &[f64], upper: Vec<f64>) -> Self {
        assert_eq!(objective.len(), upper.len(), "bounds length mismatch");
        assert!(
            upper.iter().all(|&u| u >= 0.0),
            "upper bounds must be non-negative"
        );
        IncrementalSimplex {
            objective: objective.to_vec(),
            upper,
            original: Vec::new(),
            rows: Vec::new(),
            xb: Vec::new(),
            obj: objective.iter().map(|&c| -c).collect(),
            basis: Vec::new(),
            status: vec![Status::Lower; objective.len()],
            total_pivots: 0,
            solved_once: false,
            degenerate_streak: 0,
            bland_mode: false,
            last_was_fresh: false,
        }
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Whether the last [`IncrementalSimplex::solve`] ran on a freshly built
    /// tableau. Cutting-plane loops use this to insist that the final,
    /// convergence-deciding solve is free of accumulated warm-start drift.
    pub fn last_solve_was_fresh(&self) -> bool {
        self.last_was_fresh
    }

    /// Dual values of the constraint rows at the current (optimal) tableau:
    /// the reduced cost of each row's slack column, clamped to `≥ 0`.
    /// Meaningful after a successful [`IncrementalSimplex::solve`]; used by
    /// column-generation pricing.
    pub fn duals(&self) -> Vec<f64> {
        let n = self.num_vars();
        (0..self.rows.len())
            .map(|i| self.obj[n + i].max(0.0))
            .collect()
    }

    /// Upper bound of a column (slacks are unbounded).
    fn bound(&self, col: usize) -> f64 {
        if col < self.upper.len() {
            self.upper[col]
        } else {
            f64::INFINITY
        }
    }

    /// Current value of a column.
    fn value_of(&self, col: usize) -> f64 {
        match self.status[col] {
            Status::Lower => 0.0,
            Status::Upper => self.bound(col),
            Status::Basic => {
                let row = self
                    .basis
                    .iter()
                    .position(|&v| v == col)
                    .expect("basic column has a row");
                self.xb[row]
            }
        }
    }

    /// Adds a structural variable with the given objective coefficient, upper
    /// bound and sparse constraint column (`(constraint row, coefficient)`
    /// pairs; repeated rows accumulate). Returns the new variable's index.
    ///
    /// The variable enters at its lower bound 0, so no basic value changes
    /// and the current basis stays primal-feasible; when the tableau has
    /// already been solved, the new column is expressed in the current basis
    /// through the slack block (whose tableau columns are exactly `B⁻¹`) and
    /// the next [`IncrementalSimplex::solve`] prices it in with a handful of
    /// warm primal pivots. This is what lets a column-generation master grow
    /// by one forest per round without a from-scratch rebuild — the rebuild
    /// is what capped the release pipeline on large masters.
    ///
    /// # Panics
    /// Panics if the bound is negative/NaN or a row index is out of range.
    pub fn add_variable(&mut self, objective: f64, upper: f64, terms: &[(usize, f64)]) -> usize {
        assert!(upper >= 0.0, "upper bound must be non-negative");
        let n = self.objective.len();
        let m = self.rows.len();
        // Deduplicate and sort by row so the basis transform below sums in a
        // deterministic order (callers may pass hash-ordered terms).
        let mut column = std::collections::BTreeMap::new();
        for &(row, coeff) in terms {
            assert!(row < m, "constraint row {row} out of range");
            *column.entry(row).or_insert(0.0) += coeff;
        }
        self.objective.push(objective);
        self.upper.push(upper);
        // Record the column in the pristine constraint data so a later
        // refactorization rebuilds the full LP.
        for (&row, &coeff) in &column {
            self.original[row].0.push((n, coeff));
        }
        // Tableau column of the new variable in the current basis:
        // B⁻¹ a_new = Σ coeff · (slack column of that row), because the
        // slack block starts as the identity and every pivot keeps it equal
        // to B⁻¹. Reduced cost likewise: z − c = Σ coeff · y_row − c.
        let values: Vec<f64> = self
            .rows
            .iter()
            .map(|row| column.iter().map(|(&i, &c)| c * row[n + i]).sum())
            .collect();
        let reduced: f64 = column
            .iter()
            .map(|(&i, &c)| c * self.obj[n + i])
            .sum::<f64>()
            - objective;
        for (row, v) in self.rows.iter_mut().zip(values) {
            row.insert(n, v);
        }
        self.obj.insert(n, reduced);
        self.status.insert(n, Status::Lower);
        for b in &mut self.basis {
            if *b >= n {
                *b += 1;
            }
        }
        n
    }

    /// Adds the sparse constraint `Σ coeff · x_idx ≤ rhs` (repeated indices
    /// accumulate). `rhs` must be non-negative — the all-slack basis of this
    /// single-phase solver requires it.
    ///
    /// When the tableau has already been solved, the new row is immediately
    /// expressed in the current basis; the next [`IncrementalSimplex::solve`]
    /// repairs any resulting infeasibility with dual-simplex pivots.
    pub fn add_constraint(&mut self, terms: &[(usize, f64)], rhs: f64) -> Result<(), LpError> {
        if rhs < 0.0 {
            return Err(LpError::NegativeRhs {
                row: self.rows.len(),
            });
        }
        let n = self.objective.len();
        let width = n + self.rows.len();
        let mut row = vec![0.0; width + 1]; // +1 for the new slack column
        for &(idx, coeff) in terms {
            assert!(idx < n, "variable index {idx} out of range");
            row[idx] += coeff;
        }
        self.original.push((terms.to_vec(), rhs));

        // Open the new slack column on every existing row and the objective.
        for existing in &mut self.rows {
            existing.push(0.0);
        }
        self.obj.push(0.0);

        // The new slack's current value = rhs − (row · current x), computed
        // from the original sparse coefficients and current column values.
        let mut slack_value = rhs;
        if self.solved_once {
            for &(idx, coeff) in terms {
                slack_value -= coeff * self.value_of(idx);
            }
            // Express the row in the current basis: zero out basic columns.
            for i in 0..self.rows.len() {
                let factor = row[self.basis[i]];
                if factor.abs() > EPS {
                    for (t, &p) in row.iter_mut().zip(self.rows[i].iter()) {
                        *t -= factor * p;
                    }
                    row[self.basis[i]] = 0.0;
                }
            }
        }
        row[width] = 1.0; // slack of the new row
        self.basis.push(width);
        self.status.push(Status::Basic);
        self.rows.push(row);
        self.xb.push(slack_value);
        Ok(())
    }

    /// Re-optimizes and returns the current optimum.
    ///
    /// The first call runs the primal simplex from the all-slack basis; later
    /// calls only repair added rows with dual-simplex pivots. A warm re-solve
    /// that exceeds its budget triggers a refactorization (rebuild from the
    /// original data) and a from-scratch solve before any error is reported.
    pub fn solve(&mut self) -> Result<LpSolution, LpError> {
        let pivots_before = self.total_pivots;
        if self.solved_once {
            self.degenerate_streak = 0;
            self.bland_mode = false;
            let warm_cap = self.total_pivots + 8 * (self.rows.len() + 20);
            match self
                .dual_phase(warm_cap)
                .and_then(|()| self.primal_phase(warm_cap))
            {
                Ok(()) => {
                    self.last_was_fresh = false;
                    return Ok(self.extract(pivots_before));
                }
                // Stalls, infeasibility (necessarily spurious, since `b ≥ 0`
                // keeps the origin feasible) and unboundedness (adding rows
                // cannot unbound a previously solved LP; a drifted tableau
                // can fake it) all trigger a rebuild — the fresh solve below
                // re-detects any genuine failure on clean numbers.
                Err(LpError::Stalled { .. })
                | Err(LpError::Infeasible)
                | Err(LpError::Unbounded) => {
                    self.rebuild_tableau();
                }
                Err(e) => return Err(e),
            }
        }
        // Fresh (or just-refactorized) tableau: the all-lower/all-slack state
        // is feasible, so the dual phase is a no-op and the primal works.
        self.degenerate_streak = 0;
        self.bland_mode = false;
        let cap = self.total_pivots + 600 * (self.num_vars() + self.rows.len() + 10);
        self.dual_phase(cap)?;
        self.primal_phase(cap)?;
        self.solved_once = true;
        self.last_was_fresh = true;
        Ok(self.extract(pivots_before))
    }

    /// Discards all accumulated pivot state and rebuilds the tableau from the
    /// pristine original constraints. The next [`IncrementalSimplex::solve`]
    /// runs from scratch on clean numbers. Callers that detect inconsistency
    /// between a solution and the constraints it supposedly satisfies should
    /// call this and re-solve.
    pub fn refactorize(&mut self) {
        self.rebuild_tableau();
    }

    fn rebuild_tableau(&mut self) {
        let n = self.objective.len();
        let m = self.original.len();
        self.obj = self.objective.iter().map(|&c| -c).collect();
        self.obj.resize(n + m, 0.0);
        self.rows.clear();
        self.xb.clear();
        self.basis = (n..n + m).collect();
        self.status = vec![Status::Lower; n];
        self.status.resize(n + m, Status::Basic);
        for (i, (terms, rhs)) in self.original.iter().enumerate() {
            let mut row = vec![0.0; n + m];
            for &(idx, coeff) in terms {
                row[idx] += coeff;
            }
            row[n + i] = 1.0;
            self.rows.push(row);
            self.xb.push(*rhs);
        }
        self.solved_once = false;
    }

    /// Reads the solution off the tableau.
    fn extract(&self, pivots_before: usize) -> LpSolution {
        let n = self.num_vars();
        let mut values = vec![0.0f64; n];
        for ((value, status), &upper) in values.iter_mut().zip(&self.status).zip(&self.upper) {
            if *status == Status::Upper {
                *value = upper;
            }
        }
        for (i, &var) in self.basis.iter().enumerate() {
            if var < n {
                values[var] = self.xb[i].max(0.0);
            }
        }
        let objective_value = self.objective.iter().zip(&values).map(|(c, x)| c * x).sum();
        LpSolution {
            objective_value,
            values,
            iterations: self.total_pivots - pivots_before,
        }
    }

    /// Dual phase: repairs basics that violate their bounds (negative, or —
    /// for bounded structural basics — above their upper bound), preserving
    /// dual feasibility of the objective row.
    fn dual_phase(&mut self, pivot_cap: usize) -> Result<(), LpError> {
        loop {
            // Leaving row: largest bound violation.
            let mut leaving: Option<(usize, bool)> = None; // (row, leaves_at_upper)
            let mut worst = EPS;
            for (i, &value) in self.xb.iter().enumerate() {
                let below = -value;
                let above = value - self.bound(self.basis[i]);
                if below > worst {
                    worst = below;
                    leaving = Some((i, false));
                }
                if above > worst {
                    worst = above;
                    leaving = Some((i, true));
                }
            }
            let Some((r, leaves_at_upper)) = leaving else {
                return Ok(());
            };

            // Entering column: dual ratio test. For a basic leaving at its
            // lower bound, eligible columns are at-lower with negative row
            // entry or at-upper with positive row entry (movement directions
            // that raise xb[r]); mirrored for leaving at upper. Among
            // eligible columns the pivot must keep every reduced cost on the
            // right side of zero, which selects the minimizer of
            // |obj[j] / row[j]|.
            let width = self.num_vars() + self.rows.len();
            let mut entering: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for j in 0..width {
                if self.status[j] == Status::Basic {
                    continue;
                }
                let coeff = self.rows[r][j];
                let eligible = if !leaves_at_upper {
                    (self.status[j] == Status::Lower && coeff < -PIVOT_TOL)
                        || (self.status[j] == Status::Upper && coeff > PIVOT_TOL)
                } else {
                    (self.status[j] == Status::Lower && coeff > PIVOT_TOL)
                        || (self.status[j] == Status::Upper && coeff < -PIVOT_TOL)
                };
                if eligible {
                    let ratio = (self.obj[j] / coeff).abs();
                    if entering.is_none() || ratio < best_ratio - EPS {
                        best_ratio = ratio.min(best_ratio);
                        entering = Some(j);
                    }
                }
            }
            let Some(j) = entering else {
                return Err(LpError::Infeasible);
            };

            // Displacement of the entering column that brings xb[r] exactly
            // to the violated bound.
            let target = if leaves_at_upper {
                self.bound(self.basis[r])
            } else {
                0.0
            };
            let dir = if self.status[j] == Status::Lower {
                1.0
            } else {
                -1.0
            };
            let t = (self.xb[r] - target) / (dir * self.rows[r][j]);

            // If the entering column would overshoot its own opposite bound,
            // flip it there instead and retry the same leaving row.
            let bound_j = self.bound(j);
            if bound_j.is_finite() && t > bound_j + EPS {
                self.flip_bound(j, pivot_cap)?;
                continue;
            }
            self.pivot(r, j, t.max(0.0), leaves_at_upper, pivot_cap)?;
        }
    }

    /// Primal phase: improves the objective until every reduced cost is on
    /// the right side of zero (≥ 0 at lower, ≤ 0 at upper).
    fn primal_phase(&mut self, pivot_cap: usize) -> Result<(), LpError> {
        loop {
            let width = self.num_vars() + self.rows.len();
            if self.degenerate_streak >= DEGENERATE_STREAK_LIMIT {
                self.bland_mode = true;
            }
            // Entering column: a nonbasic whose movement off its bound
            // improves the objective. Dantzig picks the worst violation;
            // Bland the smallest index.
            let violation = |s: &Self, j: usize| -> f64 {
                match s.status[j] {
                    Status::Lower => -s.obj[j],
                    Status::Upper => s.obj[j],
                    Status::Basic => f64::NEG_INFINITY,
                }
            };
            let entering = if self.bland_mode {
                (0..width).find(|&j| violation(self, j) > EPS)
            } else {
                let mut best = None;
                let mut best_val = EPS;
                for j in 0..width {
                    let v = violation(self, j);
                    if v > best_val {
                        best_val = v;
                        best = Some(j);
                    }
                }
                best
            };
            let Some(j) = entering else {
                return Ok(());
            };
            let dir = if self.status[j] == Status::Lower {
                1.0
            } else {
                -1.0
            };

            // Ratio test: the entering displacement is limited by its own
            // opposite bound and by every basic hitting one of its bounds.
            let mut limit = self.bound(j); // own-bound flip
            let mut leaving: Option<(usize, bool)> = None;
            for i in 0..self.rows.len() {
                let a = dir * self.rows[i][j];
                if a > PIVOT_TOL {
                    // Basic decreases towards its lower bound 0.
                    let ratio = self.xb[i].max(0.0) / a;
                    let better = ratio < limit - EPS
                        || (ratio < limit + EPS
                            && leaving.is_some_and(|(l, _)| self.basis[i] < self.basis[l]));
                    if better {
                        limit = ratio.min(limit);
                        leaving = Some((i, false));
                    }
                } else if a < -PIVOT_TOL {
                    let ub = self.bound(self.basis[i]);
                    if ub.is_finite() {
                        // Basic increases towards its upper bound.
                        let ratio = (ub - self.xb[i]).max(0.0) / -a;
                        let better = ratio < limit - EPS
                            || (ratio < limit + EPS
                                && leaving.is_some_and(|(l, _)| self.basis[i] < self.basis[l]));
                        if better {
                            limit = ratio.min(limit);
                            leaving = Some((i, true));
                        }
                    }
                }
            }
            if limit.is_infinite() {
                return Err(LpError::Unbounded);
            }
            match leaving {
                None => self.flip_bound(j, pivot_cap)?,
                Some((r, leaves_at_upper)) => {
                    self.pivot(r, j, limit, leaves_at_upper, pivot_cap)?;
                }
            }
        }
    }

    /// Moves nonbasic column `j` to its opposite bound (no basis change).
    fn flip_bound(&mut self, j: usize, pivot_cap: usize) -> Result<(), LpError> {
        if self.total_pivots >= pivot_cap {
            return Err(LpError::Stalled {
                pivots: self.total_pivots,
            });
        }
        let u = self.bound(j);
        debug_assert!(u.is_finite(), "cannot flip an unbounded column");
        let delta = match self.status[j] {
            Status::Lower => u,
            Status::Upper => -u,
            Status::Basic => unreachable!("flip of a basic column"),
        };
        for (i, row) in self.rows.iter().enumerate() {
            self.xb[i] -= delta * row[j];
        }
        self.status[j] = match self.status[j] {
            Status::Lower => Status::Upper,
            _ => Status::Lower,
        };
        self.total_pivots += 1;
        // A flip moves no basic out of its bounds direction-wise; count it
        // as degenerate only when the displacement is (numerically) zero.
        if u <= EPS {
            self.degenerate_streak += 1;
        } else {
            self.degenerate_streak = 0;
        }
        Ok(())
    }

    /// Pivots entering column `j` (moving `t` off its bound) against row `r`,
    /// whose basic leaves at its lower (`leaves_at_upper = false`) or upper
    /// bound.
    fn pivot(
        &mut self,
        r: usize,
        j: usize,
        t: f64,
        leaves_at_upper: bool,
        pivot_cap: usize,
    ) -> Result<(), LpError> {
        if self.total_pivots >= pivot_cap {
            return Err(LpError::Stalled {
                pivots: self.total_pivots,
            });
        }
        let dir = if self.status[j] == Status::Lower {
            1.0
        } else {
            -1.0
        };
        // New value of the entering variable.
        let entering_value = match self.status[j] {
            Status::Lower => t,
            Status::Upper => self.bound(j) - t,
            Status::Basic => unreachable!("entering column is nonbasic"),
        };
        // Move every basic along the entering displacement.
        for (i, row) in self.rows.iter().enumerate() {
            self.xb[i] -= t * dir * row[j];
        }
        // The leaving variable parks exactly on the bound it hit.
        let leaving = self.basis[r];
        self.status[leaving] = if leaves_at_upper {
            Status::Upper
        } else {
            Status::Lower
        };
        self.xb[r] = entering_value;
        self.status[j] = Status::Basic;
        self.basis[r] = j;

        // Gauss–Jordan elimination on the tableau and the objective row.
        let inv = 1.0 / self.rows[r][j];
        for v in self.rows[r].iter_mut() {
            *v *= inv;
        }
        let (before, rest) = self.rows.split_at_mut(r);
        let (pivot_row, after) = rest.split_first_mut().expect("pivot row exists");
        for row in before.iter_mut().chain(after.iter_mut()) {
            let factor = row[j];
            if factor.abs() > EPS {
                for (x, &p) in row.iter_mut().zip(pivot_row.iter()) {
                    *x -= factor * p;
                }
                row[j] = 0.0;
            }
        }
        let factor = self.obj[j];
        if factor.abs() > EPS {
            for (x, &p) in self.obj.iter_mut().zip(pivot_row.iter()) {
                *x -= factor * p;
            }
            self.obj[j] = 0.0;
        }

        self.total_pivots += 1;
        if t <= EPS {
            self.degenerate_streak += 1;
        } else {
            self.degenerate_streak = 0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    /// Solves the LP given by objective `c`, dense constraint rows `a` and
    /// right-hand sides `b` on a fresh tableau (the cold-start reference).
    fn cold_solve(c: &[f64], a: &[Vec<f64>], b: &[f64]) -> Result<LpSolution, LpError> {
        let mut simplex = IncrementalSimplex::new(c);
        for (row, &rhs) in a.iter().zip(b) {
            let terms: Vec<(usize, f64)> = row
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0.0)
                .map(|(j, &v)| (j, v))
                .collect();
            simplex.add_constraint(&terms, rhs)?;
        }
        simplex.solve()
    }

    #[test]
    fn simple_maximization() {
        // max 2x + y s.t. x + y ≤ 4, x ≤ 2 -> 6 at (2, 2).
        let sol = cold_solve(&[2.0, 1.0], &[vec![1.0, 1.0], vec![1.0, 0.0]], &[4.0, 2.0]).unwrap();
        assert!(approx(sol.objective_value, 6.0));
    }

    #[test]
    fn all_zero_objective() {
        let sol = cold_solve(&[0.0, 0.0], &[vec![1.0, 1.0]], &[3.0]).unwrap();
        assert!(approx(sol.objective_value, 0.0));
    }

    #[test]
    fn unbounded() {
        let err = cold_solve(&[1.0], &[], &[]).unwrap_err();
        assert_eq!(err, LpError::Unbounded);
    }

    #[test]
    fn binding_combination_of_constraints() {
        // max x + 2y + 3z s.t. x+y ≤ 1, y+z ≤ 1, x+z ≤ 1: optimum 3 at z=1.
        let sol = cold_solve(
            &[1.0, 2.0, 3.0],
            &[
                vec![1.0, 1.0, 0.0],
                vec![0.0, 1.0, 1.0],
                vec![1.0, 0.0, 1.0],
            ],
            &[1.0, 1.0, 1.0],
        )
        .unwrap();
        assert!(approx(sol.objective_value, 3.0));
    }

    #[test]
    fn upper_bounds_replace_rows() {
        // max x + y, x ≤ 0.6, y ≤ 0.8 via implicit bounds, x + y ≤ 1.2.
        let mut s = IncrementalSimplex::with_upper_bounds(&[1.0, 1.0], vec![0.6, 0.8]);
        s.add_constraint(&[(0, 1.0), (1, 1.0)], 1.2).unwrap();
        let sol = s.solve().unwrap();
        assert!(approx(sol.objective_value, 1.2));
        assert!(sol.values[0] <= 0.6 + 1e-9);
        assert!(sol.values[1] <= 0.8 + 1e-9);
        // Loosen the coupling constraint away: the bounds bind at 1.4.
        let mut s = IncrementalSimplex::with_upper_bounds(&[1.0, 1.0], vec![0.6, 0.8]);
        s.add_constraint(&[(0, 1.0), (1, 1.0)], 5.0).unwrap();
        let sol = s.solve().unwrap();
        assert!(approx(sol.objective_value, 1.4));
        assert!(approx(sol.values[0], 0.6));
        assert!(approx(sol.values[1], 0.8));
    }

    #[test]
    fn bounded_and_unbounded_mix() {
        // y unbounded above with negative objective stays at 0; x capped.
        let mut s = IncrementalSimplex::with_upper_bounds(&[3.0, -1.0], vec![2.0, f64::INFINITY]);
        s.add_constraint(&[(0, 1.0), (1, 1.0)], 10.0).unwrap();
        let sol = s.solve().unwrap();
        assert!(approx(sol.objective_value, 6.0));
        assert!(approx(sol.values[0], 2.0));
        assert!(approx(sol.values[1], 0.0));
    }

    #[test]
    fn warm_started_resolve_matches_from_scratch() {
        let c = vec![1.0, 1.0, 1.0];
        let mut inc = IncrementalSimplex::new(&c);
        inc.add_constraint(&[(0, 1.0), (1, 1.0)], 4.0).unwrap();
        inc.add_constraint(&[(1, 1.0), (2, 1.0)], 3.0).unwrap();
        inc.add_constraint(&[(0, 1.0), (2, 1.0)], 5.0).unwrap();
        let first = inc.solve().unwrap();
        assert!(approx(first.objective_value, 6.0));

        inc.add_constraint(&[(0, 1.0), (1, 1.0), (2, 1.0)], 4.5)
            .unwrap();
        let second = inc.solve().unwrap();
        let scratch = cold_solve(
            &c,
            &[
                vec![1.0, 1.0, 0.0],
                vec![0.0, 1.0, 1.0],
                vec![1.0, 0.0, 1.0],
                vec![1.0, 1.0, 1.0],
            ],
            &[4.0, 3.0, 5.0, 4.5],
        )
        .unwrap();
        assert!(approx(second.objective_value, scratch.objective_value));
    }

    #[test]
    fn repeated_cut_rounds_stay_consistent() {
        // A sequence of progressively tighter cuts; after each one the
        // incremental optimum must match a from-scratch solve.
        let n = 6;
        let c = vec![1.0; n];
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut rhs: Vec<f64> = Vec::new();
        let mut inc = IncrementalSimplex::new(&c);
        for j in 0..n {
            let mut row = vec![0.0; n];
            row[j] = 1.0;
            inc.add_constraint(&[(j, 1.0)], 2.0).unwrap();
            rows.push(row);
            rhs.push(2.0);
        }
        inc.solve().unwrap();
        for k in 0..6 {
            let bound = 9.0 - k as f64;
            let terms: Vec<(usize, f64)> = (0..n).map(|j| (j, 1.0)).collect();
            inc.add_constraint(&terms, bound).unwrap();
            rows.push(vec![1.0; n]);
            rhs.push(bound);
            let incremental = inc.solve().unwrap();
            let scratch = cold_solve(&c, &rows, &rhs).unwrap();
            assert!(
                approx(incremental.objective_value, scratch.objective_value),
                "round {k}: {} vs {}",
                incremental.objective_value,
                scratch.objective_value
            );
        }
    }

    #[test]
    fn warm_cuts_with_upper_bounds_stay_consistent() {
        // Cuts over bounded variables: mirror of the forest-polytope shape.
        let n = 5;
        let mut inc = IncrementalSimplex::with_upper_bounds(&vec![1.0; n], vec![1.0; n]);
        for j in 0..n {
            inc.add_constraint(&[(j, 1.0), ((j + 1) % n, 1.0)], 1.5)
                .unwrap();
        }
        let first = inc.solve().unwrap();
        inc.add_constraint(&(0..n).map(|j| (j, 1.0)).collect::<Vec<_>>(), 2.0)
            .unwrap();
        let second = inc.solve().unwrap();
        assert!(second.objective_value <= first.objective_value + 1e-9);
        assert!(approx(second.objective_value, 2.0));
        for &v in &second.values {
            assert!((-1e-9..=1.0 + 1e-9).contains(&v));
        }
    }

    #[test]
    fn added_variable_matches_from_scratch() {
        // max x0 + 2·x1 s.t. x0 + x1 ≤ 3, x0 ≤ 2 → 6 at (0, 3). Then add a
        // third variable worth 5 in the first row only: optimum jumps to 15.
        let mut inc = IncrementalSimplex::new(&[1.0, 2.0]);
        inc.add_constraint(&[(0, 1.0), (1, 1.0)], 3.0).unwrap();
        inc.add_constraint(&[(0, 1.0)], 2.0).unwrap();
        let first = inc.solve().unwrap();
        assert!(approx(first.objective_value, 6.0));
        let idx = inc.add_variable(5.0, f64::INFINITY, &[(0, 1.0)]);
        assert_eq!(idx, 2);
        let second = inc.solve().unwrap();
        assert!(approx(second.objective_value, 15.0));
        assert!(approx(second.values[2], 3.0));
        // Fresh reference with the column present from the start.
        let scratch = cold_solve(
            &[1.0, 2.0, 5.0],
            &[vec![1.0, 1.0, 1.0], vec![1.0, 0.0, 0.0]],
            &[3.0, 2.0],
        )
        .unwrap();
        assert!(approx(second.objective_value, scratch.objective_value));
    }

    #[test]
    fn added_variable_survives_refactorization() {
        let mut inc = IncrementalSimplex::new(&[1.0]);
        inc.add_constraint(&[(0, 1.0)], 4.0).unwrap();
        inc.solve().unwrap();
        inc.add_variable(3.0, 1.5, &[(0, 2.0)]);
        let warm = inc.solve().unwrap();
        inc.refactorize();
        let fresh = inc.solve().unwrap();
        assert!(approx(warm.objective_value, fresh.objective_value));
        // x1 capped at 1.5 by its implicit bound: 3·1.5 + (4 − 3) = 5.5.
        assert!(approx(fresh.objective_value, 5.5));
    }

    #[test]
    fn random_columns_added_warm_match_scratch() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        for case in 0..30 {
            let m = rng.gen_range(1..6);
            let rhs: Vec<f64> = (0..m).map(|_| rng.gen_range(0.5..4.0)).collect();
            let mut inc = IncrementalSimplex::new(&[]);
            for &b in &rhs {
                inc.add_constraint(&[], b).unwrap();
            }
            let mut cols: Vec<(f64, Vec<f64>)> = Vec::new();
            // Column-generation shape: alternate solves and column additions.
            for round in 0..8 {
                let c = rng.gen_range(0.1..3.0);
                let col: Vec<f64> = (0..m).map(|_| rng.gen_range(0.0..2.0)).collect();
                let terms: Vec<(usize, f64)> =
                    col.iter().enumerate().map(|(i, &v)| (i, v)).collect();
                inc.add_variable(c, f64::INFINITY, &terms);
                cols.push((c, col));
                if round % 2 == 0 {
                    inc.solve().unwrap();
                }
            }
            let warm = inc.solve().unwrap();
            // From-scratch reference over the same columns.
            let c: Vec<f64> = cols.iter().map(|(c, _)| *c).collect();
            let rows: Vec<Vec<f64>> = (0..m)
                .map(|i| cols.iter().map(|(_, col)| col[i]).collect())
                .collect();
            let scratch = cold_solve(&c, &rows, &rhs).unwrap();
            assert!(
                (warm.objective_value - scratch.objective_value).abs() < 1e-6,
                "case {case}: warm {} vs scratch {}",
                warm.objective_value,
                scratch.objective_value
            );
        }
    }

    #[test]
    fn refactorize_preserves_the_problem() {
        let mut inc = IncrementalSimplex::with_upper_bounds(&[2.0, 1.0], vec![1.5, f64::INFINITY]);
        inc.add_constraint(&[(0, 1.0), (1, 2.0)], 4.0).unwrap();
        let before = inc.solve().unwrap();
        inc.refactorize();
        let after = inc.solve().unwrap();
        assert!(approx(before.objective_value, after.objective_value));
        assert!(after.iterations > 0, "refactorized solve runs from scratch");
    }

    #[test]
    fn degenerate_lp_terminates_without_stall() {
        // Heavily degenerate: many redundant constraints through one vertex.
        let n = 4;
        let mut inc = IncrementalSimplex::new(&vec![1.0; n]);
        for _ in 0..10 {
            let terms: Vec<(usize, f64)> = (0..n).map(|j| (j, 1.0)).collect();
            inc.add_constraint(&terms, 1.0).unwrap();
        }
        for j in 0..n {
            inc.add_constraint(&[(j, 1.0)], 1.0).unwrap();
        }
        let sol = inc.solve().unwrap();
        assert!(approx(sol.objective_value, 1.0));
    }

    #[test]
    fn negative_rhs_rejected_at_add_time() {
        let mut inc = IncrementalSimplex::new(&[1.0]);
        assert_eq!(
            inc.add_constraint(&[(0, 1.0)], -1.0).unwrap_err(),
            LpError::NegativeRhs { row: 0 }
        );
    }

    #[test]
    fn random_lps_are_feasible_and_match_scratch_after_cuts() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4);
        for case in 0..40 {
            let n = rng.gen_range(1..6);
            let m = rng.gen_range(1..8);
            let c: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..3.0)).collect();
            let bounds: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.gen_range(0.0..1.0) < 0.5 {
                        rng.gen_range(0.2..2.0)
                    } else {
                        f64::INFINITY
                    }
                })
                .collect();
            let mut rows: Vec<Vec<f64>> = Vec::new();
            let mut rhs: Vec<f64> = Vec::new();
            let mut inc = IncrementalSimplex::with_upper_bounds(&c, bounds.clone());
            // Box every variable through rows as well, so the reference
            // (bound-free) solver sees the same feasible region.
            for j in 0..n {
                let mut row = vec![0.0; n];
                row[j] = 1.0;
                let b = if bounds[j].is_finite() {
                    bounds[j]
                } else {
                    8.0
                };
                inc.add_constraint(&[(j, 1.0)], b).unwrap();
                rows.push(row);
                rhs.push(b);
            }
            for _ in 0..m {
                let row: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..2.0)).collect();
                let b = rng.gen_range(0.5..5.0);
                let terms: Vec<(usize, f64)> =
                    row.iter().enumerate().map(|(j, &v)| (j, v)).collect();
                inc.add_constraint(&terms, b).unwrap();
                rows.push(row);
                rhs.push(b);
            }
            inc.solve().unwrap();
            // Add a random cut and re-solve incrementally.
            let cut: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.5)).collect();
            let cut_rhs = rng.gen_range(0.5..3.0);
            let terms: Vec<(usize, f64)> = cut.iter().enumerate().map(|(j, &v)| (j, v)).collect();
            inc.add_constraint(&terms, cut_rhs).unwrap();
            rows.push(cut);
            rhs.push(cut_rhs);
            let sol = inc.solve().unwrap();
            let scratch = cold_solve(&c, &rows, &rhs).unwrap();
            assert!(
                (sol.objective_value - scratch.objective_value).abs() < 1e-6,
                "case {case}: incremental {} vs scratch {}",
                sol.objective_value,
                scratch.objective_value
            );
            for (row, &b) in rows.iter().zip(&rhs) {
                let lhs: f64 = row.iter().zip(&sol.values).map(|(r, x)| r * x).sum();
                assert!(lhs <= b + 1e-6, "case {case}: infeasible solution");
            }
            for (&x, &u) in sol.values.iter().zip(&bounds) {
                assert!(x >= -1e-9 && x <= u + 1e-9, "case {case}: bound violated");
            }
        }
    }
}
