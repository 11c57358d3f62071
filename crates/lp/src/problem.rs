//! Result and error types of the `max cᵀx, Ax ≤ b, x ≥ 0` linear programs
//! solved by [`IncrementalSimplex`](crate::IncrementalSimplex).

/// Errors reported by the solver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpError {
    /// The objective is unbounded above over the feasible region.
    Unbounded,
    /// The constraint system admits no feasible point (reported by the dual
    /// simplex when a negative-rhs row has no negative coefficient).
    Infeasible,
    /// The solver made no progress within its pivot budget. Bland's
    /// anti-cycling rule rules out true cycling, so this signals numerical
    /// trouble (a stalled, drifting tableau) rather than a pathological but
    /// valid pivot sequence.
    Stalled {
        /// Lifetime pivot count of the tableau when it stalled.
        pivots: usize,
    },
    /// A right-hand side was negative; this solver requires `b ≥ 0`.
    NegativeRhs { row: usize },
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Unbounded => write!(f, "objective is unbounded"),
            LpError::Infeasible => write!(f, "constraint system is infeasible"),
            LpError::Stalled { pivots } => {
                write!(f, "simplex stalled numerically after {pivots} pivots")
            }
            LpError::NegativeRhs { row } => {
                write!(f, "constraint {row} has a negative right-hand side")
            }
        }
    }
}

impl std::error::Error for LpError {}

/// Solution of a linear program.
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Optimal objective value.
    pub objective_value: f64,
    /// Optimal values of the structural variables.
    pub values: Vec<f64>,
    /// Number of simplex pivots performed.
    pub iterations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IncrementalSimplex;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    /// Adds the dense row `coeffs · x ≤ rhs` (zeros dropped).
    fn add_dense(lp: &mut IncrementalSimplex, coeffs: &[f64], rhs: f64) -> Result<(), LpError> {
        let terms: Vec<(usize, f64)> = coeffs
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, v)| v != 0.0)
            .collect();
        lp.add_constraint(&terms, rhs)
    }

    fn dot(coeffs: &[f64], x: &[f64]) -> f64 {
        coeffs.iter().zip(x).map(|(a, b)| a * b).sum()
    }

    #[test]
    fn trivial_box_constraint() {
        // max x s.t. x ≤ 4.
        let mut lp = IncrementalSimplex::new(&[1.0]);
        add_dense(&mut lp, &[1.0], 4.0).unwrap();
        let sol = lp.solve().unwrap();
        assert!(approx(sol.objective_value, 4.0));
        assert!(approx(sol.values[0], 4.0));
    }

    #[test]
    fn two_variable_textbook_lp() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 -> optimum 36 at (2, 6).
        let mut lp = IncrementalSimplex::new(&[3.0, 5.0]);
        add_dense(&mut lp, &[1.0, 0.0], 4.0).unwrap();
        add_dense(&mut lp, &[0.0, 2.0], 12.0).unwrap();
        add_dense(&mut lp, &[3.0, 2.0], 18.0).unwrap();
        let sol = lp.solve().unwrap();
        assert!(approx(sol.objective_value, 36.0));
        assert!(approx(sol.values[0], 2.0));
        assert!(approx(sol.values[1], 6.0));
    }

    #[test]
    fn unbounded_detection() {
        // max x + y with only x ≤ 1: y is unbounded.
        let mut lp = IncrementalSimplex::new(&[1.0, 1.0]);
        add_dense(&mut lp, &[1.0, 0.0], 1.0).unwrap();
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn no_constraints_zero_objective() {
        // max 0 with no constraints: optimum 0 at the origin.
        let mut lp = IncrementalSimplex::new(&[0.0, 0.0, 0.0]);
        let sol = lp.solve().unwrap();
        assert!(approx(sol.objective_value, 0.0));
    }

    #[test]
    fn negative_objective_coefficients_stay_at_zero() {
        let mut lp = IncrementalSimplex::new(&[-1.0, 2.0]);
        add_dense(&mut lp, &[1.0, 1.0], 5.0).unwrap();
        let sol = lp.solve().unwrap();
        assert!(approx(sol.objective_value, 10.0));
        assert!(approx(sol.values[0], 0.0));
        assert!(approx(sol.values[1], 5.0));
    }

    #[test]
    fn negative_rhs_is_rejected() {
        let mut lp = IncrementalSimplex::new(&[1.0]);
        assert!(matches!(
            add_dense(&mut lp, &[1.0], -2.0).unwrap_err(),
            LpError::NegativeRhs { row: 0 }
        ));
    }

    #[test]
    fn sparse_constraints_accumulate() {
        // max x0 + x1 s.t. x0 + x1 ≤ 3 (given sparsely, with a repeated index).
        let mut lp = IncrementalSimplex::new(&[1.0, 1.0]);
        lp.add_constraint(&[(0, 0.5), (0, 0.5), (1, 1.0)], 3.0)
            .unwrap();
        let sol = lp.solve().unwrap();
        assert!(approx(sol.objective_value, 3.0));
    }

    #[test]
    fn incremental_cutting_planes_tighten_the_optimum() {
        // Start loose, add a cut, re-solve: the optimum must not increase.
        let mut lp = IncrementalSimplex::new(&[1.0, 1.0]);
        add_dense(&mut lp, &[1.0, 0.0], 10.0).unwrap();
        add_dense(&mut lp, &[0.0, 1.0], 10.0).unwrap();
        let first = lp.solve().unwrap().objective_value;
        add_dense(&mut lp, &[1.0, 1.0], 8.0).unwrap();
        let second = lp.solve().unwrap().objective_value;
        assert!(approx(first, 20.0));
        assert!(approx(second, 8.0));
        assert!(second <= first + 1e-9);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Multiple redundant constraints through the same vertex.
        let mut lp = IncrementalSimplex::new(&[1.0, 1.0]);
        for _ in 0..6 {
            add_dense(&mut lp, &[1.0, 1.0], 1.0).unwrap();
        }
        add_dense(&mut lp, &[1.0, 0.0], 1.0).unwrap();
        add_dense(&mut lp, &[0.0, 1.0], 1.0).unwrap();
        let sol = lp.solve().unwrap();
        assert!(approx(sol.objective_value, 1.0));
    }

    #[test]
    fn solution_is_feasible() {
        let rows = [
            ([1.0, 1.0, 1.0], 10.0),
            ([2.0, 1.0, 0.0], 8.0),
            ([0.0, 1.0, 3.0], 9.0),
        ];
        let mut lp = IncrementalSimplex::new(&[2.0, 3.0, 1.0]);
        for (row, rhs) in &rows {
            add_dense(&mut lp, row, *rhs).unwrap();
        }
        let sol = lp.solve().unwrap();
        for (row, rhs) in &rows {
            assert!(dot(row, &sol.values) <= rhs + 1e-6);
        }
        for &v in &sol.values {
            assert!(v >= -1e-9);
        }
    }
}
