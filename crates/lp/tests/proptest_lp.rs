//! Property-based tests for the simplex solver.

use ccdp_lp::{IncrementalSimplex, LpError, LpSolution};
use proptest::prelude::*;

/// Solves `max cᵀx` subject to the dense rows `row · x ≤ rhs`, `x ≥ 0`, on a
/// fresh tableau.
fn cold_solve(c: &[f64], rows: &[(Vec<f64>, f64)]) -> Result<LpSolution, LpError> {
    let mut lp = IncrementalSimplex::new(c);
    for (row, rhs) in rows {
        let terms: Vec<(usize, f64)> = row
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, v)| v != 0.0)
            .collect();
        lp.add_constraint(&terms, *rhs)?;
    }
    lp.solve()
}

fn dot(coeffs: &[f64], x: &[f64]) -> f64 {
    coeffs.iter().zip(x).map(|(a, b)| a * b).sum()
}

/// A random LP with non-negative constraint matrix and positive rhs (always
/// feasible at the origin, bounded whenever every variable appears in some row
/// with a positive coefficient).
fn arb_lp() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<f64>>, Vec<f64>)> {
    (1usize..5, 1usize..7).prop_flat_map(|(nvars, ncons)| {
        (
            proptest::collection::vec(-2.0f64..3.0, nvars),
            proptest::collection::vec(proptest::collection::vec(0.0f64..2.0, nvars), ncons),
            proptest::collection::vec(0.5f64..5.0, ncons),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn solutions_are_feasible_and_nonnegative((c, a, b) in arb_lp()) {
        let rows: Vec<(Vec<f64>, f64)> = a.iter().cloned().zip(b.iter().copied()).collect();
        match cold_solve(&c, &rows) {
            Ok(sol) => {
                for (row, &rhs) in a.iter().zip(&b) {
                    prop_assert!(dot(row, &sol.values) <= rhs + 1e-6);
                }
                for &x in &sol.values {
                    prop_assert!(x >= -1e-9);
                }
                // Objective value is consistent with the reported point.
                let recomputed = dot(&c, &sol.values);
                prop_assert!((recomputed - sol.objective_value).abs() < 1e-6);
                // The optimum is at least the value at the origin (0).
                prop_assert!(sol.objective_value >= -1e-9 || c.iter().all(|&ci| ci <= 0.0));
            }
            Err(LpError::Unbounded) => {
                // Acceptable: some variable with positive objective never appears
                // with a positive coefficient in any constraint.
                let unbounded_possible = c.iter().enumerate().any(|(j, &cj)| {
                    cj > 0.0 && a.iter().all(|row| row[j] <= 1e-8)
                });
                prop_assert!(unbounded_possible, "unexpected unboundedness");
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected LP error: {e}"))),
        }
    }

    #[test]
    fn adding_a_constraint_never_improves_the_optimum((c, a, b) in arb_lp(), extra_rhs in 0.5f64..5.0) {
        // Build the base LP and make sure it is bounded by boxing every variable.
        let n = c.len();
        let mut rows: Vec<(Vec<f64>, f64)> = Vec::new();
        for j in 0..n {
            let mut row = vec![0.0; n];
            row[j] = 1.0;
            rows.push((row, 10.0));
        }
        rows.extend(a.iter().cloned().zip(b.iter().copied()));
        let before = cold_solve(&c, &rows).unwrap().objective_value;
        rows.push((vec![1.0; n], extra_rhs));
        let after = cold_solve(&c, &rows).unwrap().objective_value;
        prop_assert!(after <= before + 1e-6);
    }

    #[test]
    fn two_variable_lps_match_vertex_enumeration(
        c in proptest::collection::vec(-2.0f64..3.0, 2),
        rows in proptest::collection::vec((0.0f64..2.0, 0.0f64..2.0, 0.5f64..4.0), 1..5),
    ) {
        // Box constraints keep the LP bounded and make vertex enumeration easy.
        let mut all_rows = vec![(1.0, 0.0, 6.0), (0.0, 1.0, 6.0)];
        all_rows.extend(rows.iter().copied());
        let dense: Vec<(Vec<f64>, f64)> =
            all_rows.iter().map(|&(a0, a1, rhs)| (vec![a0, a1], rhs)).collect();
        let sol = cold_solve(&c, &dense).unwrap();

        // Enumerate candidate vertices: intersections of constraint/axis pairs.
        let mut best = 0.0f64; // the origin
        let mut lines = all_rows.clone();
        lines.push((1.0, 0.0, 0.0));
        lines.push((0.0, 1.0, 0.0));
        for i in 0..lines.len() {
            for j in (i + 1)..lines.len() {
                let (a, b2, e) = lines[i];
                let (c2, d, f) = lines[j];
                let det = a * d - b2 * c2;
                if det.abs() < 1e-9 {
                    continue;
                }
                let x = (e * d - b2 * f) / det;
                let y = (a * f - e * c2) / det;
                if x < -1e-9 || y < -1e-9 {
                    continue;
                }
                if all_rows.iter().all(|&(p, q, r)| p * x + q * y <= r + 1e-7) {
                    best = best.max(c[0] * x + c[1] * y);
                }
            }
        }
        prop_assert!((sol.objective_value - best).abs() < 1e-4,
            "simplex {} vs enumeration {}", sol.objective_value, best);
    }
}
