//! Sequential composition bookkeeping (Lemma 2.4).
//!
//! Running `t` ε-node-private algorithms and post-processing their outputs is
//! `(t·ε)`-node-private. [`PrivacyBudget`] tracks how a total ε is split across the
//! stages of a composed algorithm so that callers (and tests) can verify the split
//! adds up to the advertised guarantee.

/// A privacy budget that is consumed by named stages.
#[derive(Clone, Debug)]
pub struct PrivacyBudget {
    total_epsilon: f64,
    spent: Vec<(String, f64)>,
    /// Running sum of `spent`, so the hot check-and-spend path is O(1)
    /// instead of re-summing the ledger (a long-lived serving tenant records
    /// one ledger entry per release).
    spent_total: f64,
}

impl PrivacyBudget {
    /// Creates a budget with the given total ε.
    ///
    /// # Panics
    /// Panics if `total_epsilon` is not strictly positive and finite.
    pub fn new(total_epsilon: f64) -> Self {
        assert!(
            total_epsilon.is_finite() && total_epsilon > 0.0,
            "total epsilon must be positive"
        );
        PrivacyBudget {
            total_epsilon,
            spent: Vec::new(),
            spent_total: 0.0,
        }
    }

    /// The total ε of the budget.
    pub fn total_epsilon(&self) -> f64 {
        self.total_epsilon
    }

    /// ε consumed so far.
    pub fn spent_epsilon(&self) -> f64 {
        self.spent_total
    }

    /// ε still available.
    pub fn remaining_epsilon(&self) -> f64 {
        (self.total_epsilon - self.spent_epsilon()).max(0.0)
    }

    /// Consumes `epsilon` for the named stage. Returns the consumed amount.
    ///
    /// # Errors
    /// Returns an error if the request exceeds the remaining budget (beyond a tiny
    /// numerical slack).
    pub fn spend(&mut self, stage: &str, epsilon: f64) -> Result<f64, BudgetExceeded> {
        assert!(epsilon > 0.0, "stage epsilon must be positive");
        if !self.admits(epsilon) {
            return Err(BudgetExceeded {
                requested: epsilon,
                remaining: self.remaining_epsilon(),
            });
        }
        self.spent.push((stage.to_string(), epsilon));
        self.spent_total += epsilon;
        Ok(epsilon)
    }

    /// Consumes an equal share `total/k` of the *original* budget.
    pub fn spend_fraction(&mut self, stage: &str, fraction: f64) -> Result<f64, BudgetExceeded> {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must lie in (0, 1]"
        );
        self.spend(stage, self.total_epsilon * fraction)
    }

    /// The per-stage ledger (stage name, ε).
    pub fn ledger(&self) -> &[(String, f64)] {
        &self.spent
    }

    /// Number of stages recorded in the ledger.
    pub fn num_stages(&self) -> usize {
        self.spent.len()
    }

    /// Whether a spend of `epsilon` would be admitted right now (same
    /// numerical slack as [`PrivacyBudget::spend`]).
    pub fn can_spend(&self, epsilon: f64) -> bool {
        epsilon > 0.0 && self.admits(epsilon)
    }

    /// The admission rule of [`spend`](Self::spend) and
    /// [`can_spend`](Self::can_spend): the lifetime total may exceed the
    /// budget by at most `1e-12` of rounding slack. The slack is measured
    /// against the running total, not the clamped remainder, so it is granted
    /// once over the budget's life — an exhausted budget refuses even dust.
    fn admits(&self, epsilon: f64) -> bool {
        self.spent_total + epsilon <= self.total_epsilon + 1e-12
    }

    /// Total ε recorded for stages with the given name (0 if absent).
    pub fn spent_for_stage(&self, stage: &str) -> f64 {
        self.spent
            .iter()
            .filter(|(name, _)| name == stage)
            .map(|(_, e)| e)
            .sum()
    }

    /// Fraction of the total budget consumed so far, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        (self.spent_epsilon() / self.total_epsilon).clamp(0.0, 1.0)
    }
}

/// Error returned when a stage requests more ε than remains.
#[derive(Clone, Debug, PartialEq)]
pub struct BudgetExceeded {
    /// The ε requested by the stage.
    pub requested: f64,
    /// The ε still available.
    pub remaining: f64,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "privacy budget exceeded: requested ε = {}, remaining ε = {}",
            self.requested, self.remaining
        )
    }
}

impl std::error::Error for BudgetExceeded {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spending_within_budget_succeeds() {
        let mut b = PrivacyBudget::new(1.0);
        assert!(b.spend("gem", 0.5).is_ok());
        assert!(b.spend("laplace", 0.5).is_ok());
        assert!(b.remaining_epsilon() < 1e-12);
        assert_eq!(b.ledger().len(), 2);
    }

    #[test]
    fn overspending_is_rejected() {
        let mut b = PrivacyBudget::new(1.0);
        b.spend("a", 0.8).unwrap();
        let err = b.spend("b", 0.3).unwrap_err();
        assert!(err.requested > err.remaining);
    }

    #[test]
    fn fraction_spending_matches_algorithm_1_split() {
        // Algorithm 1 splits ε into ε/2 for GEM and ε/2 for the Laplace release.
        let mut b = PrivacyBudget::new(2.0);
        assert_eq!(b.spend_fraction("gem", 0.5).unwrap(), 1.0);
        assert_eq!(b.spend_fraction("laplace", 0.5).unwrap(), 1.0);
        assert!(b.remaining_epsilon().abs() < 1e-12);
    }

    #[test]
    fn total_spent_is_sum_of_stages() {
        let mut b = PrivacyBudget::new(3.0);
        b.spend("a", 1.0).unwrap();
        b.spend("b", 0.5).unwrap();
        assert!((b.spent_epsilon() - 1.5).abs() < 1e-12);
        assert!((b.remaining_epsilon() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn non_positive_total_rejected() {
        PrivacyBudget::new(0.0);
    }

    #[test]
    fn accessors_report_the_ledger_state() {
        let mut b = PrivacyBudget::new(2.0);
        assert!(b.can_spend(2.0));
        assert!(!b.can_spend(2.1));
        assert!(!b.can_spend(0.0));
        b.spend("gem", 0.5).unwrap();
        b.spend("laplace", 0.5).unwrap();
        b.spend("gem", 0.25).unwrap();
        assert_eq!(b.num_stages(), 3);
        assert!((b.spent_for_stage("gem") - 0.75).abs() < 1e-12);
        assert!((b.spent_for_stage("laplace") - 0.5).abs() < 1e-12);
        assert_eq!(b.spent_for_stage("unknown"), 0.0);
        assert!((b.utilization() - 0.625).abs() < 1e-12);
        assert!(b.can_spend(0.75));
        assert!(!b.can_spend(0.76));
    }

    #[test]
    fn an_exhausted_budget_refuses_dust() {
        let mut b = PrivacyBudget::new(1.0);
        b.spend("all", 1.0).unwrap();
        // The rounding slack is a lifetime allowance: at most one
        // 1e-12-sized spend fits in it, never a stream of them.
        let admitted = (0..1000).filter(|_| b.spend("dust", 1e-12).is_ok()).count();
        assert!(admitted <= 1, "{admitted} dust spends admitted");
        assert!(!b.can_spend(1e-12));
        assert!(b.spent_epsilon() <= 1.0 + 1e-12);
    }
}
