//! Error types: the algorithm-level [`CoreError`] and the unified public
//! [`CcdpError`] returned by every [`Estimator`](crate::estimator::Estimator).

use crate::config::ConfigError;
use ccdp_dp::composition::BudgetExceeded;
use ccdp_lp::{LpError, PolytopeError};

/// Errors surfaced by the core algorithms (extension evaluation and the
/// constraint-generation loop).
#[derive(Clone, Debug, PartialEq)]
pub enum CoreError {
    /// The underlying LP solver failed (unbounded / iteration limit / bad input).
    Lp(LpError),
    /// The cutting-plane loop did not converge within its round limit.
    SeparationDidNotConverge {
        /// Number of rounds the loop ran before giving up.
        rounds: usize,
    },
    /// An invalid parameter was supplied.
    InvalidParameter(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Lp(e) => write!(f, "LP solver error: {e}"),
            CoreError::SeparationDidNotConverge { rounds } => {
                write!(
                    f,
                    "constraint generation did not converge within {rounds} rounds"
                )
            }
            CoreError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Lp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LpError> for CoreError {
    fn from(e: LpError) -> Self {
        CoreError::Lp(e)
    }
}

impl From<PolytopeError> for CoreError {
    fn from(e: PolytopeError) -> Self {
        match e {
            PolytopeError::InvalidDelta { delta } => {
                CoreError::InvalidParameter(format!("delta must be positive, got {delta}"))
            }
            PolytopeError::Lp(lp) => CoreError::Lp(lp),
            PolytopeError::SeparationDidNotConverge { rounds } => {
                CoreError::SeparationDidNotConverge { rounds }
            }
        }
    }
}

/// The one error type of the public estimator API: every failure mode of the
/// layer crates converges here via `From` conversions, so callers (and
/// `Box<dyn Estimator>` serving loops) match on a single enum.
#[derive(Clone, Debug, PartialEq)]
pub enum CcdpError {
    /// An estimator was built or run with an invalid configuration.
    Config(ConfigError),
    /// A mechanism requested more privacy budget than remained.
    Budget(BudgetExceeded),
    /// The underlying algorithm failed (LP solver, constraint generation, …).
    Algorithm(CoreError),
}

impl std::fmt::Display for CcdpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CcdpError::Config(e) => write!(f, "configuration error: {e}"),
            CcdpError::Budget(e) => write!(f, "privacy budget error: {e}"),
            CcdpError::Algorithm(e) => write!(f, "algorithm error: {e}"),
        }
    }
}

impl std::error::Error for CcdpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CcdpError::Config(e) => Some(e),
            CcdpError::Budget(e) => Some(e),
            CcdpError::Algorithm(e) => Some(e),
        }
    }
}

impl From<ConfigError> for CcdpError {
    fn from(e: ConfigError) -> Self {
        CcdpError::Config(e)
    }
}

impl From<BudgetExceeded> for CcdpError {
    fn from(e: BudgetExceeded) -> Self {
        CcdpError::Budget(e)
    }
}

impl From<CoreError> for CcdpError {
    fn from(e: CoreError) -> Self {
        CcdpError::Algorithm(e)
    }
}

impl From<LpError> for CcdpError {
    fn from(e: LpError) -> Self {
        CcdpError::Algorithm(CoreError::Lp(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CoreError::SeparationDidNotConverge { rounds: 7 };
        assert!(e.to_string().contains('7'));
        let e = CoreError::InvalidParameter("epsilon must be positive".into());
        assert!(e.to_string().contains("epsilon"));
        let e: CoreError = LpError::Unbounded.into();
        assert!(e.to_string().contains("unbounded"));
    }

    #[test]
    fn every_layer_error_converts_into_ccdp_error() {
        let from_config: CcdpError = ConfigError::InvalidEpsilon { value: -1.0 }.into();
        assert!(matches!(from_config, CcdpError::Config(_)));
        assert!(from_config.to_string().contains("epsilon"));

        let from_budget: CcdpError = BudgetExceeded {
            requested: 2.0,
            remaining: 1.0,
        }
        .into();
        assert!(matches!(from_budget, CcdpError::Budget(_)));

        let from_core: CcdpError = CoreError::SeparationDidNotConverge { rounds: 3 }.into();
        assert!(matches!(from_core, CcdpError::Algorithm(_)));

        let from_lp: CcdpError = LpError::Unbounded.into();
        assert!(matches!(from_lp, CcdpError::Algorithm(CoreError::Lp(_))));
    }

    #[test]
    fn sources_are_chained() {
        use std::error::Error;
        let e: CcdpError = ConfigError::InvalidDeltaMax { value: 0 }.into();
        assert!(e.source().is_some());
    }
}
