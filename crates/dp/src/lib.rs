//! Differential-privacy substrate.
//!
//! Implements the mechanisms used by the paper's algorithm:
//!
//! * [`laplace`]: the Laplace distribution and the Laplace mechanism
//!   (Theorem 2.2), including the tail bound of Lemma 2.3,
//! * [`exponential`]: the Exponential Mechanism of McSherry–Talwar
//!   (Theorem B.1), in the minimization convention used by the paper,
//! * [`gem`]: the Generalized Exponential Mechanism of Raskhodnikova–Smith
//!   applied to threshold selection for a family of Lipschitz extensions
//!   (Algorithm 4),
//! * [`composition`]: sequential composition bookkeeping (Lemma 2.4).
//!
//! All mechanisms take an explicit `&mut impl Rng`, so experiments and tests are
//! reproducible with seeded generators.

#![forbid(unsafe_code)]

pub mod composition;
pub mod exponential;
pub mod gem;
pub mod laplace;

pub use composition::{BudgetExceeded, PrivacyBudget};
pub use exponential::exponential_mechanism_min;
pub use gem::{generalized_exponential_mechanism, GemCandidate, GemSelection};
pub use laplace::{laplace_mechanism, sample_laplace, LaplaceNoise};
