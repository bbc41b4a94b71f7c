//! The FORSIED background distribution over real-valued targets.
//!
//! This crate implements §II-B of the paper: the user's belief state is a
//! product of per-data-point multivariate normals (Eq. 4), initialized as
//! the maximum-entropy distribution matching prior mean/covariance beliefs
//! (Eq. 3) and updated by I-projection (minimum KL) whenever a location or
//! spread pattern is shown to the user (Theorems 1 and 2).
//!
//! Key design points:
//!
//! * **Parameter cells.** Rows covered by the same set of assimilated
//!   patterns share `(μ, Σ)` (the paper's footnote 2). [`BackgroundModel`]
//!   maintains the partition explicitly, so all statistics are sums over a
//!   handful of cells rather than over `n` rows.
//! * **Exact single-constraint projections.** A location update solves the
//!   KKT system `(Σ_{i∈I} Σᵢ) λ = |I| (ŷ_I − μ̄_I)` (the corrected Thm. 1 —
//!   see DESIGN.md); a spread update finds the unique root of Eq. 12 and
//!   applies the Sherman–Morrison forms of Eqs. 10–11.
//! * **Cyclic re-projection.** Assimilating pattern `t+1` perturbs the
//!   constraints of patterns `1..t` wherever extensions overlap;
//!   [`BackgroundModel::refit`] cycles through all stored constraints until
//!   the maximum violation drops below tolerance (convergent because
//!   expectation constraints are linear families).

mod background;
mod cell;
mod constraint;
mod snap;
mod solver;

pub use background::{
    BackgroundModel, LocationCandidate, LocationRun, LocationScratch, LocationStats, ModelError,
    RefitStats, SpreadStats, WARM_COLD_SCORE_TOL,
};
pub use cell::{Cell, Covariance};
pub use constraint::Constraint;
pub use solver::solve_spread_lambda;
