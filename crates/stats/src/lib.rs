//! Statistical substrate for the SISD reproduction.
//!
//! This crate is self-contained (no dependencies) and provides everything the
//! paper's interestingness machinery needs beyond linear algebra:
//!
//! * [`rng`] — a deterministic xoshiro256++ generator with normal /
//!   Bernoulli / categorical sampling. The library rolls its own RNG so that
//!   every experiment is reproducible bit-for-bit across platforms.
//! * [`special`] — ln-gamma, erf, and the regularized incomplete gamma
//!   function, the building blocks of the χ² distribution.
//! * [`chi2`] — χ² density/CDF with real-valued degrees of freedom, needed
//!   by the spread-pattern information content (paper Eq. 19).
//! * [`mixture`] — the Zhang (2005) three-moment approximation of a positive
//!   linear combination of χ²₁ variables (paper Eq. 18).
//! * [`normal`] — univariate normal pdf/cdf/quantile.
//! * [`kde`] — Gaussian kernel density estimation (paper Fig. 1).
//! * [`mod@quantile`] — percentiles/quantiles for the discretization split
//!   points (§III: 1/5–4/5 percentiles).
//! * [`summary`] — streaming mean/variance and weighted summaries.

pub mod chi2;
pub mod kde;
pub mod mixture;
pub mod normal;
pub mod quantile;
pub mod rng;
pub mod special;
pub mod summary;

pub use chi2::ChiSquared;
pub use kde::GaussianKde;
pub use mixture::Chi2MixtureApprox;
pub use normal::Normal;
pub use quantile::{percentile_split_points, quantile};
pub use rng::Xoshiro256pp;
pub use summary::RunningStats;
