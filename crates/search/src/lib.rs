//! Search strategies for subjectively interesting subgroup discovery
//! (paper §II-D).
//!
//! * [`eval`] — the unified candidate-evaluation engine: the *only* way
//!   search code scores candidates. Owns observed-mean aggregation,
//!   factorization reuse (lazy factors per covariance object; a candidate whose rows mix
//!   covariances gets its mixture factored for it alone), and a
//!   deterministic parallel batch evaluator whose results are bit-identical
//!   at any thread count.
//! * [`refine`] — the refinement operator: candidate conditions per
//!   attribute (numeric `≥`/`≤` at percentile split points, categorical
//!   `=`), mirroring the Cortana settings used in the paper's experiments
//!   (four split points at the 1/5–4/5 percentiles).
//! * [`beam`] — level-wise beam search over conjunctions, maximizing the
//!   location-pattern SI, with beam width / depth / minimum coverage
//!   controls and a best-`k` result log.
//! * [`sphere`] — projected gradient ascent on the unit sphere for the
//!   spread direction `w` (Eq. 21; replaces the paper's Manopt dependency),
//!   with analytic gradients, multi-start, and a 2-sparse pairwise variant.
//! * [`miner`] — the iterative mining façade: mine → show → assimilate →
//!   repeat, the FORSIED loop of the paper.
//! * [`branch_bound`] — exact search for the optimal single-target location
//!   pattern with a tight optimistic estimate (the branch-and-bound
//!   direction the paper's §V singles out as future work).
//!
//! All three strategies evaluate candidates through [`eval::Evaluator`],
//! and the two conjunctive ones (beam, branch-and-bound) *generate* their
//! candidates through the batched `sisd-frontier` subsystem: condition
//! masks are evaluated once per dataset into a contiguous bit-matrix, and
//! per-level refinement (mask AND + coverage filters) runs on fused word
//! kernels on the calling thread. The engine's [`eval::EvalConfig`] (worker threads and metrics handle) is
//! threaded from [`MinerConfig`] / [`BeamConfig`] / [`BranchBoundConfig`]
//! down to every scoring call, which forks its batch over scoped threads
//! with bit-identical results at any thread count; frontier generation
//! takes only its metrics handle.

pub mod beam;
pub mod branch_bound;
pub mod eval;
pub mod miner;
pub mod refine;
pub mod sphere;

pub use beam::{BeamConfig, BeamResult, BeamSearch};
pub use branch_bound::{branch_bound_search, BranchBoundConfig, BranchBoundResult};
pub use eval::{Candidate, EvalConfig, Evaluator, Scored};
pub use miner::{Iteration, Miner, MinerConfig};
pub use refine::{generate_conditions, RefineConfig};
pub use sphere::{
    mine_spread_pattern, optimize_direction, optimize_direction_two_sparse, SphereConfig,
    SphereResult,
};
