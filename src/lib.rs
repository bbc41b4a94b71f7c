//! Umbrella crate for the SISD reproduction workspace.
//!
//! Re-exports the public API of every member crate so that examples and
//! integration tests can use a single import root, and bundles the
//! end-to-end mining surface in [`prelude`].
//!
//! ```
//! use sisd::prelude::*;
//!
//! let (data, _planted) = datasets::synthetic_paper(7);
//! let config = MinerConfig::default();
//! let mut miner = Miner::from_empirical(data, config).unwrap();
//! let result = miner.search_locations();
//! assert!(!result.top.is_empty());
//! ```

pub use sisd_baselines as baselines;
pub use sisd_core as core;
pub use sisd_data as data;
pub use sisd_frontier as frontier;
pub use sisd_linalg as linalg;
pub use sisd_model as model;
pub use sisd_obs as obs;
pub use sisd_search as search;
pub use sisd_stats as stats;

/// The end-to-end mining API in one import: dataset containers and
/// generators, the background model, the beam/sphere/miner search surface,
/// the SI scores, and the shared [`SisdError`](sisd_core::SisdError).
pub mod prelude {
    pub use sisd_core::{
        location_ic, location_si, parse_intention, spread_ic, spread_si, Condition, ConditionOp,
        DlParams, Intention, LocationPattern, LocationScore, SisdError, SisdResult, SpreadPattern,
        SpreadScore,
    };
    pub use sisd_data::{datasets, BitSet, Column, Dataset};
    pub use sisd_linalg::Matrix;
    pub use sisd_model::BackgroundModel;
    pub use sisd_obs::{JsonlSink, Metric, NullSink, Obs, ObsHandle, RingSink, SearchReport};
    pub use sisd_search::{
        generate_conditions, mine_spread_pattern, BeamConfig, BeamResult, BeamSearch, EvalConfig,
        Evaluator, Iteration, Miner, MinerConfig, RefineConfig, SphereConfig,
    };
}
