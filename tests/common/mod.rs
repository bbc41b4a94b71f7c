//! Fixtures shared by more than one integration-test binary.

use sisd::data::datasets::water_quality_synthetic;
use sisd::data::{BitSet, Dataset};
use sisd::model::BackgroundModel;
use sisd::search::{BeamConfig, EvalConfig, Miner, MinerConfig, SphereConfig};

/// The Figs. 9–10 settings, as the `water-spread-durable` benchmark
/// workload runs them.
pub fn water_config() -> MinerConfig {
    MinerConfig {
        beam: BeamConfig {
            width: 40,
            max_depth: 2,
            top_k: 150,
            min_coverage: 30,
            eval: EvalConfig::with_threads(1),
            ..BeamConfig::default()
        },
        sphere: SphereConfig {
            random_starts: 10,
            ..SphereConfig::default()
        },
        two_sparse_spread: false,
        refit_tol: 1e-7,
        refit_max_cycles: 100,
    }
}

/// The water simulacrum at seed 2018 after three location+spread steps,
/// with the fourth step's location pattern assimilated: the model and
/// subgroup that step's direction search runs on (dy = 16, the subgroup's
/// rows spread over cells holding several covariance objects).
pub fn water_after_three_steps() -> (Dataset, BackgroundModel, BitSet) {
    let mut miner =
        Miner::from_empirical(water_quality_synthetic(2018), water_config()).expect("model fits");
    for _ in 0..3 {
        miner
            .step_with_spread()
            .expect("step")
            .expect("pattern found");
    }
    let best = miner
        .search_locations()
        .best()
        .cloned()
        .expect("pattern found");
    miner.assimilate_location(&best).expect("assimilation");
    (miner.data().clone(), miner.model().clone(), best.extension)
}
