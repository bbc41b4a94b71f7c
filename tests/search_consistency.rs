//! Cross-crate search consistency: the heuristic beam against the exact
//! branch-and-bound miner, refinement bookkeeping, and baseline miners on
//! shared data.

use proptest::prelude::*;
use sisd::baselines::{top_k_by_quality, MeanShiftZ};
use sisd::data::{BitSet, Column, Dataset};
use sisd::linalg::Matrix;
use sisd::model::BackgroundModel;
use sisd::search::{branch_bound::branch_bound_search, BeamConfig, BeamSearch, BranchBoundConfig};
use sisd::stats::Xoshiro256pp;

/// Small single-target dataset with a mix of binary and numeric attributes.
fn random_data(seed: u64, n: usize) -> Dataset {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let flag: Vec<bool> = (0..n).map(|_| rng.bernoulli(0.3)).collect();
    let num: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
    let cat = Column::categorical_from_strs(
        &(0..n)
            .map(|_| ["a", "b", "c"][rng.below(3)])
            .collect::<Vec<_>>(),
    );
    let mut targets = Matrix::zeros(n, 1);
    for i in 0..n {
        let bump = if flag[i] { 1.5 } else { 0.0 };
        targets[(i, 0)] = rng.normal() + bump + num[i];
    }
    Dataset::new(
        "rand",
        vec!["flag".into(), "num".into(), "cat".into()],
        vec![Column::binary(&flag), Column::Numeric(num), cat],
        vec!["y".into()],
        targets,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A wide beam at full depth must reach the branch-and-bound optimum
    /// on small data (the beam is complete at depth 1 by construction and
    /// the optimum here is shallow).
    #[test]
    fn wide_beam_matches_branch_bound(seed in 0u64..200) {
        let data = random_data(seed, 80);
        let cfg_depth = 2;
        let min_cov = 5;

        let model = BackgroundModel::from_empirical(&data).unwrap();
        let bb = branch_bound_search(&data, &model, BranchBoundConfig {
            max_depth: cfg_depth,
            min_coverage: min_cov,
            ..BranchBoundConfig::default()
        });
        let optimum = bb.best.expect("optimum exists").score.si;

        let model2 = BackgroundModel::from_empirical(&data).unwrap();
        let beam = BeamSearch::new(BeamConfig {
            width: 10_000, // effectively exhaustive at this size
            max_depth: cfg_depth,
            top_k: 5,
            min_coverage: min_cov,
            max_coverage_fraction: 1.0,
            ..BeamConfig::default()
        });
        let result = beam.run(&data, &model2);
        let beam_best = result.best().expect("found").score.si;
        prop_assert!(
            (beam_best - optimum).abs() < 1e-9,
            "beam {beam_best} vs optimum {optimum} (seed {seed})"
        );
    }

    /// Narrow beams never *exceed* the certified optimum.
    #[test]
    fn beam_never_beats_the_optimum(seed in 0u64..200, width in 1usize..8) {
        let data = random_data(seed, 60);
        let model = BackgroundModel::from_empirical(&data).unwrap();
        let bb = branch_bound_search(&data, &model, BranchBoundConfig {
            max_depth: 2,
            min_coverage: 5,
            ..BranchBoundConfig::default()
        });
        let optimum = bb.best.expect("optimum").score.si;
        let model2 = BackgroundModel::from_empirical(&data).unwrap();
        let result = BeamSearch::new(BeamConfig {
            width,
            max_depth: 2,
            top_k: 3,
            min_coverage: 5,
            max_coverage_fraction: 1.0,
            ..BeamConfig::default()
        })
        .run(&data, &model2);
        if let Some(best) = result.best() {
            prop_assert!(best.score.si <= optimum + 1e-9);
        }
    }
}

#[test]
fn logged_patterns_have_correct_extensions_and_means() {
    let data = random_data(3, 120);
    let model = BackgroundModel::from_empirical(&data).unwrap();
    let result = BeamSearch::new(BeamConfig {
        width: 10,
        max_depth: 2,
        top_k: 40,
        ..BeamConfig::default()
    })
    .run(&data, &model);
    for p in &result.top {
        // Re-evaluating the intention reproduces the stored extension.
        assert_eq!(p.intention.evaluate(&data), p.extension);
        // The stored mean is the extension's target mean.
        let mean = data.target_mean(&p.extension);
        for (a, b) in p.observed_mean.iter().zip(&mean) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(p.extension.count() >= 5);
    }
}

#[test]
fn baseline_and_sisd_agree_on_a_strong_planted_signal() {
    let data = random_data(11, 200);
    // SISD top pattern.
    let model = BackgroundModel::from_empirical(&data).unwrap();
    let sisd_top = BeamSearch::new(BeamConfig {
        width: 20,
        max_depth: 1,
        top_k: 5,
        ..BeamConfig::default()
    })
    .run(&data, &model);
    let sisd_best = sisd_top.best().unwrap();
    // Baseline top pattern.
    let base = top_k_by_quality(&data, &MeanShiftZ { a: 0.5 }, 1, 20, 1, 5);
    let base_best = &base[0];
    // Both must identify the flag attribute at depth 1.
    assert!(sisd_best.intention.conditions()[0].attr == 0);
    assert!(base_best.intention.conditions()[0].attr == 0);
}

#[test]
fn branch_bound_prunes_but_stays_exact_at_depth_three() {
    let data = random_data(29, 70);
    let model = BackgroundModel::from_empirical(&data).unwrap();
    let cfg = BranchBoundConfig {
        max_depth: 3,
        min_coverage: 4,
        ..BranchBoundConfig::default()
    };
    let bb = branch_bound_search(&data, &model, cfg);
    assert!(bb.best.is_some());
    // Exhaustive cross-check with an effectively-unbounded beam.
    let model2 = BackgroundModel::from_empirical(&data).unwrap();
    let result = BeamSearch::new(BeamConfig {
        width: 100_000,
        max_depth: 3,
        top_k: 1,
        min_coverage: 4,
        max_coverage_fraction: 1.0,
        ..BeamConfig::default()
    })
    .run(&data, &model2);
    let exhaustive = result.best().unwrap().score.si;
    let exact = bb.best.unwrap().score.si;
    assert!(
        (exact - exhaustive).abs() < 1e-9,
        "b&b {exact} vs exhaustive {exhaustive}"
    );
    let ext = BitSet::full(data.n());
    assert_eq!(ext.count(), 70); // sanity: helper data size
}
