//! Beam search for location patterns over **binary** targets, scored
//! against the Bernoulli MaxEnt model (`sisd_model::binary`) — the §V
//! extension of the paper implemented end to end.
//!
//! Runs the *same* level-wise loop as [`crate::beam`] (width / depth /
//! coverage floor / top-k log / canonical conjunction dedup — run as the
//! count-first frontier's keep predicate, so duplicate conjunctions are
//! dropped on support counts before their extensions are materialized),
//! through the same [`crate::eval::Evaluator`] — only the backend
//! differs: IC is computed under the Bernoulli background distribution
//! instead of the Gaussian one. This is the principled way to mine presence/absence
//! targets like the mammal atlas, where the Gaussian model treats 0/1
//! indicators as real values. `config.eval.threads` parallelizes candidate
//! evaluation here too, with identical results at any thread count.

use crate::eval::{run_beam_levels, Evaluator, SearchLanguage};
use crate::BeamConfig;
use sisd_core::LocationPattern;
use sisd_data::Dataset;
use sisd_model::BinaryBackgroundModel;
use std::time::Instant;

/// Result of a binary-target beam search.
#[derive(Debug)]
pub struct BinaryBeamResult {
    /// Patterns sorted by decreasing SI, at most `top_k`.
    pub top: Vec<LocationPattern>,
    /// Candidates scored.
    pub evaluated: usize,
    /// Candidates dropped because of numeric model breakdown (never
    /// empty-extension skips); zero in healthy runs.
    pub degraded: usize,
}

impl BinaryBeamResult {
    /// The most interesting pattern, if any.
    pub fn best(&self) -> Option<&LocationPattern> {
        self.top.first()
    }
}

/// Runs the search. Dataset targets must be 0/1-valued (validated by
/// [`BinaryBackgroundModel::from_empirical`] when the model is built).
pub fn binary_beam_search(
    data: &Dataset,
    model: &BinaryBackgroundModel,
    config: &BeamConfig,
) -> BinaryBeamResult {
    let start = Instant::now();
    let ev = Evaluator::bernoulli(data, model, config.dl, config.eval);
    let language = SearchLanguage::new(data, &config.refine);
    let outcome = run_beam_levels(&ev, config, &language, start);
    BinaryBeamResult {
        top: outcome.top,
        evaluated: outcome.evaluated,
        degraded: outcome.degraded,
    }
}

/// One iterative mining step for binary targets: search, assimilate the
/// top pattern's subgroup means, return it.
pub fn binary_step(
    data: &Dataset,
    model: &mut BinaryBackgroundModel,
    config: &BeamConfig,
) -> Option<LocationPattern> {
    let result = binary_beam_search(data, model, config);
    let best = result.best()?.clone();
    model
        .assimilate_location(&best.extension, &best.observed_mean)
        .expect("extension is non-empty");
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EvalConfig;
    use sisd_data::datasets::mammals_synthetic;
    use sisd_data::Column;
    use sisd_linalg::Matrix;
    use sisd_stats::Xoshiro256pp;

    /// Binary-target dataset with one planted enriched subgroup.
    fn planted(seed: u64) -> Dataset {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let n = 300;
        let flag: Vec<bool> = (0..n).map(|i| i % 5 == 0).collect();
        let mut targets = Matrix::zeros(n, 3);
        for i in 0..n {
            let boost = if flag[i] { 0.6 } else { 0.0 };
            for j in 0..3 {
                let base = [0.2f64, 0.5, 0.8][j];
                let p = (base + boost * [1.0, -0.5, 0.2][j]).clamp(0.02, 0.98);
                targets[(i, j)] = f64::from(u8::from(rng.bernoulli(p)));
            }
        }
        Dataset::new(
            "bin",
            vec!["flag".into(), "noise".into()],
            vec![
                Column::binary(&flag),
                Column::Numeric((0..n).map(|_| rng.uniform()).collect()),
            ],
            vec!["s1".into(), "s2".into(), "s3".into()],
            targets,
        )
    }

    fn config() -> BeamConfig {
        BeamConfig {
            width: 10,
            max_depth: 2,
            top_k: 20,
            min_coverage: 10,
            ..BeamConfig::default()
        }
    }

    #[test]
    fn finds_the_planted_subgroup() {
        let data = planted(1);
        let model = BinaryBackgroundModel::from_empirical(&data).unwrap();
        let result = binary_beam_search(&data, &model, &config());
        let best = result.best().expect("found");
        assert!(
            best.intention.conditions()[0].attr == 0,
            "best: {}",
            best.summary(&data)
        );
        assert!(result.evaluated > 5);
    }

    #[test]
    fn iterative_steps_do_not_repeat() {
        let data = planted(2);
        let mut model = BinaryBackgroundModel::from_empirical(&data).unwrap();
        let a = binary_step(&data, &mut model, &config()).expect("step 1");
        let b = binary_step(&data, &mut model, &config()).expect("step 2");
        assert_ne!(a.extension, b.extension, "iterations must differ");
        // Re-scoring the first pattern now yields a small IC.
        let rescored = model.location_ic(&a.extension, &a.observed_mean).unwrap();
        assert!(rescored < a.score.ic, "{} → {rescored}", a.score.ic);
    }

    #[test]
    fn log_is_sorted_and_unique() {
        let data = planted(3);
        let model = BinaryBackgroundModel::from_empirical(&data).unwrap();
        let result = binary_beam_search(&data, &model, &config());
        for w in result.top.windows(2) {
            assert!(w[0].score.si >= w[1].score.si);
        }
    }

    #[test]
    fn multi_threaded_binary_search_matches_serial() {
        let data = planted(6);
        let model = BinaryBackgroundModel::from_empirical(&data).unwrap();
        let serial = binary_beam_search(&data, &model, &config());
        let cfg_p = BeamConfig {
            eval: EvalConfig::with_threads(4),
            ..config()
        };
        let parallel = binary_beam_search(&data, &model, &cfg_p);
        assert_eq!(serial.evaluated, parallel.evaluated);
        assert_eq!(serial.top.len(), parallel.top.len());
        for (a, b) in serial.top.iter().zip(&parallel.top) {
            assert_eq!(a.extension, b.extension);
            assert_eq!(a.score.si.to_bits(), b.score.si.to_bits());
        }
    }

    #[test]
    fn works_on_the_mammal_scale() {
        // A smoke test at the real dimensionality (dy = 124): one shallow
        // search on the mammals simulacrum under the Bernoulli model.
        let (data, _) = mammals_synthetic(4);
        let model = BinaryBackgroundModel::from_empirical(&data).unwrap();
        let cfg = BeamConfig {
            width: 5,
            max_depth: 1,
            top_k: 5,
            min_coverage: 100,
            ..BeamConfig::default()
        };
        let result = binary_beam_search(&data, &model, &cfg);
        let best = result.best().expect("found");
        assert!(best.score.si > 0.0);
        assert!(best.extension.count() >= 100);
    }
}
