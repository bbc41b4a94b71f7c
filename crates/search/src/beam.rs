//! Level-wise beam search for location patterns (paper §II-D).
//!
//! The search "maintains a list of most interesting patterns of arity k,
//! expands these to arity k + 1 and selects the most interesting patterns
//! again". The defaults mirror the paper's Cortana settings (§III): beam
//! width 40, depth 4, the 150 best subgroups logged, numeric conditions on
//! four percentile split points, and an optional wall-clock budget.
//!
//! Candidate scoring — including multi-threading and factorization reuse —
//! is delegated to the shared [`crate::eval::Evaluator`], and candidate
//! *generation* to the batched `sisd-frontier` subsystem (condition masks
//! evaluated once per search — once per [`crate::Miner`] for a miner's
//! searches — into a contiguous bit-matrix, refined
//! **count-first**: supports are counted with store-free fused kernels,
//! the coverage filters and conjunction dedup run on the counts, and a
//! surviving child's extension words are computed when it is scored, or,
//! on single-target data, one walk over a parent's rows scores up to 64 of
//! its children); set [`EvalConfig::threads`] to parallelize scoring.
//! Results are identical at any thread count.

use crate::eval::{run_beam_levels, Evaluator, SearchLanguage};
use crate::refine::RefineConfig;
use crate::EvalConfig;
use sisd_core::{DlParams, LocationPattern};
use sisd_data::Dataset;
use sisd_model::BackgroundModel;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Beam search configuration.
#[derive(Debug, Clone)]
pub struct BeamConfig {
    /// Number of patterns kept per level ("beam width"; paper: 40).
    pub width: usize,
    /// Maximum number of conditions ("search depth"; paper: 4).
    pub max_depth: usize,
    /// Number of best subgroups logged overall (paper: 150).
    pub top_k: usize,
    /// Minimum extension size considered a subgroup.
    pub min_coverage: usize,
    /// Maximum extension size (use `usize::MAX` for no cap); the default
    /// excludes subgroups equal to the whole dataset, whose "mean" carries
    /// no local structure.
    pub max_coverage_fraction: f64,
    /// Wall-clock budget; search stops gracefully when exceeded. Checked
    /// between frontier parents while generating a level and between
    /// bounded scoring slices while evaluating it; candidates scored
    /// before expiry are still logged.
    pub time_budget: Option<Duration>,
    /// Condition-language settings.
    pub refine: RefineConfig,
    /// Description-length parameters.
    pub dl: DlParams,
    /// Candidate-evaluation engine settings (worker threads).
    pub eval: EvalConfig,
}

impl Default for BeamConfig {
    fn default() -> Self {
        Self {
            width: 40,
            max_depth: 4,
            top_k: 150,
            min_coverage: 5,
            max_coverage_fraction: 0.99,
            time_budget: None,
            refine: RefineConfig::default(),
            dl: DlParams::default(),
            eval: EvalConfig::default(),
        }
    }
}

/// Search outcome: the logged best patterns plus bookkeeping.
#[derive(Debug)]
pub struct BeamResult {
    /// Patterns sorted by decreasing SI, at most `top_k`.
    pub top: Vec<LocationPattern>,
    /// Number of candidate subgroups scored.
    pub evaluated: usize,
    /// Wall-clock time used.
    pub elapsed: Duration,
    /// True when the time budget cut the search short.
    pub timed_out: bool,
    /// Candidates dropped because of numeric model breakdown (never
    /// empty-extension skips). Zero in healthy runs; non-zero means the
    /// background model is degraded and `top` may be incomplete.
    pub degraded: usize,
}

impl BeamResult {
    /// The single most interesting pattern, if any candidate was feasible.
    pub fn best(&self) -> Option<&LocationPattern> {
        self.top.first()
    }
}

/// The beam-search miner for location patterns.
#[derive(Debug, Clone, Default)]
pub struct BeamSearch {
    config: BeamConfig,
}

impl BeamSearch {
    /// Creates a searcher with the given configuration.
    pub fn new(config: BeamConfig) -> Self {
        Self { config }
    }

    /// Access to the configuration.
    pub fn config(&self) -> &BeamConfig {
        &self.config
    }

    /// Runs the search against the current background model, evaluating
    /// candidates on `config.eval.threads` workers (factorizations are
    /// cached lazily and thread-safely inside the model, so the model is
    /// only read).
    pub fn run(&self, data: &Dataset, model: &BackgroundModel) -> BeamResult {
        self.run_in_language(data, model, &OnceLock::new())
    }

    /// [`BeamSearch::run`] over a description language that is
    /// built into `language` on first use and reused after that: a
    /// [`crate::Miner`] passes its own, so the conditions and their masks
    /// are evaluated once for all of its searches. The language is a pure
    /// function of the dataset and `config.refine`, so every search sees
    /// the same one either way.
    pub(crate) fn run_in_language(
        &self,
        data: &Dataset,
        model: &BackgroundModel,
        language: &OnceLock<SearchLanguage>,
    ) -> BeamResult {
        let start = Instant::now();
        let ev = Evaluator::gaussian(data, model, self.config.dl, self.config.eval);
        let language = language.get_or_init(|| SearchLanguage::new(data, &self.config.refine));
        let outcome = run_beam_levels(&ev, &self.config, language, start);
        BeamResult {
            top: outcome.top,
            evaluated: outcome.evaluated,
            elapsed: start.elapsed(),
            timed_out: outcome.timed_out,
            degraded: outcome.degraded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisd_data::datasets::synthetic_paper;

    fn small_config() -> BeamConfig {
        BeamConfig {
            width: 10,
            max_depth: 2,
            top_k: 20,
            ..BeamConfig::default()
        }
    }

    #[test]
    fn finds_the_planted_cluster_first() {
        let (data, truth) = synthetic_paper(42);
        let model = BackgroundModel::from_empirical(&data).unwrap();
        let result = BeamSearch::new(small_config()).run(&data, &model);
        let best = result.best().expect("patterns found");
        // The best pattern must be one of the three true single-condition
        // descriptions aᵢ = '1'.
        assert_eq!(best.intention.len(), 1);
        let ext = &best.extension;
        assert!(
            truth
                .cluster_extensions
                .iter()
                .any(|t| t.intersection_count(ext) == 40 && ext.count() == 40),
            "best pattern {} is not a planted cluster",
            best.summary(&data)
        );
        assert!(result.evaluated > 10);
        assert!(!result.timed_out);
    }

    #[test]
    fn top_three_are_the_three_clusters() {
        let (data, truth) = synthetic_paper(42);
        let model = BackgroundModel::from_empirical(&data).unwrap();
        let result = BeamSearch::new(small_config()).run(&data, &model);
        // Among single-condition patterns, the three planted labels rank at
        // the top (the paper observes they are the immediate top 3).
        let singles: Vec<_> = result
            .top
            .iter()
            .filter(|p| p.intention.len() == 1)
            .collect();
        #[allow(clippy::needless_range_loop)]
        for k in 0..3 {
            let ext = &singles[k].extension;
            assert!(
                truth
                    .cluster_extensions
                    .iter()
                    .any(|t| t.intersection_count(ext) == 40 && ext.count() == 40),
                "rank-{k} single pattern is not a planted cluster"
            );
        }
    }

    #[test]
    fn log_is_sorted_and_bounded() {
        let (data, _) = synthetic_paper(1);
        let model = BackgroundModel::from_empirical(&data).unwrap();
        let result = BeamSearch::new(small_config()).run(&data, &model);
        assert!(result.top.len() <= 20);
        for w in result.top.windows(2) {
            assert!(w[0].score.si >= w[1].score.si);
        }
    }

    #[test]
    fn deeper_search_logs_redundant_refinements_with_lower_si() {
        let (data, _) = synthetic_paper(42);
        let model = BackgroundModel::from_empirical(&data).unwrap();
        let result = BeamSearch::new(BeamConfig {
            width: 40,
            max_depth: 2,
            top_k: 150,
            ..BeamConfig::default()
        })
        .run(&data, &model);
        let best = result.best().unwrap().clone();
        // Find a 2-condition pattern with the same extension; DL must push
        // its SI strictly below the parent's (Table I's observation).
        let refined = result
            .top
            .iter()
            .find(|p| p.intention.len() == 2 && p.extension == best.extension);
        if let Some(r) = refined {
            assert!((r.score.ic - best.score.ic).abs() < 1e-9);
            assert!(r.score.si < best.score.si);
        }
    }

    #[test]
    fn respects_time_budget() {
        let (data, _) = synthetic_paper(3);
        let model = BackgroundModel::from_empirical(&data).unwrap();
        let cfg = BeamConfig {
            time_budget: Some(Duration::from_nanos(1)),
            ..small_config()
        };
        let result = BeamSearch::new(cfg).run(&data, &model);
        assert!(result.timed_out);
    }

    #[test]
    fn min_coverage_filters_tiny_subgroups() {
        let (data, _) = synthetic_paper(5);
        let model = BackgroundModel::from_empirical(&data).unwrap();
        let cfg = BeamConfig {
            min_coverage: 50,
            ..small_config()
        };
        let result = BeamSearch::new(cfg).run(&data, &model);
        for p in &result.top {
            assert!(p.extension.count() >= 50);
        }
    }

    #[test]
    fn duplicate_conjunction_orderings_are_not_rescored() {
        let (data, _) = synthetic_paper(7);
        let model = BackgroundModel::from_empirical(&data).unwrap();
        let result = BeamSearch::new(BeamConfig {
            width: 40,
            max_depth: 2,
            top_k: 1000,
            ..BeamConfig::default()
        })
        .run(&data, &model);
        // All logged intentions are unique as unordered condition sets.
        let mut keys: Vec<_> = result
            .top
            .iter()
            .map(|p| crate::eval::intention_key(&p.intention))
            .collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(before, keys.len());
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use sisd_data::datasets::synthetic_paper;

    #[test]
    fn parallel_matches_serial() {
        let (data, _) = synthetic_paper(42);
        let cfg = BeamConfig {
            width: 15,
            max_depth: 3,
            top_k: 60,
            ..BeamConfig::default()
        };
        let model = BackgroundModel::from_empirical(&data).unwrap();
        let serial = BeamSearch::new(cfg.clone()).run(&data, &model);
        for threads in [1usize, 2, 4] {
            let cfg_t = BeamConfig {
                eval: EvalConfig::with_threads(threads),
                ..cfg.clone()
            };
            let parallel = BeamSearch::new(cfg_t).run(&data, &model);
            assert_eq!(parallel.top.len(), serial.top.len());
            for (a, b) in parallel.top.iter().zip(&serial.top) {
                assert_eq!(a.extension, b.extension, "threads={threads}");
                assert_eq!(
                    a.score.si.to_bits(),
                    b.score.si.to_bits(),
                    "threads={threads}: SI must be bit-identical"
                );
            }
            assert_eq!(parallel.evaluated, serial.evaluated);
        }
    }

    #[test]
    fn parallel_works_after_spread_updates() {
        // Heterogeneous covariances: parallel scoring must use the dense
        // path correctly from shared references.
        let (data, truth) = synthetic_paper(7);
        let mut model = BackgroundModel::from_empirical(&data).unwrap();
        let ext = truth.cluster_extensions[0].clone();
        let mean = data.target_mean(&ext);
        model.assimilate_location(&ext, mean.clone()).unwrap();
        let mut w = vec![1.0, 0.0];
        sisd_linalg::normalize(&mut w);
        let v = data.target_variance_along(&ext, &w);
        model.assimilate_spread(&ext, w, mean, v).unwrap();

        let cfg = BeamConfig {
            width: 10,
            max_depth: 2,
            top_k: 20,
            ..BeamConfig::default()
        };
        let serial = BeamSearch::new(cfg.clone()).run(&data, &model);
        let cfg_p = BeamConfig {
            eval: EvalConfig::with_threads(3),
            ..cfg
        };
        let parallel = BeamSearch::new(cfg_p).run(&data, &model);
        assert_eq!(
            serial.best().unwrap().extension,
            parallel.best().unwrap().extension
        );
        assert_eq!(
            serial.best().unwrap().score.si.to_bits(),
            parallel.best().unwrap().score.si.to_bits()
        );
    }
}
