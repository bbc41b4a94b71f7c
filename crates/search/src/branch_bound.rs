//! Branch-and-bound search for the optimal single-target location pattern.
//!
//! The paper (§V) conjectures: "it may be feasible to devise a
//! branch-and-bound approach to mine optimal location patterns
//! efficiently. Indeed this appears to be the most relevant question to be
//! addressed in the future." This module implements that direction for the
//! single-target case (`dy = 1`) against the *initial* (uniform-parameter)
//! background model, in the spirit of the tight optimistic estimators of
//! Boley et al. (2017):
//!
//! For a node with extension `E` and `|C|` conditions, every refinement's
//! extension is a subset `S ⊆ E`, and the location IC of a size-`m` subset
//! with subgroup mean `ȳ_S` under the uniform model `N(μ, σ²)` is
//!
//! ```text
//! IC(S) = ½(ln 2π + ln σ² − ln m) + m (ȳ_S − μ)² / (2σ²).
//! ```
//!
//! For fixed `m` this is maximized by the `m` largest or `m` smallest
//! target values in `E` (extreme tails maximize `|ȳ_S − μ|`), so scanning
//! prefix/suffix sums of the sorted values yields a tight upper bound
//! `IC⋆(E) = max_m max(IC(top_m), IC(bottom_m))` in `O(|E|)` after an
//! `O(|E| log |E|)` sort. Since refinements also lengthen the description,
//! every descendant's SI is at most `IC⋆(E) / DL(|C|+1)` — the pruning
//! rule. Depth-first search with canonical (index-ascending) condition
//! enumeration then finds the *globally optimal* pattern of the language.
//!
//! The same scan, kept as a running maximum per subset size
//! (the private `SupportBound` table), bounds any **child of known support**
//! before its extension exists: a child covering `m` rows — and everything
//! below it — is a subset of `E` of size at most `m`, so its whole
//! subtree's IC is at most `max_{m' ≤ m} IC⋆_{m'}(E)`. That predicate is
//! fed to the count-first frontier builder
//! ([`sisd_frontier::FrontierBuilder::refine_with_prune`]), which
//! evaluates it on the support counts before writing any words — a child
//! that cannot beat the incumbent is pruned before its extension words
//! are ever written, not after it has been materialized and scored.

use crate::eval::{Candidate, Evaluator};
use crate::refine::{generate_conditions, RefineConfig};
use crate::EvalConfig;
use sisd_core::{Condition, DlParams, Intention, LocationPattern};
use sisd_data::{BitSet, Dataset};
use sisd_frontier::{FrontierBuilder, FrontierConfig, MaskMatrix, ParentSpec};
use sisd_model::BackgroundModel;

/// Branch-and-bound configuration.
#[derive(Debug, Clone)]
pub struct BranchBoundConfig {
    /// Maximum number of conditions.
    pub max_depth: usize,
    /// Minimum extension size.
    pub min_coverage: usize,
    /// Description-length parameters.
    pub dl: DlParams,
    /// Condition-language settings.
    pub refine: RefineConfig,
    /// Candidate-evaluation engine settings (worker threads for sibling
    /// batches). Single-target scores are cheap, so `threads > 1` only
    /// pays off when nodes have many children on large datasets; the
    /// engine falls back to inline scoring for small sibling batches
    /// either way.
    pub eval: EvalConfig,
}

impl Default for BranchBoundConfig {
    fn default() -> Self {
        Self {
            max_depth: 3,
            min_coverage: 5,
            dl: DlParams::default(),
            refine: RefineConfig::default(),
            eval: EvalConfig::default(),
        }
    }
}

/// Search outcome with exploration statistics.
#[derive(Debug)]
pub struct BranchBoundResult {
    /// The provably optimal pattern, if any candidate met the coverage
    /// floor.
    pub best: Option<LocationPattern>,
    /// Nodes whose SI was evaluated exactly.
    pub evaluated: usize,
    /// Subtrees cut by the optimistic estimate.
    pub pruned: usize,
}

struct Searcher<'a> {
    data: &'a Dataset,
    conditions: Vec<Condition>,
    /// All condition masks, evaluated once; every node's children are
    /// generated from its rows via `sisd-frontier`.
    masks: MaskMatrix,
    y: Vec<f64>,
    mu: f64,
    sigma2: f64,
    cfg: BranchBoundConfig,
    best_si: f64,
    best: Option<LocationPattern>,
    evaluated: usize,
    pruned: usize,
}

/// Relative slack absorbing floating-point differences between the
/// closed-form optimistic estimate and the engine-evaluated exact IC
/// (different summation order, and a sqrt/square round-trip through the
/// 1×1 Cholesky factor), so pruning stays admissible at any SI magnitude.
const BOUND_SLACK: f64 = 1e-9;

/// Per-support-size optimistic IC bounds over one node's extension `E`:
/// `for_support(m)` is the maximum IC over all subsets of `E` whose size
/// lies in `[min_coverage, m]` — an admissible bound on a child of support
/// `m` *and its entire subtree*, computable from the support count alone
/// (before the child's extension exists). Built once per node from the
/// sorted target values' prefix/suffix sums; `max()` recovers the classic
/// whole-node bound `IC⋆(E)`.
struct SupportBound {
    /// `best_ic[m]` = max over `min_coverage ≤ m' ≤ m` of
    /// `max(IC(top m'), IC(bottom m'))`; `NEG_INFINITY` below the floor.
    best_ic: Vec<f64>,
}

impl SupportBound {
    /// The whole-extension bound `IC⋆(E)` (max over every admissible
    /// subset size).
    fn max(&self) -> f64 {
        *self.best_ic.last().expect("best_ic is never empty")
    }

    /// The bound for a child covering `m` rows.
    fn for_support(&self, m: usize) -> f64 {
        self.best_ic[m.min(self.best_ic.len() - 1)]
    }
}

impl<'a> Searcher<'a> {
    /// Closed-form IC of a subset with size `m` and value sum `sum` under
    /// the uniform model — used for the optimistic bound only; exact
    /// scoring goes through the shared evaluation engine.
    fn ic(&self, m: usize, sum: f64) -> f64 {
        let mf = m as f64;
        let mean = sum / mf;
        0.5 * ((2.0 * std::f64::consts::PI).ln() + self.sigma2.ln() - mf.ln())
            + mf * (mean - self.mu) * (mean - self.mu) / (2.0 * self.sigma2)
    }

    /// Builds the per-support bound table of `ext`: sort the covered
    /// target values once, then fold prefix (bottom-`m`) and suffix
    /// (top-`m`) sums into a running maximum per subset size. The final
    /// entry equals the old whole-node `optimistic_ic` exactly (same max
    /// over the same finite set of floats).
    ///
    /// Only finite target values enter the fold: a subset covering a
    /// non-finite row scores non-finite and is rejected by the evaluator,
    /// and every other subset is a subset of the finite values, which the
    /// table bounds (`for_support` clamps larger supports to the last
    /// entry). On finite data the table is the plain fold.
    fn support_bound(&self, ext: &BitSet) -> SupportBound {
        let mut values: Vec<f64> = ext
            .iter()
            .map(|i| self.y[i])
            .filter(|y| y.is_finite())
            .collect();
        values.sort_by(f64::total_cmp);
        let n = values.len();
        let mut best_ic = vec![f64::NEG_INFINITY; n + 1];
        let (mut bottom, mut top) = (0.0f64, 0.0f64);
        for m in 1..=n {
            bottom += values[m - 1];
            top += values[n - m];
            let mut b = best_ic[m - 1];
            if m >= self.cfg.min_coverage {
                b = b.max(self.ic(m, bottom)).max(self.ic(m, top));
            }
            best_ic[m] = b;
        }
        SupportBound { best_ic }
    }

    fn descend(
        &mut self,
        ev: &Evaluator<'_>,
        intention: &Intention,
        ext: &BitSet,
        first_cond: usize,
    ) {
        if intention.len() >= self.cfg.max_depth {
            return;
        }
        // Bound every descendant: they refine ext and have ≥ |C|+1
        // conditions (DL is increasing in |C|, SI decreasing).
        let bounds = self.support_bound(ext);
        let child_dl = self.cfg.dl.location_dl(intention.len() + 1);
        let slack = BOUND_SLACK * (1.0 + self.best_si.abs());
        if bounds.max() / child_dl <= self.best_si - slack {
            self.pruned += 1;
            return;
        }
        // Generate the node's children through the count-first frontier
        // builder: it counts supports without writing words, the keep
        // predicate below prunes on the counts, and only the survivors'
        // extension words are materialized. Survivors are then scored as
        // one owned batch through the engine (parallel when
        // `cfg.eval.threads > 1`; identical results either way; extensions
        // move into the scored results instead of being cloned). Exact
        // scores don't depend on the incumbent, so batching before the
        // in-order best/recurse sweep visits exactly the nodes the
        // one-at-a-time search visited.
        let frontier_cfg = FrontierConfig {
            min_support: self.cfg.min_coverage.max(1),
            obs: self.cfg.eval.obs,
        };
        // A child covering as many rows as its (non-root) parent is the
        // same extension with a strictly longer description: dominated,
        // and its subtree is a subset of this node's subtree.
        let max_support = if intention.is_empty() {
            self.data.n()
        } else {
            ext.count().saturating_sub(1)
        };
        // Prune on counts, before materialization: a child of support `m`
        // and all of its descendants are subsets of `ext` with at most `m`
        // rows and at least |C|+1 conditions, so their SI is bounded by
        // the size-m table entry over the child's own (shortest, hence
        // cheapest) description length. The incumbent is frozen at batch
        // time — a sibling scored later can only *raise* it, so freezing
        // prunes no more than the one-at-a-time sweep would.
        let incumbent = self.best_si;
        let mut bound_pruned = 0usize;
        let children = FrontierBuilder::new(&self.masks, frontier_cfg).refine_with_prune(
            &[ParentSpec { ext, max_support }],
            |_, row| row >= first_cond && !intention.conflicts_with(&self.conditions[row]),
            |_, _, support| {
                if bounds.for_support(support) / child_dl <= incumbent - slack {
                    bound_pruned += 1;
                    false
                } else {
                    true
                }
            },
        );
        self.pruned += bound_pruned;
        let mut child_first_cond: Vec<usize> = Vec::with_capacity(children.len());
        let mut batch: Vec<Candidate> = Vec::with_capacity(children.len());
        for i in 0..children.len() {
            let m = children.meta(i);
            child_first_cond.push(m.row + 1);
            batch.push(Candidate {
                intention: intention.with(self.conditions[m.row]),
                ext: children.child_bitset(i),
            });
        }
        let scored = ev.try_score_all_owned(batch);
        for (next_cond, maybe) in child_first_cond.into_iter().zip(scored) {
            let Some(s) = maybe else { continue };
            self.evaluated += 1;
            if s.score.si > self.best_si {
                self.best_si = s.score.si;
                self.best = Some(s.clone().into_pattern());
            }
            self.descend(ev, &s.intention, &s.ext, next_cond);
        }
    }
}

/// Runs the exact search. The model must be the *initial* background
/// distribution over a single target (one parameter cell): the optimistic
/// estimator exploits the uniform `N(μ, σ²)` row marginals.
///
/// # Panics
/// Panics if `dy != 1` or the model already has assimilated patterns.
pub fn branch_bound_search(
    data: &Dataset,
    model: &BackgroundModel,
    cfg: BranchBoundConfig,
) -> BranchBoundResult {
    assert_eq!(model.dy(), 1, "branch-and-bound requires a single target");
    assert_eq!(
        model.n_cells(),
        1,
        "branch-and-bound requires the initial (uniform) background model"
    );
    let mu = model.row_mean(0)[0];
    let sigma2 = model.row_cov(0)[(0, 0)];
    let conditions = generate_conditions(data, &cfg.refine);
    let masks = MaskMatrix::evaluate(data, &conditions);
    let ev = Evaluator::gaussian(data, model, cfg.dl, cfg.eval);
    let mut s = Searcher {
        data,
        conditions,
        masks,
        y: data.target_col(0),
        mu,
        sigma2,
        cfg,
        best_si: f64::NEG_INFINITY,
        best: None,
        evaluated: 0,
        pruned: 0,
    };
    let root = BitSet::full(s.data.n());
    s.descend(&ev, &Intention::empty(), &root, 0);
    BranchBoundResult {
        best: s.best,
        evaluated: s.evaluated,
        pruned: s.pruned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisd_data::Column;
    use sisd_linalg::Matrix;
    use sisd_stats::Xoshiro256pp;

    /// Small random dataset with one planted high-mean subgroup.
    fn data(seed: u64, n: usize) -> Dataset {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut targets = Matrix::zeros(n, 1);
        let flag: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect();
        let num: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
        for i in 0..n {
            let boost = if flag[i] { 2.0 } else { 0.0 };
            targets[(i, 0)] = rng.normal() + boost + 0.5 * num[i];
        }
        Dataset::new(
            "bb",
            vec!["flag".into(), "num".into()],
            vec![Column::binary(&flag), Column::Numeric(num)],
            vec!["y".into()],
            targets,
        )
    }

    /// Brute-force optimum by exhaustive enumeration (tiny language).
    fn brute_force(data: &Dataset, model: &mut BackgroundModel, cfg: &BranchBoundConfig) -> f64 {
        let conditions = generate_conditions(data, &cfg.refine);
        let mut best = f64::NEG_INFINITY;
        let nc = conditions.len();
        // All subsets up to max_depth via index-ascending DFS.
        #[allow(clippy::too_many_arguments)]
        fn rec(
            data: &Dataset,
            model: &mut BackgroundModel,
            conds: &[Condition],
            intent: &Intention,
            ext: &BitSet,
            first: usize,
            cfg: &BranchBoundConfig,
            best: &mut f64,
        ) {
            if intent.len() >= cfg.max_depth {
                return;
            }
            for c in first..conds.len() {
                if intent.conflicts_with(&conds[c]) {
                    continue;
                }
                let child = intent.with(conds[c]);
                let cext = ext.and(&conds[c].evaluate(data));
                if cext.count() < cfg.min_coverage {
                    continue;
                }
                if let Ok(score) = sisd_core::location_si(model, data, &child, &cext, &cfg.dl) {
                    if score.si > *best {
                        *best = score.si;
                    }
                }
                rec(data, model, conds, &child, &cext, c + 1, cfg, best);
            }
        }
        rec(
            data,
            model,
            &conditions[..nc],
            &Intention::empty(),
            &BitSet::full(data.n()),
            0,
            cfg,
            &mut best,
        );
        best
    }

    #[test]
    fn matches_exhaustive_search() {
        let cfg = BranchBoundConfig {
            max_depth: 2,
            min_coverage: 3,
            ..BranchBoundConfig::default()
        };
        let clean = data(3, 60);
        // One NaN target cell under a fixed prior: every subgroup covering
        // row 5 scores NaN, so both searches must settle on the best
        // subgroup that avoids it.
        let mut targets = clean.targets().clone();
        targets[(5, 0)] = f64::NAN;
        let nan_cell = Dataset::new(
            "bb-nan",
            clean.desc_names().to_vec(),
            clean.desc_cols().to_vec(),
            clean.target_names().to_vec(),
            targets,
        );
        let prior = BackgroundModel::from_empirical(&clean).unwrap();
        let nan_prior = BackgroundModel::new(60, vec![3.0], Matrix::identity(1)).unwrap();
        for (d, model) in [(clean, prior), (nan_cell, nan_prior)] {
            let result = branch_bound_search(&d, &model, cfg.clone());
            let brute = brute_force(&d, &mut model.clone(), &cfg);
            let bb = result.best.expect("found").score.si;
            assert!(
                (bb - brute).abs() < 1e-9,
                "{}: branch-and-bound {bb} vs exhaustive {brute}",
                d.name
            );
        }
    }

    #[test]
    fn pruning_happens_without_losing_optimality() {
        let d = data(5, 200);
        let model = BackgroundModel::from_empirical(&d).unwrap();
        let cfg = BranchBoundConfig {
            max_depth: 3,
            min_coverage: 5,
            ..BranchBoundConfig::default()
        };
        let result = branch_bound_search(&d, &model, cfg);
        assert!(
            result.pruned > 0,
            "no pruning on 200-row data is suspicious"
        );
        assert!(result.best.is_some());
    }

    #[test]
    fn finds_the_planted_flag_subgroup() {
        let d = data(7, 400);
        let model = BackgroundModel::from_empirical(&d).unwrap();
        let result = branch_bound_search(&d, &model, BranchBoundConfig::default());
        let best = result.best.unwrap();
        // The planted subgroup is flag = '1' (possibly refined); the flag
        // condition must appear in the optimal description.
        let uses_flag = best.intention.conditions().iter().any(|c| c.attr == 0);
        assert!(uses_flag, "optimal pattern: {}", best.summary(&d));
    }

    #[test]
    #[should_panic(expected = "single target")]
    fn multi_target_rejected() {
        let d = Dataset::new(
            "t",
            vec!["f".into()],
            vec![Column::binary(&[true, false])],
            vec!["a".into(), "b".into()],
            Matrix::identity(2),
        );
        let model = BackgroundModel::new(2, vec![0.0, 0.0], Matrix::identity(2)).unwrap();
        branch_bound_search(&d, &model, BranchBoundConfig::default());
    }
}
