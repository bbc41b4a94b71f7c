//! Engine parity: `Evaluator::score_all` must return **bit-identical**
//! `LocationScore`s at any thread count, on random datasets and random
//! candidate extensions, both on the homogeneous-covariance fast path and
//! on the multi-covariance (post-spread-assimilation) dense branch where
//! the cell-signature memo is in play — and, on a partition of 64+ cells,
//! bit-identical to the per-cell composition its single row walk
//! replaced.

use proptest::prelude::*;
use sisd::core::{location_ic_of_stats, location_si, DlParams, Intention, LocationScore};
use sisd::data::{kernels, BitSet, Column, Dataset};
use sisd::linalg::Matrix;
use sisd::model::BackgroundModel;
use sisd::search::{Candidate, EvalConfig, Evaluator};
use sisd::stats::Xoshiro256pp;

/// Random dataset: `n` rows, 2 targets, one binary + one numeric attribute.
fn random_data(seed: u64, n: usize) -> Dataset {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let flag: Vec<bool> = (0..n).map(|_| rng.bernoulli(0.4)).collect();
    let num: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
    let mut targets = Matrix::zeros(n, 2);
    for i in 0..n {
        let bump = if flag[i] { 1.0 } else { -0.5 };
        targets[(i, 0)] = rng.normal() + bump;
        targets[(i, 1)] = rng.normal() * 0.7 + 0.3 * num[i];
    }
    Dataset::new(
        "parity",
        vec!["flag".into(), "num".into()],
        vec![Column::binary(&flag), Column::Numeric(num)],
        vec!["y1".into(), "y2".into()],
        targets,
    )
}

/// Random candidate extensions of assorted sizes (some tiny, some broad).
fn random_candidates(seed: u64, n: usize, k: usize) -> Vec<Candidate> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    (0..k)
        .map(|_| {
            let size = 2 + rng.below(n - 2);
            Candidate {
                intention: Intention::empty(),
                ext: BitSet::from_indices(n, rng.sample_indices(n, size)),
            }
        })
        .collect()
}

/// Model with heterogeneous covariances: a location and a spread pattern
/// assimilated on a random subgroup, so candidates straddle cells with
/// different `cov_id`s and the dense branch runs.
fn model_with_spread(data: &Dataset, seed: u64) -> BackgroundModel {
    let mut model = BackgroundModel::from_empirical(data).unwrap();
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x2545f4914f6cdd1d);
    let sub = BitSet::from_indices(data.n(), rng.sample_indices(data.n(), data.n() / 3 + 2));
    let mean = data.target_mean(&sub);
    model.assimilate_location(&sub, mean.clone()).unwrap();
    let mut w = vec![rng.normal(), rng.normal()];
    if sisd::linalg::normalize(&mut w) == 0.0 {
        w = vec![1.0, 0.0];
    }
    let v = data.target_variance_along(&sub, &w).max(1e-6);
    model.assimilate_spread(&sub, w, mean, v).unwrap();
    model
}

fn assert_parity(data: &Dataset, model: &BackgroundModel, cands: &[Candidate]) {
    let dl = DlParams::default();
    // The sequential reference: one-at-a-time scoring through the engine.
    let reference = Evaluator::gaussian(data, model, dl, EvalConfig::default());
    let sequential: Vec<_> = cands
        .iter()
        .filter_map(|c| reference.score_location(&c.intention, &c.ext).ok())
        .collect();
    for threads in [1usize, 2, 4] {
        let ev = Evaluator::gaussian(data, model, dl, EvalConfig::with_threads(threads));
        let batch = ev.score_all(cands);
        assert_eq!(batch.len(), sequential.len(), "threads={threads}");
        for (a, b) in batch.iter().zip(&sequential) {
            assert_eq!(a.ext, b.ext, "threads={threads}");
            assert_eq!(
                a.score.ic.to_bits(),
                b.score.ic.to_bits(),
                "threads={threads}: IC must be bit-identical"
            );
            assert_eq!(
                a.score.dl.to_bits(),
                b.score.dl.to_bits(),
                "threads={threads}: DL must be bit-identical"
            );
            assert_eq!(
                a.score.si.to_bits(),
                b.score.si.to_bits(),
                "threads={threads}: SI must be bit-identical"
            );
        }
    }
    // And the engine agrees with the one-off core scoring function (up to
    // the observed-mean aggregation order) on every candidate.
    for s in &sequential {
        let core = location_si(model, data, &s.intention, &s.ext, &dl).unwrap();
        let tol = 1e-9 * (1.0 + core.si.abs());
        assert!(
            (s.score.si - core.si).abs() < tol,
            "engine {} vs core {}",
            s.score.si,
            core.si
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Homogeneous covariances: the shared-factor fast path.
    #[test]
    fn score_all_is_thread_invariant_on_the_fast_path(seed in 0u64..10_000) {
        let n = 30 + (seed % 50) as usize;
        let data = random_data(seed, n);
        let model = BackgroundModel::from_empirical(&data).unwrap();
        let cands = random_candidates(seed, n, 40);
        assert_parity(&data, &model, &cands);
    }

    /// Heterogeneous covariances: the dense branch with the signature memo.
    #[test]
    fn score_all_is_thread_invariant_on_the_dense_branch(seed in 0u64..10_000) {
        let n = 30 + (seed % 50) as usize;
        let data = random_data(seed, n);
        let model = model_with_spread(&data, seed);
        // The model now has several cells; random candidates straddle them.
        let cands = random_candidates(seed.wrapping_mul(31), n, 40);
        assert_parity(&data, &model, &cands);
    }
}

/// The per-cell composition the engine's single row walk replaced, built
/// from public pieces as the bit-exactness oracle: the signature from one
/// intersection count per cell, the observed mean from per-cell target
/// sums when the candidate is a union of cells and from
/// `Dataset::target_mean` otherwise, then `location_stats_for_counts`.
fn per_cell_composition(
    data: &Dataset,
    model: &BackgroundModel,
    ext: &BitSet,
    arity: usize,
    dl: &DlParams,
) -> (Vec<f64>, LocationScore) {
    let cells = model.cells();
    let counts: Vec<(usize, usize)> = cells
        .iter()
        .enumerate()
        .map(|(g, cell)| (g, cell.ext.intersection_count(ext)))
        .filter(|&(_, c)| c > 0)
        .collect();
    let observed = if counts.iter().all(|&(g, c)| c == cells[g].count) {
        let m: usize = counts.iter().map(|&(_, c)| c).sum();
        let mut mean = vec![0.0; data.dy()];
        for &(g, _) in &counts {
            let mut sum = vec![0.0; data.dy()];
            kernels::sum_rows(data.targets().as_slice(), cells[g].ext.words(), &mut sum);
            sisd::linalg::add_assign(&mut mean, &sum);
        }
        sisd::linalg::scale(1.0 / m as f64, &mut mean);
        mean
    } else {
        data.target_mean(ext)
    };
    let stats = model.location_stats_for_counts(&counts, &observed).unwrap();
    let ic = location_ic_of_stats(&stats, model.dy());
    let dl = dl.location_dl(arity);
    (
        observed,
        LocationScore {
            ic,
            dl,
            si: ic / dl,
        },
    )
}

/// A model refined by twelve overlapping location patterns and one spread
/// pattern: at least 64 cells, with mixed covariances.
fn deeply_refined_model(data: &Dataset, seed: u64) -> BackgroundModel {
    let mut model = BackgroundModel::from_empirical(data).unwrap();
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x51ed_2701_9a3c_44b7);
    let n = data.n();
    let mut last = BitSet::empty(n);
    for _ in 0..12 {
        let size = n / 4 + rng.below(n / 3);
        let sub = BitSet::from_indices(n, rng.sample_indices(n, size));
        model
            .assimilate_location(&sub, data.target_mean(&sub))
            .unwrap();
        let _ = model.refit(1e-9, 20).unwrap();
        last = sub;
    }
    let mean = data.target_mean(&last);
    let v = data.target_variance_along(&last, &[0.6, 0.8]).max(1e-6);
    model
        .assimilate_spread(&last, vec![0.6, 0.8], mean, v)
        .unwrap();
    model
}

#[test]
fn score_all_matches_the_per_cell_composition_on_a_deep_partition() {
    let dl = DlParams::default();
    for seed in [3u64, 41, 977] {
        let n = 400;
        let data = random_data(seed, n);
        let model = deeply_refined_model(&data, seed);
        assert!(
            model.n_cells() >= 64,
            "seed {seed}: only {} cells",
            model.n_cells()
        );
        // Straddling candidates plus exact unions of cells, so both
        // observed-mean branches run.
        let mut cands = random_candidates(seed, n, 48);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..16 {
            let mut union = BitSet::empty(n);
            let k = 1 + rng.below(4);
            for g in rng.sample_indices(model.n_cells(), k) {
                union = union.or(&model.cells()[g].ext);
            }
            cands.push(Candidate {
                intention: Intention::empty(),
                ext: union,
            });
        }
        let want: Vec<_> = cands
            .iter()
            .map(|c| per_cell_composition(&data, &model, &c.ext, c.intention.len(), &dl))
            .collect();
        for threads in [1usize, 4] {
            let ev = Evaluator::gaussian(&data, &model, dl, EvalConfig::with_threads(threads));
            let got = ev.score_all(&cands);
            assert_eq!(got.len(), want.len(), "seed {seed} threads={threads}");
            for (i, (s, (mean, score))) in got.iter().zip(&want).enumerate() {
                let what = format!("seed {seed} threads={threads} candidate {i}");
                assert_eq!(s.score.ic.to_bits(), score.ic.to_bits(), "{what}: IC");
                assert_eq!(s.score.dl.to_bits(), score.dl.to_bits(), "{what}: DL");
                assert_eq!(s.score.si.to_bits(), score.si.to_bits(), "{what}: SI");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&s.observed_mean), bits(mean), "{what}: mean");
            }
        }
    }
}
