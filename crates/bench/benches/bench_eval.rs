//! Candidate-evaluation engine throughput: single- vs multi-threaded
//! `Evaluator::score_all` on the mammals-scale setup (dy = 124, the
//! dimensionality where one Cholesky factorization costs ~265 µs), plus
//! the cell-signature memo's effect on the heterogeneous-covariance path.
//!
//! The engine guarantees bit-identical scores at any thread count; this
//! bench asserts that on every measured batch before timing it. Speedup at
//! `t` threads is bounded by the machine's available parallelism — on a
//! single-core container the thread variants coincide.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sisd_core::{DlParams, Intention};
use sisd_data::datasets::mammals_synthetic;
use sisd_data::{BitSet, Dataset};
use sisd_model::BackgroundModel;
use sisd_search::{Candidate, EvalConfig, Evaluator};
use sisd_stats::Xoshiro256pp;
use std::hint::black_box;

/// A fixed batch of beam-level-like candidates (~n/10 rows each).
fn candidate_batch(data: &Dataset, k: usize, seed: u64) -> Vec<Candidate> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..k)
        .map(|_| Candidate {
            intention: Intention::empty(),
            ext: BitSet::from_indices(data.n(), rng.sample_indices(data.n(), data.n() / 10)),
        })
        .collect()
}

fn assert_bit_identical(a: &[sisd_search::Scored], b: &[sisd_search::Scored]) {
    assert_eq!(a.len(), b.len(), "thread count changed the result set");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            x.score.si.to_bits(),
            y.score.si.to_bits(),
            "thread count changed a score"
        );
    }
}

fn bench_eval_threads(c: &mut Criterion) {
    let (data, _) = mammals_synthetic(7);
    let model = BackgroundModel::from_empirical(&data).expect("model");
    let batch = candidate_batch(&data, 48, 11);

    let reference = Evaluator::gaussian(&data, &model, DlParams::default(), EvalConfig::default())
        .score_all(&batch);
    assert_eq!(reference.len(), batch.len());

    let mut group = c.benchmark_group("eval_throughput_mammals_dy124");
    group.sample_size(10);
    for &threads in &[1usize, 2, 4] {
        let ev = Evaluator::gaussian(
            &data,
            &model,
            DlParams::default(),
            EvalConfig::with_threads(threads),
        );
        assert_bit_identical(&ev.score_all(&batch), &reference);
        group.bench_function(
            BenchmarkId::from_parameter(format!("threads{threads}")),
            |b| b.iter(|| ev.score_all(black_box(&batch)).len()),
        );
    }
    group.finish();
}

fn bench_eval_signature_memo(c: &mut Criterion) {
    // Heterogeneous covariances (post-spread-assimilation): the dense
    // branch re-factorizes per candidate without the memo, once per
    // distinct cell-count signature with it.
    let (data, _) = mammals_synthetic(7);
    let mut model = BackgroundModel::from_empirical(&data).expect("model");
    let mut rng = Xoshiro256pp::seed_from_u64(13);
    let half = BitSet::from_indices(data.n(), rng.sample_indices(data.n(), data.n() / 2));
    let mean = data.target_mean(&half);
    let mut w = vec![1.0; data.dy()];
    sisd_linalg::normalize(&mut w);
    let v = data.target_variance_along(&half, &w);
    model.assimilate_spread(&half, w, mean, v).expect("spread");

    // All candidates share one cell-count signature — 60 rows from each
    // cell, but *different* rows — so the memo collapses 16 factorizations
    // into one while every candidate still has its own residual solve.
    let inside: Vec<usize> = half.iter().collect();
    let outside: Vec<usize> = (0..data.n()).filter(|i| !half.contains(*i)).collect();
    let batch: Vec<Candidate> = (0..16)
        .map(|k| {
            let rows = inside[k * 8..k * 8 + 60]
                .iter()
                .chain(&outside[k * 8..k * 8 + 60])
                .copied();
            Candidate {
                intention: Intention::empty(),
                ext: BitSet::from_indices(data.n(), rows),
            }
        })
        .collect();

    let mut group = c.benchmark_group("eval_dense_path_memo");
    group.sample_size(10);
    // Controlled comparison: identical per-candidate work except for the
    // cache argument, so the gap is attributable to the memo alone.
    let stats_pass = |cache: Option<&sisd_model::FactorCache>| {
        batch
            .iter()
            .map(|cand| {
                let counts = model.cell_counts(&cand.ext);
                let observed = data.target_mean(&cand.ext);
                model
                    .location_stats_for_counts(&counts, &observed, cache)
                    .expect("stats")
                    .log_det_cov
            })
            .sum::<f64>()
    };
    group.bench_function("stats_with_signature_memo", |b| {
        b.iter(|| {
            // Fresh cache per pass: the first candidate of each signature
            // pays the factorization, the rest reuse it.
            let cache = sisd_model::FactorCache::new();
            stats_pass(black_box(Some(&cache)))
        })
    });
    group.bench_function("stats_without_memo", |b| {
        b.iter(|| stats_pass(black_box(None)))
    });
    // End-to-end: the whole engine (memo + shared counts + aggregated
    // means) against per-candidate core scoring — the sum of all engine
    // savings, not the memo alone.
    group.bench_function("engine_batch_end_to_end", |b| {
        b.iter(|| {
            let ev = Evaluator::gaussian(&data, &model, DlParams::default(), EvalConfig::default());
            ev.score_all(black_box(&batch)).len()
        })
    });
    group.bench_function("core_per_candidate_end_to_end", |b| {
        b.iter(|| {
            batch
                .iter()
                .filter(|cand| {
                    sisd_core::location_si(
                        &model,
                        &data,
                        &cand.intention,
                        &cand.ext,
                        &DlParams::default(),
                    )
                    .is_ok()
                })
                .count()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_eval_threads, bench_eval_signature_memo);
criterion_main!(benches);
