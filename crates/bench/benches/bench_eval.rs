//! Candidate-evaluation engine throughput: single- vs multi-threaded
//! `Evaluator::score_all` on the mammals-scale setup (dy = 124, the
//! dimensionality where one Cholesky factorization costs ~265 µs), plus
//! the engine against per-candidate core scoring on the
//! heterogeneous-covariance path.
//!
//! The mammals targets are 0/1, so `eval_throughput_mammals_dy124` sums
//! them by AND-popcount over the dataset's target bit matrix;
//! `eval_throughput_mammals_dy124_shifted` scores the same extensions on
//! every target shifted by 0.5, which takes the 124-column row walk.
//!
//! The engine guarantees bit-identical scores at any thread count; this
//! bench asserts that on every measured batch before timing it. Speedup at
//! `t` threads is bounded by the machine's available parallelism — on a
//! single-core container the thread variants coincide.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sisd_core::{DlParams, Intention};
use sisd_data::datasets::mammals_synthetic;
use sisd_data::{BitSet, Dataset};
use sisd_linalg::Matrix;
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

/// `data` with every target shifted by 0.5: real-valued targets, so no
/// target bit matrix.
fn shifted(data: &Dataset) -> Dataset {
    let mut targets: Matrix = data.targets().clone();
    for v in targets.as_mut_slice() {
        *v += 0.5;
    }
    Dataset::new(
        format!("{} shifted", data.name),
        data.desc_names().to_vec(),
        data.desc_cols().to_vec(),
        data.target_names().to_vec(),
        targets,
    )
}

fn bench_eval_threads(c: &mut Criterion) {
    let (mammals, _) = mammals_synthetic(7);
    let batch = candidate_batch(&mammals, 48, 11);
    let real = shifted(&mammals);
    assert!(mammals.target_bits().is_some() && real.target_bits().is_none());
    for (name, data) in [
        ("eval_throughput_mammals_dy124", &mammals),
        ("eval_throughput_mammals_dy124_shifted", &real),
    ] {
        let model = BackgroundModel::from_empirical(data).expect("model");
        let reference =
            Evaluator::gaussian(data, &model, DlParams::default(), EvalConfig::default())
                .score_all(&batch);
        assert_eq!(reference.len(), batch.len());

        let mut group = c.benchmark_group(name);
        group.sample_size(10);
        for &threads in &[1usize, 2, 4] {
            let ev = Evaluator::gaussian(
                data,
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
}

fn bench_eval_dense_path(c: &mut Criterion) {
    // Heterogeneous covariances (post-spread-assimilation): the dense
    // branch factors each candidate's covariance mixture.
    let (data, _) = mammals_synthetic(7);
    let mut model = BackgroundModel::from_empirical(&data).expect("model");
    let mut rng = Xoshiro256pp::seed_from_u64(13);
    let half = BitSet::from_indices(data.n(), rng.sample_indices(data.n(), data.n() / 2));
    let mean = data.target_mean(&half);
    let mut w = vec![1.0; data.dy()];
    sisd_linalg::normalize(&mut w);
    let v = data.target_variance_along(&half, &w);
    model.assimilate_spread(&half, w, mean, v).expect("spread");

    // Every candidate takes 60 rows from each of the two cells, different
    // rows each time, so each pays a dy = 124 factorization of the same
    // mixture and its own residual solve.
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

    let mut group = c.benchmark_group("eval_dense_path");
    group.sample_size(10);
    // End-to-end: the whole engine (shared counts, aggregated means)
    // against per-candidate core scoring.
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

criterion_group!(benches, bench_eval_threads, bench_eval_dense_path);
criterion_main!(benches);
