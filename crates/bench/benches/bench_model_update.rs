//! Background-model update benchmarks — the microscopic version of the
//! paper's Table II: how does one `assimilate + refit` scale with the
//! number of already-assimilated constraints?

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sisd_data::datasets::{crime_synthetic, german_socio_synthetic};
use sisd_data::{BitSet, Dataset};
use sisd_model::{BackgroundModel, Constraint, WARM_COLD_SCORE_TOL};
use sisd_stats::Xoshiro256pp;
use std::hint::black_box;

/// Random extensions of ~10% coverage with limited overlap.
fn random_extensions(data: &Dataset, count: usize, seed: u64) -> Vec<BitSet> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let size = data.n() / 10;
            BitSet::from_indices(data.n(), rng.sample_indices(data.n(), size))
        })
        .collect()
}

/// Model with `k` location constraints pre-assimilated.
fn model_with_constraints(data: &Dataset, exts: &[BitSet], k: usize) -> BackgroundModel {
    let mut model = BackgroundModel::from_empirical(data).expect("model");
    for ext in exts.iter().take(k) {
        let mean = data.target_mean(ext);
        model.assimilate_location(ext, mean).expect("update");
        let _ = model.refit(1e-7, 100).expect("refit");
    }
    model
}

/// Cold replay of `warm`'s location history: `fresh`, a model built from
/// the same prior, assimilates every stored constraint again, in order,
/// then refits once — no warm-start state carried over.
fn cold_replay(
    mut fresh: BackgroundModel,
    warm: &BackgroundModel,
    tol: f64,
    max_cycles: usize,
) -> BackgroundModel {
    for constraint in warm.constraints() {
        let Constraint::Location { ext, target } = constraint else {
            panic!("the cold replay covers location constraints only");
        };
        fresh
            .assimilate_location(ext, target.clone())
            .expect("replay");
    }
    let _ = fresh.refit(tol, max_cycles).expect("cold refit");
    fresh
}

fn bench_location_update_scaling(c: &mut Criterion) {
    let (data, _) = german_socio_synthetic(7);
    let exts = random_extensions(&data, 16, 11);
    let new_ext = &exts[15];
    let new_mean = data.target_mean(new_ext);

    let mut group = c.benchmark_group("location_update_vs_existing_constraints");
    for &k in &[0usize, 5, 10, 15] {
        let base = model_with_constraints(&data, &exts, k);
        group.bench_with_input(BenchmarkId::from_parameter(k), &base, |b, base| {
            b.iter(|| {
                let mut m = base.clone();
                m.assimilate_location(black_box(new_ext), new_mean.clone())
                    .unwrap();
                let _ = m.refit(1e-7, 100).unwrap();
                m.n_cells()
            })
        });
    }
    group.finish();
}

/// Deep-session sweep: per-step `assimilate + refit` cost as a session
/// accumulates k = 1..20 overlapping location patterns. With warm-started
/// projections the curve should grow roughly linearly in k (per-step work
/// is dominated by re-projections over the overlap structure), not
/// cubically — the numbers are tracked in BASELINES.md.
fn bench_deep_session_sweep(c: &mut Criterion) {
    let (data, _) = german_socio_synthetic(7);
    let exts = random_extensions(&data, 21, 11);
    let mut group = c.benchmark_group("location_update_sweep");
    let mut session = BackgroundModel::from_empirical(&data).expect("model");
    for k in 1..=20usize {
        let ext = &exts[k - 1];
        let mean = data.target_mean(ext);
        group.bench_with_input(BenchmarkId::from_parameter(k), &session, |b, base| {
            b.iter(|| {
                let mut m = base.clone();
                m.assimilate_location(black_box(ext), mean.clone()).unwrap();
                let _ = m.refit(1e-7, 100).unwrap();
                m.n_cells()
            })
        });
        // Advance the session so step k+1 starts from k assimilated
        // patterns.
        session.assimilate_location(ext, mean).expect("advance");
        let _ = session.refit(1e-7, 100).expect("refit");
    }
    group.finish();
}

/// CI smoke gate (`cargo bench -p sisd-bench --bench bench_model_update --
/// smoke`): asserts that the warm-started incremental refit and a cold
/// replay from the prior land on the same belief state (row means within
/// [`WARM_COLD_SCORE_TOL`]) **before** timing either path. A warm/cold
/// divergence fails the bench run loudly rather than shipping wrong
/// numbers.
fn bench_smoke_warm_vs_cold(c: &mut Criterion) {
    let (data, _) = german_socio_synthetic(7);
    let exts = random_extensions(&data, 7, 11);
    let prior = BackgroundModel::from_empirical(&data).expect("model");
    let mut warm = prior.clone();
    for ext in exts.iter().take(6) {
        warm.assimilate_location(ext, data.target_mean(ext))
            .unwrap();
        let _ = warm.refit(1e-9, 200).unwrap();
    }
    let cold = cold_replay(prior.clone(), &warm, 1e-9, 200);
    for i in 0..data.n() {
        for (a, b) in warm.row_mean(i).iter().zip(cold.row_mean(i)) {
            assert!(
                (a - b).abs() <= WARM_COLD_SCORE_TOL,
                "warm/cold divergence at row {i}: {a} vs {b}"
            );
        }
    }
    let probe = &exts[6];
    let observed = data.target_mean(probe);
    let sw = warm.location_stats(probe, &observed).expect("stats");
    let sc = cold.location_stats(probe, &observed).expect("stats");
    assert!(
        (sw.mahalanobis - sc.mahalanobis).abs() <= WARM_COLD_SCORE_TOL
            && (sw.log_det_cov - sc.log_det_cov).abs() <= WARM_COLD_SCORE_TOL,
        "warm/cold probe-score divergence: ({}, {}) vs ({}, {})",
        sw.mahalanobis,
        sw.log_det_cov,
        sc.mahalanobis,
        sc.log_det_cov
    );

    let ext = &exts[6];
    let mean = data.target_mean(ext);
    let mut group = c.benchmark_group("smoke_warm_vs_cold");
    group.bench_function("warm_incremental", |b| {
        b.iter(|| {
            let mut m = warm.clone();
            m.assimilate_location(black_box(ext), mean.clone()).unwrap();
            let _ = m.refit(1e-7, 100).unwrap();
            m.n_cells()
        })
    });
    let mut extended = warm.clone();
    extended.assimilate_location(ext, mean.clone()).unwrap();
    group.bench_function("cold_replay", |b| {
        b.iter(|| cold_replay(prior.clone(), black_box(&extended), 1e-7, 100).n_cells())
    });
    group.finish();
}

fn bench_spread_update(c: &mut Criterion) {
    let (data, _) = german_socio_synthetic(7);
    let exts = random_extensions(&data, 4, 13);
    let ext = &exts[0];
    let center = data.target_mean(ext);
    let mut w = vec![1.0; data.dy()];
    sisd_linalg::normalize(&mut w);
    let observed = data.target_variance_along(ext, &w);
    let mut base = BackgroundModel::from_empirical(&data).expect("model");
    base.assimilate_location(ext, center.clone()).unwrap();

    c.bench_function("spread_update_single", |b| {
        b.iter(|| {
            let mut m = base.clone();
            m.assimilate_spread(black_box(ext), w.clone(), center.clone(), observed)
                .unwrap();
            m.n_cells()
        })
    });
}

fn bench_initial_fit(c: &mut Criterion) {
    let crime = crime_synthetic(5);
    c.bench_function("initial_fit_crime_n1994", |b| {
        b.iter(|| {
            BackgroundModel::from_empirical(black_box(&crime))
                .unwrap()
                .n_cells()
        })
    });
}

criterion_group!(
    benches,
    bench_location_update_scaling,
    bench_deep_session_sweep,
    bench_smoke_warm_vs_cold,
    bench_spread_update,
    bench_initial_fit
);
criterion_main!(benches);
