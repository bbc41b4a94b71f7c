//! End-to-end beam-search benchmarks on the synthetic data at the paper's
//! settings and smaller variants (the §III-E scalability story: runtime is
//! controlled by width × depth × condition count), and the beam levels of
//! a mammals search (dy = 124, 0/1 targets), where each parent's children
//! are scored by AND-popcounts in the parent's compacted row space.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sisd_data::datasets::{mammals_synthetic, synthetic_paper};
use sisd_model::BackgroundModel;
use sisd_search::{BeamConfig, BeamSearch, EvalConfig, Evaluator, Miner, MinerConfig};
use std::hint::black_box;

fn bench_beam(c: &mut Criterion) {
    let (data, _) = synthetic_paper(77);
    let mut group = c.benchmark_group("beam_search_synthetic");
    group.sample_size(20);
    for &(width, depth) in &[(10usize, 2usize), (40, 2), (40, 4)] {
        let cfg = BeamConfig {
            width,
            max_depth: depth,
            top_k: 150,
            ..BeamConfig::default()
        };
        group.bench_function(
            BenchmarkId::from_parameter(format!("w{width}_d{depth}")),
            |b| {
                b.iter(|| {
                    let model = BackgroundModel::from_empirical(&data).unwrap();
                    let r = BeamSearch::new(cfg.clone()).run(black_box(&data), &model);
                    r.evaluated
                })
            },
        );
    }
    group.finish();
}

/// One search of the Figs. 4–6 mammals session (width 40, depth 2, top-k
/// 150, coverage floor 50) through a [`Miner`], which keeps its condition
/// masks, so the timed work is the two beam levels: before, and after two
/// assimilated patterns split the prior into more cells. Before timing,
/// every logged pattern's SI and observed mean are checked bit for bit
/// against [`Evaluator::score_location`], which counts the candidate over
/// the whole row space.
fn bench_beam_mammals(c: &mut Criterion) {
    let (data, _) = mammals_synthetic(7);
    assert!(data.target_bits().is_some());
    let config = MinerConfig {
        beam: BeamConfig {
            width: 40,
            max_depth: 2,
            top_k: 150,
            min_coverage: 50,
            ..BeamConfig::default()
        },
        refit_tol: 1e-7,
        refit_max_cycles: 50,
        ..MinerConfig::default()
    };
    let mut miner = Miner::from_empirical(data, config.clone()).expect("model");
    let mut group = c.benchmark_group("beam_level_mammals_dy124");
    group.sample_size(10);
    for step in [0usize, 2] {
        while miner.iterations_done() < step {
            miner.step_location().expect("step").expect("a pattern");
        }
        let result = miner.search_locations();
        assert_eq!(result.top.len(), config.beam.top_k);
        let ev = Evaluator::gaussian(
            miner.data(),
            miner.model(),
            config.dl(),
            EvalConfig::default(),
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for p in &result.top {
            let one = ev
                .score_location(&p.intention, &p.extension)
                .expect("score");
            assert_eq!(one.score.si.to_bits(), p.score.si.to_bits());
            assert_eq!(bits(&one.observed_mean), bits(&p.observed_mean));
        }
        let cells = miner.model().n_cells();
        group.bench_function(BenchmarkId::from_parameter(format!("cells{cells}")), |b| {
            b.iter(|| black_box(miner.search_locations()).evaluated)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_beam, bench_beam_mammals);
criterion_main!(benches);
