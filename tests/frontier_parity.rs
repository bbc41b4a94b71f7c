//! Frontier parity: the batched `sisd-frontier` kernels and builder must be
//! **identical** to the per-candidate `BitSet::and`/`count` loop they
//! replaced — same children, same order, same words — across random masks
//! and lengths crossing word boundaries; and the searches built on them
//! must return bit-identical results to the pre-refactor serial generation
//! path at 1 and 4 threads — and, on multi-cell and mixed-covariance models
//! of one and of many target columns, real-valued or 0/1, at 1, 2 and 4
//! threads.

use proptest::prelude::*;
use sisd::core::{Condition, ConditionOp, Intention, LocationPattern};
use sisd::data::{kernels, BitSet, Column, Dataset};
use sisd::frontier::{ChildBatch, FrontierBuilder, FrontierConfig, MaskMatrix, ParentSpec};
use sisd::linalg::Matrix;
use sisd::model::BackgroundModel;
use sisd::search::{
    branch_bound_search, generate_conditions, BeamConfig, BeamSearch, BranchBoundConfig, Candidate,
    EvalConfig, Evaluator,
};
use sisd::stats::Xoshiro256pp;
use std::collections::HashSet;

fn random_mask(rng: &mut Xoshiro256pp, n: usize, density: f64) -> BitSet {
    BitSet::from_fn(n, |_| rng.uniform() < density)
}

/// The serial per-candidate reference for refinement: nested loops over
/// parents and masks, one `BitSet::and` + `count` per pair, identical
/// filters — what the search code did before this subsystem existed.
fn reference_refine(
    masks: &[BitSet],
    parents: &[(&BitSet, usize)],
    allowed: impl Fn(usize, usize) -> bool,
    min_support: usize,
) -> Vec<(usize, usize, usize, BitSet)> {
    let mut out = Vec::new();
    for (p, &(ext, max_support)) in parents.iter().enumerate() {
        for (row, mask) in masks.iter().enumerate() {
            if !allowed(p, row) {
                continue;
            }
            let child = ext.and(mask);
            let support = child.count();
            if support >= min_support && support <= max_support {
                out.push((p, row, support, child));
            }
        }
    }
    out
}

/// Asserts that `got` holds exactly the reference children `expect`, in
/// order, with the same supports and extension words.
fn assert_matches_reference(
    got: &ChildBatch<'_>,
    expect: &[&(usize, usize, usize, BitSet)],
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), expect.len(), "{}", what);
    for (i, (p, row, support, ext)) in expect.iter().copied().enumerate() {
        let m = got.meta(i);
        prop_assert_eq!(
            (m.parent, m.row, m.support),
            (*p, *row, *support),
            "{}",
            what
        );
        prop_assert_eq!(&got.child_bitset(i), ext, "{}", what);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `and_count_many_select` over the packed arena equals one
    /// `BitSet::and().count()` per selected row and leaves the other rows'
    /// counts alone.
    #[test]
    fn and_count_many_select_matches_per_candidate_counts(seed in 0u64..10_000) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        // Lengths deliberately straddle word boundaries.
        let n = 1 + (seed as usize * 37) % 310;
        let rows = 1 + (seed as usize) % 40;
        let masks: Vec<BitSet> = (0..rows).map(|_| random_mask(&mut rng, n, 0.35)).collect();
        let matrix = MaskMatrix::from_bitsets(n, masks.iter().cloned());
        let parent = random_mask(&mut rng, n, 0.6);
        let select: Vec<bool> = (0..rows).map(|_| rng.uniform() < 0.8).collect();
        let mut counts = vec![usize::MAX; rows];
        kernels::and_count_many_select(
            parent.words(),
            matrix.block_words(0, rows),
            &select,
            &mut counts,
        );
        for (row, mask) in masks.iter().enumerate() {
            let expect = if select[row] { parent.and(mask).count() } else { usize::MAX };
            prop_assert_eq!(counts[row], expect);
            prop_assert_eq!(
                kernels::and_count(parent.words(), mask.words()),
                parent.intersection_count(mask)
            );
        }
    }

    /// The count-first builder's children — order, supports, and extension
    /// words — are identical to the serial per-candidate loop.
    #[test]
    fn refine_matches_per_candidate_loop(seed in 0u64..10_000) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let n = 2 + (seed as usize * 13) % 260;
        let rows = 1 + (seed as usize) % 50;
        let min_support = (seed as usize) % 4;
        let masks: Vec<BitSet> = (0..rows).map(|_| random_mask(&mut rng, n, 0.4)).collect();
        let matrix = MaskMatrix::from_bitsets(n, masks.iter().cloned());
        let parent_sets: Vec<BitSet> =
            (0..4).map(|_| random_mask(&mut rng, n, 0.7)).collect();
        let parents_ref: Vec<(&BitSet, usize)> = parent_sets
            .iter()
            .map(|ext| (ext, ext.count().saturating_sub(1)))
            .collect();
        let allowed =
            |p: usize, row: usize| !(p * 7 + row * 3 + seed as usize).is_multiple_of(5);
        let expect = reference_refine(&masks, &parents_ref, allowed, min_support);

        let parents: Vec<ParentSpec<'_>> = parent_sets
            .iter()
            .map(|ext| ParentSpec { ext, max_support: ext.count().saturating_sub(1) })
            .collect();
        let builder = FrontierBuilder::new(
            &matrix,
            FrontierConfig { min_support, ..FrontierConfig::default() },
        );
        let got = builder.refine_with_prune(&parents, allowed, |_, _, _| true);
        assert_matches_reference(&got, &expect.iter().collect::<Vec<_>>(), "keep all")?;
    }

    /// `refine_with_prune` — count-first refinement with a keep predicate
    /// between counting and materialization — emits exactly the
    /// per-candidate reference's children post-filtered by the same
    /// predicate. Exercised with a stateful first-wins dedup predicate (the
    /// beam's use) and a support-threshold predicate shaped like
    /// branch-and-bound's optimistic bound.
    #[test]
    fn refine_with_prune_matches_filtered_single_pass(seed in 0u64..10_000) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x0694_6d1f_13b7_a55b);
        let n = 2 + (seed as usize * 19) % 300;
        let rows = 1 + (seed as usize) % 45;
        let min_support = (seed as usize) % 3;
        let masks: Vec<BitSet> = (0..rows).map(|_| random_mask(&mut rng, n, 0.45)).collect();
        let matrix = MaskMatrix::from_bitsets(n, masks.iter().cloned());
        let parent_sets: Vec<BitSet> =
            (0..4).map(|_| random_mask(&mut rng, n, 0.75)).collect();
        let parents_ref: Vec<(&BitSet, usize)> = parent_sets
            .iter()
            .map(|ext| (ext, ext.count().saturating_sub(1)))
            .collect();
        let parents: Vec<ParentSpec<'_>> = parent_sets
            .iter()
            .map(|ext| ParentSpec { ext, max_support: ext.count().saturating_sub(1) })
            .collect();
        let allowed = |p: usize, row: usize| !(p + row * 2 + seed as usize).is_multiple_of(7);
        let reference = reference_refine(&masks, &parents_ref, allowed, min_support);
        let builder = FrontierBuilder::new(
            &matrix,
            FrontierConfig { min_support, ..FrontierConfig::default() },
        );

        // Case 1: a stateful first-wins dedup on support values.
        let mut seen: HashSet<usize> = HashSet::new();
        let got = builder.refine_with_prune(&parents, allowed, |_, _, support| {
            seen.insert(support)
        });
        let mut seen_ref: HashSet<usize> = HashSet::new();
        let expect: Vec<_> = reference.iter().filter(|c| seen_ref.insert(c.2)).collect();
        assert_matches_reference(&got, &expect, "dedup")?;

        // Case 2: a stateless bound-style predicate (keep only supports
        // above a per-parent threshold — monotone in support, like an
        // optimistic bound against an incumbent).
        let bound_floor = 1 + (seed as usize) % 8;
        let got = builder.refine_with_prune(&parents, allowed, |p, _, support| {
            support >= bound_floor + p
        });
        let expect: Vec<_> = reference.iter().filter(|c| c.2 >= bound_floor + c.0).collect();
        assert_matches_reference(&got, &expect, "bound")?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Threaded batch scoring is bit-identical to the serial oracle at
    /// every thread count ∈ {1, 2, 4} — the "no output bit may change"
    /// contract of forked scoring. (Refinement runs on the calling thread,
    /// so there is no threaded refinement half to check.)
    #[test]
    fn threaded_scoring_matches_the_serial_oracle(seed in 0u64..10_000) {
        let data = bb_data(seed ^ 0x517c_c1b7_2722_0a95, 200 + (seed as usize) % 90);
        let model = BackgroundModel::from_empirical(&data).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let cands: Vec<Candidate> = (0..48)
            .map(|_| Candidate {
                intention: Intention::empty(),
                ext: random_mask(&mut rng, data.n(), 0.5),
            })
            .collect();
        let oracle = Evaluator::gaussian(&data, &model, Default::default(), EvalConfig::default())
            .score_all(&cands);


        for threads in [1usize, 2, 4] {
            let cfg = EvalConfig::with_threads(threads);
            let ev = Evaluator::gaussian(&data, &model, Default::default(), cfg);
            let got = ev.score_all(&cands);
            prop_assert_eq!(got.len(), oracle.len());
            for (a, b) in got.iter().zip(&oracle) {
                prop_assert_eq!(&a.ext, &b.ext, "threads={}", threads);
                prop_assert_eq!(
                    a.score.si.to_bits(),
                    b.score.si.to_bits(),
                    "threads={}", threads
                );
            }
        }
    }
}

// ----------------------------------------------------------------------
// Search-level parity: the refactored strategies against the pre-refactor
// serial generation path.
// ----------------------------------------------------------------------

/// Canonical intention key, replicated from the search crate's dedup so the
/// reference loop below matches the pre-refactor code exactly.
fn intention_key(intention: &Intention) -> Vec<(usize, u8, u64)> {
    let mut key: Vec<(usize, u8, u64)> = intention
        .conditions()
        .iter()
        .map(|c| match c.op {
            ConditionOp::Ge(t) => (c.attr, 0u8, t.to_bits()),
            ConditionOp::Le(t) => (c.attr, 1u8, t.to_bits()),
            ConditionOp::Eq(l) => (c.attr, 2u8, u64::from(l)),
        })
        .collect();
    key.sort_unstable();
    key
}

/// The pre-refactor beam: serial per-candidate generation (`BitSet::and`
/// per (parent, condition) pair, condition masks evaluated into a plain
/// `Vec<BitSet>`), the same structural filters and dedup, scoring through
/// the engine, the same top-k and level-selection rules.
fn reference_beam(
    data: &Dataset,
    model: &BackgroundModel,
    cfg: &BeamConfig,
) -> (Vec<LocationPattern>, usize) {
    let ev = Evaluator::gaussian(data, model, cfg.dl, EvalConfig::default());
    let conditions = generate_conditions(data, &cfg.refine);
    let condition_exts: Vec<BitSet> = conditions.iter().map(|c| c.evaluate(data)).collect();
    let max_cov =
        ((data.n() as f64 * cfg.max_coverage_fraction).floor() as usize).max(cfg.min_coverage);
    let mut top: Vec<LocationPattern> = Vec::new();
    let mut evaluated = 0usize;
    let mut seen: HashSet<Vec<(usize, u8, u64)>> = HashSet::new();
    let mut frontier: Vec<(Intention, BitSet)> = vec![(Intention::empty(), BitSet::full(data.n()))];
    for _depth in 1..=cfg.max_depth {
        let mut batch: Vec<Candidate> = Vec::new();
        for (parent_intent, parent_ext) in &frontier {
            for (cidx, cond) in conditions.iter().enumerate() {
                if parent_intent.conflicts_with(cond) {
                    continue;
                }
                let ext = parent_ext.and(&condition_exts[cidx]);
                let m = ext.count();
                if m < cfg.min_coverage || m > max_cov || m == parent_ext.count() {
                    continue;
                }
                let child_intent = parent_intent.with(*cond);
                if !seen.insert(intention_key(&child_intent)) {
                    continue;
                }
                batch.push(Candidate {
                    intention: child_intent,
                    ext,
                });
            }
        }
        let scored = ev.score_all(&batch);
        evaluated += scored.len();
        let mut level: Vec<(Intention, BitSet, f64)> = Vec::with_capacity(scored.len());
        for s in scored {
            level.push((s.intention.clone(), s.ext.clone(), s.score.si));
            let p = s.into_pattern();
            let pos = top.partition_point(|q| q.score.si >= p.score.si);
            if pos < cfg.top_k {
                top.insert(pos, p);
                top.truncate(cfg.top_k);
            }
        }
        if level.is_empty() {
            break;
        }
        level.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
        level.truncate(cfg.width);
        frontier = level.into_iter().map(|(i, e, _)| (i, e)).collect();
    }
    (top, evaluated)
}

#[test]
fn beam_search_is_bit_identical_to_the_pre_refactor_path() {
    let (data, _) = sisd::data::datasets::synthetic_paper(42);
    let model = BackgroundModel::from_empirical(&data).unwrap();
    // At depth 4 the last levels' parents hold 2–3 conditions, so the
    // beam's dedup checks only the children through a parent's condition,
    // while the reference checks every key.
    for (width, max_depth, top_k) in [(12usize, 3usize, 60usize), (8, 4, 40)] {
        let cfg = BeamConfig {
            width,
            max_depth,
            top_k,
            ..BeamConfig::default()
        };
        let expect = reference_beam(&data, &model, &cfg);
        for threads in [1usize, 4] {
            let cfg_t = BeamConfig {
                eval: EvalConfig::with_threads(threads),
                ..cfg.clone()
            };
            let result = BeamSearch::new(cfg_t).run(&data, &model);
            assert_same_search(
                &result,
                &expect,
                &format!("depth={max_depth} threads={threads}"),
            );
        }
    }
}

/// Asserts that a beam search scored as many candidates as the reference
/// and logged the same patterns, bit for bit.
fn assert_same_search(
    result: &sisd::search::BeamResult,
    (expect_top, expect_evaluated): &(Vec<LocationPattern>, usize),
    what: &str,
) {
    assert_eq!(result.evaluated, *expect_evaluated, "{what}");
    assert_eq!(result.top.len(), expect_top.len(), "{what}");
    for (a, b) in result.top.iter().zip(expect_top) {
        assert_eq!(a.extension, b.extension, "{what}");
        assert_eq!(a.intention, b.intention, "{what}");
        assert_eq!(
            a.score.si.to_bits(),
            b.score.si.to_bits(),
            "{what}: SI must be bit-identical to the pre-refactor path"
        );
        let bits = |mean: &[f64]| mean.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.observed_mean), bits(&b.observed_mean), "{what}");
    }
}

/// Runs the beam at 1, 2 and 4 threads and asserts that every setting
/// logs exactly `reference_beam`'s patterns; returns how many the log
/// holds.
fn assert_beam_matches_the_reference(
    data: &Dataset,
    model: &BackgroundModel,
    cfg: &BeamConfig,
) -> usize {
    let expect = reference_beam(data, model, cfg);
    for threads in [1usize, 2, 4] {
        let cfg_t = BeamConfig {
            eval: EvalConfig::with_threads(threads),
            ..cfg.clone()
        };
        let result = BeamSearch::new(cfg_t).run(data, model);
        let what = format!("{} threads={threads}", data.name);
        assert_same_search(&result, &expect, &what);
    }
    expect.0.len()
}

#[test]
fn single_target_beam_over_many_cells_is_bit_identical_to_the_pre_refactor_path() {
    // Single-target data, where beam levels score a parent's children as
    // sibling lanes, against a model whose partition has many cells: each
    // signature is built from a parent's covered cells, and a child covers
    // some of them and misses others.
    let data = sisd::data::datasets::crime_synthetic(5);
    assert_eq!(data.dy(), 1);
    let mut model = BackgroundModel::from_empirical(&data).unwrap();
    let conditions = generate_conditions(&data, &Default::default());
    for condition in conditions.iter().step_by(131).take(7) {
        let ext = condition.evaluate(&data);
        model
            .assimilate_location(&ext, data.target_mean(&ext))
            .unwrap();
    }
    assert!(model.n_cells() >= 20, "{} cells", model.n_cells());
    let cfg = BeamConfig {
        width: 8,
        max_depth: 2,
        top_k: 40,
        min_coverage: 10,
        ..BeamConfig::default()
    };
    assert_beam_matches_the_reference(&data, &model, &cfg);
}

/// Factors the prior (as a model's first search does) and assimilates the
/// location patterns of `conditions`, so the cells the assimilations split
/// off all hold the prior's factor object.
fn assimilate_locations(data: &Dataset, model: &mut BackgroundModel, conditions: &[Condition]) {
    let full = BitSet::full(data.n());
    model
        .location_stats(&full, &data.target_mean(&full))
        .unwrap();
    for condition in conditions {
        let ext = condition.evaluate(data);
        model
            .assimilate_location(&ext, data.target_mean(&ext))
            .unwrap();
    }
}

#[test]
fn wide_target_beam_over_one_covariance_is_bit_identical_to_the_pre_refactor_path() {
    // Five target columns and three assimilated locations: one covariance
    // over several cells, so every child of a level solves against the
    // cells' one factor, eight at a time.
    let (data, _) = sisd::data::datasets::german_socio_synthetic(3);
    assert_eq!(data.dy(), 5);
    let mut model = BackgroundModel::from_empirical(&data).unwrap();
    let conditions = generate_conditions(&data, &Default::default());
    let picked: Vec<Condition> = conditions.iter().step_by(17).take(3).copied().collect();
    assimilate_locations(&data, &mut model, &picked);
    assert!(model.n_cells() >= 4, "{} cells", model.n_cells());
    let first = model.cells()[0].cov.chol().unwrap();
    assert!(model
        .cells()
        .iter()
        .all(|c| std::ptr::eq(c.cov.chol().unwrap(), first)));
    let cfg = BeamConfig {
        width: 8,
        max_depth: 3,
        top_k: 40,
        min_coverage: 10,
        ..BeamConfig::default()
    };
    assert_beam_matches_the_reference(&data, &model, &cfg);
}

#[test]
fn wide_target_beam_over_mixed_covariances_is_bit_identical_to_the_pre_refactor_path() {
    // Sixteen target columns after a spread assimilation on the best
    // subgroup and a location assimilation on the runner-up. The best one
    // stays a strong parent, and its children solve against the factor its
    // cells share, eight at a time; children that straddle the spread
    // solve against mixtures, each factored for its candidate alone, one
    // at a time. The log is long enough to hold every scored
    // child, so every child's bits are compared.
    let data = sisd::data::datasets::water_quality_synthetic(5);
    assert_eq!(data.dy(), 16);
    let mut model = BackgroundModel::from_empirical(&data).unwrap();
    let cfg = BeamConfig {
        width: 8,
        max_depth: 2,
        top_k: 40,
        min_coverage: 10,
        ..BeamConfig::default()
    };
    let first = BeamSearch::new(cfg.clone()).run(&data, &model);
    let cfg = BeamConfig { top_k: 4096, ..cfg };
    let (best, runner_up) = (&first.top[0].extension, &first.top[1].extension);
    let mut w = vec![0.0; data.dy()];
    w[0] = 0.6;
    w[1] = 0.8;
    let center = data.target_mean(best);
    let expected = model.spread_stats(best, &w, &center).unwrap().expected;
    model
        .assimilate_spread(best, w, center, 0.5 * expected)
        .unwrap();
    model
        .assimilate_location(runner_up, data.target_mean(runner_up))
        .unwrap();
    let mut ids: Vec<u64> = model.cells().iter().map(|c| c.cov.id()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert!(ids.len() >= 2, "cov_ids {ids:?}");
    let logged = assert_beam_matches_the_reference(&data, &model, &cfg);
    assert!(logged < cfg.top_k, "{logged} children logged");
}

/// `data` with its first `dy` target columns, each 1 above its column
/// mean and 0 elsewhere: 0/1 targets, so the dataset keeps a target bit
/// matrix and a beam level at `dy > 1` scores its children by
/// AND-popcounts in their parent's compacted row space.
fn binarized(data: &Dataset, dy: usize) -> Dataset {
    let mean = data.target_mean(&BitSet::full(data.n()));
    let mut targets = Matrix::zeros(data.n(), dy);
    for i in 0..data.n() {
        for (j, &m) in mean.iter().take(dy).enumerate() {
            targets[(i, j)] = f64::from(u8::from(data.targets()[(i, j)] > m));
        }
    }
    let binary = Dataset::new(
        format!("{} 0/1", data.name),
        data.desc_names().to_vec(),
        data.desc_cols().to_vec(),
        data.target_names()[..dy].to_vec(),
        targets,
    );
    assert!(binary.target_bits().is_some());
    binary
}

#[test]
fn binary_target_beam_over_many_cells_is_bit_identical_to_the_pre_refactor_path() {
    // Three 0/1 target columns over a location-only partition of twenty or
    // more cells: a parent's compacted block holds more cell rows than
    // column rows, and each child's signature keeps only the covered cells
    // it meets. Depth 3 compacts parents of two conditions too.
    let data = binarized(&sisd::data::datasets::water_quality_synthetic(5), 3);
    let mut model = BackgroundModel::from_empirical(&data).unwrap();
    let conditions = generate_conditions(&data, &Default::default());
    let picked: Vec<Condition> = conditions.iter().step_by(5).take(8).copied().collect();
    assimilate_locations(&data, &mut model, &picked);
    assert!(model.n_cells() >= 20, "{} cells", model.n_cells());
    for max_depth in [2, 3] {
        let cfg = BeamConfig {
            width: 8,
            max_depth,
            top_k: 40,
            min_coverage: 10,
            ..BeamConfig::default()
        };
        assert_beam_matches_the_reference(&data, &model, &cfg);
    }
}

#[test]
fn binary_target_beam_over_mixed_covariances_is_bit_identical_to_the_pre_refactor_path() {
    // Four 0/1 target columns after a spread assimilation on the best
    // subgroup and a location assimilation on the runner-up, so children
    // solve against shared factors and against mixtures. The log is long
    // enough to hold every scored child, so every child's bits are
    // compared.
    let data = binarized(&sisd::data::datasets::water_quality_synthetic(5), 4);
    let mut model = BackgroundModel::from_empirical(&data).unwrap();
    let cfg = BeamConfig {
        width: 8,
        max_depth: 2,
        top_k: 40,
        min_coverage: 10,
        ..BeamConfig::default()
    };
    let first = BeamSearch::new(cfg.clone()).run(&data, &model);
    let cfg = BeamConfig { top_k: 4096, ..cfg };
    let (best, runner_up) = (&first.top[0].extension, &first.top[1].extension);
    let w = vec![0.6, 0.8, 0.0, 0.0];
    let center = data.target_mean(best);
    let expected = model.spread_stats(best, &w, &center).unwrap().expected;
    model
        .assimilate_spread(best, w, center, 0.5 * expected)
        .unwrap();
    model
        .assimilate_location(runner_up, data.target_mean(runner_up))
        .unwrap();
    let mut ids: Vec<u64> = model.cells().iter().map(|c| c.cov.id()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert!(ids.len() >= 2, "cov_ids {ids:?}");
    let logged = assert_beam_matches_the_reference(&data, &model, &cfg);
    assert!(logged < cfg.top_k, "{logged} children logged");
}

/// A single-target dataset with a planted subgroup, for branch-and-bound.
fn bb_data(seed: u64, n: usize) -> Dataset {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let flag: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect();
    let num: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
    let mut targets = Matrix::zeros(n, 1);
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

#[test]
fn branch_bound_is_thread_invariant_through_the_frontier() {
    let data = bb_data(11, 250);
    let model = BackgroundModel::from_empirical(&data).unwrap();
    let run = |threads: usize| {
        branch_bound_search(
            &data,
            &model,
            BranchBoundConfig {
                max_depth: 3,
                min_coverage: 5,
                eval: EvalConfig::with_threads(threads),
                ..BranchBoundConfig::default()
            },
        )
    };
    let serial = run(1);
    let best = serial.best.as_ref().expect("optimum found");
    let parallel = run(4);
    assert_eq!(parallel.evaluated, serial.evaluated);
    assert_eq!(parallel.pruned, serial.pruned);
    let pbest = parallel.best.as_ref().unwrap();
    assert_eq!(pbest.extension, best.extension);
    assert_eq!(pbest.score.si.to_bits(), best.score.si.to_bits());
}
