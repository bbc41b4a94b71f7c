//! Failure-injection and degenerate-input tests: the library must reject or
//! gracefully survive the pathological datasets a downstream user will
//! eventually feed it.

use sisd::core::{location_si, DlParams, Intention};
use sisd::data::csv::dataset_from_csv_str;
use sisd::data::{BitSet, Column, Dataset};
use sisd::linalg::Matrix;
use sisd::model::{BackgroundModel, ModelError};
use sisd::search::{BeamConfig, BeamSearch, Miner, MinerConfig, SphereConfig};

fn tiny_config() -> MinerConfig {
    MinerConfig {
        beam: BeamConfig {
            width: 5,
            max_depth: 2,
            top_k: 10,
            min_coverage: 2,
            ..BeamConfig::default()
        },
        sphere: SphereConfig {
            random_starts: 2,
            ..SphereConfig::default()
        },
        two_sparse_spread: false,
        refit_tol: 1e-8,
        refit_max_cycles: 50,
    }
}

/// Constant targets: the empirical covariance is singular; the model layer
/// must jitter rather than crash, and searches must not panic.
#[test]
fn constant_targets_survive_via_jitter() {
    let n = 40;
    let flags: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    let data = Dataset::new(
        "const",
        vec!["f".into()],
        vec![Column::binary(&flags)],
        vec!["y".into()],
        Matrix::from_vec(n, 1, vec![3.25; n]),
    );
    let model = BackgroundModel::from_empirical(&data).expect("jittered prior");
    let result = BeamSearch::new(tiny_config().beam).run(&data, &model);
    // All subgroup means equal the global constant → nothing genuinely
    // interesting, but no panics and finite scores.
    for p in &result.top {
        assert!(p.score.si.is_finite());
    }
}

/// A target column with zero variance inside one attribute but variation in
/// the other: dense-path covariances stay factorable.
#[test]
fn mixed_degenerate_targets() {
    let n = 30;
    let mut targets = Matrix::zeros(n, 2);
    for i in 0..n {
        targets[(i, 0)] = 1.0; // constant
        targets[(i, 1)] = (i as f64 * 0.37).sin();
    }
    let flags: Vec<bool> = (0..n).map(|i| i < 10).collect();
    let data = Dataset::new(
        "半const",
        vec!["f".into()],
        vec![Column::binary(&flags)],
        vec!["y0".into(), "y1".into()],
        targets,
    );
    let mut miner = Miner::from_empirical(data, tiny_config()).expect("model fits");
    // Location iteration must work; spread may be degenerate but must not
    // panic (the spread solve on a zero-variance direction errors cleanly).
    let it = miner.step_location().expect("update ok");
    assert!(it.is_some());
}

/// Extremely small datasets.
#[test]
fn minimal_row_counts() {
    for n in [2usize, 3, 5] {
        let flags: Vec<bool> = (0..n).map(|i| i == 0).collect();
        let mut targets = Matrix::zeros(n, 1);
        for i in 0..n {
            targets[(i, 0)] = i as f64;
        }
        let data = Dataset::new(
            "tiny",
            vec!["f".into()],
            vec![Column::binary(&flags)],
            vec!["y".into()],
            targets,
        );
        let model = BackgroundModel::from_empirical(&data).expect("model");
        let cfg = BeamConfig {
            width: 3,
            max_depth: 1,
            top_k: 5,
            min_coverage: 1,
            max_coverage_fraction: 1.0,
            ..BeamConfig::default()
        };
        let result = BeamSearch::new(cfg).run(&data, &model);
        for p in &result.top {
            assert!(p.score.si.is_finite());
        }
    }
}

/// Dimension mismatches are rejected with typed errors, not panics.
#[test]
fn dimension_errors_are_typed() {
    let mut model = BackgroundModel::new(10, vec![0.0, 0.0], Matrix::identity(2)).unwrap();
    let ext = BitSet::from_indices(10, [0, 1]);
    assert!(matches!(
        model.assimilate_location(&ext, vec![1.0]),
        Err(ModelError::Dimension {
            expected: 2,
            got: 1
        })
    ));
    assert!(matches!(
        model.assimilate_spread(&ext, vec![1.0], vec![0.0, 0.0], 1.0),
        Err(ModelError::Dimension { .. })
    ));
    assert!(matches!(
        model.location_stats(&BitSet::empty(10), &[0.0, 0.0]),
        Err(ModelError::EmptyExtension)
    ));
}

/// Repeated assimilation of the *same* pattern is idempotent after the
/// first application (the constraint is already satisfied).
#[test]
fn repeated_assimilation_is_stable() {
    let n = 30;
    let mut targets = Matrix::zeros(n, 2);
    for i in 0..n {
        targets[(i, 0)] = (i as f64).sin();
        targets[(i, 1)] = (i as f64).cos();
    }
    let flags: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
    let data = Dataset::new(
        "rep",
        vec!["f".into()],
        vec![Column::binary(&flags)],
        vec!["y0".into(), "y1".into()],
        targets,
    );
    let mut model = BackgroundModel::from_empirical(&data).unwrap();
    let ext = BitSet::from_fn(n, |i| i % 3 == 0);
    let mean = data.target_mean(&ext);
    model.assimilate_location(&ext, mean.clone()).unwrap();
    let mu_after_first: Vec<f64> = model.row_mean(0).to_vec();
    for _ in 0..5 {
        model.assimilate_location(&ext, mean.clone()).unwrap();
        let _ = model.refit(1e-10, 50).unwrap();
    }
    for (a, b) in model.row_mean(0).iter().zip(&mu_after_first) {
        assert!((a - b).abs() < 1e-9, "means drifted under re-assimilation");
    }
    assert!(model.max_violation() < 1e-9);
}

/// An extreme spread demand (variance → 0) leaves the model usable: the
/// SI of follow-up patterns stays finite.
#[test]
fn extreme_spread_shrink_keeps_model_usable() {
    let n = 40;
    let mut targets = Matrix::zeros(n, 2);
    for i in 0..n {
        targets[(i, 0)] = (i as f64 * 1.3).sin();
        targets[(i, 1)] = (i as f64 * 0.7).cos();
    }
    let flags: Vec<bool> = (0..n).map(|i| i < 20).collect();
    let data = Dataset::new(
        "shrink",
        vec!["f".into()],
        vec![Column::binary(&flags)],
        vec!["y0".into(), "y1".into()],
        targets,
    );
    let mut model = BackgroundModel::from_empirical(&data).unwrap();
    let ext = BitSet::from_indices(n, 0..20);
    let center = data.target_mean(&ext);
    let mut w = vec![1.0, 1.0];
    sisd::linalg::normalize(&mut w);
    model
        .assimilate_spread(&ext, w, center, 1e-10)
        .expect("extreme shrink accepted");
    // Scoring any other subgroup still works.
    let other = BitSet::from_indices(n, 20..40);
    let intent = Intention::empty();
    let score = location_si(&model, &data, &intent, &other, &DlParams::default()).unwrap();
    assert!(score.si.is_finite());
}

/// Unicode attribute names and labels flow through descriptions unharmed.
#[test]
fn unicode_names_roundtrip() {
    let data = Dataset::new(
        "unicode",
        vec!["Fläche_km²".into()],
        vec![Column::categorical_from_strs(&["groß", "klein", "groß"])],
        vec!["Bevölkerung".into()],
        Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]),
    );
    let intent = Intention::empty().with(sisd::core::Condition {
        attr: 0,
        op: sisd::core::ConditionOp::Eq(0),
    });
    let described = intent.describe(&data);
    assert!(described.contains("Fläche_km²"));
    assert!(described.contains("groß"));
    assert_eq!(intent.evaluate(&data).to_indices(), vec![0, 2]);
}

/// One `NaN` target cell: every candidate covering its row scores NaN.
/// The engine must drop those candidates as numeric failures (reported as
/// `degraded`) rather than rank them, so the search neither panics nor
/// logs a non-finite or out-of-order score, and the session goes on.
#[test]
fn nan_target_cell_degrades_the_search_instead_of_panicking() {
    const NAN_ROW: usize = 7;
    let mut csv = String::from("group,size,y\n");
    for i in 0..40 {
        let y = if i == NAN_ROW {
            "NaN".to_string()
        } else {
            format!("{}", (i as f64 * 0.37).sin() + (i % 4) as f64)
        };
        csv.push_str(&format!("g{},{},{y}\n", i % 4, i % 5));
    }
    let data = dataset_from_csv_str("nan-cell", &csv, &["y"]).expect("NaN parses");
    assert!(matches!(
        Miner::from_empirical(data.clone(), tiny_config()),
        Err(ModelError::BadPrior)
    ));

    let mut miner =
        Miner::with_prior(data, vec![3.0], Matrix::identity(1), tiny_config()).expect("prior");
    let result = miner.search_locations();
    assert!(
        result.degraded > 0,
        "NaN scores must be counted as numeric failures"
    );
    assert!(!result.top.is_empty());
    for p in &result.top {
        assert!(p.score.si.is_finite(), "logged SI {}", p.score.si);
        assert!(!p.extension.contains(NAN_ROW));
    }
    for pair in result.top.windows(2) {
        assert!(
            pair[0].score.si >= pair[1].score.si,
            "log must stay SI-sorted"
        );
    }

    let it = miner
        .step_location()
        .expect("assimilation succeeds")
        .expect("a finite pattern is mined");
    assert!(it.location.score.si.is_finite());
}
