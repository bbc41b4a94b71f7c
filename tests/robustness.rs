//! Failure-injection and degenerate-input tests: the library must reject or
//! gracefully survive the pathological datasets a downstream user will
//! eventually feed it.

use sisd::core::{location_si, DlParams, Intention, LocationPattern, LocationScore};
use sisd::data::csv::dataset_from_csv_str;
use sisd::data::{BitSet, Column, Dataset};
use sisd::linalg::Matrix;
use sisd::model::{BackgroundModel, ModelError};
use sisd::search::{
    branch_bound_search, BeamConfig, BeamSearch, BranchBoundConfig, Miner, MinerConfig,
    SphereConfig,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// One `NaN` cell in a two-target CSV: a spread search over a pattern that
/// covers its row meets a NaN scatter matrix, whose eigenvalues are NaN.
/// Sorting them must not panic; the search returns a pattern for the same
/// rows.
#[test]
fn spread_search_survives_a_nan_target_cell() {
    let mut csv = String::from("group,a,b\n");
    for i in 0..40 {
        let a = if i == 7 {
            "NaN".to_string()
        } else {
            format!("{}", (i as f64 * 0.37).sin())
        };
        let b = (i as f64 * 0.11).cos() + (i % 3) as f64;
        csv.push_str(&format!("g{},{a},{b}\n", i % 4));
    }
    let data = dataset_from_csv_str("nan-spread", &csv, &["a", "b"]).expect("NaN parses");
    let miner = Miner::with_prior(
        data.clone(),
        vec![0.0, 0.0],
        Matrix::identity(2),
        tiny_config(),
    )
    .expect("prior");
    let all = BitSet::full(data.n());
    let location = LocationPattern {
        intention: Intention::empty(),
        observed_mean: data.target_mean(&all),
        extension: all,
        score: LocationScore {
            ic: 0.0,
            dl: 1.0,
            si: 0.0,
        },
    };
    let spread = miner.mine_spread(&location);
    assert_eq!(spread.extension, location.extension);
    assert_eq!(spread.w.len(), 2);
}

/// 2-sparse spread mining on one-target data: the only unit directions
/// are `±1`, both 2-sparse and of equal IC, so the search returns `w = [1]`
/// (with the full-sphere search's IC) instead of asking for two columns.
#[test]
fn two_sparse_spread_mining_handles_one_target_data() {
    let data = sisd::data::datasets::crime_synthetic(2018);
    assert_eq!(data.dy(), 1);
    let spread_step = |two_sparse_spread| {
        let config = MinerConfig {
            beam: BeamConfig {
                max_depth: 1,
                ..tiny_config().beam
            },
            two_sparse_spread,
            ..tiny_config()
        };
        let mut miner = Miner::from_empirical(data.clone(), config).expect("empirical model");
        let step = miner.step_with_spread().expect("assimilation");
        step.and_then(|it| it.spread).expect("a spread pattern")
    };
    let sparse = spread_step(true);
    let full = spread_step(false);
    assert_eq!(sparse.w, [1.0]);
    assert_eq!(sparse.extension, full.extension);
    assert!(sparse.score.si.is_finite());
    let tol = 1e-9 * full.score.ic.abs().max(1.0);
    assert!(
        (sparse.score.ic - full.score.ic).abs() <= tol,
        "2-sparse IC {} vs full-sphere IC {}",
        sparse.score.ic,
        full.score.ic
    );
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

/// Rows of every adversarial CSV below.
const ADV_ROWS: usize = 40;

/// The row that carries the hostile cell in the single-cell cases.
const ADV_ROW: usize = 7;

/// A `group,size,y` CSV of `ADV_ROWS` rows with the given `size` and `y`
/// cell text per row; `y` is the only target.
fn adversarial_csv(size: impl Fn(usize) -> String, y: impl Fn(usize) -> String) -> String {
    let mut csv = String::from("group,size,y\n");
    for i in 0..ADV_ROWS {
        csv.push_str(&format!("g{},{},{}\n", i % 4, size(i), y(i)));
    }
    csv
}

/// A well-behaved target value with a group signal.
fn plain_y(i: usize) -> f64 {
    (i as f64 * 0.37).sin() + (i % 4) as f64
}

/// `text` in the hostile row, `plain` everywhere else.
fn one_cell(i: usize, text: &str, plain: String) -> String {
    if i == ADV_ROW {
        text.to_string()
    } else {
        plain
    }
}

/// One CSV per kind of hostile input a user's file can carry.
fn adversarial_table() -> Vec<(&'static str, String)> {
    let size = |i: usize| (i % 5).to_string();
    let y = |i: usize| format!("{:e}", plain_y(i));
    vec![
        (
            "nan-target",
            adversarial_csv(size, |i| one_cell(i, "NaN", y(i))),
        ),
        (
            "inf-target",
            adversarial_csv(size, |i| one_cell(i, "inf", y(i))),
        ),
        (
            "targets-near-1e300",
            adversarial_csv(size, |i| format!("{:e}", 1e300 * (1.0 + 0.1 * plain_y(i)))),
        ),
        (
            "targets-near-1e-300",
            adversarial_csv(size, |i| format!("{:e}", 1e-300 * (1.0 + plain_y(i)))),
        ),
        ("constant-target", adversarial_csv(size, |_| "3.25".into())),
        (
            "duplicate-rows",
            adversarial_csv(|i| size(i % 20), |i| y(i % 20)),
        ),
        (
            "nan-descriptor-cell",
            adversarial_csv(|i| one_cell(i, "NaN", size(i)), y),
        ),
        ("all-nan-descriptor", adversarial_csv(|_| "NaN".into(), y)),
        (
            "inf-descriptor-cell",
            adversarial_csv(|i| one_cell(i, "inf", size(i)), y),
        ),
    ]
}

/// Every logged SI is finite, and the log is SI-sorted.
fn assert_clean_log(case: &str, top: &[sisd::core::LocationPattern]) {
    for p in top {
        assert!(p.score.si.is_finite(), "{case}: logged SI {}", p.score.si);
    }
    for pair in top.windows(2) {
        assert!(
            pair[0].score.si >= pair[1].score.si,
            "{case}: log out of SI order"
        );
    }
}

/// Runs one CSV through the miner (empirical and fixed prior: a search,
/// a location step, a location+spread step) and through branch and bound
/// (empirical and fixed prior). Any call may return `Err`; none may
/// panic or surface a non-finite or out-of-order score.
fn run_adversarial_case(case: &str, csv: &str) {
    let data = dataset_from_csv_str(case, csv, &["y"]).expect("every adversarial CSV parses");
    let n = data.n();
    let miners = [
        Miner::from_empirical(data.clone(), tiny_config()).ok(),
        Miner::with_prior(data.clone(), vec![3.0], Matrix::identity(1), tiny_config()).ok(),
    ];
    for mut miner in miners.into_iter().flatten() {
        assert_clean_log(case, &miner.search_locations().top);
        if let Ok(Some(it)) = miner.step_location() {
            assert!(it.location.score.si.is_finite(), "{case}: step SI");
        }
        if let Ok(Some(it)) = miner.step_with_spread() {
            assert!(it.location.score.si.is_finite(), "{case}: spread-step SI");
            if let Some(spread) = it.spread {
                assert!(
                    spread.score.si.is_finite(),
                    "{case}: spread SI {}",
                    spread.score.si
                );
            }
        }
    }

    let cfg = BranchBoundConfig {
        max_depth: 2,
        min_coverage: 2,
        ..BranchBoundConfig::default()
    };
    let models = [
        BackgroundModel::from_empirical(&data).ok(),
        BackgroundModel::new(n, vec![3.0], Matrix::identity(1)).ok(),
    ];
    for model in models.into_iter().flatten() {
        let result = branch_bound_search(&data, &model, cfg.clone());
        if let Some(best) = result.best {
            assert!(best.score.si.is_finite(), "{case}: branch-and-bound SI");
        }
    }
}

/// Adversarial CSVs — NaN and infinite cells in targets and descriptors,
/// an all-NaN descriptor column, extreme magnitudes, a constant target,
/// duplicate rows — never panic any search entry point. Each case runs
/// under `catch_unwind`, so a failing run names every case that panicked.
#[test]
fn adversarial_csvs_never_panic_and_log_finite_sorted_scores() {
    let failed: Vec<&str> = adversarial_table()
        .iter()
        .filter(|(case, csv)| {
            catch_unwind(AssertUnwindSafe(|| run_adversarial_case(case, csv))).is_err()
        })
        .map(|(case, _)| *case)
        .collect();
    assert!(failed.is_empty(), "cases that panicked: {failed:?}");
}
