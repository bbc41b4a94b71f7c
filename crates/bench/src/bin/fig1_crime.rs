//! Fig. 1 + §I example: the top crime subgroup and its coverage plot.
//!
//! The paper's introduction mines the Communities & Crime data and reports
//! the top pattern `PctIlleg >= 0.39` (coverage 20.5%, subgroup mean 0.53
//! vs 0.24 overall); Fig. 1 shows Gaussian-KDE curves of the violent-crime
//! distribution for the full data, the part covered by the subgroup, and
//! the subgroup-internal distribution. This harness mines the simulacrum,
//! prints the same three KDE series, and asserts the figure's claims: it
//! exits non-zero when any check below fails.

use sisd_bench::{f2, f4, print_table, print_tsv, report_checks, section};
use sisd_core::ConditionOp;
use sisd_data::datasets::crime_synthetic;
use sisd_search::{BeamConfig, Miner, MinerConfig, SphereConfig};
use sisd_stats::GaussianKde;

fn main() {
    let data = crime_synthetic(2018);
    section("Fig. 1 / §I — top location pattern on the crime simulacrum");

    let config = MinerConfig {
        beam: BeamConfig {
            width: 40,
            max_depth: 4,
            top_k: 150,
            min_coverage: 20,
            ..BeamConfig::default()
        },
        sphere: SphereConfig::default(),
        two_sparse_spread: false,
        refit_tol: 1e-9,
        refit_max_cycles: 200,
    };
    let miner = Miner::from_empirical(data.clone(), config).expect("model fits");
    let result = miner.search_locations();
    let best = result.best().expect("pattern found").clone();

    let all_mean = data.target_mean_all()[0];
    println!("best pattern : {}", best.summary(&data));
    println!("overall mean : {}", f2(all_mean));
    println!(
        "subgroup mean: {}  (paper: 0.53 in subgroup vs 0.24 overall, 20.5% coverage)",
        f2(best.observed_mean[0])
    );
    println!(
        "evaluated {} candidates in {:?}",
        result.evaluated, result.elapsed
    );

    // Top-5 patterns for context.
    let rows: Vec<Vec<String>> = result
        .top
        .iter()
        .take(5)
        .map(|p| {
            vec![
                p.intention.describe(&data),
                p.extension.count().to_string(),
                format!("{:.1}%", 100.0 * p.coverage()),
                f2(p.observed_mean[0]),
                f2(p.score.si),
            ]
        })
        .collect();
    print_table(&["intention", "n", "coverage", "mean", "SI"], &rows);

    // Fig. 1's three KDE curves over [0, 1].
    let y = data.target_col(0);
    let sub_y: Vec<f64> = best.extension.iter().map(|i| y[i]).collect();
    let full_kde = GaussianKde::new(&y);
    // "Part covered by subgroup": the subgroup rows' share of the full-data
    // density — their kernels at the full-data bandwidth and
    // normalization, so the curve is literally a part of the full one.
    let covered_kde = GaussianKde::new(&sub_y)
        .with_normalization(y.len() as f64)
        .with_bandwidth(full_kde.bandwidth());
    // "Distribution within subgroup": subgroup sample, own normalization.
    let within_kde = GaussianKde::new(&sub_y);

    let steps = 60;
    let grid: Vec<f64> = (0..=steps).map(|k| k as f64 / steps as f64).collect();
    let tsv: Vec<Vec<String>> = grid
        .iter()
        .map(|&x| {
            vec![
                f4(x),
                f4(full_kde.density(x)),
                f4(covered_kde.density(x)),
                f4(within_kde.density(x)),
            ]
        })
        .collect();
    print_tsv(
        "fig1",
        &[
            "violent_crime",
            "full_data",
            "covered_by_subgroup",
            "within_subgroup",
        ],
        &tsv,
    );
    println!();
    println!(
        "Expected shape (paper Fig. 1): the full-data density piles up at low crime\n\
         rates; the covered-part density sits under the full curve but dominates the\n\
         high-crime tail; the within-subgroup density is clearly right-shifted."
    );

    // The paper's claims, asserted.
    let mut checks: Vec<(String, bool)> = Vec::new();
    // §I: the top pattern is the single condition `PctIlleg >= q` (the
    // paper's q is 0.39; the simulacrum's split point may differ).
    let conditions = best.intention.conditions();
    let is_pctilleg_ge = conditions.len() == 1
        && data.desc_names()[conditions[0].attr] == "PctIlleg"
        && matches!(conditions[0].op, ConditionOp::Ge(_));
    checks.push((
        format!(
            "top pattern is `PctIlleg >= q`: {}",
            best.intention.describe(&data)
        ),
        is_pctilleg_ge,
    ));
    // §I: coverage 20.5% in the paper. The band admits the simulacrum's
    // percentile split points (20.0% here) with 5 points either side.
    let coverage = best.coverage();
    checks.push((
        format!("coverage {:.1}% in [15%, 25%]", 100.0 * coverage),
        (0.15..=0.25).contains(&coverage),
    ));
    // §I: subgroup mean 0.53 against 0.24 overall. The check asks for at
    // least 0.2 of the paper's 0.29 gap.
    let gap = best.observed_mean[0] - all_mean;
    checks.push((
        format!("subgroup mean exceeds the overall mean by {gap:.3} >= 0.2"),
        gap >= 0.2,
    ));
    // Fig. 1: the covered-part density dominates the high-crime tail. At
    // every grid point x >= 0.6 it must be at least 0.75 of the full-data
    // density (the simulacrum's lowest ratio there is about 0.81), and it
    // cannot exceed the full-data density, since it sums a subset of the
    // same kernels under the same bandwidth and normalization; 1e-12
    // relative allows for rounding.
    let tail: Vec<(f64, f64, f64)> = grid
        .iter()
        .filter(|&&x| x >= 0.6)
        .map(|&x| (x, full_kde.density(x), covered_kde.density(x)))
        .collect();
    let min_ratio = tail
        .iter()
        .map(|&(_, full, covered)| covered / full)
        .fold(f64::INFINITY, f64::min);
    checks.push((
        format!("covered/full density at x >= 0.6: min ratio {min_ratio:.3} >= 0.75"),
        tail.iter()
            .all(|&(_, full, covered)| covered >= 0.75 * full),
    ));
    checks.push((
        "covered density <= full density at x >= 0.6 (1e-12 relative)".to_string(),
        tail.iter()
            .all(|&(_, full, covered)| covered <= full * (1.0 + 1e-12)),
    ));

    report_checks("Fig. 1 / §I — checks", &checks);
}
