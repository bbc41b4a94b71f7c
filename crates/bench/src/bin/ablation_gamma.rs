//! Ablation: sensitivity of the ranking to the DL parameter γ.
//!
//! The paper (Remark 1) fixes γ = 0.1 and notes that "tuning γ biases the
//! results toward more or fewer conditions". This ablation sweeps γ and
//! reports, on the synthetic data, (a) the rank of the best true
//! single-condition description and (b) the condition count of the top
//! pattern — quantifying exactly that bias. The binary exits with status 1
//! unless a planted cluster ranks first at every γ and the top SI strictly
//! falls as γ grows.

use sisd_bench::{f2, print_table, report_checks, section};
use sisd_core::DlParams;
use sisd_data::datasets::synthetic_paper;
use sisd_model::BackgroundModel;
use sisd_search::{BeamConfig, BeamSearch};

fn main() {
    let (data, truth) = synthetic_paper(2018);
    section("Ablation — γ sweep on the synthetic data");

    let gammas = [0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0];
    let mut rows = Vec::new();
    // Per γ: the rank of the first planted cluster and the top SI.
    let mut series: Vec<(Option<usize>, f64)> = Vec::new();
    for &gamma in &gammas {
        let model = BackgroundModel::from_empirical(&data).expect("model");
        let cfg = BeamConfig {
            width: 40,
            max_depth: 3,
            top_k: 150,
            dl: DlParams { gamma, eta: 1.0 },
            ..BeamConfig::default()
        };
        let result = BeamSearch::new(cfg).run(&data, &model);
        // Rank of the first pattern whose extension is a planted cluster.
        let rank = result
            .top
            .iter()
            .position(|p| truth.cluster_extensions.contains(&p.extension))
            .map(|r| r + 1);
        let top_len = result
            .best()
            .map(|p| p.intention.len().to_string())
            .unwrap_or_else(|| "-".into());
        let top_si = result.best().map_or(f64::NAN, |p| p.score.si);
        series.push((rank, top_si));
        rows.push(vec![
            format!("{gamma}"),
            rank.map_or_else(|| ">150".into(), |r| r.to_string()),
            top_len,
            f2(top_si),
        ]);
    }
    print_table(
        &[
            "gamma",
            "rank of true cluster",
            "|C| of top pattern",
            "top SI",
        ],
        &rows,
    );
    println!();
    println!(
        "Expected shape: at γ = 0 description length is free, so redundant longer\n\
         conjunctions tie with their parents; moderate γ (the paper's 0.1) puts the\n\
         concise true descriptions on top; very large γ still ranks by IC within\n\
         equal-length patterns, so rank stays 1 while SI shrinks."
    );

    // Remark 1's bias, asserted. Both checks are exact: ranks are integers,
    // and the top SI falls by at least 0.63 between neighbouring γ values
    // (63.56 to 62.93, from γ = 0 to 0.01), so no tolerance is needed.
    let mut checks: Vec<(String, bool)> = Vec::new();
    for (&gamma, &(rank, _)) in gammas.iter().zip(&series) {
        checks.push((
            format!("γ = {gamma}: a planted cluster ranks first"),
            rank == Some(1),
        ));
    }
    let falling = series.windows(2).all(|w| w[1].1 < w[0].1);
    checks.push((
        format!(
            "the top SI strictly falls as γ grows: {} at γ = {} to {} at γ = {}",
            f2(series[0].1),
            gammas[0],
            f2(series[series.len() - 1].1),
            gammas[gammas.len() - 1]
        ),
        falling,
    ));
    report_checks("Ablation — γ sweep — checks", &checks);
}
