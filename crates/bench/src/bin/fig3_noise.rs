//! Fig. 3: noise robustness — SI of the true descriptions under label noise.
//!
//! The paper corrupts the synthetic data's description attributes by
//! flipping every bit with probability p (the "distortion") and tracks the
//! SI of the subgroups induced by the three true descriptions, against a
//! baseline of random subgroups of the same size. Patterns remain
//! recoverable up to p ≈ 0.22–0.25. This harness prints the same series and
//! asserts the figure's claims: it exits non-zero when any check below
//! fails.

use sisd_bench::{f2, print_table, print_tsv, report_checks, section};
use sisd_core::{location_si, Condition, ConditionOp, DlParams, Intention};
use sisd_data::datasets::{corrupt_descriptions, synthetic_paper};
use sisd_data::BitSet;
use sisd_model::BackgroundModel;
use sisd_stats::Xoshiro256pp;

fn main() {
    let (data, _) = synthetic_paper(2018);
    let dl = DlParams::default();
    section("Fig. 3 — SI of true-description subgroups vs distortion");

    let distortions: Vec<f64> = (0..=14).map(|k| k as f64 * 0.025).collect();
    let repeats = 10;
    let mut rows = Vec::new();
    let mut tsv = Vec::new();
    // Per distortion level: the three mean SIs and the baseline's.
    let mut series: Vec<([f64; 3], f64)> = Vec::new();

    for &p in &distortions {
        // Average over corruption seeds.
        let mut sums = [0.0f64; 3];
        let mut baseline_sum = 0.0;
        for rep in 0..repeats {
            let corrupted = corrupt_descriptions(&data, p, 1000 + rep);
            let model = BackgroundModel::from_empirical(&corrupted).expect("model");
            for (k, sum) in sums.iter_mut().enumerate() {
                // True description aₖ₊₃ = '1' evaluated on corrupted labels.
                let intent = Intention::empty().with(Condition {
                    attr: k,
                    op: ConditionOp::Eq(1),
                });
                let ext = intent.evaluate(&corrupted);
                if ext.count() == 0 {
                    continue;
                }
                let s = location_si(&model, &corrupted, &intent, &ext, &dl).expect("non-empty");
                *sum += s.si;
            }
            // Baseline: random subgroup of size 40 with a 1-condition DL.
            let mut rng = Xoshiro256pp::seed_from_u64(5000 + rep);
            let idx = rng.sample_indices(corrupted.n(), 40);
            let ext = BitSet::from_indices(corrupted.n(), idx);
            let intent = Intention::empty().with(Condition {
                attr: 0,
                op: ConditionOp::Eq(0),
            });
            baseline_sum += location_si(&model, &corrupted, &intent, &ext, &dl)
                .expect("non-empty")
                .si;
        }
        let r = repeats as f64;
        series.push((sums.map(|sum| sum / r), baseline_sum / r));
        rows.push(vec![
            format!("{p:.3}"),
            f2(sums[0] / r),
            f2(sums[1] / r),
            f2(sums[2] / r),
            f2(baseline_sum / r),
        ]);
        tsv.push(vec![
            format!("{p:.3}"),
            format!("{}", sums[0] / r),
            format!("{}", sums[1] / r),
            format!("{}", sums[2] / r),
            format!("{}", baseline_sum / r),
        ]);
    }

    print_table(
        &[
            "distortion",
            "SI a3='1'",
            "SI a4='1'",
            "SI a5='1'",
            "baseline",
        ],
        &rows,
    );
    print_tsv(
        "fig3",
        &["distortion", "si_a3", "si_a4", "si_a5", "baseline"],
        &tsv,
    );
    println!();
    println!(
        "Expected shape (paper Fig. 3): SI of the true descriptions decays smoothly\n\
         with distortion, staying far above the random baseline until p ≈ 0.22 and\n\
         approaching it around p ≈ 0.25–0.30."
    );

    // The figure's claims, asserted. Level k is distortion 0.025·k.
    let names = ["a3", "a4", "a5"];
    let mut checks: Vec<(String, bool)> = Vec::new();
    // SI decays with distortion: every column strictly decreases across
    // all 15 levels (the smallest step, a4 from 0.325 to 0.350, is 0.29).
    for (c, name) in names.iter().enumerate() {
        let decreasing = series.windows(2).all(|w| w[1].0[c] < w[0].0[c]);
        checks.push((
            format!("SI {name}='1' strictly decreases over the 15 distortion levels"),
            decreasing,
        ));
    }
    // Recoverable until p ≈ 0.22: at every p <= 0.20 each column clears
    // the random baseline by more than 2 SI (the smallest margin is 3.40,
    // a4 at p = 0.20).
    let margin = series[..=8]
        .iter()
        .flat_map(|(si, baseline)| si.map(|s| s - baseline))
        .fold(f64::INFINITY, f64::min);
    checks.push((
        format!("at p <= 0.20 every column exceeds the baseline by {margin:.2} > 2"),
        margin > 2.0,
    ));
    // Gone by p ≈ 0.30: there every column lies within 1 SI of the
    // baseline (the largest gap is 0.78, a5).
    let (at_030, baseline) = series[12];
    let gap = at_030
        .iter()
        .map(|s| (s - baseline).abs())
        .fold(0.0, f64::max);
    checks.push((
        format!("at p = 0.30 every column is within {gap:.2} < 1 of the baseline"),
        gap < 1.0,
    ));

    report_checks("Fig. 3 — checks", &checks);
}
