//! Ablation: beam width/depth versus solution quality, with the
//! branch-and-bound optimum as the yardstick (dy = 1).
//!
//! The paper controls computation through the beam parameters (§III-E) and
//! leaves optimal search as future work (§V). Having implemented the
//! branch-and-bound miner, we can report how close the heuristic beam gets
//! to the provable optimum on the single-target crime simulacrum. The
//! binary exits with status 1 when a row's best SI misses the optimum.

use sisd_bench::{f2, f3, print_table, report_checks, section};
use sisd_data::datasets::crime_synthetic;
use sisd_model::BackgroundModel;
use sisd_search::{branch_bound::branch_bound_search, BeamConfig, BeamSearch, BranchBoundConfig};
use std::time::Instant;

fn main() {
    let data = crime_synthetic(2018);
    section("Ablation — beam width/depth vs the branch-and-bound optimum (crime)");

    // Ground truth: exact optimum at depth ≤ 2 (deeper exact search is
    // feasible but slow on 976 conditions; depth 2 matches the beam rows).
    let model = BackgroundModel::from_empirical(&data).expect("model");
    let t0 = Instant::now();
    let bb = branch_bound_search(
        &data,
        &model,
        BranchBoundConfig {
            max_depth: 2,
            min_coverage: 20,
            ..BranchBoundConfig::default()
        },
    );
    let bb_time = t0.elapsed();
    let best = bb.best.expect("optimum exists");
    println!(
        "branch-and-bound optimum (depth ≤ 2): SI = {:.3} | {} | evaluated {} pruned {} in {:?}",
        best.score.si,
        best.intention.describe(&data),
        bb.evaluated,
        bb.pruned,
        bb_time
    );

    let mut rows = Vec::new();
    let mut checks: Vec<(String, bool)> = Vec::new();
    for &width in &[1usize, 2, 4, 8, 16, 40, 64] {
        for &depth in &[1usize, 2] {
            let model = BackgroundModel::from_empirical(&data).expect("model");
            let cfg = BeamConfig {
                width,
                max_depth: depth,
                top_k: 10,
                min_coverage: 20,
                ..BeamConfig::default()
            };
            let t = Instant::now();
            let result = BeamSearch::new(cfg).run(&data, &model);
            let si = result.best().map(|p| p.score.si).unwrap_or(f64::NAN);
            rows.push(vec![
                width.to_string(),
                depth.to_string(),
                f2(si),
                format!("{:.1}%", 100.0 * si / best.score.si),
                result.evaluated.to_string(),
                format!("{:?}", t.elapsed()),
            ]);
            // Every row reaches the exact optimum on this data. Both
            // searches score through one evaluator, and here they read the
            // same bits; a relative 1e-12 allows only for rounding, so a
            // beam that stops at a different subgroup fails.
            checks.push((
                format!(
                    "width {width}, depth {depth}: best SI {} equals the optimum \
                     (1e-12 relative)",
                    f3(si)
                ),
                (si - best.score.si).abs() <= 1e-12 * best.score.si.abs(),
            ));
        }
    }
    print_table(
        &[
            "width",
            "depth",
            "best SI",
            "% of optimum",
            "evaluated",
            "time",
        ],
        &rows,
    );
    println!();
    println!(
        "Expected shape: the beam reaches the exact optimum already at small widths\n\
         on this data (the top subgroup is a single strong condition), while the\n\
         exact search certifies optimality at a few times the cost."
    );

    report_checks("Ablation — beam width/depth — checks", &checks);
}
