//! Fig. 2: top location+spread pattern per iteration on the synthetic data.
//!
//! The paper's Fig. 2 shows the data (a) and the top-ranked pattern of
//! iterations 1–3 (b–d): each is one planted cluster, with the most
//! surprising variance direction drawn as a line. This harness prints, per
//! iteration: the intention, the subgroup mean (the "star"), the direction
//! w and its angle, and how well extension and direction match the planted
//! ground truth. It asserts the figure's claims with the bounds of
//! `tests/end_to_end_synthetic.rs`, and exits non-zero when any check below
//! fails: each iteration mines the exact extension of a planted cluster no
//! earlier iteration mined, and its spread direction is the cluster's minor
//! axis (`|cos|` against the planted major axis below 0.2) along which the
//! variance shrinks (variance ratio below 0.2).

use sisd_bench::{f2, f3, print_table, report_checks, section};
use sisd_data::datasets::synthetic_paper;
use sisd_search::{BeamConfig, Miner, MinerConfig, SphereConfig};

fn main() {
    let seed = 2018;
    let (data, truth) = synthetic_paper(seed);
    section("Fig. 2 — synthetic data, top pattern per iteration");
    println!(
        "n={} dy={} planted clusters at distance 2, sizes 40 (seed {seed})",
        data.n(),
        data.dy()
    );

    let config = MinerConfig {
        beam: BeamConfig {
            width: 40,
            max_depth: 4,
            top_k: 150,
            ..BeamConfig::default()
        },
        sphere: SphereConfig::default(),
        two_sparse_spread: false,
        refit_tol: 1e-9,
        refit_max_cycles: 200,
    };
    let mut miner = Miner::from_empirical(data.clone(), config).expect("model fits");

    let mut rows = Vec::new();
    let mut checks = Vec::new();
    let mut mined: Vec<usize> = Vec::new();
    for iter in 1..=3 {
        let it = miner
            .step_with_spread()
            .expect("model update")
            .expect("pattern found");
        let loc = &it.location;
        let spread = it.spread.as_ref().expect("spread mined");
        // Which planted cluster (if any) does the extension match?
        let cluster = truth
            .cluster_extensions
            .iter()
            .position(|t| *t == loc.extension);
        let matched = cluster
            .map(|k| format!("cluster {}", k + 1))
            .unwrap_or_else(|| "—".into());
        let angle = spread.w[1].atan2(spread.w[0]).to_degrees();
        // Planted major axis of the matched cluster, for comparison.
        let planted_angle = cluster
            .map(|k| format!("{:.1}", truth.angles[k].to_degrees()))
            .unwrap_or_else(|| "—".into());
        match cluster {
            Some(k) => {
                checks.push((
                    format!(
                        "iteration {iter} mines the exact extension of planted cluster {}, \
                         not mined before",
                        k + 1
                    ),
                    !mined.contains(&k),
                ));
                mined.push(k);
                let major = [truth.angles[k].cos(), truth.angles[k].sin()];
                let cos = (spread.w[0] * major[0] + spread.w[1] * major[1]).abs();
                checks.push((
                    format!(
                        "iteration {iter}: |cos| of w against cluster {}'s major axis \
                         {cos:.3} < 0.2",
                        k + 1
                    ),
                    cos < 0.2,
                ));
            }
            None => checks.push((
                format!("iteration {iter} mines the exact extension of a planted cluster"),
                false,
            )),
        }
        let ratio = spread.variance_ratio();
        checks.push((
            format!("iteration {iter}: variance ratio along w {ratio:.3} < 0.2"),
            ratio < 0.2,
        ));
        rows.push(vec![
            iter.to_string(),
            loc.intention.describe(&data),
            format!(
                "({}, {})",
                f2(loc.observed_mean[0]),
                f2(loc.observed_mean[1])
            ),
            f2(loc.score.si),
            format!("({}, {})", f3(spread.w[0]), f3(spread.w[1])),
            format!("{angle:.1}"),
            planted_angle,
            f2(spread.score.si),
            matched,
        ]);
    }
    print_table(
        &[
            "iter",
            "intention",
            "subgroup mean",
            "SI_loc",
            "w",
            "angle°",
            "planted°",
            "SI_spread",
            "ground truth",
        ],
        &rows,
    );
    println!();
    println!(
        "Expected shape (paper Fig. 2b–d): each iteration recovers one planted cluster \
         by its displaced location. The optimal w is orthogonal to the planted major\n\
         axis: the minor axis's variance (0.02 vs ≈1.3 expected) is the most\n\
         surprising direction, exactly what the spread IC rewards."
    );

    report_checks("Fig. 2 — checks", &checks);
}
