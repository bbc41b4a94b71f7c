//! Figs. 4–6: three iterations of location patterns on the mammal data.
//!
//! The paper mines location patterns (spread patterns are uninformative for
//! binary targets, §III-B), reporting per iteration the climate intention
//! (Fig. 6) and the species whose presence deviates most from the model,
//! with the model's 95% bands (Figs. 4–5). The figures' claims are
//! asserted: the binary exits non-zero when any check below fails.

use sisd_bench::{f2, f3, print_table, report_checks, section};
use sisd_core::location_si;
use sisd_data::datasets::mammals_synthetic;
use sisd_data::BitSet;
use sisd_search::{BeamConfig, Miner, MinerConfig, RefineConfig, SphereConfig};

/// Mean Euclidean distance, in degrees of (lat, lon), of the cells in
/// `ext` to their own centroid.
fn spread_around_centroid(coords: &[(f64, f64)], ext: &BitSet) -> f64 {
    let m = ext.count() as f64;
    let (lat, lon) = ext
        .iter()
        .fold((0.0, 0.0), |(a, b), i| (a + coords[i].0, b + coords[i].1));
    let (lat, lon) = (lat / m, lon / m);
    ext.iter()
        .map(|i| (coords[i].0 - lat).hypot(coords[i].1 - lon))
        .sum::<f64>()
        / m
}

fn main() {
    let (data, coords) = mammals_synthetic(2018);
    section("Figs. 4–6 — mammal simulacrum, 3 iterations of location patterns");
    println!(
        "n={} climate attrs={} species={}",
        data.n(),
        data.dx(),
        data.dy()
    );

    let config = MinerConfig {
        beam: BeamConfig {
            width: 40,
            max_depth: 2,
            top_k: 150,
            min_coverage: 50,
            refine: RefineConfig::default(),
            ..BeamConfig::default()
        },
        sphere: SphereConfig::default(),
        two_sparse_spread: false,
        refit_tol: 1e-7,
        refit_max_cycles: 50,
    };
    let dl = config.dl();
    let mut miner = Miner::from_empirical(data.clone(), config).expect("model fits");
    let map_spread = spread_around_centroid(&coords, &BitSet::full(data.n()));
    let mut checks: Vec<(String, bool)> = Vec::new();

    for iter in 1..=3 {
        let it = miner
            .step_location()
            .expect("model update")
            .expect("pattern found");
        let p = &it.location;
        section(&format!("iteration {iter}"));
        println!("intention: {}", p.intention.describe(&data));
        println!(
            "coverage : {} cells ({:.1}%), SI = {}",
            p.extension.count(),
            100.0 * p.coverage(),
            f2(p.score.si)
        );
        // Geographic footprint (Fig. 6): mean lat/lon of the extension.
        let (mut lat, mut lon) = (0.0, 0.0);
        for i in p.extension.iter() {
            lat += coords[i].0;
            lon += coords[i].1;
        }
        let m = p.extension.count() as f64;
        println!("centroid : {:.1}°N {:.1}°E", lat / m, lon / m);

        // Fig. 5: top-5 species by per-attribute surprise (observed vs the
        // *pre-assimilation* marginal band). We reconstruct the marginals
        // the model had before this pattern was absorbed by ranking with
        // the post-update means of the complement cells; simpler and
        // faithful enough for the ranking: use |observed − model mean|/sd
        // against the current model's complement-based expectation.
        let marginals = miner
            .model()
            .location_marginals(&p.extension)
            .expect("non-empty");
        let observed = &p.observed_mean;
        let mut scored: Vec<(usize, f64)> = (0..data.dy())
            .map(|j| {
                // After assimilation the model mean equals the observed
                // mean; the informative ranking is the *shift* absorbed,
                // i.e. observed vs the full-data mean, scaled by the
                // subgroup-mean sd.
                let full_mean = data.target_mean_all()[j];
                let sd = marginals[j].1.max(1e-9);
                (j, ((observed[j] - full_mean) / sd).abs())
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        let rows: Vec<Vec<String>> = scored
            .iter()
            .take(5)
            .map(|&(j, z)| {
                let full_mean = data.target_mean_all()[j];
                vec![
                    data.target_names()[j].clone(),
                    f3(observed[j]),
                    f3(full_mean),
                    format!("±{}", f3(1.96 * marginals[j].1)),
                    f2(z),
                ]
            })
            .collect();
        print_table(
            &["species", "observed", "prior mean", "95% band", "|z|"],
            &rows,
        );

        // Fig. 6: a concise climate intention of high SI. The paper's
        // intentions have one to three conditions; the beam here is two
        // deep. SI 100 is well under the simulacrum's 131.8–149.9.
        let arity = p.intention.len();
        checks.push((
            format!(
                "iteration {iter}: {arity} condition(s) in 1..=2, SI {} >= 100",
                f2(p.score.si)
            ),
            (1..=2).contains(&arity) && p.score.si >= 100.0,
        ));
        // Fig. 6: the subgroup is geographically coherent — its cells lie
        // closer to their own centroid than the map's cells to the map's,
        // by at least 10% (the simulacrum's ratios are 0.675–0.825).
        let ratio = spread_around_centroid(&coords, &p.extension) / map_spread;
        checks.push((
            format!("iteration {iter}: distance to own centroid {ratio:.3} < 0.9 x the map's"),
            ratio < 0.9,
        ));
        // Figs. 4–5: each top-5 species' observed presence lies outside the
        // model's 95% band, |z| > 1.96 (the simulacrum's lowest is 19.0).
        let lowest = scored[..5]
            .iter()
            .map(|s| s.1)
            .fold(f64::INFINITY, f64::min);
        checks.push((
            format!(
                "iteration {iter}: top-5 species |z| >= {} > 1.96",
                f2(lowest)
            ),
            lowest > 1.96,
        ));
        // The pattern is assimilated: re-scored against the updated model
        // it is no longer interesting, SI below 1 (the simulacrum's are
        // about −338 to −379).
        let after = location_si(miner.model(), &data, &p.intention, &p.extension, &dl)
            .expect("non-empty extension")
            .si;
        checks.push((
            format!("iteration {iter}: SI after assimilation {} < 1", f2(after)),
            after < 1.0,
        ));
    }

    println!();
    println!(
        "Expected shape (paper Figs. 4–6): iteration intentions are concise climate\n\
         conditions (cold late winter; dry summer; dry autumn + warm wet season);\n\
         each subgroup is geographically coherent, and the top species' observed\n\
         presence falls far outside the model's 95% band."
    );

    report_checks("Figs. 4–6 — checks", &checks);
}
