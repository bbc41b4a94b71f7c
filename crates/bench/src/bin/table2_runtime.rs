//! Table II: runtime of background-distribution updates over 20 iterations.
//!
//! The paper measures, per dataset, the time to fit the initial MaxEnt
//! distribution and then the time until convergence when incorporating
//! each additional pattern, separately for location and spread patterns
//! (spread updates stay cheap because they are rank-one). We reproduce the
//! protocol: take the top-20 distinct-extension patterns of one beam
//! search, assimilate them one by one, and time `assimilate + refit` at
//! each step. Absolute numbers are far below the paper's Matlab timings;
//! the *shape* to check is growth with the number of constraints, the
//! Mammals blow-up (dy = 124), and spread staying flat. Each iteration's
//! cell also shows the refit's cycle count in parentheses, so a swing in
//! milliseconds reads as more work (more cycles) or as timing jitter (the
//! same cycles).
//!
//! The Mammals claim is asserted: the binary exits non-zero unless the
//! median of the `loc Ma` column is above the median of every other
//! location column, and unless every location and spread column holds all
//! 20 iterations. The claim that spread updates stay cheap does not hold
//! here (a spread update takes few refit cycles, but each is slow), so its
//! comparison is printed and not asserted.

use sisd_bench::{print_table, report_checks, section};
use sisd_core::LocationPattern;
use sisd_data::datasets::{
    crime_synthetic, german_socio_synthetic, mammals_synthetic, water_quality_synthetic,
};
use sisd_data::Dataset;
use sisd_model::BackgroundModel;
use sisd_search::{generate_conditions, optimize_direction, BeamConfig, BeamSearch, SphereConfig};
use std::time::Instant;

const ITERS: usize = 20;

struct Timing {
    init_ms: f64,
    /// Milliseconds of `assimilate + refit`, and the refit's cycles, per
    /// iteration.
    per_iter: Vec<(f64, usize)>,
}

/// Top-`k` distinct-extension patterns from one beam search on the initial
/// model, drawn from a log that keeps every candidate the search scores.
fn distinct_patterns(data: &Dataset, k: usize, min_cov: usize) -> Vec<LocationPattern> {
    let model = BackgroundModel::from_empirical(data).expect("model");
    let mut cfg = BeamConfig {
        width: 40,
        max_depth: 2,
        min_coverage: min_cov,
        ..BeamConfig::default()
    };
    // Level 1 scores at most one candidate per condition, and every later
    // level at most one per (beam parent, condition).
    let conditions = generate_conditions(data, &cfg.refine).len();
    cfg.top_k = conditions * (1 + cfg.width * (cfg.max_depth - 1));
    let result = BeamSearch::new(cfg).run(data, &model);
    // The paper notes convergence is fast because "the extensions of the
    // different patterns have limited overlaps"; enforce that here with a
    // Jaccard cap, as consecutive beam log entries are near-duplicates.
    let mut out: Vec<LocationPattern> = Vec::new();
    for p in result.top {
        let overlaps = out.iter().any(|q| {
            let inter = q.extension.intersection_count(&p.extension) as f64;
            let union = (q.extension.count() + p.extension.count()) as f64 - inter;
            inter / union > 0.55
        });
        if !overlaps {
            out.push(p);
        }
        if out.len() == k {
            break;
        }
    }
    out
}

/// Median milliseconds per iteration of a timing column.
fn median_ms(t: &Timing) -> f64 {
    let mut ms: Vec<f64> = t.per_iter.iter().map(|&(ms, _)| ms).collect();
    ms.sort_by(f64::total_cmp);
    match ms.len() {
        0 => f64::NAN,
        len if len % 2 == 1 => ms[len / 2],
        len => (ms[len / 2 - 1] + ms[len / 2]) / 2.0,
    }
}

fn time_location_updates(data: &Dataset, patterns: &[LocationPattern]) -> Timing {
    let t0 = Instant::now();
    let mut model = BackgroundModel::from_empirical(data).expect("model");
    let init_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut per_iter = Vec::new();
    for p in patterns {
        let t = Instant::now();
        model
            .assimilate_location(&p.extension, p.observed_mean.clone())
            .expect("update");
        let stats = model.refit(1e-7, 200).expect("refit");
        per_iter.push((t.elapsed().as_secs_f64() * 1e3, stats.cycles));
    }
    Timing { init_ms, per_iter }
}

fn time_spread_updates(data: &Dataset, patterns: &[LocationPattern]) -> Timing {
    let t0 = Instant::now();
    let mut model = BackgroundModel::from_empirical(data).expect("model");
    let init_ms = t0.elapsed().as_secs_f64() * 1e3;
    let sphere = SphereConfig {
        random_starts: 2,
        ..SphereConfig::default()
    };
    let mut per_iter = Vec::new();
    for p in patterns {
        // Following the paper's protocol, the location of each subgroup is
        // assimilated first (untimed), then the spread update is timed.
        model
            .assimilate_location(&p.extension, p.observed_mean.clone())
            .expect("update");
        let w = optimize_direction(&model, data, &p.extension, &sphere).w;
        let center = data.target_mean(&p.extension);
        let observed = data.target_variance_along(&p.extension, &w);
        let t = Instant::now();
        model
            .assimilate_spread(&p.extension, w, center, observed)
            .expect("update");
        let stats = model.refit(1e-7, 200).expect("refit");
        per_iter.push((t.elapsed().as_secs_f64() * 1e3, stats.cycles));
    }
    Timing { init_ms, per_iter }
}

fn main() {
    section(
        "Table II — background-update runtimes (ms per iteration, refit cycles in parentheses)",
    );

    let (gse, _) = german_socio_synthetic(2018);
    let wq = water_quality_synthetic(2018);
    let cr = crime_synthetic(2018);
    let (ma, _) = mammals_synthetic(2018);

    let sets: Vec<(&str, &Dataset, usize)> = vec![
        ("GSE", &gse, 10),
        ("WQ", &wq, 30),
        ("Cr", &cr, 30),
        ("Ma", &ma, 50),
    ];

    let mut loc_timings = Vec::new();
    let mut spread_timings = Vec::new();
    for (name, data, min_cov) in &sets {
        eprintln!("mining patterns for {name}…");
        let patterns = distinct_patterns(data, ITERS, *min_cov);
        eprintln!("  {} distinct patterns", patterns.len());
        loc_timings.push(time_location_updates(data, &patterns));
        // Paper reports spread columns for GSE, WQ, Cr only (binary
        // targets make spread patterns uninteresting on Mammals).
        if *name != "Ma" {
            spread_timings.push(Some(time_spread_updates(data, &patterns)));
        } else {
            spread_timings.push(None);
        }
    }

    let mut rows = Vec::new();
    let fmt = |v: Option<f64>| v.map(|x| format!("{x:.2}")).unwrap_or_else(|| "-".into());
    let fmt_iter = |v: Option<&(f64, usize)>| {
        v.map(|(ms, cycles)| format!("{ms:.2} ({cycles})"))
            .unwrap_or_else(|| "-".into())
    };
    rows.push({
        let mut r = vec!["Init".to_string()];
        for t in &loc_timings {
            r.push(format!("{:.2}", t.init_ms));
        }
        for t in &spread_timings {
            r.push(fmt(t.as_ref().map(|t| t.init_ms)));
        }
        r
    });
    for i in 0..ITERS {
        let mut r = vec![(i + 1).to_string()];
        for t in &loc_timings {
            r.push(fmt_iter(t.per_iter.get(i)));
        }
        for t in &spread_timings {
            r.push(fmt_iter(t.as_ref().and_then(|t| t.per_iter.get(i))));
        }
        rows.push(r);
    }
    print_table(
        &[
            "iter", "loc GSE", "loc WQ", "loc Cr", "loc Ma", "spr GSE", "spr WQ", "spr Cr",
            "spr Ma",
        ],
        &rows,
    );
    println!();
    println!(
        "Expected shape (paper Table II): location-update time grows with the number\n\
         of assimilated patterns (more constraints to re-converge), the Mammals\n\
         column grows fastest (dy = 124 means dy new constraints per pattern), and\n\
         spread updates stay much cheaper (rank-one tilts). Absolute numbers are\n\
         milliseconds here vs seconds in the paper's Matlab implementation."
    );

    let names: Vec<&str> = sets.iter().map(|s| s.0).collect();
    let loc: Vec<f64> = loc_timings.iter().map(median_ms).collect();
    println!();
    println!(
        "Not asserted (does not hold here): spread updates stay cheaper than location updates."
    );
    for ((name, spread), loc) in names.iter().zip(&spread_timings).zip(&loc) {
        if let Some(spread) = spread.as_ref().map(median_ms) {
            let verdict = if spread < *loc { "holds" } else { "fails" };
            println!(
                "  {name}: spread median {spread:.2} ms vs location median {loc:.2} ms: {verdict}"
            );
        }
    }

    let (ma, rest) = loc.split_last().expect("four location columns");
    let (largest, of) = rest
        .iter()
        .zip(&names)
        .max_by(|a, b| a.0.total_cmp(b.0))
        .expect("three other location columns");
    let columns = loc_timings
        .iter()
        .zip(&names)
        .map(|(t, name)| (format!("loc {name}"), t))
        .chain(
            spread_timings
                .iter()
                .zip(&names)
                .filter_map(|(t, name)| Some((format!("spr {name}"), t.as_ref()?))),
        );
    let mut checks: Vec<(String, bool)> = columns
        .map(|(column, t)| {
            (
                format!(
                    "column {column} holds {ITERS} iterations: {}",
                    t.per_iter.len()
                ),
                t.per_iter.len() == ITERS,
            )
        })
        .collect();
    checks.push((
        format!(
            "the Mammals location column is the largest: median {ma:.2} ms per iteration \
             > {largest:.2} ms (loc {of}, the largest other median)"
        ),
        ma > largest,
    ));
    report_checks("Table II — checks", &checks);
}
