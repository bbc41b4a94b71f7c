//! Observability never changes output bits.
//!
//! The `sisd-obs` layer's hard contract: an enabled metrics/tracing handle
//! — counters, spans, and an event sink — must leave every search result
//! bit-identical to the disabled-handle run, at any thread count. These
//! tests run full Gaussian beam searches over random datasets with obs
//! off, obs on over a `NullSink` (counters only), and obs on over a
//! `RingSink` (counters + event stream), and require bitwise equality of
//! every pattern, plus self-consistent counters in the recorded report.

use proptest::prelude::*;
use sisd::data::{Column, Dataset};
use sisd::linalg::Matrix;
use sisd::model::BackgroundModel;
use sisd::obs::{Metric, MetricKind, NullSink, Obs, ObsHandle, RingSink, TraceEvent, TraceSink};
use sisd::search::{BeamConfig, BeamResult, BeamSearch, EvalConfig, Miner, MinerConfig};
use sisd::stats::Xoshiro256pp;

/// Random mixed-type dataset with a planted signal.
fn random_dataset(seed: u64, n: usize, dy: usize) -> Dataset {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let flag: Vec<bool> = (0..n).map(|_| rng.uniform() < 0.3).collect();
    let num: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
    let mut targets = Matrix::zeros(n, dy);
    for i in 0..n {
        let boost = if flag[i] { 1.5 } else { 0.0 };
        for j in 0..dy {
            targets[(i, j)] = rng.normal() + boost * [1.0, -0.6][j % 2] + 0.3 * num[i];
        }
    }
    Dataset::new(
        "rnd",
        vec!["flag".into(), "num".into()],
        vec![Column::binary(&flag), Column::Numeric(num)],
        (0..dy).map(|j| format!("y{j}")).collect(),
        targets,
    )
}

/// Forwards events to a leaked ring so the test can read them back while
/// the obs owns the sink box.
struct SharedRing(&'static RingSink);

impl TraceSink for SharedRing {
    fn record(&self, event: &TraceEvent) {
        self.0.record(event);
    }
}

fn assert_same_results(a: &BeamResult, b: &BeamResult, label: &str) {
    assert_eq!(a.evaluated, b.evaluated, "{label}: evaluated");
    assert_eq!(a.top.len(), b.top.len(), "{label}: top length");
    for (x, y) in a.top.iter().zip(&b.top) {
        assert_eq!(x.intention, y.intention, "{label}: intention");
        assert_eq!(x.extension, y.extension, "{label}: extension");
        assert_eq!(
            x.score.si.to_bits(),
            y.score.si.to_bits(),
            "{label}: SI must be bit-identical"
        );
        assert_eq!(x.score.ic.to_bits(), y.score.ic.to_bits(), "{label}: IC");
        for (u, v) in x.observed_mean.iter().zip(&y.observed_mean) {
            assert_eq!(u.to_bits(), v.to_bits(), "{label}: observed mean");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Beam searches with an enabled obs handle (counters-only and with a
    /// live event sink) are bit-identical to the disabled-handle search at
    /// threads {1, 4}.
    #[test]
    fn obs_never_changes_beam_results(seed in 0u64..1_000) {
        let n = 80 + (seed as usize * 37) % 160;
        let data = random_dataset(seed, n, 2);
        let model = BackgroundModel::from_empirical(&data).unwrap();
        let base = BeamConfig {
            width: 8,
            max_depth: 2,
            top_k: 30,
            min_coverage: 5,
            ..BeamConfig::default()
        };
        let reference = BeamSearch::new(base.clone()).run(&data, &model);
        for threads in [1usize, 4] {
            let eval = EvalConfig::with_threads(threads);
            for (label, obs) in [
                ("disabled", ObsHandle::disabled()),
                ("null-sink", Obs::leaked(Box::new(NullSink))),
                ("ring-sink", Obs::leaked(Box::new(RingSink::new(4096)))),
            ] {
                let cfg = BeamConfig {
                    eval: eval.with_obs(obs),
                    ..base.clone()
                };
                let got = BeamSearch::new(cfg).run(&data, &model);
                assert_same_results(&reference, &got, &format!("{label} t={threads}"));
                if let Some(snap) = obs.snapshot() {
                    // The counters a run just recorded must be
                    // self-consistent, whatever their exact values.
                    prop_assert_eq!(snap.get(Metric::SearchRuns), 1, "{}", label);
                    prop_assert_eq!(
                        snap.get(Metric::FrontierRefineCalls),
                        snap.get(Metric::FrontierGridDispatch)
                            + snap.get(Metric::FrontierFusedDispatch),
                        "{}: every refine call dispatches exactly once",
                        label
                    );
                    // Each beam level is one refinement over all its
                    // parents and one scoring batch over their children.
                    let levels = snap.get(Metric::SearchLevels);
                    prop_assert_eq!(
                        snap.get(Metric::FrontierRefineCalls),
                        levels,
                        "{}: one refinement per level",
                        label
                    );
                    prop_assert_eq!(
                        snap.get(Metric::EvalBatches),
                        levels,
                        "{}: one scoring batch per level",
                        label
                    );
                    prop_assert_eq!(
                        snap.get(Metric::FrontierCandidates),
                        snap.get(Metric::FrontierCountPruned)
                            + snap.get(Metric::FrontierDedupDropped)
                            + snap.get(Metric::FrontierMaterialized),
                        "{}: every counted candidate is accounted for",
                        label
                    );
                    prop_assert_eq!(
                        snap.get(Metric::EvalScored),
                        got.evaluated as u64,
                        "{}: scored counter matches the result log",
                        label
                    );
                }
            }
        }
    }
}

/// A full mining session (search + assimilate + refit, twice) is
/// bit-identical whether the miner runs with the default disabled handle
/// or a user-supplied traced one, both miners report the same
/// `last_refit_stats`, and the traced report's refit gauges agree with
/// them.
#[test]
fn obs_never_changes_mining_and_report_reconciles() {
    let data = random_dataset(17, 160, 2);
    let quick = MinerConfig {
        beam: BeamConfig {
            width: 8,
            max_depth: 2,
            top_k: 20,
            min_coverage: 5,
            ..BeamConfig::default()
        },
        refit_tol: 1e-9,
        refit_max_cycles: 100,
        ..MinerConfig::default()
    };
    let mut plain = Miner::from_empirical(data.clone(), quick.clone()).unwrap();
    let ring: &'static RingSink = Box::leak(Box::new(RingSink::new(1 << 14)));
    let traced_obs = Obs::leaked(Box::new(SharedRing(ring)));
    let mut traced = Miner::from_empirical(data, quick.with_obs(traced_obs)).unwrap();
    for step in 0..2 {
        let a = plain.step_location().unwrap();
        let b = traced.step_location().unwrap();
        match (a, b) {
            (Some(x), Some(y)) => {
                assert_eq!(x.location.extension, y.location.extension, "step {step}");
                assert_eq!(
                    x.location.score.si.to_bits(),
                    y.location.score.si.to_bits(),
                    "step {step}: SI must be bit-identical under tracing"
                );
            }
            (None, None) => break,
            _ => panic!("step {step}: traced and plain miners diverged"),
        }
    }
    assert!(!plain.obs().enabled(), "an untraced miner counts nothing");
    let last = traced.last_refit_stats().expect("refits ran");
    assert_eq!(plain.last_refit_stats(), Some(last));
    let report = traced.obs().report().expect("enabled");
    assert_eq!(
        report.get(Metric::RefitLastCycles),
        last.cycles as u64,
        "report and last_refit_stats must agree"
    );
    assert_eq!(
        report.get(Metric::RefitLastConstraintsUpdated),
        last.constraints_updated as u64
    );
    assert!(report.get(Metric::SearchRuns) >= 2);
    assert!(report.get(Metric::RefitRuns) >= 2);
    // The traced miner's event stream exists and replays to the registry's
    // counter totals (the ring is sized to hold everything this run emits).
    let snap = traced.obs().snapshot().expect("enabled");
    assert_eq!(ring.dropped(), 0, "ring must not have evicted");
    let mut sums = [0u64; Metric::COUNT];
    for ev in ring.events() {
        if !matches!(ev.metric().kind(), MetricKind::Gauge) {
            sums[ev.metric().index()] += ev.value();
        }
    }
    for m in Metric::ALL {
        if matches!(m.kind(), MetricKind::Gauge) {
            continue;
        }
        assert_eq!(
            sums[m.index()],
            snap.get(m),
            "event stream must replay to the registry total for {m}"
        );
    }
}
