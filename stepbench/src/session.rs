//! Closed-loop analyst sessions. A session starts from CSV text, sets up a
//! miner, takes its steps back to back, and resumes from its final
//! snapshot. The untraced run times whole interactive steps; the traced run
//! repeats every session with each step split into its public calls. Before
//! either, an untimed reference session checks the mined sequence against
//! a recording.

use crate::checks::{self, Shown};
use crate::stats::ms;
use crate::trace::{Layers, StepCalls, Tracer};
use crate::workload::{Input, Workload};
use sisd_data::{csv, Dataset};
use sisd_frontier::MaskMatrix;
use sisd_search::{generate_conditions, Miner, MinerConfig};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups a run times at least: one per session, topped up on session 0's
/// input when a run holds fewer sessions.
const MIN_SETUPS: usize = 5;

/// Repetitions of each standalone probe in a traced run.
const PROBE_REPS: usize = 5;

/// Operations attempted and failed: set-ups, steps, saves and resumes. A
/// failed output check fails the operation it checks.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one operation; returns whether it succeeded.
    pub fn op(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(problem) => {
                self.failed += 1;
                self.problems.push(problem);
                false
            }
        }
    }
}

/// What every session of a run shares.
#[derive(Clone, Copy)]
struct Run<'a> {
    w: Workload,
    /// Where sessions save their snapshots.
    snap: &'a Path,
}

/// One untraced step, for its traced twin to match.
struct Twin {
    shown: Shown,
    ms: f64,
}

/// The two halves of each set-up.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub csv_load_ms: Vec<f64>,
    pub model_fit_ms: Vec<f64>,
}

fn load(input: &Input) -> Result<Dataset, String> {
    let targets: Vec<&str> = input.targets.iter().map(String::as_str).collect();
    csv::dataset_from_csv_str(&input.name, &input.csv, &targets)
        .map_err(|e| format!("{}: CSV load failed: {e}", input.name))
}

/// Set-up, counted as one operation: CSV text to a ready miner
/// (`dataset_from_csv_str` + `Miner::from_empirical`).
fn setup(
    input: &Input,
    config: MinerConfig,
    times: &mut SetupTimes,
    tally: &mut Tally,
) -> Option<Miner> {
    let t = Instant::now();
    let loaded = load(input);
    let csv_load = t.elapsed();
    let t = Instant::now();
    let built = loaded.and_then(|data| {
        Miner::from_empirical(data, config)
            .map_err(|e| format!("{}: model fit failed: {e}", input.name))
    });
    let model_fit = t.elapsed();
    match built {
        Ok(miner) => {
            tally.op(Ok(()));
            times.csv_load_ms.push(ms(csv_load));
            times.model_fit_ms.push(ms(model_fit));
            Some(miner)
        }
        Err(e) => {
            tally.op(Err(e));
            None
        }
    }
}

/// One interactive step as the analyst takes it: "next" until the pattern
/// is shown and assimilated.
fn next(w: Workload, miner: &mut Miner) -> Result<Shown, String> {
    let outcome = if w.with_spread() {
        miner.step_with_spread()
    } else {
        miner.step_location()
    };
    match outcome {
        Ok(Some(it)) => Ok(Shown::new(it.location, it.spread.as_ref())),
        Ok(None) => Err("no pattern found".to_string()),
        Err(e) => Err(e.to_string()),
    }
}

/// Session 0 at the reference seed, untimed, checked step by step against
/// the recorded sequence whatever seed the run itself is at.
pub fn reference_session(w: Workload, tally: &mut Tally) {
    let input = w.input(checks::REFERENCE_SEED, 0);
    let config = w.config();
    let mut untimed = SetupTimes::default();
    let Some(mut miner) = setup(&input, config.clone(), &mut untimed, tally) else {
        return;
    };
    for step in 0..w.steps() {
        let checked = next(w, &mut miner).and_then(|s| {
            checks::step(w, &miner, &config, &s)?;
            checks::against_reference(w, step, &s, miner.data())
        });
        let at = |what: String| format!("reference session step {}: {what}", step + 1);
        if !tally.op(checked.map_err(at)) {
            return;
        }
    }
    println!(
        "# reference: session 0 at seed {} mined the {} recorded steps",
        checks::REFERENCE_SEED,
        w.steps()
    );
}

/// What the untraced sessions of a run measured.
#[derive(Debug, Default)]
pub struct Untraced {
    pub sessions: usize,
    pub setup: SetupTimes,
    pub step_ms: Vec<f64>,
    /// The same step times, by position in the session.
    pub step_ms_at: Vec<Vec<f64>>,
    pub session_s: Vec<f64>,
    pub resume_ms: Vec<f64>,
}

impl Untraced {
    /// Whole set-up times in seconds.
    pub fn setup_s(&self) -> Vec<f64> {
        let SetupTimes {
            csv_load_ms,
            model_fit_ms,
        } = &self.setup;
        csv_load_ms
            .iter()
            .zip(model_fit_ms)
            .map(|(a, b)| (a + b) / 1e3)
            .collect()
    }
}

/// The untraced run: sessions on consecutive seeds until `budget` is spent
/// (at least one; the last runs to its end).
pub fn untraced_run(
    w: Workload,
    seed: u64,
    budget: Duration,
    snap: &Path,
    tally: &mut Tally,
) -> Untraced {
    let run = Run { w, snap };
    let start = Instant::now();
    let mut out = Untraced::default();
    for session in 0.. {
        let input = w.input(seed, session);
        let ran = untraced_session(run, &input, session, &mut out, tally).is_some();
        if !ran || start.elapsed() >= budget {
            break;
        }
    }
    if out.sessions > 0 {
        let input = w.input(seed, 0);
        while out.setup.csv_load_ms.len() < MIN_SETUPS {
            if setup(&input, w.config(), &mut out.setup, tally).is_none() {
                break;
            }
        }
    }
    out
}

/// One untraced session: set up, take the workload's steps, and resume
/// from the final snapshot. Returns what each step showed and took, or
/// `None` when set-up failed.
fn untraced_session(
    run: Run<'_>,
    input: &Input,
    session: u64,
    out: &mut Untraced,
    tally: &mut Tally,
) -> Option<Vec<Twin>> {
    let Run { w, snap } = run;
    let config = w.config();
    let mut miner = setup(input, config.clone(), &mut out.setup, tally)?;
    out.sessions += 1;
    let mut twins = Vec::with_capacity(w.steps());
    let mut active = Duration::ZERO;
    for step in 0..w.steps() {
        let at = |what: String| format!("session {session} step {}: {what}", step + 1);
        let t = Instant::now();
        let outcome = next(w, &mut miner);
        let saved = w.saves_every_step().then(|| miner.save(snap));
        let dt = t.elapsed();
        let s = match outcome {
            Ok(s) => s,
            Err(e) => {
                tally.op(Err(at(e)));
                break;
            }
        };
        active += dt;
        out.step_ms.push(ms(dt));
        if out.step_ms_at.len() <= step {
            out.step_ms_at.push(Vec::new());
        }
        out.step_ms_at[step].push(ms(dt));
        if session == 0 {
            println!(
                "# session 0 step {}: {}",
                step + 1,
                s.describe(miner.data())
            );
        }
        tally.op(checks::step(w, &miner, &config, &s).map_err(at));
        if let Some(saved) = saved {
            tally.op(saved.map_err(|e| at(format!("save failed: {e}"))));
        }
        twins.push(Twin {
            shown: s,
            ms: ms(dt),
        });
    }
    out.session_s.push(active.as_secs_f64());
    if !w.saves_every_step() {
        let saved = miner
            .save(snap)
            .map_err(|e| format!("session {session}: save failed: {e}"));
        if !tally.op(saved) {
            return Some(twins);
        }
    }
    // Crash recovery: the session's process is gone, and a fresh one loads
    // the final snapshot against the same data.
    let data = miner.data().clone();
    drop(miner);
    let t = Instant::now();
    let loaded = Miner::load(snap, data, config);
    let dt = t.elapsed();
    let resumed = loaded.map_err(|e| e.to_string()).and_then(|restored| {
        let on_disk = std::fs::read(snap).map_err(|e| e.to_string())?;
        checks::resnapshot(&restored, &on_disk)
    });
    if tally.op(resumed.map_err(|e| format!("session {session}: resume failed: {e}"))) {
        out.resume_ms.push(ms(dt));
    }
    Some(twins)
}

/// The traced run: every session runs untraced, then again with each step
/// split into its public calls under `tracer`; both must show the same
/// patterns bit for bit, and each traced step is timed against its
/// untraced twin.
pub fn traced_run(
    w: Workload,
    seed: u64,
    budget: Duration,
    snap: &Path,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Layers {
    let run = Run { w, snap };
    let start = Instant::now();
    let mut layers = Layers::default();
    let mut untraced = Untraced::default();
    for session in 0.. {
        let input = w.input(seed, session);
        if session == 0 {
            probe(w, &input, &mut layers, tally);
        }
        let Some(twins) = untraced_session(run, &input, session, &mut untraced, tally) else {
            break;
        };
        let traced = traced_session(run, &input, session, &twins, tracer, &mut layers, tally);
        if !traced || start.elapsed() >= budget {
            break;
        }
    }
    layers.setup.csv_load_ms.extend(untraced.setup.csv_load_ms);
    layers
        .setup
        .model_fit_ms
        .extend(untraced.setup.model_fit_ms);
    layers
}

/// Standalone probes, on session 0's dataset, of work every search or
/// resume repeats: condition generation, the condition-mask matrix, and
/// the dataset fingerprint `Miner::load` re-hashes.
fn probe(w: Workload, input: &Input, layers: &mut Layers, tally: &mut Tally) {
    let data = match load(input) {
        Ok(data) => data,
        Err(e) => {
            tally.op(Err(e));
            return;
        }
    };
    let refine = w.config().beam.refine;
    let mut shape = (0, 0);
    for _ in 0..PROBE_REPS {
        let t = Instant::now();
        let conditions = black_box(generate_conditions(&data, &refine));
        layers.conditions_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let masks = black_box(MaskMatrix::evaluate(&data, &conditions));
        layers.mask_build_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        black_box(data.content_fingerprint());
        layers.fingerprint_ms.push(ms(t.elapsed()));
        shape = (masks.rows(), masks.rows() * masks.stride());
    }
    println!(
        "# data {}: n={} dx={} dy={}; {} conditions, condition masks {} words",
        input.name,
        data.n(),
        data.dx(),
        data.dy(),
        shape.0,
        shape.1
    );
}

/// One traced session, checked step by step against its untraced twin.
/// Returns false when set-up failed.
fn traced_session(
    run: Run<'_>,
    input: &Input,
    session: u64,
    twins: &[Twin],
    tracer: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
) -> bool {
    let Run { w, snap, .. } = run;
    let config = w.config().with_obs(tracer.obs());
    let Some(mut miner) = setup(input, config.clone(), &mut layers.setup, tally) else {
        return false;
    };
    for step in 0..w.steps() {
        let at = |what: String| format!("session {session} traced step {}: {what}", step + 1);
        let (s, calls) = match traced_step(run, &mut miner, session, step, tracer) {
            Ok(done) => done,
            Err(e) => {
                tally.op(Err(at(e)));
                break;
            }
        };
        let twin = twins.get(step);
        let checked = layers
            .step(tracer.names(), &calls, twin.map(|t| t.ms))
            .and_then(|()| checks::step(w, &miner, &config, &s))
            .and_then(|()| match twin {
                Some(t) if t.shown.same_as(&s) => Ok(()),
                Some(_) => Err("it shows another pattern than the untraced run".to_string()),
                None => Err("the untraced run stopped before this step".to_string()),
            });
        tally.op(checked.map_err(at));
    }
    layers.end_session();
    if !w.saves_every_step() {
        let (saved, call) = tracer.call(session, None, "save", || miner.save(snap));
        let saved = saved.map_err(|e| format!("session {session}: traced save failed: {e}"));
        if !tally.op(saved) {
            return true;
        }
        layers.save(tracer.names(), &call);
    }
    let data = miner.data().clone();
    drop(miner);
    let (read, read_call) = tracer.call(session, None, "read", || std::fs::read(snap));
    let bytes = match read {
        Ok(bytes) => bytes,
        Err(e) => {
            tally.op(Err(format!("session {session}: snapshot read failed: {e}")));
            return true;
        }
    };
    let (restored, restore_call) = tracer.call(session, None, "restore_bytes", || {
        Miner::restore_bytes(&bytes, data, config)
    });
    let resumed = restored
        .map_err(|e| e.to_string())
        .and_then(|r| checks::resnapshot(&r, &bytes));
    if tally.op(resumed.map_err(|e| format!("session {session}: traced resume failed: {e}"))) {
        layers.read_ms.push(ms(read_call.dur));
        layers.restore_ms.push(ms(restore_call.dur));
    }
    true
}

/// One step split into its public calls, each in a tracer span.
fn traced_step(
    run: Run<'_>,
    miner: &mut Miner,
    session: u64,
    step: usize,
    tracer: &mut Tracer,
) -> Result<(Shown, StepCalls), String> {
    let at = Some(step);
    let cells = miner.model().n_cells();
    let wall = Instant::now();
    let (result, search) =
        tracer.call(session, at, "search_locations", || miner.search_locations());
    let best = result.top.into_iter().next().ok_or("no pattern found")?;
    let (assimilated, assimilate_location) =
        tracer.call(session, at, "assimilate_location", || {
            miner.assimilate_location(&best)
        });
    assimilated.map_err(|e| format!("assimilate_location failed: {e}"))?;
    let mut spread = None;
    if run.w.with_spread() {
        let (pattern, mine) = tracer.call(session, at, "mine_spread", || miner.mine_spread(&best));
        let (assimilated, assimilate) = tracer.call(session, at, "assimilate_spread", || {
            miner.assimilate_spread(&pattern)
        });
        assimilated.map_err(|e| format!("assimilate_spread failed: {e}"))?;
        spread = Some((pattern, (mine, assimilate)));
    }
    let mut save = None;
    if run.w.saves_every_step() {
        let (saved, call) = tracer.call(session, at, "save", || miner.save(run.snap));
        saved.map_err(|e| format!("save failed: {e}"))?;
        save = Some(call);
    }
    let wall = wall.elapsed();
    let (pattern, spread) = spread.map_or((None, None), |(p, calls)| (Some(p), Some(calls)));
    let shown = Shown::new(best, pattern.as_ref());
    let calls = StepCalls {
        step,
        cells,
        wall,
        search,
        assimilate_location,
        spread,
        save,
    };
    Ok((shown, calls))
}
