//! Interactive-step benchmark for the SISD engine: one analyst in a closed
//! loop mines the paper's simulacra step by step on a serial engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path stepbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every run first mines session 0 at the reference seed, untimed, and
//! checks it against a recording. `--trace 0` then reports the end-to-end
//! metrics. `--trace 1` runs every session twice, untraced and then
//! traced, and reports the per-layer metrics. Human-readable lines come first; the last line of stdout is
//! one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. A failed operation or output check makes the exit code
//! non-zero. `README.md` beside this crate describes the workloads and
//! what each metric is predicted to move.

mod checks;
mod host;
mod session;
mod stats;
mod trace;
mod workload;

use session::Tally;
use stats::{median, quantile, ratio};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;
use workload::Workload;

const USAGE: &str = "usage: stepbench --workload <crime-deep|mammals-fig4|water-spread-durable> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Where runs keep snapshots and traces, under the working directory.
const OUT_DIR: &str = ".stepbench-out";

/// Share of a traced step's wall time the call spans must cover, as a
/// median over sessions at every step position.
const MIN_COVERAGE: f64 = 0.95;

/// One reported metric: name, value, unit.
type Figure = (&'static str, f64, &'static str);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = checks::REFERENCE_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                let in_range = seconds > 0.0 && seconds <= 3600.0;
                if !in_range {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("stepbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let provenance = host::provenance(args.seed, workload::ENGINE_THREADS);
    println!(
        "# stepbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let fields: Vec<String> = provenance
        .iter()
        .map(|(k, v)| format!("{k}={v:?}"))
        .collect();
    println!("# provenance {}", fields.join(" "));

    let mut tally = Tally::default();
    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        tally.op(Err(format!("cannot create {OUT_DIR}: {e}")));
    }
    let snap = out_dir.join(format!("{}-{}.snap", w.name(), std::process::id()));
    let budget = Duration::from_secs_f64(args.seconds);
    session::reference_session(w, &mut tally);
    let figures = if args.trace {
        traced(w, args.seed, budget, &snap, &provenance, &mut tally)
    } else {
        untraced(w, args.seed, budget, &snap, &mut tally)
    };
    // The snapshot is scratch; it may already be gone.
    let _ = std::fs::remove_file(&snap);
    report(&figures, &tally)
}

/// The untraced run and its end-to-end figures.
fn untraced(
    w: Workload,
    seed: u64,
    budget: Duration,
    snap: &Path,
    tally: &mut Tally,
) -> Vec<Figure> {
    let run = session::untraced_run(w, seed, budget, snap, tally);
    let steps = run.step_ms.len();
    // Steps at different positions of a session cost different amounts, so
    // a median over the pooled steps jumps between positions from run to
    // run; the median over positions of each position's median does not.
    let typical_step_ms: Vec<f64> = run.step_ms_at.iter().map(|at| median(at)).collect();
    println!(
        "# {} session(s), {steps} step(s); step_ms_p90 rests on {steps} samples{}",
        run.sessions,
        if steps < 100 {
            ", fewer than the 100 that put 10 beyond it"
        } else {
            ""
        }
    );
    let peak_rss_mb = host::peak_rss_mb().unwrap_or_else(|| {
        tally.op(Err(
            "peak RSS is unavailable: no VmHWM in /proc/self/status".into(),
        ));
        0.0
    });
    vec![
        ("step_ms_p50", median(&typical_step_ms), "ms"),
        ("step_ms_p90", quantile(&run.step_ms, 0.9), "ms"),
        ("session_s", median(&run.session_s), "s"),
        ("setup_s", median(&run.setup_s()), "s"),
        ("resume_ms", median(&run.resume_ms), "ms"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        (
            "ok_ratio",
            1.0 - ratio(tally.failed as f64, tally.attempted as f64),
            "ratio",
        ),
    ]
}

/// The traced run, its trace file, its reconciliation, and its per-layer
/// figures.
fn traced(
    w: Workload,
    seed: u64,
    budget: Duration,
    snap: &Path,
    provenance: &[(&'static str, String)],
    tally: &mut Tally,
) -> Vec<Figure> {
    let mut tracer = match Tracer::new() {
        Ok(tracer) => tracer,
        Err(e) => {
            tally.op(Err(e));
            return Vec::new();
        }
    };
    let layers = session::traced_run(w, seed, budget, snap, &mut tracer, tally);
    let path = Path::new(OUT_DIR).join(format!("trace-{}-seed{seed}.jsonl", w.name()));
    match tracer.write_jsonl(&path, w.name(), provenance) {
        Ok(()) => println!("# trace written to {}", path.display()),
        Err(e) => eprintln!("stepbench: cannot write {}: {e}", path.display()),
    }
    let coverage = layers.coverage();
    println!(
        "# reconcile: at every step position, call spans cover a median {coverage:.4} \
         or more of the traced step's wall time; {MIN_COVERAGE} required"
    );
    if coverage < MIN_COVERAGE {
        tally.op(Err(format!(
            "call spans cover a median of only {coverage:.4} of a traced step's wall time"
        )));
    }
    layers.figures()
}

/// Prints every figure with its unit, then the result line. The exit code
/// is non-zero when any operation failed.
fn report(figures: &[Figure], tally: &Tally) -> ExitCode {
    for problem in &tally.problems {
        eprintln!("stepbench: FAILED {problem}");
    }
    for (name, value, unit) in figures {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    println!(
        "{:<28} {:>16.6} ratio ({} of {} operations failed)",
        "fail_ratio",
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );
    let metrics: Vec<String> = figures
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = tally.failed == 0 && !figures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
