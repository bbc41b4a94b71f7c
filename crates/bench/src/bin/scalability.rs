//! Scalability sweep (§III-E): mining runtime versus data size, and the
//! serial vs multi-threaded beam.
//!
//! The paper argues the runtime of one search pass is linear in the number
//! of data points and controlled by the beam parameters. This harness
//! subsamples the crime simulacrum at several sizes and reports wall-clock
//! per search, plus the speedup of the engine's multi-threaded candidate
//! evaluator. `--threads N` (default 4) sets the parallel worker count
//! (results are bit-identical at any setting, and every size asserts that
//! the parallel search logs the serial one's patterns bit for bit);
//! `--trace-out PATH` additionally writes a JSONL trace of every metric
//! event. All searches report into one metrics registry, and the run ends
//! with the full [`sisd_obs::SearchReport`].

use sisd_bench::{
    kill_after_iter_arg, obs_from_args, print_search_report, print_table, resume_arg, section,
    session_iters_arg, snapshot_out_arg, threads_arg,
};
use sisd_data::datasets::crime_synthetic;
use sisd_data::snap::crc32;
use sisd_data::{BitSet, Column, Dataset};
use sisd_linalg::Matrix;
use sisd_model::BackgroundModel;
use sisd_search::{BeamConfig, BeamResult, BeamSearch, EvalConfig, Miner, MinerConfig};
use std::path::Path;
use std::time::Instant;

/// Row-subsampled copy of a dataset (first `n` rows).
fn head(data: &Dataset, n: usize) -> Dataset {
    let keep = BitSet::from_indices(data.n(), 0..n);
    let mut targets = Matrix::zeros(n, data.dy());
    for (new_i, old_i) in keep.iter().enumerate() {
        for j in 0..data.dy() {
            targets[(new_i, j)] = data.targets()[(old_i, j)];
        }
    }
    let cols: Vec<Column> = data
        .desc_cols()
        .iter()
        .map(|col| match col {
            Column::Numeric(v) => Column::Numeric(v[..n].to_vec()),
            Column::Categorical { codes, labels } => Column::Categorical {
                codes: codes[..n].to_vec(),
                labels: labels.clone(),
            },
        })
        .collect();
    Dataset::new(
        format!("{}-head{n}", data.name),
        data.desc_names().to_vec(),
        cols,
        data.target_names().to_vec(),
        targets,
    )
}

/// Times the parallel search is re-run per size after the timed run.
const PARALLEL_REPEATS: usize = 3;

/// Panics unless the parallel search logged the serial one's patterns in
/// the same order: intention, extension, SI bits and observed-mean bits.
fn assert_same_log(n: usize, serial: &BeamResult, parallel: &BeamResult) {
    assert_eq!(
        serial.top.len(),
        parallel.top.len(),
        "n={n}: serial and parallel logs differ in length"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (rank, (a, b)) in serial.top.iter().zip(&parallel.top).enumerate() {
        assert!(
            a.intention == b.intention
                && a.extension == b.extension
                && a.score.si.to_bits() == b.score.si.to_bits()
                && bits(&a.observed_mean) == bits(&b.observed_mean),
            "n={n}: serial and parallel searches disagree at rank {rank}"
        );
    }
}

/// The session-mode flags (see [`run_session`]).
struct SessionArgs {
    iters: usize,
    snapshot_out: Option<String>,
    resume: Option<String>,
    kill_after: Option<usize>,
}

/// The durable-session demo behind `--session-iters`: mine K iterations
/// on a fixed 500-row slice of the crime simulacrum, optionally saving a
/// crash-safe snapshot after every iteration (`--snapshot-out`), starting
/// from a previous snapshot (`--resume`), or SIGKILLing the process right
/// after iteration N's snapshot is durable (`--kill-after-iter`). Every
/// line is deterministic — scores print as raw f64 bits — and the run
/// ends with a CRC digest of the full serialized session state, so a
/// killed-and-resumed session can be diffed bit-for-bit against an
/// uninterrupted one.
fn run_session(args: SessionArgs, threads: usize, obs: sisd_obs::ObsHandle) {
    let SessionArgs {
        iters,
        snapshot_out,
        resume,
        kill_after,
    } = args;
    let data = head(&crime_synthetic(2018), 500);
    let config = MinerConfig {
        beam: BeamConfig {
            width: 20,
            max_depth: 2,
            top_k: 30,
            min_coverage: 10,
            eval: EvalConfig::with_threads(threads).with_obs(obs),
            ..BeamConfig::default()
        },
        refit_tol: 1e-9,
        refit_max_cycles: 200,
        ..MinerConfig::default()
    };
    section(&format!(
        "Durable session — {iters} iteration(s), crime-head500, threads {threads}"
    ));
    let mut miner = match resume.as_deref() {
        Some(path) => match Miner::load(Path::new(path), data, config) {
            Ok(m) => {
                println!("resumed from {path} at iteration {}", m.iterations_done());
                m
            }
            Err(e) => {
                eprintln!("error: --resume {path}: {e}");
                std::process::exit(2);
            }
        },
        None => Miner::from_empirical(data, config).expect("empirical model"),
    };
    while miner.iterations_done() < iters {
        let step = miner.step_location().expect("assimilation failed");
        let Some(iter) = step else {
            println!(
                "iter {}: no feasible pattern — stopping",
                miner.iterations_done() + 1
            );
            break;
        };
        println!(
            "iter {}: rows={} si_bits={:016x}",
            iter.index,
            iter.location.extension.count(),
            iter.location.score.si.to_bits()
        );
        if let Some(path) = snapshot_out.as_deref() {
            if let Err(e) = miner.save(Path::new(path)) {
                eprintln!("error: --snapshot-out {path}: {e}");
                std::process::exit(1);
            }
        }
        if kill_after == Some(iter.index) {
            // A real crash, not a clean exit: the snapshot written above
            // must be the only thing the resumed session needs.
            println!(
                "killing process after iteration {} (snapshot durable)",
                iter.index
            );
            let _ = std::process::Command::new("kill")
                .args(["-9", &std::process::id().to_string()])
                .status();
            // SIGKILL delivery can lag the spawn; don't fall through.
            loop {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
    }
    let bytes = miner.snapshot_bytes().expect("session state serializes");
    println!(
        "session complete: {} iteration(s), {} constraint(s), state digest {:08x} ({} bytes)",
        miner.iterations_done(),
        miner.model().constraints().len(),
        crc32(&bytes),
        bytes.len()
    );
    print_search_report(&obs.report().expect("obs handle is always enabled here"));
    obs.flush();
}

fn main() {
    let threads = threads_arg(4);
    let obs = obs_from_args();
    if let Some(iters) = session_iters_arg() {
        let args = SessionArgs {
            iters,
            snapshot_out: snapshot_out_arg(),
            resume: resume_arg(),
            kill_after: kill_after_iter_arg(),
        };
        run_session(args, threads, obs);
        return;
    }
    let full = crime_synthetic(2018);
    section("Scalability — beam runtime vs n (crime simulacrum, width 40, depth 2)");

    let cfg = BeamConfig {
        width: 40,
        max_depth: 2,
        top_k: 50,
        min_coverage: 10,
        eval: EvalConfig::default().with_obs(obs),
        ..BeamConfig::default()
    };
    let cfg_parallel = BeamConfig {
        eval: EvalConfig::with_threads(threads).with_obs(obs),
        ..cfg.clone()
    };

    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!("available parallelism: {cores} core(s); --threads {threads}");

    let mut rows = Vec::new();
    for &n in &[250usize, 500, 1000, 1994] {
        let data = head(&full, n);
        let model = BackgroundModel::from_empirical(&data).expect("model");
        let t = Instant::now();
        let serial = BeamSearch::new(cfg.clone()).run(&data, &model);
        let t_serial = t.elapsed();

        let model_p = BackgroundModel::from_empirical(&data).expect("model");
        let t = Instant::now();
        let parallel = BeamSearch::new(cfg_parallel.clone()).run(&data, &model_p);
        let t_parallel = t.elapsed();
        assert_same_log(n, &serial, &parallel);

        // Scoped threads finish in a different order on every run, and the
        // merge must not depend on it: the parallel search runs again and
        // must log the same patterns each time. (The repeats also keep the
        // sweep's work counters at the figures CI pins.)
        for _ in 0..PARALLEL_REPEATS {
            let model_r = BackgroundModel::from_empirical(&data).expect("model");
            let repeat = BeamSearch::new(cfg_parallel.clone()).run(&data, &model_r);
            assert_same_log(n, &serial, &repeat);
        }
        rows.push(vec![
            n.to_string(),
            serial.evaluated.to_string(),
            format!("{:.1}", t_serial.as_secs_f64() * 1e3),
            format!("{:.1}", t_parallel.as_secs_f64() * 1e3),
            format!(
                "{:.2}x",
                t_serial.as_secs_f64() / t_parallel.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    print_table(
        &[
            "n",
            "candidates",
            "serial ms",
            &format!("parallel({threads}) ms"),
            "speedup",
        ],
        &rows,
    );
    println!();
    println!(
        "Expected shape (paper §III-E): per-candidate cost is linear in n, so total\n\
         search time grows roughly linearly. The multi-threaded evaluator always\n\
         returns identical results; its speedup is bounded by the machine's\n\
         available parallelism (printed above — on a single-core container the\n\
         serial and parallel columns coincide)."
    );
    print_search_report(&obs.report().expect("obs handle is always enabled here"));
    obs.flush();
}
