//! Scalability sweep (§III-E): mining runtime versus data size, and the
//! serial vs multi-threaded beam.
//!
//! The paper argues the runtime of one search pass is linear in the number
//! of data points and controlled by the beam parameters. This harness
//! subsamples the crime simulacrum at several sizes and reports wall-clock
//! per search, plus the speedup of the engine's multi-threaded candidate
//! evaluator. `--threads N` (default 4) sets the parallel worker count
//! (results are bit-identical at any setting);
//! `--trace-out PATH` additionally writes a JSONL trace of every metric
//! event. All searches report into one metrics registry — the parallel
//! ones through a *dedicated* (non-global) worker pool, whose utilization
//! lands in the report's pool gauges — and the run ends with the full
//! [`sisd_obs::SearchReport`].

use sisd_bench::{
    kill_after_iter_arg, obs_from_args, pool_reuse_arg, print_search_report, print_table,
    resume_arg, section, session_iters_arg, snapshot_out_arg, threads_arg,
};
use sisd_data::datasets::crime_synthetic;
use sisd_data::snap::crc32;
use sisd_data::{BitSet, Column, Dataset};
use sisd_linalg::Matrix;
use sisd_model::BackgroundModel;
use sisd_obs::Metric;
use sisd_par::WorkerPool;
use sisd_search::{BeamConfig, BeamSearch, EvalConfig, Miner, MinerConfig};
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
    print_search_report(&miner.search_report());
    obs.flush();
}

fn main() {
    let threads = threads_arg(4);
    let reuse = pool_reuse_arg(3);
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

    // Parallel searches run on a dedicated (leaked) pool rather than the
    // process-global one: its per-pool job/task/queue-wait counters land
    // in the metrics registry, so the footer and the search report both
    // describe exactly the workers this sweep used.
    let pool = WorkerPool::leaked();
    let cfg = BeamConfig {
        width: 40,
        max_depth: 2,
        top_k: 50,
        min_coverage: 10,
        eval: EvalConfig::default().with_obs(obs),
        ..BeamConfig::default()
    };
    let cfg_parallel = BeamConfig {
        eval: EvalConfig::with_threads(threads)
            .with_pool(pool)
            .with_obs(obs),
        ..cfg.clone()
    };

    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!(
        "available parallelism: {cores} core(s); dedicated pool workers: {} (grows on \
         demand, capped by --threads); --threads {threads}; --pool-reuse {reuse}",
        pool.get().workers()
    );

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

        // Re-run against the now-warm persistent pool: same search, same
        // results, but every level reuses the already-spawned workers.
        // The minimum over `reuse` runs isolates the steady-state cost.
        let mut t_warm = t_parallel;
        for _ in 0..reuse {
            let model_w = BackgroundModel::from_empirical(&data).expect("model");
            let t = Instant::now();
            let warm = BeamSearch::new(cfg_parallel.clone()).run(&data, &model_w);
            t_warm = t_warm.min(t.elapsed());
            assert_eq!(
                parallel.best().map(|p| p.extension.count()),
                warm.best().map(|p| p.extension.count()),
                "warm-pool search disagrees"
            );
        }

        assert_eq!(
            serial.best().map(|p| p.extension.count()),
            parallel.best().map(|p| p.extension.count()),
            "serial and parallel searches disagree"
        );
        rows.push(vec![
            n.to_string(),
            serial.evaluated.to_string(),
            format!("{:.1}", t_serial.as_secs_f64() * 1e3),
            format!("{:.1}", t_parallel.as_secs_f64() * 1e3),
            format!("{:.1}", t_warm.as_secs_f64() * 1e3),
            format!(
                "{:.2}x",
                t_serial.as_secs_f64() / t_warm.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    print_table(
        &[
            "n",
            "candidates",
            "serial ms",
            &format!("parallel({threads}) ms"),
            &format!("pool-reuse({reuse}) ms"),
            "speedup",
        ],
        &rows,
    );
    println!();
    // The pool gauges were published into the registry by the searches
    // themselves (a dedicated pool reports exactly like the global one) —
    // the footer reads them back rather than poking the pool directly.
    let report = obs.report().expect("obs handle is always enabled here");
    println!(
        "pool workers spawned: {}; pooled runs: {} ({} tasks, {} queue-wait ns)",
        report.get(Metric::PoolWorkers),
        report.get(Metric::PoolJobs),
        report.get(Metric::PoolTasks),
        report.get(Metric::PoolQueueWaitNs),
    );
    println!(
        "Expected shape (paper §III-E): per-candidate cost is linear in n, so total\n\
         search time grows roughly linearly. The multi-threaded evaluator always\n\
         returns identical results; its speedup is bounded by the machine's\n\
         available parallelism (printed above — on a single-core container the\n\
         serial and parallel columns coincide). The pool-reuse column times the\n\
         same search against the warm persistent pool: no thread is spawned\n\
         after the first parallel level, so it is the steady-state number."
    );
    print_search_report(&report);
    obs.flush();
}
