//! Allocation accounting for the batch-scoring boundary.
//!
//! PR 3 left one known copy at the `ChildBatch` → `LocationPattern` seam:
//! scored candidates cloned their extension (and intention) into each
//! result. The owned scoring path (`Evaluator::score_all_owned`) moves
//! them instead, so a dedup-surviving extension is heap-allocated exactly
//! once — when it leaves the frontier arena — and that allocation is the
//! one the final pattern owns. This test pins the fix with a counting
//! global allocator: scoring an owned batch must perform at least one
//! fewer allocation per candidate (the extension buffer clone) than the
//! borrowing path, which still clones for its callers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A pass-through allocator that counts allocations and allocated bytes.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// The counters are process-global, while the test harness runs this
/// binary's tests on parallel threads: one test's allocations would land
/// in another's counted window. Every test holds this lock for its whole
/// body, so the tests run one at a time. The lock guards no data, so one
/// poisoned by a failing test is taken over as is and the rest still run.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let b0 = BYTES.load(Ordering::Relaxed);
    let out = f();
    (
        out,
        ALLOCS.load(Ordering::Relaxed) - a0,
        BYTES.load(Ordering::Relaxed) - b0,
    )
}

use sisd::core::{DlParams, Intention};
use sisd::data::datasets::synthetic_paper;
use sisd::data::BitSet;
use sisd::model::BackgroundModel;
use sisd::search::{Candidate, EvalConfig, Evaluator};
use sisd::stats::Xoshiro256pp;

fn batch(n: usize, k: usize) -> Vec<Candidate> {
    let mut rng = Xoshiro256pp::seed_from_u64(3);
    (0..k)
        .map(|_| Candidate {
            intention: Intention::empty(),
            ext: BitSet::from_indices(n, rng.sample_indices(n, 40)),
        })
        .collect()
}

#[test]
fn owned_scoring_saves_one_extension_allocation_per_candidate() {
    let _serial = serial();
    let (data, _) = synthetic_paper(42);
    let model = BackgroundModel::from_empirical(&data).unwrap();
    let ev = Evaluator::gaussian(&data, &model, DlParams::default(), EvalConfig::default());
    const K: usize = 64;
    let cands = batch(data.n(), K);

    // Warm every lazy structure (per-cell factors, per-cell target sums)
    // so the measured passes differ only in how they treat the candidate.
    let warm = ev.score_all(&cands);
    assert_eq!(warm.len(), K);

    let ext_words = data.n().div_ceil(64);
    let ext_bytes = ext_words * std::mem::size_of::<u64>();

    // Minimum over three passes per path: one-off allocator effects (a
    // hash-map resize landing inside one window) only ever *add* counts,
    // so the minimum is the clean per-pass profile.
    let min3 = |mut pass: Box<dyn FnMut() -> (usize, usize)>| -> (usize, usize) {
        let mut best = (usize::MAX, usize::MAX);
        for _ in 0..3 {
            let (a, b) = pass();
            best = (best.0.min(a), best.1.min(b));
        }
        best
    };

    // Borrowing path: clones each candidate's extension into its result.
    let borrowed = ev.score_all(&cands);
    assert_eq!(borrowed.len(), K);
    let (borrowed_allocs, borrowed_bytes) = min3(Box::new(|| {
        let (out, a, b) = counted(|| ev.score_all(&cands));
        assert_eq!(out.len(), K);
        (a, b)
    }));

    // Owned path: moves each candidate's extension into its result. The
    // clone of the input batch is made *outside* the counted region.
    let owned = ev.score_all_owned(cands.clone());
    for (a, b) in owned.iter().zip(&borrowed) {
        assert_eq!(a.score.si.to_bits(), b.score.si.to_bits());
    }
    let (owned_allocs, owned_bytes) = min3(Box::new(|| {
        let input = cands.clone();
        let (out, a, b) = counted(|| ev.score_all_owned(input));
        assert_eq!(out.len(), K);
        (a, b)
    }));

    // Identical scoring work, minus one extension-buffer clone per
    // candidate (intentions here are empty and clone without allocating).
    assert!(
        owned_allocs + K <= borrowed_allocs,
        "owned scoring must save ≥1 allocation per candidate: \
         owned={owned_allocs}, borrowed={borrowed_allocs}, K={K}"
    );
    assert!(
        owned_bytes + K * ext_bytes <= borrowed_bytes,
        "owned scoring must save the extension bytes: \
         owned={owned_bytes}, borrowed={borrowed_bytes}, per-ext={ext_bytes}"
    );
}

// (The no-copy property is additionally pinned pointer-precisely by
// `owned_scoring_moves_the_extension_allocation` in the eval unit tests:
// the scored result and final pattern hold the candidate's original heap
// buffer. Comparative counting here + pointer identity there avoids
// exact-equality assertions on global allocation counts, which jitter
// with randomized hash-map resize timing.)

#[test]
fn warm_refit_reuses_projection_workspace_without_allocating() {
    let _serial = serial();
    // The model's projection hot path (residual scans, Thm. 1 location
    // re-projections) runs entirely out of a reusable workspace living on
    // the model: per-update vectors, the covariance-sum accumulator, the
    // membership marks, and the per-cycle violation/dirty arrays. Pin it
    // two ways with the counting allocator.
    let (data, _) = synthetic_paper(42);
    let mut rng = Xoshiro256pp::seed_from_u64(9);
    let mut model = BackgroundModel::from_empirical(&data).unwrap();
    let exts: Vec<BitSet> = (0..6)
        .map(|_| BitSet::from_indices(data.n(), rng.sample_indices(data.n(), 40)))
        .collect();
    for ext in &exts {
        model
            .assimilate_location(ext, data.target_mean(ext))
            .unwrap();
        let _ = model.refit(1e-9, 200).unwrap();
    }

    // (1) A converged refit — a full residual scan over every stored
    // constraint — allocates nothing at all.
    let mut converged_allocs = usize::MAX;
    for _ in 0..3 {
        let (stats, a, _) = counted(|| model.refit(1e-9, 200).unwrap());
        assert_eq!(
            stats.constraints_updated, 0,
            "model must already be converged"
        );
        converged_allocs = converged_allocs.min(a);
    }
    assert_eq!(
        converged_allocs, 0,
        "a converged refit must run entirely out of the reusable workspace"
    );

    // (2) A working refit: assimilate (outside the counted region) a
    // pattern over the union of two existing extensions — already a union
    // of cells, so no cell splits — then count the full re-convergence.
    // Dozens of re-projections and residual scans run; the only permitted
    // allocations are the one-time growth of the per-constraint violation
    // and dirty arrays (now one entry longer), NOT per-projection or
    // per-cycle buffers.
    let union = exts[0].or(&exts[1]);
    model
        .assimilate_location(&union, data.target_mean(&union))
        .unwrap();
    let (stats, refit_allocs, _) = counted(|| model.refit(1e-9, 200).unwrap());
    assert!(
        stats.constraints_updated >= 5,
        "the overlapping pattern must force real re-projection work, got {stats:?}"
    );
    assert!(
        refit_allocs <= 4,
        "refit must not allocate per projection or per cycle: \
         {refit_allocs} allocations for {} re-projections over {} cycles",
        stats.constraints_updated,
        stats.cycles
    );
}

use sisd::data::{Column, Dataset};
use sisd::linalg::Matrix;
use sisd::search::{BeamConfig, BeamSearch};

/// A wide dataset (large `n`, so one extension clone is expensive) whose
/// condition language is eight `Eq` conditions on a single categorical
/// attribute: a depth-1 beam scores exactly the eight single-label
/// children of the root, whatever its width — so searches differing only
/// in `width` do identical generation, scoring, and logging work.
fn one_attribute_dataset(n: usize) -> Dataset {
    let mut rng = Xoshiro256pp::seed_from_u64(17);
    let labels: Vec<String> = (0..n).map(|i| format!("g{}", i % 8)).collect();
    let mut targets = Matrix::zeros(n, 1);
    for i in 0..n {
        targets[(i, 0)] = rng.normal() + (i % 8) as f64 * 0.1;
    }
    Dataset::new(
        "wide",
        vec!["group".into()],
        vec![Column::categorical_from_strs(
            &labels.iter().map(String::as_str).collect::<Vec<_>>(),
        )],
        vec!["y".into()],
        targets,
    )
}

#[test]
fn beam_levels_do_not_clone_next_frontier_parents() {
    let _serial = serial();
    // PR 4 left one known per-level allocation: the `width` best scored
    // results were cloned (intention + extension) into the next frontier
    // because the scored level moved into the top-k log immediately. The
    // beam now retains each scored level until the following level has
    // been generated and the frontier *borrows* it, so the clones are
    // gone — and with them the only width-dependent allocation of a
    // level transition. Pin that by comparing a `width = 1` search with a
    // `width = 8` search that do otherwise identical work (depth 1, all
    // eight children of the root generated, scored, and logged in both):
    // the old code paid `width × ext_bytes` in keeper clones (~57 KiB
    // difference here), the new code pays zero.
    const N: usize = 65_536;
    let data = one_attribute_dataset(N);
    let model = BackgroundModel::from_empirical(&data).unwrap();
    let cfg = |width: usize| BeamConfig {
        width,
        max_depth: 1,
        top_k: 20,
        ..BeamConfig::default()
    };
    // Warm lazy model state so the measured runs differ only in `width`.
    let warm = BeamSearch::new(cfg(8)).run(&data, &model);
    assert_eq!(
        warm.top.len(),
        8,
        "all eight groups must be scored and kept"
    );

    let measure = |width: usize| -> usize {
        let mut best = usize::MAX;
        for _ in 0..3 {
            let (res, _, bytes) = counted(|| BeamSearch::new(cfg(width)).run(&data, &model));
            assert_eq!(res.top.len(), 8);
            best = best.min(bytes);
        }
        best
    };
    let width1 = measure(1);
    let width8 = measure(8);
    let ext_bytes = N.div_ceil(64) * std::mem::size_of::<u64>();
    let extra = width8.saturating_sub(width1);
    assert!(
        extra < ext_bytes,
        "selecting a wider next frontier must not allocate per keeper: \
         extra={extra} bytes for 7 extra keepers vs {ext_bytes} bytes per \
         old-style extension clone (width1={width1}, width8={width8})"
    );
}

/// Like [`one_attribute_dataset`] but with 32 labels — the most the
/// condition language enumerates — so a depth-1 beam scores 32 children — enough (≥ 2 × the evaluator's min chunk) for the
/// scoring pass to actually fork a scoped thread.
fn many_group_dataset(n: usize) -> Dataset {
    let mut rng = Xoshiro256pp::seed_from_u64(23);
    let labels: Vec<String> = (0..n).map(|i| format!("g{:02}", i % 32)).collect();
    let mut targets = Matrix::zeros(n, 1);
    for i in 0..n {
        targets[(i, 0)] = rng.normal() + (i % 32) as f64 * 0.05;
    }
    Dataset::new(
        "wide32",
        vec!["group".into()],
        vec![Column::categorical_from_strs(
            &labels.iter().map(String::as_str).collect::<Vec<_>>(),
        )],
        vec!["y".into()],
        targets,
    )
}

#[test]
fn threaded_beam_levels_add_only_fixed_fork_bookkeeping() {
    let _serial = serial();
    // A parallel beam level forks scoped threads for its scoring batch and
    // joins them before the level ends. Pin what that adds over the
    // identical serial search: per-level fork bookkeeping (thread handles,
    // join packets, per-chunk result buffers), nothing proportional to
    // the candidates scored.
    const N: usize = 16_384;
    let data = many_group_dataset(N);
    let model = BackgroundModel::from_empirical(&data).unwrap();
    let cfg = BeamConfig {
        width: 8,
        max_depth: 1,
        top_k: 20,
        eval: EvalConfig::with_threads(4),
        ..BeamConfig::default()
    };
    let warm = BeamSearch::new(cfg.clone()).run(&data, &model);
    assert_eq!(warm.top.len(), 20);

    let mut steady = usize::MAX;
    for _ in 0..3 {
        let (res, a, _) = counted(|| BeamSearch::new(cfg.clone()).run(&data, &model));
        assert_eq!(res.top.len(), 20);
        steady = steady.min(a);
    }

    // The same search serially: identical generation, scoring, and
    // logging, no threads. The parallel run may add a handful of
    // fixed-size fork allocations per level but nothing proportional to
    // the batch.
    let serial_cfg = BeamConfig {
        eval: EvalConfig::default(),
        ..cfg.clone()
    };
    let mut serial = usize::MAX;
    for _ in 0..3 {
        let (res, a, _) = counted(|| BeamSearch::new(serial_cfg.clone()).run(&data, &model));
        assert_eq!(res.top.len(), 20);
        serial = serial.min(a);
    }
    assert!(
        steady <= serial + 64,
        "a parallel level must cost only fixed fork bookkeeping: \
         parallel={steady} allocations vs serial={serial}"
    );
    // Spawning allocates, so a threaded search that allocates no more than
    // the serial one never forked.
    assert!(
        steady > serial,
        "the threaded search must fork: parallel={steady} allocations vs serial={serial}"
    );
}

use sisd::obs::{NullSink, Obs, ObsHandle};

#[test]
fn obs_layer_adds_zero_allocations_to_steady_state_beam_levels() {
    let _serial = serial();
    // The sisd-obs hard contract, allocation half: a disabled handle is a
    // `None` branch, and even an *enabled* counters-only handle is nothing
    // but relaxed atomic adds and monotonic clock reads — so steady-state
    // beam levels must allocate identically with obs off, and with obs on
    // over a `NullSink`. (The registry itself is leaked once, outside any
    // measured region; bit-identity of the results is pinned separately in
    // `obs_parity.rs`.)
    const N: usize = 16_384;
    let data = one_attribute_dataset(N);
    let model = BackgroundModel::from_empirical(&data).unwrap();
    let cfg = |obs: ObsHandle| BeamConfig {
        width: 8,
        max_depth: 1,
        top_k: 20,
        eval: EvalConfig::default().with_obs(obs),
        ..BeamConfig::default()
    };
    let measure = |obs: ObsHandle| -> usize {
        // Warm run absorbs lazy one-time state (per-cell factors, the
        // span-depth thread-local) so the counted runs are steady-state.
        let warm = BeamSearch::new(cfg(obs)).run(&data, &model);
        assert_eq!(warm.top.len(), 8);
        let mut best = usize::MAX;
        for _ in 0..3 {
            let (res, a, _) = counted(|| BeamSearch::new(cfg(obs)).run(&data, &model));
            assert_eq!(res.top.len(), 8);
            best = best.min(a);
        }
        best
    };
    let disabled = measure(ObsHandle::disabled());
    let null_sink = measure(Obs::leaked(Box::new(NullSink)));
    assert_eq!(
        disabled, null_sink,
        "an enabled counters-only obs handle must allocate exactly as much \
         as a disabled one on steady-state beam levels \
         (disabled={disabled}, null-sink={null_sink})"
    );
}

use sisd::search::{Miner, MinerConfig};

/// Two categorical attributes of `labels` levels each, so a depth-2 beam
/// scores `2 × labels` root children and then, for each of its parents,
/// the `labels` conditions on the attribute the parent does not use; with
/// the first `dy` of two target columns, each thresholded at 0 into a 0/1
/// value when `binary`.
fn two_attribute_dataset(n: usize, labels: usize, dy: usize, binary: bool) -> Dataset {
    let mut rng = Xoshiro256pp::seed_from_u64(29);
    let a: Vec<String> = (0..n).map(|i| format!("a{}", i % labels)).collect();
    let b: Vec<String> = (0..n)
        .map(|i| format!("b{}", (i / labels + i) % labels))
        .collect();
    let mut targets = Matrix::zeros(n, dy);
    for i in 0..n {
        let row = [
            rng.normal() + (i % labels) as f64 * 0.1,
            rng.normal() - ((i / 3) % labels) as f64 * 0.05,
        ];
        for (j, v) in row.into_iter().take(dy).enumerate() {
            targets[(i, j)] = if binary {
                f64::from(u8::from(v > 0.0))
            } else {
                v
            };
        }
    }
    let column = |v: &[String]| {
        Column::categorical_from_strs(&v.iter().map(String::as_str).collect::<Vec<_>>())
    };
    Dataset::new(
        "two-attribute",
        vec!["a".into(), "b".into()],
        vec![column(&a), column(&b)],
        ["y1", "y2"][..dy].iter().map(|&y| y.into()).collect(),
        targets,
    )
}

#[test]
fn gaussian_beam_levels_allocate_per_kept_pattern_not_per_candidate() {
    let _serial = serial();
    // A beam level scores its children straight from the frontier arena
    // into compact records and builds an intention, an extension and a
    // pattern only for the `width` next-level parents and the top-k log's
    // entries; the dedup key is inline and the miner's condition masks
    // are built once. So two searches with the same `width` and `top_k`
    // whose levels differ only in how many candidates they score must
    // allocate nearly the same: fewer than one allocation per extra
    // candidate, where scoring each candidate used to allocate its
    // intention, extension, dedup key, observed mean and model-statistic
    // vectors.
    // Each (a, b) label pair covers N / labels² ≥ 8 rows at 32 labels,
    // above the default minimum coverage. On one target column a level
    // scores its children as sibling lanes, whose per-lane counts and
    // covered-cell list live in the per-chunk workspace, so the same bound
    // holds there; so do 0/1 targets, whose column counts live there too.
    const N: usize = 8192;
    let config = MinerConfig {
        beam: BeamConfig {
            width: 8,
            max_depth: 2,
            top_k: 10,
            ..BeamConfig::default()
        },
        ..MinerConfig::default()
    };
    let measure = |labels: usize, dy: usize, binary: bool| -> (usize, usize) {
        let data = two_attribute_dataset(N, labels, dy, binary);
        assert_eq!(data.target_bits().is_some(), binary);
        let miner = Miner::from_empirical(data, config.clone()).expect("model fits");
        // The first search builds the condition masks and warms the
        // model's lazy factors; the counted ones are steady state.
        let warm = miner.search_locations();
        assert_eq!(warm.top.len(), 10);
        let mut best = usize::MAX;
        for _ in 0..3 {
            let (res, a, _) = counted(|| miner.search_locations());
            assert_eq!(res.evaluated, warm.evaluated);
            best = best.min(a);
        }
        (warm.evaluated, best)
    };
    for (dy, binary) in [(2, false), (1, false), (2, true)] {
        let (few, few_allocs) = measure(8, dy, binary);
        let (many, many_allocs) = measure(32, dy, binary);
        assert!(
            many >= few + 200,
            "dy={dy} binary={binary}: the wider language must score many more candidates: \
             {few} vs {many}"
        );
        let extra = many - few;
        assert!(
            many_allocs < few_allocs + extra,
            "dy={dy} binary={binary}: a beam level must allocate O(width + top_k), not per \
             candidate: {few_allocs} allocations for {few} candidates, {many_allocs} for {many}"
        );
    }
}

use sisd::data::csv::{dataset_from_csv_str, dataset_to_csv_string};
use sisd::data::datasets::crime_synthetic;

#[test]
fn loading_a_csv_allocates_per_column_not_per_cell() {
    let _serial = serial();
    // The crime simulacrum's text: 1,994 rows of 122 description cells
    // and one target. The loader parses cells in place into per-column
    // buffers sized once from the row count, so its allocations follow
    // the columns (and the header's names), not the 245,262 cells; a
    // loader that makes a `String` per cell needs over 260,000.
    let data = crime_synthetic(2018);
    let text = dataset_to_csv_string(&data);
    let targets: Vec<&str> = data.target_names().iter().map(String::as_str).collect();
    let (loaded, allocs, _) = counted(|| dataset_from_csv_str("crime", &text, &targets).unwrap());
    assert_eq!((loaded.n(), loaded.dx(), loaded.dy()), (1994, 122, 1));
    assert!(
        allocs < 2_000,
        "loading the crime CSV made {allocs} allocations"
    );
}

mod common;

use sisd::search::{optimize_direction, SphereConfig};

#[test]
fn spread_direction_search_allocates_per_start_not_per_iteration() {
    let _serial = serial();
    // One workspace serves a whole direction search: every start, line-
    // search trial and gradient runs in its buffers. So a search whose
    // capped start runs ten times the iterations allocates exactly as
    // often; an objective that allocates per evaluation would not.
    let (data, model, ext) = common::water_after_three_steps();
    let search = |max_iters| {
        let cfg = SphereConfig {
            max_iters,
            ..common::water_config().sphere
        };
        counted(|| optimize_direction(&model, &data, &ext, &cfg))
    };
    let (short, short_allocs, _) = search(30);
    let (long, long_allocs, _) = search(300);
    assert!(
        long.iterations > short.iterations,
        "the longer search must do more work: {} vs {} iterations",
        long.iterations,
        short.iterations
    );
    assert_eq!(
        short_allocs, long_allocs,
        "a direction search must allocate per start, not per iteration: \
         {short_allocs} allocations at 30 iterations per start, {long_allocs} at 300"
    );
}
