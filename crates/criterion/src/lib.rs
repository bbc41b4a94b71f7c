//! Minimal offline stand-in for the `criterion` benchmark harness.
//!
//! The real criterion pulls in a sizable dependency tree that is not
//! available in this repository's hermetic build environment. This shim
//! implements just the API surface the `sisd-bench` benches use —
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`] /
//! [`BenchmarkGroup::bench_with_input`], [`Bencher::iter`], [`BenchmarkId`],
//! and the [`criterion_group!`] / [`criterion_main!`] macros — with a small
//! fixed-iteration timer. Positional CLI arguments act as criterion-style
//! substring filters on `group/id` paths (`cargo bench --bench
//! bench_frontier -- frontier_generation` times only that group).
//!
//! Each benchmark reports a bare median of 10 samples: no minimum, no
//! spread, no machine-readable output. Its numbers explain where an
//! end-to-end number's time goes; they never claim a speedup. A claim
//! rests on the interleaved stepbench pairs `scripts/stepbench_pairs.py`
//! runs and `BENCH_stepbench.json` records. Swap the workspace
//! `criterion` dependency back to crates.io for rigorous micro-benchmarks.

use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

/// Number of timed samples per benchmark. Each sample runs the closure once
/// after a single warm-up call.
const SAMPLES: usize = 10;

/// Substring filters parsed from the bench binary's CLI, criterion-style:
/// every non-flag argument is a filter, and a benchmark runs when its
/// `group/id` path contains any filter (all benchmarks run when no filter
/// is given). So `cargo bench --bench bench_frontier -- frontier_generation`
/// times only that group. Flags (arguments starting with `-`, e.g.
/// the `--bench` cargo appends) are ignored.
fn filters() -> &'static [String] {
    static FILTERS: OnceLock<Vec<String>> = OnceLock::new();
    FILTERS.get_or_init(|| {
        std::env::args()
            .skip(1)
            .filter(|a| !a.starts_with('-'))
            .collect()
    })
}

fn selected(path: &str) -> bool {
    let fs = filters();
    fs.is_empty() || fs.iter().any(|f| path.contains(f))
}

/// Entry point handed to every benchmark function.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.to_string(),
            header_printed: false,
            sample_size: SAMPLES,
        }
    }

    /// Runs a single stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.to_string();
        if selected(&id) {
            run_one(&id, SAMPLES, &mut f);
        }
        self
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    header_printed: bool,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples collected per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Prints the group header before the first selected benchmark, so
    /// fully filtered-out groups stay silent.
    fn header(&mut self) {
        if !self.header_printed {
            println!("group: {}", self.name);
            self.header_printed = true;
        }
    }

    /// Benchmarks `f` under the given id.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.to_string();
        if selected(&format!("{}/{id}", self.name)) {
            self.header();
            run_one(&id, self.sample_size, &mut f);
        }
        self
    }

    /// Benchmarks `f` with an explicit input value, criterion-style.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl fmt::Display,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.to_string();
        if selected(&format!("{}/{id}", self.name)) {
            self.header();
            run_one(&id, self.sample_size, &mut |b: &mut Bencher| f(b, input));
        }
        self
    }

    /// Ends the group. Present for API compatibility; the shim has no
    /// per-group teardown.
    pub fn finish(self) {}
}

/// Identifies one benchmark within a group, optionally parameterized.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id of the form `name/parameter`.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        Self {
            id: format!("{name}/{parameter}"),
        }
    }

    /// An id that is just the parameter, for single-function groups.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// Drives the closure under measurement.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    samples_ns: Vec<u128>,
}

impl Bencher {
    /// Times `routine`, recording one sample per timed window. The return
    /// value is passed through [`std::hint::black_box`] so the computation
    /// is not optimized away.
    ///
    /// Nanosecond-scale routines are batched so each timed window is long
    /// enough to amortize the `Instant::now()` overhead; the recorded sample
    /// is the window time divided by the batch size.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // Warm-up doubles as calibration for the batch size.
        let start = Instant::now();
        std::hint::black_box(routine());
        let estimate_ns = start.elapsed().as_nanos().max(1);
        const TARGET_WINDOW_NS: u128 = 20_000;
        let batch = (TARGET_WINDOW_NS / estimate_ns).clamp(1, 100_000) as u32;
        for _ in 0..self.samples.max(1) {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            self.samples_ns
                .push(start.elapsed().as_nanos() / u128::from(batch));
        }
    }
}

fn run_one<F>(id: &str, samples: usize, f: &mut F)
where
    F: FnMut(&mut Bencher),
{
    let mut bencher = Bencher {
        samples,
        samples_ns: Vec::with_capacity(samples),
    };
    f(&mut bencher);
    let mut ns = bencher.samples_ns;
    if ns.is_empty() {
        println!("  {id}: no samples (routine never called iter)");
        return;
    }
    ns.sort_unstable();
    let median = ns[ns.len() / 2];
    println!(
        "  {id}: median {} per iter ({} samples)",
        fmt_ns(median),
        ns.len()
    );
}

fn fmt_ns(ns: u128) -> String {
    match ns {
        0..=999 => format!("{ns} ns"),
        1_000..=999_999 => format!("{:.2} µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2} ms", ns as f64 / 1e6),
        _ => format!("{:.3} s", ns as f64 / 1e9),
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench `main` that runs each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
