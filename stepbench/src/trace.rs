//! The traced run's instrumentation, all of it in the benchmark: a span
//! around every public call a step makes, tagged with (session, step,
//! call); registry snapshots on either side of each span, whose deltas
//! give the layer counts and the engine's inner span times; and an
//! in-memory sink holding the engine's own events, written out as JSONL
//! when the run ends.

use crate::session::SetupTimes;
use crate::stats::{median, ms, ratio};
use crate::Figure;
use sisd_obs::{Metric, MetricsSnapshot, Obs, ObsHandle, TraceEvent, TraceSink};
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Tag of engine events recorded outside every benchmark call.
const UNTAGGED: usize = usize::MAX;

/// Every engine event of the run, tagged with the index of the call span
/// it happened in.
struct MemSink {
    tag: AtomicUsize,
    events: Mutex<Vec<(usize, TraceEvent)>>,
}

/// The sink the registry owns: a reference to the tracer's [`MemSink`].
struct SinkRef(&'static MemSink);

impl TraceSink for SinkRef {
    fn record(&self, event: &TraceEvent) {
        let tag = self.0.tag.load(Ordering::Relaxed);
        self.0
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((tag, *event));
    }
}

/// The registry metrics the layer figures come from, resolved by their
/// dotted names through `Metric::ALL`. The benchmark names no `Metric`
/// variant, so engine changes that keep the names need no edit here.
pub struct Names {
    eval_ns: Metric,
    eval_scored: Metric,
    candidates: Metric,
    count_pruned: Metric,
    dedup_dropped: Metric,
    materialized: Metric,
    grid: Metric,
    fused: Metric,
    /// Every `frontier.*_ns` span counter.
    frontier_ns: Vec<Metric>,
    refit_ns: Metric,
    refit_cycles: Metric,
    downdate_fallbacks: Metric,
    factor_rebuilds: Metric,
    cache_hits: Metric,
    cache_misses: Metric,
    snapshot_bytes: Metric,
}

fn by_name(name: &str) -> Result<Metric, String> {
    Metric::ALL
        .into_iter()
        .find(|m| m.name() == name)
        .ok_or_else(|| format!("the metrics registry has no `{name}`"))
}

impl Names {
    fn resolve() -> Result<Self, String> {
        Ok(Self {
            eval_ns: by_name("eval.score_ns")?,
            eval_scored: by_name("eval.scored")?,
            candidates: by_name("frontier.candidates")?,
            count_pruned: by_name("frontier.count_pruned")?,
            dedup_dropped: by_name("frontier.dedup_dropped")?,
            materialized: by_name("frontier.materialized")?,
            grid: by_name("frontier.grid_dispatch")?,
            fused: by_name("frontier.fused_dispatch")?,
            frontier_ns: Metric::ALL
                .into_iter()
                .filter(|m| m.name().starts_with("frontier.") && m.name().ends_with("_ns"))
                .collect(),
            refit_ns: by_name("refit.ns")?,
            refit_cycles: by_name("refit.cycles")?,
            downdate_fallbacks: by_name("refit.downdate_fallbacks")?,
            factor_rebuilds: by_name("model.factor_rebuilds")?,
            cache_hits: by_name("cache.hits")?,
            cache_misses: by_name("cache.misses")?,
            snapshot_bytes: by_name("snapshot.bytes")?,
        })
    }
}

/// One public call: its wall time and the registry on either side of it.
pub struct Call {
    pub dur: Duration,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl Call {
    /// How much a counter grew during the call.
    fn delta(&self, m: Metric) -> u64 {
        self.after.get(m).saturating_sub(self.before.get(m))
    }
}

/// The calls of one traced step, in order.
pub struct StepCalls {
    /// Position of the step in its session, from 0.
    pub step: usize,
    /// Model cells the step's search scored against.
    pub cells: usize,
    /// Wall time of the whole step.
    pub wall: Duration,
    pub search: Call,
    pub assimilate_location: Call,
    /// `mine_spread` and `assimilate_spread`, on the spread workload.
    pub spread: Option<(Call, Call)>,
    /// The step's save, on the durable workload.
    pub save: Option<Call>,
}

/// A call span of the trace file.
struct Span {
    session: u64,
    /// `None` for the session-end save and resume.
    step: Option<usize>,
    call: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Times public calls and keeps the run's trace.
pub struct Tracer {
    obs: ObsHandle,
    sink: &'static MemSink,
    epoch: Instant,
    spans: Vec<Span>,
    names: Names,
}

impl Tracer {
    /// A tracer over a fresh registry with an in-memory sink. Fails when a
    /// metric the layer figures need is missing from the registry.
    pub fn new() -> Result<Self, String> {
        let names = Names::resolve()?;
        // Like every `Obs::leaked` registry, the sink lives for the rest of
        // the process.
        let sink: &'static MemSink = Box::leak(Box::new(MemSink {
            tag: AtomicUsize::new(UNTAGGED),
            events: Mutex::new(Vec::new()),
        }));
        let obs = Obs::leaked(Box::new(SinkRef(sink)));
        Ok(Self {
            obs,
            sink,
            epoch: Instant::now(),
            spans: Vec::new(),
            names,
        })
    }

    /// The handle traced miners report to (`MinerConfig::with_obs`).
    pub fn obs(&self) -> ObsHandle {
        self.obs
    }

    pub fn names(&self) -> &Names {
        &self.names
    }

    /// Runs `f` as call `call` of `step` (`None`: the session's end) of
    /// `session`, in a span, with the engine events it causes tagged to it.
    pub fn call<T>(
        &mut self,
        session: u64,
        step: Option<usize>,
        call: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Call) {
        let before = self.obs.snapshot().unwrap_or_default();
        self.sink.tag.store(self.spans.len(), Ordering::Relaxed);
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.sink.tag.store(UNTAGGED, Ordering::Relaxed);
        let after = self.obs.snapshot().unwrap_or_default();
        self.spans.push(Span {
            session,
            step,
            call,
            start_ns: nanos(start.duration_since(self.epoch)),
            dur_ns: nanos(dur),
        });
        (out, Call { dur, before, after })
    }

    /// Writes the trace as JSONL: a provenance line, one line per call
    /// span, and one per engine event with the index of the call span it
    /// happened in (`null` outside every call).
    pub fn write_jsonl(
        &self,
        path: &Path,
        workload: &str,
        provenance: &[(&'static str, String)],
    ) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        let fields: Vec<String> = provenance
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", json_string(v)))
            .collect();
        writeln!(
            out,
            "{{\"kind\":\"provenance\",\"workload\":\"{workload}\",{}}}",
            fields.join(",")
        )?;
        for s in &self.spans {
            let step = s.step.map_or("null".to_string(), |k| (k + 1).to_string());
            writeln!(
                out,
                "{{\"kind\":\"call\",\"session\":{},\"step\":{step},\"call\":\"{}\",\"t\":{},\"dur_ns\":{}}}",
                s.session, s.call, s.start_ns, s.dur_ns
            )?;
        }
        let events = self
            .sink
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for (tag, event) in events.iter() {
            let span = if *tag == UNTAGGED {
                "null".to_string()
            } else {
                tag.to_string()
            };
            writeln!(
                out,
                "{{\"kind\":\"engine\",\"span\":{span},\"event\":{}}}",
                event.to_json()
            )?;
        }
        out.flush()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Per-layer samples of a traced run: times per call, counts as totals
/// over the traced steps.
#[derive(Default)]
pub struct Layers {
    pub setup: SetupTimes,
    pub conditions_ms: Vec<f64>,
    pub mask_build_ms: Vec<f64>,
    pub fingerprint_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    /// Each traced step's wall time over its untraced twin's.
    twin_ratios: Vec<f64>,
    search_ms: Vec<f64>,
    search_self_ms: Vec<f64>,
    refine_ms: Vec<f64>,
    eval_ms: Vec<f64>,
    spread_ms: Vec<f64>,
    assimilate_location_ms: Vec<f64>,
    assimilate_spread_ms: Vec<f64>,
    refit_ms: Vec<f64>,
    save_ms: Vec<f64>,
    save_bytes: Vec<f64>,
    steps: u64,
    /// The share of each traced step's wall time its call spans cover, by
    /// position in the session.
    coverage_at: Vec<Vec<f64>>,
    candidates: u64,
    materialized: u64,
    grid: u64,
    fused: u64,
    scored: u64,
    eval_ns: u64,
    cells: u64,
    refit_cycles: u64,
    downdate_fallbacks: u64,
    factor_rebuilds: u64,
    /// Factor-cache (hits, misses). The cache gauges count per miner, so a
    /// session counts with its last reading.
    session_cache: (u64, u64),
    cache: (u64, u64),
}

impl Layers {
    /// Attributes one traced step, timed against its untraced twin's
    /// `twin_ms` when there is one. Fails when the frontier's candidate
    /// accounting does not add up.
    pub fn step(
        &mut self,
        names: &Names,
        s: &StepCalls,
        twin_ms: Option<f64>,
    ) -> Result<(), String> {
        let search = &s.search;
        let eval_ns = search.delta(names.eval_ns);
        let frontier_ns: u64 = names.frontier_ns.iter().map(|&m| search.delta(m)).sum();
        self.search_ms.push(ms(search.dur));
        self.eval_ms.push(eval_ns as f64 / 1e6);
        self.refine_ms.push(frontier_ns as f64 / 1e6);
        self.search_self_ms
            .push(ms(search.dur) - (eval_ns + frontier_ns) as f64 / 1e6);
        let candidates = search.delta(names.candidates);
        let pruned = search.delta(names.count_pruned);
        let dropped = search.delta(names.dedup_dropped);
        let materialized = search.delta(names.materialized);
        self.candidates += candidates;
        self.materialized += materialized;
        self.grid += search.delta(names.grid);
        self.fused += search.delta(names.fused);
        self.scored += search.delta(names.eval_scored);
        self.eval_ns += eval_ns;
        self.cells += s.cells as u64;
        self.session_cache = (
            search.after.get(names.cache_hits),
            search.after.get(names.cache_misses),
        );

        let mut covered = search.dur + s.assimilate_location.dur;
        let mut last = &s.assimilate_location;
        self.assimilate_location_ms
            .push(ms(s.assimilate_location.dur));
        self.refit_ms
            .push(s.assimilate_location.delta(names.refit_ns) as f64 / 1e6);
        if let Some((mine, assimilate)) = &s.spread {
            self.spread_ms.push(ms(mine.dur));
            self.assimilate_spread_ms.push(ms(assimilate.dur));
            self.refit_ms
                .push(assimilate.delta(names.refit_ns) as f64 / 1e6);
            covered += mine.dur + assimilate.dur;
            last = assimilate;
        }
        if let Some(save) = &s.save {
            self.save(names, save);
            covered += save.dur;
            last = save;
        }
        let grown = |m: Metric| last.after.get(m).saturating_sub(search.before.get(m));
        self.refit_cycles += grown(names.refit_cycles);
        self.downdate_fallbacks += grown(names.downdate_fallbacks);
        self.factor_rebuilds += grown(names.factor_rebuilds);

        self.steps += 1;
        if let Some(twin_ms) = twin_ms {
            self.twin_ratios.push(ratio(ms(s.wall), twin_ms));
        }
        if self.coverage_at.len() <= s.step {
            self.coverage_at.resize_with(s.step + 1, Vec::new);
        }
        self.coverage_at[s.step].push(ratio(covered.as_secs_f64(), s.wall.as_secs_f64()));
        if candidates != pruned + dropped + materialized {
            return Err(format!(
                "frontier accounting does not add up: {candidates} candidates, but \
                 {pruned} count-pruned + {dropped} dedup-dropped + {materialized} materialized"
            ));
        }
        Ok(())
    }

    /// Attributes one save.
    pub fn save(&mut self, names: &Names, c: &Call) {
        self.save_ms.push(ms(c.dur));
        self.save_bytes.push(c.delta(names.snapshot_bytes) as f64);
    }

    /// Closes a session: its last factor-cache reading counts.
    pub fn end_session(&mut self) {
        self.cache.0 += self.session_cache.0;
        self.cache.1 += self.session_cache.1;
        self.session_cache = (0, 0);
    }

    /// The share of a traced step's wall time, from the start of its
    /// first call to the end of its last, that the call spans cover: the
    /// median over sessions at each step position, and the lowest of those
    /// over positions. Benchmark work between calls would lower it in every
    /// session; a step the host stalls once between two calls does not.
    pub fn coverage(&self) -> f64 {
        self.coverage_at
            .iter()
            .map(|at| median(at))
            .reduce(f64::min)
            .unwrap_or(0.0)
    }

    /// Every per-layer figure: medians per call for times, means per
    /// traced step for counts.
    pub fn figures(&self) -> Vec<Figure> {
        let per_step = |total: u64| ratio(total as f64, self.steps as f64);
        let (hits, misses) = self.cache;
        vec![
            ("setup.csv_load_ms", median(&self.setup.csv_load_ms), "ms"),
            ("setup.model_fit_ms", median(&self.setup.model_fit_ms), "ms"),
            ("search.conditions_ms", median(&self.conditions_ms), "ms"),
            ("frontier.mask_build_ms", median(&self.mask_build_ms), "ms"),
            ("search.ms", median(&self.search_ms), "ms"),
            ("search.self_ms", median(&self.search_self_ms), "ms"),
            ("frontier.refine_ms", median(&self.refine_ms), "ms"),
            ("frontier.candidates", per_step(self.candidates), "count"),
            (
                "frontier.materialized_ratio",
                ratio(self.materialized as f64, self.candidates as f64),
                "ratio",
            ),
            (
                "frontier.grid_share",
                ratio(self.grid as f64, (self.grid + self.fused) as f64),
                "ratio",
            ),
            ("eval.ms", median(&self.eval_ms), "ms"),
            ("eval.scored", per_step(self.scored), "count"),
            (
                "eval.ns_per_candidate",
                ratio(self.eval_ns as f64, self.scored as f64),
                "ns",
            ),
            ("model.cells", per_step(self.cells), "count"),
            (
                "cache.hit_ratio",
                ratio(hits as f64, (hits + misses) as f64),
                "ratio",
            ),
            ("spread.ms", median(&self.spread_ms), "ms"),
            (
                "assimilate.location_ms",
                median(&self.assimilate_location_ms),
                "ms",
            ),
            (
                "assimilate.spread_ms",
                median(&self.assimilate_spread_ms),
                "ms",
            ),
            ("refit.ms", median(&self.refit_ms), "ms"),
            ("refit.cycles", per_step(self.refit_cycles), "count"),
            (
                "refit.downdate_fallbacks",
                per_step(self.downdate_fallbacks),
                "count",
            ),
            (
                "model.factor_rebuilds",
                per_step(self.factor_rebuilds),
                "count",
            ),
            ("snapshot.save_ms", median(&self.save_ms), "ms"),
            ("snapshot.bytes", median(&self.save_bytes), "bytes"),
            ("snapshot.read_ms", median(&self.read_ms), "ms"),
            ("snapshot.restore_ms", median(&self.restore_ms), "ms"),
            ("data.fingerprint_ms", median(&self.fingerprint_ms), "ms"),
            ("trace.overhead", median(&self.twin_ratios) - 1.0, "ratio"),
            ("trace.coverage", self.coverage(), "ratio"),
        ]
    }
}
