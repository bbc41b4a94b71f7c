//! Zero-dependency metrics + tracing for the SISD engine.
//!
//! The engine's hot seams (evaluator, frontier refinement, model refit,
//! snapshots) report into a fixed-size [`MetricsRegistry`] of lock-free
//! atomic counters and gauges, optionally mirroring every update into a
//! [`TraceSink`] as a structured event stream. The whole layer is threaded
//! through configs as an [`ObsHandle`] — a `Copy` reference to a leaked
//! [`Obs`] — so instrumented code pays:
//!
//! - **disabled** (`ObsHandle::disabled()`, the default): one branch per
//!   call site, zero allocations, no clock reads;
//! - **enabled + [`NullSink`]**: relaxed atomic adds and monotonic clock
//!   reads for spans, still zero allocations;
//! - **enabled + real sink** ([`RingSink`], [`JsonlSink`]): the above plus
//!   one event record per update.
//!
//! Hard contract, pinned by tests in the workspace: observability never
//! changes search output bits, and the disabled path adds zero allocations
//! on steady-state beam levels.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Whether a metric accumulates (`Counter`) or holds a last-written value
/// (`Gauge`). Span-duration metrics are counters: each finished span adds
/// its nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone accumulator; JSONL events for it sum to the registry value.
    Counter,
    /// Last-write-wins sample; the final JSONL event equals the registry value.
    Gauge,
}

/// Every metric the engine reports, with a stable dotted name.
///
/// The enum doubles as the registry index, so the registry is a flat
/// array of atomics with no hashing on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Metric {
    /// Beam-level searches started (`run_beam_levels` entries).
    SearchRuns,
    /// Beam levels executed across all searches.
    SearchLevels,
    /// Nanoseconds spent inside beam levels (span).
    SearchLevelNs,
    /// Scoring batches submitted to the evaluator.
    EvalBatches,
    /// Candidates scored (non-degenerate scores produced).
    EvalScored,
    /// Nanoseconds spent scoring batches (span).
    EvalScoreNs,
    /// Frontier refinement calls (one per beam level per store).
    FrontierRefineCalls,
    /// Candidate (parent × condition) pairs counted in refinement.
    FrontierCandidates,
    /// Candidates rejected by the support floor/ceiling popcount filters.
    FrontierCountPruned,
    /// Candidates rejected by the caller's keep predicate (beam dedup,
    /// branch-and-bound optimistic bound).
    FrontierDedupDropped,
    /// Survivors kept in a frontier batch: the candidates that passed the
    /// support filters and the keep predicate. (Their words are computed
    /// later, when a consumer reads them.)
    FrontierMaterialized,
    /// Refinements routed through a grid-kernel path. Refinement has one
    /// path, the fused loop, so this always reads 0; the name stays in the
    /// registry because `stepbench`'s traced mode resolves it.
    FrontierGridDispatch,
    /// Refinements run (each one goes through the fused per-block loop).
    FrontierFusedDispatch,
    /// Nanoseconds in refinement (span).
    FrontierFusedNs,
    /// Refit entries.
    RefitRuns,
    /// Cyclic-descent cycles executed across refits.
    RefitCycles,
    /// Constraint projections applied across refits.
    RefitConstraintsUpdated,
    /// Dirty residuals recomputed across refits (sum of dirty-set sizes).
    RefitResidualsRecomputed,
    /// Retired: factors are never updated in place, so nothing increments
    /// it and it reads 0. It stays registered because `stepbench`'s traced
    /// mode resolves it by name.
    RefitDowndateFallbacks,
    /// Nanoseconds inside refit (span).
    RefitNs,
    /// Location projections that built their constraint's `S`-factor: the
    /// first one, the first after a spread tilt dropped it, and the first
    /// after a restore.
    ModelFactorRebuilds,
    /// Location projections that reused their constraint's cached
    /// `S`-factor.
    ModelFactorReuses,
    /// Hits of the retired mixed-covariance factor cache: nothing sets
    /// it, so it reads 0. The three `cache.*` gauges stay registered
    /// because readers resolve them by name.
    CacheHits,
    /// Misses of the retired factor cache (reads 0, see `CacheHits`).
    CacheMisses,
    /// Entries of the retired factor cache (reads 0, see `CacheHits`).
    CacheEntries,
    /// Cycles used by the most recent refit (gauge).
    RefitLastCycles,
    /// Constraints updated by the most recent refit (gauge).
    RefitLastConstraintsUpdated,
    /// Bytes written by session snapshot saves (finished containers only).
    SnapshotBytes,
    /// Nanoseconds spent encoding and durably writing snapshots.
    SnapshotWriteNs,
    /// Nanoseconds spent decoding and validating snapshot restores.
    SnapshotRestoreNs,
    /// Restores rejected for corruption, truncation, or version skew.
    SnapshotCrcFailures,
    /// Spread-direction searches' starts (seed directions; coordinate
    /// pairs of a 2-sparse search).
    SphereStarts,
    /// Gradient-ascent iterations across spread-direction starts (grid and
    /// golden-section points of a 2-sparse search).
    SphereIterations,
    /// Spread-IC evaluations: each start's first point and every
    /// line-search trial (every point of a 2-sparse search).
    SphereEvaluations,
    /// Spread-IC gradients assembled: one per start and one per accepted
    /// ascent step.
    SphereGradients,
    /// Spread-direction starts that ended on the iteration cap.
    SphereCappedStarts,
}

impl Metric {
    /// Number of metrics; the registry array length.
    pub const COUNT: usize = 36;

    /// Every metric, in registry order.
    pub const ALL: [Metric; Metric::COUNT] = [
        Metric::SearchRuns,
        Metric::SearchLevels,
        Metric::SearchLevelNs,
        Metric::EvalBatches,
        Metric::EvalScored,
        Metric::EvalScoreNs,
        Metric::FrontierRefineCalls,
        Metric::FrontierCandidates,
        Metric::FrontierCountPruned,
        Metric::FrontierDedupDropped,
        Metric::FrontierMaterialized,
        Metric::FrontierGridDispatch,
        Metric::FrontierFusedDispatch,
        Metric::FrontierFusedNs,
        Metric::RefitRuns,
        Metric::RefitCycles,
        Metric::RefitConstraintsUpdated,
        Metric::RefitResidualsRecomputed,
        Metric::RefitDowndateFallbacks,
        Metric::RefitNs,
        Metric::ModelFactorRebuilds,
        Metric::ModelFactorReuses,
        Metric::CacheHits,
        Metric::CacheMisses,
        Metric::CacheEntries,
        Metric::RefitLastCycles,
        Metric::RefitLastConstraintsUpdated,
        Metric::SnapshotBytes,
        Metric::SnapshotWriteNs,
        Metric::SnapshotRestoreNs,
        Metric::SnapshotCrcFailures,
        Metric::SphereStarts,
        Metric::SphereIterations,
        Metric::SphereEvaluations,
        Metric::SphereGradients,
        Metric::SphereCappedStarts,
    ];

    /// Registry slot of this metric.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable dotted name used in trace events and reports.
    pub const fn name(self) -> &'static str {
        match self {
            Metric::SearchRuns => "search.runs",
            Metric::SearchLevels => "search.levels",
            Metric::SearchLevelNs => "search.level_ns",
            Metric::EvalBatches => "eval.batches",
            Metric::EvalScored => "eval.scored",
            Metric::EvalScoreNs => "eval.score_ns",
            Metric::FrontierRefineCalls => "frontier.refine_calls",
            Metric::FrontierCandidates => "frontier.candidates",
            Metric::FrontierCountPruned => "frontier.count_pruned",
            Metric::FrontierDedupDropped => "frontier.dedup_dropped",
            Metric::FrontierMaterialized => "frontier.materialized",
            Metric::FrontierGridDispatch => "frontier.grid_dispatch",
            Metric::FrontierFusedDispatch => "frontier.fused_dispatch",
            Metric::FrontierFusedNs => "frontier.fused_ns",
            Metric::RefitRuns => "refit.runs",
            Metric::RefitCycles => "refit.cycles",
            Metric::RefitConstraintsUpdated => "refit.constraints_updated",
            Metric::RefitResidualsRecomputed => "refit.residuals_recomputed",
            Metric::RefitDowndateFallbacks => "refit.downdate_fallbacks",
            Metric::RefitNs => "refit.ns",
            Metric::ModelFactorRebuilds => "model.factor_rebuilds",
            Metric::ModelFactorReuses => "model.factor_reuses",
            Metric::CacheHits => "cache.hits",
            Metric::CacheMisses => "cache.misses",
            Metric::CacheEntries => "cache.entries",
            Metric::RefitLastCycles => "refit.last_cycles",
            Metric::RefitLastConstraintsUpdated => "refit.last_constraints_updated",
            Metric::SnapshotBytes => "snapshot.bytes",
            Metric::SnapshotWriteNs => "snapshot.write_ns",
            Metric::SnapshotRestoreNs => "snapshot.restore_ns",
            Metric::SnapshotCrcFailures => "snapshot.crc_failures",
            Metric::SphereStarts => "sphere.starts",
            Metric::SphereIterations => "sphere.iterations",
            Metric::SphereEvaluations => "sphere.evaluations",
            Metric::SphereGradients => "sphere.gradients",
            Metric::SphereCappedStarts => "sphere.capped_starts",
        }
    }

    /// Counter or gauge.
    pub const fn kind(self) -> MetricKind {
        match self {
            Metric::CacheHits
            | Metric::CacheMisses
            | Metric::CacheEntries
            | Metric::RefitLastCycles
            | Metric::RefitLastConstraintsUpdated => MetricKind::Gauge,
            _ => MetricKind::Counter,
        }
    }

    /// Inverse of [`Metric::name`].
    pub fn from_name(name: &str) -> Option<Metric> {
        Metric::ALL.iter().copied().find(|m| m.name() == name)
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Flat array of lock-free metric slots. Counters accumulate with relaxed
/// `fetch_add`; gauges overwrite with relaxed `store`. All operations are
/// allocation-free.
#[derive(Debug)]
pub struct MetricsRegistry {
    slots: [AtomicU64; Metric::COUNT],
}

impl MetricsRegistry {
    /// A registry with every slot at zero.
    pub const fn new() -> Self {
        MetricsRegistry {
            slots: [const { AtomicU64::new(0) }; Metric::COUNT],
        }
    }

    /// Add `v` to a counter slot.
    #[inline]
    pub fn add(&self, metric: Metric, v: u64) {
        self.slots[metric.index()].fetch_add(v, Ordering::Relaxed);
    }

    /// Overwrite a gauge slot.
    #[inline]
    pub fn set(&self, metric: Metric, v: u64) {
        self.slots[metric.index()].store(v, Ordering::Relaxed);
    }

    /// Current value of one slot.
    #[inline]
    pub fn get(&self, metric: Metric) -> u64 {
        self.slots[metric.index()].load(Ordering::Relaxed)
    }

    /// Copy every slot into a plain snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut values = [0u64; Metric::COUNT];
        for (slot, out) in self.slots.iter().zip(values.iter_mut()) {
            *out = slot.load(Ordering::Relaxed);
        }
        MetricsSnapshot { values }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

/// Point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    values: [u64; Metric::COUNT],
}

impl MetricsSnapshot {
    /// Value of one metric at snapshot time.
    #[inline]
    pub fn get(&self, metric: Metric) -> u64 {
        self.values[metric.index()]
    }

    /// `(metric, value)` pairs in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (Metric, u64)> + '_ {
        Metric::ALL.iter().map(move |&m| (m, self.get(m)))
    }
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            values: [0u64; Metric::COUNT],
        }
    }
}

/// One structured trace record. Timestamps are nanoseconds since the
/// owning [`Obs`] was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A counter was incremented by `value`.
    Counter {
        /// Nanoseconds since the obs epoch.
        t_ns: u64,
        /// Which counter.
        metric: Metric,
        /// The increment (not the running total).
        value: u64,
    },
    /// A gauge was overwritten with `value`.
    Gauge {
        /// Nanoseconds since the obs epoch.
        t_ns: u64,
        /// Which gauge.
        metric: Metric,
        /// The new value.
        value: u64,
    },
    /// A span finished after `dur_ns`, at `depth` on its thread's stack.
    Span {
        /// Nanoseconds since the obs epoch, at span end.
        t_ns: u64,
        /// The span's duration counter.
        metric: Metric,
        /// Duration in nanoseconds (also added to the counter).
        dur_ns: u64,
        /// Nesting depth on the recording thread (0 = outermost).
        depth: u32,
    },
}

impl TraceEvent {
    /// The metric this event touches.
    pub fn metric(&self) -> Metric {
        match *self {
            TraceEvent::Counter { metric, .. }
            | TraceEvent::Gauge { metric, .. }
            | TraceEvent::Span { metric, .. } => metric,
        }
    }

    /// The value delta this event contributes: counter increments and span
    /// durations sum to the registry value; gauge events overwrite it.
    pub fn value(&self) -> u64 {
        match *self {
            TraceEvent::Counter { value, .. } | TraceEvent::Gauge { value, .. } => value,
            TraceEvent::Span { dur_ns, .. } => dur_ns,
        }
    }

    /// Serialize as one JSON object (no trailing newline). Metric names are
    /// static identifiers, so no string escaping is needed.
    pub fn to_json(&self) -> String {
        match *self {
            TraceEvent::Counter { t_ns, metric, value } => format!(
                "{{\"t\":{t_ns},\"kind\":\"counter\",\"metric\":\"{}\",\"v\":{value}}}",
                metric.name()
            ),
            TraceEvent::Gauge { t_ns, metric, value } => format!(
                "{{\"t\":{t_ns},\"kind\":\"gauge\",\"metric\":\"{}\",\"v\":{value}}}",
                metric.name()
            ),
            TraceEvent::Span {
                t_ns,
                metric,
                dur_ns,
                depth,
            } => format!(
                "{{\"t\":{t_ns},\"kind\":\"span\",\"metric\":\"{}\",\"v\":{dur_ns},\"depth\":{depth}}}",
                metric.name()
            ),
        }
    }

    /// Parse a line produced by [`TraceEvent::to_json`]. Returns `None` for
    /// anything that is not a well-formed event with a known metric.
    pub fn parse_json(line: &str) -> Option<TraceEvent> {
        fn field_u64(line: &str, key: &str) -> Option<u64> {
            let pat = format!("\"{key}\":");
            let start = line.find(&pat)? + pat.len();
            let rest = &line[start..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        }
        fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
            let pat = format!("\"{key}\":\"");
            let start = line.find(&pat)? + pat.len();
            let rest = &line[start..];
            let end = rest.find('"')?;
            Some(&rest[..end])
        }
        let line = line.trim();
        if !line.starts_with('{') || !line.ends_with('}') {
            return None;
        }
        let t_ns = field_u64(line, "t")?;
        let metric = Metric::from_name(field_str(line, "metric")?)?;
        let value = field_u64(line, "v")?;
        match field_str(line, "kind")? {
            "counter" => Some(TraceEvent::Counter {
                t_ns,
                metric,
                value,
            }),
            "gauge" => Some(TraceEvent::Gauge {
                t_ns,
                metric,
                value,
            }),
            "span" => Some(TraceEvent::Span {
                t_ns,
                metric,
                dur_ns: value,
                depth: field_u64(line, "depth")? as u32,
            }),
            _ => None,
        }
    }
}

/// Destination for trace events. Implementations must be cheap to call
/// concurrently; the engine only records events when a non-null sink is
/// attached.
pub trait TraceSink: Send + Sync {
    /// Record one event.
    fn record(&self, event: &TraceEvent);
    /// Flush buffered output (no-op by default).
    fn flush(&self) {}
    /// `true` only for [`NullSink`]; lets [`Obs`] skip event construction.
    fn is_null(&self) -> bool {
        false
    }
}

/// Discards every event. The default sink: with it attached, enabled
/// observability is just atomic adds and clock reads.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: &TraceEvent) {}
    fn is_null(&self) -> bool {
        true
    }
}

/// Keeps the most recent `capacity` events in memory; older events are
/// dropped (and counted).
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    inner: Mutex<RingInner>,
}

#[derive(Debug)]
struct RingInner {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity: capacity.max(1),
            inner: Mutex::new(RingInner {
                events: VecDeque::new(),
                dropped: 0,
            }),
        }
    }

    /// Copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        match self.inner.lock() {
            Ok(inner) => inner.events.iter().copied().collect(),
            Err(poisoned) => {
                self.inner.clear_poison();
                poisoned.into_inner().events.iter().copied().collect()
            }
        }
    }

    /// Number of events evicted to stay within capacity, plus events
    /// dropped while recovering from a poisoned lock.
    pub fn dropped(&self) -> u64 {
        match self.inner.lock() {
            Ok(inner) => inner.dropped,
            Err(poisoned) => {
                self.inner.clear_poison();
                poisoned.into_inner().dropped
            }
        }
    }
}

impl TraceSink for RingSink {
    fn record(&self, event: &TraceEvent) {
        // A panic on another thread mid-record must not cascade into every
        // later trace event: un-poison the lock, count this event as
        // dropped (the ring's contents may straddle the interrupted
        // write), and keep recording.
        let mut inner = match self.inner.lock() {
            Ok(inner) => inner,
            Err(poisoned) => {
                self.inner.clear_poison();
                poisoned.into_inner().dropped += 1;
                return;
            }
        };
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(*event);
    }
}

/// Appends one JSON object per event to a file. Tracing must never fail
/// the search, so write errors abort nothing — but they are not silent
/// either: every failed write or flush increments
/// [`JsonlSink::write_errors`], and the first one is reported to stderr
/// (a `--trace-out` pointed at a full or read-only disk announces itself
/// instead of producing a mysteriously empty file). A lock poisoned by a
/// panicking recorder is cleared and the in-flight event counted as
/// dropped.
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
    dropped: AtomicU64,
    write_errors: AtomicU64,
    error_reported: std::sync::atomic::AtomicBool,
}

impl JsonlSink {
    /// Create (truncate) `path` and return a sink writing to it.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(file)),
            dropped: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            error_reported: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Events discarded while recovering from a poisoned writer lock.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Failed writes/flushes since creation (0 means the trace is
    /// complete on disk).
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// Count one I/O failure and report the first to stderr.
    fn note_write_error(&self, err: &io::Error) {
        self.write_errors.fetch_add(1, Ordering::Relaxed);
        if !self.error_reported.swap(true, Ordering::Relaxed) {
            eprintln!("sisd-obs: trace write failed: {err} (further errors counted, not printed)");
        }
    }

    /// Lock the writer, clearing poison left by a panicking recorder.
    /// `None` means the lock was poisoned: the caller should skip its
    /// write (the interrupted writer may have left a partial line in the
    /// buffer) rather than risk a second panic; the next call proceeds
    /// normally.
    fn lock_writer(&self) -> Option<std::sync::MutexGuard<'_, BufWriter<File>>> {
        match self.writer.lock() {
            Ok(guard) => Some(guard),
            Err(_) => {
                self.writer.clear_poison();
                None
            }
        }
    }
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("JsonlSink")
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: &TraceEvent) {
        let Some(mut writer) = self.lock_writer() else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if let Err(e) = writeln!(writer, "{}", event.to_json()) {
            drop(writer);
            self.note_write_error(&e);
        }
    }

    fn flush(&self) {
        let Some(mut writer) = self.lock_writer() else {
            return;
        };
        if let Err(e) = writer.flush() {
            drop(writer);
            self.note_write_error(&e);
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Owns a registry, a sink, and the trace epoch. Instrumented code never
/// holds an `Obs` directly — it copies an [`ObsHandle`] out of its config.
pub struct Obs {
    registry: MetricsRegistry,
    sink: Box<dyn TraceSink>,
    /// `false` when the sink is a [`NullSink`]; lets the hot path skip
    /// event construction entirely.
    has_sink: bool,
    epoch: Instant,
}

impl Obs {
    /// An obs with the given sink.
    pub fn new(sink: Box<dyn TraceSink>) -> Self {
        let has_sink = !sink.is_null();
        Obs {
            registry: MetricsRegistry::new(),
            sink,
            has_sink,
            epoch: Instant::now(),
        }
    }

    /// An obs that counts into the registry but records no events.
    pub fn null() -> Self {
        Obs::new(Box::new(NullSink))
    }

    /// Leak an obs with the given sink and return its handle. The
    /// allocation is small, intentional, and lives for the rest of the
    /// process.
    pub fn leaked(sink: Box<dyn TraceSink>) -> ObsHandle {
        ObsHandle(Some(Box::leak(Box::new(Obs::new(sink)))))
    }

    /// The registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The sink.
    pub fn sink(&self) -> &dyn TraceSink {
        &*self.sink
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("has_sink", &self.has_sink)
            .finish_non_exhaustive()
    }
}

thread_local! {
    /// Per-thread span nesting depth. Const-initialized: no lazy-init
    /// allocation on first use.
    static SPAN_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Copyable reference to an [`Obs`], or disabled: configs embed it by
/// value, equality is identity, and the default is disabled.
#[derive(Clone, Copy)]
pub struct ObsHandle(Option<&'static Obs>);

impl ObsHandle {
    /// The disabled handle: every operation is a single branch.
    pub const fn disabled() -> Self {
        ObsHandle(None)
    }

    /// A handle to a leaked or otherwise `'static` obs.
    pub fn to(obs: &'static Obs) -> Self {
        ObsHandle(Some(obs))
    }

    /// Whether a registry is attached.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The underlying obs, if enabled.
    #[inline]
    pub fn get(&self) -> Option<&'static Obs> {
        self.0
    }

    /// Add `v` to a counter (and record an event if a real sink is attached).
    #[inline]
    pub fn add(&self, metric: Metric, v: u64) {
        if let Some(obs) = self.0 {
            obs.registry.add(metric, v);
            if obs.has_sink {
                obs.sink.record(&TraceEvent::Counter {
                    t_ns: obs.now_ns(),
                    metric,
                    value: v,
                });
            }
        }
    }

    /// Add 1 to a counter.
    #[inline]
    pub fn incr(&self, metric: Metric) {
        self.add(metric, 1);
    }

    /// Overwrite a gauge (and record an event if a real sink is attached).
    #[inline]
    pub fn set(&self, metric: Metric, v: u64) {
        if let Some(obs) = self.0 {
            obs.registry.set(metric, v);
            if obs.has_sink {
                obs.sink.record(&TraceEvent::Gauge {
                    t_ns: obs.now_ns(),
                    metric,
                    value: v,
                });
            }
        }
    }

    /// Start a span whose duration accumulates into `metric` when the
    /// returned guard drops. Disabled handles return an inert guard
    /// without reading the clock.
    #[inline]
    pub fn span(&self, metric: Metric) -> SpanGuard {
        match self.0 {
            None => SpanGuard {
                obs: None,
                metric,
                start: None,
                depth: 0,
            },
            Some(obs) => {
                let depth = SPAN_DEPTH.with(|d| {
                    let depth = d.get();
                    d.set(depth + 1);
                    depth
                });
                SpanGuard {
                    obs: Some(obs),
                    metric,
                    start: Some(Instant::now()),
                    depth,
                }
            }
        }
    }

    /// Snapshot the registry, if enabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.0.map(|obs| obs.registry.snapshot())
    }

    /// Snapshot the registry as a [`SearchReport`], if enabled.
    pub fn report(&self) -> Option<SearchReport> {
        self.snapshot().map(SearchReport::from_snapshot)
    }

    /// Flush the sink, if enabled.
    pub fn flush(&self) {
        if let Some(obs) = self.0 {
            obs.sink.flush();
        }
    }
}

impl Default for ObsHandle {
    fn default() -> Self {
        ObsHandle::disabled()
    }
}

impl PartialEq for ObsHandle {
    fn eq(&self, other: &Self) -> bool {
        match (self.0, other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => std::ptr::eq(a, b),
            _ => false,
        }
    }
}

impl Eq for ObsHandle {}

impl fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            None => f.write_str("ObsHandle(disabled)"),
            Some(obs) => write!(f, "ObsHandle({obs:p})"),
        }
    }
}

/// RAII span timer from [`ObsHandle::span`]. On drop, adds the elapsed
/// nanoseconds to its metric and records a span event when a real sink is
/// attached.
#[must_use = "a span measures nothing unless it is held until the timed region ends"]
#[derive(Debug)]
pub struct SpanGuard {
    obs: Option<&'static Obs>,
    metric: Metric,
    start: Option<Instant>,
    depth: u32,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let (Some(obs), Some(start)) = (self.obs, self.start) {
            let dur_ns = start.elapsed().as_nanos() as u64;
            SPAN_DEPTH.with(|d| d.set(self.depth));
            obs.registry.add(self.metric, dur_ns);
            if obs.has_sink {
                obs.sink.record(&TraceEvent::Span {
                    t_ns: obs.now_ns(),
                    metric: self.metric,
                    dur_ns,
                    depth: self.depth,
                });
            }
        }
    }
}

/// Human-readable summary of one registry snapshot, grouped by subsystem.
/// Produced per `Miner` run (or from any [`ObsHandle`]).
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchReport {
    snapshot: MetricsSnapshot,
}

impl SearchReport {
    /// Wrap a snapshot.
    pub fn from_snapshot(snapshot: MetricsSnapshot) -> Self {
        SearchReport { snapshot }
    }

    /// The underlying snapshot.
    pub fn snapshot(&self) -> &MetricsSnapshot {
        &self.snapshot
    }

    /// Value of one metric.
    #[inline]
    pub fn get(&self, metric: Metric) -> u64 {
        self.snapshot.get(metric)
    }
}

/// Format nanoseconds as a compact human duration.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl fmt::Display for SearchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = |m: Metric| self.snapshot.get(m);
        writeln!(f, "search report:")?;
        writeln!(
            f,
            "  search  : {} run(s), {} level(s), {} in levels",
            g(Metric::SearchRuns),
            g(Metric::SearchLevels),
            fmt_ns(g(Metric::SearchLevelNs)),
        )?;
        writeln!(
            f,
            "  eval    : {} scored in {} batch(es), {}",
            g(Metric::EvalScored),
            g(Metric::EvalBatches),
            fmt_ns(g(Metric::EvalScoreNs)),
        )?;
        writeln!(
            f,
            "  frontier: {} refine call(s): {} counted, {} count-pruned, {} dedup-dropped, \
             {} materialized in {}",
            g(Metric::FrontierRefineCalls),
            g(Metric::FrontierCandidates),
            g(Metric::FrontierCountPruned),
            g(Metric::FrontierDedupDropped),
            g(Metric::FrontierMaterialized),
            fmt_ns(g(Metric::FrontierFusedNs)),
        )?;
        writeln!(
            f,
            "  refit   : {} run(s): {} cycle(s), {} re-projection(s), \
             {} residual(s) recomputed, {}",
            g(Metric::RefitRuns),
            g(Metric::RefitCycles),
            g(Metric::RefitConstraintsUpdated),
            g(Metric::RefitResidualsRecomputed),
            fmt_ns(g(Metric::RefitNs)),
        )?;
        writeln!(
            f,
            "            last refit: {} cycle(s), {} re-projection(s)",
            g(Metric::RefitLastCycles),
            g(Metric::RefitLastConstraintsUpdated),
        )?;
        writeln!(
            f,
            "  model   : {} factor rebuild(s) / {} reuse(s)",
            g(Metric::ModelFactorRebuilds),
            g(Metric::ModelFactorReuses),
        )?;
        write!(
            f,
            "  sphere  : {} start(s), {} iteration(s), {} evaluation(s), {} gradient(s), \
             {} start(s) on the cap",
            g(Metric::SphereStarts),
            g(Metric::SphereIterations),
            g(Metric::SphereEvaluations),
            g(Metric::SphereGradients),
            g(Metric::SphereCappedStarts),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_roundtrip() {
        let mut seen = std::collections::HashSet::new();
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m.index(), i, "ALL must be in registry order");
            assert!(seen.insert(m.name()), "duplicate metric name {}", m.name());
            assert_eq!(Metric::from_name(m.name()), Some(*m));
        }
        assert_eq!(seen.len(), Metric::COUNT);
        assert_eq!(Metric::from_name("no.such.metric"), None);
    }

    #[test]
    fn registry_counts_and_snapshots() {
        let reg = MetricsRegistry::new();
        reg.add(Metric::EvalScored, 5);
        reg.add(Metric::EvalScored, 7);
        reg.set(Metric::RefitLastCycles, 3);
        reg.set(Metric::RefitLastCycles, 4);
        let snap = reg.snapshot();
        assert_eq!(snap.get(Metric::EvalScored), 12);
        assert_eq!(snap.get(Metric::RefitLastCycles), 4);
        assert_eq!(snap.get(Metric::SearchRuns), 0);
        assert_eq!(snap.iter().count(), Metric::COUNT);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = ObsHandle::disabled();
        assert!(!h.enabled());
        h.incr(Metric::SearchRuns);
        h.set(Metric::RefitLastCycles, 9);
        drop(h.span(Metric::SearchLevelNs));
        assert_eq!(h.snapshot(), None);
        assert_eq!(h.report(), None);
        assert_eq!(h, ObsHandle::default());
    }

    #[test]
    fn handle_equality_is_identity() {
        let a = Obs::leaked(Box::new(NullSink));
        let b = Obs::leaked(Box::new(NullSink));
        assert_eq!(a, a);
        assert_ne!(a, b);
        assert_ne!(a, ObsHandle::disabled());
    }

    #[test]
    fn spans_accumulate_and_nest() {
        let ring: &'static RingSink = Box::leak(Box::new(RingSink::new(16)));
        let h = Obs::leaked(Box::new(SharedRing(ring)));
        {
            let _outer = h.span(Metric::SearchLevelNs);
            let _inner = h.span(Metric::FrontierFusedNs);
        }
        let snap = h.snapshot().unwrap();
        // Durations are tiny but the counters must have been touched; the
        // ring records exact depths.
        let events = ring.events();
        assert_eq!(events.len(), 2);
        match events[0] {
            TraceEvent::Span { metric, depth, .. } => {
                assert_eq!(metric, Metric::FrontierFusedNs);
                assert_eq!(depth, 1);
            }
            other => panic!("unexpected event {other:?}"),
        }
        match events[1] {
            TraceEvent::Span { metric, depth, .. } => {
                assert_eq!(metric, Metric::SearchLevelNs);
                assert_eq!(depth, 0);
            }
            other => panic!("unexpected event {other:?}"),
        }
        let inner_ns = match events[0] {
            TraceEvent::Span { dur_ns, .. } => dur_ns,
            _ => unreachable!(),
        };
        assert_eq!(snap.get(Metric::FrontierFusedNs), inner_ns);
    }

    /// Forwards to a leaked ring so the test can inspect events while the
    /// obs owns the sink box.
    struct SharedRing(&'static RingSink);
    impl TraceSink for SharedRing {
        fn record(&self, event: &TraceEvent) {
            self.0.record(event);
        }
    }

    #[test]
    fn ring_sink_evicts_oldest() {
        let ring = RingSink::new(2);
        for v in 0..5u64 {
            ring.record(&TraceEvent::Counter {
                t_ns: v,
                metric: Metric::EvalScored,
                value: v,
            });
        }
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].value(), 3);
        assert_eq!(events[1].value(), 4);
        assert_eq!(ring.dropped(), 3);
    }

    #[test]
    fn ring_sink_recovers_from_poisoned_lock() {
        let ring: &'static RingSink = Box::leak(Box::new(RingSink::new(4)));
        let event = TraceEvent::Counter {
            t_ns: 1,
            metric: Metric::EvalScored,
            value: 1,
        };
        ring.record(&event);
        // Poison the lock: panic on another thread while holding it.
        std::thread::spawn(move || {
            let _guard = ring.inner.lock().unwrap();
            panic!("poison the ring lock");
        })
        .join()
        .unwrap_err();
        assert!(ring.inner.is_poisoned());
        // First record after the poison is counted dropped, not panicked...
        ring.record(&event);
        assert_eq!(ring.dropped(), 1);
        // ...and recording works again afterwards.
        ring.record(&event);
        assert_eq!(ring.events().len(), 2);
        assert!(!ring.inner.is_poisoned());
    }

    #[test]
    fn jsonl_sink_recovers_from_poisoned_lock() {
        let path = std::env::temp_dir().join(format!(
            "sisd_obs_poison_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let sink: &'static JsonlSink = Box::leak(Box::new(JsonlSink::create(&path).unwrap()));
        let event = TraceEvent::Counter {
            t_ns: 1,
            metric: Metric::EvalScored,
            value: 1,
        };
        sink.record(&event);
        std::thread::spawn(move || {
            let _guard = sink.writer.lock().unwrap();
            panic!("poison the writer lock");
        })
        .join()
        .unwrap_err();
        sink.record(&event); // dropped, lock un-poisoned
        assert_eq!(sink.dropped(), 1);
        sink.record(&event);
        sink.flush();
        assert_eq!(sink.write_errors(), 0);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(text.lines().count(), 2, "one event dropped, two written");
    }

    #[test]
    fn jsonl_sink_surfaces_write_errors() {
        // Writing to a directory's fd is not possible; instead, wrap a
        // file, then make flushing fail by closing the fd underneath is
        // platform-dependent — so exercise the counter path directly.
        let path = std::env::temp_dir().join(format!(
            "sisd_obs_werr_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let sink = JsonlSink::create(&path).unwrap();
        assert_eq!(sink.write_errors(), 0);
        sink.note_write_error(&io::Error::other("disk full"));
        sink.note_write_error(&io::Error::other("disk full"));
        assert_eq!(sink.write_errors(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_event_json_roundtrips() {
        let events = [
            TraceEvent::Counter {
                t_ns: 123,
                metric: Metric::EvalScored,
                value: 42,
            },
            TraceEvent::Gauge {
                t_ns: 456,
                metric: Metric::RefitLastCycles,
                value: 4,
            },
            TraceEvent::Span {
                t_ns: 789,
                metric: Metric::SearchLevelNs,
                dur_ns: 1001,
                depth: 2,
            },
        ];
        for e in events {
            let line = e.to_json();
            assert_eq!(TraceEvent::parse_json(&line), Some(e), "line: {line}");
        }
        assert_eq!(TraceEvent::parse_json("not json"), None);
        assert_eq!(
            TraceEvent::parse_json("{\"t\":1,\"kind\":\"counter\",\"metric\":\"nope\",\"v\":1}"),
            None
        );
    }

    #[test]
    fn jsonl_sink_lines_reconcile_with_registry() {
        let path = std::env::temp_dir().join(format!(
            "sisd_obs_jsonl_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let h = Obs::leaked(Box::new(JsonlSink::create(&path).unwrap()));
        h.add(Metric::EvalScored, 10);
        h.add(Metric::EvalScored, 32);
        h.incr(Metric::SearchRuns);
        h.set(Metric::RefitLastCycles, 2);
        h.set(Metric::RefitLastCycles, 8);
        {
            let _s = h.span(Metric::SearchLevelNs);
        }
        h.flush();

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let events: Vec<TraceEvent> = text
            .lines()
            .map(|l| TraceEvent::parse_json(l).expect("every line parses"))
            .collect();
        assert!(!events.is_empty());

        // Replay the event stream into totals and compare with the registry.
        let mut totals = [0u64; Metric::COUNT];
        for e in &events {
            match e {
                TraceEvent::Counter { metric, value, .. } => totals[metric.index()] += value,
                TraceEvent::Span { metric, dur_ns, .. } => totals[metric.index()] += dur_ns,
                TraceEvent::Gauge { metric, value, .. } => totals[metric.index()] = *value,
            }
        }
        let snap = h.snapshot().unwrap();
        for m in Metric::ALL {
            assert_eq!(
                totals[m.index()],
                snap.get(m),
                "metric {} out of sync with trace",
                m.name()
            );
        }
    }

    #[test]
    fn report_displays_every_section() {
        let reg = MetricsRegistry::new();
        reg.add(Metric::SearchRuns, 2);
        reg.add(Metric::RefitRuns, 3);
        reg.set(Metric::RefitLastCycles, 4);
        let report = SearchReport::from_snapshot(reg.snapshot());
        let text = report.to_string();
        for needle in ["search", "eval", "frontier", "refit", "model", "sphere"] {
            assert!(text.contains(needle), "missing section {needle}:\n{text}");
        }
        assert!(
            text.contains(
                "refit   : 3 run(s): 0 cycle(s), 0 re-projection(s), 0 residual(s) recomputed, 0ns"
            ),
            "{text}"
        );
        assert!(
            text.contains("model   : 0 factor rebuild(s) / 0 reuse(s)"),
            "{text}"
        );
        assert!(
            text.contains(
                "sphere  : 0 start(s), 0 iteration(s), 0 evaluation(s), 0 gradient(s), \
                 0 start(s) on the cap"
            ),
            "{text}"
        );
        assert!(
            !text.contains("fallback") && !text.contains("rank-k"),
            "{text}"
        );
        assert_eq!(report.get(Metric::RefitLastCycles), 4);
    }
}
