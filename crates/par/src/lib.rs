//! Persistent deterministic worker pool for the SISD engine.
//!
//! Every parallel hot path in the engine used to spawn fresh OS threads
//! through `std::thread::scope` on every call — at beam depth `d` ×
//! assimilation step `k` that is thousands of spawn/join cycles per
//! interactive session. This crate replaces the scoped spawns with one
//! lazily-initialized pool of persistent workers and a deterministic
//! ordered scatter/gather API.
//!
//! # Determinism contract
//!
//! The pool never changes *what* is computed, only *where*. A run submits
//! `total` independent tasks indexed `0..total`; workers (plus the calling
//! thread, which always participates) claim indices from a shared atomic
//! counter, and every output is written into the slot of its own index.
//! The merged result is therefore in task order regardless of which thread
//! ran which task, at any worker count, and bit-identical to a serial
//! loop whenever the per-task function is pure — the same contract the
//! scoped-spawn code upheld, minus the per-call spawn cost.
//!
//! # Topology
//!
//! [`WorkerPool`] owns the worker threads. Workers are spawned on demand
//! (a run with `workers = w` needs `w - 1` helpers) and then persist,
//! parked on a condvar; serial runs (`workers <= 1`) never touch the pool
//! at all. [`PoolHandle`] is a `Copy` reference to a pool — either the
//! lazily-created process-global pool or a dedicated leaked one — small
//! enough to live inside the engine's `Copy` config structs, so one
//! `Miner` reuses the same workers across levels, searches, and
//! assimilations.
//!
//! Multiple threads may submit runs concurrently (the test harness does);
//! each caller drains its own job, so progress never depends on another
//! job finishing first. A panic inside a task is caught on the worker,
//! recorded, and re-raised on the submitting thread after the job
//! completes; the pool stays usable afterwards.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Locks `m`, recovering the guard from a poisoned lock. Task panics are
/// caught *before* the job mutex is taken, so poisoning can only come
/// from a panic in this crate's own short critical sections — all of
/// which leave the guarded state consistent. Recovering keeps one
/// panicked thread from cascading lock panics into every later caller of
/// a long-lived pool.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison recovery as [`lock_recover`].
fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// The lifetime-erased shape of one submitted run: a pure-per-index task.
type Task = dyn Fn(usize) + Sync;

/// Hard ceiling on spawned workers — a runaway guard, far above any
/// `threads` value the engine's configs use in practice.
const MAX_WORKERS: usize = 256;

/// One submitted run: `total` tasks claimed off an atomic counter.
struct Job {
    /// Lifetime-erased pointer to the caller's task closure.
    ///
    /// Soundness: a worker only dereferences this while executing a
    /// claimed index `< total`, and the submitting caller blocks until
    /// `remaining == 0` — i.e. until every claimed index has finished —
    /// so the pointee strictly outlives every dereference. The pointer
    /// may dangle *after* that (a worker can still hold the `Arc<Job>`
    /// while popping it from the queue) but is never read again.
    task: *const Task,
    total: usize,
    /// Next unclaimed task index; values `>= total` mean exhausted.
    next: AtomicUsize,
    state: Mutex<JobState>,
    done: Condvar,
    /// When the job was enqueued; first-claim latency is measured from
    /// here into `wait_ns`.
    submitted: Instant,
    /// Whether any thread has claimed a task yet (gates `wait_ns`).
    claimed_once: AtomicBool,
    /// Nanoseconds between submission and the first claimed task — the
    /// job's queue wait.
    wait_ns: AtomicU64,
    /// Tasks claimed so far (equals `total` once drained). Incremented at
    /// claim time, so every increment happens-before the completion latch
    /// releases the submitting caller.
    tasks_run: AtomicU64,
}

// SAFETY: `task` is only dereferenced under the protocol documented on
// the field; everything else is Sync. The raw pointer is what inhibits
// the auto-traits.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

struct JobState {
    /// Tasks not yet finished (claimed-but-running count toward this).
    remaining: usize,
    panicked: bool,
}

impl Job {
    /// Claims and runs tasks until none are left unclaimed. Decrementing
    /// `remaining` under the job mutex after each task both signals
    /// completion and establishes the happens-before edge that makes the
    /// task's writes visible to the waiting caller.
    fn drain(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            if !self.claimed_once.swap(true, Ordering::Relaxed) {
                self.wait_ns.store(
                    self.submitted.elapsed().as_nanos() as u64,
                    Ordering::Relaxed,
                );
            }
            self.tasks_run.fetch_add(1, Ordering::Relaxed);
            // SAFETY: i < total, so the caller is still blocked in
            // `wait_done` and the closure behind `task` is alive.
            let task = unsafe { &*self.task };
            let ok = catch_unwind(AssertUnwindSafe(|| task(i))).is_ok();
            let mut st = lock_recover(&self.state);
            if !ok {
                st.panicked = true;
            }
            st.remaining -= 1;
            if st.remaining == 0 {
                drop(st);
                self.done.notify_all();
            }
        }
    }

    /// Blocks until every task has finished; re-raises worker panics.
    fn wait_done(&self) {
        let mut st = lock_recover(&self.state);
        while st.remaining > 0 {
            st = wait_recover(&self.done, st);
        }
        let panicked = st.panicked;
        drop(st);
        if panicked {
            panic!("sisd-par: a pooled task panicked (re-raised on the submitting thread)");
        }
    }
}

struct PoolState {
    jobs: VecDeque<Arc<Job>>,
    /// Worker threads spawned so far (they persist once started).
    workers: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signalled when a job is enqueued or shutdown is requested.
    work: Condvar,
    /// Runs that actually went through the pool (serial runs excluded).
    jobs_run: AtomicU64,
    /// Task chunks claimed across all jobs (each job folds its per-job
    /// count in when it completes).
    tasks_run: AtomicU64,
    /// Summed first-claim queue wait (ns) across all jobs.
    queue_wait_ns: AtomicU64,
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job: Arc<Job> = {
            let mut st = lock_recover(&shared.state);
            loop {
                // Retire fully-claimed jobs from the front; their callers
                // wait on the per-job latch, not the queue.
                while st
                    .jobs
                    .front()
                    .is_some_and(|j| j.next.load(Ordering::Relaxed) >= j.total)
                {
                    st.jobs.pop_front();
                }
                if let Some(j) = st.jobs.front() {
                    break Arc::clone(j);
                }
                if st.shutdown {
                    return;
                }
                st = wait_recover(&shared.work, st);
            }
        };
        job.drain();
    }
}

/// A persistent pool of worker threads with deterministic ordered
/// scatter/gather semantics (see the crate docs for the contract).
pub struct WorkerPool {
    shared: Arc<Shared>,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();

/// Raw pointer wrapper so disjoint-index writes into a shared output
/// buffer can cross the closure boundary. Each task writes only its own
/// slot, and the job-completion latch orders the writes before the
/// caller reads them back.
struct SendPtr<T>(*mut T);
impl<T> SendPtr<T> {
    /// Accessor (rather than direct field use) so closures capture the
    /// whole `Sync` wrapper — edition-2021 precise capture would
    /// otherwise grab the bare non-`Sync` raw pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: see type docs — disjoint writes, latch-ordered reads.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl WorkerPool {
    /// Creates an empty pool; worker threads are spawned on first use.
    pub fn new() -> Self {
        WorkerPool {
            shared: Arc::new(Shared {
                state: Mutex::new(PoolState {
                    jobs: VecDeque::new(),
                    workers: 0,
                    shutdown: false,
                }),
                work: Condvar::new(),
                jobs_run: AtomicU64::new(0),
                tasks_run: AtomicU64::new(0),
                queue_wait_ns: AtomicU64::new(0),
            }),
        }
    }

    /// The lazily-created process-global pool.
    pub fn global() -> &'static WorkerPool {
        GLOBAL.get_or_init(WorkerPool::new)
    }

    /// Leaks a fresh dedicated pool and returns a handle to it. Intended
    /// for benchmarks and tests that must not share workers with the
    /// global pool; each call permanently leaks one pool's threads, so
    /// don't call it in a loop in production code.
    pub fn leaked() -> PoolHandle {
        PoolHandle(Some(Box::leak(Box::new(WorkerPool::new()))))
    }

    /// Worker threads spawned so far.
    pub fn workers(&self) -> usize {
        lock_recover(&self.shared.state).workers
    }

    /// Runs that went through the pool (serial short-circuits excluded).
    pub fn jobs_run(&self) -> u64 {
        self.shared.jobs_run.load(Ordering::Relaxed)
    }

    /// Task chunks claimed across all completed pooled runs.
    pub fn tasks_run(&self) -> u64 {
        self.shared.tasks_run.load(Ordering::Relaxed)
    }

    /// Summed queue wait (nanoseconds between a job's submission and its
    /// first claimed task) across all completed pooled runs.
    pub fn queue_wait_ns(&self) -> u64 {
        self.shared.queue_wait_ns.load(Ordering::Relaxed)
    }

    fn ensure_workers(&self, want: usize) {
        let want = want.min(MAX_WORKERS);
        let mut st = lock_recover(&self.shared.state);
        while st.workers < want {
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name(format!("sisd-par-{}", st.workers))
                .spawn(move || worker_loop(shared));
            if spawned.is_err() {
                // Resource exhaustion: degrade to however many workers
                // exist (possibly zero — the submitting caller always
                // drains its own job), rather than panicking mid-search.
                return;
            }
            st.workers += 1;
        }
    }

    /// Core entry point: runs `task(i)` for every `i in 0..total` across
    /// up to `workers` threads (the caller included), returning when all
    /// tasks have finished. `workers <= 1` or `total <= 1` runs inline
    /// without touching the pool.
    pub fn run_indexed(&self, workers: usize, total: usize, task: &(dyn Fn(usize) + Sync)) {
        if total == 0 {
            return;
        }
        if workers <= 1 || total == 1 {
            for i in 0..total {
                task(i);
            }
            return;
        }
        self.ensure_workers(workers.min(total) - 1);
        self.shared.jobs_run.fetch_add(1, Ordering::Relaxed);
        // SAFETY (lifetime erasure): the job's raw task pointer is only
        // dereferenced while the closure is alive — see `Job::task`.
        let task: &'static Task = unsafe { std::mem::transmute(task) };
        let task: *const Task = task;
        let job = Arc::new(Job {
            task,
            total,
            next: AtomicUsize::new(0),
            state: Mutex::new(JobState {
                remaining: total,
                panicked: false,
            }),
            done: Condvar::new(),
            submitted: Instant::now(),
            claimed_once: AtomicBool::new(false),
            wait_ns: AtomicU64::new(0),
            tasks_run: AtomicU64::new(0),
        });
        lock_recover(&self.shared.state)
            .jobs
            .push_back(Arc::clone(&job));
        self.shared.work.notify_all();
        job.drain();
        job.wait_done();
        // Fold the job's tallies into the pool once it is complete. Every
        // claim's increment is sequenced before that task's completion
        // latch decrement, and `wait_done` observes `remaining == 0` under
        // the same mutex, so the loads below see every claim.
        self.shared
            .tasks_run
            .fetch_add(job.tasks_run.load(Ordering::Relaxed), Ordering::Relaxed);
        self.shared
            .queue_wait_ns
            .fetch_add(job.wait_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Ordered scatter/gather: `f(i)` for `i in 0..total`, outputs merged
    /// in index order.
    pub fn run_map<T: Send>(
        &self,
        workers: usize,
        total: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        let mut slots: Vec<Option<T>> = (0..total).map(|_| None).collect();
        let base = SendPtr(slots.as_mut_ptr());
        self.run_indexed(workers, total, &move |i| {
            let out = f(i);
            // SAFETY: i < total indexes into `slots`, each index is
            // claimed exactly once, and `slots` is not read until the
            // run completes.
            unsafe {
                *base.get().add(i) = Some(out);
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("sisd-par: task output missing"))
            .collect()
    }
}

/// A `Copy` reference to a [`WorkerPool`] — the process-global one by
/// default — sized to live inside the engine's `Copy` config structs.
///
/// Equality is identity: two handles compare equal when they refer to the
/// same pool (the global-pool handle only equals other global-pool
/// handles), which is what config equality should mean.
#[derive(Clone, Copy)]
pub struct PoolHandle(Option<&'static WorkerPool>);

impl PoolHandle {
    /// Handle to the process-global pool (created lazily on first
    /// parallel run).
    pub const fn global() -> Self {
        PoolHandle(None)
    }

    /// Handle to a specific (necessarily leaked/static) pool.
    pub fn to(pool: &'static WorkerPool) -> Self {
        PoolHandle(Some(pool))
    }

    /// Resolves the underlying pool, creating the global one if needed.
    pub fn get(&self) -> &'static WorkerPool {
        match self.0 {
            Some(p) => p,
            None => WorkerPool::global(),
        }
    }

    /// Whether this is the default global-pool handle.
    pub fn is_global(&self) -> bool {
        self.0.is_none()
    }

    fn pool_for(&self, workers: usize, total: usize) -> Option<&'static WorkerPool> {
        if workers <= 1 || total <= 1 {
            None // serial: never create or touch a pool
        } else {
            Some(self.get())
        }
    }

    /// Ordered scatter/gather: `f(i)` for `i in 0..total`, outputs merged
    /// in index order. Serial (`workers <= 1`) runs are a plain loop.
    pub fn run_map<T: Send>(
        &self,
        workers: usize,
        total: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        match self.pool_for(workers, total) {
            Some(p) => p.run_map(workers, total, f),
            None => (0..total).map(f).collect(),
        }
    }

    /// Per-item map over a slice, outputs merged in item order.
    pub fn run_items<I: Sync, O: Send>(
        &self,
        items: &[I],
        workers: usize,
        f: impl Fn(&I) -> O + Sync,
    ) -> Vec<O> {
        self.run_map(workers, items.len(), |i| f(&items[i]))
    }

    /// Consuming map: each input is moved into `f` exactly once, outputs
    /// merged in input order.
    pub fn run_consume<I: Send, O: Send>(
        &self,
        inputs: Vec<I>,
        workers: usize,
        f: impl Fn(I) -> O + Sync,
    ) -> Vec<O> {
        let total = inputs.len();
        match self.pool_for(workers, total) {
            Some(p) => {
                let mut slots: Vec<Option<I>> = inputs.into_iter().map(Some).collect();
                let base = SendPtr(slots.as_mut_ptr());
                p.run_map(workers, total, move |i| {
                    // SAFETY: each index is claimed exactly once, so each
                    // input is taken exactly once; `slots` outlives the
                    // run and is only dropped (all `None`) afterwards.
                    let item = unsafe { (*base.get().add(i)).take() };
                    f(item.expect("sisd-par: input claimed twice"))
                })
            }
            None => inputs.into_iter().map(f).collect(),
        }
    }

    /// Splits `0..len` into exactly `workers` contiguous ranges in serial
    /// order (`len.div_ceil(workers)` long, so trailing ranges may be
    /// empty) and maps `run(chunk_index, range)` over them, outputs in
    /// chunk order.
    pub fn run_chunked<T: Send>(
        &self,
        len: usize,
        workers: usize,
        run: impl Fn(usize, Range<usize>) -> T + Sync,
    ) -> Vec<T> {
        let workers = workers.max(1);
        let chunk_len = len.div_ceil(workers).max(1);
        let range = |c: usize| {
            let lo = (c * chunk_len).min(len);
            lo..len.min(lo + chunk_len)
        };
        self.run_map(workers, workers, |c| run(c, range(c)))
    }
}

impl Default for PoolHandle {
    fn default() -> Self {
        Self::global()
    }
}

impl PartialEq for PoolHandle {
    fn eq(&self, other: &Self) -> bool {
        match (self.0, other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => std::ptr::eq(a, b),
            _ => false,
        }
    }
}
impl Eq for PoolHandle {}

impl std::fmt::Debug for PoolHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            None => write!(f, "PoolHandle(global)"),
            Some(p) => write!(f, "PoolHandle({:p})", p as *const WorkerPool),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let mut st = lock_recover(&self.shared.state);
        st.shutdown = true;
        drop(st);
        self.shared.work.notify_all();
        // Workers exit on their own; they hold their own Arc<Shared>, so
        // not joining here is safe (the global pool never drops anyway).
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn run_map_merges_in_index_order_at_any_worker_count() {
        let pool = WorkerPool::new();
        let serial: Vec<usize> = (0..103).map(|i| i * i).collect();
        for workers in [1, 2, 3, 4, 8] {
            let got = pool.run_map(workers, 103, |i| i * i);
            assert_eq!(got, serial, "workers={workers}");
        }
    }

    #[test]
    fn handle_run_chunked_produces_exactly_workers_ranges() {
        let h = WorkerPool::leaked();
        for (len, workers) in [(10, 3), (0, 4), (5, 8), (64, 1)] {
            let ranges = h.run_chunked(len, workers, |_, r| r);
            assert_eq!(ranges.len(), workers, "len={len} workers={workers}");
            // Contiguous cover of 0..len in order, trailing ranges empty.
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next.min(len));
                assert!(r.end >= r.start && r.end <= len);
                next = r.end.max(next);
            }
            let covered: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn serial_runs_never_create_the_pool_or_spawn() {
        let pool = WorkerPool::new();
        let out = pool.run_map(1, 64, |i| i + 1);
        assert_eq!(out.len(), 64);
        assert_eq!(pool.workers(), 0, "serial run must not spawn workers");
        assert_eq!(pool.jobs_run(), 0, "serial run must not enqueue a job");
    }

    #[test]
    fn workers_persist_and_jobs_count_across_runs() {
        let pool = WorkerPool::new();
        let a = pool.run_map(4, 257, |i| i as u64 * 3);
        let b = pool.run_map(4, 257, |i| i as u64 * 3);
        assert_eq!(a, b);
        assert!(pool.workers() <= 3, "4-way run needs at most 3 helpers");
        assert_eq!(pool.jobs_run(), 2);
        let w = pool.workers();
        pool.run_map(2, 100, |i| i);
        assert_eq!(pool.workers(), w, "narrower run must not spawn more");
    }

    #[test]
    fn run_consume_moves_each_input_once() {
        let h = WorkerPool::leaked();
        let inputs: Vec<String> = (0..57).map(|i| format!("item-{i}")).collect();
        let expect: Vec<String> = inputs.iter().map(|s| format!("{s}!")).collect();
        for workers in [1, 3, 4] {
            let got = h.run_consume(inputs.clone(), workers, |s| s + "!");
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn concurrent_submitters_make_progress() {
        let pool = Arc::new(WorkerPool::new());
        let mut joins = Vec::new();
        for t in 0..4u64 {
            let pool = Arc::clone(&pool);
            joins.push(std::thread::spawn(move || {
                let out = pool.run_map(3, 200, move |i| i as u64 + t * 1000);
                assert_eq!(out[199], 199 + t * 1000);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn task_panic_is_reraised_and_pool_survives() {
        let h = WorkerPool::leaked();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            h.run_map(4, 64, |i| {
                if i == 33 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(caught.is_err(), "task panic must propagate to the caller");
        // The pool keeps working after a panicked job.
        let ok = h.run_map(4, 64, |i| i * 2);
        assert_eq!(ok[63], 126);
    }

    #[test]
    fn nested_runs_do_not_deadlock() {
        let h = WorkerPool::leaked();
        let out = h.run_map(2, 4, |i| {
            let inner = h.run_map(2, 8, move |j| i * 8 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..4).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn handle_equality_is_pool_identity() {
        let a = PoolHandle::global();
        let b = PoolHandle::default();
        assert_eq!(a, b);
        let c = WorkerPool::leaked();
        let d = WorkerPool::leaked();
        assert_ne!(a, c);
        assert_ne!(c, d);
        assert_eq!(c, c);
        assert!(a.is_global() && !c.is_global());
    }

    #[test]
    fn steady_state_worker_count_is_stable() {
        static TOUCHED: AtomicUsize = AtomicUsize::new(0);
        let h = WorkerPool::leaked();
        for _ in 0..20 {
            h.run_map(4, 128, |i| {
                TOUCHED.fetch_add(1, Ordering::Relaxed);
                i
            });
        }
        assert_eq!(TOUCHED.load(Ordering::Relaxed), 20 * 128);
        assert!(h.get().workers() <= 3);
        assert_eq!(h.get().jobs_run(), 20);
    }

    #[test]
    fn pooled_runs_account_tasks_and_queue_wait() {
        let h = WorkerPool::leaked();
        assert_eq!(h.get().tasks_run(), 0);
        h.run_map(4, 128, |i| i);
        h.run_map(4, 72, |i| i);
        assert_eq!(h.get().jobs_run(), 2);
        assert_eq!(
            h.get().tasks_run(),
            200,
            "every task is claimed exactly once"
        );
        // The first claim happens strictly after submission, so some
        // nonzero wait accumulates (clock resolution permitting); serial
        // runs must not add to it.
        let wait = h.get().queue_wait_ns();
        h.run_map(1, 500, |i| i);
        assert_eq!(h.get().tasks_run(), 200, "serial runs bypass the pool");
        assert_eq!(h.get().queue_wait_ns(), wait);
    }
}
