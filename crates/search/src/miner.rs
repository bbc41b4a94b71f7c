//! The iterative mining façade: the FORSIED loop of the paper.
//!
//! Each iteration mines the most subjectively interesting location pattern
//! by beam search, optionally finds the most interesting spread direction
//! for that subgroup, shows both to the user, and updates the background
//! distribution so the next iteration looks for *non-redundant* patterns.

use crate::beam::{BeamConfig, BeamResult, BeamSearch};
use crate::eval::{EvalConfig, SearchLanguage};
use crate::sphere::{mine_spread_pattern, SphereConfig};
use sisd_core::{DlParams, LocationPattern, SisdError, SpreadPattern};
use sisd_data::snap::{atomic_write, put_u64, SnapCursor, SnapError, SnapReader, SnapWriter};
use sisd_data::Dataset;
use sisd_model::{BackgroundModel, ModelError, RefitStats};
use sisd_obs::{Metric, ObsHandle, OwnedCounters, SearchReport};
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Section id of the miner metadata (iteration counter + dataset stamp).
const SEC_MINER_META: u32 = 10;
/// Section id wrapping the model's own snapshot container verbatim.
const SEC_MINER_MODEL: u32 = 11;

/// Miner configuration.
#[derive(Debug, Clone, Default)]
pub struct MinerConfig {
    /// Beam-search settings (includes the DL parameters and the
    /// candidate-evaluation engine settings).
    pub beam: BeamConfig,
    /// Spread-direction optimizer settings.
    pub sphere: SphereConfig,
    /// Use the 2-sparse direction variant (§III-C) instead of the full
    /// sphere.
    pub two_sparse_spread: bool,
    /// Convergence tolerance of the coordinate-descent refit after each
    /// assimilation.
    pub refit_tol: f64,
    /// Cap on refit cycles.
    pub refit_max_cycles: usize,
}

impl MinerConfig {
    /// The DL parameters (owned by the beam config).
    pub fn dl(&self) -> DlParams {
        self.beam.dl
    }

    /// The candidate-evaluation engine settings (owned by the beam
    /// config).
    pub fn eval(&self) -> EvalConfig {
        self.beam.eval
    }

    /// Sets the engine's worker-thread count; every search this miner runs
    /// evaluates candidates on that many threads, with results identical
    /// to the single-threaded search.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.beam.eval.threads = threads.max(1);
        self
    }

    /// Pins every search this miner runs to one worker pool, so the same
    /// threads are reused across beam levels, searches, and model
    /// assimilations instead of being respawned. Results are identical on
    /// any pool.
    pub fn with_pool(mut self, pool: sisd_par::PoolHandle) -> Self {
        self.beam.eval = self.beam.eval.with_pool(pool);
        self
    }

    /// Routes every search, refit, and frontier pass this miner runs to
    /// the given metrics/tracing handle (e.g. one backed by a
    /// [`sisd_obs::JsonlSink`]). Without this the miner still keeps full
    /// counters — it mints a private registry with no event sink — so
    /// [`Miner::search_report`] always works. Results are bit-identical
    /// with any handle.
    pub fn with_obs(mut self, obs: ObsHandle) -> Self {
        self.beam.eval = self.beam.eval.with_obs(obs);
        self
    }
}

/// One mining iteration's output: the location pattern, and the spread
/// pattern if requested.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Iteration index (1-based, matching the paper's tables).
    pub index: usize,
    /// The location pattern shown to the user.
    pub location: LocationPattern,
    /// The spread pattern shown after it, when spread mining is on.
    pub spread: Option<SpreadPattern>,
}

/// The iterative subgroup miner.
#[derive(Debug)]
pub struct Miner {
    data: Dataset,
    model: BackgroundModel,
    config: MinerConfig,
    iterations_done: usize,
    /// The metrics registry every subsystem this miner drives reports to.
    /// Always enabled: when the config carries no handle the constructor
    /// takes a private one (counters only, no events), so
    /// [`Miner::search_report`] and [`Miner::last_refit_stats`] work
    /// unconditionally.
    obs: ObsHandle,
    /// The private registry behind `obs`, when it is not supplied through
    /// [`MinerConfig`]; clones of a private registry get their own fresh
    /// one instead of blending counters into ours. Dropping the miner
    /// gives it back for the next miner.
    owned_obs: Option<OwnedCounters>,
    /// The description language (conditions and their row masks), built
    /// on the first search and reused by every later one: the dataset and
    /// the condition settings never change under a miner. Built lazily so
    /// setting up or restoring a miner does not pay for it.
    language: OnceLock<SearchLanguage>,
}

impl Clone for Miner {
    fn clone(&self) -> Self {
        // A miner-private registry is cloned fresh so the two miners'
        // counters stay independent.
        let mut config = self.config.clone();
        let mut model = self.model.clone();
        let (obs, owned_obs) = match self.owned_obs {
            Some(_) => {
                let owned = OwnedCounters::new();
                (owned.handle(), Some(owned))
            }
            None => (self.obs, None),
        };
        config.beam.eval.obs = obs;
        model.set_obs(obs);
        Self {
            data: self.data.clone(),
            model,
            config,
            iterations_done: self.iterations_done,
            obs,
            owned_obs,
            language: self.language.clone(),
        }
    }
}

impl Miner {
    /// Wires a fresh miner: resolves the effective obs handle (the
    /// config's, or a private counters-only registry) and threads it into
    /// the config and the model.
    fn assemble(data: Dataset, mut model: BackgroundModel, mut config: MinerConfig) -> Self {
        let user_obs = config.beam.eval.obs;
        let (obs, owned_obs) = if user_obs.enabled() {
            (user_obs, None)
        } else {
            let owned = OwnedCounters::new();
            (owned.handle(), Some(owned))
        };
        config.beam.eval.obs = obs;
        model.set_obs(obs);
        Self {
            data,
            model,
            config,
            iterations_done: 0,
            obs,
            owned_obs,
            language: OnceLock::new(),
        }
    }

    /// Builds a miner whose initial background distribution matches the
    /// data's empirical mean and covariance (the setup of every experiment
    /// in the paper).
    pub fn from_empirical(data: Dataset, config: MinerConfig) -> Result<Self, ModelError> {
        let model = BackgroundModel::from_empirical(&data)?;
        Ok(Self::assemble(data, model, config))
    }

    /// Builds a miner with explicit prior beliefs.
    pub fn with_prior(
        data: Dataset,
        prior_mean: Vec<f64>,
        prior_cov: sisd_linalg::Matrix,
        config: MinerConfig,
    ) -> Result<Self, ModelError> {
        let model = BackgroundModel::new(data.n(), prior_mean, prior_cov)?;
        Ok(Self::assemble(data, model, config))
    }

    /// Serializes the full session state — the background model (cells,
    /// constraints, duals, warm-start projection state) plus the iteration
    /// counter and a content fingerprint of the dataset — into the
    /// checksummed [`sisd_data::snap`] container. The bytes are canonical:
    /// restoring and re-snapshotting yields the identical byte string.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>, SisdError> {
        let model = self.model.snapshot()?;
        let mut meta = Vec::with_capacity(16);
        put_u64(&mut meta, self.iterations_done as u64);
        put_u64(&mut meta, self.data.content_fingerprint());
        let mut w = SnapWriter::new();
        w.section(SEC_MINER_META, &meta)?;
        w.section(SEC_MINER_MODEL, &model)?;
        Ok(w.finish()?)
    }

    /// Writes the session snapshot to `path` crash-safely: the bytes go to
    /// a same-directory temp file which is fsynced and atomically renamed
    /// over the destination. A crash at any byte offset leaves either the
    /// previous snapshot or the new one — never a torn file.
    ///
    /// Records `snapshot.bytes` and `snapshot.write_ns` on the miner's
    /// metrics registry.
    pub fn save(&self, path: &Path) -> Result<(), SisdError> {
        let _span = self.obs.span(Metric::SnapshotWriteNs);
        let bytes = self.snapshot_bytes()?;
        atomic_write(path, &bytes)?;
        self.obs.add(Metric::SnapshotBytes, bytes.len() as u64);
        Ok(())
    }

    /// Rebuilds a miner from snapshot bytes. `data` must be the dataset
    /// the snapshot was taken against (verified by content fingerprint —
    /// resuming against different data is a hard error, not a silently
    /// wrong model); `config` is supplied fresh, so a resumed session may
    /// change thread counts, pools, or sinks. Results are bit-identical
    /// to the uninterrupted original under any of those.
    ///
    /// Every corrupted, truncated, or version-skewed input yields a clean
    /// `Err`; `snapshot.crc_failures` is bumped on the config's obs handle
    /// when one does.
    pub fn restore_bytes(
        bytes: &[u8],
        data: Dataset,
        config: MinerConfig,
    ) -> Result<Self, SisdError> {
        let user_obs = config.beam.eval.obs;
        let start = Instant::now();
        match Self::restore_inner(bytes, data, config) {
            Ok(miner) => {
                miner
                    .obs
                    .add(Metric::SnapshotRestoreNs, start.elapsed().as_nanos() as u64);
                Ok(miner)
            }
            Err(e) => {
                user_obs.incr(Metric::SnapshotCrcFailures);
                Err(e)
            }
        }
    }

    fn restore_inner(bytes: &[u8], data: Dataset, config: MinerConfig) -> Result<Self, SisdError> {
        let mut r = SnapReader::new(bytes)?;
        let meta = r.section(SEC_MINER_META, "miner metadata")?;
        let mut c = SnapCursor::new(meta);
        let iterations_done = c.u64("iteration counter")? as usize;
        let stamped = c.u64("dataset fingerprint")?;
        c.finish("miner metadata")?;
        let model_bytes = r.section(SEC_MINER_MODEL, "model snapshot")?;
        r.finish()?;
        let actual = data.content_fingerprint();
        if stamped != actual {
            return Err(SnapError::Corrupt(format!(
                "dataset fingerprint mismatch: snapshot was taken against \
                 {stamped:#018x}, but dataset {:?} hashes to {actual:#018x}",
                data.name
            ))
            .into());
        }
        let model = BackgroundModel::restore(model_bytes)?;
        if model.n() != data.n() || model.dy() != data.dy() {
            return Err(SnapError::Corrupt(format!(
                "model shape {}×{} does not match dataset shape {}×{}",
                model.n(),
                model.dy(),
                data.n(),
                data.dy()
            ))
            .into());
        }
        let mut miner = Self::assemble(data, model, config);
        miner.iterations_done = iterations_done;
        Ok(miner)
    }

    /// Reads a snapshot file written by [`Miner::save`] and rebuilds the
    /// session (see [`Miner::restore_bytes`] for the contract). Records
    /// `snapshot.restore_ns` on success.
    pub fn load(path: &Path, data: Dataset, config: MinerConfig) -> Result<Self, SisdError> {
        let bytes = std::fs::read(path).map_err(SnapError::Io)?;
        Self::restore_bytes(&bytes, data, config)
    }

    /// The dataset being mined.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// The current background model (read access).
    pub fn model(&self) -> &BackgroundModel {
        &self.model
    }

    /// The current background model (mutable, e.g. to inject extra prior
    /// constraints before mining).
    pub fn model_mut(&mut self) -> &mut BackgroundModel {
        &mut self.model
    }

    /// Number of completed iterations.
    pub fn iterations_done(&self) -> usize {
        self.iterations_done
    }

    /// Convergence statistics of the most recent post-assimilation refit,
    /// `None` before the first assimilation. Deep interactive sessions
    /// watch `cycles`/`constraints_updated` grow as overlapping patterns
    /// accumulate — the observable cost of keeping the belief state
    /// converged.
    ///
    /// A thin view over the metrics registry (the `refit.last_*` gauges);
    /// the same numbers appear in [`Miner::search_report`] alongside the
    /// cumulative refit counters.
    pub fn last_refit_stats(&self) -> Option<RefitStats> {
        let snap = self.obs.snapshot()?;
        if snap.get(Metric::RefitRuns) == 0 {
            return None;
        }
        Some(RefitStats {
            cycles: snap.get(Metric::RefitLastCycles) as usize,
            constraints_updated: snap.get(Metric::RefitLastConstraintsUpdated) as usize,
        })
    }

    /// The metrics/tracing handle this miner reports to (always enabled;
    /// supply your own via [`MinerConfig::with_obs`] to add an event sink).
    /// A private registry goes to the next miner when this one is dropped,
    /// so a copy of its handle, or of a model cloned from this miner, must
    /// not be used past this miner's life.
    pub fn obs(&self) -> ObsHandle {
        self.obs
    }

    /// Snapshot of every counter and gauge this miner's subsystems have
    /// recorded — searches run, beam levels, candidates generated / pruned
    /// / scored, refit convergence work, worker-pool utilization. The
    /// point-in-time pool gauges are re-sampled on every call, so the
    /// report is current even between searches. The `Display` impl renders
    /// a human-readable block.
    pub fn search_report(&self) -> SearchReport {
        let obs = self.obs;
        let eval = self.config.beam.eval;
        // Resolving a global handle would *create* the global pool; only
        // report pools this miner's searches could actually have touched.
        if !eval.pool.is_global() || eval.threads > 1 {
            let pool = eval.pool.get();
            obs.set(Metric::PoolWorkers, pool.workers() as u64);
            obs.set(Metric::PoolJobs, pool.jobs_run());
            obs.set(Metric::PoolTasks, pool.tasks_run());
            obs.set(Metric::PoolQueueWaitNs, pool.queue_wait_ns());
        }
        obs.report().expect("miner obs handle is always enabled")
    }

    /// Runs a beam search against the current model and returns the full
    /// result log without updating anything. Candidate evaluation runs on
    /// `config.beam.eval.threads` workers through the shared engine. The
    /// description language is evaluated over the data on the first
    /// search and reused by every later one.
    pub fn search_locations(&self) -> BeamResult {
        BeamSearch::new(self.config.beam.clone()).run_in_language(
            &self.data,
            &self.model,
            &self.language,
        )
    }

    /// Assimilates a location pattern (its subgroup mean becomes part of
    /// the user's belief state) and re-converges overlapping constraints.
    pub fn assimilate_location(&mut self, pattern: &LocationPattern) -> Result<(), ModelError> {
        self.model
            .assimilate_location(&pattern.extension, pattern.observed_mean.clone())?;
        let _ = self.model.refit(
            self.config.refit_tol.max(1e-12),
            self.config.refit_max_cycles.max(1),
        )?;
        Ok(())
    }

    /// Assimilates a spread pattern.
    pub fn assimilate_spread(&mut self, pattern: &SpreadPattern) -> Result<(), ModelError> {
        let center = self.data.target_mean(&pattern.extension);
        self.model.assimilate_spread(
            &pattern.extension,
            pattern.w.clone(),
            center,
            pattern.observed_variance,
        )?;
        let _ = self.model.refit(
            self.config.refit_tol.max(1e-12),
            self.config.refit_max_cycles.max(1),
        )?;
        Ok(())
    }

    /// Finds the most interesting spread direction for an
    /// already-assimilated location pattern (step 2 of §II-D).
    pub fn mine_spread(&self, location: &LocationPattern) -> SpreadPattern {
        mine_spread_pattern(
            &self.model,
            &self.data,
            &location.intention,
            &location.extension,
            &self.config.dl(),
            &self.config.sphere,
            self.config.two_sparse_spread,
        )
    }

    /// One full location-only iteration: mine the top pattern, assimilate
    /// it, return it. `None` when the search finds nothing feasible.
    pub fn step_location(&mut self) -> Result<Option<Iteration>, ModelError> {
        let result = self.search_locations();
        let Some(best) = result.best().cloned() else {
            return Ok(None);
        };
        self.assimilate_location(&best)?;
        self.iterations_done += 1;
        Ok(Some(Iteration {
            index: self.iterations_done,
            location: best,
            spread: None,
        }))
    }

    /// One full location+spread iteration (the two-step §II-D process):
    /// mine the top location pattern, assimilate it, find the most
    /// interesting spread direction for it, assimilate that too.
    pub fn step_with_spread(&mut self) -> Result<Option<Iteration>, ModelError> {
        let result = self.search_locations();
        let Some(best) = result.best().cloned() else {
            return Ok(None);
        };
        self.assimilate_location(&best)?;
        let spread = self.mine_spread(&best);
        self.assimilate_spread(&spread)?;
        self.iterations_done += 1;
        Ok(Some(Iteration {
            index: self.iterations_done,
            location: best,
            spread: Some(spread),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beam::BeamConfig;
    use sisd_data::datasets::synthetic_paper;

    fn quick_config() -> MinerConfig {
        MinerConfig {
            beam: BeamConfig {
                width: 10,
                max_depth: 1,
                top_k: 20,
                ..BeamConfig::default()
            },
            sphere: SphereConfig {
                random_starts: 2,
                ..SphereConfig::default()
            },
            two_sparse_spread: false,
            refit_tol: 1e-9,
            refit_max_cycles: 100,
        }
    }

    #[test]
    fn three_iterations_recover_the_three_clusters() {
        let (data, truth) = synthetic_paper(42);
        let mut miner = Miner::from_empirical(data, quick_config()).unwrap();
        let mut recovered = vec![false; 3];
        for _ in 0..3 {
            let iter = miner.step_with_spread().unwrap().expect("pattern found");
            for (k, t) in truth.cluster_extensions.iter().enumerate() {
                if iter.location.extension == *t {
                    recovered[k] = true;
                }
            }
            assert!(iter.spread.is_some());
        }
        assert_eq!(
            recovered,
            vec![true, true, true],
            "all three planted clusters must be found in the first three iterations"
        );
        assert_eq!(miner.iterations_done(), 3);
    }

    #[test]
    fn si_of_assimilated_pattern_collapses() {
        let (data, _) = synthetic_paper(42);
        let mut miner = Miner::from_empirical(data, quick_config()).unwrap();
        let first = miner.step_location().unwrap().unwrap();
        let si_before = first.location.score.si;
        // Re-score the same subgroup after assimilation.
        let dl = miner.config.dl();
        let score = sisd_core::location_si(
            &miner.model,
            &miner.data,
            &first.location.intention,
            &first.location.extension,
            &dl,
        )
        .unwrap();
        assert!(
            score.si < si_before - 5.0,
            "SI must collapse: {si_before} → {}",
            score.si
        );
        // The paper's Table I shows slightly negative post-assimilation SI.
        assert!(score.si < 1.0);
    }

    #[test]
    fn later_iterations_find_different_subgroups() {
        let (data, _) = synthetic_paper(7);
        let mut miner = Miner::from_empirical(data, quick_config()).unwrap();
        let a = miner.step_location().unwrap().unwrap();
        let b = miner.step_location().unwrap().unwrap();
        let c = miner.step_location().unwrap().unwrap();
        assert_ne!(a.location.extension, b.location.extension);
        assert_ne!(b.location.extension, c.location.extension);
        assert_ne!(a.location.extension, c.location.extension);
    }

    #[test]
    fn cloned_miners_search_identically_after_a_spread_step() {
        let (data, _) = synthetic_paper(42);
        let mut miner = Miner::from_empirical(data, quick_config()).unwrap();
        // A spread assimilation tilts member-cell covariances, so later
        // searches take the mixed-covariance (dense) scoring path.
        miner.step_with_spread().unwrap().unwrap();
        let second = miner.step_location().unwrap().unwrap();
        let clone = miner.clone();
        let a = miner.search_locations();
        let b = clone.search_locations();
        assert_eq!(
            a.best().map(|p| p.score.si.to_bits()),
            b.best().map(|p| p.score.si.to_bits()),
            "a miner and its clone must search bit-for-bit alike"
        );
        assert!(second.location.score.si.is_finite());
    }

    #[test]
    fn model_constraints_accumulate() {
        let (data, _) = synthetic_paper(11);
        let mut miner = Miner::from_empirical(data, quick_config()).unwrap();
        miner.step_with_spread().unwrap().unwrap();
        // One location + one spread constraint.
        assert_eq!(miner.model().constraints().len(), 2);
        assert!(miner.model().max_violation() < 1e-6);
    }

    #[test]
    fn refit_stats_are_observable_across_iterations() {
        let (data, _) = synthetic_paper(3);
        let mut miner = Miner::from_empirical(data, quick_config()).unwrap();
        assert!(miner.last_refit_stats().is_none(), "no refit before mining");
        miner.step_location().unwrap().unwrap();
        let first = miner.last_refit_stats().expect("refit ran");
        // A single non-overlapping constraint projects exactly and needs no
        // extra cycling.
        assert_eq!(first.cycles, 0);
        assert_eq!(first.constraints_updated, 0);
        miner.step_location().unwrap().unwrap();
        let second = miner.last_refit_stats().expect("refit ran");
        // Whatever the overlap structure, the counters stay consistent:
        // every cycle touches at most all stored constraints.
        assert!(second.constraints_updated <= second.cycles * miner.model().constraints().len());
    }

    #[test]
    fn save_load_roundtrip_resumes_bit_identically() {
        let (data, _) = synthetic_paper(42);
        let mut miner = Miner::from_empirical(data.clone(), quick_config()).unwrap();
        miner.step_with_spread().unwrap().unwrap();
        miner.step_location().unwrap().unwrap();
        let path = std::env::temp_dir().join(format!(
            "sisd-miner-roundtrip-{}-{:?}.snap",
            std::process::id(),
            std::thread::current().id()
        ));
        miner.save(&path).unwrap();
        let restored = Miner::load(&path, data, quick_config()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(restored.iterations_done(), miner.iterations_done());
        // The snapshot bytes are canonical: re-snapshotting the restored
        // session reproduces the original byte string exactly.
        assert_eq!(
            restored.snapshot_bytes().unwrap(),
            miner.snapshot_bytes().unwrap()
        );
        // The next search is bit-identical to the uninterrupted session's.
        let a = miner.search_locations();
        let b = restored.search_locations();
        let key = |r: &BeamResult| {
            r.best()
                .map(|p| (p.extension.clone(), p.score.si.to_bits()))
        };
        assert_eq!(key(&a), key(&b));
        // Durability metrics landed on the respective registries.
        let saved = miner.obs().snapshot().unwrap();
        assert!(saved.get(Metric::SnapshotBytes) > 0);
        assert!(saved.get(Metric::SnapshotWriteNs) > 0);
        assert!(
            restored
                .obs()
                .snapshot()
                .unwrap()
                .get(Metric::SnapshotRestoreNs)
                > 0
        );
    }

    #[test]
    fn load_rejects_wrong_dataset_and_corrupt_bytes() {
        let (data, _) = synthetic_paper(42);
        let mut miner = Miner::from_empirical(data.clone(), quick_config()).unwrap();
        miner.step_location().unwrap().unwrap();
        let bytes = miner.snapshot_bytes().unwrap();
        // Resuming against different data is a hard error, not a silently
        // wrong model.
        let (other, _) = synthetic_paper(7);
        let err = Miner::restore_bytes(&bytes, other, quick_config()).unwrap_err();
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");
        // Any flipped byte in the model payload is caught by the CRC.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert!(Miner::restore_bytes(&bad, data.clone(), quick_config()).is_err());
        // Truncation at any prefix is a clean error too.
        assert!(Miner::restore_bytes(&bytes[..bytes.len() - 3], data, quick_config()).is_err());
    }

    #[test]
    fn with_prior_accepts_custom_beliefs() {
        let (data, _) = synthetic_paper(13);
        let prior_mean = vec![0.0, 0.0];
        let prior_cov = sisd_linalg::Matrix::identity(2);
        let miner = Miner::with_prior(data, prior_mean, prior_cov, quick_config()).unwrap();
        assert_eq!(miner.model().dy(), 2);
    }
}
