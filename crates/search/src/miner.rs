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
use sisd_obs::{Metric, ObsHandle};
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Section id of the miner metadata (iteration counter + dataset stamp).
/// The model's sections follow it in the same container.
const SEC_MINER_META: u32 = 10;

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

    /// Routes every search, refit, and frontier pass this miner runs to
    /// the given metrics/tracing handle (e.g. one backed by a
    /// [`sisd_obs::JsonlSink`]). Without this the miner reports to the
    /// disabled handle, which counts nothing. Results are bit-identical
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
#[derive(Debug, Clone)]
pub struct Miner {
    data: Dataset,
    model: BackgroundModel,
    config: MinerConfig,
    iterations_done: usize,
    /// What the most recent post-assimilation refit returned.
    last_refit: Option<RefitStats>,
    /// The description language (conditions and their row masks), built
    /// on the first search and reused by every later one: the dataset and
    /// the condition settings never change under a miner. Built lazily so
    /// setting up or restoring a miner does not pay for it.
    language: OnceLock<SearchLanguage>,
    /// The dataset's content fingerprint, hashed by the first snapshot (or
    /// taken from the one a restore verified) and stamped into every later
    /// one: the dataset never changes under a miner.
    fingerprint: OnceLock<u64>,
}

impl Miner {
    /// Wires a fresh miner: the model reports to the config's obs handle.
    fn assemble(data: Dataset, mut model: BackgroundModel, config: MinerConfig) -> Self {
        model.set_obs(config.beam.eval.obs);
        Self {
            data,
            model,
            config,
            iterations_done: 0,
            last_refit: None,
            language: OnceLock::new(),
            fingerprint: OnceLock::new(),
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

    /// Serializes the session state — the iteration counter and a content
    /// fingerprint of the dataset, then the background model (its cells
    /// and its constraints; no factor, since a restore builds each from
    /// the same state on first use) — into one checksummed
    /// [`sisd_data::snap`] container. The bytes are canonical: restoring
    /// and re-snapshotting yields the identical byte string.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>, SisdError> {
        let mut meta = Vec::with_capacity(16);
        put_u64(&mut meta, self.iterations_done as u64);
        let fingerprint = *self
            .fingerprint
            .get_or_init(|| self.data.content_fingerprint());
        put_u64(&mut meta, fingerprint);
        let mut w = SnapWriter::new();
        w.section(SEC_MINER_META, &meta)?;
        self.model.snapshot(&mut w)?;
        Ok(w.finish()?)
    }

    /// Writes the session snapshot to `path` crash-safely: the bytes go to
    /// a same-directory temp file which is fsynced and atomically renamed
    /// over the destination. A crash at any byte offset leaves either the
    /// previous snapshot or the new one — never a torn file.
    ///
    /// Records `snapshot.bytes` and `snapshot.write_ns` on the miner's
    /// obs handle.
    pub fn save(&self, path: &Path) -> Result<(), SisdError> {
        let obs = self.obs();
        let _span = obs.span(Metric::SnapshotWriteNs);
        let bytes = self.snapshot_bytes()?;
        atomic_write(path, &bytes)?;
        obs.add(Metric::SnapshotBytes, bytes.len() as u64);
        Ok(())
    }

    /// Rebuilds a miner from snapshot bytes. `data` must be the dataset
    /// the snapshot was taken against (verified by content fingerprint —
    /// resuming against different data is a hard error, not a silently
    /// wrong model); `config` is supplied fresh, so a resumed session may
    /// change thread counts or sinks. Results are bit-identical
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
                    .obs()
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
        let actual = data.content_fingerprint();
        if stamped != actual {
            return Err(SnapError::Corrupt(format!(
                "dataset fingerprint mismatch: snapshot was taken against \
                 {stamped:#018x}, but dataset {:?} hashes to {actual:#018x}",
                data.name
            ))
            .into());
        }
        let model = BackgroundModel::restore(&mut r)?;
        r.finish()?;
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
        miner.fingerprint = OnceLock::from(actual);
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

    /// Convergence statistics of this miner's most recent
    /// post-assimilation refit, `None` before the first assimilation (and
    /// after a restore). Deep interactive sessions watch
    /// `cycles`/`constraints_updated` grow as overlapping patterns
    /// accumulate — the observable cost of keeping the belief state
    /// converged. An enabled obs handle also records them, as the
    /// `refit.last_*` gauges beside the cumulative refit counters.
    pub fn last_refit_stats(&self) -> Option<RefitStats> {
        self.last_refit
    }

    /// The metrics/tracing handle this miner reports to: the one set with
    /// [`MinerConfig::with_obs`], disabled by default. Its
    /// [`ObsHandle::report`] is the report of every counter and gauge the
    /// miner's subsystems recorded.
    pub fn obs(&self) -> ObsHandle {
        self.config.beam.eval.obs
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
        self.refit()
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
        self.refit()
    }

    /// Re-converges the model after an assimilation and keeps the refit's
    /// statistics for [`Miner::last_refit_stats`].
    fn refit(&mut self) -> Result<(), ModelError> {
        let stats = self.model.refit(
            self.config.refit_tol.max(1e-12),
            self.config.refit_max_cycles.max(1),
        )?;
        self.last_refit = Some(stats);
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
    use sisd_obs::{NullSink, Obs};

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
        // Counting handles, so the durability metrics can be read back.
        let counted = || quick_config().with_obs(Obs::leaked(Box::new(NullSink)));
        let mut miner = Miner::from_empirical(data.clone(), counted()).unwrap();
        miner.step_with_spread().unwrap().unwrap();
        miner.step_location().unwrap().unwrap();
        let path = std::env::temp_dir().join(format!(
            "sisd-miner-roundtrip-{}-{:?}.snap",
            std::process::id(),
            std::thread::current().id()
        ));
        miner.save(&path).unwrap();
        let restored = Miner::load(&path, data, counted()).unwrap();
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
