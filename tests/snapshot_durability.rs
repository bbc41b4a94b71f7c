//! The durability and recovery contract of session snapshots
//! (`sisd_data::snap` + `BackgroundModel::snapshot/restore` +
//! `Miner::save/load`):
//!
//! 1. **Byte stability.** For arbitrary mined sessions, snapshot →
//!    restore → snapshot reproduces the identical byte string — the
//!    format is canonical, with no hidden nondeterminism.
//! 2. **Corruption is always a clean error.** Any single-byte mutation
//!    and any truncation of a valid snapshot yields `Err` — never a
//!    panic, hang, or silently wrong model.
//! 3. **Restore parity.** A restored miner's subsequent searches and
//!    refits are bit-identical to the uninterrupted original, with worker
//!    threads {1, 4} on either side of the snapshot.
//! 4. **Crash safety.** A write torn at an arbitrary byte offset (the
//!    `FailingWriter` fault injector below) never corrupts the previous
//!    durable snapshot.

use proptest::prelude::*;
use sisd::data::datasets::synthetic_paper;
use sisd::search::{BeamConfig, BeamResult, Miner, MinerConfig, SphereConfig};
use std::io::{self, Write};

/// A [`Write`] adapter that fails with an injected I/O error after `limit`
/// bytes — the torn-write generator. Bytes up to the limit pass through
/// to the inner writer, so the inner sink is left holding exactly the
/// prefix a killed process would have persisted.
struct FailingWriter<W> {
    inner: W,
    remaining: usize,
}

impl<W: Write> FailingWriter<W> {
    /// Fails after exactly `limit` bytes have been accepted.
    fn new(inner: W, limit: usize) -> Self {
        FailingWriter {
            inner,
            remaining: limit,
        }
    }

    /// Unwraps the inner sink (holding the surviving prefix).
    fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FailingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected write fault",
            ));
        }
        let n = buf.len().min(self.remaining);
        let written = self.inner.write(&buf[..n])?;
        self.remaining -= written;
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

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

fn config_at(threads: usize) -> MinerConfig {
    quick_config().with_threads(threads)
}

/// Mines a session: `iters` iterations on `synthetic_paper(seed)`, each of
/// the first `spreads` with a spread pattern too (so the snapshot covers
/// tilted covariances, and location constraints whose S-factors the tilts
/// dropped).
fn mined_session(seed: u64, iters: usize, spreads: usize, config: MinerConfig) -> Miner {
    let (data, _) = synthetic_paper(seed);
    let mut miner = Miner::from_empirical(data, config).expect("empirical model");
    for i in 0..iters {
        let stepped = if i < spreads {
            miner.step_with_spread().expect("assimilation")
        } else {
            miner.step_location().expect("assimilation")
        };
        if stepped.is_none() {
            break;
        }
    }
    miner
}

/// Everything observable about one search, bitwise: per-pattern extension
/// plus the raw bits of its SI score.
fn search_digest(result: &BeamResult) -> Vec<(Vec<usize>, u64)> {
    result
        .top
        .iter()
        .map(|p| (p.extension.to_indices(), p.score.si.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite: random-model snapshot round-trip is byte-stable.
    #[test]
    fn snapshot_roundtrip_is_byte_stable(
        seed in 0u64..1000,
        iters in 1usize..4,
        spread in any::<bool>(),
    ) {
        let miner = mined_session(seed, iters, usize::from(spread), quick_config());
        let bytes = miner.snapshot_bytes().expect("snapshot");
        let (data, _) = synthetic_paper(seed);
        let restored = Miner::restore_bytes(&bytes, data, quick_config()).expect("restore");
        let again = restored.snapshot_bytes().expect("re-snapshot");
        prop_assert_eq!(
            &bytes, &again,
            "snapshot → restore → snapshot must reproduce identical bytes \
             (seed {seed}, iters {iters}, spread {spread})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Satellite: single-byte mutations at arbitrary offsets always yield
    /// a clean `Err`, never a panic or a silently wrong model.
    #[test]
    fn any_single_byte_mutation_fails_cleanly(
        offset in 0usize..usize::MAX / 2,
        bit in 0usize..8,
    ) {
        // One fixed session, mutated at a proptest-chosen offset. The
        // session is rebuilt per case (the shim has no per-test setup),
        // but with one fast iteration that is cheap.
        let miner = mined_session(42, 1, 1, quick_config());
        let bytes = miner.snapshot_bytes().expect("snapshot");
        let offset = offset % bytes.len();
        let mut bad = bytes.clone();
        bad[offset] ^= 1 << bit;
        let (data, _) = synthetic_paper(42);
        let result = Miner::restore_bytes(&bad, data, quick_config());
        prop_assert!(
            result.is_err(),
            "flipping bit {bit} of byte {offset}/{} must be rejected",
            bytes.len()
        );
    }

    /// Satellite: truncation at any offset is `Err`, never a panic.
    #[test]
    fn any_truncation_fails_cleanly(cut in 0usize..usize::MAX / 2) {
        let miner = mined_session(42, 1, 1, quick_config());
        let bytes = miner.snapshot_bytes().expect("snapshot");
        let cut = cut % bytes.len(); // strictly shorter than the original
        let (data, _) = synthetic_paper(42);
        let result = Miner::restore_bytes(&bytes[..cut], data, quick_config());
        prop_assert!(result.is_err(), "truncation to {cut}/{} bytes", bytes.len());
    }
}

/// Acceptance: a restored miner's subsequent searches and refits are
/// bit-identical to the uninterrupted original, across worker threads
/// {1, 4} on both sides of the snapshot. The sessions mine a spread at
/// their first iteration only, or at every one, so that the restored
/// model starts with several tilted cells, and builds every factor on
/// first use where the original kept its own.
#[test]
fn restored_sessions_are_bit_identical_across_threads() {
    for ((iters, spreads), threads) in [(2, 1), (3, 3)]
        .into_iter()
        .flat_map(|session| [1usize, 4].map(|threads| (session, threads)))
    {
        // The uninterrupted reference session, mined at this thread count.
        let original = mined_session(42, iters, spreads, config_at(threads));
        let tilted = original.model().cells().iter().filter(|c| c.cov.id() != 0);
        assert!(
            tilted.count() >= spreads,
            "{spreads} spread(s) tilt as many cells"
        );
        let bytes = original.snapshot_bytes().expect("snapshot");
        // Restore at every thread count: the execution plan must never
        // leak into results, so each restored session must track the
        // original bit-for-bit.
        for rt in [1usize, 4] {
            let (data, _) = synthetic_paper(42);
            let mut restored = Miner::restore_bytes(&bytes, data, config_at(rt)).expect("restore");
            assert_eq!(restored.iterations_done(), original.iterations_done());
            assert_eq!(
                search_digest(&restored.search_locations()),
                search_digest(&original.search_locations()),
                "search after restore diverged: mined at {threads} thread(s), \
                 resumed at {rt}"
            );
            // Continue both sessions one iteration and compare the refit
            // work and the mined pattern.
            let a = original
                .clone()
                .step_with_spread()
                .expect("original step")
                .expect("pattern");
            let b = restored
                .step_with_spread()
                .expect("restored step")
                .expect("pattern");
            assert_eq!(a.location.extension, b.location.extension);
            assert_eq!(
                a.location.score.si.to_bits(),
                b.location.score.si.to_bits(),
                "post-restore SI bits diverged at {rt} thread(s)"
            );
            assert_eq!(
                a.spread.map(|s| s.observed_variance.to_bits()),
                b.spread.map(|s| s.observed_variance.to_bits())
            );
            assert_eq!(restored.last_refit_stats(), {
                // The original clone used for stepping owns its stats.
                let mut orig =
                    Miner::restore_bytes(&bytes, synthetic_paper(42).0, config_at(threads))
                        .expect("restore reference");
                orig.step_with_spread().expect("step").expect("pattern");
                orig.last_refit_stats()
            });
        }
    }
}

#[test]
fn failing_writer_leaves_exact_prefix() {
    let bytes = mined_session(42, 1, 0, quick_config())
        .snapshot_bytes()
        .expect("snapshot");
    let limit = bytes.len() / 2;
    let mut w = FailingWriter::new(Vec::new(), limit);
    let err = w.write_all(&bytes).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    let torn = w.into_inner();
    assert_eq!(&torn[..], &bytes[..limit]);
    // The torn prefix must fail restore cleanly.
    let (data, _) = synthetic_paper(42);
    assert!(Miner::restore_bytes(&torn, data, quick_config()).is_err());
}

/// Crash safety: a write torn at an arbitrary offset (fault-injected via
/// `FailingWriter`) leaves the previous durable snapshot untouched and
/// loadable, and the torn bytes themselves never load.
#[test]
fn torn_writes_never_corrupt_the_durable_snapshot() {
    let dir = std::env::temp_dir().join(format!(
        "sisd-torn-write-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("session.snap");

    let mut miner = mined_session(42, 1, 0, quick_config());
    miner.save(&path).expect("first save");
    let v1 = std::fs::read(&path).expect("durable v1");

    // The session advances; a crash tears the *next* snapshot's write at
    // every 37th offset (a full per-byte sweep at integration-test cost).
    miner.step_location().expect("step").expect("pattern");
    let v2 = miner.snapshot_bytes().expect("snapshot v2");
    for cut in (0..v2.len()).step_by(37) {
        let mut torn = FailingWriter::new(Vec::new(), cut);
        let _ = torn.write_all(&v2); // fails once `cut` bytes are down
        let torn = torn.into_inner();
        assert_eq!(torn.len(), cut, "fault injector must cut exactly at {cut}");
        // The torn bytes land in a temp file that never got renamed over
        // the snapshot — exactly what `atomic_write` guarantees. The
        // durable file still holds v1...
        std::fs::write(dir.join(".session.snap.tmp.999"), &torn).expect("stranded temp");
        assert_eq!(std::fs::read(&path).expect("v1 intact"), v1);
        let (data, _) = synthetic_paper(42);
        let recovered = Miner::load(&path, data, quick_config()).expect("v1 loads");
        assert_eq!(recovered.iterations_done(), 1);
        // ...and the torn prefix itself never parses (empty input is the
        // one trivially-detected case checked outside the loop).
        if cut > 0 {
            let (data, _) = synthetic_paper(42);
            assert!(Miner::restore_bytes(&torn, data, quick_config()).is_err());
        }
    }
    // A completed rewrite replaces v1 atomically.
    miner.save(&path).expect("second save");
    assert_eq!(std::fs::read(&path).expect("v2 durable"), v2);
    std::fs::remove_dir_all(&dir).ok();
}
