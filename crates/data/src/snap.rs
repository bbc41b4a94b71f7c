//! Versioned, checksummed binary snapshot container for durable session
//! state.
//!
//! A snapshot is one file:
//!
//! ```text
//! [8-byte magic "SISDSNAP"][u32 LE version]
//! [section]...[END section]
//! ```
//!
//! and every **section** is independently framed and checksummed:
//!
//! ```text
//! [u32 LE id][u32 LE payload len][payload bytes][u32 LE CRC32]
//! ```
//!
//! The CRC covers the section *header and* payload (id + length + bytes),
//! so a bit flip in the length field is caught by the checksum rather than
//! by whatever the shifted framing happens to decode to. Section lengths
//! are capped at [`MAX_SECTION_BYTES`] and element counts are validated
//! against the remaining payload *before* any allocation, so no input
//! bytes — torn write, bit flip, wrong file — can cause a panic, a hang,
//! or an unbounded allocation. Every failure decodes to a [`SnapError`].
//!
//! Readers consume sections in a fixed declared order ([`SnapReader::
//! section`] takes the expected id), which keeps the format canonical:
//! re-encoding a decoded snapshot reproduces the input bytes exactly.
//! That byte-stability is load-bearing — restore parity tests pin it.
//!
//! [`atomic_write`] provides the crash-safe publication step: bytes land
//! in a same-directory temp file, are fsynced, and only then renamed over
//! the destination (followed by a directory fsync), so a kill at any byte
//! offset leaves either the old snapshot or the new one, never garbage.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Leading magic bytes of every snapshot file.
pub const SNAP_MAGIC: [u8; 8] = *b"SISDSNAP";

/// Current snapshot format version. Bump on any layout change; readers
/// reject other versions with [`SnapError::VersionSkew`].
pub const SNAP_VERSION: u32 = 5;

/// Hard cap on one section's payload length. A snapshot announcing a
/// larger section is corrupt by definition — decoding fails before any
/// buffer is reserved.
pub const MAX_SECTION_BYTES: usize = 1 << 30;

/// A snapshot encode, decode, or persistence failure.
#[derive(Debug)]
pub enum SnapError {
    /// The underlying file or stream failed.
    Io(io::Error),
    /// The bytes are structurally invalid: bad magic, checksum mismatch,
    /// unexpected section, out-of-range field, trailing bytes.
    Corrupt(String),
    /// The file is a snapshot, but of a version this build cannot read.
    VersionSkew {
        /// Version stamped in the file.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The bytes end before the announced structure does (torn write).
    Truncated(String),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Io(e) => write!(f, "i/o: {e}"),
            SnapError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
            SnapError::VersionSkew { found, supported } => write!(
                f,
                "snapshot version {found} is not readable by this build (supports {supported})"
            ),
            SnapError::Truncated(m) => write!(f, "truncated snapshot: {m}"),
        }
    }
}

impl std::error::Error for SnapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapError {
    fn from(e: io::Error) -> Self {
        SnapError::Io(e)
    }
}

// ----------------------------------------------------------------------
// CRC32 (IEEE 802.3, polynomial 0xEDB88320) — in-repo, zero dependencies.
// ----------------------------------------------------------------------

/// Bytes the CRC consumes per round.
const CRC_SLICES: usize = 16;

/// Slicing-by-16 tables (Kounavis & Berry, 2005). `T[0]` is the classic
/// bytewise table; `T[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so one round folds 16 input bytes with 16 independent lookups.
const fn crc_tables() -> [[u32; 256]; CRC_SLICES] {
    let mut t = [[0u32; 256]; CRC_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < CRC_SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; CRC_SLICES] = crc_tables();

/// CRC32 (IEEE) of `bytes`, 16 bytes per round. Gives the values of the
/// classic one-byte-per-step table loop.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut rounds = bytes.chunks_exact(CRC_SLICES);
    for round in &mut rounds {
        let word =
            |j: usize| u32::from_le_bytes([round[j], round[j + 1], round[j + 2], round[j + 3]]);
        let mut folded = 0;
        for (j, w) in [word(0) ^ c, word(4), word(8), word(12)]
            .into_iter()
            .enumerate()
        {
            let k = CRC_SLICES - 1 - 4 * j;
            folded ^= t[k][(w & 0xFF) as usize]
                ^ t[k - 1][((w >> 8) & 0xFF) as usize]
                ^ t[k - 2][((w >> 16) & 0xFF) as usize]
                ^ t[k - 3][(w >> 24) as usize];
        }
        c = folded;
    }
    for &b in rounds.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ----------------------------------------------------------------------
// Payload encoding primitives
// ----------------------------------------------------------------------

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its exact IEEE-754 bit pattern. Snapshots must be
/// bit-stable, so floats never pass through a textual round-trip.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a length-prefixed `u64` slice.
pub fn put_words(buf: &mut Vec<u8>, words: &[u64]) {
    put_u32(buf, words.len() as u32);
    for &w in words {
        put_u64(buf, w);
    }
}

/// Appends a length-prefixed `f64` slice, bit-exact.
pub fn put_f64s(buf: &mut Vec<u8>, vals: &[f64]) {
    put_u32(buf, vals.len() as u32);
    for &v in vals {
        put_f64(buf, v);
    }
}

/// Bounded sequential reader over one section's payload. Every accessor
/// fails with [`SnapError::Truncated`] or [`SnapError::Corrupt`] instead
/// of slicing out of bounds; announced element counts are validated
/// against the remaining payload before allocation.
pub struct SnapCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapCursor<'a> {
    /// Starts reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapCursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapError> {
        if self.buf.len() - self.pos < n {
            return Err(SnapError::Truncated(format!(
                "{what}: wanted {n} bytes, {} left",
                self.buf.len() - self.pos
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, SnapError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its exact bit pattern.
    pub fn f64(&mut self, what: &str) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Length prefix of a vector of `elem_bytes`-wide elements, validated
    /// against the remaining payload before any allocation.
    pub fn seq_len(&mut self, elem_bytes: usize, what: &str) -> Result<usize, SnapError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(elem_bytes) > self.buf.len() - self.pos {
            return Err(SnapError::Corrupt(format!(
                "{what} announces {n} elements beyond the payload"
            )));
        }
        Ok(n)
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn words(&mut self, what: &str) -> Result<Vec<u64>, SnapError> {
        let n = self.seq_len(8, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64(what)?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `f64` vector, bit-exact.
    pub fn f64s(&mut self, what: &str) -> Result<Vec<f64>, SnapError> {
        let n = self.seq_len(8, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64(what)?);
        }
        Ok(out)
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self, what: &str) -> Result<(), SnapError> {
        if self.pos != self.buf.len() {
            return Err(SnapError::Corrupt(format!(
                "{what} section has {} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Container framing
// ----------------------------------------------------------------------

/// Section id reserved for the end-of-snapshot marker.
pub const SECTION_END: u32 = 0;

/// Builds a snapshot byte stream: magic, version, CRC-framed sections,
/// END marker.
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Starts a snapshot: magic plus [`SNAP_VERSION`].
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&SNAP_MAGIC);
        buf.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        SnapWriter { buf }
    }

    /// Appends one section: header, payload, and the CRC over both.
    /// `id` must be nonzero ([`SECTION_END`] is reserved).
    pub fn section(&mut self, id: u32, payload: &[u8]) -> Result<(), SnapError> {
        if id == SECTION_END {
            return Err(SnapError::Corrupt(
                "section id 0 is reserved for the end marker".into(),
            ));
        }
        self.raw_section(id, payload)
    }

    fn raw_section(&mut self, id: u32, payload: &[u8]) -> Result<(), SnapError> {
        if payload.len() > MAX_SECTION_BYTES {
            return Err(SnapError::Corrupt(format!(
                "section {id} payload of {} bytes exceeds {MAX_SECTION_BYTES}",
                payload.len()
            )));
        }
        let start = self.buf.len();
        put_u32(&mut self.buf, id);
        put_u32(&mut self.buf, payload.len() as u32);
        self.buf.extend_from_slice(payload);
        let crc = crc32(&self.buf[start..]);
        put_u32(&mut self.buf, crc);
        Ok(())
    }

    /// Appends the END marker and returns the finished snapshot bytes.
    pub fn finish(mut self) -> Result<Vec<u8>, SnapError> {
        self.raw_section(SECTION_END, &[])?;
        Ok(self.buf)
    }
}

impl Default for SnapWriter {
    fn default() -> Self {
        SnapWriter::new()
    }
}

/// Strict-order reader over a snapshot byte stream. Callers name the
/// section id they expect next; any deviation — wrong id, bad CRC, bytes
/// running out, bytes left over — is a [`SnapError`], never a panic.
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Validates magic and version, positioning at the first section.
    pub fn new(buf: &'a [u8]) -> Result<Self, SnapError> {
        if buf.len() < SNAP_MAGIC.len() + 4 {
            return Err(SnapError::Truncated(format!(
                "{} bytes is shorter than the snapshot header",
                buf.len()
            )));
        }
        if buf[..SNAP_MAGIC.len()] != SNAP_MAGIC {
            return Err(SnapError::Corrupt("bad magic bytes".into()));
        }
        let found = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if found != SNAP_VERSION {
            return Err(SnapError::VersionSkew {
                found,
                supported: SNAP_VERSION,
            });
        }
        Ok(SnapReader { buf, pos: 12 })
    }

    fn raw_section(&mut self) -> Result<(u32, &'a [u8]), SnapError> {
        let left = self.buf.len() - self.pos;
        if left < 8 {
            return Err(SnapError::Truncated(format!(
                "section header: wanted 8 bytes, {left} left"
            )));
        }
        let hdr = self.pos;
        let id = u32::from_le_bytes(self.buf[hdr..hdr + 4].try_into().unwrap());
        let len = u32::from_le_bytes(self.buf[hdr + 4..hdr + 8].try_into().unwrap()) as usize;
        if len > MAX_SECTION_BYTES {
            return Err(SnapError::Corrupt(format!(
                "section {id} announces {len} bytes, cap is {MAX_SECTION_BYTES}"
            )));
        }
        if left - 8 < len + 4 {
            return Err(SnapError::Truncated(format!(
                "section {id}: wanted {} payload+crc bytes, {} left",
                len + 4,
                left - 8
            )));
        }
        let payload = &self.buf[hdr + 8..hdr + 8 + len];
        let stored = u32::from_le_bytes(
            self.buf[hdr + 8 + len..hdr + 8 + len + 4]
                .try_into()
                .unwrap(),
        );
        let computed = crc32(&self.buf[hdr..hdr + 8 + len]);
        if stored != computed {
            return Err(SnapError::Corrupt(format!(
                "section {id} checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
        self.pos = hdr + 8 + len + 4;
        Ok((id, payload))
    }

    /// Reads the next section, requiring it to carry `id`.
    pub fn section(&mut self, id: u32, what: &str) -> Result<&'a [u8], SnapError> {
        let (got, payload) = self.raw_section()?;
        if got != id {
            return Err(SnapError::Corrupt(format!(
                "expected {what} section (id {id}), found id {got}"
            )));
        }
        Ok(payload)
    }

    /// Consumes the END marker and asserts nothing follows it.
    pub fn finish(mut self) -> Result<(), SnapError> {
        let (id, payload) = self.raw_section()?;
        if id != SECTION_END || !payload.is_empty() {
            return Err(SnapError::Corrupt(format!(
                "expected empty end marker, found section {id} with {} bytes",
                payload.len()
            )));
        }
        if self.pos != self.buf.len() {
            return Err(SnapError::Corrupt(format!(
                "{} trailing bytes after the end marker",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Crash-safe persistence
// ----------------------------------------------------------------------

/// The SEQ of [`atomic_write`]'s temp names, drawn once per name tried.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// How many temp names one [`atomic_write`] tries.
const TMP_NAME_TRIES: u32 = 1024;

/// Writes `bytes` to `path` atomically: same-directory temp file,
/// `write_all`, fsync, rename over the destination, then fsync the
/// directory. A crash at any byte offset leaves either the previous file
/// or the complete new one — never a torn mixture. The temp file is
/// removed on failure (and is ignored by readers if a kill strands it).
///
/// Every call writes its own temp file, `.NAME.tmp.PID.SEQ`, created
/// exclusively, so concurrent saves to one path never share one: each
/// renames a complete file, and the last rename wins. A name that is
/// already taken (stranded by a killed process that had the same pid, as
/// a container's entrypoint does on every restart) is skipped, not
/// reused or removed: the call draws the next SEQ, and fails with
/// `AlreadyExists` only after 1024 taken names in a row.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), SnapError> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path.file_name().ok_or_else(|| {
        SnapError::Io(io::Error::new(io::ErrorKind::InvalidInput, "no file name"))
    })?;
    let mut tries = 0;
    // Created before the cleanup scope: a failed create removes nothing,
    // since the name may be another writer's.
    let (tmp, f) = loop {
        let mut tmp_name = std::ffi::OsString::from(".");
        tmp_name.push(file_name);
        tmp_name.push(format!(
            ".tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let tmp = match dir {
            Some(d) => d.join(&tmp_name),
            None => std::path::PathBuf::from(&tmp_name),
        };
        tries += 1;
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&tmp)
        {
            Ok(f) => break (tmp, f),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists && tries < TMP_NAME_TRIES => {}
            Err(e) => return Err(SnapError::Io(e)),
        }
    };
    let result = (|| -> io::Result<()> {
        let mut f = f;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        if let Some(d) = dir {
            // Durability of the rename itself: fsync the directory entry.
            std::fs::File::open(d)?.sync_all()?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map_err(SnapError::Io)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn sample_snapshot() -> Vec<u8> {
        let mut w = SnapWriter::new();
        let mut p = Vec::new();
        put_u64(&mut p, 42);
        put_f64s(&mut p, &[1.5, -0.0, f64::MIN_POSITIVE]);
        put_words(&mut p, &[7, u64::MAX]);
        w.section(1, &p).unwrap();
        w.section(2, &[]).unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn sections_roundtrip_in_order() {
        let bytes = sample_snapshot();
        let mut r = SnapReader::new(&bytes).unwrap();
        let p = r.section(1, "first").unwrap();
        let mut c = SnapCursor::new(p);
        assert_eq!(c.u64("v").unwrap(), 42);
        let f = c.f64s("fs").unwrap();
        assert_eq!(f.len(), 3);
        assert_eq!(f[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(c.words("ws").unwrap(), [7, u64::MAX]);
        c.finish("first").unwrap();
        assert!(r.section(2, "second").unwrap().is_empty());
        r.finish().unwrap();
    }

    #[test]
    fn wrong_section_order_is_corrupt() {
        let bytes = sample_snapshot();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(r.section(2, "second"), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        let bytes = sample_snapshot();
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            let err = (|| -> Result<(), SnapError> {
                let mut r = SnapReader::new(prefix)?;
                let p = r.section(1, "first")?;
                let mut c = SnapCursor::new(p);
                c.u64("v")?;
                c.f64s("fs")?;
                c.words("ws")?;
                c.finish("first")?;
                r.section(2, "second")?;
                r.finish()
            })()
            .unwrap_err();
            assert!(
                matches!(err, SnapError::Truncated(_) | SnapError::Corrupt(_)),
                "cut {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_fails_cleanly() {
        let bytes = sample_snapshot();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[i] ^= 1 << bit;
                let result = (|| -> Result<(), SnapError> {
                    let mut r = SnapReader::new(&mutated)?;
                    let p = r.section(1, "first")?;
                    let mut c = SnapCursor::new(p);
                    c.u64("v")?;
                    c.f64s("fs")?;
                    c.words("ws")?;
                    c.finish("first")?;
                    r.section(2, "second")?;
                    r.finish()
                })();
                assert!(
                    matches!(
                        result,
                        Err(SnapError::Truncated(_)
                            | SnapError::Corrupt(_)
                            | SnapError::VersionSkew { .. })
                    ),
                    "byte {i} bit {bit}: container framing must catch every flip"
                );
            }
        }
    }

    #[test]
    fn version_skew_is_reported_as_such() {
        // 2, 3 and 4 are earlier formats, which are not migrated.
        assert_eq!(SNAP_VERSION, 5);
        for version in [2u32, 3, 4, 99] {
            let mut bytes = sample_snapshot();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                SnapReader::new(&bytes),
                Err(SnapError::VersionSkew {
                    found,
                    supported: SNAP_VERSION
                }) if found == version
            ));
        }
    }

    #[test]
    fn absurd_element_counts_fail_before_allocating() {
        let mut w = SnapWriter::new();
        let mut p = Vec::new();
        put_u32(&mut p, 1 << 30); // announce ~1G words in a 4-byte payload
        w.section(1, &p).unwrap();
        let bytes = w.finish().unwrap();
        let mut r = SnapReader::new(&bytes).unwrap();
        let payload = r.section(1, "bad").unwrap();
        let mut c = SnapCursor::new(payload);
        assert!(matches!(c.words("w"), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_after_end_are_corrupt() {
        let mut bytes = sample_snapshot();
        bytes.push(0);
        let mut r = SnapReader::new(&bytes).unwrap();
        r.section(1, "first").unwrap();
        r.section(2, "second").unwrap();
        assert!(matches!(r.finish(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn atomic_write_replaces_and_survives_stranded_temp() {
        let dir = std::env::temp_dir().join(format!("sisd-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.snap");
        atomic_write(&path, b"old snapshot").unwrap();
        // Simulate a kill mid-write by an earlier process with this pid:
        // torn temp files on the very names the next saves would draw.
        let next = TMP_SEQ.load(Ordering::Relaxed);
        let stranded: Vec<_> = (next..next + 8)
            .map(|seq| dir.join(format!(".model.snap.tmp.{}.{seq}", std::process::id())))
            .collect();
        for tmp in &stranded {
            std::fs::write(tmp, b"to").unwrap();
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"old snapshot");
        atomic_write(&path, b"new snapshot").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new snapshot");
        for tmp in &stranded {
            assert_eq!(std::fs::read(tmp).unwrap(), b"to", "not this call's file");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_saves_to_one_path_each_publish_a_whole_file() {
        let dir = std::env::temp_dir().join(format!("sisd-snap-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.snap");
        let a = vec![0xAA; 1 << 18];
        let b = vec![0x55; (1 << 18) + 1];
        for round in 0..10 {
            let start = std::sync::Barrier::new(2);
            let save = |bytes: &[u8]| {
                start.wait();
                atomic_write(&path, bytes)
            };
            let (ra, rb) = std::thread::scope(|s| {
                let ta = s.spawn(|| save(&a));
                let tb = s.spawn(|| save(&b));
                (ta.join().unwrap(), tb.join().unwrap())
            });
            assert!(ra.is_ok() && rb.is_ok(), "round {round}: {ra:?} {rb:?}");
            let on_disk = std::fs::read(&path).unwrap();
            assert!(
                on_disk == a || on_disk == b,
                "round {round}: a torn mixture"
            );
        }
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(left.len(), 1, "every temp file was renamed away");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_missing_dir_errors_cleanly() {
        let path = std::env::temp_dir()
            .join("sisd-snap-no-such-dir")
            .join("x.snap");
        assert!(matches!(
            atomic_write(&path, b"bytes"),
            Err(SnapError::Io(_))
        ));
    }
}
