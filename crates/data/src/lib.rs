//! Tabular data substrate for the SISD reproduction.
//!
//! The paper (§II) works with `n` data points, each carrying `dx`
//! arbitrarily-typed *description attributes* and a real-valued *target
//! vector* in `R^dy`. This crate provides:
//!
//! * [`Dataset`] — the container pairing typed description columns with an
//!   `n × dy` target matrix (kept as a bit matrix too when every target is
//!   0 or 1), plus subgroup statistics (mean / covariance /
//!   variance-along-direction, paper Eqs. 1–2),
//! * [`Column`] — numeric / categorical description columns,
//! * [`BitSet`] — dense extensions `I ⊆ [n]` with fast intersection counts,
//! * [`kernels`] — word-level fused AND/popcount primitives over bitset
//!   word slices, the substrate of the `sisd-frontier` batched refinement
//!   kernels,
//! * [`snap`] — the versioned, per-section CRC32-checksummed snapshot
//!   container (plus crash-safe [`snap::atomic_write`]) that durable
//!   session state serializes through,
//! * [`csv`] — a small CSV loader/writer,
//! * [`datasets`] — seeded generators for the paper's synthetic data and
//!   simulacra of its three real datasets.

pub mod bitset;
pub mod column;
pub mod csv;
pub mod datasets;
pub mod kernels;
pub mod snap;
pub mod table;

pub use bitset::BitSet;
pub use column::Column;
pub use table::Dataset;
