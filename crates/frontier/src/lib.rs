//! The batched candidate-frontier subsystem.
//!
//! Level-wise subgroup search spends its non-scoring time materializing
//! refinements: every `(frontier parent, condition)` pair needs the
//! intersection of the parent's extension with the condition's row mask,
//! its popcount for the coverage filters, and a dedup decision. Done one
//! `BitSet::and` at a time that is an allocation plus two word traversals
//! per candidate, with the condition masks re-evaluated or scattered
//! across the heap. This crate batches the whole pass:
//!
//! * [`MaskMatrix`] — **the bit-matrix.** Every condition mask of the
//!   description language, evaluated once per dataset and packed row-major
//!   into one contiguous word arena (structure-of-arrays; see the type
//!   docs for the exact layout). Search levels, strategies, and repeated
//!   searches over the same dataset all reuse the same rows. On request it
//!   also keeps its transpose, one membership word per dataset row per 64
//!   conditions ([`MaskMatrix::lane_words`]), from which a scorer reads 64
//!   siblings' masks in one walk over their parent.
//! * [`FrontierBuilder`] — **count-first refinement, fused per block.**
//!   For each parent, a cache-resident block of matrix rows is counted
//!   with the store-free
//!   [`sisd_data::kernels::and_count_many_select`]; the support filters
//!   and a caller-supplied keep predicate
//!   ([`FrontierBuilder::refine_with_prune`] — dedup signature checks,
//!   branch-and-bound optimistic bounds) run on the counts; and only the
//!   survivors' `(parent, row, support)` are kept, in a [`ChildBatch`]
//!   that borrows the parents and the matrix. Refinement writes no child
//!   words: a consumer ANDs a child's parent and row
//!   ([`sisd_data::kernels::and_into`]) when it needs the child's words —
//!   into its own buffer ([`ChildBatch::child_words_into`]), or as an
//!   owned `BitSet` ([`ChildBatch::child_bitset`]) for the children it
//!   keeps.
//!
//! # Determinism contract
//!
//! [`FrontierBuilder::refine_with_prune`] runs on the calling thread,
//! returns children ordered by `(parent, row)` — the exact visit order of
//! the serial nested loop — and consults the keep predicate in that same
//! order, so a stateful first-wins dedup keeps exactly what the serial
//! generate-and-dedup loop keeps. Each child's words are a pure function of
//! its parent and row, whenever they are computed. Parallelism lives one layer up: `sisd-search`'s
//! evaluator scores a batch on scoped threads with results bit-identical
//! at any thread count.

pub mod builder;
pub mod matrix;

pub use builder::{ChildBatch, ChildMeta, FrontierBuilder, FrontierConfig, ParentSpec};
pub use matrix::MaskMatrix;
