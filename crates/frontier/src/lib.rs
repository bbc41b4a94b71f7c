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
//!   searches over the same dataset all reuse the same rows.
//! * [`sisd_data::kernels`] + [`refine_block`] — **word-blocked kernels.**
//!   The fused AND+popcount primitives live next to `BitSet` in
//!   `sisd-data`: count-only block kernels
//!   ([`sisd_data::kernels::and_count_many_select`]) for the counting
//!   pass, a store-only AND ([`sisd_data::kernels::and_into`]) for
//!   materialization, and the fused AND+store+popcount
//!   ([`sisd_data::kernels::and_into_count`]) that [`refine_block`]
//!   applies for the single-pass reference path.
//! * [`FrontierBuilder`] — **count-first deterministic parallel
//!   refinement.** Pass 1 computes support counts for every allowed
//!   `(parent, row)` pair with *no store traffic*; the support filters
//!   and a caller-supplied keep predicate
//!   ([`FrontierBuilder::refine_with_prune`] — dedup signature checks,
//!   branch-and-bound optimistic bounds) run serially on the counts; pass
//!   2 materializes only the survivors into a [`ChildBatch`] — metadata
//!   plus one packed word arena. A rejected candidate never writes a
//!   word, and a heap allocation is paid only when a surviving child is
//!   materialized as a `BitSet` ([`ChildBatch::child_bitset`]). On the
//!   calling thread the passes fuse per cache-resident block; with
//!   `threads > 1` both passes split into contiguous work items merged in
//!   item order.
//!
//! # Determinism contract
//!
//! [`FrontierBuilder::refine_parents`] returns children ordered by
//! `(parent, row)` — the exact visit order of the serial nested loop —
//! **at any thread count**. Each child's words are a pure function of its
//! parent and row, so the output is bit-identical however the work was
//! scheduled. Order-sensitive post-passes (first-wins dedup via
//! [`dedup_in_order`], top-k selection, batch scoring through
//! `sisd-search`'s evaluator) therefore behave as if the search were
//! single-threaded, mirroring the `Evaluator::score_all` contract one
//! layer up.

pub mod builder;
pub mod matrix;

pub use builder::{
    dedup_in_order, refine_block, ChildBatch, ChildMeta, FrontierBuilder, FrontierConfig,
    ParentSpec,
};
pub use matrix::MaskMatrix;
