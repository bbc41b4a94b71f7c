//! Frontier-generation throughput: the batched `sisd-frontier` refinement
//! (contiguous bit-matrix, fused AND+popcount kernels, count-first
//! two-pass split, allocation only for surviving children) against the
//! per-candidate `BitSet::and` + `count` loop it replaced and against the
//! single-pass (PR 4) builder, on a dense synthetic workload shaped like a
//! wide beam level: 32 frontier parents × 256 condition masks over 8192
//! rows, with a support floor that keeps roughly half the children — the
//! rejected half is exactly what count-first refinement never
//! materializes.
//!
//! All paths produce identical children (asserted before timing — these
//! asserts double as CI's cheap end-to-end parity gate, see the
//! bench-parity smoke step in the workflow); the thread variants are
//! bit-identical by the frontier determinism contract and bounded by the
//! machine's available parallelism (coincident on a single-core
//! container).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sisd_data::{kernels, BitSet};
use sisd_frontier::{
    ChildBatch, ChildMeta, FrontierBuilder, FrontierConfig, MaskMatrix, ParentSpec,
};
use sisd_stats::Xoshiro256pp;
use std::hint::black_box;

const N_ROWS: usize = 8192;
const N_CONDITIONS: usize = 256;
const N_PARENTS: usize = 32;
const MIN_SUPPORT: usize = 1024;

fn random_mask(rng: &mut Xoshiro256pp, n: usize, density: f64) -> BitSet {
    BitSet::from_fn(n, |_| rng.uniform() < density)
}

struct Workload {
    matrix: MaskMatrix,
    masks: Vec<BitSet>,
    parents: Vec<BitSet>,
}

fn workload(seed: u64) -> Workload {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    // Mask density 0.5, parent density 0.25: expected child support
    // ~N_ROWS/8 = 1024, right at the floor, so roughly half the children
    // survive — the rest exercise the reject-without-allocating path.
    let masks: Vec<BitSet> = (0..N_CONDITIONS)
        .map(|_| random_mask(&mut rng, N_ROWS, 0.5))
        .collect();
    let parents: Vec<BitSet> = (0..N_PARENTS)
        .map(|_| random_mask(&mut rng, N_ROWS, 0.25))
        .collect();
    Workload {
        matrix: MaskMatrix::from_bitsets(N_ROWS, masks.iter().cloned()),
        masks,
        parents,
    }
}

/// The pre-refactor generation loop: one `BitSet::and` allocation plus a
/// separate `count` traversal per (parent, condition) pair, masks held as
/// scattered per-condition bitsets.
fn per_candidate_loop(w: &Workload) -> Vec<(ChildMeta, BitSet)> {
    let mut out = Vec::new();
    for (p, parent) in w.parents.iter().enumerate() {
        let max_support = parent.count().saturating_sub(1);
        for (row, mask) in w.masks.iter().enumerate() {
            let ext = parent.and(mask);
            let support = ext.count();
            if support >= MIN_SUPPORT && support <= max_support {
                out.push((
                    ChildMeta {
                        parent: p,
                        row,
                        support,
                    },
                    ext,
                ));
            }
        }
    }
    out
}

fn batched(w: &Workload, threads: usize) -> ChildBatch {
    let parents: Vec<ParentSpec<'_>> = w
        .parents
        .iter()
        .map(|ext| ParentSpec {
            ext,
            max_support: ext.count().saturating_sub(1),
        })
        .collect();
    FrontierBuilder::new(
        &w.matrix,
        FrontierConfig {
            min_support: MIN_SUPPORT,
            threads,
            ..FrontierConfig::default()
        },
    )
    .refine_parents(&parents, |_, _| true)
}

/// The PR 4 single-pass builder on the same workload (fused AND + store +
/// popcount for every candidate, filters inline) — the baseline the
/// count-first split is measured against.
fn batched_single_pass(w: &Workload, threads: usize) -> ChildBatch {
    let parents: Vec<ParentSpec<'_>> = w
        .parents
        .iter()
        .map(|ext| ParentSpec {
            ext,
            max_support: ext.count().saturating_sub(1),
        })
        .collect();
    FrontierBuilder::new(
        &w.matrix,
        FrontierConfig {
            min_support: MIN_SUPPORT,
            threads,
            ..FrontierConfig::default()
        },
    )
    .refine_parents_single_pass(&parents, |_, _| true)
}

fn assert_identical(a: &ChildBatch, b: &[(ChildMeta, BitSet)]) {
    assert_eq!(a.len(), b.len(), "child counts differ");
    for (i, (meta, ext)) in b.iter().enumerate() {
        assert_eq!(a.meta(i), *meta);
        assert_eq!(&a.child_bitset(i), ext, "child extensions differ");
    }
}

fn bench_frontier_generation(c: &mut Criterion) {
    let w = workload(17);
    let reference = per_candidate_loop(&w);
    assert!(
        !reference.is_empty() && reference.len() < N_PARENTS * N_CONDITIONS,
        "workload must both keep and reject children (kept {})",
        reference.len()
    );
    for threads in [1usize, 2, 4] {
        assert_identical(&batched(&w, threads), &reference);
        assert_identical(&batched_single_pass(&w, threads), &reference);
    }

    let mut group = c.benchmark_group("frontier_generation_8192x256x32");
    group.sample_size(10);
    group.bench_function("per_candidate_and_loop", |b| {
        b.iter(|| per_candidate_loop(black_box(&w)).len())
    });
    group.bench_function("single_pass_threads1", |b| {
        b.iter(|| batched_single_pass(black_box(&w), 1).len())
    });
    for &threads in &[1usize, 2, 4] {
        group.bench_function(
            BenchmarkId::from_parameter(format!("batched_threads{threads}")),
            |b| b.iter(|| batched(black_box(&w), threads).len()),
        );
    }
    group.finish();
}

fn bench_and_count_many(c: &mut Criterion) {
    // The count-only kernel in isolation: support counts for one parent
    // against every matrix row, fused vs materialize-then-count.
    let w = workload(23);
    let parent = &w.parents[0];
    let mut counts = vec![0usize; N_CONDITIONS];
    w.matrix
        .and_count_block(parent, 0, N_CONDITIONS, &mut counts);
    for (row, mask) in w.masks.iter().enumerate() {
        assert_eq!(counts[row], parent.and(mask).count(), "row {row}");
    }

    let mut group = c.benchmark_group("and_count_8192x256");
    group.sample_size(10);
    group.bench_function("and_count_many_block", |b| {
        b.iter(|| {
            w.matrix
                .and_count_block(black_box(parent), 0, N_CONDITIONS, &mut counts);
            counts[N_CONDITIONS - 1]
        })
    });
    group.bench_function("per_row_and_then_count", |b| {
        b.iter(|| {
            w.masks
                .iter()
                .map(|m| black_box(parent).and(m).count())
                .sum::<usize>()
        })
    });
    group.bench_function("per_row_intersection_count", |b| {
        b.iter(|| {
            w.masks
                .iter()
                .map(|m| kernels::and_count(black_box(parent).words(), m.words()))
                .sum::<usize>()
        })
    });
    group.finish();
}

/// The multi-parent grid kernels against the per-parent loop they batch
/// (`cargo bench --bench bench_frontier -- kernels` times only this
/// group). Every timed path is first asserted bit-identical to the
/// scalar per-row `BitSet::and().count()` reference — whichever twin the
/// runtime probe dispatched to (portable unrolled or AVX2) — so CI's
/// kernel smoke step doubles as a scalar/AVX2/grid parity gate.
fn bench_kernels_grid(c: &mut Criterion) {
    let w = workload(29);
    let block = w.matrix.block_words(0, N_CONDITIONS);
    let parents: Vec<&[u64]> = w.parents.iter().map(|p| p.words()).collect();

    // Parity gate: grid and per-parent kernels vs the scalar reference.
    let mut grid = vec![0usize; N_PARENTS * N_CONDITIONS];
    kernels::and_count_grid(&parents, block, &mut grid);
    let mut many = vec![0usize; N_CONDITIONS];
    for (p, parent) in w.parents.iter().enumerate() {
        kernels::and_count_many(parent.words(), block, &mut many);
        for (row, mask) in w.masks.iter().enumerate() {
            let expect = parent.and(mask).count();
            assert_eq!(many[row], expect, "and_count_many parent {p} row {row}");
            assert_eq!(
                grid[p * N_CONDITIONS + row],
                expect,
                "and_count_grid parent {p} row {row}"
            );
        }
    }
    // The select twin, on an every-other-cell mask.
    let select: Vec<bool> = (0..N_PARENTS * N_CONDITIONS).map(|c| c % 2 == 0).collect();
    let mut grid_sel = vec![usize::MAX; N_PARENTS * N_CONDITIONS];
    kernels::and_count_grid_select(&parents, block, &select, &mut grid_sel);
    for (cell, (&sel, &full)) in select.iter().zip(&grid).enumerate() {
        let expect = if sel { full } else { usize::MAX };
        assert_eq!(grid_sel[cell], expect, "and_count_grid_select cell {cell}");
    }

    let mut group = c.benchmark_group("kernels_grid_8192x256x32");
    group.sample_size(10);
    group.bench_function("per_parent_and_count_many", |b| {
        let mut counts = vec![0usize; N_CONDITIONS];
        b.iter(|| {
            let mut total = 0usize;
            for parent in &w.parents {
                kernels::and_count_many(black_box(parent.words()), block, &mut counts);
                total += counts[N_CONDITIONS - 1];
            }
            total
        })
    });
    group.bench_function("and_count_grid", |b| {
        let mut counts = vec![0usize; N_PARENTS * N_CONDITIONS];
        b.iter(|| {
            kernels::and_count_grid(black_box(&parents), block, &mut counts);
            counts[N_PARENTS * N_CONDITIONS - 1]
        })
    });
    group.bench_function("and_count_grid_select_half", |b| {
        let mut counts = vec![0usize; N_PARENTS * N_CONDITIONS];
        b.iter(|| {
            kernels::and_count_grid_select(black_box(&parents), block, &select, &mut counts);
            counts[N_PARENTS * N_CONDITIONS - 2]
        })
    });
    group.finish();
    bench_kernels_grid_big(c);
}

/// A mask matrix too big to stay cached between parents (64 Ki rows ×
/// 512 conditions = 4 MiB of mask words): the shape where the grid
/// kernels' tiling pays, because the per-parent loop re-streams the whole
/// matrix from beyond-L2 once per parent while the grid loads each block
/// row once per 8-parent tile. Also times end-to-end serial refinement,
/// which routes multi-parent count passes through the grid above
/// `GRID_MIN_MATRIX_WORDS` (this shape clears it 32×).
fn bench_kernels_grid_big(c: &mut Criterion) {
    const BIG_ROWS: usize = 65_536;
    const BIG_CONDITIONS: usize = 512;
    const BIG_PARENTS: usize = 8;
    let mut rng = Xoshiro256pp::seed_from_u64(31);
    let masks: Vec<BitSet> = (0..BIG_CONDITIONS)
        .map(|_| random_mask(&mut rng, BIG_ROWS, 0.5))
        .collect();
    let matrix = MaskMatrix::from_bitsets(BIG_ROWS, masks.iter().cloned());
    let parent_sets: Vec<BitSet> = (0..BIG_PARENTS)
        .map(|_| random_mask(&mut rng, BIG_ROWS, 0.25))
        .collect();
    let parents: Vec<&[u64]> = parent_sets.iter().map(|p| p.words()).collect();
    let block = matrix.block_words(0, BIG_CONDITIONS);

    // Parity gate at the big shape before timing.
    let mut grid = vec![0usize; BIG_PARENTS * BIG_CONDITIONS];
    kernels::and_count_grid(&parents, block, &mut grid);
    let mut many = vec![0usize; BIG_CONDITIONS];
    for (p, parent) in parent_sets.iter().enumerate() {
        kernels::and_count_many(parent.words(), block, &mut many);
        assert_eq!(
            &grid[p * BIG_CONDITIONS..(p + 1) * BIG_CONDITIONS],
            many.as_slice(),
            "big-shape grid parity, parent {p}"
        );
    }

    let specs: Vec<ParentSpec<'_>> = parent_sets
        .iter()
        .map(|ext| ParentSpec {
            ext,
            max_support: ext.count().saturating_sub(1),
        })
        .collect();
    let min_support = BIG_ROWS / 8;
    let refine = |single_pass: bool| {
        let builder = FrontierBuilder::new(
            &matrix,
            FrontierConfig {
                min_support,
                threads: 1,
                ..FrontierConfig::default()
            },
        );
        if single_pass {
            builder.refine_parents_single_pass(&specs, |_, _| true)
        } else {
            builder.refine_parents(&specs, |_, _| true)
        }
    };
    let reference = refine(true);
    let counted = refine(false);
    assert_eq!(counted.len(), reference.len(), "big-shape refine parity");
    for i in 0..reference.len() {
        assert_eq!(counted.meta(i), reference.meta(i));
        assert_eq!(counted.child_words(i), reference.child_words(i));
    }

    let mut group = c.benchmark_group("kernels_grid_big_65536x512x8");
    group.sample_size(10);
    group.bench_function("per_parent_and_count_many", |b| {
        let mut counts = vec![0usize; BIG_CONDITIONS];
        b.iter(|| {
            let mut total = 0usize;
            for parent in &parent_sets {
                kernels::and_count_many(black_box(parent.words()), block, &mut counts);
                total += counts[BIG_CONDITIONS - 1];
            }
            total
        })
    });
    group.bench_function("and_count_grid", |b| {
        let mut counts = vec![0usize; BIG_PARENTS * BIG_CONDITIONS];
        b.iter(|| {
            kernels::and_count_grid(black_box(&parents), block, &mut counts);
            counts[BIG_PARENTS * BIG_CONDITIONS - 1]
        })
    });
    group.bench_function("refine_single_pass_threads1", |b| {
        b.iter(|| refine(true).len())
    });
    group.bench_function("refine_count_first_grid_threads1", |b| {
        b.iter(|| refine(false).len())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_frontier_generation,
    bench_and_count_many,
    bench_kernels_grid
);
criterion_main!(benches);
