//! Frontier-generation throughput: the batched `sisd-frontier` refinement
//! (contiguous bit-matrix, fused AND+popcount kernels, count-first
//! filtering, allocation only for surviving children) against the
//! per-candidate `BitSet::and` + `count` loop it replaced, on a dense
//! synthetic workload shaped like a wide beam level: 32 frontier parents ×
//! 256 condition masks over 8192 rows, with a support floor that keeps
//! roughly half the children — the rejected half is exactly what
//! count-first refinement never materializes.
//!
//! Both paths produce identical children (asserted before timing — the
//! assert doubles as CI's cheap end-to-end parity gate, see the
//! bench-parity smoke step in the workflow).

use criterion::{criterion_group, criterion_main, Criterion};
use sisd_data::BitSet;
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

fn batched(w: &Workload) -> ChildBatch<'_> {
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
            ..FrontierConfig::default()
        },
    )
    .refine_with_prune(&parents, |_, _| true, |_, _, _| true)
}

fn assert_identical(a: &ChildBatch<'_>, b: &[(ChildMeta, BitSet)]) {
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
    assert_identical(&batched(&w), &reference);

    let mut group = c.benchmark_group("frontier_generation_8192x256x32");
    group.sample_size(10);
    group.bench_function("per_candidate_and_loop", |b| {
        b.iter(|| per_candidate_loop(black_box(&w)).len())
    });
    group.bench_function("batched", |b| b.iter(|| batched(black_box(&w)).len()));
    group.finish();
}

criterion_group!(benches, bench_frontier_generation);
criterion_main!(benches);
