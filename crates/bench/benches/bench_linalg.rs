//! Linear-algebra kernel benchmarks: the Cholesky factorizations and solves
//! that dominate IC evaluation, at the target dimensionalities of the
//! paper's datasets (dy = 1 crime, 5 socio, 16 water, 124 mammals).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sisd_linalg::{Cholesky, Matrix};
use sisd_stats::Xoshiro256pp;
use std::hint::black_box;

fn spd(dim: usize, rng: &mut Xoshiro256pp) -> Matrix {
    let mut b = Matrix::zeros(dim, dim);
    for i in 0..dim {
        for j in 0..dim {
            b[(i, j)] = rng.normal();
        }
    }
    let mut a = b.mul_mat(&b.transpose());
    a.add_diag(dim as f64);
    a
}

fn bench_cholesky(c: &mut Criterion) {
    let mut group = c.benchmark_group("cholesky");
    let mut rng = Xoshiro256pp::seed_from_u64(1);
    for &dim in &[5usize, 16, 64, 124] {
        let a = spd(dim, &mut rng);
        group.bench_with_input(BenchmarkId::new("factorize", dim), &a, |b, a| {
            b.iter(|| Cholesky::new(black_box(a)).unwrap())
        });
        let chol = Cholesky::new(&a).unwrap();
        let v: Vec<f64> = (0..dim).map(|i| (i as f64).sin()).collect();
        group.bench_with_input(BenchmarkId::new("solve", dim), &v, |b, v| {
            b.iter(|| chol.solve(black_box(v)))
        });
        group.bench_with_input(BenchmarkId::new("inv_quad_form", dim), &v, |b, v| {
            b.iter(|| chol.inv_quad_form(black_box(v)))
        });
    }
    // Eight right-hand sides per call against one factor, the shape of a
    // run of candidates on a location-only model; each call re-interleaves
    // its residuals, as the model does. Every lane must have the bits of
    // `inv_quad_form` on its own vector before anything is timed.
    let dim = 124;
    let lanes = Cholesky::LANES;
    let chol = Cholesky::new(&spd(dim, &mut rng)).unwrap();
    let rhs: Vec<Vec<f64>> = (0..lanes)
        .map(|l| (0..dim).map(|i| ((i * lanes + l) as f64).sin()).collect())
        .collect();
    let mut interleaved = vec![0.0; lanes * dim];
    let mut forms = [0.0; Cholesky::LANES];
    let mut solve_lanes = |forms: &mut [f64; Cholesky::LANES]| {
        for (l, v) in rhs.iter().enumerate() {
            for (i, &x) in v.iter().enumerate() {
                interleaved[i * lanes + l] = x;
            }
        }
        chol.inv_quad_forms(&mut interleaved, forms);
    };
    solve_lanes(&mut forms);
    for (l, v) in rhs.iter().enumerate() {
        assert_eq!(
            forms[l].to_bits(),
            chol.inv_quad_form(v).to_bits(),
            "lane {l} must have the bits of inv_quad_form"
        );
    }
    group.bench_function(BenchmarkId::new("inv_quad_forms", dim), |b| {
        b.iter(|| {
            solve_lanes(&mut forms);
            black_box(forms)
        })
    });
    group.finish();
}

fn bench_matvec(c: &mut Criterion) {
    let mut group = c.benchmark_group("matvec");
    let mut rng = Xoshiro256pp::seed_from_u64(2);
    for &dim in &[16usize, 124] {
        let a = spd(dim, &mut rng);
        let v: Vec<f64> = (0..dim).map(|i| (i as f64).cos()).collect();
        group.bench_with_input(BenchmarkId::new("mul_vec", dim), &a, |b, a| {
            b.iter(|| a.mul_vec(black_box(&v)))
        });
        group.bench_with_input(BenchmarkId::new("quad_form", dim), &a, |b, a| {
            b.iter(|| a.quad_form(black_box(&v)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cholesky, bench_matvec);
criterion_main!(benches);
