//! Assignment-solver micro-benchmarks — the engine behind Fig. 8's
//! running-time panels.
//!
//! `padded` is the paper-faithful balanced Kuhn–Munkres (`O(|B|³)`, what
//! KM/AN/LACB pay per batch); `rectangular` solves the same instance
//! without dummies (`O(|R|²|B|)`); `cbs_rectangular` first prunes with
//! Alg. 3 (`O(|R||B| + |R|³)`, LACB-Opt's path). The gap between the
//! first and last is the paper's headline speed-up.
//!
//! `sparse_km` times the CSR solve alone on a candidate graph shaped
//! like one city-serve batch (96 rows over a 335-column candidate union,
//! 110 edges per row, ~11 augmenting steps per row), so the KM kernel's
//! speed can be read apart from the end-to-end serving run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use matching::auction::auction_assignment;
use matching::cbs::candidate_union;
use matching::hungarian::{max_weight_assignment, max_weight_assignment_padded, KmSolver};
use matching::{SparseUtility, UtilityMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

fn instance(requests: usize, brokers: usize, seed: u64) -> UtilityMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    UtilityMatrix::from_fn(requests, brokers, |_, _| rng.gen())
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("assignment_solvers");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));

    let requests = 30; // the paper's default batch width (σ·|B| = 30)
    for brokers in [100usize, 200, 400, 800] {
        let u = instance(requests, brokers, 7);
        group.bench_with_input(BenchmarkId::new("padded_km", brokers), &u, |b, u| {
            b.iter(|| black_box(max_weight_assignment_padded(u).total))
        });
        group.bench_with_input(BenchmarkId::new("rectangular_km", brokers), &u, |b, u| {
            b.iter(|| black_box(max_weight_assignment(u).total))
        });
        group.bench_with_input(BenchmarkId::new("cbs_rectangular_km", brokers), &u, |b, u| {
            let mut rng = StdRng::seed_from_u64(13);
            b.iter(|| {
                let cols = candidate_union(u, u.rows(), &mut rng);
                let reduced = u.select_columns(&cols);
                black_box(max_weight_assignment(&reduced).total)
            })
        });
        group.bench_with_input(BenchmarkId::new("auction", brokers), &u, |b, u| {
            b.iter(|| black_box(auction_assignment(u, 1e-4).total))
        });
    }
    group.finish();
}

/// A `rows × cols` CSR graph whose rows each keep their `k` largest
/// utilities — the shape the fused CBS kernel emits. Utilities mix a
/// per-column quality shared by every row (30%) with per-pair noise, so
/// rows contend for the same good columns: at 96 × 335 with k = 110 the
/// solve takes ~11 augmenting steps per row and every column is a
/// candidate, as in a city-serve batch.
fn candidate_graph(rows: usize, cols: usize, k: usize, seed: u64) -> SparseUtility {
    let mut rng = StdRng::seed_from_u64(seed);
    let quality: Vec<f64> = (0..cols).map(|_| rng.gen()).collect();
    let u = UtilityMatrix::from_fn(rows, cols, |_, c| 0.3 * quality[c] + 0.7 * rng.gen::<f64>());
    let mut g = SparseUtility::new();
    g.begin(cols);
    for r in 0..rows {
        let mut keep: Vec<usize> = (0..cols).collect();
        keep.sort_by(|&a, &b| u.get(r, b).total_cmp(&u.get(r, a)));
        keep.truncate(k);
        keep.sort_unstable();
        g.push_row(keep.into_iter().map(|c| (c, u.get(r, c))));
    }
    g
}

fn bench_sparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("assignment_solvers");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    let g = candidate_graph(96, 335, 110, 11);
    let mut solver = KmSolver::new();
    group.bench_function("sparse_km", |b| b.iter(|| black_box(solver.solve_sparse(&g).total)));
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_sparse);
criterion_main!(benches);
