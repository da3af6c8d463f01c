//! Capacity-estimation micro-benchmarks: per-decision and per-update
//! costs of the bandit policies, and the full-vs-diagonal covariance
//! ablation called out in DESIGN.md §6.
//!
//! `nn_ucb_flush` times one day-boundary training flush of the serving
//! configuration (512-trial replay ring, 8 epochs), so the training
//! kernel's speed can be read apart from the end-to-end serving run.

use bandit::{CandidateCapacities, CapacityEstimator, LinUcb, NnUcb, NnUcbConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use linalg::UcbCovariance;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

fn arms() -> CandidateCapacities {
    CandidateCapacities::range(10.0, 60.0, 10.0)
}

fn bench_estimate(c: &mut Criterion) {
    let mut group = c.benchmark_group("bandit_estimate");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));

    let ctx = [0.3, 0.6, 0.2, 0.8, 0.5, 0.1, 0.4, 0.9, 0.0, 0.7];

    for cov in [UcbCovariance::Diagonal, UcbCovariance::Full] {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = NnUcbConfig { covariance: cov, ..NnUcbConfig::default() };
        let mut bandit = NnUcb::new(&mut rng, ctx.len(), arms(), cfg);
        for i in 0..64 {
            bandit.update(&ctx, 10.0 + (i % 6) as f64 * 10.0, 0.2);
        }
        group.bench_with_input(
            BenchmarkId::new("nn_ucb", format!("{cov:?}")),
            &bandit,
            |b, bandit| b.iter(|| black_box(bandit.estimate(&ctx))),
        );
    }

    let mut lin = LinUcb::new(ctx.len(), arms(), 0.01, 0.01);
    for i in 0..64 {
        lin.update(&ctx, 10.0 + (i % 6) as f64 * 10.0, 0.2);
    }
    group.bench_function("lin_ucb", |b| b.iter(|| black_box(lin.estimate(&ctx))));
    group.finish();
}

fn bench_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("bandit_update");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    let ctx = [0.3, 0.6, 0.2, 0.8, 0.5, 0.1, 0.4, 0.9, 0.0, 0.7];

    for cov in [UcbCovariance::Diagonal, UcbCovariance::Full] {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = NnUcbConfig { covariance: cov, ..NnUcbConfig::default() };
        let bandit = NnUcb::new(&mut rng, ctx.len(), arms(), cfg);
        group.bench_with_input(
            BenchmarkId::new("nn_ucb_update", format!("{cov:?}")),
            &bandit,
            |b, bandit| {
                b.iter_batched(
                    || bandit.clone(),
                    |mut bandit| {
                        // 16 updates = one full buffer flush incl. training.
                        for i in 0..16 {
                            bandit.update(&ctx, 10.0 + (i % 6) as f64 * 10.0, 0.2);
                        }
                        black_box(bandit.trials())
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_flush(c: &mut Criterion) {
    let mut group = c.benchmark_group("bandit_update");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    let ctx = [0.3, 0.6, 0.2, 0.8, 0.5, 0.1, 0.4, 0.9, 0.0, 0.7];
    let cfg = lacb::tuned_bandit_config();
    assert_eq!((cfg.replay_cap, cfg.train_epochs), (512, 8));
    let batch = cfg.batch_size;
    let mut rng = StdRng::seed_from_u64(3);
    let mut bandit = NnUcb::new(&mut rng, ctx.len(), arms(), cfg);
    // Fill the ring, leaving the buffer one trial short of a flush.
    for i in 0..512 + batch - 1 {
        bandit.update(&ctx, 10.0 + (i % 6) as f64 * 10.0, 0.02 * (i % 7) as f64);
    }
    group.bench_function("nn_ucb_flush", |b| {
        b.iter_batched(
            || bandit.clone(),
            |mut bandit| {
                bandit.update(&ctx, 30.0, 0.2);
                black_box(bandit.trained_samples())
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_estimate, bench_update, bench_flush);
criterion_main!(benches);
