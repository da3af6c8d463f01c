//! Candidate Broker Selection (Alg. 3) micro-benchmarks: quickselect
//! top-k vs. a full sort, across broker-pool sizes, and `cbs.build` —
//! the fused score+select kernel on one city-shaped batch, under the
//! same stage name the whole-day benchmark's trace uses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use matching::cbs::{fused_score_select, top_k_indices, FusedScratch, Parallelism, SelectShape};
use matching::SparseUtility;
use platform_sim::{BrokerPanel, BrokerProfile, Platform, Request, UtilityModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench_cbs(c: &mut Criterion) {
    let mut group = c.benchmark_group("cbs_topk");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));

    let k = 30;
    for n in [1_000usize, 5_000, 20_000] {
        let mut rng = StdRng::seed_from_u64(5);
        let utilities: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
        group.bench_with_input(BenchmarkId::new("quickselect", n), &utilities, |b, utilities| {
            let mut rng = StdRng::seed_from_u64(17);
            b.iter(|| black_box(top_k_indices(utilities, k, &mut rng)))
        });
        group.bench_with_input(BenchmarkId::new("full_sort", n), &utilities, |b, utilities| {
            b.iter(|| {
                let mut idx: Vec<usize> = (0..utilities.len()).collect();
                idx.sort_by(|&a, &b| utilities[b].partial_cmp(&utilities[a]).unwrap());
                idx.truncate(k);
                black_box(idx)
            })
        });
    }
    group.finish();
}

/// One city-serve batch through the fused kernel, as
/// `Lacb::assign_batch_sparse` runs it: pack the available brokers into
/// a reused panel, then score and select every request row with the
/// packed row kernel. City B × 0.25 has 2 039 brokers and ~96 requests
/// per batch; every tenth broker is unavailable, so the pack runs too.
fn bench_build(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let platform = Platform::new(BrokerProfile::generate(&mut rng, 2_039), UtilityModel::default());
    let requests: Vec<Request> = (0..100).map(|i| Request::sample(&mut rng, i, 0, 0)).collect();
    let available: Vec<usize> = (0..platform.num_brokers()).filter(|b| b % 10 != 0).collect();
    let shape =
        SelectShape { rows: requests.len(), cols: available.len(), k: requests.len(), seed: 9 };
    let serial = Parallelism { n_threads: 1, cutoff: u64::MAX };
    let mut panel = BrokerPanel::default();
    let mut scratch = FusedScratch::default();
    let mut csr = SparseUtility::new();
    let mut union = Vec::new();
    let mut build = || {
        panel.pack_from(platform.panel(), &available);
        let panel = &panel;
        let score =
            |r: usize, row: &mut [f64]| platform.utility_row_into(r, &requests[r], panel, row);
        fused_score_select(shape, serial, &score, &mut scratch, &mut csr, &mut union);
        black_box(csr.nnz())
    };

    let mut group = c.benchmark_group("cbs.build");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function(
        BenchmarkId::new("fused_score_select", format!("{}x{}", shape.rows, shape.cols)),
        |b| b.iter(&mut build),
    );
    group.finish();

    // Per-pair cost, the unit the kernel is sized in.
    let reps = 50;
    let t = Instant::now();
    for _ in 0..reps {
        build();
    }
    let pairs = (reps * shape.rows * shape.cols) as f64;
    println!("cbs.build: {:.2} ns/pair", t.elapsed().as_secs_f64() * 1e9 / pairs);
}

criterion_group!(benches, bench_cbs, bench_build);
criterion_main!(benches);
