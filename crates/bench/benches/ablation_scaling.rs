//! ABL-SCALE — parallel scaling of the preprocessing stages.
//!
//! §4's guiding principles call for "alignment with HPC infrastructure
//! for parallel training". This bench sweeps worker counts over the
//! batch executor to show the scaling shape (near-linear until
//! memory-bandwidth/IO bound). The simulated
//! stripe-count scaling (virtual time, not wall time) is produced by the
//! `stripe_scaling` binary instead — criterion can only measure wall
//! clocks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use drai_core::executor::{ExecutorConfig, StreamingBatchExt};
use drai_core::pipeline::Pipeline;
use drai_core::readiness::ProcessingStage;
use drai_transform::normalize::{Method, Normalizer};
use std::time::Duration;

fn heavy_stage(data: Vec<f64>) -> Vec<f64> {
    // Representative per-sample preprocessing cost: fit + apply + a
    // couple of passes.
    let n = Normalizer::fit(Method::ZScore, &data).unwrap();
    let mut out = data;
    n.apply_slice(&mut out);
    for v in &mut out {
        *v = v.tanh();
    }
    out
}

fn bench_thread_scaling(c: &mut Criterion) {
    let items: Vec<Vec<f64>> = (0..256)
        .map(|i| (0..20_000).map(|k| ((i * k) as f64).sin()).collect())
        .collect();
    let total_elems: u64 = items.iter().map(|v| v.len() as u64).sum();

    let mut group = c.benchmark_group("ablation_scaling");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Elements(total_elems));

    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut threads = vec![1usize, 2];
    let mut t = 4;
    while t <= max_threads {
        threads.push(t);
        t *= 2;
    }

    for &nt in &threads {
        // One stage, so the executor's pool is exactly `nt` workers.
        let exec = ExecutorConfig {
            workers_per_stage: nt,
            ..ExecutorConfig::default()
        };
        let pipeline: Pipeline<Vec<f64>> = Pipeline::builder("scaling")
            .stage("normalize", ProcessingStage::Transform, |v: Vec<f64>, c| {
                c.records = 1;
                Ok(heavy_stage(v))
            })
            .build();
        group.bench_function(BenchmarkId::new("pipeline-batch", nt), |b| {
            b.iter_batched(
                || items.clone(),
                |batch| pipeline.run_batch_streaming(batch, &exec).unwrap(),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_thread_scaling);
criterion_main!(benches);
