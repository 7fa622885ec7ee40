//! T1-FUSION — Table 1 row 2 / §3.2: the fusion archetype's
//! `extract → align → normalize → shard` pattern, with a shot-count sweep
//! and isolated align/window kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use drai_domains::fusion::{self, FusionConfig, ShotStore};
use drai_formats::example::{Example, FeatureRef};
use drai_io::sink::MemSink;
use drai_transform::align::{align_channels, window, Clock};
use std::sync::Arc;
use std::time::Duration;

fn cfg(shots: usize) -> FusionConfig {
    FusionConfig {
        shots,
        shot_seconds: 1.0,
        clock_hz: 1_000.0,
        window_len: 64,
        window_stride: 32,
        shard_bytes: 1 << 20,
        ..FusionConfig::default()
    }
}

fn bench_fusion(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_fusion");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(2));

    // Kernel benches on one representative shot.
    let store = ShotStore::generate(&cfg(4));
    let shot = store
        .shots()
        .iter()
        .find(|s| s.channels.len() == fusion::CHANNELS.len())
        .expect("full shot");
    let samples: usize = shot.channels.iter().map(|ch| ch.values.len()).sum();
    group.throughput(Throughput::Elements(samples as u64));
    let clock = Clock::covering(0.01, 0.99, 1_000.0).unwrap();
    group.bench_function("align-multirate", |b| {
        b.iter(|| align_channels(&shot.channels, &clock).unwrap())
    });

    let (matrix, names) = align_channels(&shot.channels, &clock).unwrap();
    group.bench_function("window-slice", |b| {
        b.iter(|| window(&matrix, names.len(), 64, 32, true).unwrap())
    });

    // tf.Example encoding over one run's windows: the shard stage's
    // per-window cost.
    let pipeline = fusion::build_pipeline(&cfg(16), Arc::new(MemSink::new()), Arc::default());
    let windows = pipeline
        .run(fusion::member_input(&cfg(16), 0))
        .unwrap()
        .output
        .windows;
    let encode_all = || {
        let mut out = Vec::new();
        for w in &windows {
            let (label, shot_id) = ([w.label], [w.shot_id as i64]);
            let features = [
                ("features", FeatureRef::Floats(&w.features)),
                ("label", FeatureRef::Ints(&label)),
                ("shot_id", FeatureRef::Ints(&shot_id)),
            ];
            Example::encode_into(&mut out, features);
        }
        out
    };
    group.throughput(Throughput::Bytes(encode_all().len() as u64));
    group.bench_function("example-encode", |b| b.iter(encode_all));

    // End-to-end sweep over shot counts.
    for shots in [8usize, 16, 32] {
        let config = cfg(shots);
        group.throughput(Throughput::Elements(shots as u64));
        group.bench_function(BenchmarkId::new("end-to-end", shots), |b| {
            b.iter(|| {
                let sink = Arc::new(MemSink::new());
                fusion::run(&config, sink).unwrap()
            })
        });
    }

    // Stage breakdown for the paper-facing table.
    let run = fusion::run(&cfg(16), Arc::new(MemSink::new())).unwrap();
    eprintln!("\n[table1_fusion] shots=16 stage breakdown:");
    for s in &run.stages {
        eprintln!(
            "  {:<10} {:>10.3} ms  {:>8} records",
            s.name,
            s.throughput.elapsed.as_secs_f64() * 1e3,
            s.throughput.records
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fusion);
criterion_main!(benches);
