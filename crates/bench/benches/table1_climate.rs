//! T1-CLIMATE — Table 1 row 1 / §3.1: the climate archetype's
//! `download → regrid → normalize → shard` pattern, per stage and
//! end-to-end, with a grid-size sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use drai_domains::climate::{self, ClimateConfig};
use drai_io::sink::MemSink;
use drai_tensor::LatLonGrid;
use drai_transform::normalize::{Method, Normalizer};
use drai_transform::regrid::{self, RegridPlan, Scheme};
use std::sync::Arc;
use std::time::Duration;

fn cfg(nlat: usize) -> ClimateConfig {
    ClimateConfig {
        src_grid: LatLonGrid::global(nlat, nlat * 2),
        dst_grid: LatLonGrid::global(nlat * 2 / 3, nlat * 4 / 3),
        timesteps: 8,
        shard_bytes: 1 << 20,
        ..ClimateConfig::default()
    }
}

fn bench_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_climate");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(2));

    for nlat in [24usize, 48] {
        let config = cfg(nlat);
        let src = config.src_grid.clone();
        let dst = config.dst_grid.clone();
        let field: Vec<f64> = (0..src.ncells())
            .map(|k| ((k % src.nlon()) as f64 * 0.1).sin() + (k / src.nlon()) as f64 * 0.01)
            .collect();
        group.throughput(Throughput::Elements(src.ncells() as u64));

        group.bench_function(BenchmarkId::new("regrid-bilinear", nlat), |b| {
            b.iter(|| regrid::bilinear(&src, &field, &dst).unwrap())
        });
        group.bench_function(BenchmarkId::new("regrid-conservative", nlat), |b| {
            b.iter(|| regrid::conservative(&src, &field, &dst).unwrap())
        });
        // The same remaps with the geometry planned outside the loop: the
        // per-call rows above are plan construction + these.
        let mut out = vec![0.0; dst.ncells()];
        for (name, scheme) in [
            ("regrid-bilinear-planned", Scheme::Bilinear),
            ("regrid-conservative-planned", Scheme::Conservative),
        ] {
            let plan = RegridPlan::new(&src, &dst, scheme);
            group.bench_function(BenchmarkId::new(name, nlat), |b| {
                b.iter(|| plan.apply_into(&field, &mut out).unwrap())
            });
        }
        group.bench_function(BenchmarkId::new("normalize", nlat), |b| {
            b.iter_batched(
                || field.clone(),
                |mut data| {
                    let n = Normalizer::fit(Method::ZScore, &data).unwrap();
                    n.apply_slice(&mut data);
                    data
                },
                criterion::BatchSize::LargeInput,
            )
        });

        group.bench_function(BenchmarkId::new("end-to-end", nlat), |b| {
            b.iter(|| {
                let sink = Arc::new(MemSink::new());
                climate::run(&config, sink).unwrap()
            })
        });

        // Per-pipeline-stage wall time, reported once per sweep point via
        // the pipeline's own metrics (criterion measures end-to-end; the
        // stage breakdown is the paper-facing table).
        let run = climate::run(&config, Arc::new(MemSink::new())).unwrap();
        eprintln!("\n[table1_climate] nlat={nlat} stage breakdown:");
        for s in &run.stages {
            eprintln!(
                "  {:<10} {:>10.3} ms  {:>9.2} MiB/s",
                s.name,
                s.throughput.elapsed.as_secs_f64() * 1e3,
                s.throughput.mib_per_sec()
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_stages);
criterion_main!(benches);
