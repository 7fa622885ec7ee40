//! Climate archetype end-to-end: synthesize CMIP-like NetCDF, run
//! `download → regrid → normalize → shard`, and verify the NPZ shards.
//!
//! ```sh
//! cargo run --release --example climate_pipeline
//! ```

use drai::domains::climate::{self, ClimateConfig};
use drai::formats::npy::read_npy;
use drai::formats::zip::read_zip;
use drai::io::shard::ShardReader;
use drai::io::sink::LocalFs;
use drai::tensor::LatLonGrid;
use std::sync::Arc;

fn main() {
    let workdir = std::env::temp_dir().join("drai-climate-example");
    let _ = std::fs::remove_dir_all(&workdir);
    let sink = Arc::new(LocalFs::new(&workdir).expect("create work dir"));

    let cfg = ClimateConfig {
        src_grid: LatLonGrid::global(48, 96),
        dst_grid: LatLonGrid::global(32, 64),
        timesteps: 48,
        ..ClimateConfig::default()
    };
    println!(
        "climate archetype: {} timesteps, {}x{} -> {}x{}",
        cfg.timesteps,
        cfg.src_grid.nlat(),
        cfg.src_grid.nlon(),
        cfg.dst_grid.nlat(),
        cfg.dst_grid.nlon()
    );

    let run = climate::run(&cfg, sink.clone()).expect("climate pipeline");

    println!("\nstage metrics:");
    for s in &run.stages {
        println!(
            "  {:<10} [{:<10}] {:>6} records, {:>8.2} MiB/s",
            s.name,
            s.kind.to_string(),
            s.throughput.records,
            s.throughput.mib_per_sec()
        );
    }

    let assessment = run.assess();
    println!("\nreadiness: {}", assessment.overall);
    println!("provenance events: {}", run.ledger.len());
    println!("shard files: {}", run.shard_files.len());

    // Consume one training shard the way a data loader would.
    let reader = ShardReader::open("climate/train", sink.as_ref()).expect("train shards");
    let records = reader.read_shard(0).expect("shard 0");
    let entries = read_zip(&records[0]).expect("npz record");
    println!("\nfirst record members:");
    for e in &entries {
        let t = read_npy::<f32>(&e.data).expect("npy member");
        let mean = t.mean().unwrap_or(0.0);
        println!("  {:<8} shape {:?} mean {:+.3}", e.name, t.shape(), mean);
    }

    // Everything above was instrumented through the global telemetry
    // registry; dump the interesting latency histograms and counters.
    let snap = drai::telemetry::Registry::global().snapshot();
    println!("\ntelemetry ({} spans recorded):", snap.spans.len());
    for (name, h) in &snap.histograms {
        println!(
            "  {:<32} n={:<5} mean={:>9.1}us p99={:>9.1}us",
            name,
            h.count,
            h.mean / 1e3,
            h.p99 as f64 / 1e3
        );
    }
    for (name, v) in &snap.counters {
        println!("  {name:<32} {v}");
    }
    let telemetry_path = workdir.join("telemetry.json");
    std::fs::write(&telemetry_path, snap.to_json()).expect("write telemetry");
    println!("\nsnapshot written to {}", telemetry_path.display());
    println!("artifacts under {}", workdir.display());
}
