//! Fusion archetype end-to-end: synthesize an MDSplus-like shot store,
//! run `extract → align → normalize → shard`, and inspect the TFRecord
//! shards and disruption labels.
//!
//! ```sh
//! cargo run --release --example fusion_disruption
//! ```

use drai::domains::fusion::{self, FusionConfig, ShotStore};
use drai::formats::example::Example;
use drai::formats::tfrecord;
use drai::io::shard::ShardReader;
use drai::io::sink::MemSink;
use std::sync::Arc;

fn main() {
    let cfg = FusionConfig {
        shots: 48,
        shot_seconds: 1.5,
        disruption_fraction: 0.35,
        ..FusionConfig::default()
    };

    // Peek at the raw pathologies before the pipeline cleans them up.
    let store = ShotStore::generate(&cfg);
    let disrupted = store
        .shots()
        .iter()
        .filter(|s| s.t_disrupt.is_some())
        .count();
    let dead: usize = store
        .shots()
        .iter()
        .map(|s| fusion::CHANNELS.len() - s.channels.len())
        .sum();
    println!(
        "shot store: {} shots, {} disrupted, {} dead channels total",
        store.shots().len(),
        disrupted,
        dead
    );
    for ch in &store.shots()[0].channels {
        println!(
            "  {:<8} {:>7} samples @ {:>7.0} Hz",
            ch.name,
            ch.values.len(),
            ch.mean_rate().unwrap_or(0.0)
        );
    }

    let sink = Arc::new(MemSink::new());
    let run = fusion::run(&cfg, sink.clone()).expect("fusion pipeline");

    println!("\nstage metrics:");
    for s in &run.stages {
        println!(
            "  {:<10} [{:<10}] {:>7} records, {:>8.2} MiB/s",
            s.name,
            s.kind.to_string(),
            s.throughput.records,
            s.throughput.mib_per_sec()
        );
    }
    let assessment = run.assess();
    println!("\nreadiness: {}", assessment.overall);

    // Label balance across the training shards.
    let reader = ShardReader::open("fusion/train", sink.as_ref()).expect("train shards");
    let mut positives = 0u64;
    let mut total = 0u64;
    for i in 0..reader.manifest().shards.len() {
        for record in reader.read_shard(i).expect("shard read") {
            for frame in tfrecord::read_records(&record).expect("tfrecord") {
                let ex = Example::decode(&frame).expect("tf.Example");
                total += 1;
                if ex.ints("label").map(|l| l[0]) == Some(1) {
                    positives += 1;
                }
            }
        }
    }
    println!(
        "train windows: {total} ({positives} disruption-positive, {:.1}%)",
        100.0 * positives as f64 / total.max(1) as f64
    );
    println!("provenance events: {}", run.ledger.len());
}
