//! Materials archetype end-to-end: synthetic DFT-like structures,
//! `parse → normalize → encode → shard`, then scan the BP footer index and
//! fetch one graph — the HydraGNN-style consumption pattern.
//!
//! ```sh
//! cargo run --release --example materials_graphs
//! ```

use drai::domains::materials::{self, MaterialsConfig};
use drai::formats::bp::BpReader;
use drai::io::sink::{MemSink, StorageSink};
use drai::tensor::Tensor;
use std::sync::Arc;

fn main() {
    let cfg = MaterialsConfig {
        structures: 64,
        cell_atoms: 3, // 27 atoms per structure
        ..MaterialsConfig::default()
    };
    let sink = Arc::new(MemSink::new());
    let run = materials::run(&cfg, sink.clone()).expect("materials pipeline");

    println!("materials archetype: {} structures", cfg.structures);
    println!("\nstage metrics:");
    for s in &run.stages {
        println!(
            "  {:<10} [{:<10}] {:>5} records, {:>8.2} MiB/s",
            s.name,
            s.kind.to_string(),
            s.throughput.records,
            s.throughput.mib_per_sec()
        );
    }
    let assessment = run.assess();
    println!("\nreadiness: {}", assessment.overall);

    // The BP read path: cheap footer scan first, then selective fetch.
    let bytes = sink.read_file("materials/train.bp").expect("train bp");
    let reader = BpReader::open(&bytes).expect("bp footer");
    println!("\ntrain.bp: {} process groups", reader.group_count());
    let meta = reader.metadata();
    let total_atoms: usize = meta
        .iter()
        .map(|g| {
            g.vars
                .iter()
                .find(|(n, _, _)| n == "node_features")
                .map(|(_, _, s)| s[0])
                .unwrap_or(0)
        })
        .sum();
    println!("footer scan (no payload reads): {total_atoms} atoms total");

    let g = reader.read_group(0).expect("group 0");
    let nodes: Tensor<f32> = g.var("node_features").unwrap().to_tensor().expect("nodes");
    let edges: Tensor<i64> = g.var("edges").unwrap().to_tensor().expect("edges");
    let energy: Tensor<f64> = g
        .var("energy_per_atom")
        .unwrap()
        .to_tensor()
        .expect("energy");
    println!(
        "first graph: {} atoms, {} directed edges, normalized E/atom = {:+.3}",
        nodes.shape()[0],
        edges.shape()[0],
        energy.get(&[0]).unwrap()
    );

    // Species distribution over the whole train split shows the class
    // imbalance the paper flags for materials data.
    let mut species_counts = vec![0usize; materials::SPECIES.len()];
    for gi in 0..reader.group_count() {
        let g = reader.read_group(gi).expect("group");
        let nodes: Tensor<f32> = g.var("node_features").unwrap().to_tensor().expect("nodes");
        for lane in nodes.lanes() {
            if let Some(k) = lane.iter().position(|&x| x > 0.5) {
                species_counts[k] += 1;
            }
        }
    }
    println!("\nspecies distribution (train):");
    for ((name, target), count) in materials::SPECIES.iter().zip(&species_counts) {
        println!("  {name:<3} {count:>6} atoms (target abundance {target:.2})");
    }
    println!("\nprovenance events: {}", run.ledger.len());
}
