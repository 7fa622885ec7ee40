//! Reproduce the paper's Table 2 (the 5×5 maturity matrix) from the
//! executable framework, then grade all four domain archetype outputs
//! against it.
//!
//! ```sh
//! cargo run --release --example readiness_report
//! ```

use drai::core::readiness::{MaturityMatrix, ProcessingStage, ReadinessLevel};
use drai::core::{assess, DomainTemplate};
use drai::domains::{bio, climate, fusion, materials};
use drai::io::sink::MemSink;
use drai::provenance::Ledger;
use std::sync::Arc;

fn main() {
    // --- Table 2, regenerated from the framework. ---
    println!("Table 2: conceptual maturity matrix (N/A cells shown as —)\n");
    print!("{:<24}", "Level");
    for stage in ProcessingStage::ALL {
        print!("{:<14}", stage.label());
    }
    println!();
    for (level, cells) in MaturityMatrix::rows() {
        print!("{:<24}", level.to_string());
        for cell in cells {
            match cell {
                Some(text) => {
                    let short: String = text.chars().take(12).collect();
                    print!("{short:<14}");
                }
                None => print!("{:<14}", "—"),
            }
        }
        println!();
    }
    println!(
        "\napplicable cells: {} (triangular, as in the paper)",
        MaturityMatrix::applicable_cell_count()
    );

    // --- Grade all four archetype outputs from their ledgers. ---
    println!("\nassessing domain archetype outputs:\n");

    let sink = Arc::new(MemSink::new());
    let climate_run = climate::run(
        &climate::ClimateConfig {
            timesteps: 12,
            src_grid: drai::tensor::LatLonGrid::global(16, 32),
            dst_grid: drai::tensor::LatLonGrid::global(8, 16),
            ..climate::ClimateConfig::default()
        },
        sink.clone(),
    )
    .expect("climate");
    let fusion_run = fusion::run(
        &fusion::FusionConfig {
            shots: 12,
            shot_seconds: 0.5,
            clock_hz: 500.0,
            window_len: 32,
            window_stride: 16,
            ..fusion::FusionConfig::default()
        },
        sink.clone(),
    )
    .expect("fusion");
    let bio_run = bio::run(
        &bio::BioConfig {
            patients: 24,
            tile_len: 64,
            ..bio::BioConfig::default()
        },
        sink.clone(),
    )
    .expect("bio");
    let materials_run = materials::run(
        &materials::MaterialsConfig {
            structures: 16,
            cell_atoms: 2,
            ..materials::MaterialsConfig::default()
        },
        sink,
    )
    .expect("materials");

    for run in [&climate_run, &fusion_run, &bio_run, &materials_run] {
        let a = run.assess();
        println!(
            "  {:<12} ({:<12}) -> {}",
            run.manifest.name, run.manifest.domain, a.overall
        );
        for (stage, level) in &a.per_stage {
            let bar_len = level.number() as usize;
            println!(
                "      {:<11} {}{}",
                stage.label(),
                "█".repeat(bar_len),
                "░".repeat(5 - bar_len)
            );
        }
    }

    // --- Show what a deficiency report looks like. ---
    println!("\nexample deficiency report (climate ledger without its shard record):");
    let crippled = Ledger::new();
    for t in climate_run.ledger.transformations() {
        if t.operation != "shard" {
            crippled.record(&t.operation, t.params, t.inputs, t.outputs);
        }
    }
    let a = assess(&climate_run.manifest, &crippled, &DomainTemplate::climate());
    println!("  overall drops to: {}", a.overall);
    for d in &a.deficiencies {
        println!(
            "  blocked at {} / {}: {}",
            d.blocked_level, d.stage, d.reason
        );
    }
    assert_ne!(
        a.overall,
        ReadinessLevel::FullyAiReady,
        "assessor must notice the missing shards"
    );
}
