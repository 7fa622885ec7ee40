//! Reproduce the paper's Table 2 (the 5×5 maturity matrix) from the
//! executable framework, then grade all four domain archetype outputs
//! against it.
//!
//! ```sh
//! cargo run --release --example readiness_report
//! ```

use drai::core::assess;
use drai::core::readiness::{MaturityMatrix, ProcessingStage, ReadinessLevel};
use drai::domains::{DomainRun, ARCHETYPES};
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
    let runs: Vec<DomainRun> = (ARCHETYPES.iter())
        .map(|a| (a.run)(2_025, 1, sink.clone()).expect(a.template.domain))
        .collect();

    for run in &runs {
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
    let run = &runs[0];
    let shard = run
        .template
        .step(ProcessingStage::Shard)
        .expect("a shard step");
    let domain = run.template.domain;
    println!("\nexample deficiency report ({domain} ledger without its `{shard}` record):");
    let crippled = Ledger::new();
    for t in run.ledger.transformations() {
        if t.operation != shard {
            crippled.record(&t.operation, t.params, t.inputs, t.outputs);
        }
    }
    let a = assess(&run.manifest, &crippled, run.template);
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
