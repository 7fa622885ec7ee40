//! Figure 1's feedback arrow: "data preparation outcomes inform subsequent
//! model training, and model performance provides feedback that triggers
//! further data refinement and augmentation."
//!
//! This example builds a cleaning pipeline whose outlier threshold is
//! refined by a (stand-in) model-evaluation loop: each pass cleans the
//! data, a proxy model scores it, and poor scores tighten the threshold
//! until the score gate passes. The loop is the caller's: one
//! `Pipeline::run` per pass, evaluated and refined in between.
//!
//! ```sh
//! cargo run --example iterative_refinement
//! ```

use drai::core::pipeline::Pipeline;
use drai::core::quality::QualityReport;
use drai::core::readiness::ProcessingStage;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Clone)]
struct WorkingSet {
    /// Samples (some contaminated with sensor glitches).
    values: Vec<f64>,
    /// Current outlier-clipping threshold in sigma units.
    clip_sigma: f64,
}

fn main() {
    // Contaminated measurements: a clean signal plus gross glitches.
    let mut rng = SmallRng::seed_from_u64(99);
    let mut values: Vec<f64> = (0..20_000)
        .map(|i| (i as f64 * 0.003).sin() * 2.0 + rng.gen::<f64>())
        .collect();
    for _ in 0..200 {
        let at = rng.gen_range(0..values.len());
        values[at] = rng.gen_range(50.0..500.0); // glitch
    }

    let pipeline: Pipeline<WorkingSet> = Pipeline::builder("refine")
        .stage(
            "clean",
            ProcessingStage::Preprocess,
            |mut ws: WorkingSet, c| {
                // Clip at the current sigma threshold.
                let mean = ws.values.iter().sum::<f64>() / ws.values.len() as f64;
                let var = ws
                    .values
                    .iter()
                    .map(|v| (v - mean) * (v - mean))
                    .sum::<f64>()
                    / ws.values.len() as f64;
                let limit = mean + ws.clip_sigma * var.sqrt();
                let mut clipped = 0;
                for v in &mut ws.values {
                    if *v > limit {
                        *v = limit;
                        clipped += 1;
                    }
                }
                c.records = clipped;
                Ok(ws)
            },
        )
        .build();

    const MAX_PASSES: usize = 12;
    let mut ws = WorkingSet {
        values,
        clip_sigma: 20.0,
    };
    let mut passes = 0;
    let converged = loop {
        passes += 1;
        ws = pipeline.run(ws).expect("refinement pass").output;
        // "Model evaluation" proxy: training is assumed to degrade with
        // outlier contamination; gate at < 0.1% gross outliers.
        let q = QualityReport::compute("signal", &ws.values);
        if q.outlier_fraction < 0.001 {
            break true;
        }
        if passes == MAX_PASSES {
            break false;
        }
        println!(
            "refine: outlier fraction {:.3}% too high at clip {:.1}σ",
            q.outlier_fraction * 100.0,
            ws.clip_sigma
        );
        ws.clip_sigma *= 0.6; // tighten and re-run
    };

    println!(
        "\nconverged: {converged} after {passes} passes ({} refinements)",
        passes - 1
    );
    let final_q = QualityReport::compute("signal", &ws.values);
    println!(
        "final quality: mean {:.3}, std {:.3}, outliers {:.4}%",
        final_q.mean,
        final_q.std,
        final_q.outlier_fraction * 100.0
    );
    assert!(converged, "refinement loop failed to converge");
}
