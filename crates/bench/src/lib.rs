//! # drai-bench
//!
//! Shared workload generators for the benchmark harness. Each bench target
//! under `benches/` regenerates one artifact of the paper (see DESIGN.md's
//! experiment index):
//!
//! | Bench target | Paper artifact |
//! |---|---|
//! | `fig1_pipeline` | Figure 1 — per-step raw→AI-ready throughput |
//! | `table1_climate` | Table 1 row 1 / §3.1 climate pattern |
//! | `table1_fusion` | Table 1 row 2 / §3.2 fusion pattern |
//! | `table1_bio` | Table 1 row 3 / §3.3 bio pattern |
//! | `table1_materials` | Table 1 row 4 / §3.4 materials pattern |
//! | `ablation_shard` | shard-size × format sweep |
//! | `ablation_codec` | compression codec sweep |
//! | `ablation_scaling` | thread-count scaling of pipeline stages |
//! | `ablation_faults` | retry overhead vs injected storage-fault rate |
//!
//! Virtual-time experiments that criterion cannot measure (simulated
//! stripe-count scaling on `drai-sim`) live in `src/bin/stripe_scaling.rs`,
//! which prints its series directly.
//!
//! These targets declare the paper's figures, tables and ablations and
//! nothing else does. Performance is gated elsewhere, in one place: the
//! repo benchmark (`benchmark/`, run by the command in `BENCHMARK.json`;
//! see DESIGN.md §8).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// The directory the criterion shim writes its estimates to:
/// `CARGO_TARGET_DIR` if set, else the workspace `target/`, plus
/// `criterion`. Anchored at this crate's manifest, not the current
/// directory — `cargo bench` runs targets from `crates/bench`, and a
/// `target/` created there would capture every later bench's output.
fn criterion_dir() -> PathBuf {
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/bench sits two levels below the workspace root")
            .join("target"),
    };
    target.join("criterion")
}

/// Snapshot the global telemetry registry and persist it under
/// `<criterion output>/<leaf>` so `scripts/summarize_bench.py` picks
/// both up:
///
/// * `telemetry.json` — the full snapshot (counters, gauges,
///   histograms, spans) as one JSON document;
/// * `telemetry.jsonl` — the same data, one metric per line;
/// * `<metric path>/new/estimates.json` — one criterion-style
///   estimate file per latency histogram, so histogram means appear in
///   the same sweep as the bench timings.
///
/// Returns the paths written. Call at the end of a bench target (or any
/// long-running driver) to dump everything instrumented during the run.
pub fn export_telemetry(leaf: &str) -> std::io::Result<Vec<PathBuf>> {
    let dir = criterion_dir().join(leaf);
    std::fs::create_dir_all(&dir)?;
    let snap = drai_telemetry::Registry::global().snapshot();
    let mut written = Vec::new();

    let json_path = dir.join("telemetry.json");
    std::fs::write(&json_path, snap.to_json())?;
    written.push(json_path);

    let jsonl_path = dir.join("telemetry.jsonl");
    std::fs::write(&jsonl_path, snap.to_jsonl())?;
    written.push(jsonl_path);

    let n = drai_telemetry::write_criterion_estimates(&snap, &dir)?;
    if n > 0 {
        written.push(dir);
    }
    Ok(written)
}

/// Deterministic synthetic tabular dataset: `rows` samples × `cols`
/// features with correlated structure, a configurable missing fraction,
/// and a threshold-derived label column. The generic workload for
/// Figure 1's step benchmarks.
pub fn tabular(rows: usize, cols: usize, missing: f64, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        let latent = (r as f64 * 0.01).sin() * 3.0 + rng.gen::<f64>();
        for c in 0..cols {
            if rng.gen::<f64>() < missing {
                out.push(f64::NAN);
            } else {
                out.push(latent * (c as f64 + 1.0) * 0.5 + rng.gen::<f64>() * 2.0);
            }
        }
    }
    out
}

/// Smooth science-like f32 payload (partially compressible).
pub fn science_f32(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n * 4);
    let mut x: f32 = 250.0;
    for _ in 0..n {
        x += (rng.gen::<f32>() - 0.5) * 0.1;
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Monotone timestamp payload (delta-codec friendly).
pub fn timestamps_u64(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n * 8);
    let mut t: u64 = 1_700_000_000_000;
    for _ in 0..n {
        t += rng.gen_range(15..25);
        out.extend_from_slice(&t.to_le_bytes());
    }
    out
}

/// Sparse mask payload (RLE friendly).
pub fn mask_bytes(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = vec![0u8; n];
    let mut i = 0;
    while i < n {
        let run = rng.gen_range(50..500).min(n - i);
        let value = (rng.gen::<f64>() < 0.1) as u8;
        for slot in &mut out[i..i + run] {
            *slot = value;
        }
        i += run;
    }
    out
}

/// Fixed-size binary records for shard benches.
pub fn records(count: usize, size: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..size).map(|_| rng.gen()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tabular_shape_and_missing() {
        let data = tabular(100, 8, 0.1, 1);
        assert_eq!(data.len(), 800);
        let missing = data.iter().filter(|v| v.is_nan()).count();
        assert!(missing > 20 && missing < 180, "missing {missing}");
        // Deterministic (bitwise — NaN != NaN under float equality).
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&data), bits(&tabular(100, 8, 0.1, 1)));
        assert_ne!(bits(&data), bits(&tabular(100, 8, 0.1, 2)));
    }

    #[test]
    fn payload_generators() {
        assert_eq!(science_f32(100, 1).len(), 400);
        assert_eq!(timestamps_u64(100, 1).len(), 800);
        assert_eq!(mask_bytes(1000, 1).len(), 1000);
        let recs = records(5, 64, 1);
        assert_eq!(recs.len(), 5);
        assert!(recs.iter().all(|r| r.len() == 64));
    }

    #[test]
    fn mask_is_rle_friendly() {
        use drai_io::codec::{codec_for, CodecId};
        let mask = mask_bytes(100_000, 3);
        let enc = codec_for(CodecId::Rle).encode(&mask);
        assert!(enc.len() < mask.len() / 10, "rle ratio {}", enc.len());
    }

    /// `cargo test` and `cargo bench` both run this crate's targets
    /// from `crates/bench`; the export must land beside the criterion
    /// shim's output all the same, and leave nothing under the cwd.
    #[test]
    fn export_telemetry_from_the_crate_dir_lands_in_the_workspace_target() {
        let cwd = std::env::current_dir().unwrap();
        assert_eq!(cwd, Path::new(env!("CARGO_MANIFEST_DIR")), "run via cargo");
        use drai_telemetry::{Counter, Histogram, Name};
        const COUNT: Name<Counter> = Name::declare("selftest.export.count");
        const LATENCY: Name<Histogram> = Name::declare("selftest.export.ns");
        let registry = drai_telemetry::Registry::global();
        registry.handle(&COUNT, []).incr();
        registry.handle(&LATENCY, []).record(1_000);

        let leaf = format!("telemetry-selftest-{}", std::process::id());
        let paths = export_telemetry(&leaf).unwrap();
        let dir = criterion_dir().join(&leaf);
        assert!(paths[0] == dir.join("telemetry.json") && paths[0].is_file());
        assert!(paths[1] == dir.join("telemetry.jsonl") && paths[1].is_file());
        let snap = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(snap.contains("\"selftest.export.count\""));
        assert!(dir.join("selftest/export/ns/new/estimates.json").is_file());

        assert!(!dir.canonicalize().unwrap().starts_with(&cwd));
        assert!(!cwd.join("target/criterion").join(&leaf).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn timestamps_are_delta_friendly() {
        use drai_io::codec::{codec_for, CodecId};
        let ts = timestamps_u64(10_000, 3);
        let enc = codec_for(CodecId::Delta { width: 8 }).encode(&ts);
        assert!(enc.len() < ts.len() / 3, "delta ratio {}", enc.len());
    }
}
