//! `drai` — command-line front end for the DRAI pipelines.
//!
//! ```text
//! drai run <climate|fusion|bio|materials> [--out DIR] [--seed N] [--scale N]
//! drai matrix                      # print the Table 2 maturity matrix
//! drai assess <manifest.json>      # grade a dataset manifest file
//! drai card <domain> [--out DIR]   # run a pipeline and emit its dataset card
//! ```

use drai::core::card::DatasetCard;
use drai::core::quality::QualityReport;
use drai::core::readiness::{MaturityMatrix, ProcessingStage};
use drai::core::ReadinessAssessor;
use drai::domains::{bio, climate, fusion, materials, DomainError, DomainRun};
use drai::io::sink::{LocalFs, StorageSink};
use drai::tensor::LatLonGrid;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("run") => cmd_run(&args[1..], false),
        Some("card") => cmd_run(&args[1..], true),
        Some("matrix") => {
            cmd_matrix();
            ExitCode::SUCCESS
        }
        Some("assess") => cmd_assess(&args[1..]),
        _ => {
            eprintln!(
                "usage:\n  drai run <climate|fusion|bio|materials> [--out DIR] [--seed N] [--scale N]\n  \
                 drai card <domain> [--out DIR]\n  drai matrix\n  drai assess <manifest.json>"
            );
            ExitCode::FAILURE
        }
    }
}

/// The value following flag `name`, `None` when the flag is absent; a
/// flag with nothing after it is a usage error.
fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v)),
            None => Err(format!("{name} needs a value")),
        },
    }
}

/// The integer value of flag `name`, `default` when the flag is absent;
/// a value that does not parse is a usage error, never the default.
fn int_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} needs a non-negative integer, got {v:?}")),
    }
}

/// `--seed`, `--scale` (at least 1) and `--out` of `drai run` / `card`.
fn run_flags(args: &[String]) -> Result<(u64, usize, Option<&str>), String> {
    Ok((
        int_flag(args, "--seed", 2_025)?,
        int_flag(args, "--scale", 1usize)?.max(1),
        flag(args, "--out")?,
    ))
}

/// One archetype run into the sink it is handed.
type Runner = Box<dyn FnOnce(Arc<dyn StorageSink>) -> Result<DomainRun, DomainError>>;

fn cmd_run(args: &[String], emit_card: bool) -> ExitCode {
    let Some(domain) = args.first() else {
        eprintln!("missing domain (climate|fusion|bio|materials)");
        return ExitCode::FAILURE;
    };
    let (seed, scale, out) = match run_flags(args) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Domain and flags are checked before the output directory is
    // created, so a usage error leaves nothing behind.
    let runner: Runner = match domain.as_str() {
        "climate" => {
            let cfg = climate::ClimateConfig {
                src_grid: LatLonGrid::global(24 * scale, 48 * scale),
                dst_grid: LatLonGrid::global(16 * scale, 32 * scale),
                timesteps: 16 * scale,
                seed,
                ..climate::ClimateConfig::default()
            };
            Box::new(move |sink| climate::run(&cfg, sink))
        }
        "fusion" => {
            let cfg = fusion::FusionConfig {
                shots: 16 * scale,
                seed,
                ..fusion::FusionConfig::default()
            };
            Box::new(move |sink| fusion::run(&cfg, sink))
        }
        "bio" => {
            let cfg = bio::BioConfig {
                patients: 48 * scale,
                seed,
                ..bio::BioConfig::default()
            };
            Box::new(move |sink| bio::run(&cfg, sink))
        }
        "materials" => {
            let cfg = materials::MaterialsConfig {
                structures: 32 * scale,
                seed,
                ..materials::MaterialsConfig::default()
            };
            Box::new(move |sink| materials::run(&cfg, sink))
        }
        other => {
            eprintln!("unknown domain {other:?} (climate|fusion|bio|materials)");
            return ExitCode::FAILURE;
        }
    };
    let out = out.map_or_else(|| format!("./drai-out/{domain}"), str::to_string);

    let sink = match LocalFs::new(&out) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("cannot open output dir {out}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = match runner(sink) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pipeline failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("{} pipeline complete -> {}", domain, out);
    for s in &run.stages {
        println!(
            "  {:<14} [{:<10}] {:>8} records  {:>10.3} ms",
            s.name,
            s.kind.to_string(),
            s.throughput.records,
            s.throughput.elapsed.as_secs_f64() * 1e3
        );
    }
    let assessment = match ReadinessAssessor::new().assess(&run.manifest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("assessment failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("readiness: {}", assessment.overall);
    println!(
        "shards: {} files, provenance: {} events",
        run.shard_files.len(),
        run.ledger.len()
    );

    // Persist the manifest + audit log next to the data.
    let manifest_json = run.manifest.to_json().to_string_compact();
    let _ = std::fs::write(format!("{out}/manifest.json"), &manifest_json);
    let _ = std::fs::write(format!("{out}/provenance.jsonl"), run.ledger.to_jsonl());

    if emit_card {
        let card = DatasetCard::new(run.manifest.clone(), assessment, demo_quality(&run));
        let path = format!("{out}/DATASET_CARD.md");
        if std::fs::write(&path, card.to_markdown()).is_ok() {
            println!("dataset card written to {path}");
        }
        let _ = std::fs::write(
            format!("{out}/dataset_card.json"),
            card.to_json().to_string_compact(),
        );
    }
    ExitCode::SUCCESS
}

/// Cheap post-hoc quality snapshot for the card: label coverage and
/// missing fraction come from the manifest; per-variable stats use the
/// schema names over a sampled probe (the card records the probe size).
fn demo_quality(run: &DomainRun) -> Vec<QualityReport> {
    run.manifest
        .schema
        .iter()
        .map(|v| {
            // The shards are binary; rather than re-decode every format in
            // the CLI we record the variable as "not re-profiled" with an
            // empty probe. The domain examples show full profiling.
            QualityReport::compute(&v.name, &[])
        })
        .collect()
}

fn cmd_matrix() {
    println!("Data Readiness maturity matrix (paper Table 2):\n");
    for (level, cells) in MaturityMatrix::rows() {
        println!("{level}");
        for (stage, cell) in ProcessingStage::ALL.iter().zip(cells) {
            match cell {
                Some(text) => println!("  {:<11} {}", stage.label(), text),
                None => println!("  {:<11} —", stage.label()),
            }
        }
        println!();
    }
}

fn cmd_assess(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("missing manifest path");
        return ExitCode::FAILURE;
    };
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("cannot read {path}");
        return ExitCode::FAILURE;
    };
    // Manifest JSON decoding: reuse the evidence keys.
    let Ok(json) = drai::io::json::Json::parse(&text) else {
        eprintln!("{path} is not valid JSON");
        return ExitCode::FAILURE;
    };
    let Some(manifest) = manifest_from_json(&json) else {
        eprintln!("{path} is not a drai manifest");
        return ExitCode::FAILURE;
    };
    match ReadinessAssessor::new().assess(&manifest) {
        Ok(a) => {
            println!("{}: {}", manifest.name, a.overall);
            for (stage, level) in &a.per_stage {
                println!("  {:<11} {}", stage.label(), level);
            }
            for d in &a.deficiencies {
                println!(
                    "  blocked at {} / {}: {}",
                    d.blocked_level, d.stage, d.reason
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("assessment failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn manifest_from_json(v: &drai::io::json::Json) -> Option<drai::core::DatasetManifest> {
    use drai::core::dataset::Modality;
    use drai::io::json::Json;
    let name = v.get("name")?.as_str()?;
    let domain = v.get("domain")?.as_str()?;
    let modality = Modality::from_name(v.get("modality")?.as_str()?)?;
    let records = v.get("records")?.as_u64()?;
    let mut m = drai::core::DatasetManifest::raw(name, domain, modality, records);
    let e = v.get("evidence")?;
    let b = |key: &str| e.get(key).and_then(Json::as_bool).unwrap_or(false);
    let f = |key: &str| e.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    m.standard_format = b("standard_format");
    m.ingest_validated = b("ingest_validated");
    m.metadata_enriched = b("metadata_enriched");
    m.high_throughput_ingest = b("high_throughput_ingest");
    m.ingest_automated = b("ingest_automated");
    m.aligned_initial = b("aligned_initial");
    m.aligned_standardized = b("aligned_standardized");
    m.alignment_automated = b("alignment_automated");
    m.normalized_initial = b("normalized_initial");
    m.normalized_final = b("normalized_final");
    m.transform_audited = b("transform_audited");
    m.requires_anonymization = b("requires_anonymization");
    m.anonymized = b("anonymized");
    m.label_coverage = f("label_coverage");
    m.features_extracted = b("features_extracted");
    m.features_validated = b("features_validated");
    m.split_assigned = b("split_assigned");
    m.sharded = b("sharded");
    m.missing_fraction = f("missing_fraction");
    // Schema entries (needed for the level-3 criterion).
    if let Some(schema) = v.get("schema").and_then(Json::as_arr) {
        for s in schema {
            m.schema.push(drai::core::VariableSpec {
                name: s.get("name")?.as_str()?.to_string(),
                dtype: drai::tensor::DType::F64,
                unit: s.get("unit")?.as_str()?.to_string(),
                shape: s
                    .get("shape")?
                    .as_arr()?
                    .iter()
                    .filter_map(|d| d.as_u64().map(|x| x as usize))
                    .collect(),
            });
        }
    }
    Some(m)
}
