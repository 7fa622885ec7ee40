//! `drai` — command-line front end for the DRAI pipelines.
//!
//! ```text
//! drai run <climate|fusion|bio|materials> [--out DIR] [--seed N] [--scale N]
//! drai matrix                      # print the Table 2 maturity matrix
//! drai assess <run dir>            # grade a run from its manifest + ledger
//! drai card <domain> [--out DIR]   # run a pipeline and emit its dataset card
//! ```

use drai::core::assess::Assessment;
use drai::core::card::DatasetCard;
use drai::core::readiness::{MaturityMatrix, ProcessingStage, ReadinessLevel};
use drai::core::{assess, DatasetManifest, DomainTemplate};
use drai::domains::{bio, climate, fusion, materials, DomainError, DomainRun};
use drai::io::sink::{LocalFs, StorageSink};
use drai::provenance::Ledger;
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
                 drai card <domain> [--out DIR]\n  drai matrix\n  drai assess <run dir>"
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
    let assessment = run.assess();
    println!("readiness: {}", assessment.overall);
    println!(
        "shards: {} files, provenance: {} events",
        run.shard_files.len(),
        run.ledger.len()
    );

    // Persist the manifest + audit log (+ card) next to the data. A run
    // whose record could not be written is a failed run.
    let mut records = vec![
        ("manifest.json", run.manifest.to_json().to_string_compact()),
        ("provenance.jsonl", run.ledger.to_jsonl()),
    ];
    if emit_card {
        // No stage measures a per-variable quality report yet.
        let card = DatasetCard::new(run.manifest.clone(), assessment, Vec::new());
        records.push(("DATASET_CARD.md", card.to_markdown()));
        records.push(("dataset_card.json", card.to_json().to_string_compact()));
    }
    let mut status = ExitCode::SUCCESS;
    for (name, contents) in records {
        let path = format!("{out}/{name}");
        match std::fs::write(&path, contents) {
            Ok(()) if name == "DATASET_CARD.md" => println!("dataset card written to {path}"),
            Ok(()) => {}
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                status = ExitCode::FAILURE;
            }
        }
    }
    status
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

/// Grade the run in `dir` from its `manifest.json` and
/// `provenance.jsonl`, and print each Table 2 cell with the ledger
/// records it cites, or why it is blocked.
fn cmd_assess(args: &[String]) -> ExitCode {
    let Some(dir) = args.first() else {
        eprintln!("missing run directory");
        return ExitCode::FAILURE;
    };
    let read = |name: &str| {
        let path = format!("{dir}/{name}");
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let graded = read("manifest.json").and_then(|text| {
        let json = drai::io::json::Json::parse(&text)
            .map_err(|e| format!("{dir}/manifest.json is not valid JSON: {e}"))?;
        let manifest = DatasetManifest::from_json(&json)
            .map_err(|e| format!("{dir}/manifest.json is not a drai manifest: {e}"))?;
        let ledger = Ledger::from_jsonl(&read("provenance.jsonl")?)
            .map_err(|e| format!("{dir}/provenance.jsonl: {e}"))?;
        let template = DomainTemplate::named(&manifest.domain)
            .ok_or_else(|| format!("no template for domain {:?}", manifest.domain))?;
        let assessment = assess(&manifest, &ledger, &template);
        Ok((manifest, template, assessment))
    });
    match graded {
        Ok((manifest, template, assessment)) => {
            print_assessment(&manifest, &template, &assessment);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// The grade, then one line per Table 2 cell: the records it cites, why
/// it is blocked, or why it is N/A for the domain.
fn print_assessment(manifest: &DatasetManifest, template: &DomainTemplate, a: &Assessment) {
    println!("{} ({}): {}", manifest.name, manifest.domain, a.overall);
    for level in ReadinessLevel::ALL {
        for stage in ProcessingStage::ALL {
            if !MaturityMatrix::applicable(level, stage) {
                continue;
            }
            let cell = format!("L{} {:<10}", level.number(), stage.label());
            let cited = a
                .evidence
                .iter()
                .find(|e| (e.level, e.stage) == (level, stage));
            let blocked =
                (a.deficiencies.iter()).find(|d| (d.blocked_level, d.stage) == (level, stage));
            if let Some(e) = cited {
                let cites: Vec<String> = e.cites.iter().map(|c| c.to_string()).collect();
                println!("  {cell} cites {}", cites.join(", "));
            } else if let Some(d) = blocked {
                println!("  {cell} BLOCKED: {}", d.reason);
            } else {
                println!("  {cell} n/a: {} has no {stage} step", template.domain);
            }
        }
    }
}
