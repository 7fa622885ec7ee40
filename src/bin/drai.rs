//! `drai` — command-line front end for the DRAI pipelines.
//!
//! ```text
//! drai run <domain> [--out DIR] [--seed N] [--scale N]
//! drai matrix                      # print the Table 2 maturity matrix
//! drai assess <run dir>            # grade a run from its manifest + ledger
//! drai card <domain> [--out DIR] [--seed N] [--scale N]
//!                                  # run a pipeline and emit its dataset card
//! ```
//!
//! A domain is one of the archetype table's (`drai::domains::ARCHETYPES`).
//! An argument a command does not take (an unknown `--flag`, an extra
//! word) is a usage error, like a flag without its value.
//! A closed stdout ends the output; it does not change the exit status.

use drai::core::assess::Assessment;
use drai::core::card::DatasetCard;
use drai::core::readiness::{MaturityMatrix, ProcessingStage, ReadinessLevel};
use drai::core::{assess, DatasetManifest, DomainTemplate};
use drai::domains::{archetype, ARCHETYPES};
use drai::io::sink::LocalFs;
use drai::provenance::Ledger;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

/// What a command prints and its exit status, or why it failed.
type Outcome = Result<(String, ExitCode), String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..], false),
        Some("card") => cmd_run(&args[1..], true),
        Some("matrix") => Args::parse(&args[1..], 0, &[]).map(|_| (matrix(), ExitCode::SUCCESS)),
        Some("assess") => cmd_assess(&args[1..]),
        _ => Err(format!(
            "usage:\n  drai run <{}> [--out DIR] [--seed N] [--scale N]\n  \
             drai card <domain> [--out DIR] [--seed N] [--scale N]\n  drai matrix\n  \
             drai assess <run dir>",
            domains()
        )),
    };
    let (text, status) = match outcome {
        Ok(printed) => printed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // A closed stdout ends the output quietly; any other write error
    // fails the command.
    match std::io::stdout().lock().write_all(text.as_bytes()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            eprintln!("cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
        _ => status,
    }
}

/// The archetype table's domains, as `a|b|...`.
fn domains() -> String {
    let names: Vec<&str> = ARCHETYPES.iter().map(|a| a.template.domain).collect();
    names.join("|")
}

/// A command's arguments: its positional words and its `--flag value`
/// pairs.
struct Args<'a> {
    words: Vec<&'a str>,
    flags: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    /// `args` read as a command that takes at most `max_words` words and
    /// the flags in `known`, each followed by its value. An unknown flag,
    /// a flag with nothing after it and a word past `max_words` are usage
    /// errors that name the argument.
    fn parse(args: &'a [String], max_words: usize, known: &[&str]) -> Result<Args<'a>, String> {
        let mut parsed = Args {
            words: Vec::new(),
            flags: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg.starts_with("--") {
                if !known.contains(&arg.as_str()) {
                    return Err(format!("unknown flag {arg:?}"));
                }
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                parsed.flags.push((arg, value));
            } else if parsed.words.len() < max_words {
                parsed.words.push(arg);
            } else {
                return Err(format!("unexpected argument {arg:?}"));
            }
        }
        Ok(parsed)
    }

    /// The value of flag `name`, `None` when the flag is absent.
    fn flag(&self, name: &str) -> Option<&'a str> {
        let mut given = self.flags.iter();
        given
            .find(|(flag, _)| *flag == name)
            .map(|(_, value)| *value)
    }

    /// The integer value of flag `name`, `default` when the flag is
    /// absent; a value that does not parse is a usage error, never the
    /// default.
    fn int_flag<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} needs a non-negative integer, got {v:?}")),
        }
    }
}

/// `drai run` / `drai card`: one archetype run, its record written
/// before anything is printed, so it outlives a closed stdout.
fn cmd_run(args: &[String], emit_card: bool) -> Outcome {
    let args = Args::parse(args, 1, &["--out", "--seed", "--scale"])?;
    let domain = (args.words.first()).ok_or_else(|| format!("missing domain ({})", domains()))?;
    let seed = args.int_flag("--seed", 2_025)?;
    let scale = args.int_flag("--scale", 1usize)?.max(1);
    let out = args.flag("--out");
    // Domain and flags are checked before the output directory is
    // created, so a usage error leaves nothing behind.
    let archetype =
        archetype(domain).ok_or_else(|| format!("unknown domain {domain:?} ({})", domains()))?;
    let out = out.map_or_else(|| format!("./drai-out/{domain}"), str::to_string);
    let sink = LocalFs::new(&out).map_err(|e| format!("cannot open output dir {out}: {e}"))?;
    let run = (archetype.run)(seed, scale, Arc::new(sink))
        .map_err(|e| format!("pipeline failed: {e}"))?;
    let assessment = run.assess();

    // Persist the manifest + audit log (+ card) next to the data. A run
    // whose record could not be written is a failed run.
    let mut records = vec![
        ("manifest.json", run.manifest.to_json().to_string_compact()),
        ("provenance.jsonl", run.ledger.to_jsonl()),
    ];
    if emit_card {
        // No stage measures a per-variable quality report yet.
        let card = DatasetCard::new(run.manifest.clone(), assessment.clone(), Vec::new());
        records.push(("DATASET_CARD.md", card.to_markdown()));
        records.push(("dataset_card.json", card.to_json().to_string_compact()));
    }
    let mut status = ExitCode::SUCCESS;
    let mut card_written = None;
    for (name, contents) in records {
        let path = format!("{out}/{name}");
        match std::fs::write(&path, contents) {
            Ok(()) if name == "DATASET_CARD.md" => card_written = Some(path),
            Ok(()) => {}
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                status = ExitCode::FAILURE;
            }
        }
    }

    let mut text = format!("{domain} pipeline complete -> {out}\n");
    for s in &run.stages {
        let _ = writeln!(
            text,
            "  {:<14} [{:<10}] {:>8} records  {:>10.3} ms",
            s.name,
            s.kind.to_string(),
            s.throughput.records,
            s.throughput.elapsed.as_secs_f64() * 1e3
        );
    }
    let _ = writeln!(text, "readiness: {}", assessment.overall);
    let _ = writeln!(
        text,
        "shards: {} files, provenance: {} events",
        run.shard_files.len(),
        run.ledger.len()
    );
    if let Some(path) = card_written {
        let _ = writeln!(text, "dataset card written to {path}");
    }
    Ok((text, status))
}

/// Table 2, one level per paragraph, one line per stage.
fn matrix() -> String {
    let mut text = String::from("Data Readiness maturity matrix (paper Table 2):\n\n");
    for (level, cells) in MaturityMatrix::rows() {
        let _ = writeln!(text, "{level}");
        for (stage, cell) in ProcessingStage::ALL.iter().zip(cells) {
            let _ = writeln!(text, "  {:<11} {}", stage.label(), cell.unwrap_or("—"));
        }
        text.push('\n');
    }
    text
}

/// Grade the run in `dir` from its `manifest.json` and
/// `provenance.jsonl`, and print each Table 2 cell with the ledger
/// records it cites, or why it is blocked.
fn cmd_assess(args: &[String]) -> Outcome {
    let args = Args::parse(args, 1, &[])?;
    let dir = args.words.first().ok_or("missing run directory")?;
    let read = |name: &str| {
        let path = format!("{dir}/{name}");
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let json = drai::io::json::Json::parse(&read("manifest.json")?)
        .map_err(|e| format!("{dir}/manifest.json is not valid JSON: {e}"))?;
    let manifest = DatasetManifest::from_json(&json)
        .map_err(|e| format!("{dir}/manifest.json is not a drai manifest: {e}"))?;
    let ledger = Ledger::from_jsonl(&read("provenance.jsonl")?)
        .map_err(|e| format!("{dir}/provenance.jsonl: {e}"))?;
    let template = (archetype(&manifest.domain).map(|a| a.template))
        .ok_or_else(|| format!("no template for domain {:?}", manifest.domain))?;
    let assessment = assess(&manifest, &ledger, template);
    Ok((cells(&manifest, template, &assessment), ExitCode::SUCCESS))
}

/// The grade, then one line per Table 2 cell: the records it cites, why
/// it is blocked, or why it is N/A for the domain.
fn cells(manifest: &DatasetManifest, template: &DomainTemplate, a: &Assessment) -> String {
    let mut text = format!("{} ({}): {}\n", manifest.name, manifest.domain, a.overall);
    for level in ReadinessLevel::ALL {
        for stage in ProcessingStage::ALL {
            if !MaturityMatrix::applicable(level, stage) {
                continue;
            }
            let cited = (a.evidence.iter()).find(|e| (e.level, e.stage) == (level, stage));
            let blocked =
                (a.deficiencies.iter()).find(|d| (d.blocked_level, d.stage) == (level, stage));
            let why = if let Some(e) = cited {
                let cites: Vec<String> = e.cites.iter().map(|c| c.to_string()).collect();
                format!("cites {}", cites.join(", "))
            } else if let Some(d) = blocked {
                format!("BLOCKED: {}", d.reason)
            } else {
                format!("n/a: {} has no {stage} step", template.domain)
            };
            let _ = writeln!(text, "  L{} {:<10} {why}", level.number(), stage.label());
        }
    }
    text
}
