//! Quickstart: grow a small pipeline one stage at a time and watch the
//! assessor grade each version from the ledger its run writes — from raw
//! data ingested and nothing else up to fully AI-ready.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use drai::core::assess::{key, INGEST};
use drai::core::dataset::{DatasetManifest, Modality, VariableSpec};
use drai::core::pipeline::{Pipeline, StageCounters};
use drai::core::readiness::ProcessingStage as S;
use drai::core::templates::TemplateStep;
use drai::core::{assess, DomainTemplate, ReadinessLevel};
use drai::io::checksum::content_hash128;
use drai::io::shard::{ShardSpec, ShardWriter};
use drai::io::sink::{MemSink, StorageSink};
use drai::provenance::{Artifact, Ledger};
use drai::tensor::DType;
use std::sync::Arc;

/// Values per record; a record's last value is its target.
const RECORD: usize = 16;

/// The demo's steps, in the order the pipeline grows them.
const STEPS: [TemplateStep; 5] = [
    TemplateStep::new("validate", S::Ingest),
    TemplateStep::new("clean", S::Preprocess),
    TemplateStep::new("normalize", S::Transform),
    TemplateStep::new("features", S::Structure),
    TemplateStep::new("shard", S::Shard),
];

fn main() {
    println!("drai quickstart: raw -> fully AI-ready, graded from the ledger\n");
    // 1,000 records of 16 values, every 50th value missing.
    let raw: Vec<f64> = (0..1_000 * RECORD)
        .map(|i| match i % 50 {
            7 => f64::NAN,
            _ => (i as f64 * 0.01).sin() * 3.0 + 1.0,
        })
        .collect();
    let manifest = DatasetManifest {
        name: "quickstart".into(),
        domain: "demo".into(),
        modality: Modality::Tabular,
        schema: vec![VariableSpec::new("x", DType::F64, "1", &[RECORD])],
        records: 1_000,
    };
    let template = DomainTemplate {
        domain: "demo",
        steps: &STEPS,
        alignment: Some("record_len"),
        requires_anonymization: false,
    };

    for stages in 0..=STEPS.len() {
        let sink = Arc::new(MemSink::new());
        let ledger = Arc::new(Ledger::new());
        // What a domain run does before its stages: put the raw blob on
        // record and name the pipeline's input by it.
        let bytes: Vec<u8> = raw.iter().flat_map(|x| x.to_le_bytes()).collect();
        let blob = Artifact::new("raw/demo.f64", &bytes);
        let id = content_hash128(blob.id.digest().as_bytes());
        ledger.record(INGEST, [], vec![blob], vec![Artifact::derived(&id)]);
        let run = pipeline(stages, sink.clone(), ledger.clone())
            .run_with_id(raw.clone(), Some(id))
            .expect("demo pipeline");

        let a = assess(&manifest, &ledger, &template);
        let names: Vec<&str> = run.stages.iter().map(|s| s.name.as_str()).collect();
        println!("stages {names:?}");
        print!("  readiness: {}", a.overall);
        if a.overall == ReadinessLevel::FullyAiReady {
            let shards = sink.list().expect("list").len();
            println!("  — ready to train ({shards} blobs under demo/).");
            for e in &a.evidence {
                let cites: Vec<String> = e.cites.iter().map(|c| c.to_string()).collect();
                let cell = format!("L{} {}", e.level.number(), e.stage.label());
                println!("    {cell:<14} cites {}", cites.join(", "));
            }
        } else if let Some(d) = a.blocking() {
            let cell = format!("L{} {}", d.blocked_level.number(), d.stage.label());
            println!("  (next blocked at {cell}: {})", d.reason);
        }
    }
}

/// The first `stages` of [`STEPS`], recording into `ledger`.
fn pipeline(stages: usize, sink: Arc<MemSink>, ledger: Arc<Ledger>) -> Pipeline<Vec<f64>> {
    let mut p = Pipeline::builder("demo").ledger(ledger);
    for &TemplateStep { name, kind } in &STEPS[..stages] {
        p = match name {
            "validate" => p.stage(name, kind, |v: Vec<f64>, c: &mut StageCounters| {
                c.records = (v.len() / RECORD) as u64;
                match v.len() % RECORD {
                    0 => Ok(v),
                    n => Err(format!("{n} values past the last whole record")),
                }
            }),
            // Missing values become the mean of the values present; the
            // values stay aligned to records of `RECORD`.
            "clean" => {
                let config = [("fill", "mean".into()), ("record_len", RECORD.to_string())];
                p.configured_stage(name, kind, config, |mut v, _| {
                    let present: Vec<f64> = v.iter().copied().filter(|x| !x.is_nan()).collect();
                    let mean = present.iter().sum::<f64>() / present.len().max(1) as f64;
                    v.iter_mut().filter(|x| x.is_nan()).for_each(|x| *x = mean);
                    Ok(v)
                })
            }
            // The fit visits every value, so it counts what is missing.
            "normalize" => {
                p.configured_stage(name, kind, [("method", "zscore".into())], |mut v, c| {
                    let missing = v.iter().filter(|x| x.is_nan()).count();
                    let n = v.len().max(1) as f64;
                    let mean = v.iter().sum::<f64>() / n;
                    let std = (v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n).sqrt();
                    v.iter_mut()
                        .for_each(|x| *x = (*x - mean) / std.max(f64::EPSILON));
                    c.measure(key::MISSING, missing);
                    c.measure(key::VALUES, v.len());
                    Ok(v)
                })
            }
            // Each record's first value becomes its mean.
            "features" => p.stage(name, kind, |mut v, _| {
                for record in v.chunks_exact_mut(RECORD) {
                    record[0] = record.iter().sum::<f64>() / RECORD as f64;
                }
                Ok(v)
            }),
            _ => {
                let split = [(key::SEED, "7".into()), (key::FRACTIONS, "1/0/0".into())];
                let sink = sink.clone();
                p.configured_stage(name, kind, split, move |v, c| {
                    let records: Vec<Vec<u8>> = (v.chunks_exact(RECORD))
                        .map(|r| r.iter().flat_map(|x| x.to_le_bytes()).collect())
                        .collect();
                    let labeled = v.chunks_exact(RECORD).filter(|r| r[RECORD - 1].is_finite());
                    c.measure(key::RECORDS, records.len());
                    c.measure(key::LABELED, labeled.count());
                    let written = ShardWriter::new(ShardSpec::new("demo/train", 16 * 1024), &*sink)
                        .write_all(&records)
                        .map_err(|e| e.to_string())?;
                    for shard in &written.shards {
                        let content = sink.read_file(&shard.name).map_err(|e| e.to_string())?;
                        c.wrote(&shard.name, &content);
                    }
                    Ok(v)
                })
            }
        };
    }
    p.build()
}
