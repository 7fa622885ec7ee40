//! Cross-crate integration tests: every archetype pipeline end-to-end,
//! the readiness ladder walked by a real pipeline, provenance lineage
//! from every shard to its raw blobs, and corruption detection across
//! the full stack.

use drai::core::readiness::{ProcessingStage, ReadinessLevel};
use drai::core::{DatasetManifest, ReadinessAssessor};
use drai::domains::{bio, climate, fusion, materials, DomainError, DomainRun};
use drai::io::json::Json;
use drai::io::shard::ShardReader;
use drai::io::sink::{LocalFs, MemSink, StorageSink};
use drai::provenance::{Artifact, ArtifactId, Ledger};
use drai::tensor::LatLonGrid;
use std::sync::Arc;

fn climate_cfg() -> climate::ClimateConfig {
    climate::ClimateConfig {
        src_grid: LatLonGrid::global(12, 24),
        dst_grid: LatLonGrid::global(8, 16),
        timesteps: 12,
        seed: 1,
        shard_bytes: 64 * 1024,
        ..climate::ClimateConfig::default()
    }
}

fn fusion_cfg() -> fusion::FusionConfig {
    fusion::FusionConfig {
        shots: 10,
        shot_seconds: 0.6,
        clock_hz: 400.0,
        window_len: 32,
        window_stride: 16,
        seed: 2,
        ..fusion::FusionConfig::default()
    }
}

fn bio_cfg() -> bio::BioConfig {
    bio::BioConfig {
        patients: 20,
        tile_len: 64,
        seed: 3,
        ..bio::BioConfig::default()
    }
}

fn materials_cfg() -> materials::MaterialsConfig {
    materials::MaterialsConfig {
        structures: 12,
        cell_atoms: 2,
        seed: 4,
        ..materials::MaterialsConfig::default()
    }
}

#[test]
fn all_four_archetypes_reach_level_five() {
    let assessor = ReadinessAssessor::new();
    let sink = Arc::new(MemSink::new());
    let runs = [
        climate::run(&climate_cfg(), sink.clone()).unwrap().manifest,
        fusion::run(&fusion_cfg(), sink.clone()).unwrap().manifest,
        bio::run(&bio_cfg(), sink.clone()).unwrap().manifest,
        materials::run(&materials_cfg(), sink).unwrap().manifest,
    ];
    for manifest in &runs {
        // What `drai run` writes, `drai assess` reads back unchanged.
        let text = manifest.to_json().to_string_compact();
        let back = DatasetManifest::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(&back, manifest);
        let a = assessor.assess(manifest).unwrap();
        assert_eq!(
            a.overall,
            ReadinessLevel::FullyAiReady,
            "{} stuck at {} ({:?})",
            manifest.name,
            a.overall,
            a.blocking()
        );
    }
    // Four distinct modalities, as in Table 1.
    let modalities: std::collections::BTreeSet<&str> =
        runs.iter().map(|m| m.modality.name()).collect();
    assert_eq!(modalities.len(), 4);
}

#[test]
fn archetypes_cover_the_canonical_stage_sequence() {
    // §3.5: every archetype's stages map onto
    // ingest → preprocess → transform → structure → shard, in order
    // (individual archetypes may skip stages they don't need).
    let sink = Arc::new(MemSink::new());
    let runs = [
        climate::run(&climate_cfg(), sink.clone()).unwrap(),
        fusion::run(&fusion_cfg(), sink.clone()).unwrap(),
        bio::run(&bio_cfg(), sink.clone()).unwrap(),
        materials::run(&materials_cfg(), sink).unwrap(),
    ];
    for run in &runs {
        let kinds: Vec<ProcessingStage> = run.stages.iter().map(|s| s.kind).collect();
        // Monotone non-decreasing stage order.
        assert!(
            kinds.windows(2).all(|w| w[0].index() <= w[1].index()),
            "{}: stages out of canonical order: {kinds:?}",
            run.manifest.name
        );
        // Every pipeline starts by ingesting and ends by sharding.
        assert_eq!(kinds.first(), Some(&ProcessingStage::Ingest));
        assert_eq!(kinds.last(), Some(&ProcessingStage::Shard));
        // And did measurable work.
        assert!(run.stages.iter().any(|s| s.throughput.records > 0));
    }
}

#[test]
fn real_filesystem_round_trip() {
    // The same pipelines run against a real directory, not just MemSink.
    let dir = std::env::temp_dir().join(format!("drai-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sink = Arc::new(LocalFs::new(&dir).unwrap());
    let run = climate::run(&climate_cfg(), sink.clone()).unwrap();
    assert!(!run.shard_files.is_empty());
    let reader = ShardReader::open("climate/train", sink.as_ref()).unwrap();
    let records = reader.read_all().unwrap();
    assert_eq!(
        records.len() as u64,
        reader.manifest().total_records,
        "manifest record count disagrees with actual records"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

type RunFn = dyn Fn(Arc<dyn StorageSink>) -> Result<DomainRun, DomainError>;

/// For every archetype and every shard its `run` lists, read back from
/// the audit log: the shard's roots are exactly the raw blobs
/// `generate_raw` wrote (fusion synthesizes its shot store in memory, so
/// it has none), and its lineage is the `ingest` record plus one record
/// per stage, in order.
#[test]
fn provenance_links_shards_to_raw_inputs() {
    let archetypes: [(&str, &RunFn); 4] = [
        ("climate", &|sink| climate::run(&climate_cfg(), sink)),
        ("fusion", &|sink| fusion::run(&fusion_cfg(), sink)),
        ("bio", &|sink| bio::run(&bio_cfg(), sink)),
        ("materials", &|sink| materials::run(&materials_cfg(), sink)),
    ];
    let by_name = |blobs: &mut Vec<Artifact>| blobs.sort_by(|a, b| a.name.cmp(&b.name));
    for (domain, run) in archetypes {
        let sink = Arc::new(MemSink::new());
        let run = run(sink.clone()).unwrap();
        let mut raw: Vec<Artifact> = (sink.list().unwrap().into_iter())
            .filter(|name| name.starts_with("raw/"))
            .map(|name| Artifact::new(&name, &sink.read_file(&name).unwrap()))
            .collect();
        by_name(&mut raw);
        assert_eq!(raw.is_empty(), domain == "fusion", "{domain}: {raw:?}");
        let ledger = Ledger::from_jsonl(&run.ledger.to_jsonl()).unwrap();
        assert_eq!(ledger.len(), 1 + run.stages.len(), "{domain}");
        let operations: Vec<&str> = std::iter::once("ingest")
            .chain(run.stages.iter().map(|s| s.name.as_str()))
            .collect();
        assert!(!run.shard_files.is_empty(), "{domain}");
        for shard in &run.shard_files {
            let id = ArtifactId::of(&sink.read_file(shard).unwrap());
            let mut roots = ledger.roots(&id).unwrap();
            by_name(&mut roots);
            assert_eq!(roots, raw, "{domain}: roots of {shard}");
            let lineage = ledger.lineage(&id).unwrap();
            let ops: Vec<&str> = lineage.iter().map(|t| t.operation.as_str()).collect();
            assert_eq!(ops, operations, "{domain}: lineage of {shard}");
        }
    }
}

#[test]
fn reproducibility_same_seed_same_shards() {
    let cfg = climate_cfg();
    let s1 = Arc::new(MemSink::new());
    let s2 = Arc::new(MemSink::new());
    climate::run(&cfg, s1.clone()).unwrap();
    climate::run(&cfg, s2.clone()).unwrap();
    let names1 = s1.list().unwrap();
    assert_eq!(names1, s2.list().unwrap());
    for name in names1 {
        assert_eq!(
            s1.read_file(&name).unwrap(),
            s2.read_file(&name).unwrap(),
            "{name} differs across identical runs"
        );
    }
}

#[test]
fn different_seeds_different_data() {
    let mut cfg2 = climate_cfg();
    cfg2.seed += 1;
    let s1 = Arc::new(MemSink::new());
    let s2 = Arc::new(MemSink::new());
    climate::run(&climate_cfg(), s1.clone()).unwrap();
    climate::run(&cfg2, s2.clone()).unwrap();
    let raw1 = s1.read_file("raw/tas.nc").unwrap();
    let raw2 = s2.read_file("raw/tas.nc").unwrap();
    assert_ne!(raw1, raw2);
}

#[test]
fn corrupted_shard_detected_through_full_stack() {
    let sink = Arc::new(MemSink::new());
    let run = fusion::run(&fusion_cfg(), sink.clone()).unwrap();
    let name = run
        .shard_files
        .iter()
        .find(|n| n.contains("train"))
        .expect("train shard exists");
    let mut bytes = sink.read_file(name).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    sink.write_file(name, &bytes).unwrap();
    let reader = ShardReader::open("fusion/train", sink.as_ref()).unwrap();
    let mut saw_error = false;
    for i in 0..reader.manifest().shards.len() {
        if reader.read_shard(i).is_err() {
            saw_error = true;
        }
    }
    assert!(saw_error, "corruption slipped through CRC verification");
}

#[test]
fn manifest_evidence_downgrade_detected() {
    // If a pipeline claims level 5 but the shards are missing, the
    // *manifest evidence* should be falsifiable: strip the flag and the
    // assessor downgrades. (Guards against assessors that trust labels.)
    let sink = Arc::new(MemSink::new());
    let run = materials::run(&materials_cfg(), sink).unwrap();
    let assessor = ReadinessAssessor::new();
    let mut m = run.manifest.clone();
    assert_eq!(
        assessor.assess(&m).unwrap().overall,
        ReadinessLevel::FullyAiReady
    );
    m.anonymized = false; // materials has no PHI → no effect
    assert_eq!(
        assessor.assess(&m).unwrap().overall,
        ReadinessLevel::FullyAiReady
    );
    m.normalized_final = false;
    m.transform_audited = false;
    let a = assessor.assess(&m).unwrap();
    assert_eq!(a.overall, ReadinessLevel::Labeled);
}

#[test]
fn bio_secure_shards_unreadable_without_secret() {
    let cfg = bio_cfg();
    let sink = Arc::new(MemSink::new());
    let run = bio::run(&cfg, sink.clone()).unwrap();
    for name in &run.shard_files {
        let enc = sink.read_file(name).unwrap();
        assert!(
            drai::formats::h5lite::H5File::from_bytes(&enc).is_err(),
            "{name} is readable without decryption"
        );
    }
}
