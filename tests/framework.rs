//! Framework-level integration: Table 1 templates name the operations
//! the real domain runs record, dataset cards generate from real runs,
//! and the simulated parallel filesystem serves as a drop-in shard sink.

use drai::core::card::DatasetCard;
use drai::core::templates::DomainTemplate;
use drai::domains::{bio, climate, fusion, materials};
use drai::io::json::Json;
use drai::io::sink::MemSink;
use drai::sim::{SimConfig, SimFs};
use drai::tensor::LatLonGrid;
use std::sync::Arc;

/// Each template's steps are, in order, the operations its domain's run
/// records after `ingest`, with the kinds its stages report — for all
/// four domains, so a renamed stage cannot drift from its template.
#[test]
fn templates_validate_real_domain_pipelines() {
    let sink = Arc::new(MemSink::new());
    let small_climate = climate::ClimateConfig {
        src_grid: LatLonGrid::global(8, 16),
        dst_grid: LatLonGrid::global(4, 8),
        timesteps: 6,
        ..climate::ClimateConfig::default()
    };
    let small_fusion = fusion::FusionConfig {
        shots: 4,
        shot_seconds: 0.5,
        ..fusion::FusionConfig::default()
    };
    let small_bio = bio::BioConfig {
        patients: 12,
        tile_len: 16,
        ..bio::BioConfig::default()
    };
    let small_materials = materials::MaterialsConfig {
        structures: 4,
        cell_atoms: 2,
        ..materials::MaterialsConfig::default()
    };
    let runs = [
        climate::run(&small_climate, sink.clone()).unwrap(),
        fusion::run(&small_fusion, sink.clone()).unwrap(),
        bio::run(&small_bio, sink.clone()).unwrap(),
        materials::run(&small_materials, sink).unwrap(),
    ];
    for (template, run) in DomainTemplate::all().iter().zip(&runs) {
        assert_eq!(run.manifest.domain, template.domain);
        let steps: Vec<(&str, _)> = template.steps.iter().map(|s| (s.name, s.kind)).collect();
        let stages: Vec<(&str, _)> = run
            .stages
            .iter()
            .map(|s| (s.name.as_str(), s.kind))
            .collect();
        assert_eq!(
            stages, steps,
            "{} pipeline drifted from its template",
            template.domain
        );
        let ops: Vec<String> = run
            .ledger
            .transformations()
            .into_iter()
            .map(|t| t.operation)
            .collect();
        let expected: Vec<&str> = std::iter::once("ingest")
            .chain(steps.iter().map(|s| s.0))
            .collect();
        assert_eq!(ops, expected, "{}", template.domain);
    }
}

#[test]
fn template_catalog_matches_table1() {
    let all = DomainTemplate::all();
    assert_eq!(all.len(), 4);
    // Shard formats match the Table 1 architecture column's storage story.
    let formats: Vec<&str> = all.iter().map(|t| t.shard_format).collect();
    assert!(formats.contains(&"npz"));
    assert!(formats.contains(&"tfrecord"));
    assert!(formats.contains(&"h5lite+chacha20"));
    assert!(formats.contains(&"bp+jsonl"));
}

#[test]
fn dataset_card_from_real_run() {
    let cfg = climate::ClimateConfig {
        src_grid: LatLonGrid::global(12, 24),
        dst_grid: LatLonGrid::global(8, 16),
        timesteps: 8,
        ..climate::ClimateConfig::default()
    };
    let sink = Arc::new(MemSink::new());
    let run = climate::run(&cfg, sink).unwrap();
    // No stage measures a per-variable quality report yet.
    let card = DatasetCard::new(run.manifest.clone(), run.assess(), Vec::new());
    let md = card.to_markdown();
    assert!(md.contains("# Dataset card: cmip-synth"));
    assert!(md.contains("5 - Fully AI-ready"));
    assert!(md.contains("| tas | f32 | K |"));
    assert!(md.contains("No stage measured a quality report."));
    assert!(card.warnings().is_empty(), "{:?}", card.warnings());
    // JSON card parses and carries the readiness level.
    let json = Json::parse(&card.to_json().to_string_compact()).unwrap();
    assert!(json
        .get("readiness")
        .unwrap()
        .get("overall")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("Fully AI-ready"));
}

#[test]
fn simulated_parallel_fs_serves_domain_pipeline() {
    // The Lustre-like simulator is a valid StorageSink: run the whole
    // materials archetype against it and check virtual I/O accrued.
    let fs = SimFs::new(SimConfig {
        ost_count: 16,
        stripe_count: 8,
        ..SimConfig::default()
    })
    .unwrap();
    let cfg = materials::MaterialsConfig {
        structures: 12,
        cell_atoms: 2,
        ..materials::MaterialsConfig::default()
    };
    let run = materials::run(&cfg, Arc::new(fs.clone())).unwrap();
    assert!(!run.shard_files.is_empty());
    assert!(fs.makespan() > 0.0, "no virtual I/O recorded");
    let report = fs.ost_report();
    let active = report.bytes_per_ost.iter().filter(|&&b| b > 0).count();
    assert!(active >= 2, "striping did not spread load: {report:?}");
    // The shards read back identically from the simulator.
    let bytes = drai::io::sink::StorageSink::read_file(&fs, "materials/train.bp").unwrap();
    let reader = drai::formats::bp::BpReader::open(&bytes).unwrap();
    assert!(reader.group_count() > 0);
    assert!(fs.total_read_bytes() > 0);
}

#[test]
fn grib_and_netcdf_ingest_agree() {
    let cfg = climate::ClimateConfig {
        src_grid: LatLonGrid::global(8, 16),
        dst_grid: LatLonGrid::global(4, 8),
        timesteps: 6,
        ..climate::ClimateConfig::default()
    };
    let sink = MemSink::new();
    climate::generate_raw(&cfg, &sink).unwrap();
    climate::generate_raw_grib(&cfg, &sink, drai::formats::grib::Packing { bits: 20 }).unwrap();
    let grib_fields = climate::ingest_grib(&cfg, &sink).unwrap();
    assert_eq!(grib_fields.len(), 4);
    for f in &grib_fields {
        assert_eq!(f.len(), cfg.timesteps * cfg.src_grid.ncells());
        assert!(f.iter().all(|v| v.is_finite()));
    }
}
