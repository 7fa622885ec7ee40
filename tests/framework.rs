//! Framework-level integration: dataset cards generate from real runs,
//! and the simulated parallel filesystem serves as a drop-in shard sink.

use drai::core::card::DatasetCard;
use drai::domains::{climate, materials};
use drai::io::json::Json;
use drai::io::sink::MemSink;
use drai::sim::{SimConfig, SimFs};
use drai::tensor::LatLonGrid;
use std::sync::Arc;

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
