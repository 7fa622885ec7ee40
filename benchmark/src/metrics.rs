//! The metric tables: every name the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` at the repo root lists the same
//! names (a unit test holds the two together).

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// The seven workloads, in the order the suite runs them.
pub const WORKLOADS: &[&str] = &[
    "tabular_fig1",
    "climate_single",
    "ensemble_cold",
    "ensemble_warm",
    "shard_roundtrip",
    "archetypes_table1",
    "sched_small_jobs",
];

/// An end-to-end metric: reported by every workload, never 0, with the
/// share of its median by which it may get worse before a change
/// counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound, a share of the median.
    pub bound: f64,
}

/// End-to-end metrics every workload reports.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "throughput_MBps",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// End-to-end metrics that exist on one workload only. The driver's
/// contract wants every bounded metric on every workload and never 0,
/// so `BENCHMARK.json` lists these without a bound; `check-repeat`
/// holds them to the bound given here.
pub const WORKLOAD_END_TO_END: &[(&str, EndToEnd)] = &[
    (
        "shard_roundtrip",
        EndToEnd {
            name: "write_MBps",
            unit: "MB/s",
            better: Better::Higher,
            bound: 0.20,
        },
    ),
    (
        "shard_roundtrip",
        EndToEnd {
            name: "read_MBps",
            unit: "MB/s",
            better: Better::Higher,
            bound: 0.20,
        },
    ),
    (
        "sched_small_jobs",
        EndToEnd {
            name: "jobs_per_s",
            unit: "1/s",
            better: Better::Higher,
            bound: 0.20,
        },
    ),
];

/// A per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

/// Per-layer metrics (`--trace 1`). A workload reports the ones its
/// layers produce; the driver's result line carries every name, with 0
/// for a layer the workload leaves idle. README.md says which
/// end-to-end metric each one should move, on which workload.
pub const PER_LAYER: &[PerLayer] = &[
    // End-to-end values of single workloads (see WORKLOAD_END_TO_END).
    hi("write_MBps", "MB/s"),
    hi("read_MBps", "MB/s"),
    hi("jobs_per_s", "1/s"),
    lo("failed_share", "ratio"),
    // host: denominators, measured in the same run.
    hi("host.memcpy_MBps", "MB/s"),
    hi("host.crc32c_MBps", "MB/s"),
    hi("host.content_hash128_MBps", "MB/s"),
    hi("host.memsink_write_MBps", "MB/s"),
    // drai-transform on tabular_fig1.
    lo("transform.impute_s", "s"),
    lo("transform.normalize_cols_s", "s"),
    lo("transform.label_s", "s"),
    lo("transform.features_s", "s"),
    lo("transform.split_s", "s"),
    // drai-transform / drai-tensor on climate_single.
    lo("transform.regrid_s", "s"),
    lo("transform.normalize_field_s", "s"),
    hi("transform.regrid_bilinear_MBps", "MB/s"),
    hi("transform.regrid_conservative_MBps", "MB/s"),
    hi("tensor.welford_MBps", "MB/s"),
    // drai-formats on climate_single.
    lo("formats.netcdf_parse_s", "s"),
    hi("formats.netcdf_parse_MBps", "MB/s"),
    hi("formats.npy_write_MBps", "MB/s"),
    hi("formats.zip_write_MBps", "MB/s"),
    // drai-io.
    lo("io.shard_write_s", "s"),
    hi("io.shard_write_raw_MBps", "MB/s"),
    hi("io.shard_write_lz_MBps", "MB/s"),
    hi("io.shard_write_delta4_MBps", "MB/s"),
    hi("io.shard_read_raw_MBps", "MB/s"),
    hi("io.shard_read_lz_MBps", "MB/s"),
    hi("io.shard_read_delta4_MBps", "MB/s"),
    hi("io.codec_encode_raw_MBps", "MB/s"),
    hi("io.codec_encode_lz_MBps", "MB/s"),
    hi("io.codec_encode_delta4_MBps", "MB/s"),
    hi("io.codec_decode_raw_MBps", "MB/s"),
    hi("io.codec_decode_lz_MBps", "MB/s"),
    hi("io.codec_decode_delta4_MBps", "MB/s"),
    hi("io.masked_crc32c_MBps", "MB/s"),
    hi("io.sink_write_MBps", "MB/s"),
    hi("io.sink_read_MBps", "MB/s"),
    lo("io.stored_ratio_lz", "ratio"),
    lo("io.stored_ratio_delta4", "ratio"),
    lo("io.shards_written", "count"),
    // drai-provenance on climate_single.
    hi("provenance.artifact_hash_MBps", "MB/s"),
    lo("provenance.ledger_records", "count"),
    // drai-core.
    lo("core.run_overhead_s", "s"),
    lo("core.stage_busy_s.validate", "s"),
    lo("core.stage_busy_s.regrid", "s"),
    lo("core.stage_busy_s.normalize", "s"),
    lo("core.stage_busy_s.shard", "s"),
    hi("core.stream_overlap", "ratio"),
    hi("core.exec_channel_capacity", "count"),
    hi("core.exec_workers_per_stage", "count"),
    // drai-cache on the ensembles.
    hi("cache.key_compute_MBps", "MB/s"),
    hi("cache.encode_MBps", "MB/s"),
    hi("cache.decode_MBps", "MB/s"),
    hi("cache.put_MBps", "MB/s"),
    hi("cache.get_MBps", "MB/s"),
    lo("cache.entries_added", "count"),
    lo("cache.tracked_bytes", "bytes"),
    hi("cache.hit_share", "ratio"),
    // drai-domains on archetypes_table1.
    lo("domains.fusion_run_s", "s"),
    lo("domains.bio_run_s", "s"),
    lo("domains.materials_run_s", "s"),
    lo("domains.fusion.stage_s.extract", "s"),
    lo("domains.fusion.stage_s.align", "s"),
    lo("domains.fusion.stage_s.normalize", "s"),
    lo("domains.fusion.stage_s.shard", "s"),
    lo("domains.bio.stage_s.audit", "s"),
    lo("domains.bio.stage_s.anonymize", "s"),
    lo("domains.bio.stage_s.encode_fuse", "s"),
    lo("domains.bio.stage_s.secure-shard", "s"),
    lo("domains.materials.stage_s.parse", "s"),
    lo("domains.materials.stage_s.normalize", "s"),
    lo("domains.materials.stage_s.encode", "s"),
    lo("domains.materials.stage_s.shard", "s"),
    // drai-sched on sched_small_jobs.
    lo("sched.submit_us_mean", "us"),
    lo("sched.queue_wait_p50_us", "us"),
    lo("sched.queue_wait_p95_us", "us"),
    lo("sched.job_run_mean_us", "us"),
    hi("sched.worker_busy_share", "ratio"),
    lo("sched.overhead_us_per_job", "us"),
    hi("sched.completed", "count"),
    lo("sched.rejected", "count"),
    lo("sched.shed", "count"),
    // The benchmark itself.
    lo("bench.glue_s", "s"),
    lo("bench.unattributed_share", "ratio"),
    lo("bench.trace_overhead_share", "ratio"),
];

/// Unit and direction of a metric by name, if the tables know it.
fn lookup(name: &str) -> Option<(&'static str, Better)> {
    let e2e = END_TO_END.iter().map(|m| (m.name, m.unit, m.better));
    let layers = PER_LAYER.iter().map(|m| (m.name, m.unit, m.better));
    e2e.chain(layers)
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, better)| (unit, better))
}

/// Unit of a metric, for printed reports (`""` for an unknown name).
pub fn unit_of(name: &str) -> &'static str {
    lookup(name).map_or("", |(unit, _)| unit)
}

/// A metric's better direction in words, for printed reports.
pub fn direction_of(name: &str) -> &'static str {
    match lookup(name) {
        Some((_, Better::Higher)) => "(higher is better)",
        Some((_, Better::Lower)) => "(lower is better)",
        None => "",
    }
}

/// The metric name a pipeline stage name becomes: anything outside
/// `[A-Za-z0-9_.-]` turns into `_` (bio's `encode+fuse` → `encode_fuse`).
pub fn sanitize(stage: &str) -> String {
    stage
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drai_io::json::Json;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (*w, "s")));
        for (name, unit) in all {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert_eq!(sanitize(name), name);
            assert!(unit.len() <= 16 && !unit.is_empty());
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for (workload, m) in WORKLOAD_END_TO_END {
            assert!(WORKLOADS.contains(workload));
            assert!(PER_LAYER
                .iter()
                .any(|p| p.name == m.name && p.unit == m.unit));
        }
    }

    #[test]
    fn sanitize_maps_stage_names() {
        assert_eq!(sanitize("encode+fuse"), "encode_fuse");
        assert_eq!(sanitize("secure-shard"), "secure-shard");
    }

    /// `BENCHMARK.json` is what the driver reads; it must list exactly
    /// what the program reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| json.get(key).and_then(Json::as_arr).expect(key).to_vec();
        let field = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).expect(key).to_string();

        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better.as_str());
            assert_eq!(got.get("bound").and_then(Json::as_f64), Some(want.bound));
        }

        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better.as_str());
        }
        assert_eq!(list("paths"), vec![Json::from("benchmark")]);
    }
}
