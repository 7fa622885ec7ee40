//! `drai-bench-report` — the trace-driven perf-regression gate.
//!
//! Runs the fig1/table1/table2/ablation workloads at a fixed reduced
//! size, each under a fresh telemetry [`Registry`] with a `bench.<name>`
//! root span, and derives per-stage breakdowns from the recorded trace
//! tree. Writes:
//!
//! * `BENCH_<pr>.json` at the repo root (full mode) — the committed
//!   trajectory point [`drai_bench::report`] models;
//! * per-bench Chrome trace JSON (`<out>/trace/<name>.trace.json`,
//!   loadable in Perfetto / `chrome://tracing`), folded stacks
//!   (`<out>/flame/<name>.folded`, pipe into any flamegraph renderer),
//!   and a combined critical-path summary (`<out>/critical_paths.txt`);
//!
//! then compares against the latest prior `BENCH_<n>.json` at the repo
//! root and exits nonzero with a delta table when any stage regresses
//! beyond the threshold.
//!
//! ```text
//! drai-bench-report [--smoke] [--warn-only] [--pr N] [--out DIR]
//!                   [--threshold F] [--compare-only BASE CUR] [--monitor]
//! ```
//!
//! `--smoke` runs tiny sizes and keeps the report out of the repo root
//! (CI plumbing check); smoke and full reports never compare against
//! each other. `--compare-only` skips the benches and just gates two
//! existing report files (used by the self-test). `--monitor` skips the
//! bench suite and instead runs the monitored streaming climate batch,
//! writing the `drai-monitor/v1` artifact `MONITOR_<pr>.jsonl` next to
//! where `BENCH_<pr>.json` would land (repo root, or `--out` under
//! `--smoke`), self-checks the round-trip, and prints the backpressure
//! diagnosis.

use drai_bench::report::{
    compare, delta_table, find_baseline, next_pr, BenchResult, Report, DEFAULT_THRESHOLD,
};
use drai_bench::{mask_bytes, records, science_f32, tabular, timestamps_u64};
use drai_cache::StageCache;
use drai_core::executor::{ExecutorConfig, StreamingBatchExt};
use drai_core::pipeline::{Pipeline, StageCounters};
use drai_core::ProcessingStage as S;
use drai_domains::cached::Member;
use drai_domains::climate::ClimateData;
use drai_domains::{bio, cached, climate, fusion, materials};
use drai_formats::netcdf::NcFile;
use drai_io::codec::{codec_for, CodecId};
use drai_io::shard::{ShardReader, ShardSpec, ShardWriter};
use drai_io::sink::{MemSink, StorageSink};
use drai_provenance::Ledger;
use drai_sched::{
    scheduler_health_spec, JobOutcome, JobOutput, JobSpec, Priority, Rejected, Scheduler,
    SchedulerConfig, TenantConfig,
};
use drai_telemetry::monitor::ManualClock;
use drai_telemetry::trace::{critical_path_summary, to_chrome_json, to_folded};
use drai_telemetry::{Registry, TraceContext};
use drai_tensor::LatLonGrid;
use drai_transform::features::rolling_mean;
use drai_transform::impute::{impute, Strategy};
use drai_transform::label::threshold_labels;
use drai_transform::normalize::{ColumnNormalizer, Method};
use drai_transform::regrid;
use drai_transform::split::{assign, Fractions};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Workload sizes; `smoke` is a plumbing check, `full` a measurement.
struct Sizes {
    rows: usize,
    cols: usize,
    nlat: usize,
    timesteps: usize,
    shots: usize,
    patients: usize,
    tile_len: usize,
    structures: usize,
    shard_records: usize,
    codec_bytes: usize,
    members: usize,
}

impl Sizes {
    fn new(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                rows: 2_000,
                cols: 8,
                nlat: 12,
                timesteps: 2,
                shots: 2,
                patients: 6,
                tile_len: 32,
                structures: 4,
                shard_records: 64,
                codec_bytes: 32 * 1024,
                members: 2,
            }
        } else {
            Sizes {
                rows: 20_000,
                cols: 16,
                nlat: 48,
                timesteps: 8,
                shots: 8,
                patients: 24,
                tile_len: 128,
                structures: 16,
                shard_records: 512,
                codec_bytes: 256 * 1024,
                members: 4,
            }
        }
    }
}

fn bench_fig1(_registry: &Registry, sz: &Sizes) -> Result<(), String> {
    let cols = sz.cols;
    let raw = tabular(sz.rows, cols, 0.05, 42);
    let pipeline: Pipeline<Vec<f64>> = Pipeline::builder("fig1")
        .stage("clean", S::Preprocess, |mut data: Vec<f64>, c| {
            impute(&mut data, Strategy::Median).map_err(|e| format!("{e}"))?;
            c.bytes = (data.len() * 8) as u64;
            Ok(data)
        })
        .stage(
            "normalize",
            S::Transform,
            move |mut data: Vec<f64>, c: &mut StageCounters| {
                let cn = ColumnNormalizer::fit(Method::ZScore, &data, cols)
                    .map_err(|e| format!("{e}"))?;
                cn.apply(&mut data).map_err(|e| format!("{e}"))?;
                c.bytes = (data.len() * 8) as u64;
                Ok(data)
            },
        )
        .stage("label", S::Transform, move |data: Vec<f64>, c| {
            let col0: Vec<f64> = data.iter().step_by(cols).copied().collect();
            c.records = threshold_labels(&col0, 1.5).len() as u64;
            Ok(data)
        })
        .stage("features", S::Structure, move |data: Vec<f64>, c| {
            for ci in 0..cols {
                let col: Vec<f64> = data.iter().skip(ci).step_by(cols).copied().collect();
                rolling_mean(&col, 9).map_err(|e| format!("{e}"))?;
            }
            c.records = cols as u64;
            Ok(data)
        })
        .stage("split", S::Structure, move |data: Vec<f64>, c| {
            let f = Fractions::standard();
            for r in 0..data.len() / cols {
                assign(&format!("row-{r}"), 7, f).map_err(|e| format!("{e}"))?;
            }
            c.records = (data.len() / cols) as u64;
            Ok(data)
        })
        .stage("shard", S::Shard, move |data: Vec<f64>, c| {
            let recs: Vec<Vec<u8>> = data
                .chunks(cols)
                .map(|row| row.iter().flat_map(|v| v.to_le_bytes()).collect())
                .collect();
            let sink = MemSink::new();
            let manifest = ShardWriter::new(ShardSpec::new("fig1", 1 << 20), &sink)
                .write_all(&recs)
                .map_err(|e| format!("{e}"))?;
            c.records = manifest.total_records;
            c.bytes = manifest.payload_bytes;
            Ok(data)
        })
        .build();
    pipeline.run(raw).map_err(|e| format!("{e}"))?;
    Ok(())
}

fn bench_climate(sz: &Sizes) -> Result<(), String> {
    let cfg = climate::ClimateConfig {
        src_grid: LatLonGrid::global(sz.nlat, sz.nlat * 2),
        dst_grid: LatLonGrid::global(sz.nlat * 2 / 3, sz.nlat * 4 / 3),
        timesteps: sz.timesteps,
        shard_bytes: 1 << 20,
        ..climate::ClimateConfig::default()
    };
    climate::run(&cfg, Arc::new(MemSink::new())).map_err(|e| format!("{e}"))?;
    Ok(())
}

/// Shared state for the `cache_climate_{cold,warm}` pair: the same
/// input and config measured once against an empty cache (misses +
/// entry writes) and once against a primed cache (pure replay). The
/// BENCH acceptance gate wants warm ≤ 50% of cold.
struct CacheBenchState {
    cfg: climate::ClimateConfig,
    input: ClimateData,
    warm_cache: Arc<StageCache>,
    warm_sink: Arc<dyn StorageSink>,
}

fn climate_cache_cfg(sz: &Sizes) -> climate::ClimateConfig {
    climate::ClimateConfig {
        src_grid: LatLonGrid::global(sz.nlat, sz.nlat * 2),
        dst_grid: LatLonGrid::global(sz.nlat * 2 / 3, sz.nlat * 4 / 3),
        timesteps: sz.timesteps,
        shard_bytes: 1 << 20,
        ..climate::ClimateConfig::default()
    }
}

fn climate_cache_input(cfg: &climate::ClimateConfig) -> Result<ClimateData, String> {
    let raw = MemSink::new();
    let names = climate::generate_raw(cfg, &raw).map_err(|e| format!("{e}"))?;
    let mut fields = Vec::with_capacity(names.len());
    for (vi, name) in names.iter().enumerate() {
        let bytes = raw.read_file(name).map_err(|e| format!("{e}"))?;
        let nc = NcFile::from_bytes(&bytes).map_err(|e| format!("{e}"))?;
        fields.push(
            nc.var(climate::VARIABLES[vi].0)
                .ok_or_else(|| format!("missing variable in {name}"))?
                .data
                .to_f64_vec(),
        );
    }
    Ok(ClimateData {
        fields,
        grid: cfg.src_grid.clone(),
        timesteps: cfg.timesteps,
        normalizers: vec![],
    })
}

fn prepare_cache_bench(sz: &Sizes) -> Result<CacheBenchState, String> {
    let cfg = climate_cache_cfg(sz);
    let input = climate_cache_input(&cfg)?;
    let warm_cache = Arc::new(StageCache::new(Arc::new(MemSink::new()), 256 << 20));
    let warm_sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
    // Prime untimed: one cold pass fills the cache and the output sink
    // so the warm bench measures pure cache replay.
    let p = cached::build_cached_climate_pipeline(
        &cfg,
        warm_sink.clone(),
        Arc::new(Ledger::new()),
        warm_cache.clone(),
    );
    p.run(input.clone()).map_err(|e| format!("{e}"))?;
    Ok(CacheBenchState {
        cfg,
        input,
        warm_cache,
        warm_sink,
    })
}

fn bench_cache_cold(st: &CacheBenchState) -> Result<(), String> {
    let cache = Arc::new(StageCache::new(Arc::new(MemSink::new()), 256 << 20));
    let p = cached::build_cached_climate_pipeline(
        &st.cfg,
        Arc::new(MemSink::new()),
        Arc::new(Ledger::new()),
        cache,
    );
    p.run(st.input.clone()).map_err(|e| format!("{e}"))?;
    Ok(())
}

fn bench_cache_warm(st: &CacheBenchState) -> Result<(), String> {
    let p = cached::build_cached_climate_pipeline(
        &st.cfg,
        st.warm_sink.clone(),
        Arc::new(Ledger::new()),
        st.warm_cache.clone(),
    );
    p.run(st.input.clone()).map_err(|e| format!("{e}"))?;
    Ok(())
}

/// Shared state for the `stream_climate_batch_{cold,warm}` pair over
/// one member-tagged ensemble on the streaming executor. `cold` runs
/// the uncached batch pipeline; `warm` runs the cached batch pipeline
/// against a primed cache, so every cached stage is a fast-path hit.
struct StreamBenchState {
    cfg: climate::ClimateConfig,
    items: Vec<Member<ClimateData>>,
    exec: ExecutorConfig,
    warm_cache: Arc<StageCache>,
    warm_sink: Arc<dyn StorageSink>,
}

fn prepare_stream_bench(sz: &Sizes) -> Result<StreamBenchState, String> {
    let cfg = climate_cache_cfg(sz);
    let items: Vec<Member<ClimateData>> = (0..sz.members)
        .map(|m| Member(m, climate::member_input(&cfg, m)))
        .collect();
    let exec = ExecutorConfig::for_host();
    let warm_cache = Arc::new(StageCache::new(Arc::new(MemSink::new()), 256 << 20));
    let warm_sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
    // Prime untimed: one cold streaming pass fills the cache and the
    // output sink so the warm bench measures pure fast-path replay.
    let p = cached::build_cached_climate_batch_pipeline(
        &cfg,
        warm_sink.clone(),
        Arc::new(Ledger::new()),
        warm_cache.clone(),
    );
    p.run_batch_streaming(items.clone(), &exec)
        .map_err(|e| format!("{e}"))?;
    Ok(StreamBenchState {
        cfg,
        items,
        exec,
        warm_cache,
        warm_sink,
    })
}

fn bench_stream_cold(st: &StreamBenchState) -> Result<(), String> {
    let p =
        climate::build_batch_pipeline(&st.cfg, Arc::new(MemSink::new()), Arc::new(Ledger::new()));
    p.run_batch_streaming(st.items.clone(), &st.exec)
        .map_err(|e| format!("{e}"))?;
    Ok(())
}

fn bench_stream_warm(st: &StreamBenchState) -> Result<(), String> {
    let p = cached::build_cached_climate_batch_pipeline(
        &st.cfg,
        st.warm_sink.clone(),
        Arc::new(Ledger::new()),
        st.warm_cache.clone(),
    );
    p.run_batch_streaming(st.items.clone(), &st.exec)
        .map_err(|e| format!("{e}"))?;
    Ok(())
}

/// A unit-cost scheduler job doing a small fixed slab of real work, so
/// the `sched.job.<tenant>` spans carry nonzero self time.
fn sched_work_job(tenant: &str, iters: usize) -> JobSpec {
    JobSpec::new(tenant, "bench_work", 1, move |_ctx| {
        let mut acc = 0.0f64;
        for k in 0..iters {
            acc += (k as f64 * 0.001).sin();
        }
        Ok(JobOutput {
            items: 1,
            detail: format!("acc={acc:.3}"),
        })
    })
}

/// Two equal-weight tenants, one job stream each, dispatched by the
/// deficit-round-robin loop on a manual clock: measures pure scheduler
/// overhead plus the per-job span plumbing. The fairness property
/// itself (±1 at every step) is asserted by `tests/sched.rs`; here the
/// bench just keeps the dispatch loop honest under load.
fn bench_sched_fairness(sz: &Sizes) -> Result<(), String> {
    let sched = Scheduler::with_clock(
        SchedulerConfig {
            max_inflight_cost: 1,
            ..SchedulerConfig::default()
        },
        Arc::new(ManualClock::new()),
    );
    sched.register_tenant(TenantConfig::new("alpha"));
    sched.register_tenant(TenantConfig::new("beta"));
    let jobs_per_tenant = sz.members * 8;
    let mut handles = Vec::new();
    for _ in 0..jobs_per_tenant {
        for tenant in ["alpha", "beta"] {
            handles.push(
                sched
                    .submit(sched_work_job(tenant, 20_000))
                    .map_err(|e| format!("{e}"))?,
            );
        }
    }
    let transcript = sched.run_until_idle();
    if transcript.len() != handles.len() {
        return Err(format!(
            "dispatched {} of {} jobs",
            transcript.len(),
            handles.len()
        ));
    }
    for h in handles {
        match h.wait() {
            JobOutcome::Completed(_) => {}
            other => return Err(format!("fairness job did not complete: {other:?}")),
        }
    }
    Ok(())
}

/// Three tenants slam a scheduler configured with tight queues and a
/// low shed watermark: admission control rejects with typed errors,
/// overload sheds lowest-priority-furthest-deadline jobs, and the
/// bench fails if a single submission goes unaccounted for.
fn bench_sched_overload(sz: &Sizes) -> Result<(), String> {
    let sched = Scheduler::with_clock(
        SchedulerConfig {
            max_inflight_cost: 1,
            shed_watermark: 24,
            ..SchedulerConfig::default()
        },
        Arc::new(ManualClock::new()),
    );
    sched.register_tenant(TenantConfig::new("alpha").weight(2).max_queued(16));
    sched.register_tenant(TenantConfig::new("beta").max_queued(16));
    sched.register_tenant(TenantConfig::new("gamma").max_queued(8).cost_quota(64));
    let mut submitted = 0u64;
    let mut rejected = 0u64;
    let mut handles = Vec::new();
    for round in 0..sz.members * 6 {
        for (tenant, priority) in [
            ("alpha", Priority::Interactive),
            ("beta", Priority::Normal),
            ("gamma", Priority::Batch),
        ] {
            submitted += 1;
            let spec = sched_work_job(tenant, 5_000)
                .priority(priority)
                .deadline(std::time::Duration::from_secs(60 + round as u64));
            match sched.submit(spec) {
                Ok(h) => handles.push(h),
                Err(
                    Rejected::Backpressure { .. }
                    | Rejected::QuotaExceeded { .. }
                    | Rejected::DeadlineInfeasible { .. },
                ) => rejected += 1,
            }
        }
    }
    sched.run_until_idle();
    let mut completed = 0u64;
    let mut shed = 0u64;
    for h in handles {
        match h.wait() {
            JobOutcome::Completed(_) => completed += 1,
            JobOutcome::Shed { .. } => shed += 1,
            other => return Err(format!("unexpected overload outcome: {other:?}")),
        }
    }
    if completed + shed + rejected != submitted {
        return Err(format!(
            "silent drop: {completed} completed + {shed} shed + {rejected} rejected != {submitted} submitted"
        ));
    }
    if rejected == 0 && shed == 0 {
        return Err("overload bench applied no pressure (no rejections, no sheds)".into());
    }
    Ok(())
}

fn bench_fusion(sz: &Sizes) -> Result<(), String> {
    let cfg = fusion::FusionConfig {
        shots: sz.shots,
        shot_seconds: 1.0,
        shard_bytes: 1 << 20,
        ..fusion::FusionConfig::default()
    };
    fusion::run(&cfg, Arc::new(MemSink::new())).map_err(|e| format!("{e}"))?;
    Ok(())
}

fn bench_bio(sz: &Sizes) -> Result<(), String> {
    let cfg = bio::BioConfig {
        patients: sz.patients,
        tile_len: sz.tile_len,
        ..bio::BioConfig::default()
    };
    bio::run(&cfg, Arc::new(MemSink::new())).map_err(|e| format!("{e}"))?;
    Ok(())
}

fn bench_materials(sz: &Sizes) -> Result<(), String> {
    let cfg = materials::MaterialsConfig {
        structures: sz.structures,
        ..materials::MaterialsConfig::default()
    };
    materials::run(&cfg, Arc::new(MemSink::new())).map_err(|e| format!("{e}"))?;
    Ok(())
}

/// Table 2's readiness ladder, one span per level transition.
fn bench_table2(registry: &Registry, sz: &Sizes) -> Result<(), String> {
    let cols = sz.cols.min(8);
    let rows = sz.rows / 2;
    let mut data = tabular(rows, cols, 0.05, 7);
    {
        let span = registry.span("bench.l1_to_l2");
        let _in = span.enter();
        let nan = data.iter().filter(|v| v.is_nan()).count();
        span.add_items(nan as u64);
        let src = LatLonGrid::global(sz.nlat / 2, sz.nlat);
        let dst = LatLonGrid::global(sz.nlat / 3, sz.nlat * 2 / 3);
        let field: Vec<f64> = (0..src.ncells()).map(|k| (k as f64 * 0.01).sin()).collect();
        for _ in 0..sz.timesteps {
            regrid::bilinear(&src, &field, &dst).map_err(|e| format!("{e}"))?;
        }
    }
    {
        let span = registry.span("bench.l2_to_l3");
        let _in = span.enter();
        impute(&mut data, Strategy::Median).map_err(|e| format!("{e}"))?;
        let cn = ColumnNormalizer::fit(Method::ZScore, &data, cols).map_err(|e| format!("{e}"))?;
        cn.apply(&mut data).map_err(|e| format!("{e}"))?;
        let col0: Vec<f64> = data.iter().step_by(cols).copied().collect();
        span.add_items(threshold_labels(&col0, 1.5).len() as u64);
    }
    {
        let span = registry.span("bench.l3_to_l4");
        let _in = span.enter();
        for ci in 0..cols {
            let col: Vec<f64> = data.iter().skip(ci).step_by(cols).copied().collect();
            rolling_mean(&col, 9).map_err(|e| format!("{e}"))?;
        }
        span.add_items(cols as u64);
    }
    {
        let span = registry.span("bench.l4_to_l5");
        let _in = span.enter();
        let f = Fractions::standard();
        for r in 0..rows {
            assign(&format!("row-{r}"), 7, f).map_err(|e| format!("{e}"))?;
        }
        let recs: Vec<Vec<u8>> = data
            .chunks(cols)
            .map(|row| row.iter().flat_map(|v| v.to_le_bytes()).collect())
            .collect();
        let sink = MemSink::new();
        let manifest = ShardWriter::new(ShardSpec::new("ladder", 1 << 20), &sink)
            .write_all(&recs)
            .map_err(|e| format!("{e}"))?;
        span.add_items(manifest.total_records);
        span.add_bytes(manifest.payload_bytes);
    }
    Ok(())
}

fn bench_ablation_shard(sz: &Sizes) -> Result<(), String> {
    let recs = records(sz.shard_records, 8 * 1024, 9);
    for shard_kib in [256usize, 4096] {
        let sink = MemSink::new();
        ShardWriter::new(ShardSpec::new("s", shard_kib * 1024), &sink)
            .write_all(&recs)
            .map_err(|e| format!("{e}"))?;
        let reader = ShardReader::open("s", &sink).map_err(|e| format!("{e}"))?;
        let back = reader.read_all().map_err(|e| format!("{e}"))?;
        if back.len() != recs.len() {
            return Err(format!("shard round-trip lost records: {}", back.len()));
        }
    }
    Ok(())
}

fn bench_ablation_codec(registry: &Registry, sz: &Sizes) -> Result<(), String> {
    let n = sz.codec_bytes;
    let payloads: Vec<(&str, Vec<u8>, CodecId)> = vec![
        (
            "float_field",
            science_f32(n / 4, 1),
            CodecId::Delta { width: 4 },
        ),
        (
            "timestamps",
            timestamps_u64(n / 8, 2),
            CodecId::Delta { width: 8 },
        ),
        ("mask", mask_bytes(n, 3), CodecId::Rle),
    ];
    for (name, data, structured) in &payloads {
        let span = registry.span(format!("bench.codec_{name}"));
        let _in = span.enter();
        let mut ids = vec![CodecId::Raw, CodecId::Rle, *structured, CodecId::Lz];
        ids.dedup();
        for id in ids {
            let codec = codec_for(id);
            let encoded = codec.encode(data);
            let back = codec.decode(&encoded).map_err(|e| format!("{e}"))?;
            if back != *data {
                return Err(format!("codec {name} round-trip mismatch"));
            }
            span.add_bytes(data.len() as u64);
        }
        span.add_items(1);
    }
    Ok(())
}

/// Run one bench under a fresh registry, export its artifacts, and
/// fold the trace into a [`BenchResult`].
fn run_bench(
    name: &str,
    sz: &Sizes,
    out: &Path,
    f: impl FnOnce(&Registry, &Sizes) -> Result<(), String>,
) -> Result<BenchResult, String> {
    let registry = Registry::new();
    let scope = TraceContext::root(&registry).attach();
    let started = Instant::now();
    {
        let root = registry.span(format!("bench.{name}"));
        let _in_root = root.enter();
        f(&registry, sz)?;
    }
    let wall = started.elapsed();
    drop(scope);
    let snap = registry.snapshot();

    let trace_dir = out.join("trace");
    let flame_dir = out.join("flame");
    std::fs::create_dir_all(&trace_dir).map_err(|e| format!("{e}"))?;
    std::fs::create_dir_all(&flame_dir).map_err(|e| format!("{e}"))?;
    std::fs::write(
        trace_dir.join(format!("{name}.trace.json")),
        to_chrome_json(&snap.spans),
    )
    .map_err(|e| format!("{e}"))?;
    std::fs::write(
        flame_dir.join(format!("{name}.folded")),
        to_folded(&snap.spans),
    )
    .map_err(|e| format!("{e}"))?;
    let summary = critical_path_summary(&snap.spans);
    let mut paths_file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out.join("critical_paths.txt"))
        .map_err(|e| format!("{e}"))?;
    use std::io::Write as _;
    writeln!(paths_file, "== {name} ==\n{summary}").map_err(|e| format!("{e}"))?;

    let result = BenchResult::from_spans(name, &snap.spans)?;
    eprintln!(
        "  {name:<22} {:>8.1} ms  {:>3} stages  {} spans",
        wall.as_secs_f64() * 1e3,
        result.stages.len(),
        snap.spans.len()
    );
    Ok(result)
}

/// One bench workload, boxed so the suite can mix fn items and closures.
type BenchFn = Box<dyn FnOnce(&Registry, &Sizes) -> Result<(), String>>;

struct Args {
    smoke: bool,
    warn_only: bool,
    monitor: bool,
    /// `None` = derive from the highest committed `BENCH_<n>.json` + 1.
    pr: Option<u64>,
    out: PathBuf,
    threshold: f64,
    compare_only: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        warn_only: false,
        monitor: false,
        pr: None,
        out: PathBuf::from("target/bench-report"),
        threshold: DEFAULT_THRESHOLD,
        compare_only: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--warn-only" => args.warn_only = true,
            "--monitor" => args.monitor = true,
            "--pr" => {
                args.pr = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--pr needs an integer")?,
                )
            }
            "--out" => args.out = PathBuf::from(it.next().ok_or("--out needs a path")?),
            "--threshold" => {
                args.threshold = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threshold needs a float")?
            }
            "--compare-only" => {
                let base = it.next().ok_or("--compare-only needs BASE and CURRENT")?;
                let cur = it.next().ok_or("--compare-only needs BASE and CURRENT")?;
                args.compare_only = Some((PathBuf::from(base), PathBuf::from(cur)));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: drai-bench-report [--smoke] [--warn-only] [--monitor] [--pr N] \
                     [--out DIR] [--threshold F] [--compare-only BASE CURRENT]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// `--monitor` mode: run a two-tenant scheduler (alpha at weight 2,
/// beta at weight 1) driving monitored streaming climate batches
/// through the `drai_domains::service` submit helpers, under the
/// combined executor + scheduler health rules. Writes the
/// `drai-monitor/v1` JSONL artifact next to where the BENCH report
/// would land, self-checks the round-trip and the presence of both
/// `executor.*` and `sched.*` series, and prints the diagnosis
/// (including the saturated tenant, when one is named).
fn run_monitor(args: &Args, pr: u64, sz: &Sizes, repo_root: &Path) -> Result<ExitCode, String> {
    use drai_core::executor::executor_health_spec;
    use drai_domains::service;
    use drai_telemetry::monitor::MonitorReport;

    let registry = Registry::new();
    let scope = TraceContext::root(&registry).attach();
    let cfg = climate_cache_cfg(sz);
    let exec = ExecutorConfig::for_host();
    let scfg = SchedulerConfig {
        exec: exec.clone(),
        ..SchedulerConfig::default()
    };

    // One spec, two subsystems: executor backpressure rules plus the
    // scheduler's overload/stall rules.
    let mut spec = executor_health_spec(&exec);
    for r in scheduler_health_spec(&scfg).rules() {
        spec = spec.rule(&r.name, &r.metric, r.cond);
    }

    let sched = Arc::new(Scheduler::new(scfg));
    sched.register_tenant(TenantConfig::new("alpha").weight(2));
    sched.register_tenant(TenantConfig::new("beta"));

    // Two climate-batch jobs per tenant; progress tracks ensemble
    // members flowing through the streaming executor across all jobs.
    let jobs_per_tenant = 2usize;
    let total_items = (2 * jobs_per_tenant * sz.members) as u64;
    let progress = (!args.smoke).then_some("sched-service");
    let (outcome, report) = drai_domains::monitored(total_items, spec, progress, || {
        let started = Instant::now();
        let mut handles = Vec::new();
        for _ in 0..jobs_per_tenant {
            for tenant in ["alpha", "beta"] {
                let sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
                let member_cfg = cfg.clone();
                handles.push(
                    service::submit_batch(
                        &sched,
                        tenant,
                        "climate_batch",
                        sz.members as u64,
                        climate::build_batch_pipeline(&cfg, sink, Arc::new(Ledger::new())),
                        sz.members,
                        move |m| Ok(climate::member_input(&member_cfg, m)),
                    )
                    .map_err(|e| format!("{e}"))?,
                );
            }
        }
        let pool = sched.start_workers(2);
        let jobs = handles.len();
        for h in handles {
            match h.wait() {
                JobOutcome::Completed(_) => {}
                other => return Err(format!("monitored job did not complete: {other:?}")),
            }
        }
        sched.shutdown();
        pool.join();
        Ok((jobs, started.elapsed()))
    });
    let (jobs, wall) = outcome?;
    drop(scope);
    eprintln!(
        "  monitored scheduler run: {jobs} jobs x {} members, 2 tenants, {:.1} ms, {} samples",
        sz.members,
        wall.as_secs_f64() * 1e3,
        report.ticks
    );

    let text = report.to_jsonl();
    // Self-check before writing: the artifact must parse back
    // byte-identically and carry both executor and scheduler series.
    let parsed = MonitorReport::parse_jsonl(&text)?;
    if parsed.to_jsonl() != text {
        return Err("monitor artifact did not round-trip byte-identically".into());
    }
    if !parsed
        .series
        .iter()
        .any(|s| s.name.starts_with("executor."))
    {
        return Err("monitor artifact has no executor.* series".into());
    }
    if !parsed.series.iter().any(|s| s.name.starts_with("sched.")) {
        return Err("monitor artifact has no sched.* series".into());
    }

    let path = if args.smoke {
        args.out.join(format!("MONITOR_{pr}.jsonl"))
    } else {
        repo_root.join(format!("MONITOR_{pr}.jsonl"))
    };
    std::fs::write(&path, &text).map_err(|e| format!("{e}"))?;
    eprintln!("wrote {}", path.display());
    print!("{}", parsed.diagnose().render());
    Ok(ExitCode::SUCCESS)
}

/// Gate a comparison: print the table, return the exit code.
fn gate(baseline: &Report, current: &Report, threshold: f64, warn_only: bool) -> ExitCode {
    let cmp = compare(baseline, current);
    print!("{}", delta_table(&cmp, threshold));
    let regressions = cmp.regressions(threshold);
    if regressions.is_empty() {
        println!("no regressions beyond {:.0}%", threshold * 100.0);
        ExitCode::SUCCESS
    } else {
        println!(
            "{} regression(s) beyond {:.0}% vs PR {} baseline",
            regressions.len(),
            threshold * 100.0,
            baseline.pr
        );
        if warn_only {
            println!("--warn-only: not failing");
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;

    if let Some((base_path, cur_path)) = &args.compare_only {
        let baseline =
            Report::parse(&std::fs::read_to_string(base_path).map_err(|e| format!("{e}"))?)?;
        let current =
            Report::parse(&std::fs::read_to_string(cur_path).map_err(|e| format!("{e}"))?)?;
        return Ok(gate(&baseline, &current, args.threshold, args.warn_only));
    }

    let sz = Sizes::new(args.smoke);
    // Repo root = two levels above this crate's manifest.
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .ok_or("cannot locate repo root")?
        .to_path_buf();
    // No --pr: land one past the highest committed BENCH_<n>.json.
    let pr = args.pr.unwrap_or_else(|| next_pr(&repo_root));

    if args.monitor {
        std::fs::create_dir_all(&args.out).map_err(|e| format!("{e}"))?;
        eprintln!("drai-bench-report: mode=monitor pr={pr}");
        return run_monitor(&args, pr, &sz, &repo_root);
    }

    let mode = if args.smoke { "smoke" } else { "full" };
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{e}"))?;
    let _ = std::fs::remove_file(args.out.join("critical_paths.txt"));
    eprintln!("drai-bench-report: mode={mode} pr={pr}");

    let cache_state = Arc::new(prepare_cache_bench(&sz)?);
    let cold_state = cache_state.clone();
    let warm_state = cache_state;
    let stream_state = Arc::new(prepare_stream_bench(&sz)?);
    let stream_cold = stream_state.clone();
    let stream_warm = stream_state;

    let benches: Vec<(&str, BenchFn)> = vec![
        ("fig1_pipeline", Box::new(bench_fig1)),
        (
            "table1_climate",
            Box::new(|_: &Registry, s: &Sizes| bench_climate(s)),
        ),
        (
            "cache_climate_cold",
            Box::new(move |_: &Registry, _: &Sizes| bench_cache_cold(&cold_state)),
        ),
        (
            "cache_climate_warm",
            Box::new(move |_: &Registry, _: &Sizes| bench_cache_warm(&warm_state)),
        ),
        (
            "stream_climate_batch_cold",
            Box::new(move |_: &Registry, _: &Sizes| bench_stream_cold(&stream_cold)),
        ),
        (
            "stream_climate_batch_warm",
            Box::new(move |_: &Registry, _: &Sizes| bench_stream_warm(&stream_warm)),
        ),
        (
            "sched_fairness",
            Box::new(|_: &Registry, s: &Sizes| bench_sched_fairness(s)),
        ),
        (
            "sched_overload",
            Box::new(|_: &Registry, s: &Sizes| bench_sched_overload(s)),
        ),
        (
            "table1_fusion",
            Box::new(|_: &Registry, s: &Sizes| bench_fusion(s)),
        ),
        (
            "table1_bio",
            Box::new(|_: &Registry, s: &Sizes| bench_bio(s)),
        ),
        (
            "table1_materials",
            Box::new(|_: &Registry, s: &Sizes| bench_materials(s)),
        ),
        ("table2_maturity", Box::new(bench_table2)),
        (
            "ablation_shard",
            Box::new(|_: &Registry, s: &Sizes| bench_ablation_shard(s)),
        ),
        ("ablation_codec", Box::new(bench_ablation_codec)),
    ];
    let mut results = Vec::new();
    for (name, f) in benches {
        results.push(run_bench(name, &sz, &args.out, f)?);
    }
    let report = Report {
        pr,
        mode: mode.to_string(),
        benches: results,
    };

    let json = report.to_json();
    let report_path = if args.smoke {
        args.out.join(format!("BENCH_{pr}.json"))
    } else {
        repo_root.join(format!("BENCH_{pr}.json"))
    };
    std::fs::write(&report_path, &json).map_err(|e| format!("{e}"))?;
    eprintln!("wrote {}", report_path.display());

    match find_baseline(&repo_root, pr) {
        None => {
            println!("no prior BENCH_<n>.json baseline (n < {pr}); nothing to compare");
            Ok(ExitCode::SUCCESS)
        }
        Some((n, path)) => {
            let baseline =
                Report::parse(&std::fs::read_to_string(&path).map_err(|e| format!("{e}"))?)?;
            println!("comparing against BENCH_{n}.json:");
            Ok(gate(&baseline, &report, args.threshold, args.warn_only))
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("drai-bench-report: error: {e}");
            ExitCode::from(2)
        }
    }
}
