//! Live-monitor acceptance tests (ISSUE 9 gate):
//!
//! * seeded bottleneck naming — one climate batch stage is artificially
//!   slowed (which one is chosen by the CI `FAULT_SEED` sweep) and the
//!   post-run diagnosis must name exactly that stage, with the JSONL
//!   artifact round-tripping byte-identically;
//! * sampler determinism — two registries driven through the same
//!   mutation sequence under [`ManualClock`]s produce bitwise-identical
//!   artifacts;
//! * ring-buffer wraparound — a series over capacity keeps exactly the
//!   last `capacity` points, oldest-first, ticks strictly increasing.

use drai::core::executor::{ExecutorConfig, StreamingBatchExt};
use drai::core::pipeline::StageCounters;
use drai::domains::{climate, Member};
use drai::io::fault::FaultConfig;
use drai::io::sink::{MemSink, StorageSink};
use drai::provenance::Ledger;
use drai::telemetry::clock::ManualClock;
use drai::telemetry::monitor::{monitored, MonitorReport, Sampler};
use drai::telemetry::{Counter, Gauge, Histogram, Name, Registry, TraceContext};
use drai::tensor::LatLonGrid;
use std::sync::Arc;
use std::time::Duration;

/// The four climate batch stages, indexed by `FAULT_SEED % 4` — each CI
/// seed exercises a different injected bottleneck.
const STAGES: [&str; 4] = ["validate", "regrid", "normalize", "shard"];

fn small_cfg() -> climate::ClimateConfig {
    climate::ClimateConfig {
        src_grid: LatLonGrid::global(8, 16),
        dst_grid: LatLonGrid::global(6, 12),
        timesteps: 2,
        shard_bytes: 1 << 20,
        ..climate::ClimateConfig::default()
    }
}

/// The acceptance scenario: a streaming climate batch with one
/// artificially slowed stage, sampled live; the diagnosis must name the
/// slowed stage as the bottleneck and the artifact must round-trip.
#[test]
fn slowed_stage_is_named_by_diagnosis_and_artifact_round_trips() {
    let seed = FaultConfig::seed_from_env(1);
    let slow = STAGES[seed as usize % STAGES.len()];
    let members = 6usize;

    let registry = Registry::new();
    let scope = TraceContext::root(&registry).attach();
    let cfg = small_cfg();
    let sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
    let exec = ExecutorConfig::default();
    // The slow-down is layered on from here: the library declares the
    // stage graph once and carries no delay hook.
    let lag = Duration::from_millis(12);
    let pipeline = climate::build_batch_pipeline(&cfg, sink, Arc::new(Ledger::new()))
        .decorate_stage(slow, |func| {
            let slowed = move |item: Member<climate::ClimateData>, c: &mut StageCounters| {
                std::thread::sleep(lag);
                func(item, c)
            };
            (Arc::new(slowed), None)
        });
    let items: Vec<Member<climate::ClimateData>> = (0..members)
        .map(|m| Member(m, climate::member_input(&cfg, m)))
        .collect();

    let (result, report) = monitored(|| pipeline.run_batch_streaming(items, &exec));
    result.unwrap();
    drop(scope);

    // The injected 12 ms/item lag dominates every other stage on this
    // tiny grid, so the slowed stage must win the busy-integral vote.
    let diag = report.diagnose();
    let bottleneck = diag
        .bottleneck
        .clone()
        .expect("a bottleneck stage is named");
    assert_eq!(
        (bottleneck.pipeline.as_str(), bottleneck.stage.as_str()),
        ("climate-batch", slow),
        "seed {seed}: diagnosis named the wrong stage\n{}",
        diag.render()
    );
    assert!(diag.observed_ticks >= 2, "sampler barely ticked");

    // Executor series were captured, and live progress reached total.
    assert!(report
        .series
        .iter()
        .any(|s| s.name.starts_with("executor.")));
    let done = report
        .series_named("executor.items_completed")
        .expect("live progress counter sampled");
    assert_eq!(done.latest().unwrap().value, members as f64);

    // The JSONL artifact round-trips byte-identically.
    let text = report.to_jsonl();
    let parsed = MonitorReport::parse_jsonl(&text).unwrap();
    assert_eq!(parsed.to_jsonl(), text);
    assert_eq!(parsed.ticks, report.ticks);
    assert_eq!(parsed.series.len(), report.series.len());
}

/// Drive one registry through a fixed mutation sequence under a
/// [`ManualClock`], sampling after each step; returns the artifact.
fn scripted_run() -> String {
    let registry = Registry::new();
    let clock = Arc::new(ManualClock::new());
    let sampler = Sampler::new(&registry, clock.clone(), 16);
    const ITEMS: Name<Counter> = Name::declare("executor.items_completed");
    const DEPTH: Name<Gauge> = Name::declare("executor.queue_depth");
    const LATENCY: Name<Histogram> = Name::declare("stage.batch.latency_ns");
    let items = registry.handle(&ITEMS, []);
    let depth = registry.handle(&DEPTH, []);
    let lat = registry.handle(&LATENCY, []);
    for step in 0..12u64 {
        items.add(step % 3);
        depth.set((step % 5) as i64);
        lat.record(step * 100);
        clock.advance(Duration::from_millis(7));
        sampler.tick();
    }
    sampler.report().to_jsonl()
}

/// Injectable clock ⇒ the artifact is a pure function of the mutation
/// sequence: two independent runs are bitwise identical.
#[test]
fn sampler_is_deterministic_under_manual_clock() {
    let a = scripted_run();
    let b = scripted_run();
    assert_eq!(a, b);
    // And it parses back to the same artifact.
    let parsed = MonitorReport::parse_jsonl(&a).unwrap();
    assert_eq!(parsed.to_jsonl(), a);
}

/// Over-capacity series drop oldest points: exactly `capacity` survive,
/// oldest-first, with strictly increasing ticks ending at the latest.
#[test]
fn ring_buffer_keeps_only_the_last_capacity_points() {
    let registry = Registry::new();
    let clock = Arc::new(ManualClock::new());
    let sampler = Sampler::new(&registry, clock.clone(), 4);
    const FEED: Name<Counter> = Name::declare("monitor.samples.test_feed");
    let c = registry.handle(&FEED, []);
    for _ in 0..10 {
        c.incr();
        clock.advance(Duration::from_millis(1));
        sampler.tick();
    }
    let report = sampler.report();
    let series = report
        .series_named("monitor.samples.test_feed")
        .expect("fed counter has a series");
    assert_eq!(series.len(), 4);
    assert_eq!(series.capacity(), 4);
    let ticks: Vec<u64> = series.iter().map(|p| p.tick).collect();
    assert!(
        ticks.windows(2).all(|w| w[0] < w[1]),
        "ticks not increasing"
    );
    assert_eq!(*ticks.last().unwrap(), 10);
    // After wraparound every surviving counter point still carries the
    // correct cumulative value and per-tick delta.
    for p in series.iter() {
        assert_eq!(p.value, p.tick as f64);
        assert_eq!(p.delta, 1.0);
    }
}
