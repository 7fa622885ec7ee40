//! End-to-end telemetry coverage: run the climate archetype against an
//! in-memory sink and assert that the global registry captured one span
//! per pipeline stage, sane counters, and at least one latency
//! histogram — then round-trip the snapshot through the JSON exporter.
//!
//! This lives in a dedicated integration-test binary so the global
//! registry is not shared with unrelated tests; everything below runs
//! inside a single `#[test]` to keep the snapshot deterministic.

use drai::domains::climate::{self, ClimateConfig};
use drai::io::sink::MemSink;
use drai::telemetry::Registry;
use drai::tensor::LatLonGrid;
use std::sync::Arc;

const STAGES: [&str; 4] = ["validate", "regrid", "normalize", "shard"];

#[test]
fn climate_run_populates_telemetry() {
    let cfg = ClimateConfig {
        src_grid: LatLonGrid::global(12, 24),
        dst_grid: LatLonGrid::global(8, 16),
        timesteps: 10,
        ..ClimateConfig::default()
    };
    let run = climate::run(&cfg, Arc::new(MemSink::new())).expect("climate run");
    let snap = Registry::global().snapshot();

    // One span per stage, in pipeline order, each with a measured
    // duration and the stage's record count attached.
    let mut prev_start = 0u64;
    for stage in STAGES {
        let name = format!("pipeline.climate.{stage}");
        let spans = snap.spans_named(&name);
        assert_eq!(spans.len(), 1, "expected exactly one span for {name}");
        let span = spans[0];
        assert!(span.dur_ns > 0, "{name} has zero duration");
        assert_eq!(
            span.items, cfg.timesteps as u64,
            "{name} items should equal timesteps"
        );
        assert!(span.bytes > 0, "{name} should report bytes processed");
        assert!(
            span.start_ns >= prev_start,
            "{name} started before the previous stage"
        );
        prev_start = span.start_ns;

        // Item counters accumulate monotonically with the spans: after a
        // single run each stage counter equals the stage's span items.
        let records = snap.counters[&format!("{name}.records")];
        assert_eq!(records, span.items, "{name}.records counter mismatch");
        assert!(snap.counters[&format!("{name}.bytes")] > 0);

        // Every span drop also feeds a `<name>.ns` latency histogram.
        let hist = &snap.histograms[&format!("{name}.ns")];
        assert_eq!(hist.count, 1);
        assert!(hist.min > 0 && hist.max >= hist.min);
    }

    // The domain wrapper span covers the whole run and carries the
    // manifest's record count.
    let domain = snap.spans_named("domain.climate.run");
    assert_eq!(domain.len(), 1);
    assert_eq!(domain[0].items, run.manifest.records);
    assert!(domain[0].dur_ns > 0);

    // The I/O layer underneath was exercised too: shards were encoded
    // and written through the instrumented sink.
    assert!(snap.counters["io.shard.records"] > 0);
    assert!(snap.counters["io.shard.bytes_in"] > 0);
    assert!(snap.counters["io.sink.bytes_written"] > 0);
    assert!(snap.counters["io.sink.files_written"] > 0);

    // Exported JSON carries the same data and is structurally sound.
    let json = snap.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    for stage in STAGES {
        assert!(
            json.contains(&format!("\"pipeline.climate.{stage}\"")),
            "JSON export missing stage {stage}"
        );
        assert!(json.contains(&format!("\"pipeline.climate.{stage}.ns\"")));
    }
    assert!(json.contains("\"domain.climate.run\""));
    let balance = json.chars().fold(0i64, |acc, c| match c {
        '{' => acc + 1,
        '}' => acc - 1,
        _ => acc,
    });
    assert_eq!(balance, 0, "unbalanced braces in exported JSON");

    // JSONL: one well-formed object per line, spans included.
    let jsonl = snap.to_jsonl();
    assert!(jsonl.lines().count() >= snap.spans.len());
    for line in jsonl.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad line: {line}"
        );
    }
}
