//! Pins the shape of the hierarchical trace a full climate run
//! produces: one `domain.climate.run` root whose subtree contains the
//! ingest span (a leaf, its `par_map` workers counting their reads into
//! the run's registry, not the global one), the pipeline run with all
//! four stages, and the shard-writer span under the shard stage — all
//! sharing a single trace id. Also validates the Chrome exporter output
//! for the same spans: parseable JSON, complete events only, and
//! child events contained within their parent's lane interval.
//!
//! This is the acceptance test for the tracing tentpole: if context
//! handoff across `par_map` workers breaks, their spans root new traces,
//! their counters land in the global registry, and the assertions below
//! fail.

use drai::domains::climate::{self, ClimateConfig};
use drai::domains::ARCHETYPES;
use drai::io::json::Json;
use drai::io::sink::MemSink;
use drai::telemetry::trace::{build_forest, to_chrome_json, to_folded, TraceNode};
use drai::telemetry::{Registry, TraceContext};
use drai::tensor::LatLonGrid;
use std::sync::Arc;

fn run_climate(registry: &Registry) -> drai::telemetry::Snapshot {
    let _scope = TraceContext::root(registry).attach();
    let cfg = ClimateConfig {
        src_grid: LatLonGrid::global(12, 24),
        dst_grid: LatLonGrid::global(8, 16),
        timesteps: 6,
        ..ClimateConfig::default()
    };
    climate::run(&cfg, Arc::new(MemSink::new())).expect("climate run");
    registry.snapshot()
}

#[test]
fn climate_trace_is_one_tree_with_workers_parented() {
    let registry = Registry::new();
    let snap = run_climate(&registry);
    let spans = &snap.spans;

    // Every span of the run belongs to one trace.
    let trace = spans[0].trace;
    assert!(
        spans.iter().all(|s| s.trace == trace),
        "spans split across traces: {:?}",
        spans
            .iter()
            .map(|s| (s.name.clone(), s.trace))
            .collect::<Vec<_>>()
    );

    let forest = build_forest(spans);
    assert_eq!(forest.len(), 1, "expected a single root");
    let root = &forest[0];
    assert_eq!(root.record.name, "domain.climate.run");

    // Ingest: a leaf directly under the run, one item per raw file.
    let ingest = root.find("domain.climate.ingest").expect("ingest span");
    assert_eq!(ingest.record.parent, Some(root.record.id));
    assert!(
        ingest.children.is_empty(),
        "ingest opens no span of its own"
    );
    assert_eq!(ingest.record.items, climate::VARIABLES.len() as u64);
    // Its workers read the four raw files under the caller's context:
    // the run's registry counted those bytes (plus the shard writer's
    // read-back, smaller than the raw files), not the global one.
    assert!(snap.counters["io.sink.bytes_read"] >= ingest.record.bytes);

    // Pipeline subtree: the run span owns all four stages.
    let pipe = root.find("pipeline.climate.run").expect("pipeline span");
    for stage in ["validate", "regrid", "normalize", "shard"] {
        let node = pipe
            .find(&format!("pipeline.climate.{stage}"))
            .unwrap_or_else(|| panic!("missing stage {stage}"));
        assert_eq!(node.record.parent, Some(pipe.record.id));
    }

    // The shard writer's span nests under the shard stage.
    let shard_stage = pipe.find("pipeline.climate.shard").unwrap();
    let write_all = shard_stage
        .find("io.shard.write_all")
        .expect("shard writer span under shard stage");
    assert!(write_all.record.bytes > 0);
}

/// Every part of every archetype's `run` has a name: the children of
/// `domain.<d>.run` are the download stand-in, the ingest and the
/// pipeline run, in that order, and the pipeline run holds the four
/// stage spans. Nothing a run does sits outside those three.
#[test]
fn every_archetype_run_has_the_same_three_named_parts() {
    for archetype in &ARCHETYPES {
        let domain = archetype.template.domain;
        let registry = Registry::new();
        TraceContext::root(&registry)
            .scope(|| (archetype.run)(3, 1, Arc::new(MemSink::new())))
            .unwrap_or_else(|e| panic!("{domain} run: {e}"));
        let forest = build_forest(&registry.snapshot().spans);
        assert_eq!(forest.len(), 1, "{domain}: expected a single root");
        let root = &forest[0];
        assert_eq!(root.record.name, format!("domain.{domain}.run"));
        let names = |node: &TraceNode| -> Vec<String> {
            let children = node.children.iter();
            children.map(|c| c.record.name.clone()).collect()
        };
        assert_eq!(
            names(root),
            [
                format!("domain.{domain}.generate_raw"),
                format!("domain.{domain}.ingest"),
                format!("pipeline.{domain}.run"),
            ],
        );
        let steps = archetype.template.steps.iter();
        assert_eq!(
            names(&root.children[2]),
            steps
                .map(|step| format!("pipeline.{domain}.{}", step.name))
                .collect::<Vec<_>>(),
        );
    }
}

#[test]
fn chrome_export_of_the_run_is_valid_and_contained() {
    let registry = Registry::new();
    let spans = run_climate(&registry).spans;

    let chrome = to_chrome_json(&spans);
    let doc = Json::parse(&chrome).expect("chrome trace parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert_eq!(events.len(), spans.len(), "one complete event per span");

    for ev in events {
        assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
        assert!(ev.get("ts").and_then(Json::as_f64).is_some());
        assert!(ev.get("dur").and_then(Json::as_f64).is_some());
        assert!(ev.get("name").and_then(Json::as_str).is_some());
        let args = ev.get("args").expect("args");
        assert!(args.get("span_id").and_then(Json::as_u64).is_some());
    }

    // Events that share a tid must nest by containment: sort by ts and
    // check each event against the previous unclosed interval.
    let mut by_tid: std::collections::BTreeMap<u64, Vec<(f64, f64)>> = Default::default();
    for ev in events {
        let tid = ev.get("tid").and_then(Json::as_u64).unwrap();
        let ts = ev.get("ts").and_then(Json::as_f64).unwrap();
        let dur = ev.get("dur").and_then(Json::as_f64).unwrap();
        by_tid.entry(tid).or_default().push((ts, ts + dur));
    }
    for (tid, mut iv) in by_tid {
        iv.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut stack: Vec<(f64, f64)> = Vec::new();
        for (start, end) in iv {
            while let Some(&(_, top_end)) = stack.last() {
                if start >= top_end {
                    stack.pop();
                } else {
                    assert!(
                        end <= top_end + 1e-6,
                        "tid {tid}: event [{start}, {end}] overlaps enclosing [.., {top_end}]"
                    );
                    break;
                }
            }
            stack.push((start, end));
        }
    }

    // The folded export covers the same tree: the deepest climate path
    // must appear as a semicolon-joined stack.
    let folded = to_folded(&spans);
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("domain.climate.run;domain.climate.ingest ")),
        "missing ingest stack in folded output:\n{folded}"
    );
    assert!(folded
        .lines()
        .any(|l| l.contains("pipeline.climate.run;pipeline.climate.shard;io.shard.write_all ")));
}
