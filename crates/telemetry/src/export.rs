//! Render a [`Snapshot`] as JSON or JSONL.
//!
//! The JSON document has four top-level keys:
//!
//! ```json
//! {
//!   "counters":   {"io.shard.bytes_in": 123},
//!   "gauges":     {"executor.queue_depth": {"value": 0, "min": 0,
//!                  "max": 3}},
//!   "histograms": {"io.sink.fsync_ns": {"count": 2, "sum": 900, "min": 400,
//!                  "max": 500, "mean": 450.0, "p50": 448, "p90": 500,
//!                  "p99": 500, "buckets": [[8, 2]]}},
//!   "spans":      [{"name": "pipeline.climate.regrid", "trace": 1,
//!                  "id": 4, "parent": 2, "start_ns": 10,
//!                  "dur_ns": 4200, "items": 240, "bytes": 0}]
//! }
//! ```
//!
//! JSONL emits the same data one object per line with a `"kind"`
//! discriminator, suitable for appending across runs.

use std::fmt::Write as _;

use crate::{HistogramSummary, Snapshot, SpanRecord};

/// Escape a string for inclusion in a JSON document.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        // Keep integers terse but always valid JSON numbers.
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{:.1}", v)
        } else {
            format!("{v}")
        }
    } else {
        "null".to_string()
    }
}

fn histogram_json(h: &HistogramSummary) -> String {
    let buckets: Vec<String> = h
        .buckets
        .iter()
        .map(|(i, n)| format!("[{i},{n}]"))
        .collect();
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\
         \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{}]}}",
        h.count,
        h.sum,
        h.min,
        h.max,
        fmt_f64(h.mean),
        h.p50,
        h.p90,
        h.p99,
        buckets.join(",")
    )
}

fn span_json(s: &SpanRecord) -> String {
    let parent = match s.parent {
        Some(p) => p.0.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"name\":\"{}\",\"trace\":{},\"id\":{},\"parent\":{},\
         \"start_ns\":{},\"dur_ns\":{},\"items\":{},\"bytes\":{}}}",
        escape_json(&s.name),
        s.trace.0,
        s.id.0,
        parent,
        s.start_ns,
        s.dur_ns,
        s.items,
        s.bytes
    )
}

/// Render the whole snapshot as one JSON object.
pub(crate) fn to_json(snap: &Snapshot) -> String {
    let counters: Vec<String> = snap
        .counters
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", escape_json(k), v))
        .collect();
    let gauges: Vec<String> = snap
        .gauges
        .iter()
        .map(|(k, g)| {
            format!(
                "\"{}\":{{\"value\":{},\"min\":{},\"max\":{}}}",
                escape_json(k),
                g.value,
                g.min,
                g.max
            )
        })
        .collect();
    let histograms: Vec<String> = snap
        .histograms
        .iter()
        .map(|(k, h)| format!("\"{}\":{}", escape_json(k), histogram_json(h)))
        .collect();
    let spans: Vec<String> = snap.spans.iter().map(span_json).collect();
    format!(
        "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}},\"spans\":[{}]}}",
        counters.join(","),
        gauges.join(","),
        histograms.join(","),
        spans.join(",")
    )
}

/// Render the snapshot as JSONL: one object per metric/span, each
/// tagged with a `"kind"` field.
pub(crate) fn to_jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (k, v) in &snap.counters {
        let _ = writeln!(
            out,
            "{{\"kind\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
            escape_json(k),
            v
        );
    }
    for (k, g) in &snap.gauges {
        let _ = writeln!(
            out,
            "{{\"kind\":\"gauge\",\"name\":\"{}\",\"value\":{},\"min\":{},\"max\":{}}}",
            escape_json(k),
            g.value,
            g.min,
            g.max
        );
    }
    for (k, h) in &snap.histograms {
        let _ = writeln!(
            out,
            "{{\"kind\":\"histogram\",\"name\":\"{}\",\"summary\":{}}}",
            escape_json(k),
            histogram_json(h)
        );
    }
    for s in &snap.spans {
        let _ = writeln!(out, "{{\"kind\":\"span\",\"span\":{}}}", span_json(s));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, Gauge, Histogram, Name, Registry, Span};

    fn sample_snapshot() -> Snapshot {
        const COUNT: Name<Counter> = Name::declare("a.count");
        const DEPTH: Name<Gauge> = Name::declare("b.depth");
        const LATENCY: Name<Histogram> = Name::declare("c.ns");
        const STAGE: Name<Span> = Name::declare("stage.one");
        let reg = Registry::new();
        reg.handle(&COUNT, []).add(7);
        reg.handle(&DEPTH, []).set(4);
        reg.handle(&DEPTH, []).set(2);
        reg.handle(&LATENCY, []).record(100);
        reg.handle(&LATENCY, []).record(300);
        {
            let s = reg.span(&STAGE, []);
            s.add_items(5);
        }
        reg.snapshot()
    }

    #[test]
    fn json_has_all_sections_and_values() {
        let json = sample_snapshot().to_json();
        assert!(json.contains("\"a.count\":7"));
        assert!(json.contains("\"b.depth\":{\"value\":2,\"min\":0,\"max\":4}"));
        assert!(json.contains("\"c.ns\":{\"count\":2,\"sum\":400"));
        assert!(json.contains("\"name\":\"stage.one\""));
        assert!(json.contains("\"items\":5"));
        // Trace placement fields are present; a lone span is a root.
        assert!(json.contains("\"parent\":null"), "{json}");
        assert!(json.contains("\"trace\":"), "{json}");
        // Balanced braces and quotes — cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn jsonl_one_object_per_line() {
        let snap = sample_snapshot();
        let jsonl = snap.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        // 1 counter + 1 gauge + 2 histograms (c.ns + stage.one.ns) + 1 span.
        assert_eq!(lines.len(), 5);
        for line in lines {
            assert!(line.starts_with("{\"kind\":\""), "{line}");
            assert!(line.ends_with('}'), "{line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
