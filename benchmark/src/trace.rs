//! In-memory span recorder owned by the benchmark.
//!
//! Spans are recorded around the benchmark's own calls into a layer, or
//! synthesized from the `StageMetrics` the engine returns; nothing here
//! reaches inside the program. They stay in memory until the workload
//! ends and are then written as Chrome trace-event JSON.

use crate::clock::{self, Stamp};
use drai_io::json::Json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name; a name that is also a per-layer metric in seconds is
    /// summed into that metric.
    pub name: String,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one iteration.
    pub trace: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Inner {
    spans: Vec<Span>,
    /// Open spans, innermost last. Scoped spans are opened from one
    /// thread at a time (the load-generating thread, or the single
    /// thread `Pipeline::run` calls stage closures on).
    stack: Vec<usize>,
}

/// Span recorder. Disabled (the default) it records nothing and a
/// [`Recorder::scope`] costs one atomic load.
pub struct Recorder {
    enabled: AtomicBool,
    trace: AtomicU64,
    epoch: Stamp,
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A disabled recorder.
    pub fn new() -> Recorder {
        Recorder {
            enabled: AtomicBool::new(false),
            trace: AtomicU64::new(0),
            epoch: clock::now(),
            inner: Mutex::new(Inner {
                spans: Vec::new(),
                stack: Vec::new(),
            }),
        }
    }

    /// Turn recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Start a new trace id (one per iteration) and return it.
    pub fn next_trace(&self) -> u64 {
        self.trace.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Ns since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed_ns()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a thread panicked while recording a span")
    }

    fn push(&self, name: &str, start_ns: u64, end_ns: u64, open: bool) -> usize {
        let mut inner = self.lock();
        let parent = inner.stack.last().copied();
        let id = inner.spans.len();
        inner.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            trace: self.trace.load(Ordering::SeqCst),
        });
        if open {
            inner.stack.push(id);
        }
        id
    }

    /// Record `f` as a span under the innermost open span.
    pub fn scope<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let start = self.now_ns();
        let id = self.push(name, start, start, true);
        let out = f();
        let end = self.now_ns();
        let mut inner = self.lock();
        inner.spans[id].end_ns = end;
        inner.stack.retain(|&open| open != id);
        out
    }

    /// Record a span whose times were measured elsewhere (a job closure
    /// on a worker thread, a `StageMetrics` duration) under the
    /// innermost open span.
    pub fn add(&self, name: &str, start_ns: u64, end_ns: u64) {
        if self.enabled() {
            self.push(name, start_ns, end_ns, false);
        }
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Ns of span `idx` that its direct children cover.
pub fn children_cover_ns(spans: &[Span], idx: usize) -> u64 {
    let parent = &spans[idx];
    let kids = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    covered_ns(kids, parent.start_ns, parent.end_ns)
}

/// Self time of span `idx`: its duration minus the part of that
/// interval its child spans cover (overlapping children count once).
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    spans[idx].dur_ns() - children_cover_ns(spans, idx)
}

/// Chrome trace-event JSON (load in Perfetto or `chrome://tracing`):
/// one complete event per span, one track (`tid`) per iteration, with
/// the parent index and self time in `args`.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let us = |ns: u64| Json::Num(ns as f64 / 1e3);
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj([
                ("name", Json::from(s.name.as_str())),
                ("cat", Json::from("drai-benchmark")),
                ("ph", Json::from("X")),
                ("ts", us(s.start_ns)),
                ("dur", us(s.dur_ns())),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(s.trace)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::from(i)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("trace", Json::from(s.trace)),
                        ("self_us", us(self_time_ns(spans, i))),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("displayTimeUnit", Json::from("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
    .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            trace: 1,
        }
    }

    #[test]
    fn nested_self_time() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            span("b", 70, 90, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 50 - 20);
        assert_eq!(self_time_ns(&spans, 1), 50 - 10);
        assert_eq!(self_time_ns(&spans, 2), 10);
    }

    #[test]
    fn overlapping_siblings_count_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 50, 55, Some(0)),
        ];
        assert_eq!(children_cover_ns(&spans, 0), 70);
        assert_eq!(self_time_ns(&spans, 0), 30);
    }

    #[test]
    fn zero_length_and_out_of_range_children() {
        let spans = vec![
            span("root", 10, 10, None),
            span("kid", 10, 10, Some(0)),
            span("root2", 100, 200, None),
            span("early", 50, 150, Some(2)),
            span("late", 180, 400, Some(2)),
            span("empty", 160, 160, Some(2)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 0);
        assert_eq!(self_time_ns(&spans, 1), 0);
        // Children are clipped to the parent's interval.
        assert_eq!(children_cover_ns(&spans, 2), 50 + 20);
        assert_eq!(self_time_ns(&spans, 2), 30);
    }

    #[test]
    fn recorder_parents_by_scope_and_is_silent_when_disabled() {
        let rec = Recorder::new();
        rec.scope("ignored", || ());
        rec.add("ignored", 0, 1);
        assert!(rec.spans().is_empty());

        rec.set_enabled(true);
        let trace = rec.next_trace();
        rec.scope("outer", || {
            rec.scope("inner", || ());
            rec.add("measured-elsewhere", 5, 9);
        });
        rec.scope("sibling", || ());
        let spans = rec.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner", "measured-elsewhere", "sibling"]);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert!(spans.iter().all(|s| s.trace == trace));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn chrome_json_parses() {
        let spans = vec![
            span("root \"quoted\"", 0, 2_000, None),
            span("kid", 500, 1_500, Some(0)),
        ];
        let text = to_chrome_json(&spans);
        let json = Json::parse(&text).expect("valid JSON");
        let events = json.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(|p| p.as_str()), Some("X"));
        assert_eq!(events[1].get("dur").and_then(|d| d.as_f64()), Some(1.0));
        let args = events[0].get("args").unwrap();
        assert_eq!(args.get("self_us").and_then(|d| d.as_f64()), Some(1.0));
    }
}
