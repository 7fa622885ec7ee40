//! Trace-tree assembly and exporters.
//!
//! [`build_forest`] reassembles a flat span log into trees using each
//! record's `(trace, id, parent)` triple. Three exporters render the
//! forest:
//!
//! - [`to_chrome_json`] — Chrome trace-event JSON (`traceEvents` with
//!   `"ph": "X"` complete events), loadable in Perfetto or
//!   `chrome://tracing`. Each trace becomes one `pid`; concurrent
//!   subtrees (parallel workers) fan out across `tid` lanes while
//!   sequential chains share their parent's lane, so the viewer shows
//!   nesting by containment and parallelism by lane.
//! - [`to_folded`] — folded flamegraph stacks, one
//!   `root;child;leaf <self_ns>` line per distinct path, aggregated
//!   and suitable for `flamegraph.pl` / speedscope (the "count" is
//!   self-time in nanoseconds).
//! - [`critical_path_summary`] — the dominant chain from the longest
//!   root down, always following the child with the largest total
//!   duration, with self/total time per node.
//!
//! Self-time of a node is its duration minus the summed durations of
//! its direct children (saturating: overlapping parallel children can
//! legitimately sum past the parent's duration).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::export::escape_json;
use crate::SpanRecord;

/// One span with its children, as reassembled by [`build_forest`].
#[derive(Debug, Clone)]
pub struct TraceNode {
    /// The completed span at this node.
    pub record: SpanRecord,
    /// Child spans, sorted by start time.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Total duration of this node (the span's own duration).
    pub(crate) fn total_ns(&self) -> u64 {
        self.record.dur_ns
    }

    /// Duration not accounted for by direct children. Saturates at 0
    /// when parallel children overlap.
    pub(crate) fn self_ns(&self) -> u64 {
        let child_sum: u64 = self.children.iter().map(|c| c.record.dur_ns).sum();
        self.record.dur_ns.saturating_sub(child_sum)
    }

    /// Number of nodes in this subtree, including self.
    pub(crate) fn size(&self) -> usize {
        1 + self.children.iter().map(TraceNode::size).sum::<usize>()
    }

    /// Depth-first search for the first node with the given name.
    pub fn find(&self, name: &str) -> Option<&TraceNode> {
        if self.record.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// All nodes in this subtree with the given name (DFS order).
    pub fn find_all<'a>(&'a self, name: &str, out: &mut Vec<&'a TraceNode>) {
        if self.record.name == name {
            out.push(self);
        }
        for c in &self.children {
            c.find_all(name, out);
        }
    }
}

/// Reassemble span records into trace trees.
///
/// Roots are spans with no parent, or whose parent record is missing
/// (e.g. the snapshot was taken before the parent span dropped).
/// Roots sort by `(trace, start)`; children by `(start, id)`.
pub fn build_forest(spans: &[SpanRecord]) -> Vec<TraceNode> {
    let present: BTreeSet<(u64, u64)> = spans.iter().map(|s| (s.trace.0, s.id.0)).collect();
    let mut children: BTreeMap<(u64, u64), Vec<&SpanRecord>> = BTreeMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for s in spans {
        match s.parent {
            Some(p) if present.contains(&(s.trace.0, p.0)) => {
                children.entry((s.trace.0, p.0)).or_default().push(s);
            }
            _ => roots.push(s),
        }
    }

    fn build(rec: &SpanRecord, children: &BTreeMap<(u64, u64), Vec<&SpanRecord>>) -> TraceNode {
        let mut kids: Vec<&SpanRecord> = children
            .get(&(rec.trace.0, rec.id.0))
            .cloned()
            .unwrap_or_default();
        kids.sort_by_key(|s| (s.start_ns, s.id.0));
        TraceNode {
            record: rec.clone(),
            children: kids.into_iter().map(|k| build(k, children)).collect(),
        }
    }

    roots.sort_by_key(|s| (s.trace.0, s.start_ns, s.id.0));
    roots.into_iter().map(|r| build(r, &children)).collect()
}

fn ns_to_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn chrome_event(rec: &SpanRecord, lane: u64, out: &mut String) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\
         \"args\":{{\"span_id\":{},\"parent_id\":{},\"items\":{},\"bytes\":{}}}}}",
        escape_json(&rec.name),
        rec.trace.0,
        lane,
        ns_to_us(rec.start_ns),
        ns_to_us(rec.dur_ns.max(1)),
        rec.id.0,
        rec.parent.map(|p| p.0).unwrap_or(0),
        rec.items,
        rec.bytes
    );
}

fn place_chrome(
    node: &TraceNode,
    lane: u64,
    next_lane: &mut u64,
    events: &mut Vec<(u64, u64, String)>,
) {
    let mut buf = String::new();
    chrome_event(&node.record, lane, &mut buf);
    events.push((node.record.start_ns, node.record.id.0, buf));
    // A child stays on the parent's lane when no earlier sibling on
    // that lane is still running at its start; overlapping siblings
    // (parallel workers) get globally fresh lanes so distinct subtrees
    // can never collide.
    let mut parent_lane_busy_until = 0u64;
    for child in &node.children {
        let child_lane = if child.record.start_ns >= parent_lane_busy_until {
            parent_lane_busy_until = child.record.start_ns + child.record.dur_ns;
            lane
        } else {
            let fresh = *next_lane;
            *next_lane += 1;
            fresh
        };
        place_chrome(child, child_lane, next_lane, events);
    }
}

/// Render spans as a Chrome trace-event JSON document.
pub fn to_chrome_json(spans: &[SpanRecord]) -> String {
    let forest = build_forest(spans);
    let mut events: Vec<(u64, u64, String)> = Vec::with_capacity(spans.len());
    let mut next_lane = 0u64;
    for root in &forest {
        let lane = next_lane;
        next_lane += 1;
        place_chrome(root, lane, &mut next_lane, &mut events);
    }
    events.sort_by_key(|(start, id, _)| (*start, *id));
    let body: Vec<String> = events.into_iter().map(|(_, _, e)| e).collect();
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        body.join(",")
    )
}

/// Render spans as folded flamegraph stacks: one
/// `name;name;name <self_ns>` line per distinct path, lines sorted,
/// self-times aggregated across traces.
pub fn to_folded(spans: &[SpanRecord]) -> String {
    fn walk(node: &TraceNode, prefix: &str, agg: &mut BTreeMap<String, u64>) {
        let path = if prefix.is_empty() {
            node.record.name.clone()
        } else {
            format!("{prefix};{}", node.record.name)
        };
        *agg.entry(path.clone()).or_insert(0) += node.self_ns();
        for c in &node.children {
            walk(c, &path, agg);
        }
    }
    let mut agg = BTreeMap::new();
    for root in build_forest(spans) {
        walk(&root, "", &mut agg);
    }
    let mut out = String::new();
    for (path, self_ns) in agg {
        let _ = writeln!(out, "{path} {self_ns}");
    }
    out
}

/// One node on a critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPathNode {
    /// Span name.
    pub name: String,
    /// Total duration of the span.
    pub total_ns: u64,
    /// Duration not attributed to direct children.
    pub self_ns: u64,
    /// Items attributed to the span.
    pub items: u64,
    /// Bytes attributed to the span.
    pub bytes: u64,
}

/// The dominant chain from `root` down: at each node, follow the child
/// with the largest total duration (ties break toward the earlier
/// start).
pub fn critical_path(root: &TraceNode) -> Vec<CriticalPathNode> {
    let mut out = Vec::new();
    let mut node = root;
    loop {
        out.push(CriticalPathNode {
            name: node.record.name.clone(),
            total_ns: node.total_ns(),
            self_ns: node.self_ns(),
            items: node.record.items,
            bytes: node.record.bytes,
        });
        match node
            .children
            .iter()
            .max_by(|a, b| {
                a.record
                    .dur_ns
                    .cmp(&b.record.dur_ns)
                    // On equal durations prefer the earlier start, so
                    // max_by (which keeps the *last* max) needs the
                    // earlier start to compare greater.
                    .then(b.record.start_ns.cmp(&a.record.start_ns))
                    .then(b.record.id.0.cmp(&a.record.id.0))
            })
            .filter(|c| c.record.dur_ns > 0)
        {
            Some(child) => node = child,
            None => break,
        }
    }
    out
}

/// Human-readable critical-path summary for the longest root span in
/// the log (one line per node: name, total, self, share of root).
pub fn critical_path_summary(spans: &[SpanRecord]) -> String {
    let forest = build_forest(spans);
    let Some(root) = forest
        .iter()
        .max_by_key(|n| (n.record.dur_ns, std::cmp::Reverse(n.record.start_ns)))
    else {
        return "critical path: (no spans)\n".to_string();
    };
    let path = critical_path(root);
    let root_total = path[0].total_ns.max(1);
    let mut out = format!(
        "critical path (trace {}, {} nodes in forest, root `{}`, total {} ns):\n",
        root.record.trace.0,
        forest.iter().map(TraceNode::size).sum::<usize>(),
        root.record.name,
        root.record.dur_ns
    );
    for (depth, node) in path.iter().enumerate() {
        let pct = 100.0 * node.total_ns as f64 / root_total as f64;
        let _ = writeln!(
            out,
            "  {:indent$}{name}  total {total} ns  self {selfns} ns  ({pct:.1}% of root)",
            "",
            indent = depth * 2,
            name = node.name,
            total = node.total_ns,
            selfns = node.self_ns,
        );
    }
    out
}

/// Aggregate of all spans sharing a name within a forest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameAggregate {
    /// Number of spans with this name.
    pub count: u64,
    /// Summed total duration.
    pub total_ns: u64,
    /// Summed self-time.
    pub self_ns: u64,
    /// Summed items.
    pub items: u64,
    /// Summed bytes.
    pub bytes: u64,
}

/// Per-name aggregates over a forest (used for per-stage breakdowns).
/// Note that nested spans with the same name double-count `total_ns`;
/// `self_ns` always partitions cleanly.
pub fn aggregate_by_name(forest: &[TraceNode]) -> BTreeMap<String, NameAggregate> {
    fn walk(node: &TraceNode, agg: &mut BTreeMap<String, NameAggregate>) {
        let e = agg.entry(node.record.name.clone()).or_default();
        e.count += 1;
        e.total_ns += node.total_ns();
        e.self_ns += node.self_ns();
        e.items += node.record.items;
        e.bytes += node.record.bytes;
        for c in &node.children {
            walk(c, agg);
        }
    }
    let mut agg = BTreeMap::new();
    for root in forest {
        walk(root, &mut agg);
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Name, Registry, Span, SpanId, TraceId};

    fn rec(
        name: &str,
        trace: u64,
        id: u64,
        parent: Option<u64>,
        start_ns: u64,
        dur_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            trace: TraceId(trace),
            id: SpanId(id),
            parent: parent.map(SpanId),
            start_ns,
            dur_ns,
            items: 0,
            bytes: 0,
        }
    }

    fn sample() -> Vec<SpanRecord> {
        vec![
            // run [0, 1000) with two sequential stages and two
            // parallel workers under stage b.
            rec("run.root", 1, 1, None, 0, 1000),
            rec("stage.a", 1, 2, Some(1), 0, 400),
            rec("stage.b", 1, 3, Some(1), 400, 600),
            rec("worker.task", 1, 4, Some(3), 410, 500),
            rec("worker.task", 1, 5, Some(3), 420, 500),
        ]
    }

    #[test]
    fn forest_shape_and_ordering() {
        let forest = build_forest(&sample());
        assert_eq!(forest.len(), 1);
        let root = &forest[0];
        assert_eq!(root.record.name, "run.root");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].record.name, "stage.a");
        assert_eq!(root.children[1].record.name, "stage.b");
        assert_eq!(root.children[1].children.len(), 2);
        assert_eq!(root.size(), 5);
        // self time: 1000 - (400 + 600) = 0 for root.
        assert_eq!(root.self_ns(), 0);
        // stage.b: 600 - (500 + 500) saturates to 0 (parallel kids).
        assert_eq!(root.children[1].self_ns(), 0);
        assert_eq!(root.children[0].self_ns(), 400);
        assert!(root.find("worker.task").is_some());
        let mut all = Vec::new();
        root.find_all("worker.task", &mut all);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn orphans_become_roots() {
        let spans = vec![
            rec("a.live", 1, 2, Some(99), 0, 10),
            rec("b.live", 2, 3, None, 5, 10),
        ];
        let forest = build_forest(&spans);
        assert_eq!(forest.len(), 2);
        assert_eq!(forest[0].record.name, "a.live");
    }

    #[test]
    fn chrome_lanes_share_sequential_fan_out_parallel() {
        let json = to_chrome_json(&sample());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 5);
        // Sequential stages share the root's lane 0.
        assert_eq!(
            json.matches("\"tid\":0,").count(),
            4,
            "root + 2 stages + first worker on lane 0: {json}"
        );
        // The overlapping second worker takes a fresh lane.
        assert_eq!(json.matches("\"tid\":1,").count(), 1, "{json}");
        // Same trace → same pid everywhere.
        assert_eq!(json.matches("\"pid\":1,").count(), 5);
        // µs timestamps keep ns precision as fractions.
        assert!(json.contains("\"ts\":0.400"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn folded_stacks_aggregate_self_time() {
        let folded = to_folded(&sample());
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec![
                "run.root 0",
                "run.root;stage.a 400",
                "run.root;stage.b 0",
                "run.root;stage.b;worker.task 1000",
            ]
        );
    }

    #[test]
    fn critical_path_follows_dominant_child() {
        let forest = build_forest(&sample());
        let path = critical_path(&forest[0]);
        let names: Vec<&str> = path.iter().map(|n| n.name.as_str()).collect();
        // stage.b (600) beats stage.a (400); the two workers tie at
        // 500 so the earlier start wins.
        assert_eq!(names, vec!["run.root", "stage.b", "worker.task"]);
        assert_eq!(path[1].total_ns, 600);
        let summary = critical_path_summary(&sample());
        assert!(summary.contains("root `run.root`"), "{summary}");
        assert!(summary.contains("stage.b"), "{summary}");
        assert!(summary.contains("(100.0% of root)"), "{summary}");
    }

    #[test]
    fn aggregates_sum_per_name() {
        let agg = aggregate_by_name(&build_forest(&sample()));
        assert_eq!(agg["worker.task"].count, 2);
        assert_eq!(agg["worker.task"].total_ns, 1000);
        assert_eq!(agg["stage.a"].self_ns, 400);
    }

    #[test]
    fn live_registry_roundtrip() {
        const SPAN: Name<Span, 2> = Name::declare("{}.{}");
        let reg = Registry::new();
        {
            let run = reg.span(&SPAN, ["run", "root"]);
            let _in_run = run.enter();
            reg.time(&SPAN, ["stage", "a"], || {
                let _leaf = reg.span(&SPAN, ["leaf", "op"]);
            });
        }
        let forest = reg.snapshot().trace_forest();
        assert_eq!(forest.len(), 1);
        let root = &forest[0];
        assert_eq!(root.record.name, "run.root");
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].children[0].record.name, "leaf.op");
        let json = to_chrome_json(&reg.snapshot().spans);
        assert!(json.contains("\"name\":\"leaf.op\""));
    }
}
