//! The run protocol, identical for every workload and fixed in code:
//!
//! set-up → 2 untimed warm-up iterations → timed iterations with
//! tracing off (for `seconds`, at least `min_iters`) → output checks →
//! traced iterations → probes. The set-up is timed again after the
//! timed iterations and at the end; `setup_s` is the first quartile of
//! all, like every value a run takes from repeated timings.
//!
//! Load is generated from the calling thread only. The program under
//! test runs on its own defaults; everything it stores goes to
//! `MemSink`. Inputs are cloned and large state is dropped outside the
//! timed region, which each workload measures itself and returns as
//! [`Iteration::wall_s`].

use crate::clock;
use crate::host;
use crate::metrics::{PER_LAYER, WORKLOAD_END_TO_END};
use crate::stats::{better_quartile, median, summarize, Summary};
use crate::trace::{self, Recorder, Span};
use drai_telemetry::Registry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Untimed iterations before the timed ones; the first fixes the
/// digest every later iteration must reproduce.
pub const WARMUPS: usize = 2;

/// What one iteration hands back.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Seconds inside the timed region.
    pub wall_s: f64,
    /// Digest of the decoded outputs.
    pub digest: [u8; 16],
    /// Operations attempted (iterations, records read back, jobs).
    pub attempted: u64,
    /// Operations that failed the workload's own checks.
    pub failed: u64,
    /// Named values of this iteration (rates, counts, shares).
    pub values: Vec<(String, f64)>,
}

/// One benchmark workload, set up and ready to iterate.
pub trait Workload {
    /// Stated input bytes one iteration processes.
    fn bytes_per_iteration(&self) -> u64;

    /// Size constants, for the record.
    fn constants(&self) -> Vec<(&'static str, f64)>;

    /// Run one iteration. Spans go to `rec`, which records only during
    /// traced iterations.
    fn iterate(&mut self, rec: &Arc<Recorder>) -> Result<Iteration, String>;

    /// Output checks against a reference computation, beyond the
    /// digest equality the harness checks itself. Returns one line per
    /// failed check.
    fn verify(&mut self) -> Result<Vec<String>, String> {
        Ok(Vec::new())
    }

    /// Direct calls into single layers on the workload's real data,
    /// outside any iteration.
    fn probes(&mut self) -> Result<Vec<(String, f64)>, String> {
        Ok(Vec::new())
    }
}

/// How long and how often to measure.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Times the set-up is repeated at each of [`SETUP_MOMENTS`] points
    /// of the run; `setup_s` is the first quartile over all of them.
    pub setup_reps: usize,
    /// Seconds the timed iterations run for.
    pub timed_s: f64,
    /// Timed iterations at least.
    pub min_iters: usize,
    /// Traced iterations and probes: `None` skips them; `Some(s)` runs
    /// traced iterations for `s` seconds, at least [`TRACED_ITERS`].
    pub traced_s: Option<f64>,
}

/// Traced iterations at least.
pub const TRACED_ITERS: usize = 3;

/// Points of a run at which the set-up is timed: before the warm-up,
/// after the timed iterations and at the end. A disturbance on a shared
/// host lasts seconds; set-ups timed back to back would all sit inside
/// it or all outside.
pub const SETUP_MOMENTS: usize = 3;

/// Everything one workload run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Set-up seconds over the repeats.
    pub setup: Summary,
    /// Timed iteration walls, tracing off.
    pub wall: Summary,
    /// End-to-end metric values, by name.
    pub end_to_end: BTreeMap<String, f64>,
    /// Per-layer metric values, by name (empty without tracing).
    pub per_layer: BTreeMap<String, f64>,
    /// Operations attempted over all checked iterations.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
    /// Size constants of the workload.
    pub constants: Vec<(&'static str, f64)>,
    /// Spans of the traced iterations.
    pub spans: Vec<Span>,
}

impl Report {
    /// Failed operations ÷ attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

/// Checks an iteration against the reference digest and keeps count.
struct Tally {
    reference: Option<[u8; 16]>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, phase: &str, index: usize, it: &Iteration) {
        self.attempted += it.attempted;
        let reference = *self.reference.get_or_insert(it.digest);
        if it.digest != reference {
            // The outputs differ: nothing this iteration did counts.
            self.failed += it.attempted.max(1);
            self.failures.push(format!(
                "{phase} iteration {index}: output digest {} differs from the first warm-up's {}",
                crate::gen::hex(&it.digest),
                crate::gen::hex(&reference),
            ));
        } else {
            self.failed += it.failed;
            if it.failed > 0 {
                self.failures.push(format!(
                    "{phase} iteration {index}: {} of {} operations failed",
                    it.failed, it.attempted
                ));
            }
        }
    }
}

/// One iteration, then the program's global telemetry registry is
/// emptied, outside the timed region: it keeps every span it ever
/// recorded and would grow with the iteration count.
fn step(workload: &mut dyn Workload, rec: &Arc<Recorder>) -> Result<Iteration, String> {
    let it = workload.iterate(rec)?;
    Registry::global().reset();
    Ok(it)
}

/// Sum span durations of trace `trace` under every name that is a
/// per-layer metric in seconds.
fn span_seconds(spans: &[Span], trace: u64) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.trace == trace) {
        if PER_LAYER.iter().any(|m| m.unit == "s" && m.name == s.name) {
            *out.entry(s.name.clone()).or_insert(0.0) += s.dur_ns() as f64 / 1e9;
        }
    }
    out
}

/// `1 − (time the root's children cover) ÷ iteration wall`.
fn unattributed_share(spans: &[Span], trace: u64, wall_s: f64) -> Option<f64> {
    let root = spans
        .iter()
        .position(|s| s.trace == trace && s.parent.is_none())?;
    let covered = trace::children_cover_ns(spans, root) as f64 / 1e9;
    Some((1.0 - covered / wall_s.max(1e-12)).max(0.0))
}

/// The traced phase: traced iterations (per-layer values are medians
/// over them), then the workload's probes, then the host baselines.
fn trace_layers(
    mut workload: Box<dyn Workload>,
    rec: &Arc<Recorder>,
    tally: &mut Tally,
    traced_s: f64,
    untraced_wall_s: f64,
) -> Result<(BTreeMap<String, f64>, Vec<Span>), String> {
    rec.set_enabled(true);
    let mut traced_walls = Vec::new();
    let mut layer_values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let started = clock::now();
    while traced_walls.len() < TRACED_ITERS || started.elapsed_s() < traced_s {
        let trace = rec.next_trace();
        let it = step(workload.as_mut(), rec)?;
        tally.absorb("traced", traced_walls.len(), &it);
        traced_walls.push(it.wall_s);
        let all = rec.spans();
        let mut values: Vec<(String, f64)> = span_seconds(&all, trace).into_iter().collect();
        values.extend(it.values);
        // A workload whose spans are a sample says itself how much
        // of the wall they leave unattributed.
        if !values.iter().any(|(k, _)| k == "bench.unattributed_share") {
            if let Some(share) = unattributed_share(&all, trace, it.wall_s) {
                values.push(("bench.unattributed_share".to_string(), share));
            }
        }
        for (k, v) in values {
            layer_values.entry(k).or_default().push(v);
        }
    }
    rec.set_enabled(false);

    let mut per_layer: BTreeMap<String, f64> = layer_values
        .iter()
        .map(|(k, v)| (k.clone(), median(v)))
        .collect();
    per_layer.entry("bench.glue_s".to_string()).or_insert(0.0);
    per_layer.insert(
        "bench.trace_overhead_share".to_string(),
        median(&traced_walls) / untraced_wall_s - 1.0,
    );
    per_layer.extend(workload.probes()?);
    Registry::global().reset();
    // Free the workload's memory before the baselines take theirs.
    drop(workload);
    per_layer.extend(host::baselines());
    Ok((per_layer, rec.spans()))
}

/// Time `reps` more set-ups, dropping what they build.
fn time_setups(
    build: &impl Fn() -> Result<Box<dyn Workload>, String>,
    reps: usize,
    setups: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..reps.max(1) {
        let (built, secs) = clock::time(build);
        drop(built?);
        setups.push(secs);
    }
    Ok(())
}

/// Run `build` through the protocol.
pub fn run(
    name: &str,
    plan: Plan,
    build: impl Fn() -> Result<Box<dyn Workload>, String>,
) -> Result<Report, String> {
    // Set-up, repeated: a later change that moves work here shows.
    let mut setups = Vec::with_capacity(SETUP_MOMENTS * plan.setup_reps);
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..plan.setup_reps.max(1) {
        drop(workload.take());
        let (built, secs) = clock::time(&build);
        workload = Some(built?);
        setups.push(secs);
    }
    let mut workload = workload.expect("set-up ran at least once");
    let constants = workload.constants();
    Registry::global().reset();

    let rec = Arc::new(Recorder::new());
    let mut tally = Tally {
        reference: None,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    for i in 0..WARMUPS {
        let it = step(workload.as_mut(), &rec)?;
        tally.absorb("warm-up", i, &it);
    }

    let mut walls = Vec::new();
    let mut timed_values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let started = clock::now();
    while walls.len() < plan.min_iters || started.elapsed_s() < plan.timed_s {
        let it = step(workload.as_mut(), &rec)?;
        tally.absorb("timed", walls.len(), &it);
        walls.push(it.wall_s);
        for (k, v) in it.values {
            timed_values.entry(k).or_default().push(v);
        }
    }
    let wall = summarize(&walls);
    // Before later set-ups, probes and host baselines allocate.
    let peak_rss_mib = host::peak_rss_mib()?;

    time_setups(&build, plan.setup_reps, &mut setups)?;
    tally.failures.extend(workload.verify()?);
    Registry::global().reset();

    let mut end_to_end = BTreeMap::new();
    end_to_end.insert(
        "throughput_MBps".to_string(),
        host::mbps(workload.bytes_per_iteration(), wall.q1),
    );
    end_to_end.insert("peak_rss_mib".to_string(), peak_rss_mib);
    let own = WORKLOAD_END_TO_END.iter().filter(|(w, _)| *w == name);
    for (_, m) in own {
        let values = timed_values
            .get(m.name)
            .ok_or_else(|| format!("{name} reported no {}", m.name))?;
        let higher = m.better == crate::metrics::Better::Higher;
        end_to_end.insert(m.name.to_string(), better_quartile(values, higher));
    }

    let mut per_layer = BTreeMap::new();
    let mut spans = Vec::new();
    if let Some(traced_s) = plan.traced_s {
        (per_layer, spans) = trace_layers(workload, &rec, &mut tally, traced_s, wall.median)?;
        for (_, m) in WORKLOAD_END_TO_END.iter().filter(|(w, _)| *w == name) {
            per_layer.insert(m.name.to_string(), end_to_end[m.name]);
        }
    } else {
        drop(workload);
    }
    time_setups(&build, plan.setup_reps, &mut setups)?;
    end_to_end.insert("setup_s".to_string(), better_quartile(&setups, false));

    let mut report = Report {
        workload: name.to_string(),
        setup: summarize(&setups),
        wall,
        end_to_end,
        per_layer,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        constants,
        spans,
    };
    if plan.traced_s.is_some() {
        let share = report.failed_share();
        report.per_layer.insert("failed_share".to_string(), share);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose output changes on one iteration.
    struct Flaky {
        calls: usize,
        bad_call: Option<usize>,
    }

    impl Workload for Flaky {
        fn bytes_per_iteration(&self) -> u64 {
            1_000_000
        }
        fn constants(&self) -> Vec<(&'static str, f64)> {
            Vec::new()
        }
        fn iterate(&mut self, rec: &Arc<Recorder>) -> Result<Iteration, String> {
            let call = self.calls;
            self.calls += 1;
            let ((), wall_s) = clock::time(|| {
                rec.scope("iteration", || {
                    rec.scope("bench.glue_s", || std::hint::black_box(()));
                })
            });
            let mut digest = [7u8; 16];
            if Some(call) == self.bad_call {
                digest[0] ^= 1;
            }
            Ok(Iteration {
                wall_s: wall_s.max(1e-9),
                digest,
                attempted: 1,
                failed: 0,
                values: Vec::new(),
            })
        }
    }

    fn plan(traced: bool) -> Plan {
        Plan {
            setup_reps: 2,
            timed_s: 0.0,
            min_iters: 4,
            traced_s: traced.then_some(0.0),
        }
    }

    #[test]
    fn clean_run_is_correct() {
        let report = run("flaky", plan(false), || {
            Ok(Box::new(Flaky {
                calls: 0,
                bad_call: None,
            }))
        })
        .unwrap();
        assert!(report.correct());
        assert_eq!(report.attempted, (WARMUPS + 4) as u64);
        assert_eq!(report.failed_share(), 0.0);
        assert_eq!(report.wall.n, 4);
        assert_eq!(report.setup.n, SETUP_MOMENTS * 2);
        assert!(report.end_to_end["throughput_MBps"] > 0.0);
        assert!(report.per_layer.is_empty() && report.spans.is_empty());
        assert_eq!(crate::exit_code(&report), 0);
    }

    #[test]
    fn a_failing_output_check_fails_the_run() {
        let report = run("flaky", plan(false), || {
            Ok(Box::new(Flaky {
                calls: 0,
                bad_call: Some(WARMUPS + 1),
            }))
        })
        .unwrap();
        assert!(!report.correct());
        assert_eq!(report.failed, 1);
        assert!(report.failed_share() > 0.0);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("timed iteration 1"));
        assert_ne!(crate::exit_code(&report), 0);
    }

    #[test]
    fn traced_run_reports_layers_and_keeps_spans() {
        let report = run("flaky", plan(true), || {
            Ok(Box::new(Flaky {
                calls: 0,
                bad_call: None,
            }))
        })
        .unwrap();
        assert!(report.correct());
        assert!(report.per_layer.contains_key("bench.glue_s"));
        assert!(report.per_layer.contains_key("bench.unattributed_share"));
        assert!(report.per_layer.contains_key("bench.trace_overhead_share"));
        assert!(report.per_layer.contains_key("host.memcpy_MBps"));
        assert_eq!(report.per_layer["failed_share"], 0.0);
        // Only traced iterations leave spans: 2 spans each.
        assert_eq!(report.spans.len(), 2 * TRACED_ITERS);
        assert_eq!(report.attempted, (WARMUPS + 4 + TRACED_ITERS) as u64);
    }
}
