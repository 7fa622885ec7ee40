//! The pipeline definition and its sequential runner: named stages
//! over a shared artifact type and per-stage metrics. Batches run on
//! [`crate::executor`], which executes each stage through the same
//! [`Pipeline::execute_stage`] as `run`. Figure 1's feedback loop is a
//! caller's loop around `run` (`examples/iterative_refinement.rs`).
//!
//! Every run also reports into the context registry
//! (`drai_telemetry::Registry::current`, falling back to the global
//! one): `run` emits a root `pipeline.<pipeline>.run` span containing
//! one span per stage named `pipeline.<pipeline>.<stage>` carrying the
//! stage's record/byte counters. Stage spans are *entered* while the
//! stage function runs, so spans opened by the I/O layer inside a stage
//! (shard writes, `par_map` tasks, retries) attach under that stage in
//! the trace tree.

use crate::metrics::Throughput;
use crate::readiness::ProcessingStage;
use crate::CoreError;
use drai_telemetry::{Registry, Stopwatch};
use std::sync::Arc;

/// Counters a stage can report about the work it did.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageCounters {
    /// Records consumed/produced.
    pub records: u64,
    /// Bytes consumed/produced.
    pub bytes: u64,
    /// The item's *derivation id*. On entry to a stage it names the
    /// stage's input — the id the previous stage's output was given, or
    /// `None` at the start of a chain. A layer that names its output
    /// (the cache decorator: its key) leaves the output's id here, and
    /// [`Pipeline::execute_stage`] hands it to the next stage only when
    /// that layer is the stage's outermost (see
    /// [`Pipeline::decorate_stage_naming_output`]); every other stage
    /// ends the chain with `None`. A wrapper that builds counters of its
    /// own for the function it wraps copies this in.
    pub id: Option<[u8; 16]>,
}

/// A stage's transformation function.
pub type StageFn<T> = dyn Fn(T, &mut StageCounters) -> Result<T, String> + Send + Sync;
/// A stage's fast path (see [`FastPath`]).
pub type FastFn<T> = dyn Fn(T, &mut StageCounters) -> FastPath<T> + Send + Sync;

/// Outcome of a stage's optional *fast path* — a cheap pre-check that
/// can produce the stage's output without running the full stage
/// function (e.g. a cache probe). A fast path is infallible by
/// construction: anything that goes wrong degrades to [`FastPath::Miss`]
/// and the full function runs.
pub enum FastPath<T> {
    /// The fast path produced the stage output; the stage function is
    /// skipped. Counters set by the fast path are kept.
    Hit(T),
    /// No shortcut; the input is handed back for the full function.
    Miss(T),
}

/// One pipeline stage: a name, its processing-stage classification, the
/// transformation function, and an optional fast path tried first.
pub struct StageDef<T> {
    pub(crate) name: String,
    pub(crate) kind: ProcessingStage,
    pub(crate) func: Arc<StageFn<T>>,
    pub(crate) fast: Option<Arc<FastFn<T>>>,
    /// Whether the stage's outermost layer names its output, so the id
    /// it leaves in [`StageCounters::id`] travels on with the item.
    pub(crate) names_output: bool,
}

impl<T> Clone for StageDef<T> {
    fn clone(&self) -> Self {
        StageDef {
            name: self.name.clone(),
            kind: self.kind,
            func: self.func.clone(),
            fast: self.fast.clone(),
            names_output: self.names_output,
        }
    }
}

/// Timing/volume record for one executed stage.
#[derive(Debug, Clone)]
pub struct StageMetrics {
    /// Stage name.
    pub name: String,
    /// Stage classification (which maturity-matrix column it advances).
    pub kind: ProcessingStage,
    /// Work done.
    pub throughput: Throughput,
}

/// Result of a pipeline run: the final artifact plus per-stage metrics.
#[derive(Debug)]
pub struct PipelineRun<T> {
    /// Final artifact.
    pub output: T,
    /// Metrics per executed stage, in order.
    pub stages: Vec<StageMetrics>,
}

impl<T> PipelineRun<T> {
    /// Total wall time across stages.
    pub fn total_elapsed(&self) -> std::time::Duration {
        self.stages.iter().map(|s| s.throughput.elapsed).sum()
    }

    /// Metrics for a named stage.
    pub fn stage(&self, name: &str) -> Option<&StageMetrics> {
        self.stages.iter().find(|s| s.name == name)
    }
}

/// Builder for [`Pipeline`].
pub struct PipelineBuilder<T> {
    name: String,
    stages: Vec<StageDef<T>>,
}

impl<T> PipelineBuilder<T> {
    /// Add a stage.
    pub fn stage(
        mut self,
        name: &str,
        kind: ProcessingStage,
        func: impl Fn(T, &mut StageCounters) -> Result<T, String> + Send + Sync + 'static,
    ) -> Self {
        self.stages.push(StageDef {
            name: name.to_string(),
            kind,
            func: Arc::new(func),
            fast: None,
            names_output: false,
        });
        self
    }

    /// Finish building.
    pub fn build(self) -> Pipeline<T> {
        Pipeline {
            name: self.name,
            stages: self.stages,
        }
    }
}

/// An ordered sequence of named stages over artifact type `T`.
///
/// `T` is whatever the domain moves between stages — a tensor bundle, a
/// set of shot records, file paths. Stages run in order; each failure
/// aborts the run with the failing stage named.
pub struct Pipeline<T> {
    pub(crate) name: String,
    pub(crate) stages: Vec<StageDef<T>>,
}

impl<T> Clone for Pipeline<T> {
    fn clone(&self) -> Self {
        Pipeline {
            name: self.name.clone(),
            stages: self.stages.clone(),
        }
    }
}

impl<T> Pipeline<T> {
    /// Start a builder.
    pub fn builder(name: &str) -> PipelineBuilder<T> {
        PipelineBuilder {
            name: name.to_string(),
            stages: Vec::new(),
        }
    }

    /// Pipeline name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stage names in order.
    pub fn stage_names(&self) -> Vec<&str> {
        self.stages.iter().map(|s| s.name.as_str()).collect()
    }

    /// The ordered processing-stage kinds (used to check a domain
    /// pipeline covers the canonical ingest→…→shard sequence).
    pub fn stage_kinds(&self) -> Vec<ProcessingStage> {
        self.stages.iter().map(|s| s.kind).collect()
    }

    /// Rewrap the named stage: `wrap` receives the stage's current
    /// function and returns the one to run in its place, plus an
    /// optional fast path to install. This is how behaviour is layered
    /// onto a stage graph that is declared once — a cache probe, an
    /// injected delay — instead of declaring the graph again per
    /// variant. A wrapper that installs no fast path leaves an existing
    /// one in place, so hits on it bypass the wrapper.
    ///
    /// The new layer is the stage's outermost and may change its
    /// output, so the stage no longer names its output: the item leaves
    /// it without a derivation id ([`StageCounters::id`]).
    ///
    /// Panics when the pipeline has no stage called `stage`: stage
    /// names are literals, so a miss is a typo to fail on at
    /// construction, not a condition to carry to run time.
    pub fn decorate_stage(
        self,
        stage: &str,
        wrap: impl FnOnce(Arc<StageFn<T>>) -> (Arc<StageFn<T>>, Option<Arc<FastFn<T>>>),
    ) -> Self {
        self.rewrap(stage, Some(false), wrap)
    }

    /// [`Pipeline::decorate_stage`] for a layer that names its output:
    /// on a hit of the fast path it installs and after every run of the
    /// function it returns, it leaves in [`StageCounters::id`] an id
    /// that is a function of the input's id (as handed to it there),
    /// the stage and its configuration alone — the cache decorator's
    /// key. While this layer stays outermost the id travels on to the
    /// next stage. The contract is the layer's to keep: two items with
    /// equal ids must be equal.
    pub fn decorate_stage_naming_output(
        self,
        stage: &str,
        wrap: impl FnOnce(Arc<StageFn<T>>) -> (Arc<StageFn<T>>, Option<Arc<FastFn<T>>>),
    ) -> Self {
        self.rewrap(stage, Some(true), wrap)
    }

    /// Install a layer on `stage`; `names_output` says whether the
    /// stage names its output afterwards, `None` keeping what it was (a
    /// layer that hands on its function's output and counters as they
    /// are).
    fn rewrap(
        mut self,
        stage: &str,
        names_output: Option<bool>,
        wrap: impl FnOnce(Arc<StageFn<T>>) -> (Arc<StageFn<T>>, Option<Arc<FastFn<T>>>),
    ) -> Self {
        let def = self.stages.iter_mut().find(|s| s.name == stage);
        assert!(
            def.is_some(),
            "pipeline {:?} has no stage named {stage:?}",
            self.name
        );
        if let Some(def) = def {
            let (func, fast) = wrap(def.func.clone());
            def.func = func;
            def.fast = fast.or(def.fast.take());
            def.names_output = names_output.unwrap_or(def.names_output);
        }
        self
    }

    /// Re-attempt the named stage up to `max_attempts` times when its
    /// function fails — the pipeline-level counterpart of the I/O
    /// layer's `RetrySink`, for stages that talk to flaky storage or
    /// services. The input is cloned per attempt (hence `T: Clone`),
    /// counters reflect only the successful attempt, and the run aborts
    /// with the *last* error once attempts are exhausted. Retries are
    /// immediate (no sleeping): stage work dominates any sensible
    /// backoff, and determinism matters more here than politeness.
    ///
    /// Every attempt is handed the item's id ([`StageCounters::id`]),
    /// and the successful attempt's output and counters are handed on
    /// as they are, so a stage that named its output still does.
    ///
    /// Telemetry: each re-attempt increments
    /// `pipeline.<pipeline>.<stage>.retries`.
    pub fn retried(self, stage: &str, max_attempts: u32) -> Self
    where
        T: Clone + 'static,
    {
        assert!(max_attempts >= 1, "need at least one attempt");
        let base = self.stage_metric(stage);
        self.rewrap(stage, None, move |func| {
            let wrapped = move |input: T, counters: &mut StageCounters| {
                let mut last_err = String::new();
                for attempt in 0..max_attempts {
                    let mut local = StageCounters {
                        id: counters.id,
                        ..StageCounters::default()
                    };
                    match func(input.clone(), &mut local) {
                        Ok(out) => {
                            *counters = local;
                            return Ok(out);
                        }
                        Err(e) => {
                            last_err = e;
                            if attempt + 1 < max_attempts {
                                Registry::current()
                                    .counter(&format!("{base}.retries"))
                                    .incr();
                            }
                        }
                    }
                }
                Err(format!("exhausted {max_attempts} attempts: {last_err}"))
            };
            (Arc::new(wrapped), None)
        })
    }

    /// Telemetry name for one of this pipeline's stages.
    pub(crate) fn stage_metric(&self, stage: &str) -> String {
        format!("pipeline.{}.{}", self.name, stage)
    }

    /// Execute one stage on one artifact whose derivation id is `id`:
    /// try the fast path first, then the full function. Returns the
    /// output and its id — the one the stage left in the counters when
    /// its outermost layer names its output, `None` otherwise. The only
    /// place a stage runs on an item — the sequential runner and the
    /// batch executor's workers both call it.
    pub(crate) fn execute_stage(
        stage: &StageDef<T>,
        input: T,
        id: Option<[u8; 16]>,
        counters: &mut StageCounters,
    ) -> Result<(T, Option<[u8; 16]>), String> {
        counters.id = id;
        let output = match &stage.fast {
            Some(fast) => match fast(input, counters) {
                FastPath::Hit(output) => output,
                FastPath::Miss(input) => (stage.func)(input, counters)?,
            },
            None => (stage.func)(input, counters)?,
        };
        let id = if stage.names_output {
            counters.id
        } else {
            None
        };
        Ok((output, id))
    }

    /// Run sequentially on one artifact, emitting one telemetry span
    /// per stage.
    pub fn run(&self, input: T) -> Result<PipelineRun<T>, CoreError> {
        let registry = Registry::current();
        // Root span for the whole run; stage spans nest under it, and
        // it in turn nests under whatever context the caller entered
        // (e.g. a domain's `domain.<name>.run`).
        let run_span = registry.span(format!("pipeline.{}.run", self.name));
        let _in_run = run_span.enter();
        let mut current = input;
        let mut id = None;
        let mut metrics = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            let base = self.stage_metric(&stage.name);
            let span = registry.span(base.clone());
            let start = Stopwatch::start();
            let mut counters = StageCounters::default();
            // Entered while the stage function runs so I/O-layer spans
            // opened inside it parent under this stage.
            let in_stage = span.enter();
            let result = Self::execute_stage(stage, current, id, &mut counters);
            drop(in_stage);
            (current, id) = result.map_err(|message| CoreError::Stage {
                stage: stage.name.clone(),
                message,
            })?;
            span.add_items(counters.records);
            span.add_bytes(counters.bytes);
            registry
                .counter(&format!("{base}.records"))
                .add(counters.records);
            registry
                .counter(&format!("{base}.bytes"))
                .add(counters.bytes);
            metrics.push(StageMetrics {
                name: stage.name.clone(),
                kind: stage.kind,
                throughput: Throughput {
                    records: counters.records,
                    bytes: counters.bytes,
                    elapsed: start.elapsed(),
                },
            });
        }
        Ok(PipelineRun {
            output: current,
            stages: metrics,
        })
    }

    /// One zeroed [`StageMetrics`] per stage — what an empty batch
    /// merges to, so downstream zips over stage lists never see
    /// mismatched lengths.
    pub(crate) fn zeroed_metrics(&self) -> Vec<StageMetrics> {
        self.stages
            .iter()
            .map(|stage| StageMetrics {
                name: stage.name.clone(),
                kind: stage.kind,
                throughput: Throughput::default(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::readiness::ProcessingStage as S;

    fn doubling_pipeline() -> Pipeline<Vec<f64>> {
        Pipeline::builder("test")
            .stage("ingest", S::Ingest, |v: Vec<f64>, c| {
                c.records = v.len() as u64;
                Ok(v)
            })
            .stage("double", S::Transform, |v: Vec<f64>, c| {
                c.records = v.len() as u64;
                c.bytes = (v.len() * 8) as u64;
                Ok(v.into_iter().map(|x| x * 2.0).collect())
            })
            .build()
    }

    #[test]
    fn run_executes_in_order_with_metrics() {
        let p = doubling_pipeline();
        assert_eq!(p.stage_names(), vec!["ingest", "double"]);
        assert_eq!(p.stage_kinds(), vec![S::Ingest, S::Transform]);
        let run = p.run(vec![1.0, 2.0]).unwrap();
        assert_eq!(run.output, vec![2.0, 4.0]);
        assert_eq!(run.stages.len(), 2);
        assert_eq!(run.stage("double").unwrap().throughput.records, 2);
        assert_eq!(run.stage("double").unwrap().throughput.bytes, 16);
        assert!(run.stage("missing").is_none());
        assert!(run.total_elapsed() > std::time::Duration::ZERO);
    }

    #[test]
    fn stage_failure_names_stage() {
        let p: Pipeline<i32> = Pipeline::builder("failing")
            .stage("ok", S::Ingest, |x, _| Ok(x))
            .stage("boom", S::Transform, |_, _| Err("kaput".to_string()))
            .build();
        match p.run(1) {
            Err(CoreError::Stage { stage, message }) => {
                assert_eq!(stage, "boom");
                assert_eq!(message, "kaput");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fast_path_hit_skips_stage_function() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let func_calls = Arc::new(AtomicU32::new(0));
        let calls = func_calls.clone();
        let p: Pipeline<i32> = Pipeline::builder("fastpath")
            .stage("memo", S::Transform, move |x, c| {
                calls.fetch_add(1, Ordering::SeqCst);
                c.records = 1;
                Ok(x * 10)
            })
            .build()
            .decorate_stage("memo", |func| {
                let fast = |x: i32, c: &mut StageCounters| {
                    if x % 2 == 0 {
                        c.records = 1;
                        FastPath::Hit(x * 10)
                    } else {
                        FastPath::Miss(x)
                    }
                };
                (func, Some(Arc::new(fast)))
            });
        assert_eq!(p.run(4).unwrap().output, 40);
        assert_eq!(func_calls.load(Ordering::SeqCst), 0, "hit skips func");
        assert_eq!(p.run(3).unwrap().output, 30);
        assert_eq!(func_calls.load(Ordering::SeqCst), 1, "miss runs func");
    }

    #[test]
    fn decorated_stage_runs_the_wrapper_around_the_original() {
        let p = doubling_pipeline().decorate_stage("double", |func| {
            let wrapped = move |v: Vec<f64>, c: &mut StageCounters| {
                func(v, c).map(|out| out.into_iter().map(|x| x + 1.0).collect())
            };
            (Arc::new(wrapped), None)
        });
        let run = p.run(vec![1.0, 2.0]).unwrap();
        assert_eq!(run.output, vec![3.0, 5.0]);
        // The wrapped stage keeps its name, kind and counters.
        assert_eq!(p.stage_names(), vec!["ingest", "double"]);
        assert_eq!(run.stage("double").unwrap().throughput.bytes, 16);
    }

    #[test]
    #[should_panic(expected = "no stage named \"tripple\"")]
    fn decorating_an_unknown_stage_is_rejected() {
        doubling_pipeline().decorate_stage("tripple", |func| (func, None));
    }

    #[test]
    fn run_emits_telemetry_spans_and_counters() {
        // Unique pipeline name: the global registry is shared with other
        // tests in this process.
        let p: Pipeline<Vec<f64>> = Pipeline::builder("telem-unit")
            .stage("count", S::Ingest, |v: Vec<f64>, c| {
                c.records = v.len() as u64;
                c.bytes = (v.len() * 8) as u64;
                Ok(v)
            })
            .build();
        p.run(vec![1.0; 32]).unwrap();
        let snap = drai_telemetry::Registry::global().snapshot();
        let spans = snap.spans_named("pipeline.telem-unit.count");
        assert_eq!(spans.len(), 1);
        assert!(spans[0].dur_ns > 0);
        assert_eq!(spans[0].items, 32);
        assert_eq!(spans[0].bytes, 256);
        assert_eq!(snap.counters["pipeline.telem-unit.count.records"], 32);
        assert!(snap.histograms.contains_key("pipeline.telem-unit.count.ns"));
    }

    #[test]
    fn run_spans_form_a_tree_in_the_callers_registry() {
        use drai_telemetry::{Registry, TraceContext};
        let reg = Registry::new();
        let p = doubling_pipeline();
        TraceContext::root(&reg).scope(|| {
            p.run(vec![1.0, 2.0]).unwrap();
        });
        let snap = reg.snapshot();
        let run = snap.spans_named("pipeline.test.run");
        assert_eq!(run.len(), 1, "one root run span");
        for stage in ["ingest", "double"] {
            let spans = snap.spans_named(&format!("pipeline.test.{stage}"));
            assert_eq!(spans.len(), 1);
            assert_eq!(spans[0].parent, Some(run[0].id), "{stage} not under run");
            assert_eq!(spans[0].trace, run[0].trace);
        }
        // Counters landed in the private registry, not the global one.
        assert_eq!(snap.counters["pipeline.test.double.records"], 2);
    }

    #[test]
    fn retried_stage_recovers_from_transient_failures() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let flaky_calls = Arc::new(AtomicU32::new(0));
        let calls = flaky_calls.clone();
        let p: Pipeline<Vec<f64>> = Pipeline::builder("retry-unit")
            .stage("flaky", S::Transform, move |v: Vec<f64>, c| {
                // Fail the first two attempts, then succeed.
                if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err("transient".into())
                } else {
                    c.records = v.len() as u64;
                    Ok(v.into_iter().map(|x| x + 1.0).collect())
                }
            })
            .build()
            .retried("flaky", 4);
        let run = p.run(vec![1.0, 2.0]).unwrap();
        assert_eq!(run.output, vec![2.0, 3.0]);
        assert_eq!(flaky_calls.load(Ordering::SeqCst), 3);
        // Counters reflect the successful attempt only.
        assert_eq!(run.stage("flaky").unwrap().throughput.records, 2);
        let snap = drai_telemetry::Registry::global().snapshot();
        assert_eq!(snap.counters["pipeline.retry-unit.flaky.retries"], 2);
    }

    /// Each stage appends the first byte of the id it was handed; stage
    /// `a`'s naming layer gives its output the id `[7; 16]`.
    fn id_trail() -> Pipeline<Vec<Option<u8>>> {
        let mut builder = Pipeline::builder("ids");
        for stage in ["a", "b", "c"] {
            builder = builder.stage(stage, S::Transform, |mut v: Vec<Option<u8>>, c| {
                v.push(c.id.map(|id| id[0]));
                Ok(v)
            });
        }
        builder.build().decorate_stage_naming_output("a", |func| {
            let naming = move |v: Vec<Option<u8>>, c: &mut StageCounters| {
                let out = func(v, c)?;
                c.id = Some([7; 16]);
                Ok(out)
            };
            (Arc::new(naming), None)
        })
    }

    #[test]
    fn ids_travel_only_out_of_a_stage_whose_outermost_layer_names_its_output() {
        use crate::executor::{ExecutorConfig, StreamingBatchExt};
        let trail = |p: &Pipeline<Vec<Option<u8>>>| {
            let run = p.run(Vec::new()).unwrap().output;
            let (batch, _) = p
                .run_batch_streaming(vec![Vec::new()], &ExecutorConfig::default())
                .unwrap();
            assert_eq!(
                batch,
                std::slice::from_ref(&run),
                "run and the executor disagree"
            );
            run
        };
        // `b` sees `a`'s id; `b` names nothing, so `c` sees none.
        assert_eq!(trail(&id_trail()), [None, Some(7), None]);
        // `retried` hands its function's output and id on as they are.
        assert_eq!(trail(&id_trail().retried("a", 2)), [None, Some(7), None]);
        // Any other later layer ends the chain, even one that changes
        // nothing.
        let outer = id_trail().decorate_stage("a", |func| (func, None));
        assert_eq!(trail(&outer), [None, None, None]);
    }

    #[test]
    fn retried_stage_exhaustion_reports_last_error() {
        let p: Pipeline<i32> = Pipeline::builder("retry-fail")
            .stage("doomed", S::Transform, |_, _| {
                Err("still broken".to_string())
            })
            .build()
            .retried("doomed", 3);
        match p.run(1) {
            Err(CoreError::Stage { stage, message }) => {
                assert_eq!(stage, "doomed");
                assert!(
                    message.contains("3 attempts") && message.contains("still broken"),
                    "{message}"
                );
            }
            other => panic!("{other:?}"),
        }
    }
}
