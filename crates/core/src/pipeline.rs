//! The pipeline definition and its sequential runner: named stages
//! over a shared artifact type and per-stage metrics. Batches run on
//! [`crate::executor`], which executes each stage through the same
//! `Pipeline::execute_stage` as `run`. Figure 1's feedback loop is a
//! caller's loop around `run` (`examples/iterative_refinement.rs`).
//!
//! **Provenance.** `execute_stage` — the one place a stage runs on an
//! item — names the output by a *derivation id* ([`derive()`]) and, in a
//! pipeline built with a [`Ledger`], writes the execution's one record:
//! operation = the stage's name, params = its declared configuration
//! plus what it measured, inputs = its input's id, outputs = its
//! output's id plus every blob it wrote. An item that enters with no id
//! leaves every stage with none, unless a layer names it (the cache
//! decorator names a chain's first input by its content). A fast-path
//! hit is recorded when it hits, although its output may be made only
//! later ([`Item`]).
//!
//! Every run also reports into the context registry
//! (`drai_telemetry::Registry::current`, falling back to the global
//! one): `run` emits a root `pipeline.<pipeline>.run` span containing
//! one span per stage named `pipeline.<pipeline>.<stage>` carrying the
//! stage's record/byte counters. Stage spans are *entered* while the
//! stage function runs and its record is written, so spans opened by
//! the I/O layer inside a stage (shard writes, `par_map` tasks, retries)
//! attach under that stage in the trace tree, and the record carries the
//! stage's trace.

use crate::metrics::Throughput;
use crate::names;
use crate::readiness::ProcessingStage;
use crate::CoreError;
use drai_io::checksum::content_hash128;
use drai_provenance::{Artifact, Ledger};
use drai_telemetry::{Registry, Stopwatch};
use std::sync::Arc;

/// The name of a stage output by how it was derived (see [`derive`]).
pub(crate) type DerivationId = [u8; 16];

/// Version hashed into every derivation id and so every cache key. Bump
/// it when a stage's output for an unchanged input and configuration, or
/// a cache entry's layout, changes. 3: cached payloads carry the report.
/// 4: climate's normalize and shard reports count missing values and
/// labeled records.
pub const DERIVATION_VERSION: u32 = 4;

/// Append `bytes` behind its length (a little-endian `u64`).
fn put_framed(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Deterministic fingerprint of a stage's configuration, in the order
/// the pairs are declared.
pub fn config_fingerprint<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> Vec<u8> {
    let mut out = Vec::new();
    for (k, v) in fields {
        put_framed(&mut out, k.as_bytes());
        put_framed(&mut out, v.as_bytes());
    }
    out
}

/// The id of what `stage`, configured as `fingerprint` says, makes of
/// the input named `input`: `H(DERIVATION_VERSION ‖ stage ‖ input ‖
/// fingerprint)`. Sound while a stage's output is a function of its
/// input and its declared configuration alone.
pub fn derive(input: &DerivationId, stage: &str, fingerprint: &[u8]) -> DerivationId {
    let mut out = Vec::with_capacity(48 + stage.len() + fingerprint.len());
    out.extend_from_slice(&u64::from(DERIVATION_VERSION).to_le_bytes());
    put_framed(&mut out, stage.as_bytes());
    put_framed(&mut out, input);
    put_framed(&mut out, fingerprint);
    content_hash128(&out)
}

/// What one stage execution puts on record beyond its configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageReport {
    /// Values the stage measured: params of its record.
    pub measured: Vec<(String, String)>,
    /// Blobs the stage wrote: outputs of its record.
    pub written: Vec<Artifact>,
}

/// What a stage reports about one execution.
#[derive(Debug, Clone, Default)]
pub struct StageCounters {
    /// Records consumed/produced.
    pub records: u64,
    /// Bytes consumed/produced.
    pub bytes: u64,
    /// The derivation id of the stage's *input*, if it has one, or the
    /// name a layer gave it (the cache decorator's, by content): the
    /// output's id is derived from it. A wrapper that builds counters of
    /// its own for the function it wraps copies this in.
    pub id: Option<DerivationId>,
    /// What the stage measured and wrote, for its record.
    pub report: StageReport,
}

impl StageCounters {
    /// Put a value the stage measured on its record.
    pub fn measure(&mut self, key: &str, value: impl ToString) {
        let measured = (key.to_string(), value.to_string());
        self.report.measured.push(measured);
    }

    /// Put a blob the stage wrote on its record.
    pub fn wrote(&mut self, name: &str, content: &[u8]) {
        self.report.written.push(Artifact::new(name, content));
    }
}

/// A stage's transformation function.
pub(crate) type StageFn<T> = dyn Fn(T, &mut StageCounters) -> Result<T, String> + Send + Sync;
/// A stage's fast path (see [`FastPath`]).
pub(crate) type FastFn<T> = dyn Fn(&mut Item<T>, &mut StageCounters) -> FastPath<T> + Send + Sync;

/// Makes a fast path's output once something needs it (see [`Item`]):
/// `None` when it cannot — a stored output that does not decode — and
/// the stage function then recomputes it.
pub type Decode<T> = Box<dyn FnOnce() -> Option<T> + Send>;

/// Outcome of a stage's optional *fast path* — a cheap pre-check that
/// can stand in for the full stage function (e.g. a cache probe). A fast
/// path is infallible by construction: anything that goes wrong degrades
/// to [`FastPath::Miss`] and the full function runs.
pub enum FastPath<T> {
    /// The fast path vouches for the stage's output and says how to make
    /// it; the stage function is skipped, and the output is made only
    /// when something needs it. Counters set by the fast path are kept.
    Hit(Decode<T>),
    /// No shortcut: the stage function runs on the input.
    Miss,
}

/// An item on its way through the stages: ready, or the output of a
/// fast-path hit that is made only once something needs it — a stage
/// function, a fast path that reads the item ([`Item::get`]), or the end
/// of the run. A chain of cache hits therefore decodes one output, its
/// last: each probe after the first keys its item by the derivation id
/// alone.
///
/// A hit holds on to its input until it settles: when its output cannot
/// be made, the stage function recomputes it from that input (made
/// first, the same way). The hit's ledger record was written when it hit
/// and stands; a recomputation writes none.
pub struct Item<T>(State<T>);

enum State<T> {
    Ready(T),
    Hit(Box<Hit<T>>),
    /// Making a hit's output failed; the stage function that needs the
    /// item reports it.
    Failed(Failure),
}

/// A stage output not made yet: how to make it, and what to recompute it
/// from when that fails.
struct Hit<T> {
    decode: Decode<T>,
    stage: StageDef<T>,
    input: Item<T>,
    input_id: Option<DerivationId>,
}

/// The stage that failed on an item, and why.
pub(crate) struct Failure {
    pub(crate) stage: String,
    pub(crate) message: String,
}

impl From<Failure> for CoreError {
    fn from(Failure { stage, message }: Failure) -> CoreError {
        CoreError::Stage { stage, message }
    }
}

impl<T> Item<T> {
    pub(crate) fn ready(value: T) -> Item<T> {
        Item(State::Ready(value))
    }

    /// The item's value, made now if it is a hit's output not made yet;
    /// `None` when it cannot be made (the stage function that needs the
    /// item then reports why).
    pub fn get(&mut self) -> Option<&T> {
        if let State::Hit(_) = self.0 {
            // Taken out to be settled; the placeholder is overwritten
            // before anything can see it.
            let taken = std::mem::replace(
                &mut self.0,
                State::Failed(Failure {
                    stage: String::new(),
                    message: String::new(),
                }),
            );
            self.0 = match Item(taken).settle() {
                Ok(value) => State::Ready(value),
                Err(failure) => State::Failed(failure),
            };
        }
        match &self.0 {
            State::Ready(value) => Some(value),
            _ => None,
        }
    }

    /// The item's value, made if it is not yet: a hit's decoded output,
    /// or, when that does not decode, its stage function's output on the
    /// hit's input.
    pub(crate) fn settle(self) -> Result<T, Failure> {
        let hit = match self.0 {
            State::Ready(value) => return Ok(value),
            State::Failed(failure) => return Err(failure),
            State::Hit(hit) => *hit,
        };
        let Hit {
            decode,
            stage,
            input,
            input_id,
        } = hit;
        if let Some(output) = decode() {
            return Ok(output);
        }
        let mut counters = StageCounters {
            id: input_id,
            ..StageCounters::default()
        };
        stage.run(input.settle()?, &mut counters)
    }
}

/// One pipeline stage: a name, its processing-stage classification, its
/// declared configuration, the transformation function, and an optional
/// fast path tried first.
pub(crate) struct StageDef<T> {
    pub(crate) name: String,
    pub(crate) kind: ProcessingStage,
    pub(crate) func: Arc<StageFn<T>>,
    pub(crate) fast: Option<Arc<FastFn<T>>>,
    /// What its output depends on besides its input (see `configured_stage`).
    pub(crate) config: Arc<[(String, String)]>,
    /// [`config_fingerprint`] of `config`.
    pub(crate) fingerprint: Arc<[u8]>,
}

impl<T> StageDef<T> {
    /// Run the stage function, naming the stage in its error.
    fn run(&self, input: T, counters: &mut StageCounters) -> Result<T, Failure> {
        (self.func)(input, counters).map_err(|message| Failure {
            stage: self.name.clone(),
            message,
        })
    }
}

impl<T> Clone for StageDef<T> {
    fn clone(&self) -> Self {
        StageDef {
            name: self.name.clone(),
            kind: self.kind,
            func: self.func.clone(),
            fast: self.fast.clone(),
            config: self.config.clone(),
            fingerprint: self.fingerprint.clone(),
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
    ledger: Option<Arc<Ledger>>,
}

impl<T> PipelineBuilder<T> {
    /// Add a stage that declares no configuration: its output depends on
    /// its input alone.
    pub fn stage(
        self,
        name: &str,
        kind: ProcessingStage,
        func: impl Fn(T, &mut StageCounters) -> Result<T, String> + Send + Sync + 'static,
    ) -> Self {
        self.configured_stage(name, kind, [], func)
    }

    /// Add a stage whose output depends on its input and on `config`:
    /// every value it reads besides its item, as `(key, value)` in a fixed
    /// order — its record's params and the fingerprint in its output's id.
    pub fn configured_stage<'a>(
        mut self,
        name: &str,
        kind: ProcessingStage,
        config: impl IntoIterator<Item = (&'a str, String)>,
        func: impl Fn(T, &mut StageCounters) -> Result<T, String> + Send + Sync + 'static,
    ) -> Self {
        let config: Arc<[(String, String)]> = config
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let fingerprint = config_fingerprint(config.iter().map(|(k, v)| (k.as_str(), v.clone())));
        self.stages.push(StageDef {
            name: name.to_string(),
            kind,
            func: Arc::new(func),
            fast: None,
            config,
            fingerprint: fingerprint.into(),
        });
        self
    }

    /// Write one record per stage execution into `ledger`.
    pub fn ledger(mut self, ledger: Arc<Ledger>) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// Finish building.
    pub fn build(self) -> Pipeline<T> {
        Pipeline {
            name: self.name,
            stages: self.stages,
            ledger: self.ledger,
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
    ledger: Option<Arc<Ledger>>,
}

impl<T> Clone for Pipeline<T> {
    fn clone(&self) -> Self {
        Pipeline {
            name: self.name.clone(),
            stages: self.stages.clone(),
            ledger: self.ledger.clone(),
        }
    }
}

impl<T> Pipeline<T> {
    /// Start a builder.
    pub fn builder(name: &str) -> PipelineBuilder<T> {
        PipelineBuilder {
            name: name.to_string(),
            stages: Vec::new(),
            ledger: None,
        }
    }

    /// Pipeline name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fingerprint of the configuration `stage` declares, `None`
    /// when there is no such stage.
    pub fn fingerprint(&self, stage: &str) -> Option<&[u8]> {
        let def = self.stages.iter().find(|s| s.name == stage)?;
        Some(&def.fingerprint)
    }

    /// Rewrap the named stage: `wrap` receives the stage's current
    /// function and returns the one to run in its place, plus an
    /// optional fast path to install. This is how behaviour is layered
    /// onto a stage graph that is declared once — a cache probe, a retry,
    /// an injected delay — instead of declaring the graph again per
    /// variant. A wrapper that installs no fast path leaves an existing
    /// one in place, so hits on it bypass the wrapper.
    ///
    /// A layer does not change what its stage computes: the stage keeps
    /// its name and configuration, so its output keeps its id, which a
    /// changed output would no longer deserve. A different computation
    /// is a different stage.
    ///
    /// Panics when the pipeline has no stage called `stage`: stage
    /// names are literals, so a miss is a typo to fail on at
    /// construction, not a condition to carry to run time.
    pub fn decorate_stage(
        mut self,
        stage: &str,
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
    /// Every attempt is handed the item's id ([`StageCounters::id`]);
    /// the successful attempt's output and counters are handed on as
    /// they are, and a failed attempt's report goes nowhere.
    ///
    /// Telemetry: each re-attempt increments
    /// `pipeline.<pipeline>.<stage>.retries`.
    pub fn retried(self, stage: &str, max_attempts: u32) -> Self
    where
        T: Clone + 'static,
    {
        assert!(max_attempts >= 1, "need at least one attempt");
        let (pipeline, stage_name) = (self.name.clone(), stage.to_string());
        self.decorate_stage(stage, move |func| {
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
                                    .handle(&names::STAGE_RETRIES, [&pipeline, &stage_name])
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

    /// Execute one stage on one item whose derivation id is `id`: the
    /// fast path first, then the full function; then name the output and
    /// write the record (see the module docs and [`Item`]). The only
    /// place a stage runs on an item — `run` and the executor's workers
    /// call it.
    pub(crate) fn execute_stage(
        &self,
        stage: &StageDef<T>,
        mut input: Item<T>,
        id: Option<DerivationId>,
        counters: &mut StageCounters,
    ) -> Result<(Item<T>, Option<DerivationId>), Failure> {
        counters.id = id;
        let fast = stage.fast.as_ref().map(|fast| fast(&mut input, counters));
        let output = match fast {
            Some(FastPath::Hit(decode)) => Item(State::Hit(Box::new(Hit {
                decode,
                stage: stage.clone(),
                input,
                input_id: counters.id,
            }))),
            _ => Item::ready(stage.run(input.settle()?, counters)?),
        };
        let input_id = counters.id;
        let output_id = input_id.map(|id| derive(&id, &stage.name, &stage.fingerprint));
        if let Some(ledger) = &self.ledger {
            let StageReport { measured, written } = std::mem::take(&mut counters.report);
            ledger.record(
                &stage.name,
                stage.config.iter().cloned().chain(measured),
                input_id.iter().map(Artifact::derived).collect(),
                output_id
                    .iter()
                    .map(Artifact::derived)
                    .chain(written)
                    .collect(),
            );
        }
        Ok((output, output_id))
    }

    /// Run sequentially on one artifact with no derivation id.
    pub fn run(&self, input: T) -> Result<PipelineRun<T>, CoreError> {
        self.run_with_id(input, None)
    }

    /// Run sequentially on one artifact named by `id`, emitting one
    /// telemetry span per stage.
    pub fn run_with_id(
        &self,
        input: T,
        mut id: Option<DerivationId>,
    ) -> Result<PipelineRun<T>, CoreError> {
        let registry = Registry::current();
        // Root span for the whole run; stage spans nest under it, and
        // it in turn nests under whatever context the caller entered
        // (e.g. a domain's `domain.<name>.run`).
        let run_span = registry.span(&names::RUN, [&self.name]);
        let _in_run = run_span.enter();
        let mut current = Item::ready(input);
        let mut metrics = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            let at = [self.name.as_str(), stage.name.as_str()];
            let span = registry.span(&names::STAGE, at);
            let start = Stopwatch::start();
            let mut counters = StageCounters::default();
            // Entered while the stage runs and is recorded, so I/O spans
            // parent under it and the record carries its trace.
            let in_stage = span.enter();
            let result = self.execute_stage(stage, current, id, &mut counters);
            drop(in_stage);
            (current, id) = result?;
            span.add_items(counters.records);
            span.add_bytes(counters.bytes);
            registry
                .handle(&names::STAGE_RECORDS, at)
                .add(counters.records);
            registry.handle(&names::STAGE_BYTES, at).add(counters.bytes);
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
            output: current.settle()?,
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
        let run = p.run(vec![1.0, 2.0]).unwrap();
        let names: Vec<&str> = run.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["ingest", "double"]);
        let kinds: Vec<S> = run.stages.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec![S::Ingest, S::Transform]);
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
                let fast = |x: &mut Item<i32>, c: &mut StageCounters| match x.get() {
                    Some(&x) if x % 2 == 0 => {
                        c.records = 1;
                        FastPath::Hit(Box::new(move || Some(x * 10)))
                    }
                    _ => FastPath::Miss,
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
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = Arc::new(AtomicU32::new(0));
        let seen = calls.clone();
        let p = doubling_pipeline().decorate_stage("double", move |func| {
            let wrapped = move |v: Vec<f64>, c: &mut StageCounters| {
                seen.fetch_add(1, Ordering::SeqCst);
                func(v, c)
            };
            (Arc::new(wrapped), None)
        });
        let run = p.run(vec![1.0, 2.0]).unwrap();
        assert_eq!(run.output, vec![2.0, 4.0]);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // The wrapped stage keeps its name, kind and counters.
        let double = run.stage("double").unwrap();
        assert_eq!(double.kind, S::Transform);
        assert_eq!(double.throughput.bytes, 16);
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

    /// Each stage appends the first byte of the id it was handed; `b`
    /// declares a configuration.
    fn id_trail() -> Pipeline<Vec<Option<u8>>> {
        let seen = |mut v: Vec<Option<u8>>, c: &mut StageCounters| {
            v.push(c.id.map(|id| id[0]));
            Ok(v)
        };
        Pipeline::builder("ids")
            .stage("a", S::Transform, seen)
            .configured_stage("b", S::Transform, [("k", "v".to_string())], seen)
            .stage("c", S::Transform, seen)
            .build()
    }

    #[test]
    fn every_stage_derives_its_outputs_id_from_its_inputs() {
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
        // No id in, no id out.
        assert_eq!(trail(&id_trail()), [None, None, None]);
        let fp_b = config_fingerprint([("k", "v".to_string())]);
        let a = derive(&[7; 16], "a", &[]);
        let b = derive(&a, "b", &fp_b);
        let named = [Some(7), Some(a[0]), Some(b[0])];
        // An input named by the caller, or by a layer (as the cache names
        // an unnamed one by content): every later stage sees the id
        // derived from the one before.
        let run = id_trail().run_with_id(Vec::new(), Some([7; 16]));
        assert_eq!(run.unwrap().output, named);
        let naming = id_trail().decorate_stage("a", |func| {
            let name = |_: &mut Item<_>, c: &mut StageCounters| {
                c.id.get_or_insert([7; 16]);
                FastPath::Miss
            };
            (func, Some(Arc::new(name)))
        });
        assert_eq!(trail(&naming), named);
        // The id is the stage's, its input's and its configuration's.
        assert_eq!(id_trail().fingerprint("b"), Some(&fp_b[..]));
        assert_eq!(id_trail().fingerprint("a"), Some(&[][..]));
        assert_eq!(id_trail().fingerprint("d"), None);
        assert_ne!(b, derive(&a, "b", &[]));
        assert_ne!(b, derive(&a, "c", &fp_b));
        assert_ne!(b, derive(&[8; 16], "b", &fp_b));
    }

    #[test]
    fn each_stage_execution_writes_one_record_from_its_input_to_its_output() {
        use drai_provenance::ArtifactId;
        let ledger = Arc::new(Ledger::new());
        let p: Pipeline<Vec<u8>> = Pipeline::builder("records")
            .ledger(ledger.clone())
            .stage("a", S::Transform, |v, _| Ok(v))
            .configured_stage("b", S::Shard, [("k", "v".to_string())], |v: Vec<u8>, c| {
                c.measure("len", v.len());
                c.wrote("out.bin", &v);
                Ok(v)
            })
            .build();
        p.run_with_id(vec![1, 2, 3], Some([9; 16])).unwrap();
        assert_eq!(ledger.len(), 2);
        let blob = ArtifactId::of(&[1, 2, 3]);
        let lineage = ledger.lineage(&blob).unwrap();
        let ops: Vec<&str> = lineage.iter().map(|t| t.operation.as_str()).collect();
        assert_eq!(ops, ["a", "b"]);
        let a = derive(&[9; 16], "a", &[]);
        assert_eq!(lineage[0].inputs, [Artifact::derived(&[9; 16])]);
        assert_eq!(lineage[0].outputs, [Artifact::derived(&a)]);
        assert!(lineage[0].params.is_empty());
        assert_eq!(lineage[1].inputs, [Artifact::derived(&a)]);
        let b = derive(&a, "b", p.fingerprint("b").unwrap());
        let out = Artifact::new("out.bin", &[1, 2, 3]);
        assert_eq!(lineage[1].outputs, [Artifact::derived(&b), out]);
        let params: Vec<(&str, &str)> = lineage[1]
            .params
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        assert_eq!(params, [("k", "v"), ("len", "3")]);
        assert_eq!(ledger.roots(&blob).unwrap(), [Artifact::derived(&[9; 16])]);
        // With no id, a record has no derived artifacts, only what the
        // stage wrote.
        p.run(vec![4]).unwrap();
        assert_eq!(ledger.len(), 4);
        let unnamed = ledger.producer(&ArtifactId::of(&[4])).unwrap();
        assert!(unnamed.inputs.is_empty());
        assert_eq!(unnamed.outputs, [Artifact::new("out.bin", &[4])]);
        // A pipeline with no ledger records nothing.
        Pipeline::builder("unrecorded")
            .stage("a", S::Transform, |v: Vec<u8>, _| Ok(v))
            .build()
            .run_with_id(vec![1], Some([9; 16]))
            .unwrap();
        assert_eq!(ledger.len(), 4);
    }

    /// `a`, `b` and `c` each append their letter and measure `by = fn`;
    /// `b` and `c` also have a fast path that hits (`by = hit`) with the
    /// output they would make of an empty input. Each hit's decode is
    /// counted in `decodes` and, where `undecodable` says so, fails;
    /// `b`'s function fails too when `b_fails`.
    fn stored_hits(
        undecodable: [bool; 2],
        b_fails: bool,
        decodes: &Arc<[std::sync::atomic::AtomicU32; 2]>,
        ledger: &Arc<Ledger>,
    ) -> Pipeline<Vec<u8>> {
        use std::sync::atomic::Ordering;
        let append = |letter: u8, fails: bool| {
            move |mut v: Vec<u8>, c: &mut StageCounters| {
                if fails {
                    return Err(format!("{} broke", letter as char));
                }
                v.push(letter);
                c.measure("by", "fn");
                Ok(v)
            }
        };
        let mut p = Pipeline::builder("hits")
            .ledger(ledger.clone())
            .stage("a", S::Transform, append(b'a', false))
            .stage("b", S::Transform, append(b'b', b_fails))
            .stage("c", S::Transform, append(b'c', false))
            .build();
        for (i, (stage, stored)) in [("b", b"ab".to_vec()), ("c", b"abc".to_vec())]
            .into_iter()
            .enumerate()
        {
            let (decodes, bad) = (decodes.clone(), undecodable[i]);
            p = p.decorate_stage(stage, move |func| {
                let fast = move |_: &mut Item<Vec<u8>>, c: &mut StageCounters| {
                    c.measure("by", "hit");
                    let (decodes, stored) = (decodes.clone(), stored.clone());
                    FastPath::Hit(Box::new(move || {
                        decodes[i].fetch_add(1, Ordering::SeqCst);
                        (!bad).then_some(stored)
                    }))
                };
                (func, Some(Arc::new(fast)))
            });
        }
        p
    }

    /// A hit is decoded only when its output is needed — here only `c`'s,
    /// at the end of the run — and one that does not decode is recomputed
    /// from its input, decoded (or recomputed) first. Either way the item
    /// gets one record per stage, in stage order: a hit's, written when
    /// it hit, stands for its recomputation.
    #[test]
    fn hits_are_decoded_when_needed_and_recorded_in_stage_order() {
        use crate::executor::{ExecutorConfig, StreamingBatchExt};
        use std::sync::atomic::{AtomicU32, Ordering};
        for (undecodable, want_decodes) in [
            ([false, false], [0, 1]),
            ([true, false], [0, 1]),
            ([false, true], [1, 1]),
            ([true, true], [1, 1]),
        ] {
            for streaming in [false, true] {
                let decodes: Arc<[AtomicU32; 2]> = Arc::default();
                let ledger = Arc::new(Ledger::new());
                let p = stored_hits(undecodable, false, &decodes, &ledger);
                let output = if streaming {
                    let cfg = ExecutorConfig::default();
                    p.run_batch_streaming(vec![Vec::new()], &cfg)
                        .unwrap()
                        .0
                        .remove(0)
                } else {
                    p.run_with_id(Vec::new(), Some([1; 16])).unwrap().output
                };
                let case = format!("undecodable {undecodable:?}, streaming {streaming}");
                assert_eq!(output, b"abc", "{case}");
                let decoded = decodes.each_ref().map(|n| n.load(Ordering::SeqCst));
                assert_eq!(decoded, want_decodes, "{case}");
                let records = ledger.transformations();
                let ops: Vec<&str> = records.iter().map(|t| t.operation.as_str()).collect();
                assert_eq!(ops, ["a", "b", "c"], "{case}");
                let by: Vec<&str> = records.iter().map(|t| t.params["by"].as_str()).collect();
                assert_eq!(by, ["fn", "hit", "hit"], "{case}");
            }
        }
    }

    /// An item cancelled at a stage boundary after a hit keeps the hit's
    /// record, as it keeps those of the stages its functions ran.
    #[test]
    fn a_cancelled_item_keeps_the_records_of_its_hits() {
        use crate::executor::{CancelToken, ExecutorConfig, StreamingBatchExt};
        let ledger = Arc::new(Ledger::new());
        let token = CancelToken::new();
        let trigger = token.clone();
        // The token fires in `b`'s probe, so the item goes at the
        // boundary before `c`, its hit at `b` not decoded.
        let p: Pipeline<Vec<u8>> = Pipeline::builder("cancel-hits")
            .ledger(ledger.clone())
            .stage("a", S::Transform, |v, _| Ok(v))
            .stage("b", S::Transform, |v, _| Ok(v))
            .stage("c", S::Transform, |_, _| Err("c ran".to_string()))
            .build()
            .decorate_stage("b", move |func| {
                let fast = move |_: &mut Item<Vec<u8>>, _: &mut StageCounters| {
                    trigger.cancel();
                    FastPath::Hit(Box::new(|| None))
                };
                (func, Some(Arc::new(fast)))
            });
        let cfg = ExecutorConfig::default();
        match p.run_batch_streaming_cancellable(vec![Vec::new()], &cfg, &token) {
            Err(CoreError::Stage { message, .. }) => assert_eq!(message, "batch cancelled"),
            other => panic!("{other:?}"),
        }
        let records = ledger.transformations();
        let ops: Vec<&str> = records.iter().map(|t| t.operation.as_str()).collect();
        assert_eq!(ops, ["a", "b"]);
    }

    /// A recomputation that fails fails the run, naming the stage whose
    /// function failed.
    #[test]
    fn a_failed_recomputation_names_its_stage() {
        let decodes = Arc::default();
        let ledger = Arc::new(Ledger::new());
        let p = stored_hits([true, true], true, &decodes, &ledger);
        match p.run(Vec::new()) {
            Err(CoreError::Stage { stage, message }) => {
                assert_eq!((stage.as_str(), message.as_str()), ("b", "b broke"));
            }
            other => panic!("{other:?}"),
        }
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
