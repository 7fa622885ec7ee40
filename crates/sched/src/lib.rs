//! Multi-tenant job scheduler over the streaming executor.
//!
//! The paper frames readiness processing as shared facility
//! infrastructure: many users submit heterogeneous preprocessing jobs
//! to one service. This crate supplies the missing layer between
//! callers and `Pipeline`/`run_batch_streaming` — a [`Scheduler`] that
//! accepts [`JobSpec`]s (tenant id, priority class, deadline hint,
//! cost estimate, boxed pipeline invocation) into per-tenant bounded
//! queues and dispatches them onto a worker pool driving
//! `drai_core::executor`.
//!
//! Design:
//!
//! * **Weighted-fair dequeue** — deficit round-robin across tenants:
//!   each visit grants `quantum × weight` deficit, a tenant is served
//!   while its deficit covers the head job's cost, and within a tenant
//!   the highest priority class preempts at dequeue. Two equal-weight
//!   tenants submitting equal-cost jobs complete within ±1 job of each
//!   other at every dispatch step; a weight-2 tenant gets 2× the
//!   throughput.
//! * **Admission control** — typed [`Rejected`] errors
//!   (`Backpressure` on queue depth, `QuotaExceeded` on token-bucket
//!   rate limits or outstanding-cost quotas, `DeadlineInfeasible` when
//!   the projected completion under current load misses the hint);
//!   never a silent drop.
//! * **Load shedding** — when total queued cost exceeds the configured
//!   watermark, jobs are shed lowest-priority-class first, then
//!   furthest deadline, then most recently submitted; every victim's
//!   [`JobHandle`] observes a typed [`JobOutcome::Shed`].
//! * **Deterministic time** — rate limits, deadlines and wait/run
//!   latencies read an injectable [`Clock`]
//!   (a `Stopwatch` in production, `ManualClock` in tests), so
//!   every fairness and shedding property is bitwise reproducible.
//! * **Cancellation** — each job carries a `drai_core::CancelToken`;
//!   cancelling a queued job purges it at dequeue, cancelling a
//!   running job makes `run_batch_streaming_cancellable` drain and the
//!   outcome report [`JobOutcome::Cancelled`].
//!
//! Telemetry (declared in the private `names` module):
//! `sched.submitted`/`sched.admitted`/`sched.rejected.*` admission
//! counters, `sched.shed`/`sched.dispatched`/`sched.completed`/
//! `sched.failed`/`sched.cancelled` lifecycle counters, `sched.queued`
//! / `sched.queued_cost` / `sched.inflight_cost` /
//! `sched.tenant.<tenant>.queued` gauges, `sched.wait_ns` /
//! `sched.run_ns` histograms and a `sched.job.<tenant>` span per
//! dispatch. [`scheduler_health_spec`] packages the overload and
//! stall signals as `drai_telemetry::monitor` health rules.

use drai_core::{CancelToken, ExecutorConfig};
use drai_telemetry::monitor::{Condition, HealthSpec};
use drai_telemetry::{clock::Clock, GaugeGuard, Registry, Stopwatch, TraceContext};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The metric and span names this crate writes (`drai_telemetry::Name`).
/// A hole is a tenant id as [`sanitize_tenant`] maps it.
mod names {
    use drai_telemetry::{Counter, Gauge, Histogram, Name, Span};

    pub(crate) const SUBMITTED: Name<Counter> = Name::declare("sched.submitted");
    pub(crate) const ADMITTED: Name<Counter> = Name::declare("sched.admitted");
    pub(crate) const REJECTED_BACKPRESSURE: Name<Counter> =
        Name::declare("sched.rejected.backpressure");
    pub(crate) const REJECTED_QUOTA: Name<Counter> = Name::declare("sched.rejected.quota");
    pub(crate) const REJECTED_DEADLINE: Name<Counter> = Name::declare("sched.rejected.deadline");
    pub(crate) const SHED: Name<Counter> = Name::declare("sched.shed");
    pub(crate) const DISPATCHED: Name<Counter> = Name::declare("sched.dispatched");
    pub(crate) const COMPLETED: Name<Counter> = Name::declare("sched.completed");
    pub(crate) const FAILED: Name<Counter> = Name::declare("sched.failed");
    pub(crate) const CANCELLED: Name<Counter> = Name::declare("sched.cancelled");
    pub(crate) const QUEUED: Name<Gauge> = Name::declare("sched.queued");
    pub(crate) const QUEUED_COST: Name<Gauge> = Name::declare("sched.queued_cost");
    pub(crate) const INFLIGHT_COST: Name<Gauge> = Name::declare("sched.inflight_cost");
    pub(crate) const TENANT_QUEUED: Name<Gauge, 1> = Name::declare("sched.tenant.{}.queued");
    pub(crate) const WAIT_NS: Name<Histogram> = Name::declare("sched.wait_ns");
    pub(crate) const RUN_NS: Name<Histogram> = Name::declare("sched.run_ns");
    pub(crate) const JOB: Name<Span, 1> = Name::declare("sched.job.{}");
}

/// Priority class of a job. Within one tenant the highest class
/// present is always dequeued first (preemption at dequeue); under
/// overload the scheduler sheds the lowest class first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Bulk/backfill work: first to be shed, last to be dequeued.
    Batch,
    /// Default class.
    Normal,
    /// Latency-sensitive work: dequeued ahead of everything else.
    Interactive,
}

impl Priority {
    /// Queue index, 0 = lowest class.
    fn index(self) -> usize {
        match self {
            Priority::Batch => 0,
            Priority::Normal => 1,
            Priority::Interactive => 2,
        }
    }

    /// Stable lowercase label (used in transcripts).
    pub fn label(self) -> &'static str {
        match self {
            Priority::Batch => "batch",
            Priority::Normal => "normal",
            Priority::Interactive => "interactive",
        }
    }
}

/// What a job closure gets from the scheduler: the executor
/// configuration to drive pipelines with and the cooperative
/// cancellation token to thread into
/// `run_batch_streaming_cancellable`.
#[derive(Debug, Clone)]
pub struct JobContext {
    /// Executor tuning the scheduler was configured with.
    pub exec: ExecutorConfig,
    /// Fires when the job is cancelled; long-running work should pass
    /// it to the executor (or poll it) so shedding takes effect.
    pub cancel: CancelToken,
}

/// Result payload of a successful job.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobOutput {
    /// Items the job processed (batch members, shots, patients, ...).
    pub items: u64,
    /// Free-form result description for logs/transcripts.
    pub detail: String,
}

/// The boxed pipeline invocation a [`JobSpec`] carries.
pub type JobFn = Box<dyn FnOnce(&JobContext) -> Result<JobOutput, String> + Send + 'static>;

/// A job submission: who, how urgent, how big, and what to run.
pub struct JobSpec {
    tenant: String,
    label: String,
    priority: Priority,
    deadline: Option<Duration>,
    cost: u64,
    run: JobFn,
}

impl JobSpec {
    /// New job for `tenant` with a display `label`, an abstract `cost`
    /// estimate (clamped to ≥ 1; the unit is whatever the deployment's
    /// quotas are denominated in — e.g. batch members) and the closure
    /// to run. Defaults to [`Priority::Normal`] and no deadline.
    pub fn new(
        tenant: impl Into<String>,
        label: impl Into<String>,
        cost: u64,
        run: impl FnOnce(&JobContext) -> Result<JobOutput, String> + Send + 'static,
    ) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            label: label.into(),
            priority: Priority::Normal,
            deadline: None,
            cost: cost.max(1),
            run: Box::new(run),
        }
    }

    /// Set the priority class.
    pub fn priority(mut self, p: Priority) -> JobSpec {
        self.priority = p;
        self
    }

    /// Set a completion-deadline hint relative to submission time.
    /// Admission rejects `DeadlineInfeasible` when projected queue
    /// drain under current load already misses it.
    pub fn deadline(mut self, d: Duration) -> JobSpec {
        self.deadline = Some(d);
        self
    }
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("tenant", &self.tenant)
            .field("label", &self.label)
            .field("priority", &self.priority)
            .field("deadline", &self.deadline)
            .field("cost", &self.cost)
            .finish_non_exhaustive()
    }
}

/// Typed admission rejection. Every rejected submission surfaces one
/// of these — the scheduler never drops work silently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The tenant's bounded queue is full.
    Backpressure {
        /// Tenant id, as submitted.
        tenant: String,
        /// Jobs currently queued for the tenant.
        queued: usize,
        /// The tenant's `max_queued` limit.
        limit: usize,
    },
    /// The tenant's token bucket or outstanding-cost quota cannot
    /// cover the job's cost.
    QuotaExceeded {
        /// Tenant id, as submitted.
        tenant: String,
        /// Cost the job needs admitted.
        needed: u64,
        /// Cost currently available under the limiting quota.
        available: u64,
    },
    /// Projected completion under current queued + in-flight load
    /// already misses the job's deadline hint.
    DeadlineInfeasible {
        /// Tenant id, as submitted.
        tenant: String,
        /// Absolute deadline (ns on the scheduler clock).
        deadline_ns: u64,
        /// Projected completion (ns on the scheduler clock).
        projected_ns: u64,
    },
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::Backpressure {
                tenant,
                queued,
                limit,
            } => write!(
                f,
                "backpressure: tenant {tenant} queue full ({queued}/{limit})"
            ),
            Rejected::QuotaExceeded {
                tenant,
                needed,
                available,
            } => write!(
                f,
                "quota exceeded: tenant {tenant} needs cost {needed}, {available} available"
            ),
            Rejected::DeadlineInfeasible {
                tenant,
                deadline_ns,
                projected_ns,
            } => write!(
                f,
                "deadline infeasible: tenant {tenant} deadline {deadline_ns}ns, projected {projected_ns}ns"
            ),
        }
    }
}

impl std::error::Error for Rejected {}

/// Terminal state of an admitted job, observed via [`JobHandle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// The closure returned `Ok`.
    Completed(JobOutput),
    /// The closure returned `Err` or panicked.
    Failed {
        /// The error string (panics become `"job panicked"`).
        error: String,
    },
    /// The scheduler shed the job under overload before it ran.
    Shed {
        /// Total queued cost at the shedding decision.
        queued_cost: u64,
        /// The configured shed watermark that was exceeded.
        watermark: u64,
    },
    /// The job's [`CancelToken`] fired (while queued, or while running
    /// and the closure reported the cancellation).
    Cancelled,
}

/// Caller-side handle to one admitted job.
#[derive(Debug)]
pub struct JobHandle {
    id: u64,
    tenant: String,
    cancel: CancelToken,
    rx: mpsc::Receiver<JobOutcome>,
    cached: Option<JobOutcome>,
}

impl JobHandle {
    /// Scheduler-assigned job id (submission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Tenant the job was admitted under, as submitted.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Fire the job's [`CancelToken`]. Queued jobs are purged at
    /// dequeue; running jobs drain cooperatively.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Outcome if already available, without blocking.
    pub fn try_outcome(&mut self) -> Option<JobOutcome> {
        if self.cached.is_none() {
            if let Ok(out) = self.rx.try_recv() {
                self.cached = Some(out);
            }
        }
        self.cached.clone()
    }

    /// Block until the outcome arrives. A scheduler dropped with the
    /// job still queued yields a `Failed` outcome (never a hang).
    pub fn wait(self) -> JobOutcome {
        if let Some(out) = self.cached {
            return out;
        }
        parking_lot::blocking(|| self.rx.recv()).unwrap_or(JobOutcome::Failed {
            error: "scheduler dropped before the job ran".to_string(),
        })
    }
}

/// Token-bucket rate limit: sustained `cost_per_sec` with bursts up to
/// `burst` cost units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Sustained admission rate in cost units per second.
    pub cost_per_sec: u64,
    /// Bucket capacity in cost units (also the initial fill).
    pub burst: u64,
}

/// Per-tenant configuration.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    id: String,
    weight: u32,
    max_queued: usize,
    rate: Option<RateLimit>,
    cost_quota: Option<u64>,
}

impl TenantConfig {
    /// New tenant with weight 1, a 64-job queue bound, no rate limit
    /// and no cost quota. The id keys the tenant as given; only where it
    /// becomes a metric-name segment (`sched.tenant.<t>.queued`,
    /// `sched.job.<t>`) is it mapped onto `[a-z0-9_]+`, so two ids that
    /// map alike (`Lab A`, `lab_a`) are two tenants writing one series.
    pub fn new(id: impl Into<String>) -> TenantConfig {
        TenantConfig {
            id: id.into(),
            weight: 1,
            max_queued: 64,
            rate: None,
            cost_quota: None,
        }
    }

    /// Deficit-round-robin weight (clamped to ≥ 1): a weight-2 tenant
    /// is granted twice the deficit per visit, i.e. 2× throughput
    /// under contention.
    pub fn weight(mut self, w: u32) -> TenantConfig {
        self.weight = w.max(1);
        self
    }

    /// Bound on queued (not yet dispatched) jobs; submissions beyond
    /// it are rejected with [`Rejected::Backpressure`].
    pub fn max_queued(mut self, n: usize) -> TenantConfig {
        self.max_queued = n.max(1);
        self
    }

    /// Token-bucket rate limit on admitted cost.
    pub fn rate(mut self, r: RateLimit) -> TenantConfig {
        self.rate = Some(r);
        self
    }

    /// Cap on outstanding (queued + in-flight) cost.
    pub fn cost_quota(mut self, q: u64) -> TenantConfig {
        self.cost_quota = Some(q);
        self
    }

    /// Tenant id, as given.
    pub fn id(&self) -> &str {
        &self.id
    }
}

/// Scheduler-wide configuration.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Deficit granted per tenant visit is `quantum × weight` (clamped
    /// to ≥ 1). With `quantum == job cost`, equal-weight tenants
    /// alternate strictly.
    pub quantum: u64,
    /// Total in-flight cost admitted to dispatch at once. A job whose
    /// cost alone exceeds this still dispatches when nothing is in
    /// flight (no permanent starvation of big jobs).
    pub max_inflight_cost: u64,
    /// Total queued cost above which load shedding starts.
    pub shed_watermark: u64,
    /// Projected ns to retire one cost unit; the deadline-feasibility
    /// model is `(queued + inflight + new) × cost_ns_per_unit`.
    pub cost_ns_per_unit: u64,
    /// Executor tuning handed to every job via [`JobContext`].
    pub exec: ExecutorConfig,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            quantum: 1,
            max_inflight_cost: 64,
            shed_watermark: 256,
            cost_ns_per_unit: 1_000_000,
            exec: ExecutorConfig::default(),
        }
    }
}

/// Integer token bucket on the scheduler clock. Tokens are stored
/// scaled by 1e9 so refill is exact integer math — bitwise
/// deterministic under `ManualClock`.
#[derive(Debug)]
struct TokenBucket {
    scaled: u128,
    cost_per_sec: u64,
    burst: u64,
    last_ns: u64,
}

const TOKEN_SCALE: u128 = 1_000_000_000;

impl TokenBucket {
    fn new(limit: RateLimit, now_ns: u64) -> TokenBucket {
        TokenBucket {
            scaled: limit.burst as u128 * TOKEN_SCALE,
            cost_per_sec: limit.cost_per_sec,
            burst: limit.burst,
            last_ns: now_ns,
        }
    }

    fn refill(&mut self, now_ns: u64) {
        let elapsed = now_ns.saturating_sub(self.last_ns);
        self.last_ns = now_ns;
        let added = elapsed as u128 * self.cost_per_sec as u128;
        let cap = self.burst as u128 * TOKEN_SCALE;
        self.scaled = (self.scaled + added).min(cap);
    }

    fn available(&self) -> u64 {
        (self.scaled / TOKEN_SCALE) as u64
    }

    fn try_spend(&mut self, cost: u64) -> bool {
        let need = cost as u128 * TOKEN_SCALE;
        if self.scaled >= need {
            self.scaled -= need;
            true
        } else {
            false
        }
    }
}

/// One admitted, not-yet-dispatched job.
struct QueuedJob {
    id: u64,
    label: String,
    priority: Priority,
    cost: u64,
    deadline_ns: Option<u64>,
    submitted_ns: u64,
    run: JobFn,
    cancel: CancelToken,
    tx: mpsc::Sender<JobOutcome>,
    /// The job's share of `sched.queued`, `sched.queued_cost` and
    /// `sched.tenant.<t>.queued` in the submitter's registry, held for as
    /// long as the job is queued: dispatch trades them for an
    /// `sched.inflight_cost` guard, and a shed, a cancel while queued or
    /// a dropped scheduler drops them with the job.
    queued: [GaugeGuard; 3],
}

struct TenantState {
    cfg: TenantConfig,
    /// One FIFO per priority class, indexed by [`Priority::index`].
    queues: [VecDeque<QueuedJob>; 3],
    deficit: u64,
    /// Whether the next DRR visit should grant fresh deficit.
    fresh_visit: bool,
    bucket: Option<TokenBucket>,
    /// Queued + in-flight cost, charged against `cost_quota`.
    outstanding: u64,
}

impl TenantState {
    fn new(cfg: TenantConfig, now_ns: u64) -> TenantState {
        let bucket = cfg.rate.map(|r| TokenBucket::new(r, now_ns));
        TenantState {
            cfg,
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            deficit: 0,
            fresh_visit: true,
            bucket,
            outstanding: 0,
        }
    }

    fn queued_len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Highest nonempty priority queue (preemption at dequeue).
    fn head_class(&self) -> Option<usize> {
        (0..3).rev().find(|&pi| !self.queues[pi].is_empty())
    }
}

struct State {
    tenants: BTreeMap<String, TenantState>,
    /// Tenants with queued work, in DRR visiting order.
    active: Vec<String>,
    cursor: usize,
    next_id: u64,
    inflight_cost: u64,
    queued_cost_total: u64,
}

enum Taken {
    Run(QueuedJob, String),
    CancelledInQueue(QueuedJob),
}

/// One dispatch, as recorded by [`Scheduler::dispatch_next`] — the
/// transcript material the fairness tests compare bitwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dispatched {
    /// Scheduler-assigned job id.
    pub id: u64,
    /// Tenant id, as submitted.
    pub tenant: String,
    /// Caller-supplied label.
    pub label: String,
    /// Priority class at submission.
    pub priority: Priority,
    /// Admitted cost estimate.
    pub cost: u64,
    /// How the job ended.
    pub outcome: JobOutcome,
}

impl std::fmt::Display for Dispatched {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let outcome = match &self.outcome {
            JobOutcome::Completed(out) => format!("completed(items={})", out.items),
            JobOutcome::Failed { error } => format!("failed({error})"),
            JobOutcome::Shed {
                queued_cost,
                watermark,
            } => format!("shed({queued_cost}>{watermark})"),
            JobOutcome::Cancelled => "cancelled".to_string(),
        };
        write!(
            f,
            "#{} {}/{} {} cost={} {}",
            self.id,
            self.tenant,
            self.label,
            self.priority.label(),
            self.cost,
            outcome
        )
    }
}

/// Multi-tenant weighted-fair scheduler; see the crate docs for the
/// model. Cheap to share via `Arc` (workers, submitters and monitors
/// hold clones of the same instance).
pub struct Scheduler {
    cfg: SchedulerConfig,
    clock: Arc<dyn Clock>,
    state: Mutex<State>,
    wakers: Mutex<Vec<mpsc::Sender<()>>>,
    stopping: AtomicBool,
}

/// Map a tenant id onto one lowercase `[a-z0-9_]+` metric segment
/// (empty input becomes `anon`), so `sched.tenant.<t>.queued` and
/// `sched.job.<t>` always satisfy the telemetry naming grammar. An id
/// that already is one is returned as it is.
fn sanitize_tenant(raw: &str) -> Cow<'_, str> {
    let in_segment = |c: char| matches!(c, 'a'..='z' | '0'..='9' | '_');
    if raw.is_empty() {
        "anon".into()
    } else if raw.chars().all(in_segment) {
        raw.into()
    } else {
        raw.chars()
            .map(|c| c.to_ascii_lowercase())
            .map(|c| if in_segment(c) { c } else { '_' })
            .collect::<String>()
            .into()
    }
}

/// Default monitor health rules for a scheduler under `cfg`:
///
/// - `sched_overloaded`: the `sched.queued_cost` window watermark
///   exceeded the shed watermark — load shedding is (about to be)
///   active. `MonitorReport::diagnose` names the saturated tenant from
///   the `sched.tenant.<t>.queued` series.
/// - `sched_stalled`: `sched.completed` went 8 consecutive samples
///   without a job finishing while work was pending.
pub fn scheduler_health_spec(cfg: &SchedulerConfig) -> HealthSpec {
    let watermark = cfg.shed_watermark.min(i64::MAX as u64) as i64;
    HealthSpec::new()
        .rule(
            "sched_overloaded",
            &names::QUEUED_COST,
            Condition::GaugeAbove(watermark),
        )
        .rule("sched_stalled", &names::COMPLETED, Condition::StallFor(8))
}

impl Scheduler {
    /// Scheduler on the wall clock.
    pub fn new(cfg: SchedulerConfig) -> Scheduler {
        Scheduler::with_clock(cfg, Arc::new(Stopwatch::start()))
    }

    /// Scheduler on an injected clock (tests pass
    /// `drai_telemetry::clock::ManualClock` for bitwise-deterministic
    /// rate-limit, deadline and latency behaviour).
    pub fn with_clock(cfg: SchedulerConfig, clock: Arc<dyn Clock>) -> Scheduler {
        Scheduler {
            cfg,
            clock,
            state: Mutex::new(State {
                tenants: BTreeMap::new(),
                active: Vec::new(),
                cursor: 0,
                next_id: 0,
                inflight_cost: 0,
                queued_cost_total: 0,
            }),
            wakers: Mutex::new(Vec::new()),
            stopping: AtomicBool::new(false),
        }
    }

    /// The configuration the scheduler runs under.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Register (or replace the configuration of) a tenant. Unknown
    /// tenants are auto-registered at first submit with
    /// `TenantConfig::new` defaults; explicit registration is how
    /// weights, queue bounds, rate limits and quotas are set.
    pub fn register_tenant(&self, cfg: TenantConfig) {
        let now = self.clock.now_ns();
        let mut st = self.state.lock();
        match st.tenants.get_mut(&cfg.id) {
            Some(ts) => {
                ts.bucket = cfg.rate.map(|r| TokenBucket::new(r, now));
                ts.cfg = cfg;
            }
            None => {
                let id = cfg.id.clone();
                st.tenants.insert(id, TenantState::new(cfg, now));
            }
        }
    }

    /// Jobs queued (admitted, not yet dispatched) across all tenants.
    pub fn pending_jobs(&self) -> usize {
        let st = self.state.lock();
        st.tenants.values().map(TenantState::queued_len).sum()
    }

    /// Jobs queued for one tenant.
    pub fn tenant_depth(&self, tenant: &str) -> usize {
        let st = self.state.lock();
        st.tenants.get(tenant).map_or(0, TenantState::queued_len)
    }

    /// Submit a job. `Ok` returns a [`JobHandle`] whose outcome is
    /// guaranteed to arrive (completed, failed, shed or cancelled);
    /// `Err` is a typed [`Rejected`]. Either way nothing is ever
    /// dropped silently.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, Rejected> {
        let registry = Registry::current();
        registry.handle(&names::SUBMITTED, []).incr();
        let now = self.clock.now_ns();
        let tenant = spec.tenant;
        let (tx, rx) = mpsc::channel();
        let cancel = CancelToken::new();
        let cost = spec.cost;
        // Resolved before the state lock: a registry lookup may take the
        // registry's own locks.
        let [jobs, queued_cost, tenant_jobs] = [
            registry.handle(&names::QUEUED, []),
            registry.handle(&names::QUEUED_COST, []),
            registry.handle(&names::TENANT_QUEUED, [&sanitize_tenant(&tenant)]),
        ];

        let admitted: Result<(u64, Vec<(QueuedJob, u64)>), Rejected> = {
            let mut st = self.state.lock();
            let st = &mut *st;
            if !st.tenants.contains_key(&tenant) {
                st.tenants.insert(
                    tenant.clone(),
                    TenantState::new(TenantConfig::new(tenant.clone()), now),
                );
            }
            let ts = st.tenants.get_mut(&tenant).expect("tenant inserted above");

            let queued = ts.queued_len();
            if queued >= ts.cfg.max_queued {
                Err(Rejected::Backpressure {
                    tenant: tenant.clone(),
                    queued,
                    limit: ts.cfg.max_queued,
                })
            } else if ts
                .bucket
                .as_mut()
                .map(|b| {
                    b.refill(now);
                    b.available()
                })
                .is_some_and(|avail| avail < cost)
            {
                let available = ts.bucket.as_ref().map_or(0, TokenBucket::available);
                Err(Rejected::QuotaExceeded {
                    tenant: tenant.clone(),
                    needed: cost,
                    available,
                })
            } else if ts.cfg.cost_quota.is_some_and(|q| ts.outstanding + cost > q) {
                let quota = ts.cfg.cost_quota.unwrap_or(0);
                Err(Rejected::QuotaExceeded {
                    tenant: tenant.clone(),
                    needed: ts.outstanding + cost,
                    available: quota,
                })
            } else if let Some(infeasible) = spec.deadline.and_then(|d| {
                let deadline_ns =
                    now.saturating_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
                let backlog = st.queued_cost_total + st.inflight_cost + cost;
                let projected_ns =
                    now.saturating_add(backlog.saturating_mul(self.cfg.cost_ns_per_unit));
                (projected_ns > deadline_ns).then_some((deadline_ns, projected_ns))
            }) {
                Err(Rejected::DeadlineInfeasible {
                    tenant: tenant.clone(),
                    deadline_ns: infeasible.0,
                    projected_ns: infeasible.1,
                })
            } else {
                if let Some(b) = ts.bucket.as_mut() {
                    b.try_spend(cost);
                }
                let id = st.next_id;
                st.next_id += 1;
                let deadline_ns = spec
                    .deadline
                    .map(|d| now.saturating_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)));
                ts.queues[spec.priority.index()].push_back(QueuedJob {
                    id,
                    label: spec.label,
                    priority: spec.priority,
                    cost,
                    deadline_ns,
                    submitted_ns: now,
                    run: spec.run,
                    cancel: cancel.clone(),
                    tx: tx.clone(),
                    queued: [
                        GaugeGuard::new(jobs, 1),
                        GaugeGuard::new(queued_cost, cost as i64),
                        GaugeGuard::new(tenant_jobs, 1),
                    ],
                });
                ts.outstanding += cost;
                st.queued_cost_total += cost;
                if !st.active.iter().any(|t| t == &tenant) {
                    st.active.push(tenant.clone());
                }

                // Overload: shed lowest class, then furthest deadline,
                // then most recently submitted, until under watermark.
                let mut victims = Vec::new();
                while st.queued_cost_total > self.cfg.shed_watermark {
                    let Some((vt, pi, pos)) = pick_shed_victim(st) else {
                        break;
                    };
                    let queued_cost_at_decision = st.queued_cost_total;
                    let Some(vts) = st.tenants.get_mut(&vt) else {
                        break;
                    };
                    let Some(job) = vts.queues[pi].remove(pos) else {
                        break;
                    };
                    vts.outstanding = vts.outstanding.saturating_sub(job.cost);
                    st.queued_cost_total = st.queued_cost_total.saturating_sub(job.cost);
                    victims.push((job, queued_cost_at_decision));
                }
                Ok((id, victims))
            }
        };

        match admitted {
            Ok((id, victims)) => {
                registry.handle(&names::ADMITTED, []).incr();
                for (job, queued_cost) in victims {
                    registry.handle(&names::SHED, []).incr();
                    drop(job.queued);
                    let _ = job.tx.send(JobOutcome::Shed {
                        queued_cost,
                        watermark: self.cfg.shed_watermark,
                    });
                }
                let wakers = self.wakers.lock().clone();
                for w in wakers {
                    let _ = w.send(());
                }
                Ok(JobHandle {
                    id,
                    tenant,
                    cancel,
                    rx,
                    cached: None,
                })
            }
            Err(rej) => {
                match &rej {
                    Rejected::Backpressure { .. } => {
                        registry.handle(&names::REJECTED_BACKPRESSURE, []).incr()
                    }
                    Rejected::QuotaExceeded { .. } => {
                        registry.handle(&names::REJECTED_QUOTA, []).incr()
                    }
                    Rejected::DeadlineInfeasible { .. } => {
                        registry.handle(&names::REJECTED_DEADLINE, []).incr()
                    }
                }
                Err(rej)
            }
        }
    }

    /// Deficit-round-robin dequeue. Returns `None` when no queued job
    /// can run (all queues empty, or the in-flight gate blocks every
    /// head).
    fn take_runnable(&self, st: &mut State) -> Option<Taken> {
        let gate = |cost: u64, inflight: u64| {
            inflight == 0 || inflight + cost <= self.cfg.max_inflight_cost
        };
        // Termination precheck: some tenant's head must pass the
        // in-flight gate, otherwise deficit growth can never help.
        let inflight = st.inflight_cost;
        let any_pass = st.active.iter().any(|t| {
            st.tenants.get(t).is_some_and(|ts| {
                ts.head_class()
                    .and_then(|pi| ts.queues[pi].front())
                    .is_some_and(|job| gate(job.cost, inflight))
            })
        });
        if !any_pass {
            return None;
        }
        loop {
            if st.active.is_empty() {
                return None;
            }
            if st.cursor >= st.active.len() {
                st.cursor = 0;
            }
            let tid = st.active[st.cursor].clone();
            let Some(ts) = st.tenants.get_mut(&tid) else {
                st.active.remove(st.cursor);
                continue;
            };
            let Some(pi) = ts.head_class() else {
                // Drained tenant: reset its DRR state and retire it
                // from the active ring.
                ts.deficit = 0;
                ts.fresh_visit = true;
                st.active.remove(st.cursor);
                continue;
            };
            let head_cancelled = ts.queues[pi]
                .front()
                .is_some_and(|j| j.cancel.is_cancelled());
            if head_cancelled {
                if let Some(job) = ts.queues[pi].pop_front() {
                    // Purged, not served: no deficit charge.
                    ts.outstanding = ts.outstanding.saturating_sub(job.cost);
                    st.queued_cost_total = st.queued_cost_total.saturating_sub(job.cost);
                    return Some(Taken::CancelledInQueue(job));
                }
                continue;
            }
            let head_cost = ts.queues[pi].front().map_or(1, |j| j.cost);
            if ts.fresh_visit {
                ts.deficit = ts
                    .deficit
                    .saturating_add(self.cfg.quantum.max(1).saturating_mul(ts.cfg.weight as u64));
                ts.fresh_visit = false;
            }
            if ts.deficit >= head_cost {
                if gate(head_cost, st.inflight_cost) {
                    if let Some(job) = ts.queues[pi].pop_front() {
                        ts.deficit -= head_cost;
                        st.queued_cost_total = st.queued_cost_total.saturating_sub(job.cost);
                        st.inflight_cost += job.cost;
                        return Some(Taken::Run(job, tid));
                    }
                }
                // Gate-blocked with sufficient deficit: skip without a
                // fresh grant so the deficit does not grow unboundedly
                // while dispatch is throttled.
            } else {
                ts.fresh_visit = true;
            }
            st.cursor = (st.cursor + 1) % st.active.len();
        }
    }

    /// Dequeue and run one job on the calling thread. This is the
    /// deterministic stepping primitive the fairness tests drive;
    /// workers call it in a loop. Cancelled-while-queued jobs are
    /// purged (with a [`JobOutcome::Cancelled`] sent to their handle)
    /// without counting as a dispatch step.
    pub fn dispatch_next(&self) -> Option<Dispatched> {
        let registry = Registry::current();
        loop {
            let taken = {
                let mut st = self.state.lock();
                self.take_runnable(&mut st)
            };
            match taken {
                None => return None,
                Some(Taken::CancelledInQueue(job)) => {
                    registry.handle(&names::CANCELLED, []).incr();
                    drop(job.queued);
                    let _ = job.tx.send(JobOutcome::Cancelled);
                }
                Some(Taken::Run(job, tenant)) => {
                    return Some(self.execute(job, tenant, &registry));
                }
            }
        }
    }

    /// Run one dispatched job to completion and settle its accounting.
    fn execute(&self, job: QueuedJob, tenant: String, registry: &Registry) -> Dispatched {
        registry.handle(&names::DISPATCHED, []).incr();
        let dispatched_ns = self.clock.now_ns();
        registry
            .handle(&names::WAIT_NS, [])
            .record(dispatched_ns.saturating_sub(job.submitted_ns));
        let QueuedJob {
            id,
            label,
            priority,
            cost,
            run,
            cancel,
            tx,
            queued,
            ..
        } = job;
        drop(queued);
        let inflight = GaugeGuard::new(registry.handle(&names::INFLIGHT_COST, []), cost as i64);
        let ctx = JobContext {
            exec: self.cfg.exec.clone(),
            cancel: cancel.clone(),
        };
        let result = {
            let span = registry.span(&names::JOB, [&sanitize_tenant(&tenant)]);
            span.add_items(1);
            let _in_span = span.enter();
            catch_unwind(AssertUnwindSafe(|| (run)(&ctx)))
        };
        registry
            .handle(&names::RUN_NS, [])
            .record(self.clock.now_ns().saturating_sub(dispatched_ns));
        let outcome = match result {
            Err(_payload) => JobOutcome::Failed {
                error: "job panicked".to_string(),
            },
            Ok(Err(_)) if cancel.is_cancelled() => JobOutcome::Cancelled,
            Ok(Err(error)) => JobOutcome::Failed { error },
            Ok(Ok(output)) => JobOutcome::Completed(output),
        };
        match &outcome {
            JobOutcome::Completed(_) => registry.handle(&names::COMPLETED, []).incr(),
            JobOutcome::Failed { .. } => registry.handle(&names::FAILED, []).incr(),
            JobOutcome::Cancelled => registry.handle(&names::CANCELLED, []).incr(),
            JobOutcome::Shed { .. } => registry.handle(&names::SHED, []).incr(),
        }
        {
            let mut st = self.state.lock();
            st.inflight_cost = st.inflight_cost.saturating_sub(cost);
            if let Some(ts) = st.tenants.get_mut(&tenant) {
                ts.outstanding = ts.outstanding.saturating_sub(cost);
            }
        }
        drop(inflight);
        let _ = tx.send(outcome.clone());
        Dispatched {
            id,
            tenant,
            label,
            priority,
            cost,
            outcome,
        }
    }

    /// Drain the queues on the calling thread, returning the dispatch
    /// transcript in order. Deterministic under `ManualClock` — this
    /// is what the fairness properties and the bench scenarios drive.
    pub fn run_until_idle(&self) -> Vec<Dispatched> {
        let mut transcript = Vec::new();
        while let Some(d) = self.dispatch_next() {
            transcript.push(d);
        }
        transcript
    }

    /// Spawn `n` worker threads (clamped to ≥ 1) that drain the queues
    /// until [`Scheduler::shutdown`]. Workers attach the caller's
    /// `TraceContext` captured *now*, so job telemetry lands in the
    /// submitting registry regardless of thread scheduling.
    pub fn start_workers(self: &Arc<Self>, n: usize) -> WorkerPool {
        let context = TraceContext::current();
        let mut handles = Vec::new();
        for _ in 0..n.max(1) {
            let sched = Arc::clone(self);
            let ctx = context.clone();
            let (wake_tx, wake_rx) = mpsc::channel::<()>();
            self.wakers.lock().push(wake_tx);
            handles.push(std::thread::spawn(move || {
                let _attached = ctx.as_ref().map(TraceContext::attach);
                loop {
                    if sched.dispatch_next().is_some() {
                        continue;
                    }
                    if sched.stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    // Parked until a submit wakes us (or a short poll
                    // tick passes, covering gate-released work).
                    let _ =
                        parking_lot::blocking(|| wake_rx.recv_timeout(Duration::from_millis(5)));
                }
            }));
        }
        WorkerPool { handles }
    }

    /// Ask workers to exit once the queues are idle and wake them.
    pub fn shutdown(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        let wakers = self.wakers.lock().clone();
        for w in wakers {
            let _ = w.send(());
        }
    }
}

/// Pick the next shedding victim: lowest priority class first, then
/// furthest deadline (no deadline counts as furthest), then most
/// recently submitted. Returns `(tenant, priority index, position)`.
fn pick_shed_victim(st: &State) -> Option<(String, usize, usize)> {
    let mut best: Option<(String, usize, usize, u64, u64)> = None;
    for (tid, ts) in &st.tenants {
        for (pi, queue) in ts.queues.iter().enumerate() {
            for (pos, job) in queue.iter().enumerate() {
                let deadline_key = job.deadline_ns.unwrap_or(u64::MAX);
                let better = match &best {
                    None => true,
                    Some((_, bpi, _, bdeadline, bid)) => {
                        (
                            pi,
                            std::cmp::Reverse(deadline_key),
                            std::cmp::Reverse(job.id),
                        ) < (*bpi, std::cmp::Reverse(*bdeadline), std::cmp::Reverse(*bid))
                    }
                };
                if better {
                    best = Some((tid.clone(), pi, pos, deadline_key, job.id));
                }
            }
        }
    }
    best.map(|(tid, pi, pos, _, _)| (tid, pi, pos))
}

/// Handle to the threads from [`Scheduler::start_workers`].
pub struct WorkerPool {
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Number of worker threads.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Whether the pool has no threads.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Wait for every worker to exit (call [`Scheduler::shutdown`]
    /// first, or this blocks until someone does).
    pub fn join(self) {
        for h in self.handles {
            let _ = parking_lot::blocking(|| h.join());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drai_telemetry::clock::ManualClock;
    use drai_telemetry::{Registry, Snapshot, TraceContext};

    fn in_registry<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
        let reg = Registry::new();
        let out = TraceContext::root(&reg).scope(f);
        (out, reg.snapshot())
    }

    fn ok_job(items: u64) -> impl FnOnce(&JobContext) -> Result<JobOutput, String> {
        move |_ctx| {
            Ok(JobOutput {
                items,
                detail: String::new(),
            })
        }
    }

    fn manual_sched(cfg: SchedulerConfig) -> (Arc<Scheduler>, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let sched = Arc::new(Scheduler::with_clock(cfg, clock.clone()));
        (sched, clock)
    }

    fn counter(snap: &Snapshot, name: &str) -> u64 {
        snap.counters.get(name).copied().unwrap_or(0)
    }

    #[test]
    fn sanitizes_tenant_ids() {
        assert_eq!(sanitize_tenant("Climate Lab #7"), "climate_lab__7");
        assert_eq!(sanitize_tenant(""), "anon");
        assert_eq!(sanitize_tenant("ok_id9"), "ok_id9");
    }

    /// Ids that map to one metric segment are still two tenants: two
    /// queues, two quotas, one `sched.tenant.lab_a.queued` series.
    #[test]
    fn tenants_whose_ids_sanitize_alike_keep_their_own_quota() {
        let ((spaced, plain, depths), snap) = in_registry(|| {
            let (sched, _clock) = manual_sched(SchedulerConfig::default());
            sched.register_tenant(TenantConfig::new("lab_a").cost_quota(1));
            let spaced = sched.submit(JobSpec::new("Lab A", "x", 1, ok_job(1)));
            let plain = sched.submit(JobSpec::new("lab_a", "y", 1, ok_job(1)));
            let depths = (sched.tenant_depth("Lab A"), sched.tenant_depth("lab_a"));
            (
                spaced.map(|h| h.tenant().to_string()),
                plain.map(|h| h.tenant().to_string()),
                depths,
            )
        });
        assert_eq!(plain, Ok("lab_a".to_string()), "lab_a's quota is its own");
        assert_eq!(spaced, Ok("Lab A".to_string()));
        assert_eq!(depths, (1, 1));
        // Both jobs were queued at once (the dropped scheduler lowered it).
        assert_eq!(snap.gauges["sched.tenant.lab_a.queued"].max, 2);
        assert_eq!(TenantConfig::new("Lab A").id(), "Lab A");
    }

    #[test]
    fn token_bucket_refills_deterministically() {
        let mut b = TokenBucket::new(
            RateLimit {
                cost_per_sec: 10,
                burst: 5,
            },
            0,
        );
        assert_eq!(b.available(), 5);
        assert!(b.try_spend(5));
        assert_eq!(b.available(), 0);
        assert!(!b.try_spend(1));
        // 100 ms at 10/s = 1 token, exactly.
        b.refill(100_000_000);
        assert_eq!(b.available(), 1);
        // Refill caps at burst.
        b.refill(100_000_000 + 10_000_000_000);
        assert_eq!(b.available(), 5);
    }

    #[test]
    fn backpressure_rejection_is_typed_and_counted() {
        let ((first, second), snap) = in_registry(|| {
            let (sched, _clock) = manual_sched(SchedulerConfig::default());
            sched.register_tenant(TenantConfig::new("t").max_queued(1));
            let first = sched.submit(JobSpec::new("t", "a", 1, ok_job(1)));
            let second = sched.submit(JobSpec::new("t", "b", 1, ok_job(1)));
            (first.is_ok(), second.err())
        });
        assert!(first);
        assert_eq!(
            second,
            Some(Rejected::Backpressure {
                tenant: "t".to_string(),
                queued: 1,
                limit: 1,
            })
        );
        assert_eq!(counter(&snap, "sched.submitted"), 2);
        assert_eq!(counter(&snap, "sched.admitted"), 1);
        assert_eq!(counter(&snap, "sched.rejected.backpressure"), 1);
    }

    #[test]
    fn rate_limit_rejects_then_recovers_on_manual_clock() {
        let (outcomes, snap) = in_registry(|| {
            let (sched, clock) = manual_sched(SchedulerConfig::default());
            sched.register_tenant(TenantConfig::new("t").rate(RateLimit {
                cost_per_sec: 2,
                burst: 4,
            }));
            let a = sched.submit(JobSpec::new("t", "a", 4, ok_job(1))).is_ok();
            let b = sched.submit(JobSpec::new("t", "b", 1, ok_job(1))).err();
            clock.advance(Duration::from_secs(1)); // +2 tokens
            let c = sched.submit(JobSpec::new("t", "c", 2, ok_job(1))).is_ok();
            (a, b, c)
        });
        assert!(outcomes.0);
        assert_eq!(
            outcomes.1,
            Some(Rejected::QuotaExceeded {
                tenant: "t".to_string(),
                needed: 1,
                available: 0,
            })
        );
        assert!(outcomes.2);
        assert_eq!(counter(&snap, "sched.rejected.quota"), 1);
    }

    #[test]
    fn cost_quota_covers_outstanding_work() {
        let (res, _snap) = in_registry(|| {
            let (sched, _clock) = manual_sched(SchedulerConfig::default());
            sched.register_tenant(TenantConfig::new("t").cost_quota(10));
            assert!(sched.submit(JobSpec::new("t", "a", 7, ok_job(1))).is_ok());
            let over = sched.submit(JobSpec::new("t", "b", 4, ok_job(1))).err();
            // Draining the queue releases the quota.
            sched.run_until_idle();
            let after = sched.submit(JobSpec::new("t", "c", 4, ok_job(1))).is_ok();
            (over, after)
        });
        assert_eq!(
            res.0,
            Some(Rejected::QuotaExceeded {
                tenant: "t".to_string(),
                needed: 11,
                available: 10,
            })
        );
        assert!(res.1);
    }

    #[test]
    fn infeasible_deadline_is_rejected_up_front() {
        let (rej, snap) = in_registry(|| {
            let cfg = SchedulerConfig {
                cost_ns_per_unit: 1_000_000, // 1 ms per cost unit
                ..SchedulerConfig::default()
            };
            let (sched, _clock) = manual_sched(cfg);
            assert!(sched
                .submit(JobSpec::new("t", "bulk", 50, ok_job(1)))
                .is_ok());
            // 51 ms projected backlog against a 10 ms deadline.
            sched
                .submit(
                    JobSpec::new("t", "urgent", 1, ok_job(1)).deadline(Duration::from_millis(10)),
                )
                .err()
        });
        match rej {
            Some(Rejected::DeadlineInfeasible {
                tenant,
                deadline_ns,
                projected_ns,
            }) => {
                assert_eq!(tenant, "t");
                assert_eq!(deadline_ns, 10_000_000);
                assert_eq!(projected_ns, 51_000_000);
            }
            other => panic!("expected DeadlineInfeasible, got {other:?}"),
        }
        assert_eq!(counter(&snap, "sched.rejected.deadline"), 1);
    }

    #[test]
    fn equal_weight_tenants_alternate_within_one_job() {
        let (transcript, snap) = in_registry(|| {
            let (sched, _clock) = manual_sched(SchedulerConfig {
                max_inflight_cost: 1,
                shed_watermark: 10_000,
                ..SchedulerConfig::default()
            });
            sched.register_tenant(TenantConfig::new("a").max_queued(200));
            sched.register_tenant(TenantConfig::new("b").max_queued(200));
            for i in 0..100 {
                sched
                    .submit(JobSpec::new("a", format!("a{i}"), 1, ok_job(1)))
                    .unwrap();
                sched
                    .submit(JobSpec::new("b", format!("b{i}"), 1, ok_job(1)))
                    .unwrap();
            }
            sched.run_until_idle()
        });
        assert_eq!(transcript.len(), 200);
        let (mut done_a, mut done_b) = (0i64, 0i64);
        for d in &transcript {
            match d.tenant.as_str() {
                "a" => done_a += 1,
                "b" => done_b += 1,
                other => panic!("unexpected tenant {other}"),
            }
            assert!(
                (done_a - done_b).abs() <= 1,
                "fairness drift at step {}: a={done_a} b={done_b}",
                done_a + done_b
            );
        }
        assert_eq!(counter(&snap, "sched.completed"), 200);
        assert_eq!(counter(&snap, "sched.dispatched"), 200);
    }

    #[test]
    fn weight_two_tenant_gets_double_throughput() {
        let (transcript, _snap) = in_registry(|| {
            let (sched, _clock) = manual_sched(SchedulerConfig {
                shed_watermark: 10_000,
                ..SchedulerConfig::default()
            });
            sched.register_tenant(TenantConfig::new("heavy").weight(2).max_queued(200));
            sched.register_tenant(TenantConfig::new("light").max_queued(200));
            for i in 0..60 {
                sched
                    .submit(JobSpec::new("heavy", format!("h{i}"), 1, ok_job(1)))
                    .unwrap();
                sched
                    .submit(JobSpec::new("light", format!("l{i}"), 1, ok_job(1)))
                    .unwrap();
            }
            sched.run_until_idle()
        });
        // While both tenants are backlogged (first 90 dispatches cover
        // 60 heavy + 30 light), heavy must run exactly 2x light.
        let heavy_in_first_90 = transcript[..90]
            .iter()
            .filter(|d| d.tenant == "heavy")
            .count();
        assert_eq!(heavy_in_first_90, 60);
        assert_eq!(transcript.len(), 120);
    }

    #[test]
    fn priority_preempts_at_dequeue_within_tenant() {
        let (transcript, _snap) = in_registry(|| {
            let (sched, _clock) = manual_sched(SchedulerConfig::default());
            sched
                .submit(JobSpec::new("t", "bulk", 1, ok_job(1)).priority(Priority::Batch))
                .unwrap();
            sched
                .submit(JobSpec::new("t", "norm", 1, ok_job(1)))
                .unwrap();
            sched
                .submit(JobSpec::new("t", "urgent", 1, ok_job(1)).priority(Priority::Interactive))
                .unwrap();
            sched.run_until_idle()
        });
        let order: Vec<&str> = transcript.iter().map(|d| d.label.as_str()).collect();
        assert_eq!(order, ["urgent", "norm", "bulk"]);
    }

    #[test]
    fn overload_sheds_lowest_priority_furthest_deadline_first() {
        let (res, snap) = in_registry(|| {
            let (sched, _clock) = manual_sched(SchedulerConfig {
                shed_watermark: 3,
                ..SchedulerConfig::default()
            });
            let mut interactive = sched
                .submit(JobSpec::new("t", "keep", 1, ok_job(1)).priority(Priority::Interactive))
                .unwrap();
            let mut near = sched
                .submit(
                    JobSpec::new("t", "near", 1, ok_job(1))
                        .priority(Priority::Batch)
                        .deadline(Duration::from_secs(1)),
                )
                .unwrap();
            let mut far = sched
                .submit(
                    JobSpec::new("t", "far", 1, ok_job(1))
                        .priority(Priority::Batch)
                        .deadline(Duration::from_secs(60)),
                )
                .unwrap();
            // Fourth submission pushes queued cost to 4 > 3: exactly one
            // Batch job must be shed, and it must be `far`.
            let mut norm = sched
                .submit(JobSpec::new("t", "norm", 1, ok_job(1)))
                .unwrap();
            (
                interactive.try_outcome(),
                near.try_outcome(),
                far.try_outcome(),
                norm.try_outcome(),
            )
        });
        assert_eq!(res.0, None);
        assert_eq!(res.1, None);
        assert_eq!(
            res.2,
            Some(JobOutcome::Shed {
                queued_cost: 4,
                watermark: 3,
            })
        );
        assert_eq!(res.3, None);
        assert_eq!(counter(&snap, "sched.shed"), 1);
        // Zero silent drops: every submission is accounted for.
        assert_eq!(
            counter(&snap, "sched.submitted"),
            counter(&snap, "sched.admitted")
        );
    }

    #[test]
    fn cancelled_queued_job_is_purged_not_run() {
        let (res, snap) = in_registry(|| {
            let (sched, _clock) = manual_sched(SchedulerConfig::default());
            let handle = sched
                .submit(JobSpec::new("t", "doomed", 1, |_ctx| {
                    panic!("must never run")
                }))
                .unwrap();
            handle.cancel();
            let transcript = sched.run_until_idle();
            (handle.wait(), transcript.len())
        });
        assert_eq!(res.0, JobOutcome::Cancelled);
        assert_eq!(res.1, 0, "purge is not a dispatch step");
        assert_eq!(counter(&snap, "sched.cancelled"), 1);
        assert_eq!(counter(&snap, "sched.dispatched"), 0);
    }

    #[test]
    fn failed_and_panicking_jobs_report_typed_outcomes() {
        let (res, snap) = in_registry(|| {
            let (sched, _clock) = manual_sched(SchedulerConfig::default());
            let bad = sched
                .submit(JobSpec::new("t", "bad", 1, |_ctx| Err("boom".to_string())))
                .unwrap();
            let panicky = sched
                .submit(JobSpec::new(
                    "t",
                    "panic",
                    1,
                    |_ctx| -> Result<JobOutput, String> { panic!("kaboom") },
                ))
                .unwrap();
            sched.run_until_idle();
            (bad.wait(), panicky.wait())
        });
        assert_eq!(
            res.0,
            JobOutcome::Failed {
                error: "boom".to_string()
            }
        );
        assert_eq!(
            res.1,
            JobOutcome::Failed {
                error: "job panicked".to_string()
            }
        );
        assert_eq!(counter(&snap, "sched.failed"), 2);
    }

    #[test]
    fn worker_pool_drains_queues_and_joins() {
        let ((outcome_a, outcome_b), snap) = in_registry(|| {
            let (sched, _clock) = manual_sched(SchedulerConfig::default());
            let a = sched
                .submit(JobSpec::new("a", "one", 1, ok_job(3)))
                .unwrap();
            let pool = sched.start_workers(2);
            let b = sched
                .submit(JobSpec::new("b", "two", 1, ok_job(4)))
                .unwrap();
            let (oa, ob) = (a.wait(), b.wait());
            sched.shutdown();
            pool.join();
            (oa, ob)
        });
        assert_eq!(
            outcome_a,
            JobOutcome::Completed(JobOutput {
                items: 3,
                detail: String::new()
            })
        );
        assert_eq!(
            outcome_b,
            JobOutcome::Completed(JobOutput {
                items: 4,
                detail: String::new()
            })
        );
        assert_eq!(counter(&snap, "sched.completed"), 2);
        // Workers attached the submitting context, so the per-tenant
        // spans landed in this registry.
        assert_eq!(snap.spans_named("sched.job.a").len(), 1);
        assert_eq!(snap.spans_named("sched.job.b").len(), 1);
    }

    #[test]
    fn big_job_dispatches_when_idle_despite_gate() {
        let (transcript, _snap) = in_registry(|| {
            let (sched, _clock) = manual_sched(SchedulerConfig {
                max_inflight_cost: 4,
                shed_watermark: 10_000,
                ..SchedulerConfig::default()
            });
            sched
                .submit(JobSpec::new("t", "huge", 100, ok_job(1)))
                .unwrap();
            sched.run_until_idle()
        });
        assert_eq!(
            transcript.len(),
            1,
            "idle scheduler must not starve big jobs"
        );
    }

    #[test]
    fn health_spec_names_overload_and_stall_rules() {
        let spec = scheduler_health_spec(&SchedulerConfig::default());
        let names: Vec<&str> = spec.rules().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["sched_overloaded", "sched_stalled"]);
    }

    #[test]
    fn gauges_return_to_zero_after_drain() {
        let (_out, snap) = in_registry(|| {
            let (sched, _clock) = manual_sched(SchedulerConfig::default());
            for i in 0..5 {
                sched
                    .submit(JobSpec::new("t", format!("j{i}"), 2, ok_job(1)))
                    .unwrap();
            }
            sched.run_until_idle()
        });
        assert_eq!(snap.gauges.get("sched.queued").map(|g| g.value), Some(0));
        assert_eq!(
            snap.gauges.get("sched.queued_cost").map(|g| g.value),
            Some(0)
        );
        assert_eq!(
            snap.gauges.get("sched.inflight_cost").map(|g| g.value),
            Some(0)
        );
        assert_eq!(
            snap.gauges.get("sched.tenant.t.queued").map(|g| g.value),
            Some(0)
        );
    }

    /// `(sched.queued, sched.queued_cost, sched.tenant.t.queued)`.
    fn queue_levels(reg: &Registry) -> (i64, i64, i64) {
        let level = |name: &str| reg.gauge(name).get();
        (
            level("sched.queued"),
            level("sched.queued_cost"),
            level("sched.tenant.t.queued"),
        )
    }

    #[test]
    fn queue_gauges_settle_in_the_submitters_registry() {
        let (submitter, worker) = (Registry::new(), Registry::new());
        let (sched, _clock) = manual_sched(SchedulerConfig::default());
        let handle = TraceContext::root(&submitter)
            .scope(|| sched.submit(JobSpec::new("t", "j", 3, ok_job(1))))
            .unwrap();
        assert_eq!(queue_levels(&submitter), (1, 3, 1));
        // Dispatched by a worker that records into a registry of its own.
        let transcript = TraceContext::root(&worker).scope(|| sched.run_until_idle());
        assert_eq!(transcript.len(), 1);
        assert!(matches!(handle.wait(), JobOutcome::Completed(_)));
        assert_eq!(queue_levels(&submitter), (0, 0, 0));
        assert_eq!(queue_levels(&worker), (0, 0, 0));
        assert_eq!(worker.gauge("sched.inflight_cost").get(), 0);
        assert_eq!(worker.gauge("sched.inflight_cost").max(), 3);
    }

    #[test]
    fn a_dropped_scheduler_lowers_its_queue_gauges() {
        let reg = Registry::new();
        let (sched, _clock) = manual_sched(SchedulerConfig::default());
        let handles: Vec<JobHandle> = TraceContext::root(&reg).scope(|| {
            (0..2)
                .map(|i| sched.submit(JobSpec::new("t", format!("j{i}"), 2, ok_job(1))))
                .collect::<Result<_, _>>()
                .unwrap()
        });
        assert_eq!(queue_levels(&reg), (2, 4, 2));
        drop(sched);
        assert_eq!(queue_levels(&reg), (0, 0, 0));
        for h in handles {
            assert!(matches!(h.wait(), JobOutcome::Failed { .. }));
        }
    }

    /// Every `executor.*` and `sched.*` gauge reads 0 once the work is
    /// over, however it ended.
    #[test]
    fn every_gauge_settles_at_zero_however_work_ends() {
        use drai_core::{Pipeline, ProcessingStage, StreamingBatchExt};

        /// A two-stage pipeline whose second stage fails on item `fail`,
        /// panics on `panic` and fires `cancel` on `cancel_on`.
        fn pipeline(fail: u64, panic: u64, cancel_on: u64, cancel: CancelToken) -> Pipeline<u64> {
            Pipeline::builder("settle")
                .stage("pass", ProcessingStage::Ingest, |x, _| Ok(x))
                .stage("check", ProcessingStage::Transform, move |x, _| {
                    if x == panic {
                        panic!("stage panicked on {x}");
                    }
                    if x == cancel_on {
                        cancel.cancel();
                    }
                    if x == fail {
                        return Err(format!("item {x} failed"));
                    }
                    Ok(x)
                })
                .build()
        }
        const NONE: u64 = u64::MAX;
        let batch = |fail, panic, cancel_on| {
            let token = CancelToken::new();
            let p = pipeline(fail, panic, cancel_on, token.clone());
            let exec = ExecutorConfig {
                channel_capacity: 1,
                workers_per_stage: 2,
            };
            catch_unwind(AssertUnwindSafe(|| {
                p.run_batch_streaming_cancellable((0..64).collect(), &exec, &token)
            }))
        };

        /// Run `work` in a fresh registry: every `executor.*` and
        /// `sched.*` gauge it raised must read 0 once it returns.
        fn settles(case: &str, work: impl FnOnce()) {
            let ((), snap) = in_registry(work);
            let gauges: Vec<_> = snap
                .gauges
                .iter()
                .filter(|(name, _)| name.starts_with("executor.") || name.starts_with("sched."))
                .collect();
            assert!(!gauges.is_empty(), "{case}: no gauge was raised");
            for (name, stat) in gauges {
                assert_eq!(stat.value, 0, "{case}: {name} reads {}", stat.value);
            }
        }

        settles("batch that fails", || {
            assert!(matches!(batch(3, NONE, NONE), Ok(Err(_))))
        });
        settles("batch that panics", || {
            assert!(batch(NONE, 9, NONE).is_err())
        });
        settles("batch that is cancelled", || {
            assert!(matches!(batch(NONE, NONE, 5), Ok(Err(_))))
        });
        settles(
            "scheduler run with a shed, a cancel while queued, a failure and completions",
            || {
                let (sched, _clock) = manual_sched(SchedulerConfig {
                    shed_watermark: 4,
                    ..SchedulerConfig::default()
                });
                let run = |job: &JobContext| {
                    pipeline(NONE, NONE, NONE, job.cancel.clone())
                        .run_batch_streaming_cancellable((6..16).collect(), &job.exec, &job.cancel)
                        .map(|(out, _)| JobOutput {
                            items: out.len() as u64,
                            detail: String::new(),
                        })
                        .map_err(|e| e.to_string())
                };
                let done = sched.submit(JobSpec::new("t", "done", 1, run)).unwrap();
                let bad = sched
                    .submit(JobSpec::new("t", "bad", 1, |_: &JobContext| {
                        Err("boom".to_string())
                    }))
                    .unwrap();
                let doomed = sched.submit(JobSpec::new("t", "doomed", 1, run)).unwrap();
                doomed.cancel();
                let keep = sched
                    .submit(JobSpec::new("t", "keep", 1, run).priority(Priority::Interactive))
                    .unwrap();
                let shed = sched
                    .submit(JobSpec::new("t", "shed", 1, run).priority(Priority::Batch))
                    .unwrap();
                let pool = sched.start_workers(2);
                let outcomes = [done, bad, doomed, keep, shed].map(JobHandle::wait);
                sched.shutdown();
                pool.join();
                assert!(matches!(outcomes[0], JobOutcome::Completed(_)));
                assert!(matches!(outcomes[1], JobOutcome::Failed { .. }));
                assert_eq!(outcomes[2], JobOutcome::Cancelled);
                assert!(matches!(outcomes[3], JobOutcome::Completed(_)));
                assert!(matches!(outcomes[4], JobOutcome::Shed { .. }));
            },
        );
    }
}
