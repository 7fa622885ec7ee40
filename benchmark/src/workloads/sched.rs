//! `sched_small_jobs`: many tiny jobs through a fresh `Scheduler` with
//! three tenants and two workers. Dispatch, locking and wake-up cost
//! is about half the wall; every other layer is idle.
//!
//! Closed loop: the submitting thread holds at most [`WINDOW`] handles
//! and waits for the oldest before submitting the next, because that
//! is how callers of `submit` behave — they hold handles and wait.

use crate::clock;
use crate::gen::{self, Digest};
use crate::harness::{Iteration, Workload};
use crate::stats::median;
use crate::trace::{self, Recorder};
use drai_core::executor::ExecutorConfig;
use drai_sched::{
    JobHandle, JobOutcome, JobOutput, JobSpec, Scheduler, SchedulerConfig, TenantConfig,
};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Jobs per iteration, each of cost 1.
pub const JOBS: usize = 30_000;
/// Outstanding handles the submitter holds at most.
pub const WINDOW: usize = 64;
/// Scheduler worker threads.
pub const WORKERS: usize = 2;
/// Rows of the tile a job z-scores.
pub const TILE_ROWS: usize = 128;
/// Columns of the tile.
pub const TILE_COLS: usize = 8;
/// Distinct tiles the jobs cycle through.
pub const TILES: usize = 1024;
/// Per-tenant queue bound: above what the window can queue, so nothing
/// is rejected or shed.
const MAX_QUEUED: usize = 2 * WINDOW;
/// Tenants, by `job index % 4`: alpha (weight 2) gets half the jobs.
const TENANT_OF: [&str; 4] = ["alpha", "alpha", "beta", "gamma"];
/// Every n-th job becomes a span in the trace.
const SPAN_EVERY: usize = 64;

/// Window of the rolling mean a job takes down each z-scored column.
const ROLLING_WIDTH: usize = 9;

/// Z-score each column of a row-major tile, smooth each column with a
/// centred rolling mean, and fold the result into one number. This is
/// the load, not the system under test, so it uses no drai kernel.
fn zscore_checksum(tile: &[f64]) -> u64 {
    let rows = tile.len() / TILE_COLS;
    let mut mean = [0.0; TILE_COLS];
    let mut m2 = [0.0; TILE_COLS];
    for row in tile.chunks_exact(TILE_COLS) {
        for (c, v) in row.iter().enumerate() {
            mean[c] += v;
            m2[c] += v * v;
        }
    }
    let mut inv_std = [0.0; TILE_COLS];
    for c in 0..TILE_COLS {
        mean[c] /= rows as f64;
        inv_std[c] = 1.0 / (m2[c] / rows as f64 - mean[c] * mean[c]).max(1e-12).sqrt();
    }
    let mut z = vec![0.0; tile.len()];
    for (dst, src) in z
        .chunks_exact_mut(TILE_COLS)
        .zip(tile.chunks_exact(TILE_COLS))
    {
        for c in 0..TILE_COLS {
            dst[c] = (src[c] - mean[c]) * inv_std[c];
        }
    }
    let half = ROLLING_WIDTH / 2;
    let mut folded = 0u64;
    for r in 0..rows {
        let (lo, hi) = (r.saturating_sub(half), (r + half + 1).min(rows));
        for c in 0..TILE_COLS {
            let sum: f64 = (lo..hi).map(|k| z[k * TILE_COLS + c]).sum();
            folded = folded.rotate_left(1) ^ (sum / (hi - lo) as f64).to_bits();
        }
    }
    black_box(folded)
}

/// Timestamps a traced job leaves behind, ns on the recorder's clock.
#[derive(Default)]
struct JobTimes {
    submit: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
}

/// The set-up workload: the tiles and what their z-scores fold to.
pub struct SchedSmallJobs {
    tiles: Arc<Vec<Vec<f64>>>,
    /// Wrapping sum of every job's checksum for one iteration.
    expected: u64,
}

impl SchedSmallJobs {
    /// Generate the tiles and compute the reference result.
    pub fn setup(seed: u64) -> SchedSmallJobs {
        let tiles = gen::tiles(TILES, TILE_ROWS, TILE_COLS, seed);
        let per_tile: Vec<u64> = tiles.iter().map(|t| zscore_checksum(t)).collect();
        let expected = (0..JOBS).fold(0u64, |acc, j| acc.wrapping_add(per_tile[j % TILES]));
        SchedSmallJobs {
            tiles: Arc::new(tiles),
            expected,
        }
    }
}

/// Tally of job outcomes; every submitted job lands in exactly one.
#[derive(Default)]
struct Outcomes {
    completed: u64,
    failed: u64,
    shed: u64,
    cancelled: u64,
    rejected: u64,
}

impl Outcomes {
    fn settle(&mut self, handle: JobHandle) {
        match handle.wait() {
            JobOutcome::Completed(_) => self.completed += 1,
            JobOutcome::Failed { .. } => self.failed += 1,
            JobOutcome::Shed { .. } => self.shed += 1,
            JobOutcome::Cancelled => self.cancelled += 1,
        }
    }
}

/// Per-layer values from the timestamps of one traced iteration, and
/// a sample of its jobs as spans under the open iteration span.
fn job_stats(
    rec: &Recorder,
    times: &[JobTimes],
    submit_ns: u64,
    wall_s: f64,
) -> Vec<(String, f64)> {
    let at = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let ran: Vec<&JobTimes> = times.iter().filter(|t| at(&t.end) > 0).collect();
    if ran.is_empty() {
        return Vec::new();
    }
    for t in ran.iter().step_by(SPAN_EVERY) {
        rec.add("sched.job_run", at(&t.start), at(&t.end));
    }
    let mut waits: Vec<f64> = ran
        .iter()
        .map(|t| at(&t.start).saturating_sub(at(&t.submit)) as f64 / 1e3)
        .collect();
    waits.sort_by(|a, b| a.partial_cmp(b).expect("no NaN wait"));
    let p95 = waits[(waits.len() * 95 / 100).min(waits.len() - 1)];
    let run_s = ran.iter().map(|t| at(&t.end) - at(&t.start)).sum::<u64>() as f64 / 1e9;
    let first = ran.iter().map(|t| at(&t.start)).min().unwrap_or(0);
    let last = ran.iter().map(|t| at(&t.end)).max().unwrap_or(0);
    let intervals = ran.iter().map(|t| (at(&t.start), at(&t.end))).collect();
    // Share of the wall during which no worker was inside a job.
    let idle = 1.0 - trace::covered_ns(intervals, first, last) as f64 / 1e9 / wall_s;
    let jobs = ran.len() as f64;
    let worker_s = wall_s * WORKERS as f64;
    vec![
        (
            "sched.submit_us_mean".to_string(),
            submit_ns as f64 / 1e3 / JOBS as f64,
        ),
        ("sched.queue_wait_p50_us".to_string(), median(&waits)),
        ("sched.queue_wait_p95_us".to_string(), p95),
        ("sched.job_run_mean_us".to_string(), run_s * 1e6 / jobs),
        ("sched.worker_busy_share".to_string(), run_s / worker_s),
        (
            "sched.overhead_us_per_job".to_string(),
            (worker_s - run_s) * 1e6 / jobs,
        ),
        ("bench.unattributed_share".to_string(), idle.max(0.0)),
    ]
}

impl Workload for SchedSmallJobs {
    /// Tile bytes the jobs of one iteration read.
    fn bytes_per_iteration(&self) -> u64 {
        (JOBS * TILE_ROWS * TILE_COLS * 8) as u64
    }

    fn constants(&self) -> Vec<(&'static str, f64)> {
        let exec = ExecutorConfig::for_host();
        vec![
            ("jobs", JOBS as f64),
            ("window", WINDOW as f64),
            ("workers", WORKERS as f64),
            ("tenants", 3.0),
            ("tile_rows", TILE_ROWS as f64),
            ("tile_cols", TILE_COLS as f64),
            ("tiles", TILES as f64),
            ("exec_channel_capacity", exec.channel_capacity as f64),
            ("exec_workers_per_stage", exec.workers_per_stage as f64),
        ]
    }

    fn iterate(&mut self, rec: &Arc<Recorder>) -> Result<Iteration, String> {
        let sched = Arc::new(Scheduler::new(SchedulerConfig {
            exec: ExecutorConfig::for_host(),
            ..SchedulerConfig::default()
        }));
        sched.register_tenant(TenantConfig::new("alpha").weight(2).max_queued(MAX_QUEUED));
        sched.register_tenant(TenantConfig::new("beta").max_queued(MAX_QUEUED));
        sched.register_tenant(TenantConfig::new("gamma").max_queued(MAX_QUEUED));
        let pool = sched.start_workers(WORKERS);

        let traced = rec.enabled();
        let times: Arc<Vec<JobTimes>> = Arc::new(if traced {
            (0..JOBS).map(|_| JobTimes::default()).collect()
        } else {
            Vec::new()
        });
        let checksum = Arc::new(AtomicU64::new(0));
        let mut outcomes = Outcomes::default();
        let mut submit_ns = 0u64;

        let mut wall_s = 0.0;
        let mut traced_values = Vec::new();
        rec.scope("iteration", || {
            ((), wall_s) = clock::time(|| {
                let mut window: VecDeque<JobHandle> = VecDeque::with_capacity(WINDOW);
                for j in 0..JOBS {
                    if window.len() == WINDOW {
                        outcomes.settle(window.pop_front().expect("window is full"));
                    }
                    let (tiles, checksum) = (self.tiles.clone(), checksum.clone());
                    let (rec_job, times_job) = (rec.clone(), times.clone());
                    let spec = JobSpec::new(TENANT_OF[j % 4], "zscore", 1, move |_ctx| {
                        let slot = times_job.get(j);
                        if let Some(t) = slot {
                            t.start.store(rec_job.now_ns(), Ordering::Relaxed);
                        }
                        let sum = zscore_checksum(&tiles[j % TILES]);
                        checksum.fetch_add(sum, Ordering::Relaxed);
                        if let Some(t) = slot {
                            t.end.store(rec_job.now_ns(), Ordering::Relaxed);
                        }
                        Ok(JobOutput {
                            items: 1,
                            detail: String::new(),
                        })
                    });
                    let submitted = if traced {
                        let before = rec.now_ns();
                        times[j].submit.store(before, Ordering::Relaxed);
                        let handle = sched.submit(spec);
                        submit_ns += rec.now_ns() - before;
                        handle
                    } else {
                        sched.submit(spec)
                    };
                    match submitted {
                        Ok(handle) => window.push_back(handle),
                        Err(_) => outcomes.rejected += 1,
                    }
                }
                for handle in window {
                    outcomes.settle(handle);
                }
            });
            if traced {
                traced_values = job_stats(rec, &times, submit_ns, wall_s);
            }
        });
        sched.shutdown();
        pool.join();

        let settled = outcomes.completed
            + outcomes.failed
            + outcomes.shed
            + outcomes.cancelled
            + outcomes.rejected;
        if settled != JOBS as u64 {
            return Err(format!(
                "ledger does not close: {settled} outcomes for {JOBS} jobs"
            ));
        }
        let mut digest = Digest::new();
        digest.record(&checksum.load(Ordering::SeqCst).to_le_bytes());
        let wrong_result = checksum.load(Ordering::SeqCst) != self.expected;

        let mut values = vec![
            ("jobs_per_s".to_string(), outcomes.completed as f64 / wall_s),
            ("sched.completed".to_string(), outcomes.completed as f64),
            ("sched.rejected".to_string(), outcomes.rejected as f64),
            ("sched.shed".to_string(), outcomes.shed as f64),
        ];
        values.extend(traced_values);

        Ok(Iteration {
            wall_s,
            digest: digest.finish(),
            attempted: JOBS as u64,
            failed: if wrong_result {
                JOBS as u64
            } else {
                JOBS as u64 - outcomes.completed
            },
            values,
        })
    }
}
