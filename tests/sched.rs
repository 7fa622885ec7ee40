//! Integration battery for `drai-sched`: deterministic weighted
//! fairness, overload shedding discipline, typed-rejection accounting
//! (zero silent drops), and bitwise reproducibility under the CI
//! `FAULT_SEED` matrix.

use drai::io::fault::FaultConfig;
use drai::sched::{
    JobOutcome, JobOutput, JobSpec, Priority, Rejected, Scheduler, SchedulerConfig, TenantConfig,
};
use drai::telemetry::clock::ManualClock;
use drai::telemetry::{Registry, TraceContext};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn noop_job(tenant: &str, cost: u64) -> JobSpec {
    JobSpec::new(tenant, "noop", cost, |_ctx| {
        Ok(JobOutput {
            items: 1,
            detail: String::new(),
        })
    })
}

/// Serial scheduler on a manual clock: `max_inflight_cost: 1` makes
/// every `dispatch_next` a single observable scheduling decision.
fn serial_scheduler(cfg: SchedulerConfig) -> Scheduler {
    Scheduler::with_clock(
        SchedulerConfig {
            max_inflight_cost: 1,
            ..cfg
        },
        Arc::new(ManualClock::new()),
    )
}

/// xorshift* keyed off the fault seed: deterministic submission-order
/// permutations per CI matrix entry without any global RNG state.
fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut s = seed | 1;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for i in (1..items.len()).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    items
}

#[test]
fn equal_weight_tenants_stay_within_one_dispatch_at_every_step() {
    let registry = Registry::new();
    TraceContext::root(&registry).scope(|| {
        let sched = serial_scheduler(SchedulerConfig::default());
        sched.register_tenant(TenantConfig::new("a").max_queued(200));
        sched.register_tenant(TenantConfig::new("b").max_queued(200));
        for _ in 0..100 {
            sched.submit(noop_job("a", 1)).unwrap();
            sched.submit(noop_job("b", 1)).unwrap();
        }
        let (mut a, mut b) = (0i64, 0i64);
        while let Some(d) = sched.dispatch_next() {
            match d.tenant.as_str() {
                "a" => a += 1,
                "b" => b += 1,
                other => panic!("unknown tenant {other}"),
            }
            assert!(
                (a - b).abs() <= 1,
                "fairness drift at step {}: a={a} b={b}",
                a + b
            );
        }
        assert_eq!((a, b), (100, 100), "all jobs dispatched");
    });
}

#[test]
fn weight_two_tenant_gets_twice_the_throughput() {
    let registry = Registry::new();
    TraceContext::root(&registry).scope(|| {
        let sched = serial_scheduler(SchedulerConfig::default());
        sched.register_tenant(TenantConfig::new("heavy").weight(2).max_queued(200));
        sched.register_tenant(TenantConfig::new("light").max_queued(200));
        for _ in 0..120 {
            sched.submit(noop_job("heavy", 1)).unwrap();
            sched.submit(noop_job("light", 1)).unwrap();
        }
        let (mut heavy, mut light) = (0u32, 0u32);
        for _ in 0..90 {
            let d = sched.dispatch_next().expect("jobs remain");
            if d.tenant == "heavy" {
                heavy += 1;
            } else {
                light += 1;
            }
        }
        assert_eq!(
            (heavy, light),
            (60, 30),
            "weight-2 tenant dispatches exactly 2x while both are backlogged"
        );
        sched.run_until_idle();
    });
}

#[test]
fn overload_sheds_only_lowest_priority_and_accounts_for_every_submission() {
    let registry = Registry::new();
    TraceContext::root(&registry).scope(|| {
        let sched = serial_scheduler(SchedulerConfig {
            shed_watermark: 12,
            ..SchedulerConfig::default()
        });
        sched.register_tenant(TenantConfig::new("a").max_queued(20));
        sched.register_tenant(TenantConfig::new("b").max_queued(20));

        let mut submitted = 0u64;
        let mut rejections = 0u64;
        let mut handles = Vec::new();
        // Six interactive jobs sit safely under the watermark...
        for _ in 0..6 {
            submitted += 1;
            let spec = noop_job("a", 1).priority(Priority::Interactive);
            handles.push((Priority::Interactive, sched.submit(spec).unwrap()));
        }
        // ...then a batch flood pushes past it: every admit over the
        // watermark sheds, and batch work is always queued when it
        // does, so interactive jobs are never the victim.
        for round in 0..20u64 {
            submitted += 1;
            let spec = noop_job("b", 1)
                .priority(Priority::Batch)
                .deadline(Duration::from_secs(600 + round));
            match sched.submit(spec) {
                Ok(h) => handles.push((Priority::Batch, h)),
                Err(rej) => panic!("batch flood unexpectedly rejected: {rej}"),
            }
        }
        // With ~12 cost units of backlog at 1 ms per unit, a 1 ms
        // deadline is infeasible: typed rejection, not a silent drop.
        for _ in 0..2 {
            submitted += 1;
            let spec = noop_job("a", 1)
                .priority(Priority::Interactive)
                .deadline(Duration::from_millis(1));
            match sched.submit(spec) {
                Err(Rejected::DeadlineInfeasible { .. }) => rejections += 1,
                other => panic!("expected DeadlineInfeasible, got {other:?}"),
            }
        }
        sched.run_until_idle();

        let (mut completed, mut shed) = (0u64, 0u64);
        for (priority, h) in handles {
            match h.wait() {
                JobOutcome::Completed(_) => completed += 1,
                JobOutcome::Shed { .. } => {
                    assert_eq!(
                        priority,
                        Priority::Batch,
                        "only the lowest queued class may be shed"
                    );
                    shed += 1;
                }
                other => panic!("unexpected outcome under overload: {other:?}"),
            }
        }
        assert!(shed > 0, "watermark 12 must shed under 36 submissions");
        assert!(rejections > 0, "max_queued 10 must reject under pressure");
        assert_eq!(
            completed + shed + rejections,
            submitted,
            "every submission ends as a typed outcome — no silent drops"
        );
    });
}

/// One full scheduler run: two tenants, three priority classes, a
/// seed-permuted submission order. Returns the rendered dispatch
/// transcript plus a sorted snapshot of the `sched.*` counters.
fn seeded_run(seed: u64) -> String {
    let registry = Registry::new();
    TraceContext::root(&registry).scope(|| {
        let sched = serial_scheduler(SchedulerConfig {
            shed_watermark: 40,
            ..SchedulerConfig::default()
        });
        sched.register_tenant(TenantConfig::new("a").weight(2).max_queued(64));
        sched.register_tenant(TenantConfig::new("b").max_queued(32));

        let mut specs = Vec::new();
        for k in 0..48u64 {
            let tenant = if k % 2 == 0 { "a" } else { "b" };
            let priority = match k % 3 {
                0 => Priority::Batch,
                1 => Priority::Normal,
                _ => Priority::Interactive,
            };
            specs.push((tenant, priority, 1 + k % 3));
        }
        let mut transcript = String::new();
        for (tenant, priority, cost) in shuffled(specs, seed) {
            match sched.submit(noop_job(tenant, cost).priority(priority)) {
                Ok(_) => {}
                Err(rej) => transcript.push_str(&format!("reject {rej}\n")),
            }
        }
        for d in sched.run_until_idle() {
            transcript.push_str(&format!("{d}\n"));
        }
        let snap = registry.snapshot();
        let counters: Vec<String> = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("sched."))
            .map(|(name, value)| format!("{name}={value}"))
            .collect();
        transcript.push_str(&counters.join("\n"));
        transcript
    })
}

#[test]
fn transcript_is_bitwise_reproducible_for_the_ci_fault_seed() {
    let seed = FaultConfig::seed_from_env(1);
    let first = seeded_run(seed);
    let second = seeded_run(seed);
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "same seed must replay an identical transcript and counter set"
    );
    // Different seeds permute submission order, and with unequal costs
    // that must be visible in the transcript — i.e. the determinism
    // assertion above is not vacuous.
    assert_ne!(first, seeded_run(seed.wrapping_add(17) | 2));
}

proptest! {
    /// The ±1 alternation invariant holds for any backlog size and any
    /// submission interleaving, not just the handpicked one.
    #[test]
    fn fairness_within_one_for_random_backlogs(jobs in 1usize..40, seed in any::<u64>()) {
        let registry = Registry::new();
        TraceContext::root(&registry).scope(|| {
            let sched = serial_scheduler(SchedulerConfig::default());
            sched.register_tenant(TenantConfig::new("a").max_queued(100));
            sched.register_tenant(TenantConfig::new("b").max_queued(100));
            let mut specs = Vec::new();
            for _ in 0..jobs {
                specs.push("a");
                specs.push("b");
            }
            for tenant in shuffled(specs, seed) {
                sched.submit(noop_job(tenant, 1)).unwrap();
            }
            let (mut a, mut b) = (0i64, 0i64);
            while let Some(d) = sched.dispatch_next() {
                if d.tenant == "a" { a += 1 } else { b += 1 }
                prop_assert!((a - b).abs() <= 1, "drift: a={} b={}", a, b);
            }
            prop_assert_eq!((a, b), (jobs as i64, jobs as i64));
            Ok(())
        })?;
    }
}
