//! One run that explains itself: a two-tenant scheduler (alpha at
//! weight 2, beta at weight 1) drives streaming climate batches through
//! `drai::domains::service::submit_batch` under the live monitor, on a
//! registry of its own, and leaves everything that run recorded in one
//! directory:
//!
//! * `monitor.jsonl` — the `drai-monitor/v2` time series of every
//!   metric the run wrote, executor and scheduler alike;
//! * `trace.json` — the program's own span tree as Chrome trace events
//!   (open in Perfetto / `chrome://tracing`);
//! * `stacks.folded` — the same tree as folded stacks for a flamegraph
//!   renderer;
//! * `critical_path.txt` — the max-duration path from the longest root.
//!
//! ```sh
//! cargo run --release --example explain_run -- target/explain-run
//! python3 scripts/summarize_bench.py --monitor target/explain-run/monitor.jsonl
//! ```
//!
//! Before writing, the monitor artifact must parse back
//! byte-identically and carry both `executor.*` and `sched.*` series;
//! the diagnosis — bottleneck stage, backpressure, saturated tenant —
//! goes to stdout.

use drai::core::executor::ExecutorConfig;
use drai::domains::{climate, service};
use drai::io::sink::{MemSink, StorageSink};
use drai::provenance::Ledger;
use drai::sched::{JobOutcome, Scheduler, SchedulerConfig, TenantConfig};
use drai::telemetry::monitor::{monitored, MonitorReport};
use drai::telemetry::trace::{critical_path_summary, to_chrome_json, to_folded};
use drai::telemetry::{Registry, Stopwatch, TraceContext};
use drai::tensor::LatLonGrid;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

/// Tenant id and scheduling weight.
const TENANTS: [(&str, u32); 2] = [("alpha", 2), ("beta", 1)];
const JOBS_PER_TENANT: usize = 2;
const MEMBERS: usize = 4;

fn run(out: &Path) -> Result<(), String> {
    let registry = Registry::new();
    let scope = TraceContext::root(&registry).attach();
    let cfg = climate::ClimateConfig {
        src_grid: LatLonGrid::global(48, 96),
        dst_grid: LatLonGrid::global(32, 64),
        timesteps: 8,
        shard_bytes: 1 << 20,
        ..climate::ClimateConfig::default()
    };
    let scfg = SchedulerConfig {
        exec: ExecutorConfig::for_host(),
        ..SchedulerConfig::default()
    };
    let sched = Arc::new(Scheduler::new(scfg));
    for (tenant, weight) in TENANTS {
        sched.register_tenant(TenantConfig::new(tenant).weight(weight));
    }

    let (outcome, report) = monitored(|| {
        let started = Stopwatch::start();
        let mut handles = Vec::new();
        for _ in 0..JOBS_PER_TENANT {
            for (tenant, _) in TENANTS {
                let sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
                let member_cfg = cfg.clone();
                handles.push(
                    service::submit_batch(
                        &sched,
                        tenant,
                        "climate_batch",
                        MEMBERS as u64,
                        climate::build_batch_pipeline(&cfg, sink, Arc::new(Ledger::new())),
                        MEMBERS,
                        move |m| Ok(climate::member_input(&member_cfg, m)),
                    )
                    .map_err(|e| format!("{e}"))?,
                );
            }
        }
        let pool = sched.start_workers(2);
        for h in handles {
            match h.wait() {
                JobOutcome::Completed(_) => {}
                other => return Err(format!("monitored job did not complete: {other:?}")),
            }
        }
        sched.shutdown();
        pool.join();
        Ok(started.elapsed())
    });
    let wall = outcome?;
    drop(scope);
    let spans = registry.snapshot().spans;
    eprintln!(
        "{} jobs x {MEMBERS} members, {} tenants: {:.1} ms, {} samples, {} spans",
        TENANTS.len() * JOBS_PER_TENANT,
        TENANTS.len(),
        wall.as_secs_f64() * 1e3,
        report.ticks,
        spans.len()
    );

    let monitor = report.to_jsonl();
    let parsed = MonitorReport::parse_jsonl(&monitor)?;
    if parsed.to_jsonl() != monitor {
        return Err("monitor artifact did not round-trip byte-identically".into());
    }
    for family in ["executor.", "sched."] {
        if !parsed.series.iter().any(|s| s.name.starts_with(family)) {
            return Err(format!("monitor artifact has no {family}* series"));
        }
    }

    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    for (name, text) in [
        ("monitor.jsonl", monitor),
        ("trace.json", to_chrome_json(&spans)),
        ("stacks.folded", to_folded(&spans)),
        ("critical_path.txt", critical_path_summary(&spans)),
    ] {
        let path = out.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    print!("{}", parsed.diagnose().render());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [out] = args.as_slice() else {
        eprintln!("usage: explain_run <output-dir>");
        return ExitCode::FAILURE;
    };
    match run(Path::new(out)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("explain_run: {e}");
            ExitCode::FAILURE
        }
    }
}
