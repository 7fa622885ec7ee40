//! ABL-FAULTS — throughput degradation vs injected fault rate.
//!
//! The paper's level-5 "AI-ready" cell assumes shard archives survive a
//! parallel filesystem's transient failures. This bench quantifies the
//! price of that resilience: the same 16 MiB shard round trip through a
//! `RetrySink(FaultSink(MemSink))` stack at increasing transient fault
//! rates. Backoff goes through a `VirtualClock`, so criterion measures
//! pure compute/retry overhead while the virtual backoff time each rate
//! would cost on a real clock is reported separately.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use drai_bench::records;
use drai_io::fault::{FaultConfig, FaultSink};
use drai_io::retry::{RetryPolicy, RetrySink, VirtualClock};
use drai_io::shard::{ShardReader, ShardSpec, ShardWriter};
use drai_io::sink::MemSink;
use drai_telemetry::Registry;
use std::time::Duration;

const RATES_PERCENT: [u32; 4] = [0, 5, 10, 20];

fn stack(rate: f64, seed: u64) -> (RetrySink<FaultSink<MemSink>>, std::sync::Arc<VirtualClock>) {
    let clock = VirtualClock::new();
    let policy = RetryPolicy {
        max_attempts: 16,
        ..RetryPolicy::default()
    };
    let sink = RetrySink::with_clock(
        FaultSink::new(MemSink::new(), FaultConfig::transient(seed, rate)),
        policy,
        clock.clone(),
    );
    (sink, clock)
}

fn bench_fault_rates(c: &mut Criterion) {
    let seed = FaultConfig::seed_from_env(1);
    let recs = records(2_000, 8 * 1024, 9); // 16 MiB payload
    let payload: u64 = recs.iter().map(|r| r.len() as u64).sum();

    let mut group = c.benchmark_group("ablation_faults");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Bytes(payload));
    for pct in RATES_PERCENT {
        let rate = pct as f64 / 100.0;
        group.bench_function(BenchmarkId::new("round_trip", format!("{pct}pct")), |b| {
            b.iter(|| {
                let (sink, _clock) = stack(rate, seed);
                ShardWriter::new(ShardSpec::new("f", 512 * 1024), &sink)
                    .write_all(&recs)
                    .unwrap();
                let reader = ShardReader::open("f", &sink).unwrap();
                let recovered = reader.read_all_recovering();
                assert!(recovered.damage.is_clean());
                recovered.records
            })
        });
    }
    group.finish();

    // One instrumented pass per rate: retry volume and the virtual
    // backoff each fault rate would cost on a wall clock.
    let registry = Registry::global();
    eprintln!(
        "\n[ablation_faults] retry cost per round trip ({payload} payload bytes, seed {seed}):"
    );
    eprintln!("  rate   retries  exhausted  virtual-backoff");
    for pct in RATES_PERCENT {
        let rate = pct as f64 / 100.0;
        let before_attempts = registry.counter("io.retry.attempts").get();
        let before_exhausted = registry.counter("io.retry.exhausted").get();
        let (sink, clock) = stack(rate, seed);
        ShardWriter::new(ShardSpec::new("f", 512 * 1024), &sink)
            .write_all(&recs)
            .unwrap();
        let reader = ShardReader::open("f", &sink).unwrap();
        let recovered = reader.read_all_recovering();
        assert!(recovered.damage.is_clean());
        eprintln!(
            "  {pct:>3}%  {:>8}  {:>9}  {:>12.3} ms",
            registry.counter("io.retry.attempts").get() - before_attempts,
            registry.counter("io.retry.exhausted").get() - before_exhausted,
            clock.slept_ns() as f64 / 1e6,
        );
    }

    // Persist the fault/retry telemetry next to the criterion results
    // so `scripts/summarize_bench.py` sweeps both.
    drai_bench::export_telemetry("telemetry-faults").ok();
}

criterion_group!(benches, bench_fault_rates);
criterion_main!(benches);
