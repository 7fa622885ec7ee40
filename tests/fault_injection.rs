//! The resilience acceptance test: a full shard round trip survives a
//! 10% transient fault rate losslessly under the default retry policy,
//! deterministically (seeded faults, virtual-clock backoff — no real
//! sleeps anywhere), and the telemetry registry shows the injection and
//! retry machinery actually fired.
//!
//! Runs under the CI `FAULT_SEED` sweep: set the env var to replay the
//! exact same fault schedule with a different seed.

use drai::io::fault::{FaultConfig, FaultSink};
use drai::io::retry::{RetryPolicy, RetrySink, VirtualClock};
use drai::io::shard::{ShardReader, ShardSpec, ShardWriter};
use drai::io::sink::{LocalFs, MemSink, StorageSink};
use drai::io::IoError;
use drai::sim::{SimConfig, SimFs};
use drai::telemetry::{Registry, TraceContext};
use std::sync::Arc;

fn records(n: usize, size: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| (0..size).map(|j| ((i * 131 + j * 7) % 251) as u8).collect())
        .collect()
}

#[test]
fn faulty_round_trip_is_lossless_under_default_retry() {
    let seed = FaultConfig::seed_from_env(1);
    let clock = VirtualClock::new();
    // 10% transient fault rate on both writes and reads.
    let sink = RetrySink::with_clock(
        FaultSink::new(MemSink::new(), FaultConfig::transient(seed, 0.10)),
        RetryPolicy::default(),
        clock.clone(),
    );

    let recs = records(400, 2048);
    let manifest = ShardWriter::new(ShardSpec::new("resilient", 32 * 1024), &sink)
        .write_all(&recs)
        .expect("write_all must succeed under retry");
    assert!(manifest.shards.len() > 10, "want a real multi-shard run");

    let reader = ShardReader::open("resilient", &sink).expect("manifest read");
    let recovered = reader.read_all_recovering();
    assert!(
        recovered.damage.is_clean(),
        "transient faults must not lose data: {:?}",
        recovered.damage
    );
    assert_eq!(recovered.records, recs, "round trip must be lossless");

    // The failure path was actually exercised, and every injected fault
    // that hit an operation was absorbed by a retry (virtual backoff
    // only — this test never sleeps for real).
    let snap = Registry::global().snapshot();
    assert!(
        snap.counters["io.fault.injected"] > 0,
        "no faults were injected at a 10% rate (seed {seed})"
    );
    assert!(
        snap.counters["io.retry.attempts"] > 0,
        "faults were injected but nothing retried (seed {seed})"
    );
    // (No assertion on `io.retry.exhausted`: sibling tests in this
    // binary share the global registry and exhaust retries on purpose;
    // losslessness above already proves this run exhausted nothing.)
    assert!(clock.slept_ns() > 0, "retries must account virtual backoff");

    // The exported snapshot carries the resilience counters.
    let json = snap.to_json();
    assert!(json.contains("\"io.fault.injected\""));
    assert!(json.contains("\"io.retry.attempts\""));
    assert!(json.contains("\"io.retry.backoff_ns\""));
}

#[test]
fn silent_corruption_is_healed_by_verify_after_write() {
    let seed = FaultConfig::seed_from_env(1);
    // 10% of writes store a bit-flipped copy; verify-after-write reads
    // each shard back and rewrites until the digest matches.
    let cfg = FaultConfig {
        seed: seed.wrapping_add(0xC0FFEE),
        corrupt: 0.10,
        ..FaultConfig::default()
    };
    let sink = FaultSink::new(MemSink::new(), cfg);
    let recs = records(200, 2048);
    let spec = ShardSpec::new("healed", 32 * 1024).with_verify(true);
    ShardWriter::new(spec, &sink).write_all(&recs).unwrap();

    // Read the *inner* sink directly: what landed on "disk" is clean.
    let reader = ShardReader::open("healed", sink.inner()).unwrap();
    let recovered = reader.read_all_recovering();
    assert!(recovered.damage.is_clean(), "{:?}", recovered.damage);
    assert_eq!(recovered.records, recs);
}

#[test]
fn exhausted_retries_surface_the_fault() {
    // At a 100% transient rate nothing can succeed: the error must come
    // back transient (so callers can classify) and the exhaustion must
    // be counted, all without data landing in the inner sink.
    let faulty = FaultSink::new(MemSink::new(), FaultConfig::transient(99, 1.0));
    let sink = RetrySink::with_clock(faulty, RetryPolicy::default(), VirtualClock::new());
    let err = ShardWriter::new(ShardSpec::new("doomed", 1 << 20), &sink)
        .write_all(records(4, 256))
        .unwrap_err();
    assert!(err.is_transient(), "{err}");
    assert_eq!(sink.inner().inner().file_count(), 0);
    let snap = Registry::global().snapshot();
    assert!(snap.counters["io.retry.exhausted"] > 0);
}

#[test]
fn a_missing_blob_is_not_found_on_every_sink() {
    // One error for one fact, whichever sink is asked: a missing blob is
    // `NotFound` naming the blob, not an OS error that names nothing or a
    // format error, and no wrapper retries it.
    let dir = std::env::temp_dir().join(format!("drai-not-found-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let local = LocalFs::new(&dir).unwrap();
    let sim = SimFs::new(SimConfig::default()).unwrap();
    let clock = VirtualClock::new();
    let sinks: [(&str, Box<dyn StorageSink>); 5] = [
        ("LocalFs", Box::new(local.clone())),
        ("MemSink", Box::new(MemSink::new())),
        ("SimFs", Box::new(sim.clone())),
        (
            "FaultSink",
            Box::new(FaultSink::new(sim, FaultConfig::default())),
        ),
        (
            "RetrySink",
            Box::new(RetrySink::with_clock(
                local,
                RetryPolicy::default(),
                clock.clone(),
            )),
        ),
    ];
    for (what, sink) in &sinks {
        match sink.read_file("shards/train-00007.shard") {
            Err(IoError::NotFound { blob }) => assert_eq!(blob, "shards/train-00007.shard"),
            other => panic!("{what}: {other:?}"),
        }
        let err = sink.read_file("gone.bin").unwrap_err();
        assert!(!err.is_transient(), "{what}: {err}");
        assert_eq!(err.to_string(), "gone.bin: no such blob", "{what}");
    }
    assert_eq!(clock.slept_ns(), 0, "a missing blob was retried");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_sink_takes_the_same_blob_names() {
    let dir = std::env::temp_dir().join(format!("drai-blob-names-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sinks: [(&str, Box<dyn StorageSink>); 3] = [
        ("LocalFs", Box::new(LocalFs::new(&dir).unwrap())),
        ("MemSink", Box::new(MemSink::new())),
        ("SimFs", Box::new(SimFs::new(SimConfig::default()).unwrap())),
    ];
    let names = [
        ("./a", false),
        ("a..b", true),
        ("a/./b", false),
        ("d//e", false),
        ("c/", false),
        ("../a", false),
        ("/a", false),
        ("", false),
        ("a/b", true),
    ];
    for (what, sink) in &sinks {
        for (name, taken) in names {
            match sink.write_file(name, b"x") {
                Ok(()) => assert!(taken, "{what} took {name:?}"),
                Err(IoError::Format { blob, .. }) if !taken => assert_eq!(blob, name, "{what}"),
                Err(e) => panic!("{what} refused {name:?}: {e}"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn read_file_lends_the_stored_blob_on_every_sink() {
    // Reads lend, writes copy: what `read_file` returns is the stored
    // blob itself (the in-memory sinks hand out the same allocation on
    // every read, and so do the wrappers around MemSink; LocalFs reads a
    // fresh one from disk), it stays intact however its name
    // is rewritten or deleted afterwards, and every read is still counted
    // in full — by `io.sink.bytes_read`, or by SimFs's own read total.
    let dir = std::env::temp_dir().join(format!("drai-lend-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sim = SimFs::new(SimConfig::default()).unwrap();
    let registry = Registry::new();
    let sink_bytes_read = || registry.counter("io.sink.bytes_read").get();
    let clock = VirtualClock::new();
    let sinks: [(&str, Box<dyn StorageSink>, bool); 5] = [
        ("MemSink", Box::new(MemSink::new()), true),
        ("LocalFs", Box::new(LocalFs::new(&dir).unwrap()), false),
        ("SimFs", Box::new(sim.clone()), true),
        (
            "FaultSink",
            Box::new(FaultSink::new(MemSink::new(), FaultConfig::default())),
            true,
        ),
        (
            "RetrySink",
            Box::new(RetrySink::with_clock(
                MemSink::new(),
                RetryPolicy::default(),
                clock,
            )),
            true,
        ),
    ];
    TraceContext::root(&registry).scope(|| {
        for (what, sink, shares) in &sinks {
            let counted = || sink_bytes_read() + sim.total_read_bytes();
            let before = counted();
            sink.write_file("lent/blob", b"first version").unwrap();
            let lent = sink.read_file("lent/blob").unwrap();
            let again = sink.read_file("lent/blob").unwrap();
            assert_eq!(Arc::ptr_eq(&lent, &again), *shares, "{what}");
            sink.write_file("lent/blob", b"the second, longer version")
                .unwrap();
            assert_eq!(&*lent, b"first version", "{what}: overwritten");
            let second = sink.read_file("lent/blob").unwrap();
            assert_eq!(&*second, b"the second, longer version", "{what}");
            sink.delete("lent/blob").unwrap();
            assert_eq!(&*lent, b"first version", "{what}: deleted");
            assert_eq!(&*second, b"the second, longer version", "{what}");
            assert_eq!(counted() - before, 2 * 13 + 26, "{what}: bytes read");
        }
    });
    std::fs::remove_dir_all(&dir).unwrap();
}
