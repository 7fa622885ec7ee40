//! What the machine can do, measured in the same run, and facts about
//! the host that go into `results.json`.

use crate::clock;
use crate::stats::median;
use drai_io::checksum::{content_hash128, crc32c};
use drai_io::sink::{MemSink, StorageSink};
use std::hint::black_box;
use std::process::Command;

/// Size of the arrays the host baselines run over: far larger than any
/// cache of this class of machine, so the rates are memory rates.
pub const BASELINE_BYTES: usize = 64 << 20;

/// Megabytes (10⁶ B) per second.
pub fn mbps(bytes: u64, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds.max(1e-12)
}

/// Median rate of `reps` runs of `f` over `bytes` bytes.
pub fn rate_of(bytes: u64, reps: usize, mut f: impl FnMut()) -> f64 {
    let rates: Vec<f64> = (0..reps)
        .map(|_| {
            let ((), secs) = clock::time(&mut f);
            mbps(bytes, secs)
        })
        .collect();
    median(&rates)
}

/// `host.*` metrics: memcpy, CRC-32C, content hash and `MemSink` write
/// bandwidth over [`BASELINE_BYTES`].
pub fn baselines() -> Vec<(String, f64)> {
    let src: Vec<u8> = (0..BASELINE_BYTES)
        .map(|i| (i * 31 + (i >> 11)) as u8)
        .collect();
    let mut dst = vec![0u8; BASELINE_BYTES];
    let n = BASELINE_BYTES as u64;
    let memcpy = rate_of(n, 5, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    drop(dst);
    let crc = rate_of(n, 3, || {
        black_box(crc32c(black_box(&src)));
    });
    let hash = rate_of(n, 3, || {
        black_box(content_hash128(black_box(&src)));
    });
    let sink = MemSink::new();
    let write = rate_of(n, 3, || {
        sink.write_file("host/baseline.bin", black_box(&src))
            .expect("MemSink accepts a plain name");
    });
    vec![
        ("host.memcpy_MBps".into(), memcpy),
        ("host.crc32c_MBps".into(), crc),
        ("host.content_hash128_MBps".into(), hash),
        ("host.memsink_write_MBps".into(), write),
    ]
}

/// glibc malloc tunables every measuring process runs under.
///
/// Left alone, glibc adapts its mmap and trim thresholds to the sizes a
/// process happens to free first; whether and when that adaptation
/// settles differed from run to run and was the largest source of
/// spread (the same binary and seed gave 313 or 405 MB/s on
/// `climate_single`, 540 to 770 MB/s on `ensemble_warm`). The
/// thresholds here are what the adaptation converges to at best:
/// buffers up to 32 MiB come from the heap and freed heap is kept.
/// Arenas are capped at 4: with glibc's default of 8 per core, freed
/// memory parked in idle arenas tripled `peak_rss_mib`
/// (`ensemble_cold`: 580 MiB against 186 MiB with one arena), while a
/// single arena cost `sched_small_jobs`, whose jobs are allocated on
/// one thread and freed on another, a quarter of its throughput.
pub const ALLOCATOR_ENV: [(&str, &str); 3] = [
    ("MALLOC_ARENA_MAX", "4"),
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
    ("MALLOC_TRIM_THRESHOLD_", "268435456"),
];

/// The allocator tunables this process runs under: a value from the
/// caller's environment wins over [`ALLOCATOR_ENV`], `None` is unset.
pub fn allocator_env() -> Vec<(&'static str, Option<String>)> {
    ALLOCATOR_ENV
        .iter()
        .map(|(k, _)| (*k, std::env::var(k).ok()))
        .collect()
}

/// Run this program again with every unset variable of
/// [`ALLOCATOR_ENV`] set (the tunables are read when a process
/// starts). Returns the child's exit code, or `None` when all are set
/// and this process is the one to work.
pub fn rerun_with_allocator_env() -> Result<Option<u8>, String> {
    if allocator_env().iter().all(|(_, v)| v.is_some()) {
        return Ok(None);
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let unset = ALLOCATOR_ENV
        .iter()
        .filter(|(k, _)| std::env::var_os(k).is_none());
    let status = Command::new(exe)
        .args(std::env::args_os().skip(1))
        .envs(unset.copied())
        .status()
        .map_err(|e| format!("cannot start the measuring process: {e}"))?;
    Ok(Some(status.code().map_or(1, |c| c.clamp(0, 255) as u8)))
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("cannot parse `{line}`"))?;
    Ok(kib / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line a command prints, or `unknown` when it cannot run.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version` of the toolchain on the path.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// Commit of the checkout the benchmark runs from, if it is one.
pub fn git_commit() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
}
