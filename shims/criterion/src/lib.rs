//! Offline shim for `criterion`: groups, `bench_function`, `iter` /
//! `iter_batched`, and `estimates.json` output under
//! `target/criterion/<group>/<id>/new/` in the upstream layout, so
//! `scripts/summarize_bench.py` works unchanged.
//!
//! Statistics are a plain mean over the measured samples — no outlier
//! rejection or bootstrap. Respects `sample_size`, `warm_up_time`, and
//! `measurement_time` as budgets.

use std::fmt::Display;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Throughput annotation (recorded next to the estimate).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Items per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// How `iter_batched` amortizes setup; the shim treats all variants the
/// same (one setup per timed call).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Large per-iteration input.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// Identifier for a benchmark within a group, optionally parameterized.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// `<function>/<parameter>` identifier.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            function: function.into(),
            parameter: Some(parameter.to_string()),
        }
    }

    /// Parameter-only identifier.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            function: String::new(),
            parameter: Some(parameter.to_string()),
        }
    }

    fn path_segments(&self) -> Vec<String> {
        let mut segs = Vec::new();
        if !self.function.is_empty() {
            segs.push(sanitize(&self.function));
        }
        if let Some(p) = &self.parameter {
            segs.push(sanitize(p));
        }
        segs
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            function: s.to_string(),
            parameter: None,
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId {
            function: s,
            parameter: None,
        }
    }
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            '/' | '\\' | ' ' => '_',
            c => c,
        })
        .collect()
}

/// Times closures and records per-iteration samples.
pub struct Bencher<'a> {
    samples_ns: &'a mut Vec<f64>,
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
}

impl Bencher<'_> {
    /// Time `routine` repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: run without recording until the budget elapses.
        let warm_start = Instant::now();
        while warm_start.elapsed() < self.warm_up {
            std::hint::black_box(routine());
        }
        let budget_start = Instant::now();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            std::hint::black_box(routine());
            self.samples_ns.push(t0.elapsed().as_nanos() as f64);
            if budget_start.elapsed() > self.measurement && !self.samples_ns.is_empty() {
                break;
            }
        }
    }

    /// Time `routine` on fresh inputs from `setup`; setup is untimed.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let warm_start = Instant::now();
        while warm_start.elapsed() < self.warm_up {
            let input = setup();
            std::hint::black_box(routine(input));
        }
        let budget_start = Instant::now();
        for _ in 0..self.sample_size {
            let input = setup();
            let t0 = Instant::now();
            std::hint::black_box(routine(input));
            self.samples_ns.push(t0.elapsed().as_nanos() as f64);
            if budget_start.elapsed() > self.measurement && !self.samples_ns.is_empty() {
                break;
            }
        }
    }
}

/// A named set of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Untimed warm-up budget before sampling.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up = d;
        self
    }

    /// Wall-clock budget for the timed samples.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement = d;
        self
    }

    /// Annotate subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run one benchmark and write its estimate.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut samples = Vec::new();
        {
            let mut b = Bencher {
                samples_ns: &mut samples,
                sample_size: self.sample_size,
                warm_up: self.warm_up.min(Duration::from_millis(max_warmup_ms())),
                measurement: self.measurement,
            };
            f(&mut b);
        }
        let mut segs = vec![sanitize(&self.name)];
        segs.extend(id.path_segments());
        self.criterion.record(&segs, &samples, self.throughput);
        self
    }

    /// End the group (no-op beyond upstream parity).
    pub fn finish(&mut self) {}
}

fn max_warmup_ms() -> u64 {
    std::env::var("CRITERION_SHIM_WARMUP_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

/// Top-level benchmark driver.
pub struct Criterion {
    out_root: PathBuf,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            out_root: target_dir().join("criterion"),
        }
    }
}

impl Criterion {
    /// Upstream-parity CLI hook (arguments are ignored).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_secs(2),
            throughput: None,
        }
    }

    /// Ungrouped benchmark (stored under its own name).
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.benchmark_group(name.to_string()).bench_function("", f);
        self
    }

    fn record(&mut self, segments: &[String], samples_ns: &[f64], throughput: Option<Throughput>) {
        let display = segments
            .iter()
            .filter(|s| !s.is_empty())
            .cloned()
            .collect::<Vec<_>>()
            .join("/");
        if samples_ns.is_empty() {
            eprintln!("{display}: no samples collected");
            return;
        }
        let n = samples_ns.len() as f64;
        let mean = samples_ns.iter().sum::<f64>() / n;
        let mut sorted = samples_ns.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted[sorted.len() / 2];
        let var = samples_ns.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n.max(1.0);
        let std_dev = var.sqrt();

        let mut dir = self.out_root.clone();
        for seg in segments {
            if !seg.is_empty() {
                dir.push(seg);
            }
        }
        dir.push("new");
        if let Err(e) = fs::create_dir_all(&dir) {
            eprintln!("{display}: cannot create {}: {e}", dir.display());
            return;
        }
        let estimate = |v: f64| {
            format!(
                "{{\"confidence_interval\":{{\"confidence_level\":0.95,\"lower_bound\":{v},\"upper_bound\":{v}}},\"point_estimate\":{v},\"standard_error\":{}}}",
                std_dev / n.sqrt()
            )
        };
        let json = format!(
            "{{\"mean\":{},\"median\":{},\"std_dev\":{},\"sample_count\":{}}}",
            estimate(mean),
            estimate(median),
            estimate(std_dev),
            samples_ns.len()
        );
        match fs::File::create(dir.join("estimates.json")) {
            Ok(mut f) => {
                let _ = f.write_all(json.as_bytes());
            }
            Err(e) => eprintln!("{display}: cannot write estimates.json: {e}"),
        }

        let rate = throughput.map(|t| match t {
            Throughput::Elements(n) => format!(" ({:.2} Melem/s)", n as f64 / mean * 1e3),
            Throughput::Bytes(n) => {
                format!(" ({:.2} MiB/s)", n as f64 / mean * 1e9 / (1 << 20) as f64)
            }
        });
        println!(
            "{display:<50} mean {:>12}  median {:>12}{}",
            fmt_ns(mean),
            fmt_ns(median),
            rate.unwrap_or_default()
        );
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Locate the cargo target directory: `CARGO_TARGET_DIR` if set, else
/// walk up from the current directory to the workspace root (the first
/// ancestor containing `Cargo.lock` or an existing `target/`).
fn target_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        return PathBuf::from(dir);
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut probe = Some(cwd.as_path());
    while let Some(dir) = probe {
        if dir.join("Cargo.lock").is_file() || dir.join("target").is_dir() {
            return dir.join("target");
        }
        probe = dir.parent();
    }
    cwd.join("target")
}

/// Prevent the optimizer from discarding `value`.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Collect benchmark functions into a runner callable by
/// [`criterion_main!`].
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Generate `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_written_in_upstream_layout() {
        let tmp = std::env::temp_dir().join(format!("crit-shim-{}", std::process::id()));
        let mut c = Criterion {
            out_root: tmp.clone(),
        };
        {
            let mut group = c.benchmark_group("g");
            group.sample_size(5);
            group.warm_up_time(Duration::from_millis(1));
            group.measurement_time(Duration::from_millis(50));
            group.throughput(Throughput::Bytes(1024));
            group.bench_function(BenchmarkId::new("f", 8), |b| {
                b.iter(|| (0..100u64).sum::<u64>())
            });
            group.bench_function("plain", |b| {
                b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::LargeInput)
            });
            group.finish();
        }
        let est = std::fs::read_to_string(tmp.join("g/f/8/new/estimates.json")).unwrap();
        assert!(est.contains("\"mean\""));
        assert!(est.contains("point_estimate"));
        assert!(tmp.join("g/plain/new/estimates.json").is_file());
        // Mean must parse as a positive number via the same path the
        // summarize script uses.
        let key = "\"point_estimate\":";
        let idx = est.find(key).unwrap() + key.len();
        let tail = &est[idx..];
        let end = tail.find([',', '}']).unwrap();
        let mean: f64 = tail[..end].parse().unwrap();
        assert!(mean > 0.0);
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn benchmark_id_paths() {
        assert_eq!(
            BenchmarkId::new("a b", "c/d").path_segments(),
            vec!["a_b", "c_d"]
        );
        let plain: BenchmarkId = "solo".into();
        assert_eq!(plain.path_segments(), vec!["solo"]);
    }
}
