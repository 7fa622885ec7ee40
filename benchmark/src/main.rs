//! The repo benchmark: seven workloads over the public API of the
//! `drai` crates, end-to-end and per-layer metrics, traced runs.
//!
//! ```text
//! drai-benchmark all          [--seed N] [--seconds S] [--quick] [--out DIR]
//! drai-benchmark run <name>   [--seed N] [--seconds S] [--quick] [--out DIR]
//! drai-benchmark check-repeat [--seed N] [--seconds S] [--quick] [--out DIR]
//! drai-benchmark --workload <name> --seed N --seconds S --trace 0|1
//! ```
//!
//! The last form is what `BENCHMARK.json`'s command expands to: one
//! workload, one result line of JSON on standard output. See README.md.

#![forbid(unsafe_code)]

mod clock;
mod gen;
mod harness;
mod host;
mod metrics;
mod stats;
mod trace;
mod workloads;

use drai_core::executor::ExecutorConfig;
use drai_io::json::Json;
use harness::{Plan, Report};
use metrics::{EndToEnd, END_TO_END, PER_LAYER, WORKLOADS, WORKLOAD_END_TO_END};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Seed when none is given.
const DEFAULT_SEED: u64 = 20_250_704;
/// Seconds of timed iterations per workload when none are given.
const DEFAULT_SECONDS: f64 = 10.0;
/// Timed iterations every median rests on at least.
const MIN_ITERS: usize = 10;
/// `--quick` divides seconds and iteration counts by this.
const QUICK_DIVISOR: usize = 5;

#[derive(Debug, Clone)]
struct Options {
    seed: u64,
    seconds: f64,
    quick: bool,
    out: PathBuf,
}

impl Options {
    /// Seconds and minimum iterations after `--quick`.
    fn budget(&self) -> (f64, usize) {
        if self.quick {
            (
                self.seconds / QUICK_DIVISOR as f64,
                (MIN_ITERS / QUICK_DIVISOR).max(1),
            )
        } else {
            (self.seconds, MIN_ITERS)
        }
    }
}

enum Mode {
    All,
    Run(String),
    CheckRepeat,
    /// The driver's protocol: one workload, one JSON line.
    Driver {
        workload: String,
        traced: bool,
    },
}

fn usage() -> String {
    format!(
        "usage: drai-benchmark all|check-repeat [--seed N] [--seconds S] [--quick] [--out DIR]\n\
         \x20      drai-benchmark run <workload> [--seed N] [--seconds S] [--quick] [--out DIR]\n\
         \x20      drai-benchmark --workload <workload> --seed N --seconds S --trace 0|1\n\
         workloads: {}",
        WORKLOADS.join(" ")
    )
}

fn parse_args(args: &[String]) -> Result<(Mode, Options), String> {
    let mut opts = Options {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut positional = Vec::new();
    let mut workload = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a number of seconds")?
            }
            "--out" => opts.out = PathBuf::from(value("--out")?),
            "--quick" => opts.quick = true,
            "--workload" => workload = Some(value("--workload")?),
            "--trace" => {
                traced = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            "--help" | "-h" => return Err(usage()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            word => positional.push(word.to_string()),
        }
    }
    let words: Vec<&str> = positional.iter().map(String::as_str).collect();
    let mode = match (words.as_slice(), workload) {
        ([], Some(workload)) => Mode::Driver {
            workload,
            traced: traced.ok_or("--workload needs --trace 0|1")?,
        },
        (["all"], None) => Mode::All,
        (["check-repeat"], None) => Mode::CheckRepeat,
        (["run", name], None) => Mode::Run(name.to_string()),
        _ => return Err(usage()),
    };
    if let Mode::Run(name) | Mode::Driver { workload: name, .. } = &mode {
        if !WORKLOADS.contains(&name.as_str()) {
            return Err(format!("unknown workload `{name}`\n{}", usage()));
        }
    }
    Ok((mode, opts))
}

/// Non-zero when the workload failed an output check or an operation.
fn exit_code(report: &Report) -> u8 {
    u8::from(!report.correct())
}

fn run_workload(name: &str, seed: u64, plan: Plan) -> Result<Report, String> {
    harness::run(name, plan, || workloads::build(name, seed))
}

fn num_obj(values: impl IntoIterator<Item = (String, f64)>) -> Json {
    Json::Obj(values.into_iter().map(|(k, v)| (k, Json::Num(v))).collect())
}

/// The driver's result line.
fn driver_line(report: &Report, traced: bool) -> String {
    let metric = |name: &str, unit: &str, value: f64| {
        (
            name.to_string(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::from(unit))]),
        )
    };
    let metrics: BTreeMap<String, Json> = if traced {
        // Every per-layer name; 0 for a layer this workload leaves idle.
        PER_LAYER
            .iter()
            .map(|m| {
                let value = report.per_layer.get(m.name).copied().unwrap_or(0.0);
                metric(m.name, m.unit, value)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| metric(m.name, m.unit, report.end_to_end[m.name]))
            .collect()
    };
    Json::obj([
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::from(report.attempted)),
        ("failed", Json::from(report.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string_compact()
}

/// One workload's block of `results.json`.
fn report_json(report: &Report) -> Json {
    let summary = |s: &stats::Summary| {
        Json::obj([
            ("n", Json::from(s.n as u64)),
            ("median", Json::Num(s.median)),
            ("q1", Json::Num(s.q1)),
            ("q3", Json::Num(s.q3)),
            ("min", Json::Num(s.min)),
            ("max", Json::Num(s.max)),
        ])
    };
    Json::obj([
        ("end_to_end", num_obj(report.end_to_end.clone())),
        ("per_layer", num_obj(report.per_layer.clone())),
        ("iteration_wall_s", summary(&report.wall)),
        ("setup_s", summary(&report.setup)),
        ("attempted", Json::from(report.attempted)),
        ("failed", Json::from(report.failed)),
        ("failed_share", Json::Num(report.failed_share())),
        ("correct", Json::Bool(report.correct())),
        (
            "failures",
            Json::Arr(report.failures.iter().cloned().map(Json::from).collect()),
        ),
        (
            "constants",
            num_obj(report.constants.iter().map(|(k, v)| (k.to_string(), *v))),
        ),
    ])
}

fn print_report(report: &Report, quick: bool) {
    let label = if quick {
        "  [--quick: NOT FOR COMPARISON]"
    } else {
        ""
    };
    println!("== {}{label}", report.workload);
    println!(
        "  timed iterations: n={} median={:.4}s q1={:.4}s q3={:.4}s (iqr {:.2}%)",
        report.wall.n,
        report.wall.median,
        report.wall.q1,
        report.wall.q3,
        report.wall.rel_iqr() * 100.0
    );
    println!("  end to end:");
    for (name, value) in &report.end_to_end {
        println!(
            "    {name:<36} {value:>14.4} {:<6} {}",
            metrics::unit_of(name),
            metrics::direction_of(name)
        );
    }
    println!(
        "    {:<36} {:>14.6} ratio ({} of {} operations)",
        "failed_share",
        report.failed_share(),
        report.failed,
        report.attempted
    );
    if !report.per_layer.is_empty() {
        println!("  per layer:");
        for (name, value) in &report.per_layer {
            println!(
                "    {name:<36} {value:>14.6} {:<6} {}",
                metrics::unit_of(name),
                metrics::direction_of(name)
            );
        }
    }
    for failure in &report.failures {
        println!("  CHECK FAILED: {failure}");
    }
    println!(
        "  output checks: {}",
        if report.correct() { "passed" } else { "FAILED" }
    );
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `run <workload>`: timed then traced, metrics printed, the trace and
/// the workload's result block written under `out`.
fn run_one(name: &str, opts: &Options) -> Result<Report, String> {
    let (timed_s, min_iters) = opts.budget();
    let plan = Plan {
        setup_reps: workloads::setup_reps(name),
        timed_s,
        min_iters,
        traced_s: Some(0.0),
    };
    let report = run_workload(name, opts.seed, plan)?;
    print_report(&report, opts.quick);
    write_file(
        &opts.out.join(format!("{name}.trace.json")),
        &trace::to_chrome_json(&report.spans),
    )?;
    write_file(
        &opts.out.join(format!("{name}.result.json")),
        &report_json(&report).to_string_compact(),
    )?;
    Ok(report)
}

/// Run every workload in a process of its own, so that `peak_rss_mib`
/// is per workload, and gather the result blocks into `results.json`.
fn run_suite(opts: &Options, results_name: &str) -> Result<BTreeMap<String, Json>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut blocks = BTreeMap::new();
    let mut failed = Vec::new();
    for name in WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["run", name, "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .arg("--out")
            .arg(&opts.out);
        if opts.quick {
            child.arg("--quick");
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        if !status.success() {
            failed.push(*name);
        }
        let path = opts.out.join(format!("{name}.result.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("{name} left no {}: {e}", path.display()))?;
        let block = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        blocks.insert(name.to_string(), block);
    }
    let exec = ExecutorConfig::for_host();
    let results = Json::obj([
        ("schema", Json::from("drai-benchmark/v1")),
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::Num(opts.budget().0)),
        ("min_iterations", Json::from(opts.budget().1 as u64)),
        ("not_for_comparison", Json::Bool(opts.quick)),
        ("nproc", Json::from(host::nproc() as u64)),
        ("rustc", Json::from(host::rustc_version())),
        ("git_commit", Json::from(host::git_commit())),
        (
            "allocator_env",
            Json::Obj(
                host::allocator_env()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v.map_or(Json::Null, Json::from)))
                    .collect(),
            ),
        ),
        (
            "exec_channel_capacity",
            Json::from(exec.channel_capacity as u64),
        ),
        (
            "exec_workers_per_stage",
            Json::from(exec.workers_per_stage as u64),
        ),
        (
            "sched_workers",
            Json::from(workloads::sched::WORKERS as u64),
        ),
        ("workloads", Json::Obj(blocks.clone())),
    ]);
    let path = opts.out.join(results_name);
    write_file(&path, &results.to_string_compact())?;
    println!("wrote {}", path.display());
    if failed.is_empty() {
        Ok(blocks)
    } else {
        Err(format!("failed output checks in: {}", failed.join(" ")))
    }
}

/// The end-to-end metrics `check-repeat` holds a workload to.
fn bounded_metrics(workload: &str) -> Vec<EndToEnd> {
    let own = WORKLOAD_END_TO_END
        .iter()
        .filter(|(w, _)| *w == workload)
        .map(|(_, m)| *m);
    END_TO_END.iter().copied().chain(own).collect()
}

/// Run the suite twice and compare the values: this is both the check
/// that two sets of runs of the same code agree and how the bounds in
/// `BENCHMARK.json` were derived.
fn check_repeat(opts: &Options) -> Result<(), String> {
    let first = run_suite(opts, "results.first.json")?;
    let second = run_suite(opts, "results.json")?;
    println!(
        "{:<18} {:<16} {:<7} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "better", "first", "second", "diff", "bound"
    );
    let mut out_of_bound = 0;
    for workload in WORKLOADS {
        for m in bounded_metrics(workload) {
            let value = |blocks: &BTreeMap<String, Json>| {
                blocks[*workload]
                    .get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{workload} reported no {}", m.name))
            };
            let (a, b) = (value(&first)?, value(&second)?);
            let diff = (b - a) / a;
            let ok = diff.abs() <= m.bound;
            out_of_bound += usize::from(!ok);
            println!(
                "{workload:<18} {:<16} {:<7} {a:>12.4} {b:>12.4} {:>+7.2}% {:>5.0}%{}",
                m.name,
                m.better.as_str(),
                diff * 100.0,
                m.bound * 100.0,
                if ok { "" } else { "  OUT OF BOUND" }
            );
        }
    }
    if out_of_bound == 0 {
        Ok(())
    } else {
        Err(format!(
            "{out_of_bound} end-to-end metrics differ between the two suites by more than their bound"
        ))
    }
}

fn dispatch(mode: Mode, opts: &Options) -> Result<u8, String> {
    match mode {
        Mode::Driver { workload, traced } => {
            // Half the time untraced (the reference for the tracing
            // overhead), half traced.
            let plan = Plan {
                setup_reps: workloads::setup_reps(&workload),
                timed_s: if traced {
                    opts.seconds / 2.0
                } else {
                    opts.seconds
                },
                min_iters: if traced {
                    harness::TRACED_ITERS
                } else {
                    MIN_ITERS
                },
                traced_s: traced.then_some(opts.seconds / 2.0),
            };
            let report = run_workload(&workload, opts.seed, plan)?;
            if traced {
                write_file(
                    &opts.out.join(format!("{workload}.trace.json")),
                    &trace::to_chrome_json(&report.spans),
                )?;
            }
            for failure in &report.failures {
                eprintln!("CHECK FAILED: {failure}");
            }
            // The result line carries `correct`; the exit code says only
            // that the line was printed.
            println!("{}", driver_line(&report, traced));
            Ok(0)
        }
        Mode::Run(name) => run_one(&name, opts).map(|report| exit_code(&report)),
        Mode::All => run_suite(opts, "results.json").map(|_| 0),
        Mode::CheckRepeat => check_repeat(opts).map(|()| 0),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        parse_args(&args).and_then(|(mode, opts)| match host::rerun_with_allocator_env()? {
            Some(code) => Ok(code),
            None => dispatch(mode, &opts),
        });
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("drai-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
