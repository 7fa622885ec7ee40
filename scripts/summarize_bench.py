#!/usr/bin/env python3
"""Summarize one drai-monitor/v2 artifact as a Markdown table.

  python3 scripts/summarize_bench.py --monitor <file.jsonl>
      Summarize the `monitor.jsonl` that
      `cargo run --release --example explain_run -- <dir>` leaves in
      <dir>: one row per time series, executor.* and sched.* alike.

Performance itself is measured by the benchmark under `benchmark/`,
which writes its own report.
"""
import json
import os
import sys


def load_monitor(path: str):
    """Parse a drai-monitor/v2 JSONL artifact."""
    try:
        with open(path) as f:
            lines = [json.loads(ln) for ln in f if ln.strip()]
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"{path}: {e}")
    if not lines or lines[0].get("format") != "drai-monitor/v2":
        sys.exit(f"{path}: not a drai-monitor/v2 artifact")
    header = lines[0]
    series = {}  # metric -> {"kind": ..., "points": [...]}
    for doc in lines[1:]:
        kind = doc.get("kind")
        if kind == "series":
            series[doc["metric"]] = {"kind": doc.get("metric_kind", "?"), "points": []}
        elif kind == "point" and doc.get("metric") in series:
            series[doc["metric"]]["points"].append(doc)
    return {"ticks": header.get("ticks", 0), "series": series}


def monitor_mode(path: str) -> None:
    """Print the per-series summary table for one monitor artifact."""
    mon = load_monitor(path)
    print(f"monitor: {mon['ticks']} samples, {len(mon['series'])} series")
    print("| metric | kind | points | last | peak hi | mean rate |")
    print("|---|---|---|---|---|---|")
    for metric in sorted(mon["series"]):
        s = mon["series"][metric]
        pts = s["points"]
        if not pts:
            continue
        peak = max(p.get("hi", 0.0) for p in pts)
        rates = [p.get("rate", 0.0) for p in pts]
        mean_rate = sum(rates) / len(rates) if rates else 0.0
        print(
            f"| {metric} | {s['kind']} | {len(pts)} "
            f"| {pts[-1].get('value', 0.0):g} | {peak:g} | {mean_rate:.1f}/s |"
        )


def main() -> None:
    args = sys.argv[1:]
    if len(args) != 2 or args[0] != "--monitor":
        sys.exit("usage: summarize_bench.py --monitor <file.jsonl>")
    monitor_mode(args[1])


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`| head -1`): the rest of the table has
        # nowhere to go, which is not an error. Point stdout at /dev/null
        # so the interpreter's own flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
