#!/usr/bin/env python3
"""Repository benchmark: host speed and memory of the simulator, end to end
and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload volano_4p_linux --seed 42 --seconds 30 --trace 0

It builds perfbench/ (and the simulator sources under src/) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then

  --trace 0  runs the workload repeatedly, one fresh process per run, for
             about --seconds, checks every run's simulated output and that
             every run reproduces the first one's digest, and reports the
             medians of the end-to-end metrics;
  --trace 1  runs the workload untraced and traced (a timing scheduler
             decorator plus standalone layer probes sized from the run's own
             counters), proves the tracing inert, and reports the per-layer
             metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the host context
and details. Metric names and units come from BENCHMARK.json. See
perfbench/README.md for the workloads and what each metric should move.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("volano_4p_linux", "federation_20k_elsc", "webserver_overload_o1")
# Set-up samples per run process: cheap single-machine builds are sampled
# more often so the median is steady; one federation set-up boots 1,000 nodes.
SETUP_SAMPLES = {"volano_4p_linux": 9, "federation_20k_elsc": 3, "webserver_overload_o1": 9}
MIN_RUNS = 3          # Runs per measurement even when --seconds is short.
CHILD_TIMEOUT_S = 150  # One run process; the whole benchmark must end in 180 s.


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures and builds the perfbench binary; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def child_env():
    # ELSC_* knobs (checkpoint paths, watchdogs, job counts) must not leak in.
    return {k: v for k, v in os.environ.items() if not k.startswith("ELSC_")}


def run_child(argv):
    """Runs one perfbench process; returns its JSON record or None on failure."""
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=CHILD_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(argv)}")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"exit {proc.returncode}: {' '.join(argv)}")
        return None
    record = json.loads(lines[-1])
    if not record.get("ok"):
        log(f"run failed: {record.get('error')}")
    return record


def source_sha256(root):
    """Digest of the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def measure(binary, workload, seed, seconds):
    """End-to-end metrics: fresh-process runs filling about `seconds`."""
    start = time.monotonic()
    runs = []
    failed = 0
    while True:
        record = run_child([str(binary), workload, "--seed", str(seed), "--mode", "run",
                            "--setup-samples", str(SETUP_SAMPLES[workload])])
        if record is None or not record["ok"]:
            failed += 1
            record = None
        # Same seed, same inputs: every run must reproduce the first digest.
        first = next((r for r in runs + [record] if r is not None), None)
        if record is not None and record["digest"] != first["digest"]:
            log(f"digest {record['digest']} != first run's {first['digest']}; repro: "
                f"python3 perfbench/run.py --workload {workload} --seed {seed} --trace 0")
            failed += 1
            record = None
        runs.append(record)
        # Stop when one more run of the average length would overrun.
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_RUNS and elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    good = [r for r in runs if r is not None]
    if not good:
        return len(runs), failed, {}, {}
    median = statistics.median
    metrics = {
        "run_s": median(r["run_s"] for r in good),
        "sim_events_per_s": median(r["events"] / r["run_s"] for r in good),
        "setup_s": median(s for r in good for s in r["setup_s"]),
        "peak_rss_mb": median(r["peak_rss_kb"] / 1024.0 for r in good),
        "bytes_per_connection": median(
            (r["peak_rss_kb"] - r["rss_base_kb"]) * 1024.0 / r["connections"] for r in good),
    }
    detail = {"runs": len(runs), "shards": good[0]["shards"], "digest": good[0]["digest"],
              "run_s_all": [r["run_s"] for r in good]}
    return len(runs), failed, metrics, detail


def trace(binary, workload, seed, scratch):
    """Per-layer metrics: one trace-mode process and its probes."""
    record = run_child([str(binary), workload, "--seed", str(seed), "--mode", "trace",
                        "--scratch", str(scratch)])
    if record is None:
        return 1, 1, {}, {}
    return 1, 0 if record["ok"] else 1, record["metrics"], record["detail"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"no simulator sources under {root}/src: run from the root of a checkout")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    binary = build(root, build_dir)
    host = json.loads(subprocess.run([str(binary), "--host"], check=True, text=True,
                                     stdout=subprocess.PIPE).stdout)
    host.update(seed=args.seed, workload=args.workload, trace=args.trace,
                git_commit=git_commit(root), source_sha256=source_sha256(root))

    if args.trace:
        attempted, failed, values, detail = trace(binary, args.workload, args.seed,
                                                  build_dir / "scratch")
    else:
        attempted, failed, values, detail = measure(binary, args.workload, args.seed,
                                                    args.seconds)
    missing = sorted(set(units) - set(values))
    if missing and failed == 0:
        log(f"metrics missing from the run: {', '.join(missing)}")
        return 1
    report = {"host": host, "detail": detail, "metrics": values}
    results = build_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    print(json.dumps({"host": host, "detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
