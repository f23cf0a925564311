#!/usr/bin/env python3
"""Run one urmem benchmark workload and print its result.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script builds the harness in perfbench/ as a Release build (into
$CARGO_TARGET_DIR, default .bench_build), runs the named workload of
BENCHMARK.json on inputs made from --seed, and prints a short summary
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports every end-to-end metric of BENCHMARK.json; --trace 1
reports every per-layer metric (0 where a layer is not on the
workload's path) and writes a Chrome trace-event file. The full record,
with the run envelope (source revision, compiler, build type, nproc,
seed, workload spec, load average at start), is saved under
<build>/results/ for perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HARNESS_TIMEOUT_S = 170
# Set-up takes milliseconds, so one sample is noise: set-up is timed in
# this many extra fresh processes (cold, like the measured one) and the
# median of all of them is reported.
SETUP_PROCESSES = 15


def fail(message: str, code: int = 1) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(out: Path) -> Path:
    """Configures (Release) once, then brings the harness up to date."""
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target",
                  "perfbench_harness", "-j", jobs])
    with log.open("w") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    cache = (out / "CMakeCache.txt").read_text(errors="replace")
    if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache:
        fail(f"{out} is not a Release build; refusing to measure it")
    return out / "perfbench_harness"


def source_revision() -> dict:
    """Git commit when available, and always a digest of the sources the
    harness is built from (benchmark checkouts are not git repositories)."""
    revision = {"git_sha": None}
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True)
        if result.returncode == 0:
            revision["git_sha"] = result.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / tree).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    revision["source_sha256"] = digest.hexdigest()
    return revision


def cpu_ticks() -> list[int]:
    """The aggregate `cpu` line of /proc/stat (user, nice, system, idle,
    iowait, irq, softirq, steal, ...), in clock ticks."""
    with open("/proc/stat") as stat:
        return [int(field) for field in stat.readline().split()[1:]]


def run_harness(command: list[str]) -> dict:
    """Runs the harness to completion and returns its JSON result line."""
    try:
        run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                             timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {HARNESS_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"harness exited with {run.returncode}:\n{run.stderr[-2000:]}")
    try:
        return json.loads(run.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        fail("harness printed no result line")


def pick_metrics(declared: list, measured: dict, fill_missing: bool):
    """The declared metrics, in order, with the harness's values."""
    metrics, not_applicable = {}, []
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                fail(f"metric {name}: harness unit {measured[name]['unit']} "
                     f"!= declared {unit}")
            metrics[name] = {"value": measured[name]["value"], "unit": unit}
        elif fill_missing:
            metrics[name] = {"value": 0.0, "unit": unit}
            not_applicable.append(name)
        else:
            fail(f"harness did not report end-to-end metric {name}")
    return metrics, not_applicable


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    load_at_start = os.getloadavg()
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no urmem sources next to {BENCH_DIR.name}/ "
             "(expected CMakeLists.txt and src/)", 2)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        fail(f"unknown workload {args.workload!r}", 2)
    spec = BENCH_DIR / "workloads" / f"{args.workload}.json"

    out = build_dir()
    harness = build(out)
    (out / "results").mkdir(exist_ok=True)
    (out / "traces").mkdir(exist_ok=True)
    trace_file = out / "traces" / f"{args.workload}-seed{args.seed}.json"
    command = [str(harness), "--spec", str(spec), "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", str(trace_file)]
    setup_command = [str(harness), "--spec", str(spec), "--seed",
                     str(args.seed), "--setup-only", "1"]
    setup_times = [run_harness(setup_command)["setup_s"]
                   for _ in range(SETUP_PROCESSES)]
    ticks_before = cpu_ticks()
    result = run_harness(command)
    ticks = [after - before for before, after in zip(ticks_before, cpu_ticks())]
    setup_times.append(result["end_to_end"]["setup_s"]["value"])
    result["end_to_end"]["setup_s"]["value"] = statistics.median(setup_times)

    if args.trace:
        metrics, not_applicable = pick_metrics(
            benchmark["per_layer"], result["per_layer"], fill_missing=True)
    else:
        metrics, not_applicable = pick_metrics(
            benchmark["end_to_end"], result["end_to_end"], fill_missing=False)

    attempted, failed = int(result["attempted"]), int(result["failed"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "envelope": {
            **source_revision(),
            "compiler": result["compiler"],
            "build_type": result["build_type"],
            "nproc": os.cpu_count(),
            "load_average_at_start": list(load_at_start),
            # Share of CPU time the hypervisor took from this machine while
            # the harness ran; runs with a large share measure the host.
            "cpu_steal_share": ticks[7] / max(1, sum(ticks[:8])),
            "workload_spec": result["spec"],
        },
        "correct": bool(result["correct"]),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "metrics": metrics,
        "not_applicable": not_applicable,
        "setup_s_samples": setup_times,
        "harness": result,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    saved = out / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
        f"-{os.getpid()}.json")
    saved.write_text(json.dumps(record, indent=1) + "\n")

    kind = "requests" if args.workload.startswith("serve") else "trials"
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"{kind}: attempted={attempted} failed={failed} "
          f"error_rate={record['error_rate']:.3g} "
          f"latency_samples={result['latency_samples']}")
    for name, value in metrics.items():
        print(f"  {name} = {value['value']:.6g} {value['unit']}")
    print(f"  record: {saved}")
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
