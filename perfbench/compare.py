#!/usr/bin/env python3
"""Compare two sets of benchmark runs (parent vs change), per workload.

Usage:

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are directories (or single files) of run records that
perfbench/run.py saved under <build>/results/. Runs of the two sets are
paired by (workload, seed). For every end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles, the share of
pairs the change won (ties count for neither side), and a verdict:

  improved    the change won at least 90% of 10 or more pairs and the medians
              differ, in its favour, by more than the parent's own
              interquartile distance
  unresolved  the parent's relative spread is wider than the metric's
              bound and not every change run beats every parent run
  worse       the change's median is worse than the parent's by more
              than the metric's bound
  no worse    otherwise

It then lists the per-layer metrics (from --trace 1 runs) whose medians
moved by more than their own interquartile spread on either side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENVELOPE_KEYS = ("compiler", "build_type", "nproc", "workload_spec")
STEAL_WARNING = 0.05
MIN_PAIRS = 10  # fewer pairs never support a claimed gain


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        record = json.loads(file.read_text())
        if "workload" in record and "metrics" in record:
            records.append(record)
    if not records:
        sys.exit(f"compare: no run records in {path}")
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def gain(value: float, base: float, better: str) -> float:
    """Signed improvement of `value` over `base` (positive = better)."""
    return value - base if better == "higher" else base - value


def verdict(parent: list[float], change: list[float], pairs, better: str,
            bound: float) -> tuple[str, float]:
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if gain(c, p, better) > 0)
    won = wins / len(pairs) if pairs else 0.0
    improvement = gain(cm, pm, better)
    if len(pairs) >= MIN_PAIRS and won >= 0.9 and improvement > p3 - p1:
        return "improved", won
    if pm != 0 and (p3 - p1) / abs(pm) > bound:
        all_better = all(gain(c, p, better) > 0 for c in change for p in parent)
        return ("no worse" if all_better else "unresolved"), won
    if pm != 0 and -improvement / abs(pm) > bound:
        return "worse", won
    return "no worse", won


def by_workload(records: list[dict], trace: int) -> dict:
    grouped = defaultdict(dict)
    for r in records:
        if r["trace"] == trace:
            grouped[r["workload"]][r["seed"]] = r
    return grouped


def comparable(value):
    """An envelope value without the run's own seed (seeds.root)."""
    if isinstance(value, dict) and "seeds" in value:
        value = {**value, "seeds": {k: v for k, v in value["seeds"].items()
                                    if k != "root"}}
    return value


def check_envelopes(parent: list[dict], change: list[dict]) -> None:
    for workload in sorted({r["workload"] for r in parent + change}):
        runs = [r for r in parent + change if r["workload"] == workload]
        for key in ENVELOPE_KEYS:
            seen = {json.dumps(comparable(r["envelope"].get(key)),
                               sort_keys=True) for r in runs}
            if len(seen) > 1:
                print(f"WARNING: {workload} runs differ in {key}; "
                      "results are not comparable")
    stolen = [r for r in parent + change
              if r["envelope"].get("cpu_steal_share", 0.0) > STEAL_WARNING]
    if stolen:
        print(f"WARNING: {len(stolen)} runs lost more than "
              f"{STEAL_WARNING:.0%} of CPU time to the hypervisor")
    bad = [r for r in parent + change if not r["correct"] or r["failed"]]
    for r in bad:
        print(f"WARNING: {r['workload']} seed {r['seed']}: output check "
              f"failed ({r['failed']}/{r['attempted']})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    check_envelopes(parent, change)

    old, new = by_workload(parent, 0), by_workload(change, 0)
    for workload in sorted(set(old) & set(new)):
        seeds = sorted(set(old[workload]) & set(new[workload]))
        print(f"\n== {workload}: {len(old[workload])} parent runs, "
              f"{len(new[workload])} change runs, {len(seeds)} pairs")
        if len(seeds) < MIN_PAIRS:
            print(f"   (fewer than {MIN_PAIRS} pairs: a gain cannot be claimed)")
        print(f"   {'metric':16s} {'parent median [q1, q3]':34s} "
              f"{'change median [q1, q3]':34s} {'won':>5s}  verdict")
        for m in benchmark["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in old[workload].values()]
            cv = [r["metrics"][name]["value"] for r in new[workload].values()]
            pairs = [(old[workload][s]["metrics"][name]["value"],
                      new[workload][s]["metrics"][name]["value"])
                     for s in seeds]
            text, won = verdict(pv, cv, pairs, m["better"], m["bound"])
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(f"   {name:16s} {pm:11.5g} [{p1:.5g}, {p3:.5g}]".ljust(54)
                  + f" {cm:11.5g} [{c1:.5g}, {c3:.5g}]".ljust(35)
                  + f" {won:5.0%}  {text}")

    old, new = by_workload(parent, 1), by_workload(change, 1)
    for workload in sorted(set(old) & set(new)):
        moved = []
        for m in benchmark["per_layer"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in old[workload].values()]
            cv = [r["metrics"][name]["value"] for r in new[workload].values()]
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            if abs(cm - pm) > max(p3 - p1, c3 - c1) and (pm or cm):
                share = f" ({(cm - pm) / pm:+.1%})" if pm else ""
                moved.append(f"   {name}: {pm:.5g} -> {cm:.5g} {m['unit']}{share}")
        print(f"\n== {workload}: per-layer metrics that moved beyond their "
              f"spread ({len(old[workload])} vs {len(new[workload])} traced runs)")
        print("\n".join(moved) if moved else "   none")


if __name__ == "__main__":
    main()
