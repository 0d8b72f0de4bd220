#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py PARENT.txt CHANGE.txt

Each file holds the standard output of one or more runs of run.py (append
runs with ``>>``).  Runs are grouped by workload and trace mode and paired in
the order they appear, so run both sides with the same seeds in the same
order.  For every metric the tool prints each side's median and quartiles,
the change's median as a ratio of the parent's median, the share of pairs the
change wins (ties count for neither side) and a verdict:

* ``better``: the change wins at least 9 of 10 pairs and the medians differ by
  more than the parent's interquartile range, or every change run beats every
  parent run;
* ``worse``: the same rule the other way round, or, for an end-to-end metric,
  the change's median is worse than the parent's by more than the bound;
* ``unresolved``: an end-to-end metric whose spread (interquartile range over
  median) exceeds its bound on either side;
* ``same``: none of these.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Optional

WIN_SHARE = 0.9


def load_runs(path: Path) -> dict[tuple[str, int], list[dict]]:
    """``{(workload, trace): [run, ...]}`` from captured run.py output."""
    groups: dict[tuple[str, int], list[dict]] = {}
    header: Optional[dict] = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "bench" in obj:
            header = obj["bench"]
        elif "metrics" in obj and header is not None:
            run = {"env": header.get("env", {}), "attempted": obj["attempted"],
                   "failed": obj["failed"],
                   "metrics": {k: v["value"] for k, v in obj["metrics"].items()}}
            groups.setdefault((header["workload"], int(header["trace"])), []).append(run)
            header = None
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent: list[float], change: list[float], better: str,
            bound: Optional[float]) -> tuple[str, float]:
    """Verdict and the change's win share over pairs (parent[i], change[i])."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gap = abs(c_med - p_med) > p_q3 - p_q1
    if min(sign * c for c in change) > max(sign * p for p in parent) or (
            share >= WIN_SHARE and gap):
        return "better", share
    if max(sign * c for c in change) < min(sign * p for p in parent) or (
            pairs and losses / len(pairs) >= WIN_SHARE and gap):
        return "worse", share
    if bound is not None:
        if max(spread(parent), spread(change)) > bound:
            return "unresolved", share
        if p_med and sign * (p_med - c_med) / abs(p_med) > bound:
            return "worse", share
    return "same", share


def compare(parent_path: Path, change_path: Path, spec: dict) -> list[str]:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_runs(parent_path), load_runs(change_path)
    lines = []
    for key in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(key, []), change.get(key, [])
        workload, trace = key
        if not p_runs or not c_runs:
            lines.append(f"== {workload} trace={trace}: only one side has runs; nothing to compare")
            continue
        shas = [sorted({r["env"].get("git_sha", "?") for r in runs}) for runs in (p_runs, c_runs)]
        lines.append(f"== {workload} trace={trace}: parent {len(p_runs)} runs {shas[0]}, "
                     f"change {len(c_runs)} runs {shas[1]}")
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            lines.append(f"   {side} failed calls: {failed} of {attempted}")
        lines.append(f"   {'metric':<45} {'unit':<9} {'parent median [q1, q3]':<34} "
                     f"{'change median [q1, q3]':<34} {'ratio':>7} {'wins':>5}  verdict")
        for name in [m for m in meta if m in p_runs[0]["metrics"]]:
            pv = [r["metrics"][name] for r in p_runs if name in r["metrics"]]
            cv = [r["metrics"][name] for r in c_runs if name in r["metrics"]]
            if not pv or not cv:
                continue
            p_q = quartiles(pv)
            c_q = quartiles(cv)
            ratio = f"{c_q[1] / p_q[1]:.3f}" if p_q[1] else "n/a"
            v, share = verdict(pv, cv, meta[name]["better"], bounds.get(name))
            p_txt = f"{p_q[1]:.5g} [{p_q[0]:.5g}, {p_q[2]:.5g}]"
            c_txt = f"{c_q[1]:.5g} [{c_q[0]:.5g}, {c_q[2]:.5g}]"
            lines.append(f"   {name:<45} {meta[name]['unit']:<9} {p_txt:<34} {c_txt:<34} "
                         f"{ratio:>7} {share:>5.0%}  {v}")
        lines.append("   ratio = change median / parent median (base: the parent median shown)")
    return lines


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description="Compare two sets of run.py outputs.")
    ap.add_argument("parent", type=Path, help="captured output of the parent's runs")
    ap.add_argument("change", type=Path, help="captured output of the change's runs")
    ap.add_argument("--spec", type=Path,
                    default=Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    args = ap.parse_args(argv)
    spec = json.loads(args.spec.read_text(encoding="utf-8"))
    print("\n".join(compare(args.parent, args.change, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
