"""Compare two sets of benchmark records: a parent commit against a change.

    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

Each directory holds the --out records of --trace 0 runs.  Runs pair up by
workload and seed.  For every workload and end-to-end metric the table
gives each side's median and quartiles, the share of pairs the change won
(ties count for neither side), and a verdict:

  better      the change won at least nine tenths of the pairs, and the
              medians differ by more than the parent's quartile spread
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the parent's quartile spread is wider than the bound, and not
              every change run beats every parent run
  unchanged   otherwise

Run at least ten pairs, alternating which side runs first.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict[tuple[str, int], dict]:
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        if rec.get("trace") == 0:
            out[(rec["workload"], rec["seed"])] = rec
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs, lower: bool,
            bound: float) -> tuple[str, float]:
    sign = -1 if lower else 1  # sign * (a - b) > 0 means a is better than b
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    won = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs) if pairs else 0.0
    if won >= 0.9 and sign * (cmed - pmed) > p3 - p1:
        return "better", won
    if -sign * (cmed - pmed) > bound * abs(pmed):
        return "worse", won
    if p3 - p1 > bound * abs(pmed) and not all(
            sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved", won
    return "unchanged", won


def main(parent_dir: str, change_dir: str) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load(parent_dir), load(change_dir)
    workloads = sorted({w for w, _ in parent} & {w for w, _ in change})
    if not workloads:
        print("no workload has trace-0 records on both sides")
        return 2
    fmt = "{:<17} {:<17} {:>36} {:>36} {:>5} {}"
    print(fmt.format("workload", "metric", "parent median [q1, q3]",
                     "change median [q1, q3]", "won", "verdict"))
    for w in workloads:
        seeds_p = sorted(s for ww, s in parent if ww == w)
        seeds_c = sorted(s for ww, s in change if ww == w)
        paired = sorted(set(seeds_p) & set(seeds_c))
        for s in paired:
            if parent[(w, s)]["inputs_digest"] != change[(w, s)]["inputs_digest"]:
                print(f"warning: {w} seed {s} ran different inputs on the two sides")
        for m in bench["end_to_end"]:
            name, unit = m["name"], m["unit"]
            pv = [parent[(w, s)]["metrics"][name]["value"] for s in seeds_p]
            cv = [change[(w, s)]["metrics"][name]["value"] for s in seeds_c]
            pairs = [(parent[(w, s)]["metrics"][name]["value"],
                      change[(w, s)]["metrics"][name]["value"]) for s in paired]
            v, won = verdict(pv, cv, pairs, m["better"] == "lower", m["bound"])
            side = lambda xs: "{1:.4g} [{0:.4g}, {2:.4g}] {3} n={4}".format(
                *quartiles(xs), unit, len(xs))
            print(fmt.format(w, name, side(pv), side(cv), f"{won:.0%}", v))
    return 0
