"""Compare the is_planar verdicts of two source trees on seeded random
multigraphs: n = 3..12 vertices and up to 34 edges, loops and parallel
edges included, so sparse graphs and graphs past Euler's bound both occur.
A refactor of sgflow.planarity should give the old tree's verdict on every
one.

Run from the repository root, OLD and NEW being directories that hold the
sgflow package (say, the src of a `git archive` of the parent commit, and
src); it prints each side's time and the count of nonplanar graphs, and
exits 1 if any verdict differs, naming the first such graph:

    python tools/compare_planarity.py OLD NEW [--graphs 20000] [--seed 0]
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys


def graphs(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 12)
        yield n, [(rng.randrange(n), rng.randrange(n))
                  for _ in range(rng.randint(0, 34))]


def verdicts(count: int, seed: int) -> None:
    """Print one 0/1 verdict per graph and then the seconds spent in
    is_planar, with the sgflow that PYTHONPATH finds."""
    import time

    from sgflow.planarity import is_planar

    cases = list(graphs(count, seed))
    start = time.perf_counter()
    bits = "".join("01"[is_planar(n, edges)] for n, edges in cases)
    print(bits)
    print(f"{time.perf_counter() - start:.2f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--graphs", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        verdicts(args.graphs, args.seed)
        return 0
    runs = []
    for tree in (args.old, args.new):
        out = subprocess.run(
            [sys.executable, __file__, tree, tree, "--child",
             "--graphs", str(args.graphs), "--seed", str(args.seed)],
            env={**os.environ, "PYTHONPATH": os.path.abspath(tree)},
            check=True, capture_output=True, text=True).stdout.split()
        runs.append(out)
        print(f"{tree}: {out[1]} s, {out[0].count('0')} of {args.graphs}"
              " nonplanar")
    (old, _), (new, _) = runs
    for case, a, b in zip(graphs(args.graphs, args.seed), old, new):
        if a != b:
            print(f"verdicts differ ({a} against {b}) on {case}")
            return 1
    print(f"same verdict on all {args.graphs} graphs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
