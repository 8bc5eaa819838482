"""Compare cubicize's uncontraction histories from two source trees on
seeded non-cubic inputs: random cubic 3-connected graphs on 8..24 vertices
with random signs, one to three of their edges contracted, so vertices of
degree 4 to 6 occur, with loops and parallel edges now and then, and inputs
outside the hypotheses too.  A change to sgflow.reduce that keeps every
choice should give the old tree's history, cubic graph and error text on
every input.

Run from the repository root, OLD and NEW being directories that hold the
sgflow package (say, the src of a `git archive` of the parent commit, and
src); it prints each side's time in cubicize and how many inputs it split,
and exits 1 if any outcome differs, printing the first few such inputs:

    python tools/compare_cubicize.py OLD NEW [--graphs 2000] [--seed 0]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import subprocess
import sys

SHOWN = 5  # differing inputs printed


def outcomes(count: int, seed: int) -> None:
    """Print a digest of the inputs, one outcome line per input (the
    history and the cubic graph, or the exception's type and text) and
    then the seconds spent in cubicize, with the sgflow that PYTHONPATH
    finds; the inputs come from that sgflow's generator and contraction."""
    import time

    from sgflow.core import MINUS, PLUS, contract_set, format_sg
    from sgflow.generators import random_cubic_3connected
    from sgflow.reduce import cubicize

    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        g = random_cubic_3connected(rng.randrange(8, 25, 2), rng)
        g = g.with_signs([rng.choice((PLUS, MINUS)) for _ in range(g.m)])
        k = rng.randint(1, 3)
        cases.append(contract_set(g, rng.sample(range(g.m), k)).graph)
    digest = hashlib.sha256("".join(map(format_sg, cases)).encode())
    print(digest.hexdigest()[:16])
    spent = 0.0
    for g in cases:
        start = time.perf_counter()
        try:
            res = cubicize(g)
        except (ValueError, AssertionError) as exc:
            spent += time.perf_counter() - start
            print(f"{type(exc).__name__}: {exc}")
            continue
        spent += time.perf_counter() - start
        steps = [(s.vertex, s.half_e, s.half_f, s.new_vertex, s.new_edge)
                 for s in res.history]
        print(f"split {steps} into {res.graph.edges}")
    print(f"{spent:.2f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--graphs", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        outcomes(args.graphs, args.seed)
        return 0
    runs = []
    for tree in (args.old, args.new):
        out = subprocess.run(
            [sys.executable, __file__, tree, tree, "--child",
             "--graphs", str(args.graphs), "--seed", str(args.seed)],
            env={**os.environ, "PYTHONPATH": os.path.abspath(tree)},
            check=True, capture_output=True, text=True).stdout.splitlines()
        runs.append(out)
        split = sum(line.startswith("split [(") for line in out[1:-1])
        print(f"{tree}: {out[-1]} s in cubicize, {split} of {args.graphs}"
              " inputs split")
    (old, new) = runs
    if old[0] != new[0]:
        print(f"the trees drew different inputs ({old[0]} against"
              f" {new[0]})")
        return 1
    differ = [i for i, (a, b) in enumerate(zip(old[1:-1], new[1:-1]))
              if a != b]
    for i in differ[:SHOWN]:
        print(f"input {i} differs:\n  old {old[1 + i]}\n  new {new[1 + i]}")
    if differ:
        print(f"{len(differ)} of {args.graphs} outcomes differ")
        return 1
    print(f"same outcome on all {args.graphs} inputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
