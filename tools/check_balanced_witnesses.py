"""Re-check the pinned oracle witnesses of balanced graphs by brute force
(tests/golden/oracle_witnesses.json).

On a balanced graph an A-boundary sums to zero once the graph is switched
to all-positive, so the boundaries the oracle pins there rest on that rule
alone.  This script checks them with nothing from sgflow: it reads the
graphs from their edge lists below and computes in tuples of residues.

- satisfy_boundary and has_nz_A_flow: a returned map must lie in its
  domains and have the boundary asked for; a null one must have no such
  map, which a search over all maps, one edge at a time, confirms (it keeps
  the boundaries at the vertices with an edge still to come, and drops a
  vertex once its last edge is in and its boundary is right).
- is_A_connected: the boundaries of every nowhere-zero map.  "yes" must
  reach every map with zero switched sum, and count them; "no" must name
  the first one missed, the first n - 1 values in lexicographic order and
  the last solved for, and count the boundaries up to it.

Run from the repository root; it exits 1 if any record fails:

    python tools/check_balanced_witnesses.py
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

WITNESSES = (Path(__file__).resolve().parent.parent / "tests" / "golden"
             / "oracle_witnesses.json")
PLUS, MINUS = 1, -1
PETERSEN_POSITIVE = ([(i, (i + 1) % 5, PLUS) for i in range(5)]
                     + [(i, i + 5, PLUS) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5, PLUS) for i in range(5)])
# switchings that make every edge positive: all +1 on these all-positive
# graphs
BALANCED = {
    "k4": (4, [(0, 1, PLUS), (1, 2, PLUS), (0, 2, PLUS), (0, 3, PLUS),
               (1, 3, PLUS), (2, 3, PLUS)]),
    "petersen-positive": (10, PETERSEN_POSITIVE),
}


def factors_of(spec: str) -> tuple[int, ...]:
    return tuple(int(p[1:]) for p in spec.split("x"))


def elements(factors) -> list[tuple[int, ...]]:
    return list(itertools.product(*(range(q) for q in factors)))


def add(factors, a, b):
    return tuple((x + y) % q for x, y, q in zip(a, b, factors))


def scale(factors, k: int, a):
    return tuple(k * x % q for x, q in zip(a, factors))


def terms(u: int, v: int, sign: int) -> list[tuple[int, int]]:
    """(vertex, coefficient) of an edge in the default orientation."""
    if u == v:
        return [(u, 2)] if sign == MINUS else []
    return [(u, 1), (v, -sign)]


def boundary(n: int, edges, factors, f) -> tuple:
    out = [(0,) * len(factors)] * n
    for (u, v, sign), x in zip(edges, f):
        for w, c in terms(u, v, sign):
            out[w] = add(factors, out[w], scale(factors, c, x))
    return tuple(out)


def edge_order(n: int, edges) -> list[int]:
    """The edges in an order that keeps few vertices open: each next edge
    is the one that leaves the most of its ends with no edge to come, then
    touches the fewest vertices not yet touched."""
    left = [0] * n
    for u, v, _ in edges:
        left[u] += 1
        left[v] += 1
    touched: set[int] = set()
    rest, order = set(range(len(edges))), []
    while rest:
        def rank(e):
            u, v, _ = edges[e]
            ends = {u, v}
            closed = sum(left[w] == (u, v).count(w) for w in ends)
            return -closed, len(ends - touched), e

        e = min(rest, key=rank)
        rest.remove(e)
        order.append(e)
        u, v, _ = edges[e]
        left[u] -= 1
        left[v] -= 1
        touched |= {u, v}
    return order


def exists(n: int, edges, factors, domains, beta) -> bool:
    """Whether some map with values in domains has boundary beta: edges
    one at a time (edge_order), keeping the partial boundaries at the
    vertices that still have an edge to come."""
    zero = (0,) * len(factors)
    order = edge_order(n, edges)
    last = {}
    for i, e in enumerate(order):
        u, v, _ = edges[e]
        last[u] = last[v] = i
    if any(beta[v] != zero for v in range(n) if v not in last):
        return False
    states = {()}
    live: list[int] = []  # vertices the states' entries belong to
    for i, e in enumerate(order):
        u, v, sign = edges[e]
        for w in (u, v):
            if w not in live:
                live.append(w)
                states = {s + (zero,) for s in states}
        slot = {w: live.index(w) for w in live}
        grown = set()
        for s in states:
            for x in domains[e]:
                t = list(s)
                for w, c in terms(u, v, sign):
                    t[slot[w]] = add(factors, t[slot[w]], scale(factors, c, x))
                grown.add(tuple(t))
        done = [w for w in dict.fromkeys((u, v)) if last[w] == i]
        keep = [j for j, w in enumerate(live) if w not in done]
        states = {tuple(t[j] for j in keep) for t in grown
                  if all(t[slot[w]] == beta[w] for w in done)}
        live = [live[j] for j in keep]
    return bool(states)


def check_record(rec: dict) -> str:
    """'' if the record holds, else what is wrong."""
    n, edges = BALANCED[rec["graph"]]
    factors = factors_of(rec["group"])
    zero = (0,) * len(factors)
    every = elements(factors)
    if rec["call"] == "is_A_connected":
        reached = {boundary(n, edges, factors, f)
                   for f in itertools.product(every[1:], repeat=len(edges))}
        count = 0
        for head in itertools.product(every, repeat=n - 1):
            total = zero
            for b in head:
                total = add(factors, total, b)
            beta = head + (scale(factors, -1, total),)
            count += 1
            if beta not in reached:
                want = {"status": "no", "witness_beta": [list(b) for b in beta],
                        "checked": count}
                break
        else:
            want = {"status": "yes", "witness_beta": None, "checked": count}
        return "" if rec["result"] == want else f"want {want}"
    fbar = rec.get("fbar")
    allow_zero = rec.get("allow_zero", False)
    domains = [[x for x in every if (allow_zero or x != zero)
                and (fbar is None or list(x) != fbar[e])]
               for e in range(len(edges))]
    beta = [tuple(b) for b in rec.get("beta", [zero] * n)]
    total = zero
    for b in beta:
        total = add(factors, total, b)
    if total != zero:
        return "beta is no A-boundary of a balanced graph"
    f = rec["result"]
    if f is None:
        return "a map exists" if exists(n, edges, factors, domains,
                                         beta) else ""
    f = [tuple(x) for x in f]
    if any(x not in d for x, d in zip(f, domains)):
        return "a value lies outside its domain"
    return "" if list(boundary(n, edges, factors, f)) == beta else \
        "the map misses beta"


def main() -> int:
    records = [rec for rec in json.loads(WITNESSES.read_text())
               if rec["graph"] in BALANCED and rec["call"] in (
                   "satisfy_boundary", "has_nz_A_flow", "is_A_connected")]
    bad = 0
    for rec in records:
        wrong = check_record(rec)
        if wrong:
            bad += 1
            print(f"{rec['call']} {rec['graph']} {rec['group']}: {wrong}")
    print(f"{len(records) - bad} of {len(records)} balanced-graph records"
          " hold")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
