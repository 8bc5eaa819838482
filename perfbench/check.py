"""Independent output checks for the benchmark.

Nothing in this file imports sgflow.  Flows are re-checked from the edge
list alone, under the default bidirected orientation (the first half-edge
of every edge points out of its vertex; the second points out iff the edge
is negative), and exact verdicts are compared with the hand-written answers
in expected.json.

Run ``python3 perfbench/check.py`` to re-derive the K4 connectivity
entries of expected.json by brute force, including the Z7 entry that the
paper's theorem does not decide.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

Edge = tuple[int, int, int]  # (u, v, sign) with 0-based vertices, sign +1/-1


class WrongResult(Exception):
    """An output disagrees with the independent check or the expected verdict."""


def load_expected() -> dict[str, str]:
    """Map query key -> expected verdict."""
    raw = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    return {key: entry["verdict"] for key, entry in raw["verdicts"].items()}


def expect(expected: dict[str, str], key: str, got: str) -> None:
    want = expected[key]
    if got != want:
        raise WrongResult(f"{key}: expected {want}, got {got}")


def group_boundary(n: int, edges: list[Edge], factors: tuple[int, ...],
                   f: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Boundary of an edge map under the default orientation."""
    acc = [[0] * len(factors) for _ in range(n)]
    for (u, v, s), val in zip(edges, f):
        for i in range(len(factors)):
            acc[u][i] += val[i]
            acc[v][i] -= s * val[i]
    return [tuple(x % q for x, q in zip(row, factors)) for row in acc]


def _check_values(edges: list[Edge], factors: tuple[int, ...], f) -> None:
    if f is None or len(f) != len(edges):
        raise WrongResult("flow missing or of the wrong length")
    for val in f:
        if len(val) != len(factors) or any(not 0 <= x < q
                                            for x, q in zip(val, factors)):
            raise WrongResult(f"value {val} is not an element of the group")


def check_avoiding_flow(n: int, edges: list[Edge], factors: tuple[int, ...],
                        fbar: list[tuple[int, ...]], f) -> None:
    """f has zero boundary and f(e) != fbar(e) on every edge."""
    _check_values(edges, factors, f)
    if any(b != (0,) * len(factors)
           for b in group_boundary(n, edges, factors, f)):
        raise WrongResult("flow has a nonzero boundary")
    hits = [e for e in range(len(edges)) if tuple(f[e]) == tuple(fbar[e])]
    if hits:
        raise WrongResult(f"flow takes the forbidden value on edges {hits}")


def check_nowhere_zero_flow(n: int, edges: list[Edge],
                            factors: tuple[int, ...], f) -> None:
    zero = (0,) * len(factors)
    check_avoiding_flow(n, edges, factors, [zero] * len(edges), f)


def check_integer_k_flow(n: int, edges: list[Edge], k: int, f) -> None:
    if f is None or len(f) != len(edges):
        raise WrongResult("integer flow missing or of the wrong length")
    if any(not 0 < abs(x) < k for x in f):
        raise WrongResult(f"integer flow value outside 1..{k - 1} in size")
    acc = [0] * n
    for (u, v, s), x in zip(edges, f):
        acc[u] += x
        acc[v] -= s * x
    if any(acc):
        raise WrongResult("integer flow has a nonzero boundary")


def count_A_boundaries(n: int, factors: tuple[int, ...]) -> int:
    """Number of vertex maps whose sum lies in 2A: |A|^(n-1) * |2A|."""
    order = math.prod(factors)
    doubled = math.prod(q // math.gcd(2, q) for q in factors)
    return order ** (n - 1) * doubled


def brute_A_connected(n: int, edges: list[Edge],
                      factors: tuple[int, ...]) -> bool:
    """Every A-boundary is the boundary of some nowhere-zero edge map.

    Enumerates all (|A|-1)^m nowhere-zero maps, so it is for tiny graphs.
    """
    elems = list(itertools.product(*(range(q) for q in factors)))
    nonzero = elems[1:]
    reached = set()
    for f in itertools.product(nonzero, repeat=len(edges)):
        reached.add(tuple(group_boundary(n, edges, factors, list(f))))
    return len(reached) == count_A_boundaries(n, factors)


def parse_sg_text(text: str) -> tuple[int, list[Edge]]:
    """Vertex count and edge list of a graph in the sg text format."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0][0] != "sg":
        raise WrongResult("graph output lacks its 'sg n m' header")
    n, m = int(lines[0][1]), int(lines[0][2])
    edges = [(int(u) - 1, int(v) - 1, 1 if s == "+" else -1)
             for _, u, v, s in lines[1:]]
    if len(edges) != m:
        raise WrongResult("graph output has the wrong number of edges")
    return n, edges


def parse_cert_text(text: str):
    """Group factors, forbidden map and flow (None if unsat) of a certificate."""
    factors, fbar, flow, unsat = None, {}, {}, False
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "group":
            factors = tuple(int(p[1:]) for p in parts[1].split("x"))
        elif parts[0] in ("fbar", "f"):
            val = tuple(int(x) for x in parts[2].split(","))
            (fbar if parts[0] == "fbar" else flow)[int(parts[1]) - 1] = val
        elif parts[0] == "unsat":
            unsat = True
    if factors is None:
        raise WrongResult("certificate lacks its group line")
    return (factors, [fbar[e] for e in sorted(fbar)],
            None if unsat else [flow[e] for e in sorted(flow)])


def check_negative_cycle_graph(text: str, n: int, m: int, cycle_len: int) -> None:
    """A cubic graph whose negative edges form one cycle of cycle_len."""
    got_n, edges = parse_sg_text(text)
    deg, neg = [0] * got_n, [0] * got_n
    for u, v, s in edges:
        deg[u] += 1
        deg[v] += 1
        if s < 0:
            neg[u] += 1
            neg[v] += 1
    ok = (got_n, len(edges)) == (n, m) and set(deg) == {3} \
        and sorted(neg) == [0] * (n - cycle_len) + [2] * cycle_len \
        and sum(s < 0 for _, _, s in edges) == cycle_len
    if not ok:
        raise WrongResult(f"generated graph is not the expected {n}-vertex graph")


# K4 with an all-negative triangle on vertices 0, 1, 2.
K4_NEGTRI: list[Edge] = [(0, 1, -1), (1, 2, -1), (0, 2, -1),
                         (0, 3, 1), (1, 3, 1), (2, 3, 1)]


def main() -> int:
    expected = load_expected()
    bad = 0
    for factors, spec in (((6,), "Z6"), ((7,), "Z7"), ((8,), "Z8"),
                          ((2, 4), "Z2xZ4")):
        key = f"a-connected k4-negtri {spec}"
        got = "yes" if brute_A_connected(4, K4_NEGTRI, factors) else "no"
        print(f"{key}: brute force {got}, expected.json {expected[key]}")
        bad += got != expected[key]
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
