"""Ground-truth search for flows and boundary satisfaction.

Everything here is exact backtracking at desk scale, and all of it runs
through one kernel, `_search`.  It orders the edges cotree first, then
tree, and assigns one edge at a time: the first open edge that is the last
open one at some vertex, whose residual boundary forces its value, or else
the first open edge.  A branch dies as soon as a vertex with no open edge
keeps a nonzero residual.  Branching effectively happens only on cotree
edges, so Petersen-sized instances finish quickly.

The kernel takes a value list per edge and the arithmetic of its values.
There are two value domains: elements of a finite abelian group (forced
values come from negation or halving) for `satisfy_boundary` and
`has_nz_A_flow`, and bounded integers (forced values come from exact
division) for `has_nz_k_flow` and `flows.z2_to_3flow`.

Exact A-connectivity does not search boundary by boundary.  By the
Jaeger-Linial-Payan-Tarsi reduction (JCTB 1992), a graph is A-connected
iff nowhere-zero maps reach every A-boundary, so `is_A_connected` builds
the set of boundaries they reach in one sweep, `_reachable_boundaries`: a
bitset over A^n that grows edge by edge, each edge taking the union of the
set shifted by every nonzero value it can carry.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from .core import DeskScaleError, Orientation, SignedGraph, spanning_forest
from .groups import AbelianGroup, Elem, is_A_boundary

# Hard ceilings for the exact modes.
MAX_EXACT_VERTICES = 8
MAX_EXACT_GROUP_ORDER = 9
MAX_FLOW_EDGES = 18


class _Arithmetic(NamedTuple):
    """The values the kernel searches over: zero, addition, subtraction,
    integer multiples (c, x) -> c x, and solve(c, r) -> every x with
    c x = r, for a coefficient c in {-2, -1, 1, 2}."""

    zero: object
    add: Callable
    sub: Callable
    mul: Callable
    solve: Callable


_INTEGERS = _Arithmetic(0, operator.add, operator.sub, operator.mul,
                        lambda c, r: [] if r % c else [r // c])


def _group_arithmetic(A: AbelianGroup) -> _Arithmetic:
    def solve(c: int, r: Elem) -> list[Elem]:
        if c == 1:
            return [r]
        if c == -1:
            return [A.neg(r)]
        return A.halving_preimages(r if c > 0 else A.neg(r))

    return _Arithmetic(A.zero, A.add, A.sub, A.smul, solve)


def _search(g: SignedGraph, tau: Orientation, edges: Sequence[int],
            domains: Sequence[Sequence], beta: Sequence,
            ar: _Arithmetic) -> Optional[list]:
    """Values f(e) in domains[e], for the edges listed (in increasing
    order), whose boundary under tau is beta, edges not listed carrying
    nothing; None if there are none.  The returned list is indexed by edge
    and holds None for edges not listed.

    The edge order is the cotree of a spanning forest of the edges, then
    the forest's edges, sorted.  The next edge is the first unassigned one
    with an endpoint where it is the last open edge, else the first
    unassigned one.  Its candidates are the values every such endpoint
    forces, in solve order, that its domain holds; or, with no such
    endpoint, its domain in order.
    """
    zero, add, sub, mul, solve = ar
    # coefficient of edge e at vertex v: sum of tau over its half-edges at v
    coeff: list[dict[int, int]] = [{} for _ in range(g.m)]
    remaining = [0] * g.n  # open incident edges per vertex (loop counts once)
    for e in edges:
        c = coeff[e]
        for h in (2 * e, 2 * e + 1):
            v = g.halfedge_vertex(h)
            c[v] = c.get(v, 0) + tau(h)
        for v in c:
            remaining[v] += 1
    residual = list(beta)
    f: list = [None] * g.m
    tree = spanning_forest(g, edges)
    in_tree = set(tree)
    order = [e for e in edges if e not in in_tree] + sorted(tree)

    def candidates(e: int) -> Sequence:
        """Values compatible with every saturated endpoint of e."""
        cands = None
        for v, c in coeff[e].items():
            if remaining[v] != 1:
                continue
            r = residual[v]
            if c == 0:
                if r != zero:
                    return []
                continue
            vals = solve(c, r)
            cands = vals if cands is None else [x for x in cands if x in vals]
        if cands is None:
            return domains[e]
        return [x for x in cands if x in domains[e]]

    def pick() -> int:
        first = None
        for e in order:
            if f[e] is not None:
                continue
            if any(remaining[v] == 1 for v in coeff[e]):
                return e
            if first is None:
                first = e
        return first

    def dfs(done: int) -> bool:
        if done == len(order):
            return all(r == zero for r in residual)
        e = pick()
        for val in candidates(e):
            f[e] = val
            ok = True
            for v, c in coeff[e].items():
                residual[v] = sub(residual[v], mul(c, val))
                remaining[v] -= 1
                if remaining[v] == 0 and residual[v] != zero:
                    ok = False
            if ok and dfs(done + 1):
                return True
            for v, c in coeff[e].items():
                residual[v] = add(residual[v], mul(c, val))
                remaining[v] += 1
        f[e] = None
        return False

    return f if dfs(0) else None


def satisfy_boundary(
    g: SignedGraph,
    A: AbelianGroup,
    beta: Sequence[Elem],
    fbar: Optional[Sequence[Elem]] = None,
    tau: Optional[Orientation] = None,
    allow_zero: bool = False,
) -> Optional[list[Elem]]:
    """Find a nowhere-zero f with boundary beta and f(e) != fbar(e), or None.

    With allow_zero, edges may carry zero (useful when only the avoidance
    of fbar matters, not nowhere-zeroness).

    beta must be an A-boundary (sum = 2a for some a); this is a necessary
    condition for solvability and is checked up front.
    """
    if is_A_boundary(A, beta) is None:
        raise ValueError("beta is not an A-boundary (sum not of the form 2a)")
    if g.m > 2 * MAX_FLOW_EDGES:
        raise DeskScaleError(f"{g.m} edges exceeds search limit")
    if tau is None:
        tau = Orientation.default(g)
    domain = [a for a in A.elements() if allow_zero or a != A.zero]
    domains = [domain if fbar is None else [a for a in domain if a != fbar[e]]
               for e in range(g.m)]
    return _search(g, tau, range(g.m), domains, beta, _group_arithmetic(A))


def has_nz_A_flow(g: SignedGraph, A: AbelianGroup,
                  fbar: Optional[Sequence[Elem]] = None) -> Optional[list[Elem]]:
    return satisfy_boundary(g, A, [A.zero] * g.n, fbar=fbar)


def has_nz_k_flow(g: SignedGraph, k: int) -> Optional[list[int]]:
    """Integer flow with values in {-(k-1),...,-1,1,...,k-1}, zero boundary
    under the default orientation; None if no such flow exists."""
    if k < 2:
        return None
    if g.m > MAX_FLOW_EDGES:
        raise DeskScaleError(f"{g.m} edges exceeds search limit")
    domain = [x for x in range(-(k - 1), k) if x != 0]
    return _search(g, Orientation.default(g), range(g.m), [domain] * g.m,
                   [0] * g.n, _INTEGERS)


@dataclass
class ConnectivityVerdict:
    status: str  # "yes", "no", "sampled-yes"
    witness_beta: Optional[list[Elem]] = None
    witness_fbar: Optional[list[Elem]] = None
    seed: Optional[int] = None
    checked: int = 0


def _all_boundaries(g: SignedGraph, A: AbelianGroup):
    """Every beta with sum(beta) in 2A, zero boundary first."""
    import itertools

    doubled = sorted({A.add(a, a) for a in A.elements()})
    elems = sorted(A.elements())
    for head in itertools.product(elems, repeat=g.n - 1):
        partial = A.sum(head)
        for target in doubled:
            yield list(head) + [A.sub(target, partial)]


def _reachable_boundaries(g: SignedGraph, A: AbelianGroup) -> int:
    """The boundaries of every nowhere-zero map under the default
    orientation, as a bitset over A^n.

    The bit of a vertex map beta is its mixed-radix code: one digit per
    vertex, vertex 0 most significant, each digit the lexicographic rank
    of beta(v), itself made of the element's factor digits.  Adding a
    value a to edge e adds c_v a at each endpoint v, where c_v is the sum
    of tau over e's half-edges at v, which rolls every factor digit of v.
    Starting from the zero map, each edge replaces the set with the union
    of its copies rolled by every nonzero a.  Edges go in decreasing order
    of their lower end, so the set stays within the digits of the vertices
    seen so far, and its masks need span no more.
    """
    order, factors = A.order, A.factors
    inner = [1] * len(factors)  # stride of factor i within one element
    for i in range(len(factors) - 2, -1, -1):
        inner[i] = inner[i + 1] * factors[i + 1]
    size = 1  # bits in use: vertices below the lowest end seen hold 0

    def mask(stride: int, q: int, r: int) -> int:
        """Positions whose digit of this stride and order q is below q - r;
        built by doubling one period (division would be quadratic)."""
        x, length = (1 << (q - r) * stride) - 1, q * stride
        while length < size:
            x |= x << length
            length *= 2
        return x & ((1 << size) - 1)

    def spread(x: int, steps: list, i: int, nonzero: bool) -> int:
        """Union of the copies of x rolled by every value whose factor
        digits before i are already applied (nonzero: one of them is not
        zero), steps[i] being the rolls that add one unit of factor i."""
        if i == len(factors):
            return x if nonzero else 0
        out = 0
        for k in range(factors[i]):
            if k:
                for m, up, down in steps[i]:
                    low = x & m
                    x = (low << up) | ((x ^ low) >> down)
            out |= spread(x, steps, i + 1, nonzero or k > 0)
        return out

    tau = Orientation.default(g)
    reach = 1  # the zero map
    for e in sorted(range(g.m), key=lambda e: -min(g.ends(e))):
        size = max(size, order ** (g.n - min(g.ends(e))))
        coeff: dict[int, int] = {}
        for h in (2 * e, 2 * e + 1):
            v = g.halfedge_vertex(h)
            coeff[v] = coeff.get(v, 0) + tau(h)
        steps = []
        for i, q in enumerate(factors):
            rolls = []
            for v, c in coeff.items():
                r = c % q
                if r:
                    s = order ** (g.n - 1 - v) * inner[i]
                    rolls.append((mask(s, q, r), r * s, (q - r) * s))
            steps.append(rolls)
        reach = spread(reach, steps, 0, False)
    return reach


def is_A_connected(
    g: SignedGraph,
    A: AbelianGroup,
    samples: Optional[int] = None,
    seed: int = 0,
) -> ConnectivityVerdict:
    """Exact mode (samples=None): whether nowhere-zero maps reach every
    A-boundary (no forbidden map), from one sweep over the reachable
    boundaries; "no" names the first boundary missed in `_all_boundaries`
    order and counts the boundaries up to it.  Sampling mode: random
    (beta, fbar) pairs, verdict "sampled-yes" if none fails.
    """
    if samples is None:
        if g.n > MAX_EXACT_VERTICES or A.order > MAX_EXACT_GROUP_ORDER:
            raise DeskScaleError(
                f"exact A-connectivity limited to {MAX_EXACT_VERTICES} vertices"
                f" and group order {MAX_EXACT_GROUP_ORDER}")
        if g.m > 2 * MAX_FLOW_EDGES:
            raise DeskScaleError(f"{g.m} edges exceeds search limit")
        if g.n == 0:
            raise ValueError("a graph with no vertices has no boundaries")
        reach = _reachable_boundaries(g, A)
        # every boundary sums to an element of 2A, so reach holds no other map
        doubled = len({A.add(a, a) for a in A.elements()})
        total = A.order ** (g.n - 1) * doubled
        if reach.bit_count() == total:
            return ConnectivityVerdict("yes", checked=total)
        rank = {a: i for i, a in enumerate(sorted(A.elements()))}
        bits = reach.to_bytes((A.order ** g.n + 7) // 8, "little")
        count = 0
        for beta in _all_boundaries(g, A):
            count += 1
            code = 0
            for b in beta:
                code = code * A.order + rank[b]
            if not bits[code >> 3] >> (code & 7) & 1:
                return ConnectivityVerdict("no", witness_beta=beta, checked=count)
        raise AssertionError("reachable boundaries miss one, but no boundary"
                             " is missing")
    rng = random.Random(seed)
    elems = sorted(A.elements())
    doubled = sorted({A.add(a, a) for a in A.elements()})
    for i in range(samples):
        beta = [rng.choice(elems) for _ in range(g.n - 1)]
        target = rng.choice(doubled)
        beta.append(A.sub(target, A.sum(beta)))
        fbar = [rng.choice(elems) for _ in range(g.m)]
        if satisfy_boundary(g, A, beta, fbar=fbar) is None:
            return ConnectivityVerdict("no", witness_beta=beta, witness_fbar=fbar,
                                       seed=seed, checked=i + 1)
    return ConnectivityVerdict("sampled-yes", seed=seed, checked=samples)
