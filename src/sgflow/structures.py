"""Structural objects used by the decomposition and flow machinery.

The cycles inside an edge set are enumerated through its GF(2) cycle
space: every simple cycle is a symmetric difference of fundamental cycles,
so scanning all 2^(|S|-n+c) combinations and keeping the connected
2-regular ones is exhaustive.  Desk scale keeps the dimension small (6 for
Petersen, 10 for K6).  A fundamental cycle closes its edge with the tree
path, climbed from both of its ends in the tree rooted once per forest.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Optional, Sequence

from .core import (DeskScaleError, Frozen, SignedGraph, MINUS, PLUS,
                   _setattr, _tree_order, component_count, is_balanced,
                   spanning_forest)

MAX_CYCLE_SPACE_DIM = 20
ALL_CYCLES_MEMO = 16  # graphs whose cycle lists all_cycles keeps


class CycleRef(Frozen):
    """A simple cycle as an edge sequence in traversal order.  An immutable
    value: equality and the hash read edges, vertices and sign only."""

    def __init__(self, edges: tuple[int, ...], vertices: tuple[int, ...],
                 sign: int):
        _setattr(self, "edges", edges)
        # vertices[i] is shared by edges[i-1], edges[i]
        _setattr(self, "vertices", vertices)
        _setattr(self, "sign", sign)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.edges, self.vertices, self.sign)
                == (other.edges, other.vertices, other.sign))

    def __hash__(self):
        return hash((self.edges, self.vertices, self.sign))

    @functools.cached_property
    def edge_set(self) -> frozenset[int]:
        # kept in the instance dict, outside what eq and hash read
        return frozenset(self.edges)

    @functools.cached_property
    def mask(self) -> int:
        """The edge set as an int, bit e for edge e (kept like edge_set)."""
        return sum(1 << e for e in self.edges)

    def __len__(self) -> int:
        return len(self.edges)


def cycle_sign(g: SignedGraph, edges: Iterable[int]) -> int:
    s = 1
    for e in edges:
        s *= g.sigma(e)
    return s


def order_cycle(g: SignedGraph, edge_set: Iterable[int]) -> CycleRef:
    """Arrange an unordered cycle edge set into a CycleRef; raises if the
    set is not a single simple cycle."""
    c = _as_cycle(g.edges, frozenset(edge_set))
    if c is None:
        raise ValueError("edge set is not a single simple cycle")
    return c


def _as_cycle(edges: Sequence[tuple[int, int, int]],
              es: frozenset[int]) -> Optional[CycleRef]:
    """The CycleRef of edge set es if it is one simple cycle, else None.

    The walk starts at the least vertex and leaves it by its lesser edge.
    A set whose vertices all have degree <= 2 and that has as many vertices
    as edges is a union of disjoint cycles; it is one cycle when the walk
    uses every edge.
    """
    if len(es) == 1:
        (e,) = es
        u, v, s = edges[e]
        return CycleRef((e,), (u,), s) if u == v else None
    inc: dict[int, list[int]] = {}
    for e in es:
        u, v, _ = edges[e]
        if u == v:
            return None
        for x in (u, v):
            at = inc.get(x)
            if at is None:
                inc[x] = [e]
            elif len(at) == 2:
                return None
            else:
                at.append(e)
    if not inc or len(inc) != len(es):
        return None
    start = min(inc)
    verts = [start]
    walk = [min(inc[start])]
    sign = 1
    cur = start
    while True:
        e = walk[-1]
        u, v, s = edges[e]
        sign *= s
        cur = v if cur == u else u
        if cur == start:
            break
        verts.append(cur)
        a, b = inc[cur]
        walk.append(b if a == e else a)
    if len(walk) != len(es):
        return None
    return CycleRef(tuple(walk), tuple(verts), sign)


def fundamental_cycle(g: SignedGraph, tree: Iterable[int], e: int) -> list[int]:
    """Edges of the unique cycle in tree + e (e itself if a loop): the tree
    path from e's second end back to its first, then e."""
    return fundamental_cycles(g, tree)(e)


def fundamental_cycles(g: SignedGraph, tree: Iterable[int]
                       ) -> Callable[[int], list[int]]:
    """fundamental_cycle for any edge of g, off the forest rooted once
    (core._tree_order): each cycle climbs from both ends of its edge, the
    deeper end first, until they meet.  ValueError for an edge whose ends
    lie in different trees."""
    order, up = _tree_order(g, tree, range(g.n))
    depth = [0] * g.n
    for x in order:
        if up[x] >= 0:
            depth[x] = depth[g.other_end(up[x], x)] + 1

    def cycle(e: int) -> list[int]:
        u, v, _ = g.edges[e]
        from_u: list[int] = []
        from_v: list[int] = []
        while u != v:
            if depth[u] >= depth[v]:
                if up[u] < 0:  # two roots
                    raise ValueError("edge endpoints in different tree"
                                     " components")
                from_u.append(up[u])
                u = g.other_end(up[u], u)
            else:
                from_v.append(up[v])
                v = g.other_end(up[v], v)
        return from_v + from_u[::-1] + [e]

    return cycle


def cycles_within(g: SignedGraph, edges: Iterable[int]) -> list[CycleRef]:
    """The cycles of g that use only the given edges, by scanning the edge
    set's own GF(2) cycle space, sorted by (length, edge sequence).

    The scan visits the combinations of the set's fundamental cycles in
    Gray-code order, so each one is one symmetric difference away from the
    last.  A CycleRef's walk depends only on its edges, so the list is the
    same whichever forest the scan starts from.
    """
    es = sorted(set(edges))
    tree = spanning_forest(g, es)
    in_tree = set(tree)
    cotree = [e for e in es if e not in in_tree]
    dim = len(cotree)
    if dim > MAX_CYCLE_SPACE_DIM:
        raise DeskScaleError(f"cycle space dimension {dim} too large")
    cycle = fundamental_cycles(g, tree)
    fund = [frozenset(cycle(e)) for e in cotree]
    out = []
    acc: frozenset[int] = frozenset()
    for mask in range(1, 1 << dim):
        acc = acc ^ fund[(mask & -mask).bit_length() - 1]
        c = _as_cycle(g.edges, acc)
        if c is not None:
            out.append(c)
    out.sort(key=lambda c: (len(c), c.edges))
    return out


@functools.lru_cache(maxsize=ALL_CYCLES_MEMO)
def all_cycles(g: SignedGraph) -> tuple[CycleRef, ...]:
    """Every simple cycle of g, in cycles_within order, memoised per graph
    value: the pipeline asks for the cycles of the same graph many times."""
    return tuple(cycles_within(g, range(g.m)))


# -- k-closure -------------------------------------------------------------------

class ClosureResult:
    def __init__(self, closure: frozenset[int],
                 steps: Optional[list[tuple[CycleRef, frozenset[int]]]] = None):
        self.closure = closure
        # each step is (positive cycle C_i, newly absorbed edges W_i)
        self.steps = [] if steps is None else steps


def _edges_of(mask: int) -> frozenset[int]:
    """The edge indices whose bits are set in mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def extend_closure(positive: Sequence[CycleRef], cur: int, k: int,
                   cover: int,
                   steps: Optional[list[tuple[CycleRef, frozenset[int]]]]
                   = None) -> int:
    """Absorb into the edge mask cur (bit e for edge e) the edges of each
    cycle C of `positive` with 1 <= |E(C) - cur| <= k, in list order, pass
    after pass, until a pass absorbs nothing or cur holds every edge of
    the mask cover; each absorption (C, newly absorbed edges) is appended
    to steps when given.

    The k-closure is monotone and idempotent, so cl(S + cur) = cl(cur) for
    any S inside cl(cur): a cur stopped early still lies inside the
    closure, and a later call may go on from it with more seed edges."""
    if not cover & ~cur:
        return cur
    changed = True
    while changed:
        changed = False
        for c in positive:
            missing = c.mask & ~cur
            if missing and missing.bit_count() <= k:
                cur |= missing
                if steps is not None:
                    steps.append((c, _edges_of(missing)))
                if not cover & ~cur:
                    return cur
                changed = True
    return cur


def k_closure(g: SignedGraph, seed: Iterable[int], k: int) -> ClosureResult:
    """Least fixpoint of: absorb E(C) for any positive cycle C with
    1 <= |E(C) - S| <= k.  Order-independent; we scan shortest first.
    S is held as an int with bit e for edge e, tested against each
    cycle's mask; the scan stops once S is all of E, where no cycle has
    an edge left to absorb."""
    cur = 0
    for e in seed:
        cur |= 1 << e
    steps: list[tuple[CycleRef, frozenset[int]]] = []
    cur = extend_closure([c for c in all_cycles(g) if c.sign == PLUS], cur,
                         k, (1 << g.m) - 1, steps)
    return ClosureResult(_edges_of(cur), steps)


# -- peripheral cycles --------------------------------------------------------------

def is_peripheral(g: SignedGraph, c: CycleRef) -> bool:
    """Induced (chordless) and g - V(C) connected."""
    vc = set(c.vertices)
    on_c = c.edge_set
    outside = []
    for e, (u, v, _) in enumerate(g.edges):
        if u in vc and v in vc:
            if e not in on_c:
                return False  # chord
        elif u not in vc and v not in vc:
            outside.append(e)
    return component_count(g, outside, set(range(g.n)) - vc) <= 1


def find_peripheral_cycle(g: SignedGraph, want_sign: Optional[int] = None,
                          require_unbalanced_complement: bool = False
                          ) -> Optional[CycleRef]:
    """First peripheral cycle of the requested sign, optionally with
    g - E(C) still unbalanced."""
    for c in all_cycles(g):
        if want_sign is not None and c.sign != want_sign:
            continue
        if not is_peripheral(g, c):
            continue
        if require_unbalanced_complement:
            on_c = c.edge_set
            if is_balanced(g, [e for e in range(g.m) if e not in on_c]).balanced:
                continue
        return c
    return None


# -- negative suns -------------------------------------------------------------------

class NegativeSun:
    """A negative cycle e_1..e_n (vertices v_1..v_n, e_i from v_i to
    v_{i+1}) with a pendant edge e_i' at each cycle vertex v_i."""

    def __init__(self, cycle_edges: tuple[int, ...],
                 cycle_vertices: tuple[int, ...],
                 pendant_edges: tuple[int, ...],
                 pendant_vertices: tuple[int, ...]):
        self.cycle_edges = cycle_edges
        self.cycle_vertices = cycle_vertices
        self.pendant_edges = pendant_edges
        self.pendant_vertices = pendant_vertices

    @property
    def n(self) -> int:
        return len(self.cycle_edges)

    @property
    def edge_set(self) -> frozenset[int]:
        return frozenset(self.cycle_edges) | frozenset(self.pendant_edges)

    def validate(self, g: SignedGraph) -> None:
        c = order_cycle(g, self.cycle_edges)
        if c.sign != MINUS:
            raise ValueError("sun cycle is not negative")
        n = self.n
        for i in range(n):
            vi = self.cycle_vertices[i]
            ei = self.cycle_edges[i]
            if vi not in g.ends(ei) or self.cycle_vertices[(i + 1) % n] not in g.ends(ei):
                raise ValueError("cycle labelling broken")
            pe = self.pendant_edges[i]
            if vi not in g.ends(pe):
                raise ValueError(f"pendant edge {pe} not at cycle vertex {vi}")
            if g.other_end(pe, vi) != self.pendant_vertices[i]:
                raise ValueError("pendant vertex mismatch")
            if self.pendant_vertices[i] in self.cycle_vertices:
                raise ValueError("pendant endpoint lies on the cycle")


def build_negative_sun(n: int) -> tuple[SignedGraph, NegativeSun]:
    """H_n: negative n-cycle v_1..v_n (only e_1 negative) with one pendant
    edge at each cycle vertex.  Vertices 0..n-1 are the cycle, n..2n-1 the
    pendant tips; edges 0..n-1 are e_1..e_n, edges n..2n-1 are e_1'..e_n'."""
    if n < 3:
        raise ValueError("need n >= 3")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n, MINUS if i == 0 else PLUS))
    for i in range(n):
        edges.append((i, n + i, PLUS))
    g = SignedGraph(2 * n, tuple(edges))
    sun = NegativeSun(
        cycle_edges=tuple(range(n)),
        cycle_vertices=tuple(range(n)),
        pendant_edges=tuple(range(n, 2 * n)),
        pendant_vertices=tuple(range(n, 2 * n)),
    )
    return g, sun


def as_negative_sun(g: SignedGraph, edge_set: Iterable[int]) -> Optional[NegativeSun]:
    """Interpret an edge set as a negative sun if it has that shape:
    degree-3 vertices forming a single negative cycle, each carrying
    exactly one pendant edge whose far end is off the cycle."""
    es = set(edge_set)
    deg: dict[int, int] = {}
    for e in es:
        u, v = g.ends(e)
        if u == v:
            return None
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    cyc_vs = {v for v, d in deg.items() if d == 3}
    cyc_edges = {e for e in es if all(x in cyc_vs for x in g.ends(e))}
    pend = es - cyc_edges
    if not cyc_edges:
        return None
    try:
        c = order_cycle(g, cyc_edges)
    except ValueError:
        return None
    if set(c.vertices) != cyc_vs or c.sign != MINUS:
        return None
    if len(pend) != len(cyc_vs):
        return None
    pend_at: dict[int, int] = {}
    for e in pend:
        u, v = g.ends(e)
        on = [x for x in (u, v) if x in cyc_vs]
        if len(on) != 1:
            return None
        if on[0] in pend_at:
            return None
        pend_at[on[0]] = e
    pes = tuple(pend_at[v] for v in c.vertices)
    pvs = tuple(g.other_end(pend_at[v], v) for v in c.vertices)
    return NegativeSun(c.edges, c.vertices, pes, pvs)
